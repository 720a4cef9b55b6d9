"""Test-side tape ops: a node's plain or weighted sum, or one of its
entries, as a scalar loss."""

from __future__ import annotations

import numpy as np

from sopa.autodiff import _accumulate


def scalarize(tape, node):
    """Sum every entry of node into one scalar node; each entry's adjoint is
    the sum's."""
    def bw(g):
        _accumulate(node, np.full(node.shape, g), fresh=True)
    return tape._op(float(np.sum(node.value)), bw)


def pick(tape, node, index):
    """The entry of node at index as a scalar node.  Its adjoint is seeded
    directly and every other entry's is zero, so no other value, an
    unmatched -inf score say, enters the backward."""
    def bw(g):
        seed = np.zeros(node.shape)
        seed[index] = g
        _accumulate(node, seed, fresh=True)
    return tape._op(float(node.value[index]), bw)


def weigh(tape, node, weights):
    """The sum of node's entries times fixed weights as a scalar node; each
    entry's adjoint is its weight times the sum's."""
    def bw(g):
        _accumulate(node, g * weights, fresh=True)
    with np.errstate(invalid="ignore"):  # -inf scores weighted with both signs
        return tape._op(float(np.sum(node.value * weights)), bw)
