"""Test-side tape op: a node's entries summed into a scalar loss, so that a
test can run a tape's backward from a node that is not a scalar, the
document scores of encode_documents say.

Tests of the pattern layer's parts call Tape.pattern_affine,
autodiff.scan_forward and autodiff.scan_backward directly, in the engine's
(n,W,B,k) grid layout; they need no node here."""

from __future__ import annotations

import numpy as np


def _hand_over(node, g):
    """Add adjoint g to node.grad; a g allocated by the op and referenced
    nowhere else becomes node.grad uncopied."""
    if node.grad is None:
        node.grad = g
    else:
        node.grad += g


def scalarize(tape, node):
    """Sum every entry of node into one scalar node; each entry's adjoint is
    the sum's."""
    def bw(g):
        _hand_over(node, np.full(node.shape, g))
    return tape.op(float(np.sum(node.value)), bw)
