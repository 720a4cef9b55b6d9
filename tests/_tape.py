"""A test-side tape op: the plain sum of a node, as a scalar loss."""

from __future__ import annotations

import numpy as np

from sopa.autodiff import _accumulate


def scalarize(tape, node):
    """Sum every entry of node into one scalar node; each entry's adjoint is
    the sum's."""
    def bw(g):
        _accumulate(node, np.full(node.shape, g), fresh=True)
    return tape._op(float(np.sum(node.value)), bw)
