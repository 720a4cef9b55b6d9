"""Test-side helpers for the tape and the pattern engine's parts.

fd_max_err checks a loss's gradient against finite differences, and
scalarize sums a node's entries into a scalar loss, so that a test can run a
tape's backward from a node that is not a scalar, the document scores of
encode_documents say.

Tests of the engine's parts call Tape.pattern_affine, engine.scan_forward
and engine.scan_backward directly.  The engine reads per-token scores from
(W,U,k) slot tables (slot_table gives pattern_affine one to write into),
the scan from both families' in one (2,W,U,k) array (paired_tables), through a (B,n) index, hands adjoints back as (slot,
value) pairs and builds no (n,W,B,k) grid; the helpers below convert
between these and the grid, so that a test can write and check its scores
and adjoints cell by cell in the grid layout."""

from __future__ import annotations

import numpy as np

from sopa.autodiff import finite_difference_check
from sopa.engine import grid_cells


def fd_max_err(loss, params, max_checks=None):
    """The worst relative error of loss's gradient against finite
    differences.  loss(grad) returns the loss as a float and, when grad is
    set, adds its gradient to each Param's grad."""
    for p in params:
        p.zero_grad()
    loss(True)
    report = finite_difference_check(lambda: loss(False), params, max_checks=max_checks)
    return report.max_rel_error


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


def grid_table(grid):
    """An (n,W,B,k) grid as a slot table and its index: the (W,B*n,k) table
    whose row t*B + b holds position (b, t)'s cells, and the (B,n) index
    t*B + b, so that every cell a scan gathers holds the grid's value."""
    n, width, bsz, k = grid.shape
    table = np.ascontiguousarray(np.transpose(grid, (1, 0, 2, 3))).reshape(width, n * bsz, k)
    return table, np.ascontiguousarray(np.arange(n * bsz).reshape(n, bsz).T)


def slot_table(vectors, lengths, fill):
    """A (W,U,k) slot table full of fill for pattern_affine to write the
    scores of patterns of the given lengths into; its padded cells keep
    fill."""
    return np.full((max(lengths), len(vectors), len(lengths)), fill)


def paired_tables(sl, mp, absent):
    """scan_forward's tables and self_loops arguments from a self-loop
    table, None for a disabled family, and a main table."""
    return np.stack([np.full(mp.shape, absent) if sl is None else sl, mp]), sl is not None


def gather_grid(table, index):
    """The (n,W,B,k) grid of the scores a scan reads from a (W,U,k) slot
    table through a (B,n) index."""
    return np.ascontiguousarray(table[:, index.T].transpose(1, 0, 2, 3))


def dense_adjoint(g, lengths):
    """A family's (slot, value) adjoint from scan_backward, for patterns of
    the given lengths, placed on the (n,W,B,k) grid with zeros elsewhere:
    one arc per lane and token and every slot alike."""
    slot, value = g
    slot = np.broadcast_to(slot, value.shape)
    width = max(lengths)
    patterns, columns = np.divmod(grid_cells(lengths), width)
    bsz, n, _ = value.shape
    out = np.zeros((n, width, bsz, len(lengths)))
    b, t, m = np.nonzero(slot >= 0)
    at = slot[b, t, m]
    out[t, columns[at], b, patterns[at]] = value[b, t, m]
    return out


def slot_adjoint(grid, lengths):
    """The slot cells of an (n,W,B,k) grid as a family's (slot, value)
    adjoint: every slot at every position."""
    patterns, columns = np.divmod(grid_cells(lengths), max(lengths))
    return np.arange(len(columns)), grid[:, columns, :, patterns].transpose(2, 1, 0)
