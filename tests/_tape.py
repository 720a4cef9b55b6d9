"""Test-side tape ops: a node's plain or weighted sum, or one of its
entries, as a scalar loss; and the bank layer's parts, the projection onto
the grid and the scan, as nodes of their own, so that tests can feed them
chosen values and read their adjoints.

Tests build and index grids documents first, (B,n,k,W); the engine lays
them out column first, (n,W,B,k) (see autodiff.ScanRun).  The nodes here
translate between the two with transposed views; the scan gets its grids
C-contiguous, as in the engine, copied only where a test built them
documents first."""

from __future__ import annotations

import numpy as np

from sopa.autodiff import Tape, scan_backward, scan_forward


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


def pick(tape, node, index):
    """The entry of node at index as a scalar node.  Its adjoint is seeded
    directly and every other entry's is zero, so no other value, an
    unmatched -inf score say, enters the backward."""
    def bw(g):
        seed = np.zeros(node.shape)
        seed[index] = g
        _hand_over(node, seed)
    return tape.op(float(node.value[index]), bw)


def weigh(tape, node, weights):
    """The sum of node's entries times fixed weights as a scalar node; each
    entry's adjoint is its weight times the sum's."""
    def bw(g):
        _hand_over(node, g * weights)
    with np.errstate(invalid="ignore"):  # -inf scores weighted with both signs
        return tape.op(float(np.sum(node.value * weights)), bw)


def lanes_last(grid):
    """A (B,n,k,W) grid as the engine lays it out, (n,W,B,k); a view."""
    return grid.transpose(1, 3, 0, 2)


def documents_first(grid):
    """An (n,W,B,k) grid of the engine as a (B,n,k,W) view."""
    return grid.transpose(2, 0, 3, 1)


def _scan_operand(grid):
    # C-contiguous, as the engine's projection hands the scan its grids; no
    # copy of a grid that documents_first viewed
    return np.ascontiguousarray(lanes_last(grid))


def affine_node(tape, vectors, index, weights, bias, encoder, lengths, fill):
    """Tape.pattern_affine as a node: the (B,n,k,W) grid from weights and
    bias nodes."""
    grid, backward = Tape.pattern_affine(vectors, index, weights.value, bias.value, encoder,
                                         lengths, fill)

    def bw(g):
        for node, g_node in zip((weights, bias), backward(lanes_last(g))):
            _hand_over(node, g_node)
    return tape.op(documents_first(grid), bw)


def scan_node(tape, sr, sl, mp, eps, encoder, valid, lengths):
    """scan_forward and scan_backward as a node: document scores (B,k) from
    the (B,n,k,W) self-loop and main grid nodes and the epsilon
    pre-activations' node, None for a disabled family.  Returns the node and
    the finalized end scores (B,n,k) as a plain array."""
    run = scan_forward(sr, None if sl is None else _scan_operand(sl.value), _scan_operand(mp.value),
                       None if eps is None else eps.value, encoder, valid,
                       tape.grad_enabled, lengths)

    def bw(g):
        g_sl, g_mp, g_eps = scan_backward(sr, run, g, valid, encoder, lengths, sl is not None,
                                          eps is not None)
        for node, g_node in ((sl, g_sl), (mp, g_mp)):
            if node is not None:
                _hand_over(node, documents_first(g_node))
        if eps is not None:
            _hand_over(eps, g_eps)
    return tape.op(run.scores, bw), sr.finalize_scores(run.ends)


def transitions(sr, config, bank, vectors, index):
    """The bank's encoded (B,n,k,W) self-loop and main grids and its epsilon
    pre-activations as nodes of a grad-free tape, None for a disabled
    family."""
    tape = Tape(grad=False)

    def family(weights, bias):
        return affine_node(tape, vectors, index, tape.const(weights), tape.const(bias),
                           config.encoder, bank.lengths, sr.absent)
    return (family(bank.u, bank.a) if config.self_loops else None, family(bank.w, bank.b),
            tape.const(bank.c) if config.epsilons else None)
