"""The pattern engine: projection, scan, both backwards and the trace walk.

The bank's patterns share a grid right-aligned at the longest length
(grid_cells).  project, the one projection kernel of the engine and the
oracles, scores each distinct token of a batch once into a (W,U,k) slot
table per family (pattern_affine), the two families' tables being the
halves of one (2,W,U,k) array, and each scan step gathers both families'
operands from it with one take, column first (see ScanRun).  A one-track
max-product scan whose every real factor is finite and positive, with both
families on, runs bare: its products are plain multiplies, its padded factors
+inf, so a padded state stays -inf unguarded (see scan_forward); every other
max-product scan guards its products against -inf.  No backward and no
trace reads a padded cell.  The scan's backward,
scan_backward(run, g), reads all else from the ScanRun and is linear in
document length: under the max semirings it walks each lane's best path
back along the winners the scan recorded (walk_best_paths), under
sum-product it runs the backward-algorithm recurrence
(_sum_product_backward).  A trace (trace_lane) follows one lane's records
back in scalar Python (_best_path), so ties resolve as the gradient does.
The engine knows no tape: automata._scan_bank records a bank's layer as one
node.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from sopa.semiring import MAX_PRODUCT, MAX_SUM, SUM_PRODUCT, Semiring, get_semiring


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    # t = exp(-|x|) never overflows; minimum keeps a NaN's sign bit
    t = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0, t) / (1.0 + t)


ENCODER_SIGMOID = "sigmoid"
ENCODER_IDENTITY = "identity"
ENCODERS = (ENCODER_SIGMOID, ENCODER_IDENTITY)


def encode_values(x: np.ndarray, encoder: str) -> np.ndarray:
    if encoder == ENCODER_SIGMOID:
        return stable_sigmoid(np.asarray(x, dtype=np.float64))
    if encoder == ENCODER_IDENTITY:
        return np.asarray(x, dtype=np.float64)
    raise ValueError(f"unknown encoder {encoder!r}")


def project(vectors: np.ndarray, weights: np.ndarray, bias: np.ndarray,
            encoder: str) -> np.ndarray:
    """Encoded transition scores (U,e) x (...,e) + (...) -> (U,...).

    The one projection kernel of the engine and the oracles.  numpy's C
    einsum (optimize=False calls no BLAS) reduces each output over the
    contiguous e axis by itself, so a token scores bitwise alike alone and in
    any batch, and a slot alike among the bank's slots and among one
    pattern's: the engine projects the bank, the oracles one pattern, and
    they agree bitwise only by both properties.  A BLAS matmul has neither;
    its outputs change in the last bits with the number of rows in the
    product and with the number of slots (output columns).  Both operands
    are made C-ordered first, because einsum's summation order follows the
    memory layout.
    """
    rows, dim = vectors.shape
    out = np.einsum("ue,ke->uk", np.ascontiguousarray(vectors),
                    np.ascontiguousarray(weights.reshape(-1, dim)), optimize=False)
    out += bias.reshape(-1)
    return encode_values(out, encoder).reshape((rows,) + bias.shape)


def grid_cells(lengths) -> np.ndarray:
    """Flat position of every pattern slot, in declared order, on the
    (k, L_max) grid of a pattern bank.

    The grid is right-aligned: pattern p's slot j sits at column
    L_max - L_p + j, so every pattern's end state is column L_max.
    """
    lengths = np.asarray(lengths)
    width = lengths.max()
    starts = np.repeat(np.arange(len(lengths)) * width + width - lengths, lengths)
    offsets = np.repeat(np.cumsum(lengths) - lengths, lengths)
    return starts + np.arange(lengths.sum()) - offsets


def pattern_affine(vectors: np.ndarray, index: np.ndarray, weights: np.ndarray,
                   bias: np.ndarray, encoder: str, lengths, out: np.ndarray):
    """Encoded token/slot scores of a padded batch written into out as a
    pattern bank's (W,U,k) slot table, one family's half of the scan's
    (2,W,U,k) tables, which the scan reads through index (see ScanRun);
    returns out and their backward.

    weights (S,e) and bias (S,) hold the slots of patterns of the given
    lengths in declared order; W is the longest length.  Only the slot
    cells are written: padded grid cells (see grid_cells) keep what out
    held, the absent marker in the scan's tables.  vectors (U,e) holds the
    batch's distinct token vectors, projected once, and index (B,n) picks each
    position's row.  backward(g) maps a family's (slot, value) adjoint (see
    scan_backward) to those of weights and bias: one bincount scatter-adds
    the values into the (row, slot) bins of the U rows, each bin adding its
    positions in (document, token) order, and the weight gradient is one
    (S,U)@(U,e) matmul.
    """
    width = max(lengths)
    patterns, columns = np.divmod(grid_cells(lengths), width)
    slots = project(vectors, weights, bias, encoder)
    out[columns, :, patterns] = slots.T
    del slots  # the backward reads the slots' scores back from the table

    def backward(g):
        slot, value = g
        bins = len(vectors) * len(columns)
        # one bin per (row, slot); a value without a slot adds into a bin
        # past the last
        at = np.where(slot < 0, bins, index[:, :, None] * len(columns) + slot)
        g_rows = np.bincount(at.reshape(-1), weights=value.reshape(-1),
                             minlength=bins + 1)[:bins].reshape(len(vectors), -1)
        del at  # as large as the adjoint; freed before the encoder's derivative
        if encoder == ENCODER_SIGMOID:
            y = out[columns, :, patterns].T  # the slots' scores, (U,S)
            g_rows *= y * (1.0 - y)
        return g_rows.T @ vectors, g_rows.sum(axis=0)
    return out, backward


def _extend(sr: Semiring, x: np.ndarray, b: np.ndarray, out: np.ndarray, bare: bool):
    """Write the path products of every track of x (K,...) by factor b into out.

    Two tracks are a (max, negated min) pair extended by the sign-selected
    dual product, used only when some factor is negative; one track is
    extended by the path product, guarded unless the scan runs bare (see
    scan_forward).
    """
    if len(x) == 2:
        out[0], out[1] = sr.dual_times_arrays(x[0], x[1], b)
    else:
        sr.path_times_arrays(x[0], b, out=out[0], bare=bare)


def _aligned_empty(shape, dtype=np.float64) -> np.ndarray:
    """An uninitialised C-ordered array whose data starts on a 64-byte
    (cache line) boundary.

    A ufunc storing one contiguous block runs up to twice as fast into
    cache-line-aligned memory, and malloc aligns only to 16 bytes, so the
    scan's speed would otherwise change with where the heap placed its
    buffers, from one call or one process to the next.
    """
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    raw = np.empty(nbytes + 64, dtype=np.uint8)
    skip = -raw.ctypes.data % 64
    return raw[skip:skip + nbytes].view(dtype).reshape(shape)


def _step_buffers(shape, absent: float) -> tuple:
    """The buffers of _scan_step, reused by every step: the self-loop and
    main operands, the (K,2,W,B,k) view of both that one product fills, and
    the epsilon, combined and closed operands, each (K,W+1,B,k).

    The self-loop and main operands are the halves of one pair, each a
    C-ordered block on cache lines of its own: the first half's length is
    rounded up to whole lines.  The view takes the self-loops' columns
    0..W-1 of the first half and the main arcs' columns 1..W of the second,
    so a product with state j lands at j and at j+1.  The pair and the
    epsilon operand keep the absent marker in the pad columns no arc writes:
    these are states no arc enters, absent in a bare scan too, whose padded
    factors alone hold +inf.
    """
    size = math.prod(shape)
    lines = -(-size * 8 // 64)
    pair = _aligned_empty((2, lines * 8))[:, :size].reshape((2,) + shape)
    stay = pair[0, :, :-1]
    both = np.lib.stride_tricks.as_strided(
        stay, stay.shape[:1] + (2,) + stay.shape[1:],
        stay.strides[:1] + (pair.strides[0] + pair.strides[2],) + stay.strides[1:])
    eps_in, comb, closed = (_aligned_empty(shape) for _ in range(3))
    pair.fill(absent)
    eps_in.fill(absent)
    return pair[0], pair[1], both, eps_in, comb, closed


def _operands(tables: np.ndarray, index: np.ndarray):
    """gather(t) -> token t's (2,W,B,k) self-loop and main operands of a
    step, taken from the (2,W,U,k) slot tables through index (B,n) by one
    take into a cache-line-aligned buffer that every step reuses."""
    _, width, _, k = tables.shape
    rows = np.ascontiguousarray(index.T)  # (n,B): each step's rows, contiguous
    buf = _aligned_empty((2, width, len(index), k))

    def gather(t):
        # into out= directly: mode "raise" would gather through a temporary
        return tables.take(rows[t], axis=2, out=buf, mode="clip")
    return gather


def _scan_step(sr: Semiring, h, ops, eps, restart, bufs, out, won=None, bare=False):
    """Consume one token: states h (K,L+1,B,c) -> (combined, closed, next h).

    Main arcs move state j to j+1 and self-loops keep it; then at most one
    epsilon advances each state, and a fresh span may start.  ops (2,L,B,c)
    holds the token's self-loop and main factors.  bufs (see _step_buffers)
    holds the self-loop, main, epsilon, combined and closed operands
    afterwards, and out, which may be h itself, the next states.  won
    (3,K,L+1,B,c), when given, receives whether the first operand of each
    max won it, the first on ties: a main arc over a self-loop, a token arc
    over an epsilon, a running span over a fresh one.  bare runs both
    products unguarded (see scan_forward).  Every slice is of the state
    column, the third-last axis, so each operand of a ufunc is one
    contiguous block per family and track, and every result is stored into
    a buffer allocated once, not into a fresh array.
    """
    stay, moved, both, eps_in, comb, closed = bufs
    length = h.shape[1] - 1
    x = h[:, :length]  # the end state has no outgoing arcs
    # the families share the state operand: one product for both
    _extend(sr, x[:, None], ops, both, bare)
    sr.plus_arrays(moved, stay, out=comb)
    _extend(sr, comb[:, :length], eps, eps_in[:, 1:], bare)
    sr.plus_arrays(comb, eps_in, out=closed)
    if won is not None:
        np.greater_equal(moved, stay, out=won[0])
        np.greater_equal(comb, eps_in, out=won[1])
        np.greater_equal(closed, restart, out=won[2])
    return comb, closed, sr.plus_arrays(closed, restart, out=out)


@dataclass
class ScanRun:
    """What one forward scan of a pattern bank leaves behind.

    Per-token arrays are laid out column first: the automaton state (or
    grid column) comes ahead of the (document, pattern) lanes, so that the
    column slices of a step (see _scan_step) are contiguous blocks of B*k
    lanes, and a ufunc's inner loop runs over the whole block, not over the
    W+1 states of one lane.

    ends (B,n,k) holds every step's end-state score, padding absent, and
    scores (B,k) the document scores, their finalized sum over positions;
    states (n+1,K,W+1,B,k) the state vectors before the first token and
    after each one, kept only where a backward reads them, for the
    sum-product recomputation and the max-product walk's factors, else None;
    K = 2 (max and negated min) only under max-product with a negative
    factor among the operands, else 1.  decisions (n,3,K,W+1,B,k), kept
    under the max semirings for a backward or a trace, records which operand
    won each max of a step (see _scan_step): the max-semiring backward
    (walk_best_paths) and traces (_best_path) follow it back and
    recompute nothing.  The sum-product backward recomputes every step from
    the states.  tables (2,W,U,k) holds the self-loop and main slot tables
    the scan gathered its operands from: row u holds distinct token u's
    scores on the right-aligned grid (see grid_cells), and index (B,n)
    picks each position's row, so position (b, t)'s factor at column j is
    tables[family, j, index[b, t]].  eps (W,1,k) holds the epsilons on the
    grid.  Padded cells of both hold +inf in a bare scan (see scan_forward)
    and the absent marker in any other, as does a disabled family's every
    cell; bare says which.  The backwards and traces read no padded cell.
    restart (K,W+1,1,k) is the fresh-span vector injected at every
    step; starts (k,) is the column of each pattern's start state, and lead
    holds, in order, the patterns whose restart carries the pre-token
    epsilon.  semiring, encoder, lengths, valid, self_loops and epsilons
    (whether the families are on) are the scan's arguments its backward
    reads.
    """

    semiring: Semiring
    encoder: str
    lengths: np.ndarray
    valid: np.ndarray
    self_loops: bool
    epsilons: bool
    bare: bool
    ends: np.ndarray
    scores: np.ndarray
    states: np.ndarray | None
    decisions: np.ndarray | None
    tables: np.ndarray
    index: np.ndarray
    eps: np.ndarray
    restart: np.ndarray
    starts: np.ndarray
    lead: np.ndarray


def scan_forward(sr: Semiring, tables: np.ndarray, self_loops: bool, index: np.ndarray,
                 eps: np.ndarray | None, encoder: str, valid: np.ndarray,
                 keep: bool, lengths, trace: bool = False) -> ScanRun:
    """The pattern recurrence's forward pass.

    tables (2,W,U,k), C-ordered, holds the slot tables of encoded self-loop
    and main scores on the bank's grid, its padded cells the absent marker,
    index (B,n) each position's row in them, and eps (S,) the slots'
    epsilon pre-activations, encoded here.  Without self-loops (self_loops
    false) the self-loop table holds the absent marker throughout; None for
    eps marks disabled epsilons.  The ScanRun keeps tables, and a bare scan
    writes +inf into their padded cells.  valid
    (B,n) flags real tokens.  keep keeps what scan_backward reads, trace
    only the records a trace reads.  The loop runs the same elementwise
    semiring operations as a step-by-step evaluation would, so scores and
    operation counts do not depend on what is kept; the winners a
    max-semiring scan records are compared outside the semiring.  Max only
    distributes over nonnegative factors, so under max-product a negative
    factor in any enabled family makes each state carry a (max product,
    negated min product) pair; without one, the max track alone is the same
    recurrence.  The tables decide it: each of their cells is a slot score
    or the absent marker, which is not a factor of any path, and each of
    their rows is some position's.

    The guard of the one-track product (Semiring.path_times_arrays) exists
    for -inf * 0.0 and -inf * -inf.  A max-product scan with both families
    on whose every slot score and epsilon is finite and positive (sigmoid
    scores, bar one that rounds to 0.0) has no such product, so it runs
    bare, each product one multiply: a real state meets only real factors,
    of its own column, and a padded state stays -inf, its factors +inf,
    written here into the padded cells of tables and of the epsilon grid.
    It runs under the caller's warning setting, where an invalid product
    would warn.  Every other max-product scan runs its loop in one
    np.errstate that silences the guarded -inf * 0.0 of its products.  The
    choice is made once per scan, from the same tables.
    """
    _, width, distinct, k = tables.shape
    bsz, n = index.shape
    absent = sr.absent
    lengths = np.asarray(lengths)
    slots = int(lengths.sum())
    eps_v = np.full(k * width, absent)
    if eps is not None:
        eps_v[grid_cells(lengths)] = encode_values(eps, encoder)
    eps_v = np.ascontiguousarray(eps_v.reshape(k, width).T)[:, None, :]
    product = sr.kind == MAX_PRODUCT
    # the padding is -inf, so a count of positive cells counts real cells
    # alone; then a max below inf rules out a real +inf
    bare = bool(product and self_loops and eps is not None
                and np.count_nonzero(tables > 0) == 2 * distinct * slots
                and np.count_nonzero(eps_v > 0) == slots
                and max(tables.max(), eps_v.max()) < np.inf)
    starts = width - lengths
    if bare:
        pad = np.nonzero(np.arange(width)[:, None] < starts)  # (column, pattern)
        tables[:, pad[0], :, pad[1]] = eps_v[pad[0], 0, pad[1]] = np.inf
    dual = product and not bare and any(((x < 0) & (x != absent)).any()
                                        for x in (*tables, eps_v))
    tracks = 2 if dual else 1

    # restart vector: a fresh span may begin before any token.  A pattern's
    # start state holds the semiring one; the next state holds its pre-token
    # epsilon unless that epsilon would already complete the pattern
    # (zero-token matches are excluded).
    patterns = np.arange(k)
    lead = np.flatnonzero((lengths >= 2) & (eps is not None))
    rows = np.concatenate([patterns, lead])
    cols = np.concatenate([starts, starts[lead] + 1])
    values = np.concatenate([np.full(k, sr.one), eps_v[starts[lead], 0, lead]])
    restart = np.full((tracks, width + 1, 1, k), absent)
    restart[0, cols, 0, rows] = values
    if tracks == 2:
        restart[1, cols, 0, rows] = -values

    shape = (tracks, width + 1, bsz, k)
    # the max-sum walk and traces read only the records, ends and factors
    hist = _aligned_empty((n + 1,) + shape) if keep and sr.kind != MAX_SUM else None
    h = _aligned_empty(shape) if hist is None else hist[0]
    h[...] = restart
    won = (_aligned_empty((n, 3) + shape, dtype=bool)
           if (keep or trace) and sr.idempotent_plus else None)
    bufs = _step_buffers(shape, absent)
    gather = _operands(tables, index)
    ends = np.empty((bsz, n, k))
    with np.errstate(invalid="ignore") if product and not bare else contextlib.nullcontext():
        for t in range(n):
            # without a history the step updates h in place
            h = _scan_step(sr, h, gather(t), eps_v, restart, bufs,
                           h if hist is None else hist[t + 1],
                           None if won is None else won[t], bare)[2]
            ends[:, t] = h[0, width]
    np.copyto(ends, absent, where=~valid[:, :, None])
    return ScanRun(semiring=sr, encoder=encoder, lengths=lengths, valid=valid,
                   self_loops=self_loops, epsilons=eps is not None, bare=bare, ends=ends,
                   scores=sr.finalize_scores(sr.plus_reduce(ends, axis=1)),
                   states=hist, decisions=won, tables=tables, index=index, eps=eps_v,
                   restart=restart, starts=starts, lead=lead)


def walk_best_paths(run: ScanRun, g: np.ndarray):
    """The max-semiring backward of a kept scan: the document scores'
    adjoint g (B,k) carried along each lane's best path.

    A (document, pattern) lane's score is the score of one path, and the
    dense reverse recurrence sends all of its adjoint along that path alone,
    so the walk follows it instead, for all lanes in lockstep from the last
    token to the first.  It starts at the lane's first best end position, as
    argmax picks it, and at every max takes the operand that the scan
    recorded as the winner (ScanRun.decisions), so it recomputes no state.
    Under max-product with a negative factor it switches track as
    dual_times_arrays does.  A lane without a path, whose score is -inf
    (max-sum) or its declared zero (max-product) whatever the weights, passes
    nothing.

    Adjoints go only to the arcs taken: g itself under max-sum; under
    max-product the adjoint times the arc's source state, read from the
    stored states, while the adjoint times the factor, read from the slot
    tables through the index, is carried back (negated factors on a track
    switch).  A lane takes one arc per token it consumes, so each family's
    adjoint is a (slot, value) pair of (B,n,k) arrays: the int32 slot of the
    arc the lane took at that token (-1 for none) and the arc's adjoint.
    Returns the self-loop (None without self-loops) and main pairs, which
    the projections' backward adds into the tables' rows; the epsilon
    adjoint per lane (B,k,W); and the adjoint of each lead epsilon as a
    restart value, (K,B,n_lead) with the leads in pattern order.
    """
    _, width, distinct, k = run.tables.shape
    bsz, n = run.index.shape
    tracks = run.decisions.shape[2]
    product = run.semiring.kind == MAX_PRODUCT
    self_loops = run.self_loops
    # flat offsets, lane = document * k + pattern: a state or a decision
    # after a step is track * plane + column * lanes + lane, a factor column
    # * table + row * k + pattern, a pattern's epsilon column * k + pattern;
    # an arc's is ((document * n + token) * k + pattern), plus the arcs of
    # the self-loop family ahead of a main arc's
    lanes = bsz * k
    plane, table = (width + 1) * lanes, distinct * k
    states = run.states.reshape(n + 1, -1) if product else None
    decisions = run.decisions.reshape(n, 3, -1)
    rows = run.index.reshape(-1)
    mp = run.tables[1].reshape(-1)
    sl = run.tables[0].reshape(-1) if self_loops else None
    eps = run.eps.reshape(-1)
    arc_slot = np.full((1 + self_loops, bsz, n, k), -1, dtype=np.int32)  # [self-loop,] main
    arc_val = np.zeros(arc_slot.shape)
    slots, vals = arc_slot.reshape(-1), arc_val.reshape(-1)
    to_main = bsz * n * k * self_loops  # from a self-loop's arc to the main arc's
    shift = np.cumsum(run.lengths) - run.lengths - run.starts  # slot - grid column, per pattern
    g_eps = np.zeros((bsz, k, width))
    g_lead = np.zeros((tracks, bsz, len(run.lead)))
    lead_slot = np.zeros(k, dtype=np.intp)
    lead_slot[run.lead] = np.arange(len(run.lead))
    lead_col = np.full(k, -1)  # -1 matches no state
    lead_col[run.lead] = run.starts[run.lead] + 1

    def restarted(walk, adj):
        # lanes whose state is the restart vector's: it holds the lead
        # epsilon at the pattern's lead column, constants elsewhere
        lane, p, _, col, track, _ = walk
        hit = col == lead_col[p]
        g_lead[track[hit], lane[hit] // k, lead_slot[p[hit]]] = adj[hit]

    def applied(f, flip):
        # each factor as the product on the lane's track applied it
        return f if tracks == 1 else np.where(flip, -f, f)

    end = np.argmax(run.ends, axis=1).reshape(-1)
    order = np.flatnonzero(run.ends.max(axis=1) != -np.inf)  # lanes with a path
    order = order[np.argsort(-end[order], kind="stable")]
    entering = np.bincount(end[order], minlength=n).tolist()
    # each walked lane as it enters at its end state: the lane, its pattern,
    # its first arc, its column, its track and its document's first position
    b, p = np.divmod(order, k)
    entries = np.stack([order, p, b * n * k + p, np.full(len(order), width),
                        np.zeros(len(order), dtype=np.intp), b * n])
    seeds = g.reshape(-1)[order]
    walk, adj, joined = entries[:, :0], seeds[:0], 0
    flip = eps_flip = False
    # every product below is guarded: 0 * -inf arises only in lanes that
    # kept the other operand of a np.where
    with np.errstate(invalid="ignore"):
        for t in range(n - 1, -1, -1):
            if entering[t]:  # lanes whose path ends at token t+1 join at the end state
                walk = np.concatenate([walk, entries[:, joined:joined + entering[t]]], axis=1)
                adj = np.concatenate([adj, seeds[joined:joined + entering[t]]])
                joined += entering[t]
            if not len(adj):
                continue
            running = decisions[t, 2].take(walk[0] + walk[3] * lanes + walk[4] * plane)
            if not running.all():
                restarted(walk[:, ~running], adj[~running])
                walk, adj = walk[:, running], adj[running]
            lane, pattern, first_arc, col, track, doc_at = walk
            on = lane if tracks == 1 else lane + track * plane  # the lane's track
            # the state entered: j itself, or j-1 when an epsilon won into j
            token = decisions[t, 1].take(on + col * lanes)
            closes = not token.all()
            if closes:
                f_eps = eps.take((col - 1) * k + pattern, mode="clip")  # the epsilon into col
                if tracks == 2:
                    eps_flip = ~token & (f_eps < 0.0)
                    track = track ^ eps_flip
                    on = lane + track * plane
                col = col - ~token
                g_in = adj
                if product:
                    adj = np.where(token, adj, adj * applied(f_eps, eps_flip))
            # into it, the main arc or the self-loop that won
            main = decisions[t, 0].take(on + col * lanes)
            g_f = adj
            if product:
                # the lane's row of a table at token t; clipped: the arc not
                # taken may have no cell (into 0, a loop at W)
                at = rows.take(doc_at + t) * k + pattern
                f = mp.take((col - 1) * table + at, mode="clip")
                if sl is not None:
                    f = np.where(main, f, sl.take(col * table + at, mode="clip"))
                if tracks == 2:
                    flip = f < 0.0
                    track = track ^ flip
                    on = lane + track * plane
                x = states[t].take(on + (col - main) * lanes)
                g_f = adj * x
                if closes:  # the epsilon's source is the product of that arc
                    g_in = g_in * (x * applied(f, flip))
                    if tracks == 2:
                        g_in = np.where(eps_flip, -g_in, g_in)
                adj = adj * applied(f, flip)
                if tracks == 2:
                    g_f = np.where(flip, -g_f, g_f)
            arc = first_arc + t * k + main * to_main
            slots[arc] = col - main + shift.take(pattern)
            vals[arc] = g_f
            if closes:
                g_eps.reshape(-1)[(lane * width + col)[~token]] = g_in[~token]
            walk[3], walk[4] = col - main, track
    restarted(walk, adj)  # spans from token 1 start at the restart vector
    arcs = list(zip(arc_slot, arc_val))
    return (arcs[0] if self_loops else None), arcs[-1], g_eps, g_lead


def _sum_product_backward(run: ScanRun, g: np.ndarray):
    """The sum-product backward of a kept scan: the backward algorithm's
    reverse recurrence over every state of every lane, each step recomputed
    from the states before it, every sum passing its adjoint to both
    operands.  Its per-step arrays are laid out as the scan's, column first,
    and slice the column axis; each step gathers its factors from the slot
    tables as the scan did.  Returns what walk_best_paths returns, except
    that every arc of every step passes some adjoint: a family's (slot,
    value) pair holds every slot, arange(S) and a (B,n,S) array.
    """
    hist, eps_v, lead = run.states, run.eps, run.lead
    _, width, _, k = run.tables.shape
    bsz, n = run.index.shape
    lead_c = run.starts[lead] + 1
    patterns, columns = np.divmod(grid_cells(run.lengths), width)  # of each slot
    slot = np.arange(len(columns))
    base = get_semiring(SUM_PRODUCT)  # recomputation is not counted as work
    shape = hist.shape[1:]
    bufs, after = _step_buffers(shape, base.absent), _aligned_empty(shape)  # next states, unread
    gather = _operands(run.tables, run.index)
    g_mp = np.empty((bsz, n, len(slot)))
    g_sl = np.empty(g_mp.shape) if run.self_loops else None
    g_eps = np.zeros((width, bsz, k))  # summed over the batch by the caller
    g_restart = np.zeros((len(lead), 1, bsz))  # the lead epsilons only
    g_next = np.zeros((1, width, bsz, k))  # adjoint of the next step's input
    for t in range(n - 1, -1, -1):
        gh = np.empty(shape)
        gh[:, :width] = g_next
        gh[0, width] = g * run.valid[:, t, None]  # padding passes nothing
        sl_t, mp_t = ops = gather(t)
        comb = _scan_step(base, hist[t], ops, eps_v, run.restart, bufs, after)[0]
        g_restart += gh[:, lead_c, :, lead]
        g_eps += gh[0, 1:] * comb[0, :width]
        gh[:, :width] += gh[:, 1:] * eps_v  # now the adjoint of comb
        x = hist[t][0, columns, :, patterns]  # each slot's source state, (S,B)
        if g_sl is not None:
            g_sl[:, t] = (gh[0, columns, :, patterns] * x).T
        g_mp[:, t] = (gh[0, columns + 1, :, patterns] * x).T
        g_next = gh[:, :width] * sl_t + gh[:, 1:] * mp_t
    # the first step's input state is the restart vector itself
    g_restart += g_next[:, lead_c, :, lead]
    # per lane as walk_best_paths returns them, so the batch sums add alike
    return (None if g_sl is None else (slot, g_sl), (slot, g_mp),
            np.ascontiguousarray(g_eps.transpose(1, 2, 0)),
            np.ascontiguousarray(g_restart.transpose(1, 2, 0)))


def scan_backward(run: ScanRun, g: np.ndarray):
    """The backward of a kept scan: the document scores' adjoint g (B,k) ->
    the self-loop and main adjoints, handed back uncopied, and the epsilon
    pre-activations' (S,), None for a disabled family.

    Each family's adjoint comes in one format, a (slot, value) pair: value
    is a (B,n,m) array, and slot an integer array broadcasting to it that
    gives each value's row of the family's weights and bias in declared
    order, -1 for none.  Under the max semirings walk_best_paths carries
    each lane's adjoint along the recorded winners, one arc per lane and
    token (m = k); under sum-product _sum_product_backward runs the
    backward-algorithm recurrence and every slot passes some (m = S, slot =
    arange(S)).  pattern_affine's backward takes either.  The per-lane
    epsilon adjoints are summed over the batch, the lead epsilons' added in,
    and the encoder's derivative applied.
    """
    backward = walk_best_paths if run.semiring.idempotent_plus else _sum_product_backward
    g_sl, g_mp, g_eps, g_lead = backward(run, g)
    if not run.epsilons:
        return g_sl, g_mp, None
    g_eps = g_eps.sum(axis=0)
    g_lead = g_lead.sum(axis=1)  # a restart's second track holds -value
    g_eps[run.lead, run.starts[run.lead]] += (g_lead[0] - g_lead[1] if len(g_lead) == 2
                                              else g_lead[0])
    cells = grid_cells(run.lengths)
    g_eps, y = g_eps.reshape(-1)[cells], run.eps[:, 0].T.reshape(-1)[cells]
    if run.encoder == ENCODER_SIGMOID:
        g_eps = g_eps * y * (1.0 - y)
    return g_sl, g_mp, g_eps


MAIN = "main"
SELF_LOOP = "self-loop"
EPSILON = "epsilon"


@dataclass(frozen=True)
class MatchStep:
    kind: str  # main | self-loop | epsilon
    token_pos: int | None  # 1-based consumed token, None for epsilon
    state: int  # state after taking the step


def trace_lane(run: ScanRun, doc: int, p: int, n: int):
    """Lane (doc, p)'s best path over its document's n tokens, as _best_path
    returns it, and the lane's self-loop and main scores ([token][state]) and
    epsilons ([state]) that the path was read against."""
    first = run.starts[p]  # the pattern's own columns of the bank's grid
    rows = run.index[doc, :n]
    # a disabled family's scores are absent; no path takes them
    sl, mp = run.tables[:, first:, :, p].take(rows, axis=2).transpose(0, 2, 1).tolist()
    eps = run.eps[first:, 0, p].tolist()
    # one small int per (token, track, state): fewer objects to list
    won = run.decisions[:n, :, :, first:, doc, p].view(np.uint8)
    found = _best_path((won[:, 0] | won[:, 1] << 1 | won[:, 2] << 2).tolist(),
                       run.ends[doc, :n, p].tolist(), sl, mp, eps)
    return found, sl, mp, eps


def _best_path(won, ends, sl, mp, eps):
    """Reverse walk over one (document, pattern) pair's recorded decisions.

    won[t][k][j] packs which operands won the maxes of token t+1's step at
    state j on track k (see _scan_step): bit 0 a main arc over a
    self-loop, bit 1 a token arc over an epsilon, bit 2 a running span over
    a fresh one.  ends[t] is the end state's score after token t+1, sl[t][j]
    and mp[t][j] score token t+1's self-loop and main arc out of state j,
    eps[j] the epsilon out of state j.  Returns (start, end, score,
    MatchSteps) with 1-based tokens, or None when no span matches.

    The walk starts at the first best end position and takes the recorded
    winners, so it goes where the scan's backward sends the gradient.
    Track 1, kept only under max-product with a negative factor, holds the
    negated worst path product; a negative factor extends each track from
    the other, as dual_times_arrays does, so factor signs pick the track.
    """
    score = max(ends)
    if score == float("-inf"):
        return None
    end = ends.index(score) + 1
    dual = len(won[0]) == 2
    t, j, k, steps = end, len(won[0][0]) - 1, 0, []
    while t and won[t - 1][k][j] & 4:
        if not won[t - 1][k][j] & 2:  # an epsilon into j after token t
            steps.append((EPSILON, None, j))
            k ^= dual and eps[j - 1] < 0.0
            j -= 1
        if won[t - 1][k][j] & 1:
            steps.append((MAIN, t, j))
            j -= 1
            k ^= dual and mp[t - 1][j] < 0.0
        else:
            steps.append((SELF_LOOP, t, j))
            k ^= dual and sl[t - 1][j] < 0.0
        t -= 1
    steps += [(EPSILON, None, 1)] * j  # a span fresh at token t+1; at state 1 by its epsilon
    return t + 1, end, score, [MatchStep(*step) for step in reversed(steps)]

