"""Define-by-run reverse-mode differentiation over float64 numpy arrays.

A Tape records operations in execution order, which is already a
topological order, so the backward pass is a single reverse sweep that visits
each node exactly once.  Its generic ops serve the MLP head; a pattern bank's
whole layer is one node (automata._scan_bank) whose backward is written by
hand from the parts here.  Transition scores come from project, the one
projection kernel of the engine and the oracles, applied once per distinct
token of a batch and placed on the bank's grid (Tape.pattern_affine).  The
scan's backward (scan_backward) is linear in document length.  Under the max
semirings the scan records which operand won each max (the first on ties),
and the backward walks each lane's best path back along those records
(walk_best_paths), routing the adjoint to the winning operands, the
subgradient used throughout for Viterbi-style scores; under sum-product it
runs the backward-algorithm recurrence over every state
(_sum_product_backward).

Also provides the Adam optimizer and a central-finite-difference gradient
checker.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    any batch.  A BLAS matmul would not; its rows change in the last bits
    with the number of rows in the product.  Both operands are made
    C-ordered first, because einsum's summation order follows the memory
    layout.
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


class Param:
    """A named trainable array with an accumulated gradient."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value):
        self.name = name
        self.value = np.array(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    @property
    def size(self) -> int:
        return self.value.size

    def zero_grad(self):
        self.grad[...] = 0.0

    def __repr__(self):
        return f"Param({self.name!r}, shape={self.value.shape})"


class Node:
    """One recorded value.  grad stays None until the backward sweep reaches it."""

    __slots__ = ("value", "grad", "_bw", "_tape")

    def __init__(self, value, tape):
        self.value = value
        self.grad = None
        self._bw = None
        self._tape = tape

    @property
    def shape(self):
        return np.shape(self.value)


def _accumulate(node: Node, g):
    """Add adjoint g to node.grad."""
    if node.grad is None:
        node.grad = np.array(g, dtype=np.float64)
    else:
        node.grad += g


def _extend(sr: Semiring, x: np.ndarray, b: np.ndarray, out: np.ndarray):
    """Write the path products of every track of x (K,L,...) by factor b into out.

    Two tracks are a (max, negated min) pair extended by the sign-selected
    dual product, used only when some factor is negative; one track is
    extended by the guarded path product.
    """
    if len(x) == 2:
        out[0], out[1] = sr.dual_times_arrays(x[0], x[1], b)
    else:
        sr.path_times_arrays(x[0], b, out=out[0])


def _aligned_empty(shape, dtype=np.float64) -> np.ndarray:
    """An uninitialised C-ordered array whose data starts on a 64-byte
    (cache line) boundary.

    A ufunc storing one contiguous block runs up to twice as fast into
    cache-line-aligned memory, and malloc aligns only to 16 bytes, so the
    scan's speed would otherwise change with where the heap placed its
    buffers, from one call or one process to the next.
    """
    nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
    raw = np.empty(nbytes + 64, dtype=np.uint8)
    skip = -raw.ctypes.data % 64
    return raw[skip:skip + nbytes].view(dtype).reshape(shape)


def _step_buffers(shape, absent: float) -> tuple:
    """The main, self-loop, epsilon, combined and closed operands of
    _scan_step, reused by every step; the first three keep the absent marker
    in the pad columns no arc writes."""
    bufs = tuple(_aligned_empty(shape) for _ in range(5))
    for buf in bufs[:3]:
        buf.fill(absent)
    return bufs


def _scan_step(sr: Semiring, h, sl_t, mp_t, eps, restart, bufs, out, won=None):
    """Consume one token: states h (K,L+1,B,c) -> (combined, closed, next h).

    Main arcs move state j to j+1 and self-loops keep it; then at most one
    epsilon advances each state, and a fresh span may start.  bufs (see
    _step_buffers) holds the main, self-loop, epsilon, combined and closed
    operands afterwards, and out, which may be h itself, the next states.
    won (3,K,L+1,B,c), when given, receives whether the first operand of
    each max won it, the first on ties: a main arc over a self-loop, a token
    arc over an epsilon, a running span over a fresh one.  Every slice is of
    the state column, the second axis, so each operand of a ufunc is one
    contiguous block, and every result is stored into a buffer allocated
    once, not into a fresh array.
    """
    moved, stay, eps_in, comb, closed = bufs
    length = h.shape[1] - 1
    x = h[:, :length]  # the end state has no outgoing arcs
    _extend(sr, x, mp_t, moved[:, 1:])
    _extend(sr, x, sl_t, stay[:, :length])
    sr.plus_arrays(moved, stay, out=comb)
    _extend(sr, comb[:, :length], eps, eps_in[:, 1:])
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
    under the max semirings, records which operand won each max of a step
    (see _scan_step): the max-semiring backward (walk_best_paths) and traces
    (automata._best_path) follow it back and recompute nothing.  The
    sum-product backward recomputes every step from the states.
    sl, mp (n,W,B,k) and eps (W,1,k) are the operands the scan used on the
    right-aligned grid (see grid_cells), padded cells and disabled families
    holding the absent marker.  restart (K,W+1,1,k) is the fresh-span vector
    injected at every step; starts (k,) is the column of each pattern's
    start state, and lead (k,) says whether the pattern's restart carries
    the pre-token epsilon.
    """

    ends: np.ndarray
    scores: np.ndarray
    states: np.ndarray | None
    decisions: np.ndarray | None
    sl: np.ndarray
    mp: np.ndarray
    eps: np.ndarray
    restart: np.ndarray
    starts: np.ndarray
    lead: np.ndarray


def scan_forward(sr: Semiring, sl: np.ndarray | None, mp: np.ndarray,
                 eps: np.ndarray | None, encoder: str, valid: np.ndarray,
                 keep_states: bool, lengths) -> ScanRun:
    """The pattern recurrence's forward pass.

    sl, mp (n,W,B,k) are encoded self-loop and main scores on the bank's grid
    and eps (S,) the slots' epsilon pre-activations, encoded here; None marks a
    disabled family.  valid (B,n) flags real tokens.  The loop runs the same
    elementwise semiring operations as a step-by-step evaluation would, so
    scores and operation counts do not depend on keep_states; the winners a
    kept max-semiring scan records are compared outside the semiring.  Max only
    distributes over nonnegative factors, so under max-product a negative
    factor in any enabled family makes each state carry a (max product, negated
    min product) pair; without one, the max track alone is the same recurrence.
    The grid's absent padding is not a factor of any path.
    """
    n, width, bsz, k = mp.shape
    absent = sr.absent
    eps_v = np.full(k * width, absent)
    if eps is not None:
        eps_v[grid_cells(lengths)] = encode_values(eps, encoder)
    eps_v = np.ascontiguousarray(eps_v.reshape(k, width).T)[:, None, :]
    dual = sr.kind == MAX_PRODUCT and any(((x < 0) & (x != absent)).any()
                                           for x in (sl, mp, eps_v) if x is not None)
    tracks = 2 if dual else 1
    sl_v = sl if sl is not None else np.broadcast_to(absent, mp.shape)

    # restart vector: a fresh span may begin before any token.  A pattern's
    # start state holds the semiring one; the next state holds its pre-token
    # epsilon unless that epsilon would already complete the pattern
    # (zero-token matches are excluded).
    lengths = np.asarray(lengths)
    patterns = np.arange(k)
    starts = width - lengths
    lead = (lengths >= 2) & (eps is not None)
    rows = np.concatenate([patterns, patterns[lead]])
    cols = np.concatenate([starts, starts[lead] + 1])
    values = np.concatenate([np.full(k, sr.one), eps_v[starts[lead], 0, patterns[lead]]])
    restart = np.full((tracks, width + 1, 1, k), absent)
    restart[0, cols, 0, rows] = values
    if tracks == 2:
        restart[1, cols, 0, rows] = -values

    shape = (tracks, width + 1, bsz, k)
    # the max-sum walk and traces read only the records, ends and factors
    hist = _aligned_empty((n + 1,) + shape) if keep_states and sr.kind != MAX_SUM else None
    h = _aligned_empty(shape) if hist is None else hist[0]
    h[...] = restart
    won = (_aligned_empty((n, 3) + shape, dtype=bool)
           if keep_states and sr.idempotent_plus else None)
    bufs = _step_buffers(shape, absent)
    ends = np.empty((bsz, n, k))
    for t in range(n):
        # without a history the step updates h in place
        h = _scan_step(sr, h, sl_v[t], mp[t], eps_v, restart, bufs,
                       h if hist is None else hist[t + 1], None if won is None else won[t])[2]
        ends[:, t] = h[0, width]
    ends = np.where(valid[:, :, None], ends, absent)
    return ScanRun(ends=ends, scores=sr.finalize_scores(sr.plus_reduce(ends, axis=1)),
                   states=hist, decisions=won, sl=sl_v, mp=mp, eps=eps_v, restart=restart,
                   starts=starts, lead=lead)


def walk_best_paths(sr: Semiring, run: ScanRun, g: np.ndarray, self_loops: bool):
    """The max-semiring backward of a kept scan: the document scores'
    adjoint g (B,k) carried along each lane's best path.

    A (document, pattern) lane's score is the score of one path, and the
    dense reverse recurrence sends all of its adjoint along that path alone,
    so the walk follows it instead, for all lanes in lockstep from the last
    token to the first.  It starts at the lane's first best end position, as
    argmax picks it, and at every max takes the operand that the scan
    recorded as the winner (ScanRun.decisions), so it recomputes no state.
    Under max-product with a negative factor it switches track as
    dual_times_arrays does.  A max-product lane without a path passes
    nothing; a max-sum one is walked like any other.

    Adjoints go only to the arcs taken: g itself under max-sum; under
    max-product the adjoint times the arc's source state, read from the
    stored states, while the adjoint times the factor is carried back
    (negated factors on a track switch).  Returns the self-loop (None
    without self-loops) and main adjoints (n,W,B,k), views of arrays laid
    out documents first, (B,n,k,W), which the projections' backward reads
    slot by slot in (document, token) order; the epsilon adjoint per lane
    (B,k,W); and the adjoint of each lead epsilon as a restart value,
    (K,B,n_lead) with the leads in pattern order.
    """
    n, width, bsz, k = run.mp.shape
    tracks = run.decisions.shape[2]
    product = sr.kind == MAX_PRODUCT
    # flat offsets, lane = document * k + pattern: a state or a decision
    # after a step is track * plane + column * lanes + lane, a factor token
    # * step + column * lanes + lane, a pattern's epsilon column * k +
    # pattern; an arc's adjoint is at ((document * n + token) * k + pattern)
    # * W + column
    lanes = bsz * k
    plane, step = (width + 1) * lanes, width * lanes
    states = run.states.reshape(n + 1, -1) if product else None
    decisions = run.decisions.reshape(n, 3, -1)
    mp = run.mp.reshape(-1)
    sl = run.sl.reshape(-1) if self_loops else None
    eps = run.eps.reshape(-1)
    g_arcs = np.zeros((1 + self_loops, bsz, n, k, width))  # [self-loop,] main
    arc_cells = g_arcs.reshape(-1)
    # from the adjoint of a self-loop at j to that of the main arc into j
    to_main = g_arcs[0].size * self_loops - 1
    g_eps = np.zeros((bsz, k, width))
    lead_p = np.flatnonzero(run.lead)
    g_lead = np.zeros((tracks, bsz, len(lead_p)))
    lead_slot = np.zeros(k, dtype=np.intp)
    lead_slot[lead_p] = np.arange(len(lead_p))
    lead_col = np.where(run.lead, run.starts + 1, -1)  # -1 matches no state

    def restarted(walk, adj):
        # lanes whose state is the restart vector's: it holds the lead
        # epsilon at the pattern's lead column, constants elsewhere
        lane, p, _, col, track = walk
        hit = col == lead_col[p]
        g_lead[track[hit], lane[hit] // k, lead_slot[p[hit]]] = adj[hit]

    def applied(f, flip):
        # each factor as the product on the lane's track applied it
        return f if tracks == 1 else np.where(flip, -f, f)

    end = np.argmax(run.ends, axis=1).reshape(-1)
    order = np.arange(lanes)
    if product:  # finalize mapped lanes without a path
        order = order[(run.ends.max(axis=1) != -np.inf).reshape(-1)]
    order = order[np.argsort(-end[order], kind="stable")]
    entering = np.bincount(end[order], minlength=n).tolist()
    # each walked lane as it enters at its end state: the lane, its pattern,
    # where its arcs' adjoints start, its column and its track
    b, p = np.divmod(order, k)
    entries = np.stack([order, p, (b * n * k + p) * width, np.full(len(order), width),
                        np.zeros(len(order), dtype=np.intp)])
    seeds = g.reshape(-1)[order]
    walk, adj, joined = entries[:, :0], seeds[:0], 0
    flip = eps_flip = False
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
        lane, pattern, adjoint_at, col, track = walk
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
                with np.errstate(invalid="ignore"):  # 0 * -inf in lanes that kept a token arc
                    adj = np.where(token, adj, adj * applied(f_eps, eps_flip))
        # into it, the main arc or the self-loop that won
        main = decisions[t, 0].take(on + col * lanes)
        cell = t * step + col * lanes + lane  # the self-loop factor at the state entered
        g_f = adj
        if product:
            # clipped: the arc not taken may have no cell (into 0, a loop at W)
            f = mp.take(cell - lanes, mode="clip")
            if sl is not None:
                f = np.where(main, f, sl.take(cell, mode="clip"))
            if tracks == 2:
                flip = f < 0.0
                track = track ^ flip
                on = lane + track * plane
            x = states[t].take(on + (col - main) * lanes)
            with np.errstate(invalid="ignore"):
                g_f = adj * x
                if closes:  # the epsilon's source is the product of that arc
                    g_in = g_in * (x * applied(f, flip))
                    if tracks == 2:
                        g_in = np.where(eps_flip, -g_in, g_in)
                adj = adj * applied(f, flip)
            if tracks == 2:
                g_f = np.where(flip, -g_f, g_f)
        arc_cells[adjoint_at + t * k * width + col + main * to_main] = g_f
        if closes:
            g_eps.reshape(-1)[(lane * width + col)[~token]] = g_in[~token]
        walk[3], walk[4] = col - main, track
    restarted(walk, adj)  # spans from token 1 start at the restart vector
    g_arcs = g_arcs.transpose(0, 2, 4, 1, 3)
    return (g_arcs[0] if self_loops else None), g_arcs[-1], g_eps, g_lead


def _sum_product_backward(run: ScanRun, g: np.ndarray, valid: np.ndarray, lead_p, lead_c,
                          self_loops: bool):
    """The sum-product backward of a kept scan: the backward algorithm's
    reverse recurrence over every state of every lane, each step recomputed
    from the states before it, every sum passing its adjoint to both
    operands.  Its per-step arrays are laid out as the scan's, column first,
    and slice the column axis.  Returns what walk_best_paths returns, the
    self-loop adjoint None without self-loops.
    """
    hist, sl_v, mp_v, eps_v = run.states, run.sl, run.mp, run.eps
    n, width, bsz, k = mp_v.shape
    base = get_semiring(SUM_PRODUCT)  # recomputation is not counted as work
    shape = hist.shape[1:]
    bufs, after = _step_buffers(shape, base.absent), _aligned_empty(shape)  # next states, unread
    g_mp = np.empty(mp_v.shape)
    g_sl = np.empty(mp_v.shape) if self_loops else None
    g_eps = np.zeros((width, bsz, k))  # summed over the batch by the caller
    g_restart = np.zeros((len(lead_p), 1, bsz))  # the lead epsilons only
    g_next = np.zeros((1, width, bsz, k))  # adjoint of the next step's input
    for t in range(n - 1, -1, -1):
        gh = np.empty(shape)
        gh[:, :width] = g_next
        gh[0, width] = g * valid[:, t, None]  # padding passes nothing
        comb = _scan_step(base, hist[t], sl_v[t], mp_v[t], eps_v, run.restart, bufs,
                          after)[0]
        g_restart += gh[:, lead_c, :, lead_p]
        g_eps += gh[0, 1:] * comb[0, :width]
        gh[:, :width] += gh[:, 1:] * eps_v  # now the adjoint of comb
        x = hist[t][:, :width]
        if g_sl is not None:
            g_sl[t] = gh[0, :width] * x[0]
        g_mp[t] = gh[0, 1:] * x[0]
        g_next = gh[:, :width] * sl_v[t] + gh[:, 1:] * mp_v[t]
    # the first step's input state is the restart vector itself
    g_restart += g_next[:, lead_c, :, lead_p]
    # per lane as walk_best_paths returns them, so the batch sums add alike
    return (g_sl, g_mp, np.ascontiguousarray(g_eps.transpose(1, 2, 0)),
            np.ascontiguousarray(g_restart.transpose(1, 2, 0)))


def scan_backward(sr: Semiring, run: ScanRun, g: np.ndarray, valid: np.ndarray, encoder: str,
                  lengths, self_loops: bool, epsilons: bool):
    """The backward of a kept scan: the document scores' adjoint g (B,k) ->
    the self-loop and main grid adjoints (n,W,B,k), of the strides each
    backward writes them in, handed back uncopied,
    and the epsilon pre-activations' (S,), None for a disabled family.

    Under the max semirings walk_best_paths carries each lane's adjoint
    along the recorded winners; under sum-product _sum_product_backward runs
    the backward-algorithm recurrence.  The per-lane epsilon adjoints are
    summed over the batch, the lead epsilons' added in, and the encoder's
    derivative applied.
    """
    lead_p = np.flatnonzero(run.lead)
    lead_c = run.starts[lead_p] + 1
    if sr.idempotent_plus:
        g_sl, g_mp, g_eps, g_lead = walk_best_paths(sr, run, g, self_loops)
    else:
        g_sl, g_mp, g_eps, g_lead = _sum_product_backward(run, g, valid, lead_p, lead_c,
                                                          self_loops)
    if not epsilons:
        return g_sl, g_mp, None
    g_eps = g_eps.sum(axis=0)
    g_lead = g_lead.sum(axis=1)  # a restart's second track holds -value
    g_eps[lead_p, lead_c - 1] += g_lead[0] - g_lead[1] if len(g_lead) == 2 else g_lead[0]
    cells = grid_cells(lengths)
    g_eps, y = g_eps.reshape(-1)[cells], run.eps[:, 0].T.reshape(-1)[cells]
    if encoder == ENCODER_SIGMOID:
        g_eps = g_eps * y * (1.0 - y)
    return g_sl, g_mp, g_eps


class Tape:
    """Records forward operations; replayed backwards for gradients."""

    def __init__(self, grad: bool = True):
        self.grad_enabled = grad
        self._nodes: list[Node] = []
        self._swept = False

    def op(self, value, bw=None) -> Node:
        """A node of value with backward bw(g), recorded on a grad tape."""
        node = Node(value, self)
        if self.grad_enabled and bw is not None:
            node._bw = bw
            self._nodes.append(node)
        return node

    # -- leaves --------------------------------------------------------------

    def const(self, value) -> Node:
        return Node(np.asarray(value, dtype=np.float64), self)

    def leaf(self, param: Param) -> Node:
        return self.op(param.value, bw=lambda g, p=param: np.add(p.grad, g, out=p.grad))

    # -- arithmetic ------------------------------------------------------------

    def mul(self, a: Node, b: Node) -> Node:
        """Elementwise product of two operands of one shape."""
        av, bv = a.value, b.value
        if np.shape(av) != np.shape(bv):
            raise ValueError(f"mul operands differ in shape: {np.shape(av)} and {np.shape(bv)}")
        def bw(g):
            _accumulate(a, g * bv)
            _accumulate(b, g * av)
        return self.op(av * bv, bw)

    def matmul(self, a: Node, b: Node) -> Node:
        av, bv = a.value, b.value
        def bw(g):
            _accumulate(a, g @ bv.T)
            _accumulate(b, av.T @ g)
        return self.op(av @ bv, bw)

    def add_bias(self, x: Node, bias: Node) -> Node:
        def bw(g):
            _accumulate(x, g)
            _accumulate(bias, g.sum(axis=0) if g.ndim > bias.value.ndim else g)
        return self.op(x.value + bias.value, bw)

    def relu(self, x: Node) -> Node:
        mask = x.value > 0.0
        def bw(g):
            _accumulate(x, g * mask)
        return self.op(np.where(mask, x.value, 0.0), bw)

    @staticmethod
    def pattern_affine(vectors: np.ndarray, index: np.ndarray, weights: np.ndarray,
                       bias: np.ndarray, encoder: str, lengths, fill: float):
        """Encoded token/slot scores of a padded batch on a pattern bank's
        grid, (n,W,B,k) as the scan lays it out (see ScanRun), and their
        backward; records no node.

        weights (S,e) and bias (S,) hold the slots of patterns of the given
        lengths in declared order; W is the longest length, and padded grid
        cells (see grid_cells) hold fill.  vectors (U,e) holds the batch's
        distinct token vectors and index (B,n) picks each position's row.
        The forward projects the U rows once, places them on a (U,W,k) table
        and gathers the grid from it in its own order.  backward(g) maps the
        grid's adjoint, (n,W,B,k) of any strides, to those of weights and
        bias: it scatter-adds the slots' adjoint into the U rows, one slot at
        a time so that no index array as large as the adjoint is built, and
        the weight gradient is one (S,U)@(U,e) matmul.
        """
        width = max(lengths)
        patterns, columns = np.divmod(grid_cells(lengths), width)
        slots = project(vectors, weights, bias, encoder)
        table = np.full((len(slots), width, len(lengths)), fill)
        table[:, columns, patterns] = slots

        def backward(g):
            at = index.reshape(-1)
            # scatter-add each slot's adjoint at every position into the
            # position's row, in (document, token) order
            g_rows = np.stack([np.bincount(at, weights=g[:, col, :, p].T.reshape(-1),
                                           minlength=len(slots))
                               for p, col in zip(patterns, columns)], axis=1)
            if encoder == ENCODER_SIGMOID:
                g_rows *= slots * (1.0 - slots)
            return g_rows.T @ vectors, g_rows.sum(axis=0)
        rows = index.T[:, None, :] * width + np.arange(width)[:, None]  # (n,W,B)
        return table.reshape(-1, len(lengths)).take(rows, axis=0), backward

    # -- loss ------------------------------------------------------------

    def cross_entropy(self, logits: Node, labels: np.ndarray) -> Node:
        """Mean negative log-likelihood of integer labels under softmax(logits)."""
        lv = logits.value
        bsz = lv.shape[0]
        shifted = lv - lv.max(axis=1, keepdims=True)
        logz = np.log(np.exp(shifted).sum(axis=1))
        nll = logz - shifted[np.arange(bsz), labels]
        def bw(g):
            probs = np.exp(shifted - logz[:, None])
            probs[np.arange(bsz), labels] -= 1.0
            _accumulate(logits, (g / bsz) * probs)
        return self.op(float(nll.mean()), bw)

    # -- backward ------------------------------------------------------------

    def backward(self, loss: Node):
        """Add d(loss)/d(param) to every Param leaf's grad.  Each node's adjoint
        and closure are dropped once its backward has run, so the sweep holds
        only pending adjoints, and a tape is swept once."""
        if not self.grad_enabled:
            raise RuntimeError("backward on a gradient-disabled tape")
        if not self._nodes:
            raise RuntimeError("backward before any forward operation was recorded")
        if loss._tape is not self:
            raise RuntimeError("loss node does not belong to this tape")
        if self._swept:
            raise RuntimeError("backward already ran on this tape")
        self._swept = True
        loss.grad = np.ones_like(loss.value, dtype=np.float64)
        for node in reversed(self._nodes):
            if node.grad is not None:
                node._bw(node.grad)
            node.grad = node._bw = None


class Adam:
    """Adam with bias correction, applied in place to registered Params."""

    def __init__(self, params: list[Param], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self._m = [np.zeros_like(p.value) for p in self.params]
        self._v = [np.zeros_like(p.value) for p in self.params]

    @property
    def registered_scalars(self) -> int:
        return sum(p.size for p in self.params)

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.beta1, self.beta2
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            if np.isnan(g).any():
                raise FloatingPointError(f"NaN gradient for parameter {p.name!r}")
            m[...] = b1 * m + (1.0 - b1) * g
            v[...] = b2 * v + (1.0 - b2) * (g * g)
            m_hat = m / (1.0 - b1 ** t)
            v_hat = v / (1.0 - b2 ** t)
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


@dataclass
class FiniteDifferenceEntry:
    param: str
    index: tuple
    analytic: float
    numeric: float
    rel_error: float


@dataclass
class FiniteDifferenceReport:
    max_rel_error: float
    checked: int
    worst: list[FiniteDifferenceEntry] = field(default_factory=list)


def _rel_error(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def finite_difference_check(
    loss_fn, params: list[Param], *, step: float = 1e-5,
    worst: int = 10, max_checks: int | None = None,
) -> FiniteDifferenceReport:
    """Compare Param.grad against central finite differences of loss_fn.

    loss_fn() must recompute the loss from current Param values.  Call after
    a backward pass has filled the gradients.  max_checks caps the number of
    scalars probed for large models; the probes are spread evenly over the
    concatenation of all Params, so they do not depend on how the scalars
    are split into Params.
    """
    sizes = [p.size for p in params]
    total = sum(sizes)
    take = total if max_checks is None else min(max_checks, total)
    ends = np.cumsum(sizes)
    entries: list[FiniteDifferenceEntry] = []
    for pos in np.arange(take) * total // max(take, 1):
        which = int(np.searchsorted(ends, pos, side="right"))
        p = params[which]
        i = int(pos - ends[which]) + p.size
        flat = p.value.reshape(-1)
        orig = flat[i]
        flat[i] = orig + step
        up = loss_fn()
        flat[i] = orig - step
        down = loss_fn()
        flat[i] = orig
        numeric = (up - down) / (2.0 * step)
        analytic = float(p.grad.reshape(-1)[i])
        entries.append(FiniteDifferenceEntry(
            param=p.name,
            index=np.unravel_index(i, p.value.shape),
            analytic=analytic,
            numeric=numeric,
            rel_error=_rel_error(analytic, numeric),
        ))
    entries.sort(key=lambda entry: entry.rel_error, reverse=True)
    max_err = entries[0].rel_error if entries else 0.0
    return FiniteDifferenceReport(max_rel_error=max_err, checked=len(entries),
                                  worst=entries[:worst])
