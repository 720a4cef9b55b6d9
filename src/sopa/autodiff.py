"""Define-by-run reverse-mode differentiation over float64 numpy arrays.

A Tape records primitive operations in execution order, which is already a
topological order, so the backward pass is a single reverse sweep that visits
each node exactly once.  Max-style semiring nodes route their adjoint entirely
to the argmax operand (first operand wins ties), which is the subgradient used
throughout for Viterbi-style scores.  The recurrence of a whole pattern bank
is one node (Tape.pattern_scan) with a hand-written backward that is linear in
document length; its transition scores come from project, the one projection
kernel of the engine and the oracles, applied once per distinct token of a
batch and placed on the bank's grid (Tape.pattern_affine).

Also provides the Adam optimizer and a central-finite-difference gradient
checker.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from sopa.semiring import MAX_PRODUCT, MAX_SUM, SUM_PRODUCT, Semiring, get_semiring

# cap on elements materialized per chunk of the token projection
_CHUNK_ELEMS = 1 << 22


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


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

    The one projection kernel of the engine and the oracles.  Each dot
    product multiplies, then reduces over the contiguous last axis, so it is
    accumulated by the same summation tree whatever U is: a token scores
    bitwise alike alone and in any batch.  A BLAS matmul would not; its rows
    change in the last bits with the number of rows in the product.
    Chunked over rows to bound memory.
    """
    rows, dim = vectors.shape
    slots = weights.reshape(-1, dim)
    out = np.empty((rows, len(slots)))
    step = max(1, _CHUNK_ELEMS // max(1, slots.size))
    for s in range(0, rows, step):
        out[s:s + step] = (vectors[s:s + step, None, :] * slots).sum(axis=-1)
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


def _accumulate(node: Node, g, fresh: bool = False):
    """Add adjoint g to node.grad.  A fresh g, allocated by the caller and
    referenced nowhere else, becomes node.grad without a copy."""
    if node.grad is None:
        node.grad = g if fresh else np.array(g, dtype=np.float64)
    else:
        node.grad += g


def _extend(sr: Semiring, x: np.ndarray, b: np.ndarray, out: np.ndarray):
    """Write the path products of every track of x (K,...,L) by factor b into out.

    Two tracks are a (max, negated min) pair extended by the sign-selected
    dual product, used only when some factor is negative; one track is
    extended by the guarded path product.
    """
    if len(x) == 2:
        out[0], out[1] = sr.dual_times_arrays(x[0], x[1], b)
    else:
        out[0] = sr.path_times_arrays(x[0], b)


def _scan_step(sr: Semiring, h, sl_t, mp_t, eps, restart, bufs):
    """Consume one token: states h (K,B,c,L+1) -> (combined, closed, next h).

    Main arcs move state j to j+1 and self-loops keep it; then at most one
    epsilon advances each state, and a fresh span may start.  bufs holds the
    main, self-loop and epsilon operands afterwards.
    """
    moved, stay, eps_in = bufs
    length = h.shape[-1] - 1
    x = h[..., :length]  # the end state has no outgoing arcs
    _extend(sr, x, mp_t, moved[..., 1:])
    _extend(sr, x, sl_t, stay[..., :length])
    comb = sr.plus_arrays(moved, stay)
    _extend(sr, comb[..., :length], eps, eps_in[..., 1:])
    closed = sr.plus_arrays(comb, eps_in)
    return comb, closed, sr.plus_arrays(closed, restart)


def _times_adjoint(kind: str, g: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Adjoints of the track products of a (K,...,L) by factor b, given their
    adjoint g: (for a, same shape; for b, summed over tracks)."""
    if kind == MAX_SUM:
        return g, g[0]
    if kind == SUM_PRODUCT:
        return g * b, g[0] * a[0]
    # max-product: lanes without a path pass nothing
    live = (b != -np.inf) & (a[0] != -np.inf)
    with np.errstate(invalid="ignore"):
        factor = np.where(live, b, 0.0)
        if len(a) == 1:
            return g * factor, np.where(live, g[0] * a[0], 0.0)
        # the dual pair: a nonnegative factor keeps each track's extreme, a
        # negative one swaps them
        keep = np.maximum(factor, 0.0)
        g_a = g * keep + g[::-1] * (keep - factor)
        g_b = np.where(live, np.where(b >= 0.0, g[0] * a[0] + g[1] * a[1],
                                      -(g[0] * a[1] + g[1] * a[0])), 0.0)
    return g_a, g_b


@dataclass
class ScanRun:
    """What one forward scan of a pattern bank leaves behind.

    ends (B,n,k) holds every step's end-state score, padding absent;
    states (n+1,K,B,k,W+1) the state vectors before the first token and
    after each one, or None when not kept; K = 2 (max and negated min) only
    under max-product with a negative factor among the operands, else 1.
    sl, mp (B,n,k,W) and eps (k,W) are the operands the scan used on the
    right-aligned grid (see grid_cells), padded cells and disabled families
    holding the absent marker.  restart (K,1,k,W+1) is the fresh-span vector
    injected at every step; starts (k,) is the column of each pattern's
    start state, and lead (k,) says whether the pattern's restart carries
    the pre-token epsilon.
    """

    ends: np.ndarray
    states: np.ndarray | None
    sl: np.ndarray
    mp: np.ndarray
    eps: np.ndarray
    restart: np.ndarray
    starts: np.ndarray
    lead: np.ndarray


def scan_forward(sr: Semiring, sl: np.ndarray | None, mp: np.ndarray,
                 eps: np.ndarray | None, valid: np.ndarray, keep_states: bool,
                 lengths) -> ScanRun:
    """The pattern recurrence's forward pass over encoded transition scores.

    sl, mp (B,n,k,W), eps (S,), valid (B,n) and lengths (k,) as in
    Tape.pattern_scan.  The loop runs the same elementwise semiring
    operations as a step-by-step evaluation would, so scores and operation
    counts do not depend on keep_states.  Max only distributes over
    nonnegative factors, so under max-product a negative factor in any
    enabled family makes each state carry a (max product, negated min
    product) pair; without one, the max track alone is the same recurrence.
    The grid's absent padding is not a factor of any path.
    """
    bsz, n, k, width = mp.shape
    absent = sr.absent
    dual = sr.kind == MAX_PRODUCT and any(((x < 0) & (x != absent)).any()
                                           for x in (sl, mp, eps) if x is not None)
    tracks = 2 if dual else 1
    sl_v = sl if sl is not None else np.broadcast_to(absent, mp.shape)
    eps_v = np.full(k * width, absent)
    if eps is not None:
        eps_v[grid_cells(lengths)] = eps
    eps_v = eps_v.reshape(k, width)

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
    values = np.concatenate([np.full(k, sr.one), eps_v[patterns[lead], starts[lead]]])
    restart = np.full((tracks, 1, k, width + 1), absent)
    restart[0, 0, rows, cols] = values
    if tracks == 2:
        restart[1, 0, rows, cols] = -values

    shape = (tracks, bsz, k, width + 1)
    h = np.broadcast_to(restart, shape)
    hist = np.empty((n + 1,) + shape) if keep_states else None
    if hist is not None:
        hist[0] = h
    bufs = tuple(np.full(shape, absent) for _ in range(3))  # pad columns stay absent
    ends = np.empty((bsz, n, k))
    for t in range(n):
        h = _scan_step(sr, h, sl_v[:, t], mp[:, t], eps_v, restart, bufs)[2]
        ends[:, t] = h[0, ..., width]
        if hist is not None:
            hist[t + 1] = h
    ends = np.where(valid[:, :, None], ends, absent)
    return ScanRun(ends=ends, states=hist, sl=sl_v, mp=mp, eps=eps_v, restart=restart,
                   starts=starts, lead=lead)


class Tape:
    """Records forward operations; replayed backwards for gradients."""

    def __init__(self, grad: bool = True):
        self.grad_enabled = grad
        self._nodes: list[Node] = []
        self._swept = False

    def _op(self, value, bw=None) -> Node:
        node = Node(value, self)
        if self.grad_enabled and bw is not None:
            node._bw = bw
            self._nodes.append(node)
        return node

    # -- leaves --------------------------------------------------------------

    def const(self, value) -> Node:
        return Node(np.asarray(value, dtype=np.float64), self)

    def leaf(self, param: Param) -> Node:
        return self._op(param.value, bw=lambda g, p=param: np.add(p.grad, g, out=p.grad))

    # -- arithmetic ------------------------------------------------------------

    def mul(self, a: Node, b: Node) -> Node:
        """Elementwise product of two operands of one shape."""
        av, bv = a.value, b.value
        if np.shape(av) != np.shape(bv):
            raise ValueError(f"mul operands differ in shape: {np.shape(av)} and {np.shape(bv)}")
        def bw(g):
            _accumulate(a, g * bv)
            _accumulate(b, g * av)
        return self._op(av * bv, bw)

    def matmul(self, a: Node, b: Node) -> Node:
        av, bv = a.value, b.value
        def bw(g):
            _accumulate(a, g @ bv.T)
            _accumulate(b, av.T @ g)
        return self._op(av @ bv, bw)

    def add_bias(self, x: Node, bias: Node) -> Node:
        def bw(g):
            _accumulate(x, g)
            _accumulate(bias, g.sum(axis=0) if g.ndim > bias.value.ndim else g)
        return self._op(x.value + bias.value, bw)

    def sigmoid(self, x: Node) -> Node:
        y = stable_sigmoid(x.value)
        def bw(g):
            _accumulate(x, g * y * (1.0 - y))
        return self._op(y, bw)

    def relu(self, x: Node) -> Node:
        mask = x.value > 0.0
        def bw(g):
            _accumulate(x, g * mask)
        return self._op(np.where(mask, x.value, 0.0), bw)

    def pattern_affine(self, vectors: np.ndarray, index: np.ndarray, weights: Node,
                       bias: Node, encoder: str, lengths, fill: float) -> Node:
        """Encoded token/slot scores of a padded batch on a pattern bank's
        grid, (B,n,k,W).

        weights (S,e) and bias (S,) hold the slots of patterns of the given
        lengths in declared order; W is the longest length, and padded grid
        cells (see grid_cells) hold fill.  vectors (U,e) holds the batch's
        distinct token vectors and index (B,n) picks each position's row.
        The forward projects the U rows once, places them on the grid and
        gathers; the backward scatter-adds the slots' adjoint into the U
        rows, one slot at a time so that no index array as large as the
        adjoint is built, and the weight gradient is one (S,U)@(U,e) matmul.
        """
        cells = grid_cells(lengths)
        slots = project(vectors, weights.value, bias.value, encoder)
        table = np.full((len(slots), len(lengths), max(lengths)), fill)
        table.reshape(len(slots), -1)[:, cells] = slots

        def bw(g):
            rows, at = len(slots), index.reshape(-1)
            g = g.reshape(len(at), -1)
            # scatter-add each slot's adjoint at every position into the
            # position's row, in position order
            g_rows = np.stack([np.bincount(at, weights=g[:, cell], minlength=rows)
                               for cell in cells], axis=1)
            if encoder == ENCODER_SIGMOID:
                g_rows *= slots * (1.0 - slots)
            _accumulate(weights, g_rows.T @ vectors, fresh=True)
            _accumulate(bias, g_rows.sum(axis=0), fresh=True)
        return self._op(table[index], bw)

    # -- semiring ops ------------------------------------------------------------

    def pattern_scan(self, sr: Semiring, sl: Node | None, mp: Node, eps: Node | None,
                     valid: np.ndarray, lengths) -> Node:
        """Run the pattern recurrence of a pattern bank over a padded batch as
        one tape node.

        sl and mp are encoded self-loop and main transition scores on the
        bank's grid (B,n,k,W), as Tape.pattern_affine returns them, and eps
        the encoded epsilon scores of the S slots in declared order; None
        marks a disabled family.  lengths (k,) gives each pattern's length
        and valid (B,n) flags real tokens.  Returns the per-token end-state
        scores (B,n,k) in the internal path algebra, padding filled with the
        absent marker.

        The forward is scan_forward, which keeps the per-step states only on
        a grad tape.  The backward walks those states in reverse, recomputing
        each step: max semirings route the adjoint to the winning operand
        (first operand on ties), and sum-product runs the backward-algorithm
        recurrence.
        """
        run = scan_forward(sr, None if sl is None else sl.value, mp.value,
                           None if eps is None else eps.value, valid,
                           keep_states=self.grad_enabled, lengths=lengths)
        hist, sl_v, mp_v, eps_v, restart = run.states, run.sl, run.mp, run.eps, run.restart
        bsz, n, k, width = mp_v.shape
        # each lead epsilon's pattern and the column of the state it reaches
        lead_p = np.flatnonzero(run.lead)
        lead_c = run.starts[lead_p] + 1

        def bw(g):
            base = get_semiring(sr.kind)  # recomputation is not counted as work
            shape = hist.shape[1:]
            tracks = shape[0]
            bufs = tuple(np.full(shape, sr.absent) for _ in range(3))
            g_mp = np.empty(mp_v.shape)
            g_sl = np.empty(mp_v.shape) if sl is not None else None
            g_eps = np.zeros((bsz, k, width))  # summed over the batch at the end
            g_restart = np.zeros((tracks, bsz, len(lead_p)))  # the lead epsilons only
            g_next = np.zeros((tracks, bsz, k, width))  # adjoint of the next step's input
            for t in range(n - 1, -1, -1):
                gh = np.empty(shape)
                gh[..., :width] = g_next
                gh[1:, ..., width] = 0.0
                gh[0, ..., width] = g[:, t] * valid[:, t, None]  # padding passes nothing
                comb, closed, _ = _scan_step(base, hist[t], sl_v[:, t], mp_v[:, t],
                                             eps_v, restart, bufs)
                moved, stay, eps_in = bufs
                if sr.idempotent_plus:
                    g_closed = gh * (closed >= restart)
                    g_fresh = gh - g_closed
                    g_comb = g_closed * (comb >= eps_in)
                    g_eps_in = g_closed - g_comb
                else:
                    g_closed = g_fresh = g_eps_in = gh
                    g_comb = gh.copy()
                g_restart += g_fresh[..., lead_p, lead_c]
                g_prefix, g_factor = _times_adjoint(sr.kind, g_eps_in[..., 1:],
                                                    comb[..., :width], eps_v)
                g_comb[..., :width] += g_prefix
                g_eps += g_factor
                if sr.idempotent_plus:
                    g_moved = g_comb * (moved >= stay)
                    g_stay = g_comb - g_moved
                else:
                    g_moved = g_stay = g_comb
                x = hist[t][..., :width]
                g_x_stay, g_factor = _times_adjoint(sr.kind, g_stay[..., :width],
                                                    x, sl_v[:, t])
                if g_sl is not None:
                    g_sl[:, t] = g_factor
                g_x_moved, g_mp[:, t] = _times_adjoint(sr.kind, g_moved[..., 1:],
                                                       x, mp_v[:, t])
                g_next = g_x_stay + g_x_moved
            _accumulate(mp, g_mp, fresh=True)
            if sl is not None:
                _accumulate(sl, g_sl, fresh=True)
            if eps is not None:
                g_eps = g_eps.sum(axis=0)
                # the first step's input state is the restart vector itself
                g_lead = (g_restart + g_next[..., lead_p, lead_c]).sum(axis=1)
                g_eps[lead_p, lead_c - 1] += g_lead[0] - g_lead[1] if tracks == 2 else g_lead[0]
                _accumulate(eps, g_eps.reshape(-1)[grid_cells(lengths)], fresh=True)

        return self._op(run.ends, bw)

    def semiring_reduce(self, sr: Semiring, x: Node, axis: int) -> Node:
        value = sr.plus_reduce(x.value, axis)
        if sr.idempotent_plus:
            winners = np.expand_dims(np.argmax(x.value, axis=axis), axis)
            def bw(g):
                gx = np.zeros_like(x.value)
                np.put_along_axis(gx, winners, np.expand_dims(g, axis), axis=axis)
                _accumulate(x, gx)
        else:
            def bw(g):
                _accumulate(x, np.broadcast_to(np.expand_dims(g, axis), x.shape))
        return self._op(value, bw)

    def finalize_scores(self, sr: Semiring, x: Node) -> Node:
        """Boundary conversion of internal absent markers to the declared zero."""
        value = sr.finalize_scores(x.value)
        if value is x.value:
            return x
        live = ~np.isneginf(x.value)
        def bw(g):
            _accumulate(x, g * live)
        return self._op(value, bw)

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
        return self._op(float(nll.mean()), bw)

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
