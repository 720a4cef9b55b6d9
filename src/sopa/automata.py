"""Soft surface patterns as restricted weighted automata.

A pattern of length L is a left-to-right automaton with states 0..L (0 is the
start, L the end).  Each state below L carries a token-dependent self-loop and
a token-dependent main transition to the next state, plus a token-independent
epsilon transition to the next state.  Scores come from affine functions of a
frozen word vector pushed through an encoder (sigmoid or identity), and a
document's score is the semiring aggregation over all nonempty token spans of
all first-order paths (at most one epsilon before the first token and after
each token) through the pattern.

The scoring recurrence processes one token at a time against a state vector of
length L+1, costing O(L) semiring operations per token.  A model's patterns
form one bank (PatternBank): their slots stacked in declared order, scored
together on a grid right-aligned at the longest length, so every pattern's
end state shares one column.  The bank is scored by one fused tape primitive
(Tape.pattern_scan): inference keeps only the current state vector, and
training keeps the per-step states so that a hand-written reverse pass, linear
in document length, yields the gradients.
Best-match traceback (DocumentScan) keeps the states of the same forward pass
and walks them back, so no score is computed twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from sopa.autodiff import (ENCODER_IDENTITY, ENCODER_SIGMOID, ENCODERS, Node, Param, Tape,
                           encode_values, project, scan_forward)
from sopa.embeddings import OOV_ID, EmbeddingMatrix, TokenizedDocument
from sopa.semiring import Semiring, get_semiring

MAX_PATTERN_LENGTH = 7

MAIN = "main"
SELF_LOOP = "self-loop"
EPSILON = "epsilon"

# The best-match tie rule, stated once.  Among paths of equal score the
# earlier span start wins; among equal starts the last step decides, ranked
# here: main over epsilon over self-loop.  A fresh span starts later than
# every path already running, so its rank (len(TIE_RANK)) never decides.
# Among end positions of the best score, the earlier start and then the
# earlier end wins.
TIE_RANK = {MAIN: 0, EPSILON: 1, SELF_LOOP: 2}


@dataclass
class PatternParams:
    """Trainable arrays for one pattern; row i parameterizes state i's transitions.

    u, a: self-loop weight vectors and biases; w, b: main-transition weights
    and biases; c: epsilon pre-activations.
    """

    u: np.ndarray  # (L, e)
    a: np.ndarray  # (L,)
    w: np.ndarray  # (L, e)
    b: np.ndarray  # (L,)
    c: np.ndarray  # (L,)

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=np.float64)
        self.a = np.asarray(self.a, dtype=np.float64)
        self.w = np.asarray(self.w, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        self.c = np.asarray(self.c, dtype=np.float64)
        if self.u.ndim != 2 or self.u.shape != self.w.shape:
            raise ValueError("u and w must both have shape (length, dim)")
        length = self.u.shape[0]
        if length < 1:
            raise ValueError("pattern length must be at least 1")
        for name, arr in (("a", self.a), ("b", self.b), ("c", self.c)):
            if arr.shape != (length,):
                raise ValueError(f"{name} must have shape ({length},)")

    @property
    def length(self) -> int:
        return self.u.shape[0]

    @property
    def dim(self) -> int:
        return self.u.shape[1]

    @classmethod
    def random(cls, length: int, dim: int, rng: np.random.Generator, std: float = 0.1):
        return cls(
            u=rng.normal(0.0, std, (length, dim)),
            a=rng.normal(0.0, std, length),
            w=rng.normal(0.0, std, (length, dim)),
            b=rng.normal(0.0, std, length),
            c=rng.normal(0.0, std, length),
        )


def parse_pattern_spec(text: str) -> dict[int, int]:
    """Parse "6:10,5:10,4:10" into an ordered {length: count} map."""
    spec: dict[int, int] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            raw_len, raw_count = part.split(":")
            length, count = int(raw_len), int(raw_count)
        except ValueError:
            raise ValueError(f"bad pattern spec entry {part!r}; expected LENGTH:COUNT") from None
        if length < 1:
            raise ValueError(f"pattern length must be >= 1, got {length}")
        if length > MAX_PATTERN_LENGTH:
            raise ValueError(f"pattern length {length} exceeds the maximum {MAX_PATTERN_LENGTH}")
        if count < 1:
            raise ValueError(f"pattern count must be >= 1, got {count}")
        if length in spec:
            raise ValueError(f"duplicate pattern length {length} in spec")
        spec[length] = count
    if not spec:
        raise ValueError(f"empty pattern spec {text!r}")
    return spec


def min_match_tokens(length: int, epsilons: bool) -> int:
    """Fewest tokens any span matched by a length-L pattern can hold.

    Without epsilons every state advance consumes a token.  With them, one
    epsilon may fire before the first token and after each token, so m tokens
    advance at most 2m+1 states; spans are never empty.
    """
    return max(1, length // 2) if epsilons else length


@dataclass(frozen=True)
class PatternSetConfig:
    """Scoring configuration shared by every pattern in a model."""

    pattern_spec: dict[int, int]
    semiring: str = "max-product"
    encoder: str = ENCODER_SIGMOID
    self_loops: bool = True
    epsilons: bool = True

    def __post_init__(self):
        if not self.pattern_spec:
            raise ValueError("pattern_spec must name at least one pattern")
        for length, count in self.pattern_spec.items():
            if length < 1 or count < 1:
                raise ValueError(f"bad pattern spec entry {length}:{count}")
        if self.encoder not in ENCODERS:
            raise ValueError(f"unknown encoder {self.encoder!r}; expected one of {ENCODERS}")
        get_semiring(self.semiring)  # validates the kind

    @property
    def total_patterns(self) -> int:
        return sum(self.pattern_spec.values())

    def lengths(self) -> list[int]:
        """Pattern length per pattern index, in declaration order."""
        out: list[int] = []
        for length, count in self.pattern_spec.items():
            out.extend([length] * count)
        return out

    @property
    def cnn_mode(self) -> bool:
        """Identity encoder, max-sum, no self-loops, no epsilons: a max-pooled CNN."""
        return (self.encoder == ENCODER_IDENTITY and self.semiring == "max-sum"
                and not self.self_loops and not self.epsilons)


def make_patterns(config: PatternSetConfig, dim: int, rng: np.random.Generator,
                  std: float = 0.1) -> list[PatternParams]:
    return [PatternParams.random(length, dim, rng, std) for length in config.lengths()]


def transition_tables(pattern: PatternParams, doc_matrix: np.ndarray,
                      config: PatternSetConfig):
    """Per-token transition scores: self-loop (n, L), main (n, L), epsilon (L,).

    Disabled transition families come back as the declared semiring zero.
    Scores come from the engine's own projection kernel, so they equal the
    engine's bitwise.
    """
    sr = get_semiring(config.semiring)
    doc_matrix = np.asarray(doc_matrix, dtype=np.float64)
    if doc_matrix.ndim != 2 or doc_matrix.shape[1] != pattern.dim:
        raise ValueError(f"token vectors must have dimension {pattern.dim}")
    n = doc_matrix.shape[0]
    length = pattern.length
    if config.self_loops:
        sl = project(doc_matrix, pattern.u, pattern.a, config.encoder)
    else:
        sl = np.full((n, length), sr.zero)
    mp = project(doc_matrix, pattern.w, pattern.b, config.encoder)
    if config.epsilons:
        eps = encode_values(pattern.c, config.encoder)
    else:
        eps = np.full(length, sr.zero)
    return sl, mp, eps


# ---------------------------------------------------------------------------
# batched scoring engine
# ---------------------------------------------------------------------------

@dataclass
class PatternBank:
    """Every pattern of a model, stacked slot by slot in declared order.

    u and w are (S, e), a, b and c (S,), with S the sum of the lengths;
    pattern p owns the lengths[p] rows that follow the first
    sum(lengths[:p]).  The arrays may be Params (training) or plain ndarrays
    (inference).
    """

    lengths: tuple[int, ...]
    u: object
    a: object
    w: object
    b: object
    c: object

    def fields(self):
        return self.u, self.a, self.w, self.b, self.c


def group_patterns(patterns: list[PatternParams], as_params: bool = False) -> PatternBank:
    stacked = {name: np.concatenate([getattr(p, name) for p in patterns])
               for name in ("u", "a", "w", "b", "c")}
    if as_params:
        stacked = {name: Param(f"patterns.{name}", arr) for name, arr in stacked.items()}
    return PatternBank(lengths=tuple(p.length for p in patterns), **stacked)


def ungroup_patterns(bank: PatternBank) -> list[PatternParams]:
    bounds = np.cumsum(bank.lengths)[:-1]
    arrays = [np.array(f.value if isinstance(f, Param) else f) for f in bank.fields()]
    return [PatternParams(*rows) for rows in zip(*(np.split(arr, bounds) for arr in arrays))]


def group_params(bank: PatternBank) -> list[Param]:
    return [f for f in bank.fields() if isinstance(f, Param)]


def _encode_node(tape: Tape, x: Node, encoder: str) -> Node:
    return tape.sigmoid(x) if encoder == ENCODER_SIGMOID else x


def _as_node(tape: Tape, value) -> Node:
    return tape.leaf(value) if isinstance(value, Param) else tape.const(value)


def _transitions(tape: Tape, sr: Semiring, config: PatternSetConfig, bank: PatternBank,
                 vectors: np.ndarray, index: np.ndarray):
    """Encoded self-loop and main scores on the bank's grid (B,n,k,W), padded
    with the absent marker, and epsilon scores (S,); None marks a disabled
    family."""
    if (bank.u.value if isinstance(bank.u, Param) else bank.u).shape[1] != vectors.shape[1]:
        raise ValueError("pattern dimension does not match embedding dimension")
    sl = None
    if config.self_loops:
        sl = tape.pattern_affine(vectors, index, _as_node(tape, bank.u),
                                 _as_node(tape, bank.a), config.encoder, bank.lengths,
                                 sr.absent)
    mp = tape.pattern_affine(vectors, index, _as_node(tape, bank.w),
                             _as_node(tape, bank.b), config.encoder, bank.lengths, sr.absent)
    eps = None
    if config.epsilons:
        eps = _encode_node(tape, _as_node(tape, bank.c), config.encoder)
    return sl, mp, eps


def _batch_matrix(docs: list[TokenizedDocument], embeddings: EmbeddingMatrix):
    """The batch's distinct token vectors (U, e), the (B, n_max) index of each
    position's row, the (B, n_max) real-token mask and the document lengths.
    OOV tokens and padding share one zero row."""
    if not docs:
        raise ValueError("empty document batch")
    lengths = np.array([len(d.token_ids) for d in docs])
    if lengths.min() < 1:
        raise ValueError("documents must contain at least one token")
    n_max = int(lengths.max())
    ids = np.full((len(docs), n_max), OOV_ID)
    for i, doc in enumerate(docs):
        ids[i, :len(doc.token_ids)] = doc.token_ids
    # unique of the flat ids: numpy 2.0.0 shapes the inverse like its input
    distinct, index = np.unique(ids.reshape(-1), return_inverse=True)
    valid = np.arange(n_max)[None, :] < lengths[:, None]
    return embeddings.rows(distinct), index.reshape(ids.shape), valid, lengths


def encode_documents(bank: PatternBank, docs: list[TokenizedDocument],
                     embeddings: EmbeddingMatrix, config: PatternSetConfig,
                     tape: Tape | None = None, semiring: Semiring | None = None):
    """Score a document batch against every pattern of a bank.

    Returns (z, token_scores, lengths): z is a (B, k) node of document scores
    in declared pattern order, token_scores a (B, n_max, k) node of per-token
    end scores (padding filled with the declared zero).  A semiring passed
    in (CountingSemiring, say) must be of config.semiring's kind.
    """
    sr = semiring or get_semiring(config.semiring)
    if sr.kind != config.semiring:
        raise ValueError(f"semiring {sr.kind!r} does not match the config's {config.semiring!r}")
    tape = tape if tape is not None else Tape(grad=False)
    vectors, index, valid, lengths = _batch_matrix(docs, embeddings)
    sl, mp, eps = _transitions(tape, sr, config, bank, vectors, index)
    ends = tape.pattern_scan(sr, sl, mp, eps, valid, bank.lengths)
    z = tape.finalize_scores(sr, tape.semiring_reduce(sr, ends, axis=1))
    return z, tape.finalize_scores(sr, ends), lengths


def score_document(pattern: PatternParams, doc: TokenizedDocument,
                   embeddings: EmbeddingMatrix, config: PatternSetConfig):
    """Aggregate score of all spans of a document, plus per-token end scores."""
    z, tokens, _ = encode_documents(group_patterns([pattern]), [doc], embeddings, config)
    return float(z.value[0, 0]), tokens.value[0, :, 0].copy()


# ---------------------------------------------------------------------------
# best-match traceback
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatchStep:
    kind: str  # main | self-loop | epsilon
    token_pos: int | None  # 1-based consumed token, None for epsilon
    state: int  # state after taking the step


@dataclass
class MatchTrace:
    pattern_index: int
    start: int  # 1-based first consumed token
    end: int  # 1-based last consumed token
    score: float
    steps: list[MatchStep] = field(default_factory=list)


class TraceMismatch(RuntimeError):
    """A best-match trace that does not reproduce the scan it was read from."""


class DocumentScan:
    """Scores of a document batch against a pattern list, with best-match
    traces read back from the scan's own states.

    scores is the (B, k) matrix of document scores that encode_documents
    returns for the same batch, in declared pattern order.  Under a max
    semiring the scan keeps every step's state vectors, so trace() walks
    them in reverse and computes no score twice.
    """

    def __init__(self, patterns: list[PatternParams], docs: list[TokenizedDocument],
                 embeddings: EmbeddingMatrix, config: PatternSetConfig):
        sr = get_semiring(config.semiring)
        bank = group_patterns(patterns)
        vectors, index, valid, self.lengths = _batch_matrix(docs, embeddings)
        sl, mp, eps = _transitions(Tape(grad=False), sr, config, bank, vectors, index)
        self._run = scan_forward(sr, None if sl is None else sl.value, mp.value,
                                 None if eps is None else eps.value, valid,
                                 keep_states=sr.idempotent_plus, lengths=bank.lengths)
        self.semiring = sr
        self.docs = docs
        self.scores = sr.finalize_scores(sr.plus_reduce(self._run.ends, axis=1))

    def trace(self, doc_index: int, pattern_index: int) -> MatchTrace | None:
        """Viterbi path of the best-scoring span of one document under one
        pattern, or None when no span matches.  Ties follow TIE_RANK.

        The path's transition scores are folded again from the scan's own
        tables; a fold that differs from the score in any bit raises
        TraceMismatch naming the pattern and the document.
        """
        sr = self.semiring
        if not sr.idempotent_plus:
            raise ValueError("best-match traceback requires a max semiring")
        run, p = self._run, pattern_index
        doc = self.docs[doc_index]
        n = int(self.lengths[doc_index])
        first = run.starts[p]  # the pattern's own columns of the bank's grid
        sl = run.sl[doc_index, :n, p, first:].tolist()
        mp = run.mp[doc_index, :n, p, first:].tolist()
        eps = run.eps[p, first:].tolist()
        where = f"pattern {pattern_index}, document {doc.doc_id}"
        try:
            found = _best_path(run.states[:n + 1, :, doc_index, p, first:].tolist(), sl, mp,
                               eps, run.restart[:, 0, p, first:].tolist(),
                               sr.times_is_addition)
        except TraceMismatch as exc:
            raise TraceMismatch(f"{where}: {exc}") from None
        if found is None:
            return None
        start, end, score, steps = found
        steps = [MatchStep(kind, tok, state) for kind, tok, state in steps]
        fold = _fold_path(sr, steps, sl, mp, eps)
        if fold != score:
            raise TraceMismatch(f"{where}: the traced path folds to {fold!r}, "
                                f"not the document score {score!r}")
        return MatchTrace(pattern_index=pattern_index, start=start, end=end, score=score,
                          steps=steps)


def _best_path(states, sl, mp, eps, restart, additive: bool):
    """Reverse walk over one (document, pattern) pair's scan states.

    states[t][k][j] is state j after t tokens on track k, sl[t][j] and
    mp[t][j] score token t+1's self-loop and main arc out of state j, eps[j]
    the epsilon out of state j, restart[k][j] the fresh-span vector.  Arcs
    add their scores when additive is set and multiply them otherwise.
    Returns (start, end, score, steps) with 1-based tokens, or None when no
    span matches.

    A node is (t, j, comb, k): state j after token t, either complete or,
    with comb set, after the main and self-loop arcs but before epsilons;
    k picks the track: 0 the max, 1 the negated min, which the scan keeps
    only under max-product with a negative factor (adding a score, or
    multiplying by a nonnegative one, preserves order, so the max track
    alone suffices otherwise).  An option of a node is a predecessor
    track whose product with the arc score equals the node's value in every
    bit, or a fresh span.  A lone option needs no start; among several,
    starts are computed (memoised, with an explicit stack, since tie chains
    can be as long as the document) and TIE_RANK decides.
    """
    neg, pos = float("-inf"), float("inf")
    length = len(states[0][0]) - 1
    if len(states[0]) == 1:
        values = [[(v,) for v in row[0]] for row in states]
    else:
        values = [list(zip(row[0], [-v for v in row[1]])) for row in states]
    comb_memo: dict = {}
    options_memo: dict = {}
    start_memo: dict = {}
    choice_memo: dict = {}

    def extend(pv, s):
        # the arc's product with each track of a predecessor; none if absent
        if s == neg or pv[0] == neg:
            return ()
        if additive:
            return (pv[0] + s,)
        return (pv[0] * s,) if len(pv) == 1 else (pv[0] * s, pv[1] * s)

    def comb_value(t, j):
        pair = comb_memo.get((t, j))
        if pair is None:
            xs = extend(values[t - 1][j - 1], mp[t - 1][j - 1]) if j else ()
            xs += extend(values[t - 1][j], sl[t - 1][j])  # j < length for comb nodes
            pair = comb_memo[(t, j)] = (max(xs, default=neg), min(xs, default=pos))
        return pair

    def options(node):
        opts = options_memo.get(node)
        if opts is not None:
            return opts
        t, j, comb, k = node
        target = (comb_value(t, j) if comb else values[t][j])[k]
        arcs = []
        if t and j:
            arcs.append((TIE_RANK[MAIN], (t - 1, j - 1, False), values[t - 1][j - 1],
                         mp[t - 1][j - 1], (MAIN, t, j)))
        if t and j < length:
            arcs.append((TIE_RANK[SELF_LOOP], (t - 1, j, False), values[t - 1][j],
                         sl[t - 1][j], (SELF_LOOP, t, j)))
        if t and j and not comb:
            arcs.append((TIE_RANK[EPSILON], (t, j - 1, True), comb_value(t, j - 1),
                         eps[j - 1], (EPSILON, None, j)))
        # (rank, predecessor track, predecessor node or a fresh span's start, step)
        opts = []
        for rank, pred, pv, s, step in arcs:
            xs = extend(pv, s)
            if xs and xs[0] == target:
                opts.append((rank, 0, pred + (0,), step))
            # a second track holding another value is another path
            if len(xs) == 2 and xs[1] == target and pv[1] != pv[0]:
                opts.append((rank, 1, pred + (1,), step))
        if not comb and j <= 1 and restart[0][j] != neg:
            if (-restart[1][j] if k else restart[0][j]) == target:
                # a fresh span starting at token t+1
                opts.append((len(TIE_RANK), 0, t + 1, (EPSILON, None, 1) if j else None))
        if not opts:
            raise TraceMismatch(f"no arc reproduces state {j} after token {t}")
        options_memo[node] = opts
        return opts

    def start_of(opt):
        origin = opt[2]
        return origin if isinstance(origin, int) else start_memo[origin]

    def resolve(nodes):
        # starts of nodes and of everything they depend on, deepest first
        stack = list(nodes)
        while stack:
            node = stack[-1]
            if node in start_memo:
                stack.pop()
                continue
            opts = options(node)
            pending = [o[2] for o in opts
                       if not isinstance(o[2], int) and o[2] not in start_memo]
            if pending:
                stack.extend(pending)
                continue
            best = choice_memo[node] = min(opts, key=lambda o: (start_of(o), o[0], o[1]))
            start_memo[node] = start_of(best)
            stack.pop()

    def choose(node):
        if node not in choice_memo:
            opts = options(node)
            if len(opts) == 1:
                choice_memo[node] = opts[0]
            else:
                resolve([node])
        return choice_memo[node]

    ends = [row[length][0] for row in values[1:]]
    score = max(ends)
    if score == neg:
        return None
    tied = [t for t, v in enumerate(ends, start=1) if v == score]
    end = tied[0]
    if len(tied) > 1:
        resolve([(t, length, False, 0) for t in tied])
        end = min(tied, key=lambda t: (start_memo[(t, length, False, 0)], t))
    node, steps = (end, length, False, 0), []
    while True:
        _, _, origin, step = choose(node)
        if step is not None:
            steps.append(step)
        if isinstance(origin, int):
            break
        node = origin
    steps.reverse()
    return origin, end, score, steps


def trace_best_match(pattern: PatternParams, doc: TokenizedDocument,
                     embeddings: EmbeddingMatrix, config: PatternSetConfig,
                     pattern_index: int = 0) -> MatchTrace | None:
    """Viterbi path of the best-scoring span, or None when no span matches.

    Requires an idempotent (max) semiring; ties follow TIE_RANK.  The
    returned score equals score_document's aggregate exactly.  A thin
    wrapper over DocumentScan for one (document, pattern) pair.
    """
    trace = DocumentScan([pattern], [doc], embeddings, config).trace(0, 0)
    if trace is not None:
        trace.pattern_index = pattern_index
    return trace


def _fold_path(sr: Semiring, steps: list[MatchStep], sl, mp, eps) -> float:
    """Fold a path's transition scores (self-loop and main tables indexed
    [token][state], epsilon [state]) left to right, as the scan extends it."""
    score = sr.one
    for step in steps:
        if step.kind == MAIN:
            s = mp[step.token_pos - 1][step.state - 1]
        elif step.kind == SELF_LOOP:
            s = sl[step.token_pos - 1][step.state]
        elif step.kind == EPSILON:
            s = eps[step.state - 1]
        else:
            raise ValueError(f"unknown step kind {step.kind!r}")
        score = score + s if sr.times_is_addition else score * s
    return float(score)


def replay_trace_score(trace: MatchTrace, pattern: PatternParams,
                       doc: TokenizedDocument, embeddings: EmbeddingMatrix,
                       config: PatternSetConfig) -> float:
    """Refold the recorded path's transition scores from freshly computed
    tables; equals trace.score exactly."""
    sl, mp, eps = transition_tables(pattern, embeddings.doc_matrix(doc), config)
    return _fold_path(get_semiring(config.semiring), trace.steps, sl, mp, eps)
