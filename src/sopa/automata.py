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
length L+1, costing O(L) semiring operations per token.  Each length group is
scored by one fused tape primitive (Tape.pattern_scan): inference keeps only
the current state vector, and training keeps the per-step states so that a
hand-written reverse pass, linear in document length, yields the gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from sopa.autodiff import Node, Param, Tape, pairwise_dot, stable_sigmoid
from sopa.embeddings import EmbeddingMatrix, TokenizedDocument
from sopa.semiring import Semiring, get_semiring

ENCODER_SIGMOID = "sigmoid"
ENCODER_IDENTITY = "identity"
ENCODERS = (ENCODER_SIGMOID, ENCODER_IDENTITY)

MAX_PATTERN_LENGTH = 7

MAIN = "main"
SELF_LOOP = "self-loop"
EPSILON = "epsilon"

# tie-break ranks for trace reconstruction: main beats epsilon beats self-loop
_RANK = {MAIN: 0, EPSILON: 1, SELF_LOOP: 2, None: 3}


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


def parse_pattern_spec(text: str, max_length: int = MAX_PATTERN_LENGTH) -> dict[int, int]:
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
        if length > max_length:
            raise ValueError(f"pattern length {length} exceeds the maximum of {max_length}")
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


def encode_values(x: np.ndarray, encoder: str) -> np.ndarray:
    if encoder == ENCODER_SIGMOID:
        return stable_sigmoid(np.asarray(x, dtype=np.float64))
    if encoder == ENCODER_IDENTITY:
        return np.asarray(x, dtype=np.float64)
    raise ValueError(f"unknown encoder {encoder!r}")


def transition_tables(pattern: PatternParams, doc_matrix: np.ndarray,
                      config: PatternSetConfig, semiring: Semiring | None = None):
    """Per-token transition scores: self-loop (n, L), main (n, L), epsilon (L,).

    Disabled transition families come back as the declared semiring zero.
    """
    sr = semiring or get_semiring(config.semiring)
    doc_matrix = np.asarray(doc_matrix, dtype=np.float64)
    if doc_matrix.ndim != 2 or doc_matrix.shape[1] != pattern.dim:
        raise ValueError(f"token vectors must have dimension {pattern.dim}")
    n = doc_matrix.shape[0]
    length = pattern.length
    if config.self_loops:
        sl = encode_values(pairwise_dot(doc_matrix, pattern.u) + pattern.a, config.encoder)
    else:
        sl = np.full((n, length), sr.zero)
    mp = encode_values(pairwise_dot(doc_matrix, pattern.w) + pattern.b, config.encoder)
    if config.epsilons:
        eps = encode_values(pattern.c, config.encoder)
    else:
        eps = np.full(length, sr.zero)
    return sl, mp, eps


# ---------------------------------------------------------------------------
# batched scoring engine
# ---------------------------------------------------------------------------

@dataclass
class PatternGroup:
    """Same-length patterns stacked for vectorized scoring.

    Arrays are (count, L, e) / (count, L); they may be Params (training) or
    plain ndarrays (inference).  indices maps stacked rows back to positions
    in the original pattern list.
    """

    length: int
    indices: list[int]
    u: object
    a: object
    w: object
    b: object
    c: object

    def fields(self):
        return self.u, self.a, self.w, self.b, self.c


def group_patterns(patterns: list[PatternParams], as_params: bool = False,
                   name_prefix: str = "patterns") -> list[PatternGroup]:
    by_length: dict[int, list[int]] = {}
    for i, p in enumerate(patterns):
        by_length.setdefault(p.length, []).append(i)
    groups = []
    for length, idxs in by_length.items():
        stacked = {
            name: np.stack([getattr(patterns[i], name) for i in idxs])
            for name in ("u", "a", "w", "b", "c")
        }
        if as_params:
            stacked = {
                name: Param(f"{name_prefix}.len{length}.{name}", arr)
                for name, arr in stacked.items()
            }
        groups.append(PatternGroup(length=length, indices=idxs, **stacked))
    return groups


def ungroup_patterns(groups: list[PatternGroup]) -> list[PatternParams]:
    total = sum(len(g.indices) for g in groups)
    out: list[PatternParams | None] = [None] * total
    for g in groups:
        arrays = [f.value if isinstance(f, Param) else f for f in g.fields()]
        for row, orig in enumerate(g.indices):
            out[orig] = PatternParams(*(arr[row].copy() for arr in arrays))
    return out


def group_params(groups: list[PatternGroup]) -> list[Param]:
    params = []
    for g in groups:
        params.extend(f for f in g.fields() if isinstance(f, Param))
    return params


def _encode_node(tape: Tape, x: Node, encoder: str) -> Node:
    return tape.sigmoid(x) if encoder == ENCODER_SIGMOID else x


def _as_node(tape: Tape, value) -> Node:
    return tape.leaf(value) if isinstance(value, Param) else tape.const(value)


def _score_group(tape: Tape, sr: Semiring, config: PatternSetConfig,
                 group: PatternGroup, doc: np.ndarray, valid: np.ndarray):
    """Run the recurrence for one length group over a padded document batch.

    Returns (doc scores (B, c), per-token end scores (B, n, c)), both in the
    internal path algebra (absent = -inf under max semirings).
    """
    sl = None
    if config.self_loops:
        sl = _encode_node(tape, tape.pattern_affine(doc, _as_node(tape, group.u),
                                                    _as_node(tape, group.a)), config.encoder)
    mp = _encode_node(tape, tape.pattern_affine(doc, _as_node(tape, group.w),
                                                _as_node(tape, group.b)), config.encoder)
    eps = None
    if config.epsilons:
        eps = _encode_node(tape, _as_node(tape, group.c), config.encoder)  # (c, L)
    ends = tape.pattern_scan(sr, sl, mp, eps, valid)
    return tape.semiring_reduce(sr, ends, axis=1), ends


def encode_documents(groups: list[PatternGroup], docs: list[TokenizedDocument],
                     embeddings: EmbeddingMatrix, config: PatternSetConfig,
                     tape: Tape | None = None, semiring: Semiring | None = None):
    """Score a document batch against every pattern.

    Returns (z, token_scores, lengths): z is a (B, k) node of document scores
    in original pattern order, token_scores a (B, n_max, k) node of per-token
    end scores (padding filled with the declared zero).
    """
    sr = semiring or get_semiring(config.semiring)
    tape = tape if tape is not None else Tape(grad=False)
    if not docs:
        raise ValueError("empty document batch")
    lengths = np.array([len(d.token_ids) for d in docs])
    if lengths.min() < 1:
        raise ValueError("documents must contain at least one token")
    n_max = int(lengths.max())
    bsz = len(docs)
    dim = embeddings.dim
    doc_mat = np.zeros((bsz, n_max, dim))
    for i, doc in enumerate(docs):
        doc_mat[i, :len(doc.token_ids)] = embeddings.doc_matrix(doc)
    valid = np.arange(n_max)[None, :] < lengths[:, None]

    total = sum(len(g.indices) for g in groups)
    z_parts: list[Node] = []
    token_parts: list[Node] = []
    order: list[int] = []
    for g in groups:
        u_val = g.u.value if isinstance(g.u, Param) else np.asarray(g.u)
        if u_val.shape[2] != dim:
            raise ValueError("pattern dimension does not match embedding dimension")
        z_g, tok_g = _score_group(tape, sr, config, g, doc_mat, valid)
        z_parts.append(z_g)
        token_parts.append(tok_g)
        order.extend(g.indices)

    if order == list(range(total)):
        z = tape.concat(z_parts, axis=1) if len(z_parts) > 1 else z_parts[0]
        tokens = tape.concat(token_parts, axis=2) if len(token_parts) > 1 else token_parts[0]
    else:
        # grouping permuted the patterns; put columns back in declaration order
        z_cols: list[Node] = [None] * total  # type: ignore[list-item]
        tok_cols: list[Node] = [None] * total  # type: ignore[list-item]
        for g, z_g, tok_g in zip(groups, z_parts, token_parts):
            for row, orig in enumerate(g.indices):
                z_cols[orig] = tape.slice_axis(z_g, 1, row, row + 1)
                tok_cols[orig] = tape.slice_axis(tok_g, 2, row, row + 1)
        z = tape.concat(z_cols, axis=1)
        tokens = tape.concat(tok_cols, axis=2)

    z = tape.finalize_scores(sr, z)
    tokens = tape.finalize_scores(sr, tokens)
    return z, tokens, lengths


def score_document(pattern: PatternParams, doc: TokenizedDocument,
                   embeddings: EmbeddingMatrix, config: PatternSetConfig,
                   semiring: Semiring | None = None):
    """Aggregate score of all spans of a document, plus per-token end scores."""
    groups = group_patterns([pattern])
    z, tokens, _ = encode_documents(groups, [doc], embeddings, config, semiring=semiring)
    return float(z.value[0, 0]), tokens.value[0, :, 0].copy()


def encode_document(patterns: list[PatternParams], doc: TokenizedDocument,
                    embeddings: EmbeddingMatrix, config: PatternSetConfig,
                    semiring: Semiring | None = None) -> np.ndarray:
    """Feature vector of per-pattern document scores (the classifier input)."""
    groups = group_patterns(patterns)
    z, _, _ = encode_documents(groups, [doc], embeddings, config, semiring=semiring)
    return z.value[0].copy()


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


def trace_best_match(pattern: PatternParams, doc: TokenizedDocument,
                     embeddings: EmbeddingMatrix, config: PatternSetConfig,
                     semiring: Semiring | None = None,
                     pattern_index: int = 0) -> MatchTrace | None:
    """Viterbi path of the best-scoring span, or None when no span matches.

    Requires an idempotent (max) semiring.  Score ties break toward the
    earlier span start, then main over epsilon over self-loop steps.  The
    returned score equals score_document's aggregate exactly.
    """
    sr = semiring or get_semiring(config.semiring)
    if not sr.idempotent_plus:
        raise ValueError("best-match traceback requires a max semiring")
    doc_matrix = embeddings.doc_matrix(doc)
    n = doc_matrix.shape[0]
    if n < 1:
        raise ValueError("documents must contain at least one token")
    sl, mp, eps = transition_tables(pattern, doc_matrix, config, sr)
    length = pattern.length
    additive = sr.times_is_addition

    def tx(a, b):
        return a + b if additive else a * b

    def better(cur, cand):
        # cand/cur: (score, start, rank, steps-link)
        if cur is None:
            return cand
        if cand[0] != cur[0]:
            return cand if cand[0] > cur[0] else cur
        if cand[1] != cur[1]:
            return cand if cand[1] < cur[1] else cur
        return cand if cand[2] < cur[2] else cur

    def worse(cur, cand):
        if cur is None:
            return cand
        if cand[0] != cur[0]:
            return cand if cand[0] < cur[0] else cur
        if cand[1] != cur[1]:
            return cand if cand[1] < cur[1] else cur
        return cand if cand[2] < cur[2] else cur

    # Each live state holds (best, worst) partial paths.  Multiplying by a
    # negative score swaps which extreme can win, so the minimum must ride
    # along; under max-sum extension preserves order and worst is inert.
    def extend(pair, s, kind, tok, state):
        rank = _RANK[kind]
        step = (kind, tok, state)
        cands = []
        for entry in (pair if pair[0] is not pair[1] else pair[:1]):
            score, start, _, link = entry
            cands.append((tx(score, s), start, rank, (step, link)))
        if len(cands) == 1:
            return (cands[0], cands[0])
        a, b = cands
        if a[0] == b[0]:
            pref = a if (a[1], a[2]) <= (b[1], b[2]) else b
            return (pref, pref)
        return (a, b) if a[0] > b[0] else (b, a)

    def merge(cur, new):
        if cur is None:
            return new
        return (better(cur[0], new[0]), worse(cur[1], new[1]))

    def fresh(t):
        # restart entries injected after step t: a span beginning at token t+1
        entries = [None] * (length + 1)
        entries[0] = (sr.one, t + 1, _RANK[None], None)
        if length >= 2 and config.epsilons:
            entries[1] = (eps[0], t + 1, _RANK[EPSILON], ((EPSILON, None, 1), None))
        return entries

    cur = [None if e is None else (e, e) for e in fresh(0)]
    finished = []  # (score, start, end, steps-link)
    for t in range(1, n + 1):
        nxt = [None] * (length + 1)
        for j in range(length):  # the end state has no outgoing transitions
            pair = cur[j]
            if pair is None:
                continue
            nxt[j + 1] = merge(nxt[j + 1], extend(pair, mp[t - 1, j], MAIN, t, j + 1))
            if config.self_loops:
                nxt[j] = merge(nxt[j], extend(pair, sl[t - 1, j], SELF_LOOP, t, j))
        if config.epsilons:
            # descending so at most one epsilon is taken per consumed token
            for j in range(length, 0, -1):
                pair = nxt[j - 1]
                if pair is None:
                    continue
                nxt[j] = merge(nxt[j], extend(pair, eps[j - 1], EPSILON, None, j))
        for j, entry in enumerate(fresh(t)):
            if entry is not None:
                nxt[j] = merge(nxt[j], (entry, entry))
        if nxt[length] is not None:
            score, start, _, link = nxt[length][0]
            finished.append((score, start, t, link))
        cur = nxt

    if not finished:
        return None
    best = finished[0]
    for cand in finished[1:]:
        if (cand[0] > best[0]
                or (cand[0] == best[0] and (cand[1], cand[2]) < (best[1], best[2]))):
            best = cand
    score, start, end, link = best

    # refuse to report a trace whose score disagrees with the scorer
    total, _ = score_document(pattern, doc, embeddings, config, semiring=sr)
    if float(score) != total:
        return None

    steps: list[MatchStep] = []
    while link is not None:
        (kind, tok, state), link = link
        steps.append(MatchStep(kind=kind, token_pos=tok, state=state))
    steps.reverse()
    return MatchTrace(pattern_index=pattern_index, start=start, end=end,
                      score=float(score), steps=steps)


def replay_trace_score(trace: MatchTrace, pattern: PatternParams,
                       doc: TokenizedDocument, embeddings: EmbeddingMatrix,
                       config: PatternSetConfig,
                       semiring: Semiring | None = None) -> float:
    """Refold the recorded path's transition scores; equals trace.score exactly."""
    sr = semiring or get_semiring(config.semiring)
    sl, mp, eps = transition_tables(pattern, embeddings.doc_matrix(doc), config, sr)
    additive = sr.times_is_addition
    score = sr.one
    for step in trace.steps:
        if step.kind == MAIN:
            s = mp[step.token_pos - 1, step.state - 1]
        elif step.kind == SELF_LOOP:
            s = sl[step.token_pos - 1, step.state]
        elif step.kind == EPSILON:
            s = eps[step.state - 1]
        else:
            raise ValueError(f"unknown step kind {step.kind!r}")
        score = score + s if additive else score * s
    return float(score)
