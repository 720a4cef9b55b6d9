"""Soft surface patterns as restricted weighted automata.

A pattern of length L is a left-to-right automaton with states 0..L (0 is the
start, L the end).  Each state below L carries a token-dependent self-loop and
a token-dependent main transition to the next state, plus a token-independent
epsilon transition to the next state.  Scores come from affine functions of a
frozen word vector pushed through an encoder (sigmoid or identity), and a
document's score is the semiring aggregation over all nonempty token spans of
all first-order paths (at most one epsilon before the first token and after
each token) through the pattern.

A model's patterns form one bank (PatternBank).  One forward (_scan_bank)
runs it through the engine (sopa.engine) as one tape node; DocumentScan
reads best-match traces from the same forward and folds each one again.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from sopa.autodiff import Param, Tape
from sopa.embeddings import OOV_ID, EmbeddingMatrix, TokenizedDocument
from sopa.engine import (ENCODER_IDENTITY, ENCODER_SIGMOID, ENCODERS, EPSILON, MAIN, SELF_LOOP,
                         MatchStep, encode_values, project, scan_backward, scan_forward,
                         trace_lane)
from sopa.semiring import Semiring, get_semiring

MAX_PATTERN_LENGTH = 7


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
        for f in fields(self):
            setattr(self, f.name, np.asarray(getattr(self, f.name), dtype=np.float64))
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


def parse_pattern_spec(spec: str | dict) -> dict[int, int]:
    """Parse "6:10,5:10,4:10", or a {"6": 10, ...} map as config files,
    search spaces and model files hold it, into an ordered {length: count}
    map that check_pattern_spec accepts."""
    pairs = spec.items() if isinstance(spec, dict) else (
        part.strip().split(":") for part in str(spec).split(",") if part.strip())
    out: dict[int, int] = {}
    for pair in pairs:
        try:  # through str, so that 1.5 and true are refused, not truncated
            length, count = (int(str(raw)) for raw in pair)
        except ValueError:
            entry = ":".join(map(str, pair))
            raise ValueError(f"bad pattern spec entry {entry!r}; expected LENGTH:COUNT") from None
        if length in out:
            raise ValueError(f"duplicate pattern length {length} in spec")
        out[length] = count
    return check_pattern_spec(out)


def check_pattern_spec(spec: dict) -> dict:
    """The bounds every pattern spec obeys, whichever entry point it came
    through: a non-empty map of integer lengths 1..MAX_PATTERN_LENGTH to
    integer counts of at least 1."""
    if not isinstance(spec, dict):
        raise ValueError(f"pattern_spec must map lengths to counts, got {spec!r}")
    if not spec:
        raise ValueError("empty pattern spec; name at least one pattern")
    for length, count in spec.items():
        entry = f"bad pattern spec entry {length!r}:{count!r}"
        if not all(isinstance(x, numbers.Integral) and not isinstance(x, bool)
                   for x in (length, count)):
            raise ValueError(f"{entry}; expected integers")
        if length < 1:
            raise ValueError(f"{entry}; pattern length must be >= 1")
        if length > MAX_PATTERN_LENGTH:
            raise ValueError(f"{entry}; pattern length exceeds the maximum {MAX_PATTERN_LENGTH}")
        if count < 1:
            raise ValueError(f"{entry}; pattern count must be >= 1")
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
        check_pattern_spec(self.pattern_spec)
        for name in ("self_loops", "epsilons"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false, got {getattr(self, name)!r}")
        if self.encoder not in ENCODERS:
            raise ValueError(f"unknown encoder {self.encoder!r}; expected one of {ENCODERS}")
        get_semiring(self.semiring)  # validates the kind

    def record(self) -> dict:
        """The fields in declaration order as JSON holds them, the spec's
        lengths as strings."""
        record = {f.name: getattr(self, f.name) for f in fields(self)}
        record["pattern_spec"] = {str(k): v for k, v in self.pattern_spec.items()}
        return record

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
# the pattern bank and its forward
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
        return tuple(getattr(self, f.name) for f in fields(PatternParams))

    def values(self):
        """The fields' arrays, a Param's value in its place."""
        return tuple(f.value if isinstance(f, Param) else f for f in self.fields())


def group_patterns(patterns: list[PatternParams], as_params: bool = False) -> PatternBank:
    stacked = {f.name: np.concatenate([getattr(p, f.name) for p in patterns])
               for f in fields(PatternParams)}
    if as_params:
        stacked = {name: Param(f"patterns.{name}", arr) for name, arr in stacked.items()}
    return PatternBank(lengths=tuple(p.length for p in patterns), **stacked)


def ungroup_patterns(bank: PatternBank) -> list[PatternParams]:
    bounds = np.cumsum(bank.lengths)[:-1]
    arrays = [np.array(arr) for arr in bank.values()]
    return [PatternParams(*rows) for rows in zip(*(np.split(arr, bounds) for arr in arrays))]


def group_params(bank: PatternBank) -> list[Param]:
    return [f for f in bank.fields() if isinstance(f, Param)]


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
    in declared pattern order, token_scores a (B, n_max, k) array of per-token
    end scores (padding filled with the declared zero).  A semiring passed
    in (CountingSemiring, say) must be of config.semiring's kind.
    """
    sr = semiring or get_semiring(config.semiring)
    if sr.kind != config.semiring:
        raise ValueError(f"semiring {sr.kind!r} does not match the config's {config.semiring!r}")
    tape = tape if tape is not None else Tape(grad=False)
    vectors, index, valid, lengths = _batch_matrix(docs, embeddings)
    run, backward = _scan_bank(sr, config, bank, vectors, index, valid, tape.grad_enabled)
    return tape.op(run.scores, backward), sr.finalize_scores(run.ends), lengths


def _scan_bank(sr: Semiring, config: PatternSetConfig, bank: PatternBank, vectors: np.ndarray,
               index: np.ndarray, valid: np.ndarray, keep: bool, trace: bool = False):
    """The one forward of encode_documents and DocumentScan: the batch
    projected into the bank's (2,W,U,k) slot tables, one Tape.pattern_affine
    per enabled family, a disabled self-loop table absent throughout, and
    scanned.  Returns the ScanRun, with what the backward
    reads kept if keep is set and the records a trace reads if trace is, and
    backward(g), which adds the u, a, w, b and c adjoints of the scores'
    adjoint g (B,k) into the bank's Params.  It drops the scan's history
    before the projections' backward, each family's adjoint after its own.
    """
    u, a, w, b, c = bank.values()
    if u.shape[1] != vectors.shape[1]:
        raise ValueError("pattern dimension does not match embedding dimension")
    # the self-loop and main tables, written in place: one take gathers both
    tables = np.empty((2, max(bank.lengths), len(vectors), len(bank.lengths)))
    # through the class: a tracer may swap the attribute for a plain function
    if config.self_loops:
        sl_back = Tape.pattern_affine(vectors, index, u, a, config.encoder, bank.lengths,
                                      sr.absent, out=tables[0])[1]
    else:
        sl_back = None
        tables[0].fill(sr.absent)
    mp_back = Tape.pattern_affine(vectors, index, w, b, config.encoder, bank.lengths,
                                  sr.absent, out=tables[1])[1]
    run = scan_forward(sr, tables, config.self_loops, index, c if config.epsilons else None,
                       config.encoder, valid, keep, bank.lengths, trace)

    def backward(g):
        nonlocal run
        g_sl, g_mp, g_eps = scan_backward(run, g)
        run = None  # frees the states and records before the projections' backward
        grads = [(bank.c, g_eps)] if config.epsilons else []
        grads += zip((bank.w, bank.b), mp_back(g_mp))
        g_mp = None  # drops the main adjoint before the self-loops' backward
        if config.self_loops:
            grads += zip((bank.u, bank.a), sl_back(g_sl))
        for field, g_field in grads:
            if isinstance(field, Param):
                np.add(field.grad, g_field, out=field.grad)

    return run, backward


def score_document(pattern: PatternParams, doc: TokenizedDocument,
                   embeddings: EmbeddingMatrix, config: PatternSetConfig):
    """Aggregate score of all spans of a document, plus per-token end scores."""
    z, tokens, _ = encode_documents(group_patterns([pattern]), [doc], embeddings, config)
    return float(z.value[0, 0]), tokens[0, :, 0].copy()


# ---------------------------------------------------------------------------
# best-match traceback
# ---------------------------------------------------------------------------

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
    traces read back from the scan's own records (engine.trace_lane).

    scores is the (B, k) matrix of document scores that encode_documents
    returns for the same batch, in declared pattern order.
    """

    def __init__(self, patterns: list[PatternParams], docs: list[TokenizedDocument],
                 embeddings: EmbeddingMatrix, config: PatternSetConfig):
        sr = get_semiring(config.semiring)
        vectors, index, valid, self.lengths = _batch_matrix(docs, embeddings)
        self._run = _scan_bank(sr, config, group_patterns(patterns), vectors, index, valid,
                               keep=False, trace=True)[0]
        self.semiring = sr
        self.docs = docs
        self.scores = self._run.scores

    def trace(self, doc_index: int, pattern_index: int) -> MatchTrace | None:
        """Viterbi path of the best-scoring span of one document under one
        pattern, or None when no span matches.  Among paths of equal score
        it is the one the scan's backward sends the score's adjoint along
        (see engine._best_path).

        The path's transition scores are folded again from the scan's own
        tables; a fold that differs from the score in any bit raises
        TraceMismatch naming the pattern and the document.
        """
        sr = self.semiring
        if not sr.idempotent_plus:
            raise ValueError("best-match traceback requires a max semiring")
        found, sl, mp, eps = trace_lane(self._run, doc_index, pattern_index,
                                        int(self.lengths[doc_index]))
        if found is None:
            return None
        start, end, score, steps = found
        fold = _fold_path(sr, steps, sl, mp, eps)
        if fold != score:
            raise TraceMismatch(f"pattern {pattern_index}, document "
                                f"{self.docs[doc_index].doc_id}: the traced path folds to "
                                f"{fold!r}, not the document score {score!r}")
        return MatchTrace(pattern_index=pattern_index, start=start, end=end, score=score,
                          steps=steps)


def trace_best_match(pattern: PatternParams, doc: TokenizedDocument,
                     embeddings: EmbeddingMatrix, config: PatternSetConfig,
                     pattern_index: int = 0) -> MatchTrace | None:
    """Viterbi path of the best-scoring span, or None when no span matches.

    Requires an idempotent (max) semiring; ties go where the gradient goes,
    as in DocumentScan.trace.  The returned score equals score_document's
    aggregate exactly.  A thin wrapper over DocumentScan for one (document,
    pattern) pair.
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
