"""Slow, independently derived scorers used to cross-check the engine.

Three formulations of the same quantity live here: a dense vector-matrix
recurrence over explicit (L+1)x(L+1) transition matrices, an exponential
enumeration of every first-order path, and a closed-form max-pooled CNN for
the restricted mode (identity encoder, max-sum, main path only).  A forward
Viterbi over explicit partial paths is the oracle for best-match traces.

Internally these fold in the path algebra (missing paths are -inf under the
max semirings) and convert to the declared semiring zero only on return, so
their public values match the engine bit for bit under max semirings.
"""

from __future__ import annotations

import numpy as np

from sopa.automata import (EPSILON, MAIN, SELF_LOOP, TIE_RANK, MatchStep, MatchTrace,
                           PatternParams, PatternSetConfig, transition_tables)
from sopa.semiring import MAX_PRODUCT, Semiring, get_semiring

MAX_BRUTE_SPAN = 10
MAX_BRUTE_DOC = 8


def _finalize(sr: Semiring, value: float) -> float:
    return float(sr.finalize_scores(np.float64(value)))


def _dense_matrices(sl: np.ndarray, mp: np.ndarray, eps: np.ndarray,
                    config: PatternSetConfig, sr: Semiring):
    """Token transition matrices (n, L+1, L+1) and the epsilon matrix (L+1, L+1)."""
    n, length = mp.shape
    absent = sr.absent
    trans = np.full((n, length + 1, length + 1), absent)
    for j in range(length):
        if config.self_loops:
            trans[:, j, j] = sl[:, j]
        trans[:, j, j + 1] = mp[:, j]
    eps_mat = np.full((length + 1, length + 1), absent)
    for j in range(length + 1):
        eps_mat[j, j] = sr.one
        if j < length and config.epsilons:
            eps_mat[j, j + 1] = eps[j]
    return trans, eps_mat


def _vec_mat(sr: Semiring, h: np.ndarray, mat: np.ndarray) -> np.ndarray:
    prods = sr.path_times_arrays(h[:, None], mat)
    return sr.plus_reduce(prods, axis=0)


def _vec_mat_dual(sr: Semiring, hm: np.ndarray, hn: np.ndarray, mat: np.ndarray):
    pm, pn = sr.dual_times_arrays(hm[:, None], hn[:, None], mat)
    return sr.plus_reduce(pm, axis=0), sr.plus_reduce(pn, axis=0)


def _dense_span_internal(trans: np.ndarray, eps_mat: np.ndarray, sr: Semiring,
                         length: int, lo: int, hi: int) -> float:
    if sr.kind == MAX_PRODUCT:
        # carry (max product, negated min product) per state; a negative
        # transition score flips which extreme produces the maximum
        hm = np.full(length + 1, sr.absent)
        hn = np.full(length + 1, sr.absent)
        hm[0] = sr.one
        hn[0] = -sr.one
        hm, hn = _vec_mat_dual(sr, hm, hn, eps_mat)
        for t in range(lo, hi):
            hm, hn = _vec_mat_dual(sr, hm, hn, trans[t])
            hm, hn = _vec_mat_dual(sr, hm, hn, eps_mat)
        return float(hm[length])
    h = np.full(length + 1, sr.absent)
    h[0] = sr.one
    h = _vec_mat(sr, h, eps_mat)
    for t in range(lo, hi):
        h = _vec_mat(sr, h, trans[t])
        h = _vec_mat(sr, h, eps_mat)
    return float(h[length])


def dense_span_score(pattern: PatternParams, span_matrix: np.ndarray,
                     config: PatternSetConfig) -> float:
    """Span score by explicit matrix products: pi * Eps * prod_t(M_t * Eps) * eta."""
    sr = get_semiring(config.semiring)
    span_matrix = np.asarray(span_matrix, dtype=np.float64)
    sl, mp, eps = transition_tables(pattern, span_matrix, config)
    trans, eps_mat = _dense_matrices(sl, mp, eps, config, sr)
    raw = _dense_span_internal(trans, eps_mat, sr, pattern.length, 0, span_matrix.shape[0])
    return _finalize(sr, raw)


def dense_doc_score(pattern: PatternParams, doc_matrix: np.ndarray,
                    config: PatternSetConfig) -> float:
    """Aggregate over every nonempty token span via the dense recurrence.

    Quadratic in document length; the engine computes the same value in one
    linear pass.
    """
    sr = get_semiring(config.semiring)
    doc_matrix = np.asarray(doc_matrix, dtype=np.float64)
    n = doc_matrix.shape[0]
    if n < 1:
        raise ValueError("documents must contain at least one token")
    sl, mp, eps = transition_tables(pattern, doc_matrix, config)
    trans, eps_mat = _dense_matrices(sl, mp, eps, config, sr)
    total = sr.absent
    for lo in range(n):
        for hi in range(lo + 1, n + 1):
            span = _dense_span_internal(trans, eps_mat, sr, pattern.length, lo, hi)
            total = float(sr.plus_arrays(np.float64(total), np.float64(span)))
    return _finalize(sr, total)


def _enumerate_paths(sl, mp, eps, config: PatternSetConfig, sr: Semiring,
                     length: int, m: int):
    """Yield the folded score of every first-order path through an m-token span.

    A path must consume all m tokens in order and finish in the end state; at
    most one epsilon may fire before each consumed token and after the last.
    """
    additive = sr.times_is_addition

    def extend(score, s):
        return score + s if additive else float(sr.path_times_arrays(np.float64(score), np.float64(s)))

    def walk(state, t, eps_used, score):
        if state == length and t == m:
            yield score
            return
        if state < length and config.epsilons and not eps_used:
            yield from walk(state + 1, t, True, extend(score, eps[state]))
        if t < m and state < length:
            yield from walk(state + 1, t + 1, False, extend(score, mp[t, state]))
            if config.self_loops:
                yield from walk(state, t + 1, False, extend(score, sl[t, state]))

    yield from walk(0, 0, False, sr.one)


def _brute_span_internal(pattern: PatternParams, span_matrix: np.ndarray,
                         config: PatternSetConfig, sr: Semiring) -> float:
    m = span_matrix.shape[0]
    if m > MAX_BRUTE_SPAN:
        raise ValueError(f"brute-force span scoring is limited to {MAX_BRUTE_SPAN} tokens")
    if pattern.length > 7:
        raise ValueError("brute-force scoring is limited to patterns of length 7")
    sl, mp, eps = transition_tables(pattern, span_matrix, config)
    total = sr.absent
    for path_score in _enumerate_paths(sl, mp, eps, config, sr, pattern.length, m):
        total = float(sr.plus_arrays(np.float64(total), np.float64(path_score)))
    return total


def brute_force_span_score(pattern: PatternParams, span_matrix: np.ndarray,
                           config: PatternSetConfig) -> float:
    """Span score by enumerating every path outright."""
    sr = get_semiring(config.semiring)
    span_matrix = np.asarray(span_matrix, dtype=np.float64)
    return _finalize(sr, _brute_span_internal(pattern, span_matrix, config, sr))


def brute_force_doc_score(pattern: PatternParams, doc_matrix: np.ndarray,
                          config: PatternSetConfig) -> float:
    """Document score by enumerating every path of every nonempty span."""
    sr = get_semiring(config.semiring)
    doc_matrix = np.asarray(doc_matrix, dtype=np.float64)
    n = doc_matrix.shape[0]
    if n < 1:
        raise ValueError("documents must contain at least one token")
    if n > MAX_BRUTE_DOC:
        raise ValueError(f"brute-force document scoring is limited to {MAX_BRUTE_DOC} tokens")
    total = sr.absent
    for lo in range(n):
        for hi in range(lo + 1, n + 1):
            span = _brute_span_internal(pattern, doc_matrix[lo:hi], config, sr)
            total = float(sr.plus_arrays(np.float64(total), np.float64(span)))
    return _finalize(sr, total)


def cnn_filter_of(pattern: PatternParams) -> tuple[np.ndarray, np.ndarray]:
    """The pattern's main path read as a convolution filter.

    Returns the concatenated weight vector (L*e,) and the per-slot biases
    (L,); the L biases act as a single bias since only their sum enters any
    window score.
    """
    return pattern.w.reshape(-1).copy(), pattern.b.copy()


def explicit_cnn_score(cnn_filter: np.ndarray, biases: np.ndarray,
                       doc_matrix: np.ndarray) -> float:
    """Max-pooled one-layer CNN score: the restricted mode's closed form.

    Each window of L consecutive tokens scores filter . concat(window) plus
    the summed biases; the document scores the max over windows.  Matches the
    engine under the identity encoder and max-sum semiring with self-loops
    and epsilons off.  Documents shorter than the filter score the max-sum
    zero (-inf).
    """
    cnn_filter = np.asarray(cnn_filter, dtype=np.float64)
    biases = np.atleast_1d(np.asarray(biases, dtype=np.float64))
    doc_matrix = np.asarray(doc_matrix, dtype=np.float64)
    n, e = doc_matrix.shape
    length = biases.shape[0]
    if cnn_filter.shape != (length * e,):
        raise ValueError("filter length must equal pattern length times embedding dim")
    if n < length:
        return float("-inf")
    bias_sum = float(biases.sum())
    best = float("-inf")
    for t in range(n - length + 1):
        window = doc_matrix[t:t + length].reshape(-1)
        best = max(best, float(cnn_filter @ window) + bias_sum)
    return best


def viterbi_trace(pattern: PatternParams, doc_matrix: np.ndarray,
                  config: PatternSetConfig,
                  pattern_index: int = 0) -> MatchTrace | None:
    """Best-match path by a forward Viterbi over explicit partial paths.

    Each live state holds its best and worst partial path with the span
    start and the kind of the last step, merged one transition at a time
    under the tie rule of automata.TIE_RANK; the best entry that reaches the
    end state is the trace.  Independent of the scan states that
    DocumentScan.trace walks back, against which it is the oracle.
    """
    sr = get_semiring(config.semiring)
    if not sr.idempotent_plus:
        raise ValueError("best-match traceback requires a max semiring")
    doc_matrix = np.asarray(doc_matrix, dtype=np.float64)
    n = doc_matrix.shape[0]
    if n < 1:
        raise ValueError("documents must contain at least one token")
    sl, mp, eps = transition_tables(pattern, doc_matrix, config)
    length = pattern.length
    additive = sr.times_is_addition
    fresh_rank = len(TIE_RANK)

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
        rank = TIE_RANK[kind]
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
        entries[0] = (sr.one, t + 1, fresh_rank, None)
        if length >= 2 and config.epsilons:
            entries[1] = (eps[0], t + 1, TIE_RANK[EPSILON], ((EPSILON, None, 1), None))
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
    steps: list[MatchStep] = []
    while link is not None:
        (kind, tok, state), link = link
        steps.append(MatchStep(kind=kind, token_pos=tok, state=state))
    steps.reverse()
    return MatchTrace(pattern_index=pattern_index, start=start, end=end,
                      score=float(score), steps=steps)
