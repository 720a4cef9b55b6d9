"""Semirings over float64 scores.

Every scoring algorithm in this package is written once against the
array interface of Semiring (zero, one, plus_arrays, plus_reduce,
times_arrays, path_times_arrays, dual_times_arrays, finalize_scores) and
instantiated with one of three semirings: max-product for Viterbi-style
probability scoring, max-sum for Viterbi in log space, and sum-product for
forward-style expected counts.  The two max semirings have an idempotent
plus, which is what makes best-match traceback possible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_PRODUCT = "max-product"
MAX_SUM = "max-sum"
SUM_PRODUCT = "sum-product"

KINDS = (MAX_PRODUCT, MAX_SUM, SUM_PRODUCT)

# ufuncs implementing plus/times per kind
_PLUS_UFUNC = {MAX_PRODUCT: np.maximum, MAX_SUM: np.maximum, SUM_PRODUCT: np.add}
_TIMES_UFUNC = {MAX_PRODUCT: np.multiply, MAX_SUM: np.add, SUM_PRODUCT: np.multiply}


@dataclass(frozen=True)
class Semiring:
    """A commutative semiring on float64 arrays.

    plus_arrays and plus_reduce are its elementwise and reducing plus;
    times is path_times_arrays, with the absent marker as its zero, and
    under max-product also dual_times_arrays.  times_arrays is the bare
    times, without the guard.  The scoring recurrence, its backward and the
    reference scorers call only these.  plus_arrays and times_arrays write
    into out when given, the scan's preallocated step buffers, with the same
    values they would return.
    """

    kind: str
    zero: float
    one: float
    idempotent_plus: bool

    def plus_arrays(self, a, b, out=None):
        return _PLUS_UFUNC[self.kind](a, b, out=out)

    def plus_reduce(self, x, axis):
        if self.kind == SUM_PRODUCT:
            # in index order for every shape: add.reduce sums a contiguous
            # axis pairwise, so a one-pattern (B, n, 1) bank would round
            # otherwise than the same pattern in a wider bank
            return np.add.accumulate(x, axis=axis).take(-1, axis=axis)
        return _PLUS_UFUNC[self.kind].reduce(x, axis=axis)

    @property
    def times_is_addition(self) -> bool:
        return self.kind == MAX_SUM

    # -- path algebra --------------------------------------------------------
    #
    # Identity-encoded scores may be negative, and that breaks max-product in
    # two ways.  Its declared zero (0.0) is no longer neutral: folding it in
    # would clip real negative path scores, so scoring recurrences mark "no
    # path" with -inf internally (a true identity for max) and map -inf back
    # to the declared zero at the public boundary.  Worse, max does not
    # distribute over multiplication by a negative factor, so a recurrence
    # that keeps only the running max of path products is wrong: the smallest
    # prefix times a negative score can be the largest product.  Where a
    # negative factor may be present, recurrences therefore track per state
    # the max path product AND the negated min (both max-plus folds with -inf
    # as absent) and extend them with the sign-selected product below.
    # Without one, max distributes over the products, so the max track
    # alone, extended by the guarded path product, is exact; the scan
    # extends it bare where no -inf can meet a 0.0 or -inf factor (see
    # engine.scan_forward).  For max-sum and sum-product the path algebra
    # coincides with plus/times.

    @property
    def absent(self) -> float:
        return float("-inf") if self.idempotent_plus else 0.0

    def times_arrays(self, a, b, out=None):
        """a times b, unguarded: under max-product -inf * 0.0 is NaN, and the
        caller vouches that no such product arises."""
        return _TIMES_UFUNC[self.kind](a, b, out=out)

    def path_times_arrays(self, a, b):
        """a times b, where under max-product -inf times anything is -inf."""
        if self.kind != MAX_PRODUCT:
            return self.times_arrays(a, b)
        with np.errstate(invalid="ignore"):
            return np.where((a == -np.inf) | (b == -np.inf), float("-inf"), np.multiply(a, b))

    def dual_times_arrays(self, amax, aneg, b):
        """Extend (max, -min) path products by factor b, elementwise.

        amax holds the largest product over a path set, aneg the negated
        smallest; absent sets hold -inf in both.  b = -inf marks a disabled
        transition.  Returns the pair for the extended set: multiplying by a
        negative factor swaps which extreme produces which, and computing the
        swapped case as aneg*(-b) keeps every result bitwise equal to the
        underlying path's left-to-right product.
        """
        if self.kind != MAX_PRODUCT:
            raise ValueError("dual products are specific to max-product scoring")
        gone = (b == -np.inf) | (amax == -np.inf)
        nonneg = b >= 0.0
        with np.errstate(invalid="ignore"):
            pmax = np.where(nonneg, amax * b, aneg * -b)
            pneg = np.where(nonneg, aneg * b, amax * -b)
        return (np.where(gone, float("-inf"), pmax),
                np.where(gone, float("-inf"), pneg))

    def finalize_scores(self, x):
        """Map internal absent markers back to the declared zero."""
        if self.kind != MAX_PRODUCT:
            return x
        return np.where(x == -np.inf, 0.0, x)


_REGISTRY = {
    MAX_PRODUCT: Semiring(MAX_PRODUCT, zero=0.0, one=1.0, idempotent_plus=True),
    MAX_SUM: Semiring(MAX_SUM, zero=float("-inf"), one=0.0, idempotent_plus=True),
    SUM_PRODUCT: Semiring(SUM_PRODUCT, zero=0.0, one=1.0, idempotent_plus=False),
}


def get_semiring(kind: str) -> Semiring:
    try:
        return _REGISTRY[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable kind from a JSON file
        raise ValueError(f"unknown semiring {kind!r}; expected one of {', '.join(KINDS)}") from None


class CountingSemiring:
    """Wraps a semiring and counts plus/times invocations (per array element).

    Every attribute it does not count is the base semiring's.  Used to verify
    that document scoring costs a linear number of semiring operations in
    document length.
    """

    def __init__(self, base: Semiring):
        self.base = base
        self.plus_count = 0
        self.times_count = 0

    def __getattr__(self, name):
        return getattr(self.base, name)

    def reset(self):
        self.plus_count = 0
        self.times_count = 0

    @property
    def total(self) -> int:
        return self.plus_count + self.times_count

    @staticmethod
    def _elements(a, b) -> int:
        shape = np.broadcast_shapes(np.shape(a), np.shape(b))
        return int(np.prod(shape, dtype=np.int64))

    def plus_arrays(self, a, b, out=None):
        self.plus_count += self._elements(a, b)
        return self.base.plus_arrays(a, b, out=out)

    def plus_reduce(self, x, axis):
        n = np.shape(x)[axis]
        self.plus_count += max(n - 1, 0) * (np.size(x) // max(n, 1))
        return self.base.plus_reduce(x, axis)

    def times_arrays(self, a, b, out=None):
        self.times_count += self._elements(a, b)
        return self.base.times_arrays(a, b, out=out)

    def path_times_arrays(self, a, b):
        self.times_count += self._elements(a, b)
        return self.base.path_times_arrays(a, b)

    def dual_times_arrays(self, amax, aneg, b):
        self.times_count += 2 * self._elements(amax, b)
        return self.base.dual_times_arrays(amax, aneg, b)
