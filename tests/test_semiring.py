"""Semiring operation tables, algebraic laws, and the counting wrapper.

The laws are checked on the array operations the engine runs: plus is
plus_arrays, times is path_times_arrays with the absent marker as its zero.
Expected values come from Python float arithmetic.
"""

import operator
from functools import reduce

import numpy as np
import pytest

from sopa.semiring import (CountingSemiring, get_semiring,
                           MAX_PRODUCT, MAX_SUM, SUM_PRODUCT, KINDS)

PY_PLUS = {MAX_PRODUCT: max, MAX_SUM: max, SUM_PRODUCT: operator.add}
PY_TIMES = {MAX_PRODUCT: operator.mul, MAX_SUM: operator.add, SUM_PRODUCT: operator.mul}


def plus(sr, a, b):
    return sr.plus_arrays(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))


def times(sr, a, b):
    return sr.path_times_arrays(np.asarray(a, dtype=np.float64),
                                np.asarray(b, dtype=np.float64))


def test_declared_constants():
    mp = get_semiring(MAX_PRODUCT)
    assert (mp.zero, mp.one) == (0.0, 1.0)
    assert mp.idempotent_plus
    ms = get_semiring(MAX_SUM)
    assert ms.zero == float("-inf") and ms.one == 0.0
    assert ms.idempotent_plus and ms.times_is_addition
    sp = get_semiring(SUM_PRODUCT)
    assert (sp.zero, sp.one) == (0.0, 1.0)
    assert not sp.idempotent_plus


def test_operation_tables():
    mp, ms, sp = (get_semiring(k) for k in (MAX_PRODUCT, MAX_SUM, SUM_PRODUCT))
    assert plus(mp, 0.3, 0.7) == 0.7
    assert times(mp, 0.5, 0.4) == 0.2
    assert plus(ms, -1.0, 2.5) == 2.5
    assert times(ms, -1.0, 2.5) == 1.5
    assert plus(sp, 0.3, 0.7) == 1.0
    assert times(sp, 0.5, 0.4) == 0.2


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown semiring"):
        get_semiring("min-plus")


def test_one_is_times_identity_exactly():
    values = np.random.default_rng(3).normal(0.0, 5.0, size=1000)
    for kind in KINDS:
        sr = get_semiring(kind)
        assert np.array_equal(times(sr, sr.one, values), values)
        assert np.array_equal(times(sr, values, sr.one), values)


def test_zero_absorbs_times():
    # under path_times_arrays the zero is the absent marker
    values = np.random.default_rng(4).normal(0.0, 5.0, size=200)
    for kind in KINDS:
        sr = get_semiring(kind)
        assert (times(sr, sr.absent, values) == sr.absent).all()
        assert (times(sr, values, sr.absent) == sr.absent).all()


def test_plus_zero_identity_on_valid_scores():
    # max-product scores are magnitudes (>= 0) wherever its declared zero acts
    # as the additive identity; max-sum and sum-product hold for all reals,
    # and the absent marker is the identity of every kind on all reals
    rng = np.random.default_rng(5)
    mp = get_semiring(MAX_PRODUCT)
    magnitudes = rng.uniform(0.0, 10.0, size=200)
    assert np.array_equal(plus(mp, mp.zero, magnitudes), magnitudes)
    values = rng.normal(0.0, 5.0, size=200)
    for kind in (MAX_SUM, SUM_PRODUCT):
        sr = get_semiring(kind)
        assert np.array_equal(plus(sr, sr.zero, values), values)
    for kind in KINDS:
        sr = get_semiring(kind)
        assert np.array_equal(plus(sr, sr.absent, values), values)


def test_plus_commutes_and_associates_exactly_for_max_kinds():
    a, b, c = np.random.default_rng(6).normal(0.0, 3.0, size=(3, 1000))
    for kind in (MAX_PRODUCT, MAX_SUM):
        sr = get_semiring(kind)
        assert np.array_equal(plus(sr, a, b), plus(sr, b, a))
        assert np.array_equal(plus(sr, plus(sr, a, b), c), plus(sr, a, plus(sr, b, c)))
        assert np.array_equal(plus(sr, a, a), a)  # idempotent


def test_times_commutes_exactly():
    a, b = np.random.default_rng(7).normal(0.0, 3.0, size=(2, 1000))
    for kind in KINDS:
        sr = get_semiring(kind)
        assert np.array_equal(times(sr, a, b), times(sr, b, a))


def test_times_associates_to_rounding():
    a, b, c = np.random.default_rng(8).normal(0.0, 3.0, size=(3, 1000))
    for kind in KINDS:
        sr = get_semiring(kind)
        left = times(sr, times(sr, a, b), c)
        right = times(sr, a, times(sr, b, c))
        assert left == pytest.approx(right, rel=1e-12, abs=1e-12)


def test_distributivity():
    rng = np.random.default_rng(9)
    # max-sum: addition is monotone, so times distributes over max exactly
    ms = get_semiring(MAX_SUM)
    a, b, c = rng.normal(0.0, 3.0, size=(3, 1000))
    assert np.array_equal(times(ms, a, plus(ms, b, c)),
                          plus(ms, times(ms, a, b), times(ms, a, c)))
    # max-product distributes only for nonnegative factors
    mp = get_semiring(MAX_PRODUCT)
    a, b, c = rng.uniform(0.0, 3.0, size=(3, 1000))
    assert np.array_equal(times(mp, a, plus(mp, b, c)),
                          plus(mp, times(mp, a, b), times(mp, a, c)))
    # sum-product distributes up to rounding
    sp = get_semiring(SUM_PRODUCT)
    a, b, c = rng.normal(0.0, 3.0, size=(3, 200))
    lhs = times(sp, a, plus(sp, b, c))
    rhs = plus(sp, times(sp, a, b), times(sp, a, c))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_max_product_negative_factor_breaks_distributivity():
    # the counterexample that forces dual (max, -min) tracking
    mp = get_semiring(MAX_PRODUCT)
    a, b, c = -2.0, 1.0, 3.0
    assert times(mp, a, plus(mp, b, c)) == -6.0
    assert plus(mp, times(mp, a, b), times(mp, a, c)) == -2.0


def test_array_ops_match_scalar_ops():
    # every element of plus_arrays, path_times_arrays and plus_reduce equals
    # Python's own float arithmetic on that element
    rng = np.random.default_rng(10)
    a = rng.normal(size=(4, 5))
    b = rng.normal(size=(4, 5))
    for kind in KINDS:
        sr = get_semiring(kind)
        pa = sr.plus_arrays(a, b)
        ta = sr.path_times_arrays(a, b)
        for idx in np.ndindex(a.shape):
            assert pa[idx] == PY_PLUS[kind](float(a[idx]), float(b[idx]))
            assert ta[idx] == PY_TIMES[kind](float(a[idx]), float(b[idx]))
        red = sr.plus_reduce(a, axis=1)
        for i in range(a.shape[0]):
            acc = reduce(PY_PLUS[kind], a[i].tolist())
            assert red[i] == pytest.approx(acc, rel=1e-15, abs=0.0)


def test_path_times_keeps_absent_absent():
    mp = get_semiring(MAX_PRODUCT)
    a = np.array([float("-inf"), 2.0, float("-inf"), 0.0])
    b = np.array([0.0, float("-inf"), float("-inf"), 3.0])
    out = mp.path_times_arrays(a, b)
    assert np.isneginf(out[:3]).all()
    assert out[3] == 0.0
    # other kinds defer to the plain product/sum
    ms = get_semiring(MAX_SUM)
    assert ms.path_times_arrays(np.float64(1.0), np.float64(2.0)) == 3.0


def test_finalize_scores_maps_absent_to_declared_zero():
    mp = get_semiring(MAX_PRODUCT)
    x = np.array([float("-inf"), -2.0, 0.5])
    out = mp.finalize_scores(x)
    assert out.tolist() == [0.0, -2.0, 0.5]
    for kind in (MAX_SUM, SUM_PRODUCT):
        sr = get_semiring(kind)
        y = np.array([float("-inf"), 1.0])
        assert sr.finalize_scores(y) is y


def test_dual_times_tracks_both_extremes_exactly():
    mp = get_semiring(MAX_PRODUCT)
    rng = np.random.default_rng(11)
    for _ in range(1000):
        k = int(rng.integers(1, 6))
        products = rng.normal(0.0, 3.0, size=k)
        factor = float(rng.normal(0.0, 3.0))
        amax = np.float64(products.max())
        aneg = np.float64(-products.min())
        pm, pn = mp.dual_times_arrays(amax, aneg, np.float64(factor))
        extended = products * factor
        assert pm == extended.max()
        assert pn == -extended.min()


def test_dual_times_absent_handling():
    mp = get_semiring(MAX_PRODUCT)
    ninf = float("-inf")
    pm, pn = mp.dual_times_arrays(np.float64(ninf), np.float64(ninf), np.float64(2.0))
    assert np.isneginf(pm) and np.isneginf(pn)
    pm, pn = mp.dual_times_arrays(np.float64(3.0), np.float64(-3.0), np.float64(ninf))
    assert np.isneginf(pm) and np.isneginf(pn)
    # zero factors collapse both extremes without producing NaN
    pm, pn = mp.dual_times_arrays(np.float64(3.0), np.float64(2.0), np.float64(0.0))
    assert pm == 0.0 and pn == 0.0


def test_dual_times_rejected_outside_max_product():
    for kind in (MAX_SUM, SUM_PRODUCT):
        with pytest.raises(ValueError):
            get_semiring(kind).dual_times_arrays(np.float64(1.0), np.float64(1.0),
                                                 np.float64(1.0))


def test_counting_wrapper_counts_and_delegates():
    base = get_semiring(MAX_PRODUCT)
    sr = CountingSemiring(base)
    a = np.ones((2, 3))
    b = np.full((2, 3), 0.5)
    out = sr.plus_arrays(a, b)
    assert np.array_equal(out, base.plus_arrays(a, b))
    assert sr.plus_count == 6
    sr.plus_reduce(np.ones((2, 5)), axis=1)
    assert sr.plus_count == 6 + 2 * 4
    assert np.array_equal(sr.path_times_arrays(a, b), base.path_times_arrays(a, b))
    assert sr.times_count == 6
    sr.dual_times_arrays(a, -a, b)
    assert sr.times_count == 6 + 2 * 6
    # finalize_scores is the base's, and is not a counted operation
    x = np.array([float("-inf"), 0.5])
    assert np.array_equal(sr.finalize_scores(x), base.finalize_scores(x))
    assert sr.total == 6 + 2 * 4 + 6 + 2 * 6
    assert sr.total == sr.plus_count + sr.times_count
    sr.reset()
    assert sr.total == 0
    # scalar broadcast counts the broadcast size
    sr.plus_arrays(np.ones(4), 1.0)
    assert sr.plus_count == 4


def test_counting_wrapper_mirrors_base_attributes():
    for kind in KINDS:
        base = get_semiring(kind)
        sr = CountingSemiring(base)
        assert (sr.kind, sr.zero, sr.one) == (base.kind, base.zero, base.one)
        assert sr.idempotent_plus == base.idempotent_plus
        assert sr.times_is_addition == base.times_is_addition
        assert sr.absent == base.absent
