"""Semiring operation tables, algebraic laws, and the counting wrapper."""

import numpy as np
import pytest

from sopa.semiring import (CountingSemiring, get_semiring,
                           MAX_PRODUCT, MAX_SUM, SUM_PRODUCT, KINDS)


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
    assert mp.plus(0.3, 0.7) == 0.7
    assert mp.times(0.5, 0.4) == 0.2
    assert ms.plus(-1.0, 2.5) == 2.5
    assert ms.times(-1.0, 2.5) == 1.5
    assert sp.plus(0.3, 0.7) == 1.0
    assert sp.times(0.5, 0.4) == 0.2


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown semiring"):
        get_semiring("min-plus")


def test_nan_operands_rejected():
    for kind in KINDS:
        sr = get_semiring(kind)
        with pytest.raises(ValueError):
            sr.plus(float("nan"), 1.0)
        with pytest.raises(ValueError):
            sr.times(1.0, float("nan"))


def test_one_is_times_identity_exactly():
    rng = np.random.default_rng(3)
    values = rng.normal(0.0, 5.0, size=1000)
    for kind in KINDS:
        sr = get_semiring(kind)
        for v in values:
            assert sr.times(sr.one, float(v)) == v
            assert sr.times(float(v), sr.one) == v


def test_zero_absorbs_times():
    rng = np.random.default_rng(4)
    for kind in KINDS:
        sr = get_semiring(kind)
        for v in rng.normal(0.0, 5.0, size=200):
            assert sr.times(sr.zero, float(v)) == sr.zero


def test_plus_zero_identity_on_valid_scores():
    # max-product scores are magnitudes (>= 0) wherever its declared zero acts
    # as the additive identity; max-sum and sum-product hold for all reals
    rng = np.random.default_rng(5)
    mp = get_semiring(MAX_PRODUCT)
    for v in rng.uniform(0.0, 10.0, size=200):
        assert mp.plus(mp.zero, float(v)) == v
    for kind in (MAX_SUM, SUM_PRODUCT):
        sr = get_semiring(kind)
        for v in rng.normal(0.0, 5.0, size=200):
            assert sr.plus(sr.zero, float(v)) == v


def test_plus_commutes_and_associates_exactly_for_max_kinds():
    rng = np.random.default_rng(6)
    triples = rng.normal(0.0, 3.0, size=(1000, 3))
    for kind in (MAX_PRODUCT, MAX_SUM):
        sr = get_semiring(kind)
        for a, b, c in triples:
            assert sr.plus(a, b) == sr.plus(b, a)
            assert sr.plus(sr.plus(a, b), c) == sr.plus(a, sr.plus(b, c))
            assert sr.plus(a, a) == a  # idempotent


def test_times_commutes_exactly():
    rng = np.random.default_rng(7)
    pairs = rng.normal(0.0, 3.0, size=(1000, 2))
    for kind in KINDS:
        sr = get_semiring(kind)
        for a, b in pairs:
            assert sr.times(a, b) == sr.times(b, a)


def test_times_associates_to_rounding():
    rng = np.random.default_rng(8)
    triples = rng.normal(0.0, 3.0, size=(1000, 3))
    for kind in KINDS:
        sr = get_semiring(kind)
        for a, b, c in triples:
            left = sr.times(sr.times(a, b), c)
            right = sr.times(a, sr.times(b, c))
            assert left == pytest.approx(right, rel=1e-12, abs=1e-12)


def test_distributivity():
    rng = np.random.default_rng(9)
    # max-sum: addition is monotone, so times distributes over max exactly
    ms = get_semiring(MAX_SUM)
    for a, b, c in rng.normal(0.0, 3.0, size=(1000, 3)):
        assert ms.times(a, ms.plus(b, c)) == ms.plus(ms.times(a, b), ms.times(a, c))
    # max-product distributes only for nonnegative factors
    mp = get_semiring(MAX_PRODUCT)
    for a, b, c in rng.uniform(0.0, 3.0, size=(1000, 3)):
        assert mp.times(a, mp.plus(b, c)) == mp.plus(mp.times(a, b), mp.times(a, c))
    # sum-product distributes up to rounding
    sp = get_semiring(SUM_PRODUCT)
    for a, b, c in rng.normal(0.0, 3.0, size=(200, 3)):
        lhs = sp.times(a, sp.plus(b, c))
        rhs = sp.plus(sp.times(a, b), sp.times(a, c))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_max_product_negative_factor_breaks_distributivity():
    # the counterexample that forces dual (max, -min) tracking
    mp = get_semiring(MAX_PRODUCT)
    a, b, c = -2.0, 1.0, 3.0
    assert mp.times(a, mp.plus(b, c)) == -6.0
    assert mp.plus(mp.times(a, b), mp.times(a, c)) == -2.0


def test_array_ops_match_scalar_ops():
    rng = np.random.default_rng(10)
    a = rng.normal(size=(4, 5))
    b = rng.normal(size=(4, 5))
    for kind in KINDS:
        sr = get_semiring(kind)
        pa = sr.plus_arrays(a, b)
        ta = sr.times_arrays(a, b)
        for idx in np.ndindex(a.shape):
            assert pa[idx] == sr.plus(float(a[idx]), float(b[idx]))
            assert ta[idx] == sr.times(float(a[idx]), float(b[idx]))
        red = sr.plus_reduce(a, axis=1)
        for i in range(a.shape[0]):
            acc = float(a[i, 0])
            for j in range(1, a.shape[1]):
                acc = sr.plus(acc, float(a[i, j]))
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
    sr.times_arrays(a, b)
    assert sr.times_count == 6
    sr.plus_reduce(np.ones((2, 5)), axis=1)
    assert sr.plus_count == 6 + 2 * 4
    sr.path_times_arrays(a, b)
    assert sr.times_count == 12
    sr.dual_times_arrays(a, -a, b)
    assert sr.times_count == 12 + 2 * 6
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
