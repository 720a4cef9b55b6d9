"""Tape operations against finite differences, plus Adam and the FD harness."""

import numpy as np
import pytest

from sopa.autodiff import (Adam, Param, Tape, finite_difference_check, project,
                           stable_sigmoid)
from sopa.semiring import get_semiring


def fd_max_err(build_loss, params, max_checks=None):
    """Backward pass then finite-difference comparison; returns worst rel error."""
    tape = Tape(grad=True)
    loss = build_loss(tape)
    for p in params:
        p.zero_grad()
    tape.backward(loss)
    report = finite_difference_check(lambda: float(build_loss(Tape(grad=False)).value),
                                     params, max_checks=max_checks)
    return report.max_rel_error


def scalarize(tape, node):
    """Sum-reduce any node to a scalar loss via sum-product reductions."""
    sp = get_semiring("sum-product")
    out = node
    for _ in range(len(node.shape)):
        out = tape.semiring_reduce(sp, out, axis=0)
    return out


def test_stable_sigmoid_matches_and_saturates():
    x = np.linspace(-20, 20, 101)
    assert np.allclose(stable_sigmoid(x), 1.0 / (1.0 + np.exp(-x)), atol=1e-15)
    assert stable_sigmoid(np.array([-1000.0]))[0] == 0.0
    assert stable_sigmoid(np.array([1000.0]))[0] == 1.0
    assert not np.isnan(stable_sigmoid(np.array([-745.0, 745.0]))).any()


def test_project_matches_einsum():
    rng = np.random.default_rng(0)
    v = rng.normal(size=(7, 4))
    m = rng.normal(size=(3, 2, 4))
    b = rng.normal(size=(3, 2))
    out = project(v, m, b, "identity")
    assert out.shape == (7, 3, 2)
    assert np.allclose(out, np.einsum("ne,cle->ncl", v, m) + b, atol=1e-14)
    # its reduction order is deterministic, so repeated calls agree bitwise
    assert np.array_equal(out, project(v, m, b, "identity"))
    # and a row's scores do not depend on the rows projected with it
    for i in range(len(v)):
        assert np.array_equal(out[i:i + 1], project(v[i:i + 1], m, b, "identity"))
    assert np.array_equal(project(v, m, b, "sigmoid"), stable_sigmoid(out))


def test_param_basics():
    p = Param("x", np.ones((2, 3)))
    assert p.size == 6
    p.grad += 2.0
    p.zero_grad()
    assert not p.grad.any()


def test_leaf_cache_never_confuses_freed_params():
    # each leaf holds its own Param's value, even where a freed Param's id is reused
    for grad in (True, False):
        tape = Tape(grad=grad)
        shapes = [tape.leaf(Param(f"p{i}", np.zeros(i + 1))).shape for i in range(20)]
        assert shapes == [(i + 1,) for i in range(20)]


def test_composite_graph_gradients():
    rng = np.random.default_rng(1)
    a = Param("a", rng.normal(size=(3, 4)))
    w = Param("w", rng.normal(size=(4, 2)))
    b = Param("b", rng.normal(size=2))
    labels = np.array([0, 1, 1])

    def build(tape):
        x = tape.sigmoid(tape.leaf(a))
        h = tape.relu(tape.add_bias(tape.matmul(x, tape.leaf(w)), tape.leaf(b)))
        return tape.cross_entropy(h, labels)

    assert fd_max_err(build, [a, w, b]) < 1e-7


def test_mul_rejects_operands_of_unequal_shape():
    tape = Tape(grad=True)
    a = tape.leaf(Param("a", np.ones((3, 4))))
    with pytest.raises(ValueError, match=r"differ in shape: \(3, 4\) and \(1, 4\)"):
        tape.mul(a, tape.const(np.ones((1, 4))))


def test_pattern_affine_gradients():
    rng = np.random.default_rng(3)
    vectors = rng.normal(size=(7, 3))
    index = np.array([[0, 1, 2, 3, 4], [5, 6, 1, 1, 0]])  # some rows repeat
    lengths = (2, 1, 3, 2)
    w = Param("w", rng.normal(size=(8, 3)))
    b = Param("b", rng.normal(size=8))

    for encoder in ("sigmoid", "identity"):
        def build(tape):
            out = tape.pattern_affine(vectors, index, tape.leaf(w), tape.leaf(b), encoder,
                                      lengths, 0.0)
            return scalarize(tape, tape.sigmoid(out))

        assert fd_max_err(build, [w, b], max_checks=40) < 1e-8


def test_pattern_affine_value_matches_loop():
    rng = np.random.default_rng(4)
    vectors = rng.normal(size=(6, 4))
    index = np.arange(6).reshape(2, 3)
    lengths = (2, 3, 1)
    w = rng.normal(size=(6, 4))
    b = rng.normal(size=6)
    tape = Tape(grad=False)
    out = tape.pattern_affine(vectors, index, tape.const(w), tape.const(b), "identity",
                              lengths, -np.inf).value
    # right-aligned: pattern p's slot j sits at column 3 - L_p + j
    expect = np.full((2, 3, 3, 3), -np.inf)
    slot = 0
    for p, length in enumerate(lengths):
        for j in range(length):
            expect[:, :, p, 3 - length + j] = vectors[index] @ w[slot] + b[slot]
            slot += 1
    assert np.array_equal(np.isneginf(out), np.isneginf(expect))
    assert np.allclose(out, expect, atol=1e-12)


def scan_loss(tape, sr, mp, sl=None, eps=None, valid=None, encode=True):
    """Sum of a pattern scan's end scores, fed from Param leaves."""
    def node(p):
        if p is None:
            return None
        leaf = tape.leaf(p)
        return tape.sigmoid(leaf) if encode else leaf
    bsz, n, count, length = mp.value.shape
    if valid is None:
        valid = np.ones((bsz, n), dtype=bool)
    ends = tape.pattern_scan(sr, node(sl), node(mp), node(eps), valid, [length] * count)
    return scalarize(tape, tape.semiring_reduce(sr, ends, axis=1))


@pytest.mark.parametrize("kind", ["max-product", "max-sum", "sum-product"])
def test_semiring_times_and_plus_gradients(kind):
    # every product and sum of the recurrence, through the scan's backward
    sr = get_semiring(kind)
    rng = np.random.default_rng(5)
    sl = Param("sl", rng.normal(size=(2, 4, 2, 3)))
    mp = Param("mp", rng.normal(size=(2, 4, 2, 3)))
    eps = Param("eps", rng.normal(size=6))
    valid = np.array([[True] * 4, [True, True, False, False]])

    def build(tape):
        return scan_loss(tape, sr, mp, sl, eps, valid)

    assert fd_max_err(build, [sl, mp, eps]) < 1e-7


def test_semiring_times_dual_gradients():
    sr = get_semiring("max-product")
    rng = np.random.default_rng(6)
    # unencoded mixed-sign scores exercise both selection branches of the
    # (max, negated min) pair
    sl = Param("sl", rng.normal(0.0, 2.0, size=(3, 5, 2, 3)))
    mp = Param("mp", rng.normal(0.0, 2.0, size=(3, 5, 2, 3)))
    eps = Param("eps", rng.normal(0.0, 2.0, size=6))
    assert (sl.value < 0).any() and (mp.value < 0).any()

    def build(tape):
        return scan_loss(tape, sr, mp, sl, eps, encode=False)

    assert fd_max_err(build, [sl, mp, eps]) < 1e-7


def test_semiring_times_dual_values_and_absent():
    sr = get_semiring("max-product")
    amax = np.array([2.0, 3.0, float("-inf")])
    aneg = np.array([-1.0, -2.0, float("-inf")])
    vmax, vneg = sr.dual_times_arrays(amax, aneg, np.array([2.0, -2.0, 5.0]))
    # lane 0: set extremes (max 2, min 1) times 2 -> (4, -2 as negated min)
    # lane 1: extremes (max 3, min 2) times -2 -> max -4, min -6 (negated: 6)
    assert vmax.tolist()[:2] == [4.0, -4.0]
    assert vneg.tolist()[:2] == [-2.0, 6.0]
    assert np.isneginf(vmax[2]) and np.isneginf(vneg[2])


def test_semiring_plus_tie_routes_to_first_operand():
    # one token through a length-2 pattern: epsilon-then-main (the main
    # operand of the end state's sum) ties with main-then-epsilon (the
    # epsilon operand); the adjoint follows the first
    sr = get_semiring("max-sum")
    mp = Param("mp", np.array([[[[1.0, 1.0]]]]))
    eps = Param("eps", np.array([0.0, 0.0]))
    tape = Tape(grad=True)
    loss = scan_loss(tape, sr, mp, eps=eps, encode=False)
    assert float(loss.value) == 1.0
    mp.zero_grad()
    eps.zero_grad()
    tape.backward(loss)
    assert mp.grad.tolist() == [[[[0.0, 1.0]]]]
    assert eps.grad.tolist() == [1.0, 0.0]
    # two tokens through a length-1 pattern: a zero self-loop on token 1
    # keeps the start state's score, tying with a fresh start before token 2
    sl = Param("sl", np.array([[[[0.0]], [[0.0]]]]))
    mp = Param("mp", np.array([[[[-5.0]], [[1.0]]]]))
    tape = Tape(grad=True)
    loss = scan_loss(tape, sr, mp, sl=sl, encode=False)
    assert float(loss.value) == 1.0
    sl.zero_grad()
    mp.zero_grad()
    tape.backward(loss)
    assert sl.grad.tolist() == [[[[1.0]], [[0.0]]]]
    assert mp.grad.tolist() == [[[[0.0]], [[1.0]]]]
    # three tokens through a length-2 pattern: on token 2, a main step into
    # state 1 ties a self-loop that stays there
    sl = Param("sl", np.array([[[[0.0, -9.0]], [[-9.0, 0.0]], [[-9.0, -9.0]]]]))
    mp = Param("mp", np.array([[[[0.0, -9.0]], [[0.0, -9.0]], [[-9.0, 0.0]]]]))
    tape = Tape(grad=True)
    loss = scan_loss(tape, sr, mp, sl=sl, encode=False)
    assert float(loss.value) == 0.0
    sl.zero_grad()
    mp.zero_grad()
    tape.backward(loss)
    assert sl.grad.tolist() == [[[[1.0, 0.0]], [[0.0, 0.0]], [[0.0, 0.0]]]]
    assert mp.grad.tolist() == [[[[0.0, 0.0]], [[1.0, 0.0]], [[0.0, 1.0]]]]


def test_semiring_reduce_max_routes_to_first_argmax():
    sr = get_semiring("max-sum")
    x = Param("x", np.array([[1.0, 3.0, 3.0]]))
    tape = Tape(grad=True)
    out = tape.semiring_reduce(sr, tape.leaf(x), axis=1)
    x.zero_grad()
    tape.backward(scalarize(tape, out))
    assert x.grad.tolist() == [[0.0, 1.0, 0.0]]


def test_finalize_scores_gradients_and_shortcut():
    mp = get_semiring("max-product")
    x = Param("x", np.array([[0.5, 2.0]]))
    tape = Tape(grad=True)
    node = tape.leaf(x)
    out = tape.finalize_scores(mp, node)
    x.zero_grad()
    tape.backward(scalarize(tape, out))
    assert x.grad.tolist() == [[1.0, 1.0]]
    # -inf lanes produce the declared zero and pass no gradient
    y = Param("y", np.array([[float("-inf"), 2.0]]))
    tape = Tape(grad=True)
    out = tape.finalize_scores(mp, tape.leaf(y))
    assert out.value.tolist() == [[0.0, 2.0]]
    y.zero_grad()
    tape.backward(scalarize(tape, out))
    assert y.grad.tolist() == [[0.0, 1.0]]
    # kinds whose absent equals the declared zero return the node unchanged
    ms = get_semiring("max-sum")
    tape = Tape(grad=False)
    node = tape.const(np.array([1.0]))
    assert tape.finalize_scores(ms, node) is node


def test_cross_entropy_uniform_equals_log_classes():
    tape = Tape(grad=False)
    logits = tape.const(np.zeros((4, 3)))
    loss = tape.cross_entropy(logits, np.array([0, 1, 2, 0]))
    assert float(loss.value) == pytest.approx(np.log(3.0), rel=1e-12)


def test_square_at_three_has_derivative_six():
    x = Param("x", np.array(3.0))

    def build(tape):
        leaf = tape.leaf(x)
        return tape.mul(leaf, leaf)

    tape = Tape(grad=True)
    loss = build(tape)
    x.zero_grad()
    tape.backward(loss)
    assert float(x.grad) == 6.0
    report = finite_difference_check(lambda: float(build(Tape(grad=False)).value), [x])
    assert report.max_rel_error < 1e-9
    assert report.checked == 1
    assert report.worst[0].numeric == pytest.approx(6.0, abs=1e-8)


def test_backward_guards():
    tape = Tape(grad=False)
    node = tape.const(np.array(1.0))
    with pytest.raises(RuntimeError, match="gradient-disabled"):
        tape.backward(node)
    empty = Tape(grad=True)
    with pytest.raises(RuntimeError, match="before any forward"):
        empty.backward(node)
    other = Tape(grad=True)
    x = Param("x", np.array(1.0))
    other_loss = other.mul(other.leaf(x), other.leaf(x))
    foreign = Tape(grad=True)
    foreign.mul(foreign.leaf(x), foreign.leaf(x))
    with pytest.raises(RuntimeError, match="does not belong"):
        foreign.backward(other_loss)
    # a swept tape has dropped its adjoints and closures
    other.backward(other_loss)
    with pytest.raises(RuntimeError, match="already ran"):
        other.backward(other_loss)


def test_adam_first_step_is_signed_learning_rate():
    values = np.array([1.0, -2.0, 3.0])
    p = Param("p", values.copy())
    opt = Adam([p], lr=0.05)
    p.grad[...] = np.array([0.3, -0.7, 2.0])
    opt.step()
    # bias-corrected first step is lr * g / (|g| + eps) = lr * sign(g)
    expected = values - 0.05 * np.sign([0.3, -0.7, 2.0])
    assert np.allclose(p.value, expected, atol=1e-6)


def test_adam_zero_lr_and_zero_grad_are_inert():
    p = Param("p", np.array([1.0, 2.0]))
    opt = Adam([p], lr=0.0)
    p.grad[...] = 5.0
    opt.step()
    assert p.value.tolist() == [1.0, 2.0]
    q = Param("q", np.array([1.0, 2.0]))
    opt = Adam([q], lr=0.5)
    opt.zero_grad()
    opt.step()
    assert q.value.tolist() == [1.0, 2.0]  # m and v stay zero


def test_adam_rejects_nan_gradients():
    p = Param("bad", np.array([1.0]))
    opt = Adam([p], lr=0.1)
    p.grad[...] = np.nan
    with pytest.raises(FloatingPointError, match="bad"):
        opt.step()


def test_adam_registered_scalars():
    params = [Param("a", np.zeros((2, 3))), Param("b", np.zeros(4))]
    assert Adam(params, lr=0.1).registered_scalars == 10


def probed(params, max_checks):
    """Positions, in the concatenation of params, that finite_difference_check probes."""
    for p in params:
        p.zero_grad()
    report = finite_difference_check(lambda: 0.0, params, max_checks=max_checks,
                                     worst=10 ** 6)
    at, offset = {}, 0
    for p in params:
        at[p.name] = (offset, p.value.shape)
        offset += p.size
    return sorted(at[e.param][0] + int(np.ravel_multi_index(e.index, at[e.param][1]))
                  for e in report.worst)


def test_finite_difference_respects_max_checks():
    params = [Param("a", np.arange(10.0)), Param("b", np.arange(6.0))]
    assert len(probed(params, 4)) == 4
    assert len(probed(params[:1], 3)) == 3
    assert len(probed(params, 100)) == len(probed(params, None)) == 16
    assert probed(params, 0) == []
    # splitting one Param into two probes the same scalars
    whole = [Param("w", np.arange(24.0).reshape(4, 6)), Param("v", np.arange(5.0))]
    split = [Param("w0", np.arange(12.0).reshape(2, 6)),
             Param("w1", np.arange(12.0, 24.0).reshape(2, 6)), Param("v", np.arange(5.0))]
    for cap in (1, 3, 7, 10, 29, 40):
        assert probed(whole, cap) == probed(split, cap)
        assert len(probed(whole, cap)) == min(cap, 29)
