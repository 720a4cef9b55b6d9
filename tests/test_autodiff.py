"""Tape operations against finite differences, plus Adam and the FD harness."""

import numpy as np
import pytest

from _tape import fd_max_err
from sopa.autodiff import Adam, Param, Tape, finite_difference_check


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

    def loss(grad):
        tape = Tape(grad=grad)
        leaf = tape.leaf(a)
        x = tape.mul(leaf, leaf)
        h = tape.relu(tape.add_bias(tape.matmul(x, tape.leaf(w)), tape.leaf(b)))
        out = tape.cross_entropy(h, labels)
        if grad:
            tape.backward(out)
        return float(out.value)

    assert fd_max_err(loss, [a, w, b]) < 1e-7


def test_mul_rejects_operands_of_unequal_shape():
    tape = Tape(grad=True)
    a = tape.leaf(Param("a", np.ones((3, 4))))
    with pytest.raises(ValueError, match=r"differ in shape: \(3, 4\) and \(1, 4\)"):
        tape.mul(a, tape.const(np.ones((1, 4))))


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
