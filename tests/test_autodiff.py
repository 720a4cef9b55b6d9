"""Tape operations against finite differences, plus Adam and the FD harness;
the pattern layer's projection and scan, called directly, in the engine's
(n,W,B,k) grid layout."""

import numpy as np
import pytest

from sopa.autodiff import (Adam, Param, Tape, finite_difference_check, project,
                           scan_backward, scan_forward, stable_sigmoid)
from sopa.semiring import get_semiring


def fd_max_err(loss, params, max_checks=None):
    """The worst relative error of loss's gradient against finite
    differences.  loss(grad) returns the loss as a float and, when grad is
    set, adds its gradient to each Param's grad."""
    for p in params:
        p.zero_grad()
    loss(True)
    report = finite_difference_check(lambda: loss(False), params, max_checks=max_checks)
    return report.max_rel_error


def masked_sigmoid(x):
    # the two-branch formula stable_sigmoid replaced; its bits are the contract
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_stable_sigmoid_matches_and_saturates():
    x = np.linspace(-20, 20, 101)
    assert np.allclose(stable_sigmoid(x), 1.0 / (1.0 + np.exp(-x)), atol=1e-15)
    assert stable_sigmoid(np.array([-1000.0]))[0] == 0.0
    assert stable_sigmoid(np.array([1000.0]))[0] == 1.0
    assert not np.isnan(stable_sigmoid(np.array([-745.0, 745.0]))).any()
    tiny = np.finfo(np.float64).smallest_subnormal
    edges = np.array([0.0, -0.0, 745.0, -745.0, 1000.0, -1000.0, tiny, -tiny, 1e-310,
                      -1e-310, np.nan, -np.nan, np.inf, -np.inf])
    wide = np.random.default_rng(0).normal(scale=30.0, size=(50, 6, 5))
    # ±0, ±inf, ±NaN, and values whose exp(-|x|) is tiny, subnormal or zero
    signed = np.array([0.0, np.inf, np.nan, 700.0, 745.0, 1e-300, tiny])
    for x in (edges, np.linspace(-40, 40, 1001), wide, np.concatenate([signed, -signed])):
        # bitwise, so 0.0 and -0.0 and the sign of a NaN count
        assert stable_sigmoid(x).tobytes() == masked_sigmoid(x).tobytes()


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


def test_pattern_affine_gradients():
    rng = np.random.default_rng(3)
    vectors = rng.normal(size=(7, 3))
    index = np.array([[0, 1, 2, 3, 4], [5, 6, 1, 1, 0]])  # some rows repeat
    lengths = (2, 1, 3, 2)
    w = Param("w", rng.normal(size=(8, 3)))
    b = Param("b", rng.normal(size=8))

    for encoder in ("sigmoid", "identity"):
        def loss(grad):
            # the sum of the squared grid cells
            grid, backward = Tape.pattern_affine(vectors, index, w.value, b.value, encoder,
                                                 lengths, 0.0)
            if grad:
                g_w, g_b = backward(2.0 * grid)
                w.grad += g_w
                b.grad += g_b
            return float(np.sum(grid * grid))

        assert fd_max_err(loss, [w, b], max_checks=40) < 1e-8


def test_pattern_affine_value_matches_loop():
    rng = np.random.default_rng(4)
    vectors = rng.normal(size=(6, 4))
    index = np.arange(6).reshape(2, 3)
    lengths = (2, 3, 1)
    w = rng.normal(size=(6, 4))
    b = rng.normal(size=6)
    out, _ = Tape.pattern_affine(vectors, index, w, b, "identity", lengths, -np.inf)
    # right-aligned: pattern p's slot j sits at column 3 - L_p + j
    expect = np.full((3, 3, 2, 3), -np.inf)
    slot = 0
    for p, length in enumerate(lengths):
        for j in range(length):
            expect[:, 3 - length + j, :, p] = vectors[index.T] @ w[slot] + b[slot]
            slot += 1
    assert np.array_equal(np.isneginf(out), np.isneginf(expect))
    assert np.allclose(out, expect, atol=1e-12)


def scan_loss(sr, mp, sl=None, eps=None, valid=None, encoder="sigmoid", grad=False):
    """Sum of a pattern scan's document scores, from Params: sl and mp hold
    (n,W,B,k) transition scores, eps epsilon pre-activations, None for a
    disabled family.  With grad, adds the sum's gradient to each one's grad."""
    n, length, bsz, count = mp.value.shape
    if valid is None:
        valid = np.ones((bsz, n), dtype=bool)
    lengths = [length] * count
    params = (sl, mp, eps)
    run = scan_forward(sr, *(None if p is None else p.value for p in params), encoder, valid,
                       grad, lengths)
    if grad:
        grads = scan_backward(sr, run, np.ones(run.scores.shape), valid, encoder, lengths,
                              sl is not None, eps is not None)
        for p, g in zip(params, grads):
            if p is not None:
                p.grad += g
    return float(np.sum(run.scores))


def as_grid(draw):
    """A (B,n,k,W) draw laid out as the scan's (n,W,B,k) grid."""
    return np.ascontiguousarray(draw.transpose(1, 3, 0, 2))


def lane(table):
    """One document's (n,W) scores for one pattern as an (n,W,1,1) grid."""
    return np.array(table, dtype=float)[:, :, None, None]


@pytest.mark.parametrize("kind", ["max-product", "max-sum", "sum-product"])
def test_semiring_times_and_plus_gradients(kind):
    # every product and sum of the recurrence, through the scan's backward,
    # and the sigmoid encoder's derivative for the epsilons
    sr = get_semiring(kind)
    rng = np.random.default_rng(5)
    sl = Param("sl", as_grid(stable_sigmoid(rng.normal(size=(2, 4, 2, 3)))))
    mp = Param("mp", as_grid(stable_sigmoid(rng.normal(size=(2, 4, 2, 3)))))
    eps = Param("eps", rng.normal(size=6))
    valid = np.array([[True] * 4, [True, True, False, False]])

    def loss(grad):
        return scan_loss(sr, mp, sl, eps, valid, grad=grad)

    assert fd_max_err(loss, [sl, mp, eps]) < 1e-7


def test_semiring_times_dual_gradients():
    sr = get_semiring("max-product")
    rng = np.random.default_rng(6)
    # unencoded mixed-sign scores exercise both selection branches of the
    # (max, negated min) pair
    sl = Param("sl", as_grid(rng.normal(0.0, 2.0, size=(3, 5, 2, 3))))
    mp = Param("mp", as_grid(rng.normal(0.0, 2.0, size=(3, 5, 2, 3))))
    eps = Param("eps", rng.normal(0.0, 2.0, size=6))
    assert (sl.value < 0).any() and (mp.value < 0).any()

    def loss(grad):
        return scan_loss(sr, mp, sl, eps, encoder="identity", grad=grad)

    assert fd_max_err(loss, [sl, mp, eps]) < 1e-7


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
    mp = Param("mp", lane([[1.0, 1.0]]))
    eps = Param("eps", np.array([0.0, 0.0]))
    assert scan_loss(sr, mp, eps=eps, encoder="identity", grad=True) == 1.0
    assert mp.grad[..., 0, 0].tolist() == [[0.0, 1.0]]
    assert eps.grad.tolist() == [1.0, 0.0]
    # two tokens through a length-1 pattern: a zero self-loop on token 1
    # keeps the start state's score, tying with a fresh start before token 2
    sl = Param("sl", lane([[0.0], [0.0]]))
    mp = Param("mp", lane([[-5.0], [1.0]]))
    assert scan_loss(sr, mp, sl=sl, encoder="identity", grad=True) == 1.0
    assert sl.grad[..., 0, 0].tolist() == [[1.0], [0.0]]
    assert mp.grad[..., 0, 0].tolist() == [[0.0], [1.0]]
    # three tokens through a length-2 pattern: on token 2, a main step into
    # state 1 ties a self-loop that stays there
    sl = Param("sl", lane([[0.0, -9.0], [-9.0, 0.0], [-9.0, -9.0]]))
    mp = Param("mp", lane([[0.0, -9.0], [0.0, -9.0], [-9.0, 0.0]]))
    assert scan_loss(sr, mp, sl=sl, encoder="identity", grad=True) == 0.0
    assert sl.grad[..., 0, 0].tolist() == [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    assert mp.grad[..., 0, 0].tolist() == [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]


def test_semiring_reduce_max_routes_to_first_argmax():
    # three tokens through a length-1 pattern: the scan's reduce over end
    # positions sends the document score's adjoint to the first of the tied
    # best end positions under the max semirings, to every position under
    # sum-product
    mp = lane([[1.0], [3.0], [3.0]])
    valid = np.ones((1, 3), dtype=bool)
    for kind, expect in (("max-product", [0.0, 1.0, 0.0]), ("max-sum", [0.0, 1.0, 0.0]),
                         ("sum-product", [1.0, 1.0, 1.0])):
        sr = get_semiring(kind)
        run = scan_forward(sr, None, mp, None, "identity", valid, True, [1])
        tokens = sr.finalize_scores(run.ends)
        assert isinstance(tokens, np.ndarray) and tokens.tolist() == [[[1.0], [3.0], [3.0]]]
        assert run.scores.tolist() == [[7.0 if kind == "sum-product" else 3.0]]
        _, g_mp, _ = scan_backward(sr, run, np.ones((1, 1)), valid, "identity", [1], False,
                                   False)
        assert g_mp.reshape(-1).tolist() == expect, kind


def test_finalize_scores_gradients_and_shortcut():
    # the scan finalizes its document scores: two tokens through two length-1
    # patterns, the second with no path; mp is (n,W,B,k)
    mp = np.array([[[[0.5, -np.inf]]], [[[2.0, -np.inf]]]])
    valid = np.ones((1, 2), dtype=bool)

    def scan(kind):
        sr = get_semiring(kind)
        run = scan_forward(sr, None, mp, None, "identity", valid, True, [1, 1])
        _, g_mp, _ = scan_backward(sr, run, np.ones((1, 2)), valid, "identity", [1, 1],
                                   False, False)
        return run.scores, sr.finalize_scores(run.ends), g_mp

    # max-product maps the lane to its declared zero 0.0, and the lane passes
    # no adjoint
    z, tokens, g_mp = scan("max-product")
    assert z.tolist() == [[2.0, 0.0]]
    assert tokens.tolist() == [[[0.5, 0.0], [2.0, 0.0]]]
    assert g_mp.reshape(2, 2).tolist() == [[0.0, 0.0], [1.0, 0.0]]
    # max-sum's declared zero is its absent marker -inf, so nothing is
    # finalized or masked: the adjoint reaches the lane's first end position
    z, tokens, g_mp = scan("max-sum")
    assert z.tolist() == [[2.0, -np.inf]]
    assert np.isneginf(tokens[..., 1]).all()
    assert g_mp.reshape(2, 2).tolist() == [[0.0, 1.0], [1.0, 0.0]]


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
