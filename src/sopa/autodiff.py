"""Define-by-run reverse-mode differentiation over float64 numpy arrays.

A Tape records operations in execution order, which is already a
topological order, so the backward pass is a single reverse sweep that visits
each node exactly once.  Its generic ops serve the MLP head; a pattern bank's
layer is one node whose backward is the engine's (sopa.engine).  Also
provides the Adam optimizer and a central-finite-difference gradient checker.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from sopa.engine import pattern_affine


class Param:
    """A named trainable array with an accumulated gradient."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value):
        self.name = name
        self.value = np.array(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    @property
    def size(self) -> int:
        return self.value.size

    def zero_grad(self):
        self.grad[...] = 0.0

    def __repr__(self):
        return f"Param({self.name!r}, shape={self.value.shape})"


class Node:
    """One recorded value; grad stays None until the backward sweep reaches it.
    It holds no reference to its tape, so a tape and its nodes form no cycle."""

    __slots__ = ("value", "grad", "_bw")

    def __init__(self, value):
        self.value = value
        self.grad = None
        self._bw = None

    @property
    def shape(self):
        return np.shape(self.value)


def _accumulate(node: Node, g):
    """Add adjoint g to node.grad."""
    if node.grad is None:
        node.grad = np.array(g, dtype=np.float64)
    else:
        node.grad += g


class Tape:
    """Records forward operations; replayed backwards for gradients."""

    def __init__(self, grad: bool = True):
        self.grad_enabled = grad
        self._nodes: list[Node] = []
        self._swept = False

    def op(self, value, bw) -> Node:
        """A node of value with backward bw(g), recorded on a grad tape."""
        node = Node(value)
        if self.grad_enabled:
            node._bw = bw
            self._nodes.append(node)
        return node

    # -- leaves --------------------------------------------------------------

    def const(self, value) -> Node:
        return Node(np.asarray(value, dtype=np.float64))

    def leaf(self, param: Param) -> Node:
        return self.op(param.value, bw=lambda g, p=param: np.add(p.grad, g, out=p.grad))

    # -- arithmetic ------------------------------------------------------------

    def mul(self, a: Node, b: Node) -> Node:
        """Elementwise product of two operands of one shape."""
        av, bv = a.value, b.value
        if np.shape(av) != np.shape(bv):
            raise ValueError(f"mul operands differ in shape: {np.shape(av)} and {np.shape(bv)}")
        def bw(g):
            _accumulate(a, g * bv)
            _accumulate(b, g * av)
        return self.op(av * bv, bw)

    def matmul(self, a: Node, b: Node) -> Node:
        av, bv = a.value, b.value
        def bw(g):
            _accumulate(a, g @ bv.T)
            _accumulate(b, av.T @ g)
        return self.op(av @ bv, bw)

    def add_bias(self, x: Node, bias: Node) -> Node:
        def bw(g):
            _accumulate(x, g)
            _accumulate(bias, g.sum(axis=0) if g.ndim > bias.value.ndim else g)
        return self.op(x.value + bias.value, bw)

    def relu(self, x: Node) -> Node:
        mask = x.value > 0.0
        def bw(g):
            _accumulate(x, g * mask)
        return self.op(np.where(mask, x.value, 0.0), bw)

    # the engine's projection, under the name the benchmark's tracer wraps
    pattern_affine = staticmethod(pattern_affine)

    # -- loss ------------------------------------------------------------

    def cross_entropy(self, logits: Node, labels: np.ndarray) -> Node:
        """Mean negative log-likelihood of integer labels under softmax(logits)."""
        lv = logits.value
        bsz = lv.shape[0]
        shifted = lv - lv.max(axis=1, keepdims=True)
        logz = np.log(np.exp(shifted).sum(axis=1))
        nll = logz - shifted[np.arange(bsz), labels]
        def bw(g):
            probs = np.exp(shifted - logz[:, None])
            probs[np.arange(bsz), labels] -= 1.0
            _accumulate(logits, (g / bsz) * probs)
        return self.op(float(nll.mean()), bw)

    # -- backward ------------------------------------------------------------

    def backward(self, loss: Node):
        """Add d(loss)/d(param) to every Param leaf's grad.  Each node's adjoint
        and closure are dropped once its backward has run, so the sweep holds
        only pending adjoints, and a tape is swept once."""
        if not self.grad_enabled:
            raise RuntimeError("backward on a gradient-disabled tape")
        if not self._nodes:
            raise RuntimeError("backward before any forward operation was recorded")
        if loss not in self._nodes:
            raise RuntimeError("loss node does not belong to this tape")
        if self._swept:
            raise RuntimeError("backward already ran on this tape")
        self._swept = True
        loss.grad = np.ones_like(loss.value, dtype=np.float64)
        for node in reversed(self._nodes):
            if node.grad is not None:
                node._bw(node.grad)
            node.grad = node._bw = None


class Adam:
    """Adam with bias correction, applied in place to registered Params."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8  # Kingma and Ba's defaults

    def __init__(self, params: list[Param], lr: float):
        self.params = list(params)
        self.lr = lr
        self.step_count = 0
        self._m = [np.zeros_like(p.value) for p in self.params]
        self._v = [np.zeros_like(p.value) for p in self.params]

    @property
    def registered_scalars(self) -> int:
        return sum(p.size for p in self.params)

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.beta1, self.beta2
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            if np.isnan(g).any():
                raise FloatingPointError(f"NaN gradient for parameter {p.name!r}")
            m[...] = b1 * m + (1.0 - b1) * g
            v[...] = b2 * v + (1.0 - b2) * (g * g)
            m_hat = m / (1.0 - b1 ** t)
            v_hat = v / (1.0 - b2 ** t)
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


@dataclass
class FiniteDifferenceEntry:
    param: str
    index: tuple
    analytic: float
    numeric: float
    rel_error: float


@dataclass
class FiniteDifferenceReport:
    max_rel_error: float
    checked: int
    worst: list[FiniteDifferenceEntry] = field(default_factory=list)


def _rel_error(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def finite_difference_check(
    loss_fn, params: list[Param], *, worst: int = 10, max_checks: int | None = None,
) -> FiniteDifferenceReport:
    """Compare Param.grad against central finite differences of loss_fn.

    loss_fn() must recompute the loss from current Param values.  Call after
    a backward pass has filled the gradients.  max_checks caps the number of
    scalars probed for large models; the probes are spread evenly over the
    concatenation of all Params, so they do not depend on how the scalars
    are split into Params.
    """
    step = 1e-5
    sizes = [p.size for p in params]
    total = sum(sizes)
    take = total if max_checks is None else min(max_checks, total)
    ends = np.cumsum(sizes)
    entries: list[FiniteDifferenceEntry] = []
    for pos in np.arange(take) * total // max(take, 1):
        which = int(np.searchsorted(ends, pos, side="right"))
        p = params[which]
        i = int(pos - ends[which]) + p.size
        flat = p.value.reshape(-1)
        orig = flat[i]
        flat[i] = orig + step
        up = loss_fn()
        flat[i] = orig - step
        down = loss_fn()
        flat[i] = orig
        numeric = (up - down) / (2.0 * step)
        analytic = float(p.grad.reshape(-1)[i])
        entries.append(FiniteDifferenceEntry(
            param=p.name,
            index=np.unravel_index(i, p.value.shape),
            analytic=analytic,
            numeric=numeric,
            rel_error=_rel_error(analytic, numeric),
        ))
    entries.sort(key=lambda entry: entry.rel_error, reverse=True)
    max_err = entries[0].rel_error if entries else 0.0
    return FiniteDifferenceReport(max_rel_error=max_err, checked=len(entries),
                                  worst=entries[:worst])
