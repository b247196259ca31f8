"""Reverse-mode automatic differentiation over dense float64 tensors.

A ``Tape`` records every primitive application as a node (kind, input
node ids, output array, cached intermediates); ``backprop`` walks the
tape once in reverse and returns a gradient for every named parameter
leaf. Tapes are cheap, single-use, and never shared across threads.

The gradient of a table that reaches the loss only through ``embedding``
is a ``RowGrad``: the rows the instance looked up and their values, so
its cost follows the text length, not the vocabulary size.

Extension primitives (e.g. distribution sampling nodes) register a
backward rule with ``register_backward`` and append their own node with
``Tape.record``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from . import kernels, special

__all__ = [
    "Tape",
    "Var",
    "RowGrad",
    "ShapeError",
    "NonFiniteError",
    "accumulate",
    "backprop",
    "register_backward",
]


class ShapeError(ValueError):
    """Primitive inputs violate the primitive's shape rule."""


class NonFiniteError(FloatingPointError):
    """A primitive produced NaN or infinity."""


@dataclass
class Node:
    kind: str
    inputs: tuple[int, ...]
    value: np.ndarray
    aux: Any = None
    name: Optional[str] = None  # set only on parameter leaves


@dataclass
class Tape:
    nodes: list[Node] = field(default_factory=list)

    def _append(self, node: Node) -> "Var":
        self.nodes.append(node)
        return Var(self, len(self.nodes) - 1)

    def const(self, value) -> "Var":
        """Record a non-parameter leaf. No gradient is ever produced for it."""
        arr = np.asarray(value, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("const leaf contains non-finite values")
        return self._append(Node("const", (), arr))

    def param(self, value: np.ndarray, name: str) -> "Var":
        """Record a parameter leaf; backprop reports its gradient under ``name``."""
        arr = np.asarray(value, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError(f"parameter {name!r} contains non-finite values")
        return self._append(Node("param", (), arr, name=name))

    def record(self, kind: str, value: np.ndarray, inputs: tuple["Var", ...],
               aux: Any = None) -> "Var":
        """Record one primitive application. ``value`` is its precomputed output."""
        for v in inputs:
            if v._tape is not self:
                raise ValueError(f"input of {kind} lives on a different tape")
        value = np.asarray(value, dtype=np.float64)
        if not np.all(np.isfinite(value)):
            raise NonFiniteError(f"primitive {kind!r} produced non-finite values")
        return self._append(Node(kind, tuple(v._i for v in inputs), value, aux=aux))


@dataclass
class RowGrad:
    """Gradient of a 2-d table that is zero outside some rows.

    ``ids`` holds the sorted unique row ids and ``values`` their rows
    [U,E]. Values are built by adding onto +0, so they are never -0 and
    adding the zeros of the absent rows changes nothing: ``__add__`` and
    ``accumulate`` give the dense sums bitwise.
    """

    ids: np.ndarray
    values: np.ndarray
    rows: int

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.values.shape[1])

    @property
    def nbytes(self) -> int:
        return self.ids.nbytes + self.values.nbytes

    def dense(self, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
        """Dense rows ``start:stop`` of the gradient (all rows by default)."""
        stop = self.rows if stop is None else min(stop, self.rows)
        lo, hi = np.searchsorted(self.ids, (start, stop))
        out = np.zeros((stop - start, self.values.shape[1]))
        out[self.ids[lo:hi] - start] = self.values[lo:hi]
        return out

    def __add__(self, other: "RowGrad") -> "RowGrad":
        ids = np.union1d(self.ids, other.ids)
        values = np.zeros((ids.size, self.values.shape[1]))
        values[np.searchsorted(ids, self.ids)] = self.values
        values[np.searchsorted(ids, other.ids)] += other.values
        return RowGrad(ids, values, self.rows)

    def __imul__(self, scale: float) -> "RowGrad":
        self.values *= scale
        return self


def accumulate(acc, g):
    """``acc + g`` for two gradients of one parameter, reusing ``acc``'s
    storage when it is a dense array. Two row gradients stay a row
    gradient; a row gradient meeting a dense one becomes dense."""
    if isinstance(acc, RowGrad):
        if isinstance(g, RowGrad):
            return acc + g
        acc = acc.dense()
    acc += g.dense() if isinstance(g, RowGrad) else g
    return acc


class Var:
    """Handle to one tape node."""

    __slots__ = ("_tape", "_i")

    def __init__(self, tape: Tape, i: int):
        self._tape = tape
        self._i = i

    @property
    def value(self) -> np.ndarray:
        return self._tape.nodes[self._i].value

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def item(self) -> float:
        return float(self.value)

    def __repr__(self):
        return f"Var(node={self._i}, shape={self.shape})"

    def __add__(self, other):
        return add(self, _coerce(self._tape, other))

    def __radd__(self, other):
        return add(_coerce(self._tape, other), self)

    def __sub__(self, other):
        return sub(self, _coerce(self._tape, other))

    def __rsub__(self, other):
        return sub(_coerce(self._tape, other), self)

    def __mul__(self, other):
        return mul(self, _coerce(self._tape, other))

    def __rmul__(self, other):
        return mul(_coerce(self._tape, other), self)

    def __truediv__(self, other):
        return div(self, _coerce(self._tape, other))

    def __rtruediv__(self, other):
        return div(_coerce(self._tape, other), self)

    def __neg__(self):
        return neg(self)


def _coerce(tape: Tape, x) -> Var:
    if isinstance(x, Var):
        return x
    if isinstance(x, (numbers.Number, np.ndarray)):
        return tape.const(x)
    raise TypeError(f"cannot place {type(x).__name__} on the tape")


_BACKWARD: dict[str, Callable] = {}


def register_backward(kind: str):
    """Register ``fn(node, grad, tape) -> per-input gradients`` for a primitive."""
    def deco(fn):
        _BACKWARD[kind] = fn
        return fn
    return deco


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    # The binary ops broadcast a scalar, or a vector along the other
    # operand's last axis (a bias added to rows).
    if grad.shape == shape:
        return grad
    if shape == ():
        return np.asarray(grad.sum())
    return grad.sum(axis=tuple(range(grad.ndim - 1)))


def _check_binary(kind: str, a: Var, b: Var):
    sa, sb = a.shape, b.shape
    # Equal shapes, a scalar, or a vector matching the other's last axis.
    if not (sa == sb or () in (sa, sb) or sa[-1:] == sb or sb[-1:] == sa):
        raise ShapeError(f"{kind}: incompatible shapes {sa} and {sb}")


# -- elementwise binary ----------------------------------------------------

def add(a: Var, b: Var) -> Var:
    _check_binary("add", a, b)
    return a._tape.record("add", a.value + b.value, (a, b))


@register_backward("add")
def _add_bwd(node, grad, tape):
    sa = tape.nodes[node.inputs[0]].value.shape
    sb = tape.nodes[node.inputs[1]].value.shape
    return _unbroadcast(grad, sa), _unbroadcast(grad, sb)


def sub(a: Var, b: Var) -> Var:
    _check_binary("sub", a, b)
    return a._tape.record("sub", a.value - b.value, (a, b))


@register_backward("sub")
def _sub_bwd(node, grad, tape):
    sa = tape.nodes[node.inputs[0]].value.shape
    sb = tape.nodes[node.inputs[1]].value.shape
    return _unbroadcast(grad, sa), _unbroadcast(-grad, sb)


def mul(a: Var, b: Var) -> Var:
    _check_binary("mul", a, b)
    return a._tape.record("mul", a.value * b.value, (a, b))


@register_backward("mul")
def _mul_bwd(node, grad, tape):
    av = tape.nodes[node.inputs[0]].value
    bv = tape.nodes[node.inputs[1]].value
    return _unbroadcast(grad * bv, av.shape), _unbroadcast(grad * av, bv.shape)


def div(a: Var, b: Var) -> Var:
    _check_binary("div", a, b)
    return a._tape.record("div", a.value / b.value, (a, b))


@register_backward("div")
def _div_bwd(node, grad, tape):
    av = tape.nodes[node.inputs[0]].value
    bv = tape.nodes[node.inputs[1]].value
    return (_unbroadcast(grad / bv, av.shape),
            _unbroadcast(-grad * av / (bv * bv), bv.shape))


def neg(a: Var) -> Var:
    return a._tape.record("neg", -a.value, (a,))


@register_backward("neg")
def _neg_bwd(node, grad, tape):
    return (-grad,)


# -- elementwise unary -----------------------------------------------------

def relu(a: Var) -> Var:
    return a._tape.record("relu", np.maximum(a.value, 0.0), (a,))


@register_backward("relu")
def _relu_bwd(node, grad, tape):
    x = tape.nodes[node.inputs[0]].value
    return (grad * (x > 0.0),)


def elu(a: Var) -> Var:
    x = a.value
    return a._tape.record("elu", np.where(x > 0.0, x, np.expm1(x)), (a,))


@register_backward("elu")
def _elu_bwd(node, grad, tape):
    x = tape.nodes[node.inputs[0]].value
    # d/dx elu = 1 for x > 0, exp(x) = elu(x) + 1 otherwise.
    return (grad * np.where(x > 0.0, 1.0, node.value + 1.0),)


def sigmoid(a: Var) -> Var:
    x = a.value
    out = np.where(x >= 0.0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                   np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    return a._tape.record("sigmoid", out, (a,))


@register_backward("sigmoid")
def _sigmoid_bwd(node, grad, tape):
    s = node.value
    return (grad * s * (1.0 - s),)


def exp(a: Var) -> Var:
    # An overflow becomes inf, which ``Tape.record`` rejects by name.
    with np.errstate(over="ignore"):
        out = np.exp(a.value)
    return a._tape.record("exp", out, (a,))


@register_backward("exp")
def _exp_bwd(node, grad, tape):
    return (grad * node.value,)


_lgamma_vec = np.vectorize(special.lgamma, otypes=[np.float64])
_digamma_vec = np.vectorize(special.digamma, otypes=[np.float64])
_trigamma_vec = np.vectorize(special.trigamma, otypes=[np.float64])


def lgamma(a: Var) -> Var:
    """Elementwise log-gamma; differentiable (derivative is digamma)."""
    return a._tape.record("lgamma", _lgamma_vec(a.value), (a,))


@register_backward("lgamma")
def _lgamma_bwd(node, grad, tape):
    return (grad * _digamma_vec(tape.nodes[node.inputs[0]].value),)


def digamma(a: Var) -> Var:
    """Elementwise digamma; differentiable (derivative is trigamma)."""
    return a._tape.record("digamma", _digamma_vec(a.value), (a,))


@register_backward("digamma")
def _digamma_bwd(node, grad, tape):
    return (grad * _trigamma_vec(tape.nodes[node.inputs[0]].value),)


# -- reductions and vector ops ----------------------------------------------

def reduce_sum(a: Var) -> Var:
    return a._tape.record("reduce_sum", np.asarray(a.value.sum()), (a,))


@register_backward("reduce_sum")
def _reduce_sum_bwd(node, grad, tape):
    x = tape.nodes[node.inputs[0]].value
    return (np.broadcast_to(grad, x.shape).copy(),)


def _softmax_values(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max())
    return e / e.sum()


def log_softmax(a: Var) -> Var:
    """Log-softmax over the last axis: of a vector, or of each row."""
    if a.value.ndim == 0:
        raise ShapeError("log_softmax expects a vector or rows, got a scalar")
    x = a.value
    shifted = x - x.max(axis=-1, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return a._tape.record("log_softmax", out, (a,))


@register_backward("log_softmax")
def _log_softmax_bwd(node, grad, tape):
    return (grad - np.exp(node.value) * grad.sum(axis=-1, keepdims=True),)


def logsumexp(a: Var) -> Var:
    if a.value.ndim != 1:
        raise ShapeError(f"logsumexp expects a vector, got shape {a.shape}")
    x = a.value
    m = x.max()
    out = np.asarray(m + np.log(np.exp(x - m).sum()))
    return a._tape.record("logsumexp", out, (a,))


@register_backward("logsumexp")
def _logsumexp_bwd(node, grad, tape):
    x = tape.nodes[node.inputs[0]].value
    return (float(grad) * _softmax_values(x),)


def gather(a: Var, index: int) -> Var:
    """Entry ``index`` of the last axis: of a vector, or of each row."""
    if a.value.ndim == 0:
        raise ShapeError("gather expects a vector or rows, got a scalar")
    if not 0 <= index < a.value.shape[-1]:
        raise ShapeError(f"gather index {index} out of range for shape {a.shape}")
    return a._tape.record("gather", np.asarray(a.value[..., index]), (a,), aux=index)


@register_backward("gather")
def _gather_bwd(node, grad, tape):
    x = tape.nodes[node.inputs[0]].value
    out = np.zeros_like(x)
    out[..., node.aux] = grad
    return (out,)


def take_row(a: Var, index: int) -> Var:
    """Select one row of a 2-d tensor as a vector."""
    if a.value.ndim != 2:
        raise ShapeError(f"take_row expects a matrix, got shape {a.shape}")
    if not 0 <= index < a.value.shape[0]:
        raise ShapeError(f"take_row index {index} out of range for {a.shape}")
    return a._tape.record("take_row", a.value[index].copy(), (a,), aux=index)


@register_backward("take_row")
def _take_row_bwd(node, grad, tape):
    x = tape.nodes[node.inputs[0]].value
    out = np.zeros_like(x)
    out[node.aux] = grad
    return (out,)


def concat(parts: list[Var]) -> Var:
    if not parts:
        raise ShapeError("concat of zero parts")
    tape = parts[0]._tape
    for p in parts:
        if p.value.ndim != 1:
            raise ShapeError(f"concat expects vectors, got shape {p.shape}")
    sizes = [p.value.shape[0] for p in parts]
    out = np.concatenate([p.value for p in parts])
    return tape.record("concat", out, tuple(parts), aux=sizes)


@register_backward("concat")
def _concat_bwd(node, grad, tape):
    grads = []
    offset = 0
    for size in node.aux:
        grads.append(grad[offset:offset + size])
        offset += size
    return tuple(grads)


def stack(parts: list[Var]) -> Var:
    """Stack same-shape tensors along a new leading axis."""
    if not parts:
        raise ShapeError("stack of zero parts")
    tape = parts[0]._tape
    shape0 = parts[0].shape
    for p in parts:
        if p.shape != shape0:
            raise ShapeError(f"stack shape mismatch: {p.shape} vs {shape0}")
    out = np.stack([p.value for p in parts])
    return tape.record("stack", out, tuple(parts))


@register_backward("stack")
def _stack_bwd(node, grad, tape):
    return tuple(grad[i] for i in range(grad.shape[0]))


def matmul(a: Var, b: Var) -> Var:
    av, bv = a.value, b.value
    if av.ndim == 0 or bv.ndim == 0 or av.ndim > 2 or bv.ndim > 2:
        raise ShapeError(f"matmul expects 1-d/2-d operands, got {av.shape} @ {bv.shape}")
    if av.shape[-1] != bv.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {av.shape} @ {bv.shape}")
    return a._tape.record("matmul", np.matmul(av, bv), (a, b))


@register_backward("matmul")
def _matmul_bwd(node, grad, tape):
    av = tape.nodes[node.inputs[0]].value
    bv = tape.nodes[node.inputs[1]].value
    if av.ndim == 2 and bv.ndim == 2:
        return grad @ bv.T, av.T @ grad
    if av.ndim == 2 and bv.ndim == 1:
        return np.outer(grad, bv), av.T @ grad
    if av.ndim == 1 and bv.ndim == 2:
        return bv @ grad, np.outer(av, grad)
    # 1-d @ 1-d -> scalar dot product
    return float(grad) * bv, float(grad) * av


# -- encoder primitives ------------------------------------------------------

def embedding(table: Var, ids: np.ndarray) -> Var:
    ids = np.asarray(ids, dtype=np.int64)
    if table.value.ndim != 2:
        raise ShapeError(f"embedding table must be 2-d, got {table.shape}")
    if ids.ndim != 1 or ids.size == 0:
        raise ShapeError("embedding ids must be a non-empty 1-d integer array")
    if ids.min() < 0 or ids.max() >= table.value.shape[0]:
        raise ShapeError(
            f"embedding ids out of range [0, {table.value.shape[0]}): "
            f"min={ids.min()}, max={ids.max()}")
    return table._tape.record("embedding", table.value[ids], (table,), aux=ids)


@register_backward("embedding")
def _embedding_bwd(node, grad, tape):
    ids, inverse = np.unique(node.aux, return_inverse=True)
    values = kernels.embedding_backward(np.ascontiguousarray(grad), inverse, ids.size)
    return (RowGrad(ids, values, tape.nodes[node.inputs[0]].value.shape[0]),)


def conv1d(x: Var, w: Var, b: Var) -> Var:
    """Valid 1-d convolution over time: [T,E] x [win,E,F] + [F] -> [T-win+1,F]."""
    xv, wv, bv = x.value, w.value, b.value
    if xv.ndim != 2 or wv.ndim != 3 or bv.ndim != 1:
        raise ShapeError(
            f"conv1d expects x:[T,E], w:[win,E,F], b:[F]; got {xv.shape}, "
            f"{wv.shape}, {bv.shape}")
    if wv.shape[1] != xv.shape[1] or wv.shape[2] != bv.shape[0]:
        raise ShapeError(
            f"conv1d dimension mismatch: x {xv.shape}, w {wv.shape}, b {bv.shape}")
    if xv.shape[0] < wv.shape[0]:
        raise ShapeError(
            f"conv1d input length {xv.shape[0]} shorter than window {wv.shape[0]}")
    out = kernels.conv1d_forward(np.ascontiguousarray(xv),
                                 np.ascontiguousarray(wv),
                                 np.ascontiguousarray(bv))
    return x._tape.record("conv1d", out, (x, w, b))


@register_backward("conv1d")
def _conv1d_bwd(node, grad, tape):
    xv = tape.nodes[node.inputs[0]].value
    wv = tape.nodes[node.inputs[1]].value
    dx, dw, db = kernels.conv1d_backward(np.ascontiguousarray(xv),
                                         np.ascontiguousarray(wv),
                                         np.ascontiguousarray(grad))
    return dx, dw, db


def maxpool_time(x: Var) -> Var:
    """Max over the time axis: [T,F] -> [F]; ties take the lowest index."""
    if x.value.ndim != 2:
        raise ShapeError(f"maxpool_time expects [T,F], got {x.shape}")
    out, idx = kernels.maxpool_forward(np.ascontiguousarray(x.value))
    return x._tape.record("maxpool_time", out, (x,),
                          aux=(idx, x.value.shape[0]))


@register_backward("maxpool_time")
def _maxpool_bwd(node, grad, tape):
    idx, t_len = node.aux
    return (kernels.maxpool_backward(np.ascontiguousarray(grad), idx, t_len),)


def dropout(x: Var, rate: float, rng: np.random.Generator) -> Var:
    """Inverted dropout; the scaled mask is recorded for the backward pass."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    mask = (rng.random(x.value.shape) >= rate) / (1.0 - rate)
    return x._tape.record("dropout", x.value * mask, (x,), aux=mask)


@register_backward("dropout")
def _dropout_bwd(node, grad, tape):
    return (grad * node.aux,)


# -- reverse pass -------------------------------------------------------------

def backprop(loss: Var) -> dict[str, np.ndarray | RowGrad]:
    """Gradient of a scalar loss for every named parameter leaf on the tape.

    A table reached only through ``embedding`` gets a ``RowGrad``, every
    other parameter a dense array. Parameters the loss does not depend
    on get zero gradients; non-parameter leaves get none.
    """
    tape = loss._tape
    if loss.value.shape != ():
        raise ShapeError(f"backprop needs a scalar loss, got shape {loss.value.shape}")
    grads: list = [None] * len(tape.nodes)
    grads[loss._i] = np.ones(())
    for i in range(loss._i, -1, -1):
        g = grads[i]
        if g is None:
            continue
        node = tape.nodes[i]
        if not node.inputs:
            continue
        fn = _BACKWARD.get(node.kind)
        if fn is None:
            raise KeyError(f"no backward rule registered for primitive {node.kind!r}")
        if isinstance(g, RowGrad):  # a table computed on the tape
            g = g.dense()
        input_grads = fn(node, g, tape)
        for j, ig in zip(node.inputs, input_grads):
            if ig is None:
                continue
            if grads[j] is None:
                # A private copy, so that ``accumulate`` may add in place.
                grads[j] = ig if isinstance(ig, RowGrad) else np.array(ig, dtype=np.float64)
            else:
                grads[j] = accumulate(grads[j], ig)
    out: dict = {}
    for i, node in enumerate(tape.nodes):
        if node.kind == "param":
            g = grads[i] if grads[i] is not None else np.zeros_like(node.value)
            out[node.name] = accumulate(out[node.name], g) if node.name in out else g
    return out


class ParamBinder:
    """Lazily places parameters from a flat ``{name: array}`` store onto a tape,
    caching so each parameter appears as a single leaf."""

    def __init__(self, tape: Tape, params: dict[str, np.ndarray]):
        self.tape = tape
        self.params = params
        self._bound: dict[str, Var] = {}

    def __call__(self, name: str) -> Var:
        if name not in self._bound:
            self._bound[name] = self.tape.param(self.params[name], name)
        return self._bound[name]
