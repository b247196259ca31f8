"""Reverse-mode automatic differentiation over dense float tensors.

A ``Tape`` records every primitive application as a node (kind, input
node ids, output array, backward rule); ``backprop`` walks the tape once
in reverse and returns a gradient for every named parameter leaf. Tapes
are cheap, single-use, and never shared across threads.

``embedding`` is the one row gather, ``table[ids]`` for ids of any shape.
The gradient of a parameter table that reaches the loss through one
``embedding`` is a ``RowGrad``: the rows the batch looked up and their
values, so its cost follows the text length, not the vocabulary size.
A row gradient that meets any other gradient is made dense.

A tape holds a whole mini-batch: the primitives work on rows [B,...]
(numpy broadcasting, reductions and gathers along an axis, rows times a
matrix, stacked matrix products), and the encoder's ``conv_pool``
convolves a ragged batch of N positions over U distinct rows [U,k*E]
of a group of k channels, never forming [N,E], and max-pools each
instance over its own windows.

A primitive computes its output and records it with ``Tape.record``,
together with its backward rule: a closure from the output's gradient to
one gradient (or None) per input. The closure keeps only arrays, shapes
and ints (never a ``Var``, the tape or a node), so a tape is freed by
reference counting as soon as its last ``Var`` goes. Extension
primitives (e.g. distribution sampling nodes) record theirs the same way.

Values are float64, except that a float32 parameter stays float32 and
every primitive follows the dtype of its inputs: the ``embedding`` of a
float32 table and the convolution in ``conv_pool`` run in float32, and
so do their gradients. ``conv_pool`` returns its pooled rows in float64.
``const`` leaves are float64.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import kernels, special

__all__ = [
    "Tape",
    "Var",
    "RowGrad",
    "ShapeError",
    "NonFiniteError",
    "backprop",
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
    backward: Optional[Callable] = None  # None only on leaves
    name: Optional[str] = None  # set only on parameter leaves


def _floating(value) -> np.ndarray:
    value = np.asarray(value)
    return value if value.dtype == np.float32 else value.astype(np.float64, copy=False)


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
        """Record a parameter leaf; backprop reports its gradient under ``name``.
        A float32 array stays float32, any other becomes float64.

        The array is not scanned here: parameters are checked where they
        get their values (``Model.init``, ``adam_step``,
        ``load_checkpoint``). A non-finite entry placed by hand raises at
        the first primitive whose output it reaches.
        """
        return self._append(Node("param", (), _floating(value), name=name))

    def record(self, kind: str, value: np.ndarray, inputs: tuple["Var", ...],
               backward: Callable) -> "Var":
        """Record one primitive application. ``value`` is its precomputed
        output; ``backward(grad)`` returns one gradient (or None) per input
        for the gradient ``grad`` of the output. A float32 value stays
        float32, any other becomes float64."""
        for v in inputs:
            if v._tape is not self:
                raise ValueError(f"input of {kind} lives on a different tape")
        value = _floating(value)
        if not np.all(np.isfinite(value)):
            raise NonFiniteError(f"primitive {kind!r} produced non-finite values")
        return self._append(Node(kind, tuple(v._i for v in inputs), value, backward))


@dataclass
class RowGrad:
    """Gradient of a 2-d table that is zero outside some rows.

    ``ids`` holds the sorted unique row ids and ``values`` their rows
    [U,E]. Values are built by adding onto +0, so they are never -0 and
    ``dense`` adds nothing a dense scatter would not.
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
        out = np.zeros((stop - start, self.values.shape[1]), dtype=self.values.dtype)
        out[self.ids[lo:hi] - start] = self.values[lo:hi]
        return out


def _accumulate(acc, g):
    """A new array ``acc + g`` for two gradients of one node; neither is
    written. A row gradient that meets any other gradient becomes dense."""
    return ((acc.dense() if isinstance(acc, RowGrad) else acc)
            + (g.dense() if isinstance(g, RowGrad) else g))


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

    def __sub__(self, other):
        return sub(self, _coerce(self._tape, other))

    def __mul__(self, other):
        return mul(self, _coerce(self._tape, other))

    def __rmul__(self, other):
        return mul(_coerce(self._tape, other), self)


def _coerce(tape: Tape, x) -> Var:
    if isinstance(x, Var):
        return x
    if isinstance(x, (numbers.Number, np.ndarray)):
        return tape.const(x)
    raise TypeError(f"cannot place {type(x).__name__} on the tape")


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    # Sum the gradient of a broadcast operand back to its own shape.
    if grad.shape == shape:
        return grad
    lead = grad.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(
        lead + i for i, n in enumerate(shape) if n == 1 and grad.shape[lead + i] != 1)
    return grad.sum(axis=axes).reshape(shape)


def _check_binary(kind: str, a: Var, b: Var):
    # numpy broadcasting: a scalar, a vector along the rows' last axis, or
    # rows [B,1] against [B,k].
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{kind}: incompatible shapes {a.shape} and {b.shape}") from None


# -- elementwise binary ----------------------------------------------------

def add(a: Var, b: Var) -> Var:
    _check_binary("add", a, b)
    sa, sb = a.shape, b.shape
    return a._tape.record("add", a.value + b.value, (a, b),
                          lambda grad: (_unbroadcast(grad, sa), _unbroadcast(grad, sb)))


def sub(a: Var, b: Var) -> Var:
    _check_binary("sub", a, b)
    sa, sb = a.shape, b.shape
    return a._tape.record("sub", a.value - b.value, (a, b),
                          lambda grad: (_unbroadcast(grad, sa), _unbroadcast(-grad, sb)))


def mul(a: Var, b: Var) -> Var:
    _check_binary("mul", a, b)
    av, bv = a.value, b.value
    return a._tape.record(
        "mul", av * bv, (a, b),
        lambda grad: (_unbroadcast(grad * bv, av.shape), _unbroadcast(grad * av, bv.shape)))


def div(a: Var, b: Var) -> Var:
    _check_binary("div", a, b)
    av, bv = a.value, b.value
    return a._tape.record(
        "div", av / bv, (a, b),
        lambda grad: (_unbroadcast(grad / bv, av.shape),
                      _unbroadcast(-grad * av / (bv * bv), bv.shape)))


def neg(a: Var) -> Var:
    return a._tape.record("neg", -a.value, (a,), lambda grad: (-grad,))


# -- elementwise unary -----------------------------------------------------

def relu(a: Var) -> Var:
    x = a.value
    return a._tape.record("relu", np.maximum(x, 0.0), (a,),
                          lambda grad: (grad * (x > 0.0),))


def elu(a: Var) -> Var:
    x = a.value
    out = np.where(x > 0.0, x, np.expm1(x))
    # d/dx elu = 1 for x > 0, exp(x) = elu(x) + 1 otherwise.
    return a._tape.record("elu", out, (a,),
                          lambda grad: (grad * np.where(x > 0.0, 1.0, out + 1.0),))


def sigmoid(a: Var) -> Var:
    x = a.value
    s = np.where(x >= 0.0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                 np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    return a._tape.record("sigmoid", s, (a,), lambda grad: (grad * s * (1.0 - s),))


def exp(a: Var) -> Var:
    # An overflow becomes inf, which ``Tape.record`` rejects by name.
    with np.errstate(over="ignore"):
        out = np.exp(a.value)
    return a._tape.record("exp", out, (a,), lambda grad: (grad * out,))


def lgamma(a: Var) -> Var:
    """Elementwise log-gamma; differentiable (derivative is digamma)."""
    x = a.value
    return a._tape.record("lgamma", special.lgamma(x), (a,),
                          lambda grad: (grad * special.digamma(x),))


def digamma(a: Var) -> Var:
    """Elementwise digamma; differentiable (derivative is trigamma). Only
    entries with a nonzero gradient are differentiated, so an entry that
    a loss weighs by 0 costs nothing, even where trigamma overflows."""
    x = a.value

    def backward(grad):
        out = grad * 0.0
        live = grad != 0.0
        out[live] = grad[live] * special.trigamma(x[live])
        return (out,)
    return a._tape.record("digamma", special.digamma(x), (a,), backward)


# -- reductions and shape ops -------------------------------------------------

def reduce_sum(a: Var, axis: Optional[int] = None, keepdims: bool = False) -> Var:
    """Sum of all entries, or along one axis."""
    out = np.asarray(a.value.sum(axis=axis, keepdims=keepdims))
    shape = a.shape

    def backward(grad):
        if axis is not None and not keepdims:
            grad = np.expand_dims(grad, axis)
        return (np.broadcast_to(grad, shape),)
    return a._tape.record("reduce_sum", out, (a,), backward)


def log_softmax(a: Var) -> Var:
    """Log-softmax over the last axis: of a vector, or of each row."""
    if a.value.ndim == 0:
        raise ShapeError("log_softmax expects a vector or rows, got a scalar")
    x = a.value
    shifted = x - x.max(axis=-1, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return a._tape.record(
        "log_softmax", out, (a,),
        lambda grad: (grad - np.exp(out) * grad.sum(axis=-1, keepdims=True),))


def logsumexp(a: Var) -> Var:
    """Log-sum-exp over the last axis: of a vector, or of each row."""
    if a.value.ndim == 0:
        raise ShapeError("logsumexp expects a vector or rows, got a scalar")
    x = a.value
    m = x.max(axis=-1, keepdims=True)
    out = (m + np.log(np.exp(x - m).sum(axis=-1, keepdims=True)))[..., 0]
    return a._tape.record("logsumexp", out, (a,),
                          lambda grad: (grad[..., None] * np.exp(x - out[..., None]),))


def gather(a: Var, index) -> Var:
    """Entry ``index`` of the last axis: of a vector, or of each row. An
    integer array of shape ``a.shape[:-1]`` picks one entry per row."""
    if a.value.ndim == 0:
        raise ShapeError("gather expects a vector or rows, got a scalar")
    index = np.asarray(index, dtype=np.intp)
    if index.shape not in ((), a.shape[:-1]):
        raise ShapeError(f"gather index shape {index.shape} does not match {a.shape}")
    if index.size and not (0 <= index.min() and index.max() < a.shape[-1]):
        raise ShapeError(f"gather index {index} out of range for shape {a.shape}")
    x = a.value
    out = np.take_along_axis(x, np.broadcast_to(index, x.shape[:-1])[..., None],
                             axis=-1)[..., 0]

    def backward(grad):
        dx = np.zeros_like(x)
        np.put_along_axis(dx, np.broadcast_to(index, x.shape[:-1])[..., None],
                          grad[..., None], axis=-1)
        return (dx,)
    return a._tape.record("gather", out, (a,), backward)


def reshape(a: Var, shape: tuple[int, ...]) -> Var:
    old = a.shape
    return a._tape.record("reshape", a.value.reshape(shape), (a,),
                          lambda grad: (grad.reshape(old),))


def concat(parts: list[Var]) -> Var:
    """Concatenate along the last axis: vectors, or rows with one leading shape."""
    if not parts:
        raise ShapeError("concat of zero parts")
    tape = parts[0]._tape
    lead = parts[0].shape[:-1]
    for p in parts:
        if p.value.ndim == 0 or p.shape[:-1] != lead:
            raise ShapeError(f"concat expects one leading shape {lead}, got {p.shape}")
    sizes = [p.value.shape[-1] for p in parts]
    out = np.concatenate([p.value for p in parts], axis=-1)
    return tape.record("concat", out, tuple(parts),
                       lambda grad: tuple(np.split(grad, np.cumsum(sizes)[:-1], axis=-1)))


def matmul(a: Var, b: Var) -> Var:
    """Matrix product: rows of any leading shape [..., n] @ [n, m], run as
    one product of the flattened rows [N, n] @ [n, m] (so the bits of a
    row do not depend on the leading shape), or a stack of matrices
    [B, r, n] @ [B, n, m]."""
    av, bv = a.value, b.value
    if not ((av.ndim >= 1 and bv.ndim == 2)
            or (av.ndim == bv.ndim == 3 and av.shape[0] == bv.shape[0])):
        raise ShapeError(f"matmul expects rows @ a matrix or stacked matrices, "
                         f"got {av.shape} @ {bv.shape}")
    if av.shape[-1] != bv.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {av.shape} @ {bv.shape}")
    if bv.ndim == 3:
        return a._tape.record("matmul", np.matmul(av, bv), (a, b),
                              lambda grad: (grad @ bv.swapaxes(1, 2), av.swapaxes(1, 2) @ grad))
    rows = av.reshape(-1, av.shape[-1])

    def backward(grad):
        grad = grad.reshape(-1, bv.shape[1])
        return (grad @ bv.T).reshape(av.shape), rows.T @ grad
    return a._tape.record("matmul", (rows @ bv).reshape(av.shape[:-1] + bv.shape[1:]),
                          (a, b), backward)


# -- encoder primitives ------------------------------------------------------

def embedding(table: Var, ids) -> Var:
    """Rows ``table[ids]`` [*ids.shape, E] of a 2-d table, for non-empty
    integer ids of any shape (rows may repeat). The gradient of the
    table is a ``RowGrad`` over the unique ids."""
    ids = np.asarray(ids, dtype=np.int64)
    if table.value.ndim != 2:
        raise ShapeError(f"embedding table must be 2-d, got {table.shape}")
    if ids.size == 0:
        raise ShapeError("embedding ids must be non-empty")
    if ids.min() < 0 or ids.max() >= table.value.shape[0]:
        raise ShapeError(
            f"embedding ids out of range [0, {table.value.shape[0]}): "
            f"min={ids.min()}, max={ids.max()}")
    rows = table.value.shape[0]

    def backward(grad):
        unique, inverse = np.unique(ids.ravel(), return_inverse=True)
        values = kernels.embedding_backward(
            np.ascontiguousarray(grad.reshape(inverse.size, -1)), inverse, unique.size)
        return (RowGrad(unique, values, rows),)
    return table._tape.record("embedding", table.value[ids], (table,), backward)


def conv_pool(x: Var, w: Var, b: Var, index: np.ndarray, starts: np.ndarray) -> Var:
    """relu(max over each instance's windows of the valid convolution of
    the rows ``x[index]`` with w plus b), for a group of k channels:
    x [U,k*E], w [win,E,k*F] and b [k*F] hold channel c at slice c of
    their last axis, and so does the result [B,k*F].

    x holds one row per distinct id and ``index`` [N] the row at each
    position; instance j owns positions ``starts[j]:starts[j+1]``. The
    gradient of x is [U,k*E] (see ``kernels``). A window that starts in
    one instance and ends in the next is never pooled. Ties take the
    lowest window; relu after the max equals the max after relu exactly.
    Only the argmax windows and the relu mask are kept for the backward
    pass. The kernels run once per channel on its own slices, so a
    channel's values and gradients are those of a one-channel group, and
    each convolution output stays cache-sized.

    The convolution and max-pool run in the dtype of x, w and b; the
    pooled rows are float64, and the backward pass casts their gradient
    back to w's dtype."""
    xv, wv, bv = x.value, w.value, b.value
    if xv.ndim != 2 or wv.ndim != 3 or bv.ndim != 1:
        raise ShapeError(
            f"conv_pool expects x:[U,k*E], w:[win,E,k*F], b:[k*F]; got {xv.shape}, "
            f"{wv.shape}, {bv.shape}")
    win, emb, width = wv.shape
    k = xv.shape[1] // emb
    if xv.shape[1] != k * emb or k == 0 or width % k or bv.shape[0] != width:
        raise ShapeError(
            f"conv_pool dimension mismatch: x {xv.shape}, w {wv.shape}, b {bv.shape}")
    index = np.asarray(index, dtype=np.intp)
    if index.ndim != 1:
        raise ShapeError(f"conv_pool index must be 1-d, got shape {index.shape}")
    starts = np.asarray(starts, dtype=np.intp)
    lengths = np.diff(starts)
    if starts[0] != 0 or starts[-1] != index.size or lengths.size == 0:
        raise ShapeError(f"conv_pool starts {starts} do not cover {index.size} positions")
    if lengths.min() < win:
        raise ShapeError(
            f"conv_pool input length {lengths.min()} shorter than window {win}")
    if index.min() < 0 or index.max() >= xv.shape[0]:
        raise ShapeError(f"conv_pool index out of range [0, {xv.shape[0]}): "
                         f"min={index.min()}, max={index.max()}")
    # Channel c's slices are views: the products read them in place, with
    # the bits of contiguous copies and without copying w at every call.
    nf = width // k
    xs = [xv[:, c * emb:(c + 1) * emb] for c in range(k)]
    ws = [wv[..., c * nf:(c + 1) * nf] for c in range(k)]
    peaks, idxs = [], []
    for c in range(k):
        out = kernels.conv1d_forward(xs[c], ws[c], bv[c * nf:(c + 1) * nf], index)
        peak, idx = kernels.maxpool_forward(out, starts[:-1], starts[1:] - win + 1)
        peaks.append(peak)
        idxs.append(idx)
    peak = np.concatenate(peaks, axis=1)
    # The relu would hide a non-finite maximum, so check it first.
    if not np.all(np.isfinite(peak)):
        raise NonFiniteError("primitive 'conv_pool' produced non-finite values")
    live = peak > 0.0

    def backward(grad):
        s = kernels.maxpool_backward(grad.astype(wv.dtype, copy=False), live)
        parts = [kernels.conv1d_backward(xs[c], ws[c], index, idxs[c],
                                         np.ascontiguousarray(s[:, c * nf:(c + 1) * nf]))
                 for c in range(k)]
        return tuple(np.concatenate(d, axis=-1) for d in zip(*parts))
    pooled = np.where(live, peak, 0.0).astype(np.float64, copy=False)
    return x._tape.record("conv_pool", pooled, (x, w, b), backward)


def dropout(x: Var, rate: float, u: np.ndarray) -> Var:
    """Inverted dropout from uniform noise u of x's shape: an entry is
    kept where u >= rate. The scaled mask is recorded for the backward
    pass."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if u.shape != x.shape:
        raise ShapeError(f"dropout noise shape {u.shape} does not match {x.shape}")
    mask = (u >= rate) / (1.0 - rate)
    return x._tape.record("dropout", x.value * mask, (x,), lambda grad: (grad * mask,))


# -- reverse pass -------------------------------------------------------------

def backprop(loss: Var) -> dict[str, np.ndarray | RowGrad]:
    """Gradient of a scalar loss for every named parameter leaf on the tape.

    A table reached through one ``embedding`` only gets a ``RowGrad``,
    every other parameter a dense array. Parameters the loss does not depend
    on get zero gradients; non-parameter leaves get none.

    Each node's ``backward`` closure maps its output gradient to its
    inputs' gradients. Gradients are stored as the closures return them,
    never copied, so nothing may write into one, a returned gradient
    included: one array may be the gradient of two inputs (``add``
    returns ``grad`` for both), and ``reduce_sum`` returns a read-only
    broadcast view. The closures, ``adam_step`` and the training log only
    read them; a second gradient of a node makes a new sum.
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
        if isinstance(g, RowGrad):  # a table computed on the tape
            g = g.dense()
        for j, ig in zip(node.inputs, node.backward(g)):
            if ig is None:
                continue
            grads[j] = ig if grads[j] is None else _accumulate(grads[j], ig)
    out: dict = {}
    for i, node in enumerate(tape.nodes):
        if node.kind == "param":
            g = grads[i] if grads[i] is not None else np.zeros_like(node.value)
            out[node.name] = _accumulate(out[node.name], g) if node.name in out else g
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
