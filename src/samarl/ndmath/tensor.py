"""Dense-tensor substrate with reverse-mode gradients.

A :class:`Tensor` wraps a numpy array (float32 by default) together with the
bookkeeping needed for reverse-mode differentiation: every differentiable
operation records its input tensors and a vector-Jacobian callback on the
tensor it produces. :func:`backward` collects the records reachable from a
scalar loss, orders them by creation index (execution order is a valid
topological order under define-by-run), and replays them in reverse. Given
the parameters it is asked for, it replays only the records on a path from
the loss to one of them.

The graph is rebuilt on every forward pass, so delayed or alternating update
schemes never see stale records. Wrap rollout / target-value code in
:func:`no_grad` to skip recording entirely.
"""

from __future__ import annotations

import contextlib
import itertools
from typing import Callable, Iterable, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


_grad_enabled = True
_counter = itertools.count()
# While a backward pass limited to some parameters runs: the ids of the
# tensors on a path from its loss to one of them. vjps route gradient only to
# these; None means every tracked tensor.
_need: set[int] | None = None


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (rollouts, target values)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def grad_enabled() -> bool:
    return _grad_enabled


class Tensor:
    """Numpy data plus an optional gradient and graph record.

    ``requires_grad`` marks leaf tensors (parameters) whose gradients should
    be retained by :func:`backward`. Intermediate results produced while
    recording carry ``_vjp``, the callback that routes an incoming output
    gradient to their parents.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "_order")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=dtype if dtype is not None else DEFAULT_DTYPE)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], None] | None = None
        self._order = next(_counter)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _from_op(cls, data: np.ndarray, parents: tuple["Tensor", ...],
                 vjp: Callable[[np.ndarray], None] | None) -> "Tensor":
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        out._order = next(_counter)
        if vjp is not None:
            out.requires_grad = True
            out._parents = parents
            out._vjp = vjp
        else:
            out.requires_grad = False
            out._parents = ()
            out._vjp = None
        return out

    # -- inspection -----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def numpy(self) -> np.ndarray:
        return self.data

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"

    # -- gradient plumbing ----------------------------------------------------

    def _tracked(self) -> bool:
        if _need is not None:
            return id(self) in _need
        return self.requires_grad or self._vjp is not None

    def _accum(self, g: np.ndarray, own: bool = False) -> None:
        # Copy on first write unless the caller guarantees ``g`` is a fresh
        # array: vjp outputs may be views shared between parents.
        if self.grad is None:
            if own and g.dtype == self.data.dtype:
                self.grad = g
            else:
                self.grad = np.array(g, dtype=self.data.dtype)
        else:
            self.grad += g

    # -- operators --------------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return add(neg(self), other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division is not part of this substrate")
        return mul(self, 1.0 / other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape) -> "Tensor":
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def swap_last_axes(self) -> "Tensor":
        return swapaxes(self, -1, -2)


def _wrap(x, like: Tensor | None = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else None
    return Tensor(np.asarray(x), dtype=dtype)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _rows(x: np.ndarray, col: np.ndarray) -> np.ndarray:
    """``x @ col`` over the last axis, kept as a length-1 axis.

    One GEMM against a ``(d, 1)`` column (ones for a sum, ``1/d`` for a mean)
    costs several times less than a numpy reduction over a short last axis.
    """
    return (x.reshape(-1, x.shape[-1]) @ col).reshape(x.shape[:-1] + (1,))


def _maybe(parents: Sequence[Tensor], data: np.ndarray,
           vjp_builder: Callable[[], Callable[[np.ndarray], None]]) -> Tensor:
    """Wrap ``data``; attach the vjp only when recording is on and useful."""
    if _grad_enabled and any(p._tracked() for p in parents):
        return Tensor._from_op(data, tuple(parents), vjp_builder())
    return Tensor._from_op(data, (), None)


# -- elementwise arithmetic ---------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b, like=a)

    def build():
        def vjp(g):
            if a._tracked():
                ga = _unbroadcast(g, a.data.shape)
                a._accum(ga, own=ga is not g)
            if b._tracked():
                gb = _unbroadcast(g, b.data.shape)
                b._accum(gb, own=gb is not g)
        return vjp

    return _maybe((a, b), a.data + b.data, build)


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b, like=a)

    def build():
        def vjp(g):
            if a._tracked():
                ga = _unbroadcast(g, a.data.shape)
                a._accum(ga, own=ga is not g)
            if b._tracked():
                b._accum(_unbroadcast(-g, b.data.shape), own=True)
        return vjp

    return _maybe((a, b), a.data - b.data, build)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b, like=a)

    def build():
        def vjp(g):
            if a._tracked():
                a._accum(_unbroadcast(g * b.data, a.data.shape), own=True)
            if b._tracked():
                b._accum(_unbroadcast(g * a.data, b.data.shape), own=True)
        return vjp

    return _maybe((a, b), a.data * b.data, build)


def neg(a: Tensor) -> Tensor:
    def build():
        def vjp(g):
            a._accum(-g, own=True)
        return vjp

    return _maybe((a,), -a.data, build)


# -- matrix product -----------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; last two axes multiply, leading axes broadcast."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} x {b.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")

    # (..., D) @ (D, K) folds into one flat GEMM instead of a per-slice loop
    flat_rhs = b.data.ndim == 2 and a.data.ndim > 2
    if flat_rhs:
        k = b.data.shape[-1]
        out = (a.data.reshape(-1, a.data.shape[-1]) @ b.data).reshape(
            a.data.shape[:-1] + (k,))
    else:
        out = a.data @ b.data

    def build():
        def vjp(g):
            if a._tracked():
                if flat_rhs:
                    ga = (g.reshape(-1, g.shape[-1]) @ b.data.T).reshape(a.data.shape)
                    a._accum(ga, own=True)
                else:
                    a._accum(_unbroadcast(g @ b.data.swapaxes(-1, -2), a.data.shape),
                             own=True)
            if b._tracked():
                if flat_rhs:
                    inner = a.data.shape[-1]
                    gb = a.data.reshape(-1, inner).T @ g.reshape(-1, g.shape[-1])
                    b._accum(gb, own=True)
                else:
                    b._accum(_unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape),
                             own=True)
        return vjp

    return _maybe((a, b), out, build)


# -- reductions ---------------------------------------------------------------

def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def build():
        def vjp(g):
            if axis is None:
                a._accum(np.broadcast_to(g, a.data.shape))
            elif keepdims:
                a._accum(np.broadcast_to(g, a.data.shape))
            else:
                a._accum(np.broadcast_to(np.expand_dims(g, axis), a.data.shape))
        return vjp

    return _maybe((a,), np.asarray(out), build)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = a.data.size if axis is None else np.prod(
        [a.data.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))])
    s = tsum(a, axis=axis, keepdims=keepdims)
    return mul(s, 1.0 / float(count))


# -- shape manipulation -------------------------------------------------------

# The backward of reshape and swapaxes hands a view of ``g`` to the parent
# without copying it. That is safe because ``g`` is the op output's own
# gradient, which ``backward`` drops right after this vjp returns.

def reshape(a: Tensor, shape) -> Tensor:
    def build():
        def vjp(g):
            a._accum(g.reshape(a.data.shape), own=True)
        return vjp

    return _maybe((a,), a.data.reshape(shape), build)


def swapaxes(a: Tensor, ax1: int, ax2: int) -> Tensor:
    def build():
        def vjp(g):
            a._accum(g.swapaxes(ax1, ax2), own=True)
        return vjp

    return _maybe((a,), a.data.swapaxes(ax1, ax2), build)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    widths = [t.data.shape[axis] for t in tensors]
    stops = np.cumsum(widths)

    def build():
        def vjp(g):
            pieces = np.split(g, stops[:-1], axis=axis)
            for t, piece in zip(tensors, pieces):
                if t._tracked():
                    t._accum(piece)
        return vjp

    return _maybe(tensors, np.concatenate([t.data for t in tensors], axis=axis), build)


def stack(tensors: Sequence[Tensor], axis: int = 1) -> Tensor:
    """Stack same-shape tensors along a new axis (used for per-agent layouts)."""
    expanded = [reshape(t, t.data.shape[:axis] + (1,) + t.data.shape[axis:])
                for t in tensors]
    return concat(expanded, axis=axis)


def select(a: Tensor, index: int, axis: int = -1) -> Tensor:
    """Take one slice along ``axis``, dropping that axis."""
    out = np.take(a.data, index, axis=axis)

    def build():
        def vjp(g):
            full = np.zeros_like(a.data)
            idx = [slice(None)] * a.data.ndim
            idx[axis] = index
            full[tuple(idx)] = g
            a._accum(full, own=True)
        return vjp

    return _maybe((a,), out, build)


# -- nonlinearities -----------------------------------------------------------

def leaky_relu(a: Tensor, slope: float = 0.01) -> Tensor:
    """f(x) = x for x >= 0, slope * x otherwise."""

    def build():
        def vjp(g):
            scale = (a.data >= 0).astype(g.dtype)
            scale *= 1.0 - slope
            scale += slope
            scale *= g
            a._accum(scale, own=True)
        return vjp

    # max(x, slope*x) equals the two-branch form for any slope < 1
    return _maybe((a,), np.maximum(a.data, slope * a.data), build)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)

    def build():
        def vjp(g):
            a._accum(g * (1.0 - out * out), own=True)
        return vjp

    return _maybe((a,), out, build)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Stabilized softmax along the last axis; each row sums to one.

    Only the last axis is accepted. The row sums are one GEMM against a ones
    column. numpy's max over a short last axis costs about 80 ns a row, so
    past a few rows per column the row max is taken by in-place maxima over
    the columns instead (under 1 us each); both give the same bits.
    """
    x = a.data
    if x.ndim == 0 or axis not in (-1, x.ndim - 1):
        raise ShapeError(f"softmax runs over the last axis only, got axis {axis} "
                         f"for shape {a.shape}")
    n = x.shape[-1]
    ones = np.ones((n, 1), dtype=x.dtype)
    flat = x.reshape(-1, n)
    if flat.shape[0] > 8 * n:
        row_max = flat[:, 0].copy()
        for j in range(1, n):
            np.maximum(row_max, flat[:, j], out=row_max)
    else:
        row_max = flat.max(axis=1)
    out = np.subtract(flat, row_max[:, None])
    np.exp(out, out=out)
    out /= out @ ones
    out = out.reshape(x.shape)

    def build():
        def vjp(g):
            ga = g * out
            np.subtract(g, _rows(ga, ones), out=ga)
            ga *= out
            a._accum(ga, own=True)
        return vjp

    return _maybe((a,), out, build)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale+shift.

    The means are GEMMs against a column of ``1/d`` (see ``_rows``).
    """
    col = np.full((a.data.shape[-1], 1), 1.0 / a.data.shape[-1], dtype=a.data.dtype)
    xhat = a.data - _rows(a.data, col)
    out = xhat * xhat
    inv = _rows(out, col)
    inv += eps
    np.sqrt(inv, out=inv)
    np.reciprocal(inv, out=inv)
    xhat *= inv
    np.multiply(xhat, gain.data, out=out)
    out += bias.data

    def build():
        def vjp(g):
            if a._tracked():
                dxhat = g * gain.data
                term = dxhat * xhat
                dxhat -= _rows(dxhat, col)
                np.multiply(xhat, _rows(term, col), out=term)
                dxhat -= term
                dxhat *= inv
                a._accum(dxhat, own=True)
            if gain._tracked():
                gain._accum(_unbroadcast(g * xhat, gain.data.shape), own=True)
            if bias._tracked():
                gb = _unbroadcast(g, bias.data.shape)
                bias._accum(gb, own=gb is not g)
        return vjp

    return _maybe((a, gain, bias), out, build)


# -- reverse pass -------------------------------------------------------------

def backward(loss: Tensor, params: Iterable[Tensor] | None = None) -> None:
    """Populate ``grad`` on the leaves reachable from a scalar ``loss``.

    Gradients are fresh per call (previous values on the touched leaves are
    discarded, not accumulated). When ``params`` is given, only the vjps on a
    path from the loss to one of them run, so only they get a gradient and
    every other leaf keeps the one it had; each of them still receives every
    contribution, in the same order, so its gradient is the same as without
    ``params``. Any parameter the loss does not reach ends up with an
    all-zero gradient, so optimizers can consume the full parameter set
    unconditionally. The graph is left as it was.
    """
    global _need
    if loss.data.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.shape}")

    # Gather the recorded subgraph; creation order is topological.
    tape: list[Tensor] = []
    seen: set[int] = set()
    stack = [loss]
    while stack:
        t = stack.pop()
        if id(t) in seen or t._vjp is None:
            continue
        seen.add(id(t))
        tape.append(t)
        stack.extend(t._parents)
    tape.sort(key=lambda t: t._order, reverse=True)

    need = None
    if params is None:
        params = []
        for t in tape:
            for p in t._parents:
                if p._vjp is None and p.requires_grad:
                    p.grad = None
    else:
        params = list(params)
        for p in params:
            p.grad = None
        need = {id(p) for p in params if p._tracked()}
        for t in reversed(tape):  # parents before children
            if any(id(p) in need for p in t._parents):
                need.add(id(t))
        tape = [t for t in tape if id(t) in need]

    if need is None or id(loss) in need:
        loss.grad = np.ones_like(loss.data)
    _need = need
    try:
        for t in tape:
            if t.grad is None:
                continue  # side branch not reached from the loss
            t._vjp(t.grad)
            t.grad = None  # free intermediate gradients as soon as they are used
    finally:
        _need = None

    for p in params:
        if p.grad is None:
            p.grad = np.zeros_like(p.data)
