"""Dense-tensor substrate with reverse-mode gradients.

A :class:`Tensor` wraps a numpy array (float32 by default) together with the
bookkeeping needed for reverse-mode differentiation: every differentiable
operation records its input tensors and a vector-Jacobian callback on the
tensor it produces. :func:`backward` collects the records reachable from a
scalar loss, orders them by creation index (execution order is a valid
topological order under define-by-run), and replays in reverse only the
records on a path from the loss to one of the parameters it is asked for.

The graph is rebuilt on every forward pass, so delayed or alternating update
schemes never see stale records. Wrap rollout / target-value code in
:func:`no_grad` to skip recording entirely.

Large arrays are recycled. Each op result and vjp temporary of
``RECYCLE_BYTES`` (256 KB) or more is written, through numpy's ``out=``, into
a buffer from a module-level free list keyed by byte size.
A buffer is handed out again only when nothing outside the list references
it: every array made from it, and every view of one of those, holds it as its
base, so reuse never overwrites live data. So a process keeps, for each size
its updates use, as many buffers as its ops had in use at once.
:func:`release_buffers` empties the list; every ``Trainer`` calls it when it
dies, so the list lives as long as the trainers whose updates fill it, and a
process that moves on to another agent count or batch size keeps only the new
one's buffers. Ops on smaller arrays and reductions run numpy's plain
expressions.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import sys
from typing import Callable, Iterable, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


_recording = True
_counter = itertools.count()
# While a backward pass runs: the ids of the tensors on a path from its loss
# to one of its parameters. vjps route gradient only to these.
_need: set[int] | None = None


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (rollouts, target values)."""
    global _recording
    prev = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = prev


class Tensor:
    """Numpy data plus an optional gradient and graph record.

    ``requires_grad`` marks leaf tensors (parameters) whose gradients should
    be retained by :func:`backward`. Intermediate results produced while
    recording carry ``_vjp``, the callback that routes an incoming output
    gradient to their parents.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "_order")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
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
        out.requires_grad = vjp is not None
        out._parents = parents if vjp is not None else ()
        out._vjp = vjp
        return out

    # -- inspection -----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"

    # -- gradient plumbing ----------------------------------------------------

    def _tracked(self) -> bool:
        if _need is not None:
            return id(self) in _need
        return self.requires_grad

    def _accum(self, g: np.ndarray, own: bool = False) -> None:
        # Copy on first write unless the caller hands ``g`` over, read and
        # written by no one else: vjp outputs may be views shared between
        # parents.
        if self.grad is None:
            if own and g.dtype == self.data.dtype:
                self.grad = g
            else:
                self.grad = _copy(g, self.data.dtype)
        else:
            self.grad += g

    # -- operators --------------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)


# -- recycled buffers ---------------------------------------------------------

RECYCLE_BYTES = 256 * 1024
# byte size -> every buffer of that size made since the list was last
# emptied, in use or free
_buffers: dict[int, list[np.ndarray]] = {}


def _unused(bufs: list[np.ndarray], free_refs: int) -> np.ndarray | None:
    """The first buffer in ``bufs`` whose reference count is ``free_refs``."""
    for buf in bufs:
        if sys.getrefcount(buf) == free_refs:
            return buf
    return None


# The count ``_unused`` reads for a buffer that only its list holds (3 on
# CPython 3.11: the list, the loop variable and getrefcount's argument),
# measured rather than assumed, because it depends on the interpreter.
_FREE_REFS = next(r for r in range(1, 8) if _unused([np.empty(0, np.uint8)], r) is not None)


def _buffer(shape: tuple[int, ...], dtype) -> np.ndarray:
    """An uninitialised C-contiguous array, carved from a free buffer of its
    byte size or from a new one that joins the free list."""
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    bufs = _buffers.setdefault(nbytes, [])
    buf = _unused(bufs, _FREE_REFS)
    if buf is None:
        buf = np.empty(nbytes, np.uint8)
        bufs.append(buf)
    return buf.view(dtype).reshape(shape)


def release_buffers() -> None:
    """Empty the free list. A buffer still in use lives on in its holders and
    is freed with them."""
    _buffers.clear()


def _ew(f, *args):
    """``f(*args)`` for a ufunc over arrays and scalars; when an array operand
    is large, the result goes into a recycled buffer."""
    for v in args:
        if getattr(v, "nbytes", 0) >= RECYCLE_BYTES:
            shape = np.broadcast_shapes(*(np.shape(u) for u in args))
            return f(*args, out=_buffer(shape, np.result_type(*args)))
    return f(*args)


def _copy(g: np.ndarray, dtype) -> np.ndarray:
    """A C-ordered copy of ``g`` in ``dtype``; a large one is recycled."""
    out = _empty(g.shape, dtype)
    np.copyto(out, g)
    return out


_outer = functools.partial(np.multiply, order="C")


def _gemm(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w``; a large product goes into a recycled buffer.

    A product outgrows ``x`` only when its inner axis is the shorter one or
    ``w`` has more leading axes, as when a bank's output layer maps one
    column per member back to its input width; only then are two small
    operands sized up. The leading axes are taken from the operand with more
    of them; under other broadcasts the size errs small, and the product is
    not recycled.

    With an inner axis of length one every element is a single product, so
    the product is a broadcast multiply, in a fraction of numpy's time. It
    gives numpy's bits, except that a zero product keeps its sign where
    numpy's loop, which adds the product to zero, makes it +0. The multiply
    is asked for C order, the order numpy's product returns: left to itself
    it would follow the operands' strides, and callers reshape the product
    in place.
    """
    f = _outer if x.shape[-1] == 1 else np.matmul
    if x.nbytes < RECYCLE_BYTES and w.nbytes < RECYCLE_BYTES and \
            x.shape[-1] >= w.shape[-1] and x.ndim >= w.ndim:
        return f(x, w)
    lead = x.shape[:-2] if x.ndim >= w.ndim else w.shape[:-2]
    if math.prod(lead) * x.shape[-2] * w.shape[-1] * x.itemsize < RECYCLE_BYTES:
        return f(x, w)
    shape = np.broadcast_shapes(x.shape[:-2], w.shape[:-2]) + (x.shape[-2], w.shape[-1])
    return f(x, w, out=_buffer(shape, np.result_type(x, w)))


def _product(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` in a fresh array, as :func:`_gemm` computes it."""
    return _outer(x, w) if x.shape[-1] == 1 else x @ w


def _empty(shape: tuple[int, ...], dtype) -> np.ndarray:
    """An uninitialised C-contiguous array; a large one is recycled."""
    if math.prod(shape) * np.dtype(dtype).itemsize < RECYCLE_BYTES:
        return np.empty(shape, dtype)
    return _buffer(shape, dtype)


def _reshaped(x: np.ndarray, shape) -> np.ndarray:
    """``x.reshape(shape)``; an ``x`` that is not C-contiguous is first copied
    by :func:`_copy`."""
    if x.flags.c_contiguous:
        return x.reshape(shape)
    return _copy(x, x.dtype).reshape(shape)


# A forward kernel's (gemm, multiply, empty): recycled buffers for large
# arrays, judged per array, or plain numpy with no size checks.
RECYCLING = (_gemm, functools.partial(_ew, np.multiply), _empty)
FRESH = (_product, np.multiply, np.empty)


def allocator(x: np.ndarray, width: int) -> tuple:
    """The arrays of a graph-free forward on ``x``, decided once per call
    from the size of its widest arrays, ``width`` features per row of ``x``."""
    return RECYCLING if x.nbytes // x.shape[-1] * width >= RECYCLE_BYTES else FRESH


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


@functools.lru_cache(maxsize=64)
def _column(n: int, value: float, dtype: np.dtype) -> np.ndarray:
    """A read-only ``(n, 1)`` column of ``value``, made once per argument set."""
    col = np.full((n, 1), value, dtype=dtype)
    col.flags.writeable = False
    return col


def _maybe(parents: Sequence[Tensor], data: np.ndarray,
           vjp: Callable[[np.ndarray], None]) -> Tensor:
    """Wrap ``data``; attach ``vjp`` only when recording is on and useful.
    Every op records through here."""
    if _recording and any(p._tracked() for p in parents):
        return Tensor._from_op(data, tuple(parents), vjp)
    return Tensor._from_op(data, (), None)


# -- elementwise arithmetic ---------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b, like=a)

    def vjp(g):
        if a._tracked():
            ga = _unbroadcast(g, a.data.shape)
            a._accum(ga, own=ga is not g)
        if b._tracked():
            gb = _unbroadcast(g, b.data.shape)
            b._accum(gb, own=gb is not g)

    return _maybe((a, b), _ew(np.add, a.data, b.data), vjp)


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b, like=a)

    def vjp(g):
        # b's share first, so that a may keep g
        if b._tracked():
            b._accum(_unbroadcast(_ew(np.negative, g), b.data.shape), own=True)
        if a._tracked():
            a._accum(_unbroadcast(g, a.data.shape), own=True)

    return _maybe((a, b), _ew(np.subtract, a.data, b.data), vjp)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b, like=a)

    def vjp(g):
        if a._tracked():
            a._accum(_unbroadcast(_ew(np.multiply, g, b.data), a.data.shape),
                     own=True)
        if b._tracked():
            b._accum(_unbroadcast(_ew(np.multiply, g, a.data), b.data.shape),
                     own=True)

    return _maybe((a, b), _ew(np.multiply, a.data, b.data), vjp)


def neg(a: Tensor) -> Tensor:
    def vjp(g):
        a._accum(_ew(np.negative, g), own=True)

    return _maybe((a,), _ew(np.negative, a.data), vjp)


# -- reductions ---------------------------------------------------------------

def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        kept = g if axis is None or keepdims else np.expand_dims(g, axis)
        a._accum(np.broadcast_to(kept, a.data.shape))

    return _maybe((a,), np.asarray(out), vjp)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    s = tsum(a, axis=axis, keepdims=keepdims)
    return mul(s, s.data.size / a.data.size)   # the reciprocal of the count, rounded once


# -- shape manipulation -------------------------------------------------------

# The backward of reshape and swapaxes hands a view of ``g`` to the parent
# without copying it. That is safe because ``g`` is the op output's own
# gradient, which ``backward`` drops right after this vjp returns.

def reshape(a: Tensor, shape) -> Tensor:
    def vjp(g):
        a._accum(_reshaped(g, a.data.shape), own=True)

    return _maybe((a,), _reshaped(a.data, shape), vjp)


def swapaxes(a: Tensor, ax1: int, ax2: int) -> Tensor:
    def vjp(g):
        a._accum(g.swapaxes(ax1, ax2), own=True)

    return _maybe((a,), a.data.swapaxes(ax1, ax2), vjp)


def getitem(a: Tensor, key) -> Tensor:
    """``a[key]``; the backward adds ``g`` at ``key`` into zeros shaped as ``a``."""
    def vjp(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, key, g)
        a._accum(ga, own=True)

    return _maybe((a,), a.data[key], vjp)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    widths = [t.data.shape[axis] for t in tensors]
    stops = np.cumsum(widths)

    def vjp(g):
        # the pieces are disjoint views of g, so each parent may keep its own
        pieces = np.split(g, stops[:-1], axis=axis)
        for t, piece in zip(tensors, pieces):
            if t._tracked():
                t._accum(piece, own=True)

    arrays = [t.data for t in tensors]
    shape = list(arrays[0].shape)
    shape[axis] = int(stops[-1])
    out = np.concatenate(arrays, axis=axis, out=_empty(tuple(shape), np.result_type(*arrays)))
    return _maybe(tensors, out, vjp)


# -- nonlinearities -----------------------------------------------------------

# Negative-side slope of every hidden layer's leaky ReLU.
LEAKY_SLOPE = 0.01


def _leaky_grad(g: np.ndarray, sign: np.ndarray, slope: float) -> np.ndarray:
    """``g`` times the leaky ReLU's derivative, 1 where ``sign >= 0`` and
    ``slope`` elsewhere, computed in a fresh array."""
    scale = np.greater_equal(sign, 0, out=_empty(sign.shape, g.dtype))
    scale *= 1.0 - slope
    scale += slope
    scale *= g
    return scale


def linear_kernel(x: np.ndarray, w: np.ndarray, b: np.ndarray, leaky: bool = False,
                  alloc: tuple = RECYCLING) -> np.ndarray:
    """The forward of :func:`linear` on arrays, with no shape checks."""
    gemm, multiply, _ = alloc
    grouped = w.ndim == 3
    out = gemm(x if grouped else x.reshape(-1, x.shape[-1]), w)
    out += b
    if leaky:
        np.maximum(out, multiply(out, LEAKY_SLOPE), out=out)
    return out if grouped else out.reshape(x.shape[:-1] + w.shape[-1:])


def linear(x: Tensor, w: Tensor, b: Tensor, leaky: bool = False) -> Tensor:
    """``x @ w + b``, then, if ``leaky``, a leaky ReLU of ``LEAKY_SLOPE``, as
    one op.

    A ``(D, K)`` weight takes a ``(K,)`` bias, and every leading axis of ``x``
    folds into one GEMM. A grouped weight ``(g, D, K)`` takes a ``(g, 1, K)``
    or per-row ``(g, B, K)`` bias: ``x`` is then ``(g, B, D)``, one block of
    rows per group, or ``(B, D)`` shared by every group, and the output is
    ``(g, B, K)``. numpy runs one GEMM per group, so group i's output and
    gradients equal those of a lone ``linear`` on slice i bit for bit; a
    shared ``x`` takes the sum of the groups' gradients, added in group order.

    The bias and the activation are applied in place, so the op keeps only
    its output. The backward reads the activation's mask from the sign of the
    output: with a slope between 0 and 1 an output of zero or more comes from
    an input of zero or more, which a leaky ReLU passes unscaled. Output and
    gradients equal those of a separate product, bias add and leaky ReLU
    (``max(z, slope * z)``) bit for bit, except for a negative input so small
    that its scaled value underflows to zero.
    """
    xd, wd = x.data, w.data
    grouped = wd.ndim == 3
    if grouped:
        ok = (xd.ndim == 2 or (xd.ndim == 3 and len(xd) == len(wd))) \
            and b.data.shape in {(len(wd), rows, wd.shape[2]) for rows in (1, xd.shape[-2])}
    else:
        ok = xd.ndim >= 2 and wd.ndim == 2
    if not ok or xd.shape[-1] != wd.shape[-2]:
        raise ShapeError(f"linear needs (..., D) x (D, K), or (g, B, D) or (B, D) x "
                         f"(g, D, K) + (g, 1 or B, K), got {x.shape} x {w.shape} + {b.shape}")
    out = linear_kernel(xd, wd, b.data, leaky)

    def vjp(g):
        # gz is g, which backward drops after this call, or a fresh array,
        # so the bias, last to read it, may keep it
        gz = _leaky_grad(g, out, LEAKY_SLOPE) if leaky else g
        if not gz.flags.c_contiguous:
            gz = _copy(gz, gz.dtype)
        g2 = gz if grouped else gz.reshape(-1, wd.shape[1])  # leading axes fold into rows
        if x._tracked():  # a (B, D) input shared by the groups takes their sum
            gx = _gemm(g2, wd.swapaxes(-1, -2))
            gx = gx.sum(axis=0) if gx.ndim > xd.ndim else gx.reshape(xd.shape)
            x._accum(gx, own=True)
        if w._tracked():
            x2 = xd if grouped else xd.reshape(-1, wd.shape[0])
            w._accum(_gemm(x2.swapaxes(-1, -2), g2), own=True)
        if b._tracked():
            b._accum(_unbroadcast(gz, b.data.shape), own=True)

    return _maybe((x, w, b), out, vjp)


def tanh(a: Tensor) -> Tensor:
    out = _ew(np.tanh, a.data)

    def vjp(g):
        ga = _ew(np.multiply, out, out)
        np.subtract(1.0, ga, out=ga)
        ga *= g
        a._accum(ga, own=True)

    return _maybe((a,), out, vjp)


# -- self-attention -----------------------------------------------------------

# Added to the variance before a layer norm's square root.
LN_EPS = 1e-5


def _softmax_rows(s: np.ndarray) -> np.ndarray:
    """Stabilized softmax of each row of ``s`` (last axis), in place when
    ``s`` is C-contiguous (otherwise in a copy, which is returned).

    The row sums are one GEMM against a ones column. numpy's max over a short
    last axis costs about 80 ns a row, so past a few rows per column the row
    max is taken by in-place maxima over the columns instead (under 1 us
    each); both give the same bits.
    """
    n = s.shape[-1]
    flat = s.reshape(-1, n)
    if flat.shape[0] > 8 * n:
        row_max = flat[:, :1].copy()
        for j in range(1, n):
            np.maximum(row_max, flat[:, j:j + 1], out=row_max)
    else:
        row_max = np.maximum.reduce(flat, axis=1, keepdims=True)
    flat -= row_max
    np.exp(flat, out=flat)
    flat /= flat @ _column(n, 1.0, s.dtype)
    return flat.reshape(s.shape)


def attention_block(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wout: Tensor,
                    ln_gain: Tensor, ln_bias: Tensor, *, heads: int) -> Tensor:
    """Multi-head self-attention over the middle axis of ``x`` (B, n, D), then
    a residual connection and a layer norm over the last axis (epsilon
    ``LN_EPS``) with gain ``ln_gain`` and bias ``ln_bias``, as one op.

    ``wq``, ``wk`` and ``wv`` are (D, h*dk) projections whose column blocks
    are the ``heads`` heads, and ``wout`` (h*dk, D) mixes the merged heads.
    Scores are raw query-key products (no scaling), softmaxed over keys.

    Every per-head product is one GEMM per (batch, head) inside numpy, on
    views of unit-stride arrays, and none pairs a plain left operand with a
    transposed right one, the pairing numpy's BLAS runs slowest. So the keys
    come transposed, (B, h*dk, n), from one GEMM per sample, and so does the
    backward's dA^T, the heads' output gradient; the score gradient stays
    transposed, and the softmax backward's per-query sums of P * dP are one
    GEMV in P's row layout. Queries and values come from one GEMM each. The
    heads' outputs go straight into the (B*n, h*dk) input of the output
    projection, and the query, value and key gradients into one
    (B*n, 3*h*dk) array, so one GEMM gives the input's gradient and one the
    three weights'. Nothing is copied to split or merge heads.

    The output equals that of the separate ops (projections, head reshapes,
    softmax, products, residual layer norm) bit for bit, wherever the tests
    have checked it; the gradients match theirs within float rounding. Under
    ``no_grad`` the op records nothing.
    """
    xd, wqd, wod = x.data, wq.data, wout.data
    dim, hd = wqd.shape
    if xd.ndim != 3 or xd.shape[2] != dim or wk.data.shape != wqd.shape \
            or wv.data.shape != wqd.shape or wod.shape != (hd, dim) \
            or ln_gain.data.shape != (dim,) or ln_bias.data.shape != (dim,) \
            or heads < 1 or hd % heads:
        raise ShapeError(
            f"attention_block needs x (B, n, D), wq/wk/wv (D, h*dk), wout (h*dk, D) "
            f"and a (D,) gain and bias, with h*dk divisible by {heads} heads; "
            f"got x {x.shape}, wq {wq.shape}, wk {wk.shape}, wv {wv.shape}, "
            f"wout {wout.shape}, gain {ln_gain.shape}, bias {ln_bias.shape}")
    parents = (x, wq, wk, wv, wout, ln_gain, ln_bias)
    out, kept = attention_kernel(*(t.data for t in parents), heads=heads)
    return _maybe(parents, out, _attention_vjp(parents, *kept))


def attention_kernel(x: np.ndarray, wq, wk, wv, wout, ln_gain, ln_bias, *,
                     heads: int, alloc: tuple = RECYCLING):
    """The forward of :func:`attention_block` on arrays, with no shape checks.
    Returns the output and what the op's vjp keeps: ``(x2, q, v, k_t, p,
    merged, xhat, inv, col)``."""
    gemm, multiply, empty = alloc
    batch, n, dim = x.shape
    hd = wq.shape[1]
    dk = hd // heads
    rows = batch * n
    x2 = _reshaped(x, (rows, dim))
    q = gemm(x2, wq).reshape(batch, n, heads, dk).transpose(0, 2, 1, 3)
    v = gemm(x2, wv).reshape(batch, n, heads, dk).transpose(0, 2, 1, 3)
    # keys transposed, (B, h, dk, n), from one GEMM per sample
    k_t = gemm(wk.T, x.swapaxes(1, 2)).reshape(batch, heads, dk, n)
    p = _softmax_rows(gemm(q, k_t))            # (B, h, n, n)
    merged = empty((rows, hd), x.dtype)
    np.matmul(p, v, out=merged.reshape(batch, n, heads, dk).transpose(0, 2, 1, 3))
    out = gemm(merged, wout)                   # (B*n, D)
    # the sum with the residual is centred and scaled in place
    out += x2
    col = _column(dim, 1.0 / dim, out.dtype)
    out -= out @ col
    xhat, out = out, multiply(out, out)
    inv = out @ col
    inv += LN_EPS
    np.sqrt(inv, out=inv)
    np.reciprocal(inv, out=inv)
    xhat *= inv
    np.multiply(xhat, ln_gain, out=out)
    out += ln_bias
    return out.reshape(x.shape), (x2, q, v, k_t, p, merged, xhat, inv, col)


def _attention_vjp(parents, x2, q, v, k_t, p, merged, xhat, inv, col):
    """The backward of one ``attention_block`` call, over what its forward
    kept."""
    x, wq, wk, wv, wout, gain, bias = parents
    rows, hd = merged.shape
    batch, heads, dk, n = k_t.shape

    def vjp(g):
        g = _reshaped(g, (rows, g.shape[-1]))
        # column sums as GEMMs against a ones row
        ones = np.ones((1, rows), dtype=g.dtype)
        if gain._tracked():
            gain._accum((ones @ _ew(np.multiply, g, xhat)).reshape(-1), own=True)
        if bias._tracked():
            bias._accum((ones @ g).reshape(-1), own=True)
        dz = _ew(np.multiply, g, gain.data)
        term = _ew(np.multiply, dz, xhat)
        dz -= dz @ col
        np.multiply(xhat, term @ col, out=term)
        dz -= term
        del term
        dz *= inv
        g = dz                                       # the residual's gradient too
        if wout._tracked():
            wout._accum(_gemm(merged.T, g), own=True)
        if not any(t._tracked() for t in (x, wq, wk, wv)):
            return
        g_t = g.reshape(batch, n, -1).swapaxes(1, 2)
        # transposed heads' output gradient, (B, h, dk, n), one GEMM per sample
        da_t = _gemm(wout.data, g_t).reshape(batch, heads, dk, n)
        ds_t = _gemm(v, da_t)                        # dP^T = V dA^T, (B, h, n, n)
        p_t = p.swapaxes(-1, -2)
        # dS^T = P^T * (dP^T - r), r the per-query sums of P * dP: one GEMV in P's layout
        r = _ew(np.multiply, p, ds_t.swapaxes(-1, -2)).reshape(-1, n) @ _column(n, 1.0, p.dtype)
        ds_t -= r.reshape(batch, heads, 1, n)
        ds_t *= p_t
        dqvk = _empty((rows, 3 * hd), merged.dtype)
        d_heads = dqvk.reshape(batch, n, 3, heads, dk).transpose(2, 0, 3, 1, 4)
        np.matmul(ds_t.swapaxes(-1, -2), k_t.swapaxes(-1, -2), out=d_heads[0])  # dS K
        np.matmul(p_t, da_t.swapaxes(-1, -2), out=d_heads[1])                  # P^T dA
        np.matmul(ds_t, q, out=d_heads[2])                                     # dS^T Q
        if x._tracked():
            w3 = np.concatenate((wq.data, wv.data, wk.data), axis=1)
            dx = _gemm(dqvk, w3.T)
            dx += g
            x._accum(dx.reshape(x.data.shape), own=True)
        if any(t._tracked() for t in (wq, wk, wv)):
            # one GEMM; each weight's gradient is a view of its column block
            dw = _gemm(x2.T, dqvk)
            for i, t in enumerate((wq, wv, wk)):
                if t._tracked():
                    t._accum(dw[:, i * hd:(i + 1) * hd], own=True)

    return vjp


# -- reverse pass -------------------------------------------------------------

def backward(loss: Tensor, params: Iterable[Tensor]) -> None:
    """Populate ``grad`` on each of ``params`` from a scalar ``loss``.

    Gradients are fresh per call (previous values are discarded, not
    accumulated). Only the vjps on a path from the loss to one of ``params``
    run, so only they get a gradient and every other leaf keeps the one it
    had; each of them receives every contribution, in the same order
    whichever others are asked for, so its gradient does not depend on them.
    Any parameter the loss does not reach ends up with an all-zero gradient,
    so optimizers can consume the full parameter set unconditionally. The
    graph is left as it was.
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

    params = list(params)
    for p in params:
        p.grad = None
    need = {id(p) for p in params if p._tracked()}
    for t in reversed(tape):  # parents before children
        if any(id(p) in need for p in t._parents):
            need.add(id(t))
    tape = [t for t in tape if id(t) in need]

    if id(loss) in need:
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
