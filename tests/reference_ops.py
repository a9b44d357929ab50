"""Reference compositions for the fused ops of ``samarl.ndmath``.

The networks run the fused ops (``linear``, ``attention_block``); these are
the separate ops they replace, kept as the references that the fused ops'
bitwise and gradient tests compare against: a matrix product, a leaky ReLU, a
softmax over the last axis, a layer norm with and without a residual input,
and ``attention_block``, the self-attention block as those ops composed. They
record graphs and recycle large arrays as the package's own ops do.

``one_to_one_policy_q`` is the oracle of ``MlpCritic.policy_q``: the
one-to-one critic input built whole, as an identity-masked mix.
"""

from __future__ import annotations

import numpy as np

from samarl import ndmath as nd
from samarl.ndmath import Tensor
from samarl.ndmath.tensor import (
    LEAKY_SLOPE,
    ShapeError,
    _ew,
    _gemm,
    _leaky_grad,
    _maybe,
    _unbroadcast,
)


def _rows(x: np.ndarray, col: np.ndarray) -> np.ndarray:
    """``x @ col`` over the last axis, kept as a length-1 axis.

    One GEMM against a ``(d, 1)`` column (ones for a sum, ``1/d`` for a mean)
    costs several times less than a numpy reduction over a short last axis.
    """
    return (x.reshape(-1, x.shape[-1]) @ col).reshape(x.shape[:-1] + (1,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; last two axes multiply, leading axes broadcast."""
    x, w = a.data, b.data
    if x.ndim < 2 or w.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} x {b.shape}")
    if x.shape[-1] != w.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")

    # (..., D) @ (D, K) folds into one flat GEMM instead of a per-slice loop
    flat_rhs = w.ndim == 2 and x.ndim > 2
    out = _gemm(x.reshape(-1, x.shape[-1]) if flat_rhs else x, w)
    if flat_rhs:
        out = out.reshape(x.shape[:-1] + w.shape[-1:])

    def vjp(g):
        if a._tracked():
            if flat_rhs:
                ga = _gemm(g.reshape(-1, g.shape[-1]), b.data.T)
                a._accum(ga.reshape(a.data.shape), own=True)
            else:
                a._accum(_unbroadcast(_gemm(g, b.data.swapaxes(-1, -2)),
                                      a.data.shape), own=True)
        if b._tracked():
            if flat_rhs:
                inner = a.data.shape[-1]
                gb = _gemm(a.data.reshape(-1, inner).T, g.reshape(-1, g.shape[-1]))
                b._accum(gb, own=True)
            else:
                b._accum(_unbroadcast(_gemm(a.data.swapaxes(-1, -2), g),
                                      b.data.shape), own=True)

    return _maybe((a, b), out, vjp)


def leaky_relu(a: Tensor, slope: float = LEAKY_SLOPE) -> Tensor:
    """f(x) = x for x >= 0, slope * x otherwise."""

    def vjp(g):
        a._accum(_leaky_grad(g, a.data, slope), own=True)

    # max(x, slope*x) equals the two-branch form for any slope < 1
    out = _ew(np.multiply, a.data, slope)
    return _maybe((a,), np.maximum(a.data, out, out=out), vjp)


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
    out = _ew(np.subtract, flat, row_max[:, None])
    np.exp(out, out=out)
    out /= out @ ones
    out = out.reshape(x.shape)

    def vjp(g):
        ga = _ew(np.multiply, g, out)
        np.subtract(g, _rows(ga, ones), out=ga)
        ga *= out
        a._accum(ga, own=True)

    return _maybe((a,), out, vjp)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale+shift.

    The means are GEMMs against a column of ``1/d`` (see ``_rows``).
    """
    x = a.data
    col = np.full((x.shape[-1], 1), 1.0 / x.shape[-1], dtype=x.dtype)
    xhat = _ew(np.subtract, x, _rows(x, col))
    return _normalized(xhat, col, (a,), gain, bias, eps)


def residual_layer_norm(a: Tensor, residual: Tensor, gain: Tensor, bias: Tensor,
                        eps: float = 1e-5) -> Tensor:
    """``layer_norm(a + residual, gain, bias)`` as one op that keeps no sum.

    The sum is centred in place, so the op keeps one array fewer than the two
    ops it replaces, and both inputs take the normalization's input gradient
    directly. Output and gradients equal the composition's bit for bit.
    """
    x, r = a.data, residual.data
    if x.shape != r.shape:
        raise ShapeError(f"residual_layer_norm needs inputs of one shape, got "
                         f"{a.shape} and {residual.shape}")
    xhat = _ew(np.add, x, r)
    col = np.full((x.shape[-1], 1), 1.0 / x.shape[-1], dtype=xhat.dtype)
    np.subtract(xhat, _rows(xhat, col), out=xhat)
    return _normalized(xhat, col, (a, residual), gain, bias, eps)


def _normalized(xhat: np.ndarray, col: np.ndarray, inputs: tuple[Tensor, ...],
                gain: Tensor, bias: Tensor, eps: float) -> Tensor:
    """Finish a layer norm whose centred input is ``xhat`` (an array of its
    own, normalized in place), routing the input gradient to each of
    ``inputs``."""
    out = _ew(np.multiply, xhat, xhat)
    inv = _rows(out, col)
    inv += eps
    np.sqrt(inv, out=inv)
    np.reciprocal(inv, out=inv)
    xhat *= inv
    np.multiply(xhat, gain.data, out=out)
    out += bias.data

    def vjp(g):
        takers = [t for t in inputs if t._tracked()]
        if takers:
            dxhat = _ew(np.multiply, g, gain.data)
            term = _ew(np.multiply, dxhat, xhat)
            dxhat -= _rows(dxhat, col)
            np.multiply(xhat, _rows(term, col), out=term)
            dxhat -= term
            del term
            dxhat *= inv
            for i, t in enumerate(takers):
                t._accum(dxhat, own=i == len(takers) - 1)
        if gain._tracked():
            gain._accum(_unbroadcast(_ew(np.multiply, g, xhat), gain.data.shape),
                        own=True)
        if bias._tracked():
            gb = _unbroadcast(g, bias.data.shape)
            bias._accum(gb, own=gb is not g)

    return _maybe((*inputs, gain, bias), out, vjp)


def attention_block(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wout: Tensor,
                    ln_gain: Tensor, ln_bias: Tensor, heads: int = 1) -> Tensor:
    """``nd.attention_block`` as separate ops: projections, a head split by
    reshape and swapaxes, scores, softmax, weighted values, merged heads,
    output projection, then the residual layer norm."""
    batch, n, _ = x.shape
    dk = wq.shape[-1] // heads

    def split_heads(t):
        return nd.swapaxes(nd.reshape(t, (batch, n, heads, dk)), 1, 2)

    q = split_heads(matmul(x, wq))                         # (B, h, n, dk)
    k = split_heads(matmul(x, wk))
    v = split_heads(matmul(x, wv))
    scores = matmul(q, nd.swapaxes(k, -1, -2))            # (B, h, n, n)
    attended = matmul(softmax(scores, axis=-1), v)        # (B, h, n, dk)
    merged = nd.reshape(nd.swapaxes(attended, 1, 2), (batch, n, heads * dk))
    return residual_layer_norm(matmul(merged, wout), x, ln_gain, ln_bias)


def one_to_one_inputs(obs: Tensor, fresh: Tensor, stored: np.ndarray) -> Tensor:
    """Critic inputs (n, B, n(d+a)) of the one-to-one policy step: row block
    i holds every observation (B, n, d), agent i's ``fresh`` action and every
    other agent's ``stored`` one (both (B, n, a)), mixed by an identity mask
    (exact, since the masked-out term adds a zero)."""
    batch, n, act_dim = stored.shape
    eye = np.eye(n, dtype=stored.dtype)[:, None, :, None]
    acts = nd.add(nd.mul(nd.reshape(fresh, (1, batch, n, act_dim)), eye),
                  nd.mul(Tensor(stored[None], dtype=stored.dtype), 1 - eye))
    seen = np.broadcast_to(obs.data.reshape(batch, -1), (n, batch, obs.shape[1] * obs.shape[2]))
    return nd.concat([Tensor(seen, dtype=seen.dtype),
                      nd.reshape(acts, (n, batch, n * act_dim))], axis=-1)


def one_to_one_policy_q(critic, obs: Tensor, fresh: Tensor, stored: np.ndarray) -> Tensor:
    """``MlpCritic.policy_q`` on the masked input: the members' Q summed, (B,)."""
    return nd.tsum(critic.forward(one_to_one_inputs(obs, fresh, stored)), axis=0)
