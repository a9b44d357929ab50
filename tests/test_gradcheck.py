"""Finite-difference validation of every differentiable primitive."""

import zlib

import numpy as np
import pytest

from samarl import ndmath as nd

import reference_ops as ref
from gradcheck import GradientCheckError, gradient_check


def _p(rng, shape):
    return nd.Tensor(rng.normal(size=shape), requires_grad=True, dtype=np.float64)


def test_linear_layer_with_mse_is_tight():
    rng = np.random.default_rng(0)
    w = _p(rng, (6, 4))
    b = _p(rng, (4,))
    x = nd.Tensor(rng.normal(size=(5, 6)), dtype=np.float64)
    target = nd.Tensor(rng.normal(size=(5, 4)), dtype=np.float64)

    def loss():
        diff = ref.matmul(x, w) + b - target
        return nd.tmean(nd.mul(diff, diff))

    assert gradient_check(loss, [w, b]) < 1e-6


PRIMITIVES = [
    ("matmul", lambda rng: _matmul_case(rng)),
    ("add_broadcast", lambda rng: _binary_case(rng, nd.add, (4, 3), (3,))),
    ("sub", lambda rng: _binary_case(rng, nd.sub, (4, 3), (4, 3))),
    ("mul", lambda rng: _binary_case(rng, nd.mul, (4, 3), (4, 3))),
    ("softmax", lambda rng: _unary_case(rng, lambda t: ref.softmax(t, axis=-1), (4, 5))),
    # attention score shape (batch, heads, agents, agents)
    ("softmax_scores", lambda rng: _unary_case(
        rng, lambda t: ref.softmax(t, axis=-1), (2, 3, 4, 8))),
    # one agent: every row is a single element
    ("softmax_one_column", lambda rng: _unary_case(
        rng, lambda t: ref.softmax(t, axis=-1), (2, 3, 4, 1))),
    ("leaky_relu", lambda rng: _unary_case(rng, ref.leaky_relu, (4, 5))),
    ("tanh", lambda rng: _unary_case(rng, nd.tanh, (4, 5))),
    ("layer_norm", lambda rng: _layer_norm_case(rng, (3, 6))),
    ("layer_norm_tokens", lambda rng: _layer_norm_case(rng, (2, 4, 8))),
    ("linear_2d", lambda rng: _linear_case(rng, (5, 6), False)),
    ("linear_3d", lambda rng: _linear_case(rng, (2, 4, 6), False)),
    ("linear_leaky_2d", lambda rng: _linear_case(rng, (5, 6), True)),
    ("linear_leaky_3d", lambda rng: _linear_case(rng, (2, 4, 6), True)),
    # a bank of 3 groups: one row block per group, or rows every group reads
    ("linear_grouped", lambda rng: _grouped_linear_case(rng, (3, 5, 6), False)),
    ("linear_grouped_shared", lambda rng: _grouped_linear_case(rng, (5, 6), False)),
    ("linear_leaky_grouped", lambda rng: _grouped_linear_case(rng, (3, 5, 6), True)),
    ("linear_leaky_grouped_shared", lambda rng: _grouped_linear_case(rng, (5, 6), True)),
    # a (g, B, K) bias, one row per input row, as the one-to-one policy step uses
    ("linear_leaky_grouped_row_bias", lambda rng: _grouped_linear_case(
        rng, (5, 6), True, bias_rows=5)),
    # row 0 taken twice: its gradient is the sum of both
    ("getitem_repeated", lambda rng: _unary_case(
        rng, lambda t: nd.getitem(t, (np.array([[0], [2], [0]]), np.array([[1, 3]]))), (3, 5))),
    ("residual_layer_norm", lambda rng: _residual_layer_norm_case(rng, (2, 4, 8))),
    ("residual_layer_norm_shared", lambda rng: _residual_shared_case(rng)),
    ("concat", lambda rng: _concat_case(rng)),
    ("reshape_swap", lambda rng: _unary_case(
        rng, lambda t: nd.swapaxes(nd.reshape(t, (2, 2, 5)), -1, -2), (4, 5))),
    ("reshape_swap_shared", lambda rng: _shared_shape_case(rng)),
    ("sum_axis", lambda rng: _unary_case(rng, lambda t: nd.tsum(t, axis=0), (4, 5))),
    ("mean_keepdims", lambda rng: _unary_case(
        rng, lambda t: nd.tmean(t, axis=-1, keepdims=True), (4, 5))),
]


def _reduce(out):
    # fold arbitrary output into a scalar with fixed random weights
    w = nd.Tensor(np.linspace(0.3, 1.7, out.size).reshape(out.shape), dtype=np.float64)
    return nd.tsum(nd.mul(out, w))


def _matmul_case(rng):
    a = _p(rng, (3, 4))
    b = _p(rng, (4, 2))
    return lambda: _reduce(ref.matmul(a, b)), [a, b]


def _binary_case(rng, op, sa, sb):
    a, b = _p(rng, sa), _p(rng, sb)
    return lambda: _reduce(op(a, b)), [a, b]


def _unary_case(rng, op, shape):
    a = _p(rng, shape)
    return lambda: _reduce(op(a)), [a]


def _layer_norm_case(rng, shape):
    x = _p(rng, shape)
    g = _p(rng, shape[-1:])
    b = _p(rng, shape[-1:])
    return lambda: _reduce(ref.layer_norm(x, g, b)), [x, g, b]


def _linear_case(rng, shape, leaky):
    x = _p(rng, shape)
    w = _p(rng, (shape[-1], 3))
    b = _p(rng, (3,))
    return lambda: _reduce(nd.linear(x, w, b, leaky)), [x, w, b]


def _grouped_linear_case(rng, x_shape, leaky, bias_rows=1):
    x = _p(rng, x_shape)
    w = _p(rng, (3, x_shape[-1], 4))
    b = _p(rng, (3, bias_rows, 4))
    return lambda: _reduce(nd.linear(x, w, b, leaky)), [x, w, b]


def _residual_layer_norm_case(rng, shape):
    a, r = _p(rng, shape), _p(rng, shape)
    g = _p(rng, shape[-1:])
    b = _p(rng, shape[-1:])
    return lambda: _reduce(ref.residual_layer_norm(a, r, g, b)), [a, r, g, b]


def _residual_shared_case(rng):
    # both norm inputs come from x, and the residual also feeds a later op;
    # backward runs the norm, then that op (adding into the residual's
    # gradient), then the other input's vjp: a gradient buffer the two
    # inputs shared would show here
    x = _p(rng, (2, 4, 8))
    g = _p(rng, (8,))
    b = _p(rng, (8,))

    def f():
        residual = nd.tanh(x)
        a = nd.mul(x, x)
        later = nd.tanh(residual)
        return _reduce(nd.add(ref.residual_layer_norm(a, residual, g, b), later))

    return f, [x, g, b]


def _concat_case(rng):
    a, b = _p(rng, (3, 2)), _p(rng, (3, 4))
    return lambda: _reduce(nd.concat([a, b], axis=-1)), [a, b]


def _shared_shape_case(rng):
    # x feeds one direct use and two reshape/swapaxes chains, joined by adds.
    # backward runs the chains first, so x's gradient starts as a view handed
    # over by one chain, and the other chain adds into it before the direct
    # use reads its own gradient: any buffer those share would show here
    x = _p(rng, (4, 6))

    def f():
        direct = nd.tanh(x)
        heads = nd.swapaxes(nd.reshape(x, (4, 2, 3)), 0, 1)           # (2, 4, 3)
        back = nd.reshape(nd.swapaxes(nd.mul(heads, heads), 0, 1), (4, 6))
        refolded = nd.reshape(nd.reshape(x, (3, 8)), (4, 6))
        return _reduce(nd.add(nd.add(direct, back), refolded))

    return f, [x]


@pytest.mark.parametrize("name,case", PRIMITIVES, ids=[n for n, _ in PRIMITIVES])
def test_primitive_gradients(name, case):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    f, params = case(rng)
    assert gradient_check(f, params) < 1e-3


@pytest.mark.parametrize("batch", [1, 7])
@pytest.mark.parametrize("heads", [1, 2, 4, 8])     # 8 heads of width 1
@pytest.mark.parametrize("n", [1, 3, 8])
def test_attention_block_gradients(n, heads, batch):
    rng = np.random.default_rng(zlib.crc32(f"attention_block-{n}-{heads}-{batch}".encode()))
    dim = 8
    x = _p(rng, (batch, n, dim))
    # weights at the networks' init scale keep the softmax off saturation
    wq, wk, wv, wout = (nd.Tensor(rng.uniform(-1, 1, (dim, dim)) / np.sqrt(dim),
                                  requires_grad=True, dtype=np.float64) for _ in range(4))
    gain, bias = _p(rng, (dim,)), _p(rng, (dim,))
    params = [x, wq, wk, wv, wout, gain, bias]

    def f():
        return _reduce(nd.attention_block(x, wq, wk, wv, wout, gain, bias, heads=heads))

    assert gradient_check(f, params) < 1e-3


def test_attention_block_without_norm_gradients():
    rng = np.random.default_rng(zlib.crc32(b"attention_block-no-norm"))
    x = _p(rng, (3, 4, 8))
    weights = [nd.Tensor(rng.uniform(-1, 1, (8, 8)) / np.sqrt(8), requires_grad=True,
                         dtype=np.float64) for _ in range(4)]

    def f():
        return _reduce(nd.attention_block(x, *weights, heads=2))

    assert gradient_check(f, [x] + weights) < 1e-3


def test_float32_params_rejected():
    p = nd.Tensor([1.0], requires_grad=True)  # float32 default
    with pytest.raises(GradientCheckError, match="float64"):
        gradient_check(lambda: nd.tsum(nd.mul(p, p)), [p])


def test_non_finite_loss_reported():
    p = nd.Tensor([0.0], requires_grad=True, dtype=np.float64)

    def f():
        bad = nd.Tensor([np.inf], dtype=np.float64)
        return nd.tsum(nd.mul(p, bad))

    with np.errstate(invalid="ignore"):
        with pytest.raises(GradientCheckError):
            gradient_check(f, [p])
