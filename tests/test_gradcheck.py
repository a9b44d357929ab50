"""Finite-difference validation of every differentiable primitive."""

import numpy as np
import pytest

from samarl import ndmath as nd
from samarl.ndmath import GradientCheckError, gradient_check


def _p(rng, shape):
    return nd.Tensor(rng.normal(size=shape), requires_grad=True, dtype=np.float64)


def test_linear_layer_with_mse_is_tight():
    rng = np.random.default_rng(0)
    w = _p(rng, (6, 4))
    b = _p(rng, (4,))
    x = nd.Tensor(rng.normal(size=(5, 6)), dtype=np.float64)
    target = nd.Tensor(rng.normal(size=(5, 4)), dtype=np.float64)

    def loss():
        diff = nd.matmul(x, w) + b - target
        return nd.tmean(nd.mul(diff, diff))

    assert gradient_check(loss, [w, b]) < 1e-6


PRIMITIVES = [
    ("matmul", lambda rng: _matmul_case(rng)),
    ("add_broadcast", lambda rng: _binary_case(rng, nd.add, (4, 3), (3,))),
    ("sub", lambda rng: _binary_case(rng, nd.sub, (4, 3), (4, 3))),
    ("mul", lambda rng: _binary_case(rng, nd.mul, (4, 3), (4, 3))),
    ("softmax", lambda rng: _unary_case(rng, lambda t: nd.softmax(t, axis=-1), (4, 5))),
    ("leaky_relu", lambda rng: _unary_case(rng, nd.leaky_relu, (4, 5))),
    ("tanh", lambda rng: _unary_case(rng, nd.tanh, (4, 5))),
    ("layer_norm", lambda rng: _layer_norm_case(rng)),
    ("concat", lambda rng: _concat_case(rng)),
    ("select", lambda rng: _unary_case(rng, lambda t: nd.select(t, 1, axis=1), (4, 3))),
    ("reshape_swap", lambda rng: _unary_case(
        rng, lambda t: nd.swapaxes(nd.reshape(t, (2, 2, 5)), -1, -2), (4, 5))),
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
    return lambda: _reduce(nd.matmul(a, b)), [a, b]


def _binary_case(rng, op, sa, sb):
    a, b = _p(rng, sa), _p(rng, sb)
    return lambda: _reduce(op(a, b)), [a, b]


def _unary_case(rng, op, shape):
    a = _p(rng, shape)
    return lambda: _reduce(op(a)), [a]


def _layer_norm_case(rng):
    x = _p(rng, (3, 6))
    g = _p(rng, (6,))
    b = _p(rng, (6,))
    return lambda: _reduce(nd.layer_norm(x, g, b)), [x, g, b]


def _concat_case(rng):
    a, b = _p(rng, (3, 2)), _p(rng, (3, 4))
    return lambda: _reduce(nd.concat([a, b], axis=-1)), [a, b]


@pytest.mark.parametrize("name,case", PRIMITIVES, ids=[n for n, _ in PRIMITIVES])
def test_primitive_gradients(name, case):
    rng = np.random.default_rng(hash(name) % 2**32)
    f, params = case(rng)
    assert gradient_check(f, params) < 1e-3


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
