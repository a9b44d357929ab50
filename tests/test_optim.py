"""Adam and gradient-clipping behavior."""

import numpy as np
import pytest

from samarl import ndmath as nd
from samarl.ndmath import Adam, NonFiniteGradError, clip_grad_norm


def scalar_adam_oracle(x0, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Hand-stepped scalar Adam, independent of the library implementation."""
    x, m, v = float(x0), 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1 ** t)
        vhat = v / (1 - beta2 ** t)
        x -= lr * mhat / (np.sqrt(vhat) + eps)
    return x


class TestAdam:
    def test_zero_grad_is_identity(self):
        p = nd.Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        opt = Adam([p], lr=0.5)
        before = p.data.copy()
        for _ in range(7):
            p.grad = np.zeros_like(p.data)
            opt.step()
        assert np.array_equal(p.data, before)
        assert opt.t == 7

    def test_first_step_moves_by_lr(self):
        for g in (0.01, 1.0, 250.0):
            p = nd.Tensor(np.array([5.0]), requires_grad=True, dtype=np.float64)
            opt = Adam([p], lr=0.1)
            p.grad = np.array([g])
            opt.step()
            # bias correction makes m_hat/sqrt(v_hat) ~ 1 on the first step
            assert p.data[0] == pytest.approx(5.0 - 0.1, rel=1e-5)

    def test_two_steps_match_hand_oracle(self):
        p = nd.Tensor(np.array([0.7]), requires_grad=True, dtype=np.float64)
        opt = Adam([p], lr=0.1)
        for _ in range(2):
            p.grad = np.array([1.0])
            opt.step()
        expected = scalar_adam_oracle(0.7, [1.0, 1.0], lr=0.1)
        assert p.data[0] == pytest.approx(expected, abs=1e-10)

    def test_missing_grad_treated_as_zero(self):
        p = nd.Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([p], lr=0.1)
        p.grad = None
        opt.step()
        assert p.data[0] == 1.0

    def test_non_finite_grad_aborts(self):
        p = nd.Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([p], lr=0.1)
        p.grad = np.array([np.nan])
        with pytest.raises(NonFiniteGradError, match="nan=1"):
            opt.step()
        assert opt.t == 0  # aborted before any state advanced


    @pytest.mark.parametrize("lr", [0.0, -0.1, np.nan])
    def test_rejects_bad_learning_rate(self, lr):
        with pytest.raises(ValueError, match="learning rate"):
            Adam([nd.Tensor(np.ones(2), requires_grad=True)], lr=lr)


class TestClipGradNorm:
    def test_scales_down_when_over(self):
        g = [np.array([2.0, 0.0])]  # norm 2
        norm = clip_grad_norm(g, 1.0)
        assert norm == pytest.approx(2.0)
        assert np.allclose(g[0], [1.0, 0.0])

    def test_untouched_when_under(self):
        g = [np.array([0.3, 0.4])]  # norm 0.5
        clip_grad_norm(g, 1.0)
        assert np.allclose(g[0], [0.3, 0.4])

    def test_mixed_shapes_norm_oracle(self):
        rng = np.random.default_rng(9)
        grads = [rng.normal(size=s) for s in [(4, 3), (7,), (2, 2, 2)]]
        clip_grad_norm(grads, 1.0)
        # recompute the global norm explicitly, element by element
        total = 0.0
        for g in grads:
            for v in g.reshape(-1):
                total += float(v) * float(v)
        assert np.sqrt(total) == pytest.approx(1.0, abs=1e-9)

    def test_never_increases_norm(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            grads = [rng.normal(scale=rng.uniform(0.01, 5.0), size=(5,))]
            before = float(np.linalg.norm(grads[0]))
            clip_grad_norm(grads, 1.0)
            after = float(np.linalg.norm(grads[0]))
            assert after <= before + 1e-12
            assert after <= 1.0 + 1e-9

    def test_grouped_clips_each_member_as_if_alone(self):
        # member 0 is over the bound, member 1 under it, member 2 all zeros
        rng = np.random.default_rng(22)
        grads = [rng.normal(size=(3, 5, 4)).astype(np.float32),
                 rng.normal(size=(3, 1, 4)).astype(np.float32)]
        grads[0][1] *= 0.01
        grads[1][1] *= 0.01
        grads[0][2] = grads[1][2] = 0.0
        alone = [[g[i].copy() for g in grads] for i in range(3)]
        norms = clip_grad_norm(grads, 1.0, grouped=True)
        assert norms.shape == (3,) and norms[0] > 1.0 > norms[1] and norms[2] == 0.0
        for i, member in enumerate(alone):
            assert norms[i] == clip_grad_norm(member, 1.0)
            for g, want in zip(grads, member):
                assert np.array_equal(g[i], want)

    def test_rejects_bad_max_norm(self):
        with pytest.raises(ValueError):
            clip_grad_norm([np.ones(3)], 0.0)

    def test_rejects_nan_max_norm(self):
        # a NaN bound would never clip: norms > nan is False
        with pytest.raises(ValueError, match="max_norm"):
            clip_grad_norm([np.ones(3)], np.nan)
