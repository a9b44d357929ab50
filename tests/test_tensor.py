"""Tests for the tensor substrate: forward semantics and reverse-mode grads."""

import gc

import numpy as np
import pytest

from samarl import ndmath as nd
from samarl import nets
from samarl.algo import AlgoKind, TrainConfig, Trainer
from samarl.envs import ScenarioConfig
from samarl.ndmath import tensor

import reference_ops as ref


def matmul_oracle(a, b):
    """Triple-loop reference product, independent of numpy's matmul."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for l in range(k):
                acc += float(a[i, l]) * float(b[l, j])
            out[i, j] = acc
    return out


class TestMatmul:
    def test_identity(self):
        b = nd.Tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = nd.Tensor(np.eye(2))
        assert np.allclose(ref.matmul(eye, b).data, b.data)

    def test_hand_sum(self):
        a = nd.Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = nd.Tensor([[1.0], [1.0]])
        assert np.array_equal(ref.matmul(a, b).data, [[3.0], [7.0]])

    def test_against_triple_loop(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        got = ref.matmul(nd.Tensor(a, dtype=np.float64), nd.Tensor(b, dtype=np.float64))
        assert np.allclose(got.data, matmul_oracle(a, b), atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        a = nd.Tensor(np.zeros((2, 3)))
        b = nd.Tensor(np.zeros((2, 3)))
        with pytest.raises(nd.ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ref.matmul(a, b)

    def test_gradient_flows_to_both_inputs(self):
        a = nd.Tensor(np.ones((2, 3)), requires_grad=True)
        b = nd.Tensor(np.ones((3, 2)), requires_grad=True)
        loss = nd.tsum(ref.matmul(a, b))
        nd.backward(loss, params=[a, b])
        assert a.grad is not None and b.grad is not None
        assert np.allclose(a.grad, 2.0)  # each element feeds 2 outputs
        assert np.allclose(b.grad, 2.0)

    def test_batched(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 3, 4))
        w = rng.normal(size=(4, 2))
        got = ref.matmul(nd.Tensor(a, dtype=np.float64), nd.Tensor(w, dtype=np.float64))
        for i in range(5):
            assert np.allclose(got.data[i], matmul_oracle(a[i], w))


class TestSoftmax:
    def test_symmetry(self):
        out = ref.softmax(nd.Tensor([0.0, 0.0]), axis=0)
        assert np.allclose(out.data, [0.5, 0.5])

    def test_shift_invariance(self):
        for c in (-3.0, 0.0, 17.5):
            out = ref.softmax(nd.Tensor([c, c, c]), axis=0)
            assert np.allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-9)

    def test_direct_evaluation_oracle(self):
        x = np.array([1.0, 2.0, 3.0])
        expected = np.exp(x) / np.exp(x).sum()
        out = ref.softmax(nd.Tensor(x, dtype=np.float64), axis=0)
        assert np.allclose(out.data, expected, atol=1e-12)
        # frozen values from the direct exp/sum evaluation above
        assert np.allclose(out.data, [0.0900, 0.2447, 0.6652], atol=1e-4)

    def test_rows_sum_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(11)
        x = rng.normal(scale=4.0, size=(6, 9)).astype(np.float64)
        s = ref.softmax(nd.Tensor(x, dtype=np.float64), axis=-1).data
        assert np.allclose(s.sum(axis=-1), 1.0, atol=1e-9)
        assert np.all(s >= 0)
        shifted = ref.softmax(nd.Tensor(x + 123.456, dtype=np.float64), axis=-1).data
        assert np.allclose(s, shifted, atol=1e-9)

    @pytest.mark.parametrize("rows", [3, 60])
    def test_large_logits_against_stable_oracle(self, rows):
        # a few rows take numpy's row max, many rows (over 8 per column) take
        # it column by column; logits this large overflow exp unless every
        # row's own max is subtracted
        rng = np.random.default_rng(17)
        x = rng.normal(scale=5000.0, size=(rows, 5))
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        out = ref.softmax(nd.Tensor(x, dtype=np.float64), axis=-1).data
        assert np.allclose(out, e / e.sum(axis=-1, keepdims=True), rtol=1e-12, atol=1e-300)

    def test_invalid_axis(self):
        with pytest.raises(nd.ShapeError):
            ref.softmax(nd.Tensor([1.0, 2.0]), axis=2)


class TestLayerNorm:
    def _unit(self, n, dtype=np.float64):
        return nd.Tensor(np.ones(n), dtype=dtype), nd.Tensor(np.zeros(n), dtype=dtype)

    def test_two_point_symmetry(self):
        g, b = self._unit(2)
        out = ref.layer_norm(nd.Tensor([1.0, 3.0], dtype=np.float64), g, b)
        assert np.allclose(out.data, [-1.0, 1.0], atol=1e-4)

    def test_constant_vector_is_zeroed(self):
        g, b = self._unit(5)
        out = ref.layer_norm(nd.Tensor(np.full(5, 2.5), dtype=np.float64), g, b)
        assert np.allclose(out.data, 0.0)

    def test_statistics_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.normal(loc=3.0, scale=2.0, size=8)
        g, b = self._unit(8)
        out = ref.layer_norm(nd.Tensor(x, dtype=np.float64), g, b).data
        assert abs(out.mean()) < 1e-6
        assert abs(out.var() - 1.0) < 1e-3


class TestLeakyRelu:
    @pytest.mark.parametrize("x,expected", [(2.0, 2.0), (-1.0, -0.01), (0.0, 0.0)])
    def test_pointwise(self, x, expected):
        out = ref.leaky_relu(nd.Tensor([x]))
        assert out.data[0] == pytest.approx(expected, abs=1e-9)


class TestBackward:
    def test_sum_gives_ones(self):
        p = nd.Tensor(np.arange(6, dtype=np.float64).reshape(2, 3), requires_grad=True,
                      dtype=np.float64)
        nd.backward(nd.tsum(p), params=[p])
        assert np.array_equal(p.grad, np.ones((2, 3)))

    def test_analytic_square(self):
        p = nd.Tensor([1.0, 2.0], requires_grad=True, dtype=np.float64)
        nd.backward(nd.tsum(nd.mul(p, p)), params=[p])
        assert np.allclose(p.grad, [2.0, 4.0])

    def test_unreached_parameter_gets_zero_grad(self):
        used = nd.Tensor([1.0], requires_grad=True)
        unused = nd.Tensor([5.0], requires_grad=True)
        nd.backward(nd.tsum(nd.mul(used, used)), params=[used, unused])
        assert np.allclose(used.grad, [2.0])
        assert np.array_equal(unused.grad, [0.0])

    def test_non_scalar_loss_rejected(self):
        p = nd.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            nd.backward(nd.mul(p, p), params=[p])

    def test_shared_parameter_accumulates(self):
        # w used twice: loss = sum(w*x) + sum(w*y)
        w = nd.Tensor([2.0, 3.0], requires_grad=True, dtype=np.float64)
        x = nd.Tensor([1.0, 1.0], dtype=np.float64)
        y = nd.Tensor([10.0, 20.0], dtype=np.float64)
        nd.backward(nd.tsum(nd.mul(w, x)) + nd.tsum(nd.mul(w, y)), params=[w])
        assert np.allclose(w.grad, [11.0, 21.0])

    def test_grads_are_fresh_per_call(self):
        p = nd.Tensor([1.0], requires_grad=True, dtype=np.float64)
        nd.backward(nd.tsum(nd.mul(p, p)), params=[p])
        first = p.grad.copy()
        nd.backward(nd.tsum(nd.mul(p, p)), params=[p])
        assert np.array_equal(p.grad, first)  # overwritten, not doubled


class TestNeedGradPruning:
    """backward(loss, params=...) runs only the vjps that lead to ``params``."""

    def _policy_loss(self):
        # a bank of actors feeding an attention critic, as in a policy step
        rng = np.random.default_rng(0)
        actor = nets.stack([nets.MlpActor(3, 2, rng, hidden_dim=8, hidden_layers=2)
                            for _ in range(5)])
        critic = nets.CriticNet(3, 2, rng, hidden_dim=8, heads=2, blocks=2)
        obs = nd.Tensor(rng.normal(size=(4, 5, 3)))
        acts = actor.forward(obs)
        loss = -nd.tmean(nets.total_q(critic.forward(obs, acts)))
        return nets.parameters(actor), nets.parameters(critic), loss

    def test_requested_grads_equal_full_backward(self):
        actor_params, critic_params, loss = self._policy_loss()
        nd.backward(loss, params=actor_params + critic_params)
        full = [p.grad for p in actor_params]
        assert all(p.grad is not None for p in critic_params)
        nd.backward(loss, params=actor_params)
        for p, g in zip(actor_params, full):
            assert p.grad is not g and np.array_equal(p.grad, g)

    def test_unrequested_leaves_get_no_gradient(self):
        actor_params, critic_params, loss = self._policy_loss()
        nd.backward(loss, params=actor_params)
        assert all(p.grad is not None for p in actor_params)
        assert all(p.grad is None for p in critic_params)

    def test_graph_is_left_as_it_was(self):
        actor_params, _, loss = self._policy_loss()
        nd.backward(loss, params=actor_params)
        first = [p.grad for p in actor_params]
        nd.backward(loss, params=actor_params)
        for p, g in zip(actor_params, first):
            assert p.grad is not g and np.array_equal(p.grad, g)


class TestFusedOps:
    """linear and residual_layer_norm equal the ops they fuse, bit for bit."""

    @staticmethod
    def _leaves(rng, *shapes):
        return [nd.Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]

    @staticmethod
    def _output_and_grads(f, leaves):
        out = f(*leaves)
        weights = nd.Tensor(np.random.default_rng(1).normal(size=out.shape))
        nd.backward(nd.tsum(nd.mul(out, weights)), params=leaves)
        return [out.data.copy()] + [p.grad.copy() for p in leaves]

    @pytest.mark.parametrize("leaky", [False, True])
    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("batch", [512, 1])
    def test_grouped_linear_equals_separate_calls(self, batch, shared, leaky):
        # 5 groups at the coop_nav n=5 critic's first layer: group i's output
        # and gradients are those of a lone linear on slice i, and rows that
        # every group reads take the groups' gradients summed in group order
        groups, d, k = 5, 30, 64
        rng = np.random.default_rng(6)
        x_shape = (batch, d) if shared else (groups, batch, d)
        x, w, b = self._leaves(rng, x_shape, (groups, d, k), (groups, 1, k))
        fold = rng.normal(size=(groups, batch, k))
        out = nd.linear(x, w, b, leaky)
        nd.backward(nd.tsum(nd.mul(out, fold)), params=[x, w, b])
        x_grads = []
        for i in range(groups):
            xi, wi, bi = (nd.Tensor(a, requires_grad=True) for a in (
                x.data if shared else x.data[i], w.data[i], b.data[i, 0]))
            lone = nd.linear(xi, wi, bi, leaky)
            nd.backward(nd.tsum(nd.mul(lone, fold[i])), params=[xi, wi, bi])
            assert np.array_equal(out.data[i], lone.data), i
            assert np.array_equal(w.grad[i], wi.grad), i
            assert np.array_equal(b.grad[i, 0], bi.grad), i
            x_grads.append(xi.grad)
        if shared:
            assert np.array_equal(x.grad, np.add.reduce(x_grads))
        else:
            assert np.array_equal(x.grad, np.stack(x_grads))

    def test_grouped_linear_rejects_mismatched_groups(self):
        w = nd.Tensor(np.zeros((3, 4, 2)))
        with pytest.raises(nd.ShapeError):
            nd.linear(nd.Tensor(np.zeros((2, 5, 4))), w, nd.Tensor(np.zeros((3, 1, 2))))
        with pytest.raises(nd.ShapeError):
            nd.linear(nd.Tensor(np.zeros((5, 4))), w, nd.Tensor(np.zeros((3, 2))))

    @pytest.mark.parametrize("leaky", [False, True])
    @pytest.mark.parametrize("shape", [(512, 8, 64), (1, 8, 64), (512, 64), (1, 64)])
    def test_linear_equals_composition(self, shape, leaky):
        leaves = self._leaves(np.random.default_rng(5), shape, (shape[-1], 64), (64,))

        def composed(x, w, b):
            z = ref.matmul(x, w) + b
            return ref.leaky_relu(z) if leaky else z

        fused = self._output_and_grads(lambda x, w, b: nd.linear(x, w, b, leaky), leaves)
        for got, want in zip(fused, self._output_and_grads(composed, leaves)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("shape", [(512, 8, 64), (1, 8, 64)])
    def test_residual_layer_norm_equals_composition(self, shape):
        leaves = self._leaves(np.random.default_rng(6), shape, shape,
                              shape[-1:], shape[-1:])
        fused = self._output_and_grads(ref.residual_layer_norm, leaves)
        composed = self._output_and_grads(
            lambda a, r, g, b: ref.layer_norm(nd.add(a, r), g, b), leaves)
        for got, want in zip(fused, composed):
            assert np.array_equal(got, want)

    def test_linear_shape_mismatch_names_both_shapes(self):
        with pytest.raises(nd.ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
            nd.linear(nd.Tensor(np.zeros((2, 3))), nd.Tensor(np.zeros((4, 5))),
                      nd.Tensor(np.zeros(5)))

    def test_residual_layer_norm_rejects_a_broadcast_residual(self):
        # the gradient would come back in the full shape, not the residual's
        a, gain, bias = (nd.Tensor(np.zeros(s)) for s in ((2, 3, 4), (4,), (4,)))
        with pytest.raises(nd.ShapeError, match=r"\(2, 3, 4\).*\(4,\)"):
            ref.residual_layer_norm(a, nd.Tensor(np.zeros(4)), gain, bias)


class TestAttentionBlockOp:
    """nd.attention_block against the separate ops it replaces.

    The forward gives the composition's bits. The gradients take other
    products and sums, so they match within GRAD_TOLERANCE of each tensor's
    largest element. Measured over 6 seeds at batch 512 and n = 3, 8, 16:
    3.2e-6 for the gain and bias, whose sums over the rows run in another
    order, 2.9e-7 for the input, wq and wk, and 0 for wv and wout.
    """

    GRAD_TOLERANCE = 1e-5

    @staticmethod
    def _block(rng, dim=64, heads=4, dtype=np.float32):
        block = nets.SelfAttentionBlock(dim, rng, heads=heads, dtype=dtype)
        # gain and bias off their initial ones and zeros
        block.ln_gain.data[...] = rng.uniform(0.5, 1.5, dim)
        block.ln_bias.data[...] = rng.normal(scale=0.1, size=dim)
        return block

    @staticmethod
    def _run(f, leaves, fold):
        out = f(*leaves)
        nd.backward(nd.tsum(nd.mul(out, fold)), params=leaves)
        return out.data.copy(), [p.grad.copy() for p in leaves]

    # norm: whether the norm's gain and bias are among the requested leaves
    @pytest.mark.parametrize("norm", [True, False])
    @pytest.mark.parametrize("batch,n,heads", [
        (1, 9, 4), (1, 3, 4), (512, 8, 4), (512, 3, 4),
        (1, 9, 64), (5, 3, 64), (512, 8, 64),           # heads of width 1
    ])
    def test_equals_composition(self, batch, n, heads, norm):
        rng = np.random.default_rng(20)
        block = self._block(rng, heads=heads)
        x = nd.Tensor(rng.normal(size=(batch, n, 64)), requires_grad=True)
        weights = [block.wq, block.wk, block.wv, block.wout]
        norm_params = [block.ln_gain, block.ln_bias]
        leaves = [x] + weights + (norm_params if norm else [])
        fold = nd.Tensor(rng.normal(size=(batch, n, 64)))

        def fused(x, wq, wk, wv, wout, *_):
            return nd.attention_block(x, wq, wk, wv, wout, *norm_params, heads=heads)

        def composed(x, wq, wk, wv, wout, *_):
            return ref.attention_block(x, wq, wk, wv, wout, *norm_params, heads=heads)

        out, grads = self._run(fused, leaves, fold)
        want_out, want_grads = self._run(composed, leaves, fold)
        assert out.tobytes() == want_out.tobytes()
        for got, want in zip(grads, want_grads):
            scale = np.abs(want).max()
            assert np.abs(got - want).max() <= self.GRAD_TOLERANCE * scale

    def test_untracked_inputs_record_nothing(self):
        rng = np.random.default_rng(22)
        w = [nd.Tensor(rng.normal(size=(8, 8))) for _ in range(4)]
        out = nd.attention_block(nd.Tensor(rng.normal(size=(2, 3, 8))), *w,
                                 nd.Tensor(np.ones(8)), nd.Tensor(np.zeros(8)), heads=2)
        assert out._vjp is None and out._parents == ()

    @pytest.mark.parametrize("x_shape,w_dim,heads", [
        ((2, 3, 8), 6, 2),    # feature width differs from the weights'
        ((3, 8), 8, 2),       # no agent axis
        ((2, 3, 8), 8, 3),    # 8 columns do not split into 3 heads
        ((2, 3, 8), 8, 0),
    ])
    def test_bad_shapes_raise(self, x_shape, w_dim, heads):
        w = [nd.Tensor(np.zeros((w_dim, 8))) for _ in range(3)]
        wout = nd.Tensor(np.zeros((8, w_dim)))
        norm = nd.Tensor(np.ones(w_dim)), nd.Tensor(np.zeros(w_dim))
        with pytest.raises(nd.ShapeError):
            nd.attention_block(nd.Tensor(np.zeros(x_shape)), *w, wout, *norm, heads=heads)

    def test_gain_without_bias_raises(self):
        # the norm's bias is a required argument, and must be (D,) as the gain
        w = [nd.Tensor(np.zeros((8, 8))) for _ in range(4)]
        x, gain = nd.Tensor(np.zeros((2, 3, 8))), nd.Tensor(np.ones(8))
        with pytest.raises(TypeError):
            nd.attention_block(x, *w, gain, heads=2)
        with pytest.raises(nd.ShapeError):
            nd.attention_block(x, *w, gain, nd.Tensor(np.zeros(4)), heads=2)


class TestGemm:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shapes", [
        ((4096, 1), (1, 64)),          # an attention critic's Q head, input gradient
        ((8, 512, 1), (8, 1, 64)),     # an MLP bank's Q head, input gradient
        ((3, 1), (1, 5)),
        ((2, 7, 1), (1, 4)),           # leading axes on one side only
    ])
    def test_inner_dimension_one_is_numpys_product(self, shapes, dtype):
        rng = np.random.default_rng(23)
        a, b = (rng.normal(size=s).astype(dtype) for s in shapes)
        got = tensor._gemm(a, b)
        want = np.matmul(a, b)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_inner_dimension_one_is_c_ordered_like_numpys(self):
        # operands whose smallest stride is not on their last axis, as the
        # head-split queries and keys of width-1 attention heads are
        rng = np.random.default_rng(24)
        a = rng.normal(size=(1, 9, 4, 1)).transpose(0, 2, 1, 3)
        b = rng.normal(size=(4, 1, 1, 9)).transpose(2, 0, 1, 3)
        got = tensor._gemm(a, b)
        assert got.flags.c_contiguous and got.tobytes() == np.matmul(a, b).tobytes()


class TestRecycling:
    """Large results come from recycled buffers, and never from live ones."""

    @pytest.fixture(autouse=True)
    def fresh_free_list(self):
        gc.collect()  # a trainer of an earlier test dying mid-test would empty the list
        # emptying the free list is safe: arrays in use keep their memory
        nd.release_buffers()

    @staticmethod
    def _recycled_bytes():
        return sum(buf.nbytes for bufs in tensor._buffers.values() for buf in bufs)

    def test_held_output_and_view_keep_their_values(self):
        rng = np.random.default_rng(0)
        a = nd.Tensor(rng.normal(size=(512, 8, 64)), requires_grad=True)  # 1 MB
        expected = np.tanh(a.data), (a.data * a.data)[:, 3]
        held = nd.tanh(a)
        view = nd.mul(a, a).data[:, 3]  # only a view of this output survives

        dropped = nd.add(a, a)
        spot = dropped.data.ctypes.data
        del dropped
        assert nd.add(a, a).data.ctypes.data == spot  # a dropped result is reused

        for _ in range(3):
            out = ref.layer_norm(nd.add(nd.mul(a, a), a), nd.Tensor(np.ones(64)),
                                nd.Tensor(np.zeros(64)))
            nd.backward(nd.tsum(ref.softmax(out)), params=[a])
        assert np.array_equal(held.data, expected[0])
        assert np.array_equal(view, expected[1])

    @staticmethod
    def _recycled_sizes():
        return {nbytes: len(bufs) for nbytes, bufs in tensor._buffers.items()}

    @staticmethod
    def _filled_trainer(n: int, kind=AlgoKind.SA_MATD3) -> Trainer:
        trainer = Trainer(ScenarioConfig.coop_nav(n), kind,
                          TrainConfig(replay_capacity=512), seed=0)
        while len(trainer.buffer) < trainer.cfg.batch_size:
            trainer.run_episode()
        return trainer

    @staticmethod
    def _cycle(trainer: Trainer) -> None:
        """Five backward passes: two critic updates of two twins, one policy
        update."""
        for do_policy in (False, True):
            trainer.update_from_batch(trainer.buffer.sample(512), do_policy)

    def test_update_cycles_reuse_what_the_first_made(self):
        trainer = self._filled_trainer(8)
        self._cycle(trainer)
        first = self._recycled_bytes()
        assert first > 0
        self._cycle(trainer)
        self._cycle(trainer)
        assert self._recycled_bytes() == first

    def test_matd3_update_cycles_reuse_what_the_first_made(self):
        # the MLP banks: one grouped GEMM per layer for all 8 agent critics
        trainer = self._filled_trainer(8, AlgoKind.MATD3)
        self._cycle(trainer)
        first = self._recycled_sizes()
        assert first
        self._cycle(trainer)
        self._cycle(trainer)
        assert self._recycled_sizes() == first

    def test_agent_count_sweep_keeps_only_the_current_count(self):
        totals = []
        for n in (3, 8, 16):
            trainer = self._filled_trainer(n)
            self._cycle(trainer)
            self._cycle(trainer)
            swept = self._recycled_sizes()
            nd.release_buffers()
            self._cycle(trainer)
            self._cycle(trainer)
            assert swept == self._recycled_sizes()  # what this count makes alone
            totals.append(self._recycled_bytes())
            del trainer
            assert tensor._buffers == {}
        assert 0 < totals[0] < totals[1] < totals[2]

    def test_dropping_a_trainer_empties_the_list(self):
        trainer = self._filled_trainer(8)
        self._cycle(trainer)
        a = nd.Tensor(np.random.default_rng(0).normal(size=(512, 8, 64)))  # 1 MB
        held = nd.tanh(a)  # recycled, and still in use when the trainer dies
        expected = np.tanh(a.data)
        assert self._recycled_bytes() > 0
        del trainer
        assert tensor._buffers == {}
        for _ in range(3):  # fills the list again, never with the held output
            nd.tanh(nd.add(a, a))
        assert set(tensor._buffers) == {a.data.nbytes}
        assert np.array_equal(held.data, expected)

    def test_small_arrays_add_nothing(self):
        rng = np.random.default_rng(0)
        actor = nets.AttentionActor(10, 2, rng)
        critic = nets.CriticNet(10, 2, rng)
        obs = nd.Tensor(rng.normal(size=(1, 9, 10)))
        actor.act(obs.data[0])
        nd.backward(nd.tmean(nets.total_q(critic.forward(obs, actor.forward(obs)))),
                    params=nets.parameters(actor) + nets.parameters(critic))
        # a batch-512 MLP step: its (512, 64) activations are 128 KB
        mlp = nets.MlpCritic(20, rng)
        nd.backward(nd.tmean(mlp.forward(nd.Tensor(rng.normal(size=(512, 20))))),
                    params=nets.parameters(mlp))
        assert tensor._buffers == {}


def _tracked(*shape):
    return nd.Tensor(np.random.default_rng(len(shape)).normal(size=shape), requires_grad=True)


# Every op ``samarl.ndmath`` exports, called on tracked inputs.
OPS = {
    "add": lambda: nd.add(_tracked(2, 3), _tracked(3)),
    "sub": lambda: nd.sub(_tracked(2, 3), _tracked(3)),
    "mul": lambda: nd.mul(_tracked(2, 3), _tracked(3)),
    "neg": lambda: nd.neg(_tracked(2, 3)),
    "tsum": lambda: nd.tsum(_tracked(2, 3), axis=0),
    "tmean": lambda: nd.tmean(_tracked(2, 3)),
    "reshape": lambda: nd.reshape(_tracked(2, 3), (3, 2)),
    "swapaxes": lambda: nd.swapaxes(_tracked(2, 3), 0, 1),
    "getitem": lambda: nd.getitem(_tracked(2, 3), (slice(None), 1)),
    "concat": lambda: nd.concat([_tracked(2, 3), _tracked(2, 1)], axis=-1),
    "linear": lambda: nd.linear(_tracked(2, 3, 4), _tracked(4, 5), _tracked(5), leaky=True),
    "tanh": lambda: nd.tanh(_tracked(2, 3)),
    "attention_block": lambda: nd.attention_block(
        _tracked(2, 3, 8), *(_tracked(8, 8) for _ in range(4)), _tracked(8), _tracked(8),
        heads=2),
}


class TestNoGrad:
    def test_every_exported_op_is_covered(self):
        others = {"DEFAULT_DTYPE", "LEAKY_SLOPE", "Adam", "NonFiniteGradError", "ShapeError",
                  "Tensor", "backward", "chunks", "clip_grad_norm", "no_grad",
                  "release_buffers"}
        assert set(nd.__all__) - others == set(OPS)

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_no_graph_recorded(self, op):
        with nd.no_grad():
            out = OPS[op]()
        assert out._vjp is None and out._parents == () and not out.requires_grad
        assert OPS[op]()._vjp is not None  # the same call records outside the block

    def test_flag_restored_after_exception(self):
        p = nd.Tensor([1.0], requires_grad=True)
        try:
            with nd.no_grad():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        out = nd.mul(p, p)
        assert out._vjp is not None and out._parents == (p, p)


class TestShapeOps:
    def test_concat_and_split_gradient(self):
        a = nd.Tensor(np.ones((2, 2)), requires_grad=True, dtype=np.float64)
        b = nd.Tensor(np.ones((2, 3)), requires_grad=True, dtype=np.float64)
        out = nd.concat([a, b], axis=-1)
        assert out.shape == (2, 5)
        weights = nd.Tensor(np.arange(10, dtype=np.float64).reshape(2, 5), dtype=np.float64)
        nd.backward(nd.tsum(nd.mul(out, weights)), params=[a, b])
        assert np.array_equal(a.grad, [[0, 1], [5, 6]])
        assert np.array_equal(b.grad, [[2, 3, 4], [7, 8, 9]])

    def test_reshape_swapaxes_roundtrip(self):
        x = nd.Tensor(np.arange(24, dtype=np.float64).reshape(2, 3, 4),
                      requires_grad=True, dtype=np.float64)
        out = nd.swapaxes(nd.reshape(nd.reshape(x, (2, 12)), (2, 3, 4)), -1, -2)
        nd.backward(nd.tsum(nd.mul(out, out)), params=[x])
        assert np.allclose(x.grad, 2.0 * x.data)


class TestInvariants:
    def test_tanh_bound_and_grad(self):
        x = nd.Tensor(np.linspace(-5, 5, 11), requires_grad=True, dtype=np.float64)
        out = nd.tanh(x)
        assert np.all(np.abs(out.data) < 1.0)
        nd.backward(nd.tsum(out), params=[x])
        assert np.allclose(x.grad, 1.0 - np.tanh(x.data) ** 2)

    def test_forward_determinism_is_bitwise(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(16, 8)).astype(np.float32)
        w = rng.normal(size=(8, 8)).astype(np.float32)

        def run():
            t = ref.leaky_relu(ref.matmul(nd.Tensor(x), nd.Tensor(w)))
            return ref.softmax(t, axis=-1).data.tobytes()

        assert run() == run()

    def test_broadcast_add_unbroadcasts_gradient(self):
        x = nd.Tensor(np.ones((4, 3)), requires_grad=True, dtype=np.float64)
        bias = nd.Tensor(np.zeros(3), requires_grad=True, dtype=np.float64)
        nd.backward(nd.tsum(x + bias), params=[x, bias])
        assert bias.grad.shape == (3,)
        assert np.array_equal(bias.grad, [4.0, 4.0, 4.0])
