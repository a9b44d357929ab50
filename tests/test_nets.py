"""Network architecture behavior: bounds, equivariance, gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samarl import ndmath as nd
from samarl import nets
from samarl.algo import AlgoKind, TrainConfig, Trainer
from samarl.envs import ScenarioConfig, observation_dim
from samarl.ndmath import Tensor, tensor

import reference_ops as ref
from gradcheck import gradient_check
from test_algo import ConstantQCritic


def rng_for(seed=0):
    return np.random.default_rng(seed)


def zero_params(net):
    for _, p in net.named_parameters():
        p.data[...] = 0.0


class SlotBiasedCritic(nets.CriticNet):
    """Negative control for equivariance: a ``CriticNet`` with a learned
    per-slot offset after the embedding, which ties outputs to agent slots."""

    def __init__(self, obs_dim, act_dim, rng, *, n_agents, hidden_dim=64,
                 dtype=np.float32, **kwargs):
        super().__init__(obs_dim, act_dim, rng, hidden_dim=hidden_dim, dtype=dtype,
                         **kwargs)
        self.pos_bias = Tensor(rng.normal(size=(n_agents, hidden_dim)),
                               requires_grad=True, dtype=dtype)

    def forward(self, obs, act):
        x = ref.leaky_relu(self.embed(nd.concat([obs, act], axis=-1))) + self.pos_bias
        for block in self.blocks:
            x = block.forward(x)
        q = self.q_out(ref.leaky_relu(self.q_hidden(x)))
        return nd.reshape(q, q.shape[:2])


class TestMlpActor:
    def test_zero_parameters_give_zero_action(self):
        actor = nets.MlpActor(6, 2, rng_for())
        zero_params(actor)
        obs = nd.Tensor(np.ones((3, 6)))
        assert np.array_equal(actor.forward(obs).data, np.zeros((1, 3, 2)))

    def test_deterministic(self):
        actor = nets.MlpActor(6, 2, rng_for(1))
        obs = nd.Tensor(rng_for(2).normal(size=(4, 6)))
        a = actor.forward(obs).data
        b = actor.forward(obs).data
        assert np.array_equal(a, b)

    def test_outputs_bounded(self):
        rng = rng_for(3)
        for trial in range(5):
            actor = nets.MlpActor(5, 3, rng_for(trial))
            obs = nd.Tensor(rng.normal(scale=10.0, size=(8, 5)))
            out = actor.forward(obs).data
            assert np.all(out >= -1.0) and np.all(out <= 1.0)

    def test_act_matches_forward(self):
        actor = nets.MlpActor(7, 2, rng_for(4))
        obs = rng_for(5).normal(size=(7,)).astype(np.float32)
        fast = actor.act(obs)
        slow = actor.forward(nd.Tensor(obs[None, :])).data[0, 0]
        assert np.allclose(fast, slow, atol=1e-6)

    def test_act_bitwise_equals_forward(self):
        # rollouts call act; target actions and policy steps call forward
        obs_dim = observation_dim(ScenarioConfig.coop_nav(5), 0)
        actor = nets.MlpActor(obs_dim, 2, rng_for(40))
        rng = rng_for(41)
        for batch in (1, 512):
            obs = rng.normal(size=(batch, obs_dim)).astype(np.float32)
            with nd.no_grad():
                slow = actor.forward(nd.Tensor(obs)).data[0]
            assert np.array_equal(actor.act(obs), slow), batch

    def test_bank_act_bitwise_equals_lone_actors(self):
        # the rollout path: one bank call for n=5 agents against five lone
        # actors drawn in the same order, each acting on its own row
        obs_dim = observation_dim(ScenarioConfig.coop_nav(5), 0)
        rng = rng_for(42)
        lone = [nets.MlpActor(obs_dim, 2, rng) for _ in range(5)]
        bank = nets.stack(lone)
        obs = rng_for(43).normal(size=(5, obs_dim)).astype(np.float32)
        acts = bank.act(obs)
        assert acts.shape == (5, 2)
        for i, actor in enumerate(lone):
            assert np.array_equal(acts[i], actor.act(obs[i])), i
        with nd.no_grad():
            fresh = bank.forward(nd.Tensor(obs[:, None, :])).data[:, 0]
        assert np.array_equal(acts, fresh)

    def test_bank_act_reads_agent_rows_of_every_episode(self):
        # a lockstep batch of 4 episodes: member i acts on agent i of each;
        # an (E, d) product rounds apart from E one-row products in the
        # last float32 bits
        obs_dim = observation_dim(ScenarioConfig.coop_nav(5), 0)
        rng = rng_for(44)
        bank = nets.stack([nets.MlpActor(obs_dim, 2, rng) for _ in range(5)])
        obs = rng_for(45).normal(size=(4, 5, obs_dim)).astype(np.float32)
        acts = bank.act(obs)
        assert acts.shape == (4, 5, 2)
        for e in range(4):
            assert np.allclose(acts[e], bank.act(obs[e]), rtol=1e-5, atol=1e-7), e

    def test_member_views_name_and_shape_a_lone_actor(self):
        lone = [nets.MlpActor(6, 2, rng_for(44), hidden_dim=8) for _ in range(3)]
        bank = nets.stack(lone)
        for i, actor in enumerate(lone):
            member = bank.member(i)
            assert [(k, p.shape) for k, p in member] == \
                [(k, p.shape[1:] if k.endswith("w") else p.shape[2:])
                 for k, p in actor.named_parameters()]
            for (_, view), (_, p) in zip(member, actor.named_parameters()):
                assert np.array_equal(view.data, p.data.reshape(view.shape))
        # writing through a view writes the bank
        bank.member(1)[0][1].data[...] = 7.0
        assert np.all(bank.hidden[0].w.data[1] == 7.0)
        assert not np.any(bank.hidden[0].w.data[[0, 2]] == 7.0)

    def test_gradient_check(self):
        actor = nets.MlpActor(4, 2, rng_for(6), hidden_dim=6, dtype=np.float64)
        obs = nd.Tensor(rng_for(7).normal(size=(3, 4)), dtype=np.float64)
        params = nets.parameters(actor)
        err = gradient_check(lambda: nd.tsum(nd.mul(actor.forward(obs),
                                                    actor.forward(obs))), params)
        assert err < 1e-3


class TestAttentionBlock:
    def test_single_agent_reduces_to_value_projection(self):
        # with one row the softmax weight is exactly 1, so att(X) = X @ Wv
        rng = rng_for(8)
        block = nets.SelfAttentionBlock(4, rng, heads=1, residual_norm=False,
                                        dtype=np.float64)
        block.wout.data[...] = np.eye(4)
        x = nd.Tensor(rng.normal(size=(2, 1, 4)), dtype=np.float64)
        out = block.forward(x)
        expected = x.data @ block.wv.data
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_permutation_equivariance(self):
        rng = rng_for(9)
        block = nets.SelfAttentionBlock(8, rng, heads=2, dtype=np.float64)
        x = rng.normal(size=(3, 5, 8))
        perm = rng.permutation(5)
        out = block.forward(nd.Tensor(x, dtype=np.float64)).data
        out_p = block.forward(nd.Tensor(x[:, perm, :], dtype=np.float64)).data
        assert np.allclose(out_p, out[:, perm, :], atol=1e-10)

    def test_two_agent_identity_projection_oracle(self):
        # D=2, identity projections, no residual/norm:
        # A = X X^T = I, softmax rows [e/(e+1), 1/(e+1)], att = softmax(A) X
        block = nets.SelfAttentionBlock(2, rng_for(10), heads=1, residual_norm=False,
                                        dtype=np.float64)
        for w in (block.wq, block.wk, block.wv, block.wout):
            w.data[...] = np.eye(2)
        x = nd.Tensor(np.eye(2)[None, :, :], dtype=np.float64)
        out = block.forward(x).data[0]
        hi = np.e / (np.e + 1.0)
        lo = 1.0 / (np.e + 1.0)
        assert np.allclose(out, [[hi, lo], [lo, hi]], atol=1e-12)
        assert np.allclose(out, [[0.731, 0.269], [0.269, 0.731]], atol=1e-3)

    def test_stackable_output_length(self):
        rng = rng_for(11)
        block = nets.SelfAttentionBlock(8, rng, heads=4)
        x = nd.Tensor(rng.normal(size=(2, 6, 8)).astype(np.float32))
        for depth in range(3):
            x = block.forward(x)
            assert x.shape == (2, 6, 8)

    def test_gradient_check(self):
        rng = rng_for(12)
        block = nets.SelfAttentionBlock(4, rng, heads=2, dtype=np.float64)
        x = nd.Tensor(rng.normal(size=(2, 3, 4)), dtype=np.float64)
        params = nets.parameters(block)
        fold = nd.Tensor(rng.normal(size=(2, 3, 4)), dtype=np.float64)
        err = gradient_check(lambda: nd.tsum(nd.mul(block.forward(x), fold)), params)
        assert err < 1e-3


class TestCriticNet:
    def _critic(self, seed=13, **kw):
        kw.setdefault("hidden_dim", 16)
        kw.setdefault("heads", 2)
        return nets.CriticNet(5, 2, rng_for(seed), **kw)

    def test_permutation_equivariance(self):
        rng = rng_for(14)
        critic = self._critic(dtype=np.float64)
        obs = rng.normal(size=(4, 6, 5))
        act = rng.normal(size=(4, 6, 2))
        q = critic.forward(nd.Tensor(obs, dtype=np.float64),
                           nd.Tensor(act, dtype=np.float64)).data
        perm = rng.permutation(6)
        qp = critic.forward(nd.Tensor(obs[:, perm], dtype=np.float64),
                            nd.Tensor(act[:, perm], dtype=np.float64)).data
        assert np.allclose(qp, q[:, perm], atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 8), heads=st.sampled_from([1, 2, 4]), batch=st.integers(1, 3),
           seed=st.integers(0, 2**16), data=st.data())
    def test_permutation_property(self, n, heads, batch, seed, data):
        # per-agent Q permutes with the agents; the total Q that q_rows
        # returns does not change
        perm = np.array(data.draw(st.permutations(range(n))))
        rng = rng_for(seed)
        critic = nets.CriticNet(5, 2, rng, hidden_dim=8, heads=heads, dtype=np.float64)
        obs, act = rng.normal(size=(batch, n, 5)), rng.uniform(-1, 1, size=(batch, n, 2))

        def run(method, order):
            return method(nd.Tensor(obs[:, order], dtype=np.float64),
                          nd.Tensor(act[:, order], dtype=np.float64)).data

        same = np.arange(n)
        assert np.allclose(run(critic.forward, perm), run(critic.forward, same)[:, perm],
                           rtol=1e-10, atol=1e-12)
        total = run(critic.q_rows, same)
        assert total.shape == (1, batch)
        assert np.allclose(run(critic.q_rows, perm), total, rtol=1e-10, atol=1e-12)

    def test_positional_bias_breaks_equivariance(self):
        rng = rng_for(15)
        critic = SlotBiasedCritic(5, 2, rng_for(13), hidden_dim=16, heads=2,
                                  dtype=np.float64, n_agents=4)
        obs = rng.normal(size=(2, 4, 5))
        act = rng.normal(size=(2, 4, 2))
        q = critic.forward(nd.Tensor(obs, dtype=np.float64),
                           nd.Tensor(act, dtype=np.float64)).data
        perm = np.array([1, 0, 3, 2])
        qp = critic.forward(nd.Tensor(obs[:, perm], dtype=np.float64),
                            nd.Tensor(act[:, perm], dtype=np.float64)).data
        assert np.max(np.abs(qp - q[:, perm])) > 1e-3

    def test_single_agent_gradient_check(self):
        critic = nets.CriticNet(3, 2, rng_for(16), hidden_dim=8, heads=2,
                                dtype=np.float64)
        rng = rng_for(17)
        obs = nd.Tensor(rng.normal(size=(2, 1, 3)), dtype=np.float64)
        act = nd.Tensor(rng.normal(size=(2, 1, 2)), dtype=np.float64)
        params = nets.parameters(critic)
        err = gradient_check(lambda: nd.tsum(critic.forward(obs, act)), params)
        assert err < 1e-3

    def test_cross_agent_sensitivity(self):
        # Q of agent 0 must react to agent 1's action through attention
        rng = rng_for(18)
        critic = self._critic(dtype=np.float64)
        obs = rng.normal(size=(1, 3, 5))
        act = rng.normal(size=(1, 3, 2))
        base = critic.forward(nd.Tensor(obs, dtype=np.float64),
                              nd.Tensor(act, dtype=np.float64)).data[0, 0]
        act2 = act.copy()
        act2[0, 1, :] += 0.5
        bumped = critic.forward(nd.Tensor(obs, dtype=np.float64),
                                nd.Tensor(act2, dtype=np.float64)).data[0, 0]
        assert abs(bumped - base) > 1e-8

    def test_agent_count_mismatch_rejected(self):
        critic = self._critic()
        with pytest.raises(nd.ShapeError):
            critic.forward(nd.Tensor(np.zeros((2, 3, 5))),
                           nd.Tensor(np.zeros((2, 4, 2))))


class TestTotalQ:
    def test_sum(self):
        q = nd.Tensor([[1.0, -0.5, 2.5]])
        assert nets.total_q(q).data[0] == pytest.approx(3.0)

    def test_single_agent_identity(self):
        q = nd.Tensor([[7.25]])
        assert nets.total_q(q).data[0] == pytest.approx(7.25)

    def test_permutation_invariance(self):
        rng = rng_for(19)
        q = rng.normal(size=(4, 6))
        total = nets.total_q(nd.Tensor(q, dtype=np.float64)).data
        perm = rng.permutation(6)
        total_p = nets.total_q(nd.Tensor(q[:, perm], dtype=np.float64)).data
        assert np.allclose(total, total_p, atol=1e-12)


class TestDoubleCritic:
    """The twin critics of the double-Q kinds, as the trainer builds and reads
    them: two independent networks whose minimum forms the Bellman target."""

    def _trainer(self, kind, seed=20):
        cfg = TrainConfig(hidden_dim=8, attention_heads=2, attention_blocks=1,
                          critic_noise_std=0.0)
        return Trainer(ScenarioConfig.coop_nav(2), kind, cfg, seed=seed)

    def _batch(self, trainer, size=5, seed=21):
        rng = rng_for(seed)
        steps, obs = trainer.buffer.episode_length, (trainer.n, trainer.obs_dim)
        trainer.buffer.push_episode(
            obs=rng.normal(size=(steps + 1,) + obs).astype(np.float32),
            act=rng.uniform(-1, 1, size=(steps, trainer.n, 2)).astype(np.float32),
            rew=rng.normal(size=(steps, 1)).astype(np.float32),
            done=np.zeros(steps, dtype=bool))
        return trainer.buffer.sample(size)

    def _single_twin_targets(self, trainer, batch, twin):
        critics = trainer.target_critics
        trainer.target_critics = [critics[twin]]
        try:
            return trainer.compute_target_y(batch)
        finally:
            trainer.target_critics = critics

    def test_identical_critics_min_is_either(self):
        for kind in (AlgoKind.MATD3, AlgoKind.SA_MATD3):
            trainer = self._trainer(kind)
            nets.copy_params(trainer.target_critics[1], trainer.target_critics[0])
            batch = self._batch(trainer)
            assert np.array_equal(trainer.compute_target_y(batch),
                                  self._single_twin_targets(trainer, batch, 0)), kind

    def test_elementwise_min(self):
        # agent critics: the minimum is taken per agent
        trainer = self._trainer(AlgoKind.MATD3)
        # twin banks: agent 0's twins give 1 and 4, agent 1's give 3 and 2
        trainer.target_critics = [ConstantQCritic([1.0, 3.0], bank=True),
                                  ConstantQCritic([4.0, 2.0], bank=True)]
        batch = self._batch(trainer)
        r = batch.rew[:, :1].astype(np.float64)
        assert np.allclose(trainer.compute_target_y(batch),
                           (r + 0.95 * np.array([1.0, 2.0])).T)
        # shared critic: the minimum is taken over total Q (5 vs 4), not per agent
        trainer = self._trainer(AlgoKind.SA_MATD3)
        trainer.target_critics = [ConstantQCritic([1.0, 4.0]), ConstantQCritic([2.0, 2.0])]
        assert np.allclose(trainer.compute_target_y(batch), r[:, 0] + 0.95 * 4.0)

    def test_min_bounded_by_both(self):
        for kind in (AlgoKind.MATD3, AlgoKind.SA_MATD3, AlgoKind.DSA_MATD3):
            trainer = self._trainer(kind, seed=23)
            batch = self._batch(trainer, seed=24)
            y = trainer.compute_target_y(batch)
            for twin in (0, 1):
                assert np.all(y <= self._single_twin_targets(trainer, batch, twin)), kind

    def test_rejects_shared_instance(self):
        # the twins never share weights, optimizer state or targets
        for kind in (AlgoKind.MATD3, AlgoKind.SA_MATD3, AlgoKind.DSA_MATD3):
            trainer = self._trainer(kind)
            for first, second in (trainer.critics, trainer.target_critics,
                                  trainer.critic_optims):
                assert first is not second, kind
            first, second = trainer.critics
            assert not np.array_equal(nets.parameters(first)[0].data,
                                      nets.parameters(second)[0].data), kind


class TestAttentionActor:
    def test_permutation_equivariance(self):
        rng = rng_for(26)
        actor = nets.AttentionActor(5, 2, rng_for(27), hidden_dim=8, heads=2,
                                    dtype=np.float64)
        obs = rng.normal(size=(2, 4, 5))
        out = actor.forward(nd.Tensor(obs, dtype=np.float64)).data
        perm = rng.permutation(4)
        out_p = actor.forward(nd.Tensor(obs[:, perm], dtype=np.float64)).data
        assert np.allclose(out_p, out[:, perm], atol=1e-10)

    def test_zero_parameters_give_zero_actions(self):
        actor = nets.AttentionActor(5, 2, rng_for(28), hidden_dim=8, heads=2)
        zero_params(actor)
        # zero gain wipes the layer-norm output, so the head sees zeros
        out = actor.forward(nd.Tensor(np.ones((1, 3, 5)))).data
        assert np.array_equal(out, np.zeros((1, 3, 2)))

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_output_count_matches_agents(self, n):
        actor = nets.AttentionActor(4, 2, rng_for(29), hidden_dim=8, heads=2)
        obs = rng_for(30).normal(size=(n, 4)).astype(np.float32)
        acts = actor.act(obs)
        assert acts.shape == (n, 2)
        assert np.all(np.abs(acts) <= 1.0)

    def test_act_takes_a_leading_episode_axis(self):
        actor = nets.AttentionActor(4, 2, rng_for(31), hidden_dim=8, heads=2)
        obs = rng_for(32).normal(size=(3, 5, 4)).astype(np.float32)
        acts = actor.act(obs)
        assert acts.shape == (3, 5, 2)
        for e in range(3):
            assert np.allclose(acts[e], actor.act(obs[e]), rtol=1e-5, atol=1e-7), e

    @staticmethod
    def _pp9_actor(dtype, seed=46):
        obs_dim = observation_dim(ScenarioConfig.predator_prey(9), 0)
        return nets.AttentionActor(obs_dim, 2, rng_for(seed), dtype=dtype), obs_dim

    @staticmethod
    def _assert_act_is_forward(actor, obs):
        with nd.no_grad():
            slow = actor.forward(nd.Tensor(obs.reshape((-1,) + obs.shape[-2:]),
                                           dtype=actor.embed.w.dtype)).data
        fast = actor.act(obs)
        assert fast.dtype == slow.dtype
        assert fast.tobytes() == slow.reshape(fast.shape).tobytes()

    # batch 1, a 5-episode lockstep batch, and 400 episodes, whose arrays
    # take recycled buffers
    @pytest.mark.parametrize("episodes", [None, 5, 400])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_act_bitwise_equals_forward(self, episodes, dtype):
        actor, obs_dim = self._pp9_actor(dtype)
        lead = () if episodes is None else (episodes,)
        for trial in range(3):
            obs = rng_for(47 + trial).normal(size=lead + (6, obs_dim)).astype(dtype)
            self._assert_act_is_forward(actor, obs)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_act_reads_live_weights_after_an_adam_step(self, dtype):
        actor, obs_dim = self._pp9_actor(dtype)
        params = nets.parameters(actor)
        optim = nd.Adam(params, lr=1e-2)
        obs = rng_for(48).normal(size=(5, 6, obs_dim)).astype(dtype)
        before = actor.act(obs)
        out = actor.forward(nd.Tensor(obs, dtype=dtype))
        nd.backward(nd.tsum(nd.mul(out, out)), params)
        optim.step()  # updates every parameter in place
        after = actor.act(obs)
        assert not np.array_equal(before, after)
        self._assert_act_is_forward(actor, obs)
        self._assert_act_is_forward(actor, obs[0])

    def test_act_creates_no_tensor(self):
        actor, obs_dim = self._pp9_actor(np.float32)
        obs = rng_for(49).normal(size=(6, obs_dim)).astype(np.float32)
        start = next(tensor._counter)
        actor.act(obs)
        assert next(tensor._counter) == start + 1

    def test_gradient_check(self):
        actor = nets.AttentionActor(3, 2, rng_for(31), hidden_dim=8, heads=2,
                                    dtype=np.float64)
        obs = nd.Tensor(rng_for(32).normal(size=(2, 3, 3)), dtype=np.float64)
        params = nets.parameters(actor)
        err = gradient_check(lambda: nd.tsum(nd.mul(actor.forward(obs),
                                                    actor.forward(obs))), params)
        assert err < 1e-3


class TestCloneAndCopy:
    def test_clone_is_independent(self):
        actor = nets.MlpActor(4, 2, rng_for(33))
        target = nets.clone(actor)
        actor.hidden[0].w.data += 1.0
        name, p = target.named_parameters()[0]
        assert name == "hidden.0.w"
        assert not np.allclose(p.data, actor.hidden[0].w.data)

    def test_copy_params(self):
        a = nets.MlpActor(4, 2, rng_for(34))
        b = nets.MlpActor(4, 2, rng_for(35))
        nets.copy_params(b, a)
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert np.array_equal(pa.data, pb.data)
