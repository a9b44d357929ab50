"""Trainer mechanics: buffer, scheduler, targets, updates, baseline oracle."""

import copy
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from samarl import ndmath as nd
from samarl import nets
from samarl.algo import (
    AlgoKind,
    Batch,
    NonFiniteLossError,
    ReplayBuffer,
    TrainConfig,
    Trainer,
    soft_update,
    train_step_scheduler,
)
from samarl.checkpoint import CheckpointError, load_checkpoint
from samarl.envs import ScenarioConfig
from samarl.ndmath import Tensor, tensor

import reference_ops as ref


def small_cfg(**overrides):
    defaults = dict(hidden_dim=8, attention_heads=2, attention_blocks=2,
                    batch_size=16, replay_capacity=500, train_start_episodes=0,
                    train_frequency=1)
    defaults.update(overrides)
    return TrainConfig(**defaults)


def fill_buffer(trainer, count, seed=0):
    """Push random whole episodes until the buffer holds ``count`` or more
    transitions."""
    rng = np.random.default_rng(seed)
    steps, shape = trainer.buffer.episode_length, (trainer.n, trainer.obs_dim)
    while len(trainer.buffer) < count:
        trainer.buffer.push_episode(
            obs=rng.normal(size=(steps + 1,) + shape).astype(np.float32),
            act=rng.uniform(-1, 1, size=(steps, trainer.n, 2)).astype(np.float32),
            rew=rng.normal(size=(steps, trainer.env.n_types)).astype(np.float32),
            done=rng.random(steps) < 0.2,
        )


def snapshot(named):
    return {name: t.data.copy() for name, t in named}


class ConstantQCritic:
    """Stub: a fixed output regardless of input, read through the real
    ``q_rows`` of the shared critic, per-agent Q values (B, n) from
    ``forward(obs, act)`` summed into one row, or with ``bank`` that of a bank
    of MLP critics, one value per member (g, B) from ``forward(flat)``."""

    def __init__(self, values, bank=False):
        self.values = np.atleast_1d(np.asarray(values, dtype=np.float32))
        self.bank = bank

    def forward(self, x, act=None):
        if act is None:
            return Tensor(np.repeat(self.values[:, None], x.shape[-2], axis=1))
        return Tensor(np.repeat(self.values[None], x.shape[0], axis=0))

    def q_rows(self, obs, act):
        return (nets.MlpCritic if self.bank else nets.CriticNet).q_rows(self, obs, act)

    def named_parameters(self, prefix=""):
        return []


class ActionSumCritic:
    """Stub: Q_i = sum of agent i's action components (differentiable), read
    through the shared critic's real ``policy_q``."""

    policy_q = nets.CriticNet.policy_q

    def forward(self, obs_t, act_t):
        return nd.tsum(act_t, axis=-1)

    def named_parameters(self, prefix=""):
        return []


def flat_sum_bank(weights, input_dim):
    """A bank of linear MLP critics (no hidden layer) whose member i's Q is
    ``weights[i]`` times the sum of its flat (observations, actions) input."""
    bank = nets.stack([nets.MlpCritic(input_dim, np.random.default_rng(0), hidden_layers=0)
                       for _ in weights])
    bank.out.w.data[...] = np.asarray(weights, dtype=np.float32)[:, None, None]
    bank.out.b.data[...] = 0.0
    return bank


class TestAlgoKind:
    def test_switch_matrix(self):
        k = AlgoKind
        assert not k.MADDPG.double_q and not k.MADDPG.attention_critic
        assert k.MATD3.double_q and not k.MATD3.attention_critic
        assert k.SA_MADDPG.attention_critic
        assert not k.SA_MADDPG.double_q and not k.SA_MADDPG.attention_actor
        assert k.SA_MATD3.attention_critic and k.SA_MATD3.double_q
        assert k.DSA_MADDPG.attention_actor and not k.DSA_MADDPG.double_q
        assert k.DSA_MATD3.attention_actor and k.DSA_MATD3.double_q
        for kind in k:
            # a centralized actor has no per-agent policy for one-to-one updates
            assert kind.attention_critic or not kind.attention_actor

    def test_parse(self):
        assert AlgoKind.parse("SA-MATD3") is AlgoKind.SA_MATD3
        with pytest.raises(ValueError, match="unknown algorithm"):
            AlgoKind.parse("qmix")


class TestTrainConfig:
    def test_defaults_follow_published_setup(self):
        cfg = TrainConfig()
        assert cfg.gamma == 0.95
        assert cfg.tau == 0.01
        assert cfg.batch_size == 512
        assert cfg.train_start_episodes == 10_000
        assert cfg.train_frequency == 5
        assert cfg.action_noise_std == 0.002
        assert cfg.critic_noise_std == 0.001
        assert cfg.mlp_lr == 1e-3
        assert cfg.attention_lr == 1e-4
        assert cfg.grad_clip == 1.0
        assert cfg.replay_capacity == 100_000
        assert cfg.hidden_dim == 64
        assert cfg.hidden_layers == 3
        assert cfg.attention_heads == 4

    @pytest.mark.parametrize("bad", [dict(gamma=1.5), dict(tau=0.0),
                                     dict(mlp_lr=-1.0), dict(action_noise_std=-0.1),
                                     dict(action_low=1.0, action_high=-1.0)])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            TrainConfig(**bad)

    def test_batch_larger_than_buffer_rejected(self):
        # such a run would never draw a batch, so it would never update
        with pytest.raises(ValueError, match="batch_size 1024 exceeds replay_capacity 512"):
            TrainConfig(batch_size=1024, replay_capacity=512)
        TrainConfig(batch_size=512, replay_capacity=512)

    def test_unsupported_dtype_rejected_at_construction(self):
        with pytest.raises(ValueError, match="float16"):
            TrainConfig(dtype="float16")


class TwoArrayBuffer:
    """Reference: a ring of single transitions, with ``obs`` and ``next_obs``
    each held in full and one transition pushed at a time."""

    def __init__(self, capacity, n, obs_dim, act_dim, n_types, rng):
        self.capacity, self.rng, self.size, self.cursor = capacity, rng, 0, 0
        self.obs = np.zeros((capacity, n, obs_dim), dtype=np.float32)
        self.next_obs = np.zeros_like(self.obs)
        self.act = np.zeros((capacity, n, act_dim), dtype=np.float32)
        self.rew = np.zeros((capacity, n_types), dtype=np.float32)
        self.done = np.zeros(capacity, dtype=np.float32)

    def push(self, obs, act, rew, next_obs, done):
        i = self.cursor
        self.obs[i], self.act[i], self.rew[i] = obs, act, rew
        self.next_obs[i], self.done[i] = next_obs, float(done)
        self.cursor = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch_size):
        idx = self.rng.choice(self.size, size=batch_size, replace=False)
        return Batch(obs=self.obs[idx], act=self.act[idx], rew=self.rew[idx],
                     next_obs=self.next_obs[idx], done=self.done[idx])


def random_episode(rng, steps, n=2, obs_dim=3, n_types=2):
    """One episode as ``push_episode`` takes it, in the dtypes a rollout
    hands over (float64 observations and rewards, bool done flags)."""
    return (rng.normal(size=(steps + 1, n, obs_dim)),
            rng.uniform(-1, 1, size=(steps, n, 2)),
            rng.normal(size=(steps, n_types)),
            rng.random(steps) < 0.3)


def assert_same_batch(got, want):
    for field in ("obs", "act", "rew", "next_obs", "done"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field


class TestReplayBuffer:
    def _buffer(self, capacity=5, seed=0, episode_length=1, obs_dims=(3,), n_types=1):
        return ReplayBuffer(capacity, obs_dims=list(obs_dims), act_dim=2, n_types=n_types,
                            episode_length=episode_length, rng=np.random.default_rng(seed))

    def _push_tagged(self, buf, tags):
        """Push ``tags`` as one episode: step t's observation and reward are
        tags[t], its next observation tags[t] + 1."""
        tags = np.asarray(tags, dtype=np.float32)
        obs = np.append(tags, tags[-1] + 1)[:, None, None]
        buf.push_episode(obs=np.repeat(obs, 3, axis=-1),
                         act=np.zeros((len(tags), 1, 2), dtype=np.float32),
                         rew=tags[:, None], done=np.zeros(len(tags), dtype=bool))

    def test_fifo_eviction(self):
        buf = self._buffer(capacity=6, episode_length=3)
        for first in (0, 3, 6):
            self._push_tagged(buf, [first, first + 1, first + 2])
        assert len(buf) == 6
        # the oldest episode is evicted, its observations with it
        assert buf.rew[:, 0].tolist() == [6.0, 7.0, 8.0, 3.0, 4.0, 5.0]
        assert buf.obs[..., 0, 0].tolist() == [[6.0, 7.0, 8.0, 9.0], [3.0, 4.0, 5.0, 6.0]]

    def test_capacity_rounds_up_to_whole_episodes(self):
        buf = self._buffer(capacity=7, episode_length=3)
        assert buf.capacity == 9 and buf.obs.shape == (3, 4, 1, 3)
        for first in (0, 3, 6):
            self._push_tagged(buf, [first, first + 1, first + 2])
        assert len(buf) == 9 and sorted(buf.rew[:, 0].tolist()) == list(range(9))
        self._push_tagged(buf, [9, 10, 11])
        assert len(buf) == 9 and sorted(buf.rew[:, 0].tolist()) == list(range(3, 12))
        batch = buf.sample(9)
        assert np.array_equal(batch.next_obs[:, 0, 0], batch.rew[:, 0] + 1)

    def test_sample_shapes_and_bounds(self):
        buf = self._buffer(capacity=10, episode_length=7)
        self._push_tagged(buf, range(7))
        batch = buf.sample(4)
        assert batch.obs.shape == batch.next_obs.shape == (4, 1, 3)
        assert batch.act.shape == (4, 1, 2)
        assert np.array_equal(batch.obs[:, 0, 0], batch.rew[:, 0])
        assert np.array_equal(batch.next_obs[:, 0, 0], batch.rew[:, 0] + 1)
        assert set(batch.rew[:, 0].tolist()) <= {float(t) for t in range(7)}

    def test_no_duplicates_within_batch(self):
        buf = self._buffer(capacity=20, episode_length=4)
        for first in range(0, 20, 4):
            self._push_tagged(buf, range(first, first + 4))
        for _ in range(50):
            batch = buf.sample(10)
            tags = batch.rew[:, 0].tolist()
            assert len(set(tags)) == len(tags)

    def test_mixed_observation_widths_rejected(self):
        with pytest.raises(ValueError, match="one observation width"):
            self._buffer(obs_dims=(3, 4))

    def test_underfilled_sampling_rejected(self):
        buf = self._buffer()
        self._push_tagged(buf, [1.0])
        with pytest.raises(ValueError, match="cannot sample"):
            buf.sample(2)

    def test_uniformity_chi_square(self):
        m, k, trials = 50, 10, 2000
        buf = self._buffer(capacity=m, seed=123, episode_length=5)
        for first in range(0, m, 5):
            self._push_tagged(buf, range(first, first + 5))
        counts = np.zeros(m)
        for _ in range(trials):
            batch = buf.sample(k)
            for tag in batch.rew[:, 0]:
                counts[int(tag)] += 1
        p = k / m
        expected = trials * p
        sigma = np.sqrt(trials * p * (1 - p))
        z = (counts - expected) / sigma
        assert np.max(np.abs(z)) < 3.0
        chi2 = float(np.sum((counts - expected) ** 2 / (sigma ** 2)))
        # chi-square 0.999 quantile at 49 dof is ~85.35
        assert chi2 < 85.35

    @settings(max_examples=150, deadline=None)
    @given(k=st.integers(1, 8), steps=st.integers(1, 9),
           episodes=st.integers(0, 12), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    @example(k=1, steps=3, episodes=4, seed=0, data=None)
    @example(k=2, steps=3, episodes=6, seed=1, data=None)
    @example(k=3, steps=1, episodes=5, seed=2, data=None)
    @example(k=2, steps=4, episodes=5, seed=3, data=None)
    def test_matches_two_array_layout(self, k, steps, episodes, seed, data):
        # at a capacity of k whole episodes, the ring evicts what k * steps
        # single pushes would, and draws the same batches
        capacity = k * steps
        rng = np.random.default_rng(seed)
        buf = self._buffer(capacity, seed, steps, obs_dims=(3, 3), n_types=2)
        ref = TwoArrayBuffer(capacity, 2, 3, 2, 2, np.random.default_rng(seed))
        assert buf.capacity == capacity and buf.obs.shape == (k, steps + 1, 2, 3)
        for _ in range(episodes):
            obs, act, rew, done = random_episode(rng, steps)
            buf.push_episode(obs, act, rew, done)
            for t in range(steps):
                ref.push(obs[t], act[t], rew[t], obs[t + 1], done[t])
            live = np.arange(ref.size)
            assert (len(buf), buf.cursor) == (ref.size, ref.cursor)
            episode, step = np.divmod(live, steps)
            assert np.array_equal(buf.obs[episode, step], ref.obs[live])
            assert np.array_equal(buf.obs[episode, step + 1], ref.next_obs[live])
            for field in ("act", "rew", "done"):
                assert np.array_equal(getattr(buf, field)[live], getattr(ref, field)[live])
        if len(buf):
            draws = [data.draw(st.integers(1, len(buf))) if data else len(buf)
                     for _ in range(3)]
            for size in draws:
                assert_same_batch(buf.sample(size), ref.sample(size))

    def test_bad_episode_rejected_before_writing(self):
        buf = self._buffer(capacity=6, episode_length=3, obs_dims=(3, 3), n_types=2)
        rng = np.random.default_rng(4)
        buf.push_episode(*random_episode(rng, 3))
        fields = ("obs", "act", "rew", "done")
        before = [getattr(buf, f).copy() for f in fields]
        state = (len(buf), buf.cursor)
        obs, act, rew, done = random_episode(rng, 3)
        bad = [random_episode(rng, 2), random_episode(rng, 4),
               (obs[:3], act, rew, done), (obs, act[:, :1], rew, done),
               (obs[..., :2], act, rew, done), (obs, act, rew[:, :1], done),
               (obs, act, rew, done[:2]), (obs, act[..., :1], rew, done)]
        for episode in bad:
            with pytest.raises(ValueError, match="episode"):
                buf.push_episode(*episode)
        assert all(np.array_equal(a, getattr(buf, f)) for a, f in zip(before, fields))
        assert (len(buf), buf.cursor) == state

    def test_each_observation_stored_once(self):
        # coop_nav(5) at the default capacity: 83.9 MiB as obs plus next_obs,
        # 44.06 MiB as 5000 episodes of 21 observations
        buf = ReplayBuffer(100_000, [22] * 5, 2, 1, 20, np.random.default_rng(0))
        assert buf.obs.shape == (5_000, 21, 5, 22) and buf.capacity == 100_000
        assert buf.obs.nbytes <= 46 * 2**20


class TestSoftUpdate:
    def test_published_rate(self):
        tgt = [Tensor(np.zeros(3))]
        main = [Tensor(np.ones(3))]
        soft_update(tgt, main, tau=0.01)
        assert np.allclose(tgt[0].data, 0.01)

    def test_hard_copy(self):
        tgt = [Tensor(np.zeros(3))]
        main = [Tensor(np.full(3, 7.0))]
        soft_update(tgt, main, tau=1.0)
        assert np.array_equal(tgt[0].data, main[0].data)

    def test_fixed_point(self):
        vals = np.array([1.0, -2.0])
        tgt = [Tensor(vals.copy())]
        main = [Tensor(vals.copy())]
        soft_update(tgt, main, tau=0.3)
        assert np.allclose(tgt[0].data, vals)

    def test_shape_mismatch(self):
        with pytest.raises(nd.ShapeError):
            soft_update([Tensor(np.zeros(3))], [Tensor(np.zeros(4))], 0.5)


class TestScheduler:
    def test_no_update_before_start(self):
        cfg = TrainConfig()
        assert train_step_scheduler(9_999, cfg, AlgoKind.SA_MATD3) == (False, False)

    def test_first_update_at_start(self):
        cfg = TrainConfig()
        assert train_step_scheduler(10_000, cfg, AlgoKind.SA_MATD3) == (True, False)
        assert train_step_scheduler(10_005, cfg, AlgoKind.SA_MATD3) == (True, True)

    def test_delay_halves_policy_updates(self):
        cfg = TrainConfig()
        critic = policy = 0
        for ep in range(100_000):
            c, p = train_step_scheduler(ep, cfg, AlgoKind.SA_MATD3)
            critic += c
            policy += p
        assert critic == 18_000
        assert policy == 9_000  # floor(K / delay)

    def test_non_delayed_kind_updates_policy_every_time(self):
        cfg = TrainConfig()
        for ep in range(10_000, 11_000):
            c, p = train_step_scheduler(ep, cfg, AlgoKind.MADDPG)
            assert c == p


class TestExploration:
    """Rollout noise (``_trainable_actions``, ``run_episode``) and target
    smoothing (``_target_actions``) on the trainer."""

    def _trainer(self, kind=AlgoKind.MATD3, n=2, **cfg):
        return make_trainer(kind, n=n, **cfg)

    def _obs(self, trainer, seed=0):
        return np.random.default_rng(seed).normal(size=(trainer.n, trainer.obs_dim))

    @staticmethod
    def _episode(trainer):
        """One exploring episode: its stored actions and the noise-free
        actions of its stored observations, acted on step by step."""
        trainer.run_episode(explore=True)
        buffer = trainer.buffer
        steps = buffer.episode_length
        first = (buffer.cursor - steps) % buffer.capacity
        clean = np.stack([trainer.actor.act(o) for o in buffer.obs[first // steps, :steps]])
        return buffer.act[first:first + steps], clean

    def test_zero_noise_is_exact(self):
        for kind in (AlgoKind.MATD3, AlgoKind.DSA_MATD3):
            trainer = self._trainer(kind)
            obs = self._obs(trainer)
            out = trainer._trainable_actions(obs, None)
            expected = trainer.actor.act(obs.astype(np.float32))
            assert np.array_equal(out, expected), kind

    def test_always_within_bounds(self):
        trainer = self._trainer()
        rng = np.random.default_rng(2)
        for _ in range(50):
            out = trainer._trainable_actions(rng.normal(size=(2, trainer.obs_dim)),
                                             rng.normal(0.0, 5.0, (2, 2)))
            assert np.all(out >= -1) and np.all(out <= 1)

    def test_noise_is_one_joint_draw(self):
        # an exploring episode draws its noise in one call, the stream that
        # one (n, act_dim) draw per step takes, whatever the actor kind
        for kind in (AlgoKind.MATD3, AlgoKind.DSA_MATD3):
            trainer = self._trainer(kind, n=3, action_noise_std=0.1)
            mirror = copy.deepcopy(trainer.explore_rng)
            stored, clean = self._episode(trainer)
            steps = [np.clip(c + mirror.normal(0.0, 0.1, (3, 2)), -1.0, 1.0) for c in clean]
            assert np.array_equal(stored, np.array(steps, dtype=np.float32)), kind
            assert trainer.explore_rng.random() == mirror.random()

    def test_noise_std_matches_request(self):
        # 25 distinct episodes of 20 steps: 25 * 20 * 8 * 2 = 8000 samples
        trainer = self._trainer(n=8)
        noise = [np.subtract(*self._episode(trainer)) for _ in range(25)]
        assert len({n.tobytes() for n in noise}) == len(noise)
        measured = float(np.std(noise))
        assert abs(measured - 0.002) / 0.002 < 0.05

    def test_evaluation_draws_no_noise(self):
        trainer = self._trainer()
        before = copy.deepcopy(trainer.explore_rng)
        trainer.run_episode(explore=False)
        assert trainer.explore_rng.random() == before.random()

    def test_smoothed_targets_zero_noise(self):
        trainer = self._trainer(critic_noise_std=0.0)
        next_obs = np.ones((6, 2, trainer.obs_dim), dtype=np.float32)
        acts = trainer._target_actions(Tensor(next_obs))
        assert acts.shape == (6, 2, 2)
        # act reads agent i's row of every batch entry with member i
        assert np.array_equal(acts, trainer.target_actor.act(next_obs))

    def test_smoothed_targets_noise_std(self):
        trainer = self._trainer(n=1, critic_noise_std=0.001)
        next_obs = np.full((100_000, 1, trainer.obs_dim), 0.1, dtype=np.float32)
        clean = trainer.target_actor.act(next_obs[:, 0])
        acts = trainer._target_actions(Tensor(next_obs))
        measured = float(np.std(acts[:, 0] - clean))
        assert abs(measured - 0.001) / 0.001 < 0.05
        # single-critic kinds smooth nothing
        plain = self._trainer(AlgoKind.MADDPG, n=1, critic_noise_std=0.001)
        assert np.array_equal(plain._target_actions(Tensor(next_obs))[:, 0],
                              plain.target_actor.act(next_obs[:, 0]))


def make_trainer(kind=AlgoKind.SA_MATD3, n=2, seed=0, scenario="coop_nav", **cfg_over):
    if scenario == "coop_nav":
        scen = ScenarioConfig.coop_nav(n)
    else:
        scen = ScenarioConfig.predator_prey(n)
    return Trainer(scen, kind, small_cfg(**cfg_over), seed=seed)


def manual_batch(trainer, batch_size=8, seed=11, reward=None, done=None):
    rng = np.random.default_rng(seed)
    rew = rng.normal(size=(batch_size, trainer.env.n_types)).astype(np.float32)
    if reward is not None:
        rew[:] = reward
    d = np.zeros(batch_size, dtype=np.float32)
    if done is not None:
        d[:] = done
    def observations():
        return np.stack([rng.normal(size=(batch_size, trainer.obs_dim))
                         for _ in range(trainer.n)], axis=1).astype(np.float32)

    obs = observations()
    act = rng.uniform(-1, 1, size=(batch_size, trainer.n, 2)).astype(np.float32)
    return Batch(obs=obs, act=act, rew=rew, next_obs=observations(), done=d)


class TestComputeTargetY:
    def test_arithmetic_with_stub_critics(self):
        trainer = make_trainer(AlgoKind.SA_MATD3)
        trainer.target_critics = [ConstantQCritic([1.5, 0.5]),   # total 2.0
                                  ConstantQCritic([2.0, 3.0])]   # total 5.0
        batch = manual_batch(trainer, reward=1.0, done=0.0)
        y = trainer.compute_target_y(batch)
        assert np.allclose(y, 1.0 + 0.95 * 2.0)

    def test_terminal_ignores_q(self):
        trainer = make_trainer(AlgoKind.SA_MATD3)
        trainer.target_critics = [ConstantQCritic([100.0, 100.0]),
                                  ConstantQCritic([100.0, 100.0])]
        batch = manual_batch(trainer, reward=-3.0, done=1.0)
        y = trainer.compute_target_y(batch)
        assert np.allclose(y, -3.0)

    def test_double_q_dominance(self):
        trainer = make_trainer(AlgoKind.SA_MATD3, critic_noise_std=0.0)
        batch = manual_batch(trainer)
        y = np.asarray(trainer.compute_target_y(batch))
        obs_t = Tensor(batch.next_obs)
        act_t = Tensor(trainer._target_actions(obs_t).astype(np.float32))
        r = batch.rew[:, 0].astype(np.float64)
        cont = trainer.cfg.gamma * (1.0 - batch.done.astype(np.float64))
        with nd.no_grad():
            for critic in trainer.target_critics:
                y_single = r + cont * nets.total_q(critic.forward(obs_t, act_t)).data
                assert np.all(y <= y_single + 1e-6)

    def test_targets_are_detached_numpy(self):
        trainer = make_trainer(AlgoKind.SA_MATD3)
        y = trainer.compute_target_y(manual_batch(trainer))
        assert isinstance(y, np.ndarray)

    def test_baseline_returns_per_agent_targets(self):
        trainer = make_trainer(AlgoKind.MATD3)
        ys = trainer.compute_target_y(manual_batch(trainer))
        assert isinstance(ys, np.ndarray) and ys.shape == (trainer.n, 8)


class TestCriticUpdate:
    def test_exact_fit_leaves_parameters_unchanged(self, monkeypatch):
        trainer = make_trainer(AlgoKind.SA_MATD3)
        batch = manual_batch(trainer)
        with nd.no_grad():
            obs_t = Tensor(batch.obs)
            act_t = Tensor(batch.act)
            y = trainer.critics[0].q_rows(obs_t, act_t).data
        before = snapshot(trainer.critics[0].named_parameters())
        # feed critic #1's own predictions back as the target
        monkeypatch.setattr(trainer, "compute_target_y", lambda batch: y)
        trainer.critic_update(batch)
        after = snapshot(trainer.critics[0].named_parameters())
        for name in before:
            assert np.allclose(before[name], after[name], atol=1e-7), name

    def test_both_critics_updated_in_one_call(self):
        trainer = make_trainer(AlgoKind.SA_MATD3)
        batch = manual_batch(trainer)
        before = [snapshot(c.named_parameters()) for c in trainer.critics]
        trainer.critic_update(batch)
        for critic, prev in zip(trainer.critics, before):
            after = snapshot(critic.named_parameters())
            assert any(not np.array_equal(prev[k], after[k]) for k in prev)

    def test_scalar_mse_descent_oracle(self):
        # Q(w) = w, target 0, w = 2: gradient is 2w = 4, clipped to 1, so the
        # first Adam step moves w down by ~lr
        w = Tensor(np.array([2.0]), requires_grad=True, dtype=np.float64)
        opt = nd.Adam([w], lr=0.01)
        q = nd.tsum(w)
        loss = nd.tmean(nd.mul(q, q))
        nd.backward(loss, params=[w])
        assert w.grad[0] == pytest.approx(4.0)
        nd.clip_grad_norm([w.grad], 1.0)
        opt.step()
        assert w.data[0] == pytest.approx(2.0 - 0.01, abs=1e-6)

    def test_non_finite_loss_raises(self, monkeypatch):
        trainer = make_trainer(AlgoKind.SA_MATD3)
        batch = manual_batch(trainer)
        monkeypatch.setattr(trainer, "compute_target_y",
                            lambda batch: np.full((1, 8), np.nan, dtype=np.float32))
        with pytest.raises(NonFiniteLossError):
            trainer.critic_update(batch)

    @pytest.mark.parametrize("kind", [AlgoKind.SA_MATD3, AlgoKind.MATD3])
    def test_one_twin_graph_alive_at_a_time(self, kind):
        # twin 1's Q, and the graph that holds it, is gone when twin 2's
        # forward starts
        trainer = make_trainer(kind)
        batch = manual_batch(trainer)
        seen, alive = [], []

        def spy(q_rows):
            def rows(obs, act):
                alive.append([ref() is not None for ref in seen])
                q = q_rows(obs, act)
                seen.append(weakref.ref(q.data))
                return q
            return rows

        for critic in trainer.critics:
            critic.q_rows = spy(critic.q_rows)
        trainer.critic_update(batch)
        assert alive == [[], [False]]


class TestPolicyUpdateOneToAll:
    def test_every_actor_gets_gradient_from_one_critic_pass(self):
        trainer = make_trainer(AlgoKind.SA_MATD3, n=3)
        norms = trainer.policy_update(manual_batch(trainer))
        assert len(norms) == 3
        assert all(n > 0 for n in norms)

    def test_stub_critic_pushes_actions_toward_high_q(self):
        # ascending Q_i = sum(a_i) must move every action component up
        trainer = make_trainer(AlgoKind.SA_MATD3, n=2)
        trainer.critics = [ActionSumCritic(), ActionSumCritic()]
        batch = manual_batch(trainer)
        obs = Tensor(batch.obs)
        before = trainer.actor.forward(obs).data.copy()
        for _ in range(30):
            trainer.policy_update(batch)
        after = trainer.actor.forward(obs).data
        assert np.all(after.mean(axis=0) > before.mean(axis=0))

    def test_critic_parameters_frozen(self):
        trainer = make_trainer(AlgoKind.SA_MATD3)
        before = snapshot(trainer.critics[0].named_parameters())
        trainer.policy_update(manual_batch(trainer))
        after = snapshot(trainer.critics[0].named_parameters())
        for name in before:
            assert np.array_equal(before[name], after[name])

    def test_every_adam_counter_advances_once(self):
        trainer = make_trainer(AlgoKind.SA_MATD3, n=3)
        trainer.policy_update(manual_batch(trainer))
        assert trainer.actor_optim.t == 1  # one Adam for the bank of 3 actors


class TestPolicyUpdateOneToOne:
    def test_only_agent_i_steps(self):
        # actor i learns from critic i alone: with critic 1 blind to its
        # input, actor 1 gets no gradient and only actor 0 steps
        trainer = make_trainer(AlgoKind.MADDPG, n=2)
        trainer.critics[0].out.w.data[1] = 0.0
        batch = manual_batch(trainer)
        before = [snapshot(trainer.actor.member(i)) for i in range(2)]
        norms = trainer.policy_update(batch)
        after = [snapshot(trainer.actor.member(i)) for i in range(2)]
        assert norms[0] > 0 and norms[1] == 0
        assert any(not np.array_equal(before[0][k], after[0][k]) for k in before[0])
        for k in before[1]:
            assert np.array_equal(before[1][k], after[1][k])

    def test_stub_critic_moves_only_agent_i(self):
        # critic 0 rises with every input, critic 1 ignores its input; critic i
        # sees agent i's fresh action and the buffer action of everyone else
        trainer = make_trainer(AlgoKind.MADDPG, n=2)
        trainer.critics = [flat_sum_bank([1.0, 0.0], 2 * (trainer.obs_dim + 2))]
        trainer.target_critics = [nets.clone(trainer.critics[0])]
        batch = manual_batch(trainer)
        obs = Tensor(batch.obs)
        before = trainer.actor.forward(obs).data.copy()
        for _ in range(30):
            trainer.policy_update(batch)
        after = trainer.actor.forward(obs).data
        assert np.all(after[:, 0].mean(axis=0) > before[:, 0].mean(axis=0))
        assert np.array_equal(after[:, 1], before[:, 1])

    @pytest.mark.parametrize("kind", [AlgoKind.MATD3, AlgoKind.SA_MATD3, AlgoKind.DSA_MATD3])
    def test_policy_step_copies_no_per_row_bias_gradient(self, monkeypatch, kind):
        # the split first layer's per-row bias (n, B, hidden) keeps the
        # gradient its linear computes, sub and concat hand the actions'
        # gradient over; what is copied is tsum's broadcasts, (B,) and (n, B)
        trainer = make_trainer(kind, n=3)
        batch = manual_batch(trainer)
        copied = []
        copy = tensor._copy
        monkeypatch.setattr(tensor, "_copy",
                            lambda g, dtype: copied.append(g.size) or copy(g, dtype))
        trainer.policy_update(batch)
        assert copied and max(copied) <= trainer.n * len(batch.obs)

    def test_single_agent_equivalence_of_modes(self):
        # with one agent no buffer action is held fixed, so the one-to-one
        # step must equal a one-to-all step on -mean Q(obs, pi(obs)) by hand
        trainer = make_trainer(AlgoKind.MADDPG, n=1, seed=7, dtype="float64")
        fill_buffer(trainer, 32, seed=9)
        batch = trainer.buffer.sample(16)
        actor = nets.clone(trainer.actor)
        params = nets.parameters(actor)
        obs = Tensor(batch.obs, dtype=np.float64)
        flat = nd.concat([nd.reshape(obs, (16, -1)), nd.reshape(actor.forward(obs), (16, 2))],
                         axis=-1)
        nd.backward(-nd.tmean(trainer.critics[0].forward(flat)), params=params)
        nd.clip_grad_norm([p.grad for p in params], trainer.cfg.grad_clip)
        nd.Adam(params, trainer.cfg.mlp_lr).step()

        trainer.policy_update(batch)
        for (name, p), (_, q) in zip(actor.named_parameters(),
                                     trainer.actor.named_parameters()):
            assert np.allclose(p.data, q.data, atol=1e-12), name


class TestOneToOneOracle:
    """``MlpCritic.policy_q`` (split first layer) against the masked
    formulation of ``reference_ops``: loss and every parameter's gradient,
    actor and critic, from one backward over all of them each."""

    @staticmethod
    def _loss_and_grads(trainer, batch, policy_q, params):
        dtype = trainer.cfg.np_dtype
        obs = Tensor(batch.obs, dtype=dtype)
        fresh = trainer.actor.forward(obs)
        loss = -nd.tmean(policy_q(obs, fresh, batch.act.astype(dtype)))
        nd.backward(loss, params=params)
        return loss.item(), [p.grad.copy() for p in params]

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("n", [1, 3, 5])
    @pytest.mark.parametrize("kind", [AlgoKind.MADDPG, AlgoKind.MATD3])
    def test_policy_q_matches_masked_oracle(self, kind, n, dtype):
        trainer = make_trainer(kind, n=n, seed=n, dtype=dtype)
        batch = manual_batch(trainer, batch_size=32, seed=40 + n)
        critic = trainer.critics[0]
        params = nets.parameters(trainer.actor) + nets.parameters(critic)
        loss, grads = self._loss_and_grads(trainer, batch, critic.policy_q, params)
        want_loss, want_grads = self._loss_and_grads(
            trainer, batch, lambda *args: ref.one_to_one_policy_q(critic, *args), params)
        # float64 to 1e-10; float32 within a few roundings of the largest term
        tol = 1e-10 if dtype == "float64" else 4 * np.finfo(np.float32).eps
        assert abs(loss - want_loss) <= tol * max(1.0, abs(want_loss))
        for (name, _), got, want in zip(trainer.actor.named_parameters("actor.") +
                                        critic.named_parameters("critic."), grads, want_grads):
            assert np.any(want != 0), name
            assert np.max(np.abs(got - want)) <= tol * max(1.0, np.max(np.abs(want))), name


class TestTrainerInvariants:
    def test_targets_trail_within_convex_hull(self):
        trainer = make_trainer(AlgoKind.SA_MATD3, n=2)
        mains = trainer.named_parameters()
        lo = {k: v.data.copy() for k, v in mains}
        hi = {k: v.data.copy() for k, v in mains}
        for step in range(5):
            batch = manual_batch(trainer, seed=100 + step)
            trainer.update_from_batch(batch, do_policy=True)
            for k, v in mains:
                np.minimum(lo[k], v.data, out=lo[k])
                np.maximum(hi[k], v.data, out=hi[k])
        target_named = []
        for j, critic in enumerate(trainer.target_critics):
            target_named += critic.named_parameters(f"shared_critic.{j + 1}.")
        for i in range(trainer.n):
            target_named += trainer.target_actor.member(i, f"actor.{i}.")
        for k, v in target_named:
            assert np.all(v.data >= lo[k] - 1e-6), k
            assert np.all(v.data <= hi[k] + 1e-6), k

    def test_no_gradient_reaches_targets(self):
        trainer = make_trainer(AlgoKind.SA_MATD3)
        batch = manual_batch(trainer)
        trainer.critic_update(batch)
        for net in trainer.target_critics + [trainer.target_actor]:
            for _, p in net.named_parameters():
                assert p.grad is None

    def test_permutation_consistency_of_losses(self):
        # relabeling agents coherently (batch column + actor move together)
        # must leave both losses unchanged
        trainer = make_trainer(AlgoKind.SA_MATD3, n=3, critic_noise_std=0.0)
        batch = manual_batch(trainer)
        perm = [2, 0, 1]

        def critic_loss(order):
            with nd.no_grad():
                tacts = trainer.target_actor.act(batch.next_obs)
                obs_next = Tensor(batch.next_obs[:, order])
                act_next = Tensor(tacts[:, order].astype(np.float32))
                totals = [nets.total_q(c.forward(obs_next, act_next)).data
                          for c in trainer.target_critics]
                y = batch.rew[:, 0] + trainer.cfg.gamma * (1 - batch.done) \
                    * np.minimum(*totals)
                obs_t = Tensor(batch.obs[:, order])
                act_t = Tensor(batch.act[:, order])
                q = nets.total_q(trainer.critics[0].forward(obs_t, act_t)).data
            return float(np.mean((q - y) ** 2))

        def policy_loss(order):
            with nd.no_grad():
                fresh = trainer.actor.forward(Tensor(batch.obs)).data
                obs_t = Tensor(batch.obs[:, order])
                act_t = Tensor(fresh[:, order])
                return -float(np.mean(
                    nets.total_q(trainer.critics[0].forward(obs_t, act_t)).data))

        assert critic_loss([0, 1, 2]) == pytest.approx(critic_loss(perm), abs=1e-5)
        assert policy_loss([0, 1, 2]) == pytest.approx(policy_loss(perm), abs=1e-5)

    def test_predator_prey_trains_predators_only(self):
        trainer = make_trainer(AlgoKind.SA_MATD3, n=6, scenario="predator_prey")
        assert trainer.n == 4
        assert trainer.buffer.obs.shape[1:] == (21, 4, trainer.obs_dim)
        rewards = trainer.run_episode(explore=True)
        assert rewards.shape == (2,)
        assert len(trainer.buffer) == 20

    def test_scheduler_gates_training(self):
        trainer = make_trainer(AlgoKind.SA_MATD3, train_start_episodes=50,
                               train_frequency=5)
        _, stats = trainer.train_episode()
        assert stats == {}  # episode 0 < start


class TestBaselineRecovery:
    """Hand-stepped MADDPG Eq.-style update vs the framework, to 1e-8."""

    B1, B2, EPS = 0.9, 0.999, 1e-8

    def _adam(self, p, g, lr, t=1):
        m = (1 - self.B1) * g
        v = (1 - self.B2) * g * g
        return p - lr * (m / (1 - self.B1 ** t)) / (
            np.sqrt(v / (1 - self.B2 ** t)) + self.EPS)

    def _clip(self, grads, max_norm=1.0):
        norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
        if norm > max_norm:
            grads = [g * (max_norm / norm) for g in grads]
        return grads

    def test_two_agent_linear_network_oracle(self):
        cfg = small_cfg(dtype="float64", hidden_layers=0, batch_size=8,
                        critic_noise_std=0.0)
        trainer = Trainer(ScenarioConfig.coop_nav(2), AlgoKind.MADDPG, cfg, seed=5)
        fill_buffer(trainer, 16, seed=6)
        batch = trainer.buffer.sample(8)
        n, B = trainer.n, 8
        gamma = cfg.gamma

        # member i of each bank is agent i's network
        actor, critic = trainer.actor, trainer.critics[0]
        wa = list(actor.out.w.data.copy())
        ba = list(actor.out.b.data[:, 0].copy())
        wc = list(critic.out.w.data.copy())
        bc = list(critic.out.b.data[:, 0].copy())

        # --- oracle: targets (target nets equal main nets before any update)
        next_obs = [batch.next_obs[:, j] for j in range(n)]
        obs = [batch.obs[:, j] for j in range(n)]
        tgt_acts = np.stack([np.tanh(next_obs[j] @ wa[j] + ba[j])
                             for j in range(n)], axis=1)
        x_next = np.concatenate(next_obs + [tgt_acts.reshape(B, -1)], axis=1)
        r = batch.rew[:, 0].astype(np.float64)
        cont = gamma * (1.0 - batch.done.astype(np.float64))
        ys = [(r + cont * (x_next @ wc[i] + bc[i]).reshape(-1)) for i in range(n)]

        # --- oracle: critic MSE step per agent
        x = np.concatenate(obs + [batch.act.reshape(B, -1)], axis=1)
        x64 = x.astype(np.float64)
        wc_new, bc_new = [], []
        for i in range(n):
            q = (x64 @ wc[i] + bc[i]).reshape(-1)
            dq = 2.0 * (q - ys[i]) / B
            dw = x64.T @ dq[:, None]
            db = np.array([dq.sum()])
            dw, db = self._clip([dw, db], cfg.grad_clip)
            wc_new.append(self._adam(wc[i], dw, cfg.mlp_lr))
            bc_new.append(self._adam(bc[i], db, cfg.mlp_lr))

        # --- oracle: one-to-one policy step per agent (uses updated critic)
        obs_offset = n * trainer.obs_dim
        wa_new, ba_new = [], []
        for i in range(n):
            o64 = obs[i].astype(np.float64)
            a_i = np.tanh(o64 @ wa[i] + ba[i])
            col = slice(obs_offset + 2 * i, obs_offset + 2 * i + 2)
            dq = np.full(B, -1.0 / B)
            da = dq[:, None] * wc_new[i][col, 0][None, :]
            dz = da * (1.0 - a_i * a_i)
            dw = o64.T @ dz
            db = dz.sum(axis=0)
            dw, db = self._clip([dw, db], cfg.grad_clip)
            wa_new.append(self._adam(wa[i], dw, cfg.mlp_lr))
            ba_new.append(self._adam(ba[i], db, cfg.mlp_lr))

        # --- framework path
        trainer.update_from_batch(batch, do_policy=True)

        for i in range(n):
            assert np.max(np.abs(critic.out.w.data[i] - wc_new[i])) < 1e-8
            assert np.max(np.abs(critic.out.b.data[i, 0] - bc_new[i])) < 1e-8
            assert np.max(np.abs(actor.out.w.data[i] - wa_new[i])) < 1e-8
            assert np.max(np.abs(actor.out.b.data[i, 0] - ba_new[i])) < 1e-8


class TestCheckpointFlow:
    def test_save_restore_round_trip(self, tmp_path):
        trainer = make_trainer(AlgoKind.SA_MATD3, n=2, seed=3)
        trainer.save(tmp_path / "ck", episode=42)
        other = make_trainer(AlgoKind.SA_MATD3, n=2, seed=99)
        episode = other.restore(tmp_path / "ck")
        assert episode == 42
        for (ka, pa), (kb, pb) in zip(trainer.named_parameters(),
                                      other.named_parameters()):
            assert ka == kb
            assert np.array_equal(pa.data, pb.data)

    @staticmethod
    def _strip_architecture(path):
        # a checkpoint saved before the manifest recorded the architecture
        manifest = path / "manifest.txt"
        lines = manifest.read_text().splitlines(keepends=True)
        manifest.write_text("".join(l for l in lines if not l.startswith("train.")))

    def test_manifest_records_architecture(self, tmp_path):
        trainer = make_trainer(AlgoKind.SA_MATD3, n=2)
        path = trainer.save(tmp_path / "ck", episode=0)
        manifest, _ = load_checkpoint(path)
        assert manifest.train == {"hidden_dim": "8", "hidden_layers": "3",
                                  "attention_heads": "2", "attention_blocks": "2",
                                  "dtype": "float32"}
        self._strip_architecture(path)
        assert load_checkpoint(path)[0].train == {}
        other = make_trainer(AlgoKind.SA_MATD3, n=2, seed=5)
        other.restore(path)  # a manifest without the keys still restores
        assert all(np.array_equal(a.data, b.data) for (_, a), (_, b) in
                   zip(trainer.named_parameters(), other.named_parameters()))

    def test_restore_refuses_another_architecture(self, tmp_path):
        # 8 heads and 4 heads have the same tensor shapes at hidden width 8
        path = make_trainer(AlgoKind.SA_MATD3, attention_heads=8).save(tmp_path / "ck", 0)
        other = make_trainer(AlgoKind.SA_MATD3, attention_heads=4)
        with pytest.raises(ValueError, match="train.attention_heads = 8"):
            other.restore(path)

    def test_restore_checks_tensor_shapes(self, tmp_path):
        # per-agent names address slices of the banks: a tensor of the wrong
        # shape is refused by name, not by a numpy broadcast error
        path = make_trainer(AlgoKind.MATD3).save(tmp_path / "ck", 0)
        self._strip_architecture(path)
        default = Trainer(ScenarioConfig.coop_nav(2), AlgoKind.MATD3, seed=0)
        with pytest.raises(CheckpointError, match="'actor.0.hidden.0.w' shape"):
            default.restore(path)

    @pytest.mark.parametrize("saved,other", [(AlgoKind.MATD3, AlgoKind.MADDPG),
                                             (AlgoKind.SA_MATD3, AlgoKind.SA_MADDPG)])
    def test_restore_refuses_another_algorithm(self, saved, other, tmp_path):
        # a twin-critic checkpoint holds every tensor of the one-critic kind,
        # so only its recorded algorithm tells them apart
        path = make_trainer(saved).save(tmp_path / "ck", 0)
        with pytest.raises(ValueError, match=f"'{saved.value}'.*'{other.value}'"):
            make_trainer(other).restore(path)

    def test_scenario_mismatch_rejected(self, tmp_path):
        trainer = make_trainer(AlgoKind.SA_MATD3, n=2)
        trainer.save(tmp_path / "ck", episode=0)
        other = make_trainer(AlgoKind.SA_MATD3, n=6, scenario="predator_prey")
        with pytest.raises(ValueError, match="agents|scenario"):
            other.restore(tmp_path / "ck")
