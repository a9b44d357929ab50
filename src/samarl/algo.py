"""Trainer family: replay buffer, exploration, targets, and network updates.

One ``Trainer`` class covers the whole algorithm grid, with one data layout
and one update path: observations travel as one ``(batch, agent, features)``
array from the replay buffer to the networks, and every critic family is
read through one interface: ``q_rows(obs, act)``, the rows it regresses, and
``policy_q(obs, fresh, stored)``, its part of the policy objective.
``AlgoKind`` reads as three switches, one per real difference in the grid:

  attention critic -- one shared critic over the agent axis; its per-agent Q
                      values are summed into a total Q that is regressed
                      against the joint reward, and every policy steps from
                      one evaluation of it with every action regenerated
                      (one-to-all). Otherwise each agent has an MLP critic on
                      the flat concat of everyone's observations and actions,
                      regressed against the reward, and each policy steps
                      against its own critic with only its own action
                      regenerated (one-to-one).
  attention actor  -- one centralized policy mapping all observations to all
                      actions (no decentralized execution), instead of one
                      MLP policy per agent
  double Q         -- two critics whose minimum forms the Bellman target,
                      plus delayed policy (and target) updates and clipped
                      Gaussian smoothing noise on target actions

In the predator-prey scenario only the predator type trains; prey actions
come from the scripted flee policy or a loaded prey actor checkpoint.
"""

from __future__ import annotations

import dataclasses
import enum
import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import ndmath as nd
from . import nets
from .checkpoint import load_checkpoint, restore_into, save_checkpoint
from .envs import COOP_NAV, PREDATOR_PREY, ParticleWorld, ScenarioConfig, _clip_unit, scripted_prey
from .ndmath import Adam, Tensor, backward, clip_grad_norm, no_grad

PREY_ACTOR_PREFIX = "prey_actor."


class NonFiniteLossError(RuntimeError):
    """Training produced a NaN/inf loss; carries batch diagnostics."""


class AlgoKind(enum.Enum):
    MADDPG = "maddpg"
    MATD3 = "matd3"
    SA_MADDPG = "sa-maddpg"
    SA_MATD3 = "sa-matd3"
    DSA_MADDPG = "dsa-maddpg"
    DSA_MATD3 = "dsa-matd3"

    @classmethod
    def parse(cls, name: str) -> "AlgoKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            options = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown algorithm '{name}' (expected one of {options})")

    @property
    def attention_critic(self) -> bool:
        return self in (AlgoKind.SA_MADDPG, AlgoKind.SA_MATD3,
                        AlgoKind.DSA_MADDPG, AlgoKind.DSA_MATD3)

    @property
    def attention_actor(self) -> bool:
        return self in (AlgoKind.DSA_MADDPG, AlgoKind.DSA_MATD3)

    @property
    def double_q(self) -> bool:
        return self in (AlgoKind.MATD3, AlgoKind.SA_MATD3, AlgoKind.DSA_MATD3)


_DTYPES = {"float32": np.float32, "float64": np.float64}


@dataclass
class TrainConfig:
    """Hyperparameters; defaults follow the published training setup."""

    gamma: float = 0.95
    tau: float = 0.01
    batch_size: int = 512
    train_start_episodes: int = 10_000
    train_frequency: int = 5
    delay_frequency: int = 2
    action_noise_std: float = 0.002   # tiny by design; override via config if needed
    critic_noise_std: float = 0.001
    mlp_lr: float = 1e-3
    attention_lr: float = 1e-4
    grad_clip: float = 1.0
    action_low: float = -1.0
    action_high: float = 1.0
    replay_capacity: int = 100_000
    hidden_dim: int = 64
    hidden_layers: int = 3
    attention_heads: int = 4
    attention_blocks: int = 2
    dtype: str = "float32"

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must be in (0, 1], got {self.tau}")
        for name in ("mlp_lr", "attention_lr", "grad_clip", "batch_size",
                     "train_frequency", "delay_frequency", "replay_capacity"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.action_noise_std < 0 or self.critic_noise_std < 0:
            raise ValueError("noise standard deviations must be non-negative")
        if self.action_low >= self.action_high:
            raise ValueError("action_low must be below action_high")
        if self.batch_size > self.replay_capacity:
            raise ValueError(
                f"batch_size {self.batch_size} exceeds replay_capacity "
                f"{self.replay_capacity}: no batch could ever be drawn")
        if self.dtype not in _DTYPES:
            raise ValueError(f"dtype must be one of {sorted(_DTYPES)}, got '{self.dtype}'")

    @property
    def np_dtype(self):
        return _DTYPES[self.dtype]


# TrainConfig fields that fix the networks' shapes and precision; checkpoints
# record them as ``train.<key>``
ARCH_KEYS = ("hidden_dim", "hidden_layers", "attention_heads", "attention_blocks", "dtype")


def recorded_train(manifest, base: TrainConfig) -> TrainConfig:
    """``base`` in the architecture a checkpoint records as ``train.<key>``;
    without a recorded dtype, in that of its first tensor."""
    values = {"dtype": next((dtype for _, _, dtype, _ in manifest.entries), base.dtype),
              **manifest.train}
    return dataclasses.replace(base, **{key: type(getattr(base, key))(value)
                                        for key, value in values.items()})


class ReplayBuffer:
    """Fixed-capacity FIFO ring of whole episodes, with uniform,
    within-batch-unique sampling of their transitions.

    The ring holds ``slots = ceil(capacity / T)`` episodes of T =
    ``episode_length`` steps, so ``capacity`` is rounded up to ``slots * T``
    and the oldest episode is evicted whole. The trainable agents share one
    observation width, so each episode's T + 1 observations are stored
    together, each once, as a row of one ``(slots, T + 1, n, obs_dim)``
    array; actions, rewards and done flags are flat per-transition arrays.
    Transition i reads rows i + i // T and i + i // T + 1 of the flat view of
    ``obs`` as its observation and next observation.
    """

    def __init__(self, capacity: int, obs_dims: Sequence[int], act_dim: int,
                 n_types: int, episode_length: int, rng: np.random.Generator):
        if len(set(obs_dims)) != 1:
            raise ValueError(
                f"trainable agents need one observation width, got {list(obs_dims)}")
        slots = -(-capacity // episode_length)
        self.capacity = slots * episode_length
        self.episode_length = episode_length
        self.rng = rng
        n = len(obs_dims)
        self.obs = np.zeros((slots, episode_length + 1, n, obs_dims[0]), dtype=np.float32)
        self.act = np.zeros((self.capacity, n, act_dim), dtype=np.float32)
        self.rew = np.zeros((self.capacity, n_types), dtype=np.float32)
        self.done = np.zeros(self.capacity, dtype=np.float32)
        self.size = self.cursor = 0

    def __len__(self) -> int:
        return self.size

    def push_episode(self, obs: np.ndarray, act: np.ndarray, rew: np.ndarray,
                     done: np.ndarray) -> None:
        """Append one episode of T = ``episode_length`` steps, over the oldest
        one once the ring is full: observations (T+1, n, obs_dim), actions
        (T, n, act_dim), rewards (T, n_types) and done flags (T,)."""
        steps = self.episode_length
        want = [self.obs.shape[1:], (steps,) + self.act.shape[1:],
                (steps,) + self.rew.shape[1:], (steps,)]
        got = [np.shape(x) for x in (obs, act, rew, done)]
        if got != want:
            raise ValueError(f"an episode (obs, act, rew, done) of this buffer "
                             f"has the shapes {want}, got {got}")
        rows = slice(self.cursor, self.cursor + steps)
        self.obs[self.cursor // steps] = obs
        self.act[rows], self.rew[rows], self.done[rows] = act, rew, done
        self.cursor = (self.cursor + steps) % self.capacity
        self.size = min(self.size + steps, self.capacity)

    def sample(self, batch_size: int) -> "Batch":
        if batch_size > self.size:
            raise ValueError(
                f"cannot sample {batch_size} transitions from a buffer of {self.size}")
        idx = self.rng.choice(self.size, size=batch_size, replace=False)
        obs = self.obs.reshape(-1, *self.obs.shape[2:])   # one observation a row
        row = idx + idx // self.episode_length
        return Batch(obs=obs[row], act=self.act[idx], rew=self.rew[idx],
                     next_obs=obs[row + 1], done=self.done[idx])


@dataclass
class Batch:
    obs: np.ndarray            # (B, n, obs_dim)
    act: np.ndarray            # (B, n, act_dim)
    rew: np.ndarray            # (B, n_types)
    next_obs: np.ndarray       # (B, n, obs_dim)
    done: np.ndarray           # (B,)


def soft_update(target_params: Sequence[Tensor], main_params: Sequence[Tensor],
                tau: float) -> None:
    """Move target parameters toward main ones: t <- tau*m + (1-tau)*t."""
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    for t, m in zip(target_params, main_params):
        if t.data.shape != m.data.shape:
            raise nd.ShapeError(
                f"target/main shapes disagree: {t.data.shape} vs {m.data.shape}")
        for tc, mc in nd.chunks(t.data, m.data):
            tc *= 1.0 - tau
            tc += tau * mc


def train_step_scheduler(episode: int, cfg: TrainConfig,
                         kind: AlgoKind) -> tuple[bool, bool]:
    """(do_critic_update, do_policy_update) for a just-finished episode index."""
    start, freq = cfg.train_start_episodes, cfg.train_frequency
    do_critic = episode >= start and episode % freq == 0
    if not do_critic:
        return False, False
    if not kind.double_q:  # TD3 delays policy updates
        return True, True
    first = ((start + freq - 1) // freq) * freq
    ordinal = (episode - first) // freq + 1   # 1-based critic-update count
    return True, ordinal % cfg.delay_frequency == 0


class Trainer:
    """One algorithm bound to one scenario; owns networks, buffer, and RNGs.

    The global seed fans out into named streams (init, env, exploration,
    critic smoothing, buffer sampling) so individual components replay
    identically across runs with the same seed.
    """

    def __init__(self, scenario: ScenarioConfig, kind: AlgoKind,
                 cfg: TrainConfig | None = None, seed: int = 0,
                 prey_policy: str = "scripted"):
        self.kind = kind
        self.cfg = cfg or TrainConfig()
        self.scenario = scenario
        self.seed = seed

        init_ss, env_ss, explore_ss, smooth_ss, buffer_ss = \
            np.random.SeedSequence(seed).spawn(5)
        self.init_rng = np.random.default_rng(init_ss)
        self.explore_rng = np.random.default_rng(explore_ss)
        self.smooth_rng = np.random.default_rng(smooth_ss)

        self.env = ParticleWorld(scenario, seed=env_ss)
        if scenario.kind == COOP_NAV:
            self.n = scenario.n_agents
        else:
            self.n = scenario.n_predators
        obs_dims = self.env.obs_dims[: self.n]
        self.act_dim = 2
        self.reward_type = 0  # trainable agents are always type 0

        self.buffer = ReplayBuffer(self.cfg.replay_capacity, obs_dims,
                                   self.act_dim, self.env.n_types,
                                   scenario.episode_length,
                                   np.random.default_rng(buffer_ss))
        self.obs_dim = obs_dims[0]
        self._build_networks()
        self._setup_prey(prey_policy)
        self.episodes_seen = 0
        self.critic_updates = 0
        self.policy_updates = 0
        # the recycled buffers this trainer's updates fill go with it
        weakref.finalize(self, nd.release_buffers)

    # -- construction ----------------------------------------------------------

    def _build_networks(self) -> None:
        """Actors first, then critics, all from ``init_rng`` and in the order
        that separate per-agent networks would draw them: actor by actor, then
        critics agent-major and twin-minor. ``actor`` is one
        ``AttentionActor`` or a bank of n ``MlpActor``s; ``critics[twin]`` is
        the shared ``CriticNet`` or a bank of n ``MlpCritic``s. Every network
        or bank has one Adam."""
        cfg, kind, rng = self.cfg, self.kind, self.init_rng
        attention = dict(hidden_dim=cfg.hidden_dim, heads=cfg.attention_heads,
                         blocks=cfg.attention_blocks, dtype=cfg.np_dtype)
        mlp = dict(hidden_dim=cfg.hidden_dim, hidden_layers=cfg.hidden_layers,
                   dtype=cfg.np_dtype)
        twins = 2 if kind.double_q else 1

        if kind.attention_actor:
            self.actor = nets.AttentionActor(self.obs_dim, self.act_dim, rng, **attention)
            actor_lr = cfg.attention_lr
        else:
            self.actor = nets.stack([nets.MlpActor(self.obs_dim, self.act_dim, rng, **mlp)
                                     for _ in range(self.n)])
            actor_lr = cfg.mlp_lr
        self.target_actor = nets.clone(self.actor)
        self.actor_optim = Adam(nets.parameters(self.actor), actor_lr)

        if kind.attention_critic:
            self.critics = [nets.CriticNet(self.obs_dim, self.act_dim, rng, **attention)
                            for _ in range(twins)]
            critic_lr = cfg.attention_lr
        else:
            flat_dim = self.n * (self.obs_dim + self.act_dim)
            members = [nets.MlpCritic(flat_dim, rng, **mlp) for _ in range(self.n * twins)]
            self.critics = [nets.stack(members[twin::twins]) for twin in range(twins)]
            critic_lr = cfg.mlp_lr
        self.target_critics = [nets.clone(c) for c in self.critics]
        self.critic_optims = [Adam(nets.parameters(c), critic_lr) for c in self.critics]

    @property
    def critic_banks(self) -> list[list]:
        """``[critics]``, kept only because the benchmark's permutation check
        reads critic #1 as ``critic_banks[0][0]``; everything else reads
        ``critics[0]``. It goes with the next change to the benchmark."""
        return [self.critics]

    def _setup_prey(self, prey_policy) -> None:
        self.prey_actor = None
        if self.scenario.kind != PREDATOR_PREY or prey_policy == "scripted":
            return
        manifest, tensors = load_checkpoint(prey_policy)
        # the prey actor runs in the architecture and precision it was saved
        # in; sizes it does not record are this trainer's
        arch = recorded_train(manifest, self.cfg)
        actor = nets.MlpActor(self.env.obs_dims[self.n], self.act_dim, self.init_rng,
                              hidden_dim=arch.hidden_dim, hidden_layers=arch.hidden_layers,
                              dtype=arch.np_dtype)
        restore_into(actor.member(0), tensors, prefix=PREY_ACTOR_PREFIX)
        self.prey_actor = actor

    # -- rollout ---------------------------------------------------------------

    def _trainable_actions(self, obs: np.ndarray, noise: np.ndarray | None) -> np.ndarray:
        """Joint actions (..., n, act_dim) for observations (..., n, obs_dim),
        one world state or one per episode of a lockstep batch, plus ``noise``, clipped."""
        acts = self.actor.act(obs)
        if noise is not None:
            acts = acts + noise
        return np.minimum(np.maximum(acts, self.cfg.action_low), self.cfg.action_high)

    def _prey_actions(self, env: ParticleWorld, prey_obs: np.ndarray) -> np.ndarray:
        """Prey actions (..., prey, act_dim): the scripted flee policy, or one
        call of the prey actor on every prey observation of every episode."""
        if self.prey_actor is None:
            return scripted_prey(env)
        return _clip_unit(self.prey_actor.act(prey_obs))

    def run_episode(self, explore: bool = True,
                    env: ParticleWorld | None = None) -> np.ndarray:
        """Roll one full episode; returns the per-type summed reward. An
        exploring episode adds action noise and is stored in the buffer.

        Pass a dedicated ``env`` for evaluation so the training environment's
        RNG stream is left untouched. A batched ``env`` of E episodes steps
        them in lockstep, one actor call per step for all of them, and
        returns (E, n_types); it cannot explore, since the replay buffer takes
        one episode at a time, pushed whole when it ends.
        """
        if env is None:
            env = self.env
        if explore and env.batch:
            raise ValueError(
                f"a lockstep batch of {env.batch[0]} episodes cannot fill the "
                f"replay buffer; step one episode at a time to explore")
        std = self.cfg.action_noise_std if explore else 0.0
        shape = (self.scenario.episode_length, self.n, self.act_dim)
        # one draw for the episode: the stream of one (n, act_dim) draw per step
        noise = self.explore_rng.normal(0.0, std, shape) if std > 0 else [None] * shape[0]
        obs = env.reset()
        totals = np.zeros(env.batch + (env.n_types,))
        steps = [obs[0]], [], [], []   # observations, actions, rewards, done flags
        for step_noise in noise:
            acts = self._trainable_actions(obs[0], step_noise)
            if self.scenario.kind == PREDATOR_PREY:
                full = np.concatenate([acts, self._prey_actions(env, obs[1])], axis=-2)
            else:
                full = acts
            obs, rewards, done, _ = env.step(full)
            if explore:
                for seq, item in zip(steps, (obs[0], acts, rewards, done)):
                    seq.append(item)
            totals += rewards
        if explore:
            self.buffer.push_episode(*map(np.array, steps))
        return totals

    # -- updates ---------------------------------------------------------------

    def _target_actions(self, next_obs: Tensor) -> np.ndarray:
        """Target-policy actions (B, n, act_dim); double-Q kinds add clipped
        smoothing noise."""
        with no_grad():
            acts = self.target_actor.forward(next_obs).data
        if self.kind.double_q and self.cfg.critic_noise_std > 0:
            acts = acts + self.smooth_rng.normal(0.0, self.cfg.critic_noise_std,
                                                 acts.shape)
        return np.clip(acts, self.cfg.action_low, self.cfg.action_high)

    def compute_target_y(self, batch: Batch) -> np.ndarray:
        """Bellman targets, detached from every main-network parameter: one
        row per row of ``q_rows``, (1, B) of total-Q targets for the shared
        critic, (n, B) for a bank, row i for agent i's critic.
        """
        cfg = self.cfg
        next_obs = Tensor(batch.next_obs, dtype=cfg.np_dtype)
        act = Tensor(self._target_actions(next_obs), dtype=cfg.np_dtype)
        with no_grad():
            qs = [critic.q_rows(next_obs, act).data for critic in self.target_critics]
        q = qs[0] if len(qs) == 1 else np.minimum(*qs)
        r = batch.rew[:, self.reward_type].astype(np.float64)
        cont = cfg.gamma * (1.0 - batch.done.astype(np.float64))
        return (r + cont * q).astype(cfg.np_dtype)

    def critic_update(self, batch: Batch) -> float:
        """One Adam step on every critic toward the Bellman targets.

        Each twin takes one backward pass over the summed MSE losses of its
        members (the shared critic, or the n agent critics of a bank), each
        taken over the member's own row of Q; each member is then clipped on
        its own, and the twin takes one Adam step. Returns the mean member
        loss.
        """
        cfg = self.cfg
        y_rows = Tensor(self.compute_target_y(batch), dtype=cfg.np_dtype)
        obs = Tensor(batch.obs, dtype=cfg.np_dtype)
        act = Tensor(batch.act, dtype=cfg.np_dtype)
        losses: list[float] = []
        for critic, optim in zip(self.critics, self.critic_optims):
            diff = critic.q_rows(obs, act) - y_rows
            member_losses = nd.tmean(nd.mul(diff, diff), axis=-1)
            loss = nd.tsum(member_losses)
            if not np.isfinite(loss.item()):
                raise NonFiniteLossError(
                    f"non-finite critic loss at update {self.critic_updates}: "
                    f"{loss.item()}")
            backward(loss, params=nets.parameters(critic))
            self._clip_and_step(critic, optim)
            losses += member_losses.data.tolist()
            del diff, member_losses, loss   # free this twin's graph before the next forward
        self.critic_updates += 1
        return float(np.mean(losses))

    def policy_update(self, batch: Batch) -> list[float]:
        """Step every policy against critic #1; returns per-actor gradient norms.

        One backward pass over minus the mean of the critic's ``policy_q``.
        The attention critic regenerates every action (one-to-all); critic i
        of an MLP bank sees agent i's regenerated action and everyone else's
        buffer action (one-to-one), so actor i learns from critic i alone.
        """
        cfg = self.cfg
        obs = Tensor(batch.obs, dtype=cfg.np_dtype)
        fresh = self.actor.forward(obs)
        loss = -nd.tmean(self.critics[0].policy_q(obs, fresh, batch.act.astype(cfg.np_dtype)))
        if not np.isfinite(loss.item()):
            raise NonFiniteLossError(f"non-finite policy loss: {loss.item()}")

        backward(loss, params=nets.parameters(self.actor))
        norms = self._clip_and_step(self.actor, self.actor_optim)
        self.policy_updates += 1
        for tgt, main in self._target_pairs():
            soft_update(nets.parameters(tgt), nets.parameters(main), cfg.tau)
        return np.atleast_1d(norms).tolist()

    def _clip_and_step(self, net, optim: Adam):
        """Clip the gradient of ``net``, or of each member of a bank on its
        own, then take one Adam step; returns the pre-clip norm(s)."""
        norms = clip_grad_norm([p.grad for p in nets.parameters(net)], self.cfg.grad_clip,
                               grouped=isinstance(net, nets.MlpBank))
        optim.step()
        return norms

    def _target_pairs(self) -> list[tuple[object, object]]:
        """(target, main) network pairs: the actor, then every critic twin."""
        return [(self.target_actor, self.actor)] + list(zip(self.target_critics,
                                                            self.critics))

    def update_from_batch(self, batch: Batch, do_policy: bool) -> dict:
        stats = {"critic_loss": self.critic_update(batch)}
        if do_policy:
            norms = self.policy_update(batch)
            stats["actor_grad_norm"] = float(np.mean(norms))
        return stats

    def train_episode(self) -> tuple[np.ndarray, dict]:
        """Roll one episode, then run whatever updates the schedule calls for."""
        rewards = self.run_episode(explore=True)
        episode = self.episodes_seen
        self.episodes_seen += 1
        do_critic, do_policy = train_step_scheduler(episode, self.cfg, self.kind)
        stats: dict = {}
        if do_critic and len(self.buffer) >= self.cfg.batch_size:
            batch = self.buffer.sample(self.cfg.batch_size)
            stats = self.update_from_batch(batch, do_policy)
        return rewards, stats

    # -- persistence -----------------------------------------------------------

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        """Every main-network parameter under its checkpoint name. A bank's
        members are listed one by one, as views of their slices, named and
        shaped as when every agent had a network of its own."""
        if self.kind.attention_actor:
            out = self.actor.named_parameters("attention_actor.")
        else:
            out = [pair for i in range(self.n)
                   for pair in self.actor.member(i, f"actor.{i}.")]
        if self.kind.attention_critic:
            for j, critic in enumerate(self.critics):
                out += critic.named_parameters(f"shared_critic.{j + 1}.")
        else:
            out += [pair for i in range(self.n) for j, critic in enumerate(self.critics)
                    for pair in critic.member(i, f"agent_critic.{i}.{j + 1}.")]
        return out

    def save(self, directory, episode: int):
        return save_checkpoint(directory, self.named_parameters(),
                               algo=self.kind.value, scenario=self.scenario.kind,
                               agents=self.scenario.n_agents, episode=episode,
                               train={key: getattr(self.cfg, key) for key in ARCH_KEYS})

    def restore(self, directory) -> int:
        manifest, tensors = load_checkpoint(directory)
        if manifest.algo != self.kind.value:
            raise ValueError(f"checkpoint algorithm '{manifest.algo}' does not match "
                             f"this trainer's '{self.kind.value}'")
        if manifest.scenario != self.scenario.kind:
            raise ValueError(
                f"checkpoint scenario '{manifest.scenario}' does not match "
                f"'{self.scenario.kind}'")
        if manifest.agents != self.scenario.n_agents:
            raise ValueError(
                f"checkpoint has {manifest.agents} agents, scenario has "
                f"{self.scenario.n_agents}")
        for key, value in manifest.train.items():
            if value != str(getattr(self.cfg, key)):
                raise ValueError(
                    f"checkpoint was trained with train.{key} = {value}, this "
                    f"trainer has {getattr(self.cfg, key)}")
        restore_into(self.named_parameters(), tensors)
        self._sync_targets()
        return manifest.episode

    def _sync_targets(self) -> None:
        for tgt, main in self._target_pairs():
            nets.copy_params(tgt, main)
