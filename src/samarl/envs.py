"""Deterministic 2-D particle world with two scenarios.

Cooperative navigation: N agents spread out to cover N landmarks; the joint
reward is minus the sum over landmarks of the distance to the closest agent,
minus a penalty per agent-agent collision, delivered identically to every
agent.

Predator-prey: 2k predators chase k faster prey among 3 obstacles. Every
predator-prey contact pays all predators and charges all prey; prey are
additionally charged for leaving the arena. Prey normally run a scripted
flee policy so algorithm comparisons see a fixed opponent.

Physics is a semi-implicit Euler step: velocities are damped, accelerated by
``action * accel / mass * dt`` plus soft contact forces, capped at each
body's max speed, and integrated into positions. Everything is float64 and
fully determined by (config, seed, actions).

A world holds one episode, with body arrays of shape ``(bodies, 2)``, or E
episodes stepped in lockstep, with ``(E, bodies, 2)``. One code path serves
both: every array carries the episode axis, if any, in front, and every
episode steps bit-identically to an unbatched world given the same actions.

Observations come as one array ``(..., agents of the type, obs dim)`` per
agent type. The layout of one agent's row, fixed per scenario and agent count:
  [own vx, own vy, own x, own y,
   relative position of each landmark/obstacle in index order,
   relative position of every other agent in index order,
   velocity of each opposite-type agent in index order]  (predator-prey only)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

COOP_NAV = "coop_nav"
PREDATOR_PREY = "predator_prey"


class ConfigError(ValueError):
    pass


@dataclass
class ScenarioConfig:
    kind: str
    n_agents: int
    n_landmarks: int
    world_half_width: float = 1.0
    dt: float = 0.1
    damping: float = 0.25
    contact_stiffness: float = 100.0
    contact_margin: float = 0.001
    coop_collision_penalty: float = 1.0
    tag_reward: float = 10.0
    boundary_penalty_scale: float = 1.0
    episode_length: int = 20
    agent_radius: float = 0.15
    landmark_radius: float = 0.05
    predator_radius: float = 0.075
    prey_radius: float = 0.05
    obstacle_radius: float = 0.2
    agent_accel: float = 5.0
    agent_max_speed: float = 2.0
    predator_accel: float = 3.0
    predator_max_speed: float = 1.0
    prey_accel: float = 4.0
    prey_max_speed: float = 1.3
    prey_sense_range: float = 1.0
    prey_boundary_margin: float = 0.8
    prey_boundary_gain: float = 2.0
    prey_obstacle_range: float = 0.3
    prey_obstacle_gain: float = 1.0
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in (COOP_NAV, PREDATOR_PREY):
            raise ConfigError(f"unknown scenario kind '{self.kind}'")
        if self.n_agents < 1:
            raise ConfigError(f"need at least one agent, got {self.n_agents}")
        if self.kind == COOP_NAV and self.n_landmarks != self.n_agents:
            raise ConfigError(
                f"cooperative navigation needs landmarks == agents "
                f"({self.n_landmarks} != {self.n_agents})")
        if self.kind == PREDATOR_PREY and self.n_agents % 3 != 0:
            raise ConfigError(
                f"predator-prey needs a 2:1 predator:prey split; "
                f"{self.n_agents} agents cannot be divided that way")

    @classmethod
    def coop_nav(cls, n_agents: int, **overrides) -> "ScenarioConfig":
        return cls(kind=COOP_NAV, n_agents=n_agents, n_landmarks=n_agents, **overrides)

    @classmethod
    def predator_prey(cls, n_agents: int, **overrides) -> "ScenarioConfig":
        return cls(kind=PREDATOR_PREY, n_agents=n_agents, n_landmarks=3, **overrides)

    @property
    def n_predators(self) -> int:
        return 2 * self.n_agents // 3 if self.kind == PREDATOR_PREY else 0

    @property
    def n_prey(self) -> int:
        return self.n_agents // 3 if self.kind == PREDATOR_PREY else 0

    @property
    def type_names(self) -> list[str]:
        if self.kind == COOP_NAV:
            return ["agents"]
        return ["predators", "prey"]


def observation_dim(cfg: ScenarioConfig, agent: int) -> int:
    """Length of agent ``agent``'s observation vector."""
    base = 4 + 2 * cfg.n_landmarks + 2 * (cfg.n_agents - 1)
    if cfg.kind == COOP_NAV:
        return base
    opposite = cfg.n_prey if agent < cfg.n_predators else cfg.n_predators
    return base + 2 * opposite


class ParticleWorld:
    """One scenario instance, or ``episodes`` of them in lockstep; owns the
    body arrays and an RNG for resets."""

    def __init__(self, cfg: ScenarioConfig, seed: int | None = None,
                 episodes: int | None = None):
        if episodes is not None and episodes < 1:
            raise ConfigError(f"a lockstep world needs at least one episode, got {episodes}")
        self.cfg = cfg
        self.rng = np.random.default_rng(cfg.seed if seed is None else seed)
        self.batch = () if episodes is None else (episodes,)
        self.t = 0
        self.clip_events = 0  # out-of-range action components seen so far, all episodes
        self._build_roster()

    def _build_roster(self) -> None:
        cfg = self.cfg
        roles: list[str] = []
        radius, mass, max_speed, accel, movable, collides = [], [], [], [], [], []

        def push(role, r, ms, acc, mov, col):
            roles.append(role)
            radius.append(r)
            mass.append(1.0)
            max_speed.append(ms)
            accel.append(acc)
            movable.append(mov)
            collides.append(col)

        if cfg.kind == COOP_NAV:
            for _ in range(cfg.n_agents):
                push("agent", cfg.agent_radius, cfg.agent_max_speed, cfg.agent_accel,
                     True, True)
            for _ in range(cfg.n_landmarks):
                push("landmark", cfg.landmark_radius, 0.0, 0.0, False, False)
            # per agent type: its agents, and the agents whose velocities it sees
            types = [(0, cfg.n_agents, None)]
        else:
            for _ in range(cfg.n_predators):
                push("predator", cfg.predator_radius, cfg.predator_max_speed,
                     cfg.predator_accel, True, True)
            for _ in range(cfg.n_prey):
                push("prey", cfg.prey_radius, cfg.prey_max_speed, cfg.prey_accel,
                     True, True)
            for _ in range(cfg.n_landmarks):
                push("obstacle", cfg.obstacle_radius, 0.0, 0.0, False, True)
            predators, prey = (0, cfg.n_predators), (cfg.n_predators, cfg.n_agents)
            types = [(*predators, slice(*prey)), (*prey, slice(*predators))]

        self.roles = roles
        self.n_bodies = len(roles)
        self.n_agents = cfg.n_agents
        self.radius = np.array(radius)
        self.mass = np.array(mass)
        self.max_speed = np.array(max_speed)
        self.accel = np.array(accel)
        self.movable = np.array(movable)
        self.collides = np.array(collides)
        self._colliders = np.flatnonzero(self.collides)
        self.pos = np.zeros(self.batch + (self.n_bodies, 2))
        self.vel = np.zeros(self.batch + (self.n_bodies, 2))
        # every other agent, one row per agent of the type, in index order
        agents = np.arange(self.n_agents)
        self._type_gathers = [
            (slice(lo, hi), np.array([np.delete(agents, i) for i in range(lo, hi)]), seen)
            for lo, hi, seen in types]

    @property
    def n_types(self) -> int:
        return len(self.cfg.type_names)

    # -- lifecycle -------------------------------------------------------------

    def reset(self, seed: int | None = None) -> list[np.ndarray]:
        """Place bodies uniformly at random and return the observations.

        Episode by episode, each draws its agents' positions, then its static
        bodies', so E episodes of a batch draw what E resets of one world do.
        """
        if seed is not None:
            self.rng = np.random.default_rng(seed)
        whw = self.cfg.world_half_width
        n_static = self.n_bodies - self.n_agents
        for episode in np.ndindex(self.batch):
            pos = self.pos[episode]
            pos[: self.n_agents] = self.rng.uniform(-whw, whw, size=(self.n_agents, 2))
            # landmarks and obstacles stay clear of the walls
            pos[self.n_agents:] = self.rng.uniform(-0.9 * whw, 0.9 * whw,
                                                   size=(n_static, 2))
        self.vel[:] = 0.0
        self.t = 0
        return self.observe()

    def step(self, actions) -> tuple[list[np.ndarray], np.ndarray, bool, dict]:
        """Advance one tick under the given per-agent force commands,
        ``(..., agents, 2)``; rewards come as ``(..., types)``."""
        cfg = self.cfg
        acts = np.asarray(actions, dtype=np.float64)
        if acts.shape != self.batch + (self.n_agents, 2):
            raise ValueError(
                f"expected {self.n_agents} force vectors per episode, shape "
                f"{self.batch + (self.n_agents, 2)}, got shape {acts.shape}")
        clipped = np.clip(acts, -1.0, 1.0)
        n_clipped = int(np.sum(clipped != acts))
        self.clip_events += n_clipped

        forces = np.zeros(self.pos.shape)
        forces[..., : self.n_agents, :] = clipped * self.accel[: self.n_agents, None]
        forces += self._contact_forces()

        mov = self.movable
        vel = self.vel[..., mov, :] * (1.0 - cfg.damping) \
            + forces[..., mov, :] / self.mass[mov, None] * cfg.dt
        speed = np.linalg.norm(vel, axis=-1)
        cap = self.max_speed[mov]
        vel *= np.divide(cap, speed, out=np.ones_like(speed), where=speed > cap)[..., None]
        self.vel[..., mov, :] = vel
        self.pos[..., mov, :] += vel * cfg.dt

        self.t += 1
        done = self.t >= cfg.episode_length
        return self.observe(), self._rewards(), done, {"clipped_components": n_clipped}

    def _contact_forces(self) -> np.ndarray:
        """Soft-spring repulsion with a logistic penetration ramp."""
        cfg = self.cfg
        idx = self._colliders
        out = np.zeros(self.pos.shape)
        if idx.size < 2:
            return out
        p = self.pos[..., idx, :]
        delta = p[..., :, None, :] - p[..., None, :, :]
        dist = np.maximum(np.linalg.norm(delta, axis=-1), 1e-9)
        diagonal = np.arange(idx.size)
        dist[..., diagonal, diagonal] = np.inf
        dmin = self.radius[idx][:, None] + self.radius[idx][None, :]
        penetration = cfg.contact_margin * np.logaddexp(
            0.0, -(dist - dmin) / cfg.contact_margin)
        magnitude = cfg.contact_stiffness * penetration / dist
        out[..., idx, :] = (delta * magnitude[..., None]).sum(axis=-2)
        return out

    # -- observations ----------------------------------------------------------

    def observe(self) -> list[np.ndarray]:
        """Observations, one ``(..., agents of the type, obs dim)`` array per
        agent type, gathered for the whole type at once (see module docstring)."""
        out = []
        for own, others, opposite in self._type_gathers:
            me = self.pos[..., own, None, :]
            parts = [self.vel[..., own, :], self.pos[..., own, :],
                     _flat(self.pos[..., None, self.n_agents:, :] - me),
                     _flat(self.pos[..., others, :] - me)]
            if opposite is not None:
                seen = _flat(self.vel[..., None, opposite, :])
                parts.append(np.broadcast_to(seen, parts[0].shape[:-1] + seen.shape[-1:]))
            out.append(np.concatenate(parts, axis=-1))
        return out

    @property
    def obs_dims(self) -> list[int]:
        return [observation_dim(self.cfg, i) for i in range(self.n_agents)]

    # -- rewards ---------------------------------------------------------------

    def _rewards(self) -> np.ndarray:
        if self.cfg.kind == COOP_NAV:
            return reward_coop_nav(self)[..., None]
        return reward_predator_prey(self)


def _flat(x: np.ndarray) -> np.ndarray:
    """Join the last two axes: (..., k, 2) -> (..., 2k)."""
    return x.reshape(x.shape[:-2] + (-1,))


def reward_coop_nav(world: ParticleWorld) -> np.ndarray:
    """Joint navigation reward ``(...)``: coverage distance plus collision penalties."""
    cfg = world.cfg
    n = world.n_agents
    agents = world.pos[..., :n, :]
    landmarks = world.pos[..., n:, :]
    dists = np.linalg.norm(agents[..., :, None, :] - landmarks[..., None, :, :], axis=-1)
    reward = -dists.min(axis=-2).sum(axis=-1)
    delta = np.linalg.norm(agents[..., :, None, :] - agents[..., None, :, :], axis=-1)
    dmin = world.radius[:n][:, None] + world.radius[:n][None, :]
    hit = delta < dmin
    diagonal = np.arange(n)
    hit[..., diagonal, diagonal] = False
    # counted per agent
    return reward - cfg.coop_collision_penalty * hit.sum(axis=(-2, -1))


def reward_predator_prey(world: ParticleWorld) -> np.ndarray:
    """(predator joint reward, prey joint reward), ``(..., 2)``, for the
    current state."""
    cfg = world.cfg
    np_, ny = cfg.n_predators, cfg.n_prey
    preds = world.pos[..., :np_, :]
    prey = world.pos[..., np_:np_ + ny, :]
    delta = np.linalg.norm(preds[..., :, None, :] - prey[..., None, :, :], axis=-1)
    dmin = world.radius[:np_][:, None] + world.radius[np_:np_ + ny][None, :]
    contacts = (delta < dmin).sum(axis=(-2, -1))
    predator_reward = cfg.tag_reward * contacts
    prey_reward = -cfg.tag_reward * contacts
    penalties = _boundary_penalty(np.abs(prey) / cfg.world_half_width)
    # added prey by prey and coordinate by coordinate, a fixed summation order
    for penalty in np.moveaxis(_flat(penalties), -1, 0):
        prey_reward = prey_reward - cfg.boundary_penalty_scale * penalty
    return np.stack([predator_reward, prey_reward], axis=-1)


def _boundary_penalty(v: np.ndarray) -> np.ndarray:
    """Soft ramp on |coordinate| in half-width units; zero inside 0.9."""
    ramp = np.where(v < 1.0, (v - 0.9) * 10.0, np.minimum(np.exp(2.0 * v - 2.0), 10.0))
    return np.where(v < 0.9, 0.0, ramp)


def scripted_prey(world: ParticleWorld) -> np.ndarray:
    """Deterministic flee policy standing in for a pre-trained prey: actions
    ``(..., prey, 2)`` for every prey.

    Runs away from the nearest predator inside the sensing range, blended
    with an inward push near walls and repulsion from nearby obstacles. With
    no predator in range the policy stays put (modulo wall/obstacle terms).
    """
    cfg = world.cfg
    if cfg.kind != PREDATOR_PREY:
        raise ConfigError("scripted prey only exists in the predator-prey scenario")

    me = world.pos[..., cfg.n_predators:cfg.n_agents, :]
    action = np.zeros(me.shape)

    deltas = me[..., :, None, :] - world.pos[..., None, : cfg.n_predators, :]
    dists = np.linalg.norm(deltas, axis=-1)
    nearest = np.argmin(dists, axis=-1)[..., None]
    dist = np.take_along_axis(dists, nearest, axis=-1)
    away = np.take_along_axis(deltas, nearest[..., None], axis=-2)[..., 0, :]
    flee = (dist <= cfg.prey_sense_range) & (dist > 0)
    action += np.divide(away, dist, out=np.zeros(me.shape), where=flee)

    margin = cfg.prey_boundary_margin * cfg.world_half_width
    excess = np.abs(me) - margin
    action -= np.where(excess > 0, np.sign(me) * cfg.prey_boundary_gain * excess, 0.0)

    deltas = me[..., :, None, :] - world.pos[..., None, world.n_agents:, :]
    # squared lengths as one dot product per 2-vector, which rounds as the
    # norm of a lone vector does (BLAS may fuse its multiply-add)
    dists = np.sqrt(deltas[..., None, :] @ deltas[..., :, None])[..., 0]
    near = (dists > 0) & (dists < cfg.prey_obstacle_range)
    push = np.divide(deltas, dists, out=np.zeros(deltas.shape), where=near) \
        * cfg.prey_obstacle_gain \
        * ((cfg.prey_obstacle_range - dists) / cfg.prey_obstacle_range)
    for k in range(deltas.shape[-2]):  # obstacle by obstacle, in index order
        action += np.where(near[..., k, :], push[..., k, :], 0.0)

    return np.clip(action, -1.0, 1.0)
