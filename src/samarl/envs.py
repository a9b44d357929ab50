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
body's max speed, and integrated into positions. Every body's mass is 1.0,
so the step leaves the divide out (x / 1.0 == x). Everything is float64 and
fully determined by (config, seed, actions).

A world holds one episode, with body arrays of shape ``(bodies, 2)``, or E
episodes stepped in lockstep, with ``(E, bodies, 2)``. One code path serves
both: every array carries the episode axis, if any, in front, and every
episode steps bit-identically to an unbatched world given the same actions.

Bodies come in a fixed order: the trainable agents (coop agents, or
predators), then prey, then static bodies (landmarks, or obstacles). So the
movable bodies are the leading ``n_agents`` rows, and the colliders are a
leading block that holds them; ``step`` reads and writes both as basic
slices. Every Euclidean distance along the last axis goes through ``_norm``,
which computes what ``np.linalg.norm(d, axis=-1)`` does, bit for bit,
without its Python wrapper. The one exception is the scripted prey's
distance to an obstacle, a ``(..., 1, 2) @ (..., 2, 1)`` product. It keeps
the rounding of the norm of a lone 2-vector, a BLAS dot that OpenBLAS
evaluates with a fused multiply-add; that differs from ``_norm`` in the last
bit for some vectors, so ``_norm`` there would move every predator-prey
trajectory.

Observations come as one array ``(..., agents of the type, obs dim)`` per
agent type. The layout of one agent's row, fixed per scenario and agent count:
  [own vx, own vy, own x, own y,
   relative position of each landmark/obstacle in index order,
   relative position of every other agent in index order,
   velocity of each opposite-type agent in index order]  (predator-prey only)
"""

from __future__ import annotations

import math
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
        if self.episode_length < 1:
            raise ConfigError(f"episode_length must be at least 1, got {self.episode_length}")
        # a negative speed cap would flip a velocity every step, an infinite one NaN it;
        # a zero world width or obstacle range NaNs the prey's wall penalty or obstacle push
        for name in ("dt", "contact_stiffness", "contact_margin", "agent_radius",
                     "landmark_radius", "predator_radius", "prey_radius", "obstacle_radius",
                     "agent_accel", "predator_accel", "prey_accel", "agent_max_speed",
                     "predator_max_speed", "prey_max_speed", "world_half_width",
                     "prey_sense_range", "prey_obstacle_range"):
            if not 0 < getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be positive and finite, got {getattr(self, name)}")
        for name in ("prey_boundary_margin", "prey_boundary_gain", "prey_obstacle_gain",
                     "tag_reward", "coop_collision_penalty", "boundary_penalty_scale"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be >= 0 and finite, got {getattr(self, name)}")
        if not 0.0 <= self.damping <= 1.0:
            raise ConfigError(f"damping must lie in [0, 1], got {self.damping}")

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
        n, c = self.n_agents, int(self.collides.sum())
        # step reads the movable bodies and the colliders as leading blocks
        assert np.array_equal(self.movable, np.arange(self.n_bodies) < n) \
            and c >= n and self.collides[:c].all(), "movable bodies first, then other colliders"
        self._n_colliders = c
        # per-world constants of the step. A body never touches itself: on the
        # diagonal, the contact distance floor is infinite, and the coop hit
        # thresholds cover the pairs of distinct agents, in the gather's order.
        r = self.radius
        self._accel = self.accel[:n, None]
        self._max_speed = self.max_speed[:n]
        self._contact_dmin = r[:c, None] + r[None, :c]
        self._contact_floor = np.where(np.eye(c, dtype=bool), np.inf, 1e-9)
        # An episode's state is a row of _state: positions, velocities, a zero
        # pair; pos and vel view it. Per type, an observation is a gather of
        # _state less another: the own position for a relative one, else the
        # zeros (x - 0.0 == x), led by the episode axis, so it is C-ordered.
        bodies, width = self.n_bodies, 4 * self.n_bodies + 2
        self._state = np.zeros(math.prod(self.batch) * width)
        rows = self._state.reshape(self.batch + (width,))
        self.pos = rows[..., :2 * bodies].reshape(self.batch + (bodies, 2))
        self.vel = rows[..., 2 * bodies:4 * bodies].reshape(self.batch + (bodies, 2))
        starts = (width * np.arange(len(self._state) // width)).reshape(self.batch + (1, 1))
        agents, static = np.arange(n), np.arange(n, bodies)
        self._gathers = []
        for lo, hi, seen in types:   # pair b is body b's position, bodies + b its velocity
            own = np.arange(lo, hi)[:, None]
            others = np.array([np.r_[static, np.delete(agents, i)] for i in range(lo, hi)])
            shown = own[:, :0] if seen is None else np.tile(agents[seen], (hi - lo, 1))
            take = np.concatenate([own + bodies, own, others, shown + bodies], axis=1)
            less = np.full(take.shape, 2 * bodies)
            less[:, 2:2 + others.shape[1]] = own
            self._gathers.append([starts + _flat(2 * i[..., None] + np.arange(2))
                                  for i in (take, less)])
        if cfg.kind == COOP_NAV:   # others: the one type's
            self._hit_dmin = r[:n, None] + r[others[:, len(static):]]
        else:
            np_ = cfg.n_predators
            self._hit_dmin = r[:np_, None] + r[None, np_:n]
            # the prey rows, with every episode's, as an open index mesh
            self._prey_rows = np.ix_(*(np.arange(k) for k in self.batch + (cfg.n_prey,)))

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
        return self.observe()

    def step(self, actions) -> tuple[list[np.ndarray], np.ndarray]:
        """Advance one tick under the given per-agent force commands,
        ``(..., agents, 2)``; returns the observations and the rewards,
        ``(..., types)``. An episode ends where its caller stops stepping."""
        cfg = self.cfg
        acts = np.asarray(actions, dtype=np.float64)
        if acts.shape != self.batch + (self.n_agents, 2):
            raise ValueError(
                f"expected {self.n_agents} force vectors per episode, shape "
                f"{self.batch + (self.n_agents, 2)}, got shape {acts.shape}")
        clipped = _clip_unit(acts)
        self.clip_events += np.count_nonzero(clipped != acts)

        n = self.n_agents
        force = clipped * self._accel
        force += self._contact_forces()[..., :n, :]
        vel = self.vel[..., :n, :] * (1.0 - cfg.damping) + force * cfg.dt
        speed = _norm(vel)
        cap = self._max_speed
        vel *= (cap / np.maximum(speed, cap))[..., None]   # exactly 1.0 under the cap
        self.vel[..., :n, :] = vel
        self.pos[..., :n, :] += vel * cfg.dt

        obs = self.observe()
        rewards = _coop_nav_reward(self, obs[0])[..., None] if cfg.kind == COOP_NAV \
            else _predator_prey_reward(self, obs[0])
        return obs, rewards

    def _contact_forces(self) -> np.ndarray:
        """Soft-spring repulsion with a logistic penetration ramp, on the
        collider block: ``(..., colliders, 2)``."""
        cfg = self.cfg
        p = self.pos[..., : self._n_colliders, :]
        delta = p[..., :, None, :] - p[..., None, :, :]
        dist = np.maximum(_norm(delta), self._contact_floor)
        penetration = cfg.contact_margin * np.logaddexp(
            0.0, (self._contact_dmin - dist) / cfg.contact_margin)
        magnitude = cfg.contact_stiffness * penetration / dist
        return np.add.reduce(delta * magnitude[..., None], axis=-2)

    # -- observations ----------------------------------------------------------

    def observe(self) -> list[np.ndarray]:
        """Observations, one ``(..., agents of the type, obs dim)`` array per
        agent type, gathered for the whole type at once (see module docstring)."""
        return [self._state[take] - self._state[less] for take, less in self._gathers]

    @property
    def obs_dims(self) -> list[int]:
        """Observation width of each agent type."""
        return [take.shape[-1] for take, _ in self._gathers]


def _flat(x: np.ndarray) -> np.ndarray:
    """Join the last two axes: (..., k, 2) -> (..., 2k)."""
    return x.reshape(x.shape[:-2] + (-1,))


def _clip_unit(x: np.ndarray) -> np.ndarray:
    """``np.clip(x, -1.0, 1.0)``, bit for bit, without its Python wrappers."""
    return np.minimum(np.maximum(x, -1.0), 1.0)


def _norm(d: np.ndarray) -> np.ndarray:
    """Euclidean length along the last axis; ``np.linalg.norm(d, axis=-1)``,
    bit for bit."""
    return np.sqrt(np.add.reduce(d * d, axis=-1))


def reward_coop_nav(world: ParticleWorld) -> np.ndarray:
    """Joint navigation reward ``(...)``: coverage distance plus collision penalties."""
    return _coop_nav_reward(world, world.observe()[0])


def _coop_nav_reward(world: ParticleWorld, obs: np.ndarray) -> np.ndarray:
    """``reward_coop_nav`` from the agents' observations, whose relative
    positions (landmarks first) fill the columns after the first four."""
    dists = _norm(obs[..., 4:].reshape(obs.shape[:-1] + (-1, 2)))
    landmarks = world.n_bodies - world.n_agents
    reward = -np.add.reduce(np.minimum.reduce(dists[..., :landmarks], axis=-2), axis=-1)
    # counted per agent, over the columns of the other agents
    hits = np.add.reduce(dists[..., landmarks:] < world._hit_dmin, axis=(-2, -1))
    return reward - world.cfg.coop_collision_penalty * hits


def reward_predator_prey(world: ParticleWorld) -> np.ndarray:
    """(predator joint reward, prey joint reward), ``(..., 2)``, for the
    current state."""
    return _predator_prey_reward(world, world.observe()[0])


def _predator_prey_reward(world: ParticleWorld, obs: np.ndarray) -> np.ndarray:
    """``reward_predator_prey`` from the predators' observations, which end
    with the prey's relative positions and then their velocities."""
    cfg = world.cfg
    np_, ny = cfg.n_predators, cfg.n_prey
    prey = world.pos[..., np_:np_ + ny, :]
    end = obs.shape[-1] - 2 * ny
    rel = obs[..., end - 2 * ny:end].reshape(obs.shape[:-1] + (ny, 2))
    contacts = np.add.reduce(_norm(rel) < world._hit_dmin, axis=(-2, -1))[..., None]
    penalties = cfg.boundary_penalty_scale * _flat(
        _boundary_penalty(np.abs(prey) / cfg.world_half_width))
    tags = cfg.tag_reward * contacts
    # [tags, -tags, penalties] folds into (tags, -tags - penalties): the prey
    # are charged prey by prey and coordinate by coordinate, as subtract's
    # reductions are left folds in index order
    return np.subtract.reduceat(np.concatenate([tags, -tags, penalties], axis=-1), [0, 1],
                                axis=-1)


def _boundary_penalty(v: np.ndarray) -> np.ndarray:
    """Soft ramp on |coordinate| in half-width units; zero inside 0.9."""
    ramp = np.where(v < 1.0, (v - 0.9) * 10.0, np.minimum(np.exp(2.0 * v - 2.0), 10.0))
    return np.maximum(ramp, 0.0)   # +0 below 0.9, where the ramp is negative


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
    # per prey, row 0 is its action and the rows below its obstacle pushes
    terms = np.zeros(me.shape[:-1] + (1 + world.n_bodies - world.n_agents, 2))
    action = terms[..., 0, :]

    deltas = me[..., :, None, :] - world.pos[..., None, : cfg.n_predators, :]
    dists = _norm(deltas)
    nearest = world._prey_rows + (np.argmin(dists, axis=-1),)
    dist = dists[nearest][..., None]
    flee = (dist <= cfg.prey_sense_range) & (dist > 0)
    np.divide(deltas[nearest], dist, out=action, where=flee)

    # signed as the coordinate, +-0 inside the margin: no change to a +0 or nonzero action
    excess = np.maximum(np.abs(me) - cfg.prey_boundary_margin * cfg.world_half_width, 0.0)
    action -= np.copysign(cfg.prey_boundary_gain * excess, me)

    deltas = me[..., :, None, :] - world.pos[..., None, world.n_agents:, :]
    # squared lengths as one dot product per 2-vector, which rounds as the
    # norm of a lone vector does (BLAS may fuse its multiply-add). In most
    # steps all are past the float above range**2, so none is in range.
    squares = deltas[..., None, :] @ deltas[..., :, None]
    reach = cfg.prey_obstacle_range
    if squares.min() < math.nextafter(reach * reach, math.inf):
        dists = np.sqrt(squares)[..., 0]
        near = (dists > 0) & (dists < reach)
        push = np.divide(deltas, dists, out=terms[..., 1:, :], where=near)
        push *= cfg.prey_obstacle_gain
        push *= (reach - dists) / reach   # out of range: +-0, which adds nothing
        action = np.add.reduce(terms, axis=-2)   # a left fold, obstacle by obstacle
    return _clip_unit(action)
