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
        # a zero world width NaNs the prey's boundary penalty
        for name in ("dt", "contact_stiffness", "contact_margin", "agent_radius",
                     "landmark_radius", "predator_radius", "prey_radius", "obstacle_radius",
                     "agent_accel", "predator_accel", "prey_accel", "agent_max_speed",
                     "predator_max_speed", "prey_max_speed", "world_half_width"):
            if not 0 < getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be positive and finite, got {getattr(self, name)}")
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
        n, c = self.n_agents, int(self.collides.sum())
        # step reads the movable bodies and the colliders as leading blocks
        assert np.array_equal(self.movable, np.arange(self.n_bodies) < n) \
            and c >= n and self.collides[:c].all(), "movable bodies first, then other colliders"
        self._n_colliders = c
        # per agent type, one row per agent: the bodies of its relative positions
        # (see _relative), and the opposite type's agents whose velocities it sees
        agents, static = np.arange(n), np.arange(n, self.n_bodies)
        self._type_gathers = [
            (slice(lo, hi), np.array([np.r_[static, np.delete(agents, i)] for i in range(lo, hi)]),
             [] if seen is None else [np.tile(agents[seen], (hi - lo, 1))])
            for lo, hi, seen in types]
        # per-world constants of the step. A body never touches itself: on the
        # diagonal, the contact distance floor is infinite, and the coop hit
        # thresholds cover the pairs of distinct agents, in the gather's order.
        r = self.radius
        self._accel = self.accel[:n, None]
        self._mass = self.mass[:n, None]
        self._max_speed = self.max_speed[:n]
        self._contact_dmin = r[:c, None] + r[None, :c]
        self._contact_floor = np.where(np.eye(c, dtype=bool), np.inf, 1e-9)
        if cfg.kind == COOP_NAV:
            self._hit_dmin = r[:n, None] + r[self._type_gathers[0][1][:, len(static):]]
        else:
            np_ = cfg.n_predators
            self._hit_dmin = r[:np_, None] + r[None, np_:n]
            # the prey rows, with every episode's, as an open index mesh
            self._prey_rows = np.ix_(*(np.arange(k) for k in self.batch + (cfg.n_prey,)))
        self.pos = np.zeros(self.batch + (self.n_bodies, 2))
        self.vel = np.zeros(self.batch + (self.n_bodies, 2))

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
        clipped = _clip_unit(acts)
        n_clipped = np.count_nonzero(clipped != acts)
        self.clip_events += n_clipped

        n = self.n_agents
        force = clipped * self._accel
        force += self._contact_forces()[..., :n, :]
        vel = self.vel[..., :n, :] * (1.0 - cfg.damping) + force / self._mass * cfg.dt
        speed = _norm(vel)
        cap = self._max_speed
        vel *= (cap / np.maximum(speed, cap))[..., None]   # exactly 1.0 under the cap
        self.vel[..., :n, :] = vel
        self.pos[..., :n, :] += vel * cfg.dt

        self.t += 1
        done = self.t >= cfg.episode_length
        rel = self._relative()
        rewards = _coop_nav_reward(self, rel)[..., None] if cfg.kind == COOP_NAV \
            else _predator_prey_reward(self, rel)
        return self._observe(rel), rewards, done, {"clipped_components": n_clipped}

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
        return self._observe(self._relative())

    def _relative(self) -> list[np.ndarray]:
        """Per agent type ``(..., agents, bodies - 1, 2)``: static bodies, then other agents."""
        return [self.pos[..., others, :] - self.pos[..., own, None, :]
                for own, others, _ in self._type_gathers]

    def _observe(self, rel: list[np.ndarray]) -> list[np.ndarray]:
        out = []
        for (own, _, seen), r in zip(self._type_gathers, rel):
            parts = [self.vel[..., own, :], self.pos[..., own, :], _flat(r)]
            parts += [_flat(self.vel[..., s, :]) for s in seen]
            out.append(np.concatenate(parts, axis=-1))
        return out

    @property
    def obs_dims(self) -> list[int]:
        return [observation_dim(self.cfg, i) for i in range(self.n_agents)]


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
    return _coop_nav_reward(world, world._relative())


def _coop_nav_reward(world: ParticleWorld, rel: list[np.ndarray]) -> np.ndarray:
    """``reward_coop_nav`` from ``_relative``'s positions (landmark columns first)."""
    dists = _norm(rel[0])
    landmarks = world.n_bodies - world.n_agents
    reward = -np.add.reduce(np.minimum.reduce(dists[..., :landmarks], axis=-2), axis=-1)
    # counted per agent, over the columns of the other agents
    hits = np.add.reduce(dists[..., landmarks:] < world._hit_dmin, axis=(-2, -1))
    return reward - world.cfg.coop_collision_penalty * hits


def reward_predator_prey(world: ParticleWorld) -> np.ndarray:
    """(predator joint reward, prey joint reward), ``(..., 2)``, for the
    current state."""
    return _predator_prey_reward(world, world._relative())


def _predator_prey_reward(world: ParticleWorld, rel: list[np.ndarray]) -> np.ndarray:
    """``reward_predator_prey`` from ``_relative``'s positions (prey columns last)."""
    cfg = world.cfg
    np_, ny = cfg.n_predators, cfg.n_prey
    prey = world.pos[..., np_:np_ + ny, :]
    contacts = np.add.reduce(_norm(rel[0][..., -ny:, :]) < world._hit_dmin,
                             axis=(-2, -1))[..., None]
    penalties = cfg.boundary_penalty_scale * _flat(
        _boundary_penalty(np.abs(prey) / cfg.world_half_width))
    # charged prey by prey and coordinate by coordinate: subtract.reduce is a
    # left fold in index order
    prey_reward = np.subtract.reduce(
        np.concatenate([-cfg.tag_reward * contacts, penalties], axis=-1), axis=-1)
    return np.concatenate([cfg.tag_reward * contacts, prey_reward[..., None]], axis=-1)


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
    dists = _norm(deltas)
    nearest = world._prey_rows + (np.argmin(dists, axis=-1),)
    dist = dists[nearest][..., None]
    away = deltas[nearest]
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
    push = np.where(near, push, 0.0)
    for k in range(push.shape[-2]):  # obstacle by obstacle, in index order
        action += push[..., k, :]

    return _clip_unit(action)
