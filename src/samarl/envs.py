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
fully determined by (scenario, seed, actions).

A scenario is its kind and its agent count (``ScenarioConfig``). Every
episode runs ``EPISODE_LENGTH`` = 20 steps. The physics and rewards are
fixed at the values of MPE, the multi-agent particle environment (Lowe et
al., arXiv:1706.02275; https://github.com/openai/multiagent-particle-envs):
the module constants below. Two sets are this module's own: the coop
agents' speed cap, which MPE's cooperative navigation leaves unset, and the
scripted prey's, as MPE has no scripted prey. Every body's mass is 1.0, and so are the world's
half-width, the collision penalty, the boundary penalty scale and the prey's
obstacle gain, so the step leaves each of their divides and products out
(x / 1.0 == 1.0 * x == x).

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
without its Python wrapper.

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

# The scenarios' constants (see the module docstring): the episode's steps,
# the world, the contact springs, the rewards, each body type's radius,
# acceleration and speed cap, and the scripted prey's flee policy
EPISODE_LENGTH = 20
WORLD_HALF_WIDTH = 1.0
DT = 0.1
DAMPING = 0.25
CONTACT_STIFFNESS = 100.0
CONTACT_MARGIN = 0.001
COOP_COLLISION_PENALTY = 1.0
TAG_REWARD = 10.0
BOUNDARY_PENALTY_SCALE = 1.0
AGENT_RADIUS = 0.15
LANDMARK_RADIUS = 0.05
PREDATOR_RADIUS = 0.075
PREY_RADIUS = 0.05
OBSTACLE_RADIUS = 0.2
AGENT_ACCEL = 5.0
AGENT_MAX_SPEED = 2.0
PREDATOR_ACCEL = 3.0
PREDATOR_MAX_SPEED = 1.0
PREY_ACCEL = 4.0
PREY_MAX_SPEED = 1.3
PREY_SENSE_RANGE = 1.0
PREY_BOUNDARY_MARGIN = 0.8
PREY_BOUNDARY_GAIN = 2.0
PREY_OBSTACLE_RANGE = 0.3
PREY_OBSTACLE_GAIN = 1.0
N_OBSTACLES = 3


class ConfigError(ValueError):
    pass


@dataclass
class ScenarioConfig:
    """A scenario: its kind and agent count. The rest is fixed by the module
    constants."""

    kind: str
    n_agents: int

    def __post_init__(self):
        if self.kind not in (COOP_NAV, PREDATOR_PREY):
            raise ConfigError(f"unknown scenario kind '{self.kind}'")
        if self.n_agents < 1:
            raise ConfigError(f"need at least one agent, got {self.n_agents}")
        if self.kind == PREDATOR_PREY and self.n_agents % 3 != 0:
            raise ConfigError(
                f"predator-prey needs a 2:1 predator:prey split; "
                f"{self.n_agents} agents cannot be divided that way")

    @classmethod
    def coop_nav(cls, n_agents: int) -> "ScenarioConfig":
        return cls(COOP_NAV, n_agents)

    @classmethod
    def predator_prey(cls, n_agents: int) -> "ScenarioConfig":
        return cls(PREDATOR_PREY, n_agents)

    @property
    def episode_length(self) -> int:
        """Steps in an episode: ``EPISODE_LENGTH`` in every scenario."""
        return EPISODE_LENGTH

    @property
    def n_landmarks(self) -> int:
        """Landmarks, one per agent, or the 3 obstacles of predator-prey."""
        return self.n_agents if self.kind == COOP_NAV else N_OBSTACLES

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
        self.rng = np.random.default_rng(seed)
        self.batch = () if episodes is None else (episodes,)
        self.clip_events = 0  # out-of-range action components seen so far, all episodes
        self._build_roster()

    def _build_roster(self) -> None:
        """The step's per-world constants, from the scenario's body counts."""
        cfg = self.cfg
        n = self.n_agents = cfg.n_agents
        bodies = self.n_bodies = n + cfg.n_landmarks
        # per block of bodies, in body order: the movable blocks' counts,
        # accel and speed caps, and the colliding blocks' counts and radii.
        # The colliders lead, as landmarks do not collide. A hit is a contact
        # of two agents, or of a predator and a prey.
        if cfg.kind == COOP_NAV:
            movable = colliders = [n]
            accel, max_speed, radius = [AGENT_ACCEL], [AGENT_MAX_SPEED], [AGENT_RADIUS]
            self._hit_dmin = AGENT_RADIUS + AGENT_RADIUS
            # per agent type: its agents, and the agents whose velocities it sees
            types = [(0, n, None)]
        else:
            np_ = cfg.n_predators
            movable, colliders = [np_, cfg.n_prey], [np_, cfg.n_prey, cfg.n_landmarks]
            accel, max_speed = [PREDATOR_ACCEL, PREY_ACCEL], [PREDATOR_MAX_SPEED, PREY_MAX_SPEED]
            radius = [PREDATOR_RADIUS, PREY_RADIUS, OBSTACLE_RADIUS]
            self._hit_dmin = PREDATOR_RADIUS + PREY_RADIUS
            predators, prey = (0, np_), (np_, n)
            types = [(*predators, slice(*prey)), (*prey, slice(*predators))]
        self._accel = np.repeat(accel, movable)[:, None]
        self._max_speed = np.repeat(max_speed, movable)
        r = np.repeat(radius, colliders)
        self._n_colliders = c = len(r)
        # A body never touches itself: on the diagonal, the contact distance
        # floor is infinite.
        self._contact_dmin = r[:, None] + r[None, :]
        self._contact_floor = np.where(np.eye(c, dtype=bool), np.inf, 1e-9)
        # An episode's state is a row of _state: positions, velocities, a zero
        # pair; pos and vel view it. Per type, an observation is a gather of
        # _state less another: the own position for a relative one, else the
        # zeros (x - 0.0 == x), led by the episode axis, so it is C-ordered.
        width = 4 * bodies + 2
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
        whw = WORLD_HALF_WIDTH
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
        vel = self.vel[..., :n, :] * (1.0 - DAMPING) + force * DT
        speed = _norm(vel)
        cap = self._max_speed
        vel *= (cap / np.maximum(speed, cap))[..., None]   # exactly 1.0 under the cap
        self.vel[..., :n, :] = vel
        self.pos[..., :n, :] += vel * DT

        obs = self.observe()
        rewards = coop_nav_reward(self, obs[0])[..., None] if self.cfg.kind == COOP_NAV \
            else predator_prey_reward(self, obs[0])
        return obs, rewards

    def _contact_forces(self) -> np.ndarray:
        """Soft-spring repulsion with a logistic penetration ramp, on the
        collider block: ``(..., colliders, 2)``."""
        p = self.pos[..., : self._n_colliders, :]
        delta = p[..., :, None, :] - p[..., None, :, :]
        dist = np.maximum(_norm(delta), self._contact_floor)
        penetration = CONTACT_MARGIN * np.logaddexp(
            0.0, (self._contact_dmin - dist) / CONTACT_MARGIN)
        magnitude = CONTACT_STIFFNESS * penetration / dist
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


def coop_nav_reward(world: ParticleWorld, obs: np.ndarray) -> np.ndarray:
    """Joint navigation reward ``(...)``, coverage distance plus collision
    penalties, from the agents' observations, whose relative positions
    (landmarks first) fill the columns after the first four."""
    dists = _norm(obs[..., 4:].reshape(obs.shape[:-1] + (-1, 2)))
    landmarks = world.n_bodies - world.n_agents
    reward = -np.add.reduce(np.minimum.reduce(dists[..., :landmarks], axis=-2), axis=-1)
    # counted per agent, over the columns of the other agents; each costs
    # COOP_COLLISION_PENALTY, 1.0
    hits = np.add.reduce(dists[..., landmarks:] < world._hit_dmin, axis=(-2, -1))
    return reward - hits


def predator_prey_reward(world: ParticleWorld, obs: np.ndarray) -> np.ndarray:
    """(predator joint reward, prey joint reward), ``(..., 2)``, from the
    predators' observations, which end with the prey's relative positions
    and then their velocities."""
    np_, ny = world.cfg.n_predators, world.cfg.n_prey
    prey = world.pos[..., np_:np_ + ny, :]
    end = obs.shape[-1] - 2 * ny
    rel = obs[..., end - 2 * ny:end].reshape(obs.shape[:-1] + (ny, 2))
    contacts = np.add.reduce(_norm(rel) < world._hit_dmin, axis=(-2, -1))[..., None]
    # |coordinate| is in half-widths, and the penalties are at their scale,
    # as WORLD_HALF_WIDTH and BOUNDARY_PENALTY_SCALE are 1.0
    penalties = _flat(_boundary_penalty(np.abs(prey)))
    tags = TAG_REWARD * contacts
    # [tags, -tags, penalties] folds into (tags, -tags - penalties): the prey
    # are charged prey by prey and coordinate by coordinate, as subtract's
    # reductions are left folds in index order
    return np.subtract.reduceat(np.concatenate([tags, -tags, penalties], axis=-1), [0, 1],
                                axis=-1)


def _boundary_penalty(v: np.ndarray) -> np.ndarray:
    """Soft ramp on |coordinate| in half-width units; zero inside 0.9."""
    ramp = np.where(v < 1.0, (v - 0.9) * 10.0, np.minimum(np.exp(2.0 * v - 2.0), 10.0))
    return np.maximum(ramp, 0.0)   # +0 below 0.9, where the ramp is negative


def scripted_prey(prey_obs: np.ndarray, n_predators: int) -> np.ndarray:
    """Deterministic flee policy standing in for a pre-trained prey: actions
    ``(..., prey, 2)`` from the prey observations ``(..., prey, obs dim)``.

    Runs away from the nearest predator inside the sensing range, blended
    with an inward push near walls and repulsion from nearby obstacles. With
    no predator in range the policy stays put (modulo wall/obstacle terms).
    """
    # a prey's row: 4 own columns, 3 obstacles, the other agents, predator velocities
    if prey_obs.shape[-2:] != (n_predators // 2, 8 + 5 * n_predators):
        raise ConfigError(f"scripted prey acts on predator-prey prey observations; got shape "
                          f"{prey_obs.shape} for {n_predators} predators")
    me = prey_obs[..., 2:4]
    # to the obstacles, then the predators: the stored ``other - me``, negated exactly
    k = N_OBSTACLES + n_predators
    deltas = -prey_obs[..., 4:4 + 2 * k].reshape(me.shape[:-1] + (k, 2))
    dists = _norm(deltas)
    # per prey, row 0 is its action and the rows below its obstacle pushes
    terms = np.zeros(me.shape[:-1] + (1 + N_OBSTACLES, 2))
    action = terms[..., 0, :]

    chased = dists[..., N_OBSTACLES:]
    dist = chased.min(axis=-1, keepdims=True)
    # the nearest predator's row of the flat (prey, k, 2) offsets
    rows = np.arange(N_OBSTACLES, dist.size * k, k).reshape(dist.shape[:-1])
    away = deltas.reshape(-1, 2)[rows + chased.argmin(axis=-1)]
    flee = (dist <= PREY_SENSE_RANGE) & (dist > 0)
    np.divide(away, dist, out=action, where=flee)

    # signed as the coordinate, +-0 inside the margin: no change to a +0 or nonzero action
    excess = np.maximum(np.abs(me) - PREY_BOUNDARY_MARGIN * WORLD_HALF_WIDTH, 0.0)
    action -= np.copysign(PREY_BOUNDARY_GAIN * excess, me)

    dists = dists[..., :N_OBSTACLES, None]
    reach = PREY_OBSTACLE_RANGE
    if dists.min() < reach:   # in most steps no prey is in range of an obstacle
        near = (dists > 0) & (dists < reach)
        push = np.divide(deltas[..., :N_OBSTACLES, :], dists, out=terms[..., 1:, :], where=near)
        # times PREY_OBSTACLE_GAIN, 1.0; out of range: +-0, which adds nothing
        push *= (reach - dists) / reach
        action = np.add.reduce(terms, axis=-2)   # a left fold, obstacle by obstacle
    return _clip_unit(action)
