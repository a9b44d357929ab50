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

Observation layout, fixed per scenario and agent count:
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
    """One scenario instance; owns the body arrays and an RNG for resets."""

    def __init__(self, cfg: ScenarioConfig, seed: int | None = None):
        self.cfg = cfg
        self.rng = np.random.default_rng(cfg.seed if seed is None else seed)
        self.t = 0
        self.clip_events = 0  # out-of-range action components seen so far
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
        else:
            for _ in range(cfg.n_predators):
                push("predator", cfg.predator_radius, cfg.predator_max_speed,
                     cfg.predator_accel, True, True)
            for _ in range(cfg.n_prey):
                push("prey", cfg.prey_radius, cfg.prey_max_speed, cfg.prey_accel,
                     True, True)
            for _ in range(cfg.n_landmarks):
                push("obstacle", cfg.obstacle_radius, 0.0, 0.0, False, True)

        self.roles = roles
        self.n_bodies = len(roles)
        self.n_agents = cfg.n_agents
        self.radius = np.array(radius)
        self.mass = np.array(mass)
        self.max_speed = np.array(max_speed)
        self.accel = np.array(accel)
        self.movable = np.array(movable)
        self.collides = np.array(collides)
        self.pos = np.zeros((self.n_bodies, 2))
        self.vel = np.zeros((self.n_bodies, 2))

    @property
    def n_types(self) -> int:
        return len(self.cfg.type_names)

    # -- lifecycle -------------------------------------------------------------

    def reset(self, seed: int | None = None) -> list[np.ndarray]:
        """Place bodies uniformly at random and return per-agent observations."""
        if seed is not None:
            self.rng = np.random.default_rng(seed)
        whw = self.cfg.world_half_width
        self.pos[: self.n_agents] = self.rng.uniform(-whw, whw, size=(self.n_agents, 2))
        n_static = self.n_bodies - self.n_agents
        # landmarks and obstacles stay clear of the walls
        self.pos[self.n_agents:] = self.rng.uniform(-0.9 * whw, 0.9 * whw,
                                                    size=(n_static, 2))
        self.vel[:] = 0.0
        self.t = 0
        return [self.observe(i) for i in range(self.n_agents)]

    def step(self, actions) -> tuple[list[np.ndarray], np.ndarray, bool, dict]:
        """Advance one tick under the given per-agent force commands."""
        cfg = self.cfg
        acts = np.asarray(actions, dtype=np.float64)
        if acts.shape != (self.n_agents, 2):
            raise ValueError(
                f"expected {self.n_agents} force vectors, got shape {acts.shape}")
        clipped = np.clip(acts, -1.0, 1.0)
        n_clipped = int(np.sum(clipped != acts))
        self.clip_events += n_clipped

        forces = np.zeros((self.n_bodies, 2))
        forces[: self.n_agents] = clipped * self.accel[: self.n_agents, None]
        forces += self._contact_forces()

        mov = self.movable
        self.vel[mov] *= 1.0 - cfg.damping
        self.vel[mov] += forces[mov] / self.mass[mov, None] * cfg.dt
        speed = np.linalg.norm(self.vel[mov], axis=-1)
        over = speed > self.max_speed[mov]
        if np.any(over):
            scale = np.ones_like(speed)
            scale[over] = self.max_speed[mov][over] / speed[over]
            self.vel[mov] *= scale[:, None]
        self.pos[mov] += self.vel[mov] * cfg.dt

        self.t += 1
        done = self.t >= cfg.episode_length
        rewards = self._rewards()
        obs = [self.observe(i) for i in range(self.n_agents)]
        return obs, rewards, done, {"clipped_components": n_clipped}

    def _contact_forces(self) -> np.ndarray:
        """Soft-spring repulsion with a logistic penetration ramp."""
        cfg = self.cfg
        idx = np.where(self.collides)[0]
        out = np.zeros((self.n_bodies, 2))
        if idx.size < 2:
            return out
        p = self.pos[idx]
        delta = p[:, None, :] - p[None, :, :]
        dist = np.maximum(np.linalg.norm(delta, axis=-1), 1e-9)
        np.fill_diagonal(dist, np.inf)
        dmin = self.radius[idx][:, None] + self.radius[idx][None, :]
        penetration = cfg.contact_margin * np.logaddexp(
            0.0, -(dist - dmin) / cfg.contact_margin)
        magnitude = cfg.contact_stiffness * penetration / dist
        out[idx] = (delta * magnitude[..., None]).sum(axis=1)
        return out

    # -- observations ----------------------------------------------------------

    def observe(self, agent: int) -> np.ndarray:
        """Fixed-layout observation vector for one agent (see module docstring)."""
        if not 0 <= agent < self.n_agents:
            raise ValueError(f"agent index {agent} out of range")
        cfg = self.cfg
        me = self.pos[agent]
        parts = [self.vel[agent], me]
        parts.append((self.pos[self.n_agents:] - me).reshape(-1))
        others = [j for j in range(self.n_agents) if j != agent]
        parts.append((self.pos[others] - me).reshape(-1))
        if cfg.kind == PREDATOR_PREY:
            if agent < cfg.n_predators:
                opp = list(range(cfg.n_predators, cfg.n_agents))
            else:
                opp = list(range(cfg.n_predators))
            parts.append(self.vel[opp].reshape(-1))
        return np.concatenate(parts)

    @property
    def obs_dims(self) -> list[int]:
        return [observation_dim(self.cfg, i) for i in range(self.n_agents)]

    # -- rewards ---------------------------------------------------------------

    def _rewards(self) -> np.ndarray:
        if self.cfg.kind == COOP_NAV:
            return np.array([reward_coop_nav(self)])
        return np.array(reward_predator_prey(self))


def reward_coop_nav(world: ParticleWorld) -> float:
    """Joint navigation reward: coverage distance plus collision penalties."""
    cfg = world.cfg
    n = world.n_agents
    agents = world.pos[:n]
    landmarks = world.pos[n:]
    dists = np.linalg.norm(agents[:, None, :] - landmarks[None, :, :], axis=-1)
    reward = -float(dists.min(axis=0).sum())
    delta = np.linalg.norm(agents[:, None, :] - agents[None, :, :], axis=-1)
    dmin = world.radius[:n][:, None] + world.radius[:n][None, :]
    hit = delta < dmin
    np.fill_diagonal(hit, False)
    reward -= cfg.coop_collision_penalty * float(hit.sum())  # counted per agent
    return reward


def reward_predator_prey(world: ParticleWorld) -> tuple[float, float]:
    """(predator joint reward, prey joint reward) for the current state."""
    cfg = world.cfg
    np_, ny = cfg.n_predators, cfg.n_prey
    preds = world.pos[:np_]
    prey = world.pos[np_:np_ + ny]
    delta = np.linalg.norm(preds[:, None, :] - prey[None, :, :], axis=-1)
    dmin = world.radius[:np_][:, None] + world.radius[np_:np_ + ny][None, :]
    contacts = int((delta < dmin).sum())
    predator_reward = cfg.tag_reward * contacts
    prey_reward = -cfg.tag_reward * contacts
    whw = cfg.world_half_width
    for p in prey:
        for coord in p:
            prey_reward -= cfg.boundary_penalty_scale * _boundary_penalty(
                abs(float(coord)) / whw)
    return float(predator_reward), float(prey_reward)


def _boundary_penalty(v: float) -> float:
    """Soft ramp on |coordinate| in half-width units; zero inside 0.9."""
    if v < 0.9:
        return 0.0
    if v < 1.0:
        return (v - 0.9) * 10.0
    return min(np.exp(2.0 * v - 2.0), 10.0)


def scripted_prey(world: ParticleWorld, prey_index: int) -> np.ndarray:
    """Deterministic flee policy standing in for a pre-trained prey.

    Runs away from the nearest predator inside the sensing range, blended
    with an inward push near walls and repulsion from nearby obstacles. With
    no predator in range the policy stays put (modulo wall/obstacle terms).
    """
    cfg = world.cfg
    if cfg.kind != PREDATOR_PREY:
        raise ConfigError("scripted prey only exists in the predator-prey scenario")
    if not cfg.n_predators <= prey_index < cfg.n_agents:
        raise ValueError(f"body {prey_index} is not a prey agent")

    me = world.pos[prey_index]
    action = np.zeros(2)

    preds = world.pos[: cfg.n_predators]
    deltas = me - preds
    dists = np.linalg.norm(deltas, axis=-1)
    nearest = int(np.argmin(dists))
    if dists[nearest] <= cfg.prey_sense_range and dists[nearest] > 0:
        action += deltas[nearest] / dists[nearest]

    margin = cfg.prey_boundary_margin * cfg.world_half_width
    for axis in range(2):
        excess = abs(me[axis]) - margin
        if excess > 0:
            action[axis] -= np.sign(me[axis]) * cfg.prey_boundary_gain * excess

    obstacles = world.pos[world.n_agents:]
    for obstacle in obstacles:
        delta = me - obstacle
        d = float(np.linalg.norm(delta))
        if 0 < d < cfg.prey_obstacle_range:
            action += (delta / d) * cfg.prey_obstacle_gain * (
                (cfg.prey_obstacle_range - d) / cfg.prey_obstacle_range)

    return np.clip(action, -1.0, 1.0)
