"""Particle-world environment: physics, rewards, observations, determinism."""

import hashlib
import math
from collections import namedtuple

import numpy as np
import pytest

from samarl import envs
from samarl.envs import (
    AGENT_ACCEL,
    AGENT_MAX_SPEED,
    AGENT_RADIUS,
    BOUNDARY_PENALTY_SCALE,
    CONTACT_MARGIN,
    CONTACT_STIFFNESS,
    COOP_NAV,
    DAMPING,
    DT,
    LANDMARK_RADIUS,
    OBSTACLE_RADIUS,
    PREDATOR_ACCEL,
    PREDATOR_MAX_SPEED,
    PREDATOR_PREY,
    PREDATOR_RADIUS,
    PREY_ACCEL,
    PREY_BOUNDARY_GAIN,
    PREY_BOUNDARY_MARGIN,
    PREY_MAX_SPEED,
    PREY_OBSTACLE_GAIN,
    PREY_OBSTACLE_RANGE,
    PREY_RADIUS,
    PREY_SENSE_RANGE,
    TAG_REWARD,
    WORLD_HALF_WIDTH,
    ConfigError,
    ParticleWorld,
    ScenarioConfig,
    coop_nav_reward,
    predator_prey_reward,
    scripted_prey,
)


Body = namedtuple("Body", "mass movable collides radius accel cap")


def body_table(cfg):
    """One ``Body`` per body, in the world's body order, built from the
    scenario's counts and the constants, not read from the world."""
    if cfg.kind == COOP_NAV:
        blocks = [(cfg.n_agents, Body(1.0, True, True, AGENT_RADIUS, AGENT_ACCEL,
                                      AGENT_MAX_SPEED)),
                  (cfg.n_landmarks, Body(1.0, False, False, LANDMARK_RADIUS, 0.0, 0.0))]
    else:
        blocks = [(cfg.n_predators, Body(1.0, True, True, PREDATOR_RADIUS, PREDATOR_ACCEL,
                                         PREDATOR_MAX_SPEED)),
                  (cfg.n_prey, Body(1.0, True, True, PREY_RADIUS, PREY_ACCEL, PREY_MAX_SPEED)),
                  (cfg.n_landmarks, Body(1.0, False, True, OBSTACLE_RADIUS, 0.0, 0.0))]
    return [body for count, body in blocks for _ in range(count)]


def scalar_physics_oracle(cfg, world, actions):
    """Advance one tick with per-body scalar arithmetic, no numpy broadcasting.

    Returns (positions, velocities) lists; used to cross-check the vectorized
    integrator.
    """
    table = body_table(cfg)
    nb = len(table)
    pos = [[float(world.pos[i][0]), float(world.pos[i][1])] for i in range(nb)]
    vel = [[float(world.vel[i][0]), float(world.vel[i][1])] for i in range(nb)]
    forces = [[0.0, 0.0] for _ in range(nb)]

    for i in range(cfg.n_agents):
        for axis in range(2):
            a = min(1.0, max(-1.0, float(actions[i][axis])))
            forces[i][axis] += a * table[i].accel

    def softplus(x):
        if x > 0:
            return x + math.log1p(math.exp(-x))
        return math.log1p(math.exp(x))

    for i in range(nb):
        if not table[i].collides:
            continue
        for j in range(nb):
            if i == j or not table[j].collides:
                continue
            dx = pos[i][0] - pos[j][0]
            dy = pos[i][1] - pos[j][1]
            dist = max(math.sqrt(dx * dx + dy * dy), 1e-9)
            dmin = table[i].radius + table[j].radius
            pen = CONTACT_MARGIN * softplus(-(dist - dmin) / CONTACT_MARGIN)
            mag = CONTACT_STIFFNESS * pen / dist
            forces[i][0] += dx * mag
            forces[i][1] += dy * mag

    for i, body in enumerate(table):
        if not body.movable:
            continue
        for axis in range(2):
            vel[i][axis] = vel[i][axis] * (1.0 - DAMPING) + forces[i][axis] / body.mass * DT
        speed = math.sqrt(vel[i][0] ** 2 + vel[i][1] ** 2)
        cap = body.cap
        if speed > cap:
            vel[i][0] *= cap / speed
            vel[i][1] *= cap / speed
        for axis in range(2):
            pos[i][axis] += vel[i][axis] * DT
    return pos, vel


def loop_scripted_prey(cfg, pos, prey_index):
    """The flee policy for one prey and one state, term by term in a loop;
    the reference the vectorized ``scripted_prey`` must equal bitwise."""
    me = pos[prey_index]
    action = np.zeros(2)
    deltas = me - pos[: cfg.n_predators]
    dists = np.linalg.norm(deltas, axis=-1)
    nearest = int(np.argmin(dists))
    if dists[nearest] <= PREY_SENSE_RANGE and dists[nearest] > 0:
        action += deltas[nearest] / dists[nearest]
    margin = PREY_BOUNDARY_MARGIN * WORLD_HALF_WIDTH
    for axis in range(2):
        excess = abs(me[axis]) - margin
        if excess > 0:
            action[axis] -= np.sign(me[axis]) * PREY_BOUNDARY_GAIN * excess
    for obstacle in pos[cfg.n_agents:]:
        delta = me - obstacle
        d = float(np.linalg.norm(delta))
        if 0 < d < PREY_OBSTACLE_RANGE:
            action += (delta / d) * PREY_OBSTACLE_GAIN * (
                (PREY_OBSTACLE_RANGE - d) / PREY_OBSTACLE_RANGE)
    return np.clip(action, -1.0, 1.0)


def loop_prey_reward(cfg, pos):
    """The prey's joint reward for one state, boundary penalties added prey
    by prey and coordinate by coordinate; reference for
    ``predator_prey_reward``."""
    np_, ny = cfg.n_predators, cfg.n_prey
    delta = np.linalg.norm(pos[:np_, None, :] - pos[None, np_:np_ + ny, :], axis=-1)
    contacts = int((delta < PREDATOR_RADIUS + PREY_RADIUS).sum())
    reward = -TAG_REWARD * contacts
    for prey in pos[np_:np_ + ny]:
        for coord in prey:
            v = abs(float(coord)) / WORLD_HALF_WIDTH
            if v >= 0.9:
                reward -= BOUNDARY_PENALTY_SCALE * (
                    (v - 0.9) * 10.0 if v < 1.0 else min(np.exp(2.0 * v - 2.0), 10.0))
    return reward


class TestConfig:
    def test_predator_prey_requires_ratio(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.predator_prey(4)

    @pytest.mark.parametrize("n", [3, 6, 9])
    def test_predator_prey_split(self, n):
        cfg = ScenarioConfig.predator_prey(n)
        assert cfg.n_predators == 2 * n // 3
        assert cfg.n_prey == n // 3

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(kind="tag", n_agents=3)

    # the physics is fixed: no config can carry a value, and each constant
    # keeps the sign the step needs
    @pytest.mark.parametrize("name", [
        "dt", "contact_stiffness", "contact_margin", "agent_radius", "landmark_radius",
        "predator_radius", "prey_radius", "obstacle_radius", "agent_accel", "predator_accel",
        "prey_accel", "agent_max_speed", "predator_max_speed", "prey_max_speed",
        "world_half_width", "prey_sense_range", "prey_obstacle_range"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("inf"), float("nan")])
    def test_non_positive_physics_field_rejected(self, name, value):
        with pytest.raises(TypeError, match=name):
            ScenarioConfig.coop_nav(1, **{name: value})
        with pytest.raises(TypeError, match=name):
            ScenarioConfig.predator_prey(3, **{name: value})
        constant = getattr(envs, name.upper())
        assert math.isfinite(constant) and constant > 0

    @pytest.mark.parametrize("name", [
        "prey_boundary_margin", "prey_boundary_gain", "prey_obstacle_gain", "tag_reward",
        "coop_collision_penalty", "boundary_penalty_scale"])
    def test_negative_or_non_finite_gain_rejected(self, name):
        for value in (-1.0, float("inf"), float("nan")):
            with pytest.raises(TypeError, match=name):
                ScenarioConfig.coop_nav(1, **{name: value})
            with pytest.raises(TypeError, match=name):
                ScenarioConfig.predator_prey(3, **{name: value})
        constant = getattr(envs, name.upper())
        assert math.isfinite(constant) and constant >= 0

    @pytest.mark.parametrize("length", [0, -1])
    def test_episode_length_below_one_rejected(self, length):
        with pytest.raises(ConfigError, match="episode_length"):
            ScenarioConfig.coop_nav(1, episode_length=length)
        with pytest.raises(ConfigError, match="episode_length"):
            ScenarioConfig.predator_prey(3, episode_length=length)

    @pytest.mark.parametrize("make,n", [(ScenarioConfig.coop_nav, n) for n in (1, 3, 5, 8)]
                             + [(ScenarioConfig.predator_prey, n) for n in (3, 6, 9)])
    def test_default_configs_build(self, make, n):
        assert make(n).n_agents == n


class TestReset:
    def test_same_seed_is_bitwise_identical(self):
        cfg = ScenarioConfig.coop_nav(3)
        w1 = ParticleWorld(cfg)
        w2 = ParticleWorld(cfg)
        o1 = w1.reset(seed=99)
        o2 = w2.reset(seed=99)
        assert w1.pos.tobytes() == w2.pos.tobytes()
        for a, b in zip(o1, o2):
            assert a.tobytes() == b.tobytes()

    def test_coop_nav_roster(self):
        # 3 agents, then 3 landmarks
        world = ParticleWorld(ScenarioConfig.coop_nav(3), seed=0)
        world.reset()
        assert world.n_agents == 3 and world.n_bodies == 6
        assert world.pos.shape == world.vel.shape == (6, 2)

    def test_predator_prey_roster(self):
        # 4 predators and 2 prey, then 3 obstacles
        cfg = ScenarioConfig.predator_prey(6)
        world = ParticleWorld(cfg, seed=0)
        world.reset()
        assert (cfg.n_predators, cfg.n_prey, cfg.n_landmarks) == (4, 2, 3)
        assert world.n_agents == 6 and world.n_bodies == 9
        assert world.pos.shape == world.vel.shape == (9, 2)

    def test_bodies_within_bounds(self):
        world = ParticleWorld(ScenarioConfig.coop_nav(5), seed=1)
        world.reset()
        assert np.all(np.abs(world.pos) <= 1.0)
        assert np.all(world.vel == 0.0)


class TestStep:
    def _single_agent(self):
        world = ParticleWorld(ScenarioConfig.coop_nav(1), seed=0)
        world.reset(seed=0)
        world.pos[0] = [0.0, 0.0]
        world.vel[0] = [0.0, 0.0]
        return world

    def test_hand_stepped_integration(self):
        world = self._single_agent()
        world.step([[1.0, 0.0]])
        # v' = 0*(1-0.25) + (1*5/1)*0.1 = 0.5 ; p' = 0 + 0.5*0.1 = 0.05
        assert world.vel[0] == pytest.approx([0.5, 0.0], abs=1e-12)
        assert world.pos[0] == pytest.approx([0.05, 0.0], abs=1e-12)

    def test_zero_force_damps_velocity(self):
        world = self._single_agent()
        world.vel[0] = [1.0, 0.0]
        world.step([[0.0, 0.0]])
        assert world.vel[0][0] == pytest.approx(0.75, abs=1e-12)

    def test_speed_cap_is_exact(self):
        # a force of 1 alone reaches the cap of 2.0 only in the limit, so the
        # agent starts above it: v' = [3, 4] * 0.75 = [2.25, 3.0], speed 3.75,
        # scaled down to 2.0 along the same direction
        world = self._single_agent()
        world.vel[0] = [3.0, 4.0]
        world.step([[0.0, 0.0]])
        assert np.linalg.norm(world.vel[0]) == pytest.approx(AGENT_MAX_SPEED, abs=1e-12)
        assert world.vel[0] == pytest.approx([1.2, 1.6], abs=1e-12)

    def test_out_of_range_actions_clipped_and_counted(self):
        world = self._single_agent()
        world.step([[4.0, -9.0]])
        assert world.clip_events == 2
        # same motion as a fully saturated command
        clean = self._single_agent()
        clean.step([[1.0, -1.0]])
        assert np.array_equal(world.vel, clean.vel)

    def test_action_count_checked(self):
        world = ParticleWorld(ScenarioConfig.coop_nav(3), seed=4)
        world.reset()
        with pytest.raises(ValueError, match="3 force vectors"):
            world.step(np.zeros((2, 2)))


class TestRewards:
    def test_coop_nav_zero_when_covered(self):
        world = ParticleWorld(ScenarioConfig.coop_nav(3), seed=5)
        world.reset()
        world.pos[3:] = [[0.5, 0.5], [-0.5, 0.5], [0.0, -0.5]]
        world.pos[:3] = world.pos[3:]
        # stacked agents would collide; spread them exactly onto landmarks
        assert coop_nav_reward(world, world.observe()[0]) == pytest.approx(0.0)

    def test_coop_nav_single_agent_distance(self):
        world = ParticleWorld(ScenarioConfig.coop_nav(1), seed=6)
        world.reset()
        world.pos[0] = [0.0, 0.0]
        world.pos[1] = [0.3, 0.4]
        assert coop_nav_reward(world, world.observe()[0]) == pytest.approx(-0.5)

    def test_coop_nav_collision_counted_per_agent(self):
        world = ParticleWorld(ScenarioConfig.coop_nav(2), seed=7)
        world.reset()
        world.pos[:2] = [[0.0, 0.0], [0.01, 0.0]]  # overlapping pair
        world.pos[2:] = [[0.9, 0.9], [-0.9, -0.9]]
        dist_term = -sum(
            min(np.linalg.norm(world.pos[a] - world.pos[lm]) for a in (0, 1))
            for lm in (2, 3))
        assert coop_nav_reward(world, world.observe()[0]) == pytest.approx(dist_term - 2.0, abs=1e-9)

    def test_predator_prey_quiet_state(self):
        world = ParticleWorld(ScenarioConfig.predator_prey(3), seed=8)
        world.reset()
        world.pos[:2] = [[-0.5, -0.5], [0.5, 0.5]]
        world.pos[2] = [0.0, 0.0]
        pred, prey = predator_prey_reward(world, world.observe()[0])
        assert pred == 0.0 and prey == 0.0

    def test_predator_prey_contact_payout(self):
        world = ParticleWorld(ScenarioConfig.predator_prey(3), seed=9)
        world.reset()
        world.pos[:2] = [[0.0, 0.0], [0.7, 0.7]]
        world.pos[2] = [0.05, 0.0]  # within 0.075 + 0.05 of predator 0
        pred, prey = predator_prey_reward(world, world.observe()[0])
        assert pred == pytest.approx(10.0)
        assert prey == pytest.approx(-10.0)

    def test_prey_boundary_penalty(self):
        world = ParticleWorld(ScenarioConfig.predator_prey(3), seed=10)
        world.reset()
        world.pos[:2] = [[-0.5, -0.5], [-0.6, 0.5]]
        world.pos[2] = [1.001, 0.0]  # just past the wall
        pred, prey = predator_prey_reward(world, world.observe()[0])
        assert pred == 0.0
        assert prey < 0.0

    def test_reward_symmetry_within_type(self):
        # the env emits one scalar per type; every agent of the type sees it
        world = ParticleWorld(ScenarioConfig.predator_prey(6), seed=11)
        world.reset()
        _, rewards = world.step(np.zeros((6, 2)))
        assert rewards.shape == (2,)


class TestObservations:
    def test_relative_landmark_entry(self):
        world = ParticleWorld(ScenarioConfig.coop_nav(1), seed=12)
        world.reset()
        world.pos[0] = [0.0, 0.0]
        world.vel[0] = [0.0, 0.0]
        world.pos[1] = [1.0, 2.0]
        obs = world.observe()[0][0]
        assert obs[4] == pytest.approx(1.0)
        assert obs[5] == pytest.approx(2.0)

    def test_layout_matches_dim(self):
        for cfg in (ScenarioConfig.coop_nav(4), ScenarioConfig.predator_prey(6)):
            world = ParticleWorld(cfg, seed=13)
            # one array per agent type; their rows list the agents in index order
            per_type = world.reset()
            assert [rows.shape[-1] for rows in per_type] == world.obs_dims
            obs = [row for rows in per_type for row in rows]
            for i in range(cfg.n_agents):
                # own velocity and position, landmarks, other agents, and in
                # predator-prey the opposite type's velocities
                opposite = 0
                if cfg.kind == PREDATOR_PREY:
                    opposite = cfg.n_prey if i < cfg.n_predators else cfg.n_predators
                expected = 4 + 2 * cfg.n_landmarks + 2 * (cfg.n_agents - 1) + 2 * opposite
                assert expected == obs[i].shape[0]

    def test_joint_full_observability(self):
        # own velocity + position of every agent reconstructs the agent state,
        # and landmark positions follow from any agent's relative entries
        cfg = ScenarioConfig.coop_nav(3)
        world = ParticleWorld(cfg, seed=14)
        (observations,) = world.reset()
        for i, obs in enumerate(observations):
            assert np.allclose(obs[0:2], world.vel[i])
            assert np.allclose(obs[2:4], world.pos[i])
        landmarks = observations[0][4:4 + 6].reshape(3, 2) + world.pos[0]
        assert np.allclose(landmarks, world.pos[3:])

    def test_length_constant_across_steps(self):
        world = ParticleWorld(ScenarioConfig.predator_prey(6), seed=15)
        obs = world.reset()
        sizes = [o.shape[0] for o in obs]
        for _ in range(5):
            obs, _ = world.step(np.zeros((6, 2)))
            assert [o.shape[0] for o in obs] == sizes


class TestScriptedPrey:
    def _world(self):
        world = ParticleWorld(ScenarioConfig.predator_prey(3), seed=16)
        world.reset()
        world.pos[world.n_agents:] = [[0.9, 0.9], [-0.9, 0.9], [0.9, -0.9]]
        return world

    def test_flees_directly_away(self):
        world = self._world()
        world.pos[2] = [0.0, 0.0]
        world.pos[:2] = [[-0.5, 0.0], [-0.9, -0.9]]
        (action,) = scripted_prey(world)
        assert action == pytest.approx([1.0, 0.0], abs=1e-9)

    def test_boundary_repulsion_shrinks_push(self):
        world = self._world()
        world.pos[2] = [1.0, 0.0]
        world.pos[:2] = [[0.5, 0.0], [-0.9, -0.9]]
        (action,) = scripted_prey(world)
        assert action[0] < 1.0
        assert action[0] > 0.0  # still fleeing, just tempered

    def test_idle_when_no_predator_in_range(self):
        world = self._world()
        world.pos[2] = [0.0, 0.0]
        world.pos[:2] = [[-0.9, -0.9], [0.9, -0.9]]  # > 1.0 away
        (action,) = scripted_prey(world)
        assert np.array_equal(action, [0.0, 0.0])

    def test_only_valid_for_prey(self):
        world = ParticleWorld(ScenarioConfig.coop_nav(3), seed=16)
        world.reset()
        with pytest.raises(ConfigError, match="predator-prey"):
            scripted_prey(world)


class TestDeterminismAndOracle:
    def test_trajectory_replay_is_bitwise(self):
        cfg = ScenarioConfig.predator_prey(3)
        rng = np.random.default_rng(17)
        actions = rng.uniform(-1, 1, size=(20, 3, 2))

        def run():
            world = ParticleWorld(cfg, seed=21)
            world.reset(seed=5)
            chunks = []
            for t in range(20):
                _, rewards = world.step(actions[t])
                chunks.append(world.pos.tobytes())
                chunks.append(world.vel.tobytes())
                chunks.append(rewards.tobytes())
            return b"".join(chunks)

        assert run() == run()

    # predator_prey9 is the case whose prey touch predators and obstacles
    @pytest.mark.parametrize("cfg", [ScenarioConfig.coop_nav(3), ScenarioConfig.predator_prey(3),
                                     ScenarioConfig.predator_prey(9)],
                             ids=["coop_nav3", "predator_prey3", "predator_prey9"])
    def test_hundred_steps_match_scalar_oracle(self, cfg):
        world = ParticleWorld(cfg, seed=18)
        world.reset(seed=42)
        rng = np.random.default_rng(19)
        for _ in range(100):
            actions = rng.uniform(-1.5, 1.5, size=(cfg.n_agents, 2))
            expected_pos, expected_vel = scalar_physics_oracle(cfg, world, actions)
            world.step(actions)
            assert np.allclose(world.pos, expected_pos, atol=1e-9)
            assert np.allclose(world.vel, expected_vel, atol=1e-9)

    def test_speed_cap_invariant_under_random_play(self):
        cfg = ScenarioConfig.predator_prey(6)
        world = ParticleWorld(cfg, seed=20)
        world.reset(seed=1)
        caps = np.array([body.cap for body in body_table(cfg)[:cfg.n_agents]])
        rng = np.random.default_rng(23)
        for _ in range(50):
            world.step(rng.uniform(-1, 1, size=(6, 2)))
            speeds = np.linalg.norm(world.vel[: world.n_agents], axis=-1)
            assert np.all(speeds <= caps + 1e-12)


class TestLockstep:
    """A world of E episodes against E unbatched worlds: bitwise equal."""

    EPISODES = 4

    @pytest.mark.parametrize("cfg", [ScenarioConfig.coop_nav(1), ScenarioConfig.coop_nav(3),
                                     ScenarioConfig.coop_nav(9), ScenarioConfig.predator_prey(3),
                                     ScenarioConfig.predator_prey(9)],
                             ids=["coop_nav1", "coop_nav3", "coop_nav9", "predator_prey3",
                                  "predator_prey9"])
    def test_batched_steps_equal_single_worlds(self, cfg):
        batched = ParticleWorld(cfg, seed=31, episodes=self.EPISODES)
        batched.reset()
        singles = []
        for e in range(self.EPISODES):
            world = ParticleWorld(cfg, seed=e)
            world.reset()
            world.pos[:] = batched.pos[e]
            singles.append(world)
        rng = np.random.default_rng(32)
        trainable = cfg.n_predators if cfg.kind == PREDATOR_PREY else cfg.n_agents
        prey_rewards = []
        for t in range(40):
            # beyond [-1, 1], so that clipping is exercised too
            acts = rng.uniform(-1.5, 1.5, size=(self.EPISODES, trainable, 2))
            if cfg.kind == PREDATOR_PREY:
                prey = scripted_prey(batched)
                for e, world in enumerate(singles):
                    assert prey[e].tobytes() == scripted_prey(world).tobytes(), (t, e)
                acts = np.concatenate([acts, prey], axis=1)
            obs, rewards = batched.step(acts)
            assert rewards.shape == (self.EPISODES, batched.n_types)
            for e, world in enumerate(singles):
                obs_e, rewards_e = world.step(acts[e])
                assert world.pos.tobytes() == batched.pos[e].tobytes(), (t, e)
                assert world.vel.tobytes() == batched.vel[e].tobytes(), (t, e)
                assert rewards_e.tobytes() == rewards[e].tobytes(), (t, e)
                for per_type, single in zip(obs, obs_e):
                    assert single.tobytes() == per_type[e].tobytes(), (t, e)
            prey_rewards.append(rewards[..., -1])
        assert batched.clip_events == sum(w.clip_events for w in singles) > 0
        if cfg.kind == PREDATOR_PREY:
            # some prey crossed the wall margin, so the boundary terms were compared
            assert np.any(np.concatenate(prey_rewards) % TAG_REWARD != 0)

    @pytest.mark.parametrize("cfg", [ScenarioConfig.coop_nav(3),
                                     ScenarioConfig.predator_prey(9)],
                             ids=["coop_nav3", "predator_prey9"])
    def test_batched_reset_equals_sequential_resets(self, cfg):
        batched = ParticleWorld(cfg, seed=33, episodes=self.EPISODES)
        obs = batched.reset()
        single = ParticleWorld(cfg, seed=33)
        for e in range(self.EPISODES):
            obs_e = single.reset()
            assert single.pos.tobytes() == batched.pos[e].tobytes(), e
            for per_type, one in zip(obs, obs_e):
                assert one.tobytes() == per_type[e].tobytes(), e
        assert np.all(batched.vel == 0.0)

    def test_prey_policy_and_reward_equal_loop_references(self):
        # crowded states: prey near walls, predators and several obstacles
        cfg = ScenarioConfig.predator_prey(9)
        world = ParticleWorld(cfg, seed=35, episodes=500)
        world.reset()
        rng = np.random.default_rng(36)
        world.pos[...] = rng.uniform(-1.2, 1.2, size=world.pos.shape)
        world.pos[:, cfg.n_agents:] = world.pos[:, cfg.n_predators:cfg.n_agents] \
            + rng.uniform(-0.3, 0.3, size=(500, cfg.n_landmarks, 2))
        actions = scripted_prey(world)
        rewards = predator_prey_reward(world, world.observe()[0])
        crowded = 0
        for e, pos in enumerate(world.pos):
            for j, prey in enumerate(range(cfg.n_predators, cfg.n_agents)):
                expected = loop_scripted_prey(cfg, pos, prey)
                assert actions[e, j].tobytes() == expected.tobytes(), (e, j)
                near = np.linalg.norm(pos[cfg.n_agents:] - pos[prey], axis=-1)
                crowded += np.sum(near < PREY_OBSTACLE_RANGE) > 1
            assert rewards[e, 1] == loop_prey_reward(cfg, pos), e
        assert crowded > 0  # the order of the obstacle terms was compared

    @pytest.mark.parametrize("cfg", [ScenarioConfig.coop_nav(5), ScenarioConfig.predator_prey(9)],
                             ids=["coop_nav5", "predator_prey9"])
    @pytest.mark.parametrize("episodes", [None, 3])
    def test_standalone_observation_and_reward_equal_step(self, cfg, episodes):
        # step shares one relative-position gather between its observations
        # and rewards; called alone, they must build the same bytes
        world = ParticleWorld(cfg, seed=37, episodes=episodes)
        world.reset()
        rng = np.random.default_rng(38)
        world.pos[...] = rng.uniform(-0.4, 0.4, size=world.pos.shape)   # crowded: hits
        trainable = cfg.n_predators if cfg.kind == PREDATOR_PREY else cfg.n_agents
        n, np_ = cfg.n_agents, cfg.n_predators
        touching = 0
        for t in range(30):
            acts = rng.uniform(-1.5, 1.5, size=world.batch + (trainable, 2))
            if cfg.kind == PREDATOR_PREY:
                acts = np.concatenate([acts, scripted_prey(world)], axis=-2)
            obs, rewards = world.step(acts)
            for alone, stepped in zip(world.observe(), obs):
                assert alone.tobytes() == stepped.tobytes(), t
            if cfg.kind == PREDATOR_PREY:
                alone = predator_prey_reward(world, world.observe()[0])
                pairs = world.pos[..., :np_, None, :] - world.pos[..., None, np_:n, :]
                radii = PREDATOR_RADIUS + PREY_RADIUS
            else:
                alone = coop_nav_reward(world, world.observe()[0])[..., None]
                pairs = world.pos[..., :n, None, :] - world.pos[..., None, :n, :]
                radii = np.where(np.eye(n, dtype=bool), 0.0, 2 * AGENT_RADIUS)
            assert alone.tobytes() == rewards.tobytes(), t
            touching += np.count_nonzero(np.linalg.norm(pairs, axis=-1) < radii)
        assert touching > 0  # the collision or tag terms were compared

    def test_batched_shapes_checked(self):
        world = ParticleWorld(ScenarioConfig.coop_nav(3), seed=34, episodes=2)
        world.reset()
        with pytest.raises(ValueError, match="3 force vectors per episode"):
            world.step(np.zeros((3, 2)))
        with pytest.raises(ConfigError, match="at least one episode"):
            ParticleWorld(ScenarioConfig.coop_nav(3), episodes=0)


def trajectory_digest(cfg, episodes):
    """SHA-256 over a seeded 60-step run: a reset every 20 steps, actions
    uniform in [-1.5, 1.5] (so clipping is exercised), scripted prey. It
    covers positions, velocities, every observation array, the rewards and
    the final clip count, byte for byte."""
    world = ParticleWorld(cfg, seed=41, episodes=episodes)
    rng = np.random.default_rng(42)
    trainable = cfg.n_predators if cfg.kind == PREDATOR_PREY else cfg.n_agents
    digest = hashlib.sha256()
    for t in range(60):
        if t % 20 == 0:
            for obs in world.reset():
                digest.update(obs.tobytes())
        acts = rng.uniform(-1.5, 1.5, size=world.batch + (trainable, 2))
        if cfg.kind == PREDATOR_PREY:
            acts = np.concatenate([acts, scripted_prey(world)], axis=-2)
        observations, rewards = world.step(acts)
        for array in (world.pos, world.vel, *observations, rewards):
            digest.update(array.tobytes())
    digest.update(np.int64(world.clip_events).tobytes())
    return digest.hexdigest()


# Recorded on x86-64 with numpy 2.4.6 and OpenBLAS 0.3.31. Another numpy, BLAS
# or CPU may round differently in the last bit (the prey's obstacle distance
# is a BLAS product), and then these digests do not hold there. A change that
# moves the world's numbers on purpose records new digests and says why in
# CHANGES.md:
#
#     PYTHONPATH=src python tests/test_envs.py --digests
TRAJECTORY_DIGESTS = {
    "coop_nav5": "e91c671e60a1d3c2e7202eb5e3db71e34d0cfae91f960a06603c5fe20f049661",
    "coop_nav5_x3": "d03f5786aa7804572043206ad7a5eeda7564008ea64c4897e8afd7ef511e7860",
    "coop_nav9": "e286020471a8485711271c3fbc8f0fec0f83142c45ef895390c5db38a7c1a6a9",
    "coop_nav9_x3": "f18207c55469a04038ce971e0d33970a208a1c8900cf224bf7a5ae21ff220336",
    "predator_prey9": "f90322a609510ad68b5d251a3f13601974ea2e8cb85efe75e38f7bfb9675e3a9",
    "predator_prey9_x3": "af3a89e81bf9c5b7595323ebb45dedc24dca1634abc635661ce553e2b5cc4e64",
}
TRAJECTORY_CASES = {
    "coop_nav5": (ScenarioConfig.coop_nav(5), None),
    "coop_nav5_x3": (ScenarioConfig.coop_nav(5), 3),
    "coop_nav9": (ScenarioConfig.coop_nav(9), None),
    "coop_nav9_x3": (ScenarioConfig.coop_nav(9), 3),
    "predator_prey9": (ScenarioConfig.predator_prey(9), None),
    "predator_prey9_x3": (ScenarioConfig.predator_prey(9), 3),
}


@pytest.mark.parametrize("case", sorted(TRAJECTORY_CASES))
def test_trajectory_digest(case):
    """Pins the world's bits across versions; the golden run allows 1e-5 and
    the scalar oracle 1e-9."""
    assert trajectory_digest(*TRAJECTORY_CASES[case]) == TRAJECTORY_DIGESTS[case]


if __name__ == "__main__":
    import sys

    if sys.argv[1:] != ["--digests"]:
        sys.exit("usage: python tests/test_envs.py --digests")
    for name in sorted(TRAJECTORY_CASES):
        print(f'    "{name}": "{trajectory_digest(*TRAJECTORY_CASES[name])}",')
