"""Acceptance suite: one test per acceptance criterion, with a pass/fail line.

Criteria 6 and 7 are full learning experiments (hours of CPU) and carry the
``slow`` marker; run them with ``pytest -m slow``. They reuse finished runs
from ``.acceptance_cache/`` when present and train from scratch otherwise.
Everything else runs in the default suite.
"""

import resource
import time
from pathlib import Path

import numpy as np
import pytest

from samarl import ndmath as nd
from samarl import nets
from samarl.algo import AlgoKind, TrainConfig, Trainer, train_step_scheduler
from samarl.envs import ParticleWorld, ScenarioConfig
from samarl.harness import RunConfig, parse_metrics_csv, train
from samarl.ndmath import Tensor

from gradcheck import gradient_check

from test_algo import TestBaselineRecovery, small_cfg
from test_envs import body_table, scalar_physics_oracle
from test_nets import SlotBiasedCritic

CACHE = Path(__file__).resolve().parent.parent / ".acceptance_cache"


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    return ok


# -- criterion 1: gradient suite ------------------------------------------------

def test_criterion_1_gradient_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = {}

    linear = nets.Linear(5, 3, rng, dtype=np.float64)
    x = Tensor(rng.normal(size=(4, 5)), dtype=np.float64)
    worst["linear"] = gradient_check(
        lambda: nd.tsum(nd.mul(linear(x), linear(x))), [linear.w, linear.b])

    block = nets.SelfAttentionBlock(8, rng, heads=2, dtype=np.float64)
    xb = Tensor(rng.normal(size=(2, 3, 8)), dtype=np.float64)
    fold = Tensor(rng.normal(size=(2, 3, 8)), dtype=np.float64)
    worst["attention_block"] = gradient_check(
        lambda: nd.tsum(nd.mul(block.forward(xb), fold)), nets.parameters(block))

    actor = nets.MlpActor(6, 2, rng, hidden_dim=8, dtype=np.float64)
    xo = Tensor(rng.normal(size=(3, 1, 6)), dtype=np.float64)
    worst["mlp_actor"] = gradient_check(
        lambda: nd.tsum(nd.mul(actor.forward(xo), actor.forward(xo))),
        nets.parameters(actor))

    critic = nets.CriticNet(4, 2, rng, hidden_dim=8, heads=2, blocks=2,
                            dtype=np.float64)
    obs = Tensor(rng.normal(size=(2, 3, 4)), dtype=np.float64)
    act = Tensor(rng.normal(size=(2, 3, 2)), dtype=np.float64)
    worst["sa_critic"] = gradient_check(
        lambda: nd.tsum(critic.forward(obs, act)), nets.parameters(critic))

    aactor = nets.AttentionActor(4, 2, rng, hidden_dim=8, heads=2, blocks=2,
                                 dtype=np.float64)
    worst["attention_actor"] = gradient_check(
        lambda: nd.tsum(nd.mul(aactor.forward(obs), aactor.forward(obs))),
        nets.parameters(aactor))

    elapsed = time.perf_counter() - started
    top = max(worst.values())
    ok = top < 1e-3 and elapsed < 60.0
    assert report("criterion 1 (gradient suite)", ok,
                  f"max rel err {top:.2e} over {sorted(worst)}; {elapsed:.1f}s")


# -- criterion 2: permutation suite ----------------------------------------------

def test_criterion_2_permutation_suite():
    rng = np.random.default_rng(1)
    worst_equiv = worst_total = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 6))
        critic = nets.CriticNet(5, 2, np.random.default_rng(1000 + trial),
                                hidden_dim=16, heads=2, dtype=np.float64)
        obs = rng.normal(size=(3, n, 5))
        act = rng.normal(size=(3, n, 2))
        perm = rng.permutation(n)
        q = critic.forward(Tensor(obs, dtype=np.float64),
                           Tensor(act, dtype=np.float64)).data
        qp = critic.forward(Tensor(obs[:, perm], dtype=np.float64),
                            Tensor(act[:, perm], dtype=np.float64)).data
        worst_equiv = max(worst_equiv, float(np.max(np.abs(qp - q[:, perm]))))
        worst_total = max(worst_total, float(np.max(np.abs(
            qp.sum(axis=-1) - q.sum(axis=-1)))))

    # negative control: an injected per-slot bias must break the property
    biased = SlotBiasedCritic(5, 2, np.random.default_rng(7), hidden_dim=16,
                              heads=2, dtype=np.float64, n_agents=4)
    obs = rng.normal(size=(3, 4, 5))
    act = rng.normal(size=(3, 4, 2))
    perm = np.array([1, 0, 3, 2])
    q = biased.forward(Tensor(obs, dtype=np.float64),
                       Tensor(act, dtype=np.float64)).data
    qp = biased.forward(Tensor(obs[:, perm], dtype=np.float64),
                        Tensor(act[:, perm], dtype=np.float64)).data
    control_dev = float(np.max(np.abs(qp - q[:, perm])))

    ok = worst_equiv < 1e-6 and worst_total < 1e-6 and control_dev > 1e-6
    assert report("criterion 2 (permutation suite)", ok,
                  f"equivariance {worst_equiv:.2e}, total-Q {worst_total:.2e}, "
                  f"positional control deviates {control_dev:.2e}")


# -- criterion 3: baseline-recovery oracle ----------------------------------------

def test_criterion_3_baseline_recovery():
    TestBaselineRecovery().test_two_agent_linear_network_oracle()
    assert report("criterion 3 (baseline recovery)", True,
                  "hand-stepped two-agent update matches framework within 1e-8")


# -- criterion 4: scheduler arithmetic --------------------------------------------

def test_criterion_4_scheduler_arithmetic():
    cfg = TrainConfig()
    critic = policy = 0
    for episode in range(100_000):
        c, p = train_step_scheduler(episode, cfg, AlgoKind.SA_MATD3)
        critic += c
        policy += p
    ok = critic == 18_000 and policy == 9_000
    assert report("criterion 4 (scheduler arithmetic)", ok,
                  f"critic updates {critic}, policy updates {policy}")


# -- criterion 5: physics oracle ----------------------------------------------------

# a pair of bodies is in near contact when its gap is under this
NEAR_CONTACT = 0.005


def _oracle_run(cfg, world_seed, reset_seed, action_seed):
    """The worst deviation of 100 steps from the scalar oracle, and how many
    of the states they read hold a predator-prey and a prey-obstacle near
    contact, whose forces the oracle then checks."""
    world = ParticleWorld(cfg, seed=world_seed)
    world.reset(seed=reset_seed)
    rng = np.random.default_rng(action_seed)
    radii = np.array([body.radius for body in body_table(cfg)])
    block = np.repeat([0, 1, 2], [cfg.n_predators, cfg.n_prey, cfg.n_landmarks])
    worst, prey_contacts, obstacle_contacts = 0.0, 0, 0
    for _ in range(100):
        gap = np.linalg.norm(world.pos[:, None] - world.pos[None], axis=-1) \
            - (radii[:, None] + radii[None])
        near = gap < NEAR_CONTACT
        prey_contacts += bool(near[np.ix_(block == 0, block == 1)].any())
        obstacle_contacts += bool(near[np.ix_(block == 1, block == 2)].any())
        actions = rng.uniform(-1.5, 1.5, size=(cfg.n_agents, 2))
        exp_pos, exp_vel = scalar_physics_oracle(cfg, world, actions)
        world.step(actions)
        worst = max(worst,
                    float(np.max(np.abs(world.pos - exp_pos))),
                    float(np.max(np.abs(world.vel - exp_vel))))
    return worst, prey_contacts, obstacle_contacts


def test_criterion_5_physics_oracle():
    # predator_prey(3) on these seeds touches only obstacles with predators;
    # predator_prey(9) on tier-1's seeds brings prey into contact too
    cfg = ScenarioConfig.predator_prey(3)
    worst, _, _ = _oracle_run(cfg, 2, 11, 3)
    worst9, prey_contacts, obstacle_contacts = _oracle_run(
        ScenarioConfig.predator_prey(9), 18, 42, 19)
    worst = max(worst, worst9)

    def replay():
        w = ParticleWorld(cfg, seed=2)
        w.reset(seed=11)
        r = np.random.default_rng(3)
        blobs = []
        for _ in range(40):
            w.step(r.uniform(-1.5, 1.5, size=(3, 2)))
            blobs.append(w.pos.tobytes() + w.vel.tobytes())
        return b"".join(blobs)

    bitwise = replay() == replay()
    ok = worst < 1e-9 and bitwise and prey_contacts > 0 and obstacle_contacts > 0
    assert report("criterion 5 (physics oracle)", ok,
                  f"max deviation {worst:.2e} over 100 steps each of predator_prey(3) "
                  f"and (9); (9) steps in near contact: predator-prey {prey_contacts}, "
                  f"prey-obstacle {obstacle_contacts}; bitwise replay "
                  f"{'ok' if bitwise else 'BROKEN'}")


# -- criteria 6 and 7: learning experiments (slow) ----------------------------------

# The learning runs: coop_nav at each (agents, episodes) setting, under each
# algorithm, on each seed. .acceptance_cache/run_all.sh trains the list that
# ``PYTHONPATH=src python tests/test_acceptance.py --runs`` prints.
LEARNING_SETTINGS = {
    "n3": (3, 60_000),          # criterion 6
    "n5_30k": (5, 30_000),      # criterion 6
    "n5_100k": (5, 100_000),    # criterion 7
}
LEARNING_ALGOS = ("sa-matd3", "maddpg")
LEARNING_SEEDS = (0, 1, 2)


def run_name(scenario: str, algo: str, n: int, episodes: int, seed: int) -> str:
    return f"{scenario}_{algo}_n{n}_e{episodes}_s{seed}"


def ensure_run(scenario: str, algo: str, n: int, episodes: int, seed: int) -> Path:
    out = CACHE / run_name(scenario, algo, n, episodes, seed)
    metrics = out / "metrics.csv"
    complete = False
    if metrics.exists() and (out / "ckpt_final").exists():
        complete = len(parse_metrics_csv(metrics)) == episodes
    if not complete:
        train(RunConfig(scenario=scenario, algo=algo, agents=n, episodes=episodes,
                        seed=seed, out=str(out)))
    return out


def seeded_runs(setting: str, algo: str) -> list[Path]:
    """One finished run of ``algo`` at ``setting`` per seed."""
    n, episodes = LEARNING_SETTINGS[setting]
    return [ensure_run("coop_nav", algo, n, episodes, seed) for seed in LEARNING_SEEDS]


def final_window_mean(run_dir: Path, window: int = 10_000) -> float:
    records = parse_metrics_csv(run_dir / "metrics.csv")
    rewards = np.array([r.rewards[0] for r in records])
    return float(rewards[-window:].mean())


def pretrain_mean(run_dir: Path, start: int = 10_000) -> float:
    records = parse_metrics_csv(run_dir / "metrics.csv")
    rewards = np.array([r.rewards[0] for r in records[:start]])
    return float(rewards.mean())


@pytest.mark.slow
def test_criterion_6_desk_scale_learning():
    sa = seeded_runs("n3", "sa-matd3")
    base = seeded_runs("n3", "maddpg")

    untrained = float(np.mean([pretrain_mean(r) for r in sa]))
    sa_final = float(np.mean([final_window_mean(r) for r in sa]))
    maddpg_final = float(np.mean([final_window_mean(r) for r in base]))

    # gap is measured against the zero-reward ideal of the navigation task
    halfway = untrained + 0.5 * (0.0 - untrained)
    improved = sa_final >= halfway
    ordered = sa_final >= maddpg_final

    sa5 = seeded_runs("n5_30k", "sa-matd3")
    base5 = seeded_runs("n5_30k", "maddpg")
    sa5_final = float(np.mean([final_window_mean(r) for r in sa5]))
    maddpg5_final = float(np.mean([final_window_mean(r) for r in base5]))
    ordered5 = sa5_final >= maddpg5_final

    ok = improved and ordered and ordered5
    assert report(
        "criterion 6 (desk-scale learning)", ok,
        f"n=3: untrained {untrained:.1f}, sa-matd3 {sa_final:.1f} "
        f"(needs >= {halfway:.1f}), maddpg {maddpg_final:.1f}; "
        f"n=5 @30k: sa-matd3 {sa5_final:.1f} vs maddpg {maddpg5_final:.1f}")


@pytest.mark.slow
def test_criterion_7_uneven_learning_margin():
    sa = [final_window_mean(r) for r in seeded_runs("n5_100k", "sa-matd3")]
    base = [final_window_mean(r) for r in seeded_runs("n5_100k", "maddpg")]
    margin = float(np.mean(sa) - np.mean(base))
    spread = max(float(np.std(sa)), float(np.std(base)))
    ok = margin > spread
    assert report(
        "criterion 7 (uneven learning, n=5)", ok,
        f"sa-matd3 {np.mean(sa):.1f} (std {np.std(sa):.1f}), "
        f"maddpg {np.mean(base):.1f} (std {np.std(base):.1f}), "
        f"margin {margin:.1f} needs > {spread:.1f}")


# -- criterion 8: per-update timing trend ----------------------------------------------


# The claim is about how update cost grows with agent count, not a win at one
# n: at the default sizes (hidden 64, 4 heads, 2 blocks, 3 MLP layers, batch
# 512) the attention critic needs about 3.6x, 1.8x and 0.7x the multiply-adds
# of the per-agent MLP critic bank at n = 3, 8 and 16, so the sa-matd3/matd3
# time ratio must fall strictly along those points.
TREND_AGENTS = (3, 8, 16)
TREND_BLOCKS = 5


def _timing_setup(n: int, kinds) -> tuple[dict, object]:
    """One warmed-up trainer per kind at ``n`` agents, and one shared batch."""
    batch_size = TrainConfig.batch_size
    # capacity only needs to hold one batch; update time does not depend on it
    cfg = TrainConfig(replay_capacity=batch_size + 1)
    trainers = {kind: Trainer(ScenarioConfig.coop_nav(n), kind, cfg, seed=0)
                for kind in kinds}
    filler = trainers[kinds[0]]
    while len(filler.buffer) < batch_size:
        filler.run_episode()
    batch = filler.buffer.sample(batch_size)
    for trainer in trainers.values():
        trainer.update_from_batch(batch, do_policy=True)  # warm-up
    return trainers, batch


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _block_per_update(trainer: Trainer, batch) -> tuple[float, float]:
    """Seconds and minor page faults per update over one delay period: a
    critic-only update, then a critic-and-policy update."""
    faults = _minor_faults()
    started = time.perf_counter()
    trainer.update_from_batch(batch, do_policy=False)
    trainer.update_from_batch(batch, do_policy=True)
    seconds = (time.perf_counter() - started) / 2
    return seconds, (_minor_faults() - faults) / 2


def test_criterion_8_update_timing_trend():
    sa, base = kinds = (AlgoKind.SA_MATD3, AlgoKind.MATD3)
    # build and warm up every n before timing any, so that all points are
    # timed in the same process state (the allocator's included)
    setups = {n: _timing_setup(n, kinds) for n in TREND_AGENTS}
    samples = {n: [] for n in TREND_AGENTS}
    faults = {n: [] for n in TREND_AGENTS}
    # interleave the blocks, alternating which algorithm runs first, so that
    # machine speed drift falls on both algorithms
    for block in range(TREND_BLOCKS):
        for n, (trainers, batch) in setups.items():
            timed = {kind: _block_per_update(trainers[kind], batch)
                     for kind in kinds[::(-1) ** block]}
            samples[n].append((timed[sa][0], timed[base][0]))
            faults[n].append((timed[sa][1], timed[base][1]))
    # per-update ms and page-fault medians for the report; the ratio at each n
    # is the median over blocks of the paired ratio, since the two blocks of a
    # pair run back to back and see the same machine speed
    ms = {n: 1e3 * np.median(s, axis=0) for n, s in samples.items()}
    flt = {n: np.median(f, axis=0) for n, f in faults.items()}
    ratios = [float(np.median([a / b for a, b in samples[n]])) for n in TREND_AGENTS]
    ok = all(a > b for a, b in zip(ratios, ratios[1:]))
    assert report(
        "criterion 8 (timing trend, n=" + "/".join(map(str, TREND_AGENTS)) + ")", ok,
        "; ".join(f"n={n}: {sa.value} {ms[n][0]:.1f} vs {base.value} "
                  f"{ms[n][1]:.1f} ms/update, ratio {r:.2f}, minor page faults "
                  f"{flt[n][0]:.0f} vs {flt[n][1]:.0f} per update"
                  for n, r in zip(TREND_AGENTS, ratios))
        + " (ratio must fall strictly with n)")


# -- criterion 9: infrastructure exactness -----------------------------------------


def test_criterion_9_infrastructure(tmp_path):
    from samarl.algo import ReplayBuffer
    from samarl.checkpoint import load_checkpoint, save_checkpoint
    from samarl.harness import MetricsRecord, emit_csv

    # replay FIFO + within-batch uniqueness
    buf = ReplayBuffer(4, 1, 2, 2, 1, np.random.default_rng(0))
    for tag in range(5):
        buf.push_episode(np.full((2, 1, 2), tag, np.float32),
                         np.zeros((1, 1, 2), np.float32),
                         np.array([tag], np.float32))
    fifo_ok = len(buf) == 4 and 0.0 not in set(buf.rew.tolist())
    batch = buf.sample(4)
    unique_ok = len(set(batch.rew.tolist())) == 4

    # checkpoint bit-exactness
    actor = nets.MlpActor(5, 2, np.random.default_rng(1))
    save_checkpoint(tmp_path / "ck", actor.named_parameters(), algo="maddpg",
                    scenario="coop_nav", agents=1, episode=3)
    _, tensors = load_checkpoint(tmp_path / "ck")
    ck_ok = all(tensors[k].tobytes() == p.data.tobytes()
                for k, p in actor.named_parameters())

    # CSV round-trip
    records = [MetricsRecord(episode=i, env_steps=20 * (i + 1), wall_s=0.1 * i,
                             rewards=[-float(i)], smoothed=[-float(i)],
                             critic_loss=0.5 if i else None)
               for i in range(5)]
    parsed = parse_metrics_csv(emit_csv(records, tmp_path / "m.csv"))
    csv_ok = all(a.episode == b.episode and a.rewards == b.rewards
                 and a.env_steps == b.env_steps for a, b in zip(records, parsed))

    # config + seed determinism of a short run
    cfg_kwargs = dict(scenario="coop_nav", algo="sa-matd3", agents=3, episodes=12,
                      seed=9, smoothing_window=5, checkpoint_interval=0,
                      train=small_cfg())
    a = train(RunConfig(out=str(tmp_path / "da"), **cfg_kwargs))
    b = train(RunConfig(out=str(tmp_path / "db"), **cfg_kwargs))
    col = lambda p: [r.rewards for r in parse_metrics_csv(p / "metrics.csv")]
    determinism_ok = col(a) == col(b)

    ok = fifo_ok and unique_ok and ck_ok and csv_ok and determinism_ok
    assert report("criterion 9 (infrastructure)", ok,
                  f"fifo {fifo_ok}, unique-sample {unique_ok}, checkpoint "
                  f"{ck_ok}, csv {csv_ok}, determinism {determinism_ok}")


if __name__ == "__main__":
    import sys

    if sys.argv[1:] != ["--runs"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_acceptance.py --runs")
    # one line a run: its name, then scenario, algo, agents, episodes, seed;
    # criterion 6's first, both algorithms of a seed together
    for n, episodes in LEARNING_SETTINGS.values():
        for seed in LEARNING_SEEDS:
            for algo in LEARNING_ALGOS:
                run = ("coop_nav", algo, n, episodes, seed)
                print(run_name(*run), *run)
