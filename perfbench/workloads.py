"""The benchmark's three workloads and the loop that times them.

Every workload is a closed loop: one caller starts the next operation when
the previous one has returned. It runs whole rounds until its time budget is
spent, so the work inside a round is the same on every run and only the
number of rounds depends on speed. Each round times two kinds of operation:
the workload's main operation, and a bypass operation that skips the
mechanism the main one stresses, on which a change to that mechanism should
show no change.

  nav5-train   main: one 10-episode delay cycle of ``harness.train`` (coop_nav,
               5 agents, sa-matd3), bypass: one episode of the same run that
               runs no update
  nav8-update  main: one sa-matd3 update cycle at 8 agents, batch 512,
               bypass: one matd3 update cycle on the same scenario
  pp9-rollout  main: one exploratory episode collected into the buffer
               (predator_prey, 9 agents, dsa-matd3), bypass: one
               ``harness.evaluate_trainer`` call (no buffer writes)
"""

from __future__ import annotations

import contextlib
import math
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

import samarl
from samarl import harness
from samarl.algo import AlgoKind, TrainConfig, Trainer, train_step_scheduler
from samarl.envs import ScenarioConfig
from samarl.harness import RunConfig, parse_metrics_csv
from samarl.ndmath import Tensor, no_grad

from tracer import Tracer

REFERENCE_SEED = 0
SETUP_REPS = 3
SETUP_KERNELS = 10
# A traced run first spends this share of its budget untraced, so that the
# tracing overhead is measured against the same work in the same process.
UNTRACED_SHARE = 0.25
TAIL = 80  # the highest percentile with ten samples beyond it on nav8-update

clock = time.perf_counter


class Calibrator:
    """Times a fixed kernel that runs no samarl code, between operations.

    On a shared host the speed of the machine drifts, by 15% and more within
    seconds, and Python loops, small numpy calls and BLAS drift together. The
    kernel mixes the three, mostly the small numpy calls that rollouts and the
    tensor layer are made of; the ratio of a rollout episode to the kernel
    stays within about 6% while each drifts by 17%. A scale
    is the reference kernel time over the median kernel time measured around
    an operation; times are multiplied by it, so that they read as times at
    the reference speed and a run on a slow stretch of the host compares with
    one on a fast stretch.
    """

    REFERENCE_MS = 1.0  # scaled times read as if the kernel took this long (0.9 ms here)
    WINDOW_S = 1.0      # an operation is scaled by the kernels run within this of its end

    def __init__(self):
        rng = np.random.default_rng(0)
        self.batch = rng.uniform(-1, 1, (2048, 64)).astype(np.float32)
        self.weight = rng.uniform(-1, 1, (64, 64)).astype(np.float32)
        self.row = rng.uniform(-1, 1, (1, 26)).astype(np.float32)
        self.embed = rng.uniform(-1, 1, (26, 64)).astype(np.float32)
        self.points = rng.uniform(-1, 1, (10, 2))
        self.samples: tuple[list, list] = ([], [])

    def sample(self, traced: bool) -> float:
        """Run the kernel once; returns its duration in seconds."""
        t0 = clock()
        total = 0
        for i in range(3000):
            total += i
        self.batch @ self.weight
        for _ in range(20):
            x = self.row @ self.embed
            x = np.where(x >= 0, x, 0.01 * x)
            np.tanh(x @ self.weight)
            delta = self.points[:, None, :] - self.points[None, :, :]
            np.linalg.norm(delta, axis=-1)
            np.clip(self.points, -1.0, 1.0)
        dt = clock() - t0
        self.samples[traced].append((t0, dt))
        return dt

    def scale(self, traced: bool = False) -> float:
        """Scale from every kernel of the untraced (or traced) rounds."""
        return self.REFERENCE_MS / (1e3 * statistics.median(
            dt for _, dt in self.samples[traced]))

    def scale_between(self, t0: float, t1: float) -> float:
        """Scale from the untraced kernels run between ``t0`` and ``t1``."""
        dts = [dt for t, dt in self.samples[0] if t0 <= t <= t1]
        if not dts:
            return float(self.local_scale([t1])[0])
        return self.REFERENCE_MS / (1e3 * statistics.median(dts))

    def local_scale(self, ends) -> np.ndarray:
        """Scale for untraced operations that ended at the times ``ends``."""
        at = np.array([t for t, _ in self.samples[0]])
        dts = np.array([dt for _, dt in self.samples[0]])
        ends = np.asarray(ends, dtype=np.float64)
        lo = np.searchsorted(at, ends - self.WINDOW_S)
        hi = np.maximum(np.searchsorted(at, ends + self.WINDOW_S), lo + 1)
        return np.array([self.REFERENCE_MS / (1e3 * np.median(dts[a:b]))
                         for a, b in zip(np.minimum(lo, at.size - 1), hi)])


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def span(tracer: Tracer | None, name: str):
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


class Outcome:
    """Operations attempted and failed; a failed output check fails its op."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, what: str, fn, *args, validate=None, **kwargs):
        """Run one operation. An exception, or a problem that ``validate``
        reports for its result, counts it as failed; returns None then."""
        self.attempted += 1
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # any failure is counted, and the loop goes on
            self.failed += 1
            self.problems.append(f"{what}: {type(exc).__name__}: {exc}")
            return None
        problems = validate(result) if validate is not None else []
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {'; '.join(problems)}")
            return None
        return result

    def check(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"{what}: {detail}")
        return ok


def _close(value, reference, rel: float, abs_: float) -> bool:
    return bool(np.allclose(np.asarray(value, dtype=np.float64),
                            np.asarray(reference, dtype=np.float64),
                            rtol=rel, atol=abs_))


def _check_reference(outcome: Outcome, references: dict, key: str, value) -> None:
    ref = references[key]
    ok = _close(value, ref["value"], ref["rel_tol"], ref["abs_tol"])
    outcome.check(f"reference {key}", ok, f"got {value}, expected {ref['value']} "
                  f"(rel {ref['rel_tol']}, abs {ref['abs_tol']})")


class Workload:
    """One set of inputs. Subclasses fill ``main`` and ``bypass`` with (end
    time, seconds) per operation, and ``work`` and ``busy``, for untraced
    (index 0) and traced (index 1) rounds."""

    name = ""
    main_op = ""
    bypass_op = ""
    work_unit = ""

    def __init__(self, seed: int, smoke: bool, outdir: Path, references: dict):
        self.seed = seed
        self.smoke = smoke
        self.outdir = outdir
        self.references = references[self.name]
        self.outcome = Outcome()
        self.main: tuple[list, list] = ([], [])
        self.bypass: tuple[list, list] = ([], [])
        self.work = [0, 0]
        self.busy = [0.0, 0.0]   # seconds inside timed operations
        # per round: (start, end, seconds inside operations, work done)
        self.rounds: tuple[list, list] = ([], [])
        self.calibrator = Calibrator()

    def setup(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Run each timed code path once, untimed, so that first-call costs
        (allocation, numpy and interpreter caches) stay out of the samples."""
        raise NotImplementedError

    def round(self, tracer: Tracer | None) -> None:
        raise NotImplementedError

    def trainers(self) -> list:
        return []

    def verify(self) -> None:
        """Checks that run after the timed loop, outside every timing."""

    def derived(self) -> list[tuple[str, float, str]]:
        """Named numbers the workload reports beside its gated metrics."""
        return []

    def throughput(self) -> float:
        """Work per second inside operations, at the reference speed: the
        median over untraced rounds, so that one stalled round does not move it."""
        return statistics.median(work / (busy * self.calibrator.scale_between(t0, t1))
                                 for t0, t1, busy, work in self.rounds[0])

    def scaled_ms(self, samples) -> np.ndarray:
        """Untraced operation times in ms, scaled to the reference speed."""
        ends = [t for t, _ in samples]
        return 1e3 * np.array([dt for _, dt in samples]) * self.calibrator.local_scale(ends)


# -- nav5-train ------------------------------------------------------------------

SMOKE_EPISODES = 40  # enough to fill a batch of 512 and run a few updates


class Nav5Train(Workload):
    """``harness.train`` end to end, the real schedule, scaled down."""

    name = "nav5-train"
    main_op = "one 10-episode delay cycle of harness.train (10 rollouts, "\
              "a critic-only and a critic-and-policy update)"
    bypass_op = "one episode of harness.train that runs no update (rollout only)"
    work_unit = "env steps"
    scenario = ScenarioConfig.coop_nav(5)
    algo = "sa-matd3"
    warmup_probe = 5

    def __init__(self, *args):
        super().__init__(*args)
        self.episodes = SMOKE_EPISODES if self.smoke else 300
        self.train_cfg = self._run_config().train
        self.period = self.train_cfg.train_frequency * self.train_cfg.delay_frequency
        self.first_rewards: list[float] | None = None

    def _run_config(self, episodes: int | None = None) -> RunConfig:
        episodes = episodes or self.episodes
        # one sixth warm-up, the ratio of the 60k-episode learning runs
        return RunConfig(scenario=self.scenario.kind, algo=self.algo,
                         agents=self.scenario.n_agents, episodes=episodes,
                         seed=self.seed, out=str(self.outdir / "nav5-run"),
                         train=TrainConfig(train_start_episodes=episodes // 6))

    def setup(self) -> None:
        cfg = self._run_config()
        Trainer(cfg.scenario_config(), AlgoKind.parse(cfg.algo), cfg.train, seed=cfg.seed)

    def warm_up(self) -> None:
        harness.train(self._run_config(episodes=SMOKE_EPISODES))
        shutil.rmtree(self.outdir / "nav5-run", ignore_errors=True)

    def _implied_updates(self) -> tuple[int, int]:
        """Updates ``train_step_scheduler`` calls for that find a full batch."""
        cfg, kind = self.train_cfg, AlgoKind.parse(self.algo)
        critic = policy = 0
        for episode in range(self.episodes):
            do_critic, do_policy = train_step_scheduler(episode, cfg, kind)
            stored = min(cfg.replay_capacity, (episode + 1) * self.scenario.episode_length)
            if do_critic and stored >= cfg.batch_size:
                critic += 1
                policy += do_policy
        return critic, policy

    def _validate(self, out) -> list[str]:
        problems = []
        records = parse_metrics_csv(Path(out) / "metrics.csv")
        if len(records) != self.episodes:
            return [f"{len(records)} metrics rows, expected {self.episodes}"]
        rewards = [r.rewards[0] for r in records]
        losses = [r.critic_loss for r in records if r.critic_loss is not None]
        norms = [r.actor_grad_norm for r in records if r.actor_grad_norm is not None]
        if not all(map(math.isfinite, rewards + losses + norms)):
            problems.append("non-finite reward, critic_loss or actor_grad_norm")
        implied = self._implied_updates()
        if (len(losses), len(norms)) != implied:
            problems.append(f"{len(losses)} critic and {len(norms)} policy updates "
                            f"logged, scheduler implies {implied}")
        if self.first_rewards is None:
            self.first_rewards = rewards
        elif rewards != self.first_rewards:
            problems.append("reward column differs from the first run of this seed")
        if not (Path(out) / "ckpt_final" / "params.bin").is_file():
            problems.append("no final checkpoint")
        return problems

    def round(self, tracer) -> None:
        out = self.outdir / "nav5-run"
        shutil.rmtree(out, ignore_errors=True)
        episodes: list[tuple[float, float]] = []
        rollout_only: list[tuple[float, float]] = []
        calibrating = [0.0]
        original = Trainer.train_episode
        traced = tracer is not None

        # harness.train logs wall time to the millisecond only, so each
        # episode is timed from outside, where harness.train calls it
        def timed(trainer):
            updates = trainer.critic_updates
            t0 = clock()
            try:
                return original(trainer)
            finally:
                end = clock()
                episodes.append((end, end - t0))
                if trainer.critic_updates == updates:
                    rollout_only.append(episodes[-1])
                calibrating[0] += self.calibrator.sample(traced)

        Trainer.train_episode = timed
        try:
            with span(tracer, "bench.train_call"):
                t0 = clock()
                result = self.outcome.op("harness.train", harness.train,
                                         self._run_config())
                self.busy[traced] += clock() - t0 - calibrating[0]
        finally:
            Trainer.train_episode = original
        if result is not None:
            problems = self._validate(result)
            self.outcome.check("harness.train outputs", not problems, "; ".join(problems))
        shutil.rmtree(out, ignore_errors=True)

        start = self.train_cfg.train_start_episodes
        self.bypass[traced].extend(rollout_only)
        for k in range(start, len(episodes) - self.period + 1, self.period):
            cycle = episodes[k:k + self.period]
            self.main[traced].append((cycle[-1][0], sum(dt for _, dt in cycle)))
        self.work[traced] += len(episodes) * self.scenario.episode_length

    def verify(self) -> None:
        kind = AlgoKind.parse(self.algo)

        def warmup_rewards(seed):
            probe = Trainer(self.scenario, kind, self.train_cfg, seed=seed)
            return [float(probe.run_episode(explore=True)[0])
                    for _ in range(self.warmup_probe)]

        if self.first_rewards is not None:
            direct = warmup_rewards(self.seed)
            logged = self.first_rewards[: self.warmup_probe]
            # metrics.csv keeps six decimals
            self.outcome.check("warm-up rewards: harness.train vs Trainer.run_episode",
                               _close(logged, direct, 0.0, 2e-6), f"{logged} vs {direct}")
        _check_reference(self.outcome, self.references, "warmup_reward_sums",
                         warmup_rewards(REFERENCE_SEED))

    def derived(self):
        out = [("train_env_steps_per_s", self.throughput(), "1/s")]
        if self.main[0] and self.bypass[0]:
            episode_s = percentile(self.scaled_ms(self.bypass[0]), 50) / 1e3
            cycle_s = max(percentile(self.scaled_ms(self.main[0]), 50) / 1e3
                          - self.period * episode_s, 0.0)
            out += [("rollout_episode_ms.p50", 1e3 * episode_s, "ms"),
                    ("update_cycle_ms.p50", 1e3 * cycle_s, "ms"),
                    ("slow_suite_cpu_h.criterion_6", slow_suite_hours(
                        CRITERION_6, episode_s, cycle_s), "h"),
                    ("slow_suite_cpu_h.criterion_7", slow_suite_hours(
                        CRITERION_7, episode_s, cycle_s), "h")]
        return out


# The learning runs of acceptance criteria 6 and 7: (episodes, runs), every
# run with the default TrainConfig (10k warm-up episodes).
CRITERION_6 = [(60_000, 6), (30_000, 6)]   # n=3 and n=5, sa-matd3 + maddpg, 3 seeds
CRITERION_7 = [(100_000, 6)]               # n=5, sa-matd3 + maddpg, 3 seeds


def slow_suite_hours(runs, episode_s: float, cycle_s: float) -> float:
    """CPU-hours for a list of learning runs, if every episode and every delay
    cycle costs what nav5-train measured (sa-matd3, n=5). An estimate: maddpg
    and n=3 runs are not measured."""
    cfg = TrainConfig()
    per_cycle = cfg.train_frequency * cfg.delay_frequency
    total = 0.0
    for episodes, count in runs:
        cycles = (episodes - cfg.train_start_episodes) / per_cycle
        total += count * (episodes * episode_s + cycles * cycle_s)
    return total / 3600.0


# -- nav8-update -----------------------------------------------------------------

class Nav8Update(Workload):
    """Criterion 8's comparison: update cycles at 8 agents, batch 512."""

    name = "nav8-update"
    main_op = "one sa-matd3 update cycle (critic-only update, then critic and "\
              "policy update, each on a fresh batch of 512)"
    bypass_op = "one matd3 update cycle on the same scenario and batch size"
    work_unit = "update cycles"
    scenario = ScenarioConfig.coop_nav(8)
    kinds = ("sa-matd3", "matd3")

    def __init__(self, *args):
        super().__init__(*args)
        self.block = 1 if self.smoke else 5
        self._trainers: dict[str, Trainer] = {}

    def _filled(self, kind: str, seed: int) -> Trainer:
        trainer = Trainer(self.scenario, AlgoKind.parse(kind), TrainConfig(), seed=seed)
        while len(trainer.buffer) < trainer.cfg.batch_size:
            trainer.run_episode()
        return trainer

    def setup(self) -> None:
        self._trainers = {kind: self._filled(kind, self.seed) for kind in self.kinds}

    def warm_up(self) -> None:
        for trainer in self._trainers.values():
            self._cycle(trainer)

    def trainers(self):
        return list(self._trainers.values())

    @staticmethod
    def _cycle(trainer: Trainer) -> dict:
        size = trainer.cfg.batch_size
        first = trainer.update_from_batch(trainer.buffer.sample(size), do_policy=False)
        second = trainer.update_from_batch(trainer.buffer.sample(size), do_policy=True)
        return {"critic_loss": [first["critic_loss"], second["critic_loss"]],
                "actor_grad_norm": second["actor_grad_norm"]}

    @staticmethod
    def _validate(stats) -> list[str]:
        values = stats["critic_loss"] + [stats["actor_grad_norm"]]
        return [] if all(map(math.isfinite, values)) else [f"non-finite {stats}"]

    def round(self, tracer) -> None:
        traced = tracer is not None
        for kind, samples in zip(self.kinds, (self.main, self.bypass)):
            trainer = self._trainers[kind]
            for _ in range(self.block):
                with span(tracer, f"bench.cycle.{kind}"):
                    t0 = clock()
                    self.outcome.op(f"{kind} cycle", self._cycle, trainer,
                                    validate=self._validate)
                    dt = clock() - t0
                samples[traced].append((t0 + dt, dt))
                self.busy[traced] += dt
                self.work[traced] += 1
                self.calibrator.sample(traced)

    def verify(self) -> None:
        # the paper's property: permuting agents permutes per-agent Q, exactly
        # up to float32 rounding
        trainer = self._trainers["sa-matd3"]
        batch = trainer.buffer.sample(trainer.cfg.batch_size)
        obs = batch.obs if isinstance(batch.obs, np.ndarray) else np.stack(batch.obs, axis=1)
        act = np.asarray(batch.act)
        perm = np.random.default_rng(self.seed).permutation(obs.shape[1])
        if np.array_equal(perm, np.arange(perm.size)):
            perm = perm[::-1]
        critic = trainer.critic_banks[0][0]
        with no_grad():
            q = critic.forward(Tensor(obs), Tensor(act)).data
            q_perm = critic.forward(Tensor(obs[:, perm]), Tensor(act[:, perm])).data
        err = float(np.max(np.abs(q_perm - q[:, perm])))
        bound = 1e-4 * max(1.0, float(np.max(np.abs(q))))
        self.outcome.check("sa-matd3 critic permutation equivariance", err <= bound,
                           f"max deviation {err:.3g} > {bound:.3g}")

        for kind in self.kinds:
            ref = self._filled(kind, REFERENCE_SEED)
            loss = ref.update_from_batch(ref.buffer.sample(ref.cfg.batch_size),
                                         do_policy=False)["critic_loss"]
            _check_reference(self.outcome, self.references, f"first_critic_loss.{kind}",
                             loss)

    def derived(self):
        sa, base = self.scaled_ms(self.main[0]), self.scaled_ms(self.bypass[0])
        out = []
        for kind, samples in zip(self.kinds, (sa, base)):
            out += [(f"cycle_ms.{kind}.p50", percentile(samples, 50), "ms"),
                    (f"cycle_ms.{kind}.p{TAIL}", percentile(samples, TAIL), "ms"),
                    (f"cycle_ms.{kind}.samples", len(samples), "count")]
        out.append(("cycle_ratio.sa-matd3/matd3.p50",
                    percentile(sa, 50) / percentile(base, 50), "ratio"))
        return out


# -- pp9-rollout -----------------------------------------------------------------

class Pp9Rollout(Workload):
    """Rollouts only: batch-1 attention actor plus the particle world."""

    name = "pp9-rollout"
    main_op = "one exploratory episode collected into the replay buffer"
    bypass_op = "one harness.evaluate_trainer call of 5 noise-free episodes"
    work_unit = "env steps"
    scenario = ScenarioConfig.predator_prey(9)
    algo = "dsa-matd3"
    collect_block = 10
    eval_calls = 2
    eval_episodes = 5

    def __init__(self, *args):
        super().__init__(*args)
        self.trainer: Trainer | None = None
        self.first_eval = None
        self.collect = [0, 0.0]   # episodes, seconds (untraced)
        self.evals = [0, 0.0]

    def _trainer(self, seed: int) -> Trainer:
        # a small ring, full within seconds, so that memory does not grow with
        # the number of episodes a run manages to collect
        return Trainer(self.scenario, AlgoKind.parse(self.algo),
                       TrainConfig(replay_capacity=4_000), seed=seed)

    def setup(self) -> None:
        self.trainer = self._trainer(self.seed)

    def warm_up(self) -> None:
        self.trainer.run_episode(explore=True)
        harness.evaluate_trainer(self.trainer, self.eval_episodes, seed=self.seed)

    def trainers(self):
        return [self.trainer]

    def _collect_validate(self, before: int):
        def validate(totals) -> list[str]:
            problems = [] if np.all(np.isfinite(totals)) else [f"non-finite {totals}"]
            grown = len(self.trainer.buffer) - before
            full = len(self.trainer.buffer) == self.trainer.buffer.capacity
            if grown != self.scenario.episode_length and not full:
                problems.append(f"buffer grew by {grown}")
            return problems
        return validate

    def _eval_validate(self, before: int):
        def validate(result) -> list[str]:
            if self.first_eval is None:
                self.first_eval = result["mean"]
            problems = []
            if result["mean"] != self.first_eval:
                problems.append(f"eval means {result['mean']} differ from {self.first_eval}")
            if len(self.trainer.buffer) != before:
                problems.append("evaluation wrote to the replay buffer")
            return problems
        return validate

    def round(self, tracer) -> None:
        traced = tracer is not None
        trainer = self.trainer
        length = self.scenario.episode_length
        for _ in range(self.collect_block):
            with span(tracer, "bench.collect_episode"):
                t0 = clock()
                self.outcome.op("collect episode", trainer.run_episode, explore=True,
                                validate=self._collect_validate(len(trainer.buffer)))
                dt = clock() - t0
            self.main[traced].append((t0 + dt, dt))
            self.busy[traced] += dt
            self.work[traced] += length
            self.calibrator.sample(traced)
            if not traced:
                self.collect[0] += 1
                self.collect[1] += dt
        for _ in range(self.eval_calls):
            with span(tracer, "bench.eval_call"):
                t0 = clock()
                self.outcome.op("evaluate_trainer", harness.evaluate_trainer, trainer,
                                self.eval_episodes, seed=self.seed,
                                validate=self._eval_validate(len(trainer.buffer)))
                dt = clock() - t0
            self.bypass[traced].append((t0 + dt, dt))
            self.busy[traced] += dt
            self.work[traced] += self.eval_episodes * length
            self.calibrator.sample(traced)
            if not traced:
                self.evals[0] += self.eval_episodes
                self.evals[1] += dt

    def verify(self) -> None:
        ref = self._trainer(REFERENCE_SEED)
        result = harness.evaluate_trainer(ref, self.eval_episodes, seed=REFERENCE_SEED)
        _check_reference(self.outcome, self.references, "eval_reward_means",
                         result["mean"])

    def derived(self):
        length, scale = self.scenario.episode_length, self.calibrator.scale()
        return [("collect_env_steps_per_s",
                 self.collect[0] * length / self.collect[1] / scale, "1/s"),
                ("eval_episodes_per_s", self.evals[0] / self.evals[1] / scale, "1/s")]


WORKLOADS = {w.name: w for w in (Nav5Train, Nav8Update, Pp9Rollout)}


# -- the timed loop ----------------------------------------------------------------

def run_workload(workload: Workload, seconds: float, trace: bool) -> dict:
    """Set up, run rounds for ``seconds``, verify; returns raw measurements."""
    # kernels before and after every set-up give the machine's speed during
    # set-up, to scale set-up time by
    kernels = [workload.calibrator.sample(False) for _ in range(SETUP_KERNELS)]
    setups = []
    for _ in range(SETUP_REPS):
        t0 = clock()
        workload.setup()
        setups.append(clock() - t0)
        kernels += [workload.calibrator.sample(False) for _ in range(SETUP_KERNELS)]
    workload.warm_up()

    rounds: tuple[list, list] = ([], [])
    tracer = None
    began = clock()
    last = 0.0
    try:
        while True:
            elapsed = clock() - began
            if trace and tracer is None and rounds[0] and (
                    elapsed >= UNTRACED_SHARE * seconds or elapsed + last > seconds):
                tracer = Tracer()
                for trainer in workload.trainers():
                    tracer.watch_trainer(trainer)
                tracer.install(samarl)
            traced = tracer is not None
            busy, work, t0 = workload.busy[traced], workload.work[traced], clock()
            workload.round(tracer)
            last = clock() - t0
            rounds[traced].append(last)
            workload.rounds[traced].append((t0, t0 + last, workload.busy[traced] - busy,
                                            workload.work[traced] - work))
            if clock() - began + last > seconds and (not trace or rounds[1]):
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        tracer.snapshot_counters()

    workload.verify()
    return {"setup_reps_s": setups, "rounds_s": rounds, "tracer": tracer,
            "setup_scale": Calibrator.REFERENCE_MS / (1e3 * statistics.median(kernels))}
