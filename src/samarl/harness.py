"""Experiment harness: training runs, evaluation, metrics, plots, comparison.

A run writes into its output directory:

  config.txt      -- the full run configuration, ``key = value`` per line
  metrics.csv     -- one row per episode (flushed at least every 100)
  evals.csv       -- one row per in-training evaluation, on disk as it is made
  ckpt_<ep>/      -- periodic checkpoints, plus ckpt_final/

Metrics CSV columns (fixed order):
  episode, env_steps, wall_s, reward_type0, reward_type1,
  smoothed_type0, smoothed_type1, critic_loss, actor_grad_norm
Fields that do not apply (second type in single-type scenarios, losses
before training starts) are left empty.
"""

from __future__ import annotations

import dataclasses
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .algo import (
    PREY_ACTOR_PREFIX,
    AlgoKind,
    TrainConfig,
    Trainer,
    recorded_train,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .envs import COOP_NAV, PREDATOR_PREY, ParticleWorld, ScenarioConfig

CSV_COLUMNS = ["episode", "env_steps", "wall_s", "reward_type0", "reward_type1",
               "smoothed_type0", "smoothed_type1", "critic_loss",
               "actor_grad_norm"]


class ConfigFileError(ValueError):
    pass


@dataclass
class RunConfig:
    scenario: str = "coop_nav"
    algo: str = "sa-matd3"
    agents: int = 3
    episodes: int = 60_000
    seed: int = 0
    out: str = "runs/latest"
    eval_interval: int = 0        # 0 disables in-training evaluation
    eval_episodes: int = 10
    prey: str = "scripted"
    checkpoint_interval: int = 10_000
    smoothing_window: int = 1000
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Reject values that would fail mid-run, or quietly write garbage,
        before any run directory exists. 0 disables either interval."""
        if self.episodes < 1:
            raise ConfigFileError(f"episodes must be at least 1, got {self.episodes}")
        for name in ("eval_interval", "checkpoint_interval"):
            if getattr(self, name) < 0:
                raise ConfigFileError(
                    f"{name} must be 0 (disabled) or positive, got {getattr(self, name)}")
        if self.smoothing_window < 1:
            raise ConfigFileError(
                f"smoothing_window must be at least 1, got {self.smoothing_window}")
        if self.eval_interval and self.eval_episodes < 1:
            raise ConfigFileError(
                f"eval_interval {self.eval_interval} needs eval_episodes of at least 1, "
                f"got {self.eval_episodes}")

    def scenario_config(self) -> ScenarioConfig:
        if self.scenario == COOP_NAV:
            return ScenarioConfig.coop_nav(self.agents)
        if self.scenario == PREDATOR_PREY:
            return ScenarioConfig.predator_prey(self.agents)
        raise ConfigFileError(f"unknown scenario '{self.scenario}'")

    def to_text(self) -> str:
        lines = []
        for f in dataclasses.fields(self):
            if f.name == "train":
                continue
            lines.append(f"{f.name} = {getattr(self, f.name)}")
        for f in dataclasses.fields(self.train):
            lines.append(f"train.{f.name} = {getattr(self.train, f.name)}")
        return "\n".join(lines) + "\n"


@dataclass
class MetricsRecord:
    episode: int
    env_steps: int
    wall_s: float
    rewards: list[float]            # per type
    smoothed: list[float]           # per type, trailing window
    critic_loss: float | None = None
    actor_grad_norm: float | None = None

    def to_row(self) -> str:
        def num(v, fmt="{:.6f}"):
            return "" if v is None else fmt.format(v)

        r1 = self.rewards[1] if len(self.rewards) > 1 else None
        s1 = self.smoothed[1] if len(self.smoothed) > 1 else None
        return ",".join([
            str(self.episode), str(self.env_steps), f"{self.wall_s:.3f}",
            num(self.rewards[0]), num(r1),
            num(self.smoothed[0]), num(s1),
            num(self.critic_loss), num(self.actor_grad_norm),
        ])


# -- config file ----------------------------------------------------------------

def parse_config_file(path) -> dict[str, str]:
    """Flat ``key = value`` lines; '#' starts a comment; blank lines ignored."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigFileError(f"{path}:{lineno}: expected 'key = value', "
                                  f"got '{raw.strip()}'")
        key, value = line.split("=", 1)
        mapping[key.strip()] = value.strip()
    return mapping


def apply_config_mapping(cfg: RunConfig, mapping: dict[str, str]) -> RunConfig:
    """Apply overrides onto a RunConfig; unknown keys are hard errors."""
    run_fields = {f.name for f in dataclasses.fields(RunConfig)} - {"train"}
    train_fields = {f.name for f in dataclasses.fields(TrainConfig)}
    run_kwargs = {f: getattr(cfg, f) for f in run_fields}
    train_kwargs = {f: getattr(cfg.train, f) for f in train_fields}

    def convert(current, text, key):
        try:
            return type(current)(text)
        except ValueError:
            raise ConfigFileError(f"cannot parse '{text}' for key '{key}'")

    for key, value in mapping.items():
        if key.startswith("train."):
            name = key[len("train."):]
            if name not in train_fields:
                raise ConfigFileError(f"unknown config key '{key}'")
            train_kwargs[name] = convert(train_kwargs[name], value, key)
        elif key in run_fields:
            run_kwargs[key] = convert(run_kwargs[key], value, key)
        else:
            raise ConfigFileError(f"unknown config key '{key}'")
    return RunConfig(train=TrainConfig(**train_kwargs), **run_kwargs)


def load_run_config(path, base: RunConfig | None = None) -> RunConfig:
    return apply_config_mapping(base or RunConfig(), parse_config_file(path))


# -- metrics CSV ------------------------------------------------------------------

def emit_csv(records, path) -> Path:
    """Write ``records``, any iterable of ``MetricsRecord``, as a metrics CSV:
    one row as each arrives, flushed every 100 rows. The rows written stay
    on disk when the iterable raises, as a training run does on a non-finite
    loss."""
    path = Path(path)
    with path.open("w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for count, rec in enumerate(records, start=1):
            fh.write(rec.to_row() + "\n")
            if count % 100 == 0:
                fh.flush()
    return path


def parse_metrics_csv(path) -> list[MetricsRecord]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != ",".join(CSV_COLUMNS):
        raise ValueError(f"{path} is not a metrics CSV (bad header)")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(CSV_COLUMNS):
            raise ValueError(f"{path}:{lineno}: expected {len(CSV_COLUMNS)} "
                             f"fields, got {len(parts)}")
        def opt(s):
            return None if s == "" else float(s)
        rewards = [float(parts[3])] + ([float(parts[4])] if parts[4] else [])
        smoothed = [float(parts[5])] + ([float(parts[6])] if parts[6] else [])
        records.append(MetricsRecord(
            episode=int(parts[0]), env_steps=int(parts[1]), wall_s=float(parts[2]),
            rewards=rewards, smoothed=smoothed,
            critic_loss=opt(parts[7]), actor_grad_norm=opt(parts[8])))
    return records


def rolling_mean(values: np.ndarray, window: int) -> np.ndarray:
    """Trailing mean over up to ``window`` samples (expanding at the start)."""
    if window < 1:
        raise ValueError("window must be >= 1")
    x = np.asarray(values, dtype=np.float64)
    if x.size == 0:
        return x.copy()
    out = np.empty_like(x)
    head = min(window - 1, x.size)
    for i in range(head):
        out[i] = x[: i + 1].mean()
    if x.size >= window:
        windows = np.lib.stride_tricks.sliding_window_view(x, window)
        out[window - 1:] = windows.mean(axis=-1)
    return out


# -- training -----------------------------------------------------------------------

def train(cfg: RunConfig) -> Path:
    """Run the full training loop; returns the populated output directory."""
    # a bad setting, scenario, algorithm or prey policy fails before the run
    # directory exists
    cfg.validate()
    scenario = cfg.scenario_config()
    trainer = Trainer(scenario, AlgoKind.parse(cfg.algo), cfg.train,
                      seed=cfg.seed, prey_policy=cfg.prey)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text(cfg.to_text())
    windows = [deque(maxlen=cfg.smoothing_window) for _ in range(trainer.env.n_types)]
    start = time.perf_counter()

    def records():
        # an episode's checkpoint and evaluation follow its metrics row
        for episode in range(cfg.episodes):
            rewards, stats = trainer.train_episode()
            for w, r in zip(windows, rewards):
                w.append(float(r))
            yield MetricsRecord(
                episode=episode,
                env_steps=(episode + 1) * scenario.episode_length,
                wall_s=time.perf_counter() - start,
                rewards=[float(r) for r in rewards],
                smoothed=[float(np.mean(w)) for w in windows],
                critic_loss=stats.get("critic_loss"),
                actor_grad_norm=stats.get("actor_grad_norm"),
            )
            if cfg.checkpoint_interval and (episode + 1) % cfg.checkpoint_interval == 0:
                trainer.save(out / f"ckpt_{episode + 1}", episode + 1)
            if cfg.eval_interval and (episode + 1) % cfg.eval_interval == 0:
                stats_eval = evaluate_trainer(trainer, cfg.eval_episodes,
                                              seed=cfg.seed + episode + 1)
                first = episode + 1 == cfg.eval_interval
                with (out / "evals.csv").open("w" if first else "a") as evals:
                    if first:
                        evals.write("episode,eval_mean_type0,eval_std_type0\n")
                    evals.write(f"{episode},{stats_eval['mean'][0]:.6f},"
                                f"{stats_eval['std'][0]:.6f}\n")

    emit_csv(records(), out / "metrics.csv")
    trainer.save(out / "ckpt_final", cfg.episodes)
    return out


# -- evaluation -----------------------------------------------------------------------

def evaluate_trainer(trainer: Trainer, episodes: int, seed: int) -> dict:
    """Noise-free rollouts of ``episodes`` episodes, stepped in lockstep on a
    dedicated world; no buffer or net writes."""
    env = ParticleWorld(trainer.scenario, seed=seed, episodes=episodes)
    arr = trainer.run_episode(explore=False, env=env)
    return {
        "episodes": episodes,
        "mean": [float(m) for m in arr.mean(axis=0)],
        "std": [float(s) for s in arr.std(axis=0)],
    }


def evaluate(checkpoint, episodes: int, seed: int, *,
             train_cfg: TrainConfig | None = None,
             prey: str = "scripted") -> dict:
    """Evaluate a saved checkpoint; statistics are per agent type.

    Without ``train_cfg`` the networks take the architecture the checkpoint
    records. A checkpoint that records none takes the default sizes and the
    dtype of its tensors.
    """
    manifest, _ = load_checkpoint(checkpoint)
    kind = AlgoKind.parse(manifest.algo)
    scenario = RunConfig(scenario=manifest.scenario,
                         agents=manifest.agents).scenario_config()
    if train_cfg is None:
        train_cfg = recorded_train(manifest, TrainConfig())
    trainer = Trainer(scenario, kind, train_cfg, seed=seed, prey_policy=prey)
    trainer.restore(checkpoint)
    return evaluate_trainer(trainer, episodes, seed)


def save_prey_actor(directory, actor, scenario: ScenarioConfig) -> Path:
    """Write member 0 of an ``MlpActor`` as a prey-policy checkpoint usable
    via ``prey=<path>``; the manifest records the actor's architecture."""
    return save_checkpoint(directory, actor.member(0, PREY_ACTOR_PREFIX),
                           algo="prey-actor", scenario=scenario.kind,
                           agents=scenario.n_agents, episode=0,
                           train={"hidden_dim": actor.hidden_dim,
                                  "hidden_layers": len(actor.hidden),
                                  "dtype": np.dtype(actor.out.w.dtype).name})


# -- plotting -----------------------------------------------------------------------

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def emit_plot(csv_paths, out_path, window: int = 1000) -> Path:
    """Smoothed reward curves vs episode and vs wall time, as plain SVG.

    One polyline per run per panel; no external renderer involved.
    """
    series = []
    for path in csv_paths:
        records = parse_metrics_csv(path)
        episodes = np.array([r.episode for r in records], dtype=np.float64)
        wall = np.array([r.wall_s for r in records])
        reward = np.array([r.rewards[0] for r in records])
        smoothed = rolling_mean(reward, window) if records else reward
        series.append((Path(path).parent.name or Path(path).stem,
                       episodes, wall, smoothed))

    width, height = 1000, 430
    panel_w, panel_h, margin, gap = 420, 330, 60, 60
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" font-family="monospace" font-size="11">',
             f'<rect width="{width}" height="{height}" fill="white"/>']

    def panel(x0, xlabel, xs_of):
        parts.append(f'<rect x="{x0}" y="{margin}" width="{panel_w}" '
                     f'height="{panel_h}" fill="none" stroke="black"/>')
        xs_all = np.concatenate([xs_of(s) for s in series]) if series else np.array([0.0])
        ys_all = np.concatenate([s[3] for s in series]) if series else np.array([0.0])
        x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
        y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
        if x_hi == x_lo:
            x_hi = x_lo + 1.0
        if y_hi == y_lo:
            y_hi = y_lo + 1.0

        def sx(v):
            return x0 + (v - x_lo) / (x_hi - x_lo) * panel_w

        def sy(v):
            return margin + panel_h - (v - y_lo) / (y_hi - y_lo) * panel_h

        for color, s in zip(_PALETTE, series):
            xs, ys = xs_of(s), s[3]
            if xs.size == 0:
                continue
            pts = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(xs, ys))
            parts.append(f'<polyline points="{pts}" fill="none" '
                         f'stroke="{color}" stroke-width="1.2"/>')
        parts.append(f'<text x="{x0}" y="{margin - 8}">smoothed reward vs '
                     f'{xlabel} (window {window})</text>')
        parts.append(f'<text x="{x0}" y="{margin + panel_h + 16}">{x_lo:.0f}</text>')
        parts.append(f'<text x="{x0 + panel_w - 40}" y="{margin + panel_h + 16}">'
                     f'{x_hi:.0f}</text>')
        parts.append(f'<text x="{x0 - 52}" y="{margin + panel_h}">{y_lo:.1f}</text>')
        parts.append(f'<text x="{x0 - 52}" y="{margin + 12}">{y_hi:.1f}</text>')

    panel(margin, "episode", lambda s: s[1])
    panel(margin + panel_w + gap, "wall seconds", lambda s: s[2])
    for k, (color, s) in enumerate(zip(_PALETTE, series)):
        parts.append(f'<text x="{margin}" y="{height - 8 - 14 * k}" '
                     f'fill="{color}">{s[0]}</text>')
    parts.append("</svg>")

    out_path = Path(out_path)
    out_path.write_text("\n".join(parts) + "\n")
    return out_path


# -- comparison ------------------------------------------------------------------------

def compare(run_dirs) -> str:
    """Rank finished runs of one scenario by final smoothed reward."""
    rows = []
    scenario = None
    for run_dir in run_dirs:
        run_dir = Path(run_dir)
        cfg = load_run_config(run_dir / "config.txt")
        if scenario is None:
            scenario = cfg.scenario
        elif cfg.scenario != scenario:
            raise ValueError(
                f"cannot compare runs across scenarios: '{scenario}' vs "
                f"'{cfg.scenario}' ({run_dir})")
        records = parse_metrics_csv(run_dir / "metrics.csv")
        if not records:
            raise ValueError(f"{run_dir} has an empty metrics file")
        final = records[-1]
        rows.append((run_dir.name, cfg.algo, final.episode + 1,
                     final.smoothed[0], final.wall_s))

    rows.sort(key=lambda r: r[3], reverse=True)
    header = f"{'run':<28} {'algo':<12} {'episodes':>9} {'smoothed':>12} {'wall_s':>10}"
    lines = [header, "-" * len(header)]
    for name, algo, episodes, smoothed, wall in rows:
        lines.append(f"{name:<28} {algo:<12} {episodes:>9d} {smoothed:>12.3f} "
                     f"{wall:>10.1f}")
    return "\n".join(lines)
