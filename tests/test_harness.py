"""Harness behavior: runs, metrics, evaluation, plotting, comparison, CLI."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from samarl import cli, harness, nets
from samarl.algo import AlgoKind, NonFiniteLossError, TrainConfig, Trainer
from samarl.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from samarl.envs import ConfigError, ParticleWorld, ScenarioConfig
from samarl.harness import (
    CSV_COLUMNS,
    ConfigFileError,
    MetricsRecord,
    RunConfig,
    apply_config_mapping,
    compare,
    emit_csv,
    emit_plot,
    evaluate,
    evaluate_trainer,
    load_run_config,
    parse_config_file,
    parse_metrics_csv,
    rolling_mean,
    save_prey_actor,
    train,
)


def tiny_run_config(tmp_path, name="run", **overrides):
    train_cfg = TrainConfig(hidden_dim=8, attention_heads=2, attention_blocks=1,
                            batch_size=8, replay_capacity=400,
                            train_start_episodes=10, train_frequency=5)
    defaults = dict(scenario="coop_nav", algo="sa-matd3", agents=3, episodes=30,
                    seed=0, out=str(tmp_path / name), eval_interval=0,
                    checkpoint_interval=0, smoothing_window=10, train=train_cfg)
    defaults.update(overrides)
    return RunConfig(**defaults)


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        cfg = tiny_run_config(tmp_path)
        path = tmp_path / "config.txt"
        path.write_text(cfg.to_text())
        loaded = load_run_config(path)
        assert loaded == cfg

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# a comment\n\nagents = 5  # trailing comment\n")
        cfg = apply_config_mapping(RunConfig(), parse_config_file(path))
        assert cfg.agents == 5

    def test_unknown_key_is_hard_error(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("agnets = 5\n")
        with pytest.raises(ConfigFileError, match="unknown config key 'agnets'"):
            load_run_config(path)

    def test_unknown_train_key_is_hard_error(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("train.gama = 0.9\n")
        with pytest.raises(ConfigFileError, match="unknown config key"):
            load_run_config(path)

    def test_nested_train_override(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("train.gamma = 0.9\ntrain.batch_size = 64\n")
        cfg = load_run_config(path)
        assert cfg.train.gamma == 0.9
        assert cfg.train.batch_size == 64

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("agents 5\n")
        with pytest.raises(ConfigFileError, match="key = value"):
            parse_config_file(path)


class TestRunConfigValidation:
    """Settings that would fail partway through a run, or write nan columns,
    are refused before the run directory exists."""

    @pytest.mark.parametrize("text,match", [
        ("eval_interval = 5\neval_episodes = 0", "eval_episodes"),
        ("smoothing_window = 0", "smoothing_window"),
        ("episodes = 0", "episodes"),
        ("checkpoint_interval = -10", "checkpoint_interval"),
        ("eval_interval = -5", "eval_interval"),
    ], ids=["eval_without_episodes", "smoothing_window", "episodes",
            "checkpoint_interval", "eval_interval"])
    def test_mistake_fails_before_the_run_directory(self, text, match, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text(text + "\n")
        out = tmp_path / "run"
        with pytest.raises(ConfigFileError, match=match):
            cli.main(["train", "--config", str(path), "--out", str(out)])
        assert not out.exists()

    def test_zero_still_disables_both_intervals(self, tmp_path):
        cfg = tiny_run_config(tmp_path, eval_interval=0, eval_episodes=0,
                              checkpoint_interval=0)
        assert cfg.eval_interval == cfg.checkpoint_interval == 0

    def test_setting_changed_after_construction_fails_in_train(self, tmp_path):
        cfg = tiny_run_config(tmp_path)
        cfg.smoothing_window = 0
        with pytest.raises(ConfigFileError, match="smoothing_window"):
            train(cfg)
        assert not (tmp_path / "run").exists()


class TestMetricsCsv:
    def _records(self):
        return [
            MetricsRecord(episode=0, env_steps=20, wall_s=0.5, rewards=[-3.0],
                          smoothed=[-3.0]),
            MetricsRecord(episode=1, env_steps=40, wall_s=1.0, rewards=[-2.0],
                          smoothed=[-2.5], critic_loss=0.25),
            MetricsRecord(episode=2, env_steps=60, wall_s=1.5, rewards=[-1.0],
                          smoothed=[-2.0], critic_loss=0.125, actor_grad_norm=0.7),
        ]

    def test_empty_gives_header_only(self, tmp_path):
        path = emit_csv([], tmp_path / "m.csv")
        assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"

    def test_three_records_four_lines(self, tmp_path):
        path = emit_csv(self._records(), tmp_path / "m.csv")
        assert len(path.read_text().splitlines()) == 4

    def test_round_trip(self, tmp_path):
        records = self._records()
        path = emit_csv(records, tmp_path / "m.csv")
        parsed = parse_metrics_csv(path)
        assert len(parsed) == 3
        for a, b in zip(records, parsed):
            assert a.episode == b.episode
            assert a.env_steps == b.env_steps
            assert a.rewards == pytest.approx(b.rewards)
            assert a.smoothed == pytest.approx(b.smoothed)
            assert (a.critic_loss is None) == (b.critic_loss is None)
            if a.critic_loss is not None:
                assert a.critic_loss == pytest.approx(b.critic_loss)

    def test_malformed_row_named(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\n1,2\n")
        with pytest.raises(ValueError, match="m.csv:2"):
            parse_metrics_csv(path)


class TestRollingMean:
    def test_window_one_is_identity(self):
        x = np.array([3.0, -1.0, 4.0])
        assert np.array_equal(rolling_mean(x, 1), x)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=500)
        got = rolling_mean(x, 100)
        for i in range(0, 500, 37):
            lo = max(0, i - 100 + 1)
            assert got[i] == pytest.approx(np.mean(x[lo:i + 1]), abs=1e-9)


class TestTrainRun:
    def test_smoke_run_layout(self, tmp_path):
        # before the training-start episode there must be no loss rows at all
        cfg = tiny_run_config(tmp_path, episodes=25,
                              train=TrainConfig(hidden_dim=8, attention_heads=2,
                                                attention_blocks=1, batch_size=8))
        out = train(cfg)
        assert (out / "config.txt").exists()
        records = parse_metrics_csv(out / "metrics.csv")
        assert len(records) == 25
        assert all(r.critic_loss is None for r in records)
        assert (out / "ckpt_final").exists()

    def test_updates_fire_after_start(self, tmp_path):
        cfg = tiny_run_config(tmp_path, episodes=30)
        out = train(cfg)
        records = parse_metrics_csv(out / "metrics.csv")
        with_loss = [r for r in records if r.critic_loss is not None]
        assert with_loss, "expected critic updates after the start episode"
        assert all(r.episode >= 10 and r.episode % 5 == 0 for r in with_loss)

    def test_same_seed_reproduces_reward_column(self, tmp_path):
        a = train(tiny_run_config(tmp_path, name="a", seed=3))
        b = train(tiny_run_config(tmp_path, name="b", seed=3))
        ra = [r.rewards for r in parse_metrics_csv(a / "metrics.csv")]
        rb = [r.rewards for r in parse_metrics_csv(b / "metrics.csv")]
        assert ra == rb

    def test_wall_time_monotone(self, tmp_path):
        out = train(tiny_run_config(tmp_path, episodes=20))
        walls = [r.wall_s for r in parse_metrics_csv(out / "metrics.csv")]
        assert all(b >= a for a, b in zip(walls, walls[1:]))

    def test_checkpoint_cadence(self, tmp_path):
        out = train(tiny_run_config(tmp_path, episodes=20, checkpoint_interval=10))
        assert (out / "ckpt_10").exists()
        assert (out / "ckpt_20").exists()

    @pytest.mark.parametrize("scenario,n", [("coop_nav", 3), ("coop_nav", 5),
                                            ("coop_nav", 8), ("predator_prey", 3),
                                            ("predator_prey", 6),
                                            ("predator_prey", 9)])
    def test_published_agent_counts_accepted(self, scenario, n, tmp_path):
        cfg = tiny_run_config(tmp_path, scenario=scenario, agents=n, episodes=2)
        out = train(cfg)
        assert len(parse_metrics_csv(out / "metrics.csv")) == 2

    def test_float64_run_saves_and_restores_bit_exactly(self, tmp_path):
        cfg = tiny_run_config(tmp_path, episodes=12, train=dataclasses.replace(
            tiny_run_config(tmp_path).train, dtype="float64"))
        out = train(cfg)
        assert any(r.critic_loss is not None for r in parse_metrics_csv(out / "metrics.csv"))
        trainer = Trainer(cfg.scenario_config(), AlgoKind.parse(cfg.algo), cfg.train,
                          seed=1)
        assert trainer.restore(out / "ckpt_final") == cfg.episodes
        _, tensors = load_checkpoint(out / "ckpt_final")
        for name, param in trainer.named_parameters():
            assert param.data.dtype == np.float64
            assert param.data.tobytes() == tensors[name].tobytes(), name

    @pytest.mark.parametrize("bad,error", [
        (dict(scenario="predator_prey", agents=4), ConfigError),
        (dict(algo="qmix"), ValueError),
        (dict(scenario="predator_prey", prey="no_such_checkpoint"), CheckpointError),
    ], ids=["agents", "algo", "prey"])
    def test_bad_run_leaves_no_directory(self, bad, error, tmp_path):
        if "prey" in bad:
            bad["prey"] = str(tmp_path / bad["prey"])
        cfg = tiny_run_config(tmp_path, **bad)
        with pytest.raises(error):
            train(cfg)
        assert not (tmp_path / "run").exists()

    def test_evaluation_rows_survive_a_failed_run(self, tmp_path, monkeypatch):
        # the run dies after its first evaluation (episode index 2); the row
        # must already be on disk
        original = Trainer.train_episode
        calls = []

        def failing(trainer):
            calls.append(None)
            if len(calls) == 4:
                raise NonFiniteLossError("injected")
            return original(trainer)

        monkeypatch.setattr(Trainer, "train_episode", failing)
        cfg = tiny_run_config(tmp_path, episodes=10, eval_interval=3, eval_episodes=2)
        with pytest.raises(NonFiniteLossError):
            train(cfg)
        lines = (tmp_path / "run" / "evals.csv").read_text().splitlines()
        assert lines[0] == "episode,eval_mean_type0,eval_std_type0"
        assert len(lines) == 2 and lines[1].startswith("2,")
        assert not (tmp_path / "run" / "ckpt_final").exists()

    def test_evaluation_rows_follow_the_interval(self, tmp_path):
        out = train(tiny_run_config(tmp_path, episodes=7, eval_interval=3, eval_episodes=2))
        rows = (out / "evals.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["2", "5"]
        assert all(np.isfinite(float(v)) for row in rows for v in row.split(",")[1:])

    def test_predator_prey_reward_columns(self, tmp_path):
        cfg = tiny_run_config(tmp_path, scenario="predator_prey", agents=3,
                              episodes=3)
        out = train(cfg)
        for record in parse_metrics_csv(out / "metrics.csv"):
            assert len(record.rewards) == 2


class TestEvaluate:
    def _run(self, tmp_path):
        return train(tiny_run_config(tmp_path, episodes=12, checkpoint_interval=0))

    def test_same_seed_identical_stats(self, tmp_path):
        out = self._run(tmp_path)
        a = evaluate(out / "ckpt_final", episodes=5, seed=9,
                     train_cfg=tiny_run_config(tmp_path).train)
        b = evaluate(out / "ckpt_final", episodes=5, seed=9,
                     train_cfg=tiny_run_config(tmp_path).train)
        assert a == b

    def test_untrained_coop_nav_reward_is_negative(self, tmp_path):
        out = self._run(tmp_path)
        stats = evaluate(out / "ckpt_final", episodes=5, seed=1,
                         train_cfg=tiny_run_config(tmp_path).train)
        assert stats["mean"][0] < 0.0

    def test_checkpoint_equals_in_memory_bitwise(self, tmp_path):
        cfg = tiny_run_config(tmp_path, episodes=12)
        scenario = cfg.scenario_config()
        trainer = Trainer(scenario, AlgoKind.parse(cfg.algo), cfg.train, seed=cfg.seed)
        for _ in range(12):
            trainer.train_episode()
        trainer.save(tmp_path / "ck", episode=12)
        in_memory = evaluate_trainer(trainer, episodes=4, seed=77)
        from_disk = evaluate(tmp_path / "ck", episodes=4, seed=77,
                             train_cfg=cfg.train)
        assert in_memory == from_disk

    def _float64_run(self, tmp_path):
        # default network sizes, so that evaluate needs no train_cfg
        cfg = tiny_run_config(tmp_path, algo="matd3", episodes=2,
                              train=TrainConfig(dtype="float64"))
        return cfg, train(cfg) / "ckpt_final"

    def test_float64_checkpoint_evaluates_in_float64(self, tmp_path):
        cfg, ck = self._float64_run(tmp_path)
        trainer = Trainer(cfg.scenario_config(), AlgoKind.MATD3, cfg.train, seed=5)
        trainer.restore(ck)
        assert evaluate(ck, episodes=3, seed=5) == evaluate_trainer(trainer, episodes=3,
                                                                    seed=5)

    def test_architecture_comes_from_the_checkpoint(self, tmp_path):
        # hidden width 8 and 8 heads, neither of them the default
        cfg = tiny_run_config(tmp_path, algo="dsa-matd3", scenario="predator_prey",
                              agents=6, episodes=2,
                              train=dataclasses.replace(tiny_run_config(tmp_path).train,
                                                        attention_heads=8))
        ck = train(cfg) / "ckpt_final"
        assert evaluate(ck, episodes=2, seed=3) == evaluate(ck, episodes=2, seed=3,
                                                            train_cfg=cfg.train)

    def test_float64_checkpoint_refused_by_float32_trainer(self, tmp_path):
        cfg, ck = self._float64_run(tmp_path)
        trainer = Trainer(cfg.scenario_config(), AlgoKind.MATD3, TrainConfig(), seed=5)
        with pytest.raises(ValueError, match="float64.*float32"):
            trainer.restore(ck)

    def test_unknown_scenario_rejected_before_building(self, tmp_path, monkeypatch):
        actor = nets.MlpActor(4, 2, np.random.default_rng(0))
        ck = save_checkpoint(tmp_path / "ck", actor.named_parameters("actor.0."),
                             algo="maddpg", scenario="tag", agents=3, episode=0)

        def no_trainer(*args, **kwargs):
            raise AssertionError("a Trainer was built")

        monkeypatch.setattr(harness, "Trainer", no_trainer)
        with pytest.raises(ConfigFileError, match="unknown scenario 'tag'"):
            evaluate(ck, episodes=1, seed=0)

    def test_no_training_side_effects(self, tmp_path):
        cfg = tiny_run_config(tmp_path)
        trainer = Trainer(cfg.scenario_config(), AlgoKind.SA_MATD3, cfg.train, seed=0)
        before = {k: v.data.copy() for k, v in trainer.named_parameters()}
        buf_len = len(trainer.buffer)
        evaluate_trainer(trainer, episodes=3, seed=5)
        assert len(trainer.buffer) == buf_len
        for k, v in trainer.named_parameters():
            assert np.array_equal(before[k], v.data)


class TestLockstepEvaluation:
    """``evaluate_trainer`` steps its episodes as one batched world."""

    # Batched actor products round differently from batch-1 ones in the last
    # float32 bits (about 1e-10 seen on reward sums of 20 steps); relative and
    # absolute, on per-episode reward sums
    TOLERANCE = 1e-6

    def _per_episode(self, trainer, episodes, seed):
        env = ParticleWorld(trainer.scenario, seed=seed)
        return np.stack([trainer.run_episode(explore=False, env=env)
                         for _ in range(episodes)])

    @pytest.mark.parametrize("algo,scenario", [("dsa-matd3", ScenarioConfig.predator_prey(9)),
                                               ("maddpg", ScenarioConfig.coop_nav(5))])
    def test_matches_per_episode_loop(self, algo, scenario):
        trainer = Trainer(scenario, AlgoKind.parse(algo), TrainConfig(replay_capacity=600),
                          seed=3)
        loop = self._per_episode(trainer, 5, seed=8)
        lockstep = trainer.run_episode(explore=False,
                                       env=ParticleWorld(scenario, seed=8, episodes=5))
        assert lockstep.shape == loop.shape == (5, len(scenario.type_names))
        assert np.allclose(lockstep, loop, rtol=self.TOLERANCE, atol=self.TOLERANCE)
        stats = evaluate_trainer(trainer, episodes=5, seed=8)
        assert stats["mean"] == [float(m) for m in lockstep.mean(axis=0)]
        assert np.allclose(stats["mean"], loop.mean(axis=0), rtol=self.TOLERANCE,
                           atol=self.TOLERANCE)
        assert np.allclose(stats["std"], loop.std(axis=0), rtol=self.TOLERANCE,
                           atol=self.TOLERANCE)

    def test_prey_actor_acts_for_every_episode_at_once(self, tmp_path, monkeypatch):
        scenario = ScenarioConfig.predator_prey(6)
        actor = nets.MlpActor(4 + 2 * 3 + 2 * 5 + 2 * 4, 2, np.random.default_rng(5),
                              hidden_dim=8, hidden_layers=2)
        ck = save_prey_actor(tmp_path / "prey", actor, scenario)
        trainer = Trainer(scenario, AlgoKind.MATD3, TrainConfig(hidden_dim=8),
                          seed=2, prey_policy=ck)
        loop = self._per_episode(trainer, 3, seed=4)
        rows = []
        act = trainer.prey_actor.act
        monkeypatch.setattr(trainer.prey_actor, "act",
                            lambda obs: rows.append(obs.shape) or act(obs))
        stats = evaluate_trainer(trainer, episodes=3, seed=4)
        assert rows == [(3, scenario.n_prey, actor.obs_dim)] * scenario.episode_length
        assert np.allclose(stats["mean"], loop.mean(axis=0), rtol=self.TOLERANCE,
                           atol=self.TOLERANCE)

    def test_batched_world_refuses_to_store(self):
        trainer = Trainer(ScenarioConfig.coop_nav(3), AlgoKind.SA_MATD3,
                          TrainConfig(hidden_dim=8, attention_heads=2, batch_size=8,
                                      replay_capacity=400), seed=0)
        env = ParticleWorld(trainer.scenario, seed=1, episodes=2)
        with pytest.raises(ValueError, match="one episode at a time"):
            trainer.run_episode(explore=True, env=env)
        assert len(trainer.buffer) == 0

    def test_pp9_eval_matches_benchmark_reference(self):
        # the benchmark's own reference, read and never written here, so that
        # evaluation drift fails the fast suite and not only the benchmark
        path = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"
        ref = json.loads(path.read_text())["pp9-rollout"]["eval_reward_means"]
        trainer = Trainer(ScenarioConfig.predator_prey(9), AlgoKind.DSA_MATD3,
                          TrainConfig(replay_capacity=4_000), seed=0)
        stats = evaluate_trainer(trainer, episodes=5, seed=0)
        assert np.allclose(stats["mean"], ref["value"], rtol=ref["rel_tol"],
                           atol=ref["abs_tol"]), (stats["mean"], ref["value"])


class TestPreyDropIn:
    def test_loaded_prey_changes_behavior(self, tmp_path):
        scenario = ScenarioConfig.predator_prey(3)
        prey_obs_dim = 4 + 2 * 3 + 2 * 2 + 2 * 2
        actor = nets.MlpActor(prey_obs_dim, 2, np.random.default_rng(5),
                              hidden_dim=8, hidden_layers=3)
        ck = save_prey_actor(tmp_path / "prey", actor, scenario)

        cfg = TrainConfig(hidden_dim=8, attention_heads=2, attention_blocks=1)
        scripted = Trainer(scenario, AlgoKind.SA_MATD3, cfg, seed=2)
        learned = Trainer(scenario, AlgoKind.SA_MATD3, cfg, seed=2, prey_policy=ck)
        r_scripted = scripted.run_episode(explore=False)
        r_learned = learned.run_episode(explore=False)
        assert learned.prey_actor is not None
        assert not np.allclose(r_scripted, r_learned)

    def test_float64_prey_checkpoint_loads_in_float64(self, tmp_path):
        scenario = ScenarioConfig.predator_prey(3)
        prey_obs_dim = 4 + 2 * 3 + 2 * 2 + 2 * 2
        actor = nets.MlpActor(prey_obs_dim, 2, np.random.default_rng(5),
                              hidden_dim=8, hidden_layers=3, dtype=np.float64)
        ck = save_prey_actor(tmp_path / "prey", actor, scenario)
        cfg = TrainConfig(hidden_dim=8, attention_heads=2, attention_blocks=1)
        trainer = Trainer(scenario, AlgoKind.SA_MATD3, cfg, seed=2, prey_policy=ck)
        for (_, saved), (_, loaded) in zip(actor.named_parameters(),
                                           trainer.prey_actor.named_parameters()):
            assert loaded.data.dtype == np.float64
            assert np.array_equal(loaded.data, saved.data)

    def test_float64_prey_acts_on_float64_observations(self, tmp_path):
        scenario = ScenarioConfig.predator_prey(3)
        prey_obs_dim = 4 + 2 * 3 + 2 * 2 + 2 * 2
        actor = nets.MlpActor(prey_obs_dim, 2, np.random.default_rng(5),
                              hidden_dim=8, hidden_layers=3, dtype=np.float64)
        ck = save_prey_actor(tmp_path / "prey", actor, scenario)
        cfg = TrainConfig(hidden_dim=8, attention_heads=2, attention_blocks=1)
        trainer = Trainer(scenario, AlgoKind.SA_MATD3, cfg, seed=2, prey_policy=ck)
        prey_obs = trainer.env.reset()[1]
        assert prey_obs.dtype == np.float64
        want = np.clip(trainer.prey_actor.act(prey_obs), -1.0, 1.0)
        assert np.array_equal(trainer._prey_actions(trainer.env, prey_obs), want)

    def test_prey_architecture_comes_from_the_checkpoint(self, tmp_path):
        scenario = ScenarioConfig.predator_prey(3)
        prey_obs_dim = 4 + 2 * 3 + 2 * 2 + 2 * 2
        actor = nets.MlpActor(prey_obs_dim, 2, np.random.default_rng(5),
                              hidden_dim=16, hidden_layers=2)
        ck = save_prey_actor(tmp_path / "prey", actor, scenario)
        manifest, _ = load_checkpoint(ck)
        assert manifest.train == {"hidden_dim": "16", "hidden_layers": "2",
                                  "dtype": "float32"}
        cfg = TrainConfig(hidden_dim=8, attention_heads=2, attention_blocks=1)
        trainer = Trainer(scenario, AlgoKind.SA_MATD3, cfg, seed=2, prey_policy=ck)
        for (_, saved), (_, loaded) in zip(actor.named_parameters(),
                                           trainer.prey_actor.named_parameters()):
            assert np.array_equal(loaded.data, saved.data)
        assert np.all(np.isfinite(evaluate_trainer(trainer, episodes=2, seed=1)["mean"]))

    def test_prey_checkpoint_without_architecture_takes_trainer_sizes(self, tmp_path):
        # as written before prey checkpoints recorded their architecture
        scenario = ScenarioConfig.predator_prey(3)
        prey_obs_dim = 4 + 2 * 3 + 2 * 2 + 2 * 2
        actor = nets.MlpActor(prey_obs_dim, 2, np.random.default_rng(5),
                              hidden_dim=8, hidden_layers=2)
        ck = save_checkpoint(tmp_path / "prey", actor.member(0, "prey_actor."),
                             algo="prey-actor", scenario=scenario.kind,
                             agents=scenario.n_agents, episode=0)
        cfg = TrainConfig(hidden_dim=8, hidden_layers=2, attention_heads=2,
                          attention_blocks=1)
        trainer = Trainer(scenario, AlgoKind.SA_MATD3, cfg, seed=2, prey_policy=ck)
        for (_, saved), (_, loaded) in zip(actor.named_parameters(),
                                           trainer.prey_actor.named_parameters()):
            assert np.array_equal(loaded.data, saved.data)


class TestPlot:
    def _csv(self, tmp_path, name, n=40, offset=0.0):
        records = [MetricsRecord(episode=i, env_steps=20 * (i + 1),
                                 wall_s=0.1 * (i + 1),
                                 rewards=[float(np.sin(i / 5.0) + offset)],
                                 smoothed=[0.0])
                   for i in range(n)]
        run_dir = tmp_path / name
        run_dir.mkdir()
        return emit_csv(records, run_dir / "metrics.csv")

    def test_single_run_one_polyline_per_panel(self, tmp_path):
        csv = self._csv(tmp_path, "solo")
        svg = emit_plot([csv], tmp_path / "out.svg", window=5).read_text()
        assert svg.count("<polyline") == 2
        assert svg.startswith("<svg")

    def test_two_runs_two_polylines_per_panel(self, tmp_path):
        a = self._csv(tmp_path, "a")
        b = self._csv(tmp_path, "b", offset=1.0)
        svg = emit_plot([a, b], tmp_path / "out.svg").read_text()
        assert svg.count("<polyline") == 4

    def test_window_one_passes_through_raw_values(self, tmp_path):
        csv = self._csv(tmp_path, "raw", n=10)
        records = parse_metrics_csv(csv)
        raw = np.array([r.rewards[0] for r in records])
        assert np.array_equal(rolling_mean(raw, 1), raw)
        svg = emit_plot([csv], tmp_path / "out.svg", window=1).read_text()
        assert svg.count("<polyline") == 2

    def test_malformed_csv_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n1,2,3\n")
        with pytest.raises(ValueError, match="bad header"):
            emit_plot([bad], tmp_path / "out.svg")


class TestCompare:
    def test_equal_runs_equal_rewards(self, tmp_path):
        a = train(tiny_run_config(tmp_path, name="a", seed=4))
        b = train(tiny_run_config(tmp_path, name="b", seed=4))
        table = compare([a, b])
        rows = table.splitlines()[2:]
        assert len(rows) == 2
        assert rows[0].split()[3] == rows[1].split()[3]

    def test_ranking_descends(self, tmp_path):
        dirs = [train(tiny_run_config(tmp_path, name=f"r{s}", seed=s))
                for s in range(3)]
        table = compare(dirs)
        values = [float(line.split()[3]) for line in table.splitlines()[2:]]
        assert values == sorted(values, reverse=True)

    def test_mixed_scenarios_refused(self, tmp_path):
        a = train(tiny_run_config(tmp_path, name="nav", episodes=3))
        b = train(tiny_run_config(tmp_path, name="tag", episodes=3,
                                  scenario="predator_prey", agents=3))
        with pytest.raises(ValueError, match="cannot compare"):
            compare([a, b])


class TestCli:
    def test_train_eval_plot_compare(self, tmp_path, capsys):
        config = tmp_path / "conf.txt"
        config.write_text(
            "episodes = 12\nsmoothing_window = 5\ncheckpoint_interval = 0\n"
            "train.hidden_dim = 8\ntrain.attention_heads = 2\n"
            "train.attention_blocks = 1\ntrain.batch_size = 8\n"
            "train.train_start_episodes = 10\ntrain.train_frequency = 5\n"
            "train.replay_capacity = 400\n")
        out_a = tmp_path / "run_a"
        out_b = tmp_path / "run_b"
        for out in (out_a, out_b):
            code = cli.main(["train", "--config", str(config), "--algo", "maddpg",
                             "--agents", "3", "--seed", "1", "--out", str(out)])
            assert code == 0

        code = cli.main(["eval", "--checkpoint", str(out_a / "ckpt_final"),
                         "--episodes", "3", "--seed", "2",
                         "--config", str(config)])
        assert code == 0
        assert "mean episode reward" in capsys.readouterr().out

        code = cli.main(["plot", str(out_a / "metrics.csv"),
                         str(out_b / "metrics.csv"),
                         "--out", str(tmp_path / "c.svg"), "--window", "5"])
        assert code == 0
        assert (tmp_path / "c.svg").exists()

        code = cli.main(["compare", str(out_a), str(out_b)])
        assert code == 0
        assert "run_a" in capsys.readouterr().out

    def test_cli_flags_override_config_file(self, tmp_path):
        config = tmp_path / "conf.txt"
        config.write_text("agents = 5\nepisodes = 7\n")
        args = cli.build_parser().parse_args(
            ["train", "--config", str(config), "--agents", "8"])
        cfg = cli._train_config(args)
        assert cfg.agents == 8      # flag wins
        assert cfg.episodes == 7    # file survives

    def test_unknown_algo_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown algorithm"):
            cli.main(["train", "--algo", "qmix", "--out", str(tmp_path / "x")])
