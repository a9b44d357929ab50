"""Golden runs: one short seeded ``harness.train`` per algorithm against a fixture.

Each run is small enough that critic and policy updates fire within a few
episodes. The fixture holds, per run, the reward columns and the logged
``critic_loss`` and ``actor_grad_norm`` of ``metrics.csv``, and the sum and L2
norm of every tensor in ``ckpt_final``, compared under ``GOLDEN_TOLERANCE``;
``PARAMS_DIGESTS`` pins the bytes of each run's ``ckpt_final/params.bin``. A
refactor that claims to keep the numbers must pass this test unchanged. A
change that moves them on purpose rewrites the fixture and the digests and
says why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py --write

The fixture was written with float32 training on x86-64 with OpenBLAS; another
BLAS may round differently in the last bits.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from samarl.algo import TrainConfig
from samarl.checkpoint import BLOB_FILE, load_checkpoint
from samarl.harness import RunConfig, parse_metrics_csv, train

FIXTURE = Path(__file__).resolve().parent / "golden_runs.json"
# one tolerance for every stored number, relative and absolute alike
GOLDEN_TOLERANCE = 1e-5

# SHA-256 of each run's ckpt_final/params.bin. Recorded on x86-64 with numpy
# 2.4.6 and OpenBLAS 0.3.31; another numpy, BLAS or CPU may round differently
# in the last bit, and then these digests do not hold there, while the
# fixture's tolerance may.
PARAMS_DIGESTS = {
    "maddpg": "1986e932bf8416a3f3b3c2d96be6c31a9bc4c386c62f1e984071a1c6ffd8d4c6",
    "matd3": "751fabe0d43618d66582c01bd9aa489bf631f62b0b95123b9128bdbaa6b61047",
    "sa-maddpg": "c8a7cc903bd181ceb4524d7d7d7b25fdce048602c037dabb77143566fe273b07",
    "sa-matd3": "f111e50ae92a80745f47c467937b56aec3fa899b8957c3c01227c42c5eae4fa0",
    "dsa-maddpg": "7b7cd4c37b7ea2b7105aca530fa0741857b8910a290a865f785daef5ad115712",
    "dsa-matd3": "62c26439441bb0496ec4488fa740f17d65b065f15acc005dd9cb6ab8a0949881",
}

CASES = [
    ("maddpg", "coop_nav", 3),
    ("matd3", "coop_nav", 3),
    ("sa-maddpg", "coop_nav", 3),
    ("sa-matd3", "coop_nav", 3),
    ("dsa-maddpg", "predator_prey", 6),
    ("dsa-matd3", "predator_prey", 6),
]


def golden_config(algo: str, scenario: str, agents: int, out) -> RunConfig:
    # updates from episode 2 on, every episode: 6 critic updates, and 6 or
    # (delayed kinds) 3 policy updates
    train_cfg = TrainConfig(hidden_dim=8, hidden_layers=2, attention_heads=2,
                            attention_blocks=1, batch_size=32, replay_capacity=200,
                            train_start_episodes=2, train_frequency=1)
    return RunConfig(scenario=scenario, algo=algo, agents=agents, episodes=8, seed=7,
                     out=str(out), checkpoint_interval=0, smoothing_window=4,
                     train=train_cfg)


def summarize(run_dir: Path) -> dict:
    records = parse_metrics_csv(run_dir / "metrics.csv")
    _, tensors = load_checkpoint(run_dir / "ckpt_final")
    return {
        "rewards": [r.rewards for r in records],
        "critic_loss": [r.critic_loss for r in records],
        "actor_grad_norm": [r.actor_grad_norm for r in records],
        "params": {name: [float(np.sum(t, dtype=np.float64)),
                          float(np.sqrt(np.sum(np.square(t, dtype=np.float64))))]
                   for name, t in tensors.items()},
    }


def params_digest(run_dir: Path) -> str:
    return hashlib.sha256((run_dir / "ckpt_final" / BLOB_FILE).read_bytes()).hexdigest()


def run_case(algo: str, scenario: str, agents: int, out) -> tuple[dict, str]:
    """The run's fixture entry and the digest of its final parameters."""
    run_dir = train(golden_config(algo, scenario, agents, out))
    return summarize(run_dir), params_digest(run_dir)


def _close(got, want) -> bool:
    if want is None or got is None:
        return got is None and want is None
    return bool(np.allclose(got, want, rtol=GOLDEN_TOLERANCE, atol=GOLDEN_TOLERANCE))


@pytest.mark.parametrize("algo,scenario,agents", CASES)
def test_golden_run(algo, scenario, agents, tmp_path):
    want = json.loads(FIXTURE.read_text())[algo]
    got, digest = run_case(algo, scenario, agents, tmp_path / algo)
    for column in ("rewards", "critic_loss", "actor_grad_norm"):
        assert len(got[column]) == len(want[column]), column
        for episode, (g, w) in enumerate(zip(got[column], want[column])):
            assert _close(g, w), f"{column} at episode {episode}: {g} vs {w}"
    assert any(v is not None for v in got["critic_loss"])
    assert any(v is not None for v in got["actor_grad_norm"])
    assert list(got["params"]) == list(want["params"])
    for name, values in want["params"].items():
        assert _close(got["params"][name], values), f"{name}: {got['params'][name]} vs {values}"
    assert digest == PARAMS_DIGESTS[algo], "ckpt_final/params.bin is not byte-identical"


def write_fixture(scratch: Path) -> None:
    """Write the fixture and print ``PARAMS_DIGESTS`` for pasting above."""
    runs = {algo: run_case(algo, scenario, agents, scratch / algo)
            for algo, scenario, agents in CASES}
    FIXTURE.write_text(json.dumps({algo: run[0] for algo, run in runs.items()}, indent=1)
                       + "\n")
    for algo, (_, digest) in runs.items():
        print(f'    "{algo}": "{digest}",')


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    with tempfile.TemporaryDirectory() as scratch:
        write_fixture(Path(scratch))
    print(f"wrote {FIXTURE}")
