"""tools/count_ops.py, the numpy-call counter, on tiny configs."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from samarl.algo import AlgoKind, TrainConfig, Trainer
from samarl.envs import ScenarioConfig

_PATH = Path(__file__).resolve().parent.parent / "tools" / "count_ops.py"
_SPEC = importlib.util.spec_from_file_location("count_ops", _PATH)
count_ops = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(count_ops)

TINY = TrainConfig(hidden_dim=8, attention_heads=2, attention_blocks=1, batch_size=16,
                   replay_capacity=100)


def test_counts_top_level_calls_only():
    x = np.ones((4, 2)).view(count_ops.Counted)
    before = count_ops._counts["loop"]
    np.linalg.norm(x, axis=-1)       # one call, whatever numpy runs inside it
    y = (x * x).sum(axis=-1)         # a ufunc and a method
    y[0] = 1.0                       # an index set
    assert count_ops._counts["loop"] - before == 4
    assert type(y) is count_ops.Counted


@pytest.mark.parametrize("scenario,kind", [(ScenarioConfig.predator_prey(3), "dsa-matd3"),
                                           (ScenarioConfig.coop_nav(2), "sa-matd3")])
def test_counts_every_part_and_leaves_the_rollout_unchanged(scenario, kind):
    counted, plain = (Trainer(scenario, AlgoKind.parse(kind), TINY, seed=0) for _ in range(2))
    calls = count_ops.count_calls(counted, episodes=2)
    for _ in range(2):
        plain.run_episode(explore=True)
    assert calls["total"] == pytest.approx(sum(calls[part] for part in count_ops.PARTS))
    assert calls["step"] > 0 and calls["actor"] > 0 and calls["loop"] > 0
    assert (calls["prey"] > 0) == (scenario.n_prey > 0)
    for name in ("obs", "act", "rew"):
        assert np.asarray(getattr(counted.buffer, name)).tobytes() == \
            getattr(plain.buffer, name).tobytes(), name
    # numpy's namespace and the trainer's methods are restored
    assert type(np.zeros(1)) is np.ndarray
    assert "act" not in vars(counted.actor) and "step" not in vars(counted.env)
