"""tools/bench_pairs.py's summary block, on made-up runs (no benchmark is run)."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [{"name": "main_ms.p50", "better": "lower", "bound": 0.15},
           {"name": "throughput_per_s", "better": "higher", "bound": 0.15}]


def _run(side, pair, ms, rate, failed=0, bypass=1.0):
    metrics = {"main_ms.p50": {"value": ms}, "throughput_per_s": {"value": rate},
               "bypass_ms.p50": {"value": bypass}}
    return {"workload": "w", "seed": 100 + pair, "side": side, "pair": pair,
            "result": {"correct": failed == 0, "attempted": 10, "failed": failed,
                       "metrics": metrics}}


def test_summary_pairs_runs_and_counts_wins_in_each_direction():
    parent_ms, change_ms = [10.0, 12.0, 11.0, 13.0], [9.0, 12.5, 10.0, 12.0]
    # the change's runs come first, in another pair order: pairing is by "pair"
    runs = [_run("change", i, ms, 1000 / ms) for i, ms in reversed(list(enumerate(change_ms)))]
    runs += [_run("parent", i, ms, 1000 / ms, failed=int(i == 2))
             for i, ms in enumerate(parent_ms)]
    out = bench_pairs.summarize(runs, METRICS)
    assert out["pairs"] == 4 and out["seeds"] == "100-103"
    assert out["failed_ops"] == {"parent": 1, "change": 0}
    assert out["attempted_ops"] == {"parent": 40, "change": 40}
    assert out["correct"] == {"parent": False, "change": True}
    ms = out["main_ms.p50"]
    assert ms["parent_median"] == 11.5 and ms["change_median"] == 11.0
    assert ms["change_pct"] == pytest.approx(-4.35)
    assert ms["change_wins"] == 3          # lower is better: pairs 0, 2 and 3
    assert ms["parent_iqr"] == pytest.approx(12.25 - 10.75)
    assert ms["bound_pct"] == 15.0
    assert ms["parent_runs"] == parent_ms and ms["change_runs"] == change_ms
    assert out["throughput_per_s"]["change_wins"] == 3   # higher is better, same pairs


def test_main_over_bypass_cancels_what_moves_both_operations():
    # the host slows every parent run by a factor that cancels in the ratio;
    # the change's main operation is 10% slower per bypass millisecond in
    # pairs 0 and 1 only
    slow = [1.0, 1.5, 1.2, 2.0]
    runs = []
    for pair, (factor, ratio) in enumerate(zip(slow, [1.1, 1.1, 1.0, 1.0])):
        for side, main, bypass in (("parent", 20.0 * factor, 10.0 * factor),
                                   ("change", 20.0 * ratio, 10.0)):
            runs.append(_run(side, pair, main, 1.0, bypass=bypass))
    out = bench_pairs.summarize(runs, METRICS)
    assert out["main_ms.p50"]["change_wins"] == 3        # raw times: the host's drift
    block = out["main_over_bypass"]
    assert block["parent_runs"] == [2.0] * 4 and block["change_runs"] == [2.2, 2.2, 2.0, 2.0]
    assert block["parent_median"] == 2.0 and block["change_median"] == pytest.approx(2.1)
    assert block["change_pct"] == pytest.approx(5.0)
    assert block["change_wins"] == 0 and block["parent_iqr"] == 0.0


def test_seeds_and_order_alternate_by_pair(monkeypatch, tmp_path):
    calls = []

    def run_once(checkout, workload, seed):
        calls.append((checkout.name, seed))
        return {"result": {"metrics": {}}, "derived": [], "meta": {}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    sides = {"parent": tmp_path / "a", "change": tmp_path / "b"}
    runs = bench_pairs.run_pairs(sides, "w", [7, 8, 9])
    assert calls == [("a", 7), ("b", 7), ("b", 8), ("a", 8), ("a", 9), ("b", 9)]
    assert [(r["side"], r["pair"]) for r in runs] == [
        ("parent", 0), ("change", 0), ("change", 1), ("parent", 1), ("parent", 2),
        ("change", 2)]
