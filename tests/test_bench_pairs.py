"""tools/bench_pairs.py's summary block, on made-up runs (no benchmark is run)."""

import importlib.util
import json
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
    runs = []
    bench_pairs.run_pairs(sides, "w", [7, 8, 9], runs, lambda: None)
    assert calls == [("a", 7), ("b", 7), ("b", 8), ("a", 8), ("a", 9), ("b", 9)]
    assert [(r["side"], r["pair"]) for r in runs] == [
        ("parent", 0), ("change", 0), ("change", 1), ("parent", 1), ("parent", 2),
        ("change", 2)]


@pytest.mark.parametrize("change,shown", [
    ([9.0] * 10, True),                        # wins all 10, beyond the parent's IQR
    ([9.0] * 9 + [10.2], True),                # a tie counts for neither side: 9 wins
    ([9.0] * 8 + [9.8, 10.2], False),          # 8 wins and two ties
    ([9.0] * 8 + [11.0, 11.0], False),         # 8 wins
    ([9.9] * 10, False),                       # 10 wins, inside the parent's IQR
], ids=["all", "nine-and-a-tie", "eight-and-two-ties", "eight", "inside-iqr"])
def test_gain_shown_needs_nine_of_ten_pairs_beyond_the_parent_iqr(change, shown):
    parent = [9.8, 10.2] * 5   # median 10.0, IQR 0.4
    assert bench_pairs.compare(parent, change, "lower", 0.15)["gain_shown"] is shown
    # the same pairs with higher better, as rates
    rates = [-v for v in parent], [-v for v in change]
    assert bench_pairs.compare(*rates, "higher", 0.15)["gain_shown"] is shown


@pytest.mark.parametrize("parent,change,better,verdict", [
    ([9.9, 10.1] * 5, [10.5] * 10, "lower", "no"),          # 5% worse, bound 15%
    ([9.9, 10.1] * 5, [12.0] * 10, "lower", "yes"),         # 20% worse
    ([9.9, 10.1] * 5, [8.0] * 10, "higher", "yes"),         # 20% fewer per second
    ([8.0, 12.0] * 5, [10.5] * 10, "lower", "unresolved"),  # parent IQR 40%
    ([8.0, 12.0] * 5, [7.5] * 10, "lower", "no"),           # ... but every run beats it
    ([8.0, 12.0] * 5, [12.5] * 10, "higher", "no"),
], ids=["within", "worse", "worse-higher", "wide-parent", "wide-parent-beaten",
        "wide-parent-beaten-higher"])
def test_regression_verdict(parent, change, better, verdict):
    assert bench_pairs.compare(parent, change, better, 0.15)["regression"] == verdict


def test_summary_holds_the_verdicts_per_metric():
    runs = [_run(side, i, ms, 100.0) for i in range(10)
            for side, ms in (("parent", 10.0 + 0.1 * (i % 2)), ("change", 9.0))]
    out = bench_pairs.summarize(runs, METRICS)
    assert out["main_ms.p50"]["gain_shown"] is True
    assert out["main_ms.p50"]["regression"] == "no"
    assert out["throughput_per_s"]["gain_shown"] is False    # every pair a tie
    assert out["throughput_per_s"]["regression"] == "no"
    assert "gain_shown" not in out["main_over_bypass"]


def _failed(side, pair, code=1):
    return {"workload": "w", "seed": 100 + pair, "side": side, "pair": pair,
            "exit_code": code, "stderr_tail": "Traceback ..."}


def test_failed_run_keeps_exit_code_and_stderr_tail(monkeypatch, tmp_path):
    class Proc:
        returncode, stdout, stderr = 3, "", "x" * 1000 + "y" * 2000

    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *a, **k: Proc())
    assert bench_pairs.run_once(tmp_path, "w", 7) == {"exit_code": 3, "stderr_tail": "y" * 2000}


def test_failed_run_does_not_stop_the_pairs(monkeypatch, tmp_path):
    def run_once(checkout, workload, seed):
        if (checkout.name, seed) == ("b", 8):
            return {"exit_code": 1, "stderr_tail": "boom"}
        return {"result": {"metrics": {}}, "derived": [], "meta": {}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    runs, sizes = [], []
    bench_pairs.run_pairs({"parent": tmp_path / "a", "change": tmp_path / "b"}, "w",
                          [7, 8, 9], runs, lambda: sizes.append(len(runs)))
    assert sizes == [2, 4, 6]
    assert runs[2] == {"workload": "w", "seed": 8, "side": "change", "pair": 1,
                       "exit_code": 1, "stderr_tail": "boom"}


def test_summary_leaves_out_pairs_with_a_failed_run():
    runs = [_run(side, i, 10.0 + i, 100.0) for i in (0, 2) for side in ("parent", "change")]
    runs += [_run("parent", 1, 50.0, 1.0), _failed("change", 1), _failed("parent", 3)]
    out = bench_pairs.summarize(runs, METRICS)
    assert out["pairs"] == 2 and out["seeds"] == "100-102"
    assert out["failed_runs"] == {"parent": 1, "change": 1}
    assert out["main_ms.p50"]["parent_runs"] == [10.0, 12.0]
    # a workload with no complete pair yet has counts and no metrics
    out = bench_pairs.summarize([_run("parent", 0, 10.0, 1.0), _failed("change", 0)], METRICS)
    assert out["pairs"] == 0 and out["failed_runs"] == {"parent": 0, "change": 1}
    assert "main_ms.p50" not in out


def test_bench_file_is_rewritten_after_every_pair(monkeypatch, tmp_path):
    # the first nav8-update run fails; every later pair and workload still runs
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "resolve", lambda commit: commit)
    monkeypatch.setattr(bench_pairs, "export", lambda commit, directory: directory)
    bench = tmp_path / "BENCH_t.json"
    seen = []

    def run_once(checkout, workload, seed):
        seen.append(len(json.loads(bench.read_text())["runs"]) if bench.exists() else 0)
        if not seen[1:]:
            return {"exit_code": 2, "stderr_tail": "killed"}
        metrics = {m["name"]: {"value": 1.0} for m in bench_pairs.BENCHMARK["end_to_end"]}
        return {"result": {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics},
                "derived": [], "meta": {"host": "h"}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    bench_pairs.main(["--parent", "p", "--change", "c", "--label", "t", "--pairs", "2",
                      "--seed", "1", "--workloads", "nav8-update", "pp9-rollout"])
    assert seen == [0, 0, 2, 2, 4, 4, 6, 6]
    written = json.loads(bench.read_text())
    assert [r.get("exit_code") for r in written["runs"]] == [2] + [None] * 7
    assert written["runs"][0]["stderr_tail"] == "killed"
    assert written["meta"] == {"host": "h"}
    assert written["summary"]["nav8-update"]["pairs"] == 1
    assert written["summary"]["nav8-update"]["failed_runs"] == {"parent": 1, "change": 0}
    assert written["summary"]["pp9-rollout"]["pairs"] == 2
