"""Alternating pairs of perfbench runs on two commits, summarised into a BENCH file.

    python3 tools/bench_pairs.py --parent main --change HEAD --label mychange \\
        --pairs 10 --seed 1721 [--workloads nav8-update ...] [--aa 4]

Each commit is exported with ``git archive`` into its own temporary
directory outside the tree, removed at the end, so neither run can read the
other's files or this checkout's. For every workload the runner runs
``--pairs`` pairs of

    python3 perfbench/run.py --workload <w> --seed <s> --seconds <t> --trace 0

from the root of each export, one after the other, with t the
``run_seconds`` of BENCHMARK.json. Pair i runs the parent first when i is
even and the change first when it is odd, and both runs of a pair take the
same seed: ``--seed`` + 100 * (the workload's place in BENCHMARK.json) + i.
``--aa K`` adds K pairs per workload of the parent against a second export
of the parent, on the first K seeds: an A/A control that shows how far two
runs of the same code drift apart on this host. The runner only invokes
perfbench; it changes nothing under ``perfbench/``.

``BENCH_<label>.json``, at the root of the repo, holds every run's JSON
result line with its printed ``machine_scale`` and unscaled p50 lines, and a
``summary`` block per workload: failed and attempted operations per side,
and per end-to-end metric of BENCHMARK.json the two medians, the change's
percentage, the pairs the change won, the parent's interquartile range, the
metric's bound, both sides' runs and two verdicts. ``gain_shown`` holds when
the change wins at least 9 of 10 pairs (a tie counts for neither side) and
its median beats the parent's by more than the parent's IQR. ``regression``
reads "yes" when the change's median is worse than the parent's by more than
the bound, "unresolved" when the parent's IQR exceeds the bound (both as a
share of the parent's median) unless every change run beats every parent
run, and "no" otherwise. Its ``main_over_bypass`` entry holds the
same figures for each run's ``main_ms.p50 / bypass_ms.p50`` (a lower ratio
wins): both operations run in the same process, so the ratio cancels what
the host's state does to both alike. It reads the code only for a change
that leaves the bypass operation alone. The A/A control, if run, has the same
block under ``aa``.

The file is rewritten after every pair, so a stopped runner keeps what it
measured. A perfbench run that exits non-zero, or prints nothing, is kept
in ``runs`` with its exit code and the tail of its stderr, and the runner
goes on; its pair is left out of the summary, which counts such runs per
side under ``failed_runs``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = BENCHMARK["run_seconds"]
DERIVED = ("machine_scale", "main_ms.p50.unscaled", "bypass_ms.p50.unscaled")


def export(commit: str, directory: Path) -> Path:
    """``commit``'s files, as ``git archive`` gives them, in ``directory``."""
    directory.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(directory)], input=archive, check=True)
    return directory


def resolve(commit: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", commit],
                          check=True, capture_output=True, text=True).stdout.strip()


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One perfbench run: its last stdout line (the JSON result), its derived
    lines named in ``DERIVED`` and its ``meta`` line; or, for a run that
    fails, its exit code and the tail of its stderr."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"exit_code": proc.returncode, "stderr_tail": proc.stderr[-2000:]}
    meta = next((json.loads(line[5:]) for line in lines if line.startswith("meta ")), {})
    derived = [line.strip() for line in lines if line.strip().split(" ")[0] in DERIVED]
    return {"result": json.loads(lines[-1]), "derived": derived, "meta": meta}


def run_pairs(sides: dict[str, Path], workload: str, seeds: list[int], runs: list,
              after_pair) -> None:
    """Alternating pairs: the first side of ``sides`` runs first in even pairs.
    Each run is appended to ``runs`` as it ends, and ``after_pair()`` is
    called once each pair is done."""
    names = list(sides)
    for pair, seed in enumerate(seeds):
        for side in names if pair % 2 == 0 else names[::-1]:
            record = run_once(sides[side], workload, seed)
            runs.append({"workload": workload, "seed": seed, "side": side, "pair": pair,
                         **record})
            outcome = (", ".join(f"{k} {v['value']:.4g}"
                                 for k, v in record["result"]["metrics"].items())
                       if "result" in record else f"exited {record['exit_code']}")
            print(f"{workload} pair {pair} seed {seed} {side}: {outcome}", flush=True)
        after_pair()


def compare(parent: list[float], change: list[float], better: str,
            bound: float | None = None) -> dict:
    """Both sides' medians, the change's percentage, the pairs it won (by
    ``better``, "lower" or "higher"), the parent's IQR and both sides' runs;
    given a ``bound``, a fraction, also ``bound_pct`` and the two verdicts
    that follow from those figures (module docstring)."""
    p, c = np.array(parent, dtype=float), np.array(change, dtype=float)
    sign = 1.0 if better == "lower" else -1.0   # so that > 0 favours the change
    q1, q3 = np.percentile(p, [25, 75])
    iqr = float(q3 - q1)
    wins = int(np.sum(sign * (p - c) > 0))
    out = {
        "parent_median": round(float(np.median(p)), 6),
        "change_median": round(float(np.median(c)), 6),
        "change_pct": round(100 * (float(np.median(c)) / float(np.median(p)) - 1), 2),
        "change_wins": wins,
        "parent_iqr": round(iqr, 6),
        "parent_runs": [round(v, 4) for v in p.tolist()],
        "change_runs": [round(v, 4) for v in c.tolist()],
    }
    if bound is None:
        return out
    gain = sign * float(np.median(p) - np.median(c))
    scale = bound * abs(float(np.median(p)))
    if iqr > scale and not np.all(sign * np.subtract.outer(p, c) > 0):
        regression = "unresolved"
    else:
        regression = "yes" if -gain > scale else "no"
    return {**out, "bound_pct": round(100 * bound, 2),
            "gain_shown": bool(wins >= 0.9 * len(p) and gain > iqr),
            "regression": regression}


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """The ``summary`` block of one workload's runs, paired by ``pair``; a
    pair with a failed run on either side is left out."""
    sides = ("parent", "change")
    complete = set.intersection(*({r["pair"] for r in runs if r["side"] == s and "result" in r}
                                  for s in sides))
    by_side = {side: sorted((r for r in runs if r["side"] == side and r["pair"] in complete),
                            key=lambda r: r["pair"]) for side in sides}
    parent, change = by_side["parent"], by_side["change"]
    seeds = [r["seed"] for r in parent]
    out = {
        "pairs": len(parent),
        "seeds": f"{min(seeds)}-{max(seeds)}" if seeds else "",
        "failed_runs": {s: sum(r["side"] == s and "result" not in r for r in runs)
                        for s in sides},
        "failed_ops": {s: sum(r["result"]["failed"] for r in rs) for s, rs in by_side.items()},
        "attempted_ops": {s: sum(r["result"]["attempted"] for r in rs)
                          for s, rs in by_side.items()},
        "correct": {s: all(r["result"]["correct"] for r in rs) for s, rs in by_side.items()},
    }
    if not parent:
        return out

    def values(rs, name):
        return [r["result"]["metrics"][name]["value"] for r in rs]

    for metric in end_to_end:
        name = metric["name"]
        out[name] = compare(values(parent, name), values(change, name), metric["better"],
                            metric["bound"])
    ratios = [np.divide(values(rs, "main_ms.p50"), values(rs, "bypass_ms.p50"))
              for rs in (parent, change)]
    out["main_over_bypass"] = compare(*ratios, "lower")
    return out


def parse_args(argv):
    names = [w["name"] for w in BENCHMARK["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", required=True, help="the commit compared against")
    parser.add_argument("--change", required=True, help="the commit measured")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="first seed of each workload")
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--aa", type=int, default=0, metavar="K",
                        help="A/A control pairs per workload (parent against parent)")
    return parser.parse_args(argv)


def bench_file(args, parent: str, change: str, runs: list[dict], aa_runs: list[dict]) -> dict:
    """The BENCH file's content for the runs so far."""
    done = [w for w in args.workloads if any(r["workload"] == w for r in runs)]

    def block(rs):
        return {w: summarize([r for r in rs if r["workload"] == w], BENCHMARK["end_to_end"])
                for w in done}

    def stripped(rs):
        return [{k: v for k, v in r.items() if k != "meta"} for r in rs]

    bench = {
        "label": args.label,
        "command": "python3 perfbench/run.py --workload <w> --seed <s> --seconds "
                   f"{SECONDS:g} --trace 0, from the root of each export",
        "parent": parent,
        "change": change,
        "pairing": "pair i runs parent first when i is even, change first when odd, "
                   "both with the same seed",
        # the first measured run's meta, less what differs between runs
        "meta": {k: v for k, v in next((r["meta"] for r in runs if "meta" in r), {}).items()
                 if k not in ("seed", "workload")},
        "summary": block(runs),
        "runs": stripped(runs),
    }
    if args.aa:
        bench["aa"] = {"what": "the parent against a second export of the parent, "
                               "same pairing and seeds as the first pairs",
                       "summary": block(aa_runs), "runs": stripped(aa_runs)}
    return bench


def main(argv=None) -> None:
    args = parse_args(argv)
    parent, change = resolve(args.parent), resolve(args.change)
    out = ROOT / f"BENCH_{args.label}.json"
    order = [w["name"] for w in BENCHMARK["workloads"]]
    runs, aa_runs = [], []

    def write():
        out.write_text(json.dumps(bench_file(args, parent, change, runs, aa_runs),
                                  indent=1) + "\n")

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as workdir:
        sides = {"parent": export(parent, Path(workdir) / "parent"),
                 "change": export(change, Path(workdir) / "change")}
        aa_sides = {"parent": sides["parent"],
                    "change": export(parent, Path(workdir) / "parent-copy")} if args.aa else {}
        for workload in args.workloads:
            first = args.seed + 100 * order.index(workload)
            run_pairs(sides, workload, list(range(first, first + args.pairs)), runs, write)
            run_pairs(aa_sides, workload, list(range(first, first + args.aa)), aa_runs, write)
            print(f"wrote {out} ({workload} done)", flush=True)


if __name__ == "__main__":
    main()
