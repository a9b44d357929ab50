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
metric's bound and both sides' runs. The A/A control, if run, has the same
block under ``aa``. The file is rewritten after each workload.
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
    lines named in ``DERIVED`` and its ``meta`` line."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    meta = next((json.loads(line[5:]) for line in lines if line.startswith("meta ")), {})
    derived = [line.strip() for line in lines if line.strip().split(" ")[0] in DERIVED]
    return {"result": json.loads(lines[-1]), "derived": derived, "meta": meta}


def run_pairs(sides: dict[str, Path], workload: str, seeds: list[int]) -> list[dict]:
    """Alternating pairs: the first side of ``sides`` runs first in even pairs."""
    names = list(sides)
    runs = []
    for pair, seed in enumerate(seeds):
        for side in names if pair % 2 == 0 else names[::-1]:
            record = run_once(sides[side], workload, seed)
            runs.append({"workload": workload, "seed": seed, "side": side, "pair": pair,
                         **record})
            metrics = record["result"]["metrics"]
            print(f"{workload} pair {pair} seed {seed} {side}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in metrics.items()), flush=True)
    return runs


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """The ``summary`` block of one workload's runs, paired by ``pair``."""
    by_side = {side: sorted((r for r in runs if r["side"] == side), key=lambda r: r["pair"])
               for side in ("parent", "change")}
    parent, change = by_side["parent"], by_side["change"]
    seeds = [r["seed"] for r in parent]
    out = {
        "pairs": len(parent),
        "seeds": f"{min(seeds)}-{max(seeds)}" if seeds else "",
        "failed_ops": {s: sum(r["result"]["failed"] for r in rs) for s, rs in by_side.items()},
        "attempted_ops": {s: sum(r["result"]["attempted"] for r in rs)
                          for s, rs in by_side.items()},
        "correct": {s: all(r["result"]["correct"] for r in rs) for s, rs in by_side.items()},
    }
    for metric in end_to_end:
        name = metric["name"]
        values = [[r["result"]["metrics"][name]["value"] for r in rs] for rs in (parent, change)]
        p, c = (np.array(v, dtype=float) for v in values)
        better = np.less if metric["better"] == "lower" else np.greater
        q1, q3 = np.percentile(p, [25, 75])
        out[name] = {
            "parent_median": round(float(np.median(p)), 6),
            "change_median": round(float(np.median(c)), 6),
            "change_pct": round(100 * (float(np.median(c)) / float(np.median(p)) - 1), 2),
            "change_wins": int(np.sum(better(c, p))),
            "parent_iqr": round(float(q3 - q1), 6),
            "bound_pct": round(100 * metric["bound"], 2),
            "parent_runs": [round(v, 4) for v in p.tolist()],
            "change_runs": [round(v, 4) for v in c.tolist()],
        }
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
        # the first run's meta, less what differs between runs
        "meta": {k: v for k, v in (runs[0]["meta"] if runs else {}).items()
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
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as workdir:
        sides = {"parent": export(parent, Path(workdir) / "parent"),
                 "change": export(change, Path(workdir) / "change")}
        aa_sides = {"parent": sides["parent"],
                    "change": export(parent, Path(workdir) / "parent-copy")} if args.aa else {}
        for workload in args.workloads:
            first = args.seed + 100 * order.index(workload)
            runs += run_pairs(sides, workload, list(range(first, first + args.pairs)))
            aa_runs += run_pairs(aa_sides, workload, list(range(first, first + args.aa)))
            # after each workload, so that a stopped run keeps what it measured
            out.write_text(json.dumps(bench_file(args, parent, change, runs, aa_runs),
                                      indent=1) + "\n")
            print(f"wrote {out} ({workload} done)", flush=True)


if __name__ == "__main__":
    main()
