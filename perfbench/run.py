"""samarl benchmark: one workload per run, end-to-end or traced layer by layer.

    python3 perfbench/run.py --workload nav5-train --seed 1 --seconds 40 --trace 0

Run it from the root of a source checkout; it imports samarl from ``src/``
and refuses to run against any other copy. Workloads (see workloads.py):
``nav5-train``, ``nav8-update`` and ``pp9-rollout``. BLAS and OpenMP run one
thread, set here before numpy loads; the run starts no threads or processes.

With ``--trace 0`` the last stdout line is a JSON object whose ``metrics``
are the end-to-end metrics of BENCHMARK.json:

  setup_s           imports, then the median of three set-ups (trainer
                    construction, and the buffer fill on nav8-update)
  peak_rss_mb       peak resident memory of the process
  throughput_per_s  work completed per second inside the timed operations,
                    median over rounds (env steps, or update cycles on
                    nav8-update)
  main_ms.p50/.p80  latency of the workload's main operation
  bypass_ms.p50/.p80  latency of its bypass operation

Times and rates are scaled to a reference machine speed: between operations
the run times a fixed kernel that uses no samarl code (workloads.Calibrator),
and each time is multiplied by the reference kernel time over the kernel
times measured around it. The unscaled medians and the run's scale are
printed too. p80 is the highest percentile that keeps ten samples beyond it
in every workload at 40 seconds; each sample count is printed. ``attempted`` and
``failed`` count operations, and output checks, that raised or gave a wrong
result. Lines before it name the numbers the workload derives from these
(env-steps/s, cycle times per algorithm, eval episodes/s, the slow-suite
projection) and the run's metadata.

With ``--trace 1`` the first quarter of the budget runs untraced and the rest
traced (see tracer.py); the metrics are the per-layer metrics: calls per round
and shares of traced time per span, per layer, plus the tracing overhead
against the untraced rounds. Spans are written to ``.perfbench/``.

``--smoke`` shrinks nav5-train's training run and nav8-update's blocks so
that every workload finishes in seconds; the benchmark's own test uses it.
"""

from __future__ import annotations

import os
import sys
import time

_STARTED = time.perf_counter()
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUTDIR = ROOT / ".perfbench"

END_TO_END = [("setup_s", "s"), ("peak_rss_mb", "MB"), ("throughput_per_s", "1/s"),
              ("main_ms.p50", "ms"), ("main_ms.p80", "ms"),
              ("bypass_ms.p50", "ms"), ("bypass_ms.p80", "ms")]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=["nav5-train", "nav8-update", "pp9-rollout"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own test")
    return parser.parse_args(argv)


def import_samarl():
    """Import samarl from this checkout's src/, or return None."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import samarl
        import samarl.harness  # noqa: F401  (loads every layer)
    except ImportError as exc:
        print(f"cannot import samarl from {src}: {exc}", file=sys.stderr)
        return None
    if src.resolve() not in Path(samarl.__file__).resolve().parents:
        print(f"samarl was imported from {samarl.__file__}, not from {src}",
              file=sys.stderr)
        return None
    return samarl


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def metadata(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version"),
                "configuration": blas.get("openblas configuration")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "numpy": np.__version__, "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def end_to_end(workload, raw, import_s: float) -> dict:
    from workloads import TAIL, percentile

    main = workload.scaled_ms(workload.main[0])
    bypass = workload.scaled_ms(workload.bypass[0])
    return {
        "setup_s": raw["setup_scale"] * (import_s + statistics.median(raw["setup_reps_s"])),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "throughput_per_s": workload.throughput(),
        "main_ms.p50": percentile(main, 50),
        f"main_ms.p{TAIL}": percentile(main, TAIL),
        "bypass_ms.p50": percentile(bypass, 50),
        f"bypass_ms.p{TAIL}": percentile(bypass, TAIL),
    }


def report_trace(summary: dict) -> None:
    from tracer import NDMATH_OPS

    table, wall, rounds = summary["table"], summary["wall_s"], summary["rounds"]
    print(f"traced rounds {rounds}, traced wall {wall:.2f} s, spans {table['n_spans']}, "
          f"tracing overhead {summary['metrics']['trace.overhead_pct']:+.1f}% "
          f"(median traced round vs untraced round)")
    print("self time per layer, ms per round (share of traced time):")
    for layer, seconds in table["layers_s"].items():
        print(f"  {layer:<11} {1e3 * seconds / rounds:11.2f} ms  "
              f"({100 * seconds / wall:5.1f}%)")
    print("self time per layer under each benchmark operation, ms per operation:")
    for root, row in sorted(table["by_root"].items()):
        if not root.startswith("bench."):
            continue
        parts = ", ".join(f"{layer} {1e3 * s / row['count']:.2f}"
                          for layer, s in row["layers_s"].items() if s > 0)
        print(f"  {root} x{row['count']} (traced p50 {1e3 * row['p50_s']:.2f} ms): {parts}")
    print("spans, per round: calls, total ms, self ms (ndmath ops split by context)")
    skip = {f"ndmath.{op}" for op in NDMATH_OPS}
    for name, row in sorted(table["spans"].items(), key=lambda kv: -kv[1]["self_s"]):
        if row["calls"] and name not in skip and not name.startswith("bench."):
            total = f"{1e3 * row['total_s'] / rounds:10.2f}" if "total_s" in row else " " * 10
            print(f"  {name:<34} {row['calls'] / rounds:10.1f} {total} "
                  f"{1e3 * row['self_s'] / rounds:10.2f}")


def main(argv=None) -> int:
    args = parse_args(argv)
    samarl = import_samarl()
    if samarl is None:
        return 2
    from tracer import per_layer_metrics
    from workloads import WORKLOADS, percentile, run_workload

    import_s = time.perf_counter() - _STARTED
    meta = metadata(args)
    references = json.loads((HERE / "references.json").read_text())
    OUTDIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.smoke, OUTDIR, references)
    raw = run_workload(workload, args.seconds, bool(args.trace))
    outcome = workload.outcome

    print(f"workload {args.workload}: seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}")
    print(f"  main operation:   {workload.main_op}")
    print(f"  bypass operation: {workload.bypass_op}")
    print(f"  untraced rounds {len(raw['rounds_s'][0])}, samples main "
          f"{len(workload.main[0])}, bypass {len(workload.bypass[0])}, "
          f"work {workload.work[0]} {workload.work_unit}")
    if args.trace:
        calibrator = workload.calibrator
        summary = raw["tracer"].metrics(
            raw["rounds_s"][1], raw["rounds_s"][0],
            drift=calibrator.scale(traced=False) / calibrator.scale(traced=True))
        report_trace(summary)
        if raw["tracer"].missing:
            print(f"not traced (absent in this version): {raw['tracer'].missing}")
        raw["tracer"].save(OUTDIR / f"trace-{args.workload}.npz")
        values, units = summary["metrics"], dict(per_layer_metrics())
        derived = []
    else:
        values, units = end_to_end(workload, raw, import_s), dict(END_TO_END)
        derived = workload.derived() + [
            ("machine_scale", workload.calibrator.scale(), "ratio"),
            ("main_ms.p50.unscaled",
             percentile([1e3 * dt for _, dt in workload.main[0]], 50), "ms"),
            ("bypass_ms.p50.unscaled",
             percentile([1e3 * dt for _, dt in workload.bypass[0]], 50), "ms")]
        print("end-to-end:")
        for name, unit in END_TO_END:
            print(f"  {name:<24} {values[name]:14.4f} {unit}")
        print("derived, not gated:")
        for name, value, unit in derived:
            print(f"  {name:<34} {value:14.4f} {unit}")
    print(f"failed_ops {outcome.failed} of {outcome.attempted} operations and checks "
          f"({100.0 * outcome.failed / max(outcome.attempted, 1):.2f}%)")
    for problem in outcome.problems[:20]:
        print(f"  FAILED {problem}")
    print("meta " + json.dumps(meta, sort_keys=True))

    result = {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]}
                    for name in units},
    }
    record = dict(result, meta=meta, derived=[list(d) for d in derived],
                  problems=outcome.problems, setup_reps_s=raw["setup_reps_s"],
                  rounds_s=raw["rounds_s"])
    (OUTDIR / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
