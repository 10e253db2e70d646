#!/usr/bin/env python3
"""Benchmark of the sixvertex lab: end-to-end and per-layer metrics per workload.

  python3 perfbench/run.py                    # all three workloads, seed 7
  python3 perfbench/run.py --workload verify-dense --seed 7 --seconds 30 --trace 0
  python3 perfbench/run.py --workload scalar-sweep --trace 1   # per-layer spans

Each workload runs in a fresh interpreter (``worker.py``) whose environment
pins the BLAS thread count before numpy loads; set-up time is the median of
further fresh processes that only import sixvertex and build the inputs.
The metric names and units are those of ``BENCHMARK.json``.  The last line
of output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with ``--trace 0``, the per-layer ones of
the separate traced pass with ``--trace 1``.  Full records, the failure
list and the spans are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DEFAULT_SEED = 7
SETUP_PROBES = 5
# The workloads, in run order, with their BLAS thread count (capped by
# nproc).  Two threads nearly halve the L=9 dense matmuls (36-38 s per pass
# against 65 s with one).  At L <= 7 a second thread mostly spin-waits:
# verify-light passes of the same inputs ranged over 7.4-9.9 s with two
# threads and 11.2-11.4 s with one, and with two threads a competing process
# slowed a pass twentyfold.
BLAS_THREADS = {"verify-dense": 2, "verify-light": 1, "scalar-sweep": 1}
TIME_LIMIT_S = 175.0  # one workload, set-up probes included

# The seven end-to-end metrics: unit, and how the printed value was formed.
E2E = {
    "setup_s": ("s", lambda s: f"median of {SETUP_PROBES} fresh processes"),
    "wall_s": ("s", lambda s: f"median of {s['passes']} passes"),
    "task_p50_s": ("s", lambda s: f"n={s['task_samples']}"),
    "task_tail_s": ("s", lambda s: (
        f"p{s['task_tail_percentile']:.2f} of {s['tasks_per_pass']} tasks per pass"
        + (" (max: fewer than 11 tasks)" if s["tasks_per_pass"] <= 10 else ", 10 beyond")
        + ", median over passes"
    )),
    "fail_ratio": ("ratio", lambda s: f"{s['failed']}/{s['attempted']} operations"),
    "peak_rss_mib": ("MiB", lambda s: "ru_maxrss of the workload process"),
    "residual_margin_dec": (
        "dec", lambda s: "min log10(tolerance/residual) over passing checks"
    ),
}


def blas_threads(workload: str) -> int:
    return min(BLAS_THREADS[workload], len(os.sched_getaffinity(0)))


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(args: list[str], env: dict, deadline: float) -> dict:
    """Run worker.py to completion; any failure ends the benchmark without a result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        sys.exit("benchmark time limit reached")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"worker exceeded the time limit: {' '.join(args)}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"worker failed with code {proc.returncode}: {' '.join(args)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    env = child_env(blas_threads(workload))
    common = ["--workload", workload, "--seed", str(seed)]
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload}-seed{seed}-trace{trace}"
    setup = []
    if not trace:
        setup = [
            run_worker([*common, "--setup-only"], env, deadline)["setup_s"]
            for _ in range(SETUP_PROBES)
        ]
    extra = ["--spans-out", f"{stem}-spans.json"] if trace else []
    summary = run_worker(
        [*common, "--seconds", str(seconds), "--trace", str(trace), *extra],
        env,
        deadline,
    )
    if trace:
        values = summary["per_layer"]
        names = [m["name"] for m in spec["per_layer"]]
    else:
        summary["setup_probes_s"] = setup
        summary["setup_s"] = statistics.median(setup)
        values = {k: {"value": summary[k], "unit": unit} for k, (unit, _) in E2E.items()}
        names = [m["name"] for m in spec["end_to_end"]]
    missing = [n for n in names if n not in values]
    if missing:
        sys.exit(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    summary["metrics"] = {n: values[n] for n in names}
    summary.update(workload=workload, seed=seed, seconds=seconds, trace=trace)
    Path(f"{stem}.json").write_text(json.dumps(summary, indent=1) + "\n")
    report(summary)
    return summary


def report(s: dict) -> None:
    env = s["environment"]
    print(
        f"== {s['workload']}  seed {s['seed']}  trace {s['trace']}  "
        f"({env['blas_threads']} BLAS threads, nproc {env['nproc']}, Python {env['python']}, "
        f"numpy {env['numpy']}, {env['blas']})"
    )
    if not s["trace"]:
        for name, (unit, note) in E2E.items():
            print(f"   {name:<22}{s[name]:>14.6g} {unit:<6} {note(s)}")
    else:
        rows = sorted(s["per_layer"].items(), key=lambda kv: kv[0])
        for name, m in rows:
            print(f"   {name:<52}{m['value']:>16.6g} {m['unit']}")
    if s["dwbc_table"]:
        print(f"   {'DWBC family':<16}{'M':>2} {'sum [ms]':>10} {'rec [ms]':>10} {'rel diff':>10}")
        for row in s["dwbc_table"]:
            print(
                f"   {row['family']:<16}{row['M']:>2} {row['sum_s'] * 1e3:>10.3f} "
                f"{row['rec_s'] * 1e3:>10.3f} {row['rel_diff']:>10.2e}"
            )
    print(f"   failures ({len(s['failures'])} per pass):")
    for failure in s["failures"]:
        print(f"     {failure}")
    for problem in s["wrong"]:
        print(f"   INCORRECT: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(BLAS_THREADS),
                        help="default: all, one after another")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    workloads = [args.workload] if args.workload else list(BLAS_THREADS)
    results = [run_workload(w, args.seed, seconds, args.trace, spec) for w in workloads]
    if args.workload:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(
        json.dumps(
            {
                "correct": not any(r["wrong"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
