"""One benchmark process: set-up, timed passes and, if asked, a traced pass.

``run.py`` starts this file in a fresh interpreter whose environment pins the
BLAS thread count before numpy loads.  The last line of its output is one
JSON object for ``run.py`` to read.

  python3 perfbench/worker.py --workload scalar-sweep --seed 7 --seconds 20 --trace 0
  python3 perfbench/worker.py --workload scalar-sweep --seed 7 --setup-only
"""

import time

_START = time.perf_counter()  # set-up is timed from before sixvertex and numpy load

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


class Pass:
    """One timed pass over a workload's tasks; ``check`` judges the outputs after it."""

    def __init__(self, workloads, tasks):
        self.workloads, self.tasks = workloads, tasks
        self.times, self.results = [], []
        start = time.perf_counter()
        for task in tasks:
            if task.setup_error:
                self.times.append(None)
                self.results.append(None)
            else:
                elapsed, result = workloads.run_task(task)
                self.times.append(elapsed)
                self.results.append(result)
        self.wall = time.perf_counter() - start

    def check(self):
        self.outcomes = [
            self.workloads.Outcome(failures=[task.setup_error] * task.operations)
            if task.setup_error
            else self.workloads.check_task(task, result)
            for task, result in zip(self.tasks, self.results)
        ]
        self.results = None
        return self

    @property
    def task_times(self):
        return [t for t in self.times if t is not None]


def tail(times):
    """Highest order statistic with at least ten samples beyond it, and its percentile.

    With ten samples or fewer no percentile qualifies and the maximum is used.
    """
    ordered = sorted(times)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def environment():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas_version,
    }


def summarize(workload, tasks, passes, workloads):
    """End-to-end figures of the untraced passes, plus failures and correctness."""
    first = passes[0]
    samples = [t for p in passes for t in p.task_times]
    tails = [tail(p.task_times) for p in passes if p.task_times]
    operations = sum(task.operations for task in tasks)
    failures = [
        f"{workload} {task.label()} {failure}"
        for task, outcome in zip(tasks, first.outcomes)
        for failure in outcome.failures
    ]
    wrong = [
        f"{workload} {task.label()} {problem}"
        for p in passes
        for task, outcome in zip(tasks, p.outcomes)
        for problem in outcome.wrong
    ]
    for p in passes[1:]:
        for task, a, b in zip(tasks, first.outcomes, p.outcomes):
            if a.signature != b.signature:
                wrong.append(f"{workload} {task.label()} output differs between passes")
    margins = [m for outcome in first.outcomes for m in outcome.margins]
    return {
        "passes": len(passes),
        "wall_s": statistics.median(p.wall for p in passes),
        "task_p50_s": statistics.median(samples) if samples else 0.0,
        "task_samples": len(samples),
        "task_tail_s": statistics.median(t for t, _ in tails) if tails else 0.0,
        "task_tail_percentile": tails[0][1] if tails else 100.0,
        "tasks_per_pass": len(first.task_times),
        "attempted": operations * len(passes),
        "failed": sum(len(o.failures) for p in passes for o in p.outcomes),
        "fail_ratio": len(failures) / operations,
        "residual_margin_dec": min(margins) if margins else 0.0,
        "failures": failures,
        "wrong": wrong,
        "dwbc_table": dwbc_table(tasks, passes),
    }


def dwbc_table(tasks, passes):
    """Per family and M: median sum and recurrence time, worst relative difference."""
    rows = {}
    for p in passes:
        for task, outcome in zip(tasks, p.outcomes):
            if task.kind == "dwbc" and outcome.timings:
                rows.setdefault((task.family, task.magnons), []).append(outcome.timings)
    return [
        {
            "family": family,
            "M": m,
            "sum_s": statistics.median(t["sum_s"] for t in timings),
            "rec_s": statistics.median(t["rec_s"] for t in timings),
            "rel_diff": max(t.get("rel_diff", float("inf")) for t in timings),
        }
        for (family, m), timings in sorted(rows.items())
    ]


def per_layer(workload, tracer, traced, summary, workloads):
    """Per-layer metrics of the traced pass, in the order BENCHMARK.json lists them."""
    from tracer import SPAN_NAMES

    totals = tracer.layer_totals()
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (totals[name]["calls"], "count")
        metrics[f"{name}.self_s"] = (totals[name]["self_s"], "s")
    for name in workloads.CHECK_TOLERANCES:
        seconds = sum(o.timings.get(name, 0.0) for o in traced.outcomes)
        metrics[f"verify.check.{name}.s"] = (seconds, "s")
    solves = totals["bethe.solve_bethe_roots"]["calls"]
    newton = tracer.calls_under("bethe.bae_residuals", "bethe.solve_bethe_roots")
    for name, value in tracer.computed_counts().items():
        metrics[name] = (value, "cmac" if name.endswith("cmacs") else "count")
    metrics["bethe.bae_residuals.computed.calls_per_solve"] = (
        newton / solves if solves else 0.0,
        "count",
    )
    metrics["trace.wall_s"] = (traced.wall, "s")
    metrics["trace.unattributed_s"] = (totals["bench.pass"]["self_s"], "s")
    metrics["trace.overhead_s"] = (traced.wall - summary["wall_s"], "s")
    metrics["outcome.task_p50_s"] = (summary["task_p50_s"], "s")
    metrics["outcome.task_tail_s"] = (summary["task_tail_s"], "s")
    metrics["outcome.fail_ratio"] = (summary["fail_ratio"], "ratio")
    metrics["outcome.residual_margin_dec"] = (summary["residual_margin_dec"], "dec")
    table = {(row["family"], row["M"]): row for row in summary["dwbc_table"]}
    worst = 0.0
    for family, _ in workloads.FAMILIES:
        for m in range(1, workloads.DWBC_MAX_M + 1):
            row = table.get((family, m), {"sum_s": 0.0, "rec_s": 0.0, "rel_diff": 0.0})
            metrics[f"dwbc.table.{family}.m{m}.sum_s"] = (row["sum_s"], "s")
            metrics[f"dwbc.table.{family}.m{m}.rec_s"] = (row["rec_s"], "s")
            worst = max(worst, row["rel_diff"])
    metrics["dwbc.table.max_rel_diff"] = (worst, "ratio")

    reached = workloads.REACHED_LAYERS[workload]
    problems = [f"selftest: {n} reports 0 calls" for n in reached if totals[n]["calls"] == 0]
    problems += [
        f"selftest: {n} reports {totals[n]['calls']} calls on a workload that must not reach it"
        for n in SPAN_NAMES
        if n not in reached and totals[n]["calls"]
    ]
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", default="")
    args = parser.parse_args(argv)

    import sixvertex

    expected = ROOT / "src" / "sixvertex"
    if Path(sixvertex.__file__).resolve().parent != expected:
        sys.exit(f"sixvertex imported from {sixvertex.__file__}, not from {expected}")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    tasks = workloads.build_tasks(args.workload, args.seed)
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    passes = []
    start = time.perf_counter()
    while True:
        passes.append(Pass(workloads, tasks).check())
        # start another pass only if it is expected to end inside the window
        if time.perf_counter() - start + passes[-1].wall > args.seconds:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    summary = summarize(args.workload, tasks, passes, workloads)
    summary.update(setup_s=setup_s, peak_rss_mib=peak_rss_mib,
                   environment=environment())

    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            with tracer.span("bench.setup"):
                traced_tasks = workloads.build_tasks(args.workload, args.seed)
            with tracer.span("bench.pass"):
                traced = Pass(workloads, traced_tasks)
        finally:
            tracer.uninstall()
        traced.check()
        for task, a, b in zip(tasks, passes[0].outcomes, traced.outcomes):
            if a.signature != b.signature:
                summary["wrong"].append(f"{args.workload} {task.label()} output differs when traced")
        summary["per_layer"], problems = per_layer(
            args.workload, tracer, traced, summary, workloads
        )
        summary["wrong"] += problems
        if args.spans_out:
            Path(args.spans_out).write_text(json.dumps(tracer.export()))
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
