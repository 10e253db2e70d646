"""Self-test of the benchmark's tracer on small inputs (about 5 s).

  PYTHONPATH=src python3 perfbench/selftest.py

Fails (exit 1) if a traced function that a workload's tasks reach reports
0 calls, if the scalar tasks reach a dense layer, if a module that binds a
traced function with ``from .x import y`` keeps the unwrapped original, or
if uninstalling the tracer leaves any binding changed.  Every traced run of
``run.py`` repeats the first two checks on the full workload.
"""

import sys

import numpy

import workloads
from tracer import SPAN_NAMES, Tracer
from worker import Pass

# Small stand-ins for each workload's tasks, same task kinds.
SMALL = {
    "verify-dense": lambda: workloads.verify_tasks([(4, 2)], [7]),
    "verify-light": lambda: workloads.verify_tasks([(5, 2)], [3]),
    "scalar-sweep": lambda: workloads.solve_tasks([4, 5], [7]) + workloads.dwbc_tasks(4, 1, 7),
}


def sixvertex_bindings():
    return {
        (key, attr): value
        for key, module in list(sys.modules.items())
        if key == "sixvertex" or key.startswith("sixvertex.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def main() -> int:
    problems = []
    before = sixvertex_bindings()
    inv = numpy.linalg.inv
    for workload, make_tasks in SMALL.items():
        tracer = Tracer()
        tracer.install()
        try:
            original = before[("sixvertex.tensor_core", "embed_two_site")]
            for user in ("tensor_core", "vertex_model", "f_basis"):
                if sys.modules[f"sixvertex.{user}"].embed_two_site is original:
                    problems.append(f"sixvertex.{user}.embed_two_site is not traced")
            Pass(workloads, make_tasks()).check()
        finally:
            tracer.uninstall()
        totals = tracer.layer_totals()
        reached = workloads.REACHED_LAYERS[workload]
        problems += [f"{workload}: {n} reports 0 calls" for n in reached if not totals[n]["calls"]]
        problems += [
            f"{workload}: {n} reports {totals[n]['calls']} calls but must not be reached"
            for n in SPAN_NAMES
            if n not in reached and totals[n]["calls"]
        ]
    after = sixvertex_bindings()
    problems += [f"{k[0]}.{k[1]} not restored" for k in before if after.get(k) is not before[k]]
    if numpy.linalg.inv is not inv:
        problems.append("numpy.linalg.inv not restored")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAIL" if problems else f"PASS ({len(SPAN_NAMES)} traced layers)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
