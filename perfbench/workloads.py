"""The benchmark's workloads: inputs from a seed, timed tasks, output checks.

A task is one ``run_verify`` call, one Bethe solve with its formula wave
table and periodicity check, or one domain-wall draw evaluated by both
routes.  Inputs (configs, lattices, domain-wall draws) are generated in
set-up; the timed region of a task holds only calls into sixvertex.  Every
output is then checked by the benchmark itself, independently of the
program's own pass flags.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass, field

import numpy as np

from sixvertex import bethe, coordinate_wf, dwbc, verify, vertex_model
from sixvertex.config import RunConfig
from sixvertex.errors import DegenerateParametersError
from sixvertex.vertex_model import Regime
from tracer import SPAN_NAMES

# The two weight families, with the eta of the shipped configs.
FAMILIES = (("rational", 1.0), ("trigonometric", 0.7))

# Default tolerance of every verify check, in report order.
CHECK_TOLERANCES = {
    "unitarity": 1e-12,
    "yang_baxter": 1e-12,
    "vacuum_actions": 1e-12,
    "f_factorization": 1e-10,
    "f_matrix_elements": 1e-10,
    "f_closed_forms": 1e-10,
    "creation_commutation": 1e-10,
    "creation_exchange": 1e-10,
    "bae_solve": 1e-12,
    "eigenvector": 1e-9,
    "wavefunction_ratio": 1e-9,
    "wavefunction_alt_form": 1e-12,
    "periodicity": 1e-9,
    "dwbc_sum_vs_recurrence": 1e-10,
}
PERIODICITY_TOL = CHECK_TOLERANCES["periodicity"]
DWBC_REL_TOL = 1e-10
DWBC_MAX_M = 9
DWBC_DRAWS = 3


def lattice_seeds(seed: int) -> range:
    """The ten lattice seeds of a sweep: the block of ten holding ``seed``.

    The default seed 7 thus sweeps lattice seeds 0..9, which hold the known
    rational L=7 failures at lattice seed 4.
    """
    base = seed - seed % 10
    return range(base, base + 10)


@dataclass
class Task:
    kind: str  # "verify", "solve" or "dwbc"
    family: str
    length: int | None
    magnons: int
    seed: int
    draw: int = 0
    config: RunConfig | None = None
    lattice: object = None
    inp: object = None
    setup_error: str = ""

    @property
    def operations(self) -> int:
        return len(CHECK_TOLERANCES) if self.kind == "verify" else 1

    def label(self) -> str:
        size = f"L={self.length} " if self.length is not None else ""
        draw = f" draw={self.draw}" if self.kind == "dwbc" else ""
        return f"{self.family} {size}M={self.magnons} seed={self.seed}{draw}"


@dataclass
class Outcome:
    """Checked result of one task."""

    failures: list[str] = field(default_factory=list)  # failed operations
    wrong: list[str] = field(default_factory=list)  # outputs contradicting a check
    margins: list[float] = field(default_factory=list)  # log10(tol / residual)
    signature: tuple = ()  # deterministic outputs; must repeat across passes
    timings: dict = field(default_factory=dict)


def _regime(family: str) -> Regime:
    return Regime(family, dict(FAMILIES)[family])


def _draw_lattice(task: Task) -> None:
    # The draw RunConfig.resolve_lattice makes inside run_verify for this seed.
    try:
        task.lattice = vertex_model.random_lattice(
            task.length, _regime(task.family), np.random.default_rng(task.seed)
        )
    except DegenerateParametersError as exc:
        task.setup_error = f"random_lattice: {exc}"


def verify_tasks(sizes, seeds) -> list[Task]:
    """One run_verify per family, (L, M) in ``sizes`` and seed."""
    tasks = []
    for family, eta in FAMILIES:
        for length, magnons in sizes:
            for seed in seeds:
                config = RunConfig(family=family, eta=eta, length=length,
                                   magnons=magnons, seed=seed)
                task = Task("verify", family, length, magnons, seed, config=config)
                _draw_lattice(task)
                tasks.append(task)
    return tasks


def solve_tasks(lengths, seeds) -> list[Task]:
    """One solve per family, L, seed and M = 1 .. L/2, on one lattice per seed."""
    tasks = []
    for family, _ in FAMILIES:
        for length in lengths:
            for seed in seeds:
                drawn = Task("solve", family, length, 0, seed)
                _draw_lattice(drawn)
                for magnons in range(1, length // 2 + 1):
                    tasks.append(Task("solve", family, length, magnons, seed,
                                      lattice=drawn.lattice, setup_error=drawn.setup_error))
    return tasks


def dwbc_tasks(max_m, draws, seed) -> list[Task]:
    """``draws`` domain-wall inputs per family and M = 1 .. max_m."""
    rng = np.random.default_rng(seed)
    tasks = []
    for family, _ in FAMILIES:
        for m in range(1, max_m + 1):
            for draw in range(draws):
                task = Task("dwbc", family, None, m, seed, draw=draw)
                try:
                    task.inp = dwbc.random_input(m, _regime(family), rng)
                except DegenerateParametersError as exc:
                    task.setup_error = f"random_input: {exc}"
                tasks.append(task)
    return tasks


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "verify-dense": lambda seed: verify_tasks([(9, 3)], [seed]),
    "verify-light": lambda seed: verify_tasks([(n, n // 2) for n in (4, 5, 6, 7)],
                                              lattice_seeds(seed)),
    "scalar-sweep": lambda seed: solve_tasks(range(4, 10), lattice_seeds(seed))
    + dwbc_tasks(DWBC_MAX_M, DWBC_DRAWS, seed),
}


# Traced layers each workload must reach; every other one must record 0 calls.
REACHED_LAYERS = {
    "verify-dense": SPAN_NAMES,
    "verify-light": SPAN_NAMES,
    "scalar-sweep": (
        "vertex_model.random_lattice",
        "bethe.solve_bethe_roots",
        "bethe.bae_residuals",
        "coordinate_wf.psi_formula",
        "coordinate_wf.wave_table.formula",
        "coordinate_wf.periodicity_check",
        "dwbc.dwbc_sum",
        "dwbc.dwbc_recurrence",
        "dwbc.random_input",
    ),
}


def build_tasks(workload: str, seed: int) -> list[Task]:
    return WORKLOADS[workload](seed)


def run_task(task: Task):
    """Run one task; returns (elapsed seconds, raw result or the exception)."""
    start = time.perf_counter()
    try:
        if task.kind == "verify":
            result = verify.run_verify(task.config)
        elif task.kind == "solve":
            regime = _regime(task.family)
            roots = bethe.solve_bethe_roots(task.magnons, task.lattice, regime, seed=task.seed)
            table = coordinate_wf.wave_table(roots.q, task.lattice, regime, "formula")
            periodicity = coordinate_wf.periodicity_check(roots.q, task.lattice, regime)
            result = (roots, table, periodicity)
        else:
            total = dwbc.dwbc_sum(task.inp)
            mid = time.perf_counter()
            rec = dwbc.dwbc_recurrence(task.inp)
            result = (total, rec, mid - start, time.perf_counter() - mid)
    except Exception as exc:  # failed operations are counted, never skipped
        result = exc
    return time.perf_counter() - start, result


def check_task(task: Task, result) -> Outcome:
    """Check one task's outputs; an exception fails all its operations."""
    if isinstance(result, Exception):
        error = f"{task.kind} raised {type(result).__name__}: {result}"
        return Outcome(failures=[error] * task.operations)
    return {"verify": _check_verify, "solve": _check_solve, "dwbc": _check_dwbc}[task.kind](
        task, result
    )


def _margin(out: Outcome, tol: float, residual: float) -> None:
    if residual > 0:
        out.margins.append(math.log10(tol / residual))


def _check_verify(task: Task, report) -> Outcome:
    out = Outcome()
    names = [r.name for r in report.results]
    if names != list(CHECK_TOLERANCES):
        out.wrong.append(f"report lists checks {names}")
        return out
    if report.config["xi"] != [repr(x) for x in task.lattice.xi]:
        out.wrong.append("report lattice differs from the seeded draw")
    for r in report.results:
        tol = CHECK_TOLERANCES[r.name]
        if r.tolerance != tol:
            out.wrong.append(f"{r.name}: tolerance {r.tolerance} instead of {tol}")
        ok = math.isfinite(r.residual) and r.residual < tol
        if r.passed != ok:
            out.wrong.append(f"{r.name}: pass flag {r.passed} for residual {r.residual:.3e}")
        if ok:
            _margin(out, tol, r.residual)
        else:
            note = f"; {r.note}" if r.note else ""
            out.failures.append(f"{r.name} ({r.residual:.3e} vs {tol:.0e}{note})")
    out.signature = tuple(r.residual for r in report.results)
    out.timings = {r.name: r.wall_time_s for r in report.results}
    return out


def _phi(family: str, t: complex) -> complex:
    return t if family == "rational" else cmath.sin(t)


def independent_bae_residual(q, xi, family: str) -> float:
    """max_i |prod_l c(xi_l - q_i) - prod_{a != i} c(q_a - q_i) / c(q_i - q_a)|.

    Written here from the weight definition c(t) = phi(t) / phi(t + eta),
    sharing no code with the program's residual.
    """
    eta = dict(FAMILIES)[family]

    def c(t):
        return _phi(family, t) / _phi(family, t + eta)

    worst = 0.0
    for i, qi in enumerate(q):
        lhs = math.prod(c(x - qi) for x in xi)
        rhs = math.prod(c(qa - qi) / c(qi - qa) for a, qa in enumerate(q) if a != i)
        worst = max(worst, abs(lhs - rhs))
    return worst


def _check_solve(task: Task, result) -> Outcome:
    out = Outcome()
    roots, table, periodicity = result
    residual = independent_bae_residual(roots.q, task.lattice.xi, task.family)
    amp = periodicity.amplitude_residual
    problems = []
    if residual < bethe.SOLVE_TOL:
        _margin(out, bethe.SOLVE_TOL, residual)
    else:
        problems.append(f"bae_recheck ({residual:.3e} vs {bethe.SOLVE_TOL:.0e})")
        out.wrong.append(f"solver returned roots with residual {residual:.3e}")
    if amp < PERIODICITY_TOL:
        _margin(out, PERIODICITY_TOL, amp)
    else:
        problems.append(f"periodicity ({amp:.3e} vs {PERIODICITY_TOL:.0e})")
    if problems:  # one operation per solve task
        out.failures.append("; ".join(problems))
    expected = math.comb(task.length, task.magnons)
    values = list(table.entries.values())
    if len(values) != expected or not all(cmath.isfinite(v) for v in values):
        out.wrong.append(f"wave table has {len(values)} entries, expected {expected} finite")
    out.signature = (roots.q, amp)
    return out


def _check_dwbc(task: Task, result) -> Outcome:
    total, rec, t_sum, t_rec = result
    out = Outcome(signature=(total, rec), timings={"sum_s": t_sum, "rec_s": t_rec})
    if not (cmath.isfinite(total) and cmath.isfinite(rec)) or total == 0:
        out.wrong.append(f"partition function values {total!r}, {rec!r}")
        return out
    rel = abs(total - rec) / abs(total)
    out.timings["rel_diff"] = rel
    if rel <= DWBC_REL_TOL:
        _margin(out, DWBC_REL_TOL, rel)
    else:
        out.failures.append(f"dwbc_sum vs dwbc_recurrence ({rel:.3e} vs {DWBC_REL_TOL:.0e})")
    return out
