"""Full verification suite: every structural identity, one report.

Checks run in a fixed order on one seeded generator, so a given config
reproduces the same residuals bit for bit; wall times are the only
nondeterministic fields in the report.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import bethe, coordinate_wf, dwbc, f_basis
from . import tensor_core as tc
from . import vertex_model as vm
from .config import RunConfig, config_as_dict
from .errors import ProvenanceError
from .textio import write_text_atomic

REPORT_SCHEMA = "sixvertex-report-v1"
# Box half-width of the spectral pairs drawn for the S-matrix identities, and
# the floor on |phi(t_a - t_b + eta)| that keeps every weight finite.
PAIR_SPREAD = 1.0
PAIR_GUARD = 0.05


@dataclass(frozen=True)
class CheckResult:
    name: str
    params: dict
    residual: float
    tolerance: float
    passed: bool
    wall_time_s: float
    note: str = ""


@dataclass
class CheckReport:
    config: dict
    results: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> str:
        doc = {
            "schema": REPORT_SCHEMA,
            "config": self.config,
            "checks": [asdict(r) for r in self.results],
            "passed": self.passed,
        }
        return json.dumps(doc, indent=2) + "\n"

    def table(self) -> str:
        width = max(len(r.name) for r in self.results) + 2
        lines = [f"{'check':<{width}} {'residual':>12} {'tolerance':>10} {'status':>7} {'time':>8}"]
        for r in self.results:
            lines.append(
                f"{r.name:<{width}} {r.residual:>12.3e} {r.tolerance:>10.1e} "
                f"{'PASS' if r.passed else 'FAIL':>7} {r.wall_time_s:>7.2f}s"
                + (f"  [{r.note}]" if r.note else "")
            )
        lines.append("overall: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines) + "\n"


def _guarded(a, b, regime):
    """Both S(a, b) and S(b, a) keep |phi(. + eta)| above PAIR_GUARD."""
    return all(abs(regime.phi(d + regime.eta)) > PAIR_GUARD for d in (a - b, b - a))


def _draw_pair(rng, regime):
    return vm._draw_until(
        lambda: vm._box_points(rng, 2, PAIR_SPREAD),
        lambda pair: _guarded(*pair, regime),
        "a guarded spectral pair",
    )


def _s_stack(pairs, regime) -> np.ndarray:
    """S(a, b) for every pair (a, b), stacked along a leading axis."""
    return np.stack([vm.s_matrix(a, b, regime) for a, b in pairs])


# Both S-matrix identities draw every pair first, then evaluate all draws as
# one stack: the products are the per-draw products, so every residual and the
# generator state match a draw-by-draw loop.  PAIR_GUARD keeps every weight of
# a drawn pair away from POLE_TOL, so no S-matrix raises between draws.
def _check_unitarity(ctx):
    rng, regime = ctx["rng"], ctx["regime"]
    draws = 100
    pairs = [_draw_pair(rng, regime) for _ in range(draws)]
    s12 = _s_stack(pairs, regime)
    s21 = _s_stack([(t2, t1) for t1, t2 in pairs], regime)
    return tc.max_abs_diff(s12 @ s21, np.eye(4)), {"draws": draws}


def _check_yang_baxter(ctx):
    rng, regime = ctx["rng"], ctx["regime"]
    draws = 100
    triples = []
    for _ in range(draws):
        t1, t2 = _draw_pair(rng, regime)
        _, t3 = _draw_pair(rng, regime)
        if _guarded(t1, t3, regime) and _guarded(t2, t3, regime):
            triples.append((t1, t2, t3))
    s12 = tc.embed_two_site(_s_stack([(t1, t2) for t1, t2, _ in triples], regime), 1, 2, 3)
    s13 = tc.embed_two_site(_s_stack([(t1, t3) for t1, _, t3 in triples], regime), 1, 3, 3)
    s23 = tc.embed_two_site(_s_stack([(t2, t3) for _, t2, t3 in triples], regime), 2, 3, 3)
    return tc.max_abs_diff(s12 @ s13 @ s23, s23 @ s13 @ s12), {"draws": draws}


def _check_vacuum_actions(ctx):
    rng, regime, lattice = ctx["rng"], ctx["regime"], ctx["lattice"]
    worst = 0.0
    vac = tc.vacuum_state(lattice.length)[:, None]
    n_tot = sum(
        tc.site_operator("number", i, lattice.length)
        for i in range(1, lattice.length + 1)
    )
    samples = 3
    for _ in range(samples):
        t = vm.random_spectral_point(lattice, regime, rng)
        ent = vm.monodromy_entries(t, lattice, regime, vac)
        a_t = vm.vacuum_eigenvalue(t, lattice, regime)
        worst = max(worst, tc.max_abs_diff(ent.a, a_t * vac))
        worst = max(worst, tc.max_abs_diff(ent.d, vac))
        worst = max(worst, float(np.max(np.abs(ent.c))))
        worst = max(worst, tc.max_abs_diff(n_tot @ ent.b, ent.b))
    return worst, {"L": lattice.length, "spectral_samples": samples}


def _check_f_factorization(ctx):
    regime, lattice = ctx["regime"], ctx["lattice"]
    worst = f_basis.factorization_residual(lattice, regime)
    return worst, {
        "L": lattice.length,
        "transpositions": lattice.length - 1,
        "route": "probe",
        "probes": f_basis.PROBES,
    }


def _check_f_matrix_elements(ctx):
    regime, lattice = ctx["regime"], ctx["lattice"]
    worst = f_basis.f_matrix_element_residual(lattice, regime)
    return worst, {
        "L": lattice.length,
        "sectors": lattice.length + 1,
        "route": "probe",
        "probes": f_basis.PROBES,
    }


def _check_f_closed_forms(ctx):
    rng, regime, lattice = ctx["rng"], ctx["regime"], ctx["lattice"]
    fac = f_basis.factorizing_operator(lattice, regime)
    worst = 0.0
    samples = 3
    for _ in range(samples):
        t = vm.random_spectral_point(lattice, regime, rng)
        worst = max(worst, f_basis.closed_forms_residual(fac, t, lattice, regime))
    return worst, {
        "L": lattice.length,
        "spectral_samples": samples,
        "route": "probe",
        "probes": f_basis.PROBES,
        "cond1_F": fac.cond1,
        "sectors": len(fac.sectors),
        "block_max": max(len(states) for states, _ in fac.sectors),
    }


def _check_creation_commutation(ctx):
    rng, regime, lattice = ctx["rng"], ctx["regime"], ctx["lattice"]
    worst = 0.0
    pairs = 2
    for _ in range(pairs):
        t = vm.random_spectral_point(lattice, regime, rng)
        t2 = vm.random_spectral_point(lattice, regime, rng)
        worst = max(worst, f_basis.commutation_residual(t, t2, lattice, regime))
    return worst, {"L": lattice.length, "pairs": pairs, "route": "weights"}


def _check_creation_exchange(ctx):
    regime, lattice = ctx["regime"], ctx["lattice"]
    return f_basis.exchange_residual(lattice, regime), {"L": lattice.length, "route": "weights"}


def _check_bae_solve(ctx):
    regime, lattice, config = ctx["regime"], ctx["lattice"], ctx["config"]
    roots = bethe.solve_bethe_roots(
        config.magnons, lattice, regime, seed=config.seed
    )
    ctx["roots"] = roots
    return roots.residual, {"M": config.magnons, "L": lattice.length}


def _require_roots(ctx):
    if "roots" not in ctx:
        raise RuntimeError("no solved roots available (solve check failed)")
    return ctx["roots"]


def _check_eigenvector(ctx):
    rng, regime, lattice = ctx["rng"], ctx["regime"], ctx["lattice"]
    roots = _require_roots(ctx)
    samples = [
        vm.random_spectral_point(lattice, regime, rng, avoid=roots.q) for _ in range(3)
    ]
    worst = bethe.eigenstate_residual(roots, lattice, regime, samples)
    return worst, {"spectral_samples": 3, "M": roots.magnons}


def _wave_tables(roots, lattice, regime):
    """Formula and oracle wave tables of the roots, and their measured ratio."""
    formula = coordinate_wf.wave_table(roots.q, lattice, regime, "formula")
    oracle = coordinate_wf.wave_table(roots.q, lattice, regime, "oracle")
    return formula, oracle, coordinate_wf.ratio_statistic(formula, oracle)


def _check_wavefunction_ratio(ctx):
    regime, lattice = ctx["regime"], ctx["lattice"]
    _, _, stat = _wave_tables(_require_roots(ctx), lattice, regime)
    return stat.spread, {
        "configurations": stat.n_total,
        "used": stat.n_used,
        "constant": repr(stat.constant),
    }


def _check_wavefunction_alt_form(ctx):
    regime, lattice = ctx["regime"], ctx["lattice"]
    roots = _require_roots(ctx)
    worst = 0.0
    points = list(roots.q)
    rng = ctx["rng"]
    points += [vm.random_spectral_point(lattice, regime, rng) for _ in range(2)]
    for q in points:
        for x in range(1, lattice.length + 1):
            a = coordinate_wf.phi_site(x, q, lattice, regime)
            b = coordinate_wf.phi_site_alt(x, q, lattice, regime)
            worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    return worst, {"points": len(points), "L": lattice.length}


def _check_periodicity(ctx):
    regime, lattice = ctx["regime"], ctx["lattice"]
    roots = _require_roots(ctx)
    check = coordinate_wf.periodicity_check(roots.q, lattice, regime)
    return check.amplitude_residual, {
        "M": roots.magnons,
        "bae_residual": repr(check.bae_residual),
    }


def _check_dwbc(ctx):
    rng, regime = ctx["rng"], ctx["regime"]
    worst = 0.0
    sizes = (2, 5)
    draws = 5
    for m in sizes:
        for _ in range(draws):
            inp = dwbc.random_input(m, regime, rng)
            total = dwbc.dwbc_sum(inp)
            rec = dwbc.dwbc_recurrence(inp)
            worst = max(worst, abs(total - rec) / abs(total))
    return worst, {"sizes": list(sizes), "draws_per_size": draws}


# (name, runner, tolerance); order follows the verification story:
# structural S-matrix identities, factorizing-operator identities, solved
# roots and their eigenstate, wave-function identities, partition function.
CHECKS = (
    ("unitarity", _check_unitarity, 1e-12),
    ("yang_baxter", _check_yang_baxter, 1e-12),
    ("vacuum_actions", _check_vacuum_actions, 1e-12),
    ("f_factorization", _check_f_factorization, 1e-10),
    ("f_matrix_elements", _check_f_matrix_elements, 1e-10),
    ("f_closed_forms", _check_f_closed_forms, 1e-10),
    ("creation_commutation", _check_creation_commutation, 1e-10),
    ("creation_exchange", _check_creation_exchange, 1e-10),
    ("bae_solve", _check_bae_solve, 1e-12),
    ("eigenvector", _check_eigenvector, 1e-9),
    ("wavefunction_ratio", _check_wavefunction_ratio, 1e-9),
    ("wavefunction_alt_form", _check_wavefunction_alt_form, 1e-12),
    ("periodicity", _check_periodicity, 1e-9),
    ("dwbc_sum_vs_recurrence", _check_dwbc, 1e-10),
)


def _resolve(config: RunConfig):
    """Regime, seeded generator and lattice of a run."""
    rng = np.random.default_rng(config.seed)
    return config.regime(), rng, config.resolve_lattice(rng)


def run_verify(config: RunConfig) -> CheckReport:
    """Run every registered check once; individual failures do not abort."""
    regime, rng, lattice = _resolve(config)
    ctx = {"config": config, "regime": regime, "lattice": lattice, "rng": rng}
    report = CheckReport(config=config_as_dict(config, lattice))
    for name, runner, tol in CHECKS:
        start = time.perf_counter()
        try:
            residual, params = runner(ctx)
            note = ""
            passed = residual < tol
        except Exception as exc:  # recorded as failure, run continues
            residual, params = float("inf"), {}
            note = f"{type(exc).__name__}: {exc}"
            passed = False
        elapsed = time.perf_counter() - start
        report.results.append(
            CheckResult(
                name=name,
                params={k: str(v) for k, v in params.items()},
                residual=residual,
                tolerance=tol,
                passed=passed,
                wall_time_s=elapsed,
                note=note,
            )
        )
    return report


def write_report(report: CheckReport, output_dir) -> tuple[Path, Path]:
    """Write report.json and report.txt atomically; returns both paths."""
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    json_path = output_dir / "report.json"
    txt_path = output_dir / "report.txt"
    write_text_atomic(json_path, report.to_json())
    write_text_atomic(txt_path, report.table())
    return json_path, txt_path


def run_solve(config: RunConfig, out_path) -> bethe.BetheRoots:
    """Solve the configured root count and write the roots document."""
    regime, _, lattice = _resolve(config)
    roots = bethe.solve_bethe_roots(config.magnons, lattice, regime, seed=config.seed)
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    bethe.write_roots(roots, out_path)
    return roots


def run_wavefunction(config: RunConfig, roots_path, out_path) -> coordinate_wf.RatioStatistic:
    """Tabulate formula and oracle wave functions for stored roots.

    Refuses to run when the roots document does not exist or was solved for
    a different lattice; nothing is written in either case.
    """
    roots_path = Path(roots_path)
    if not roots_path.exists():
        raise FileNotFoundError(f"roots document not found: {roots_path}")
    roots = bethe.read_roots(roots_path)
    regime, _, lattice = _resolve(config)
    if not roots.matches(lattice, regime):
        raise ProvenanceError(
            "roots document was solved for a different lattice/regime than the config resolves"
        )
    formula, oracle, stat = _wave_tables(roots, lattice, regime)
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    coordinate_wf.export_wave_tables(
        [formula, oracle],
        out_path,
        header_comments=[
            f"wave table: L={lattice.length} M={roots.magnons} regime={regime.family}",
            f"ratio_constant: {stat.constant!r}",
            f"ratio_spread: {stat.spread!r}",
            f"configurations_used: {stat.n_used}/{stat.n_total}",
        ],
    )
    return stat
