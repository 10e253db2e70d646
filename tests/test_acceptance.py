"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s``) and then
asserts, so the suite both reports and gates.
"""

import json
import re

import numpy as np
import pytest

from sixvertex import bethe, coordinate_wf, dwbc, f_basis
from sixvertex import tensor_core as tc
from sixvertex import vertex_model as vm
from sixvertex.cli import main

from conftest import RATIONAL, TRIG, default_spectral_samples, make_lattice
from dense_routes import (
    closed_forms_dense_residual,
    commutation_dense_residual,
    dense_f,
    exchange_dense_residual,
    f_matrix_element_dense_residual,
    factorization_dense_residual,
)

REGIMES = ((RATIONAL, "rational"), (TRIG, "trigonometric"))


def report(num, name, ok, detail):
    print(f"criterion-{num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def draw_pair(rng, regime, spread=1.0, guard=0.05):
    while True:
        t1 = complex(rng.uniform(-spread, spread), rng.uniform(-spread, spread))
        t2 = complex(rng.uniform(-spread, spread), rng.uniform(-spread, spread))
        if (
            abs(regime.phi(t1 - t2 + regime.eta)) > guard
            and abs(regime.phi(t2 - t1 + regime.eta)) > guard
        ):
            return t1, t2


def test_criterion_01_unitarity_and_yang_baxter():
    worst_u = worst_yb = 0.0
    for regime, _ in REGIMES:
        rng = np.random.default_rng(101)
        for _ in range(100):
            t1, t2 = draw_pair(rng, regime)
            s12 = vm.s_matrix(t1, t2, regime)
            s21 = vm.s_matrix(t2, t1, regime)
            worst_u = max(worst_u, tc.max_abs_diff(s12 @ s21, np.eye(4)))
        count = 0
        while count < 100:
            t1, t2 = draw_pair(rng, regime)
            _, t3 = draw_pair(rng, regime)
            if any(
                abs(regime.phi(a - b + regime.eta)) < 0.05
                for a, b in ((t1, t3), (t3, t1), (t2, t3), (t3, t2))
            ):
                continue
            s12 = tc.embed_two_site(vm.s_matrix(t1, t2, regime), 1, 2, 3)
            s13 = tc.embed_two_site(vm.s_matrix(t1, t3, regime), 1, 3, 3)
            s23 = tc.embed_two_site(vm.s_matrix(t2, t3, regime), 2, 3, 3)
            worst_yb = max(worst_yb, tc.max_abs_diff(s12 @ s13 @ s23, s23 @ s13 @ s12))
            count += 1
    ok = worst_u < 1e-12 and worst_yb < 1e-12
    report(1, "unitarity+yang_baxter", ok, f"unitarity {worst_u:.2e}, yb {worst_yb:.2e}")


def test_criterion_02_closed_forms_match_conjugation():
    # probe route X(t) F V = F X~(t) V, and the dense F^-1 X(t) F = X~(t)
    worst = worst_dense = 0.0
    for regime, _ in REGIMES:
        rng = np.random.default_rng(202)
        for draw in range(10):
            L = 2 + draw % 7  # cycles 2..8
            lattice = make_lattice(L, regime, seed=2000 + draw)
            fac = f_basis.factorizing_operator(lattice, regime)
            f = dense_f(lattice, regime)
            for _ in range(5):
                t = vm.random_spectral_point(lattice, regime, rng)
                worst = max(worst, f_basis.closed_forms_residual(fac, t, lattice, regime))
                worst_dense = max(worst_dense, closed_forms_dense_residual(f, t, lattice, regime))
    ok = worst < 1e-10 and worst_dense < 1e-10
    report(2, "f_basis_closed_forms", ok, f"probe {worst:.2e}, dense {worst_dense:.2e}")


def test_criterion_03_factorization_adjacent_transpositions():
    worst = worst_dense = 0.0
    for regime, _ in REGIMES:
        for L in range(2, 7):
            lattice = make_lattice(L, regime, seed=3000 + L)
            worst = max(worst, f_basis.factorization_residual(lattice, regime))
            worst_dense = max(worst_dense, factorization_dense_residual(lattice, regime))
    ok = worst < 1e-10 and worst_dense < 1e-10
    report(3, "factorization", ok, f"probe {worst:.2e}, dense {worst_dense:.2e}")


def test_criterion_04_f_matrix_elements_all_sectors():
    # probe route F r = prod_n (1 + rho_n B(xi_n)) |0>, and the dense
    # column-by-column F e_{n} = B(xi_{n_1}) ... B(xi_{n_M}) |0>
    worst = worst_dense = 0.0
    for regime, _ in REGIMES:
        for L in range(2, 7):
            lattice = make_lattice(L, regime, seed=4000 + L)
            worst = max(worst, f_basis.f_matrix_element_residual(lattice, regime))
            worst_dense = max(worst_dense, f_matrix_element_dense_residual(lattice, regime))
    ok = worst < 1e-10 and worst_dense < 1e-10
    report(4, "f_matrix_elements", ok, f"probe {worst:.2e}, dense {worst_dense:.2e}")


def test_criterion_05_commutation_and_exchange():
    # the weight routes and their dense oracles, worst of the two per identity
    worst_ab = worst_aa = 0.0
    for regime, _ in REGIMES:
        for L in range(2, 7):
            lattice = make_lattice(L, regime, seed=5000 + L)
            rng = np.random.default_rng(500 + L)
            for _ in range(10):
                t = vm.random_spectral_point(lattice, regime, rng)
                t2 = vm.random_spectral_point(lattice, regime, rng)
                worst_ab = max(
                    worst_ab,
                    f_basis.commutation_residual(t, t2, lattice, regime),
                    commutation_dense_residual(t, t2, lattice, regime),
                )
            worst_aa = max(
                worst_aa,
                f_basis.exchange_residual(lattice, regime),
                exchange_dense_residual(lattice, regime),
            )
    ok = worst_ab < 1e-10 and worst_aa < 1e-10
    report(5, "commutation+exchange", ok, f"commutation {worst_ab:.2e}, exchange {worst_aa:.2e}")


def test_criterion_06_bae_solver_and_eigenvectors():
    # closed case: homogeneous two-site rational chain
    closed = vm.LatticeSpec(2, (0.0, 0.0))
    roots = bethe.solve_bethe_roots(1, closed, RATIONAL, seed=3)
    root_err = abs(roots.q[0] - 0.5)
    lam_err = abs(vm.transfer_eigenvalue(0.0, roots.q, closed, RATIONAL) - (-1.0))
    worst_res = roots.residual
    worst_eig = bethe.eigenstate_residual(roots, closed, RATIONAL, (0.0, 0.3, 0.7 + 0.2j))
    for regime, _ in REGIMES:
        for L, M in ((4, 2), (6, 3), (8, 3)):
            lattice = make_lattice(L, regime, seed=6000 + L + M)
            solved = bethe.solve_bethe_roots(M, lattice, regime, seed=60)
            worst_res = max(worst_res, solved.residual)
            samples = default_spectral_samples(lattice, regime, solved.q, count=3, seed=61)
            worst_eig = max(worst_eig, bethe.eigenstate_residual(solved, lattice, regime, samples))
    ok = worst_res < 1e-12 and worst_eig < 1e-9 and root_err < 1e-12 and lam_err < 1e-12
    report(
        6,
        "bae+eigenvector",
        ok,
        f"bae {worst_res:.2e}, eig {worst_eig:.2e}, q-1/2 {root_err:.2e}, lambda+1 {lam_err:.2e}",
    )


def test_criterion_07_wavefunction_ratio_and_alt_form():
    worst_spread = worst_alt = 0.0
    constants = []
    for regime, _ in REGIMES:
        rng = np.random.default_rng(707)
        for draw in range(10):
            L = 4 + draw % 5  # cycles 4..8
            M = min(3, L // 2)
            lattice = make_lattice(L, regime, seed=7000 + draw)
            roots = bethe.solve_bethe_roots(M, lattice, regime, seed=70 + draw)
            formula = coordinate_wf.wave_table(roots.q, lattice, regime, "formula")
            oracle = coordinate_wf.wave_table(roots.q, lattice, regime, "oracle")
            stat = coordinate_wf.ratio_statistic(formula, oracle)
            worst_spread = max(worst_spread, stat.spread)
            constants.append(stat.constant)
            for q in roots.q + tuple(
                vm.random_spectral_point(lattice, regime, rng) for _ in range(2)
            ):
                for x in range(1, L + 1):
                    a = coordinate_wf.phi_site(x, q, lattice, regime)
                    b = coordinate_wf.phi_site_alt(x, q, lattice, regime)
                    worst_alt = max(worst_alt, abs(a - b) / max(1.0, abs(a)))
    ok = worst_spread < 1e-9 and worst_alt < 1e-12
    const_span = max(abs(c - constants[0]) for c in constants)
    report(
        7,
        "wavefunction_ratio+alt_form",
        ok,
        f"spread {worst_spread:.2e}, alt {worst_alt:.2e}, "
        f"constant {constants[0]:.12g} (span {const_span:.2e})",
    )


def test_criterion_08_periodicity_covanishing():
    worst_solved = 0.0
    smallest_perturbed = np.inf
    covanish = True
    for regime, _ in REGIMES:
        for L, M in ((4, 2), (6, 2)):
            lattice = make_lattice(L, regime, seed=8000 + L)
            roots = bethe.solve_bethe_roots(M, lattice, regime, seed=80)
            solved = coordinate_wf.periodicity_check(roots.q, lattice, regime)
            worst_solved = max(worst_solved, solved.amplitude_residual)
            perturbed_q = (roots.q[0] + 0.1,) + roots.q[1:]
            perturbed = coordinate_wf.periodicity_check(perturbed_q, lattice, regime)
            smallest_perturbed = min(smallest_perturbed, perturbed.amplitude_residual)
            for scale in (0.0, 1e-2, 0.1):
                q = (roots.q[0] + scale,) + roots.q[1:]
                chk = coordinate_wf.periodicity_check(q, lattice, regime)
                covanish = covanish and (
                    (chk.amplitude_residual < 1e-9) == (chk.bae_residual < 1e-9)
                )
    ok = worst_solved < 1e-9 and smallest_perturbed > 1e-3 and covanish
    report(
        8,
        "periodicity",
        ok,
        f"solved {worst_solved:.2e}, perturbed {smallest_perturbed:.2e}, covanish {covanish}",
    )


def test_criterion_09_dwbc_sum_vs_recurrence():
    worst = 0.0
    for regime, _ in REGIMES:
        rng = np.random.default_rng(909)
        for draw in range(50):
            m = 1 + draw % 7  # cycles 1..7
            inp = dwbc.random_input(m, regime, rng)
            total = dwbc.dwbc_sum(inp)
            rec = dwbc.dwbc_recurrence(inp)
            worst = max(worst, abs(total - rec) / abs(total))
    ok = worst < 1e-10
    report(9, "dwbc_sum_vs_recurrence", ok, f"max relative diff {worst:.2e}")


def test_criterion_10_cli_determinism_and_exit_codes(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "regime: rational\neta: 1\nL: 4\nM: 1\nxi: random\nxi_spread: 0.3\nseed: 11\n"
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = main(["verify", "--config", str(cfg_path), "--output-dir", str(out_a)])
    code_b = main(["verify", "--config", str(cfg_path), "--output-dir", str(out_b)])

    def stripped(path):
        return re.sub(r'"wall_time_s": [0-9eE.+-]+,', "", path.read_text())

    identical = stripped(out_a / "report.json") == stripped(out_b / "report.json")
    doc = json.loads((out_a / "report.json").read_text())
    exit_ok = code_a == 0 and code_b == 0 and doc["passed"]

    # coincident inhomogeneities fail three F-basis checks by design
    fail_path = tmp_path / "coincident.cfg"
    fail_path.write_text("L: 3\nM: 1\nxi: 0, 0, 0\n")
    code_fail = main(["verify", "--config", str(fail_path), "--output-dir", str(tmp_path / "c")])
    exit_ok = exit_ok and code_fail == 1
    ok = identical and exit_ok
    report(
        10,
        "cli_determinism+exit_codes",
        ok,
        f"byte-identical {identical}, exits ({code_a},{code_b},{code_fail})",
    )
