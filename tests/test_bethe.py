import cmath
import math
import re

import numpy as np
import pytest

from sixvertex import bethe
from sixvertex import vertex_model as vm
from sixvertex.errors import (
    DegenerateParametersError,
    DegenerateRootsError,
    PoleError,
    ProvenanceError,
    SingularWeightError,
    SolverFailureError,
)

from conftest import RATIONAL, TRIG, default_spectral_samples, make_lattice

CLOSED_LATTICE = vm.LatticeSpec(2, (0.0, 0.0))


def test_residual_closed_form_root():
    # One root on the homogeneous two-site rational chain: the equation is
    # (q/(q-1))^2 = 1 with the single solution q = 1/2.
    res = bethe.bae_residuals((0.5,), CLOSED_LATTICE, RATIONAL)
    assert res.shape == (1,)
    assert res[0] < 1e-14


def test_residual_perturbed_root():
    res = bethe.bae_residuals((0.6,), CLOSED_LATTICE, RATIONAL)
    # a(0.6) = (0.6 / -0.4)^2 = 2.25, so the defect is 1.25 exactly
    assert abs(res[0] - 1.25) < 1e-12
    assert res[0] > 1e-3


def test_residual_empty_root_set(regime):
    lattice = make_lattice(3, regime, seed=5)
    assert bethe.bae_residuals((), lattice, regime).size == 0


def test_residual_rejects_coinciding_roots(regime):
    lattice = make_lattice(3, regime, seed=6)
    with pytest.raises(DegenerateRootsError):
        bethe.bae_residuals((0.4, 0.4 + 1e-12), lattice, regime)


def test_solve_closed_case():
    roots = bethe.solve_bethe_roots(1, CLOSED_LATTICE, RATIONAL, seed=3)
    assert abs(roots.q[0] - 0.5) < 1e-12
    assert roots.residual < 1e-12


def test_solve_single_root_satisfies_product_equation(regime):
    lattice = make_lattice(5, regime, seed=8)
    roots = bethe.solve_bethe_roots(1, lattice, regime, seed=1)
    prod = vm.vacuum_eigenvalue(roots.q[0], lattice, regime)
    assert abs(prod - 1.0) < 1e-11


def test_solve_rejects_too_many_particles(regime):
    lattice = make_lattice(2, regime, seed=9)
    with pytest.raises(ValueError):
        bethe.solve_bethe_roots(3, lattice, regime)


def test_solve_zero_particles(regime):
    lattice = make_lattice(3, regime, seed=10)
    roots = bethe.solve_bethe_roots(0, lattice, regime)
    assert roots.q == () and roots.residual == 0.0


def test_solve_unreachable_tolerance_fails_with_trace(regime, monkeypatch):
    lattice = make_lattice(4, regime, seed=11)
    monkeypatch.setattr(bethe, "SOLVE_TOL", 1e-30)
    with pytest.raises(SolverFailureError) as info:
        bethe.solve_bethe_roots(2, lattice, regime, seed=1)
    assert isinstance(info.value.trace, list)


def test_two_roots_verify_as_eigenstate(regime):
    lattice = make_lattice(4, regime, seed=12)
    roots = bethe.solve_bethe_roots(2, lattice, regime, seed=2)
    assert roots.residual < 1e-12
    ts = default_spectral_samples(lattice, regime, roots.q, count=3, seed=4)
    assert bethe.eigenstate_residual(roots, lattice, regime, ts) < 1e-9


def test_eigenstate_empty_roots(regime):
    lattice = make_lattice(3, regime, seed=13)
    roots = bethe.solve_bethe_roots(0, lattice, regime)
    ts = default_spectral_samples(lattice, regime, (), count=2, seed=5)
    assert bethe.eigenstate_residual(roots, lattice, regime, ts) < 1e-12


def test_eigenstate_closed_case_spectral_sweep():
    roots = bethe.solve_bethe_roots(1, CLOSED_LATTICE, RATIONAL, seed=3)
    res = bethe.eigenstate_residual(
        roots, CLOSED_LATTICE, RATIONAL, (0.0 + 0.0j, 0.3, 0.7 + 0.2j)
    )
    assert res < 1e-10
    lam0 = vm.transfer_eigenvalue(0.0, roots.q, CLOSED_LATTICE, RATIONAL)
    assert abs(lam0 - (-1.0)) < 1e-12


def test_eigenstate_detects_wrong_roots():
    wrong = bethe.BetheRoots((0.6,), 1.25, "rational", 1.0, CLOSED_LATTICE.xi)
    res = bethe.eigenstate_residual(
        wrong, CLOSED_LATTICE, RATIONAL, (0.0 + 0.0j, 0.3)
    )
    assert res > 1e-3


def test_eigenvalue_stable_near_root(regime):
    # The explicit poles of the eigenvalue at the roots cancel when the
    # equations hold, so probing within 1e-2 of a root stays accurate.
    lattice = make_lattice(4, regime, seed=14)
    roots = bethe.solve_bethe_roots(2, lattice, regime, seed=3)
    ts = [roots.q[0] + 1e-2, roots.q[0] - 1e-2, roots.q[1] + 1e-2j]
    assert bethe.eigenstate_residual(roots, lattice, regime, ts) < 1e-9


def test_root_permutation_invariance(regime):
    lattice = make_lattice(4, regime, seed=15)
    roots = bethe.solve_bethe_roots(2, lattice, regime, seed=6)
    swapped = bethe.BetheRoots(
        roots.q[::-1], roots.residual, regime.family, regime.eta, lattice.xi
    )
    t = 0.9 + 0.4j
    lam1 = vm.transfer_eigenvalue(t, roots.q, lattice, regime)
    lam2 = vm.transfer_eigenvalue(t, swapped.q, lattice, regime)
    assert abs(lam1 - lam2) < 1e-12
    v1 = bethe.bethe_vector(roots.q, lattice, regime)
    v2 = bethe.bethe_vector(swapped.q, lattice, regime)
    assert float(np.max(np.abs(v1 - v2))) < 1e-10
    ts = default_spectral_samples(lattice, regime, roots.q, count=2, seed=7)
    r1 = bethe.eigenstate_residual(roots, lattice, regime, ts)
    r2 = bethe.eigenstate_residual(swapped, lattice, regime, ts)
    assert abs(r1 - r2) < 1e-10


def test_transfer_eigenvalue_pole_guard(regime):
    lattice = make_lattice(3, regime, seed=16)
    roots = bethe.solve_bethe_roots(1, lattice, regime, seed=8)
    with pytest.raises(PoleError):
        vm.transfer_eigenvalue(roots.q[0] + 1e-12, roots.q, lattice, regime)


def test_roots_roundtrip_through_text(regime):
    lattice = make_lattice(4, regime, seed=17)
    roots = bethe.solve_bethe_roots(2, lattice, regime, seed=9)
    parsed = bethe.roots_from_text(bethe.roots_to_text(roots))
    assert parsed.family == roots.family
    assert abs(parsed.eta - roots.eta) == 0.0
    assert parsed.xi == roots.xi and parsed.q == roots.q
    assert parsed.residual == roots.residual
    assert parsed.matches(lattice, regime)


def test_roots_roundtrip_empty(regime):
    lattice = make_lattice(2, regime, seed=18)
    roots = bethe.solve_bethe_roots(0, lattice, regime)
    parsed = bethe.roots_from_text(bethe.roots_to_text(roots))
    assert parsed.q == ()


def test_roots_file_io(tmp_path, regime):
    lattice = make_lattice(3, regime, seed=19)
    roots = bethe.solve_bethe_roots(1, lattice, regime, seed=10)
    path = tmp_path / "roots.txt"
    bethe.write_roots(roots, path)
    assert bethe.read_roots(path).q == roots.q
    assert not (tmp_path / "roots.txt.tmp").exists()


def test_roots_text_rejects_inconsistent_counts():
    text = "regime: rational\neta: (1+0j)\nL: 2\nM: 2\nxi: (0j), (0j)\nq: (0.5+0j)\nresidual: 0.0\n"
    with pytest.raises(ProvenanceError):
        bethe.roots_from_text(text)


# Roots-document lines with a non-finite value, and the field each must name.
# A nan or inf root used to reach the wave-table oracle and exit 1 with a
# traceback; a nan residual was accepted; a nan eta read as a lattice mismatch.
NON_FINITE_ROOTS = [
    ("q: nan", "q"),
    ("q: inf", "q"),
    ("residual: nan", "residual"),
    ("residual: inf", "residual"),
    ("eta: nan", "eta"),
    ("eta: (1+infj)", "eta"),
    ("xi: (0j), nan", "xi"),
]
CLOSED_ROOTS_TEXT = (
    "regime: rational\neta: (1+0j)\nL: 2\nM: 1\nxi: (0j), (0j)\nq: (0.5+0j)\nresidual: 0.0\n"
)


@pytest.mark.parametrize("line, field", NON_FINITE_ROOTS)
def test_roots_text_rejects_non_finite_values(line, field):
    key = line.partition(":")[0]
    text = "".join(
        line + "\n" if row.startswith(key + ":") else row + "\n"
        for row in CLOSED_ROOTS_TEXT.splitlines()
    )
    assert text != CLOSED_ROOTS_TEXT
    with pytest.raises(ProvenanceError, match=f"'{field}' must be finite"):
        bethe.roots_from_text(text)
    assert bethe.roots_from_text(CLOSED_ROOTS_TEXT).q == (0.5,)


@pytest.mark.parametrize(
    "extra, message",
    [
        ("garbage line", "roots document line 8: expected 'key: value', got 'garbage line'"),
        ("frobnicate: 3", "roots document line 8: unknown key 'frobnicate'"),
        ("q: 0.7", "roots document line 8: repeated key 'q'"),
    ],
)
def test_roots_text_rejects_malformed_lines(extra, message):
    # Each used to parse: the stray lines were ignored, and a second q line
    # replaced the roots while the stored residual described the first set.
    with pytest.raises(ProvenanceError, match=re.escape(message)):
        bethe.roots_from_text(CLOSED_ROOTS_TEXT + extra + "\n")
    assert bethe.roots_from_text(CLOSED_ROOTS_TEXT).q == (0.5,)


def test_roots_provenance_mismatch(regime):
    lattice = make_lattice(3, regime, seed=20)
    other = make_lattice(3, regime, seed=21)
    roots = bethe.solve_bethe_roots(1, lattice, regime, seed=11)
    assert roots.matches(lattice, regime)
    assert not roots.matches(other, regime)


def off_shell_roots(m, lattice, regime, rng):
    """m random roots clear of the weight poles at the sites and at each other."""
    q = []
    for _ in range(m):
        avoid = [v + shift for v in q for shift in (0.0, regime.eta, -regime.eta)]
        q.append(vm.random_spectral_point(lattice, regime, rng, avoid=avoid))
    return np.array(q)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_newton_jacobian_matches_central_differences(m, regime):
    rng = np.random.default_rng(100 + m)
    h = 1e-6
    for trial in range(3):
        lattice = make_lattice(5, regime, seed=30 + 3 * m + trial)
        q = off_shell_roots(m, lattice, regime, rng)
        _, _, jac = bethe._bethe_system(q, lattice, regime)
        scale = float(np.max(np.abs(jac)))
        for a in range(m):
            step = np.zeros(m, dtype=complex)
            step[a] = h
            _, plus, _ = bethe._bethe_system(q + step, lattice, regime)
            _, minus, _ = bethe._bethe_system(q - step, lattice, regime)
            # exp/log folds a principal-branch jump of the log-ratio back
            column = np.log(np.exp(plus - minus)) / (2 * h)
            assert float(np.max(np.abs(column - jac[:, a]))) < 1e-6 * scale


def test_newton_step_evaluates_each_pair_weight_once(monkeypatch):
    # Patching the kernel name bethe imports counts its pair and site tables;
    # patching vertex_model's c_weight catches any a(q) taken through
    # vacuum_eigenvalue, which calls it once per site.
    counts = {"c": 0, "kernel": 0, "system": 0, "solve": 0, "public": 0}
    evaluations = []  # (homogeneous lattice, kernel calls) per returning system
    newton_runs = []  # (system evaluations, linear solves) per _newton call

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    def tallied_system(q, lattice, regime):
        # a colliding iterate raises before any weight is evaluated
        counts["system"] += 1
        before = counts["kernel"]
        out = system(q, lattice, regime)
        evaluations.append((len(set(lattice.xi)) == 1, counts["kernel"] - before))
        return out

    def tallied_newton(*args, **kwargs):
        before = dict(counts)
        out = newton(*args, **kwargs)
        newton_runs.append(
            (counts["system"] - before["system"], counts["solve"] - before["solve"])
        )
        return out

    system, newton = bethe._bethe_system, bethe._newton
    monkeypatch.setattr(vm, "c_weight", counted("c", vm.c_weight))
    monkeypatch.setattr(
        bethe, "c_and_log_derivative", counted("kernel", vm.c_and_log_derivative)
    )
    monkeypatch.setattr(np.linalg, "solve", counted("solve", np.linalg.solve))
    monkeypatch.setattr(bethe, "bae_residuals", counted("public", bethe.bae_residuals))
    monkeypatch.setattr(bethe, "_bethe_system", tallied_system)
    monkeypatch.setattr(bethe, "_newton", tallied_newton)
    L, m = 6, 3
    lattice = make_lattice(L, RATIONAL, seed=2)
    roots = bethe.solve_bethe_roots(m, lattice, RATIONAL, seed=2)
    assert roots.residual < 1e-12
    assert not hasattr(bethe, "c_weight") and not hasattr(bethe, "vacuum_eigenvalue")
    assert counts["c"] == 0
    # the public residual runs once, on the solved roots; every Newton
    # iterate is one evaluation, followed by one linear solve unless it ends
    # the run
    assert counts["public"] == 1
    assert newton_runs and all(n - k in (0, 1) for n, k in newton_runs)
    # one kernel call per ordered pair, plus one per root and run of equal
    # sites: a single run at the homogeneous start, L runs on the legs
    pairs = m * (m - 1)
    assert set(evaluations) == {(True, pairs + m), (False, pairs + m * L)}


def reference_log_c_derivative(t, regime):
    """d/dt log c(t) evaluated on its own: the reference for the kernel's second value."""
    num = regime.phi(t)
    den = regime.phi(t + regime.eta)
    if abs(num) < vm.POLE_TOL or abs(den) < vm.POLE_TOL:
        raise SingularWeightError(f"log-derivative of c at a zero/pole, t={t}")
    return regime.phi_prime(t) / num - regime.phi_prime(t + regime.eta) / den


def reference_vacuum_eigenvalue(t, lattice, regime):
    """a(t) = prod_i c(xi_i - t), one weight call per site."""
    a = 1.0 + 0.0j
    for x in lattice.xi:
        a *= vm.c_weight(x - t, regime)
    return a


def reference_newton_system(q, lattice, regime):
    """The Newton system from one table per weight and one call per site and weight."""
    m = len(q)
    c = bethe._pair_table(vm.c_weight, q, regime)
    dlog_c = bethe._pair_table(reference_log_c_derivative, q, regime)
    r = np.empty(m, dtype=complex)
    jac = np.zeros((m, m), dtype=complex)
    for i, qi in enumerate(q):
        ratio = reference_vacuum_eigenvalue(qi, lattice, regime)
        diag = -sum(reference_log_c_derivative(x - qi, regime) for x in lattice.xi)
        for a in range(m):
            if a == i:
                continue
            ratio *= c[i][a] / c[a][i]
            pair = dlog_c[i][a] + dlog_c[a][i]
            diag += pair
            jac[i, a] = -pair
        r[i] = cmath.log(ratio)
        jac[i, i] = diag
    return r, jac


def reference_residuals(q, lattice, regime):
    """The residual from its own c table and a per-site a(q_i), in q's number type."""
    bethe._require_separated(q, regime)
    c = bethe._pair_table(vm.c_weight, q, regime)
    out = np.empty(len(q))
    for i, qi in enumerate(q):
        rhs = 1.0 + 0.0j
        for a in range(len(q)):
            if a != i:
                rhs *= c[a][i] / c[i][a]
        out[i] = abs(reference_vacuum_eigenvalue(qi, lattice, regime) - rhs)
    return out


def reference_public_residuals(q, lattice, regime):
    return reference_residuals(tuple(complex(v) for v in q), lattice, regime)


def reference_newton(q0, lattice, regime):
    """The Newton loop that evaluates the Bethe equations twice per iterate:
    the residual on Python complex roots, then the two-table system.  A
    rational run stops once a root is farther than L·|η| plus the lattice's
    extent from the mean inhomogeneity."""
    q = np.asarray(q0, dtype=complex).copy()
    center = sum(lattice.xi) / lattice.length
    radius = math.inf
    if regime.family == "rational":
        radius = lattice.length * abs(regime.eta) + max(abs(x - center) for x in lattice.xi)
    for iteration in range(bethe.MAX_NEWTON_ITER + 1):
        try:
            res = float(np.max(reference_public_residuals(q, lattice, regime)))
            if res < bethe.SOLVE_TOL or iteration == bethe.MAX_NEWTON_ITER:
                return q, res, res < bethe.SOLVE_TOL, ""
            far = max(range(len(q)), key=lambda i: abs(q[i] - center))
            if abs(q[far] - center) > radius:
                return q, res, False, (
                    f"escaped: |q_{far + 1} - center| = {abs(q[far] - center):.3g} "
                    f"> {radius:.3g} at iteration {iteration}"
                )
            r, jac = reference_newton_system(q, lattice, regime)
            step = np.linalg.solve(jac, -r)
        except ValueError as exc:
            return q, np.inf, False, f"{type(exc).__name__}: {exc}"
        if not np.all(np.isfinite(step)):
            return q, np.inf, False, "non-finite Newton step"
        scale = float(np.max(np.abs(step)))
        if scale > 1.0:
            step = step / scale
        q = q + step


def bits(z):
    """Type and exact bit pattern of a complex scalar, signed zeros included."""
    return type(z), complex(z).real.hex(), complex(z).imag.hex()


def oracle_lattices(regime):
    """Homogeneous, generic, and repeated-but-not-adjacent (xi_1 = xi_3) chains."""
    generic = make_lattice(5, regime, seed=40)
    center = sum(generic.xi) / 5
    repeated = list(make_lattice(5, regime, seed=41).xi)
    repeated[2] = repeated[0]
    return {
        "homogeneous": vm.LatticeSpec(5, (center,) * 5),
        "generic": generic,
        "repeated": vm.LatticeSpec(5, tuple(repeated)),
    }


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_newton_system_matches_two_table_reference_bit_for_bit(m, regime):
    rng = np.random.default_rng(200 + m)
    for name, lattice in oracle_lattices(regime).items():
        for trial in range(3):
            q = off_shell_roots(m, lattice, regime, rng)
            assert q.dtype == np.complex128
            residuals, r, jac = bethe._bethe_system(q, lattice, regime)
            r_ref, jac_ref = reference_newton_system(q, lattice, regime)
            assert r.tobytes() == r_ref.tobytes(), (name, trial)
            assert jac.tobytes() == jac_ref.tobytes(), (name, trial)
            # the residual in the iterate's number type, as the solver reads it
            assert residuals.tobytes() == reference_residuals(q, lattice, regime).tobytes()
            # and on Python complex roots, as BetheRoots.residual stores it
            public = bethe.bae_residuals(q, lattice, regime)
            assert public.tobytes() == reference_public_residuals(q, lattice, regime).tobytes()


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_newton_system_raises_where_reference_raises(m, regime):
    # Iterates on a zero or pole of a site weight, and (m > 1) on a collision
    # or a pole of a pair weight.  The reference raises in its residual or
    # in its Newton system, whichever comes first.
    rng = np.random.default_rng(300 + m)
    eta = regime.eta
    for lattice in oracle_lattices(regime).values():
        base = off_shell_roots(m, lattice, regime, rng)
        moves = [(0, lattice.xi[1]), (0, lattice.xi[1] + eta)]
        if m > 1:
            moves += [(1, base[0]), (1, base[0] + eta)]
        for index, value in moves:
            q = base.copy()
            q[index] = value
            with pytest.raises(ValueError) as want:
                reference_residuals(q, lattice, regime)
                reference_newton_system(q, lattice, regime)
            with pytest.raises(want.type):
                bethe._bethe_system(q, lattice, regime)
            with pytest.raises(want.type):
                bethe.bae_residuals(q, lattice, regime)
            assert want.type in (SingularWeightError, DegenerateRootsError)


def test_bae_residuals_raise_for_a_root_on_a_site(regime):
    # a(q) vanishes there, and the Newton system's log-derivative has a pole
    lattice = make_lattice(4, regime, seed=9)
    q = list(off_shell_roots(2, lattice, regime, np.random.default_rng(9)))
    assert bethe.bae_residuals(q, lattice, regime).shape == (2,)
    q[1] = lattice.xi[2]
    with pytest.raises(SingularWeightError):
        bethe.bae_residuals(q, lattice, regime)


def test_kernel_matches_separate_weights_bit_for_bit(regime):
    rng = np.random.default_rng(17)
    for _ in range(200):
        t = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        for arg in (t, np.complex128(t)):
            c, dlog = vm.c_and_log_derivative(arg, regime)
            assert bits(c) == bits(vm.c_weight(arg, regime))
            assert bits(dlog) == bits(reference_log_c_derivative(arg, regime))


def test_kernel_raises_at_zero_and_pole(regime):
    for t in (0.0, -regime.eta):
        with pytest.raises(SingularWeightError):
            vm.c_and_log_derivative(t, regime)


# Trigonometric roots of unity (eta, L, M) where rounding puts the atan
# argument of a decoupled seed exactly on +-i.
ROOT_OF_UNITY_SOLVES = [
    (cmath.pi / 2, 4, 1),
    (cmath.pi / 2, 8, 2),
    (cmath.pi / 2, 8, 3),
    (cmath.pi / 3, 6, 1),
    (cmath.pi / 3, 6, 2),
    (cmath.pi / 3, 6, 3),
]


@pytest.mark.parametrize("eta, L", [(cmath.pi / 2, 4), (cmath.pi / 3, 6)], ids=["pi/2", "pi/3"])
def test_decoupled_seed_meets_a_pole_of_atan(eta, L):
    # the branch the solver must skip like a zero denominator
    regime = vm.Regime("trigonometric", eta)
    with pytest.raises(ValueError, match="math domain error"):
        bethe._decoupled_seed(1, L, 0.0, regime)


@pytest.mark.parametrize(
    "eta, L, m", ROOT_OF_UNITY_SOLVES, ids=lambda v: f"{v:.4f}" if isinstance(v, float) else str(v)
)
def test_root_of_unity_solve_gives_roots_or_a_typed_failure(eta, L, m):
    # the lattice and solver seed of run_verify at seed 7
    regime = vm.Regime("trigonometric", eta)
    lattice = make_lattice(L, regime, seed=7)
    try:
        roots = bethe.solve_bethe_roots(m, lattice, regime, seed=7)
    except SolverFailureError:
        return
    assert len(roots.q) == m and roots.residual < 1e-12
    assert float(np.max(bethe.bae_residuals(roots.q, lattice, regime))) < 1e-12


# (family, L, lattice seed, M): three solves that converge at once, and the
# rational L=7 solve whose homotopy from its first start stalls.
IDENTITY_SOLVES = [
    ("rational", 6, 2, 3),
    ("trigonometric", 5, 3, 2),
    ("trigonometric", 7, 1, 3),
    ("rational", 7, 4, 2),
]


# A "(res 2.73e-15)" field of a solver trace.
TRACE_RESIDUAL = re.compile(r"\(res [^)]*\)")


def masked(trace):
    return [TRACE_RESIDUAL.sub("(res *)", line) for line in trace]


def solve_outcome(family, L, seed, m, monkeypatch):
    """The solve's roots and stored residual, or its failure message, with
    its masked trace either way."""
    regime = RATIONAL if family == "rational" else TRIG
    lattice = make_lattice(L, regime, seed=seed)
    traces = []
    starts = bethe._homogeneous_starts

    def recorded_starts(*args):
        traces.append(args[-1])  # the solver's trace list, filled as it runs
        return starts(*args)

    monkeypatch.setattr(bethe, "_homogeneous_starts", recorded_starts)
    try:
        roots = bethe.solve_bethe_roots(m, lattice, regime, seed=seed)
    except SolverFailureError as exc:
        outcome = ("failed", str(exc))
    else:
        outcome = ("solved", repr((roots.q, roots.residual)))
    finally:
        monkeypatch.setattr(bethe, "_homogeneous_starts", starts)
    return outcome + (masked(traces[0]),)


@pytest.mark.parametrize("case", IDENTITY_SOLVES, ids=lambda c: "-".join(map(str, c)))
def test_solver_outputs_match_reference_system(case, monkeypatch):
    # The trace's "(res ...)" fields are masked: the solver's convergence test
    # reads the residual on the np.complex128 iterate, the reference's on
    # Python complex roots, and the two round apart in the last bits (the
    # rational L=7 solve's first homogeneous start logs 2.68e-15 against
    # 2.73e-15).  Roots, stored residual and every other trace field, the
    # reasons of failed Newton runs included, must repeat.
    got = solve_outcome(*case, monkeypatch)
    monkeypatch.setattr(bethe, "_newton", reference_newton)
    monkeypatch.setattr(bethe, "bae_residuals", reference_public_residuals)
    want = solve_outcome(*case, monkeypatch)
    assert got == want
    assert got[0] == "solved"


# A failed leg whose Newton run met colliding roots, residual masked.
COLLIDING_LEG = re.compile(
    r"leg to s=0\.\d{4} failed \(res \*\) "
    r"\[DegenerateRootsError: roots 1 and 2 closer than 1e-08: \(.+\) ~ \(.+\)\]; halving"
)


def test_stalled_homotopy_moves_on_to_the_next_start(monkeypatch):
    # Rational L=7 lattice seed 4, M=2: the homotopy from the first converged
    # start, branches (1, 3), halves its leg below the minimum near s = 0.42,
    # every failed leg on colliding roots; the second start, (1, 4), solves.
    # 23 failed legs and s = 0.4216 here; a leg is halved at least 9 times
    # before it falls below the minimum.
    status, _, trace = solve_outcome("rational", 7, 4, 2, monkeypatch)
    assert status == "solved"
    assert trace[0].startswith("branches (1, 2): no convergence (res *) [DegenerateRootsError: ")
    assert trace[1] == "homogeneous solve ok from branches (1, 3) (res *)"
    assert re.fullmatch(r"homotopy from branches \(1, 3\) stalled at s=0\.42\d\d; next start", trace[-2])
    assert trace[-1] == "homogeneous solve ok from branches (1, 4) (res *)"
    legs = trace[2:-2]
    assert len(legs) >= 9 and all(COLLIDING_LEG.fullmatch(line) for line in legs)


def test_solver_raises_only_when_every_start_stalls(monkeypatch):
    # Every leg off the homogeneous point fails, so every converged start is
    # followed, logged as abandoned, and the error carries the whole trace.
    newton = bethe._newton

    def failing_legs(q0, lattice, regime):
        if len(set(lattice.xi)) > 1:
            return q0, np.inf, False, "ValueError: forced"
        return newton(q0, lattice, regime)

    monkeypatch.setattr(bethe, "_newton", failing_legs)
    lattice = make_lattice(4, RATIONAL, seed=3)
    with pytest.raises(SolverFailureError) as info:
        bethe.solve_bethe_roots(1, lattice, RATIONAL, seed=3)
    trace = info.value.trace
    starts = [line for line in trace if line.startswith("homogeneous solve ok")]
    abandoned = [line for line in trace if line.startswith("homotopy from branches")]
    assert len(starts) == len(abandoned) and 1 <= len(starts) <= 4 * 3
    assert all(line.endswith("stalled at s=0.0000; next start") for line in abandoned)
    assert "leg to s=0.0500 failed (res inf) [ValueError: forced]; halving" in trace
    assert str(info.value) == f"homotopy stalled from all {len(starts)} starts for M=1, L=4"


# repr((roots.q, roots.residual)) of rational M=4 solves, lattice and solver
# seed alike.  Each search passes 22 to 37 Newton runs whose roots escape
# toward infinity; stopping those runs early must not move a bit.
PINNED_M4_ROOTS = {
    (8, 0): "(((0.17707193814092453-1.5128717684507997j), (1.3350137002590599-0.3713481873092938j), (-0.007820311611944991+0.7253589935323975j), (0.5353462438807923+1.299246544933308j)), 2.808666774861361e-15)",
    (8, 1): "(((0.7075989694755961-1.4040203373791467j), (0.549463496259432-0.4836100494558454j), (0.5875817009765073+0.5666459070850925j), (-0.22390174276288616+1.3351105452001568j)), 1.4217791915866692e-15)",
    (8, 2): "(((1.4044019069164149-0.7911751922717183j), (0.046633638491770345-0.0845455527232789j), (1.2084319066554727+0.7689979160254504j), (0.24754975925057301+0.7342851514301928j)), 5.853358594478813e-13)",
    (9, 0): "(((1.6336958033795825-1.2601181407375304j), (0.006685801189768394-0.5632691211670031j), (0.3568613992634498+0.2535966704801967j), (-0.7979707403770226+0.493152940771919j)), 1.831026719408895e-14)",
    (9, 1): "(((-0.5301383612018338+1.1227544431620948j), (0.44627373817414506+0.05593169802463909j), (-0.7085109046557329-0.6005958635694288j), (1.7753471601522628+1.2685756928181666j)), 7.549516567451064e-15)",
    (9, 2): "(((0.5051687815462168-0.47889710984346523j), (-0.5401022318004084+0.022863950864915276j), (0.000864059559996496+1.18279802764845j), (0.20111738857744751+0.6772184308627323j)), 7.444291678311382e-15)",
}


@pytest.mark.parametrize("L, seed", PINNED_M4_ROOTS, ids=lambda v: str(v))
def test_rational_m4_roots_are_pinned(L, seed):
    lattice = make_lattice(L, RATIONAL, seed=seed)
    roots = bethe.solve_bethe_roots(4, lattice, RATIONAL, seed=seed)
    assert repr((roots.q, roots.residual)) == PINNED_M4_ROOTS[(L, seed)]


# The failure reason of a Newton run stopped by the escape radius.
ESCAPED = re.compile(r"escaped: \|q_(\d) - center\| = ([\d.]+) > ([\d.]+) at iteration (\d+)")


def test_newton_stops_a_root_escaping_to_infinity(monkeypatch):
    # From the homogeneous start of branches (1, 2, 3, 4) at L=8 a rational
    # root walks outward one clamped unit per step; without the radius the
    # run spent all 201 evaluations of MAX_NEWTON_ITER.
    L = 8
    calls = []
    system = bethe._bethe_system

    def counted(*args):
        calls.append(args[0])
        return system(*args)

    monkeypatch.setattr(bethe, "_bethe_system", counted)
    homogeneous = vm.LatticeSpec(L, (0j,) * L)
    q0 = [bethe._decoupled_seed(k, L, 0j, RATIONAL) for k in (1, 2, 3, 4)]
    radius = L * abs(RATIONAL.eta)  # the homogeneous lattice has no extent
    q, res, ok, reason = bethe._newton(q0, homogeneous, RATIONAL)
    assert not ok and np.isfinite(res)
    match = ESCAPED.fullmatch(reason)
    assert match, reason
    root, distance, shown_radius, iteration = match.groups()
    assert float(shown_radius) == radius
    assert abs(q[int(root) - 1]) == max(abs(q)) > radius
    assert float(distance) == float(f"{max(abs(q)):.3g}")
    assert len(calls) == int(iteration) + 1 <= math.ceil(radius) + 2
    # the radius is never passed before the last evaluation
    assert all(max(abs(np.asarray(p))) <= radius for p in calls[:-1])


def test_solver_past_half_filling_names_every_escape():
    # Rational M=3 on L=4 needs roots at infinity (an SU(2) descendant), so
    # every start escapes and the error names each one.
    lattice = make_lattice(4, RATIONAL, seed=3)
    with pytest.raises(SolverFailureError) as info:
        bethe.solve_bethe_roots(3, lattice, RATIONAL, seed=3)
    assert str(info.value) == "no homogeneous starting roots for M=3, L=4"
    trace = info.value.trace
    assert len(trace) == 4  # one branch set, four jitter rounds
    for line in trace:
        head, _, reason = line.partition(" [")
        assert re.fullmatch(r"branches \(1, 2, 3\): no convergence \(res [\d.e+-]+\)", head)
        match = ESCAPED.fullmatch(reason.removesuffix("]"))
        assert match and float(match[3]) == 4.0 and float(match[2]) > 4.0


def test_rational_solves_at_large_eta():
    # The radius grows with |eta|: a fixed radius stops converging runs here.
    regime = vm.Regime("rational", 20.0)
    lattice = make_lattice(6, regime, seed=0)
    for m in (1, 2, 3):
        roots = bethe.solve_bethe_roots(m, lattice, regime, seed=0)
        assert roots.residual < 1e-12


def spy_newton_reach(monkeypatch):
    """Record every Newton run as (converged, distance of its farthest iterate
    from the mean inhomogeneity, that mean, the run's lattice)."""
    runs, reach = [], [0.0]
    system, newton = bethe._bethe_system, bethe._newton

    def measured_system(q, lattice, regime):
        center = sum(lattice.xi) / lattice.length
        reach[0] = max(reach[0], float(np.max(np.abs(np.asarray(q) - center))))
        return system(q, lattice, regime)

    def measured_newton(q0, lattice, regime):
        reach[0] = 0.0
        out = newton(q0, lattice, regime)
        runs.append((out[2], reach[0], sum(lattice.xi) / lattice.length, lattice))
        return out

    monkeypatch.setattr(bethe, "_bethe_system", measured_system)
    monkeypatch.setattr(bethe, "_newton", measured_newton)
    return runs


def test_trigonometric_run_may_wander_past_the_rational_radius(monkeypatch):
    # Trigonometric lattice seed 18, L=6, M=3: a converged run goes farther
    # from the center than L·|eta| plus the lattice's extent would allow a
    # rational one, and nothing stops it.
    runs = spy_newton_reach(monkeypatch)
    status, _, trace = solve_outcome("trigonometric", 6, 18, 3, monkeypatch)
    assert status == "solved"
    assert not any("escaped" in line for line in trace)
    assert any(
        ok and distance > lattice.length * abs(TRIG.eta) + max(abs(x - center) for x in lattice.xi)
        for ok, distance, center, lattice in runs
    )


@pytest.mark.parametrize("L", [4, 5, 6, 7])
def test_seeded_solver_sweep(L, regime):
    # Lattice and solve share the seed, as in run_verify; no solve may fail.
    for seed in range(5):
        lattice = make_lattice(L, regime, seed=seed)
        for m in range(1, L // 2 + 1):
            roots = bethe.solve_bethe_roots(m, lattice, regime, seed=seed)
            assert roots.residual < 1e-12
            assert float(np.max(bethe.bae_residuals(roots.q, lattice, regime))) < 1e-12


# (family, L, lattice seed) of the slow sweep that draw no lattice:
# random_lattice spends all its tries on trigonometric L=9 at seed 10.
NO_LATTICE = {("trigonometric", 9, 10)}


@pytest.mark.slow
@pytest.mark.parametrize("L", [4, 5, 6, 7, 8, 9])
def test_wide_seeded_solver_sweep(L, regime, monkeypatch):
    # Lattice seeds 10-29 at every M <= L/2; no solve may fail.  The escape
    # radius must keep its margin and must not decide any outcome: every
    # converged rational Newton run stays within half its radius (the widest
    # went 1.88 of a radius of 5.34 when this gate was set), and every
    # rational solve repeats bit for bit with the radius lifted.
    runs = spy_newton_reach(monkeypatch)
    missing = set()
    for seed in range(10, 30):
        try:
            lattice = make_lattice(L, regime, seed=seed)
        except DegenerateParametersError:
            missing.add((regime.family, L, seed))
            continue
        for m in range(1, L // 2 + 1):
            roots = bethe.solve_bethe_roots(m, lattice, regime, seed=seed)
            assert roots.residual < 1e-12
            assert float(np.max(bethe.bae_residuals(roots.q, lattice, regime))) < 1e-12
            if regime.family == "rational":
                with monkeypatch.context() as unbounded:
                    unbounded.setattr(bethe, "_escape_radius", lambda *args: math.inf)
                    again = bethe.solve_bethe_roots(m, lattice, regime, seed=seed)
                assert repr((again.q, again.residual)) == repr((roots.q, roots.residual))
    assert missing == {case for case in NO_LATTICE if case[:2] == (regime.family, L)}
    if regime.family == "rational":
        assert all(
            distance <= bethe._escape_radius(center, leg, regime) / 2
            for ok, distance, center, leg in runs
            if ok
        )
