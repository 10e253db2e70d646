import cmath

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


def test_solve_unreachable_tolerance_fails_with_trace(regime):
    lattice = make_lattice(4, regime, seed=11)
    with pytest.raises(SolverFailureError) as info:
        bethe.solve_bethe_roots(2, lattice, regime, seed=1, tol=1e-30)
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
        _, jac = bethe._newton_system(q, lattice, regime)
        scale = float(np.max(np.abs(jac)))
        for a in range(m):
            step = np.zeros(m, dtype=complex)
            step[a] = h
            plus, _ = bethe._newton_system(q + step, lattice, regime)
            minus, _ = bethe._newton_system(q - step, lattice, regime)
            # exp/log folds a principal-branch jump of the log-ratio back
            column = np.log(np.exp(plus - minus)) / (2 * h)
            assert float(np.max(np.abs(column - jac[:, a]))) < 1e-6 * scale


def test_newton_step_evaluates_each_pair_weight_once(monkeypatch):
    # Patching the names bethe imports counts the pair tables and the site
    # weights; vacuum_eigenvalue calls vertex_model's own c_weight.
    counts = {"c": 0, "kernel": 0}
    per_call = {"bae_residuals": [], "_newton_system": []}

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    def tallied(name, fn):
        # weight evaluations of each call that returns (a colliding iterate
        # raises in bae_residuals before any weight is evaluated), and
        # whether the lattice was the homogeneous start
        def wrapper(q, lattice, regime):
            before = dict(counts)
            out = fn(q, lattice, regime)
            per_call[name].append(
                (
                    len(set(lattice.xi)) == 1,
                    counts["c"] - before["c"],
                    counts["kernel"] - before["kernel"],
                )
            )
            return out
        return wrapper

    monkeypatch.setattr(bethe, "c_weight", counted("c", vm.c_weight))
    monkeypatch.setattr(
        bethe, "c_and_log_derivative", counted("kernel", vm.c_and_log_derivative)
    )
    for name in per_call:
        monkeypatch.setattr(bethe, name, tallied(name, getattr(bethe, name)))
    L, m = 6, 3
    lattice = make_lattice(L, RATIONAL, seed=2)
    roots = bethe.solve_bethe_roots(m, lattice, RATIONAL, seed=2)
    assert roots.residual < 1e-12
    pairs = m * (m - 1)
    assert {(c, k) for _, c, k in per_call["bae_residuals"]} == {(pairs, 0)}
    # one kernel call per ordered pair, plus one per root and run of equal
    # sites: a single run at the homogeneous start, L runs on the legs
    assert set(per_call["_newton_system"]) == {(True, 0, pairs + m), (False, 0, pairs + m * L)}


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
            r, jac = bethe._newton_system(q, lattice, regime)
            r_ref, jac_ref = reference_newton_system(q, lattice, regime)
            assert r.tobytes() == r_ref.tobytes(), (name, trial)
            assert jac.tobytes() == jac_ref.tobytes(), (name, trial)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_newton_system_raises_where_reference_raises(m, regime):
    # Iterates on a zero or pole of a site weight, and (m > 1) of a pair weight.
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
            with pytest.raises(SingularWeightError):
                reference_newton_system(q, lattice, regime)
            with pytest.raises(SingularWeightError):
                bethe._newton_system(q, lattice, regime)


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


# (family, L, lattice seed, M): three solves that converge, and the pinned
# rational stall below, whose message and trace must repeat too.
IDENTITY_SOLVES = [
    ("rational", 6, 2, 3),
    ("trigonometric", 5, 3, 2),
    ("trigonometric", 7, 1, 3),
    ("rational", 7, 4, 2),
]


def solve_outcome(family, L, seed, m):
    regime = RATIONAL if family == "rational" else TRIG
    lattice = make_lattice(L, regime, seed=seed)
    try:
        roots = bethe.solve_bethe_roots(m, lattice, regime, seed=seed)
    except SolverFailureError as exc:
        return ("failed", str(exc), list(exc.trace))
    return ("solved", repr((roots.q, roots.residual)))


@pytest.mark.parametrize("case", IDENTITY_SOLVES, ids=lambda c: "-".join(map(str, c)))
def test_solver_outputs_match_reference_system(case, monkeypatch):
    got = solve_outcome(*case)
    monkeypatch.setattr(bethe, "_newton_system", reference_newton_system)
    monkeypatch.setattr(bethe, "vacuum_eigenvalue", reference_vacuum_eigenvalue)
    want = solve_outcome(*case)
    assert got == want
    assert got[0] == ("failed" if case == ("rational", 7, 4, 2) else "solved")


# Solves of the seeded sweep that stall, as (family, L, lattice seed, M).  The
# homotopy from the homogeneous point halves its leg below the minimum near
# s = 0.42 for both; the Gaudin matrix along that path is where to look.
KNOWN_STALLS = {("rational", 7, 4, 2), ("rational", 7, 4, 3)}


@pytest.mark.parametrize("L", [4, 5, 6, 7])
def test_seeded_solver_sweep(L, regime):
    # Lattice and solve share the seed, as in run_verify.
    stalls = set()
    for seed in range(5):
        lattice = make_lattice(L, regime, seed=seed)
        for m in range(1, L // 2 + 1):
            try:
                roots = bethe.solve_bethe_roots(m, lattice, regime, seed=seed)
            except SolverFailureError as exc:
                assert "homotopy stalled" in str(exc)
                stalls.add((regime.family, L, seed, m))
                continue
            assert roots.residual < 1e-12
            assert float(np.max(bethe.bae_residuals(roots.q, lattice, regime))) < 1e-12
    assert stalls == {case for case in KNOWN_STALLS if case[:2] == (regime.family, L)}


# (family, L, lattice seed) of the slow sweep that draw no lattice:
# random_lattice spends all its tries on trigonometric L=9 at seed 10.
NO_LATTICE = {("trigonometric", 9, 10)}


@pytest.mark.slow
@pytest.mark.parametrize("L", [4, 5, 6, 7, 8, 9])
def test_wide_seeded_solver_sweep(L, regime):
    # Lattice seeds 10-29 at every M <= L/2; no solve may fail.
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
    assert missing == {case for case in NO_LATTICE if case[:2] == (regime.family, L)}
