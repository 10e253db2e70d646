import numpy as np
import pytest

from sixvertex import bethe
from sixvertex import vertex_model as vm
from sixvertex.errors import (
    DegenerateRootsError,
    PoleError,
    ProvenanceError,
    SolverFailureError,
)

from conftest import RATIONAL, default_spectral_samples, make_lattice

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
