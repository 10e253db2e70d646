import ast
import cmath
import itertools
import math
import pickle
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sixvertex import tensor_core as tc
from sixvertex import vertex_model as vm
from sixvertex.errors import (
    DegenerateParametersError,
    PoleError,
    SingularWeightError,
    SizeCapError,
)

from conftest import PERMUTATION_GATE, RATIONAL, TRIG, make_lattice
from dense_routes import dense_entries, identity_operator

complex_box = st.builds(
    complex,
    st.floats(-1.2, 1.2, allow_nan=False),
    st.floats(-1.2, 1.2, allow_nan=False),
)


def s_blocks(t1, t2, regime):
    # 2x2 auxiliary-space blocks of the 4x4 S-matrix, indexed [a_out][a_in];
    # independent of the embedding machinery under test.
    s4 = vm.s_matrix(t1, t2, regime)
    blk = {}
    for ao in (0, 1):
        for ai in (0, 1):
            m = np.zeros((2, 2), dtype=complex)
            for qo in (0, 1):
                for qi in (0, 1):
                    m[qo, qi] = s4[2 * qo + ao, 2 * qi + ai]
            blk[ao, ai] = m
    return blk


def monodromy_by_block_paths(t, lattice, regime):
    # Oracle: contract over auxiliary paths with explicit Kronecker products.
    blocks = [s_blocks(x, t, regime) for x in lattice.xi]
    L = lattice.length
    dim = 1 << L
    full = np.zeros((2 * dim, 2 * dim), dtype=complex)
    for a_out in (0, 1):
        for a_in in (0, 1):
            acc = np.zeros((dim, dim), dtype=complex)
            paths = [(a_out,)]
            for _ in range(L - 1):
                paths = [p + (g,) for p in paths for g in (0, 1)]
            for path in paths:
                labels = path + (a_in,)
                term = np.eye(1, dtype=complex)
                for i in range(L):
                    term = np.kron(term, blocks[i][labels[i], labels[i + 1]])
                acc += term
            for m in range(dim):
                for n in range(dim):
                    full[2 * m + a_out, 2 * n + a_in] = acc[m, n]
    return full


def test_weight_examples_rational():
    c = vm.c_weight(1.0, RATIONAL)
    b = vm.b_weight(1.0, RATIONAL)
    assert abs(c - 0.5) < 1e-15 and abs(b - 0.5) < 1e-15


def test_weight_examples_at_zero(regime):
    assert abs(vm.c_weight(0.0, regime)) < 1e-15
    assert abs(vm.b_weight(0.0, regime) - 1.0) < 1e-15


def test_weight_example_trigonometric():
    reg = vm.Regime("trigonometric", math.pi / 2)
    assert abs(vm.c_weight(math.pi / 4, reg) - 1.0) < 1e-15


def test_weight_pole_raises(regime):
    with pytest.raises(SingularWeightError):
        vm.c_weight(-regime.eta, regime)
    with pytest.raises(SingularWeightError):
        vm.b_weight(-regime.eta, regime)
    with pytest.raises(SingularWeightError):
        vm.c_weight_inv(0.0, regime)


def test_regime_rejects_vanishing_phi_eta():
    with pytest.raises(ValueError):
        vm.Regime("rational", 0.0)
    with pytest.raises(ValueError):
        vm.Regime("trigonometric", math.pi)


@pytest.mark.parametrize("family", vm.FAMILIES)
@pytest.mark.parametrize("eta", [math.nan, math.inf, complex(1.0, math.nan), complex(-math.inf, 0.5)])
def test_regime_rejects_non_finite_eta(family, eta):
    with pytest.raises(ValueError, match="eta must be finite"):
        vm.Regime(family, eta)


@pytest.mark.parametrize("family, eta", [("rational", 1.0 - 0.2j), ("trigonometric", 0.7)])
def test_regime_survives_pickle(family, eta):
    regime = vm.Regime(family, eta)
    again = pickle.loads(pickle.dumps(regime))
    assert again == regime and hash(again) == hash(regime) and repr(again) == repr(regime)
    assert (again.phi, again.phi_prime) == (regime.phi, regime.phi_prime)
    assert repr(again.phi_eta) == repr(regime.phi_eta)


def _reference_phi(family, t):
    return t if family == "rational" else cmath.sin(t)


def _reference_phi_prime(family, t):
    return 1.0 + 0.0j if family == "rational" else cmath.cos(t)


@pytest.mark.parametrize("family, eta", [("rational", 1.0 - 0.2j), ("trigonometric", 0.7)])
def test_regime_weights_match_reference_formulas_bit_for_bit(family, eta):
    regime = vm.Regime(family, eta)
    assert repr(regime.phi_eta) == repr(_reference_phi(family, complex(eta)))
    rng = np.random.default_rng(3)
    points = [complex(a, b) for a, b in rng.uniform(-2, 2, (20, 2))] + [0j, complex(-0.0, 0.5)]
    for t in points:
        for arg in (t, np.complex128(t)):
            assert repr(regime.phi(arg)) == repr(_reference_phi(family, arg))
            assert type(regime.phi(arg)) is type(_reference_phi(family, arg))
            assert repr(regime.phi_prime(arg)) == repr(_reference_phi_prime(family, arg))
            b = _reference_phi(family, regime.eta) / _reference_phi(family, arg + regime.eta)
            assert repr(vm.b_weight(arg, regime)) == repr(b)


def test_site_runs_group_bit_identical_neighbours_only():
    a, b = 0.3 + 0.2j, -0.4 + 0.1j
    assert vm.LatticeSpec(4, (a,) * 4).site_runs == ((a, 4),)
    assert vm.LatticeSpec(5, (a, b, a, a, b)).site_runs == ((a, 1), (b, 1), (a, 2), (b, 1))
    # 0.0 == -0.0, but x - t can differ in the sign of a zero, so no run
    signed = vm.LatticeSpec(2, (complex(0.0, 0.5), complex(-0.0, 0.5)))
    assert len(signed.site_runs) == 2
    nan = complex(math.nan, 0.0)
    assert len(vm.LatticeSpec(2, (nan, nan)).site_runs) == 2


def test_vacuum_eigenvalue_with_runs_matches_per_site_product_bit_for_bit(regime):
    generic = make_lattice(5, regime, seed=3)
    xi = list(generic.xi)
    xi[2] = xi[0]
    xi[4] = xi[3]
    lattices = [generic, vm.LatticeSpec(5, (xi[1],) * 5), vm.LatticeSpec(5, tuple(xi))]
    rng = np.random.default_rng(5)
    for lattice in lattices:
        for _ in range(20):
            t = vm.random_spectral_point(lattice, regime, rng)
            for arg in (t, np.complex128(t)):
                want = 1.0 + 0.0j
                for x in lattice.xi:
                    want *= vm.c_weight(x - arg, regime)
                got = vm.vacuum_eigenvalue(arg, lattice, regime)
                assert type(got) is type(want)
                assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


def test_s_matrix_at_equal_arguments_is_permutation(regime):
    s = vm.s_matrix(0.37 + 0.1j, 0.37 + 0.1j, regime)
    assert tc.max_abs_diff(s, PERMUTATION_GATE) < 1e-15


# Near a pole the weights reach 1e5-1e6 and rounding alone exceeds an
# absolute 1e-11, so both residuals are relative to the size of the terms.
@given(t1=complex_box, t2=complex_box)
@example(t1=-1 + 1e-6, t2=0.0)
@settings(max_examples=60, deadline=None)
def test_unitarity_property(t1, t2):
    for regime in (RATIONAL, TRIG):
        try:
            s12 = vm.s_matrix(t1, t2, regime)
            s21 = vm.s_matrix(t2, t1, regime)
        except SingularWeightError:
            continue
        # s12 @ s21 is the identity, so its own size says nothing: the scale
        # is that of the products it sums
        scale = max(1.0, float(np.max(np.abs(s12)) * np.max(np.abs(s21))))
        assert tc.max_abs_diff(s12 @ s21, np.eye(4)) / scale < 1e-11


@given(t1=complex_box, t2=complex_box, t3=complex_box)
@example(t1=0.5j, t2=-0.99999, t3=0.0)
@settings(max_examples=60, deadline=None)
def test_yang_baxter_property(t1, t2, t3):
    for regime in (RATIONAL, TRIG):
        assert yang_baxter_residual(t1, t2, t3, regime) < 1e-11


def yang_baxter_residual(t1, t2, t3, regime):
    try:
        s12 = tc.embed_two_site(vm.s_matrix(t1, t2, regime), 1, 2, 3)
        s13 = tc.embed_two_site(vm.s_matrix(t1, t3, regime), 1, 3, 3)
        s23 = tc.embed_two_site(vm.s_matrix(t2, t3, regime), 2, 3, 3)
    except SingularWeightError:
        return 0.0
    return tc.probe_residual(s12 @ s13 @ s23, s23 @ s13 @ s12)


def test_monodromy_single_site(regime):
    lattice = vm.LatticeSpec(1, (0.21 - 0.05j,))
    t = 0.4 + 0.3j
    got = vm.monodromy_matrix(t, lattice, regime, identity_operator(lattice.length + 1))
    want = tc.embed_two_site(vm.s_matrix(lattice.xi[0], t, regime), 1, 2, 2)
    assert tc.max_abs_diff(got, want) < 1e-15


def test_monodromy_first_factor_permutation_at_t_equals_xi1(regime):
    lattice = vm.LatticeSpec(2, (0.3, -0.2))
    t = lattice.xi[0]
    got = vm.monodromy_matrix(t, lattice, regime, identity_operator(lattice.length + 1))
    want = tc.embed_two_site(PERMUTATION_GATE, 1, 3, 3) @ tc.embed_two_site(
        vm.s_matrix(lattice.xi[1], t, regime), 2, 3, 3
    )
    assert tc.max_abs_diff(got, want) < 1e-15


def test_monodromy_matches_block_path_oracle(regime):
    lattice = make_lattice(3, regime, seed=11)
    t = 0.17 - 0.23j
    got = vm.monodromy_matrix(t, lattice, regime, identity_operator(lattice.length + 1))
    want = monodromy_by_block_paths(t, lattice, regime)
    assert tc.max_abs_diff(got, want) < 1e-13


def test_monodromy_pole_names_site(regime):
    lattice = vm.LatticeSpec(2, (0.3, -0.2))
    t = lattice.xi[1] + regime.eta
    with pytest.raises(SingularWeightError, match="site 2"):
        vm.monodromy_matrix(t, lattice, regime, identity_operator(lattice.length + 1))


def test_entries_single_site(regime):
    # Derived by direct 4x4 contraction: fix aux in/out, read the 2x2 block.
    xi1 = 0.31 + 0.11j
    t = -0.22 + 0.4j
    lattice = vm.LatticeSpec(1, (xi1,))
    ent = dense_entries(t, lattice, regime)
    c = vm.c_weight(xi1 - t, regime)
    b = vm.b_weight(xi1 - t, regime)
    assert tc.max_abs_diff(ent.a, np.diag([c, 1])) < 1e-15
    assert tc.max_abs_diff(ent.d, np.diag([1, c])) < 1e-15
    assert tc.max_abs_diff(ent.b, b * np.array([[0, 0], [1, 0]])) < 1e-15
    assert tc.max_abs_diff(ent.c, b * np.array([[0, 1], [0, 0]])) < 1e-15


def test_vacuum_eigenvalue_homogeneous_example():
    lattice = vm.LatticeSpec(2, (0.0, 0.0))
    vac = tc.vacuum_state(2)
    for t in (0.3, 0.8 + 0.2j, -1.1):
        want = (-t / (1 - t)) ** 2
        assert abs(vm.vacuum_eigenvalue(t, lattice, RATIONAL) - want) < 1e-13
        ent = dense_entries(t, lattice, RATIONAL)
        assert tc.max_abs_diff(ent.a @ vac, want * vac) < 1e-13


def test_vacuum_actions_random(regime):
    for L in (2, 4, 6, 8):
        lattice = make_lattice(L, regime, seed=100 + L)
        rng = np.random.default_rng(3 * L)
        for _ in range(3):
            t = vm.random_spectral_point(lattice, regime, rng)
            ent = dense_entries(t, lattice, regime)
            vac = tc.vacuum_state(L)
            a_t = vm.vacuum_eigenvalue(t, lattice, regime)
            assert tc.max_abs_diff(ent.a @ vac, a_t * vac) < 1e-12 * max(1.0, abs(a_t))
            assert tc.max_abs_diff(ent.d @ vac, vac) < 1e-12
            assert float(np.max(np.abs(ent.c @ vac))) < 1e-12
            bvac = ent.b @ vac
            n_tot = sum(tc.site_operator("number", i, L) for i in range(1, L + 1))
            assert np.allclose(n_tot @ bvac, bvac, atol=1e-12)


def test_entries_convention_check_catches_mislabels(regime):
    lattice = make_lattice(2, regime, seed=7)
    t = 0.9 + 0.1j
    full = vm.monodromy_matrix(t, lattice, regime, identity_operator(lattice.length + 1))
    swapped = vm.MonodromyEntries(
        a=full[0::2, 0::2], b=full[0::2, 1::2], c=full[1::2, 0::2], d=full[1::2, 1::2]
    )
    vac = tc.vacuum_state(2)
    a_t = vm.vacuum_eigenvalue(t, lattice, regime)
    # The deliberately swapped assignment fails the vacuum test.
    assert tc.max_abs_diff(swapped.a @ vac, a_t * vac) > 1e-6


def test_b_operators_commute(regime):
    for L in (2, 4, 6):
        lattice = make_lattice(L, regime, seed=21 + L)
        rng = np.random.default_rng(8 + L)
        t1 = vm.random_spectral_point(lattice, regime, rng)
        t2 = vm.random_spectral_point(lattice, regime, rng)
        b1 = dense_entries(t1, lattice, regime).b
        b2 = dense_entries(t2, lattice, regime).b
        assert tc.max_abs_diff(b1 @ b2, b2 @ b1) < 1e-10


def test_transfer_matrices_commute(regime):
    lattice = make_lattice(4, regime, seed=33)
    rng = np.random.default_rng(9)
    t1 = vm.random_spectral_point(lattice, regime, rng)
    t2 = vm.random_spectral_point(lattice, regime, rng)
    z1 = vm.transfer_matrix(t1, lattice, regime, identity_operator(lattice.length))
    z2 = vm.transfer_matrix(t2, lattice, regime, identity_operator(lattice.length))
    assert tc.max_abs_diff(z1 @ z2, z2 @ z1) < 1e-10


def test_eigenvalue_empty_root_set(regime):
    lattice = make_lattice(3, regime, seed=41)
    t = 0.29 - 0.12j
    lam = vm.transfer_eigenvalue(t, (), lattice, regime)
    assert abs(lam - (vm.vacuum_eigenvalue(t, lattice, regime) + 1.0)) < 1e-14


def test_eigenvalue_closed_case_matches_exact_diagonalization():
    # L=2 homogeneous rational chain, one root at 1/2: eigenvalue -1 at t=0,
    # cross-checked against numpy's full diagonalization of the transfer matrix.
    lattice = vm.LatticeSpec(2, (0.0, 0.0))
    lam = vm.transfer_eigenvalue(0.0, (0.5,), lattice, RATIONAL)
    assert abs(lam - (-1.0)) < 1e-13
    z0 = vm.transfer_matrix(0.0, lattice, RATIONAL, identity_operator(lattice.length))
    eigs = np.linalg.eigvals(z0)
    assert min(abs(e - lam) for e in eigs) < 1e-12


def test_eigenvalue_pole_near_root_raises(regime):
    lattice = make_lattice(2, regime, seed=55)
    with pytest.raises(PoleError, match="shifted"):
        vm.transfer_eigenvalue(0.5 + 1e-10, (0.5,), lattice, regime)


def test_lattice_validation():
    with pytest.raises(ValueError):
        vm.LatticeSpec(2, (0.1,))
    with pytest.raises(ValueError):
        vm.LatticeSpec(0, ())
    # equal parameters hit the zero of phi(xi_1 - xi_2); xi_2 = xi_1 + eta
    # hits the eta-shifted one, phi(xi_1 - xi_2 + eta)
    for xi, message in (
        ((0.0, 0.0), r"phi\(xi_1 - xi_2\) ~ 0"),
        ((0.2, 1.2), r"phi\(xi_1 - xi_2 \+ eta\) ~ 0"),
    ):
        lattice = vm.LatticeSpec(2, xi)
        assert not lattice.is_generic(RATIONAL)
        with pytest.raises(DegenerateParametersError, match=message):
            lattice.require_generic(RATIONAL)
    generic = vm.LatticeSpec(2, (0.2, 0.9))
    assert generic.is_generic(RATIONAL)
    generic.require_generic(RATIONAL)


def _uses_itertools_permutations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "itertools":
            if any(alias.name == "permutations" for alias in node.names):
                return True
        if isinstance(node, ast.Attribute) and node.attr == "permutations":
            return True
    return False


def test_permutations_come_from_the_capped_enumerator():
    # Every M!-term sum takes its orderings from one place, under one cap.
    src = Path(vm.__file__).parent
    users = [
        path.name
        for path in sorted(src.glob("*.py"))
        if _uses_itertools_permutations(ast.parse(path.read_text()))
    ]
    assert users == ["vertex_model.py"]
    assert list(vm.capped_permutations(3)) == list(itertools.permutations(range(3)))
    with pytest.raises(SizeCapError, match=re.escape("sum over 10! terms exceeds cap 9!")):
        vm.capped_permutations(10)
