import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sixvertex import f_basis as fb
from sixvertex import tensor_core as tc
from sixvertex import vertex_model as vm
from sixvertex.config import RunConfig
from sixvertex.errors import DegenerateParametersError
from sixvertex.verify import run_verify

from conftest import RATIONAL, TRIG, make_lattice


def conjugated(op, factorizer):
    return factorizer.f_inv @ op @ factorizer.f


def test_tail_product_last_site_is_identity(regime):
    lattice = make_lattice(3, regime, seed=1)
    assert tc.max_abs_diff(fb.s_tail_product(3, lattice, regime), np.eye(8)) == 0.0


def test_tail_product_single_factor(regime):
    lattice = make_lattice(2, regime, seed=2)
    got = fb.s_tail_product(1, lattice, regime)
    gate = vm.s_matrix(lattice.xi[1], lattice.xi[0], regime)
    assert tc.max_abs_diff(got, tc.embed_two_site(gate, 2, 1, 2)) < 1e-15


def test_tail_product_coinciding_arguments_gives_permutation(regime):
    xi = (0.25 + 0.1j, 0.25 + 0.1j, -0.3)
    lattice = vm.LatticeSpec(3, xi)
    got = fb.s_tail_product(1, lattice, regime)
    first = tc.embed_two_site(tc.PERMUTATION_GATE, 2, 1, 3)
    second = tc.embed_two_site(vm.s_matrix(xi[2], xi[0], regime), 3, 1, 3)
    assert tc.max_abs_diff(got, first @ second) < 1e-14


def test_factorizer_single_site_is_identity(regime):
    lattice = vm.LatticeSpec(1, (0.4,))
    fac = fb.factorizing_operator(lattice, regime)
    assert tc.max_abs_diff(fac.f, np.eye(2)) == 0.0


def test_factorizer_fixes_vacuum(regime):
    for L in (2, 3, 5):
        lattice = make_lattice(L, regime, seed=10 + L)
        fac = fb.factorizing_operator(lattice, regime)
        vac = tc.vacuum_state(L)
        assert tc.max_abs_diff(fac.f @ vac, vac) < 1e-12
        assert tc.max_abs_diff(fac.f @ fac.f_inv, np.eye(1 << L)) < 1e-10


def test_factorization_identity_two_sites(regime):
    lattice = make_lattice(2, regime, seed=31)
    assert fb.factorization_residual(lattice, regime) < 1e-12


def test_factorization_identity_four_sites(regime):
    lattice = make_lattice(4, regime, seed=37)
    assert fb.factorization_residual(lattice, regime) < 1e-10


def test_factorization_with_coinciding_pair(regime):
    # Equal parameters on the first pair: the S factor of that transposition
    # degenerates to the permutation and the identity still holds, as it
    # does for the generic second transposition.
    xi = (0.21 - 0.07j, 0.21 - 0.07j, -0.33 + 0.14j)
    lattice = vm.LatticeSpec(3, xi)
    assert fb.factorization_residual(lattice, regime) < 1e-12


def test_diagonal_a_single_site(regime):
    lattice = vm.LatticeSpec(1, (0.3,))
    t = 0.1 - 0.2j
    want = np.diag([vm.c_weight(0.3 - t, regime), 1.0])
    assert tc.max_abs_diff(fb.diagonal_a(t, lattice, regime), want) < 1e-15
    fac = fb.factorizing_operator(lattice, regime)
    ent = vm.monodromy_entries(t, lattice, regime)
    assert tc.max_abs_diff(conjugated(ent.a, fac), want) < 1e-14


@pytest.mark.parametrize("L", [2, 4, 6])
def test_closed_forms_match_conjugation(L, regime):
    lattice = make_lattice(L, regime, seed=50 + L)
    fac = fb.factorizing_operator(lattice, regime)
    rng = np.random.default_rng(60 + L)
    for _ in range(2):
        t = vm.random_spectral_point(lattice, regime, rng)
        ent = vm.monodromy_entries(t, lattice, regime)
        assert tc.max_abs_diff(conjugated(ent.a, fac), fb.diagonal_a(t, lattice, regime)) < 1e-10
        assert tc.max_abs_diff(conjugated(ent.b, fac), fb.quasilocal_b(t, lattice, regime)) < 1e-10
        assert tc.max_abs_diff(conjugated(ent.c, fac), fb.quasilocal_c(t, lattice, regime)) < 1e-10


def test_conjugated_a_is_diagonal(regime):
    lattice = make_lattice(4, regime, seed=71)
    fac = fb.factorizing_operator(lattice, regime)
    rng = np.random.default_rng(72)
    t = vm.random_spectral_point(lattice, regime, rng)
    af = conjugated(vm.monodromy_entries(t, lattice, regime).a, fac)
    off = af - np.diag(np.diag(af))
    assert float(np.max(np.abs(off))) < 1e-10


def test_site_creation_single_site(regime):
    lattice = vm.LatticeSpec(1, (0.27,))
    t = -0.4 + 0.05j
    want = vm.b_weight(0.27 - t, regime) * np.array([[0, 0], [1, 0]], dtype=complex)
    assert tc.max_abs_diff(fb.site_creation(1, t, lattice, regime), want) < 1e-15


def test_site_creation_sums_to_quasilocal_b(regime):
    lattice = make_lattice(4, regime, seed=81)
    t = 0.13 + 0.21j
    total = sum(fb.site_creation(i, t, lattice, regime) for i in (1, 2, 3, 4))
    assert tc.max_abs_diff(total, fb.quasilocal_b(t, lattice, regime)) < 1e-12


def test_creation_commutes_simply_with_diagonal_a(regime):
    lattice = make_lattice(4, regime, seed=91)
    rng = np.random.default_rng(92)
    t = vm.random_spectral_point(lattice, regime, rng)
    t2 = vm.random_spectral_point(lattice, regime, rng)
    af = fb.diagonal_a(t2, lattice, regime)
    for i in (1, 2, 3, 4):
        b_i = fb.site_creation(i, t, lattice, regime)
        scale = vm.c_weight(lattice.xi[i - 1] - t2, regime)
        assert tc.max_abs_diff(b_i @ af, scale * (af @ b_i)) < 1e-10


def test_exchange_identity_two_sites(regime):
    lattice = make_lattice(2, regime, seed=101)
    assert fb.exchange_residual(1, 2, lattice, regime) < 1e-12
    assert fb.exchange_residual(2, 1, lattice, regime) < 1e-12


def test_exchange_identity_larger_chain(regime):
    lattice = make_lattice(4, regime, seed=103)
    for i in range(1, 5):
        for j in range(1, 5):
            if i != j:
                assert fb.exchange_residual(i, j, lattice, regime) < 1e-11


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_exchange_ratio_reciprocal(seed):
    for regime in (RATIONAL, TRIG):
        lattice = make_lattice(3, regime, seed=seed)
        r_ij = fb.exchange_ratio(1, 3, lattice, regime)
        r_ji = fb.exchange_ratio(3, 1, lattice, regime)
        assert abs(r_ij * r_ji - 1.0) < 1e-10


def test_exchange_rejects_equal_sites(regime):
    lattice = make_lattice(2, regime, seed=107)
    with pytest.raises(ValueError):
        fb.exchange_ratio(1, 1, lattice, regime)


def test_f_matrix_elements_small(regime):
    for L in (2, 3, 4):
        lattice = make_lattice(L, regime, seed=110 + L)
        assert fb.f_matrix_element_residual(lattice, regime) < 1e-11


def test_quasilocal_b_requires_generic_lattice(regime):
    lattice = vm.LatticeSpec(2, (0.2, 0.2))
    with pytest.raises(DegenerateParametersError):
        fb.quasilocal_b(0.1, lattice, regime)


def test_condition_guard_rejects(monkeypatch, regime):
    lattice = make_lattice(3, regime, seed=121)
    monkeypatch.setattr(fb, "CONDITION_LIMIT", 1.0)
    with pytest.raises(DegenerateParametersError, match="ill conditioned"):
        fb.factorizing_operator(lattice, regime)


def test_verify_builds_each_factorizer_once_per_check(monkeypatch, regime):
    # f_factorization, f_matrix_elements and f_closed_forms each build the
    # identity-order factorizer once, f_factorization adds one swapped build
    # per transposition, and only f_closed_forms inverts F.
    L = 6
    identity_order = tuple(range(1, L + 1))
    orders, inverses = [], []
    build, invert = fb._factorizer_for_order, np.linalg.inv

    def counted_build(order, lattice, regime):
        orders.append(tuple(order))
        return build(order, lattice, regime)

    def counted_inv(*args, **kwargs):
        inverses.append(args[0].shape)
        return invert(*args, **kwargs)

    monkeypatch.setattr(fb, "_factorizer_for_order", counted_build)
    monkeypatch.setattr(np.linalg, "inv", counted_inv)
    run_verify(RunConfig(family=regime.family, eta=regime.eta, length=L, magnons=L // 2))
    assert orders.count(identity_order) == 3
    assert len(orders) - orders.count(identity_order) == L - 1
    assert len(inverses) == 1


def _dense_flip(kind, site, t, lattice, regime, occupied, empty):
    # flip operator times the diagonal weight operator, as a dense product
    L = lattice.length
    bits = tc.site_occupations(L)
    diag = np.full(1 << L, vm.b_weight(lattice.xi[site - 1] - t, regime), dtype=complex)
    for k in range(L):
        if k != site - 1:
            diag *= np.where(bits[k] == 1, occupied(k), empty(k))
    return tc.site_operator(kind, site, L) @ np.diag(diag)


@pytest.mark.parametrize("L", [4, 5])
def test_broadcast_flips_and_factorizer_equal_dense_products(L, regime):
    # Scaling 0/1 operators by broadcasting adds only exact zeros, so the
    # closed forms and the factorizer must equal the dense matmul routes
    # exactly, not within a tolerance.
    lattice = make_lattice(L, regime, seed=130 + L)
    xi = lattice.xi
    t = vm.random_spectral_point(lattice, regime, np.random.default_rng(140 + L))
    c, c_inv = vm.c_weight, vm.c_weight_inv
    lower_sum = np.zeros((1 << L, 1 << L), dtype=complex)
    for s in range(1, L + 1):
        raise_s = _dense_flip(
            "raise", s, t, lattice, regime,
            lambda k: 1.0,
            lambda k: c(xi[k] - t, regime) * c_inv(xi[k] - xi[s - 1], regime),
        )
        assert np.array_equal(fb.site_creation(s, t, lattice, regime), raise_s)
        lower_sum += _dense_flip(
            "lower", s, t, lattice, regime,
            lambda k: c_inv(xi[s - 1] - xi[k], regime),
            lambda k: c(xi[k] - t, regime),
        )
    assert np.array_equal(fb.quasilocal_c(t, lattice, regime), lower_sum)

    dense_f = tc.identity_operator(L)
    for s in range(1, L + 1):
        number = tc.site_operator("number", s, L)
        tail = fb.s_tail_product(s, lattice, regime)
        dense_f = dense_f @ ((tc.identity_operator(L) - number) + tail @ number)
    assert np.array_equal(fb.factorizing_operator(lattice, regime).f, dense_f)
