from math import comb

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

from conftest import PERMUTATION_GATE, RATIONAL, TRIG, make_lattice
from dense_routes import (
    assert_close_to_dense,
    closed_forms_dense_residual,
    commutation_dense_residual,
    conjugated,
    dense_a,
    dense_b,
    dense_creation,
    dense_entries,
    dense_f,
    dense_factorizer,
    dense_flip_sum,
    exchange_dense_residual,
    f_matrix_element_dense_residual,
    factorization_dense_residual,
    site_occupations,
    tail_columns,
)


def test_tail_product_last_site_is_identity(regime):
    lattice = make_lattice(3, regime, seed=1)
    got, before_tail = tail_columns(dense_f(lattice, regime), 3)
    assert np.array_equal(got, before_tail)


def test_tail_product_single_factor(regime):
    lattice = make_lattice(2, regime, seed=2)
    gate = vm.s_matrix(lattice.xi[1], lattice.xi[0], regime)
    number = tc.site_operator("number", 1, 2)
    want = (np.eye(4) - number) + tc.embed_two_site(gate, 2, 1, 2) @ number
    assert tc.max_abs_diff(dense_f(lattice, regime), want) < 1e-15


def test_tail_product_coinciding_arguments_gives_permutation(regime):
    xi = (0.25 + 0.1j, 0.25 + 0.1j, -0.3)
    lattice = vm.LatticeSpec(3, xi)
    # F is singular here, so it is built without the condition guard
    f = dense_f(lattice, regime)
    got, before_tail = tail_columns(f, 1)
    first = tc.embed_two_site(PERMUTATION_GATE, 2, 1, 3)
    second = tc.embed_two_site(vm.s_matrix(xi[2], xi[0], regime), 3, 1, 3)
    assert tc.max_abs_diff(got, first @ second @ before_tail) < 1e-14


def test_factorizer_single_site_is_identity(regime):
    lattice = vm.LatticeSpec(1, (0.4,))
    assert tc.max_abs_diff(dense_f(lattice, regime), np.eye(2)) == 0.0


def test_factorizer_fixes_vacuum(regime):
    for L in (2, 3, 5):
        lattice = make_lattice(L, regime, seed=10 + L)
        f = dense_f(lattice, regime)
        vac = tc.vacuum_state(L)
        assert tc.max_abs_diff(f @ vac, vac) < 1e-12
        assert tc.max_abs_diff(f @ np.linalg.inv(f), np.eye(1 << L)) < 1e-10


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
    assert tc.max_abs_diff(dense_a(t, lattice, regime), want) < 1e-15
    ent = dense_entries(t, lattice, regime)
    assert tc.max_abs_diff(conjugated(ent.a, dense_f(lattice, regime)), want) < 1e-14


@pytest.mark.parametrize("L", [2, 4, 6])
def test_closed_forms_match_conjugation(L, regime):
    lattice = make_lattice(L, regime, seed=50 + L)
    f = dense_f(lattice, regime)
    rng = np.random.default_rng(60 + L)
    for _ in range(2):
        t = vm.random_spectral_point(lattice, regime, rng)
        assert closed_forms_dense_residual(f, t, lattice, regime) < 1e-10


def test_conjugated_a_is_diagonal(regime):
    lattice = make_lattice(4, regime, seed=71)
    rng = np.random.default_rng(72)
    t = vm.random_spectral_point(lattice, regime, rng)
    af = conjugated(dense_entries(t, lattice, regime).a, dense_f(lattice, regime))
    off = af - np.diag(np.diag(af))
    assert float(np.max(np.abs(off))) < 1e-10


def test_site_creation_single_site(regime):
    lattice = vm.LatticeSpec(1, (0.27,))
    t = -0.4 + 0.05j
    want = vm.b_weight(0.27 - t, regime) * np.array([[0, 0], [1, 0]], dtype=complex)
    assert tc.max_abs_diff(dense_creation(1, t, lattice, regime), want) < 1e-15


def test_site_creation_sums_to_quasilocal_b(regime):
    lattice = make_lattice(4, regime, seed=81)
    t = 0.13 + 0.21j
    stack = fb.quasilocal_b(t, lattice, regime)
    assert np.array_equal(stack, [fb.site_creation(i, t, lattice, regime) for i in (1, 2, 3, 4)])
    total = sum(dense_creation(i, t, lattice, regime) for i in (1, 2, 3, 4))
    assert tc.max_abs_diff(total, dense_b(t, lattice, regime)) < 1e-12


def test_creation_commutes_simply_with_diagonal_a(regime):
    lattice = make_lattice(4, regime, seed=91)
    rng = np.random.default_rng(92)
    t = vm.random_spectral_point(lattice, regime, rng)
    t2 = vm.random_spectral_point(lattice, regime, rng)
    assert commutation_dense_residual(t, t2, lattice, regime) < 1e-10
    assert fb.commutation_residual(t, t2, lattice, regime) < 1e-10


def test_exchange_identity_two_sites(regime):
    # covers both orders, (1, 2) and (2, 1)
    lattice = make_lattice(2, regime, seed=101)
    assert fb.exchange_residual(lattice, regime) < 1e-12


def test_exchange_identity_larger_chain(regime):
    lattice = make_lattice(4, regime, seed=103)
    assert fb.exchange_residual(lattice, regime) < 1e-11


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
        assert f_matrix_element_dense_residual(lattice, regime) < 1e-11


def test_quasilocal_b_requires_generic_lattice(regime):
    lattice = vm.LatticeSpec(2, (0.2, 0.2))
    with pytest.raises(DegenerateParametersError):
        fb.quasilocal_b(0.1, lattice, regime)


def test_condition_guard_rejects(monkeypatch, regime):
    lattice = make_lattice(3, regime, seed=121)
    monkeypatch.setattr(fb, "CONDITION_LIMIT", 1.0)
    with pytest.raises(DegenerateParametersError, match="ill conditioned"):
        fb.factorizing_operator(lattice, regime)


def test_singular_factorizer_is_rejected_as_ill_conditioned(regime):
    # Coinciding xi_1 = xi_2 make F exactly singular; the failed inverse must
    # surface as the typed condition error, not numpy's LinAlgError.
    lattice = vm.LatticeSpec(3, (0.25 + 0.1j, 0.25 + 0.1j, -0.3))
    with pytest.raises(DegenerateParametersError, match="ill conditioned"):
        fb.factorizing_operator(lattice, regime)
    report = run_verify(
        RunConfig(family=regime.family, eta=regime.eta, length=3, magnons=1, xi=lattice.xi)
    )
    closed = next(r for r in report.results if r.name == "f_closed_forms")
    assert not closed.passed
    assert closed.note.startswith("DegenerateParametersError: factorizing operator ill conditioned")


def spy_on_verify(monkeypatch, regime, L, magnons):
    """(order, column count) of every ``apply_factorizer`` call and the shape
    of every ``np.linalg.inv`` argument during one ``run_verify``."""
    applied, inverted = [], []
    apply, invert = fb.apply_factorizer, np.linalg.inv

    def counted_apply(order, block, lattice, regime):
        applied.append((tuple(order), np.shape(block)[1]))
        return apply(order, block, lattice, regime)

    def counted_inv(*args, **kwargs):
        inverted.append(args[0].shape)
        return invert(*args, **kwargs)

    monkeypatch.setattr(fb, "apply_factorizer", counted_apply)
    monkeypatch.setattr(np.linalg, "inv", counted_inv)
    run_verify(RunConfig(family=regime.family, eta=regime.eta, length=L, magnons=magnons))
    return applied, inverted


def test_verify_builds_each_factorizer_once_per_check(monkeypatch, regime):
    # f_closed_forms builds the identity-order factorizer once, on the
    # sector-packed identity of C(6, 3) = 20 columns, and is the only check
    # that inverts F, one sector block per particle number;
    # f_factorization and f_matrix_elements apply the factorizers only to
    # probe vectors.
    L = 6
    applied, inverted = spy_on_verify(monkeypatch, regime, L, L // 2)
    builds = [order for order, width in applied if width != fb.PROBES]
    assert builds == [tuple(range(1, L + 1))]
    assert sorted(width for _, width in applied)[-1] == comb(L, L // 2)
    assert inverted == [(comb(L, m), comb(L, m)) for m in range(L + 1)]


def test_nine_site_verify_never_forms_a_full_size_factorizer(monkeypatch, regime):
    # The largest sector, C(9, 4) = 126 states, bounds every block that is
    # built or inverted; the full space has 512.
    applied, inverted = spy_on_verify(monkeypatch, regime, 9, 3)
    assert max(width for _, width in applied) == comb(9, 4)
    assert max(max(shape) for shape in inverted) == comb(9, 4)
    assert len(inverted) == 10


@pytest.mark.parametrize("L", range(1, 9))
def test_sector_blocks_are_the_dense_factorizer(L, regime):
    # Exactly the dense oracle's blocks, with nothing of the oracle outside
    # them; the condition number and the blockwise action agree with it.
    # At L = 3 each gate product of the packed build has 6 columns, against
    # the oracle's 16, and BLAS may round a complex product whose column
    # count is no multiple of 4 apart in the last bit; there the blocks
    # agree to rounding.  From L = 4 on both counts are multiples of 4.
    lattice = make_lattice(L, regime, seed=200 + L)
    fac = fb.factorizing_operator(lattice, regime)
    f = dense_f(lattice, regime)
    occupied = sum(site_occupations(L))
    off_block = np.ones(f.shape, dtype=bool)
    assert len(fac.sectors) == L + 1
    for m, (states, block) in enumerate(fac.sectors):
        assert np.array_equal(states, np.flatnonzero(occupied == m))
        if L == 3:
            assert_close_to_dense(block, f[np.ix_(states, states)])
        else:
            assert np.array_equal(block, f[np.ix_(states, states)])
        off_block[np.ix_(states, states)] = False
    assert not np.any(f[off_block])
    dense_cond = np.linalg.norm(f, 1) * np.linalg.norm(np.linalg.inv(f), 1)
    assert abs(fac.cond1 - dense_cond) <= 1e-12 * dense_cond
    probes = fb.probe_block(L)
    assert_close_to_dense(fac.apply(probes), f @ probes)


def _dense_flip(kind, site, t, lattice, regime, occupied, empty):
    # flip operator times the diagonal weight operator, as a dense product
    L = lattice.length
    bits = site_occupations(L)
    diag = np.full(1 << L, vm.b_weight(lattice.xi[site - 1] - t, regime), dtype=complex)
    for k in range(L):
        if k != site - 1:
            diag *= np.where(bits[k] == 1, occupied(k), empty(k))
    return tc.site_operator(kind, site, L) @ np.diag(diag)


@pytest.mark.parametrize("L", [4, 5])
def test_broadcast_flips_and_factorizer_equal_dense_products(L, regime):
    # The dense closed forms rebuilt from the weight data, each flip scaled
    # by broadcasting, must equal the dense matmul routes exactly: scaling a
    # 0/1 operator adds only exact zeros.  F, applied to the identity gate by
    # gate, agrees with the dense product of its factors to rounding.
    lattice = make_lattice(L, regime, seed=130 + L)
    xi = lattice.xi
    t = vm.random_spectral_point(lattice, regime, np.random.default_rng(140 + L))
    c, c_inv = vm.c_weight, vm.c_weight_inv
    raise_sum = lower_sum = 0
    for s in range(1, L + 1):
        raise_s = _dense_flip(
            "raise", s, t, lattice, regime,
            lambda k: 1.0,
            lambda k: c(xi[k] - t, regime) * c_inv(xi[k] - xi[s - 1], regime),
        )
        assert np.array_equal(dense_creation(s, t, lattice, regime), raise_s)
        raise_sum = raise_sum + raise_s
        lower_sum = lower_sum + _dense_flip(
            "lower", s, t, lattice, regime,
            lambda k: c_inv(xi[s - 1] - xi[k], regime),
            lambda k: c(xi[k] - t, regime),
        )
    assert np.array_equal(dense_flip_sum("raise", fb.quasilocal_b(t, lattice, regime)), raise_sum)
    assert np.array_equal(dense_flip_sum("lower", fb.quasilocal_c(t, lattice, regime)), lower_sum)
    want_a = np.ones(1 << L, dtype=complex)
    for k, bits in enumerate(site_occupations(L)):
        want_a = want_a * np.where(bits == 1, 1.0, c(xi[k] - t, regime))
    assert np.array_equal(dense_a(t, lattice, regime), np.diag(want_a))

    product = dense_factorizer(tuple(range(1, L + 1)), lattice, regime)
    assert_close_to_dense(dense_f(lattice, regime), product)


def _routes(lattice, regime, rng):
    """Residual of each F-basis identity by the library's route and by the
    dense oracle: (name, new route, dense route, tolerance of the check)."""
    fac = fb.factorizing_operator(lattice, regime)
    t, t2 = (vm.random_spectral_point(lattice, regime, rng) for _ in range(2))
    return (
        ("f_factorization", fb.factorization_residual(lattice, regime),
         factorization_dense_residual(lattice, regime), 1e-10),
        ("f_closed_forms", fb.closed_forms_residual(fac, t, lattice, regime),
         closed_forms_dense_residual(dense_f(lattice, regime), t, lattice, regime), 1e-10),
        ("creation_commutation", fb.commutation_residual(t, t2, lattice, regime),
         commutation_dense_residual(t, t2, lattice, regime), 1e-10),
        ("creation_exchange", fb.exchange_residual(lattice, regime),
         exchange_dense_residual(lattice, regime), 1e-10),
    )


@pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
def test_weight_and_probe_routes_agree_with_dense_oracles(L, regime):
    lattice = make_lattice(L, regime, seed=150 + L)
    for name, new, dense, tol in _routes(lattice, regime, np.random.default_rng(160 + L)):
        assert new < tol, f"{name}: route residual {new:.3e}"
        assert dense < tol, f"{name}: dense residual {dense:.3e}"


def _doubled(fn):
    return lambda *args: 2.0 * fn(*args)


def _shifted_a(fn):
    return lambda t, lattice, regime: fn(t + 0.3, lattice, regime)


def _reversed_gate(site, lattice, regime):
    return vm.s_matrix(lattice.xi[site - 1], lattice.xi[site], regime)


def _inverted(fn):
    return lambda *args: 1.0 / fn(*args)


# A wrong identity: (patched f_basis name, its replacement, check it breaks)
MUTATIONS = {
    "b_weights_doubled": ("quasilocal_b", _doubled(fb.quasilocal_b), "f_closed_forms"),
    "c_weights_doubled": ("quasilocal_c", _doubled(fb.quasilocal_c), "f_closed_forms"),
    "s_arguments_swapped": ("transposition_gate", _reversed_gate, "f_factorization"),
    "exchange_ratio_inverted": (
        "exchange_ratio", _inverted(fb.exchange_ratio), "creation_exchange"
    ),
    "a_at_shifted_point": ("diagonal_a", _shifted_a(fb.diagonal_a), "creation_commutation"),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("L", [3, 5])
def test_wrong_identity_fails_both_routes(mutation, L, monkeypatch, regime):
    name, replacement, broken = MUTATIONS[mutation]
    monkeypatch.setattr(fb, name, replacement)
    lattice = make_lattice(L, regime, seed=170 + L)
    for check, new, dense, _ in _routes(lattice, regime, np.random.default_rng(180 + L)):
        if check == broken:
            assert new > 1e-3, f"{check}: route residual {new:.3e}"
            assert dense > 1e-3, f"{check}: dense residual {dense:.3e}"


def _shifted_entries(fn):
    return lambda t, *args: fn(t + 0.05, *args)


def _swapped_first_pair(fn):
    return lambda order, *args: fn((order[1], order[0]) + tuple(order[2:]), *args)


# A wrong matrix-element identity: (patched f_basis name, its replacement)
F_MATRIX_MUTATIONS = {
    "b_at_shifted_points": ("monodromy_entries", _shifted_entries(fb.monodromy_entries)),
    "f_in_swapped_order": ("apply_factorizer", _swapped_first_pair(fb.apply_factorizer)),
}


@pytest.mark.parametrize("mutation", sorted(F_MATRIX_MUTATIONS))
@pytest.mark.parametrize("L", [3, 5])
def test_wrong_matrix_element_identity_fails_both_routes(mutation, L, monkeypatch, regime):
    # A reversed B order is no mutant: the B(xi_n) commute.
    name, replacement = F_MATRIX_MUTATIONS[mutation]
    lattice = make_lattice(L, regime, seed=190 + L)
    assert fb.f_matrix_element_residual(lattice, regime) < 1e-10
    monkeypatch.setattr(fb, name, replacement)
    probe = fb.f_matrix_element_residual(lattice, regime)
    dense = f_matrix_element_dense_residual(lattice, regime)
    assert probe >= 0.1, f"probe residual {probe:.3e}"
    assert dense >= 0.1, f"dense residual {dense:.3e}"


def test_rational_nine_site_verify_passes_every_check():
    # Conjugating with a numerical inverse of F failed f_closed_forms here
    # (1.467e-10 against 1e-10) though the identity holds.
    report = run_verify(RunConfig(family="rational", eta=1.0, length=9, magnons=3, seed=7))
    failed = [(r.name, r.residual, r.note) for r in report.results if not r.passed]
    assert len(report.results) == 14 and failed == []


def test_report_names_route_and_condition(regime):
    report = run_verify(RunConfig(family=regime.family, eta=regime.eta, length=4, magnons=2))
    params = {r.name: r.params for r in report.results}
    for name in ("f_factorization", "f_matrix_elements", "f_closed_forms"):
        assert params[name]["route"] == "probe" and params[name]["probes"] == str(fb.PROBES)
    for name in ("creation_commutation", "creation_exchange"):
        assert params[name]["route"] == "weights" and "probes" not in params[name]
    assert float(params["f_closed_forms"]["cond1_F"]) >= 1.0
