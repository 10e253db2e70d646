import re
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sixvertex import bethe
from sixvertex import coordinate_wf as cw
from sixvertex import vertex_model as vm
from sixvertex.errors import SizeCapError
from sixvertex.tensor_core import index_of_sites

from conftest import RATIONAL, TRIG, make_lattice


def psi_oracle(x, q, lattice, regime):
    """Brute-force amplitude <x_1..x_M| B(q_1)...B(q_M) |0>.

    Built entirely from monodromy blocks applied to the vacuum; shares no
    code with the permutation-sum formula.  Accepts coordinates in any
    (distinct) order, since the bra only depends on the occupied set.
    """
    x = cw.validate_configuration(sorted(x), lattice.length)
    vec = bethe.bethe_vector(q, lattice, regime)
    return complex(vec[index_of_sites(x, lattice.length)])


CLOSED_LATTICE = vm.LatticeSpec(2, (0.0, 0.0))
CLOSED_Q = (0.5,)


def test_phi_values_closed_case():
    # Hand-substituted: c(-1/2) = -1 and b(-1/2) = 2 for the rational
    # eta = 1 weights, so the two amplitudes are -2 and 2.
    assert abs(cw.phi_site(1, 0.5, CLOSED_LATTICE, RATIONAL) - (-2.0)) < 1e-14
    assert abs(cw.phi_site(2, 0.5, CLOSED_LATTICE, RATIONAL) - 2.0) < 1e-14


def test_phi_at_last_site_is_bare_weight(regime):
    lattice = make_lattice(4, regime, seed=1)
    q = 0.21 - 0.34j
    want = vm.b_weight(lattice.xi[3] - q, regime)
    assert abs(cw.phi_site(4, q, lattice, regime) - want) < 1e-14


@given(seed=st.integers(0, 10_000), x=st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_phi_alternate_form_identity(seed, x):
    rng = np.random.default_rng(seed)
    for regime in (RATIONAL, TRIG):
        lattice = make_lattice(5, regime, seed=seed)
        q = vm.random_spectral_point(lattice, regime, rng)
        a = cw.phi_site(x, q, lattice, regime)
        b = cw.phi_site_alt(x, q, lattice, regime)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_formula_single_particle_equals_factor(regime):
    lattice = make_lattice(3, regime, seed=2)
    q = (0.4 + 0.1j,)
    for x in ((1,), (2,), (3,)):
        got = cw.psi_formula(x, q, lattice, regime)
        assert abs(got - cw.phi_site(x[0], q[0], lattice, regime)) < 1e-14


def test_wave_table_closed_case():
    table = cw.wave_table(CLOSED_Q, CLOSED_LATTICE, RATIONAL, "formula")
    assert abs(table.entries[(1,)] - (-2.0)) < 1e-13
    assert abs(table.entries[(2,)] - 2.0) < 1e-13
    oracle = cw.wave_table(CLOSED_Q, CLOSED_LATTICE, RATIONAL, "oracle")
    stat = cw.ratio_statistic(table, oracle)
    assert stat.spread < 1e-14
    assert table.max_abs() > 0.0


def test_oracle_empty_configuration(regime):
    lattice = make_lattice(3, regime, seed=3)
    assert abs(psi_oracle((), (), lattice, regime) - 1.0) < 1e-15


def test_oracle_invariant_under_root_reordering(regime):
    lattice = make_lattice(4, regime, seed=4)
    roots = bethe.solve_bethe_roots(2, lattice, regime, seed=1)
    for x in cw.configurations(4, 2):
        a = psi_oracle(x, roots.q, lattice, regime)
        b = psi_oracle(x, roots.q[::-1], lattice, regime)
        assert abs(a - b) < 1e-10


def test_formula_matches_oracle_solved_roots(regime):
    lattice = make_lattice(4, regime, seed=5)
    roots = bethe.solve_bethe_roots(2, lattice, regime, seed=2)
    formula = cw.wave_table(roots.q, lattice, regime, "formula")
    oracle = cw.wave_table(roots.q, lattice, regime, "oracle")
    stat = cw.ratio_statistic(formula, oracle)
    assert stat.n_used == stat.n_total == 6
    assert stat.spread < 1e-9


def test_formula_matches_oracle_off_shell(regime):
    # The equality of the two routes does not require the roots to solve
    # anything; check at arbitrary generic spectral points.
    lattice = make_lattice(5, regime, seed=6)
    rng = np.random.default_rng(7)
    q = tuple(vm.random_spectral_point(lattice, regime, rng) for _ in range(3))
    formula = cw.wave_table(q, lattice, regime, "formula")
    oracle = cw.wave_table(q, lattice, regime, "oracle")
    assert cw.ratio_statistic(formula, oracle).spread < 1e-9


def test_permutation_sum_partition_sanity(regime):
    # Summing the permutation terms grouped by the image of the first slot
    # reproduces the total.
    lattice = make_lattice(4, regime, seed=8)
    rng = np.random.default_rng(9)
    q = tuple(vm.random_spectral_point(lattice, regime, rng) for _ in range(3))
    x = (1, 3, 4)
    table = [[cw.phi_site(xv, qv, lattice, regime) for qv in q] for xv in x]
    total_by_blocks = 0.0 + 0.0j
    for first in range(3):
        for perm in permutations(range(3)):
            if perm[0] != first:
                continue
            term = cw.perm_amplitude(perm, q, regime)
            for slot in range(3):
                term *= table[slot][perm[slot]]
            total_by_blocks += term
    direct = cw.psi_formula(x, q, lattice, regime)
    assert abs(total_by_blocks - direct) <= 1e-12 * max(1.0, abs(direct))


def psi_loop(x, q, lattice, regime):
    """psi_formula's sum with every factor computed afresh, in its order."""
    table = [[cw.phi_site(xv, qv, lattice, regime) for qv in q] for xv in x]
    total = 0.0 + 0.0j
    for perm in permutations(range(len(q))):
        term = cw.perm_amplitude(perm, q, regime)
        for slot in range(len(q)):
            term *= table[slot][perm[slot]]
        total += term
    return total


def test_formula_wave_table_is_bit_equal_to_the_loop(regime):
    lattice = make_lattice(6, regime, seed=8)
    rng = np.random.default_rng(9)
    q = tuple(vm.random_spectral_point(lattice, regime, rng) for _ in range(3))
    table = cw.wave_table(q, lattice, regime, "formula")
    assert table.entries == {x: psi_loop(x, q, lattice, regime) for x in cw.configurations(6, 3)}


def test_formula_factors_follow_every_argument():
    # Alternate the roots, the lattice and the family: the shared factors
    # of one root set must never serve another call.
    a, b = (make_lattice(5, RATIONAL, seed=s) for s in (8, 9))
    rng = np.random.default_rng(9)
    q1 = tuple(vm.random_spectral_point(a, RATIONAL, rng) for _ in range(2))
    q2 = tuple(vm.random_spectral_point(a, RATIONAL, rng) for _ in range(2))
    calls = [(q1, a, RATIONAL), (q2, a, RATIONAL), (q1, a, RATIONAL), (q1, b, RATIONAL),
             (q1, a, RATIONAL), (q1, a, TRIG), (q1, b, TRIG), (q1, a, RATIONAL)]
    for q, lattice, regime in calls:
        for x in ((1, 3), (2, 5)):
            assert cw.psi_formula(x, q, lattice, regime) == psi_loop(x, q, lattice, regime)


def test_periodicity_single_root_reduces_to_bae():
    check = cw.periodicity_check(CLOSED_Q, CLOSED_LATTICE, RATIONAL)
    assert check.amplitude_residual < 1e-14
    assert check.bae_residual < 1e-14
    perturbed = cw.periodicity_check((0.6,), CLOSED_LATTICE, RATIONAL)
    assert perturbed.amplitude_residual > 1e-3
    assert np.isfinite(perturbed.amplitude_residual)
    # the single-root amplitude condition is the reciprocal of the equation:
    # |1 - 1/a(q)| with a(0.6) = 2.25 gives exactly 5/9
    assert abs(perturbed.amplitude_residual - 5.0 / 9.0) < 1e-12
    assert abs(perturbed.bae_residual - 1.25) < 1e-12


def test_periodicity_solved_roots(regime):
    lattice = make_lattice(5, regime, seed=10)
    roots = bethe.solve_bethe_roots(2, lattice, regime, seed=3)
    check = cw.periodicity_check(roots.q, lattice, regime)
    assert check.amplitude_residual < 1e-9
    assert check.bae_residual < 1e-9


def test_periodicity_covanishes_with_bae(regime):
    lattice = make_lattice(4, regime, seed=11)
    roots = bethe.solve_bethe_roots(2, lattice, regime, seed=4)
    for scale in (0.0, 1e-2, 0.1):
        q = (roots.q[0] + scale, roots.q[1])
        check = cw.periodicity_check(q, lattice, regime)
        assert (check.amplitude_residual < 1e-9) == (check.bae_residual < 1e-9)


TEN_ROOTS = tuple(0.1 * k + 0.05j for k in range(10))
ELEVEN_SITES = vm.LatticeSpec(11, tuple(0.1j * k for k in range(11)))


def test_formula_size_cap(regime, monkeypatch):
    calls = []
    for weight in ("b_weight", "c_weight", "c_weight_inv"):
        monkeypatch.setattr(cw, weight, lambda *args: calls.append(args))
    with pytest.raises(SizeCapError, match=re.escape("sum over 10! terms exceeds cap 9!")):
        cw.psi_formula(tuple(range(1, 11)), TEN_ROOTS, ELEVEN_SITES, regime)
    assert calls == []


def test_periodicity_size_cap_raises_before_any_weight(regime, monkeypatch):
    # 10! orderings are past the one cap: the check stops before any weight.
    calls = []
    monkeypatch.setattr(cw, "c_weight_inv", lambda *args: calls.append(args))
    with pytest.raises(SizeCapError, match=re.escape("sum over 10! terms exceeds cap 9!")):
        cw.periodicity_check(TEN_ROOTS, ELEVEN_SITES, regime)
    assert calls == []


def test_periodicity_of_no_roots_holds_vacuously(regime):
    # The one empty ordering has no first root to take the condition at.
    check = cw.periodicity_check((), make_lattice(4, regime, seed=7), regime)
    assert check == cw.PeriodicityCheck(0.0, 0.0)


def test_configuration_validation(regime):
    lattice = make_lattice(3, regime, seed=13)
    with pytest.raises(ValueError):
        cw.psi_formula((2, 1), (0.1, 0.2), lattice, regime)
    with pytest.raises(ValueError):
        cw.psi_formula((1, 1), (0.1, 0.2), lattice, regime)
    with pytest.raises(ValueError):
        cw.psi_formula((0,), (0.1,), lattice, regime)
    with pytest.raises(ValueError):
        cw.psi_formula((1, 2), (0.1,), lattice, regime)


def test_oracle_accepts_unordered_coordinates(regime):
    # the formula lives in the ordered sector; the oracle just sorts
    lattice = make_lattice(3, regime, seed=16)
    q = (0.3 + 0.2j, -0.4 + 0.1j)
    assert psi_oracle((3, 1), q, lattice, regime) == psi_oracle(
        (1, 3), q, lattice, regime
    )
    with pytest.raises(ValueError):
        psi_oracle((1, 1), q, lattice, regime)


def test_export_wave_tables(tmp_path, regime):
    lattice = make_lattice(3, regime, seed=14)
    roots = bethe.solve_bethe_roots(1, lattice, regime, seed=5)
    formula = cw.wave_table(roots.q, lattice, regime, "formula")
    oracle = cw.wave_table(roots.q, lattice, regime, "oracle")
    out = tmp_path / "wave.txt"
    cw.export_wave_tables([formula, oracle], out, header_comments=["demo"])
    lines = out.read_text().splitlines()
    assert lines[0] == "# demo"
    assert lines[1].split() == ["x_1", "re_psi", "im_psi", "provenance"]
    assert len(lines) == 2 + 2 * 3
    assert not (tmp_path / "wave.txt.tmp").exists()


def test_export_empty_configuration_row(tmp_path, regime):
    lattice = make_lattice(2, regime, seed=15)
    table = cw.wave_table((), lattice, regime, "oracle")
    out = tmp_path / "wave0.txt"
    cw.export_wave_tables([table], out)
    lines = out.read_text().splitlines()
    assert lines[0].split() == ["re_psi", "im_psi", "provenance"]
    assert lines[1].split() == ["1.0", "0.0", "oracle"]


# Off-shell M = 3 roots on the seeded L = 5 lattice: repr of psi_formula on
# every configuration, in order, and of both periodicity residuals.
PINNED_Q = (0.1 + 0.2j, -0.3 + 0.1j, 0.4 - 0.25j)
PINNED_PSI = {
    "rational": (
        "(-0.06206750736157289-0.025056107558448858j)",
        "(0.010434702469071128+0.0007333498627429217j)",
        "(0.16491925651347622-0.05967668187272996j)",
        "(0.037023413349657815+0.019601777824085512j)",
        "(0.1622612845429236+0.19164556631644125j)",
        "(-0.06964554611156555-0.19064836063989862j)",
        "(0.041711880473724+0.05167795782804396j)",
        "(-0.012181704781813275+0.5770138784623777j)",
        "(-0.05218699400359736-0.3561498395602477j)",
        "(0.33538384731839993-0.5796516803654873j)",
    ),
    "trigonometric": (
        "(-0.009877785726243076-0.07860731200898638j)",
        "(0.01981846081966561-0.006268992813218559j)",
        "(0.27273375583101733+0.06229769630865109j)",
        "(0.03711972851609183+0.05068274758632784j)",
        "(-0.022092258010505877+0.3470100969690529j)",
        "(0.05852712136255733-0.21033139490755556j)",
        "(0.05074858581056767+0.056955526642357736j)",
        "(-0.13181714499353706+0.5208683000881281j)",
        "(-0.13509151187225793-0.4005920617079366j)",
        "(0.31876432188856746-0.5034366773115027j)",
    ),
}
PINNED_PERIODICITY = {
    "rational": ("27.277407776870653", "6.18993747597463"),
    "trigonometric": ("8.322381989168608", "4.453194511923364"),
}


def test_formula_values_are_pinned(regime):
    lattice = make_lattice(5, regime, seed=21)
    got = tuple(
        repr(cw.psi_formula(x, PINNED_Q, lattice, regime)) for x in cw.configurations(5, 3)
    )
    assert got == PINNED_PSI[regime.family]


def test_periodicity_values_are_pinned(regime):
    check = cw.periodicity_check(PINNED_Q, make_lattice(5, regime, seed=21), regime)
    got = (repr(check.amplitude_residual), repr(check.bae_residual))
    assert got == PINNED_PERIODICITY[regime.family]
