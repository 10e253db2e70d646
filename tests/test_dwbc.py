import re
import time
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sixvertex import dwbc
from sixvertex import vertex_model as vm
from sixvertex.errors import SizeCapError

from conftest import RATIONAL, TRIG


def dwbc_term(perm, inp):
    """Single permutation term, the reference for ``dwbc_sum``:

    prod_i b(mu_i - q_{P i}) * prod_{i > j} c(mu_i - q_{P j})
    / prod_{i > j} c(q_{P i} - q_{P j}).
    """
    mu, q, regime = inp.mu, inp.q, inp.regime
    out = 1.0 + 0.0j
    for i in range(inp.size):
        out *= vm.b_weight(mu[i] - q[perm[i]], regime)
        for j in range(i):
            out *= vm.c_weight(mu[i] - q[perm[j]], regime)
            out /= vm.c_weight(q[perm[i]] - q[perm[j]], regime)
    return out


def random_input(m, regime, seed):
    return dwbc.random_input(m, regime, np.random.default_rng(seed))


def test_single_row(regime):
    inp = dwbc.DwbcInput((0.3 + 0.1j,), (-0.2 + 0.4j,), regime)
    want = vm.b_weight(inp.mu[0] - inp.q[0], regime)
    assert abs(dwbc_term((0,), inp) - want) < 1e-15
    assert abs(dwbc.dwbc_sum(inp) - want) < 1e-15
    assert abs(dwbc.dwbc_recurrence(inp) - want) < 1e-15


def test_two_rows_identity_permutation_term(regime):
    inp = random_input(2, regime, seed=1)
    mu, q = inp.mu, inp.q
    want = (
        vm.b_weight(mu[0] - q[0], regime)
        * vm.b_weight(mu[1] - q[1], regime)
        * vm.c_weight(mu[1] - q[0], regime)
        / vm.c_weight(q[1] - q[0], regime)
    )
    assert abs(dwbc_term((0, 1), inp) - want) < 1e-14


def test_sum_equals_sum_of_terms(regime):
    for m in (2, 3, 4):
        inp = random_input(m, regime, seed=10 + m)
        direct = sum(dwbc_term(p, inp) for p in permutations(range(m)))
        fast = dwbc.dwbc_sum(inp)
        assert abs(direct - fast) <= 1e-12 * max(1.0, abs(direct))


@given(seed=st.integers(0, 100_000), m=st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_sum_equals_recurrence_property(seed, m):
    for regime in (RATIONAL, TRIG):
        inp = random_input(m, regime, seed=seed)
        total = dwbc.dwbc_sum(inp)
        rec = dwbc.dwbc_recurrence(inp)
        assert abs(total - rec) <= 1e-10 * max(1.0, abs(total))


def test_recurrence_matches_720_term_sum(regime):
    inp = random_input(6, regime, seed=99)
    t0 = time.perf_counter()
    total = dwbc.dwbc_sum(inp)
    t_sum = time.perf_counter() - t0
    t0 = time.perf_counter()
    rec = dwbc.dwbc_recurrence(inp)
    t_rec = time.perf_counter() - t0
    assert abs(total - rec) / abs(total) < 1e-11
    print(f"M=6 {regime.family}: sum {t_sum * 1e3:.2f} ms, recurrence {t_rec * 1e3:.2f} ms")


@given(seed=st.integers(0, 100_000))
@settings(max_examples=30, deadline=None)
def test_total_invariant_under_column_reordering(seed):
    rng = np.random.default_rng(seed + 1)
    for regime in (RATIONAL, TRIG):
        inp = random_input(3, regime, seed=seed)
        sigma = rng.permutation(3)
        shuffled = dwbc.DwbcInput(inp.mu, tuple(inp.q[s] for s in sigma), regime)
        a = dwbc.dwbc_sum(inp)
        b = dwbc.dwbc_sum(shuffled)
        assert abs(a - b) <= 1e-11 * max(1.0, abs(a))


def test_rejects_coinciding_columns(regime):
    with pytest.raises(ValueError):
        dwbc.DwbcInput((0.1, 0.2), (0.3, 0.3), regime)


def test_rejects_length_mismatch(regime):
    with pytest.raises(ValueError):
        dwbc.DwbcInput((0.1,), (0.3, 0.4), regime)


def test_size_cap(regime, monkeypatch):
    mu, q = tuple(0.1j * k for k in range(10)), tuple(0.1 * k for k in range(10))
    inp = dwbc.DwbcInput(mu, q, regime)
    calls = []
    monkeypatch.setattr(dwbc, "b_weight", lambda *args: calls.append(args))
    monkeypatch.setattr(dwbc, "c_weight", lambda *args: calls.append(args))
    with pytest.raises(SizeCapError, match=re.escape("sum over 10! terms exceeds cap 9!")):
        dwbc.dwbc_sum(inp)
    assert calls == []


def test_empty_input(regime):
    inp = dwbc.DwbcInput((), (), regime)
    assert dwbc.dwbc_sum(inp) == 1.0 + 0.0j
    assert dwbc.dwbc_recurrence(inp) == 1.0 + 0.0j


# repr of dwbc_sum on random_input(m) for m = 1..9, drawn in turn from one
# generator seeded 5; any change to the permutation order, the gathered
# tables or the product order shows here bit for bit.
PINNED_SUMS = {
    "rational": (
        "(0.3142843014404069-0.2633987195722334j)",
        "(-0.8131689400660568+0.7651359919681617j)",
        "(-0.2504216832206555-0.34051021603440434j)",
        "(0.21674358631010388-0.0347170886401741j)",
        "(0.4216278611164167+0.13834776562165269j)",
        "(0.08811718287871526+0.1191450388478135j)",
        "(0.2982847392806578-1.3907907500337267j)",
        "(4.755236334255949-5.725284817874514j)",
        "(-4.500590009251297-0.7773567834732868j)",
    ),
    "trigonometric": (
        "(0.3994019571401979-0.09340363221116026j)",
        "(-0.1066332294175696+0.8096852792828018j)",
        "(0.0485805264320813-0.03215916583080698j)",
        "(0.28672765583644044-0.14941319305143622j)",
        "(0.5671281765556028+0.3289374092920825j)",
        "(0.29943393164592946-0.14349691666024478j)",
        "(2.075031452834883-0.8116643154538017j)",
        "(7.590198712786069-7.055731738690071j)",
        "(0.4042247426486155-0.3081539785725622j)",
    ),
}


def test_sum_values_are_pinned(regime):
    rng = np.random.default_rng(5)
    got = tuple(repr(dwbc.dwbc_sum(dwbc.random_input(m, regime, rng))) for m in range(1, 10))
    assert got == PINNED_SUMS[regime.family]
