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


def test_size_cap(regime):
    inp = random_input(4, regime, seed=7)
    with pytest.raises(SizeCapError):
        dwbc.dwbc_sum(inp, cap=3)


def test_empty_input(regime):
    inp = dwbc.DwbcInput((), (), regime)
    assert dwbc.dwbc_sum(inp) == 1.0 + 0.0j
    assert dwbc.dwbc_recurrence(inp) == 1.0 + 0.0j
