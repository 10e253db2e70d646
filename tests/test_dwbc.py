import re
import time
import tracemalloc
from fractions import Fraction
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


def _exact(z):
    return Fraction(z.real), Fraction(z.imag)


def _times(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _over(x, y):
    norm = y[0] * y[0] + y[1] * y[1]
    return (x[0] * y[0] + x[1] * y[1]) / norm, (x[1] * y[0] - x[0] * y[1]) / norm


def exact_recurrence(inp):
    """The recurrence in exact rational arithmetic on the double weights
    b_weight and c_weight return: what ``dwbc_sum`` would give with no
    rounding after the weights, as complex pairs of Fractions."""
    mu, q, regime = inp.mu, inp.q, inp.regime
    memo = {}

    def rec(cols):
        if not cols:
            return Fraction(1), Fraction(0)
        if cols not in memo:
            row = mu[len(cols) - 1]
            re_part, im_part = Fraction(0), Fraction(0)
            for i in cols:
                weight = _exact(vm.b_weight(row - q[i], regime))
                for a in cols - {i}:
                    ratio = _over(_exact(vm.c_weight(row - q[a], regime)),
                                  _exact(vm.c_weight(q[i] - q[a], regime)))
                    weight = _times(weight, ratio)
                term = _times(weight, rec(cols - {i}))
                re_part, im_part = re_part + term[0], im_part + term[1]
            memo[cols] = re_part, im_part
        return memo[cols]

    re_part, im_part = rec(frozenset(range(inp.size)))
    return complex(float(re_part), float(im_part))


extended_precision = pytest.mark.skipif(
    np.finfo(np.longdouble).nmant < 63,
    reason="np.longdouble is not 80-bit extended here, so dwbc_sum runs in double",
)


# The pinned bytes below are those of the 80-bit x87 sum: a double or a
# 128-bit long double rounds the terms differently.
x87_long_double = pytest.mark.skipif(
    np.finfo(np.longdouble).nmant != 63,
    reason="PINNED_SUMS are the bytes of the 80-bit extended sum",
)


def assert_sum_near_exact(inp):
    exact = exact_recurrence(inp)
    assert abs(dwbc.dwbc_sum(inp) - exact) <= 1e-12 * abs(exact)


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


@extended_precision
def test_sum_is_exact_on_the_benchmark_draw():
    # rational M = 9 draw 2 of perfbench's domain-wall inputs at seed 7: one
    # generator, M = 1..9, three draws each, rational first.  The terms
    # cancel by a factor 4e7, and a double-precision sum was 1.1e-10 off.
    rng = np.random.default_rng(7)
    for m in range(1, 10):
        for _ in range(3):
            inp = dwbc.random_input(m, RATIONAL, rng)
    assert_sum_near_exact(inp)


@extended_precision
@pytest.mark.slow
@pytest.mark.parametrize("regime, seed", [(RATIONAL, 1148), (TRIG, 1023)], ids=["rat", "trig"])
def test_sum_is_exact_on_cancelling_draws(regime, seed):
    # the worst M = 9 draws of each family over fresh generator seeds
    assert_sum_near_exact(random_input(9, regime, seed))


def test_sum_working_set_is_bounded():
    inp = random_input(9, RATIONAL, seed=3)
    tracemalloc.start()
    try:
        dwbc.dwbc_sum(inp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_empty_input(regime):
    inp = dwbc.DwbcInput((), (), regime)
    assert dwbc.dwbc_sum(inp) == 1.0 + 0.0j
    assert dwbc.dwbc_recurrence(inp) == 1.0 + 0.0j


# repr of dwbc_sum on random_input(m) for m = 1..9, drawn in turn from one
# generator seeded 5; any change to the prefix order, the tables' precision
# or the product order shows here bit for bit.
PINNED_SUMS = {
    "rational": (
        "(0.3142843014404069-0.2633987195722334j)",
        "(-0.8131689400660567+0.7651359919681617j)",
        "(-0.2504216832206554-0.340510216034404j)",
        "(0.21674358631010388-0.03471708864017413j)",
        "(0.4216278611164161+0.1383477656216524j)",
        "(0.08811718287871538+0.11914503884781376j)",
        "(0.2982847392806561-1.3907907500337267j)",
        "(4.755236334255832-5.725284817874464j)",
        "(-4.50059000925112-0.7773567834732599j)",
    ),
    "trigonometric": (
        "(0.3994019571401979-0.09340363221116026j)",
        "(-0.10663322941756961+0.8096852792828015j)",
        "(0.04858052643208118-0.03215916583080695j)",
        "(0.2867276558364405-0.14941319305143616j)",
        "(0.5671281765556031+0.32893740929208204j)",
        "(0.2994339316459291-0.14349691666024397j)",
        "(2.075031452834877-0.811664315453797j)",
        "(7.590198712786203-7.055731738690009j)",
        "(0.4042247426486201-0.3081539785725588j)",
    ),
}


@x87_long_double
def test_sum_values_are_pinned(regime):
    rng = np.random.default_rng(5)
    got = tuple(repr(dwbc.dwbc_sum(dwbc.random_input(m, regime, rng))) for m in range(1, 10))
    assert got == PINNED_SUMS[regime.family]
