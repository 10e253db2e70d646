"""Domain-wall partition function: permutation sum and one-variable recurrence.

The object is a function of M row parameters and M column parameters.  Two
evaluation routes are kept: the explicit sum of per-permutation terms, formed
over the tree of ordered column prefixes, and a recurrence that peels off the
last row while removing one column at a time, memoized over the subset of
surviving columns (2^M states instead of M!).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .vertex_model import (
    _SAMPLING,
    SPECTRAL_GUARD,
    Regime,
    _box_points,
    _draw_until,
    _first_close_pair,
    b_weight,
    c_weight,
    capped_permutations,
)

DISTINCTNESS_FLOOR = 1e-10
# Most prefix-tree nodes ``dwbc_sum`` forms in one level: a level that would
# hold more is expanded in slices of its parent prefixes, so the working set
# stays a few MiB up to the 9! cap.  Below M = 8 no level is sliced.
LEAF_BLOCK = 1 << 15


@dataclass(frozen=True)
class DwbcInput:
    """Row parameters, column parameters and the weight regime."""

    mu: tuple[complex, ...]
    q: tuple[complex, ...]
    regime: Regime

    def __post_init__(self):
        object.__setattr__(self, "mu", tuple(complex(v) for v in self.mu))
        object.__setattr__(self, "q", tuple(complex(v) for v in self.q))
        if len(self.mu) != len(self.q):
            raise ValueError(
                f"{len(self.mu)} row parameters vs {len(self.q)} column parameters"
            )
        if pair := _first_close_pair(self.q, self.regime, DISTINCTNESS_FLOOR):
            i, j = pair
            raise ValueError(
                f"column parameters {i + 1} and {j + 1} coincide: {self.q[i]} ~ {self.q[j]}"
            )

    @property
    def size(self) -> int:
        return len(self.q)


def dwbc_sum(inp: DwbcInput) -> complex:
    """Sum of all M! permutation terms, over the tree of ordered column prefixes.

    The term of P is prod_i b(mu_i - q_{P i}) prod_{j < i} R[i, P i, P j],
    with R[i, p, a] = c(mu_i - q_a) / c(q_p - q_a): row i multiplies a
    length-i prefix by the factor of its next column, so each prefix product
    is formed once and shared by all of its completions.  Tables, products
    and sums are in np.clongdouble: the terms cancel heavily (sum |term| / |Z|
    reaches 4e7 at M = 9), and 80-bit extended precision keeps their rounding
    far below the recurrence's.  Where np.longdouble is double, so is the sum.
    """
    m = inp.size
    capped_permutations(m)  # raises SizeCapError past the cap, before any weight
    mu, q, regime = inp.mu, inp.q, inp.regime
    # each reshape keeps the table two-dimensional at M = 0
    b_tab = np.array(
        [[b_weight(mu[i] - q[p], regime) for p in range(m)] for i in range(m)],
        dtype=np.clongdouble,
    ).reshape(m, m)
    c_row = np.array(
        [[c_weight(mu[i] - q[a], regime) for a in range(m)] for i in range(m)],
        dtype=np.clongdouble,
    ).reshape(m, m)
    c_col = np.array(
        [[c_weight(q[p] - q[a], regime) if p != a else 1.0 for a in range(m)] for p in range(m)],
        dtype=np.clongdouble,
    ).reshape(m, m)
    # ratio[i, p * m + a] = R[i, p, a]; the flat index is at most 80
    ratio = (c_row[:, None, :] / c_col[None, :, :]).reshape(m, m * m)
    # the root prefix: no column taken, every column free, product 1
    paths = np.zeros((0, 1), dtype=np.int8)
    free = np.arange(m, dtype=np.int8).reshape(m, 1)
    return complex(_prefix_sum(paths, free, np.ones(1, dtype=np.clongdouble), b_tab, ratio))


def _prefix_sum(paths, free, values, b_tab, ratio):
    """Sum over every completion of n prefixes of k rows each.

    ``paths`` (k, n) holds the column each row took, ``free`` (M - k, n) the
    columns left, and ``values`` (n,) the partial products: prefix i is
    column i of each, so every row of these arrays is contiguous.
    """
    width, n = free.shape
    if width == 0:  # M = 0: the one empty product
        return values.sum()
    if n * width > LEAF_BLOCK:
        step = LEAF_BLOCK // width
        return sum(
            _prefix_sum(paths[:, s : s + step], free[:, s : s + step], values[s : s + step],
                        b_tab, ratio)
            for s in range(0, n, step)
        )
    k, m = len(paths), len(b_tab)
    row = ratio[k]
    # child r * n + i extends prefix i by its r-th free column
    cols = free.reshape(-1)
    child = np.concatenate((values,) * width)
    child *= b_tab[k].take(cols)
    prefix = np.concatenate((paths,) * width, axis=1)
    for flat in cols * np.int8(m) + prefix:
        child *= row.take(flat)
    if width == 1:
        return child.sum()
    # child r keeps every free column but the r-th: rows keep[:, r] of free
    skip = np.arange(width - 1).reshape(-1, 1)
    keep = skip + (skip >= np.arange(width))
    left = free[keep].reshape(width - 1, width * n)
    return _prefix_sum(np.concatenate((prefix, cols.reshape(1, -1))), left, child, b_tab, ratio)


def dwbc_recurrence(inp: DwbcInput) -> complex:
    """Recursive evaluation removing the last row and one column per level.

    Level k uses row parameter mu_k and sums over the surviving columns i:
    b(mu_k - q_i) * prod_{a != i} c(mu_k - q_a) / c(q_i - q_a) times the
    value one level down without column i.  The empty product is 1, forced
    by consistency with the single-row value b(mu_1 - q_1).
    """
    mu, q, regime = inp.mu, inp.q, inp.regime
    memo: dict[frozenset[int], complex] = {}

    def rec(cols: frozenset[int]) -> complex:
        if not cols:
            return 1.0 + 0.0j
        if cols in memo:
            return memo[cols]
        row = mu[len(cols) - 1]
        total = 0.0 + 0.0j
        for i in cols:
            weight = b_weight(row - q[i], regime)
            for a in cols:
                if a != i:
                    weight *= c_weight(row - q[a], regime)
                    weight /= c_weight(q[i] - q[a], regime)
            total += weight * rec(cols - {i})
        memo[cols] = total
        return total

    return rec(frozenset(range(inp.size)))


def random_input(m: int, regime: Regime, rng) -> DwbcInput:
    """Sample a well-conditioned input from the family's complex box.

    Column parameters keep pairwise phi-separation above the family's pair
    guard and every pool difference stays away from the eta-shifted zeros,
    so both evaluation routes see O(1) weight ratios.
    """
    profile = _SAMPLING[regime.family]
    spread = profile["spread"]
    # |phi| <= guard rejects, as the strict "> guard" acceptance always has
    pair_floor = float(np.nextafter(profile["pair_guard"], np.inf))
    pool = _draw_until(
        lambda: _box_points(rng, 2 * m, spread),
        lambda mu_q: all(
            abs(regime.phi(x - y + regime.eta)) > SPECTRAL_GUARD for x in mu_q for y in mu_q
        )
        and _first_close_pair(mu_q[m:], regime, pair_floor) is None,
        "a generic partition-function input",
    )
    return DwbcInput(pool[:m], pool[m:], regime)
