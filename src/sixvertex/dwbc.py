"""Domain-wall partition function: permutation sum and one-variable recurrence.

The object is a function of M row parameters and M column parameters.  Two
evaluation routes are kept: the explicit sum of per-permutation terms, and a
recurrence that peels off the last row while removing one column at a time,
memoized over the subset of surviving columns (2^M states instead of M!).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import factorial

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
    """Sum of all M! permutation terms, evaluated with gathered weight tables."""
    m = inp.size
    # one row per ordering P, in itertools order, which fixes the summation order
    perms = np.fromiter(
        chain.from_iterable(capped_permutations(m)), np.intp, m * factorial(m)
    ).reshape(factorial(m), m)
    mu, q, regime = inp.mu, inp.q, inp.regime
    b_tab = np.array([[b_weight(mu[i] - q[j], regime) for j in range(m)] for i in range(m)])
    c_tab = np.array([[c_weight(mu[i] - q[j], regime) for j in range(m)] for i in range(m)])
    cq_tab = np.array(
        [
            [c_weight(q[i] - q[j], regime) if i != j else 1.0 for j in range(m)]
            for i in range(m)
        ]
    )
    terms = np.ones(len(perms), dtype=complex)
    for i in range(m):
        terms *= b_tab[i, perms[:, i]]
        for j in range(i):
            terms *= c_tab[i, perms[:, j]]
            terms /= cq_tab[perms[:, i], perms[:, j]]
    return complex(terms.sum())


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
