"""Coordinate-space wave function: permutation-sum formula, oracle, periodicity.

Amplitudes live on ordered configurations x_1 < ... < x_M of occupied sites.
Two independent evaluation routes are kept side by side: the closed
permutation sum over single-particle factors, and the brute-force matrix
element of a product of creation blocks against the vacuum.  Their ratio is
measured, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from .bethe import bae_residuals, bethe_vector
from .tensor_core import index_of_sites
from .textio import write_text_atomic
from .vertex_model import (
    LatticeSpec,
    Regime,
    b_weight,
    c_weight,
    c_weight_inv,
    capped_permutations,
)

# Oracle entries below this fraction of max|oracle| are left out of the ratio.
RATIO_FLOOR_SCALE = 1e-12


def validate_configuration(x, n_sites: int) -> tuple[int, ...]:
    """Check that an occupied-site configuration lies in 1..n_sites and is
    strictly increasing: the sector the permutation-sum formula lives in."""
    x = tuple(int(v) for v in x)
    for v in x:
        if not 1 <= v <= n_sites:
            raise ValueError(f"site {v} out of range 1..{n_sites}")
    if any(a >= b for a, b in zip(x, x[1:])):
        raise ValueError(f"configuration must be strictly increasing, got {x}")
    return x


def configurations(n_sites: int, n_particles: int):
    """All ordered configurations of n_particles sites out of 1..n_sites."""
    return combinations(range(1, n_sites + 1), n_particles)


def phi_site(x: int, q: complex, lattice: LatticeSpec, regime: Regime) -> complex:
    """Single-particle factor: prod_{l > x} c(xi_l - q) times b(xi_x - q)."""
    out = b_weight(lattice.xi[x - 1] - q, regime)
    for l in range(x + 1, lattice.length + 1):
        out *= c_weight(lattice.xi[l - 1] - q, regime)
    return out


def phi_site_alt(x: int, q: complex, lattice: LatticeSpec, regime: Regime) -> complex:
    """Same factor rearranged: full c-product times inverse head factors.

    Needs c(xi_l - q) != 0 for l <= x; equal to ``phi_site`` wherever both
    are defined.
    """
    out = 1.0 + 0.0j
    for xi_l in lattice.xi:
        out *= c_weight(xi_l - q, regime)
    out *= c_weight_inv(lattice.xi[x - 1] - q, regime)
    out *= b_weight(lattice.xi[x - 1] - q, regime)
    for l in range(1, x):
        out *= c_weight_inv(lattice.xi[l - 1] - q, regime)
    return out


def perm_amplitude(perm, q, regime: Regime) -> complex:
    """Permutation amplitude: prod_{i > j} 1 / c(q_{P i} - q_{P j})."""
    out = 1.0 + 0.0j
    for i in range(len(perm)):
        for j in range(i):
            out *= c_weight_inv(q[perm[i]] - q[perm[j]], regime)
    return out


@lru_cache(maxsize=1)
def _formula_factors(q: tuple, lattice: LatticeSpec, regime: Regime):
    """(ordering, amplitude) pairs in itertools order, and the L x M table
    of phi_site values, for one root set: a wave table's C(L, M) calls to
    ``psi_formula`` share them, so each is computed once per root set."""
    orderings = tuple(
        (perm, perm_amplitude(perm, q, regime)) for perm in capped_permutations(len(q))
    )
    sites = tuple(
        tuple(phi_site(x, qv, lattice, regime) for qv in q)
        for x in range(1, lattice.length + 1)
    )
    return orderings, sites


def psi_formula(x, q, lattice: LatticeSpec, regime: Regime) -> complex:
    """Wave-function amplitude as the sum over permutations of the roots."""
    x = validate_configuration(x, lattice.length)
    q = tuple(complex(v) for v in q)
    if len(x) != len(q):
        raise ValueError(f"{len(x)} coordinates vs {len(q)} roots")
    m = len(q)
    orderings, sites = _formula_factors(q, lattice, regime)
    table = [sites[xv - 1] for xv in x]
    total = 0.0 + 0.0j
    for perm, amplitude in orderings:
        term = amplitude
        for slot in range(m):
            term *= table[slot][perm[slot]]
        total += term
    return total


@dataclass
class WaveTable:
    """Amplitudes over all ordered configurations, tagged with their source."""

    n_sites: int
    n_particles: int
    provenance: str
    entries: dict[tuple[int, ...], complex] = field(default_factory=dict)

    def max_abs(self) -> float:
        if not self.entries:
            return 0.0
        return max(abs(v) for v in self.entries.values())


def wave_table(q, lattice: LatticeSpec, regime: Regime, provenance: str = "formula") -> WaveTable:
    """Tabulate the wave function over every ordered configuration."""
    if provenance not in ("formula", "oracle"):
        raise ValueError(f"provenance must be formula or oracle, got {provenance!r}")
    q = tuple(complex(v) for v in q)
    table = WaveTable(lattice.length, len(q), provenance)
    if provenance == "oracle":
        vec = bethe_vector(q, lattice, regime)
        for x in configurations(lattice.length, len(q)):
            table.entries[x] = complex(vec[index_of_sites(x, lattice.length)])
    else:
        for x in configurations(lattice.length, len(q)):
            table.entries[x] = psi_formula(x, q, lattice, regime)
    return table


@dataclass(frozen=True)
class RatioStatistic:
    """Formula/oracle ratio over configurations with non-negligible oracle."""

    constant: complex
    spread: float
    n_used: int
    n_total: int


def ratio_statistic(formula: WaveTable, oracle: WaveTable) -> RatioStatistic:
    """Measure the proportionality constant between two wave tables.

    Configurations with |oracle| below RATIO_FLOOR_SCALE * max|oracle| are
    skipped to avoid 0/0.  The spread is max |ratio - constant| / |constant|.
    """
    if set(formula.entries) != set(oracle.entries):
        raise ValueError("wave tables cover different configuration sets")
    floor = RATIO_FLOOR_SCALE * oracle.max_abs()
    ratios = [
        formula.entries[x] / oracle.entries[x]
        for x in oracle.entries
        if abs(oracle.entries[x]) > floor
    ]
    if not ratios:
        raise ValueError("oracle table is identically negligible")
    constant = ratios[0]
    spread = max(abs(r - constant) for r in ratios) / abs(constant)
    return RatioStatistic(constant, spread, len(ratios), len(oracle.entries))


def _cycled(perm):
    # right-compose with the cycle 1 -> 2 -> ... -> M -> 1
    m = len(perm)
    return tuple(perm[(i + 1) % m] for i in range(m))


@dataclass(frozen=True)
class PeriodicityCheck:
    """Amplitude-condition residual co-reported with the equation residual."""

    amplitude_residual: float
    bae_residual: float


def periodicity_check(q, lattice: LatticeSpec, regime: Regime) -> PeriodicityCheck:
    """Residual of the cyclic amplitude condition, against every permutation.

    For each P the ratio of amplitudes A(P)/A(PC), with C the cyclic shift,
    must equal prod_l 1/c(xi_l - q_{P1}).  The condition is equivalent to
    the Bethe equations, so both residuals are returned together; with no
    roots it holds vacuously.
    """
    q = tuple(complex(v) for v in q)
    perms = capped_permutations(len(q)) if q else ()
    worst = 0.0
    for perm in perms:
        lhs = perm_amplitude(perm, q, regime) / perm_amplitude(_cycled(perm), q, regime)
        rhs = 1.0 + 0.0j
        for xi_l in lattice.xi:
            rhs *= c_weight_inv(xi_l - q[perm[0]], regime)
        worst = max(worst, abs(lhs - rhs))
    bae = bae_residuals(q, lattice, regime)
    return PeriodicityCheck(worst, float(np.max(bae)) if bae.size else 0.0)


def export_wave_tables(tables, path, header_comments=()) -> None:
    """Write wave tables as text: one row per configuration and source."""
    if not tables:
        raise ValueError("need at least one table to export")
    n_particles = tables[0].n_particles
    lines = [f"# {comment}" for comment in header_comments]
    columns = [f"x_{i}" for i in range(1, n_particles + 1)] + [
        "re_psi",
        "im_psi",
        "provenance",
    ]
    lines.append(" ".join(columns))
    for table in tables:
        if table.n_particles != n_particles:
            raise ValueError("tables must share the particle number")
        for x in sorted(table.entries):
            v = table.entries[x]
            row = [str(s) for s in x] + [repr(v.real), repr(v.imag), table.provenance]
            lines.append(" ".join(row))
    write_text_atomic(path, "\n".join(lines) + "\n")
