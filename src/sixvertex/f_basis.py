"""Factorizing operator and the closed-form operators it conjugates into.

The factorizing operator is a product of per-site factors: each factor acts
as the identity on an empty site and as the ordered S-matrix chain coupling
the site to all later sites on an occupied one.  Conjugating the monodromy
blocks with it turns A diagonal and B, C into quasilocal sums of single-site
flips whose amplitudes depend multiplicatively on the other occupations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DegenerateParametersError
from .tensor_core import (
    embed_two_site,
    identity_operator,
    index_of_sites,
    max_abs_diff,
    site_occupations,
    site_operator,
    vacuum_state,
)
from .vertex_model import (
    LatticeSpec,
    Regime,
    b_weight,
    c_weight,
    c_weight_inv,
    monodromy_entries,
    s_matrix,
)

CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class FactorizingOperator:
    """Factorizing operator and its (numerically computed) inverse."""

    f: np.ndarray
    f_inv: np.ndarray


def s_tail_product(site: int, lattice: LatticeSpec, regime: Regime) -> np.ndarray:
    """Ordered product of S-matrices coupling ``site`` to every later site.

    Factor k carries spectral arguments (xi_k, xi_site); the last site gives
    the empty product, i.e. the identity.
    """
    L = lattice.length
    if not 1 <= site <= L:
        raise ValueError(f"site {site} out of range 1..{L}")
    return _tail_product_for_order(tuple(range(1, L + 1)), site - 1, lattice, regime)


def _tail_product_for_order(order, pos, lattice, regime):
    # order: site labels in build order; pos: index into order.
    L = lattice.length
    n = order[pos]
    out = identity_operator(L)
    for later in order[pos + 1 :]:
        gate = s_matrix(lattice.xi[later - 1], lattice.xi[n - 1], regime)
        out = out @ embed_two_site(gate, later, n, L)
    return out


def _factorizer_for_order(order, lattice, regime):
    L = lattice.length
    out = identity_operator(L)
    for pos, site in enumerate(order):
        number = site_operator("number", site, L)
        tail = _tail_product_for_order(order, pos, lattice, regime)
        factor = (identity_operator(L) - number) + tail * number.diagonal()
        out = out @ factor
    return out


def factorizing_operator(lattice: LatticeSpec, regime: Regime) -> FactorizingOperator:
    """Build the factorizing operator and invert it numerically.

    No closed form for the inverse is used; plain matrix inversion is cheap
    at desk scale.  A 1-norm condition estimate above 1e12 is rejected as a
    degenerate parameter configuration.
    """
    f = _factorizer_for_order(tuple(range(1, lattice.length + 1)), lattice, regime)
    f_inv = np.linalg.inv(f)
    cond = np.linalg.norm(f, 1) * np.linalg.norm(f_inv, 1)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise DegenerateParametersError(
            f"factorizing operator ill conditioned (estimate {cond:.3e})"
        )
    return FactorizingOperator(f=f, f_inv=f_inv)


def factorization_residual(lattice: LatticeSpec, regime: Regime) -> float:
    """Worst residual of rebuilding the factorizer across each adjacent transposition.

    For every site i < L, the operator built with sites (i, i+1) swapped
    (parameters included), multiplied by the S-matrix on that pair, must
    reproduce the original.
    """
    L = lattice.length
    identity_order = tuple(range(1, L + 1))
    f = _factorizer_for_order(identity_order, lattice, regime)
    worst = 0.0
    for site in range(1, L):
        swapped = list(identity_order)
        swapped[site - 1], swapped[site] = swapped[site], swapped[site - 1]
        f_swapped = _factorizer_for_order(tuple(swapped), lattice, regime)
        gate = s_matrix(lattice.xi[site], lattice.xi[site - 1], regime)
        s_embedded = embed_two_site(gate, site + 1, site, L)
        worst = max(worst, max_abs_diff(f, s_embedded @ f_swapped))
    return worst


def diagonal_a(t: complex, lattice: LatticeSpec, regime: Regime) -> np.ndarray:
    """Closed-form diagonal image of A(t): prod_i [c(xi_i - t)(1 - n_i) + n_i]."""
    L = lattice.length
    bits = site_occupations(L)
    diag = np.ones(1 << L, dtype=complex)
    for i in range(L):
        diag *= np.where(bits[i] == 1, 1.0, c_weight(lattice.xi[i] - t, regime))
    return np.diag(diag)


def _flip_term(kind, site, t, lattice, regime, factors):
    """Flip ``kind`` at ``site`` weighted by b(xi_site - t) and, on every
    other site k (0-based), by ``factors(k)`` = (occupied, empty) weight.

    The flip is a 0/1 operator, so scaling its columns by broadcasting gives
    exactly its product with the diagonal weight operator.
    """
    L = lattice.length
    bits = site_occupations(L)
    diag = np.full(1 << L, b_weight(lattice.xi[site - 1] - t, regime), dtype=complex)
    for k in range(L):
        if k != site - 1:
            occupied, empty = factors(k)
            diag *= np.where(bits[k] == 1, occupied, empty)
    return site_operator(kind, site, L) * diag


def site_creation(
    site: int, t: complex, lattice: LatticeSpec, regime: Regime
) -> np.ndarray:
    """Quasilocal creation term at one site.

    Raises the occupation at ``site`` with weight b(xi_site - t), times
    [c(xi_k - t) / c(xi_k - xi_site)] on every other empty site k and 1 on
    occupied ones.  Requires pairwise-generic inhomogeneities.
    """
    L = lattice.length
    if not 1 <= site <= L:
        raise ValueError(f"site {site} out of range 1..{L}")
    lattice.require_generic(regime)
    xi = lattice.xi

    def factors(k):
        return 1.0, c_weight(xi[k] - t, regime) * c_weight_inv(xi[k] - xi[site - 1], regime)

    return _flip_term("raise", site, t, lattice, regime, factors)


def quasilocal_b(t: complex, lattice: LatticeSpec, regime: Regime) -> np.ndarray:
    """Closed-form image of B(t): sum of the per-site creation terms."""
    return sum(
        site_creation(site, t, lattice, regime)
        for site in range(1, lattice.length + 1)
    )


def quasilocal_c(t: complex, lattice: LatticeSpec, regime: Regime) -> np.ndarray:
    """Closed-form image of C(t): quasilocal sum of single-site annihilations.

    Site k contributes c(xi_k - t) when empty and 1/c(xi_site - xi_k) when
    occupied, mirroring the creation form with the ratio inverted.
    """
    L = lattice.length
    lattice.require_generic(regime)
    xi = lattice.xi
    out = np.zeros((1 << L, 1 << L), dtype=complex)
    for site in range(1, L + 1):

        def factors(k):
            return c_weight_inv(xi[site - 1] - xi[k], regime), c_weight(xi[k] - t, regime)

        out += _flip_term("lower", site, t, lattice, regime, factors)
    return out


def exchange_ratio(site_i: int, site_j: int, lattice: LatticeSpec, regime: Regime) -> complex:
    """Scalar relating the two orders of site-creation operators at t = 0."""
    if site_i == site_j:
        raise ValueError("exchange ratio needs two distinct sites")
    xi = lattice.xi
    factors = {
        "c(xi_j)": c_weight(xi[site_j - 1], regime),
        "c(xi_i - xi_j)": c_weight(xi[site_i - 1] - xi[site_j - 1], regime),
    }
    for name, value in factors.items():
        if abs(value) < 1e-12:
            raise DegenerateParametersError(f"exchange ratio denominator {name} ~ 0")
    num = c_weight(xi[site_i - 1], regime) * c_weight(
        xi[site_j - 1] - xi[site_i - 1], regime
    )
    return num / (factors["c(xi_j)"] * factors["c(xi_i - xi_j)"])


def exchange_residual(site_i: int, site_j: int, lattice: LatticeSpec, regime: Regime) -> float:
    """Max-abs residual of B_i B_j = ratio * B_j B_i at t = 0."""
    b_i = site_creation(site_i, 0.0, lattice, regime)
    b_j = site_creation(site_j, 0.0, lattice, regime)
    ratio = exchange_ratio(site_i, site_j, lattice, regime)
    return max_abs_diff(b_i @ b_j, ratio * (b_j @ b_i))


def f_matrix_element_residual(lattice: LatticeSpec, regime: Regime) -> float:
    """Residual of the matrix-element identity for the factorizing operator.

    Column {n} (occupied sites n_1 < ... < n_M) of the operator must equal
    the vector B(xi_{n_1}) ... B(xi_{n_M}) |0>, across every occupation
    sector; rows outside the M-particle sector vanish on both sides.
    """
    L = lattice.length
    f = _factorizer_for_order(tuple(range(1, L + 1)), lattice, regime)
    b_ops = {}
    worst = 0.0
    for m_count in range(L + 1):
        for subset in combinations(range(1, L + 1), m_count):
            vec = vacuum_state(L)
            for n in reversed(subset):
                if n not in b_ops:
                    b_ops[n] = monodromy_entries(lattice.xi[n - 1], lattice, regime).b
                vec = b_ops[n] @ vec
            col = f[:, index_of_sites(subset, L)]
            worst = max(worst, max_abs_diff(col, vec))
    return worst
