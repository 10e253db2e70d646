"""Factorizing operator and the closed-form operators it conjugates into.

The factorizing operator is a product of per-site factors: each factor acts
as the identity on an empty site and as the ordered S-matrix chain coupling
the site to all later sites on an occupied one.  Conjugating the monodromy
blocks with it turns A diagonal and B, C into quasilocal sums of single-site
flips whose amplitudes depend multiplicatively on the other occupations.

The closed forms are kept as that data: A as its diagonal, each B or C term
as the weight vector of its flip.  The identities between them are checked
on weights, column by column, and the identities that involve F or the
monodromy blocks on a block of random probe vectors (Freivalds' test):
X = Y is accepted when X·V and Y·V agree, which for a false identity fails
with probability 1 over V.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DegenerateParametersError
from .tensor_core import (
    apply_site_flips,
    apply_two_site,
    flip_columns,
    identity_operator,
    index_of_sites,
    max_abs_diff,
    probe_residual,
    site_occupations,
    vacuum_state,
)
# Unused here; perfbench/selftest.py checks that tracing wraps this binding.
from .tensor_core import embed_two_site  # noqa: F401
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
# Random complex probe vectors per operator identity, drawn from their own
# generator so that every check sees the same block.
PROBES = 3
PROBE_SEED = 1977


@dataclass(frozen=True)
class FactorizingOperator:
    """Factorizing operator, its (numerically computed) inverse, and the
    1-norm condition estimate of the pair."""

    f: np.ndarray
    f_inv: np.ndarray
    cond1: float


def probe_block(n_sites: int) -> np.ndarray:
    """The (2^L, PROBES) block of complex Gaussian probe vectors."""
    rng = np.random.default_rng(PROBE_SEED)
    shape = (1 << n_sites, PROBES)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def s_tail_product(site: int, lattice: LatticeSpec, regime: Regime) -> np.ndarray:
    """Ordered product of S-matrices coupling ``site`` to every later site.

    Factor k carries spectral arguments (xi_k, xi_site); the last site gives
    the empty product, i.e. the identity.
    """
    L = lattice.length
    if not 1 <= site <= L:
        raise ValueError(f"site {site} out of range 1..{L}")
    return _tail_product_for_order(tuple(range(1, L + 1)), site - 1, lattice, regime)


def _tail_gates(order, pos, lattice, regime):
    # order: site labels in build order; pos: index into order.  The tail
    # is the product of these (gate, site, site) factors, left to right.
    n = order[pos]
    for later in order[pos + 1 :]:
        yield s_matrix(lattice.xi[later - 1], lattice.xi[n - 1], regime), later, n


def _tail_product_for_order(order, pos, lattice, regime):
    L = lattice.length
    out = identity_operator(L)
    for gate, site_i, site_j in _tail_gates(order, pos, lattice, regime):
        out = apply_two_site(out, gate, site_i, site_j, L)
    return out


def _apply_gate_left(gate, site_i, site_j, block, n_sites):
    # embed(g) @ block = (block^T @ embed(g^T))^T: the gate's embedding
    # transposes to the embedding of its transpose.
    return apply_two_site(block.T, gate.T, site_i, site_j, n_sites).T


def _factorizer_for_order(order, lattice, regime):
    # Each factor is the identity on the columns where its site is empty and
    # the tail product on the others, so only the occupied columns change.
    L = lattice.length
    bits = site_occupations(L)
    out = identity_operator(L)
    for pos, site in enumerate(order):
        occupied = bits[site - 1] == 1
        tail = _tail_product_for_order(order, pos, lattice, regime)
        out[:, occupied] = tail[:, occupied] if pos == 0 else out @ tail[:, occupied]
    return out


def apply_factorizer(order, block, lattice: LatticeSpec, regime: Regime) -> np.ndarray:
    """F·block for the factorizer built in ``order``, without building F.

    Factors act last first.  A factor keeps the rows where its site is empty
    and applies its tail gates, last first, to the rows where it is occupied.
    """
    L = lattice.length
    bits = site_occupations(L)
    out = np.array(block, dtype=complex)
    for pos in reversed(range(L)):
        occupied = (bits[order[pos] - 1] == 1)[:, None]
        part = np.where(occupied, out, 0)
        for gate, site_i, site_j in reversed(list(_tail_gates(order, pos, lattice, regime))):
            part = _apply_gate_left(gate, site_i, site_j, part, L)
        out = np.where(occupied, 0, out) + part
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
    return FactorizingOperator(f=f, f_inv=f_inv, cond1=float(cond))


def transposition_gate(site: int, lattice: LatticeSpec, regime: Regime) -> np.ndarray:
    """S(xi_{site+1}, xi_site), acting on sites (site + 1, site): the factor
    that carries the factorizer built with the pair swapped into F."""
    return s_matrix(lattice.xi[site], lattice.xi[site - 1], regime)


def factorization_residual(lattice: LatticeSpec, regime: Regime) -> float:
    """Worst probe residual of rebuilding the factorizer across each adjacent
    transposition.

    For every site i < L, the operator built with sites (i, i+1) swapped
    (parameters included), multiplied from the left by the S-matrix on that
    pair, must reproduce the original; both sides act on the probe block.
    """
    L = lattice.length
    identity_order = tuple(range(1, L + 1))
    block = probe_block(L)
    lhs = apply_factorizer(identity_order, block, lattice, regime)
    worst = 0.0
    for site in range(1, L):
        swapped = list(identity_order)
        swapped[site - 1], swapped[site] = swapped[site], swapped[site - 1]
        rhs = apply_factorizer(tuple(swapped), block, lattice, regime)
        rhs = _apply_gate_left(transposition_gate(site, lattice, regime), site + 1, site, rhs, L)
        worst = max(worst, probe_residual(lhs, rhs))
    return worst


def diagonal_a(t: complex, lattice: LatticeSpec, regime: Regime) -> np.ndarray:
    """Diagonal of the closed-form image of A(t):
    prod_i [c(xi_i - t)(1 - n_i) + n_i] per basis state."""
    L = lattice.length
    bits = site_occupations(L)
    diag = np.ones(1 << L, dtype=complex)
    for i in range(L):
        diag *= np.where(bits[i] == 1, 1.0, c_weight(lattice.xi[i] - t, regime))
    return diag


def _flip_term(site, t, lattice, regime, factors):
    """Weight vector of a flip at ``site``: b(xi_site - t) times, on every
    other site k (0-based), ``factors(k)`` = (occupied, empty) weight.

    The flip itself acts only on the columns where ``site`` has the state it
    flips; the entries of the other columns are weights it multiplies by 0.
    """
    L = lattice.length
    bits = site_occupations(L)
    diag = np.full(1 << L, b_weight(lattice.xi[site - 1] - t, regime), dtype=complex)
    for k in range(L):
        if k != site - 1:
            occupied, empty = factors(k)
            diag *= np.where(bits[k] == 1, occupied, empty)
    return diag


def site_creation(
    site: int, t: complex, lattice: LatticeSpec, regime: Regime
) -> np.ndarray:
    """Weight vector of the quasilocal creation term at one site.

    The term raises the occupation at ``site`` with weight b(xi_site - t), times
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

    return _flip_term(site, t, lattice, regime, factors)


def quasilocal_b(t: complex, lattice: LatticeSpec, regime: Regime) -> np.ndarray:
    """Closed-form image of B(t), a sum of per-site raise flips: the
    (L, 2^L) stack of their weight vectors (``site_creation``), site 1 first."""
    return np.array(
        [site_creation(site, t, lattice, regime) for site in range(1, lattice.length + 1)]
    )


def quasilocal_c(t: complex, lattice: LatticeSpec, regime: Regime) -> np.ndarray:
    """Closed-form image of C(t), a sum of per-site lower flips: the (L, 2^L)
    stack of their weight vectors, site 1 first.

    Site k contributes c(xi_k - t) when empty and 1/c(xi_site - xi_k) when
    occupied, mirroring the creation form with the ratio inverted.
    """
    lattice.require_generic(regime)
    xi = lattice.xi

    def term(site):
        def factors(k):
            return c_weight_inv(xi[site - 1] - xi[k], regime), c_weight(xi[k] - t, regime)

        return _flip_term(site, t, lattice, regime, factors)

    return np.array([term(site) for site in range(1, lattice.length + 1)])


def closed_forms_residual(f: np.ndarray, t: complex, lattice: LatticeSpec, regime: Regime) -> float:
    """Worst probe residual of X(t)·F = F·X̃(t) for X = A, B, C.

    The closed forms X̃ act on the probe block as weights and flips; F and
    the monodromy blocks X(t) as dense matrices.  No inverse of F is used.
    """
    block = probe_block(lattice.length)
    ent = monodromy_entries(t, lattice, regime)
    f_block = f @ block
    pairs = (
        (ent.a, diagonal_a(t, lattice, regime)[:, None] * block),
        (ent.b, apply_site_flips("raise", quasilocal_b(t, lattice, regime), block)),
        (ent.c, apply_site_flips("lower", quasilocal_c(t, lattice, regime), block)),
    )
    return max(probe_residual(x @ f_block, f @ tilde_block) for x, tilde_block in pairs)


def commutation_residual(t: complex, t2: complex, lattice: LatticeSpec, regime: Regime) -> float:
    """Worst max-abs residual of b_i(t)·Ã(t2) = c(xi_i - t2)·Ã(t2)·b_i(t) over
    all sites i, on weights.

    Both sides are nonzero only at (x | i, x) for x with site i empty, where
    they read d_i[x]·a[x] and c(xi_i - t2)·a[x | i]·d_i[x].
    """
    L = lattice.length
    a = diagonal_a(t2, lattice, regime)
    worst = 0.0
    for i in range(1, L + 1):
        d_i = site_creation(i, t, lattice, regime)
        scale = c_weight(lattice.xi[i - 1] - t2, regime)
        x, raised = flip_columns(i, L)
        worst = max(worst, max_abs_diff(d_i[x] * a[x], scale * (a[raised] * d_i[x])))
    return worst


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


def exchange_residual(lattice: LatticeSpec, regime: Regime) -> float:
    """Worst max-abs residual of B_i B_j = ratio * B_j B_i at t = 0 over all
    ordered pairs of distinct sites, on weights.

    Both products are nonzero only at (x | i | j, x) for x with sites i and
    j empty, where B_i B_j reads d_i[x | j]·d_j[x] and B_j B_i reads
    d_j[x | i]·d_i[x].
    """
    L = lattice.length
    creation = [site_creation(site, 0.0, lattice, regime) for site in range(1, L + 1)]
    bits = site_occupations(L)
    worst = 0.0
    for site_i in range(1, L + 1):
        for site_j in range(1, L + 1):
            if site_i == site_j:
                continue
            d_i, d_j = creation[site_i - 1], creation[site_j - 1]
            x = np.flatnonzero((bits[site_i - 1] | bits[site_j - 1]) == 0)
            x_i, x_j = x | index_of_sites((site_i,), L), x | index_of_sites((site_j,), L)
            ratio = exchange_ratio(site_i, site_j, lattice, regime)
            worst = max(worst, max_abs_diff(d_i[x_j] * d_j[x], ratio * (d_j[x_i] * d_i[x])))
    return worst


def f_matrix_element_residual(lattice: LatticeSpec, regime: Regime) -> float:
    """Residual of the matrix-element identity for the factorizing operator.

    Column {n} (occupied sites n_1 < ... < n_M) of the operator must equal
    the vector B(xi_{n_1}) ... B(xi_{n_M}) |0>, across every occupation
    sector; rows outside the M-particle sector vanish on both sides.
    """
    L = lattice.length
    f = _factorizer_for_order(tuple(range(1, L + 1)), lattice, regime)
    b_ops = {n: monodromy_entries(lattice.xi[n - 1], lattice, regime).b for n in range(1, L + 1)}
    # Subsets run in increasing size, so the vector of (n_2 < ... < n_M) is
    # ready when (n_1 < n_2 < ... < n_M) needs it.
    vectors = {(): vacuum_state(L)}
    worst = 0.0
    for m_count in range(L + 1):
        for subset in combinations(range(1, L + 1), m_count):
            if subset:
                vectors[subset] = b_ops[subset[0]] @ vectors[subset[1:]]
            col = f[:, index_of_sites(subset, L)]
            worst = max(worst, max_abs_diff(col, vectors[subset]))
    return worst
