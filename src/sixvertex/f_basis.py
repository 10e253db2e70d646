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

import numpy as np

from .errors import DegenerateParametersError
from .tensor_core import (
    apply_site_flips,
    apply_two_site_left,
    max_abs_diff,
    probe_residual,
    site_axes,
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
    """Factorizing operator as its particle-number sector blocks, and the
    1-norm condition number of F from the blocks' numerical inverses.

    ``sectors`` holds one (states, block) pair per occupation number m = 0..L:
    the basis indices with m occupied sites in increasing order, and F on them,
    ``F[np.ix_(states, states)]``.  F conserves particle number, so it vanishes
    off these blocks.
    """

    sectors: tuple[tuple[np.ndarray, np.ndarray], ...]
    cond1: float

    def apply(self, block) -> np.ndarray:
        """F·block, one sector block at a time."""
        block = np.asarray(block)
        out = np.empty(block.shape, dtype=complex)
        for states, f_m in self.sectors:
            out[states] = f_m @ block[states]
        return out


def probe_block(n_sites: int) -> np.ndarray:
    """The (2^L, PROBES) block of complex Gaussian probe vectors."""
    rng = np.random.default_rng(PROBE_SEED)
    shape = (1 << n_sites, PROBES)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _tail_gates(order, pos, lattice, regime):
    # order: site labels in build order; pos: index into order.  The tail
    # is the product of these (gate, site, site) factors, left to right.
    n = order[pos]
    for later in order[pos + 1 :]:
        yield s_matrix(lattice.xi[later - 1], lattice.xi[n - 1], regime), later, n


def apply_factorizer(order, block, lattice: LatticeSpec, regime: Regime) -> np.ndarray:
    """F·block for the factorizer built in ``order``.

    Factors act last first.  A factor keeps the rows where its site is empty
    and applies its tail gates, last first, to the rows where it is occupied.
    """
    L = lattice.length
    out = np.array(block, dtype=complex, order="C")
    for pos in reversed(range(L)):
        sites = (order[pos],)
        part = np.zeros_like(out)
        site_axes(part, sites, L)[1] = site_axes(out, sites, L)[1]
        for gate, site_i, site_j in reversed(list(_tail_gates(order, pos, lattice, regime))):
            part = apply_two_site_left(part, gate, site_i, site_j, L)
        site_axes(out, sites, L)[1] = 0
        out += part
    return out


def _sector_states(n_sites: int) -> list[np.ndarray]:
    """Basis indices with m occupied sites, in increasing order, for m = 0..L."""
    indices = np.arange(1 << n_sites)
    counts = sum((indices >> bit) & 1 for bit in range(n_sites))
    return [np.flatnonzero(counts == m) for m in range(n_sites + 1)]


def factorizing_operator(lattice: LatticeSpec, regime: Regime) -> FactorizingOperator:
    """Build the factorizing operator sector by sector and take its condition
    number.

    Every gate of F obeys the ice rule and every mask is diagonal, so F keeps
    each basis state in its sector.  One ``apply_factorizer`` pass therefore
    builds all blocks at once, on a sector-packed identity of max_m C(L, m)
    columns: column k is the sum of the k-th basis vector of every sector
    that has one.  Entries of other sectors meet a gate only through its
    exact zeros, so they add nothing to a block.  For block-diagonal F,
    ||F||_1 ||F^-1||_1 = max_m ||F_m||_1 · max_m ||F_m^-1||_1, one plain
    numerical inverse per block; a value above 1e12, or an exactly singular
    block, is rejected as a degenerate parameter configuration.
    """
    L = lattice.length
    sectors = _sector_states(L)
    packed = np.zeros((1 << L, max(len(states) for states in sectors)), dtype=complex)
    for states in sectors:
        packed[states, np.arange(len(states))] = 1.0
    out = apply_factorizer(tuple(range(1, L + 1)), packed, lattice, regime)
    blocks = tuple((states, out[states, : len(states)]) for states in sectors)
    try:
        inverses = [np.linalg.inv(f_m) for _, f_m in blocks]
        cond = max(np.linalg.norm(f_m, 1) for _, f_m in blocks) * max(
            np.linalg.norm(inv, 1) for inv in inverses
        )
    except np.linalg.LinAlgError:  # exactly singular
        cond = np.inf
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise DegenerateParametersError(
            f"factorizing operator ill conditioned (estimate {cond:.3e})"
        )
    return FactorizingOperator(sectors=blocks, cond1=float(cond))


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
        rhs = apply_two_site_left(rhs, transposition_gate(site, lattice, regime), site + 1, site, L)
        worst = max(worst, probe_residual(lhs, rhs))
    return worst


def diagonal_a(t: complex, lattice: LatticeSpec, regime: Regime) -> np.ndarray:
    """Diagonal of the closed-form image of A(t):
    prod_i [c(xi_i - t)(1 - n_i) + n_i] per basis state."""
    L = lattice.length
    diag = np.ones(1 << L, dtype=complex)
    for i in range(1, L + 1):
        site_axes(diag, (i,), L)[0] *= c_weight(lattice.xi[i - 1] - t, regime)
    return diag


def _flip_term(site, t, lattice, regime, factors):
    """Weight vector of a flip at ``site``: b(xi_site - t) times, on every
    other site k (0-based), ``factors(k)`` = (empty, occupied) weight.

    The flip itself acts only on the columns where ``site`` has the state it
    flips; the entries of the other columns are weights it multiplies by 0.
    """
    L = lattice.length
    diag = np.full(1 << L, b_weight(lattice.xi[site - 1] - t, regime), dtype=complex)
    for k in range(L):
        if k != site - 1:
            for view, weight in zip(site_axes(diag, (k + 1,), L), factors(k)):
                view *= weight
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
        return c_weight(xi[k] - t, regime) * c_weight_inv(xi[k] - xi[site - 1], regime), 1.0

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
            return c_weight(xi[k] - t, regime), c_weight_inv(xi[site - 1] - xi[k], regime)

        return _flip_term(site, t, lattice, regime, factors)

    return np.array([term(site) for site in range(1, lattice.length + 1)])


def closed_forms_residual(
    fac: FactorizingOperator, t: complex, lattice: LatticeSpec, regime: Regime
) -> float:
    """Worst probe residual of X(t)·F = F·X̃(t) for X = A, B, C.

    The closed forms X̃ act on the probe block as weights and flips, F by its
    sector blocks, and the monodromy blocks X(t) on F times the probe block.
    No inverse of F is used.
    """
    block = probe_block(lattice.length)
    ent = monodromy_entries(t, lattice, regime, fac.apply(block))
    pairs = (
        (ent.a, diagonal_a(t, lattice, regime)[:, None] * block),
        (ent.b, apply_site_flips("raise", quasilocal_b(t, lattice, regime), block)),
        (ent.c, apply_site_flips("lower", quasilocal_c(t, lattice, regime), block)),
    )
    return max(probe_residual(x_f_block, fac.apply(tilde_block)) for x_f_block, tilde_block in pairs)


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
        d_i = site_axes(site_creation(i, t, lattice, regime), (i,), L)[0]
        a_i = site_axes(a, (i,), L)
        scale = c_weight(lattice.xi[i - 1] - t2, regime)
        worst = max(worst, max_abs_diff(d_i * a_i[0], scale * (a_i[1] * d_i)))
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
    worst = 0.0
    for site_i in range(1, L + 1):
        for site_j in range(1, L + 1):
            if site_i == site_j:
                continue
            # axes (site_i, site_j): [0, 0] is x, [1, 0] is x | i, [0, 1] is x | j
            d_i = site_axes(creation[site_i - 1], (site_i, site_j), L)
            d_j = site_axes(creation[site_j - 1], (site_i, site_j), L)
            ratio = exchange_ratio(site_i, site_j, lattice, regime)
            worst = max(worst, max_abs_diff(d_i[0, 1] * d_j[0, 0], ratio * (d_j[1, 0] * d_i[0, 0])))
    return worst


def f_matrix_element_residual(lattice: LatticeSpec, regime: Regime) -> float:
    """Probe residual of the matrix-element identity for the factorizing
    operator, through its generating function.

    Column {n} (occupied sites n_1 < ... < n_M) of F must equal
    B(xi_{n_1}) ... B(xi_{n_M}) |0>, across every occupation sector.  Weighting
    column {n} by rho_{n_1}⋯rho_{n_M} and summing, F applied to the product
    vector r = ⊗_n (1, rho_n) must equal (1 + rho_1 B(xi_1))⋯(1 + rho_L B(xi_L)) |0>.
    Each probe draws its rho_n from the first L rows of the probe block.
    """
    L = lattice.length
    rho = probe_block(L)[:L]
    r = np.ones((1 << L, PROBES), dtype=complex)
    for site, rho_n in enumerate(rho, start=1):
        site_axes(r, (site,), L)[1] *= rho_n
    lhs = apply_factorizer(tuple(range(1, L + 1)), r, lattice, regime)
    rhs = np.repeat(vacuum_state(L)[:, None], PROBES, axis=1)
    for n in range(L, 0, -1):
        rhs = rhs + rho[n - 1] * monodromy_entries(lattice.xi[n - 1], lattice, regime, rhs).b
    return probe_residual(lhs, rhs)
