"""Bethe equation residuals, a desk-scale root solver, and eigenstate checks.

The equations are solved in multiplicative form.  Newton linearizes the
principal logarithm of the per-root ratio
``a(q_i) * prod_{a != i} c(q_i - q_a) / c(q_a - q_i)`` (unity at a solution);
branch ambiguity never enters because the solver starts from decoupled
single-root seeds at the homogeneous point and follows a short homotopy in
the inhomogeneities, along which the ratio stays near one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateRootsError,
    DegenerateStateError,
    ProvenanceError,
    SolverFailureError,
)
from .tensor_core import vacuum_state
from .textio import parse_complex_list, parse_key_values, write_text_atomic
from .vertex_model import (
    LatticeSpec,
    Regime,
    _first_close_pair,
    c_and_log_derivative,
    monodromy_entries,
    site_weights,
    transfer_eigenvalue,
    transfer_matrix,
)

ROOT_SEPARATION = 1e-8
SOLVE_TOL = 1e-12
MAX_NEWTON_ITER = 200
HOMOTOPY_LEGS = 20
# How far a stored root set's eta and xi may sit from a lattice's and match.
PROVENANCE_TOL = 1e-9


@dataclass(frozen=True)
class BetheRoots:
    """Solved spectral roots with their residual and full provenance."""

    q: tuple[complex, ...]
    residual: float
    family: str
    eta: complex
    xi: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "q", tuple(complex(v) for v in self.q))
        object.__setattr__(self, "xi", tuple(complex(v) for v in self.xi))
        object.__setattr__(self, "eta", complex(self.eta))

    @property
    def length(self) -> int:
        return len(self.xi)

    @property
    def magnons(self) -> int:
        return len(self.q)

    def matches(self, lattice: LatticeSpec, regime: Regime) -> bool:
        return (
            self.family == regime.family
            and abs(self.eta - regime.eta) < PROVENANCE_TOL
            and self.length == lattice.length
            and all(abs(a - b) < PROVENANCE_TOL for a, b in zip(self.xi, lattice.xi))
        )


def _require_separated(q, regime: Regime):
    if pair := _first_close_pair(q, regime, ROOT_SEPARATION):
        i, j = pair
        raise DegenerateRootsError(
            f"roots {i + 1} and {j + 1} closer than {ROOT_SEPARATION}: {q[i]} ~ {q[j]}"
        )


def _pair_table(weight, q, regime: Regime) -> list[list]:
    # weight(q_i - q_a) for every ordered pair i != a, each evaluated once
    m = len(q)
    table = [[None] * m for _ in range(m)]
    for i in range(m):
        for a in range(m):
            if a != i:
                table[i][a] = weight(q[i] - q[a], regime)
    return table


def _bethe_system(q, lattice: LatticeSpec, regime: Regime):
    """Residuals, log-ratio r and its Jacobian (the Gaudin matrix) at q.

    One ``c_and_log_derivative`` table per ordered root pair and one per root
    and run of equal sites feed all three, in the number type of q.  The
    residual |a(q_i) - prod_{a != i} c(q_a - q_i) / c(q_i - q_a)| and r_i, the
    principal log of a(q_i) * prod_{a != i} c(q_i - q_a) / c(q_a - q_i), keep
    their own products: the two round differently.
    """
    _require_separated(q, regime)
    m = len(q)
    pairs = _pair_table(c_and_log_derivative, q, regime)
    residuals = np.empty(m)
    r = np.empty(m, dtype=complex)
    jac = np.zeros((m, m), dtype=complex)
    for i, qi in enumerate(q):
        sites = site_weights(c_and_log_derivative, qi, lattice, regime)
        # a(q_i) = prod_x c(x - q_i), multiplied up site by site in chain order
        a_i = 1.0 + 0.0j
        for c_site, _ in sites:
            a_i *= c_site
        rhs = 1.0 + 0.0j
        ratio = a_i
        diag = -sum(dlog_site for _, dlog_site in sites)
        for a in range(m):
            if a == i:
                continue
            c_ia, dlog_ia = pairs[i][a]
            c_ai, dlog_ai = pairs[a][i]
            rhs *= c_ai / c_ia
            ratio *= c_ia / c_ai
            pair = dlog_ia + dlog_ai
            diag += pair
            jac[i, a] = -pair
        residuals[i] = abs(a_i - rhs)
        r[i] = cmath.log(ratio)
        jac[i, i] = diag
    return residuals, r, jac


def bae_residuals(q, lattice: LatticeSpec, regime: Regime) -> np.ndarray:
    """Residual |a(q_i) - prod_{a != i} c(q_a - q_i) / c(q_i - q_a)| per root, in Python complex."""
    return _bethe_system(tuple(complex(v) for v in q), lattice, regime)[0]


def _escape_radius(center, lattice: LatticeSpec, regime: Regime) -> float:
    """How far from the mean inhomogeneity a Newton iterate may go: L·|η| plus
    the lattice's own extent in the rational family, unbounded otherwise.

    Far from the chain a rational root's log-ratio goes like κ/u (κ constant)
    and its Jacobian like -κ/u², so the Newton step is about +u: the unit
    clamp walks the root outward one unit per iteration while the residual
    decays only like L|η|/|u|.  Such a run heads for a root at infinity, which
    describes an SU(2) descendant that the solver never returns.  A regular
    root stays near the chain: a single root at the homogeneous point has
    |u| = |η| / (2 sin(πk/L)) <= L|η|/4, so the radius scales with |η| (a
    fixed one stops converging runs at large |η|).  Trigonometric roots have
    no infinity to escape to (c -> exp(∓iη) as Im t -> ±∞), and their
    converged runs do wander far, so they are never stopped.
    """
    if regime.family != "rational":
        return math.inf
    return lattice.length * abs(regime.eta) + max(abs(x - center) for x in lattice.xi)


def _newton(q0, lattice, regime):
    """Newton run from q0: (last iterate, its max residual, converged, why it
    failed).  The reason is "" unless the run ended on an exception or a
    non-finite step, which leave the residual at inf, or on a root that
    escaped past ``_escape_radius``."""
    q = np.asarray(q0, dtype=complex).copy()
    center = sum(lattice.xi) / lattice.length
    radius = _escape_radius(center, lattice, regime)
    for iteration in range(MAX_NEWTON_ITER + 1):
        # A colliding or singular iterate (DegenerateRootsError,
        # SingularWeightError, LinAlgError, log of zero: all ValueErrors)
        # fails the attempt.
        try:
            residuals, r, jac = _bethe_system(q, lattice, regime)
            res = float(np.max(residuals))
            if res < SOLVE_TOL or iteration == MAX_NEWTON_ITER:
                return q, res, res < SOLVE_TOL, ""
            distance = np.abs(q - center)
            far = int(np.argmax(distance))
            if distance[far] > radius:
                return q, res, False, (
                    f"escaped: |q_{far + 1} - center| = {distance[far]:.3g} "
                    f"> {radius:.3g} at iteration {iteration}"
                )
            step = np.linalg.solve(jac, -r)
        except ValueError as exc:
            return q, np.inf, False, f"{type(exc).__name__}: {exc}"
        if not np.all(np.isfinite(step)):
            return q, np.inf, False, "non-finite Newton step"
        # keep steps tame so the iterate cannot jump onto a pole
        scale = float(np.max(np.abs(step)))
        if scale > 1.0:
            step = step / scale
        q = q + step


def _failure(res, reason):
    # "(res 1.00e-03)", or "(res inf) [SingularWeightError: ...]" when a reason is known
    return f"(res {res:.2e})" + (f" [{reason}]" if reason else "")


def _decoupled_seed(branch: int, n_sites: int, center: complex, regime: Regime) -> complex:
    # Root of c(center - q)^L = 1 on the branch exp(2*pi*i*k/L), k != 0.
    omega = cmath.exp(2j * cmath.pi * branch / n_sites)
    eta = regime.eta
    if regime.family == "rational":
        u = omega * eta / (1.0 - omega)
    else:
        den = 1.0 - omega * cmath.cos(eta)
        if abs(den) < 1e-12:
            raise ZeroDivisionError("degenerate decoupled branch")
        u = cmath.atan(omega * cmath.sin(eta) / den)
    return center - u


def _homogeneous_starts(magnons, L, center, regime, rng, trace):
    """Converged roots at the homogeneous point, with their branch sets, one
    at a time: every branch set unjittered, then every branch set under
    jitter of 1e-2, 1e-1 and 1 drawn from ``rng``."""
    homogeneous = LatticeSpec(L, (center,) * L)
    branch_sets = list(combinations(range(1, L), magnons))
    for jitter_round in range(4):
        jitter_scale = 0.0 if jitter_round == 0 else 10.0 ** (-3 + jitter_round)
        for branches in branch_sets:
            try:
                q0 = [
                    _decoupled_seed(k, L, center, regime)
                    + jitter_scale * complex(rng.normal(), rng.normal())
                    for k in branches
                ]
            except (ZeroDivisionError, ValueError):  # ValueError: atan's argument is +-i
                continue
            q, res, ok, reason = _newton(q0, lattice=homogeneous, regime=regime)
            if ok:
                trace.append(f"homogeneous solve ok from branches {branches} (res {res:.2e})")
                yield branches, q
            else:
                trace.append(f"branches {branches}: no convergence {_failure(res, reason)}")


def _homotopy(q, center, lattice, regime, trace):
    """Follow roots from the homogeneous point (s = 0) to the lattice (s = 1),
    re-converging Newton at every leg; a failed leg is halved.  Returns the
    roots at s = 1, or None and the s it stalled at when a leg falls below
    the minimum length."""
    L = lattice.length
    s = 0.0
    h = 1.0 / HOMOTOPY_LEGS
    min_h = 1.0 / (HOMOTOPY_LEGS * 512)
    target = np.asarray(lattice.xi, dtype=complex)
    while s < 1.0 - 1e-15:
        h = min(h, 1.0 - s)
        xi_next = tuple(center + (s + h) * (x - center) for x in target)
        leg_lattice = LatticeSpec(L, xi_next)
        q_next, res, ok, reason = _newton(q, lattice=leg_lattice, regime=regime)
        if ok:
            q = q_next
            s += h
            h *= 1.7
        else:
            trace.append(f"leg to s={s + h:.4f} failed {_failure(res, reason)}; halving")
            h /= 2.0
            if h < min_h:
                return None, s
    return q, s


def solve_bethe_roots(
    magnons: int, lattice: LatticeSpec, regime: Regime, seed: int = 0
) -> BetheRoots:
    """Solve for a set of Bethe roots on the given lattice.

    Strategy: converge at the homogeneous point (all inhomogeneities at
    their mean) starting from decoupled single-root seeds on distinct
    branches, then deform the inhomogeneities toward the target along an
    adaptive homotopy, re-converging Newton at every leg.  A leg whose Newton
    run does not converge, or meets colliding roots or a singular weight, is
    halved.  When the homotopy stalls, the search for homogeneous starts
    resumes where it stopped, and the homotopy is followed from the next
    start that converges: at most 4·C(L-1, M) homotopies, one per branch set
    and jitter round.  SolverFailureError, with the whole trace, is raised
    only when every start is spent.

    Only regular finite-root solutions are searched for.  Sectors whose
    eigenvectors require roots at infinity (e.g. beyond half filling in the
    rational family, where the transfer matrix is spin symmetric) make the
    solver fail honestly rather than return a spurious set; a rational Newton
    run whose root walks out past ``_escape_radius`` toward such a root fails
    at once instead of spending MAX_NEWTON_ITER steps.
    """
    L = lattice.length
    if magnons > L:
        raise ValueError(f"cannot place {magnons} particles on {L} sites")
    if magnons == 0:
        return BetheRoots((), 0.0, regime.family, regime.eta, lattice.xi)

    rng = np.random.default_rng(seed)
    center = sum(lattice.xi) / L
    trace: list[str] = []
    stalls = 0
    for branches, q_start in _homogeneous_starts(magnons, L, center, regime, rng, trace):
        q, s = _homotopy(q_start, center, lattice, regime, trace)
        if q is not None:
            break
        stalls += 1
        trace.append(f"homotopy from branches {branches} stalled at s={s:.4f}; next start")
    else:
        if stalls == 0:
            raise SolverFailureError(
                f"no homogeneous starting roots for M={magnons}, L={L}", trace
            )
        raise SolverFailureError(
            f"homotopy stalled from all {stalls} starts for M={magnons}, L={L}", trace
        )

    residual = float(np.max(bae_residuals(q, lattice, regime)))
    if residual >= SOLVE_TOL:
        raise SolverFailureError(
            f"final residual {residual:.3e} above tolerance {SOLVE_TOL:.1e}", trace
        )
    return BetheRoots(tuple(q), residual, regime.family, regime.eta, lattice.xi)


def bethe_vector(q, lattice: LatticeSpec, regime: Regime) -> np.ndarray:
    """State built by applying the creation blocks at q_1 .. q_M to the vacuum."""
    vec = vacuum_state(lattice.length)[:, None]
    for qi in reversed(tuple(q)):
        vec = monodromy_entries(qi, lattice, regime, vec).b
    return vec[:, 0]


def eigenstate_residual(
    roots: BetheRoots, lattice: LatticeSpec, regime: Regime, t_samples
) -> float:
    """Max over t of ||Z(t)|phi> - Lambda(t)|phi>|| / ||phi||."""
    vec = bethe_vector(roots.q, lattice, regime)
    norm = float(np.linalg.norm(vec))
    if norm < 1e-12:
        raise DegenerateStateError("Bethe vector has numerically zero norm")
    worst = 0.0
    for t in t_samples:
        lam = transfer_eigenvalue(t, roots.q, lattice, regime)
        z_vec = transfer_matrix(t, lattice, regime, vec[:, None])[:, 0]
        worst = max(worst, float(np.linalg.norm(z_vec - lam * vec)) / norm)
    return worst


def roots_to_text(roots: BetheRoots) -> str:
    lines = [
        "# Bethe root set",
        f"regime: {roots.family}",
        f"eta: {roots.eta!r}",
        f"L: {roots.length}",
        f"M: {roots.magnons}",
        "xi: " + ", ".join(map(repr, roots.xi)),
        "q: " + ", ".join(map(repr, roots.q)),
        f"residual: {roots.residual!r}",
    ]
    return "\n".join(lines) + "\n"


# Roots-document field -> value parser, in the order roots_to_text writes them.
_ROOTS_FIELDS = {
    "regime": str,
    "eta": complex,
    "L": int,
    "M": int,
    "xi": parse_complex_list,
    "q": parse_complex_list,
    "residual": float,
}


def roots_from_text(text: str) -> BetheRoots:
    parsed = parse_key_values(text, _ROOTS_FIELDS, lambda m: ProvenanceError(f"roots document {m}"))
    for key in _ROOTS_FIELDS:
        if key not in parsed:
            raise ProvenanceError(f"roots document missing field {key!r}")
    for key in ("eta", "xi", "q", "residual"):
        if not np.all(np.isfinite(parsed[key])):
            raise ProvenanceError(f"roots document: {key!r} must be finite, got {parsed[key]}")
    if len(parsed["xi"]) != parsed["L"] or len(parsed["q"]) != parsed["M"]:
        raise ProvenanceError("roots document length fields disagree with lists")
    return BetheRoots(
        parsed["q"], parsed["residual"], parsed["regime"], parsed["eta"], parsed["xi"]
    )


def write_roots(roots: BetheRoots, path) -> None:
    write_text_atomic(path, roots_to_text(roots))


def read_roots(path) -> BetheRoots:
    return roots_from_text(Path(path).read_text())
