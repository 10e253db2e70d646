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
from .textio import parse_complex_list, write_text_atomic
from .vertex_model import (
    LatticeSpec,
    Regime,
    c_and_log_derivative,
    c_weight,
    monodromy_entries,
    site_weights,
    transfer_eigenvalue,
    transfer_matrix,
    vacuum_eigenvalue,
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
    for i in range(len(q)):
        for j in range(i + 1, len(q)):
            if abs(regime.phi(q[i] - q[j])) < ROOT_SEPARATION:
                raise DegenerateRootsError(
                    f"roots {i + 1} and {j + 1} closer than {ROOT_SEPARATION}: "
                    f"{q[i]} ~ {q[j]}"
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


def bae_residuals(q, lattice: LatticeSpec, regime: Regime) -> np.ndarray:
    """Per-root residual |a(q_i) - prod_{a != i} c(q_a - q_i) / c(q_i - q_a)|."""
    q = tuple(complex(v) for v in q)
    if not q:
        return np.zeros(0)
    _require_separated(q, regime)
    c = _pair_table(c_weight, q, regime)
    out = np.empty(len(q))
    for i, qi in enumerate(q):
        rhs = 1.0 + 0.0j
        for a in range(len(q)):
            if a != i:
                rhs *= c[a][i] / c[i][a]
        out[i] = abs(vacuum_eigenvalue(qi, lattice, regime) - rhs)
    return out


def _newton_system(q, lattice, regime):
    """Log-ratio r and its Jacobian (the Gaudin matrix) at the iterate q.

    r_i is the principal log of a(q_i) * prod_{a != i} c(q_i - q_a) / c(q_a - q_i).
    Each pair and each run of equal sites evaluates c and its log-derivative
    once, in one ``c_and_log_derivative`` call.
    """
    m = len(q)
    pairs = _pair_table(c_and_log_derivative, q, regime)
    r = np.empty(m, dtype=complex)
    jac = np.zeros((m, m), dtype=complex)
    for i, qi in enumerate(q):
        sites = site_weights(c_and_log_derivative, qi, lattice, regime)
        # a(q_i) = prod_x c(x - q_i), multiplied up as vacuum_eigenvalue does
        ratio = 1.0 + 0.0j
        for c_site, _ in sites:
            ratio *= c_site
        diag = -sum(dlog_site for _, dlog_site in sites)
        for a in range(m):
            if a == i:
                continue
            c_ia, dlog_ia = pairs[i][a]
            c_ai, dlog_ai = pairs[a][i]
            ratio *= c_ia / c_ai
            pair = dlog_ia + dlog_ai
            diag += pair
            jac[i, a] = -pair
        r[i] = cmath.log(ratio)
        jac[i, i] = diag
    return r, jac


def _newton(q0, lattice, regime, tol):
    q = np.asarray(q0, dtype=complex).copy()
    for iteration in range(MAX_NEWTON_ITER + 1):
        # A colliding or singular iterate (DegenerateRootsError,
        # SingularWeightError, LinAlgError, log of zero: all ValueErrors)
        # fails the attempt.
        try:
            res = float(np.max(bae_residuals(q, lattice, regime)))
            if res < tol or iteration == MAX_NEWTON_ITER:
                return q, res, res < tol
            r, jac = _newton_system(q, lattice, regime)
            step = np.linalg.solve(jac, -r)
        except ValueError:
            return q, np.inf, False
        if not np.all(np.isfinite(step)):
            return q, np.inf, False
        # keep steps tame so the iterate cannot jump onto a pole
        scale = float(np.max(np.abs(step)))
        if scale > 1.0:
            step = step / scale
        q = q + step


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


def solve_bethe_roots(
    magnons: int,
    lattice: LatticeSpec,
    regime: Regime,
    seed: int = 0,
    tol: float = SOLVE_TOL,
) -> BetheRoots:
    """Solve for a set of Bethe roots on the given lattice.

    Strategy: converge at the homogeneous point (all inhomogeneities at
    their mean) starting from decoupled single-root seeds on distinct
    branches, then deform the inhomogeneities toward the target along an
    adaptive homotopy, re-converging Newton at every leg.  A leg whose Newton
    run does not converge, or meets colliding roots or a singular weight, is
    halved; a stall raises SolverFailureError with the trace.

    Only regular finite-root solutions are searched for.  Sectors whose
    eigenvectors require roots at infinity (e.g. beyond half filling in the
    rational family, where the transfer matrix is spin symmetric) make the
    solver fail honestly rather than return a spurious set.
    """
    L = lattice.length
    if magnons > L:
        raise ValueError(f"cannot place {magnons} particles on {L} sites")
    if magnons == 0:
        return BetheRoots((), 0.0, regime.family, regime.eta, lattice.xi)

    rng = np.random.default_rng(seed)
    center = sum(lattice.xi) / L
    homogeneous = LatticeSpec(L, (center,) * L)
    trace: list[str] = []

    q_start = None
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
            except ZeroDivisionError:
                continue
            q, res, ok = _newton(q0, lattice=homogeneous, regime=regime, tol=tol)
            if ok:
                q_start = q
                trace.append(f"homogeneous solve ok from branches {branches} (res {res:.2e})")
                break
            trace.append(f"branches {branches}: no convergence (res {res:.2e})")
        if q_start is not None:
            break
    if q_start is None:
        raise SolverFailureError(
            f"no homogeneous starting roots for M={magnons}, L={L}", trace
        )

    # homotopy in the inhomogeneities, adaptive step size
    q = q_start
    s = 0.0
    h = 1.0 / HOMOTOPY_LEGS
    min_h = 1.0 / (HOMOTOPY_LEGS * 512)
    target = np.asarray(lattice.xi, dtype=complex)
    while s < 1.0 - 1e-15:
        h = min(h, 1.0 - s)
        xi_next = tuple(center + (s + h) * (x - center) for x in target)
        leg_lattice = LatticeSpec(L, xi_next)
        q_next, res, ok = _newton(q, lattice=leg_lattice, regime=regime, tol=tol)
        if ok:
            q = q_next
            s += h
            h *= 1.7
        else:
            trace.append(f"leg to s={s + h:.4f} failed (res {res:.2e}); halving")
            h /= 2.0
            if h < min_h:
                raise SolverFailureError(
                    f"homotopy stalled at s={s:.4f} for M={magnons}, L={L}", trace
                )

    residual = float(np.max(bae_residuals(q, lattice, regime)))
    if residual >= tol:
        raise SolverFailureError(
            f"final residual {residual:.3e} above tolerance {tol:.1e}", trace
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


def _format_complex(z: complex) -> str:
    return repr(complex(z))


def roots_to_text(roots: BetheRoots) -> str:
    lines = [
        "# Bethe root set",
        f"regime: {roots.family}",
        f"eta: {_format_complex(roots.eta)}",
        f"L: {roots.length}",
        f"M: {roots.magnons}",
        "xi: " + ", ".join(_format_complex(x) for x in roots.xi),
        "q: " + ", ".join(_format_complex(v) for v in roots.q),
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
    fields: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition(":")
        fields[key.strip()] = value.strip()
    parsed = {}
    for key, parse in _ROOTS_FIELDS.items():
        if key not in fields:
            raise ProvenanceError(f"roots document missing field {key!r}")
        try:
            parsed[key] = parse(fields[key])
        except ValueError as exc:
            raise ProvenanceError(f"roots document: bad value for {key!r}: {exc}") from exc
    if len(parsed["xi"]) != parsed["L"] or len(parsed["q"]) != parsed["M"]:
        raise ProvenanceError("roots document length fields disagree with lists")
    return BetheRoots(
        parsed["q"], parsed["residual"], parsed["regime"], parsed["eta"], parsed["xi"]
    )


def write_roots(roots: BetheRoots, path) -> None:
    write_text_atomic(path, roots_to_text(roots))


def read_roots(path) -> BetheRoots:
    return roots_from_text(Path(path).read_text())
