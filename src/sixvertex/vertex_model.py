"""Vertex weights, S-matrix, monodromy matrix and transfer matrix.

Weight family: phi(t) = t (rational) or sin(t) (trigonometric), with the
S-matrix normalized so its corner weight is 1.  The monodromy matrix couples
every chain site to one auxiliary spin-1/2 slot; its four auxiliary-space
blocks are the creation/annihilation operator family acting on the chain.
"""

from __future__ import annotations

import cmath
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .errors import DegenerateParametersError, PoleError, SingularWeightError, SizeCapError
from .tensor_core import apply_two_site_left
# Unused here; perfbench/selftest.py checks that tracing wraps this binding.
from .tensor_core import embed_two_site  # noqa: F401

POLE_TOL = 1e-12
# Closest phi(t - q_alpha) at which transfer_eigenvalue still evaluates.
EIGENVALUE_POLE_TOL = 1e-8
GENERICITY_FLOOR = 1e-6
# Largest M whose M!-term permutation sums (wave function, periodicity,
# partition function) run; larger M needs an O(M^3) determinant route.
PERMUTATION_CAP = 9


def _identity(t: complex) -> complex:
    return t


def _one(t: complex) -> complex:
    return 1.0 + 0.0j


# Each weight family once, with its phi and phi'.
_WEIGHT_FAMILIES = {
    "rational": (_identity, _one),
    "trigonometric": (cmath.sin, cmath.cos),
}
FAMILIES = tuple(_WEIGHT_FAMILIES)

# Sampling profiles, sized so the inhomogeneity separations are comparable
# to eta: every closed-form weight ratio then stays O(1) and the factorizing
# operator keeps a modest condition number at L = 8.  The hard validity
# floor for user-supplied parameters stays at GENERICITY_FLOOR.
_SAMPLING = {
    "rational": {"spread": 1.5, "pair_guard": 0.4, "site_guard": 0.25},
    "trigonometric": {"spread": 1.0, "pair_guard": 0.3, "site_guard": 0.12},
}
SPECTRAL_GUARD = 0.15
# Draws every rejection sampler makes before giving up.
MAX_TRIES = 2000


def capped_permutations(m: int):
    """Every ordering of range(m), for an M!-term sum; raises SizeCapError
    past PERMUTATION_CAP, before the caller evaluates any weight."""
    if m > PERMUTATION_CAP:
        raise SizeCapError(f"permutation sum over {m}! terms exceeds cap {PERMUTATION_CAP}!")
    return permutations(range(m))


@dataclass(frozen=True)
class Regime:
    """Weight family plus anisotropy; phi, phi' and a nonzero phi(eta) are fixed when made."""

    family: str
    eta: complex
    phi: Callable[[complex], complex] = field(init=False, repr=False, compare=False)
    phi_prime: Callable[[complex], complex] = field(init=False, repr=False, compare=False)
    phi_eta: complex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family not in _WEIGHT_FAMILIES:
            raise ValueError(f"regime must be one of {FAMILIES}, got {self.family!r}")
        object.__setattr__(self, "eta", complex(self.eta))
        if not cmath.isfinite(self.eta):
            raise ValueError(f"eta must be finite, got {self.eta}")
        phi, phi_prime = _WEIGHT_FAMILIES[self.family]
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "phi_prime", phi_prime)
        object.__setattr__(self, "phi_eta", phi(self.eta))
        if abs(self.phi_eta) < POLE_TOL:
            raise ValueError(f"phi(eta) vanishes for eta={self.eta}")


@dataclass(frozen=True)
class LatticeSpec:
    """Chain length and per-site inhomogeneity parameters."""

    length: int
    xi: tuple[complex, ...]
    # (xi, count) per run of consecutive sites with bit-identical xi (repr
    # tells -0.0 from 0.0), so a weight at every site is evaluated once per
    # run: the homogeneous chain is a single run.
    site_runs: tuple[tuple[complex, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "xi", tuple(complex(x) for x in self.xi))
        if self.length < 1:
            raise ValueError("lattice needs at least one site")
        if len(self.xi) != self.length:
            raise ValueError(f"expected {self.length} inhomogeneities, got {len(self.xi)}")
        runs: list[list] = []
        for x in self.xi:
            if runs and x == runs[-1][0] and repr(x) == repr(runs[-1][0]):
                runs[-1][1] += 1
            else:
                runs.append([x, 1])
        object.__setattr__(self, "site_runs", tuple((x, n) for x, n in runs))

    def _coincidence(self, regime: Regime, floor: float) -> str | None:
        # First pairwise weight denominator within ``floor`` of a pole, if any.
        for i in range(self.length):
            for j in range(self.length):
                if i == j:
                    continue
                d = self.xi[i] - self.xi[j]
                for value, shift in ((d, ""), (d + regime.eta, " + eta")):
                    if abs(regime.phi(value)) < floor:
                        return f"phi(xi_{i + 1} - xi_{j + 1}{shift}) ~ 0 (sites {i + 1},{j + 1})"
        return None

    def is_generic(self, regime: Regime, floor: float = GENERICITY_FLOOR) -> bool:
        """True if all pairwise weight denominators stay away from poles."""
        return self._coincidence(regime, floor) is None

    def require_generic(self, regime: Regime) -> None:
        """Raise ``DegenerateParametersError`` naming the first near-pole pair."""
        problem = self._coincidence(regime, GENERICITY_FLOOR)
        if problem is not None:
            raise DegenerateParametersError(problem)


@dataclass(frozen=True)
class MonodromyEntries:
    """Auxiliary-space blocks of the monodromy matrix on the chain space."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray


def c_weight(t: complex, regime: Regime) -> complex:
    """Normalized weight phi(t) / phi(t + eta)."""
    den = regime.phi(t + regime.eta)
    if abs(den) < POLE_TOL:
        raise SingularWeightError(f"phi(t + eta) = 0 at t={t}")
    return regime.phi(t) / den


def b_weight(t: complex, regime: Regime) -> complex:
    """Normalized weight phi(eta) / phi(t + eta)."""
    den = regime.phi(t + regime.eta)
    if abs(den) < POLE_TOL:
        raise SingularWeightError(f"phi(t + eta) = 0 at t={t}")
    return regime.phi_eta / den


def c_weight_inv(t: complex, regime: Regime) -> complex:
    """1 / c_weight(t), finite where phi(t) does not vanish."""
    num = regime.phi(t)
    if abs(num) < POLE_TOL:
        raise SingularWeightError(f"phi(t) = 0 at t={t}; 1/c has a pole there")
    return regime.phi(t + regime.eta) / num


def c_and_log_derivative(t: complex, regime: Regime) -> tuple[complex, complex]:
    """(c_weight(t), d/dt log c_weight(t)) from one phi(t) and one phi(t + eta).

    The log-derivative is phi'(t)/phi(t) - phi'(t+eta)/phi(t+eta); both
    values round exactly as separate evaluations would.
    """
    shifted = t + regime.eta
    num = regime.phi(t)
    den = regime.phi(shifted)
    if abs(num) < POLE_TOL or abs(den) < POLE_TOL:
        raise SingularWeightError(f"log-derivative of c at a zero/pole, t={t}")
    return num / den, regime.phi_prime(t) / num - regime.phi_prime(shifted) / den


# The S-matrix's corner weights; s_matrix fills the middle block of a copy.
_EYE4 = np.eye(4, dtype=complex)


def s_matrix(t1: complex, t2: complex, regime: Regime) -> np.ndarray:
    """4x4 S-matrix with spectral argument t1 - t2, corner weights 1.

    Basis order (|00>, |01>, |10>, |11>); the middle block is
    [[c, b], [b, c]] in the normalized weights.
    """
    t = t1 - t2
    c = c_weight(t, regime)
    b = b_weight(t, regime)
    out = _EYE4.copy()
    out[1, 1] = out[2, 2] = c
    out[1, 2] = out[2, 1] = b
    return out


def monodromy_matrix(t: complex, lattice: LatticeSpec, regime: Regime, block) -> np.ndarray:
    """T(t)·block for T(t) = S(1, aux)⋯S(L, aux), aux appended as site L+1.

    ``block`` has 2^(L+1) rows; the identity gives the dense T(t).  The
    factors act last first: S(L, aux) is applied first, S(1, aux) last.
    """
    for i, x in enumerate(lattice.xi, start=1):
        if abs(regime.phi(x - t + regime.eta)) < POLE_TOL:
            raise SingularWeightError(f"phi(xi_{i} - t + eta) = 0 at site {i}, t={t}")
    aux = lattice.length + 1
    out = np.asarray(block, dtype=complex)
    for i in range(lattice.length, 0, -1):
        out = apply_two_site_left(out, s_matrix(lattice.xi[i - 1], t, regime), i, aux, aux)
    return out


def extract_entries(product: np.ndarray) -> MonodromyEntries:
    """Slice the four auxiliary-space blocks out of T·(V ⊗ 1_aux).

    The auxiliary slot is the least significant bit of both the rows and
    the columns, so on the identity this slices the dense monodromy.  Block
    assignment to names is pinned by the vacuum actions, which the
    ``vacuum_actions`` verify check tests.
    """
    return MonodromyEntries(
        a=product[1::2, 1::2],
        b=product[0::2, 1::2],
        c=product[1::2, 0::2],
        d=product[0::2, 0::2],
    )


def site_weights(weight, t: complex, lattice: LatticeSpec, regime: Regime) -> list:
    """weight(xi_i - t, regime) for every site i in chain order, evaluated
    once per run of equal sites (``LatticeSpec.site_runs``)."""
    out = []
    for x, count in lattice.site_runs:
        out += [weight(x - t, regime)] * count
    return out


def vacuum_eigenvalue(t: complex, lattice: LatticeSpec, regime: Regime) -> complex:
    """Eigenvalue of the diagonal block on the empty chain: prod_i c(xi_i - t)."""
    a = 1.0 + 0.0j
    for w in site_weights(c_weight, t, lattice, regime):
        a *= w
    return a


def monodromy_entries(t: complex, lattice: LatticeSpec, regime: Regime, block) -> MonodromyEntries:
    """A·V, B·V, C·V and D·V for the chain block V (2^L rows), the identity
    giving the dense blocks: T(t) acts on V lifted to V ⊗ 1_aux."""
    lifted = np.kron(np.asarray(block), np.eye(2))
    return extract_entries(monodromy_matrix(t, lattice, regime, lifted))


def transfer_matrix(t: complex, lattice: LatticeSpec, regime: Regime, block) -> np.ndarray:
    """Auxiliary-space trace applied to the chain block: (A(t) + D(t))·V."""
    entries = monodromy_entries(t, lattice, regime, block)
    return entries.a + entries.d


def transfer_eigenvalue(t: complex, roots, lattice: LatticeSpec, regime: Regime) -> complex:
    """Transfer-matrix eigenvalue at spectral point t for the given roots.

    Has explicit poles at t = q_alpha; points closer than
    ``EIGENVALUE_POLE_TOL`` are rejected since the cancellation only happens
    in the action on the state.
    """
    for i, q in enumerate(roots, start=1):
        if abs(regime.phi(t - q)) < EIGENVALUE_POLE_TOL:
            raise PoleError(
                f"t={t} within {EIGENVALUE_POLE_TOL} of root q_{i}={q}; "
                "evaluate at a shifted point"
            )
    term1 = vacuum_eigenvalue(t, lattice, regime)
    term2 = 1.0 + 0.0j
    for q in roots:
        term1 *= c_weight_inv(q - t, regime)
        term2 *= c_weight_inv(t - q, regime)
    return term1 + term2


def _draw_until(draw, accept, what: str):
    """The first ``draw()`` that ``accept`` takes, of at most MAX_TRIES: the
    one rejection loop of every seeded sampler."""
    for _ in range(MAX_TRIES):
        value = draw()
        if accept(value):
            return value
    raise DegenerateParametersError(f"could not sample {what} after {MAX_TRIES} tries")


def _box_points(rng: np.random.Generator, n: int, spread: float) -> tuple[complex, ...]:
    """n points of the square box |re|, |im| <= spread, one (re, im) draw each."""
    return tuple(complex(a, b) for a, b in rng.uniform(-spread, spread, (n, 2)).tolist())


def _first_close_pair(values, regime: Regime, floor: float) -> tuple[int, int] | None:
    """The first pair i < j with |phi(v_i - v_j)| < floor, or None."""
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if abs(regime.phi(values[i] - values[j])) < floor:
                return i, j
    return None


def _clear_of_poles(lattice: LatticeSpec, t: complex, regime: Regime, guard: float) -> bool:
    """Every site keeps |phi(xi - t)| and |phi(xi - t + eta)| above ``guard``."""
    return all(
        abs(regime.phi(x - t)) > guard and abs(regime.phi(x - t + regime.eta)) > guard
        for x in lattice.xi
    )


def random_lattice(
    n_sites: int, regime: Regime, rng: np.random.Generator, spread: float | None = None
) -> LatticeSpec:
    """Sample inhomogeneities from a complex box, rejecting near-pole draws.

    The pair guard keeps pairwise differences (plain and eta-shifted) away
    from zeros of phi; the site guard does the same for the weights at
    spectral point 0, which the exchange identities evaluate.  Box and guards
    come from the per-family conditioning profile; ``spread`` narrows or
    widens the box.
    """
    profile = _SAMPLING[regime.family]
    if spread is None:
        spread = profile["spread"]
    # guards scale down with a narrower user-requested box to stay feasible
    scale = min(1.0, spread / profile["spread"])
    guard = profile["pair_guard"] * scale
    site_guard = profile["site_guard"] * scale

    def draw():  # all real parts, then all imaginary parts
        re, im = rng.uniform(-spread, spread, (2, n_sites))
        return LatticeSpec(n_sites, tuple(complex(a, b) for a, b in zip(re, im)))

    return _draw_until(
        draw,
        lambda lattice: lattice.is_generic(regime, floor=guard)
        and _clear_of_poles(lattice, 0.0, regime, site_guard),
        "a generic lattice",
    )


def random_spectral_point(
    lattice: LatticeSpec, regime: Regime, rng: np.random.Generator, avoid=()
) -> complex:
    """Sample t from the family's box avoiding weight poles and listed points."""
    spread = _SAMPLING[regime.family]["spread"]
    return _draw_until(
        lambda: _box_points(rng, 1, spread)[0],
        lambda t: _clear_of_poles(lattice, t, regime, SPECTRAL_GUARD)
        and all(abs(regime.phi(t - q)) > SPECTRAL_GUARD for q in avoid),
        "a generic spectral point",
    )
