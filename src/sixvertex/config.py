"""Run configuration: a flat key/value text file plus CLI overrides."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .textio import parse_complex_list, parse_key_values
from .vertex_model import PERMUTATION_CAP, LatticeSpec, Regime, random_lattice

# File key -> (RunConfig field, value parser); "xi: random" means sampled.
_KEYS = {
    "regime": ("family", str),
    "eta": ("eta", complex),
    "L": ("length", int),
    "M": ("magnons", int),
    "xi": ("xi", lambda v: None if v == "random" else parse_complex_list(v)),
    "xi_spread": ("xi_spread", float),
    "seed": ("seed", int),
    "output_dir": ("output_dir", Path),
}


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs; one seed drives all sampling."""

    family: str = "rational"
    eta: complex = 1.0 + 0.0j
    length: int = 6
    magnons: int = 2
    xi: tuple[complex, ...] | None = None  # None: sampled from seed + spread
    xi_spread: float | None = None  # None: per-family default
    seed: int = 7
    output_dir: Path = Path("out")

    def __post_init__(self):
        if self.length < 1:
            raise ConfigError("L must be at least 1")
        # The solver seeds M roots on distinct branches 1 .. L-1, so M = L has none.
        if not 0 <= self.magnons < self.length:
            raise ConfigError(f"M={self.magnons} must satisfy 0 <= M < L={self.length}")
        # A rational sector M holds C(L, M) - C(L, M-1) regular root sets: none past L/2.
        if self.family == "rational" and 2 * self.magnons > self.length:
            raise ConfigError(f"rational M={self.magnons} must satisfy 2M <= L={self.length}")
        # the wave table and periodicity check sum over M! permutations
        if self.magnons > PERMUTATION_CAP:
            raise ConfigError(f"M={self.magnons} exceeds the permutation-sum cap {PERMUTATION_CAP}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.xi_spread is not None and not 0 < self.xi_spread < np.inf:
            raise ConfigError(f"xi_spread must be finite and positive, got {self.xi_spread}")
        if self.xi is not None and not np.all(np.isfinite(self.xi)):
            raise ConfigError(f"explicit xi list must be finite, got {self.xi}")
        # Regime checks family, finite eta and phi(eta) != 0; LatticeSpec the xi count.
        try:
            regime = Regime(self.family, self.eta)
            lattice = None if self.xi is None else LatticeSpec(self.length, self.xi)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        object.__setattr__(self, "eta", regime.eta)
        object.__setattr__(self, "xi", None if lattice is None else lattice.xi)
        object.__setattr__(self, "output_dir", Path(self.output_dir))
        # built once, outside the fields: ==, hash and repr do not see them
        object.__setattr__(self, "_regime", regime)
        object.__setattr__(self, "_lattice", lattice)

    def regime(self) -> Regime:
        return self._regime

    def resolve_lattice(self, rng: np.random.Generator) -> LatticeSpec:
        """Explicit lattice, or one sampled deterministically from the rng."""
        if self._lattice is not None:
            return self._lattice
        return random_lattice(self.length, self._regime, rng, spread=self.xi_spread)


def parse_config_text(text: str) -> RunConfig:
    """Parse the flat key: value format; '#' starts a comment."""
    values = parse_key_values(text, {k: parse for k, (_, parse) in _KEYS.items()}, ConfigError)
    return RunConfig(**{_KEYS[key][0]: value for key, value in values.items()})


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(path.read_text())


def config_as_dict(config: RunConfig, lattice: LatticeSpec) -> dict:
    """Deterministic JSON-friendly echo, with the resolved lattice."""
    return {
        "regime": config.family,
        "eta": repr(config.eta),
        "L": config.length,
        "M": config.magnons,
        "xi": [repr(x) for x in lattice.xi],
        "xi_spread": config.xi_spread,
        "seed": config.seed,
    }
