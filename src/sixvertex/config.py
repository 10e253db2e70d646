"""Run configuration: a flat key/value text file plus CLI overrides."""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .textio import parse_complex_list, parse_key_values
from .vertex_model import FAMILIES, PERMUTATION_CAP, LatticeSpec, Regime, random_lattice

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
        if self.family not in FAMILIES:
            raise ConfigError(f"regime must be one of {FAMILIES}, got {self.family!r}")
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
        if not np.isfinite(self.eta):
            raise ConfigError(f"eta must be finite, got {self.eta}")
        if self.xi_spread is not None and not 0 < self.xi_spread < np.inf:
            raise ConfigError(f"xi_spread must be finite and positive, got {self.xi_spread}")
        if self.xi is not None and len(self.xi) != self.length:
            raise ConfigError(
                f"explicit xi list has {len(self.xi)} entries for L={self.length}"
            )
        if self.xi is not None and not np.all(np.isfinite(self.xi)):
            raise ConfigError(f"explicit xi list must be finite, got {self.xi}")
        object.__setattr__(self, "eta", complex(self.eta))
        if self.xi is not None:
            object.__setattr__(self, "xi", tuple(complex(x) for x in self.xi))
        object.__setattr__(self, "output_dir", Path(self.output_dir))

    def regime(self) -> Regime:
        try:
            return Regime(self.family, self.eta)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def resolve_lattice(self, rng: np.random.Generator) -> LatticeSpec:
        """Explicit lattice, or one sampled deterministically from the rng."""
        if self.xi is not None:
            return LatticeSpec(self.length, self.xi)
        return random_lattice(self.length, self.regime(), rng, spread=self.xi_spread)

    def with_overrides(self, seed=None, output_dir=None) -> "RunConfig":
        cfg = self
        if seed is not None:
            cfg = replace(cfg, seed=seed)
        if output_dir is not None:
            cfg = replace(cfg, output_dir=Path(output_dir))
        return cfg


def parse_config_text(text: str) -> RunConfig:
    """Parse the flat key: value format; '#' starts a comment."""
    values = parse_key_values(text, {k: parse for k, (_, parse) in _KEYS.items()}, ConfigError)
    return RunConfig(**{_KEYS[key][0]: value for key, value in values.items()})


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(path.read_text())


def config_as_dict(config: RunConfig, lattice: LatticeSpec | None = None) -> dict:
    """Deterministic JSON-friendly echo, with the resolved lattice if given."""
    return {
        "regime": config.family,
        "eta": repr(config.eta),
        "L": config.length,
        "M": config.magnons,
        "xi": [repr(x) for x in (lattice.xi if lattice else (config.xi or ()))],
        "xi_spread": config.xi_spread,
        "seed": config.seed,
    }
