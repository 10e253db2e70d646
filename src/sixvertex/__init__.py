"""Exact verification lab for the inhomogeneous six-vertex model.

Monodromy blocks and the factorizing operator, each applied to blocks of
vectors one two-site gate at a time; the closed forms F conjugates the
blocks into, checked on weights and random probe vectors; a Bethe-root
solver with eigenstate verification; the coordinate-space wave function
with an independent brute-force oracle; and the domain-wall partition
function with a sum/recurrence cross-check.
"""

from .bethe import BetheRoots, bae_residuals, eigenstate_residual, solve_bethe_roots
from .config import RunConfig, load_config
from .coordinate_wf import psi_formula, wave_table
from .dwbc import DwbcInput, dwbc_recurrence, dwbc_sum
from .f_basis import FactorizingOperator, factorizing_operator
from .verify import run_verify
from .vertex_model import LatticeSpec, MonodromyEntries, Regime, monodromy_entries

__all__ = [
    "BetheRoots",
    "DwbcInput",
    "FactorizingOperator",
    "LatticeSpec",
    "MonodromyEntries",
    "Regime",
    "RunConfig",
    "bae_residuals",
    "dwbc_recurrence",
    "dwbc_sum",
    "eigenstate_residual",
    "factorizing_operator",
    "load_config",
    "monodromy_entries",
    "psi_formula",
    "run_verify",
    "solve_bethe_roots",
    "wave_table",
]
__version__ = "0.1.0"
