"""Exception types shared across the lab."""


class SingularWeightError(ValueError):
    """A normalized vertex weight was evaluated at a pole of phi(t + eta)."""


class DegenerateParametersError(ValueError):
    """Inhomogeneity parameters too close to a forbidden coincidence."""


class DegenerateRootsError(ValueError):
    """Two spectral roots coincide within the separation tolerance."""


class SolverFailureError(RuntimeError):
    """Root solver did not converge within its iteration budget."""

    def __init__(self, message: str, trace: list[str] | None = None):
        super().__init__(message)
        self.trace = trace or []


class DegenerateStateError(ValueError):
    """A constructed state vector has numerically zero norm."""


class PoleError(ValueError):
    """Evaluation point too close to an explicit pole; shift it and retry."""


class SizeCapError(ValueError):
    """Requested permutation sum exceeds the fixed size cap, PERMUTATION_CAP."""


class ConfigError(ValueError):
    """Run configuration could not be parsed or validated."""


class ProvenanceError(ValueError):
    """Stored roots do not match the lattice they are being used with."""
