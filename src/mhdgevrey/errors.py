"""Exception types shared across the package."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class FieldInvariantError(ValueError):
    """A spectral field violates reality, zero-mean or solenoidality."""


class GevreyOverflowError(OverflowError):
    """Exponential weight would overflow double precision."""


class ConfigError(ValueError):
    """Invalid run configuration."""


class CheckpointError(ValueError):
    """Malformed or inconsistent checkpoint file."""


class TraceError(ValueError):
    """Trace archive missing data needed by a verifier."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance."""


class BlowUpError(RuntimeError):
    """Integration produced non-finite coefficients.

    Carries the last valid state (and, when raised from a simulation,
    the partially written archive remains on disk).
    """

    def __init__(self, t, last_state=None):
        super().__init__("numerical blow-up at t=%r" % (t,))
        self.t = t
        self.last_state = last_state
