"""Shared exception types."""


class DomainError(ValueError):
    """An input is outside the domain a routine is defined on."""


class ConfigError(ValueError):
    """A model or scenario parameter violates its contract."""


class IntegrationAbort(RuntimeError):
    """Integration hit a singular or non-finite state.

    Carries the offending time and state vector so a failed Monte Carlo
    run can be recorded instead of crashing the batch.
    """

    def __init__(self, reason: str, t: float, state=None):
        super().__init__(f"{reason} at t={t:.3f}")
        self.reason = reason
        self.t = t
        self.state = state


class BatchError(RuntimeError):
    """Every run in a Monte Carlo batch failed."""


class OutputError(OSError):
    """An output directory or file could not be written."""
