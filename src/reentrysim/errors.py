"""Shared exception types, and the one range check of the config dataclasses."""

import math
from dataclasses import fields
from functools import cache


class DomainError(ValueError):
    """An input is outside the domain a routine is defined on."""


class ConfigError(ValueError):
    """A model or scenario parameter violates its contract."""


def in_range(text: str, inside) -> dict:
    """Field metadata: the value must be ``text``, which ``inside(value)`` tests."""
    return {"range": (inside, text)}


POSITIVE = in_range("finite and > 0", lambda v: 0.0 < v < math.inf)
NON_NEGATIVE = in_range("finite and >= 0", lambda v: 0.0 <= v < math.inf)


@cache
def _range_rows(cls) -> tuple:
    """(name, label, inside, text) per field declared ``float``, worked out
    once per class; the label is the name unless the metadata gives one."""
    return tuple((f.name, f.metadata.get("label", f.name),
                  *f.metadata.get("range", (math.isfinite, "finite")))
                 for f in fields(cls) if f.type in ("float", float))


def check_ranges(config) -> None:
    """Raise :class:`ConfigError` for the first float field of the config
    dataclass ``config`` outside its range.  Each field declares its range
    once, as ``field`` metadata (:data:`POSITIVE`, :data:`NON_NEGATIVE` or
    an :func:`in_range`); a field that declares none must be finite."""
    for name, label, inside, text in _range_rows(type(config)):
        value = getattr(config, name)
        if not inside(value):
            raise ConfigError(f"{label} must be {text}, got {value}")


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
