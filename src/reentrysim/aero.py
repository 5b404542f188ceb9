"""Piecewise-quadratic drag coefficient models.

Cx is quadratic in Mach number on three segments (subsonic, transonic,
supersonic) with seams at ``MACH_BREAKPOINTS``.  Two stock coefficient sets
are shipped, one for the reentry vehicle and one for the interceptors.
Outputs are clamped below by a ``DragModel``'s ``cx_floor`` (``CX_FLOOR`` on
both stock models) because the supersonic polynomials go negative well
inside the flight envelope (the interceptor set for M over roughly 1.8).

The supersonic vehicle polynomial is a fit that grows like M^2 and becomes
unusable near orbital-entry Mach numbers, so the stock vehicle model
freezes evaluation above ``VEHICLE_MACH_CAP``: cx(M) = cx(cap) for M above
the cap.  The cap was chosen by matching simulated ballistic range against
the reference descent profile (see tests); physically it stands in for the
hypersonic drag plateau the quadratic fit cannot represent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import POSITIVE, ConfigError, DomainError, check_ranges, in_range

MACH_BREAKPOINTS = (0.8, 1.2)   # segment seams; ties select the higher-Mach segment
CX_FLOOR = 0.05
VEHICLE_MACH_CAP = 13.8         # calibrated against the reference ballistic descent

# (c2, c1, c0) per segment: cx = c2*M^2 + c1*M + c0
VEHICLE_CX_COEFFS = (
    (1.37, 0.2, 0.2),
    (-6.0, 12.0, -5.0),
    (0.01416, -0.16993, 0.51679),
)
INTERCEPTOR_CX_COEFFS = (
    (2.85, -2.85, 1.31),
    (-4.31, 8.62, -3.31),
    (0.0143, -1.184, 2.07),
)


@dataclass(frozen=True)
class DragModel:
    """Three-segment quadratic cx(M) with a positive floor.

    segments: ((m_low, m_high, c2, c1, c0), ...) covering [0, inf) with
    half-open intervals [m_low, m_high).
    """

    segments: tuple
    cx_floor: float = field(default=CX_FLOOR, metadata=POSITIVE)
    mach_cap: float = field(default=math.inf, metadata=in_range("in (0, inf]", lambda v: v > 0.0))

    def __post_init__(self):
        check_ranges(self)
        lo_expect = 0.0
        for m_low, m_high, c2, c1, c0 in self.segments:
            if m_low != lo_expect or m_high <= m_low:
                raise ConfigError("drag segments must tile [0, inf) without gaps")
            if not all(map(math.isfinite, (c2, c1, c0))):
                raise ConfigError(f"drag segment at Mach {m_low} must be finite")
            lo_expect = m_high
        if lo_expect != math.inf:
            raise ConfigError("drag segments must cover all Mach numbers")

    def cx(self, m: float) -> float:
        """Drag coefficient at Mach m (m >= 0)."""
        if not (m >= 0.0 and math.isfinite(m)):
            raise DomainError(f"Mach number must be finite and >= 0, got {m}")
        if m > self.mach_cap:
            m = self.mach_cap
        for m_low, m_high, c2, c1, c0 in self.segments:
            if m_low <= m < m_high:
                value = (c2 * m + c1) * m + c0
                return value if value > self.cx_floor else self.cx_floor
        raise DomainError(f"no drag segment for Mach {m}")  # pragma: no cover


def _build(coeffs, mach_cap: float) -> DragModel:
    seams = (0.0, *MACH_BREAKPOINTS, math.inf)
    segments = tuple((lo, hi, *c) for lo, hi, c in zip(seams, seams[1:], coeffs))
    return DragModel(segments=segments, cx_floor=CX_FLOOR, mach_cap=mach_cap)


def vehicle_drag_model() -> DragModel:
    """Stock reentry-vehicle drag model, capped at ``VEHICLE_MACH_CAP``."""
    return _build(VEHICLE_CX_COEFFS, VEHICLE_MACH_CAP)


def interceptor_drag_model() -> DragModel:
    """Stock interceptor drag model: no Mach cap."""
    return _build(INTERCEPTOR_CX_COEFFS, math.inf)
