"""Exponential-density atmosphere with a piecewise-linear speed of sound.

Altitudes are geometric meters above the landing plane.  Density follows a
single exponential profile; the speed of sound is a six-branch piecewise
linear table (altitude in km inside the branch formulas).  The branch table
is deliberately discontinuous at two seams (about 6.2 m/s at 80 km and
1.2 m/s at 45.5 km); ``branch_discontinuities`` reports the jump at every
interior seam so the seams stay auditable instead of silently smoothed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import NON_NEGATIVE, POSITIVE, ConfigError, DomainError, check_ranges

RHO0 = 1.225            # sea-level density, kg/m^3
K_DECAY = 1.0 / 7000.0  # inverse density scale height, 1/m

# (h_low_km, h_high_km, base_m_s, slope_m_s_per_km, h_ref_km)
# Vs = base + slope * (H_km - h_ref_km) on [h_low, h_high).
# Ties at a seam resolve to the higher-altitude branch.
VS_BRANCHES = (
    (0.0, 11.0, 340.28, -4.1, 0.0),
    (11.0, 25.0, 295.1, 0.0, 11.0),
    (25.0, 45.5, 295.1, 1.8, 25.0),
    (45.5, 54.0, 330.8, 0.0, 45.5),
    (54.0, 80.0, 330.8, -2.0, 54.0),
    (80.0, math.inf, 272.6, 0.0, 80.0),
)


@dataclass(frozen=True)
class AtmosphereModel:
    """Density profile plus speed-of-sound table.

    rho0 = 0 is allowed so drag can be switched off for conservation
    checks; negative values are rejected.
    """

    rho0: float = field(default=RHO0, metadata=NON_NEGATIVE)
    k_decay: float = field(default=K_DECAY, metadata=POSITIVE)
    vs_branches: tuple = field(default=VS_BRANCHES)

    def __post_init__(self):
        check_ranges(self)
        lo_expect = 0.0
        for lo, hi, base, slope, ref in self.vs_branches:
            if lo != lo_expect:
                raise ConfigError(f"speed-of-sound branches leave a gap at {lo_expect} km")
            if hi <= lo:
                raise ConfigError(f"empty speed-of-sound branch at {lo} km")
            if not all(map(math.isfinite, (base, slope, ref))):
                raise ConfigError(f"speed-of-sound branch at {lo} km must be finite")
            for h_km in (lo, min(hi, 1000.0)):
                if base + slope * (h_km - ref) <= 0.0:
                    raise ConfigError(f"speed of sound non-positive inside branch at {lo} km")
            lo_expect = hi
        if lo_expect != math.inf:
            raise ConfigError("speed-of-sound branches must cover all altitudes")

    def density(self, h: float) -> float:
        """Density in kg/m^3.  Altitudes below the landing plane clamp to 0 m."""
        if not math.isfinite(h):
            raise DomainError(f"altitude must be finite, got {h}")
        if h < 0.0:
            h = 0.0
        return self.rho0 * math.exp(-self.k_decay * h)

    def speed_of_sound(self, h: float) -> float:
        """Speed of sound in m/s from the branch table."""
        if not math.isfinite(h):
            raise DomainError(f"altitude must be finite, got {h}")
        if h < 0.0:
            h = 0.0
        h_km = h / 1000.0
        for lo, hi, base, slope, ref in self.vs_branches:
            if lo <= h_km < hi:
                return base + slope * (h_km - ref)
        raise DomainError(f"no speed-of-sound branch for altitude {h} m")  # pragma: no cover

    def mach(self, v: float, h: float) -> float:
        """Mach number of speed v at altitude h."""
        if not (v >= 0.0 and math.isfinite(v)):
            raise DomainError(f"speed must be finite and >= 0, got {v}")
        return v / self.speed_of_sound(h)


def branch_discontinuities(model: AtmosphereModel) -> list[tuple[float, float]]:
    """(seam altitude km, |jump| m/s) at every interior branch seam."""
    out = []
    branches = model.vs_branches
    for (lo_a, hi_a, base_a, slope_a, ref_a), (lo_b, _, base_b, slope_b, ref_b) in zip(
        branches, branches[1:]
    ):
        below = base_a + slope_a * (hi_a - ref_a)
        above = base_b + slope_b * (lo_b - ref_b)
        out.append((hi_a, abs(above - below)))
    return out


DEFAULT_ATMOSPHERE = AtmosphereModel()
