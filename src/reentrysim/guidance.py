"""Four-phase descent guidance, seeker acquisition and evasive maneuvering.

This module holds the guidance, seeker and evasion configurations and the
evasion law.  The phase machine that applies the laws below, once per
integration step over the raw state tuple, is ``_VehicleControl`` in
:mod:`reentrysim.engagement`, which also makes the seeker-noise and
turbulence draws; every run applies it inline, in the one generated run
loop pinned to it.

The commanded load factor U is produced by one law per phase:

    GRAVITATIONAL  U = 0 (ballistic; a config switch selects U = cos(theta))
    PULL_UP        U = v^2 / (g R) + cos(theta)        (level-out on radius R)
    ALTITUDE_HOLD  U = k (H_ref - y) + cos(theta)      (proportional hold)
    TERMINAL       U = k_alpha * alpha                  (homing on the target)

alpha is the signed angle from the velocity vector to the line of sight to
the target.  All commands clamp to +-u_max.  Phases are ordered and never
regress; seeker acquisition promotes any earlier phase directly to
TERMINAL, which is how short-range descents that never level out behave.

Evasion, when triggered by an interceptor boost, overrides the phase
command with a hard turn sized by the kinematic evasion radius, holding
each turn for a dwell time and alternating direction between activations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum
from typing import NamedTuple

from .dynamics import G0
from .errors import NON_NEGATIVE, POSITIVE, DomainError, check_ranges, in_range


class GuidancePhase(IntEnum):
    GRAVITATIONAL = 0
    PULL_UP = 1
    ALTITUDE_HOLD = 2
    TERMINAL = 3


@dataclass(frozen=True)
class GuidanceConfig:
    pullup_start_altitude: float = 80_000.0  # m; GRAVITATIONAL -> PULL_UP below this
    pullup_radius: float = field(default=45_000.0, metadata=POSITIVE)  # m
    hold_altitude: float = 35_000.0          # m
    hold_band: float = field(default=500.0, metadata=NON_NEGATIVE)  # m; ALTITUDE_HOLD inside band
    hold_gain: float = field(default=0.01, metadata=POSITIVE)  # 1/m
    terminal_gain: float = field(default=10.0, metadata=POSITIVE)  # g per rad of boresight error
    u_max: float = field(default=15.0, metadata=POSITIVE)  # g
    gravitational_cos_theta: bool = False    # alternate phase-1 law

    __post_init__ = check_ranges


@dataclass(frozen=True)
class SeekerModel:
    """Target acquisition window of the landing seeker.

    The target is acquired when the vehicle is below ``activation_altitude``,
    inside ``activation_range`` slant range, and the line of sight sits
    within ``field_of_regard`` of the velocity vector.
    """

    activation_altitude: float = field(default=35_000.0, metadata=POSITIVE)  # m
    activation_range: float = field(default=100_000.0, metadata=POSITIVE)  # m, slant
    field_of_regard: float = field(  # rad, half-cone about the velocity
        default=1.0, metadata=in_range("in (0, pi]", lambda v: 0.0 < v <= math.pi))

    __post_init__ = check_ranges


@dataclass(frozen=True)
class EvasionConfig:
    enabled: bool = True
    interceptor_turn_radius: float = field(default=3000.0, metadata=POSITIVE)  # m, assumed
    interceptor_speed: float = field(default=1600.0, metadata=POSITIVE)  # m/s, assumed
    dwell: float = field(default=3.0, metadata=POSITIVE)  # s per turn before the sign flips

    __post_init__ = check_ranges


def wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]."""
    a = math.fmod(a, 2.0 * math.pi)
    if a > math.pi:
        a -= 2.0 * math.pi
    elif a <= -math.pi:
        a += 2.0 * math.pi
    return a


class EvasionRadii(NamedTuple):
    exact: float
    approximate: float


def evasion_radius(
    v_vehicle: float,
    v_interceptor: float,
    interceptor_turn_radius: float,
    theta_vehicle: float = math.pi / 2.0,
    theta_interceptor: float = math.pi / 2.0,
    g: float = G0,
) -> EvasionRadii:
    """Turn radius that out-curves a pursuer of given speed and turn radius.

    exact balances the load factors of both craft including the gravity
    terms; approximate drops them (valid near vertical flight, where both
    cosines vanish and the two forms coincide).
    """
    args = (v_vehicle, v_interceptor, interceptor_turn_radius, theta_vehicle, theta_interceptor, g)
    if not all(map(math.isfinite, args)):
        raise DomainError(f"arguments must be finite, got {args}")
    if not (v_vehicle > 0.0 and v_interceptor > 0.0 and interceptor_turn_radius > 0.0):
        raise DomainError("speeds and turn radius must be > 0")
    denom = (
        v_interceptor * v_interceptor / (g * interceptor_turn_radius)
        + math.cos(theta_interceptor)
        + math.cos(theta_vehicle)
    )
    if denom <= 0.0:
        raise DomainError("degenerate evasion geometry (non-positive load balance)")
    exact = v_vehicle * v_vehicle / (g * denom)
    approximate = (
        v_vehicle * v_vehicle * interceptor_turn_radius / (v_interceptor * v_interceptor)
    )
    return EvasionRadii(exact, approximate)


class HoldGain(NamedTuple):
    gain: float
    implied_angle_of_attack: float
    in_reference_band: bool


def hold_gain_from_turn(
    v: float, turn_radius: float, h_ref: float, y: float, g: float = G0
) -> HoldGain:
    """Altitude-hold gain that realizes a given turn radius at a given depth.

    gain = (v^2 / (g turn_radius)) / (h_ref - y).  The implied angle of
    attack comes from the small-geometry identity gain * (h_ref - y) =
    tan(A).  Gains outside the reference band [0.001, 0.01] 1/m are
    reported, not clamped.
    """
    if not all(map(math.isfinite, (v, turn_radius, h_ref, y, g))):
        raise DomainError(f"arguments must be finite, got {(v, turn_radius, h_ref, y, g)}")
    if not (v > 0.0 and turn_radius > 0.0):
        raise DomainError("speed and turn radius must be > 0")
    gap = h_ref - y
    if gap <= 0.0:
        raise DomainError("reference altitude must sit above current altitude")
    load = v * v / (g * turn_radius)
    gain = load / gap
    return HoldGain(gain, math.atan(load), 0.001 <= gain <= 0.01)


class EvasionController:
    """Stateful evasion override.

    While a pursuer boost is flagged, turn commands chain back to back:
    each activation locks the turn radius from the current speed, holds for
    ``dwell`` seconds and flips direction on the next activation.  Returns
    None when the phase law should rule.
    """

    def __init__(self, cfg: EvasionConfig, u_max: float, g: float = G0):
        self.cfg = cfg
        self.u_max = u_max
        self.g = g
        self._until = -math.inf
        self._sign = -1.0
        self._radius = math.inf

    def command(self, t: float, v: float, theta: float, boost_active: bool) -> float | None:
        if not self.cfg.enabled:
            return None
        if boost_active and t >= self._until:
            self._sign = -self._sign
            self._until = t + self.cfg.dwell
            self._radius = evasion_radius(
                v, self.cfg.interceptor_speed, self.cfg.interceptor_turn_radius, g=self.g
            ).approximate
        if t < self._until:
            u = self._sign * v * v / (self.g * self._radius) + math.cos(theta)
            if u > self.u_max:
                return self.u_max
            if u < -self.u_max:
                return -self.u_max
            return u
        return None
