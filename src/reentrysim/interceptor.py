"""Surface-to-air interceptor models, engagement zones and kill tables.

Two stock interceptors are shipped.  Type 1 is a single-stage booster
(959 kg, 50 kg/s, burnout at 302.8 kg); type 2 stages down through a boost,
a transition and a long sustain (984.7 kg to 365.4 kg at about 29.8 s).
Propellant flows and masses are taken from the reference firing tables; the
tables do not state thrust or drag area, so those are fitted by
``calibrate_type1`` / ``calibrate_type2`` against the tabulated speed
history (peak speed at burnout, coast decay), and the fitted values are
frozen here as the stock defaults.

Kill probability is tabulated as (P, H, D, V) rows: P was recorded at
altitude H with the engagement crossing at distance D and target speed V.
Lookups interpolate P on altitude and treat D and V as co-recorded
coordinates: queries far from the recorded D/V of the interpolated row
(beyond ``margin``, a fraction) return 0, and a query at a row's own
coordinates returns its P exactly.  Targets faster than both the recorded
speed and the 1500 m/s attenuation threshold scale P down by the tabulated
speed-probability roll-off.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from math import exp, isfinite
from typing import NamedTuple, Sequence

from .aero import DragModel, interceptor_drag_model
from .atmosphere import DEFAULT_ATMOSPHERE, AtmosphereModel
from .dynamics import G0, InterceptorState, VehicleState, _upper_bound_rows, rk4_step
from .errors import ConfigError, DomainError

# Fitted against the reference firing tables; see calibrate_type1/2.
TYPE1_THRUST = 121_146.4        # N
TYPE1_WING_AREA = 1.4126        # m^2
TYPE2_SPECIFIC_IMPULSE = 230.698  # s
TYPE2_WING_AREA = 2.0           # m^2, assumed; not identifiable from the reference run

TYPE1_CALIBRATION_PITCH = 2.321   # rad, pinned flight-path angle of the reference table
TYPE2_CALIBRATION_PITCH = 3.0181  # rad, boost-leg angle; later rows steer away


@dataclass(frozen=True)
class InterceptorSpec:
    """Mass/thrust schedule and airframe data for one interceptor type.

    stages: ((t_start, t_end, thrust_N, flow_kg_s), ...) contiguous from
    t = 0; the integral of flow over the stages equals initial - burnout.
    """

    name: str
    initial_mass: float
    burnout_mass: float
    stages: tuple
    wing_area: float
    drag: DragModel = field(default_factory=interceptor_drag_model)
    lag_time: float = 0.5     # s, load-factor lag
    launch_speed: float = 30.0  # m/s leaving the rail
    nav_gain: float = 4.0
    u_max: float = 25.0       # g, structural limit

    def __post_init__(self):
        if not 0.0 < self.burnout_mass < self.initial_mass:
            raise ConfigError("need 0 < burnout_mass < initial_mass")
        if not self.wing_area > 0.0:
            raise ConfigError("wing_area must be > 0")
        if not self.lag_time > 0.0:
            raise ConfigError("lag_time must be > 0")
        t_expect = 0.0
        burned = 0.0
        for t_start, t_end, thrust, flow in self.stages:
            if t_start != t_expect or t_end <= t_start:
                raise ConfigError("thrust stages must be contiguous from t = 0")
            if flow < 0.0 or thrust < 0.0:
                raise ConfigError("stage thrust and flow must be >= 0")
            burned += flow * (t_end - t_start)
            t_expect = t_end
        if not math.isclose(burned, self.initial_mass - self.burnout_mass, rel_tol=1e-9):
            raise ConfigError(
                f"stage flows burn {burned} kg, expected "
                f"{self.initial_mass - self.burnout_mass} kg"
            )

    def thrust_and_flow(self, t: float) -> tuple:
        """(thrust N, mass flow kg/s) at time t since launch; (0, 0) after burnout."""
        for t_start, t_end, thrust, flow in self.stages:
            if t_start <= t < t_end:
                return thrust, flow
        return 0.0, 0.0

    def mass_at(self, t: float) -> float:
        """Closed-form propellant bookkeeping; constant after burnout."""
        if t <= 0.0:
            return self.initial_mass
        m = self.initial_mass
        for t_start, t_end, _thrust, flow in self.stages:
            if t < t_end:
                return m - flow * (t - t_start)
            m -= flow * (t_end - t_start)
        return self.burnout_mass

    @property
    def burn_time(self) -> float:
        return self.stages[-1][1]


def type1_spec(thrust: float = TYPE1_THRUST, wing_area: float = TYPE1_WING_AREA) -> InterceptorSpec:
    """Single-stage type 1: 959 kg, 50 kg/s, burnout 302.8 kg at 13.124 s."""
    initial, burnout, flow = 959.0, 302.8, 50.0
    burn_time = (initial - burnout) / flow
    return InterceptorSpec(
        name="type-1",
        initial_mass=initial,
        burnout_mass=burnout,
        stages=((0.0, burn_time, thrust, flow),),
        wing_area=wing_area,
    )


def type2_spec(
    specific_impulse: float = TYPE2_SPECIFIC_IMPULSE,
    wing_area: float = TYPE2_WING_AREA,
) -> InterceptorSpec:
    """Three-stage type 2: boost 92.05 kg/s to 4 s, transition 36.35 kg/s to
    6 s, sustain 7.5 kg/s down to 365.4 kg (about 29.79 s).  Stage thrusts
    share one specific impulse."""
    initial, burnout = 984.7, 365.4
    flows = (92.05, 36.35, 7.5)
    mass_6 = initial - 4.0 * flows[0] - 2.0 * flows[1]
    t_burnout = 6.0 + (mass_6 - burnout) / flows[2]
    bounds = ((0.0, 4.0), (4.0, 6.0), (6.0, t_burnout))
    stages = tuple(
        (t0, t1, specific_impulse * G0 * flow, flow)
        for (t0, t1), flow in zip(bounds, flows)
    )
    return InterceptorSpec(
        name="type-2",
        initial_mass=initial,
        burnout_mass=burnout,
        stages=stages,
        wing_area=wing_area,
    )


class ProfilePoint(NamedTuple):
    t: float
    v: float
    y: float
    mass: float
    path: float  # distance along the flight path, m


@dataclass(frozen=True)
class FlightProfile:
    points: tuple
    v_peak: float
    t_peak: float


def pinned_pitch_profile(
    spec: InterceptorSpec,
    theta: float,
    t_end: float,
    env: AtmosphereModel = DEFAULT_ATMOSPHERE,
    g: float = G0,
    dt: float = 0.02,
    y0: float = 10.0,
) -> FlightProfile:
    """Fly the thrust schedule at a frozen flight-path angle.

    Reproduces the reference firing-table setup (the tables hold theta
    nearly constant) and doubles as the reachability integrator: ``path``
    accumulates distance flown, whatever the pitch.
    """
    sin_t = math.sin(theta)
    rho0 = env.rho0
    k_decay = env.k_decay
    vs_rows, cx_rows = _upper_bound_rows(env, spec.drag)
    cx_floor = spec.drag.cx_floor
    mach_cap = spec.drag.mach_cap
    wing_area = spec.wing_area
    stages = spec.stages
    burnout_mass = spec.burnout_mass

    # AtmosphereModel.density/mach and DragModel.cx inlined, as in
    # make_interceptor_rhs, but with the readable model's arithmetic so reach
    # tables and calibrations keep its bits: ``hc / 1000.0`` (that RHS's
    # ``* 0.001`` differs in the last bit for about one altitude in eight),
    # and the drag as ``cx * rho * va * va * wing_area / 2.0`` in that order.
    def rhs(t, y, _u):
        v, h, mass, _path = y
        thrust = 0.0
        flow = 0.0
        if mass > burnout_mass:
            for t_start, t_end, stage_thrust, stage_flow in stages:
                if t_start <= t < t_end:
                    thrust = stage_thrust
                    flow = stage_flow
                    break
        va = v if v > 0.0 else 0.0  # stage predictions may dip below zero
        if not isfinite(h):
            raise DomainError(f"altitude must be finite, got {h}")
        if not isfinite(va):
            raise DomainError(f"speed must be finite and >= 0, got {va}")
        hc = h if h > 0.0 else 0.0
        rho = rho0 * exp(-k_decay * hc)
        h_km = hc / 1000.0
        for hi, base, slope, ref in vs_rows:
            if h_km < hi:
                vs = base + slope * (h_km - ref)
                break
        m = va / vs
        if m > mach_cap:
            m = mach_cap
        for m_high, c2, c1, c0 in cx_rows:
            if m < m_high:
                cx = (c2 * m + c1) * m + c0
                if cx < cx_floor:
                    cx = cx_floor
                break
        drag = cx * rho * va * va * wing_area / 2.0
        return ((thrust - drag) / mass - g * sin_t, v * sin_t, -flow, v)

    y = (spec.launch_speed, y0, spec.initial_mass, 0.0)
    points = [ProfilePoint(0.0, y[0], y[1], y[2], y[3])]
    v_peak, t_peak = y[0], 0.0
    steps = round(t_end / dt)
    for k in range(steps):
        t = k * dt
        y = rk4_step(rhs, t, y, 0.0, dt)
        t_next = (k + 1) * dt
        points.append(ProfilePoint(t_next, y[0], y[1], y[2], y[3]))
        if y[0] > v_peak:
            v_peak, t_peak = y[0], t_next
        if y[1] <= 0.0 or y[0] < 1.0:
            break
    return FlightProfile(tuple(points), v_peak, t_peak)


def _bisect(f, lo: float, hi: float, tol: float, it_max: int = 60) -> float:
    """Root of f on [lo, hi]; f(lo) and f(hi) must bracket a sign change."""
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise ConfigError(f"calibration target not bracketed on [{lo}, {hi}]")
    for _ in range(it_max):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if abs(f_mid) < tol or hi - lo < 1e-12 * max(1.0, abs(mid)):
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return 0.5 * (lo + hi)


class CalibrationResult(NamedTuple):
    thrust: float
    wing_area: float
    v_peak: float
    t_peak: float
    v_anchor: float


def _fit_profile(
    make_profile,
    knob_bounds: tuple,
    area_bounds: tuple,
    v_peak_target: float,
    v_anchor_target: float,
    anchor_time: float,
) -> CalibrationResult:
    """Nested fit: the thrust knob sets the peak speed at fixed drag area
    (inner bisection), the drag area sets the post-peak decay (outer)."""

    def v_at(prof, t):
        return prof.points[min(round(t / 0.02), len(prof.points) - 1)].v

    fitted = {}  # area -> (knob, profile); the outer root is usually one of them

    def fit_knob(area):
        if area not in fitted:
            last = {}  # the latest profile flown, usually the one at the root

            def peak_residual(knob):
                last.clear()
                last[knob] = make_profile(knob, area)
                return last[knob].v_peak - v_peak_target

            knob = _bisect(peak_residual, knob_bounds[0], knob_bounds[1], 1e-6)
            fitted[area] = (knob, last[knob] if knob in last else make_profile(knob, area))
        return fitted[area]

    def anchor_residual(area):
        return v_at(fit_knob(area)[1], anchor_time) - v_anchor_target

    area = _bisect(anchor_residual, area_bounds[0], area_bounds[1], 1e-6)
    knob, prof = fit_knob(area)
    return CalibrationResult(knob, area, prof.v_peak, prof.t_peak, v_at(prof, anchor_time))


def calibrate_type1(
    v_peak_target: float = 1625.9,
    v_anchor_target: float = 810.2,
    anchor_time: float = 36.0,
    env: AtmosphereModel = DEFAULT_ATMOSPHERE,
) -> CalibrationResult:
    """Fit type-1 thrust and drag area to the reference speed history."""
    theta = TYPE1_CALIBRATION_PITCH

    def make_profile(thrust, area):
        return pinned_pitch_profile(
            type1_spec(thrust=thrust, wing_area=area), theta, anchor_time + 1.0, env
        )

    return _fit_profile(
        make_profile, (60_000.0, 500_000.0), (0.3, 3.0),
        v_peak_target, v_anchor_target, anchor_time,
    )


def calibrate_type2(
    v_peak_target: float = 721.2,
    report_time: float = 8.0,
    wing_area: float | None = None,
    env: AtmosphereModel = DEFAULT_ATMOSPHERE,
) -> CalibrationResult:
    """Fit the type-2 shared specific impulse to the reference peak; the
    fitted impulse is returned in the ``thrust`` slot.

    The drag area is not identifiable from the reference run: a wide
    band of areas reproduces the peak with a plausible impulse, while
    the post-peak rows imply more supersonic drag than the floored drag
    curve can express at any area. It is therefore frozen as an assumed
    cross-section and only the impulse is fitted. The speed at
    ``report_time`` is reported for inspection, not matched.
    """
    theta = TYPE2_CALIBRATION_PITCH
    area = TYPE2_WING_AREA if wing_area is None else wing_area

    def make_profile(isp):
        return pinned_pitch_profile(
            type2_spec(specific_impulse=isp, wing_area=area), theta, report_time + 1.0, env
        )

    isp = _bisect(lambda k: make_profile(k).v_peak - v_peak_target, 60.0, 500.0, 1e-6)
    prof = make_profile(isp)
    v_report = prof.points[min(round(report_time / 0.02), len(prof.points) - 1)].v
    return CalibrationResult(isp, area, prof.v_peak, prof.t_peak, v_report)


# --------------------------------------------------------------------------
# Engagement geometry


@dataclass(frozen=True)
class EngagementZone:
    index: int
    d_low: float
    d_high: float
    h_low: float
    h_high: float

    def contains(self, d: float, h: float) -> bool:
        return self.d_low < d < self.d_high and self.h_low < h < self.h_high


ENGAGEMENT_ZONES = (
    EngagementZone(1, 200.0, 10_000.0, 15.0, 3_000.0),
    EngagementZone(2, 10_000.0, 30_000.0, 3_000.0, 10_000.0),
    EngagementZone(3, 30_000.0, 70_000.0, 10_000.0, 24_000.0),
)


def zone_classify(d: float, h: float, zones=ENGAGEMENT_ZONES):
    """Zone index containing ground distance d and altitude h, else None."""
    if d < 0.0:
        raise DomainError(f"distance must be >= 0, got {d}")
    for zone in zones:
        if zone.contains(d, h):
            return zone.index
    return None


class EffectiveZone(NamedTuple):
    d_low: float
    d_high: float
    h_low: float
    h_high: float
    p_ceiling: float
    v_threshold: float


_EFFECTIVE_ZONES = {
    "type-1": EffectiveZone(2_500.0, 10_000.0, 4_000.0, 14_000.0, 0.6, 1500.0),
    "type-2": EffectiveZone(2_000.0, 6_000.0, 3_500.0, 11_000.0, 0.5, 1500.0),
}


def effective_zone(kind: str) -> EffectiveZone:
    """Demonstrated effective envelope and probability ceiling per type."""
    try:
        return _EFFECTIVE_ZONES[kind]
    except KeyError:
        raise ConfigError(f"unknown interceptor kind {kind!r}") from None


# --------------------------------------------------------------------------
# Kill tables


@dataclass(frozen=True)
class KillTable:
    """(p, h, d, v) rows sorted by altitude; see module docstring."""

    rows: tuple
    margin: float = 0.5  # co-recorded D/V proximity, fraction
    speed_attenuation: tuple = ()  # (v, p) roll-off anchors, ascending v

    def __post_init__(self):
        if not self.rows:
            raise ConfigError("kill table must have at least one row")
        hs = [row[1] for row in self.rows]
        if hs != sorted(hs):
            raise ConfigError("kill table rows must be sorted by altitude")
        for p, h, d, v in self.rows:
            if not (0.0 <= p <= 1.0 and h > 0.0 and d > 0.0 and v > 0.0):
                raise ConfigError(f"bad kill-table row {(p, h, d, v)}")
        if not 0.0 < self.margin:
            raise ConfigError("margin must be > 0")


TYPE1_KILL_TABLE = KillTable(
    rows=(
        (0.5, 1000.0, 1000.0, 500.0),
        (0.6, 3000.0, 2000.0, 1000.0),
        (0.8, 5000.0, 3000.0, 1500.0),
        (0.9, 7000.0, 4000.0, 1650.0),
        (0.85, 9000.0, 6000.0, 1600.0),
        (0.8, 11000.0, 7000.0, 1400.0),
        (0.7, 13000.0, 8000.0, 1200.0),
        (0.7, 15000.0, 10000.0, 1000.0),
        (0.6, 18000.0, 12000.0, 900.0),
        (0.5, 20000.0, 14000.0, 800.0),
    ),
    speed_attenuation=(
        (1200.0, 0.7),
        (1300.0, 0.65),
        (1400.0, 0.6),
        (1500.0, 0.55),
        (1600.0, 0.5),
        (1700.0, 0.4),
    ),
)

TYPE2_KILL_TABLE = KillTable(
    rows=(
        (0.5, 1000.0, 1000.0, 400.0),
        (0.6, 3000.0, 2000.0, 700.0),
        (0.8, 5000.0, 3000.0, 750.0),
        (0.8, 7000.0, 4000.0, 750.0),
        (0.8, 9000.0, 5000.0, 700.0),
        (0.7, 11000.0, 6000.0, 600.0),
        (0.6, 13000.0, 8000.0, 500.0),
        (0.5, 15000.0, 10000.0, 450.0),
        (0.4, 18000.0, 12000.0, 400.0),
    ),
    speed_attenuation=(
        (1200.0, 0.55),
        (1300.0, 0.5),
        (1400.0, 0.45),
        (1500.0, 0.4),
        (1600.0, 0.35),
        (1700.0, 0.3),
    ),
)

SPEED_ATTENUATION_THRESHOLD = 1500.0  # m/s


def _speed_rolloff(anchors: Sequence, v: float) -> float:
    """Piecewise-linear speed-probability roll-off, extrapolated past the
    last anchor on its end slope and clamped to [0.01, 1]."""
    vs = [a[0] for a in anchors]
    i = bisect_right(vs, v)
    if i == 0:
        v0, p0 = anchors[0]
        v1, p1 = anchors[1]
    elif i == len(anchors):
        v0, p0 = anchors[-2]
        v1, p1 = anchors[-1]
    else:
        v0, p0 = anchors[i - 1]
        v1, p1 = anchors[i]
    p = p0 + (p1 - p0) * (v - v0) / (v1 - v0)
    return min(1.0, max(0.01, p))


def kill_probability(table: KillTable, h: float, d: float, v: float) -> float:
    """Single-shot kill probability at altitude h, crossing distance d,
    target speed v.  0 outside the envelope."""
    for value, name in ((h, "altitude"), (d, "distance"), (v, "speed")):
        if not (math.isfinite(value) and value >= 0.0):
            raise DomainError(f"{name} must be finite and >= 0, got {value}")
    rows = table.rows
    if h < rows[0][1] or h > rows[-1][1]:
        return 0.0
    hs = [row[1] for row in rows]
    i = bisect_right(hs, h)
    if i == len(rows):
        p_h, _, d_h, v_h = rows[-1]
    else:
        lo, hi = rows[max(i - 1, 0)], rows[min(i, len(rows) - 1)]
        if hi[1] == lo[1]:
            frac = 0.0
        else:
            frac = (h - lo[1]) / (hi[1] - lo[1])
        p_h = lo[0] + frac * (hi[0] - lo[0])
        d_h = lo[2] + frac * (hi[2] - lo[2])
        v_h = lo[3] + frac * (hi[3] - lo[3])
    if abs(d - d_h) > table.margin * d_h:
        return 0.0
    if abs(v - v_h) > table.margin * v_h:
        return 0.0
    p = p_h
    if v >= SPEED_ATTENUATION_THRESHOLD and v > v_h and table.speed_attenuation:
        ratio = _speed_rolloff(table.speed_attenuation, v) / _speed_rolloff(
            table.speed_attenuation, max(v_h, SPEED_ATTENUATION_THRESHOLD)
        )
        p *= min(1.0, ratio)
    return p


# --------------------------------------------------------------------------
# Launch planning and homing


@dataclass(frozen=True)
class ReachTable:
    """Time to cover slant range along the flight path, from a pinned-pitch
    climb profile."""

    times: tuple
    path: tuple

    @classmethod
    def build(
        cls,
        spec: InterceptorSpec,
        env: AtmosphereModel = DEFAULT_ATMOSPHERE,
        elevation: float = 1.0,
        t_end: float = 120.0,
    ) -> "ReachTable":
        prof = pinned_pitch_profile(spec, elevation, t_end, env)
        return cls(
            times=tuple(p.t for p in prof.points),
            path=tuple(p.path for p in prof.points),
        )

    def time_to(self, slant: float) -> float | None:
        """First time the path length reaches ``slant``; None if never."""
        if slant <= 0.0:
            return 0.0
        i = bisect_right(self.path, slant)
        if i >= len(self.path):
            return None
        s0, s1 = self.path[i - 1], self.path[i]
        t0, t1 = self.times[i - 1], self.times[i]
        if s1 == s0:
            return t1
        return t0 + (t1 - t0) * (slant - s0) / (s1 - s0)


class LaunchPlan(NamedTuple):
    launch_time: float
    aim_angle: float
    intercept_time: float
    intercept_x: float
    intercept_y: float
    zone: int
    margin: float  # available flight time minus required, s


def launch_decision(
    prediction: Sequence,
    site_x: float,
    spec: InterceptorSpec,
    reach: ReachTable,
    now: float = 0.0,
    zones=ENGAGEMENT_ZONES,
) -> LaunchPlan | None:
    """Earliest feasible intercept against a predicted track.

    prediction: time-ordered (t, x, y) samples of the target.  A point is
    feasible when it lies in an engagement zone and the interceptor can
    cover the slant range from the site in the time remaining.  Returns the
    plan for the earliest feasible point, or None.
    """
    for t, x, y in prediction:
        if t < now:
            continue
        dx = x - site_x
        d = abs(dx)
        zone = zone_classify(d, y, zones)
        if zone is None:
            continue
        slant = math.hypot(dx, y)
        t_flight = reach.time_to(slant)
        if t_flight is None:
            continue
        launch_time = t - t_flight
        if launch_time >= now:
            return LaunchPlan(
                launch_time=launch_time,
                aim_angle=math.atan2(y, dx),
                intercept_time=t,
                intercept_x=x,
                intercept_y=y,
                zone=zone,
                margin=(t - now) - t_flight,
            )
    return None


def interceptor_guidance(
    state: InterceptorState,
    target: VehicleState,
    nav_gain: float = 4.0,
    u_max: float = 25.0,
    g: float = G0,
) -> float:
    """Proportional navigation with gravity compensation, clamped to the
    structural limit: u = N' (Vc / g) dlambda/dt + cos(theta)."""
    rx = target.x - state.x
    ry = target.y - state.y
    r_sq = rx * rx + ry * ry
    if r_sq == 0.0:
        raise DomainError("PN undefined at zero range")
    r = math.sqrt(r_sq)
    rvx = target.v * math.cos(target.theta) - state.v * math.cos(state.theta)
    rvy = target.v * math.sin(target.theta) - state.v * math.sin(state.theta)
    los_rate = (rx * rvy - ry * rvx) / r_sq
    closing = -(rx * rvx + ry * rvy) / r
    u = nav_gain * (closing / g) * los_rate + math.cos(state.theta)
    if u > u_max:
        return u_max
    if u < -u_max:
        return -u_max
    return u
