"""Surface-to-air interceptor models, engagement zones and kill tables.

Two stock interceptors are shipped.  Type 1 is a single-stage booster
(959 kg, 50 kg/s, burnout at 302.8 kg); type 2 stages down through a boost,
a transition and a long sustain (984.7 kg to 365.4 kg at about 29.8 s).
Propellant flows and masses are taken from the reference firing tables; the
tables do not state thrust or drag area, so those are fitted by
``calibrate_type1`` / ``calibrate_type2`` against the tabulated speed
history (peak speed at burnout, coast decay), and the fitted values are
frozen here as the stock defaults.  Each fit solves a monotone residual by
the Illinois variant of regula falsi (``_bisect``); the type-1 inner fit,
which reads only the peak speed, flies its profiles only to the first grid
point at or after burnout.

Kill probability is tabulated as (P, H, D, V) rows: P was recorded at
altitude H with the engagement crossing at distance D and target speed V.
Lookups interpolate P on altitude and treat D and V as co-recorded
coordinates: queries far from the recorded D/V of the interpolated row
(beyond ``KILL_TABLE_MARGIN``, a fraction) return 0, and a query at a
row's own coordinates returns its P exactly.  Targets faster than both the
recorded speed and the 1500 m/s attenuation threshold scale P down by the
tabulated speed-probability roll-off.

Launch planning reads a ``ReachTable``, the time to fly a slant range on
the pinned-pitch climb at ``REACH_ELEVATION``.  The table flies that climb
only as far as its queries read, each step once, and answers as the climb
flown in full to ``REACH_T_END`` would.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from .aero import DragModel, interceptor_drag_model
from .atmosphere import DEFAULT_ATMOSPHERE, AtmosphereModel
from .dynamics import G0, _generated_rhs, rk4_step
from .errors import ConfigError, DomainError

# Fitted against the reference firing tables; see calibrate_type1/2.
TYPE1_THRUST = 121_146.4        # N
TYPE1_WING_AREA = 1.4126        # m^2
TYPE2_SPECIFIC_IMPULSE = 230.698  # s
TYPE2_WING_AREA = 2.0           # m^2, assumed; not identifiable from the reference run

TYPE1_CALIBRATION_PITCH = 2.321   # rad, pinned flight-path angle of the reference table
TYPE2_CALIBRATION_PITCH = 3.0181  # rad, boost-leg angle; later rows steer away
# calibration targets, read off the reference speed histories
TYPE1_PEAK_SPEED = 1625.9         # m/s, at burnout
TYPE1_ANCHOR_SPEED = 810.2        # m/s at TYPE1_ANCHOR_TIME, sets the coast decay
TYPE1_ANCHOR_TIME = 36.0          # s
TYPE2_PEAK_SPEED = 721.2          # m/s
TYPE2_REPORT_TIME = 8.0           # s, speed reported for inspection, not matched

PROFILE_DT = 0.02  # s, step of the pinned-pitch profiles


@dataclass(frozen=True)
class InterceptorSpec:
    """Mass/thrust schedule and airframe data for one interceptor type.

    stages: ((t_start, t_end, thrust_N, flow_kg_s), ...) contiguous from
    t = 0; the integral of flow over the stages equals initial - burnout.
    """

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
        initial_mass=initial,
        burnout_mass=burnout,
        stages=stages,
        wing_area=wing_area,
    )


STOCK_SPECS = {"type-1": type1_spec(), "type-2": type2_spec()}  # one per kind, built once


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
    dt: float = PROFILE_DT,
    y0: float = 10.0,
) -> FlightProfile:
    """Fly the thrust schedule at a frozen flight-path angle.

    Reproduces the reference firing-table setup (the tables hold theta
    nearly constant) and doubles as the reachability integrator: ``path``
    accumulates distance flown, whatever the pitch.

    The RHS and its fused step are the generated ``profile`` kernel,
    compiled once per table set from the stage template of
    ``dynamics._kernel_source``, with the readable model's arithmetic.  The
    step has the bits of ``_rk4_generic``, which replays it on any error and
    so raises the RHS's :class:`DomainError`.
    """
    if not (0.0 <= t_end < math.inf and 0.0 < dt < math.inf and math.isfinite(theta)
            and 0.0 < g < math.inf and 0.0 <= y0 < math.inf):
        raise DomainError(f"need finite t_end >= 0 and dt > 0, a finite theta, a finite "
                          f"g > 0 and a finite launch altitude y0 >= 0, got t_end={t_end}, "
                          f"dt={dt}, theta={theta}, g={g}, y0={y0}")
    points = tuple(_profile_steps(spec, theta, t_end, env, g, dt, y0))
    peak = max(points, key=lambda p: p.v)  # the first of equal peaks
    return FlightProfile(points, peak.v, peak.t)


def _profile_steps(spec: InterceptorSpec, theta: float, t_end: float,
                   env: AtmosphereModel, g: float, dt: float, y0: float):
    """The points of one pinned-pitch climb, launch first, one per step, up
    to ``t_end`` or the first point on the ground or below 1 m/s."""
    rhs = _generated_rhs("profile", env, spec.drag, wing_area=spec.wing_area, g=g,
                         sin_t=math.sin(theta), stages=spec.stages,
                         burnout_mass=spec.burnout_mass)
    y = (spec.launch_speed, y0, spec.initial_mass, 0.0)
    yield ProfilePoint(0.0, y[0], y[1], y[2], y[3])
    for k in range(round(t_end / dt)):
        y = rk4_step(rhs, k * dt, y, 0.0, dt)
        yield ProfilePoint((k + 1) * dt, y[0], y[1], y[2], y[3])
        if y[1] <= 0.0 or y[0] < 1.0:
            return


def _bisect(f, lo: float, hi: float, tol: float) -> float:
    """Root of f on [lo, hi]; f(lo), f(hi) must bracket a sign change.

    The Illinois variant of regula falsi (Dowell & Jarratt, BIT 11, 1971):
    each point is the secant point of the bracket, or its midpoint when that
    is not strictly inside; when the same end is kept twice, the other end's
    residual is halved.  Stops when the residual is below ``tol``, the
    bracket is narrower than 1e-12 relative, or after 60 points, and returns
    the last point evaluated.  A non-finite residual raises ConfigError.
    """
    def residual(x):
        r = f(x)
        if not math.isfinite(r):
            raise ConfigError(f"calibration residual is {r} at {x}")
        return r

    f_lo, f_hi = residual(lo), residual(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise ConfigError(f"calibration target not bracketed on [{lo}, {hi}]")
    kept = None  # the end kept by the last update
    for _ in range(60):
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        f_x = residual(x)
        if abs(f_x) < tol or hi - lo < 1e-12 * max(1.0, abs(x)):
            return x
        if (f_x > 0.0) == (f_lo > 0.0):
            lo, f_lo = x, f_x
            if kept == "hi":
                f_hi *= 0.5
            kept = "hi"
        else:
            hi, f_hi = x, f_x
            if kept == "lo":
                f_lo *= 0.5
            kept = "lo"
    return x


class CalibrationResult(NamedTuple):
    thrust: float
    wing_area: float
    v_peak: float
    t_peak: float
    v_anchor: float


def _v_at(prof: FlightProfile, t: float) -> float:
    """Speed at the profile point nearest t, or at its last point."""
    return prof.points[min(round(t / PROFILE_DT), len(prof.points) - 1)].v


def _fit_profile(make_profile) -> CalibrationResult:
    """Nested fit to the type-1 targets: the thrust knob sets the peak speed
    at fixed drag area (inner fit), the drag area sets the post-peak decay
    (outer); ``make_profile(knob, area, t_end)`` flies one profile.

    The inner fit reads only the peak, so its profiles stop at the first
    grid point at or after burnout: past it no stage sees thrust and, at a
    climbing pitch, drag and gravity both brake, so the speed falls
    strictly.  The anchor residual reads the full profile, flown once per
    drag area at its inner root."""
    peak_end = math.ceil(STOCK_SPECS["type-1"].burn_time / PROFILE_DT) * PROFILE_DT

    @functools.cache  # the outer root is usually an area already fitted
    def fit_knob(area):
        knob = _bisect(lambda k: make_profile(k, area, peak_end).v_peak - TYPE1_PEAK_SPEED,
                       60_000.0, 500_000.0, 1e-6)
        return knob, make_profile(knob, area, TYPE1_ANCHOR_TIME + 1.0)

    def anchor_residual(area):
        return _v_at(fit_knob(area)[1], TYPE1_ANCHOR_TIME) - TYPE1_ANCHOR_SPEED

    area = _bisect(anchor_residual, 0.3, 3.0, 1e-6)
    knob, prof = fit_knob(area)
    return CalibrationResult(knob, area, prof.v_peak, prof.t_peak, _v_at(prof, TYPE1_ANCHOR_TIME))


def calibrate_type1() -> CalibrationResult:
    """Fit type-1 thrust and drag area to the reference speed history."""
    def make_profile(thrust, area, t_end):
        return pinned_pitch_profile(type1_spec(thrust=thrust, wing_area=area),
                                    TYPE1_CALIBRATION_PITCH, t_end)

    return _fit_profile(make_profile)


def calibrate_type2() -> CalibrationResult:
    """Fit the type-2 shared specific impulse to the reference peak; the
    fitted impulse is returned in the ``thrust`` slot.

    The drag area is not identifiable from the reference run: a wide
    band of areas reproduces the peak with a plausible impulse, while
    the post-peak rows imply more supersonic drag than the floored drag
    curve can express at any area. It is therefore frozen as an assumed
    cross-section and only the impulse is fitted. The speed at
    ``TYPE2_REPORT_TIME`` is reported for inspection, not matched.
    """
    @functools.lru_cache(maxsize=1)  # the root is usually the last point flown
    def make_profile(isp):
        return pinned_pitch_profile(type2_spec(specific_impulse=isp, wing_area=TYPE2_WING_AREA),
                                    TYPE2_CALIBRATION_PITCH, TYPE2_REPORT_TIME + 1.0)

    isp = _bisect(lambda k: make_profile(k).v_peak - TYPE2_PEAK_SPEED, 60.0, 500.0, 1e-6)
    prof = make_profile(isp)
    return CalibrationResult(isp, TYPE2_WING_AREA, prof.v_peak, prof.t_peak,
                             _v_at(prof, TYPE2_REPORT_TIME))


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


def zone_classify(d: float, h: float):
    """Zone index containing ground distance d and altitude h, else None."""
    if d < 0.0:
        raise DomainError(f"distance must be >= 0, got {d}")
    for zone in ENGAGEMENT_ZONES:
        if zone.contains(d, h):
            return zone.index
    return None


# --------------------------------------------------------------------------
# Kill tables

KILL_TABLE_MARGIN = 0.5  # co-recorded D/V proximity, fraction


@dataclass(frozen=True)
class KillTable:
    """(p, h, d, v) rows sorted by altitude; see module docstring."""

    rows: tuple
    speed_attenuation: tuple  # (v, p) roll-off anchors, at least two, ascending v

    def __post_init__(self):
        if not self.rows:
            raise ConfigError("kill table must have at least one row")
        hs = [row[1] for row in self.rows]
        if hs != sorted(hs):
            raise ConfigError("kill table rows must be sorted by altitude")
        for p, h, d, v in self.rows:
            if not (0.0 <= p <= 1.0 and h > 0.0 and d > 0.0 and v > 0.0):
                raise ConfigError(f"bad kill-table row {(p, h, d, v)}")
        vs = [v for v, _p in self.speed_attenuation]
        if len(vs) < 2 or not all(-math.inf < a < b < math.inf for a, b in zip(vs, vs[1:])):
            raise ConfigError("speed roll-off needs at least two finite, ascending anchor speeds")
        if not all(0.0 <= p <= 1.0 for _v, p in self.speed_attenuation):
            raise ConfigError("speed roll-off probabilities must lie in [0, 1]")


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
    if abs(d - d_h) > KILL_TABLE_MARGIN * d_h:
        return 0.0
    if abs(v - v_h) > KILL_TABLE_MARGIN * v_h:
        return 0.0
    p = p_h
    if v >= SPEED_ATTENUATION_THRESHOLD and v > v_h:
        ratio = _speed_rolloff(table.speed_attenuation, v) / _speed_rolloff(
            table.speed_attenuation, max(v_h, SPEED_ATTENUATION_THRESHOLD)
        )
        p *= min(1.0, ratio)
    return p


# --------------------------------------------------------------------------
# Launch planning

REACH_ELEVATION = 1.0  # rad, pitch of the reach profile
REACH_T_END = 120.0    # s, longest fly-out the planner considers


class ReachTable:
    """Time to cover slant range along the flight path, from the pinned-pitch
    climb at ``REACH_ELEVATION``, flown lazily.

    ``times`` and ``path`` hold the prefix flown so far.  A query flies on
    only until ``path`` passes its slant or the climb ends, and answers as
    the fully flown table would wherever ``path`` is nondecreasing, as on
    the stock climbs.  A climb the RHS cannot fly raises its DomainError
    at every query that needs a point past the failing step.
    """

    def __init__(self, points):
        self._points = points  # iterator over the ProfilePoints not yet flown
        self._error = None     # the DomainError that ended the climb early
        self.times = []
        self.path = []

    @classmethod
    def build(cls, spec: InterceptorSpec,
              env: AtmosphereModel = DEFAULT_ATMOSPHERE) -> "ReachTable":
        return cls(_profile_steps(spec, REACH_ELEVATION, REACH_T_END, env, G0, PROFILE_DT, 10.0))

    def time_to(self, slant: float) -> float | None:
        """First time the path length reaches ``slant``; None if never."""
        if math.isnan(slant):
            raise DomainError("slant range must not be NaN")
        if slant <= 0.0:
            return 0.0
        path = self.path
        if not path or path[-1] <= slant:
            if self._error is not None:
                raise self._error
            try:
                for point in self._points:
                    self.times.append(point.t)
                    path.append(point.path)
                    if point.path > slant:
                        break
            except DomainError as err:  # the climb ends here, for every later query too
                self._error = err
                raise
        i = bisect_right(path, slant)
        if i >= len(path):
            return None
        s0, s1 = path[i - 1], path[i]
        t0, t1 = self.times[i - 1], self.times[i]
        if s1 == s0:
            return t1
        return t0 + (t1 - t0) * (slant - s0) / (s1 - s0)


class LaunchPlan(NamedTuple):
    """Launch time and rail angle, the time of the planned intercept, and
    the slack between them."""

    launch_time: float
    aim_angle: float
    intercept_time: float
    margin: float  # available flight time minus required, s


def launch_decision(
    prediction: Sequence,
    site_x: float,
    reach: ReachTable,
    now: float = 0.0,
) -> LaunchPlan | None:
    """Earliest feasible intercept against a predicted track.

    prediction: time-ordered (t, x, y) samples of the target.  A point is
    feasible when it lies in an engagement zone and the interceptor, whose
    fly-out ``reach`` tabulates, can cover the slant range from the site in
    the time remaining.  Returns the plan for the earliest feasible point,
    or None.
    """
    for t, x, y in prediction:
        if t < now:
            continue
        dx = x - site_x
        if zone_classify(abs(dx), y) is None:
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
                margin=(t - now) - t_flight,
            )
    return None

