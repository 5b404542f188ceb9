"""Planar point-mass flight dynamics and the fixed-step integrator.

State conventions (SI units, radians):

    x      ground range, m
    y      altitude, m
    z      lateral offset, m (positive left of the x axis)
    v      airspeed, m/s
    theta  flight-path angle, rad (positive climbing)
    w      heading angle, rad (0 along +x; z grows when w < 0)
    n      realized normal load factor, g units

The load factor follows its command through a first-order lag; gravity and
drag act on speed; lift (n) acts only on the flight-path angle.  Scenarios
here are planar (w = 0, no lateral load), but the heading and lateral
equations are kept so the interceptor reachability tables generalize.

Equations of motion, vehicle:

    dv/dt     = -cx(M) rho(y) v^2 S / (2 m) - g sin(theta)
    dtheta/dt = (g / v) (n - cos(theta))
    dx/dt     = v cos(theta) cos(w)
    dz/dt     = -v cos(theta) sin(w)
    dy/dt     = v sin(theta)
    dn/dt     = (u - n) / lag_time
    dw/dt     = g n_lat / (v cos(theta))

The interceptor adds thrust along the velocity vector and a mass equation:

    dv/dt    = (thrust(t) - cx(M) rho(y) v^2 S / 2) / mass - g sin(theta)
    dmass/dt = -mass_flow(t)

Integration is classical fixed-step RK4 with the command held constant
across a step (zero-order hold).  ``integrate_until`` terminates on ground
impact (touchdown state linearly interpolated inside the final step), on a
caller-supplied stop event, or on timeout; timeout is a result, not an
error.  A non-finite state or a speed below ``SPEED_GUARD`` aborts the run
with :class:`~reentrysim.errors.IntegrationAbort`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import cos, exp, isfinite, sin
from typing import Callable, NamedTuple, Sequence

from .aero import DragModel, vehicle_drag_model
from .atmosphere import DEFAULT_ATMOSPHERE, AtmosphereModel
from .errors import ConfigError, IntegrationAbort

G0 = 9.80665      # m/s^2
SPEED_GUARD = 1.0  # m/s; below this 1/v terms are treated as singular


@dataclass(frozen=True)
class VehicleState:
    t: float
    x: float
    y: float
    z: float
    v: float
    theta: float
    w: float = 0.0
    n: float = 0.0

    def as_vector(self) -> tuple:
        return (self.x, self.y, self.z, self.v, self.theta, self.w, self.n)

    @classmethod
    def from_vector(cls, t: float, vec: Sequence[float]) -> "VehicleState":
        return cls(t, *vec)


@dataclass(frozen=True)
class InterceptorState:
    t: float
    x: float
    y: float
    z: float
    v: float
    theta: float
    w: float
    n: float
    mass: float

    def as_vector(self) -> tuple:
        return (self.x, self.y, self.z, self.v, self.theta, self.w, self.n, self.mass)

    @classmethod
    def from_vector(cls, t: float, vec: Sequence[float]) -> "InterceptorState":
        return cls(t, *vec)


@dataclass(frozen=True)
class VehicleSpec:
    """Mass and aerodynamic description of the reentry vehicle.

    lift_to_drag is the quoted lifting quality of the airframe; the
    point-mass equations above do not consume it (load factor is commanded
    directly), it is recorded for reporting.
    """

    mass: float = 1500.0       # kg
    wing_area: float = 2.0     # m^2
    drag: DragModel = field(default_factory=vehicle_drag_model)
    lift_to_drag: float = 2.0
    lag_time: float = 1.0      # s, load-factor lag constant

    def __post_init__(self):
        if not self.mass > 0.0:
            raise ConfigError(f"mass must be > 0, got {self.mass}")
        if not self.wing_area > 0.0:
            raise ConfigError(f"wing_area must be > 0, got {self.wing_area}")
        if not self.lag_time > 0.0:
            raise ConfigError(f"lag_time must be > 0, got {self.lag_time}")


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float = 0.02            # s
    t_max: float = 600.0        # s
    g: float = G0
    sample_interval: float = 10.0  # s between recorded trajectory rows

    def __post_init__(self):
        if not 0.0 < self.dt <= 1.0:
            raise ConfigError(f"dt must be in (0, 1] s, got {self.dt}")
        if not self.t_max > 0.0:
            raise ConfigError(f"t_max must be > 0, got {self.t_max}")
        if not self.g > 0.0:
            raise ConfigError(f"g must be > 0, got {self.g}")
        if not self.sample_interval >= self.dt:
            raise ConfigError("sample_interval must be >= dt")


class VehicleRates(NamedTuple):
    x: float
    y: float
    z: float
    v: float
    theta: float
    w: float
    n: float


class InterceptorRates(NamedTuple):
    x: float
    y: float
    z: float
    v: float
    theta: float
    w: float
    n: float
    mass: float


def vehicle_derivatives(
    state: VehicleState,
    u: float,
    spec: VehicleSpec,
    env: AtmosphereModel = DEFAULT_ATMOSPHERE,
    g: float = G0,
    n_lateral: float = 0.0,
) -> VehicleRates:
    """Time derivative of the vehicle state under commanded load factor u."""
    v = state.v
    if not v >= SPEED_GUARD:
        raise IntegrationAbort("speed below guard (1/v singular)", state.t, state.as_vector())
    rho = env.density(state.y)
    cx = spec.drag.cx(env.mach(v, state.y))
    drag_acc = cx * rho * v * v * spec.wing_area / (2.0 * spec.mass)
    st, ct = sin(state.theta), cos(state.theta)
    cw = cos(state.w)
    if n_lateral != 0.0:
        if abs(ct) < 1e-6:
            raise IntegrationAbort(
                "cos(theta) ~ 0 in heading equation", state.t, state.as_vector()
            )
        dw = g * n_lateral / (v * ct)
    else:
        dw = 0.0
    return VehicleRates(
        x=v * ct * cw,
        y=v * st,
        z=-v * ct * sin(state.w),
        v=-drag_acc - g * st,
        theta=(g / v) * (state.n - ct),
        w=dw,
        n=(u - state.n) / spec.lag_time,
    )


def _upper_bound_rows(env: AtmosphereModel, drag: DragModel) -> tuple:
    """Speed-of-sound branches and drag segments without their lower bounds.

    Both tables tile [0, inf) in ascending order, so the first row whose
    upper bound exceeds a value is the interval holding it: the row a
    ``lo <= x < hi`` scan finds, at one comparison per row.
    """
    return (
        tuple(row[1:] for row in env.vs_branches),
        tuple(row[1:] for row in drag.segments),
    )


def make_vehicle_rhs(
    spec: VehicleSpec,
    env: AtmosphereModel = DEFAULT_ATMOSPHERE,
    g: float = G0,
) -> Callable:
    """Fast planar twin of :func:`vehicle_derivatives` for the step loop.

    Atmosphere and drag lookups are inlined over plain tuples; tests pin
    this closure against the readable implementation.

    The returned RHS carries ``rhs.rk4_step(t, y, u, dt)``, one whole RK4
    step with this body inlined at each of the four stages, which
    :func:`rk4_step` takes for the 7-state vector.  It computes only the
    five live components (x, h, v, theta, n); z and w pass through as
    ``y + sixth * 0.0``, the reference's value exactly.  Stage inputs,
    outputs and the non-finite sum keep :func:`_rk4_step_7`'s operand
    order, so the step has the same bits.  On any error (a speed below the
    guard, an altitude no branch holds, a non-finite sum) it replays the
    step through :func:`_rk4_step_7`, which raises the reference's
    :class:`IntegrationAbort`: the same reason, stage time and state.  A
    wrapper around this RHS, such as a timer, has no ``rk4_step`` and so
    runs the reference step.  The inlining is the gain: one inner function
    called per stage saved about two thirds as much.
    """
    rho0 = env.rho0
    k_decay = env.k_decay
    vs_rows, cx_rows = _upper_bound_rows(env, spec.drag)
    cx_floor = spec.drag.cx_floor
    mach_cap = spec.drag.mach_cap
    area_over_2m = spec.wing_area / (2.0 * spec.mass)
    inv_lag = 1.0 / spec.lag_time

    def rhs(t, y, u):
        x, h, z, v, theta, w, n = y
        if not v >= SPEED_GUARD:
            raise IntegrationAbort("speed below guard (1/v singular)", t, y)
        hc = h if h > 0.0 else 0.0
        rho = rho0 * exp(-k_decay * hc)
        h_km = hc * 0.001
        for hi, base, slope, ref in vs_rows:
            if h_km < hi:
                vs = base + slope * (h_km - ref)
                break
        else:
            raise IntegrationAbort("non-finite altitude", t, y)
        m = v / vs
        if m > mach_cap:
            m = mach_cap
        for m_high, c2, c1, c0 in cx_rows:
            if m < m_high:
                cx = (c2 * m + c1) * m + c0
                if cx < cx_floor:
                    cx = cx_floor
                break
        st = sin(theta)
        ct = cos(theta)
        return (
            v * ct,
            v * st,
            0.0,
            -cx * rho * v * v * area_over_2m - g * st,
            (g / v) * (n - ct),
            0.0,
            (u - n) * inv_lag,
        )

    # The drag scans need no replay branch: only v = inf under an infinite
    # mach_cap gets past every segment, which makes the sum non-finite (at
    # stage 1, this step and the reference fail alike).
    def fused_step(t, y, u, dt):
        y0, y1, y2, y3, y4, y5, y6 = y
        h2 = 0.5 * dt
        # stage 1 at (t, y)
        h, v, theta, n = y1, y3, y4, y6
        if not v >= SPEED_GUARD:
            return _rk4_step_7(rhs, t, y, u, dt)
        hc = h if h > 0.0 else 0.0
        rho = rho0 * exp(-k_decay * hc)
        h_km = hc * 0.001
        for hi, base, slope, ref in vs_rows:
            if h_km < hi:
                vs = base + slope * (h_km - ref)
                break
        else:
            return _rk4_step_7(rhs, t, y, u, dt)
        m = v / vs
        if m > mach_cap:
            m = mach_cap
        for m_high, q2, q1, q0 in cx_rows:
            if m < m_high:
                cx = (q2 * m + q1) * m + q0
                if cx < cx_floor:
                    cx = cx_floor
                break
        st = sin(theta)
        ct = cos(theta)
        a0 = v * ct
        a1 = v * st
        a3 = -cx * rho * v * v * area_over_2m - g * st
        a4 = (g / v) * (n - ct)
        a6 = (u - n) * inv_lag
        # stage 2 at (t + h2, y + h2 * k1)
        h = y1 + h2 * a1
        v = y3 + h2 * a3
        theta = y4 + h2 * a4
        n = y6 + h2 * a6
        if not v >= SPEED_GUARD:
            return _rk4_step_7(rhs, t, y, u, dt)
        hc = h if h > 0.0 else 0.0
        rho = rho0 * exp(-k_decay * hc)
        h_km = hc * 0.001
        for hi, base, slope, ref in vs_rows:
            if h_km < hi:
                vs = base + slope * (h_km - ref)
                break
        else:
            return _rk4_step_7(rhs, t, y, u, dt)
        m = v / vs
        if m > mach_cap:
            m = mach_cap
        for m_high, q2, q1, q0 in cx_rows:
            if m < m_high:
                cx = (q2 * m + q1) * m + q0
                if cx < cx_floor:
                    cx = cx_floor
                break
        st = sin(theta)
        ct = cos(theta)
        b0 = v * ct
        b1 = v * st
        b3 = -cx * rho * v * v * area_over_2m - g * st
        b4 = (g / v) * (n - ct)
        b6 = (u - n) * inv_lag
        # stage 3 at (t + h2, y + h2 * k2)
        h = y1 + h2 * b1
        v = y3 + h2 * b3
        theta = y4 + h2 * b4
        n = y6 + h2 * b6
        if not v >= SPEED_GUARD:
            return _rk4_step_7(rhs, t, y, u, dt)
        hc = h if h > 0.0 else 0.0
        rho = rho0 * exp(-k_decay * hc)
        h_km = hc * 0.001
        for hi, base, slope, ref in vs_rows:
            if h_km < hi:
                vs = base + slope * (h_km - ref)
                break
        else:
            return _rk4_step_7(rhs, t, y, u, dt)
        m = v / vs
        if m > mach_cap:
            m = mach_cap
        for m_high, q2, q1, q0 in cx_rows:
            if m < m_high:
                cx = (q2 * m + q1) * m + q0
                if cx < cx_floor:
                    cx = cx_floor
                break
        st = sin(theta)
        ct = cos(theta)
        c0 = v * ct
        c1 = v * st
        c3 = -cx * rho * v * v * area_over_2m - g * st
        c4 = (g / v) * (n - ct)
        c6 = (u - n) * inv_lag
        # stage 4 at (t + dt, y + dt * k3)
        h = y1 + dt * c1
        v = y3 + dt * c3
        theta = y4 + dt * c4
        n = y6 + dt * c6
        if not v >= SPEED_GUARD:
            return _rk4_step_7(rhs, t, y, u, dt)
        hc = h if h > 0.0 else 0.0
        rho = rho0 * exp(-k_decay * hc)
        h_km = hc * 0.001
        for hi, base, slope, ref in vs_rows:
            if h_km < hi:
                vs = base + slope * (h_km - ref)
                break
        else:
            return _rk4_step_7(rhs, t, y, u, dt)
        m = v / vs
        if m > mach_cap:
            m = mach_cap
        for m_high, q2, q1, q0 in cx_rows:
            if m < m_high:
                cx = (q2 * m + q1) * m + q0
                if cx < cx_floor:
                    cx = cx_floor
                break
        st = sin(theta)
        ct = cos(theta)
        d0 = v * ct
        d1 = v * st
        d3 = -cx * rho * v * v * area_over_2m - g * st
        d4 = (g / v) * (n - ct)
        d6 = (u - n) * inv_lag
        sixth = dt / 6.0
        o0 = y0 + sixth * (a0 + 2.0 * (b0 + c0) + d0)
        o1 = y1 + sixth * (a1 + 2.0 * (b1 + c1) + d1)
        o2 = y2 + sixth * 0.0
        o3 = y3 + sixth * (a3 + 2.0 * (b3 + c3) + d3)
        o4 = y4 + sixth * (a4 + 2.0 * (b4 + c4) + d4)
        o5 = y5 + sixth * 0.0
        o6 = y6 + sixth * (a6 + 2.0 * (b6 + c6) + d6)
        if not isfinite(o0 + o1 + o2 + o3 + o4 + o5 + o6):
            return _rk4_step_7(rhs, t, y, u, dt)
        return (o0, o1, o2, o3, o4, o5, o6)

    rhs.rk4_step = fused_step
    return rhs


def interceptor_derivatives(
    state: InterceptorState,
    u: float,
    spec,  # InterceptorSpec
    env: AtmosphereModel = DEFAULT_ATMOSPHERE,
    g: float = G0,
) -> InterceptorRates:
    """Time derivative of the interceptor state under commanded load factor u.

    ``t`` in the state is time since launch; the thrust schedule is indexed
    by it.  Thrust and flow are forced to zero once mass reaches burnout.
    """
    v = state.v
    if not v >= SPEED_GUARD:
        raise IntegrationAbort("speed below guard (1/v singular)", state.t, state.as_vector())
    thrust, flow = spec.thrust_and_flow(state.t)
    if state.mass <= spec.burnout_mass:
        thrust, flow = 0.0, 0.0
    rho = env.density(state.y)
    cx = spec.drag.cx(env.mach(v, state.y))
    drag = cx * rho * v * v * spec.wing_area / 2.0
    st, ct = sin(state.theta), cos(state.theta)
    return InterceptorRates(
        x=v * ct * cos(state.w),
        y=v * st,
        z=-v * ct * sin(state.w),
        v=(thrust - drag) / state.mass - g * st,
        theta=(g / v) * (state.n - ct),
        w=0.0,
        n=(u - state.n) / spec.lag_time,
        mass=-flow,
    )


def make_interceptor_rhs(spec, env: AtmosphereModel = DEFAULT_ATMOSPHERE, g: float = G0) -> Callable:
    """Fast planar twin of :func:`interceptor_derivatives`."""
    rho0 = env.rho0
    k_decay = env.k_decay
    vs_rows, cx_rows = _upper_bound_rows(env, spec.drag)
    cx_floor = spec.drag.cx_floor
    mach_cap = spec.drag.mach_cap
    half_area = spec.wing_area / 2.0
    inv_lag = 1.0 / spec.lag_time
    stages = spec.stages
    burnout_mass = spec.burnout_mass

    def rhs(t, y, u):
        x, h, z, v, theta, w, n, mass = y
        if not v >= SPEED_GUARD:
            raise IntegrationAbort("speed below guard (1/v singular)", t, y)
        thrust = 0.0
        flow = 0.0
        if mass > burnout_mass:
            for t_start, t_end, stage_thrust, stage_flow in stages:
                if t_start <= t < t_end:
                    thrust = stage_thrust
                    flow = stage_flow
                    break
        hc = h if h > 0.0 else 0.0
        rho = rho0 * exp(-k_decay * hc)
        h_km = hc * 0.001
        for hi, base, slope, ref in vs_rows:
            if h_km < hi:
                vs = base + slope * (h_km - ref)
                break
        else:
            raise IntegrationAbort("non-finite altitude", t, y)
        m = v / vs
        if m > mach_cap:
            m = mach_cap
        for m_high, c2, c1, c0 in cx_rows:
            if m < m_high:
                cx = (c2 * m + c1) * m + c0
                if cx < cx_floor:
                    cx = cx_floor
                break
        st = sin(theta)
        ct = cos(theta)
        return (
            v * ct,
            v * st,
            0.0,
            (thrust - cx * rho * v * v * half_area) / mass - g * st,
            (g / v) * (n - ct),
            0.0,
            (u - n) * inv_lag,
            -flow,
        )

    return rhs


def rk4_step(rhs: Callable, t: float, y: tuple, u: float, dt: float) -> tuple:
    """One classical RK4 step with the command u held constant.

    The 7-state vehicle, 8-state interceptor and 4-state pinned-pitch
    profile vectors go to hand-unrolled copies of :func:`_rk4_generic`: the
    same arithmetic in the same order, so the same bits, at about half the
    cost per step.  The 4-state case is tested last, so the vehicle and
    interceptor steps do not pay for it.

    A 7-state RHS that carries a fused step (``rhs.rk4_step``, built by
    :func:`make_vehicle_rhs`) takes it instead: the same bits again, and
    on any error it replays the step through :func:`_rk4_step_7`, so the
    abort is the reference's.  A wrapper around the RHS, such as a timer
    counting RHS calls, has no ``rk4_step`` and runs the reference step
    with its four RHS calls.
    """
    n = len(y)
    if n == 7:
        fused = getattr(rhs, "rk4_step", None)
        if fused is not None:
            return fused(t, y, u, dt)
        return _rk4_step_7(rhs, t, y, u, dt)
    if n == 8:
        return _rk4_step_8(rhs, t, y, u, dt)
    if n == 4:
        return _rk4_step_4(rhs, t, y, u, dt)
    return _rk4_generic(rhs, t, y, u, dt)


def _rk4_generic(rhs: Callable, t: float, y: tuple, u: float, dt: float) -> tuple:
    """Reference RK4 step for a state vector of any length."""
    h2 = 0.5 * dt
    k1 = rhs(t, y, u)
    k2 = rhs(t + h2, tuple(a + h2 * b for a, b in zip(y, k1)), u)
    k3 = rhs(t + h2, tuple(a + h2 * b for a, b in zip(y, k2)), u)
    k4 = rhs(t + dt, tuple(a + dt * b for a, b in zip(y, k3)), u)
    sixth = dt / 6.0
    out = tuple(
        a + sixth * (b + 2.0 * (c + d) + e) for a, b, c, d, e in zip(y, k1, k2, k3, k4)
    )
    total = 0.0
    for value in out:
        total += value
    if not math.isfinite(total):
        _abort_non_finite(t, k1, k2, k3, k4, out)
    return out


def _abort_non_finite(t, k1, k2, k3, k4, out):
    """Raise for the first stage holding a non-finite value."""
    for stage, vec in (("k1", k1), ("k2", k2), ("k3", k3), ("k4", k4), ("y", out)):
        if not all(math.isfinite(value) for value in vec):
            raise IntegrationAbort(f"non-finite derivative ({stage})", t, vec)
    raise IntegrationAbort("non-finite state", t, out)  # pragma: no cover


def _rk4_step_4(rhs: Callable, t: float, y: tuple, u: float, dt: float) -> tuple:
    """:func:`_rk4_generic` unrolled for the 4-state pinned-pitch profile."""
    h2 = 0.5 * dt
    y0, y1, y2, y3 = y
    k1 = rhs(t, y, u)
    a0, a1, a2, a3 = k1
    k2 = rhs(t + h2, (y0 + h2 * a0, y1 + h2 * a1, y2 + h2 * a2, y3 + h2 * a3), u)
    b0, b1, b2, b3 = k2
    k3 = rhs(t + h2, (y0 + h2 * b0, y1 + h2 * b1, y2 + h2 * b2, y3 + h2 * b3), u)
    c0, c1, c2, c3 = k3
    k4 = rhs(t + dt, (y0 + dt * c0, y1 + dt * c1, y2 + dt * c2, y3 + dt * c3), u)
    d0, d1, d2, d3 = k4
    sixth = dt / 6.0
    o0 = y0 + sixth * (a0 + 2.0 * (b0 + c0) + d0)
    o1 = y1 + sixth * (a1 + 2.0 * (b1 + c1) + d1)
    o2 = y2 + sixth * (a2 + 2.0 * (b2 + c2) + d2)
    o3 = y3 + sixth * (a3 + 2.0 * (b3 + c3) + d3)
    out = (o0, o1, o2, o3)
    if not math.isfinite(o0 + o1 + o2 + o3):
        _abort_non_finite(t, k1, k2, k3, k4, out)
    return out


def _rk4_step_7(rhs: Callable, t: float, y: tuple, u: float, dt: float) -> tuple:
    """:func:`_rk4_generic` unrolled for the 7-state vehicle vector."""
    h2 = 0.5 * dt
    y0, y1, y2, y3, y4, y5, y6 = y
    k1 = rhs(t, y, u)
    a0, a1, a2, a3, a4, a5, a6 = k1
    k2 = rhs(t + h2, (y0 + h2 * a0, y1 + h2 * a1, y2 + h2 * a2, y3 + h2 * a3,
                      y4 + h2 * a4, y5 + h2 * a5, y6 + h2 * a6), u)
    b0, b1, b2, b3, b4, b5, b6 = k2
    k3 = rhs(t + h2, (y0 + h2 * b0, y1 + h2 * b1, y2 + h2 * b2, y3 + h2 * b3,
                      y4 + h2 * b4, y5 + h2 * b5, y6 + h2 * b6), u)
    c0, c1, c2, c3, c4, c5, c6 = k3
    k4 = rhs(t + dt, (y0 + dt * c0, y1 + dt * c1, y2 + dt * c2, y3 + dt * c3,
                      y4 + dt * c4, y5 + dt * c5, y6 + dt * c6), u)
    d0, d1, d2, d3, d4, d5, d6 = k4
    sixth = dt / 6.0
    o0 = y0 + sixth * (a0 + 2.0 * (b0 + c0) + d0)
    o1 = y1 + sixth * (a1 + 2.0 * (b1 + c1) + d1)
    o2 = y2 + sixth * (a2 + 2.0 * (b2 + c2) + d2)
    o3 = y3 + sixth * (a3 + 2.0 * (b3 + c3) + d3)
    o4 = y4 + sixth * (a4 + 2.0 * (b4 + c4) + d4)
    o5 = y5 + sixth * (a5 + 2.0 * (b5 + c5) + d5)
    o6 = y6 + sixth * (a6 + 2.0 * (b6 + c6) + d6)
    out = (o0, o1, o2, o3, o4, o5, o6)
    if not math.isfinite(o0 + o1 + o2 + o3 + o4 + o5 + o6):
        _abort_non_finite(t, k1, k2, k3, k4, out)
    return out


def _rk4_step_8(rhs: Callable, t: float, y: tuple, u: float, dt: float) -> tuple:
    """:func:`_rk4_generic` unrolled for the 8-state interceptor vector."""
    h2 = 0.5 * dt
    y0, y1, y2, y3, y4, y5, y6, y7 = y
    k1 = rhs(t, y, u)
    a0, a1, a2, a3, a4, a5, a6, a7 = k1
    k2 = rhs(t + h2, (y0 + h2 * a0, y1 + h2 * a1, y2 + h2 * a2, y3 + h2 * a3,
                      y4 + h2 * a4, y5 + h2 * a5, y6 + h2 * a6, y7 + h2 * a7), u)
    b0, b1, b2, b3, b4, b5, b6, b7 = k2
    k3 = rhs(t + h2, (y0 + h2 * b0, y1 + h2 * b1, y2 + h2 * b2, y3 + h2 * b3,
                      y4 + h2 * b4, y5 + h2 * b5, y6 + h2 * b6, y7 + h2 * b7), u)
    c0, c1, c2, c3, c4, c5, c6, c7 = k3
    k4 = rhs(t + dt, (y0 + dt * c0, y1 + dt * c1, y2 + dt * c2, y3 + dt * c3,
                      y4 + dt * c4, y5 + dt * c5, y6 + dt * c6, y7 + dt * c7), u)
    d0, d1, d2, d3, d4, d5, d6, d7 = k4
    sixth = dt / 6.0
    o0 = y0 + sixth * (a0 + 2.0 * (b0 + c0) + d0)
    o1 = y1 + sixth * (a1 + 2.0 * (b1 + c1) + d1)
    o2 = y2 + sixth * (a2 + 2.0 * (b2 + c2) + d2)
    o3 = y3 + sixth * (a3 + 2.0 * (b3 + c3) + d3)
    o4 = y4 + sixth * (a4 + 2.0 * (b4 + c4) + d4)
    o5 = y5 + sixth * (a5 + 2.0 * (b5 + c5) + d5)
    o6 = y6 + sixth * (a6 + 2.0 * (b6 + c6) + d6)
    o7 = y7 + sixth * (a7 + 2.0 * (b7 + c7) + d7)
    out = (o0, o1, o2, o3, o4, o5, o6, o7)
    if not math.isfinite(o0 + o1 + o2 + o3 + o4 + o5 + o6 + o7):
        _abort_non_finite(t, k1, k2, k3, k4, out)
    return out


class TrajectoryPoint(NamedTuple):
    t: float
    y: tuple
    u: float


@dataclass(frozen=True)
class Trajectory:
    samples: tuple          # TrajectoryPoint rows at the sample cadence plus terminal
    event: str              # "ground", "timeout" or a stop-event name
    event_t: float
    event_y: tuple
    steps: int


def integrate_until(
    rhs: Callable,
    control_fn: Callable,
    t0: float,
    y0: Sequence[float],
    config: IntegratorConfig,
    stop_events: Sequence = (),
    sample_interval: float | None = None,
) -> Trajectory:
    """Step from (t0, y0) until ground impact, a stop event, or timeout.

    control_fn(t, y) -> u is evaluated once per step and held across it.
    Ground impact (altitude component crossing 0 from above) interpolates
    the touchdown state linearly inside the final step; custom stop events
    are predicates (name, fn(t, y) -> bool) checked on each post-step
    state without interpolation.
    """
    dt = config.dt
    interval = config.sample_interval if sample_interval is None else sample_interval
    stride = max(1, round(interval / dt))
    n_max = max(1, math.ceil((config.t_max - t0) / dt - 1e-9))

    y = tuple(y0)
    samples = []
    step = 0
    while True:
        t = t0 + step * dt
        u = control_fn(t, y)
        if step % stride == 0:
            samples.append(TrajectoryPoint(t, y, u))
        y_next = rk4_step(rhs, t, y, u, dt)
        t_next = t0 + (step + 1) * dt
        if y_next[1] <= 0.0 and y[1] > 0.0:
            frac = y[1] / (y[1] - y_next[1])
            y_td = tuple(a + frac * (b - a) for a, b in zip(y, y_next))
            t_td = t + frac * dt
            samples.append(TrajectoryPoint(t_td, y_td, u))
            return Trajectory(tuple(samples), "ground", t_td, y_td, step + 1)
        for name, predicate in stop_events:
            if predicate(t_next, y_next):
                samples.append(TrajectoryPoint(t_next, y_next, u))
                return Trajectory(tuple(samples), name, t_next, y_next, step + 1)
        step += 1
        y = y_next
        if step >= n_max:
            samples.append(TrajectoryPoint(t_next, y_next, u))
            return Trajectory(tuple(samples), "timeout", t_next, y_next, step)


def specific_energy(y: float, v: float, g: float = G0) -> float:
    """Mechanical energy per unit mass: v^2 / 2 + g y."""
    return 0.5 * v * v + g * y
