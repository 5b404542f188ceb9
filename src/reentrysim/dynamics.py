"""Planar point-mass flight dynamics and the fixed-step integrator.

State conventions (SI units, radians):

    x      ground range, m
    y      altitude, m
    z      lateral offset, m (positive left of the x axis)
    v      airspeed, m/s
    theta  flight-path angle, rad (positive climbing)
    w      heading angle, rad (0 along +x, the only heading flown)
    n      realized normal load factor, g units

The load factor follows its command through a first-order lag; gravity and
drag act on speed; lift (n) acts only on the flight-path angle.  Flight is
planar: w is 0 (``Scenario`` rejects another entry heading) and z holds.

Equations of motion, vehicle:

    dv/dt     = -cx(M) rho(y) v^2 S / (2 m) - g sin(theta)
    dtheta/dt = (g / v) (n - cos(theta))
    dx/dt     = v cos(theta)
    dz/dt     = 0
    dy/dt     = v sin(theta)
    dn/dt     = (u - n) / lag_time
    dw/dt     = 0

The interceptor adds thrust along the velocity vector and a mass equation,
and lags by ``INTERCEPTOR_LAG_TIME``:

    dv/dt    = (thrust(t) - cx(M) rho(y) v^2 S / 2) / mass - g sin(theta)
    dmass/dt = -mass_flow(t)

Integration is classical fixed-step RK4 with the command held constant
across a step (zero-order hold), in the reference step loop, ``_drive``,
behind the public ``integrate_until`` and any flight of
``engagement._fly`` whose RHS is not the generated one; every other run
takes ``engagement``'s one generated run loop, which is ``_drive``, the
guidance control, a defended run's launches, evasion and missiles, and the
fused step in one function, pinned to them.  A
loop ends on ground impact (touchdown state linearly interpolated inside the
final step), on its caller's hook (a stop event, an intercept), or on
timeout; timeout is a result, not an error.  A non-finite start is an
argument error; a state that turns non-finite, or a speed below
``SPEED_GUARD``, aborts the run with :class:`~reentrysim.errors.IntegrationAbort`.

The RHS of the step loops (vehicle, interceptor and the pinned-pitch
profile) are generated, each with its fused RK4 step, from one stage
template (:func:`_kernel_source`; the run loop inlines the vehicle's
step from the same :func:`_rk4_lines`) specialised to the speed-of-sound and
drag tables and the thrust-stage seams, compiled once per process and
set; ``vehicle_derivatives`` and ``interceptor_derivatives`` are the
readable references they are pinned to.
"""

from __future__ import annotations

import itertools
import linecache
import math
import re
import textwrap
import zlib
from dataclasses import dataclass, field
from functools import partial
from math import cos, exp, inf, isfinite, sin  # exp, isfinite: read by generated code
from typing import Callable, NamedTuple, Sequence

from .aero import DragModel, vehicle_drag_model
from .atmosphere import DEFAULT_ATMOSPHERE, AtmosphereModel
from .errors import POSITIVE, ConfigError, DomainError, IntegrationAbort, check_ranges, in_range

G0 = 9.80665      # m/s^2
SPEED_GUARD = 1.0  # m/s; below this 1/v terms are treated as singular
INTERCEPTOR_LAG_TIME = 0.5  # s, load-factor lag of both interceptor types


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


@dataclass(frozen=True)
class VehicleSpec:
    """Mass and aerodynamic description of the reentry vehicle.

    lift_to_drag is the quoted lifting quality of the airframe; the
    point-mass equations above do not consume it (load factor is commanded
    directly), it is recorded for reporting.
    """

    mass: float = field(default=1500.0, metadata=POSITIVE)     # kg
    wing_area: float = field(default=2.0, metadata=POSITIVE)   # m^2
    drag: DragModel = field(default_factory=vehicle_drag_model)
    lift_to_drag: float = 2.0
    lag_time: float = field(default=1.0, metadata=POSITIVE)    # s, load-factor lag constant

    __post_init__ = check_ranges


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float = field(default=0.02, metadata=in_range("in (0, 1] s", lambda v: 0.0 < v <= 1.0))
    t_max: float = field(default=600.0, metadata=POSITIVE)  # s
    g: float = field(default=G0, metadata=POSITIVE)
    sample_interval: float = 10.0  # s between recorded trajectory rows

    def __post_init__(self):
        check_ranges(self)
        if not self.dt <= self.sample_interval:
            raise ConfigError(f"sample_interval must be in [dt, inf), got {self.sample_interval}")


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
) -> VehicleRates:
    """Time derivative of the vehicle state under commanded load factor u."""
    v = state.v
    if not v >= SPEED_GUARD:
        raise IntegrationAbort("speed below guard (1/v singular)", state.t, state.as_vector())
    rho = env.density(state.y)
    cx = spec.drag.cx(env.mach(v, state.y))
    drag_acc = cx * rho * v * v * spec.wing_area / (2.0 * spec.mass)
    st, ct = sin(state.theta), cos(state.theta)
    return VehicleRates(
        x=v * ct,
        y=v * st,
        z=0.0,
        v=-drag_acc - g * st,
        theta=(g / v) * (state.n - ct),
        w=0.0,
        n=(u - state.n) / spec.lag_time,
    )


def make_vehicle_rhs(
    spec: VehicleSpec,
    env: AtmosphereModel = DEFAULT_ATMOSPHERE,
    g: float = G0,
) -> Callable:
    """The vehicle RHS ``rhs(t, y, u)`` of the step loop: the planar case of
    :func:`vehicle_derivatives` over a plain state tuple, with the
    atmosphere and drag lookups inlined; tests pin it to that function.

    The RHS and its fused step ``rhs.rk4_step(t, y, u, dt)`` are generated
    together from one stage template (the ``vehicle`` kernel, see
    :func:`_kernel_source`), compiled once per table set.  The step covers
    the live components (x, h, v, theta, n) with the bits of
    :func:`_rk4_generic`, which replays it on any error and so raises the
    RHS's :class:`IntegrationAbort`.  The RHS also carries what it was
    generated over, ``rhs.made_from = (env, drag, free)``, from which
    ``engagement`` generates its run loop over the same tables and arguments.
    """
    free = dict(g=g, area_over_2m=spec.wing_area / (2.0 * spec.mass), inv_lag=1.0 / spec.lag_time)
    rhs = _generated_rhs("vehicle", env, spec.drag, **free)
    rhs.made_from = (env, spec.drag, free)
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
        x=v * ct,
        y=v * st,
        z=0.0,
        v=(thrust - drag) / state.mass - g * st,
        theta=(g / v) * (state.n - ct),
        w=0.0,
        n=(u - state.n) / INTERCEPTOR_LAG_TIME,
        mass=-flow,
    )


def make_interceptor_rhs(spec, env: AtmosphereModel = DEFAULT_ATMOSPHERE, g: float = G0) -> Callable:
    """The interceptor RHS of the step loop: the planar case of
    :func:`interceptor_derivatives` over a plain state tuple.

    Like :func:`make_vehicle_rhs`, the RHS is generated with its fused
    step, the ``interceptor`` kernel: the stage seams are compiled in as an
    ``if``/``elif`` chain on time since launch, the stage thrusts and flows
    are arguments, and any error replays the step through :func:`_rk4_generic`.
    """
    return _generated_rhs("interceptor", env, spec.drag, g=g, half_area=spec.wing_area / 2.0,
                          inv_lag=1.0 / INTERCEPTOR_LAG_TIME, stages=spec.stages,
                          burnout_mass=spec.burnout_mass)


def rk4_step(rhs: Callable, t: float, y: tuple, u: float, dt: float) -> tuple:
    """One classical RK4 step with the command u held constant.

    The one-shot public entry, and the step of
    :func:`~reentrysim.interceptor.pinned_pitch_profile`.  An RHS that
    carries a fused step (``rhs.rk4_step``, generated with the RHS of
    :func:`make_vehicle_rhs`, :func:`make_interceptor_rhs` and the
    profile's, with the bits of :func:`_rk4_generic`) takes it; any other
    RHS, a timer wrapped around a fused one included, takes
    :func:`_rk4_generic`.  :func:`integrate_until`, ``engagement._fly`` and
    ``engagement._Missile`` bind ``rhs.rk4_step`` once, before the first
    step, and fall back to this function for an RHS without one.
    """
    fused = getattr(rhs, "rk4_step", None)
    if fused is not None:
        return fused(t, y, u, dt)
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


# --------------------------------------------------------------------------
# Each RHS and its fused RK4 step, generated from one stage template (see
# _kernel_source).  The template's ``raise`` lines are the RHS's errors.

_SPEED_GUARD = """\
if not v >= SPEED_GUARD:
    raise IntegrationAbort("speed below guard (1/v singular)", t, y)
"""

# Falling through is the coast: zero thrust, not an error.
_THRUST = """\
thrust = flow = 0.0
if mass > burnout_mass:
{stage_chain}"""

_LOOKUP = """\
hc = h if h > 0.0 else 0.0
rho = rho0 * exp(-k_decay * hc)
h_km = {h_km}
{vs_chain}else:
    raise IntegrationAbort("non-finite altitude", t, y)
m = {speed} / vs
if m > mach_cap:
    m = mach_cap
{cx_chain}else:
    raise IntegrationAbort("non-finite Mach", t, y)
if cx < cx_floor:
    cx = cx_floor
"""


def _chain(x: str, table: tuple, assign: str) -> str:
    """``if``/``elif`` lines over ascending rows ``(lo, hi, *coeffs)`` that tile
    [0, inf): the first row whose ``hi`` exceeds x holds it, so ``lo`` goes.
    ``assign`` gets the row's numbers as ``repr`` literals: the same floats."""
    return "".join(f"{'el' if i else ''}if {x} < {hi!r}:\n    {assign.format(*map(repr, coeffs))}\n"
                   for i, (_lo, hi, *coeffs) in enumerate(table))


def _stage_chain(ts: str, ends: tuple) -> str:
    """``if``/``elif`` lines setting the thrust and flow of the stage that
    holds time ``ts``, over stage ends ascending from stages contiguous from
    0: before 0 and past the last end, none holds it (the coast), as for the
    scan ``t_start <= ts < t_end`` over the stages, NaN included."""
    return f"    if {ts} < 0.0:\n        pass\n" + "".join(
        f"    elif {ts} < {end!r}:\n        thrust, flow = thrust_{i}, flow_{i}\n"
        for i, end in enumerate(ends))


_PLANAR = "st = sin(theta)\nct = cos(theta)\n{k}0 = v * ct\n{k}1 = v * st\n"

# state: component names in vector order; inputs: the components the
# derivatives read; free: the factory's keyword parameters; guard: the
# stage's lines before the lookup; rates: derivative lines ``{k}<i> = ...``
# for component i, k being the stage's letter.
_KERNELS = {
    "vehicle": dict(
        state="x h z v theta w n", inputs="h v theta n",
        free="area_over_2m, g, inv_lag", guard=_SPEED_GUARD, h_km="hc * 0.001", speed="v",
        rates=_PLANAR + "{k}3 = -cx * rho * v * v * area_over_2m - g * st\n"
        "{k}4 = (g / v) * (n - ct)\n{k}6 = (u - n) * inv_lag\n",
    ),
    "interceptor": dict(
        state="x h z v theta w n mass", inputs="h v theta n mass",
        free="half_area, g, inv_lag, stages, burnout_mass", guard=_SPEED_GUARD + _THRUST,
        h_km="hc * 0.001", speed="v",
        rates=_PLANAR + "{k}3 = (thrust - cx * rho * v * v * half_area) / mass - g * st\n"
        "{k}4 = (g / v) * (n - ct)\n{k}6 = (u - n) * inv_lag\n{k}7 = -flow\n",
    ),
    # hc / 1000.0 and the drag's operand order are the readable model's, so
    # reach tables and calibrations keep its bits; stage predictions may dip
    # below zero speed, hence va
    "profile": dict(
        state="v h mass path", inputs="v h mass",
        free="wing_area, g, sin_t, stages, burnout_mass", guard=_THRUST + """\
va = v if v > 0.0 else 0.0
if not isfinite(h):
    raise DomainError(f"altitude must be finite, got {{h}}")
if not isfinite(va):
    raise DomainError(f"speed must be finite and >= 0, got {{va}}")
""", h_km="hc / 1000.0", speed="va",
        rates="{k}0 = (thrust - cx * rho * va * va * wing_area / 2.0) / mass - g * sin_t\n"
        "{k}1 = v * sin_t\n{k}2 = -flow\n{k}3 = v\n",
    ),
}

_REPLAY = "return _rk4_generic(rhs, t, y, u, dt)"


def _stage(name: str, vs_branches: tuple, segments: tuple, ends: tuple) -> Callable:
    """``stage(k, ts)``: the lines of one stage of kernel ``name`` at time
    ``ts``, its derivatives named ``<k><i>``: the kernel's guard, the shared
    atmosphere and drag lookup (both tables as :func:`_chain` lines, in the
    readable model's operand order), and its derivative lines.  A kernel
    with thrust stages finds the stage by the :func:`_stage_chain` over
    their ``ends``."""
    kernel = _KERNELS[name]
    chains = dict(vs_chain=_chain("h_km", vs_branches, "vs = {} + {} * (h_km - {})"),
                  cx_chain=_chain("m", segments, "cx = ({} * m + {}) * m + {}"))
    return lambda k, ts: (kernel["guard"] + _LOOKUP + kernel["rates"]).format(
        k=k, stage_chain=_stage_chain(ts, ends), **chains, **kernel)


def _live(name: str) -> set:
    """The state components of kernel ``name`` with a derivative line."""
    return {int(i) for i in re.findall(r"^\{k\}(\d+) =", _KERNELS[name]["rates"], re.M)}


def _rk4_lines(name: str, vs_branches: tuple, segments: tuple, ends: tuple, replay: str) -> list:
    """The fused RK4 step of kernel ``name`` over the state unpacked as
    ``y0, y1, ...`` at (t, u, dt), from ``h2 = 0.5 * dt`` to the new state
    ``o0, o1, ...`` and its non-finite check: the :func:`_stage` inlined four
    times, each ``raise`` line and the check's body replaced by the
    ``replay`` lines, at the indentation of the line they replace.  Stage
    inputs, outputs and the non-finite sum keep the reference step's
    operand order, so the step has its bits; a zero derivative passes
    through as ``y + sixth * 0.0``.  The fused step of :func:`_kernel_source`
    and engagement's run loop are both these lines."""
    kernel = _KERNELS[name]
    state, inputs = kernel["state"].split(), kernel["inputs"].split()
    at = {c: state.index(c) for c in inputs}
    live = _live(name)
    stage = _stage(name, vs_branches, segments, ends)

    def replaying(text):
        return re.sub(r"^( *)raise .*", lambda m: textwrap.indent(replay, m.group(1)), text,
                      flags=re.M)

    body = ["h2 = 0.5 * dt", "# stage 1 at (t, y)",
            f"{', '.join(inputs)} = {', '.join(f'y{at[c]}' for c in inputs)}"]
    for s, (k, ts) in enumerate(zip("abcd", ("t", "t + h2", "t + h2", "t + dt"))):
        if s:
            scale = "dt" if s == 3 else "h2"
            body.append(f"# stage {s + 1} at ({ts}, y + {scale} * k{s})")
            body += [f"{c} = y{at[c]} + {scale} * {'abc'[s - 1]}{at[c]}" for c in inputs]
        body.append(replaying(stage(k, ts)))
    body.append("sixth = dt / 6.0")
    for i in range(len(state)):
        rate = f"(a{i} + 2.0 * (b{i} + c{i}) + d{i})" if i in live else "0.0"
        body.append(f"o{i} = y{i} + sixth * {rate}")
    body += [f"if not isfinite({' + '.join(f'o{i}' for i in range(len(state)))}):",
             textwrap.indent(replay, "    ")]
    return body


def _indent(lines, depth: int) -> str:
    """``lines`` (each one or more lines of source) joined, at ``depth`` levels."""
    return textwrap.indent("\n".join(line.rstrip("\n") for line in lines), "    " * depth)


def _kernel_source(name: str, vs_branches: tuple, segments: tuple, ends: tuple = ()) -> str:
    """Source of ``make(rho0, k_decay, cx_floor, mach_cap, *, <free>)``,
    which returns the RHS ``rhs(t, y, u)`` of kernel ``name`` carrying its
    fused RK4 step as ``rhs.rk4_step(t, y, u, dt)``.

    A kernel with thrust stages takes ``stages``, whose thrusts and flows
    ``make`` binds.  The RHS is :func:`_stage` 1 over the unpacked state,
    with its ``raise`` lines; a component whose derivative is always 0
    returns ``0.0``.  The step is the :func:`_rk4_lines`, each ``raise``
    rewritten to replay the step through :func:`_rk4_generic`, which raises
    the RHS's error.  ``tests/kernels/`` holds the sources over the stock
    tables.
    """
    kernel = _KERNELS[name]
    state = kernel["state"].split()
    live = _live(name)
    rates = ", ".join(f"a{i}" if i in live else "0.0" for i in range(len(state)))
    rhs = [f"{', '.join(state)} = y", _stage(name, vs_branches, segments, ends)("a", "t"),
           f"return ({rates})"]
    ys, outs = (", ".join(f"{p}{i}" for i in range(len(state))) for p in "yo")
    body = [f"{ys} = y", *_rk4_lines(name, vs_branches, segments, ends, _REPLAY),
            f"return ({outs})"]
    staged = "stages" in kernel["free"]
    bind = ", ".join(f"(_, _, thrust_{i}, flow_{i})" for i in range(len(ends)))
    return (
        f"def make(rho0, k_decay, cx_floor, mach_cap, *, {kernel['free']}):\n"
        + (f"    [{bind}] = stages\n" if staged else "")
        + f"    def rhs(t, y, u):\n{_indent(rhs, 2)}\n\n"
        f"    def {name}_rk4_step(t, y, u, dt):\n{_indent(body, 2)}\n\n"
        f"    rhs.rk4_step = {name}_rk4_step\n    return rhs\n"
    )


_FACTORIES: dict = {}  # (name, repr of the tables and ends) -> make
# (name, ids of the table objects and ends) -> (those objects, their _FACTORIES
# key); holding the objects keeps their ids theirs
_SEEN: dict = {}
_SEEN_MAX = 64


def _kernel_factory(name: str, vs_branches: tuple, segments: tuple, ends: tuple,
                    source: Callable = _kernel_source) -> Callable:
    """The compiled ``make`` of kernel ``name`` over these tables and stage
    ends, once per process and set (keyed by ``repr``, which tells -0.0 from
    0.0), and in ``linecache`` under its own name so tracebacks show its lines.
    ``source(name, vs_branches, segments, ends)`` writes it: a kernel's, or
    engagement's run loop.  All of them run in this module's namespace.

    A lookup with the very table and end objects of a recent one (each run
    of a batch: ``replace(atmosphere, rho0=...)`` keeps ``vs_branches``)
    finds its key without the ``repr``, which costs more than the rest."""
    ids = (name, id(vs_branches), id(segments), *map(id, ends))
    seen = _SEEN.get(ids)
    if seen is not None and seen[-1] in _FACTORIES:
        return _FACTORIES[seen[-1]]
    key = (name, repr(vs_branches), repr(segments), repr(ends))
    if len(_SEEN) >= _SEEN_MAX:
        _SEEN.clear()
    _SEEN[ids] = (vs_branches, segments, ends, key)
    if key not in _FACTORIES:
        text = source(name, vs_branches, segments, ends)
        crc = zlib.crc32(text.encode())
        filename = f"<reentrysim.dynamics generated {name} kernel {crc:08x}>"
        linecache.cache[filename] = (len(text), None, text.splitlines(True), filename)
        namespace = {}
        exec(compile(text, filename, "exec"), globals(), namespace)
        _FACTORIES[key] = namespace["make"]
    return _FACTORIES[key]


def _generated_rhs(name: str, env: AtmosphereModel, drag: DragModel,
                   source: Callable = _kernel_source, **free) -> Callable:
    """The RHS of kernel ``name`` over ``env`` and ``drag``, with its fused
    step; with another ``source``, what that source's ``make`` returns.

    The tables and the ends of any thrust ``stages`` are compiled into the
    kernel; the density, ``cx_floor``, ``mach_cap`` and ``free``, stage
    thrusts and flows included, are arguments of its ``make``, so runs that
    differ only in density (density noise) and calibration profiles that
    differ only in thrust share one compiled kernel.
    """
    ends = tuple(stage[1] for stage in free.get("stages", ()))
    return _kernel_factory(name, env.vs_branches, drag.segments, ends, source)(
        env.rho0, env.k_decay, drag.cx_floor, drag.mach_cap, **free)


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


def _schedule(t0, config, sample_interval) -> tuple:
    """``(dt, stride, n_max)`` of a step loop from ``t0``: the step, the
    sample stride in steps (0: no samples) and the steps to timeout."""
    if sample_interval is not None and not 0.0 < sample_interval < inf:
        raise DomainError(f"sample_interval must be finite and > 0, got {sample_interval}")
    dt = config.dt
    stride = 0 if sample_interval is None else max(1, round(sample_interval / dt))
    return dt, stride, max(1, math.ceil((config.t_max - t0) / dt - 1e-9))


def _drive(step, command, t0, y0, config, sample_interval=None, after_step=None) -> tuple:
    """The one step loop: ``step(t, y, u, dt)`` from (t0, y0) with
    ``command(t, y)`` held across each step, until ground impact (the
    touchdown state interpolated linearly inside the final step), timeout,
    or a value other than None from ``after_step(t, y, y_next)``, which sees
    every step before the ground check.  An :class:`IntegrationAbort`
    propagates.  The reference that ``engagement``'s generated
    ``run_loop`` is pinned to bit for bit, with ``engagement._defence_hooks``
    as ``command`` and ``after_step``.  Returns ``(end, t, y, samples,
    steps)``: ``end`` is ``"ground"``, ``"timeout"`` or the hook's value,
    (t, y) the end state, and ``samples`` the (t, y, u) rows every
    ``sample_interval`` (if set), rounded to whole steps, plus the end row.
    """
    dt, stride, n_max = _schedule(t0, config, sample_interval)
    y = tuple(y0)
    samples = []
    for k in range(n_max):
        t = t0 + k * dt
        u = command(t, y)
        if stride and k % stride == 0:
            samples.append((t, y, u))
        y_next = step(t, y, u, dt)
        if after_step is not None:
            end = after_step(t, y, y_next)
            if end is not None:
                t, y = t0 + (k + 1) * dt, y_next
                break
        if y_next[1] <= 0.0 < y[1]:
            frac = y[1] / (y[1] - y_next[1])
            y = tuple(a + frac * (b - a) for a, b in zip(y, y_next))
            end, t = "ground", t + frac * dt
            break
        y = y_next
    else:
        end, t = "timeout", t0 + n_max * dt
    if stride:
        samples.append((t, y, u))
    return end, t, y, samples, k + 1


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
    state without interpolation, and ground impact wins a tie.

    ``t0`` must be finite and below ``config.t_max``, and ``y0`` finite.
    The public front of :func:`_drive`, the reference step loop, which a
    flight of ``engagement._fly`` on any RHS but the generated one also
    steps through; every other flight takes ``engagement``'s one generated
    run loop, pinned to it.
    """
    if not -inf < t0 < config.t_max:
        raise DomainError(f"t0 must be finite and < t_max ({config.t_max}), got {t0}")
    if not all(map(isfinite, y0)):
        raise DomainError(f"y0 must be finite, got {tuple(y0)}")
    ticks = itertools.count(1)

    def stop(t, y, y_next):
        if y_next[1] <= 0.0 < y[1]:
            return None  # ground impact wins a tie
        t_next = t0 + next(ticks) * config.dt
        return next((name for name, hit in stop_events if hit(t_next, y_next)), None)

    step = getattr(rhs, "rk4_step", None) or partial(rk4_step, rhs)
    interval = config.sample_interval if sample_interval is None else sample_interval
    end, t, y, samples, steps = _drive(step, control_fn, t0, y0, config, interval,
                                       stop if stop_events else None)
    return Trajectory(tuple(map(TrajectoryPoint._make, samples)), end, t, y, steps)


def specific_energy(y: float, v: float, g: float = G0) -> float:
    """Mechanical energy per unit mass: v^2 / 2 + g y."""
    return 0.5 * v * v + g * y
