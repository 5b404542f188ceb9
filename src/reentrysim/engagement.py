"""Monte Carlo layer: noise injection, single runs, batches and sweeps.

A Scenario is plain frozen data, so ``_run_jobs``, the one runner that flies
the (scenario, i) jobs of every batch and sweep, can fan them out across
processes and still reproduce byte for byte: run i draws only from substream
i of its scenario's seed, and results fold in index order for any worker
count.  Three noise channels ride separate substreams per run (density
multiplier, load-factor turbulence, seeker boresight), which keeps the draw
sequences aligned across scenario variants sharing a seed.

``_fly`` flies every run and turns its step loop's end into a run result.
Every run takes one generated loop, ``run_loop`` (``_run_loop_source``):
``dynamics._drive``, ``_VehicleControl`` with its draws, the vehicle
kernel's fused step and a defended run's launches, evasion and missiles in
one function, pinned bit for bit to ``dynamics._drive`` with
``_defence_hooks``, the reference path that any other RHS still takes.  A
vehicle-only run and the noise-free track that launch planning reads pass
no missiles and no evasion.
"""

from __future__ import annotations

import math
import operator
import statistics
import textwrap
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from typing import NamedTuple

from .atmosphere import DEFAULT_ATMOSPHERE, AtmosphereModel
from .dynamics import (
    IntegratorConfig,
    VehicleSpec,
    VehicleState,
    _drive,
    _generated_rhs,
    _indent,
    _rk4_lines,
    make_interceptor_rhs,
    make_vehicle_rhs,
    rk4_step,
)
from .errors import (NON_NEGATIVE, POSITIVE, BatchError, ConfigError, DomainError,
                     IntegrationAbort, check_ranges)
from .guidance import (
    EvasionConfig,
    EvasionController,
    GuidanceConfig,
    GuidancePhase,
    SeekerModel,
    wrap_angle,
)
from .interceptor import (
    INTERCEPTOR_U_MAX,
    LAUNCH_SPEED,
    NAV_GAIN,
    STOCK_SPECS,
    InterceptorSpec,
    ReachTable,
    launch_decision,
)

MISS_NONE = math.inf  # sentinel miss distance when nothing was launched
PLANNING_GRID = 0.2   # s, spacing of the predicted track that launch planning scans

_TWO_PI = 2.0 * math.pi

# phase members bound once: attribute access on an enum class is slow, and
# the phase machine compares phases several times per step
_GRAVITATIONAL = GuidancePhase.GRAVITATIONAL
_PULL_UP = GuidancePhase.PULL_UP
_ALTITUDE_HOLD = GuidancePhase.ALTITUDE_HOLD
_TERMINAL = GuidancePhase.TERMINAL
_PHASES = (_GRAVITATIONAL, _PULL_UP, _ALTITUDE_HOLD, _TERMINAL)


class GaussianStream:
    """Deterministic Gaussian sequence over a seeded counter generator.

    Draws come from an explicit Box-Muller transform of uniform pairs, so
    the mapping from seed to sample sequence is pinned here rather than
    inherited from library internals.  A stream is named by its key path:
    the root entropy ``seed`` and the spawn key, the tuple of substream
    indices that led to it.  ``substream(i)`` derives the i-th independent
    child by extending the key; children nest.

    The generator, PCG64 over ``SeedSequence(seed, spawn_key=key)``, is
    built on the first draw, and numpy with it, so a stream that never
    draws costs neither.  Uniforms are drawn ``_BLOCK`` at a time and used
    in order.  On PCG64 a block draw yields exactly the values of as many
    single ``random()`` calls, and children derive from the key, not from
    generator state, so reading ahead changes no sample of this or any
    other stream.
    """

    _BLOCK = 256

    def __init__(self, seed: int, spawn_key: tuple = ()):
        self._entropy = _index("seed", seed)
        self._key = spawn_key
        self._gen = None  # built by the first _refill
        self._buf = []  # pending uniforms, next one last

    def _refill(self) -> None:
        if self._gen is None:
            from numpy.random import PCG64, Generator, SeedSequence

            self._gen = Generator(PCG64(SeedSequence(self._entropy, spawn_key=self._key)))
        # the pending uniforms come first, so the new block goes underneath
        self._buf[:0] = reversed(self._gen.random(self._BLOCK).tolist())

    def substream(self, index: int) -> "GaussianStream":
        return GaussianStream(self._entropy, self._key + (_index("substream index", index),))

    def gaussian(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        if not 0.0 <= sigma < math.inf:
            raise DomainError(f"sigma must be finite and >= 0, got {sigma}")
        if sigma == 0.0:
            return mu
        buf = self._buf
        if len(buf) < 2:
            self._refill()
        u1 = buf.pop()
        while u1 == 0.0:
            if len(buf) < 2:
                self._refill()
            u1 = buf.pop()
        u2 = buf.pop()
        z = math.sqrt(-2.0 * math.log(u1)) * math.cos(_TWO_PI * u2)
        return mu + sigma * z


def _index(name: str, value, low: int = 0, error=DomainError) -> int:
    """``value`` as an int >= ``low``, else ``error``; a float or other
    non-integral value is an error, not truncated."""
    try:
        value = operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
    if value < low:
        raise error(f"{name} must be >= {low}, got {value}")
    return value


@dataclass(frozen=True)
class NoiseConfig:
    seeker_angle_sigma: float = field(default=0.0, metadata=NON_NEGATIVE)  # rad, per evaluation
    atmosphere_density_sigma: float = field(default=0.0, metadata=NON_NEGATIVE)  # relative, per run
    turbulence_sigma: float = field(default=0.0, metadata=NON_NEGATIVE)  # g, load factor per step

    __post_init__ = check_ranges


@dataclass(frozen=True)
class InterceptorSite:
    """Ground launcher: downrange position and interceptor type."""

    x: float = field(metadata={"label": "site x"})
    kind: str = "type-1"

    def __post_init__(self):
        if self.kind not in STOCK_SPECS:
            raise ConfigError(f"unknown interceptor kind {self.kind!r}")
        check_ranges(self)

    def resolve_spec(self) -> InterceptorSpec:
        return STOCK_SPECS[self.kind]


@dataclass(frozen=True)
class Scenario:
    """Immutable description of one simulated situation.

    Plain data throughout; safe to pickle, hash and share across worker
    processes.
    """

    entry: VehicleState
    target: tuple
    vehicle: VehicleSpec = field(default_factory=VehicleSpec)
    guidance: GuidanceConfig = field(default_factory=GuidanceConfig)
    seeker: SeekerModel = field(default_factory=SeekerModel)
    evasion: EvasionConfig = field(default_factory=EvasionConfig)
    sites: tuple = ()
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    atmosphere: AtmosphereModel = field(default_factory=lambda: DEFAULT_ATMOSPHERE)
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)
    seed: int = 0
    runs: int = 1
    kill_radius: float = field(default=10.0, metadata=POSITIVE)  # m, a closer approach intercepts

    def __post_init__(self):
        for name, low in (("seed", 0), ("runs", 1)):  # stored as int, for the manifest
            object.__setattr__(self, name, _index(name, getattr(self, name), low, ConfigError))
        check_ranges(self)
        if len(self.target) != 2 or not all(map(math.isfinite, self.target)):
            raise ConfigError(f"target must be a finite (x, y) pair, got {self.target}")
        if not self.entry.y > 0.0:
            raise ConfigError(f"entry altitude must be > 0, got {self.entry.y}")
        for name in ("t", "x", "y", "z", "v", "theta", "n"):
            if not math.isfinite(getattr(self.entry, name)):
                raise ConfigError(f"entry {name} must be finite, got {getattr(self.entry, name)}")
        if self.entry.w != 0.0:
            raise ConfigError(f"flight is planar: entry heading w must be 0, got {self.entry.w}")
        t_max = self.integrator.t_max
        if not self.entry.t < t_max:
            raise ConfigError(f"entry t must be < t_max ({t_max}), got {self.entry.t}")
        if not self.entry.v > 0.0:
            raise ConfigError("entry speed must be > 0")
        for site in self.sites:
            if not isinstance(site, InterceptorSite):
                raise ConfigError(f"sites must hold InterceptorSite entries, got {site!r}")


@dataclass(frozen=True)
class RunResult:
    """Outcome of one run; failed runs carry a reason and no statistics."""

    touchdown: tuple | None      # (x, z) m, None when intercepted or failed
    landing_error: float         # m, nan when there is no touchdown
    flight_time: float           # s, until touchdown or intercept
    navigation_time: float       # s, terminal-phase entry to end of flight
    intercepted: bool
    miss_distance: float         # m, closest interceptor approach (inf if none)
    events: tuple                # ((t, label), ...) time-ordered
    failed: str | None = None
    samples: tuple = ()          # (t, state, u) rows when sampling was requested

    def __post_init__(self):
        if self.failed is None:
            if not (math.isnan(self.landing_error) or self.landing_error >= 0.0):
                raise ConfigError("landing_error must be >= 0")
            if self.navigation_time > self.flight_time + 1e-9:
                raise ConfigError("navigation_time cannot exceed flight_time")


@dataclass(frozen=True)
class BatchStatistics:
    """Aggregates of one batch; ``summary.csv`` writes every field."""

    n: int                      # completed runs
    failures: int
    mean_error: float           # over runs that touched down; nan if none
    max_error: float
    cep: float                  # median radial landing error
    p_intercept: float          # over completed runs
    p_stderr: float             # binomial standard error of p_intercept
    launches: int               # completed runs with at least one launch
    p_given_launch: float       # conditional on a launch; nan if none
    nav_time_mean: float

    def __post_init__(self):
        if not (math.isnan(self.p_intercept) or 0.0 <= self.p_intercept <= 1.0):
            raise ConfigError("p_intercept must lie in [0, 1]")


def _run_atmosphere(scenario: Scenario, stream: GaussianStream) -> AtmosphereModel:
    """The scenario atmosphere scaled by this run's density multiplier."""
    mult = 1.0
    sigma = scenario.noise.atmosphere_density_sigma
    if sigma != 0.0:
        # floor keeps a pathological draw from flipping the sign of density
        mult = max(stream.substream(0).gaussian(1.0, sigma), 0.05)
    return replace(scenario.atmosphere, rho0=scenario.atmosphere.rho0 * mult)


class _VehicleControl:
    """Per-run phase machine over raw state tuples: the phase transitions
    and per-phase laws of :mod:`reentrysim.guidance`, applied once per step.

    Transitions chain within one call: a state past several switch points
    enters the last phase they lead to, and only that phase gets an event.
    Draws seeker noise only when the boresight angle is actually
    evaluated, and turbulence once per step.  The readable reference of the
    generated run loop (:func:`_run_loop_source`), which applies it inline
    and writes its phase, ``terminal_t`` and events back into it.
    """

    def __init__(self, scenario: Scenario, stream: GaussianStream | None):
        self.cfg = scenario.guidance
        self.seeker = scenario.seeker
        self.target = scenario.target
        self.g = scenario.integrator.g
        noise = scenario.noise
        self.turb_sigma = noise.turbulence_sigma
        self.seeker_sigma = noise.seeker_angle_sigma
        self.turb = stream.substream(1) if stream and self.turb_sigma > 0.0 else None
        self.eyes = stream.substream(2) if stream and self.seeker_sigma > 0.0 else None
        self.phase = _GRAVITATIONAL
        self.terminal_t = None
        self.events = [(0.0, f"phase:{self.phase.name}")]

    def _alpha(self, x, y, theta):
        a = wrap_angle(math.atan2(self.target[1] - y, self.target[0] - x) - theta)
        if self.eyes is not None:
            a += self.eyes.gaussian(0.0, self.seeker_sigma)
        return a

    def __call__(self, t: float, state: tuple) -> float:
        x, y = state[0], state[1]
        v, theta = state[3], state[4]
        cfg = self.cfg
        phase = self.phase

        if phase != _TERMINAL:
            seeker = self.seeker
            if y <= seeker.activation_altitude:
                slant = math.hypot(self.target[0] - x, self.target[1] - y)
                if 0.0 < slant <= seeker.activation_range:
                    alpha = self._alpha(x, y, theta)
                    if abs(alpha) <= seeker.field_of_regard:
                        phase = _TERMINAL
                        self.terminal_t = t
        if phase == _GRAVITATIONAL and y < cfg.pullup_start_altitude:
            phase = _PULL_UP
        if phase == _PULL_UP and (
            y < cfg.hold_altitude + cfg.hold_band or theta >= 0.0
        ):
            phase = _ALTITUDE_HOLD
        if phase != self.phase:
            self.phase = phase
            self.events.append((t, f"phase:{phase.name}"))

        if phase == _GRAVITATIONAL:
            u = math.cos(theta) if cfg.gravitational_cos_theta else 0.0
        elif phase == _PULL_UP:
            u = v * v / (self.g * cfg.pullup_radius) + math.cos(theta)
        elif phase == _ALTITUDE_HOLD:
            u = cfg.hold_gain * (cfg.hold_altitude - y) + math.cos(theta)
        else:
            u = cfg.terminal_gain * self._alpha(x, y, theta)

        if self.turb is not None:
            u += self.turb.gaussian(0.0, self.turb_sigma)
        if u > cfg.u_max:
            return cfg.u_max
        if u < -cfg.u_max:
            return -cfg.u_max
        return u


# --------------------------------------------------------------------------
# Every run in one frame: dynamics._drive, _VehicleControl.__call__ with its
# GaussianStream.gaussian draws, the vehicle kernel's fused step and
# _defence_hooks with its PN (_Missile.pn_command) and _step_miss in their
# operand order, generated together (see _run_loop_source).

# wrap_angle and _VehicleControl._alpha's seeker draw
_ALPHA = """\
alpha = fmod(atan2(ty - h, tx - x) - theta, two_pi)
if alpha > pi:
    alpha -= two_pi
elif alpha <= -pi:
    alpha += two_pi
if eyes is not None:
{draw}"""

# GaussianStream.gaussian(0.0, sigma) over the stream's bound buffer, which
# _refill fills in place
_DRAW = """\
if len({stream}_buf) < 2:
    {stream}._refill()
u1 = {stream}_buf.pop()
while u1 == 0.0:
    if len({stream}_buf) < 2:
        {stream}._refill()
    u1 = {stream}_buf.pop()
u2 = {stream}_buf.pop()
z = sqrt(-2.0 * log(u1)) * cos(two_pi * u2)
{out} += 0.0 + {stream}_sigma * z"""

_RUN_LOOP = """\
def make(rho0, k_decay, cx_floor, mach_cap, *, area_over_2m, g, inv_lag, phases):
    GRAVITATIONAL, PULL_UP, ALTITUDE_HOLD, TERMINAL = phases

    def {name}(rhs, control, t0, y, config, sample_interval, missiles, evasion, kill_radius):
        dt, stride, n_max = _schedule(t0, config, sample_interval)
        atan2, fmod, hypot, log, sqrt = math.atan2, math.fmod, math.hypot, math.log, math.sqrt
        pi = math.pi
        two_pi = 2.0 * pi
        # the control's settings, streams and phase, read once
        cfg, seeker, events = control.cfg, control.seeker, control.events
        tx, ty = control.target
        cos_law = cfg.gravitational_cos_theta
        pullup_altitude, pullup_g_radius = cfg.pullup_start_altitude, control.g * cfg.pullup_radius
        hold_altitude, hold_floor = cfg.hold_altitude, cfg.hold_altitude + cfg.hold_band
        hold_gain, terminal_gain = cfg.hold_gain, cfg.terminal_gain
        u_max, u_min = cfg.u_max, -cfg.u_max
        window_altitude, window_range = seeker.activation_altitude, seeker.activation_range
        field_of_regard = seeker.field_of_regard
        eyes, eyes_sigma = control.eyes, control.seeker_sigma
        eyes_buf = eyes._buf if eyes is not None else None
        turb, turb_sigma = control.turb, control.turb_sigma
        turb_buf = turb._buf if turb is not None else None
        phase = control.phase
        {ys} = y
        samples = []
        flying = []  # launched and not done, in site order
        next_launch = min((m.launch_time for m in missiles), default=inf)
        for k in range(n_max):
            t = t0 + k * dt
            if t >= next_launch:
                for missile in missiles:
                    if missile.state is None and t >= missile.launch_time:
                        missile.launch()
                        events.append((t, f"launch:{{missile.kind}}"))
                flying = [m for m in missiles if m.state is not None and not m.done]
                next_launch = min((m.launch_time for m in missiles if m.state is None), default=inf)
            # the command at (t, y)
            x, h, v, theta = y0, y1, y3, y4
            entered = phase
            if phase is not TERMINAL and h <= window_altitude:
                slant = hypot(tx - x, ty - h)
                if 0.0 < slant <= window_range:
{gate_alpha}
                    if abs(alpha) <= field_of_regard:
                        phase = TERMINAL
                        control.terminal_t = t
            if phase is GRAVITATIONAL and h < pullup_altitude:
                phase = PULL_UP
            if phase is PULL_UP and (h < hold_floor or theta >= 0.0):
                phase = ALTITUDE_HOLD
            if phase is not entered:
                control.phase = phase
                events.append((t, f"phase:{{phase.name}}"))
            if phase is GRAVITATIONAL:
                u = cos(theta) if cos_law else 0.0
            elif phase is PULL_UP:
                u = v * v / pullup_g_radius + cos(theta)
            elif phase is ALTITUDE_HOLD:
                u = hold_gain * (hold_altitude - h) + cos(theta)
            else:
{law_alpha}
                u = terminal_gain * alpha
            if turb is not None:
{turbulence}
            if u > u_max:
                u = u_max
            elif u < u_min:
                u = u_min
            if evasion is not None:
                override = evasion.command(t, y3, y4, any(m.thrusting(t) for m in flying))
                if override is not None:
                    u = override
            if stride and k % stride == 0:
                samples.append((t, ({ys}), u))
            while True:  # the fused step; a replay breaks out with its state
{step}
                break
            if flying:
                hit = None
                ended = False
                for missile in flying:
                    s = missile.state
                    rx = y0 - s[0]
                    ry = y1 - s[1]
                    r2 = rx * rx + ry * ry
                    if r2 == 0.0:
                        pn = 0.0
                    else:
                        rvx = y3 * cos(y4) - s[3] * cos(s[4])
                        rvy = y3 * sin(y4) - s[3] * sin(s[4])
                        lam_dot = (rx * rvy - ry * rvx) / r2
                        closing = -(rx * rvx + ry * rvy) / sqrt(r2)
                        pn = {nav_gain!r} * (closing / g) * lam_dot + cos(s[4])
                        if pn > {u_max!r}:
                            pn = {u_max!r}
                        elif pn < -{u_max!r}:
                            pn = -{u_max!r}
                    try:
                        s_next = missile.step(t - missile.launch_time, s, pn, dt)
                    except IntegrationAbort as abort:
                        missile.done = ended = True
                        events.append((t, f"abort:{{missile.kind}}:{{abort.reason}}"))
                        continue
                    dx = o0 - s_next[0] - rx
                    dy = o1 - s_next[1] - ry
                    dd = dx * dx + dy * dy
                    if dd == 0.0:
                        miss, t_off = hypot(rx, ry), 0.0
                    else:
                        f = -(rx * dx + ry * dy) / dd
                        if f < 0.0:
                            f = 0.0
                        elif f > 1.0:
                            f = 1.0
                        miss, t_off = hypot(rx + f * dx, ry + f * dy), f * dt
                    if miss < missile.min_miss:
                        missile.min_miss = miss
                    if miss < kill_radius and (hit is None or miss < hit_miss):
                        hit, hit_miss, hit_t = missile, miss, t + t_off
                    if s_next[1] <= 0.0:
                        missile.done = ended = True
                    else:
                        missile.state = s_next
                if ended:
                    flying = [m for m in flying if not m.done]
                if hit is not None:
                    end = (hit, hit_miss, hit_t)
                    t = t0 + (k + 1) * dt
                    {ys} = {outs}
                    break
            if o1 <= 0.0 < y1:
                frac = y1 / (y1 - o1)
{touchdown}
                end, t = "ground", t + frac * dt
                break
            {ys} = {outs}
        else:
            end, t = "timeout", t0 + n_max * dt
        y = ({ys})
        if stride:
            samples.append((t, y, u))
        return end, t, y, samples, k + 1

    return {name}
"""


def _run_loop_source(name: str, vs_branches: tuple, segments: tuple, ends: tuple = ()) -> str:
    """Source of ``make(rho0, k_decay, cx_floor, mach_cap, *, area_over_2m,
    g, inv_lag, phases)``, the vehicle kernel's ``make`` plus the
    :class:`GuidancePhase` members in order, which returns the run loop
    ``name(rhs, control, t0, y, config, sample_interval, missiles, evasion,
    kill_radius)``; :func:`_run_loop` names it ``run_loop``.

    The loop is :func:`~reentrysim.dynamics._drive` with the
    :func:`_defence_hooks` of a :class:`_VehicleControl` and the vehicle
    kernel's fused step, in one frame: the state lives in locals
    ``y0``..``y6``, the control's settings are read once per run, and its
    phase machine, ``wrap_angle`` and the Box-Muller draws of its streams
    are inline, in the reference's operand order.  The step is the kernel's
    own :func:`~reentrysim.dynamics._rk4_lines` over the stock or any other
    tables; each ``raise`` and the non-finite check replay the step through
    ``_rk4_generic``, looked up at call time in the kernels' namespace, and
    continue with its value, or its :class:`IntegrationAbort` propagates.
    The loop writes ``phase``, ``terminal_t`` and each ``phase:`` event into
    the control as the control would, and returns what ``_drive`` returns.

    The hooks are inline too: the launches once one is due, the evasion
    override after the clamp (only with a controller, so
    ``_Missile.thrusting`` and ``EvasionController.command`` are called only
    then), and before the ground check each missile in flight: PN, its fused
    step, an abort event, the closest approach, the kill test and the
    pruning; a kill ends the loop with ``(missile, miss, t_kill)``.
    ``tests/kernels/run_loop.txt`` holds the source over the stock tables.
    """
    ys, outs = (", ".join(f"{p}{i}" for i in range(7)) for p in "yo")
    replay = f"{outs} = _rk4_generic(rhs, t, ({ys}), u, dt)\nbreak"
    alpha = _ALPHA.format(draw=textwrap.indent(_DRAW.format(stream="eyes", out="alpha"), "    "))
    return _RUN_LOOP.format(
        name=name, ys=ys, outs=outs, nav_gain=NAV_GAIN, u_max=INTERCEPTOR_U_MAX,
        gate_alpha=_indent([alpha], 5), law_alpha=_indent([alpha], 4),
        turbulence=_indent([_DRAW.format(stream="turb", out="u")], 4),
        step=_indent(_rk4_lines("vehicle", vs_branches, segments, ends, replay), 4),
        touchdown=_indent([f"y{i} = y{i} + frac * (o{i} - y{i})" for i in range(7)], 4),
    )


def _run_loop(rhs):
    """``run_loop`` generated over the tables and arguments of ``rhs`` when
    it is :func:`make_vehicle_rhs`'s generated RHS, which carries
    ``rhs.made_from``; None for any other RHS (a timer wrapped around it,
    say), which steps through ``_drive``.  Compiled once per process and
    table set, on the first run that asks."""
    made_from = getattr(rhs, "made_from", None)
    if made_from is None:
        return None
    env, drag, free = made_from
    return _generated_rhs("run_loop", env, drag, source=_run_loop_source, phases=_PHASES, **free)


def _ended(control, t, label, touchdown=None, landing_error=math.nan, intercepted=False,
           miss_distance=MISS_NONE, failed=None, samples=()) -> RunResult:
    """End a run at time t: log ``label`` and build the run's result."""
    control.events.append((t, label))
    nav = t - control.terminal_t if control.terminal_t is not None else 0.0
    return RunResult(touchdown, landing_error, t, nav, intercepted, miss_distance,
                     tuple(control.events), failed, samples)


def _fly(scenario, rhs, control, missiles=(), evasion=None, sample_interval=None) -> RunResult:
    """Fly the scenario and turn the step loop's end into the run's result:
    touchdown (with the missiles' closest approach), timeout, an abort, or
    an intercept.  A defended run hands its ``missiles`` (none launched)
    and its ``evasion`` controller, None when evasion is off; with
    ``sample_interval`` set, the result carries the loop's (t, state, u) rows.

    A flight of the generated RHS takes its generated :func:`_run_loop`;
    any other RHS (a timer wrapped around it, say) flies the reference
    path, :func:`~reentrysim.dynamics._drive` with the
    :func:`_defence_hooks` of ``control``, and the step bound here: the
    RHS's fused ``rhs.rk4_step``, or else this module's :func:`rk4_step` on
    the RHS, the name the benchmark's trace wraps.
    """
    t0, y0, config = scenario.entry.t, scenario.entry.as_vector(), scenario.integrator
    defence = (missiles, evasion, scenario.kill_radius)
    run = _run_loop(rhs)
    try:
        if run is not None:
            end, t, y, samples, _ = run(rhs, control, t0, y0, config, sample_interval, *defence)
        else:
            step = getattr(rhs, "rk4_step", None) or partial(rk4_step, rhs)
            command, after_step = _defence_hooks(control, *defence, config.dt)
            end, t, y, samples, _ = _drive(step, command, t0, y0, config, sample_interval,
                                           after_step)
    except IntegrationAbort as abort:
        return _ended(control, abort.t, f"failed:{abort.reason}", failed=abort.reason)
    if end == "ground":
        err = math.hypot(y[0] - scenario.target[0], y[2])
        miss = min((m.min_miss for m in missiles), default=MISS_NONE)
        return _ended(control, t, "touchdown", (y[0], y[2]), err, miss_distance=miss,
                      samples=tuple(samples))
    if end == "timeout":
        return _ended(control, t, "failed:timeout", failed="timeout", samples=tuple(samples))
    missile, miss, t_kill = end
    return _ended(control, t_kill, f"intercept:{missile.kind}", intercepted=True,
                  miss_distance=miss)


def simulate_vehicle_run(
    scenario: Scenario,
    stream: GaussianStream | None = None,
    sample_interval: float | None = None,
) -> RunResult:
    """Fly the vehicle alone: guidance phases, noise, touchdown statistics.

    ``stream`` defaults to substream 0 of the scenario seed, which is what
    the batch runner, :func:`_run_jobs`, uses for run 0.  With
    ``sample_interval`` set, the result carries (t, state, u) rows at that
    cadence plus the terminal row.
    """
    if stream is None:
        stream = GaussianStream(scenario.seed).substream(0)
    env = _run_atmosphere(scenario, stream)
    rhs = make_vehicle_rhs(scenario.vehicle, env, scenario.integrator.g)
    return _fly(scenario, rhs, _VehicleControl(scenario, stream), sample_interval=sample_interval)


@lru_cache(maxsize=16)
def _reach_table(spec: InterceptorSpec, env: AtmosphereModel) -> ReachTable:
    return ReachTable.build(spec, env)


@lru_cache(maxsize=8)
def _nominal_track(quiet: Scenario) -> tuple | RunResult:
    """Noise-free (t, x, y) prediction used for launch planning: the step
    loop's samples on the ``PLANNING_GRID``, ending with the touchdown (or
    timeout) row.

    The track is the same for every run of a batch (the defender plans on
    the nominal atmosphere), so it is cached on the quieted scenario.  An
    aborted descent returns its failed result in place of the track:
    lru_cache keeps no exceptions, and every run of the batch would fly
    the descent again.
    """
    rhs = make_vehicle_rhs(quiet.vehicle, quiet.atmosphere, quiet.integrator.g)
    result = _fly(quiet, rhs, _VehicleControl(quiet, None), sample_interval=PLANNING_GRID)
    if result.failed not in (None, "timeout"):
        return result
    return tuple((t, y[0], y[1]) for t, y, _ in result.samples)


class _Missile:
    def __init__(self, site: InterceptorSite, plan, env: AtmosphereModel, g: float):
        self.kind = site.kind
        self.spec = site.resolve_spec()
        self.launch_time, self.aim_angle = plan
        self.site_x = site.x
        rhs = make_interceptor_rhs(self.spec, env, g)
        self.step = getattr(rhs, "rk4_step", None) or partial(rk4_step, rhs)
        self.g = g
        self.state = None         # (x, y, z, v, theta, w, n, mass)
        self.min_miss = math.inf
        self.done = False

    def launch(self):
        self.state = (
            self.site_x, 1.0, 0.0,
            LAUNCH_SPEED, self.aim_angle,
            0.0, 0.0, self.spec.initial_mass,
        )

    def thrusting(self, t: float) -> bool:
        """Whether a missile in flight still burns at time ``t``."""
        return t - self.launch_time < self.spec.burn_time

    def pn_command(self, target_y: tuple) -> float:
        """Proportional navigation with gravity compensation, clamped to the
        structural limit: u = N' (Vc / g) dlambda/dt + cos(theta); 0.0 at
        zero range."""
        x, y = self.state[0], self.state[1]
        v, theta = self.state[3], self.state[4]
        rx = target_y[0] - x
        ry = target_y[1] - y
        r2 = rx * rx + ry * ry
        if r2 == 0.0:
            return 0.0
        vt, tt = target_y[3], target_y[4]
        rvx = vt * math.cos(tt) - v * math.cos(theta)
        rvy = vt * math.sin(tt) - v * math.sin(theta)
        lam_dot = (rx * rvy - ry * rvx) / r2
        closing = -(rx * rvx + ry * rvy) / math.sqrt(r2)
        u = NAV_GAIN * (closing / self.g) * lam_dot + math.cos(theta)
        if u > INTERCEPTOR_U_MAX:
            return INTERCEPTOR_U_MAX
        if u < -INTERCEPTOR_U_MAX:
            return -INTERCEPTOR_U_MAX
        return u


def _step_miss(rx0, ry0, rx1, ry1, dt):
    """Closest approach of the linearly interpolated separation over a step."""
    dx = rx1 - rx0
    dy = ry1 - ry0
    dd = dx * dx + dy * dy
    if dd == 0.0:
        return math.hypot(rx0, ry0), 0.0
    s = -(rx0 * dx + ry0 * dy) / dd
    if s < 0.0:
        s = 0.0
    elif s > 1.0:
        s = 1.0
    return math.hypot(rx0 + s * dx, ry0 + s * dy), s * dt


def _defence_hooks(control, missiles, evasion, kill_radius, dt) -> tuple:
    """The reference path's ``command`` and ``after_step`` of every run for
    :func:`~reentrysim.dynamics._drive`, which ``run_loop`` inlines; with
    no ``missiles`` and no ``evasion``, ``command`` is ``control``'s and
    ``after_step`` ends nothing.

    ``command`` launches the missiles that are due, in site order, once
    ``t`` reaches the earliest pending launch, then applies ``control`` and,
    with an ``evasion`` controller, its override while a booster burns.
    ``after_step`` steps each missile in flight (launched and not done) on
    PN, logs an abort, tracks its closest approach over the step and ends
    the run with the closest kill under ``kill_radius``, as ``(missile,
    miss, t_kill)``.
    """
    events = control.events
    flying = []
    next_launch = min((m.launch_time for m in missiles), default=math.inf)

    def command(t, y):
        nonlocal flying, next_launch
        if t >= next_launch:
            for m in missiles:
                if m.state is None and t >= m.launch_time:
                    m.launch()
                    events.append((t, f"launch:{m.kind}"))
            flying = [m for m in missiles if m.state is not None and not m.done]
            next_launch = min((m.launch_time for m in missiles if m.state is None),
                              default=math.inf)
        u = control(t, y)
        if evasion is None:
            return u
        override = evasion.command(t, y[3], y[4], any(m.thrusting(t) for m in flying))
        return u if override is None else override

    def after_step(t, y, y_next):
        nonlocal flying
        if not flying:
            return None
        hit = None
        ended = False
        for m in flying:
            s = m.state
            try:
                s_next = m.step(t - m.launch_time, s, m.pn_command(y), dt)
            except IntegrationAbort as abort:
                m.done = ended = True
                events.append((t, f"abort:{m.kind}:{abort.reason}"))
                continue
            miss, t_off = _step_miss(
                y[0] - s[0], y[1] - s[1],
                y_next[0] - s_next[0], y_next[1] - s_next[1], dt,
            )
            if miss < m.min_miss:
                m.min_miss = miss
            if miss < kill_radius and (hit is None or miss < hit[1]):
                hit = (m, miss, t + t_off)
            if s_next[1] <= 0.0:
                m.done = ended = True
            else:
                m.state = s_next
        if ended:
            flying = [m for m in flying if not m.done]
        return hit

    return command, after_step


def simulate_engagement(scenario: Scenario, stream: GaussianStream | None = None) -> RunResult:
    """Co-integrate the vehicle and any launched interceptors.

    Launch times come from a noise-free prediction of the vehicle track
    (the defender plans on the nominal atmosphere).  An intercept is a
    closest approach below the scenario kill radius; the run ends there.
    Without a feasible launch the result reduces to the vehicle-only run
    with an infinite miss sentinel.
    """
    if not scenario.sites:
        raise ConfigError("simulate_engagement needs at least one interceptor site")
    if stream is None:
        stream = GaussianStream(scenario.seed).substream(0)

    g = scenario.integrator.g
    env = _run_atmosphere(scenario, stream)

    control = _VehicleControl(scenario, stream)
    track = _nominal_track(replace(scenario, noise=NoiseConfig(), sites=(), runs=1, seed=0))
    if isinstance(track, RunResult):  # launch planning flies the nominal descent
        return _ended(control, track.flight_time, f"failed:{track.failed}", failed=track.failed)
    missiles = []
    for site in scenario.sites:
        reach = _reach_table(site.resolve_spec(), scenario.atmosphere)
        plan = launch_decision(track, site.x, reach)
        if plan is not None:
            missiles.append(_Missile(site, plan, env, g))
    evasion = (EvasionController(scenario.evasion, scenario.guidance.u_max, g)
               if scenario.evasion.enabled else None)
    return _fly(scenario, make_vehicle_rhs(scenario.vehicle, env, g), control, missiles, evasion)


def _run_indexed(args) -> RunResult:
    scenario, index = args
    stream = GaussianStream(scenario.seed).substream(index)
    if scenario.sites:
        return simulate_engagement(scenario, stream)
    return simulate_vehicle_run(scenario, stream)


def _run_jobs(scenarios, workers: int | None = None) -> tuple:
    """Per-run results of each scenario, one tuple per scenario in run
    order: the jobs are (scenario, i) in scenario order and run i draws from
    substream i of its scenario's seed, so any worker count gives the same
    results.  With more than one worker and job, they fan out over one pool;
    only then, before the fork, does this process load ``multiprocessing``
    and ``numpy.random`` and compile each scenario's vehicle kernel,
    ``run_loop`` and site interceptor kernels, so every worker inherits them."""
    if workers is not None:
        workers = _index("workers", workers, 1, ConfigError)
    jobs = [(sc, i) for sc in scenarios for i in range(sc.runs)]
    if workers is not None and workers > 1 and len(jobs) > 1:
        from multiprocessing import Pool

        import numpy.random  # noqa: F401  (the forked workers inherit it)

        for sc in scenarios:
            _run_loop(make_vehicle_rhs(sc.vehicle, sc.atmosphere, sc.integrator.g))
            for site in sc.sites:
                make_interceptor_rhs(site.resolve_spec(), sc.atmosphere, sc.integrator.g)
        with Pool(processes=min(workers, len(jobs))) as pool:
            runs = iter(pool.map(_run_indexed, jobs, chunksize=max(1, len(jobs) // (4 * workers))))
    else:
        runs = map(_run_indexed, jobs)
    return tuple(tuple(next(runs) for _ in range(sc.runs)) for sc in scenarios)


def batch_run_results(scenario: Scenario, workers: int | None = None) -> tuple:
    """Per-run results for scenario.runs independent runs, in run order.

    Run i draws from substream i of the scenario seed, so the result
    tuple is reproducible for any worker count; with more than one worker
    and run, the runs fan out over a process pool (:func:`_run_jobs`)."""
    return _run_jobs((scenario,), workers)[0]


def monte_carlo_batch(scenario: Scenario, workers: int | None = None) -> BatchStatistics:
    """Run scenario.runs independent runs and aggregate.

    Each run draws from substream i of the scenario seed, so the batch is
    reproducible for any worker count; results fold in index order.
    """
    return summarize(batch_run_results(scenario, workers))


def summarize(results) -> BatchStatistics:
    """Fold run results (in the given order) into batch statistics."""
    completed = [r for r in results if r.failed is None]
    failures = len(results) - len(completed)
    if not completed:
        raise BatchError(f"all {len(results)} runs failed")
    landed = [r for r in completed if r.touchdown is not None]
    errors = [r.landing_error for r in landed]
    hits = sum(1 for r in completed if r.intercepted)
    launched = sum(
        1 for r in completed if any(label.startswith("launch:") for _, label in r.events)
    )
    p = hits / len(completed)
    return BatchStatistics(
        n=len(completed),
        failures=failures,
        mean_error=statistics.fmean(errors) if errors else math.nan,
        max_error=max(errors) if errors else math.nan,
        cep=statistics.median(errors) if errors else math.nan,
        p_intercept=p,
        p_stderr=math.sqrt(p * (1.0 - p) / len(completed)),
        launches=launched,
        p_given_launch=hits / launched if launched else math.nan,
        nav_time_mean=statistics.fmean(r.navigation_time for r in completed),
    )


class SweepRow(NamedTuple):
    x: float
    nav_time: float
    max_error: float
    failed: str | None = None


def error_vs_navigation_sweep(base_scenario: Scenario, ranges) -> tuple:
    """Landing-error batches across target ranges, sorted by range.

    Each range is flown with the preset trajectory shaping for that
    distance (see :mod:`reentrysim.presets`); the base scenario supplies
    noise, seed, batch size and the vehicle/integrator setup.  A failed
    batch yields a row with nan statistics and the reason, and the sweep
    continues.
    """
    from .presets import scenario_for_range

    if not ranges:
        raise ConfigError("ranges must be non-empty")
    xs = sorted(ranges)
    rows = []
    for x, results in zip(xs, _run_jobs([scenario_for_range(x, base=base_scenario) for x in xs])):
        try:
            stats = summarize(results)
        except BatchError as err:
            rows.append(SweepRow(x, math.nan, math.nan, str(err)))
            continue
        rows.append(SweepRow(x, stats.nav_time_mean, stats.max_error))
    return tuple(rows)


class SpeedRow(NamedTuple):
    v: float
    p_type1: float
    p_type1_stderr: float
    p_type2: float
    p_type2_stderr: float


SPEED_SWEEP_ENVELOPE = (1000.0, 2200.0)


def probability_vs_speed_sweep(base_scenario: Scenario, speeds) -> tuple:
    """Interception probability per vehicle speed, one batch per type.

    Speeds share the base scenario seed, so runs are paired across sweep
    points (common random numbers) and the estimated trend is not masked
    by sampling noise.
    """
    from .presets import terminal_engagement_scenario

    if not speeds:
        raise ConfigError("speeds must be non-empty")
    lo, hi = SPEED_SWEEP_ENVELOPE
    for v in speeds:
        if not lo <= v <= hi:
            raise DomainError(f"speed {v} outside sweep envelope [{lo}, {hi}]")
    speeds = sorted(speeds)
    stats = [summarize(results) for results in _run_jobs([
        terminal_engagement_scenario(v, kind, base=base_scenario)
        for v in speeds for kind in ("type-1", "type-2")])]
    return tuple(SpeedRow(v, one.p_intercept, one.p_stderr, two.p_intercept, two.p_stderr)
                 for v, one, two in zip(speeds, stats[::2], stats[1::2]))
