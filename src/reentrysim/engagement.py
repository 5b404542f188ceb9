"""Monte Carlo layer: noise injection, single runs, batches and sweeps.

A Scenario is plain frozen data, so batches can fan out across processes
and still reproduce byte for byte: run i draws only from substream i of
the scenario seed, and results fold in index order regardless of worker
count.  Three noise channels ride separate substreams per run (density
multiplier, load-factor turbulence, seeker boresight), which keeps the
draw sequences aligned across scenario variants sharing a seed.

Every flight steps through the one loop, ``dynamics._drive``, by way of
``_fly``, which turns the loop's end into a run result: vehicle-only runs,
the noise-free track that launch planning reads, and defended runs, which
hook their launches and evasion into the command and their missiles into
each step.
"""

from __future__ import annotations

import math
import operator
import statistics
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from typing import NamedTuple

from .atmosphere import DEFAULT_ATMOSPHERE, AtmosphereModel
from .dynamics import (
    IntegratorConfig,
    VehicleSpec,
    VehicleState,
    _drive,
    make_interceptor_rhs,
    make_vehicle_rhs,
    rk4_step,
)
from .errors import BatchError, ConfigError, DomainError, IntegrationAbort
from .guidance import (
    EvasionConfig,
    EvasionController,
    GuidanceConfig,
    GuidancePhase,
    SeekerModel,
    wrap_angle,
)
from .interceptor import STOCK_SPECS, InterceptorSpec, ReachTable, launch_decision

MISS_NONE = math.inf  # sentinel miss distance when nothing was launched
PLANNING_GRID = 0.2   # s, spacing of the predicted track that launch planning scans

_TWO_PI = 2.0 * math.pi

# phase members bound once: attribute access on an enum class is slow, and
# the phase machine compares phases several times per step
_GRAVITATIONAL = GuidancePhase.GRAVITATIONAL
_PULL_UP = GuidancePhase.PULL_UP
_ALTITUDE_HOLD = GuidancePhase.ALTITUDE_HOLD
_TERMINAL = GuidancePhase.TERMINAL


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


def _index(name: str, value) -> int:
    """``value`` as a non-negative int; a float or other non-integral
    value is an error, not truncated."""
    try:
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if value < 0:
        raise DomainError(f"{name} must be >= 0, got {value}")
    return value


@dataclass(frozen=True)
class NoiseConfig:
    seeker_angle_sigma: float = 0.0        # rad, boresight error per evaluation
    atmosphere_density_sigma: float = 0.0  # relative, one multiplier per run
    turbulence_sigma: float = 0.0          # g, load-factor disturbance per step

    def __post_init__(self):
        for name in ("seeker_angle_sigma", "atmosphere_density_sigma", "turbulence_sigma"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class InterceptorSite:
    """Ground launcher: downrange position and interceptor type."""

    x: float
    kind: str = "type-1"

    def __post_init__(self):
        if self.kind not in STOCK_SPECS:
            raise ConfigError(f"unknown interceptor kind {self.kind!r}")
        if not math.isfinite(self.x):
            raise ConfigError(f"site x must be finite, got {self.x}")

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
    kill_radius: float = 10.0  # m, closest approach below this is an intercept

    def __post_init__(self):
        for name in ("seed", "runs"):  # stored as int, so the manifest can write them
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}") from None
        if self.runs < 1:
            raise ConfigError(f"runs must be >= 1, got {self.runs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.kill_radius < math.inf:
            raise ConfigError(f"kill_radius must be finite and > 0, got {self.kill_radius}")
        if len(self.target) != 2 or not all(map(math.isfinite, self.target)):
            raise ConfigError(f"target must be a finite (x, y) pair, got {self.target}")
        for name in ("t", "x", "z"):
            if not math.isfinite(getattr(self.entry, name)):
                raise ConfigError(f"entry {name} must be finite, got {getattr(self.entry, name)}")
        if self.entry.w != 0.0:
            raise ConfigError(f"flight is planar: entry heading w must be 0, got {self.entry.w}")
        t_max = self.integrator.t_max
        if not self.entry.t < t_max:
            raise ConfigError(f"entry t must be < t_max ({t_max}), got {self.entry.t}")
        if not self.entry.v > 0.0:
            raise ConfigError("entry speed must be > 0")
        if not self.entry.y > 0.0:
            raise ConfigError(f"entry altitude must be > 0, got {self.entry.y}")
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
    evaluated, and turbulence once per step.
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


def _ended(control, t, label, touchdown=None, landing_error=math.nan, intercepted=False,
           miss_distance=MISS_NONE, failed=None, samples=()) -> RunResult:
    """End a run at time t: log ``label`` and build the run's result."""
    control.events.append((t, label))
    nav = t - control.terminal_t if control.terminal_t is not None else 0.0
    return RunResult(touchdown, landing_error, t, nav, intercepted, miss_distance,
                     tuple(control.events), failed, samples)


def _fly(scenario, rhs, control, command=None, after_step=None, sample_interval=None) -> RunResult:
    """Fly the scenario through :func:`~reentrysim.dynamics._drive` and turn
    its end into the run's result: touchdown, timeout, an abort, or the
    result ``after_step`` ended the run with.  ``command`` defaults to
    ``control``; with ``sample_interval`` set, the result carries the
    loop's (t, state, u) rows.  The step is bound here: the RHS's fused
    ``rhs.rk4_step``, or else this module's :func:`rk4_step` on the RHS
    (a timer wrapped around it, say), the name the benchmark's trace wraps.
    """
    step = getattr(rhs, "rk4_step", None) or partial(rk4_step, rhs)
    try:
        end, t, y, samples, _ = _drive(
            step, control if command is None else command, scenario.entry.t,
            scenario.entry.as_vector(), scenario.integrator, sample_interval, after_step)
    except IntegrationAbort as abort:
        return _ended(control, abort.t, f"failed:{abort.reason}", failed=abort.reason)
    if isinstance(end, RunResult):
        return end
    if end == "ground":
        err = math.hypot(y[0] - scenario.target[0], y[2])
        return _ended(control, t, "touchdown", (y[0], y[2]), err, samples=tuple(samples))
    return _ended(control, t, "failed:timeout", failed="timeout", samples=tuple(samples))


def simulate_vehicle_run(
    scenario: Scenario,
    stream: GaussianStream | None = None,
    sample_interval: float | None = None,
) -> RunResult:
    """Fly the vehicle alone: guidance phases, noise, touchdown statistics.

    ``stream`` defaults to substream 0 of the scenario seed, which is what
    monte_carlo_batch uses for run 0.  With ``sample_interval`` set, the
    result carries (t, state, u) rows at that cadence plus the terminal
    row.
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
        self.plan = plan
        self.site_x = site.x
        rhs = make_interceptor_rhs(self.spec, env, g)
        self.step = getattr(rhs, "rk4_step", None) or partial(rk4_step, rhs)
        self.g = g
        self.state = None         # (x, y, z, v, theta, w, n, mass)
        self.launch_time = plan.launch_time
        self.min_miss = math.inf
        self.done = False

    def launch(self):
        self.state = (
            self.site_x, 1.0, 0.0,
            self.spec.launch_speed, self.plan.aim_angle,
            0.0, 0.0, self.spec.initial_mass,
        )

    def thrusting(self, t: float) -> bool:
        return (
            self.state is not None
            and not self.done
            and t - self.launch_time < self.spec.burn_time
        )

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
        u = self.spec.nav_gain * (closing / self.g) * lam_dot + math.cos(theta)
        u_max = self.spec.u_max
        if u > u_max:
            return u_max
        if u < -u_max:
            return -u_max
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
    dt = scenario.integrator.dt
    env = _run_atmosphere(scenario, stream)

    control = _VehicleControl(scenario, stream)
    events = control.events
    track = _nominal_track(replace(scenario, noise=NoiseConfig(), sites=(), runs=1, seed=0))
    if isinstance(track, RunResult):  # launch planning flies the nominal descent
        return _ended(control, track.flight_time, f"failed:{track.failed}", failed=track.failed)
    missiles = []
    for site in scenario.sites:
        reach = _reach_table(site.resolve_spec(), scenario.atmosphere)
        plan = launch_decision(track, site.x, reach)
        if plan is not None:
            missiles.append(_Missile(site, plan, env, g))
    evasion = EvasionController(scenario.evasion, scenario.guidance.u_max, g)
    evading = scenario.evasion.enabled

    def command(t, y):
        for m in missiles:
            if m.state is None and t >= m.launch_time:
                m.launch()
                events.append((t, f"launch:{m.kind}"))
        # only an enabled controller reads the booster scan
        boost = evading and any(m.thrusting(t) for m in missiles)
        u = control(t, y)
        override = evasion.command(t, y[3], y[4], boost)
        return u if override is None else override

    def after_step(t, y, y_next):
        hit = None
        for m in missiles:
            if m.state is None or m.done:
                continue
            s = m.state
            try:
                s_next = m.step(t - m.launch_time, s, m.pn_command(y), dt)
            except IntegrationAbort as abort:
                m.done = True
                events.append((t, f"abort:{m.kind}:{abort.reason}"))
                continue
            miss, t_off = _step_miss(
                y[0] - s[0], y[1] - s[1],
                y_next[0] - s_next[0], y_next[1] - s_next[1], dt,
            )
            if miss < m.min_miss:
                m.min_miss = miss
            if miss < scenario.kill_radius and (hit is None or miss < hit[1]):
                hit = (m, miss, t + t_off)
            if s_next[1] <= 0.0:
                m.done = True
            else:
                m.state = s_next
        if hit is None:
            return None
        m, miss, t_kill = hit
        return _ended(control, t_kill, f"intercept:{m.kind}", intercepted=True, miss_distance=miss)

    rhs = make_vehicle_rhs(scenario.vehicle, env, g)
    result = _fly(scenario, rhs, control, command, after_step)
    if result.touchdown is not None and missiles:
        result = replace(result, miss_distance=min(m.min_miss for m in missiles))
    return result


def _run_indexed(args) -> RunResult:
    scenario, index = args
    stream = GaussianStream(scenario.seed).substream(index)
    if scenario.sites:
        return simulate_engagement(scenario, stream)
    return simulate_vehicle_run(scenario, stream)


def batch_run_results(scenario: Scenario, workers: int | None = None) -> tuple:
    """Per-run results for scenario.runs independent runs, in run order.

    Run i draws from substream i of the scenario seed, so the result
    tuple is reproducible for any worker count.  With more than one worker
    and run, the runs fan out over a process pool; ``multiprocessing`` and
    ``numpy.random`` load only then, in this process before it forks, so
    every worker starts with the generator module a noisy run draws from.
    """
    jobs = [(scenario, i) for i in range(scenario.runs)]
    if workers is not None and workers > 1 and len(jobs) > 1:
        from multiprocessing import Pool

        import numpy.random  # noqa: F401  (the forked workers inherit it)

        with Pool(processes=min(workers, len(jobs))) as pool:
            results = pool.map(_run_indexed, jobs, chunksize=max(1, len(jobs) // (4 * workers)))
    else:
        results = [_run_indexed(job) for job in jobs]
    return tuple(results)


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
    rows = []
    for x in sorted(ranges):
        scenario = scenario_for_range(x, base=base_scenario)
        try:
            stats = monte_carlo_batch(scenario)
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
    rows = []
    for v in sorted(speeds):
        estimates = {}
        for kind in ("type-1", "type-2"):
            scenario = terminal_engagement_scenario(v, kind, base=base_scenario)
            stats = monte_carlo_batch(scenario)
            estimates[kind] = (stats.p_intercept, stats.p_stderr)
        rows.append(SpeedRow(v, *estimates["type-1"], *estimates["type-2"]))
    return tuple(rows)
