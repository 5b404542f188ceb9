"""Monte Carlo layer: noise injection, single runs, batches and sweeps.

A Scenario is plain frozen data, so batches can fan out across processes
and still reproduce byte for byte: run i draws only from substream i of
the scenario seed, and results fold in index order regardless of worker
count.  Three noise channels ride separate substreams per run (density
multiplier, load-factor turbulence, seeker boresight), which keeps the
draw sequences aligned across scenario variants sharing a seed.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field, replace
from functools import lru_cache
from multiprocessing import Pool
from typing import NamedTuple

import numpy as np

from .atmosphere import DEFAULT_ATMOSPHERE, AtmosphereModel
from .dynamics import (
    G0,
    IntegratorConfig,
    VehicleSpec,
    VehicleState,
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
from .interceptor import (
    ENGAGEMENT_ZONES,
    InterceptorSpec,
    ReachTable,
    launch_decision,
    type1_spec,
    type2_spec,
)

MISS_NONE = math.inf  # sentinel miss distance when nothing was launched

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
    inherited from library internals.  ``substream(i)`` derives the i-th
    independent child; children nest, and the derivation depends only on
    the root entropy and the index path.

    Uniforms are drawn ``_BLOCK`` at a time and used in order.  On PCG64 a
    block draw yields exactly the values of as many single ``random()``
    calls, and children derive from the seed sequence, not from generator
    state, so reading ahead changes no sample of this or any other stream.
    """

    _BLOCK = 256

    def __init__(self, seed):
        if isinstance(seed, np.random.SeedSequence):
            self._seq = seed
        else:
            self._seq = np.random.SeedSequence(int(seed))
        self._gen = np.random.Generator(np.random.PCG64(self._seq))
        self._buf = []  # pending uniforms, next one last

    def _refill(self) -> None:
        # the pending uniforms come first, so the new block goes underneath
        self._buf[:0] = reversed(self._gen.random(self._BLOCK).tolist())

    def substream(self, index: int) -> "GaussianStream":
        if index < 0:
            raise DomainError(f"substream index must be >= 0, got {index}")
        key = tuple(self._seq.spawn_key) + (int(index),)
        return GaussianStream(
            np.random.SeedSequence(entropy=self._seq.entropy, spawn_key=key)
        )

    def gaussian(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        if sigma < 0.0:
            raise DomainError(f"sigma must be >= 0, got {sigma}")
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


@dataclass(frozen=True)
class NoiseConfig:
    seeker_angle_sigma: float = 0.0        # rad, boresight error per evaluation
    atmosphere_density_sigma: float = 0.0  # relative, one multiplier per run
    turbulence_sigma: float = 0.0          # g, load-factor disturbance per step

    def __post_init__(self):
        for name in ("seeker_angle_sigma", "atmosphere_density_sigma", "turbulence_sigma"):
            if not getattr(self, name) >= 0.0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class InterceptorSite:
    """Ground launcher: downrange position and interceptor type."""

    x: float
    kind: str = "type-1"
    spec: InterceptorSpec | None = None  # overrides the default spec for kind

    def __post_init__(self):
        if self.kind not in ("type-1", "type-2"):
            raise ConfigError(f"unknown interceptor kind {self.kind!r}")

    def resolve_spec(self) -> InterceptorSpec:
        if self.spec is not None:
            return self.spec
        return type1_spec() if self.kind == "type-1" else type2_spec()


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
        if self.runs < 1:
            raise ConfigError(f"runs must be >= 1, got {self.runs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not self.kill_radius > 0.0:
            raise ConfigError(f"kill_radius must be > 0, got {self.kill_radius}")
        if len(self.target) != 2:
            raise ConfigError("target must be an (x, y) pair")
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
    pairs: tuple                # (navigation_time, landing_error) per landed run

    def __post_init__(self):
        if not (math.isnan(self.p_intercept) or 0.0 <= self.p_intercept <= 1.0):
            raise ConfigError("p_intercept must lie in [0, 1]")


def _density_multiplier(scenario: Scenario, stream: GaussianStream) -> float:
    sigma = scenario.noise.atmosphere_density_sigma
    if sigma == 0.0:
        return 1.0
    # floor keeps a pathological draw from flipping the sign of density
    return max(stream.substream(0).gaussian(1.0, sigma), 0.05)


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


def _finish_landing(scenario, control, t_td, y_td, events) -> RunResult:
    touchdown = (y_td[0], y_td[2])
    err = math.hypot(y_td[0] - scenario.target[0], y_td[2])
    nav = t_td - control.terminal_t if control.terminal_t is not None else 0.0
    events.append((t_td, "touchdown"))
    return RunResult(
        touchdown=touchdown,
        landing_error=err,
        flight_time=t_td,
        navigation_time=nav,
        intercepted=False,
        miss_distance=MISS_NONE,
        events=tuple(events),
    )


def _failed_run(reason, t, control, events) -> RunResult:
    events.append((t, f"failed:{reason}"))
    nav = t - control.terminal_t if control.terminal_t is not None else 0.0
    return RunResult(
        touchdown=None,
        landing_error=math.nan,
        flight_time=t,
        navigation_time=nav,
        intercepted=False,
        miss_distance=MISS_NONE,
        events=tuple(events),
        failed=reason,
    )


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
    mult = _density_multiplier(scenario, stream)
    env = replace(scenario.atmosphere, rho0=scenario.atmosphere.rho0 * mult)
    icfg = scenario.integrator
    rhs = make_vehicle_rhs(scenario.vehicle, env, icfg.g)
    control = _VehicleControl(scenario, stream)

    dt = icfg.dt
    n_max = max(1, math.ceil((icfg.t_max - scenario.entry.t) / dt - 1e-9))
    t0 = scenario.entry.t
    y = scenario.entry.as_vector()
    stride = None if sample_interval is None else max(1, round(sample_interval / dt))
    samples = []
    try:
        for k in range(n_max):
            t = t0 + k * dt
            u = control(t, y)
            if stride is not None and k % stride == 0:
                samples.append((t, y, u))
            y_next = rk4_step(rhs, t, y, u, dt)
            if y_next[1] <= 0.0 < y[1]:
                frac = y[1] / (y[1] - y_next[1])
                y_td = tuple(a + frac * (b - a) for a, b in zip(y, y_next))
                t_td = t + frac * dt
                if stride is not None:
                    samples.append((t_td, y_td, u))
                result = _finish_landing(scenario, control, t_td, y_td, control.events)
                return replace(result, samples=tuple(samples))
            y = y_next
    except IntegrationAbort as abort:
        return _failed_run(abort.reason, abort.t, control, control.events)
    return _failed_run("timeout", t0 + n_max * dt, control, control.events)


def _noise_free(scenario: Scenario) -> Scenario:
    return replace(scenario, noise=NoiseConfig(), sites=(), runs=1)


@lru_cache(maxsize=16)
def _reach_table(spec: InterceptorSpec, env: AtmosphereModel) -> ReachTable:
    return ReachTable.build(spec, env)


def _predicted_track(scenario: Scenario) -> tuple:
    """Noise-free (t, x, y) prediction used for launch planning.

    The track is the same for every run of a batch (the defender plans on
    the nominal atmosphere), so it is cached on the quieted scenario.
    """
    track = _nominal_track(replace(_noise_free(scenario), seed=0))
    if isinstance(track, IntegrationAbort):
        raise IntegrationAbort(track.reason, track.t, track.state)
    return track


@lru_cache(maxsize=8)
def _nominal_track(quiet: Scenario) -> tuple | IntegrationAbort:
    # An abort is returned rather than raised: lru_cache keeps no
    # exceptions, and every run of the batch would fly the descent again.
    icfg = quiet.integrator
    rhs = make_vehicle_rhs(quiet.vehicle, quiet.atmosphere, icfg.g)
    control = _VehicleControl(quiet, None)
    dt = icfg.dt
    n_max = max(1, math.ceil((icfg.t_max - quiet.entry.t) / dt - 1e-9))
    t0 = quiet.entry.t
    y = quiet.entry.as_vector()
    track = [(t0, y[0], y[1])]
    try:
        for k in range(n_max):
            t = t0 + k * dt
            u = control(t, y)
            y_next = rk4_step(rhs, t, y, u, dt)
            track.append((t0 + (k + 1) * dt, y_next[0], y_next[1]))
            if y_next[1] <= 0.0:
                break
            y = y_next
    except IntegrationAbort as abort:
        return abort.with_traceback(None)
    return tuple(track)


class _Missile:
    def __init__(self, site: InterceptorSite, plan, env: AtmosphereModel, g: float):
        self.kind = site.kind
        self.spec = site.resolve_spec()
        self.plan = plan
        self.site_x = site.x
        self.rhs = make_interceptor_rhs(self.spec, env, g)
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

    icfg = scenario.integrator
    g = icfg.g
    dt = icfg.dt
    mult = _density_multiplier(scenario, stream)
    env = replace(scenario.atmosphere, rho0=scenario.atmosphere.rho0 * mult)

    missiles = []
    control = _VehicleControl(scenario, stream)
    events = control.events
    try:
        track = _predicted_track(scenario)
    except IntegrationAbort as abort:  # launch planning flies the nominal descent
        return _failed_run(abort.reason, abort.t, control, events)
    for site in scenario.sites:
        spec = site.resolve_spec()
        plan = launch_decision(
            track[:: max(1, round(0.2 / dt))],  # 0.2 s planning grid
            site.x,
            spec,
            _reach_table(spec, scenario.atmosphere),
        )
        if plan is not None:
            missiles.append(_Missile(site, plan, env, g))
    rhs_v = make_vehicle_rhs(scenario.vehicle, env, g)
    evasion = EvasionController(scenario.evasion, scenario.guidance.u_max, g)

    t0 = scenario.entry.t
    y = scenario.entry.as_vector()
    n_max = max(1, math.ceil((icfg.t_max - t0) / dt - 1e-9))
    try:
        for k in range(n_max):
            t = t0 + k * dt
            for m in missiles:
                if m.state is None and t >= m.launch_time:
                    m.launch()
                    events.append((t, f"launch:{m.kind}"))
            boost = any(m.thrusting(t) for m in missiles)
            u = control(t, y)
            override = evasion.command(t, y[3], y[4], boost)
            if override is not None:
                u = override
            y_next = rk4_step(rhs_v, t, y, u, dt)

            hit = None
            for m in missiles:
                if m.state is None or m.done:
                    continue
                s = m.state
                try:
                    s_next = rk4_step(m.rhs, t - m.launch_time, s, m.pn_command(y), dt)
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

            if hit is not None:
                m, miss, t_kill = hit
                events.append((t_kill, f"intercept:{m.kind}"))
                nav = t_kill - control.terminal_t if control.terminal_t is not None else 0.0
                return RunResult(
                    touchdown=None,
                    landing_error=math.nan,
                    flight_time=t_kill,
                    navigation_time=nav,
                    intercepted=True,
                    miss_distance=miss,
                    events=tuple(events),
                )
            if y_next[1] <= 0.0 < y[1]:
                frac = y[1] / (y[1] - y_next[1])
                y_td = tuple(a + frac * (b - a) for a, b in zip(y, y_next))
                result = _finish_landing(scenario, control, t + frac * dt, y_td, events)
                return replace(result, miss_distance=min(m.min_miss for m in missiles)
                               if missiles else MISS_NONE)
            y = y_next
    except IntegrationAbort as abort:
        return _failed_run(abort.reason, abort.t, control, events)
    return _failed_run("timeout", t0 + n_max * dt, control, events)


def _run_indexed(args) -> RunResult:
    scenario, index = args
    stream = GaussianStream(scenario.seed).substream(index)
    if scenario.sites:
        return simulate_engagement(scenario, stream)
    return simulate_vehicle_run(scenario, stream)


def batch_run_results(scenario: Scenario, workers: int | None = None) -> tuple:
    """Per-run results for scenario.runs independent runs, in run order.

    Run i draws from substream i of the scenario seed, so the result
    tuple is reproducible for any worker count.
    """
    jobs = [(scenario, i) for i in range(scenario.runs)]
    if workers is not None and workers > 1 and len(jobs) > 1:
        with Pool(processes=workers) as pool:
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
        pairs=tuple((r.navigation_time, r.landing_error) for r in landed),
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
