"""Command-line front end: scenario files, run subcommands, CSV reports.

Scenario files are INI documents with sections [atmosphere], [vehicle],
[guidance], [interceptors], [noise] and [batch]; every key overrides one
field of the resolved scenario, and unknown sections or keys are rejected
with their location.  Each subcommand writes its tables into the output
directory next to a ``manifest.json`` recording the fully resolved
scenario, the tool version, the seed and the output names, so any run can
be reproduced byte for byte.  All angles are radians and decimals use '.'
throughout.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import io
import json
import math
import os
import sys

from . import __version__
from .engagement import (
    InterceptorSite,
    NoiseConfig,
    Scenario,
    batch_run_results,
    error_vs_navigation_sweep,
    probability_vs_speed_sweep,
    simulate_engagement,
    simulate_vehicle_run,
    summarize,
)
from .errors import BatchError, ConfigError, DomainError
from .interceptor import calibrate_type1, calibrate_type2
from .presets import NAMED_PRESETS, PRESET_RANGES, named_scenario

ENV_PREFIX = "REENTRYSIM_"  # REENTRYSIM_SEED=7 reentrysim batch == --seed 7
DEFAULT_PRESET = "x615"
SWEEP_SPEEDS = (1200.0, 1400.0, 1600.0, 1800.0, 2000.0)

_FLOAT, _INT, _BOOL, _STR, _SITES = "float", "int", "bool", "str", "sites"

# Scenario file schema, one row per key: (section, key, kind, path).  The
# path is the dotted Scenario field the key sets, a digit indexing a tuple;
# parse_scenario, dump_scenario and the --seed/--n/--dt flags all go
# through it, so parse -> dump -> parse is an identity for anything built
# from a file.  Rows are in dump order.
_KEYS = (
    ("atmosphere", "rho0", _FLOAT, "atmosphere.rho0"),
    ("atmosphere", "k_decay", _FLOAT, "atmosphere.k_decay"),
    ("vehicle", "mass", _FLOAT, "vehicle.mass"),
    ("vehicle", "wing_area", _FLOAT, "vehicle.wing_area"),
    ("vehicle", "lift_to_drag", _FLOAT, "vehicle.lift_to_drag"),
    ("vehicle", "lag_time", _FLOAT, "vehicle.lag_time"),
    ("vehicle", "entry_x", _FLOAT, "entry.x"),
    ("vehicle", "entry_altitude", _FLOAT, "entry.y"),
    ("vehicle", "entry_speed", _FLOAT, "entry.v"),
    ("vehicle", "entry_theta", _FLOAT, "entry.theta"),
    ("guidance", "pullup_start_altitude", _FLOAT, "guidance.pullup_start_altitude"),
    ("guidance", "pullup_radius", _FLOAT, "guidance.pullup_radius"),
    ("guidance", "hold_altitude", _FLOAT, "guidance.hold_altitude"),
    ("guidance", "hold_band", _FLOAT, "guidance.hold_band"),
    ("guidance", "hold_gain", _FLOAT, "guidance.hold_gain"),
    ("guidance", "terminal_gain", _FLOAT, "guidance.terminal_gain"),
    ("guidance", "u_max", _FLOAT, "guidance.u_max"),
    ("guidance", "gravitational_cos_theta", _BOOL, "guidance.gravitational_cos_theta"),
    ("guidance", "seeker_altitude", _FLOAT, "seeker.activation_altitude"),
    ("guidance", "seeker_range", _FLOAT, "seeker.activation_range"),
    ("guidance", "field_of_regard", _FLOAT, "seeker.field_of_regard"),
    ("guidance", "evasion_enabled", _BOOL, "evasion.enabled"),
    ("guidance", "evasion_turn_radius", _FLOAT, "evasion.interceptor_turn_radius"),
    ("guidance", "evasion_speed", _FLOAT, "evasion.interceptor_speed"),
    ("guidance", "evasion_dwell", _FLOAT, "evasion.dwell"),
    ("guidance", "target_x", _FLOAT, "target.0"),
    ("guidance", "target_y", _FLOAT, "target.1"),
    ("interceptors", "sites", _SITES, "sites"),
    ("interceptors", "kill_radius", _FLOAT, "kill_radius"),
    ("noise", "seeker_angle_sigma", _FLOAT, "noise.seeker_angle_sigma"),
    ("noise", "atmosphere_density_sigma", _FLOAT, "noise.atmosphere_density_sigma"),
    ("noise", "turbulence_sigma", _FLOAT, "noise.turbulence_sigma"),
    ("batch", "preset", _STR, None),  # the base scenario: read first, never dumped
    ("batch", "runs", _INT, "runs"),
    ("batch", "seed", _INT, "seed"),
    ("batch", "dt", _FLOAT, "integrator.dt"),
    ("batch", "t_max", _FLOAT, "integrator.t_max"),
    ("batch", "g", _FLOAT, "integrator.g"),
    ("batch", "sample_interval", _FLOAT, "integrator.sample_interval"),
)
_ROWS = {(section, key): (kind, path) for section, key, kind, path in _KEYS}
_SECTIONS = {row[0] for row in _KEYS}


def _cast(section: str, key: str, kind: str, raw: str, source: str):
    try:
        if kind == _FLOAT:
            value = float(raw)
            if not math.isfinite(value):
                raise ValueError(f"not a finite number: {raw.strip()!r}")
            return value
        if kind == _INT:
            return int(raw, 10)
        if kind == _BOOL:
            lowered = raw.strip().lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if kind == _SITES:
            return _parse_sites(raw)
        return raw.strip()
    except ValueError as err:
        raise ConfigError(
            f"{source}: bad value for {key!r} in [{section}]: {err}"
        ) from err


def _parse_sites(text: str) -> tuple:
    body = text.strip()
    if not body:
        return ()
    sites = []
    for part in body.split(","):
        entry = part.strip()
        pos, sep, kind = entry.partition(":")
        try:
            x = float(pos)
        except ValueError as err:
            raise ValueError(f"bad site entry {entry!r}, want 'x:kind'") from err
        sites.append(InterceptorSite(x=x, kind=kind.strip() if sep else "type-1"))
    return tuple(sites)


def _fmt(kind: str, value) -> str:
    if kind == _SITES:
        return ", ".join(f"{site.x!r}:{site.kind}" for site in value)
    return _fmt_value(value)


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _get_path(obj, path: str):
    for name in path.split("."):
        obj = obj[int(name)] if name.isdigit() else getattr(obj, name)
    return obj


def _with_paths(obj, values: dict):
    """Return obj with each dotted path in values set.

    Values are grouped by their first segment and every level is rebuilt
    once, so a sub-config checks all its new fields together (dt and
    sample_interval, say) rather than one at a time.
    """
    if "" in values:  # the path ends here
        return values[""]
    groups = {}
    for path, value in values.items():
        head, _, rest = path.partition(".")
        groups.setdefault(head, {})[rest] = value
    if isinstance(obj, tuple):
        return tuple(
            _with_paths(item, groups[str(i)]) if str(i) in groups else item
            for i, item in enumerate(obj)
        )
    return dataclasses.replace(
        obj, **{head: _with_paths(getattr(obj, head), sub) for head, sub in groups.items()}
    )


def parse_scenario(path) -> Scenario:
    """Load and fully resolve a scenario file.

    Missing sections fall back to the preset named by [batch] preset
    (default x615), so an empty file yields that canonical descent.
    """
    cp = configparser.ConfigParser(interpolation=None)
    source = str(path)
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh, source=source)
    except OSError as err:
        raise ConfigError(f"cannot read scenario file: {err}") from err
    except configparser.Error as err:
        raise ConfigError(f"scenario parse error: {err}") from err
    if cp.defaults():  # its keys would leak into every section
        raise ConfigError(f"{source}: unknown section [{cp.default_section}]")
    values = {}
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"{source}: unknown section [{section}]")
        for key, raw in cp.items(section):
            if (section, key) not in _ROWS:
                raise ConfigError(f"{source}: unknown key {key!r} in [{section}]")
            kind, field_path = _ROWS[(section, key)]
            values[field_path] = _cast(section, key, kind, raw, source)
    return _with_paths(named_scenario(values.pop(None, DEFAULT_PRESET)), values)


def dump_scenario(scenario: Scenario) -> str:
    """Render a scenario in the file format parse_scenario reads.

    Writes every key the format exposes with its resolved value, so
    parsing the dump reproduces any scenario that came from a file.
    Fields outside the format (entry t/z/w/n, custom drag tables) are
    not representable and are dropped; a site is its x and kind.
    """
    cp = configparser.ConfigParser(interpolation=None)
    for section, key, kind, path in _KEYS:
        if not cp.has_section(section):
            cp.add_section(section)
        if path is not None:
            cp.set(section, key, _fmt(kind, _get_path(scenario, path)))
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


# --------------------------------------------------------------------------
# Output helpers


def _num(x) -> str:
    return repr(float(x))


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_manifest(out_dir, command, outputs, scenario=None, extra=None) -> str:
    manifest = {
        "tool": "reentrysim",
        "version": __version__,
        "command": command,
        "outputs": sorted(outputs),
        "seed": None if scenario is None else scenario.seed,
        "scenario": None if scenario is None else dataclasses.asdict(scenario),
    }
    if extra:
        manifest.update(extra)
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _run_row(scenario: Scenario, index: int, result) -> tuple:
    return (
        f"{scenario.seed}/{index}",  # root seed / substream index
        _num(result.landing_error),
        _num(result.navigation_time),
        "true" if result.intercepted else "false",
        _num(result.miss_distance),
    )


# --------------------------------------------------------------------------
# Subcommands


def cmd_fly(scenario: Scenario, out_dir: str) -> list:
    """Noise-free flight table: T, V, theta, X, H, U at the sampling cadence."""
    single = dataclasses.replace(scenario, noise=NoiseConfig(), sites=(), runs=1)
    flight = simulate_vehicle_run(
        single, sample_interval=scenario.integrator.sample_interval
    )
    if flight.failed is not None:
        raise BatchError(f"flight failed: {flight.failed}")
    rows = []
    for t, state, u in flight.samples:
        x, y, _z, v, theta, _w, _n = state
        rows.append(
            (f"{t:.4f}", f"{v:.4f}", f"{theta:.6f}", f"{x:.4f}", f"{y:.4f}", f"{u:.4f}")
        )
    _write_csv(os.path.join(out_dir, "trajectory.csv"),
               ("T", "V", "theta", "X", "H", "U"), rows)
    return ["trajectory.csv"]


def cmd_engage(scenario: Scenario, out_dir: str) -> list:
    """Single engagement run: outcome row plus the event log."""
    result = simulate_engagement(scenario)
    if result.failed is not None:
        raise BatchError(f"engagement failed: {result.failed}")
    _write_csv(os.path.join(out_dir, "engagement.csv"),
               ("seed", "error", "T_nav", "intercepted", "miss"),
               [_run_row(scenario, 0, result)])
    _write_csv(os.path.join(out_dir, "events.csv"),
               ("t", "event"),
               [(_num(t), label) for t, label in result.events])
    return ["engagement.csv", "events.csv"]


def cmd_batch(scenario: Scenario, out_dir: str, workers=None) -> list:
    """Monte Carlo batch: per-run records plus a summary block."""
    results = batch_run_results(scenario, workers=workers)
    stats = summarize(results)
    _write_csv(os.path.join(out_dir, "runs.csv"),
               ("seed", "error", "T_nav", "intercepted", "miss"),
               [_run_row(scenario, i, r) for i, r in enumerate(results)])
    _write_csv(os.path.join(out_dir, "summary.csv"),
               ("statistic", "value"),
               [(key, _fmt_value(value)) for key, value in dataclasses.asdict(stats).items()])
    return ["runs.csv", "summary.csv"]


def cmd_sweep(kind: str, scenario: Scenario, out_dir: str) -> list:
    """Sweep tables: landing error over range, or intercept rate over speed."""
    if kind == "error":
        rows = error_vs_navigation_sweep(scenario, PRESET_RANGES)
        name = "sweep_error.csv"
        _write_csv(os.path.join(out_dir, name),
                   ("X", "T_nav_mean", "max_error", "failed"),
                   [(_num(r.x), _num(r.nav_time), _num(r.max_error), r.failed or "")
                    for r in rows])
    else:
        rows = probability_vs_speed_sweep(scenario, SWEEP_SPEEDS)
        name = "sweep_speed.csv"
        _write_csv(os.path.join(out_dir, name),
                   ("V", "p_type1", "p_type1_stderr", "p_type2", "p_type2_stderr"),
                   [tuple(_num(v) for v in row) for row in rows])
    return [name]


def cmd_calibrate(kind: str, out_dir: str) -> list:
    """Fit an interceptor spec against its reference speed history."""
    result = calibrate_type1() if kind == "type1" else calibrate_type2()
    _write_csv(os.path.join(out_dir, "calibration.csv"),
               result._fields,
               [tuple(_num(v) for v in result)])
    print(f"{kind}: fitted {result.thrust:.1f}, "
          f"peak {result.v_peak:.1f} m/s at t = {result.t_peak:.2f} s")
    return ["calibration.csv"]


# --------------------------------------------------------------------------
# Argument handling


def _env(name: str, fallback=None):
    return os.environ.get(ENV_PREFIX + name, fallback)


def _env_number(name: str, cast):
    raw = _env(name)
    if raw is None:
        return None
    try:
        return cast(raw)
    except ValueError as err:
        raise ConfigError(f"bad {ENV_PREFIX}{name}: {err}") from err


def _add_common(parser: argparse.ArgumentParser) -> None:
    presets = "/".join(sorted(NAMED_PRESETS))
    parser.add_argument(
        "--scenario",
        default=_env("SCENARIO"),
        help=f"scenario file, or a built-in preset name ({presets}); "
             f"default {DEFAULT_PRESET}",
    )
    parser.add_argument("--seed", type=int, default=_env_number("SEED", int),
                        help="override the batch seed")
    parser.add_argument("--n", type=int, default=_env_number("N", int),
                        help="override the number of runs")
    parser.add_argument("--dt", type=float, default=_env_number("DT", float),
                        help="override the integration step (s)")
    parser.add_argument("--out", default=_env("OUT", "."),
                        help="output directory (created if missing)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reentrysim",
        description="Reentry flight, guidance and interception simulator.",
    )
    parser.add_argument("--version", action="version",
                        version=f"reentrysim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (
        ("fly", "noise-free trajectory table for the scenario"),
        ("engage", "one engagement run with the configured sites"),
        ("batch", "Monte Carlo batch with per-run records and summary"),
        ("dump", "print the fully resolved scenario file"),
    ):
        p = sub.add_parser(name, help=text)
        _add_common(p)
        if name == "batch":
            p.add_argument("--workers", type=int, default=None,
                           help="parallel worker processes")

    p = sub.add_parser("sweep", help="landing-error or intercept-rate sweep table")
    p.add_argument("kind", choices=("error", "speed"))
    _add_common(p)

    p = sub.add_parser("calibrate", help="fit an interceptor spec and report it")
    p.add_argument("kind", choices=("type1", "type2"))
    p.add_argument("--out", default=_env("OUT", "."),
                   help="output directory (created if missing)")
    return parser


def _load_scenario(args) -> Scenario:
    if args.scenario is None:
        scenario = named_scenario(DEFAULT_PRESET)
    elif args.scenario in NAMED_PRESETS:
        scenario = named_scenario(args.scenario)
    else:
        scenario = parse_scenario(args.scenario)
    flags = {"seed": args.seed, "runs": args.n, "integrator.dt": args.dt}
    return _with_paths(scenario, {p: v for p, v in flags.items() if v is not None})


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _dispatch(args) -> int:
    if args.command == "calibrate":
        out_dir = _ensure_out(args.out)
        outputs = cmd_calibrate(args.kind, out_dir)
        _write_manifest(out_dir, "calibrate", outputs, extra={"kind": args.kind})
        return 0

    scenario = _load_scenario(args)
    if args.command == "dump":
        sys.stdout.write(dump_scenario(scenario))
        return 0

    if args.command == "batch" and args.workers is not None and args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    out_dir = _ensure_out(args.out)
    if args.command == "fly":
        outputs = cmd_fly(scenario, out_dir)
    elif args.command == "engage":
        outputs = cmd_engage(scenario, out_dir)
    elif args.command == "batch":
        outputs = cmd_batch(scenario, out_dir, workers=args.workers)
    else:
        outputs = cmd_sweep(args.kind, scenario, out_dir)
        _write_manifest(out_dir, f"sweep {args.kind}", outputs, scenario)
        return 0
    _write_manifest(out_dir, args.command, outputs, scenario)
    return 0


def main(argv=None) -> int:
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        return _dispatch(args)
    except (ConfigError, DomainError, BatchError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
