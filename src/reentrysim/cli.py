"""Command-line front end: scenario files, run subcommands, CSV reports.

Scenario files are INI documents with sections [atmosphere], [vehicle],
[guidance], [interceptors], [noise] and [batch]; every key overrides one
field of the resolved scenario, and unknown sections or keys are rejected
with their location.  Each subcommand returns its tables by file name and
writes nothing; one dispatcher creates the output directory, writes the
tables, and writes one ``manifest.json`` recording the fully resolved
scenario, the tool version, the seed and the output names, so any run can
be reproduced byte for byte.  All angles are radians and decimals use '.'
throughout.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
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
from .errors import BatchError, ConfigError, DomainError, OutputError
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


def _fmt(value) -> str:
    if isinstance(value, tuple):  # interceptor sites
        return ", ".join(f"{site.x!r}:{site.kind}" for site in value)
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
    for section, key, _kind, path in _KEYS:
        if not cp.has_section(section):
            cp.add_section(section)
        if path is not None:
            cp.set(section, key, _fmt(_get_path(scenario, path)))
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


# --------------------------------------------------------------------------
# Output helpers


def _num(x) -> str:
    return repr(float(x))


@contextlib.contextmanager
def _reported():
    """An OS failure on the outputs is an OutputError."""
    try:
        yield
    except OSError as err:
        raise OutputError(f"cannot write outputs: {err}") from err


def _write_csv(path: str, header, rows) -> None:
    with _reported(), open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_manifest(args, outputs, scenario) -> str:
    """Write the run's manifest.json into --out and return its path."""
    manifest = {
        "tool": "reentrysim",
        "version": __version__,
        "command": f"sweep {args.kind}" if args.command == "sweep" else args.command,
        "outputs": sorted(outputs),
        "seed": None if scenario is None else scenario.seed,
        "scenario": None if scenario is None else dataclasses.asdict(scenario),
    }
    if args.command == "calibrate":
        manifest["kind"] = args.kind
    path = os.path.join(args.out, "manifest.json")
    with _reported(), open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


_RUN_HEADER = ("seed", "error", "T_nav", "intercepted", "miss")


def _run_row(scenario: Scenario, index: int, result) -> tuple:
    return (
        f"{scenario.seed}/{index}",  # root seed / substream index
        _num(result.landing_error),
        _num(result.navigation_time),
        "true" if result.intercepted else "false",
        _num(result.miss_distance),
    )


# --------------------------------------------------------------------------
# Subcommands: each takes the parsed arguments and the resolved scenario and
# returns its tables as {file name: (header, rows)}, in write order.


def cmd_fly(args, scenario: Scenario) -> dict:
    """Noise-free flight table: T, V, theta, X, H, U at the sampling cadence."""
    single = dataclasses.replace(scenario, noise=NoiseConfig(), sites=(), runs=1)
    flight = simulate_vehicle_run(single, sample_interval=scenario.integrator.sample_interval)
    if flight.failed is not None:
        raise BatchError(f"flight failed: {flight.failed}")
    rows = [(f"{t:.4f}", f"{v:.4f}", f"{theta:.6f}", f"{x:.4f}", f"{y:.4f}", f"{u:.4f}")
            for t, (x, y, _z, v, theta, _w, _n), u in flight.samples]
    return {"trajectory.csv": (("T", "V", "theta", "X", "H", "U"), rows)}


def cmd_engage(args, scenario: Scenario) -> dict:
    """Single engagement run: outcome row plus the event log."""
    result = simulate_engagement(scenario)
    if result.failed is not None:
        raise BatchError(f"engagement failed: {result.failed}")
    return {
        "engagement.csv": (_RUN_HEADER, [_run_row(scenario, 0, result)]),
        "events.csv": (("t", "event"), [(_num(t), label) for t, label in result.events]),
    }


def cmd_batch(args, scenario: Scenario) -> dict:
    """Monte Carlo batch: per-run records plus a summary block."""
    results = batch_run_results(scenario, workers=args.workers)
    stats = summarize(results)
    return {
        "runs.csv": (_RUN_HEADER, [_run_row(scenario, i, r) for i, r in enumerate(results)]),
        "summary.csv": (("statistic", "value"),
                        [(key, _fmt(value)) for key, value in dataclasses.asdict(stats).items()]),
    }


def cmd_sweep(args, scenario: Scenario) -> dict:
    """Sweep tables: landing error over range, or intercept rate over speed."""
    if args.kind == "error":
        rows = [(_num(r.x), _num(r.nav_time), _num(r.max_error), r.failed or "")
                for r in error_vs_navigation_sweep(scenario, PRESET_RANGES)]
        return {"sweep_error.csv": (("X", "T_nav_mean", "max_error", "failed"), rows)}
    rows = [tuple(map(_num, row)) for row in probability_vs_speed_sweep(scenario, SWEEP_SPEEDS)]
    return {"sweep_speed.csv": (("V", "p_type1", "p_type1_stderr", "p_type2", "p_type2_stderr"),
                                rows)}


def cmd_calibrate(args, scenario) -> dict:
    """Fit an interceptor spec against its reference speed history; no
    scenario is read (``scenario`` is None)."""
    result = calibrate_type1() if args.kind == "type1" else calibrate_type2()
    return {"calibration.csv": (result._fields, [tuple(_num(v) for v in result)])}


# --------------------------------------------------------------------------
# Argument handling


def _env(name: str, cast=str, fallback=None):
    """REENTRYSIM_<name> read through cast, or fallback when it is unset."""
    raw = os.environ.get(ENV_PREFIX + name)
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError as err:
        raise ConfigError(f"bad {ENV_PREFIX}{name}: {err}") from err


# One row per subcommand, in --help order: (name, command, help, choices of
# its positional kind).  dump has no command: it prints and writes nothing.
_SUBCOMMANDS = (
    ("fly", cmd_fly, "noise-free trajectory table for the scenario", None),
    ("engage", cmd_engage, "one engagement run with the configured sites", None),
    ("batch", cmd_batch, "Monte Carlo batch with per-run records and summary", None),
    ("dump", None, "print the fully resolved scenario file", None),
    ("sweep", cmd_sweep, "landing-error or intercept-rate sweep table", ("error", "speed")),
    ("calibrate", cmd_calibrate, "fit an interceptor spec and report it", ("type1", "type2")),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reentrysim",
        description="Reentry flight, guidance and interception simulator.",
    )
    parser.add_argument("--version", action="version",
                        version=f"reentrysim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    presets = "/".join(sorted(NAMED_PRESETS))
    for name, command, text, kinds in _SUBCOMMANDS:
        p = sub.add_parser(name, help=text)
        p.set_defaults(run=command)
        if kinds:
            p.add_argument("kind", choices=kinds)
        if name != "calibrate":  # calibrate fits the stock specs, no scenario
            p.add_argument(
                "--scenario",
                default=_env("SCENARIO", str, DEFAULT_PRESET),
                help=f"scenario file, or a built-in preset name ({presets}); "
                     f"default {DEFAULT_PRESET}",
            )
            for flag, cast, what in (("seed", int, "the batch seed"),
                                     ("n", int, "the number of runs"),
                                     ("dt", float, "the integration step (s)")):
                p.add_argument(f"--{flag}", type=cast, default=_env(flag.upper(), cast),
                               help=f"override {what}")
        p.add_argument("--out", default=_env("OUT", str, "."),
                       help="output directory (created if missing)")
        if name == "batch":
            p.add_argument("--workers", type=int, default=None,
                           help="parallel worker processes")
    return parser


def _load_scenario(args) -> Scenario:
    """The --scenario preset or file, with the --seed/--n/--dt overrides."""
    scenario = (named_scenario(args.scenario) if args.scenario in NAMED_PRESETS
                else parse_scenario(args.scenario))
    flags = {"seed": args.seed, "runs": args.n, "integrator.dt": args.dt}
    return _with_paths(scenario, {p: v for p, v in flags.items() if v is not None})


def _dispatch(args) -> int:
    """Run one subcommand, write its tables and the manifest into --out."""
    scenario = None if args.command == "calibrate" else _load_scenario(args)
    if args.command == "dump":
        sys.stdout.write(dump_scenario(scenario))
        return 0
    if args.command == "batch" and args.workers is not None and args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    with _reported():
        os.makedirs(args.out, exist_ok=True)
    tables = args.run(args, scenario)
    for name, (header, rows) in tables.items():
        _write_csv(os.path.join(args.out, name), header, rows)
    _write_manifest(args, tables, scenario)
    if args.command == "calibrate":  # reported once its table is on disk
        thrust, _, v_peak, t_peak, _ = map(float, tables["calibration.csv"][1][0])
        print(f"{args.kind}: fitted {thrust:.1f}, "
              f"peak {v_peak:.1f} m/s at t = {t_peak:.2f} s")
    return 0


def main(argv=None) -> int:
    try:
        return _dispatch(_build_parser().parse_args(argv))
    except (ConfigError, DomainError, BatchError, OutputError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
