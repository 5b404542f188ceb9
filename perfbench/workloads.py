"""The benchmark's four workloads, each built from a seed.

A workload builds its inputs once (import, scenario construction, cache
fill: what ``setup_s`` times), then runs passes over the same inputs.  A
pass is a list of units, each one thing a user waits for: one batch of a
sweep table, one ``batch`` command, or one single-shot command.  The
runner times each unit on its own.  ``outcome`` reduces a pass's unit
results to counts, a digest of every output byte and the values the
reference check compares; it runs outside the timed region.

Library calls go through module attributes (``engagement.batch_run_results``)
rather than names bound at import, so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import math
import os
import shutil
from dataclasses import dataclass, field, replace

from reentrysim import cli, engagement
from reentrysim.errors import BatchError
from reentrysim.presets import (
    CALIBRATED_NOISE,
    PRESET_RANGES,
    scenario_for_range,
    terminal_engagement_scenario,
)

DEFAULT_SEED = 11  # the criterion-8 seed; reference values are recorded at it

# Criterion-8 scenario: the x615 preset with the calibrated noise model.
NOISY_X615 = (
    "[batch]\npreset = x615\n\n[noise]\n"
    "seeker_angle_sigma = 0.01\n"
    "atmosphere_density_sigma = 0.03\n"
    "turbulence_sigma = 0.35\n"
)
# The defended x800 descent of the README, noise-free: two launches, no kill.
DEFENDED_X800 = (
    "[batch]\npreset = x800\n\n[interceptors]\n"
    "sites = 776900:type-1, 790000:type-2\nkill_radius = 25\n"
)


@dataclass
class Outcome:
    """One pass reduced for the checks."""

    ops: int
    failed: int
    digest: str
    values: dict
    files: dict = field(default_factory=dict)      # output bytes a check compares


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _run_batch(label, scenario) -> tuple:
    """Run and summarize one batch serially, as the sweeps do."""
    results = engagement.batch_run_results(scenario)
    try:
        stats = engagement.summarize(results)
    except BatchError:
        stats = None
    return label, results, stats


def _batch_units(labelled) -> list:
    return [functools.partial(_run_batch, label, scenario) for label, scenario in labelled]


def run_units(units) -> list:
    return [unit() for unit in units]


def _batches_outcome(done, fields) -> Outcome:
    return Outcome(
        ops=sum(len(results) for _, results, _ in done),
        failed=sum(r.failed is not None for _, results, _ in done for r in results),
        digest=_digest(done),
        values={
            label: None if stats is None else [getattr(stats, f) for f in fields]
            for label, _, stats in done
        },
    )


def _read_rows(path) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))[1:]


def _numbers(row) -> list:
    return [float(cell) for cell in row]


def _run_row(row) -> list:
    """A runs.csv/engagement.csv row without its seed column, which is the
    only seed-dependent cell."""
    _seed, error, nav, intercepted, miss = row
    return [float(error), float(nav), intercepted, float(miss)]


class ErrorSweep:
    """Vehicle-only calibrated-noise batches at all six preset ranges, serial."""

    name = "error-sweep"
    pass_is_command = True  # the table of one ``sweep error`` command
    runs = 2            # per range
    reference_runs = 1
    fields = ("nav_time_mean", "max_error", "cep", "mean_error")

    def __init__(self, seed: int, workdir: str):
        self.batches = self._batches(seed, self.runs)

    @staticmethod
    def _base(seed, runs):
        return replace(scenario_for_range(PRESET_RANGES[0]),
                       noise=CALIBRATED_NOISE, runs=runs, seed=seed)

    def _batches(self, seed, runs):
        base = self._base(seed, runs)
        return [(f"{x:.0f}", scenario_for_range(x, base=base)) for x in PRESET_RANGES]

    def units(self) -> list:
        return _batch_units(self.batches)

    def outcome(self, done) -> Outcome:
        return _batches_outcome(done, self.fields)

    def check(self, outcome: Outcome) -> list:
        problems = []
        for label, v in outcome.values.items():
            if v is None:
                problems.append(f"{label}: every run failed")
            elif not (v[0] > 0.0 and 0.0 <= v[1] < 1000.0):
                problems.append(f"{label}: implausible row nav={v[0]!r} max={v[1]!r}")
        return problems

    def reference(self):
        """Values at DEFAULT_SEED, and agreement with the library's sweep table."""
        values = self.outcome(run_units(_batch_units(self._batches(DEFAULT_SEED, self.reference_runs)))).values
        rows = engagement.error_vs_navigation_sweep(
            self._base(DEFAULT_SEED, self.reference_runs), PRESET_RANGES
        )
        problems = [
            f"{row.x:.0f}: error_vs_navigation_sweep row differs from the batch"
            for row in rows
            if [row.nav_time, row.max_error] != values[f"{row.x:.0f}"][:2]
        ]
        return values, problems


class EngageSweep:
    """Ten speed-sweep batches (both interceptor types) plus the evading batch, serial."""

    name = "engage-sweep"
    pass_is_command = True  # the table of one ``sweep speed`` command, plus the evading batch
    runs = 8            # per batch
    reference_runs = 2
    fields = ("n", "p_intercept", "p_stderr", "nav_time_mean", "launches")

    def __init__(self, seed: int, workdir: str):
        self.batches = self._batches(seed, self.runs)
        # one run per batch fills the launch-planning caches, as in a warm process
        for _, scenario in self.batches:
            engagement.simulate_engagement(scenario)

    @staticmethod
    def _base(seed, runs):
        return replace(scenario_for_range(615_000), noise=CALIBRATED_NOISE, runs=runs, seed=seed)

    def _batches(self, seed, runs):
        base = self._base(seed, runs)
        out = [
            (f"{v:.0f}:{kind}", terminal_engagement_scenario(v, kind, base=base))
            for v in cli.SWEEP_SPEEDS
            for kind in ("type-1", "type-2")
        ]
        evading = replace(
            terminal_engagement_scenario(2000.0, "type-1", evasion_enabled=True),
            noise=CALIBRATED_NOISE, runs=runs, seed=seed,
        )
        out.append(("2000:type-1:evading", evading))
        return out

    def units(self) -> list:
        return _batch_units(self.batches)

    def outcome(self, done) -> Outcome:
        return _batches_outcome(done, self.fields)

    def check(self, outcome: Outcome) -> list:
        problems = []
        for label, v in outcome.values.items():
            if v is None:
                problems.append(f"{label}: every run failed")
                continue
            n, p, stderr = v[:3]
            if not (0.0 <= p <= 1.0 and math.isclose(
                    stderr, math.sqrt(p * (1.0 - p) / n), abs_tol=1e-12)):
                problems.append(f"{label}: implausible p={p!r} stderr={stderr!r}")
        return problems

    def reference(self):
        values = self.outcome(run_units(_batch_units(self._batches(DEFAULT_SEED, self.reference_runs)))).values
        rows = engagement.probability_vs_speed_sweep(
            self._base(DEFAULT_SEED, self.reference_runs), cli.SWEEP_SPEEDS
        )
        problems = [
            f"{row.v:.0f}: probability_vs_speed_sweep row differs from the batches"
            for row in rows
            if [row.p_type1, row.p_type1_stderr, row.p_type2, row.p_type2_stderr]
            != values[f"{row.v:.0f}:type-1"][1:3] + values[f"{row.v:.0f}:type-2"][1:3]
        ]
        return values, problems


class CliBatch:
    """``reentrysim batch --workers 2`` through cli.main on the criterion-8 scenario."""

    name = "cli-batch"
    runs = 12
    workers = 2
    parallel = 2        # cores the timed units keep busy
    reference_runs = 4
    outputs = ("runs.csv", "summary.csv", "manifest.json")

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.scenario_file = os.path.join(workdir, "noisy_x615.ini")
        with open(self.scenario_file, "w", encoding="utf-8") as fh:
            fh.write(NOISY_X615)
        cli.parse_scenario(self.scenario_file)  # each command parses it again
        self._passes = 0

    def _batch(self, out, runs, seed, workers) -> int:
        return cli.main([
            "batch", "--scenario", self.scenario_file, "--n", str(runs),
            "--seed", str(seed), "--workers", str(workers), "--out", out,
        ])

    def _command(self):
        self._passes += 1
        out = os.path.join(self.workdir, f"pass-{self._passes}")
        return self._batch(out, self.runs, self.seed, self.workers), out

    def units(self) -> list:
        return [self._command]

    def outcome(self, done) -> Outcome:
        (rc, out), = done
        files = {}
        for name in self.outputs:
            path = os.path.join(out, name)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    files[name] = fh.read()
        values = {}
        failed = self.runs
        if rc == 0:
            summary = {k: v for k, v in _read_rows(os.path.join(out, "summary.csv"))}
            failed = int(summary["failures"])
            values = {
                "summary": {k: float(v) for k, v in summary.items()},
                "runs": [_run_row(row) for row in _read_rows(os.path.join(out, "runs.csv"))],
            }
        shutil.rmtree(out, ignore_errors=True)
        return Outcome(self.runs, failed, _digest(rc, *files.values()), values, files=files)

    def check(self, outcome: Outcome) -> list:
        """Criterion 8: ``--workers 1`` writes the same runs.csv and summary.csv bytes."""
        if not outcome.values:
            return ["batch command failed"]
        out = os.path.join(self.workdir, "serial")
        serial = self.outcome([(self._batch(out, self.runs, self.seed, 1), out)])
        return [
            f"{name}: --workers {self.workers} differs from --workers 1"
            for name in ("runs.csv", "summary.csv")
            if serial.files.get(name) != outcome.files.get(name)
        ]

    def reference(self):
        out = os.path.join(self.workdir, "reference")
        return self.outcome([(self._batch(out, self.reference_runs, DEFAULT_SEED, 1), out)]).values, []


class SingleShot:
    """A cycle of fly x615/x800/x950, one noise-free engage and calibrate type2,
    each through cli.main with cold launch-planning caches."""

    name = "single-shot"
    outputs = {
        "fly": ("trajectory.csv",),
        "engage": ("engagement.csv", "events.csv"),
        "calibrate": ("calibration.csv",),
    }

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        scenario_file = os.path.join(workdir, "defended_x800.ini")
        with open(scenario_file, "w", encoding="utf-8") as fh:
            fh.write(DEFENDED_X800)
        seed_args = ["--seed", str(seed)]
        self.commands = [
            *((f"fly-{p}", ["fly", "--scenario", p, *seed_args]) for p in ("x615", "x800", "x950")),
            ("engage", ["engage", "--scenario", scenario_file, *seed_args]),
            ("calibrate-type2", ["calibrate", "type2"]),
        ]

    def _command(self, label, argv) -> tuple:
        _cold_caches()
        out = os.path.join(self.workdir, label)
        with contextlib.redirect_stdout(io.StringIO()) as text:
            rc = cli.main(argv + ["--out", out])
        return label, argv[0], rc, out, text.getvalue()

    def units(self) -> list:
        return [functools.partial(self._command, label, argv) for label, argv in self.commands]

    def outcome(self, done) -> Outcome:
        values, blobs = {}, []
        for label, command, rc, out, text in done:
            blobs += [label, rc, text]
            for name in sorted(os.listdir(out)) if os.path.isdir(out) else ():
                with open(os.path.join(out, name), "rb") as fh:
                    blobs += [name, fh.read()]
            if rc == 0:
                tables = {name: _read_rows(os.path.join(out, name))
                          for name in self.outputs[command]}
            shutil.rmtree(out, ignore_errors=True)
            if rc != 0:
                values[label] = None
            elif command == "engage":
                values[label] = {"run": _run_row(tables["engagement.csv"][0]),
                                 "events": tables["events.csv"]}
            else:
                values[label] = [_numbers(row) for row in tables[self.outputs[command][0]]]
        return Outcome(
            ops=len(done),
            failed=sum(rc != 0 for _, _, rc, _, _ in done),
            digest=_digest(*blobs),
            values=values,
        )

    def check(self, outcome: Outcome) -> list:
        return [f"{label}: command failed" for label, v in outcome.values.items() if v is None]

    def reference(self):
        # no output but the seed column depends on the seed, so any seed compares
        return self.outcome(run_units(self.units())).values, []


def _cold_caches() -> None:
    """Empty the launch-planning caches, as a fresh ``reentrysim`` process has them."""
    for name in ("_nominal_track", "_reach_table"):
        cached = getattr(engagement, name, None)
        if cached is not None:
            cached.cache_clear()


WORKLOADS = {w.name: w for w in (ErrorSweep, EngageSweep, CliBatch, SingleShot)}
