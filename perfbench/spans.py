"""Spans and counters at reentrysim's layer boundaries, recorded from outside.

``Tracer.install()`` replaces module and class attributes with timing
wrappers at the names the callers look up: ``engagement`` imports
``rk4_step`` and the RHS factories by name, so the wrappers go on
``engagement.rk4_step`` and ``engagement.make_vehicle_rhs``, and the
wrapped factories return timed closures.  ``uninstall()`` puts the
originals back.  No file of the package changes.

A span's parent is the span open when it started, and its self time is
its duration minus the durations of its child spans.  Spans are folded
into per-name totals (calls, time, self time) as they close; run spans
also keep their durations for percentiles.

Pool workers forked while tracing inherit the wrappers.  A worker writes
its totals to the spool directory after every run it finishes, and
``collect_workers()`` merges them into the parent's, so the runs of a
``batch --workers 2`` command are traced inside the workers.  Under the
``spawn`` start method workers import fresh modules, and only the
parent-side spans (batch, summarize, writes) are seen.

A boundary that no longer exists is listed in ``missing`` and every
metric that depends on it reads None, never zero.
"""

from __future__ import annotations

import functools
import glob
import importlib
import json
import os
import pickle
import statistics
import time
from collections import Counter

# (module, class or None, attribute, span, wrapper kind).  Private names are
# the only boundary around their work: _VehicleControl.__call__ (the guidance
# law's hot path), _Missile.pn_command (PN), _bisect (calibration solver) and
# the CLI's _write_csv/_write_manifest.
BOUNDARIES = (
    ("reentrysim.engagement", None, "rk4_step", "dynamics.rk4_step", "rk4"),
    ("reentrysim.interceptor", None, "rk4_step", "dynamics.rk4_step", "rk4_profile"),
    ("reentrysim.engagement", None, "make_vehicle_rhs", "dynamics.rhs", "rhs_vehicle"),
    ("reentrysim.engagement", None, "make_interceptor_rhs", "dynamics.rhs", "rhs_interceptor"),
    ("reentrysim.engagement", "_VehicleControl", "__call__", "guidance.control", "span"),
    ("reentrysim.guidance", "EvasionController", "command", "guidance.evasion", "span"),
    ("reentrysim.engagement", "GaussianStream", "gaussian", "engagement.gaussian", "span"),
    ("reentrysim.engagement", "GaussianStream", "substream", "engagement.substream", "span"),
    ("reentrysim.engagement", None, "simulate_vehicle_run", "engagement.run", "run"),
    ("reentrysim.engagement", None, "simulate_engagement", "engagement.run", "run"),
    ("reentrysim.cli", None, "simulate_vehicle_run", "engagement.run", "run"),
    ("reentrysim.cli", None, "simulate_engagement", "engagement.run", "run"),
    ("reentrysim.engagement", None, "batch_run_results", "engagement.batch", "batch"),
    ("reentrysim.cli", None, "batch_run_results", "engagement.batch", "batch"),
    ("reentrysim.engagement", None, "summarize", "engagement.summarize", "span"),
    ("reentrysim.cli", None, "summarize", "engagement.summarize", "span"),
    ("reentrysim.engagement", "_Missile", "pn_command", "interceptor.pn", "span"),
    ("reentrysim.engagement", None, "launch_decision", "interceptor.launch_decision", "span"),
    ("reentrysim.interceptor", None, "pinned_pitch_profile",
     "interceptor.pinned_pitch_profile", "span"),
    ("reentrysim.interceptor", None, "_bisect", "interceptor.bisect", "bisect"),
    ("reentrysim.atmosphere", "AtmosphereModel", "density", "atmosphere", "span"),
    ("reentrysim.atmosphere", "AtmosphereModel", "speed_of_sound", "atmosphere", "span"),
    ("reentrysim.atmosphere", "AtmosphereModel", "mach", "atmosphere", "span"),
    ("reentrysim.aero", "DragModel", "cx", "aero.cx", "span"),
    ("reentrysim.cli", None, "parse_scenario", "cli.parse_scenario", "span"),
    ("reentrysim.cli", None, "_write_csv", "cli.write", "write"),
    ("reentrysim.cli", None, "_write_manifest", "cli.write", "write"),
)

# launch-planning lru_caches read through cache_info()
CACHES = ("_nominal_track", "_reach_table")


def percentile(values, q: int) -> float:
    """Inclusive q-th percentile; 0.0 for no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Tracer:
    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        self.stats = {}            # span -> [calls, seconds, self seconds]
        self.stack = []            # open spans: [seconds covered by child spans]
        self.counters = Counter()
        self.run_durations = []
        self.batches = []          # (workers, seconds) per batch
        self.missing = []          # boundaries that no longer exist
        self._missing_spans = set()
        self._undo = []
        self._cache_start = {}
        self._cache_delta = Counter()
        self._active = False
        self._in_worker = False
        os.register_at_fork(after_in_child=self._forked)

    # -- wrappers -----------------------------------------------------------

    def _timed(self, span, fn, after=None):
        stat = self.stats.setdefault(span, [0, 0.0, 0.0])
        stack = self.stack
        clock = time.perf_counter

        def timed(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
            if after is not None:
                after(args, kwargs, result, duration)
            return result

        return timed

    def _wrap_span(self, span, fn):
        return self._timed(span, fn)

    def _wrap_rk4(self, span, fn):
        timed = self._timed(span, fn)
        counters = self.counters

        def rk4_step(rhs, t, y, u, dt):
            counters["interceptor_steps" if getattr(rhs, "interceptor", False)
                     else "vehicle_steps"] += 1
            return timed(rhs, t, y, u, dt)

        return rk4_step

    def _wrap_rk4_profile(self, span, fn):
        # pinned_pitch_profile builds its RHS locally, so it is timed per step
        timed = self._timed(span, fn)
        counters = self.counters

        def rk4_step(rhs, t, y, u, dt):
            counters["interceptor_steps"] += 1
            return timed(self._timed("dynamics.rhs", rhs), t, y, u, dt)

        return rk4_step

    def _rhs_factory(self, span, fn, interceptor):
        def make_rhs(*args, **kwargs):
            rhs = self._timed(span, fn(*args, **kwargs))
            rhs.interceptor = interceptor
            return rhs

        return make_rhs

    def _wrap_rhs_vehicle(self, span, fn):
        return self._rhs_factory(span, fn, False)

    def _wrap_rhs_interceptor(self, span, fn):
        return self._rhs_factory(span, fn, True)

    def _wrap_run(self, span, fn):
        def after(_args, _kwargs, _result, duration):
            self.run_durations.append(duration)
            if self._in_worker:
                self._spool()

        return self._timed(span, fn, after)

    def _wrap_batch(self, span, fn):
        def after(args, kwargs, results, duration):
            workers = kwargs.get("workers", args[1] if len(args) > 1 else None)
            used = workers if workers is not None and workers > 1 and len(results) > 1 else 1
            self.batches.append((used, duration))
            self.counters["batch_results"] += len(results)
            self.counters["result_bytes"] += sum(len(pickle.dumps(r)) for r in results)

        return self._timed(span, fn, after)

    def _wrap_bisect(self, span, fn):
        counters = self.counters

        def bisect(f, *args, **kwargs):
            def counted(x):
                counters["bisect_evaluations"] += 1
                return f(x)

            return fn(counted, *args, **kwargs)

        return bisect

    def _wrap_write(self, span, fn):
        def after(args, _kwargs, result, _duration):
            # _write_csv(path, ...) returns None; _write_manifest returns its path
            self.counters["write_bytes"] += os.path.getsize(result or args[0])

        return self._timed(span, fn, after)

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        from reentrysim import engagement

        for module_name, class_name, attr, span, kind in BOUNDARIES:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(".".join(filter(None, (module_name, class_name, attr))))
                self._missing_spans.add(span)
                continue
            wrapper = getattr(self, f"_wrap_{kind}")(span, original)
            functools.update_wrapper(wrapper, original)
            setattr(owner, attr, wrapper)
            self._undo.append((owner, attr, original))
        for name in CACHES:
            cached = getattr(engagement, name, None)
            if cached is None:
                self.missing.append(f"reentrysim.engagement.{name}")
                self._missing_spans.add("engagement.cache")
            else:
                self._cache_start[name] = cached.cache_info()
        self._active = True

    def uninstall(self) -> None:
        from reentrysim import engagement

        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        for name, start in self._cache_start.items():
            info = getattr(engagement, name).cache_info()
            self._cache_delta["hits"] += info.hits - start.hits
            self._cache_delta["misses"] += info.misses - start.misses
        self._active = False

    # -- pool workers ---------------------------------------------------------

    def _forked(self) -> None:
        if not self._active:
            return
        self._in_worker = True
        self.stack.clear()
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        self.counters.clear()
        self.run_durations.clear()
        self.batches.clear()

    def _spool(self) -> None:
        path = os.path.join(self.spool_dir, f"worker-{os.getpid()}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as fh:
            json.dump({"stats": self.stats, "counters": self.counters,
                       "runs": self.run_durations}, fh)
        os.replace(path + ".tmp", path)

    def collect_workers(self) -> None:
        """Merge the workers' spool files into these totals, and remove them."""
        paths = glob.glob(os.path.join(self.spool_dir, "worker-*.json"))
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                spooled = json.load(fh)
            os.remove(path)
            for span, (calls, total, own) in spooled["stats"].items():
                stat = self.stats.setdefault(span, [0, 0.0, 0.0])
                stat[0] += calls
                stat[1] += total
                stat[2] += own
            self.counters.update(spooled["counters"])
            self.run_durations.extend(spooled["runs"])

    # -- metrics ----------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of everything traced since install()."""

        def calls(span):
            return self.stats.get(span, [0, 0.0, 0.0])[0]

        def self_time(span, scale):
            n, _total, own = self.stats.get(span, [0, 0.0, 0.0])
            return own / n * scale if n else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counters
        runs = self.run_durations
        rk4_calls = calls("dynamics.rk4_step")
        batch_capacity = sum(workers * seconds for workers, seconds in self.batches)
        hits = self._cache_delta["hits"]
        lookups = hits + self._cache_delta["misses"]
        table = {
            "dynamics.rk4_step.calls": ("dynamics.rk4_step", rk4_calls),
            "dynamics.rk4_step.self_us": ("dynamics.rk4_step", self_time("dynamics.rk4_step", 1e6)),
            "dynamics.rhs.calls": ("dynamics.rhs", calls("dynamics.rhs")),
            "dynamics.rhs.self_us": ("dynamics.rhs", self_time("dynamics.rhs", 1e6)),
            "dynamics.rhs_per_step": ("dynamics.rhs", ratio(calls("dynamics.rhs"), rk4_calls)),
            "dynamics.steps_per_run": ("engagement.run", ratio(c["vehicle_steps"], len(runs))),
            "guidance.control.calls": ("guidance.control", calls("guidance.control")),
            "guidance.control.self_us": ("guidance.control", self_time("guidance.control", 1e6)),
            "guidance.evasion.calls": ("guidance.evasion", calls("guidance.evasion")),
            "guidance.evasion.self_us": ("guidance.evasion", self_time("guidance.evasion", 1e6)),
            "engagement.gaussian.calls": ("engagement.gaussian", calls("engagement.gaussian")),
            "engagement.gaussian.self_us": ("engagement.gaussian",
                                            self_time("engagement.gaussian", 1e6)),
            "engagement.gaussian.per_step": ("engagement.gaussian",
                                             ratio(calls("engagement.gaussian"), c["vehicle_steps"])),
            "engagement.substream.calls": ("engagement.substream", calls("engagement.substream")),
            "engagement.substream.self_us": ("engagement.substream",
                                             self_time("engagement.substream", 1e6)),
            "engagement.run.self_ms": ("engagement.run", self_time("engagement.run", 1e3)),
            "engagement.run.p50_ms": ("engagement.run", percentile(runs, 50) * 1e3),
            "engagement.run.p90_ms": ("engagement.run", percentile(runs, 90) * 1e3),
            "engagement.summarize.self_ms": ("engagement.summarize",
                                             self_time("engagement.summarize", 1e3)),
            "engagement.cache.hit_ratio": ("engagement.cache", ratio(hits, lookups)),
            "engagement.pool.efficiency": ("engagement.batch", ratio(sum(runs), batch_capacity)),
            "engagement.pool.result_bytes_per_run": ("engagement.batch",
                                                     ratio(c["result_bytes"], c["batch_results"])),
            "interceptor.rk4_steps": ("dynamics.rk4_step", c["interceptor_steps"]),
            "interceptor.pn.calls": ("interceptor.pn", calls("interceptor.pn")),
            "interceptor.pn.self_us": ("interceptor.pn", self_time("interceptor.pn", 1e6)),
            "interceptor.launch_decision.calls": ("interceptor.launch_decision",
                                                  calls("interceptor.launch_decision")),
            "interceptor.launch_decision.self_ms": ("interceptor.launch_decision",
                                                    self_time("interceptor.launch_decision", 1e3)),
            "interceptor.pinned_pitch_profile.calls": ("interceptor.pinned_pitch_profile",
                                                       calls("interceptor.pinned_pitch_profile")),
            "interceptor.pinned_pitch_profile.self_ms": (
                "interceptor.pinned_pitch_profile",
                self_time("interceptor.pinned_pitch_profile", 1e3)),
            "interceptor.bisect.iterations": ("interceptor.bisect", c["bisect_evaluations"]),
            "atmosphere.calls": ("atmosphere", calls("atmosphere")),
            "atmosphere.self_us": ("atmosphere", self_time("atmosphere", 1e6)),
            "aero.cx.calls": ("aero.cx", calls("aero.cx")),
            "aero.cx.self_us": ("aero.cx", self_time("aero.cx", 1e6)),
            "cli.parse_scenario.self_ms": ("cli.parse_scenario",
                                           self_time("cli.parse_scenario", 1e3)),
            "cli.write.self_ms": ("cli.write", self_time("cli.write", 1e3)),
            "cli.write.bytes": ("cli.write", c["write_bytes"]),
        }
        return {
            name: None if span in self._missing_spans else value
            for name, (span, value) in table.items()
        }
