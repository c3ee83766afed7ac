"""Per-layer tracing from outside the program.

``LayerTrace.install()`` wraps the public functions of each layer of the
``repro`` package and records one span per call (name, start, end, parent)
plus the counts the layer's work is measured in.  Nothing inside ``src/``
changes: a function is replaced in every loaded ``repro`` module that binds
it by name, which is where its callers look it up (``scale.py`` and
``heuristics.py`` import ``replay_schedule``/``schedule_statistics``/
``record_scenario_schedule`` by name, so patching only the defining module
would miss their calls).  Methods are replaced on their class.

``uninstall()`` restores every original binding.  Spans live in memory;
``metrics(wall_s)`` folds them into the per-layer numbers named in
``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Tuple

#: (layer name, start, end, parent span index or -1)
Span = Tuple[str, float, float, int]

#: Span names, one per layer.
RECORD = "sim.record"
SAVE = "pipeline.cache.save"
LOAD = "pipeline.cache.load"
REPLAY = "core.replay.replay"
FALLBACK = "core.replay.fallback"
COMPARE = "core.metrics.compare"
STATS = "core.metrics.stats"
BUILD = "pipeline.scenario.build"


def stored_bytes(path) -> int:
    """Bytes a cache entry occupies on disk (a manifest counts its shards)."""
    from repro.core.schedule import MANIFEST_SUFFIX, load_manifest

    path = os.fspath(path)
    total = os.path.getsize(path)
    if path.endswith(MANIFEST_SUFFIX):
        directory = os.path.dirname(path)
        for shard in load_manifest(path)["shards"]:
            total += os.path.getsize(os.path.join(directory, shard["file"]))
    return total


class LayerTrace:
    """Spans and counts for one traced ``run_pipeline`` call."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Spans
    # ------------------------------------------------------------------ #
    def _timed(self, name: str, call: Callable[[], object]):
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, self._stack[-1] if self._stack else -1))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return call()
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, self.spans[index][3])

    def _wrap(self, name: str, original: Callable, after=None) -> Callable:
        """A wrapper timing ``original`` as a ``name`` span.

        ``after(result, args, kwargs)`` runs outside the span and updates
        the layer's counts.
        """

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = self._timed(name, lambda: original(*args, **kwargs))
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #
    def _replace_function(self, original: Callable, wrapper: Callable) -> None:
        """Rebind ``original`` to ``wrapper`` in every loaded repro module."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attribute, original))
                    setattr(module, attribute, wrapper)

    def _replace_method(self, cls: type, attribute: str, wrapper: Callable) -> None:
        self._restore.append((cls, attribute, cls.__dict__[attribute]))
        setattr(cls, attribute, wrapper)

    def install(self) -> "LayerTrace":
        """Wrap every layer entry point; load the package first."""
        import repro.core.metrics as metrics
        import repro.core.replay as replay
        import repro.core.schedule as schedule
        from repro.pipeline.cache import ScheduleCache
        from repro.pipeline.experiment import default_registry
        from repro.pipeline.scenario import Scenario
        from repro.sim.backend import resolve_backend

        default_registry()  # import every experiment module before rebinding

        def recorded(result, args, kwargs):
            self.counts[RECORD + "_calls"] += 1
            self.counts[RECORD + "_packets"] += len(result)

        self._replace_function(
            replay.record_schedule, self._wrap(RECORD, replay.record_schedule, recorded)
        )

        def saved(result, args, kwargs):
            self.counts[SAVE + "_bytes"] += stored_bytes(args[0])

        for save in (schedule.save_schedule, schedule.save_schedule_sharded):
            self._replace_function(save, self._wrap(SAVE, save, saved))

        def loaded(result, args, kwargs):
            self.counts[LOAD + "_bytes"] += stored_bytes(args[0])

        self._replace_function(
            schedule.load_schedule, self._wrap(LOAD, schedule.load_schedule, loaded)
        )

        self._replace_function(
            replay.replay_schedule, self._replay_wrapper(replay.replay_schedule, resolve_backend)
        )

        self._replace_function(
            metrics.compare_schedules, self._wrap(COMPARE, metrics.compare_schedules)
        )
        self._replace_function(
            metrics.schedule_statistics, self._wrap(STATS, metrics.schedule_statistics)
        )
        for cls, name in (
            (metrics.StreamingReplayComparison, COMPARE),
            (metrics.StreamingScheduleStatistics, STATS),
        ):
            for attribute in ("__init__", "extend", "merge", "finalize"):
                self._replace_method(cls, attribute, self._wrap(name, cls.__dict__[attribute]))

        def built(result, args, kwargs):
            self.counts[BUILD + "s"] += 1

        for attribute in ("build_topology", "workload"):
            self._replace_method(
                Scenario, attribute, self._wrap(BUILD, Scenario.__dict__[attribute], built)
            )

        self._replace_method(
            ScheduleCache, "get_or_record", self._lookup_wrapper(ScheduleCache.get_or_record)
        )
        return self

    def uninstall(self) -> None:
        """Restore every binding ``install`` replaced."""
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()

    def _replay_wrapper(self, original: Callable, resolve_backend: Callable) -> Callable:
        """Time replays; split them by whether the chosen backend accepts them."""
        signature = inspect.signature(original)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            call = bound.arguments
            accepted = resolve_backend(call["backend"]).supports_replay(
                call["mode"],
                default_buffer_bytes=call["default_buffer_bytes"],
                initializer=call["initializer"],
                topology=call["topology"],
                faults=call["faults"],
            )
            name = REPLAY if accepted else FALLBACK
            result = self._timed(name, lambda: original(*args, **kwargs))
            self.counts[REPLAY + "_calls"] += 1
            self.counts[REPLAY + "_packets"] += len(call["schedule"])
            self.counts[REPLAY + "_accepted"] += int(accepted)
            return result

        return wrapper

    def _lookup_wrapper(self, original: Callable) -> Callable:
        """Count cache lookups, and the misses among them (recorder invoked)."""
        signature = inspect.signature(original)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            recorder = bound.arguments["recorder"]

            def counted_recorder():
                self.counts["cache_misses"] += 1
                return recorder()

            bound.arguments["recorder"] = counted_recorder
            self.counts["cache_lookups"] += 1
            return original(*bound.args, **bound.kwargs)

        return wrapper

    # ------------------------------------------------------------------ #
    # Folding spans into metrics
    # ------------------------------------------------------------------ #
    def layer_seconds(self) -> Dict[str, float]:
        """Inclusive seconds per span name, counting nested same-name spans once."""
        seconds: Counter = Counter()
        for name, start, end, parent in self.spans:
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                seconds[name] += end - start
        return seconds

    def root_seconds(self) -> float:
        """Seconds covered by spans with no enclosing layer span."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def metrics(self, wall_s: float) -> Dict[str, float]:
        """The per-layer metrics of one traced call of ``wall_s`` seconds."""
        seconds = self.layer_seconds()
        counts = self.counts
        replays = counts[REPLAY + "_calls"]
        lookups = counts["cache_lookups"]
        return {
            "sim.record_s": seconds[RECORD],
            "sim.record_calls": counts[RECORD + "_calls"],
            "sim.record_packets": counts[RECORD + "_packets"],
            "pipeline.cache.save_s": seconds[SAVE],
            "pipeline.cache.save_bytes": counts[SAVE + "_bytes"],
            "pipeline.cache.load_s": seconds[LOAD],
            "pipeline.cache.load_bytes": counts[LOAD + "_bytes"],
            "pipeline.cache.lookups": lookups,
            "pipeline.cache.misses": counts["cache_misses"],
            "pipeline.cache.hit_ratio": (
                (lookups - counts["cache_misses"]) / lookups if lookups else 0.0
            ),
            "core.replay.replay_s": seconds[REPLAY] + seconds[FALLBACK],
            "core.replay.replay_calls": replays,
            "core.replay.replay_packets": counts[REPLAY + "_packets"],
            "core.replay.flat_fraction": (
                counts[REPLAY + "_accepted"] / replays if replays else 0.0
            ),
            "core.replay.fallback_s": seconds[FALLBACK],
            "core.metrics.compare_s": seconds[COMPARE],
            "core.metrics.stats_s": seconds[STATS],
            "pipeline.scenario.build_s": seconds[BUILD],
            "pipeline.scenario.builds": counts[BUILD + "s"],
            "pipeline.runner.self_s": wall_s - self.root_seconds(),
        }

