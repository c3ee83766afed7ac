"""Checks that the per-layer trace is complete and changes no result.

Run from the repository root (about 15 s at quick scale):

    python3 perfbench/selftest.py

For a serial cold run of each workload's experiments, and a warm rerun of
Table 1, it checks:

* ``sim.record_calls`` equals the misses counted at the cache boundary and
  the entries found on disk afterwards;
* ``core.replay.replay_calls`` equals the cells whose rows carry replay
  results;
* the traced rows digests equal the pinned ones (tracing changes nothing);
* every layer wrapper was bound where callers look the function up, and
  ``uninstall`` restores the originals.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import time
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from layers import LayerTrace  # noqa: E402
from rep import rows_digest  # noqa: E402
from run import PINNED_DIGESTS, PINNED_SEED, WORK  # noqa: E402


def replay_rows(name: str, rows) -> int:
    """Rows that report a replay, identified from the row contents alone."""
    if name in ("table1", "faults"):
        return sum(1 for row in rows if "replay_mode" in row)
    if name == "heuristics":
        return sum(1 for row in rows if row["fraction_overdue"] is not None)
    if name == "scale":
        return sum(1 for row in rows if row["mode"] != "stats")
    raise KeyError(name)


def largest_spans(metrics, top: int):
    """The ``top`` largest timed layers (``*_s``, excluding derived ones)."""
    derived = ("pipeline.runner.self_s", "core.replay.fallback_s")
    timed = [name for name in metrics if name.endswith("_s") and name not in derived]
    return sorted(timed, key=metrics.get, reverse=True)[:top]


def disk_entries(cache_dir: str) -> int:
    from repro.pipeline.cache import ScheduleCache

    return ScheduleCache(cache_dir).disk_entries()


def traced_run(names, cache_dir):
    from repro.experiments.config import ExperimentScale
    from repro.pipeline.runner import run_pipeline
    from repro.sim.backend import available_backend_names

    trace = LayerTrace().install()
    start = time.perf_counter()
    try:
        summary = run_pipeline(
            names,
            scale=replace(ExperimentScale.quick(), seed=PINNED_SEED),
            workers=1,
            cache_dir=cache_dir,
            backend=available_backend_names("lstf")[-1],
        )
    finally:
        trace.uninstall()
    return summary, trace.metrics(time.perf_counter() - start)


def check_run(names, cache_dir, warm: bool):
    summary, metrics = traced_run(names, cache_dir)
    label = f"{'+'.join(names)} ({'warm' if warm else 'cold'})"
    assert not summary.errors, (label, summary.errors)
    for name, result in summary.results.items():
        assert rows_digest(result.rows) == PINNED_DIGESTS[name], (label, name)
    misses = metrics["pipeline.cache.misses"]
    assert metrics["sim.record_calls"] == misses, (label, metrics["sim.record_calls"], misses)
    if warm:
        assert misses == 0 and metrics["pipeline.cache.hit_ratio"] == 1.0, label
    else:
        assert misses == disk_entries(cache_dir), (label, misses, disk_entries(cache_dir))
    replays = sum(replay_rows(name, r.rows) for name, r in summary.results.items())
    assert metrics["core.replay.replay_calls"] == replays, (
        label,
        metrics["core.replay.replay_calls"],
        replays,
    )
    print(f"ok  {label}: {metrics['sim.record_calls']} recordings, {replays} replays")
    return metrics


def check_restored() -> None:
    import repro.core.metrics as metrics
    import repro.core.replay as replay
    import repro.experiments.heuristics as heuristics
    import repro.experiments.scale as scale
    import repro.pipeline.experiment as experiment

    trace = LayerTrace().install()
    patched = {
        "scale.replay_schedule": scale.replay_schedule,
        "heuristics.schedule_statistics": heuristics.schedule_statistics,
        "experiment.record_schedule": experiment.record_schedule,
    }
    trace.uninstall()
    for where, bound in patched.items():
        assert hasattr(bound, "__wrapped__"), f"{where} was not wrapped"
    assert scale.replay_schedule is replay.replay_schedule
    assert heuristics.schedule_statistics is metrics.schedule_statistics
    assert experiment.record_schedule is replay.record_schedule
    assert not hasattr(replay.replay_schedule, "__wrapped__")
    print("ok  wrappers bound by name in callers and restored")


def main() -> int:
    check_restored()
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=WORK)
    try:
        table1 = os.path.join(work, "table1")
        cold = check_run(["table1"], table1, warm=False)
        warm = check_run(["table1"], table1, warm=True)
        mixed = check_run(["faults", "heuristics", "scale"], os.path.join(work, "mixed"), warm=False)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not os.listdir(WORK):
            os.rmdir(WORK)
    # The split the workloads exist to isolate (README.md, "Workloads").
    assert largest_spans(cold, 2) == ["sim.record_s", "pipeline.cache.save_s"], cold
    assert set(largest_spans(warm, 2)) == {"pipeline.cache.load_s", "core.replay.replay_s"}, warm
    assert mixed["core.replay.flat_fraction"] < 1.0, mixed
    print("ok  cold: record > save > rest; warm: load and replay lead; mixed: fallbacks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
