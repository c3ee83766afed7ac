"""Benchmark harness for the experiment pipeline itself.

Measures the pipeline mechanics around the simulations: cold runs that must
record schedules, warm runs that must hit the on-disk cache (zero
re-records), and the process-pool fan-out path.  The cheap
record-once-replay-many experiment subset keeps these benches fast while
still covering every pipeline layer.
"""

from __future__ import annotations

import os

import pytest
from conftest import run_once

from repro.pipeline import run_pipeline

#: Cells that share one recorded schedule across four replay modes.
SUBSET = ["table1-priority", "ablation-edf", "ablation-omniscient"]


def test_pipeline_cold_run(benchmark, scale, tmp_path):
    """Cold pipeline run: records schedules into an empty on-disk cache."""
    summary = run_once(
        benchmark,
        run_pipeline,
        SUBSET,
        scale=scale,
        workers=1,
        cache_dir=str(tmp_path / "cache"),
    )
    benchmark.extra_info["cells"] = summary.cells
    benchmark.extra_info["records_computed"] = summary.records_computed
    assert summary.cells == 6
    # One scenario recorded once, shared by every replay mode; no entry
    # existed before the run, so nothing counts as a hit.
    assert summary.records_computed == 1
    assert summary.cache_hits == 0


def test_pipeline_warm_cache_run(benchmark, scale, tmp_path):
    """Warm pipeline run: every cell replays a cached schedule, zero re-records."""
    cache_dir = str(tmp_path / "cache")
    run_pipeline(SUBSET, scale=scale, workers=1, cache_dir=cache_dir)  # warm it
    summary = run_once(
        benchmark, run_pipeline, SUBSET, scale=scale, workers=1, cache_dir=cache_dir
    )
    benchmark.extra_info["records_computed"] = summary.records_computed
    assert summary.records_computed == 0
    assert summary.cache_hits == summary.cells


def test_pipeline_process_pool_run(benchmark, scale, tmp_path):
    """Fan the subset out across worker processes; rows must match serial."""
    cache_dir = str(tmp_path / "cache")
    serial = run_pipeline(SUBSET, scale=scale, workers=1, cache_dir=cache_dir)
    workers = min(4, max(2, os.cpu_count() or 2))
    summary = run_once(
        benchmark,
        run_pipeline,
        SUBSET,
        scale=scale,
        workers=workers,
        cache_dir=cache_dir,
    )
    benchmark.extra_info["workers"] = summary.workers
    for name in SUBSET:
        assert summary.results[name].rows == serial.results[name].rows
