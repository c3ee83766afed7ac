"""One repetition of a benchmark workload, in a fresh process.

``run.py`` starts this script once per timed call, so every call pays its
own imports and backend resolution (``setup_s``) and ``ru_maxrss`` is the
peak of that call alone.  The script prints one JSON object as its last
line of standard output:

    setup_s      spawn (``--spawned-at``, the parent's clock) to ready
    wall_s       the timed ``run_pipeline`` call
    cells, errors, digests, input_packets, rss_self_kib, rss_children_kib,
    backend, build_info, and with ``--trace 1`` the per-layer ``layers``.

Usage (normally driven by ``run.py``):

    PYTHONPATH=src python3 perfbench/rep.py --experiments table1 \
        --workers 1 --seed 1 --cache-dir DIR --trace 0 --spawned-at T
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time


def rows_digest(rows) -> str:
    """Canonical-JSON sha256[:16] of an experiment's rows.

    The same digest ``BENCH_PR*.json`` payloads carry, so pinned values stay
    comparable with them.
    """
    blob = json.dumps(list(rows), sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def cached_input_packets(cache_dir: str) -> int:
    """Packets in every recorded schedule stored under ``cache_dir``.

    Read from entry headers after the timed call: the workload's input size,
    counted from outside the run.
    """
    from repro.core.schedule import MANIFEST_SUFFIX, stored_schedule_packets

    total = 0
    for directory, _, files in os.walk(cache_dir):
        for name in files:
            single = name.endswith(".jsonl.gz") and ".shard-" not in name
            if single or name.endswith(MANIFEST_SUFFIX):
                total += stored_schedule_packets(os.path.join(directory, name))
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--experiments", required=True, help="comma-separated names")
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    from dataclasses import replace

    from repro.experiments.config import ExperimentScale
    from repro.pipeline.experiment import default_registry
    from repro.pipeline.runner import run_pipeline
    from repro.sim.backend import available_backend_names, get_backend

    default_registry()
    backend = available_backend_names("lstf")[-1]
    build_info = get_backend(backend).build_info()
    scale = replace(ExperimentScale.quick(), seed=args.seed)
    trace = None
    if args.trace:
        from layers import LayerTrace

        trace = LayerTrace().install()
    setup_s = time.time() - args.spawned_at

    start = time.perf_counter()
    summary = run_pipeline(
        args.experiments.split(","),
        scale=scale,
        workers=args.workers,
        cache_dir=args.cache_dir,
        backend=backend,
    )
    wall_s = time.perf_counter() - start

    if trace is not None:
        trace.uninstall()
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cells": summary.cells,
        "errors": [f"{e.cell_id}: {e.error_type}: {e.message}" for e in summary.errors],
        "digests": {name: rows_digest(r.rows) for name, r in summary.results.items()},
        "input_packets": cached_input_packets(args.cache_dir),
        "rss_self_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rss_children_kib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "backend": backend,
        "build_info": build_info,
        "layers": trace.metrics(wall_s) if trace is not None else None,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
