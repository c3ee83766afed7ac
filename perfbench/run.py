"""The repository benchmark: a warm Table-1 rerun and a mixed parallel run.

Usage, from the repository root:

    python3 perfbench/run.py --workload table1-warm --seed 1 --seconds 50 --trace 0

Each workload calls the public ``repro.pipeline.runner.run_pipeline`` entry
point at ``ExperimentScale.quick()`` on the most optimized replay backend
available here (``available_backend_names("lstf")[-1]``).  Every timed call
runs in a fresh process (``rep.py``); calls repeat until ``--seconds`` have
passed, cycling through the workload's seeds ``--seed + i * 1000``
(``Workload.seeds`` of them), so one run spreads over several inputs and
repeats most.  A metric's value is its median over every call of the
run.  On ``table1-warm`` a cold call fills each seed's cache before the
measuring window; the warm calls only read it, and the fill counts in
``setup_s``.  The gated throughput, ``calibrated_pkts_per_s``, is scaled by
the run's median :func:`host_probe` to take the host's drift out (README.md,
"Calibration"); the measured ``pkts_per_s`` is printed next to it.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` pairs each
untraced call with a serial traced one whose layer spans ``layers.py``
records from outside ``src/``, and reports the per-layer metrics.

Every call is checked: its rows digests must equal the first call's (so a
warm run equals the cold run that filled its cache, a traced run equals an
untraced one and a parallel run equals a serial one), and at seed 1 they
must equal the pinned digests below.  A mismatch or a failed cell fails the
run: it prints no timing and exits 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
print every metric by name and unit, with quartiles and sample counts, next
to the backend, its build info, the seed, ``nproc`` and the Python version.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

#: A run must finish within this many seconds of starting.
RUN_BUDGET_S = 170.0

#: Workload seeds a run cycles through: ``--seed + i * SEED_STRIDE``.
SEED_STRIDE = 1000

#: Rows digests at seed 1 (the canonical-JSON sha256[:16] of ``BENCH_PR*.json``).
PINNED_DIGESTS = {
    "table1": "b6ed2e3672e55a04",
    "faults": "2aecf047d45bed11",
    "heuristics": "551ec0358fd605af",
    "scale": "dd88fdaadd7b08cf",
}
PINNED_SEED = 1


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: what ``run_pipeline`` is called with, and how
    many workload seeds a run cycles through."""

    experiments: Tuple[str, ...]
    workers: int
    warm: bool
    seeds: int


#: ``table1-warm`` pays a cold pre-fill call per seed, so it cycles fewer.
WORKLOADS: Dict[str, Workload] = {
    "table1-warm": Workload(("table1",), workers=1, warm=True, seeds=3),
    "mixed-parallel": Workload(("faults", "heuristics", "scale"), workers=2, warm=False, seeds=4),
}

#: :func:`host_probe` seconds on a quiet development host (2-CPU Xeon VM).
#: The gated timings are scaled to a host where the probe takes this.
PROBE_REFERENCE_S = 0.18

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "calibrated_pkts_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}
#: Printed with the end-to-end metrics but not gated (see README.md).
REPORTED = {
    "pkts_per_s": "1/s",
    "measured_setup_s": "s",
    "probe_s": "s",
    "wall_s": "s",
    "cells_per_s": "1/s",
    "error_rate": "ratio",
}
#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {
    "sim.record_s": "s",
    "sim.record_calls": "count",
    "sim.record_packets": "count",
    "pipeline.cache.save_s": "s",
    "pipeline.cache.save_bytes": "bytes",
    "pipeline.cache.load_s": "s",
    "pipeline.cache.load_bytes": "bytes",
    "pipeline.cache.lookups": "count",
    "pipeline.cache.misses": "count",
    "pipeline.cache.hit_ratio": "ratio",
    "core.replay.replay_s": "s",
    "core.replay.replay_calls": "count",
    "core.replay.replay_packets": "count",
    "core.replay.flat_fraction": "ratio",
    "core.replay.fallback_s": "s",
    "core.metrics.compare_s": "s",
    "core.metrics.stats_s": "s",
    "pipeline.scenario.build_s": "s",
    "pipeline.scenario.builds": "count",
    "pipeline.runner.self_s": "s",
    "pipeline.runner.parallel_efficiency": "ratio",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark could not run (not a correctness failure)."""


def host_probe() -> float:
    """Seconds a fixed task takes here: a reading of the host's speed.

    Dictionary, ``zlib``, ``json`` and ``numpy`` work, the kinds the
    pipeline does.  It runs in this process, which loads no ``repro`` code,
    between calls, so no change to the program can move it.
    """
    import numpy

    blob = bytes(range(256)) * 2048
    values = numpy.arange(200_000) * 7919 % 100_003
    start = time.perf_counter()
    for _ in range(6):
        counts: Dict[int, int] = {}
        for i in range(100_000):
            counts[i % 997] = counts.get(i % 997, 0) + i
        zlib.decompress(zlib.compress(blob, 6))
        json.loads(json.dumps([{"id": i, "name": str(i)} for i in range(10_000)]))
        numpy.cumsum(numpy.sort(values))
    return time.perf_counter() - start


class Runner:
    """Starts ``rep.py`` children against fresh cache directories."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [SOURCE] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        os.makedirs(WORK, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix="run-", dir=WORK)
        self.results: List[dict] = []
        #: seed -> (cache directory, the call that filled it), warm workloads only.
        self.prefilled: Dict[int, Tuple[str, dict]] = {}

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run still uses it

    def fresh_dir(self) -> str:
        return tempfile.mkdtemp(prefix="cache-", dir=self.work)

    def _spawn(self, command: List[str]) -> str:
        """Run ``command`` in its own session; return its standard output."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"out of time before starting: {' '.join(command)}")
        child = subprocess.Popen(
            command,
            cwd=ROOT,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = child.communicate(timeout=timeout)
        except BaseException as error:
            os.killpg(child.pid, signal.SIGKILL)  # the child and its pool workers
            child.wait()
            if isinstance(error, subprocess.TimeoutExpired):
                raise BenchError(f"timed out: {' '.join(command)}") from error
            raise
        if child.returncode != 0:
            raise BenchError(
                f"{' '.join(command)} exited {child.returncode}:\n{err.strip()[-2000:]}"
            )
        return out

    def warm_up(self) -> None:
        """Import the package once, untimed, so bytecode is compiled before timing."""
        self._spawn([sys.executable, "-c", "import repro.experiments, repro.pipeline.runner"])

    def call(
        self, workload: Workload, seed: int, cache_dir: str, workers: int, trace: bool
    ) -> dict:
        """One ``run_pipeline`` call in a fresh process; returns ``rep.py``'s
        record, with ``probe_s`` the mean of a :func:`host_probe` just before
        the process starts and one just after it ends."""
        probe_before = host_probe()
        spawned = time.time()
        out = self._spawn(
            [
                sys.executable,
                os.path.join(HERE, "rep.py"),
                "--experiments", ",".join(workload.experiments),
                "--workers", str(workers),
                "--seed", str(seed),
                "--cache-dir", cache_dir,
                "--trace", str(int(trace)),
                "--spawned-at", repr(spawned),
            ]
        )
        record = json.loads(out.strip().splitlines()[-1])
        record["process_s"] = time.time() - spawned
        record["probe_s"] = (probe_before + host_probe()) / 2
        record["seed"] = seed
        record["workers"] = workers
        record["traced"] = trace
        self.results.append(record)
        return record

    def prefill(self, workload: Workload, seed: int) -> None:
        """Fill a cache for ``seed`` with one cold call; warm calls only read it."""
        cache_dir = self.fresh_dir()
        self.prefilled[seed] = (cache_dir, self.call(workload, seed, cache_dir, 1, trace=False))


def end_to_end_sample(run: dict, prefill: Optional[dict]) -> Dict[str, float]:
    """The end-to-end metrics of one untraced call."""
    wall = run["wall_s"]
    setup = run["setup_s"] + (prefill["process_s"] if prefill is not None else 0.0)
    return {
        "seed": run["seed"],
        "pkts_per_s": run["input_packets"] / wall,
        "peak_rss_mib": (run["rss_self_kib"] + run["rss_children_kib"]) / 1024.0,
        "measured_setup_s": setup,
        "probe_s": run["probe_s"],
        "wall_s": wall,
        "cells_per_s": run["cells"] / wall,
        "error_rate": len(run["errors"]) / run["cells"],
    }


def cycle(
    runner: Runner, workload: Workload, seed: int, trace: bool, index: int
) -> Dict[str, float]:
    """One sample: a timed call (against the seed's pre-filled cache when warm).

    With ``trace``, the workload's untraced call is joined by a serial
    untraced call (when the workload is parallel) and a serial traced call,
    all against caches in the same state, and the per-layer metrics are
    returned.  Odd cycles run the traced call first, so the order of the
    pair cancels out of ``trace.overhead_s``.
    """
    shared, prefill = runner.prefilled.get(seed, (None, None))

    def call(workers: int, traced: bool) -> dict:
        return runner.call(workload, seed, shared or runner.fresh_dir(), workers, traced)

    if not trace:
        return end_to_end_sample(call(workload.workers, False), prefill)
    order = (True, False) if index % 2 else (False, True)
    serial_runs = {traced: call(1, traced) for traced in order}
    serial, traced = serial_runs[False], serial_runs[True]
    parallel = serial if workload.workers == 1 else call(workload.workers, False)
    layers = dict(traced["layers"])
    layers["pipeline.runner.parallel_efficiency"] = serial["wall_s"] / (
        workload.workers * parallel["wall_s"]
    )
    layers["trace.overhead_s"] = traced["wall_s"] - serial["wall_s"]
    layers["seed"] = seed
    return layers


def workload_seeds(seed: int, count: int) -> List[int]:
    """The ``count`` workload seeds one run cycles through, ``seed`` first."""
    return [seed + index * SEED_STRIDE for index in range(count)]


def check(results: List[dict]) -> Tuple[List[str], int, int]:
    """Correctness problems, cells attempted and cells failed over every call.

    Every call's digests must equal those of the first call at its seed,
    and at :data:`PINNED_SEED` they must equal :data:`PINNED_DIGESTS`.
    """
    problems: List[str] = []
    attempted = failed = 0
    reference: Dict[int, dict] = {}
    for index, record in enumerate(results):
        seed = record["seed"]
        attempted += record["cells"]
        failed += len(record["errors"])
        problems.extend(f"call {index}: cell failed: {error}" for error in record["errors"])
        expected = reference.setdefault(seed, record["digests"])
        if seed == PINNED_SEED:
            expected = {name: PINNED_DIGESTS.get(name) for name in record["digests"]}
        if record["digests"] != expected:
            failed += record["cells"] - len(record["errors"])
            problems.append(
                f"call {index} (seed={seed}, workers={record['workers']}, "
                f"traced={record['traced']}): digests {record['digests']} != {expected}"
            )
    return problems, attempted, failed


def calibrate(samples: List[Dict[str, float]]) -> None:
    """Add the gated ``calibrated_pkts_per_s`` and ``setup_s`` to each
    end-to-end sample: the measured ones at the reference host's speed.

    The host's speed drifts by up to a quarter for minutes at a time, longer
    than a run, and every call of a run drifts with it.  The median probe of
    the run reads that drift from code the program cannot change, so scaling
    each call's timings by it leaves the program's own speed.  One call's
    probe is too noisy to scale that call alone.
    """
    slowdown = statistics.median(sample["probe_s"] for sample in samples) / PROBE_REFERENCE_S
    for sample in samples:
        sample["calibrated_pkts_per_s"] = sample["pkts_per_s"] * slowdown
        sample["setup_s"] = sample["measured_setup_s"] / slowdown


def summarize(samples: List[Dict[str, float]], name: str) -> float:
    """A run's value of ``name``: its median over every call of the run."""
    return statistics.median(sample[name] for sample in samples)


def quartiles(values: List[float]) -> Tuple[float, float]:
    """First and third quartiles, as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SOURCE}", file=sys.stderr)
        return 2
    # Children run in their own sessions so a timeout can kill a child with
    # its pool workers; SIGTERM must unwind through that cleanup too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = WORKLOADS[args.workload]
    seeds = workload_seeds(args.seed, workload.seeds)
    runner = Runner(deadline=time.monotonic() + RUN_BUDGET_S)
    samples: List[Dict[str, float]] = []
    durations: List[float] = []
    try:
        runner.warm_up()
        if workload.warm:
            for seed in seeds:
                runner.prefill(workload, seed)
        measuring = time.monotonic()
        while True:
            began = time.monotonic()
            index = len(samples)
            seed = seeds[index % len(seeds)]
            samples.append(cycle(runner, workload, seed, bool(args.trace), index))
            durations.append(time.monotonic() - began)
            elapsed = time.monotonic() - measuring
            if elapsed + statistics.median(durations) > args.seconds:
                break
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    finally:
        runner.close()

    problems, attempted, failed = check(runner.results)
    first = runner.results[0]
    print(
        f"perfbench {args.workload}: seed={args.seed} (workload seeds "
        f"{','.join(map(str, seeds[:len(samples)]))}) seconds={args.seconds:g} "
        f"trace={args.trace} experiments={','.join(workload.experiments)} "
        f"workers={workload.workers}"
    )
    print(
        f"backend={first['backend']} build_info={json.dumps(first['build_info'])} "
        f"nproc={os.cpu_count()} python={platform.python_version()}"
    )
    digests = " ".join(f"{name}={digest}" for name, digest in first["digests"].items())
    print(
        f"digests at seed {first['seed']}: {digests} "
        f"({len(runner.results)} calls, {attempted} cells, {failed} failed)"
    )
    if problems:
        for problem in problems:
            print(f"FAILED: {problem}")
        result = {"correct": False, "attempted": max(attempted, 1), "failed": failed, "metrics": {}}
        print(json.dumps(result))
        return 1

    if not args.trace:
        calibrate(samples)
        for sample in samples:
            print(
                f"  call seed={sample['seed']} wall_s={sample['wall_s']:.4f} "
                f"pkts_per_s={sample['pkts_per_s']:.1f} probe_s={sample['probe_s']:.4f} "
                f"peak_rss_mib={sample['peak_rss_mib']:.2f}"
            )
    gated = PER_LAYER if args.trace else END_TO_END
    for name, unit in (gated if args.trace else dict(END_TO_END, **REPORTED)).items():
        q1, q3 = quartiles([sample[name] for sample in samples])
        print(
            f"  {name:38s} {summarize(samples, name):14.6g} {unit:6s} "
            f"q1 {q1:.6g} q3 {q3:.6g} n={len(samples)}"
        )
    metrics = {name: {"value": summarize(samples, name), "unit": unit} for name, unit in gated.items()}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
