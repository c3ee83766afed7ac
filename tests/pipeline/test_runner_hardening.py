"""Fault tolerance of the pipeline runner itself.

Covers the hardening contract: per-cell timeouts, bounded retry with
exponential backoff, structured error rows instead of aborted runs, and —
the hard case — recovery from a pool worker killed outright (SIGKILL breaks
the entire ``ProcessPoolExecutor``, failing every outstanding future).
"""

import json
import os
import time

import pytest

from repro.__main__ import main as cli_main
from repro.experiments import ExperimentScale
from repro.experiments.config import ExperimentResult
from repro.pipeline import run_pipeline
from repro.pipeline.experiment import Cell, CellResult, ExperimentDef, ScenarioRegistry
from repro.pipeline.runner import CellError, CellTimeoutError, _cell_deadline

SMOKE = ExperimentScale.smoke()


class ScriptedDef(ExperimentDef):
    """Cells scripted by spec: fail or kill for the first N attempts.

    A shared sentinel file counts attempts across processes, so the cells
    are deterministic under both the serial and the pool runner.  Defined at
    module top level so fork-started pool workers can unpickle the cells.
    """

    name = "scripted"

    def __init__(self, specs):
        self._specs = tuple(specs)

    def cells(self, scale):
        return [
            Cell(self.name, spec["label"], "m", index, spec=tuple(sorted(spec.items())))
            for index, spec in enumerate(self._specs)
        ]

    def run_cell(self, cell, scale, cache):
        spec = dict(cell.spec)
        sentinel = spec.get("sentinel")
        if sentinel is not None:
            with open(sentinel, "a") as handle:
                handle.write("x")
            attempts = os.path.getsize(sentinel)
            if attempts <= spec.get("fail_times", 0):
                if spec.get("kill"):
                    os.kill(os.getpid(), 9)
                raise RuntimeError(f"scripted failure #{attempts}")
        if spec.get("sleep"):
            time.sleep(spec["sleep"])
        row = {"label": spec["label"]}
        if spec.get("report_pid"):
            row["pid"] = os.getpid()
        return CellResult(cell=cell, row=row)

    def assemble(self, scale, results):
        return ExperimentResult(
            name=self.name,
            scale_label=scale.label,
            rows=[result.row for result in results],
        )


def registry(*specs):
    reg = ScenarioRegistry()
    reg.register(ScriptedDef(specs))
    return reg


def run(reg, **kwargs):
    kwargs.setdefault("retry_backoff", 0.01)
    return run_pipeline(["scripted"], scale=SMOKE, registry=reg, **kwargs)


class TestCellDeadline:
    def test_deadline_raises_inside_window(self):
        with pytest.raises(CellTimeoutError, match="timeout"):
            with _cell_deadline(0.05):
                time.sleep(2)

    def test_deadline_disarmed_after_body(self):
        with _cell_deadline(0.05):
            pass
        time.sleep(0.1)  # the timer must not fire late

    def test_none_is_no_timeout(self):
        with _cell_deadline(None):
            time.sleep(0.01)


class TestSerialHardening:
    def test_failure_becomes_error_row_and_run_completes(self, tmp_path):
        reg = registry(
            {"label": "bad", "sentinel": str(tmp_path / "s1"), "fail_times": 99},
            {"label": "good"},
        )
        summary = run(reg, workers=1)
        assert [row["label"] for row in summary.results["scripted"].rows] == ["good"]
        [error] = summary.errors
        assert error.label == "bad"
        assert error.error_type == "RuntimeError"
        assert "scripted failure" in error.traceback
        assert error.attempts == 1
        assert "FAILED" in summary.format()

    def test_retry_succeeds_on_second_attempt(self, tmp_path):
        reg = registry(
            {"label": "flaky", "sentinel": str(tmp_path / "s1"), "fail_times": 1},
        )
        summary = run(reg, workers=1, max_retries=2)
        assert not summary.errors
        assert summary.results["scripted"].rows == [{"label": "flaky"}]

    def test_timeout_is_captured(self):
        reg = registry({"label": "slow", "sleep": 5.0}, {"label": "fast"})
        summary = run(reg, workers=1, cell_timeout=0.2)
        [error] = summary.errors
        assert error.error_type == "CellTimeoutError"
        assert [row["label"] for row in summary.results["scripted"].rows] == ["fast"]


class TestParallelHardening:
    def test_worker_exception_captured_and_retried(self, tmp_path):
        reg = registry(
            {"label": "flaky", "sentinel": str(tmp_path / "s1"), "fail_times": 1},
            {"label": "steady"},
        )
        summary = run(reg, workers=2, max_retries=2)
        assert not summary.errors
        assert sorted(row["label"] for row in summary.results["scripted"].rows) == [
            "flaky", "steady",
        ]

    def test_sigkilled_worker_recovers_with_identical_rows(self, tmp_path):
        """A SIGKILL'd worker breaks the whole pool; the retry round's fresh
        pool must complete the run with rows identical to a serial run."""
        specs = [
            {"label": "victim", "sentinel": str(tmp_path / "kill"), "fail_times": 1,
             "kill": True},
            {"label": "b1"},
            {"label": "b2"},
            {"label": "b3"},
        ]
        parallel = run(registry(*specs), workers=2, max_retries=2)
        assert not parallel.errors
        serial_specs = [dict(spec, fail_times=0) for spec in specs]
        serial = run(registry(*serial_specs), workers=1)
        assert sorted(
            row["label"] for row in parallel.results["scripted"].rows
        ) == sorted(row["label"] for row in serial.results["scripted"].rows)

    def test_exhausted_retries_report_and_spare_survivors(self, tmp_path):
        reg = registry(
            {"label": "doomed", "sentinel": str(tmp_path / "kill"), "fail_times": 99,
             "kill": True},
            {"label": "survivor"},
        )
        summary = run(reg, workers=2, max_retries=1)
        [error] = summary.errors
        assert error.label == "doomed"
        assert error.attempts == 2
        assert [row["label"] for row in summary.results["scripted"].rows] == ["survivor"]

    def test_broken_pool_casualties_are_not_charged(self, tmp_path):
        """A kill breaks the pool under every cell in flight; only the
        killer is charged, and the bystander completes in the same round."""
        reg = registry(
            {"label": "doomed", "sentinel": str(tmp_path / "kill"), "fail_times": 99,
             "kill": True},
            {"label": "bystander", "sleep": 0.5},
        )
        summary = run(reg, workers=2, max_retries=0)
        [error] = summary.errors
        assert error.label == "doomed"
        assert error.attempts == 1
        assert [row["label"] for row in summary.results["scripted"].rows] == ["bystander"]

    def test_queued_casualties_are_not_serialized(self, tmp_path):
        """A kill also fails every cell still queued behind it; those re-run
        side by side in a fresh pool, not each in a pool of its own."""
        labels = [f"b{i}" for i in range(6)]
        reg = registry(
            {"label": "doomed", "sentinel": str(tmp_path / "kill"), "fail_times": 99,
             "kill": True},
            *({"label": label, "sleep": 0.2, "report_pid": True} for label in labels),
        )
        summary = run(reg, workers=2, max_retries=0)
        [error] = summary.errors
        assert error.label == "doomed"
        assert error.attempts == 1
        rows = summary.results["scripted"].rows
        assert sorted(row["label"] for row in rows) == labels
        # A pool per bystander would give each its own worker process.
        assert len({row["pid"] for row in rows}) < len(labels)

    def test_parallel_timeout_enforced_in_workers(self):
        reg = registry({"label": "slow", "sleep": 5.0}, {"label": "fast"})
        summary = run(reg, workers=2, cell_timeout=0.2)
        [error] = summary.errors
        assert error.error_type == "CellTimeoutError"
        assert [row["label"] for row in summary.results["scripted"].rows] == ["fast"]


class TestCellErrorShape:
    def test_to_dict_is_json_serializable(self):
        error = CellError(
            cell_id="x/y/z/s1", experiment="x", label="y", mode="z", seed=1,
            error_type="RuntimeError", message="boom", traceback="tb",
            attempts=2,
        )
        payload = json.loads(json.dumps(error.to_dict()))
        assert payload["cell_id"] == "x/y/z/s1"
        assert payload["phase"] == "run"


class TestCliErrorSurface:
    def test_run_with_failed_cells_exits_nonzero_with_errors_payload(
        self, tmp_path, capsys
    ):
        """--cell-timeout small enough to kill a real experiment's cells: the
        CLI must finish, emit the errors in the JSON payload, and exit 1."""
        code = cli_main(
            [
                "run", "figure3", "--scale", "smoke",
                "--cache-dir", str(tmp_path / "cache"),
                "--cell-timeout", "0.0001", "--json",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        payload = json.loads(captured.out)
        assert payload["errors"]
        assert payload["errors"][0]["error_type"] == "CellTimeoutError"
        assert "failed after" in captured.err

    def test_clean_run_has_empty_errors_list(self, tmp_path, capsys):
        code = cli_main(
            [
                "run", "figure3", "--scale", "smoke",
                "--cache-dir", str(tmp_path / "cache"),
                "--max-retries", "1", "--json",
            ]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["errors"] == []
