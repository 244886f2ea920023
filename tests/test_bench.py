"""Tests for the bench harness plumbing: tables, store, harness, registry."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.bench.experiments import EXPERIMENTS, experiment_ids, run_experiment
from repro.bench.harness import FULL, QUICK, ExperimentReport, ExperimentScale, run_trials
from repro.bench.store import ResultStore
from repro.bench.tables import format_cell, format_table
from repro.core.exceptions import ExperimentError
from repro.core.hazard_kernel import KERNEL_NAMES

ROOT = Path(__file__).resolve().parent.parent


class TestTables:
    def test_format_cell(self):
        assert format_cell(None) == "-"
        assert format_cell(True) == "yes"
        assert format_cell(False) == "no"
        assert format_cell(3) == "3"
        assert format_cell(3.14159) == "3.142"
        assert format_cell(1e-9) == "1.000e-09"
        assert format_cell(0.0) == "0"
        assert format_cell(float("nan")) == "nan"

    def test_format_table_alignment(self):
        text = format_table(["a", "long-header"], [[1, 2], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "long-header" in lines[0]
        assert set(lines[1]) <= {"-", " "}

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])


class TestStore:
    def test_save_load_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "results")
        payload = {"rows": [[1, 2]], "title": "x"}
        path = store.save("T1", payload)
        assert path.exists()
        assert store.load("T1") == payload
        assert store.exists("T1")
        assert store.list_ids() == ["T1"]

    def test_load_missing(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ExperimentError):
            store.load("nope")

    def test_list_empty_directory(self, tmp_path):
        assert ResultStore(tmp_path / "missing").list_ids() == []

    def test_id_sanitised(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.save("a/b", {"x": 1})
        assert "a_b" in path.name


class TestHarness:
    def test_scales(self):
        assert QUICK.trials < FULL.trials
        assert QUICK.scaled(1000) == 500
        assert QUICK.scaled(2, minimum=5) == 5

    def test_run_trials_deterministic(self):
        # Trial seeds are SeedSequence children of the master seed:
        # pure function of the master, all distinct.
        draw = lambda s: int(np.random.default_rng(s).integers(1 << 30))
        a = run_trials(draw, 4, seed=1)
        b = run_trials(draw, 4, seed=1)
        assert a == b
        assert len(set(a)) == 4

    def test_report_format_and_checks(self):
        report = ExperimentReport(
            experiment_id="TX",
            title="demo",
            claim="something holds",
            headers=["a"],
            rows=[[1]],
            checks={"ok": True, "bad": False},
            notes=["hello"],
        )
        text = report.format()
        assert "TX" in text and "PASS" in text and "FAIL" in text and "hello" in text
        assert not report.all_checks_pass()

    def test_report_to_dict_json(self):
        report = ExperimentReport(
            experiment_id="TX",
            title="demo",
            claim="c",
            headers=["a"],
            rows=[[1.5]],
            checks={"ok": True},
        )
        assert json.loads(json.dumps(report.to_dict()))["experiment_id"] == "TX"


class TestRegistry:
    def test_all_registered_in_order(self):
        expected = [f"T{i}" for i in range(1, 13)] + [f"A{i}" for i in range(1, 5)] + ["S1"]
        assert experiment_ids() == expected
        assert set(EXPERIMENTS) == set(experiment_ids())

    def test_unknown_id(self):
        with pytest.raises(ExperimentError):
            run_experiment("T99")

    def test_case_insensitive(self, tmp_path):
        tiny = ExperimentScale(name="tiny", trials=2, size_factor=0.02, seed=3)
        report = run_experiment("t3", scale=tiny)
        assert report.experiment_id == "T3"

    def test_run_with_store(self, tmp_path):
        tiny = ExperimentScale(name="tiny", trials=2, size_factor=0.02, seed=3)
        store = ResultStore(tmp_path)
        report = run_experiment("T3", scale=tiny, store=store)
        assert store.exists("T3")
        stored = store.load("T3")
        assert stored["headers"] == list(report.headers)


class TestTinyScaleSmoke:
    """Each cheap experiment must *run* at a tiny scale (checks may
    fail there — only the report structure is asserted)."""

    @pytest.mark.parametrize("eid", ["T1", "T2", "T3", "T5", "T8", "T9", "T10"])
    def test_structure(self, eid):
        tiny = ExperimentScale(name="tiny", trials=2, size_factor=0.05, seed=11)
        report = run_experiment(eid, scale=tiny)
        assert report.experiment_id == eid
        assert report.rows
        assert report.headers
        assert isinstance(report.checks, dict)
        assert report.elapsed_seconds >= 0


_PERFBENCH_CONTRACT = """
import json
import tracing
import worker
from repro.core import hazard_kernel

env = worker.probe_environment()
original_apply = hazard_kernel.TickKernel.apply
tracing.install(tracing.Tracer())
print(json.dumps({
    "backend": env["backend"],
    "kernel": env["kernel"],
    "apply_traced": hazard_kernel.TickKernel.apply is not original_apply,
}))
"""


class TestPerfbenchImportContract:
    """The benchmark harness under ``perfbench/`` imports the program by
    name: the environment probe and the tracer must keep working, or
    every benchmark pass breaks."""

    def test_probe_and_tracer_install(self):
        env = dict(os.environ)
        env.pop("REPRO_KERNEL", None)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
        proc = subprocess.run(
            [sys.executable, "-c", _PERFBENCH_CONTRACT],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["backend"] == "numpy"
        assert result["kernel"] in KERNEL_NAMES
        assert result["apply_traced"]
