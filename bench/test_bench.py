"""The benchmark's own tests: metric schema at smoke size, tracer hygiene,
self-time arithmetic, and compare verdicts.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "cli.write_csv.self_s": "s",
    "cli.write_csv.bytes": "B",
    "cli.write_csv.mb_per_s": "MB/s",
    "cli.write_json.self_s": "s",
    "engine.run.self_s": "s",
    "engine.run.calls": "count",
    "engine.run.events": "count",
    "engine.run.events_per_s": "1/s",
    "engine.run.trades": "count",
    "engine.run.dropped_frac": "ratio",
    "book.final_levels": "count",
    "book.final_orders": "count",
    "engine.detect_freeze.self_s": "s",
    "engine.estimate_window.self_s": "s",
    "engine.run_ensemble.wall_s": "s",
    "engine.run_ensemble.busy_s": "s",
    "engine.run_ensemble.idle_s": "s",
    "engine.run_ensemble.efficiency": "ratio",
    "theory.v_l.self_s": "s",
    "theory.v_l.calls": "count",
    "theory.phi.self_s": "s",
    "theory.classify_recurrence.self_s": "s",
    "theory.PhiTable.build.self_s": "s",
    "theory.solve_luckock.self_s": "s",
    "curves.walras.self_s": "s",
    "curves.value_at.calls": "count",
    "curves.inverse.calls": "count",
    "trace.overhead_frac": "ratio",
}


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.NAMES


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    expected = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert "fail_frac" in proc.stdout


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workloads.NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _bindings():
    """Every attribute of the lobmm modules and of the wrapped classes."""
    out = {}
    for name in tracer.MODULES:
        module = importlib.import_module(name)
        for key, value in vars(module).items():
            out[(name, key)] = value
            if isinstance(value, type) and value.__module__.startswith("lobmm"):
                for attr, raw in vars(value).items():
                    out[(name, key, attr)] = raw
    return out


def _uniform_pair():
    from lobmm import DemandSupplyPair, Direction, MonotoneCurve

    return DemandSupplyPair(
        MonotoneCurve((0.0, 1.0), (1.0, 0.0), Direction.DECREASING),
        MonotoneCurve((0.0, 1.0), (0.0, 1.0), Direction.INCREASING),
    )


def test_tracer_restores_every_wrapped_attribute(tmp_path):
    import lobmm.cli
    import lobmm.engine
    import lobmm.theory

    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracer.Tracer(tmp_path):
            assert lobmm.engine.run is not before[("lobmm.engine", "run")]
            assert lobmm.cli.run is lobmm.engine.run
            assert lobmm.theory.PhiTable.__dict__["build"] is not before[("lobmm.theory", "PhiTable", "build")]
            raise RuntimeError("leave the block by an exception")
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_tracer_nests_spans_across_modules_and_counts_calls(tmp_path):
    import lobmm.theory

    with tracer.Tracer(tmp_path) as t:
        lobmm.theory.v_l(_uniform_pair(), 0.1)
        t.flush()
    spans, counts, methods = tracer.load(tmp_path)
    by_name = {s["name"]: s for s in spans}
    assert by_name["curves.walras"]["parent"] == by_name["theory.v_l"]["id"]
    assert counts["curves.value_at"] > 0 and counts["curves.inverse"] > 0
    metrics, missing = tracer.layer_metrics(spans, counts, methods)
    assert metrics["theory.v_l.calls"] == 1 and missing == {}
    assert 0 < metrics["theory.v_l.self_s"] < by_name["theory.v_l"]["end"] - by_name["theory.v_l"]["start"]


def test_self_time_subtracts_the_union_of_parallel_children():
    spans = [
        {"id": "a", "parent": None, "start": 0.0, "end": 10.0},
        {"id": "b", "parent": "a", "start": 1.0, "end": 4.0},
        {"id": "c", "parent": "a", "start": 2.0, "end": 5.0},
        {"id": "d", "parent": "a", "start": 8.0, "end": 12.0},
    ]
    assert tracer.self_times(spans) == {"a": 10.0 - 4.0 - 2.0, "b": 3.0, "c": 3.0, "d": 4.0}


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0] * 2
    faster = [8.0, 8.1, 7.9, 8.2, 8.0] * 2
    pairs = list(zip(parent, faster))
    assert compare.verdict(parent, faster, 0.1, "lower", pairs) == "improved"
    assert compare.verdict(parent, faster, 0.1, "lower", pairs[:9]) == "no worse"
    assert compare.verdict(parent, [10.5, 9.8, 10.3], 0.1, "lower") == "no worse"
    assert compare.verdict(parent, [12.0, 12.5, 11.9], 0.1, "lower") == "worse"
    assert compare.verdict(parent, faster, 0.1, "higher", pairs) == "worse"
    wide = [5.0, 10.0, 15.0, 20.0]
    assert compare.verdict(wide, [12.0, 13.0], 0.1, "lower") == "unresolved"
    assert compare.verdict(wide, [4.0, 4.5], 0.1, "lower") == "no worse"
