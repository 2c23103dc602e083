"""Tests of the benchmark harness itself.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repro.experiments import registry  # noqa: E402
from repro.experiments.service.workers import execute_point  # noqa: E402


def _report(exp_id: str = "table4") -> dict:
    scen = registry.get_spec(exp_id).default_scenarios[0]
    result = execute_point(exp_id, scen, use_cache=False)
    assert result.ok, result.error
    return result.report.to_dict()


def _raw(kind, owner, attr):
    if kind == "item":
        return owner[attr]
    if isinstance(owner, type):
        return vars(owner).get(attr)
    return getattr(owner, attr)


def test_grid_generator_is_deterministic_per_seed():
    first, again, other = (workloads.grid_points(s) for s in (7, 7, 8))
    assert first == again
    assert workloads.points_digest(first) == workloads.points_digest(again)
    assert workloads.points_digest(first) != workloads.points_digest(other)
    assert len(set(first)) == len(first) == 144
    assert {e for e, _ in first} == set(workloads.GRID_EXPERIMENTS)
    assert all(s.backend == "analytic" for _, s in first)


def test_registry_points_match_the_cli_defaults(tmp_path, capsys):
    from repro.experiments import cli

    assert cli.main(["--jobs", "1", "--cache-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    points = workloads.registry_points()
    assert workloads.journal_points(tmp_path) == points
    assert len(points) == 34
    sanitized = workloads.registry_points(sanitize="full")
    assert [s.sanitize for _, s in sanitized] == ["full"] * 34
    assert [(e, dataclasses.replace(s, sanitize=None)) for e, s in sanitized] == points


def test_digest_gate_catches_a_one_ulp_change():
    report = _report()
    reference = {"table4": workloads.report_digest(workloads.comparable(report))}
    assert workloads.mismatched({"table4": report}, reference) == []

    row = next(r for r in report["rows"] if isinstance(r["measured"], float))
    row["measured"] = math.nextafter(row["measured"], math.inf)
    assert workloads.mismatched({"table4": report}, reference) == ["table4"]
    assert workloads.mismatched({}, reference) == ["table4"]


def test_sanitized_comparison_ignores_only_the_sanitizer_fields():
    report = _report()
    sanitized = json.loads(json.dumps(report))
    report["scenario"] = {"points": [report["scenario"]]}
    sanitized["scenario"] = {"points": [{**sanitized["scenario"], "sanitize": "full"}]}
    sanitized["sanitizer"] = {"mode": "full", "findings": [{"rule": "X"}]}
    reference = {"table4": workloads.report_digest(workloads.comparable(report))}
    assert workloads.mismatched({"table4": sanitized}, reference, sanitized=True) == []
    sanitized["title"] += "!"
    assert workloads.mismatched({"table4": sanitized}, reference, sanitized=True) == ["table4"]


def test_every_wrapper_is_removed_after_a_traced_run():
    tracer = spans.Tracer()
    targets = [(kind, owner, attr) for kind, owner, attr, _ in spans.patch_targets(tracer)]
    before = [_raw(kind, owner, attr) for kind, owner, attr in targets]

    tracer.install()
    assert all(_raw(*t) is not b for t, b in zip(targets, before))
    tracer.enabled = True
    try:
        _report("table4")
    finally:
        tracer.uninstall()
    assert tracer.calls["driver.table4"] == 1
    assert tracer.calls["workers.execute"] == 0  # called below the patched names

    after = [_raw(kind, owner, attr) for kind, owner, attr in targets]
    assert all(a is b for a, b in zip(after, before))
    assert not tracer.installed
    # Calls after uninstall record nothing.
    tracer.reset()
    _report("table4")
    assert not tracer.calls


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in run.PER_LAYER]
    units = dict(run.END_TO_END + run.PER_LAYER)
    assert all(m["unit"] == units[m["name"]] for m in spec["end_to_end"] + spec["per_layer"])
    assert list(run.REGISTRY_IDS) == list(registry.EXPERIMENTS)


def test_calibration_helpers_time_the_loop_and_are_stopped():
    calibrator = calibrate.Calibrator(2)
    helpers = list(calibrator.helpers)
    try:
        assert calibrator.measure() > 0
    finally:
        calibrator.close()
    assert len(helpers) == 1
    assert all(h.returncode == 0 for h in helpers)
    assert calibrate.scaled(2.0, calibrate.CAL_REF_S, calibrate.CAL_REF_S) == 2.0
