"""Whole-registry backend oracle: the ``auto`` defaults against the engine.

Every registry experiment whose spec lists the ``analytic`` backend runs
its default points under ``backend="auto"``.  The event engine stays the
oracle: for each default point, the default report must equal the
``backend="engine"`` report byte for byte, except the ``backend``
provenance it records.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.experiments.registry import EXPERIMENTS
from repro.experiments.service.workers import execute_point
from repro.sim.backends import BACKENDS

ANALYTIC_POINTS = [
    (exp_id, scenario)
    for exp_id, spec in EXPERIMENTS.items()
    if "analytic" in spec.backends
    for scenario in spec.default_scenarios
]


def _without_backend(report) -> str:
    data = report.to_dict()
    data.pop("backend", None)
    data["scenario"] = {k: v for k, v in data["scenario"].items() if k != "backend"}
    return json.dumps(data, sort_keys=True)


def test_defaults_run_auto_exactly_where_analytic_is_supported():
    assert {e for e, _ in ANALYTIC_POINTS} == {
        "fig5", "fig7", "fig8", "fig9", "sync_methods", "table2", "fig4",
    }
    for exp_id, spec in EXPERIMENTS.items():
        want = "auto" if "analytic" in spec.backends else None
        assert [s.backend for s in spec.default_scenarios] == [want] * len(
            spec.default_scenarios
        ), exp_id


@pytest.mark.parametrize(
    "exp_id, scenario",
    ANALYTIC_POINTS,
    ids=[f"{e}-{s.describe()}" for e, s in ANALYTIC_POINTS],
)
def test_default_report_equals_engine_report(exp_id, scenario, monkeypatch):
    analytic = BACKENDS["analytic"]
    closed_forms = []

    def counting(closed_form):
        def count(*args, **kwargs):
            closed_forms.append(closed_form.__name__)
            return closed_form(*args, **kwargs)

        return count

    # Barrier ladders and the SM-level warp/block sync models.
    for name in ("run_rounds", "warp_sync_end_ns", "block_sync_end_ns"):
        monkeypatch.setattr(analytic, name, counting(getattr(analytic, name)))
    auto = execute_point(exp_id, scenario, use_cache=False)
    assert closed_forms, "the default point never reached the analytic backend"
    monkeypatch.undo()

    engine = execute_point(exp_id, replace(scenario, backend="engine"), use_cache=False)
    assert auto.ok and engine.ok, (auto.error, engine.error)
    assert auto.report.backend == "auto"
    assert engine.report.backend == "engine"
    assert _without_backend(auto.report) == _without_backend(engine.report)
