"""Engine-vs-analytic backend benches (the PR-7 trajectory artifact).

Runs the paper's hot sync sweeps under each execution backend and, with
``--bench-json``, records best-of-5 wall times plus the DES event count
of one pass — the analytic backend's signature is a near-zero event
count, because eligible sweeps never enter the event loop.

Table II's warp-sync throughput ladders and Fig 4's block-sync scan run
the SM-level models of ``sim/sm.py``, whose analytic closed forms replay
the sync pipe / barrier-unit FIFO without the event loop.  Table II's
latency rows still run the thread-precise warp executor, so its analytic
row keeps a small event count; Fig 4's analytic row enters no event loop.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import attach_report, count_engine_events, record_timing
from repro.experiments.exp_sync import (
    run_fig4,
    run_fig5,
    run_sync_methods,
    run_table2,
)
from repro.experiments.scenario import Scenario

BACKENDS = ("engine", "analytic")


def _bench(request, benchmark, driver, exp_id, backend, rounds=5):
    scenario = Scenario(gpus=("V100",), backend=backend)
    report = benchmark.pedantic(driver, args=(scenario,), rounds=rounds, iterations=1)
    attach_report(benchmark, report)
    events = None
    if request.config.getoption("--bench-json", default=None):
        events = count_engine_events(lambda: driver(scenario))
    record_timing(
        request,
        benchmark,
        f"{exp_id}[{backend}]",
        report.backend or "engine",
        events,
    )
    return report


@pytest.mark.parametrize("backend", BACKENDS)
def test_bench_fig5_backend(request, benchmark, backend):
    report = _bench(request, benchmark, run_fig5, "fig5", backend)
    assert report.backend == backend
    assert report.mean_rel_err < 0.10


@pytest.mark.parametrize("backend", BACKENDS)
def test_bench_sync_methods_backend(request, benchmark, backend):
    report = _bench(request, benchmark, run_sync_methods, "sync_methods", backend)
    assert report.backend == backend


@pytest.mark.parametrize("backend", BACKENDS)
def test_bench_fig4_backend(request, benchmark, backend):
    report = _bench(request, benchmark, run_fig4, "fig4", backend, rounds=3)
    assert report.backend == backend
    assert report.mean_rel_err < 0.05


@pytest.mark.parametrize("backend", BACKENDS)
def test_bench_table2_backend(request, benchmark, backend):
    report = _bench(request, benchmark, run_table2, "table2", backend, rounds=3)
    assert report.backend == backend
    assert report.mean_rel_err < 0.05
