"""Registry of every reproduced table and figure — experiments as *data*.

Each entry is an :class:`ExperimentSpec`: a driver plus the default
scenarios it runs against, a title, tags, and the reproduction tolerance
the CLI enforces.  Default scenarios are split per architecture wherever
the driver's work factors cleanly (one point per GPU), so the runner can
execute and cache the points independently; ``run_all --jobs N`` gets its
parallelism from exactly this split.

``run_experiment`` / ``run_all`` delegate to :mod:`repro.experiments.runner`
— the **single entry path** that owns per-point error handling and the
content-addressed result cache.  Nothing calls a driver directly anymore.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.base import ExperimentReport
from repro.experiments.exp_divergence import run_divergence
from repro.experiments.exp_launch import TABLE1_SCENARIO, run_fig9, run_table1
from repro.experiments.exp_model import run_table3, run_table4, run_validation
from repro.experiments.exp_pitfalls import run_deadlock, run_fig18
from repro.experiments.exp_reduction import run_fig15, run_fig16, run_table5, run_table6
from repro.experiments.exp_sanitize import run_pitfalls_sanitized
from repro.experiments.exp_sync import (
    FIG7_SCENARIO,
    SYNC_METHODS_SCENARIOS,
    run_fig4,
    run_fig5,
    run_fig7,
    run_fig8,
    run_sync_methods,
    run_table2,
)
from repro.experiments.scenario import PAPER_SCENARIO, Scenario
from repro.experiments.summary import run_summary

__all__ = [
    "ExperimentSpec",
    "EXPERIMENTS",
    "get_spec",
    "known_tags",
    "filter_by_tags",
    "run_experiment",
    "run_all",
]

# One scenario per paper GPU: the work of a dual-architecture driver factors
# into independent, individually-cacheable points.
_PER_GPU = (Scenario(gpus=("V100",)), Scenario(gpus=("P100",)))


def _auto(scenarios: Tuple[Scenario, ...]) -> Tuple[Scenario, ...]:
    """Default points of an analytic-capable experiment: ``backend="auto"``
    runs eligible barrier ladders through the closed forms, which the
    engine oracle pins bit-identical, and everything else on the engine.
    ``--backend engine`` still forces the event-precise path."""
    return tuple(replace(s, backend="auto") for s in scenarios)


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one reproduced table/figure."""

    id: str
    title: str
    driver: Callable[..., ExperimentReport]
    default_scenarios: Tuple[Scenario, ...] = (PAPER_SCENARIO,)
    tags: Tuple[str, ...] = ()
    # Max acceptable mean |relative error| vs the paper; the CLI exits
    # nonzero when a report exceeds it.  ``None`` disables the gate.
    tolerance: Optional[float] = 0.10
    # Execution backends this experiment's driver can route its sweeps
    # through.  Every driver runs on the event-precise engine; the drivers
    # whose sweeps have exact closed forms (uniform barrier ladders, and
    # the SM-level warp/block sync models of Table II and Fig 4) also
    # accept the analytic backend, and their default scenarios run
    # ``auto`` (see ``_auto``).  Other drivers ignore a requested backend:
    # they run the engine and leave ``report.backend`` unset.
    backends: Tuple[str, ...] = ("engine",)


_SPECS: List[ExperimentSpec] = [
    ExperimentSpec(
        "table1", "Launch overhead / null-kernel latency (V100)", run_table1,
        default_scenarios=(TABLE1_SCENARIO,),
        tags=("launch", "single-gpu", "smoke"),
    ),
    ExperimentSpec(
        "table2", "Warp-level synchronization (V100 + P100)", run_table2,
        default_scenarios=_auto(_PER_GPU), tags=("warp", "sync", "single-gpu"),
        tolerance=0.05,
        backends=("engine", "analytic"),
    ),
    ExperimentSpec(
        "fig4", "Block synchronization scaling", run_fig4,
        default_scenarios=_auto(_PER_GPU), tags=("block", "sync", "single-gpu"),
        tolerance=0.05,
        backends=("engine", "analytic"),
    ),
    ExperimentSpec(
        "fig5", "Grid synchronization heat-maps", run_fig5,
        default_scenarios=_auto(_PER_GPU), tags=("grid", "sync", "heatmap"),
        backends=("engine", "analytic"),
    ),
    ExperimentSpec(
        "fig7", "Multi-grid synchronization (P100 x PCIe)", run_fig7,
        default_scenarios=_auto((FIG7_SCENARIO,)),
        tags=("multigrid", "sync", "multi-gpu", "pcie"),
        backends=("engine", "analytic"),
    ),
    ExperimentSpec(
        "fig8", "Multi-grid synchronization (V100 DGX-1)", run_fig8,
        default_scenarios=_auto((Scenario(gpus=("V100",)),)),
        tags=("multigrid", "sync", "multi-gpu", "nvlink", "smoke"),
        backends=("engine", "analytic"),
    ),
    ExperimentSpec(
        "fig9", "Implicit vs CPU-side vs multi-grid barriers across DGX-1",
        run_fig9,
        default_scenarios=_auto((Scenario(gpus=("V100",)),)),
        tags=("launch", "multigrid", "multi-gpu"),
        backends=("engine", "analytic"),
    ),
    ExperimentSpec(
        "sync_methods",
        "Multi-device synchronization methods: strategy sweep",
        run_sync_methods,
        default_scenarios=_auto(SYNC_METHODS_SCENARIOS),
        tags=("sync", "multigrid", "multi-gpu", "strategy", "smoke"),
        backends=("engine", "analytic"),
    ),
    ExperimentSpec(
        "table3", "Projected concurrency (Little's law)", run_table3,
        default_scenarios=_PER_GPU, tags=("model", "single-gpu"),
        tolerance=0.03,
    ),
    ExperimentSpec(
        "table4", "Predicted worker switching points", run_table4,
        default_scenarios=_PER_GPU, tags=("model", "single-gpu", "smoke"),
    ),
    ExperimentSpec(
        "table5", "Latency to sum 32 doubles per warp method", run_table5,
        default_scenarios=_PER_GPU, tags=("reduction", "warp", "smoke"),
    ),
    ExperimentSpec(
        "fig15", "Single-GPU reduction latency vs size", run_fig15,
        default_scenarios=_PER_GPU, tags=("reduction", "single-gpu"),
    ),
    ExperimentSpec(
        "table6", "Reduction bandwidth (GB/s)", run_table6,
        default_scenarios=_PER_GPU, tags=("reduction", "single-gpu"),
        tolerance=0.03,
    ),
    ExperimentSpec(
        "fig16", "Multi-GPU reduction throughput (DGX-1)", run_fig16,
        default_scenarios=(Scenario(gpus=("V100",)),),
        tags=("reduction", "multi-gpu"),
    ),
    ExperimentSpec(
        "fig18", "Warp-barrier blocking behaviour", run_fig18,
        default_scenarios=_PER_GPU, tags=("pitfall", "warp"),
    ),
    ExperimentSpec(
        "divergence", "Divergence-heavy barrier-delimited phases",
        run_divergence,
        default_scenarios=_PER_GPU, tags=("warp", "divergence", "smoke"),
        # No published anchor: the rows are booleans auditing the SIMT
        # fast path's re-convergence plus unanchored phase costs.
        tolerance=None,
    ),
    ExperimentSpec(
        "deadlock", "Partial-group synchronization outcomes", run_deadlock,
        default_scenarios=_PER_GPU, tags=("pitfall", "deadlock", "smoke"),
    ),
    ExperimentSpec(
        "pitfalls_sanitized",
        "Sync pitfalls diagnosed by repro.sanitize",
        run_pitfalls_sanitized,
        default_scenarios=_PER_GPU,
        tags=("pitfall", "sanitizer", "smoke"),
        # Boolean did-the-checker-fire rows; no published numeric anchor.
        tolerance=None,
    ),
    ExperimentSpec(
        "validation", "Measurement-method cross-validation (Section IX-D)",
        run_validation,
        default_scenarios=_PER_GPU, tags=("methodology", "smoke"),
    ),
    ExperimentSpec(
        "table8", "Summary of observations (Table VIII)", run_summary,
        default_scenarios=(PAPER_SCENARIO,), tags=("summary",),
    ),
]

# Paper order, id -> spec.
EXPERIMENTS: Dict[str, ExperimentSpec] = {spec.id: spec for spec in _SPECS}


def get_spec(exp_id: str) -> ExperimentSpec:
    """Look up an experiment spec by id."""
    try:
        return EXPERIMENTS[exp_id]
    except KeyError:
        raise ValueError(
            f"unknown experiment {exp_id!r}; available: {sorted(EXPERIMENTS)}"
        ) from None


def known_tags() -> Tuple[str, ...]:
    """Every tag used by at least one experiment, sorted."""
    return tuple(sorted({t for spec in EXPERIMENTS.values() for t in spec.tags}))


def filter_by_tags(ids: Sequence[str], tags: Sequence[str]) -> List[str]:
    """Restrict experiment ids to those carrying at least one of ``tags``.

    Unknown tags raise, listing the known ones — a typo in a CI job
    should fail the job, not silently select nothing.
    """
    known = known_tags()
    unknown = [t for t in tags if t not in known]
    if unknown:
        raise ValueError(
            f"unknown tag(s) {', '.join(sorted(unknown))}; "
            f"known tags: {', '.join(known)}"
        )
    wanted = set(tags)
    return [i for i in ids if wanted & set(EXPERIMENTS[i].tags)]


def run_experiment(
    exp_id: str,
    scenarios: Optional[Sequence[Scenario]] = None,
    use_cache: bool = False,
) -> ExperimentReport:
    """Run one experiment by id through the runner's single entry path.

    Caching defaults off here (the historical in-process behaviour);
    the CLI and ``run_all`` turn it on.
    """
    from repro.experiments import runner

    return runner.run_experiment(exp_id, scenarios=scenarios, use_cache=use_cache)


def run_all(
    ids: Optional[Sequence[str]] = None,
    jobs: int = 1,
    use_cache: bool = False,
) -> List[ExperimentReport]:
    """Run experiments in paper order (optionally parallel, see runner)."""
    from repro.experiments import runner

    return runner.run_all(ids=ids, jobs=jobs, use_cache=use_cache)
