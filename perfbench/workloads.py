"""Benchmark inputs and output checks: point lists, digests, fidelity.

Four workloads, each loading a different layer of the sweep service; the
first three are the ones ``BENCHMARK.json`` lists:

* ``registry-cold`` — every registry experiment at its default points,
  serial, fresh cache each pass: drivers, engine, numpy reduction path.
* ``registry-warm`` — the same points served from a pre-filled cache:
  cache reads, JSON (de)serialization, aggregation, rendering.
* ``grid-pool`` — ~150 seeded analytic-backend points over fig7, fig8 and
  sync_methods at ``--jobs nproc``: scheduler, worker pool, cache stores
  and journal writes, with little driver work per point.
* ``registry-sanitized`` — ``registry-cold`` under ``--sanitize full``:
  the sanitizer hooks and its happens-before checker.  It runs by name
  only: the sanitizer's findings on non-pitfall experiments, which it
  counts as failed points, change in number between identical runs.

The registry workloads take no input from the seed; only ``grid-pool``'s
point list is drawn from it.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.experiments.journal import default_journal_path, load_journal
from repro.experiments.registry import EXPERIMENTS, get_spec
from repro.experiments.scenario import Scenario, apply_overrides

__all__ = [
    "GRID_EXPERIMENTS",
    "comparable",
    "fidelity",
    "fidelity_points",
    "grid_points",
    "journal_points",
    "mismatched",
    "points_digest",
    "points_for",
    "registry_points",
    "report_digest",
    "spurious_findings",
]

Point = Tuple[str, Scenario]

GRID_EXPERIMENTS = ("fig7", "fig8", "sync_methods")

# node -> (GPU, GPU count, interconnect overrides that build at that count);
# None keeps the node's own topology.
_GRID_NODES = {
    "DGX1": ("V100", 8, (None, "nvswitch", "ring", "pcie")),
    "DGX2": ("V100", 16, (None, "ring", "pcie")),
    "P100x2": ("P100", 2, (None, "nvswitch", "ring")),
}
_GRID_STRATEGIES = (None, "cooperative", "atomic", "cpu")
# Only the atomic barrier reads tuning knobs; the other strategies reject them.
_ATOMIC_KNOBS = {
    "poll_ns": ("60", "120", "240"),
    "poll_read_ns": ("10", "30", "90"),
    "workload_util": ("0", "0.25", "0.5", "0.75"),
    "atomic_service_ns": ("200", "400", "800"),
}
# Points per experiment x node x strategy stratum, and their sweep-subset
# sizes by draw index, so every seed gets the same mix of small and large
# subsets and the pass's total work varies little by seed.
_PER_STRATUM = 4
_SUBSET_SIZES = (1, 2, 3, 2)


def registry_points(sanitize: Optional[str] = None) -> List[Point]:
    """Default points of every registry experiment, as the CLI builds them."""
    overrides = [f"sanitize={sanitize}"] if sanitize else []
    points: List[Point] = []
    for exp_id, spec in EXPERIMENTS.items():
        scens = dict.fromkeys(
            apply_overrides(s, overrides) for s in spec.default_scenarios
        )
        points.extend((exp_id, s) for s in scens)
    return points


def journal_points(cache_dir: Path) -> List[Point]:
    """The point list a CLI sweep over ``cache_dir`` recorded in its journal."""
    return load_journal(default_journal_path(cache_dir)).points


def grid_points(seed: int) -> List[Point]:
    """Distinct analytic-backend points, stratified by experiment x node x
    strategy; the seed draws the topology, GPU-count subset and knobs."""
    rng = random.Random(seed)
    points: Dict[Point, None] = {}
    for exp_id in GRID_EXPERIMENTS:
        for node, (gpu, cap, interconnects) in _GRID_NODES.items():
            for strategy in _GRID_STRATEGIES:
                for k in range(_PER_STRATUM):
                    size = min(_SUBSET_SIZES[k % len(_SUBSET_SIZES)], cap)
                    for _ in range(100):
                        extras: Tuple[Tuple[str, str], ...] = ()
                        if strategy == "atomic":
                            keys = rng.sample(sorted(_ATOMIC_KNOBS), rng.randint(1, 2))
                            extras = tuple((key, rng.choice(_ATOMIC_KNOBS[key])) for key in keys)
                        scen = Scenario(
                            gpus=(gpu,),
                            node=node,
                            interconnect=rng.choice(interconnects),
                            gpu_counts=tuple(sorted(rng.sample(range(1, cap + 1), size))),
                            sync_strategy=strategy,
                            extras=extras,
                            backend="analytic",
                        )
                        if (exp_id, scen) not in points:
                            points[(exp_id, scen)] = None
                            break
                    else:
                        raise RuntimeError(
                            f"no distinct point left for {exp_id}/{node}/{strategy}"
                        )
    return list(points)


def points_for(workload: str, seed: int) -> List[Point]:
    if workload == "grid-pool":
        return grid_points(seed)
    if workload == "registry-sanitized":
        return registry_points(sanitize="full")
    if workload in ("registry-cold", "registry-warm"):
        return registry_points()
    raise ValueError(f"unknown workload {workload!r}")


def fidelity_points() -> List[Point]:
    """grid-pool's fidelity set: its experiments' paper points, analytic."""
    return [
        (exp_id, apply_overrides(s, ["backend=analytic"]))
        for exp_id in GRID_EXPERIMENTS
        for s in get_spec(exp_id).default_scenarios
    ]


def points_digest(points: Iterable[Point]) -> str:
    canon = json.dumps(
        [[exp_id, scen.to_dict()] for exp_id, scen in points],
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


# -- output checks ---------------------------------------------------------


def comparable(report: Dict[str, Any], sanitized: bool = False) -> Dict[str, Any]:
    """A report dict without what legitimately differs between workloads.

    ``execution`` holds the CLI's supervision counters (cache hits differ
    between cold and warm).  A sanitized report also carries its
    ``sanitizer`` payload and ``sanitize`` in each point's scenario.
    """
    out = {k: v for k, v in report.items() if k != "execution"}
    if sanitized:
        out.pop("sanitizer", None)
        scen = out.get("scenario")
        if isinstance(scen, dict) and "points" in scen:
            out["scenario"] = {
                **scen,
                "points": [
                    {k: v for k, v in p.items() if k != "sanitize"}
                    for p in scen["points"]
                ],
            }
    return out


def report_digest(report: Dict[str, Any]) -> str:
    """sha256 of the canonical JSON; floats serialize by ``repr``, so a
    one-ulp change to any number changes the digest."""
    canon = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def mismatched(
    reports: Dict[str, Dict[str, Any]], reference: Dict[str, str], sanitized: bool = False
) -> List[str]:
    """Keys whose report is missing or whose digest differs from ``reference``."""
    return [
        key
        for key, digest in reference.items()
        if key not in reports or report_digest(comparable(reports[key], sanitized)) != digest
    ]


def fidelity(reports: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Relative error of every paper-anchored row against the paper value.

    A row is anchored when it has both a paper and a measured value and
    the paper value is nonzero; it is over tolerance when its error
    exceeds its experiment's ``tolerance`` (experiments without one
    count in the error figures only).
    """
    errs: List[float] = []
    within = 0
    over: List[str] = []
    for rep in reports:
        tol = get_spec(rep["exp_id"]).tolerance
        for row in rep["rows"]:
            paper, measured = row["paper"], row["measured"]
            if paper is None or measured is None or paper == 0:
                continue
            err = abs((measured - paper) / paper)
            errs.append(err)
            if tol is None:
                continue
            if err > tol:
                over.append(f"{rep['exp_id']} {row['label']!r}: {err:.1%} > {tol:.0%}")
            else:
                within += 1
    return {
        "rows": len(errs),
        "mean_rel_err": sum(errs) / len(errs) if errs else float("nan"),
        "max_rel_err": max(errs) if errs else float("nan"),
        "rows_within_tolerance": within,
        "rows_over_tolerance": len(over),
        "over": over,
    }


def spurious_findings(exp_id: str, sanitizer: Optional[Dict[str, Any]]) -> int:
    """Findings on an experiment outside the pitfall set, which should have none."""
    if not sanitizer or "pitfall" in get_spec(exp_id).tags:
        return 0
    return len(sanitizer.get("findings", ()))
