"""Benchmark entry point for the sweep service and its reproduction fidelity.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; everything the benchmark writes
goes under ``.perfbench/`` there.  ``--trace 0`` times passes over the
workload's points with nothing patched and reports the end-to-end
metrics; ``--trace 1`` times untraced passes, then traced passes with
span wrappers around each layer (see ``spans.py``), and reports the
per-layer metrics and a per-layer table sorted by self time.  Every pass
goes through the output-correctness gate.  All times are host time.
``sweep_cpu_s`` is the user-mode CPU time of a pass, of this process and
the pool workers it reaped: on a shared host, wall time also follows the
host's disk and kernel load, which no loop in this process can calibrate.
``sweep_cpu_s``, ``setup_s`` and ``trace.overhead_ms`` are scaled by a
calibration loop timed around each pass and probe (see ``calibrate.py``);
the unscaled wall time of a pass is printed in every run and reported as
``sweep_wall_s`` by ``--trace 1``.
The workloads are described in ``workloads.py``; the measured baseline
is in ``BASELINE.md``.  Each run prints a ``record:`` line with the seed,
the point list's digest and the machine context, and appends it, with the
per-pass times, to ``.perfbench/records.jsonl``.

The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` counts points over all passes; ``failed`` counts failed
points, points whose report digest differs from the reference, cache
misses on ``registry-warm``, points whose stored report is missing where
a pass reads them back and, on ``registry-sanitized``, points of
non-pitfall experiments with sanitizer findings.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
# The workloads BENCHMARK.json lists.  registry-sanitized stays runnable
# by name but is not one of them: the sanitizer's findings on non-pitfall
# experiments, which it counts as failures, change between identical runs.
WORKLOAD_NAMES = ("registry-cold", "registry-warm", "grid-pool")
EXTRA_WORKLOADS = ("registry-sanitized",)

# (name, unit) in report order; BENCHMARK.json lists the same names.
END_TO_END = (
    ("setup_s", "s"),
    ("sweep_cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("fidelity.mean_rel_err", "ratio"),
    ("fidelity.max_rel_err", "ratio"),
    ("fidelity.rows_within_tolerance", "count"),
)
REGISTRY_IDS = (
    "table1", "table2", "fig4", "fig5", "fig7", "fig8", "fig9", "sync_methods",
    "table3", "table4", "table5", "fig15", "table6", "fig16", "fig18",
    "divergence", "deadlock", "pitfalls_sanitized", "validation", "table8",
)
PER_LAYER = (
    ("cli.render_ms", "ms"),
    ("queue.build_ms", "ms"),
    ("scheduler.roundtrip_ms.p50", "ms"),
    ("scheduler.steals", "count"),
    ("scheduler.attempts_per_point", "attempts/point"),
    ("workers.pool_start_ms", "ms"),
    ("workers.slab_points", "count"),
    ("workers.pickle_bytes_avoided", "bytes"),
    ("workers.reply_bytes", "bytes"),
    ("cache.load_ms", "ms"),
    ("cache.loads", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.claim_wait_ms", "ms"),
    ("cache.store_ms", "ms"),
    ("cache.stores", "count"),
    ("journal.records", "count"),
    ("journal.write_ms", "ms"),
    ("aggregate.merge_ms", "ms"),
    *((f"driver.{exp_id}.ms", "ms") for exp_id in REGISTRY_IDS),
    ("backend.engine_points", "count"),
    ("backend.analytic_points", "count"),
    ("engine.events", "count"),
    ("engine.run_ms", "ms"),
    ("engine.ns_per_event", "ns"),
    ("analytic.ms", "ms"),
    ("reduction.make_input_ms", "ms"),
    ("reduction.make_input_calls", "count"),
    ("sanitize.events", "count"),
    ("sanitize.check_ms", "ms"),
    ("sanitize.spurious_findings", "count"),
    ("setup.import_ms", "ms"),
    ("setup.code_version_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("sweep_wall_s", "s"),
    ("failed_share", "ratio"),
    ("fidelity.rows_over_tolerance", "count"),
)
# Layers that run inside pool workers on grid-pool; their figures come
# from a serial traced pass over the same points.
WORKER_SIDE = ("cache.", "driver.", "engine.", "analytic.", "reduction.", "sanitize.")

MIN_PASSES = 3
SETUP_PROBES = 9
# A .p90 needs at least ten passes beyond the 90th percentile.
P90_MIN_PASSES = 100


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _fresh_dir(prefix: str) -> Path:
    return Path(tempfile.mkdtemp(prefix=prefix, dir=WORK))


def _join_children() -> None:
    """Wait for every worker process the pass started (pools shut down
    without waiting)."""
    for proc in multiprocessing.active_children():
        proc.join(timeout=30)
        if proc.is_alive():
            proc.kill()
            proc.join()


def _user_cpu() -> float:
    """User-mode CPU seconds of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    return own.ru_utime + resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime


@dataclass
class Pass:
    """One timed pass over the workload's points and what it produced."""

    wall_s: float
    user_s: float
    cpu_s: float = 0.0  # user_s on the reference host (see calibrate.py)
    failed: Set[int] = field(default_factory=set)
    hard: bool = False  # a failure that is not a known sanitizer finding
    attempts: int = 0
    point_reports: List[Any] = field(default_factory=list)
    stats: Any = None


class Workload:
    """Shared pass loop; subclasses supply prepare/run_pass."""

    def __init__(self, name: str, seed: int):
        from workloads import points_for

        self.name = name
        self.seed = seed
        self.points = points_for(name, seed)
        self.reference: Dict[Any, str] = {}
        self.fid: Dict[str, Any] = {}
        self.cpus = 1  # CPUs a pass keeps busy, and the calibration's width
        self.calibrator: Any = None

    def prepare(self) -> None:
        raise NotImplementedError

    def run_pass(self, tracer: Any = None) -> Pass:
        raise NotImplementedError

    def close(self) -> None:
        """Remove what the workload keeps between passes."""

    def _indices(self, exp_ids: Sequence[str]) -> Set[int]:
        wanted = set(exp_ids)
        return {i for i, (e, _) in enumerate(self.points) if e in wanted}


class CliWorkload(Workload):
    """Registry workloads, through ``repro.experiments.cli.main``."""

    def __init__(self, name: str, seed: int):
        super().__init__(name, seed)
        self.sanitized = name == "registry-sanitized"
        self.warm = name == "registry-warm"
        self.cache_dir: Optional[Path] = None

    def _argv(self, cache_dir: Path, sanitized: bool) -> List[str]:
        argv = ["--jobs", "1", "--json", "--cache-dir", str(cache_dir)]
        return argv + (["--sanitize", "full"] if sanitized else [])

    def _cli(self, argv: List[str], tracer: Any = None) -> Tuple[Pass, int, Optional[list]]:
        from repro.experiments import cli

        buf = tracer.capture() if tracer is not None else io.StringIO()
        gc.collect()
        if tracer is not None:
            tracer.enabled = True
        cpu0 = _user_cpu()
        start = time.perf_counter()
        with redirect_stdout(buf):
            rc = cli.main(argv)
        wall = time.perf_counter() - start
        cpu1 = _user_cpu()
        if tracer is not None:
            tracer.enabled = False
        try:
            reports = json.loads(buf.getvalue())
        except ValueError:
            reports = None
        return Pass(wall, cpu1 - cpu0), rc, reports

    def prepare(self) -> None:
        from workloads import comparable, fidelity, journal_points, registry_points, report_digest

        # The first (cold, unsanitized) pass is the reference every later
        # pass must reproduce; it also warms imports and lazy set-up.
        ref_dir = _fresh_dir("ref-")
        _, rc, reports = self._cli(self._argv(ref_dir, sanitized=False))
        if rc != 0 or reports is None:
            raise RuntimeError(f"reference sweep failed (exit {rc})")
        if journal_points(ref_dir) != registry_points():
            raise RuntimeError("the CLI swept other points than workloads.registry_points()")
        self.reference = {r["exp_id"]: report_digest(comparable(r)) for r in reports}
        self.fid = fidelity(reports)
        if self.warm:
            self.cache_dir = ref_dir
        else:
            shutil.rmtree(ref_dir)
        if self.warm or self.sanitized:
            self.run_pass()  # warm-up of the measured path itself

    def run_pass(self, tracer: Any = None) -> Pass:
        from repro.experiments.service import cache
        from workloads import mismatched, spurious_findings

        cache_dir = self.cache_dir if self.warm else _fresh_dir("cache-")
        p, rc, reports = self._cli(self._argv(cache_dir, self.sanitized), tracer)
        by_exp = {r["exp_id"]: r for r in reports or ()}
        if rc != 0 or reports is None:
            p.failed = set(range(len(self.points)))
            p.hard = True
        else:
            bad = mismatched(by_exp, self.reference, self.sanitized)
            p.failed |= self._indices(bad)
            p.hard = bool(bad)
            for exp_id, rep in by_exp.items():
                execution = rep.get("execution", {})
                p.attempts += execution.get("attempts", 0)
                if self.warm and execution.get("cached", 0) < execution.get("points", 0):
                    p.failed |= self._indices([exp_id])
                    p.hard = True
        if self.sanitized or tracer is not None:
            p.point_reports = [
                cache.cache_load(cache.cache_path(cache_dir, e, s)) for e, s in self.points
            ]
            # A point the CLI did not store under the path built here would
            # otherwise drop out of the sanitizer and backend counts unseen.
            missing = {i for i, rep in enumerate(p.point_reports) if rep is None}
            p.failed |= missing
            p.hard = p.hard or bool(missing)
        if self.sanitized:
            for i, ((exp_id, _), rep) in enumerate(zip(self.points, p.point_reports)):
                if rep is not None and spurious_findings(exp_id, rep.sanitizer):
                    p.failed.add(i)
        if not self.warm:
            shutil.rmtree(cache_dir)
        return p

    def close(self) -> None:
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir)


class PoolWorkload(Workload):
    """grid-pool, through ``SweepService(...).run(points)``."""

    def __init__(self, name: str, seed: int):
        super().__init__(name, seed)
        self.jobs = self.cpus = _nproc()

    def prepare(self) -> None:
        from repro.experiments.service import SweepService
        from workloads import GRID_EXPERIMENTS, fidelity, fidelity_points, report_digest

        serial = SweepService(jobs=1, use_cache=False)
        results = serial.run(self.points)
        if not all(r.ok for r in results):
            raise RuntimeError("serial reference sweep had failed points")
        self.reference = {i: report_digest(r.report.to_dict()) for i, r in enumerate(results)}
        paper = SweepService(jobs=1, use_cache=False)
        paper.run(fidelity_points())
        self.fid = fidelity([r.to_dict() for r in paper.aggregator.reports(list(GRID_EXPERIMENTS))])
        self.run_pass()  # warm-up: first pool start, lazy imports

    def run_pass(self, tracer: Any = None, jobs: Optional[int] = None) -> Pass:
        from repro.experiments.journal import SweepJournal
        from repro.experiments.service import SweepService
        from workloads import mismatched

        cache_dir = _fresh_dir("cache-")
        journal = SweepJournal(cache_dir / "sweep-journal.jsonl")
        service = SweepService(jobs=jobs or self.jobs, cache_dir=cache_dir, journal=journal)
        gc.collect()
        if tracer is not None:
            tracer.enabled = True
        cpu0 = _user_cpu()
        start = time.perf_counter()
        results = service.run(self.points)
        journal.close()
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
        _join_children()  # reaps the workers, so their CPU time counts
        cpu1 = _user_cpu()
        shutil.rmtree(cache_dir)
        reports = {i: r.report.to_dict() for i, r in enumerate(results) if r.ok}
        p = Pass(wall, cpu1 - cpu0, stats=service.stats)
        p.failed = {i for i, r in enumerate(results) if not r.ok}
        p.failed |= set(mismatched(reports, self.reference))
        p.hard = bool(p.failed)
        p.attempts = sum(r.attempts for r in results)
        p.point_reports = [r.report for r in results]
        return p


def make_workload(name: str, seed: int) -> Workload:
    if name == "grid-pool":
        return PoolWorkload(name, seed)
    return CliWorkload(name, seed)


# -- measurement -----------------------------------------------------------


def timed_passes(wl: Workload, seconds: float, tracer: Any = None, on_pass=None) -> List[Pass]:
    from calibrate import scaled

    passes: List[Pass] = []
    deadline = time.monotonic() + seconds
    cal = wl.calibrator.measure()
    while len(passes) < MIN_PASSES or time.monotonic() < deadline:
        if tracer is not None:
            tracer.reset()
        p = wl.run_pass(tracer)
        after = wl.calibrator.measure()
        p.cpu_s = scaled(p.user_s, cal, after)
        cal = after
        if on_pass is not None:
            on_pass(p)
        # Keep only the verdict: holding every pass's reports would make
        # peak RSS grow with the number of passes.
        p.point_reports = []
        passes.append(p)
    return passes


def measure_setup(workload: str, seed: int, probes: int) -> List[Tuple[float, Dict[str, Any]]]:
    """Spawn-to-ready time of fresh interpreters, scaled like the passes;
    the first is a discarded warm-up (file cache, bytecode)."""
    from calibrate import loop_s, scaled

    out = []
    cal = loop_s()
    for i in range(probes + 1):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        line = proc.stdout.readline()
        wall = time.perf_counter() - start
        proc.communicate(timeout=120)
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        after = loop_s()
        if i:
            out.append((scaled(wall, cal, after), json.loads(line)))
        cal = after
    return out


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def layer_metrics(tracer: Any, wl: Workload, p: Pass) -> Dict[str, float]:
    from workloads import spurious_findings

    total = tracer.total_s
    calls = tracer.calls

    def ms(name: str) -> float:
        return total.get(name, 0.0) * 1e3

    loads = calls["cache.load"]
    events = tracer.engine_events()
    backends = [getattr(r, "backend", None) for r in p.point_reports if r is not None]
    sanitizers = [
        (exp_id, r.sanitizer) for (exp_id, _), r in zip(wl.points, p.point_reports)
        if r is not None
    ]
    stats = p.stats
    m: Dict[str, float] = {
        "cli.render_ms": ms("cli.render"),
        "queue.build_ms": ms("queue.build"),
        "scheduler.roundtrip_ms.p50": (
            statistics.median(tracer.roundtrips_s) * 1e3 if tracer.roundtrips_s else 0.0
        ),
        "scheduler.steals": stats.steals if stats else 0,
        "scheduler.attempts_per_point": p.attempts / len(wl.points),
        "workers.pool_start_ms": ms("workers.pool_start"),
        "workers.slab_points": stats.slab_points if stats else 0,
        "workers.pickle_bytes_avoided": stats.pickle_bytes_avoided if stats else 0,
        "workers.reply_bytes": tracer.reply_bytes(),
        "cache.load_ms": ms("cache.load"),
        "cache.loads": loads,
        "cache.hit_ratio": tracer.counts["cache.hits"] / loads if loads else 0.0,
        "cache.claim_wait_ms": ms("cache.claim_wait"),
        "cache.store_ms": ms("cache.store"),
        "cache.stores": calls["cache.store"],
        "journal.records": calls["journal.write"],
        "journal.write_ms": ms("journal.write"),
        "aggregate.merge_ms": ms("aggregate.merge"),
        "backend.engine_points": sum(b in (None, "engine") for b in backends),
        "backend.analytic_points": sum(b in ("analytic", "auto") for b in backends),
        "engine.events": events,
        "engine.run_ms": ms("engine.run"),
        "engine.ns_per_event": ms("engine.run") * 1e6 / events if events else 0.0,
        "analytic.ms": ms("analytic"),
        "reduction.make_input_ms": ms("reduction.make_input"),
        "reduction.make_input_calls": calls["reduction.make_input"],
        "sanitize.events": sum((s or {}).get("events", 0) for _, s in sanitizers),
        "sanitize.check_ms": ms("sanitize.check"),
        "sanitize.spurious_findings": sum(spurious_findings(e, s) for e, s in sanitizers),
        "unattributed_ms": (p.wall_s - sum(tracer.self_s.values())) * 1e3,
        "failed_share": len(p.failed) / len(wl.points),
    }
    for exp_id in REGISTRY_IDS:
        m[f"driver.{exp_id}.ms"] = ms(f"driver.{exp_id}")
    return m


def _median_dict(rows: List[Dict[str, float]]) -> Dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def _span_table(tables: List[Dict[str, Dict[str, float]]], wall_ms: float, title: str) -> None:
    names = {n for t in tables for n in t}
    rows = []
    for name in names:
        vals = [t.get(name, {"calls": 0, "self_ms": 0.0, "total_ms": 0.0}) for t in tables]
        rows.append((
            name,
            statistics.mean(v["calls"] for v in vals),
            statistics.mean(v["self_ms"] for v in vals),
            statistics.mean(v["total_ms"] for v in vals),
        ))
    rows.sort(key=lambda r: -r[2])
    attributed = sum(r[2] for r in rows)
    print(f"{title} (per pass, mean of {len(tables)}; pass wall {wall_ms:.1f} ms)")
    print(f"  {'span':<28} {'calls':>9} {'self ms':>10} {'total ms':>10} {'self %':>7}")
    for name, ncalls, self_ms, total_ms in rows:
        print(f"  {name:<28} {ncalls:>9.0f} {self_ms:>10.2f} {total_ms:>10.2f} "
              f"{100 * self_ms / wall_ms:>6.1f}%")
    print(f"  {'(unattributed)':<28} {'':>9} {wall_ms - attributed:>10.2f} {'':>10} "
          f"{100 * (wall_ms - attributed) / wall_ms:>6.1f}%")


# -- one workload run ------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    from calibrate import Calibrator
    from workloads import points_digest

    wl = make_workload(name, seed)
    digest = points_digest(wl.points)
    # The calibration helpers end after peak RSS is read, so they are never
    # among the reaped children it counts.
    wl.calibrator = Calibrator(wl.cpus)
    try:
        wl.prepare()
        return _measure(wl, digest, seconds, trace)
    finally:
        wl.calibrator.close()
        wl.close()


def _end_to_end(wl: Workload, seconds: float) -> Tuple[Dict[str, float], List[Pass], list]:
    passes = timed_passes(wl, seconds)
    rss = peak_rss_mb()  # before the set-up probes, which are children too
    setups = measure_setup(wl.name, wl.seed, SETUP_PROBES)
    metrics = {
        "setup_s": statistics.median(w for w, _ in setups),
        "sweep_cpu_s": statistics.median(p.cpu_s for p in passes),
        "peak_rss_mb": rss,
        "fidelity.mean_rel_err": wl.fid["mean_rel_err"],
        "fidelity.max_rel_err": wl.fid["max_rel_err"],
        "fidelity.rows_within_tolerance": wl.fid["rows_within_tolerance"],
    }
    return metrics, passes, setups


def _per_layer(wl: Workload, seconds: float) -> Tuple[Dict[str, float], List[Pass], list]:
    from spans import Tracer

    untraced = timed_passes(wl, seconds / 2)
    tracer = Tracer()
    rows: List[Dict[str, float]] = []
    tables: List[Dict[str, Dict[str, float]]] = []

    def on_pass(p: Pass) -> None:
        rows.append(layer_metrics(tracer, wl, p))
        tables.append(tracer.table())

    tracer.install()
    try:
        traced = timed_passes(wl, seconds / 2, tracer, on_pass)
        if isinstance(wl, PoolWorkload):
            # Pool workers record nothing; time the worker-side layers in
            # a serial traced pass over the same points.
            tracer.reset()
            serial = wl.run_pass(tracer, jobs=1)
            worker_side = layer_metrics(tracer, wl, serial)
            serial_table = tracer.table()
    finally:
        tracer.uninstall()

    traced_ms = 1e3 * statistics.mean(p.wall_s for p in traced)
    _span_table(tables, traced_ms, "traced per-layer table"
                + (" (parent side)" if isinstance(wl, PoolWorkload) else ""))
    metrics = _median_dict(rows)
    passes = untraced + traced
    if isinstance(wl, PoolWorkload):
        _span_table([serial_table], 1e3 * serial.wall_s,
                    "worker-side layers (serial traced pass over the same points)")
        metrics.update({k: v for k, v in worker_side.items() if k.startswith(WORKER_SIDE)})
        passes.append(serial)
    metrics["trace.overhead_ms"] = 1e3 * (
        statistics.median(p.cpu_s for p in traced)
        - statistics.median(p.cpu_s for p in untraced)
    )
    metrics["sweep_wall_s"] = statistics.median(p.wall_s for p in untraced)
    setups = measure_setup(wl.name, wl.seed, 3)
    metrics["setup.import_ms"] = statistics.median(s["import_ms"] for _, s in setups)
    metrics["setup.code_version_ms"] = statistics.median(s["code_version_ms"] for _, s in setups)
    metrics["fidelity.rows_over_tolerance"] = wl.fid["rows_over_tolerance"]
    return metrics, passes, setups


def _measure(wl: Workload, digest: str, seconds: float, trace: bool) -> Dict[str, Any]:
    import numpy
    from repro.experiments.service import cache

    print(f"workload {wl.name}: seed {wl.seed}, {len(wl.points)} points/pass")
    metrics, passes, setups = (_per_layer if trace else _end_to_end)(wl, seconds)
    if any(s["points_digest"] != digest for _, s in setups):
        raise RuntimeError("set-up probe generated a different point list")
    attempted = len(wl.points) * len(passes)
    failed = sum(len(p.failed) for p in passes)
    correct = not any(p.hard for p in passes)
    names = PER_LAYER if trace else END_TO_END
    out_metrics = {k: {"value": metrics[k], "unit": unit} for k, unit in names}

    for key, unit in names:
        print(f"  {key:<34} {metrics[key]:>14.6g} {unit}")
    walls = [p.wall_s for p in passes]
    cpus = [p.cpu_s for p in passes]
    print(f"  {len(passes)} passes; failed points {failed} of {attempted} "
          f"(failed_share {failed / attempted:.6g})")
    print(f"  {'pass wall, unscaled, median':<34} {statistics.median(walls):>14.6g} s")
    print(f"  {'pass user CPU, unscaled, median':<34} "
          f"{statistics.median(p.user_s for p in passes):>14.6g} s")
    if not trace and len(passes) >= P90_MIN_PASSES:
        print(f"  {'sweep_cpu_s.p90':<34} {statistics.quantiles(cpus, n=10)[-1]:>14.6g} s "
              f"({len(passes)} passes)")
        print(f"  {'pass wall, unscaled, p90':<34} {statistics.quantiles(walls, n=10)[-1]:>14.6g} s")
    print(f"  fidelity: {wl.fid['rows']} paper-anchored rows, "
          f"{wl.fid['rows_over_tolerance']} over tolerance")
    for line in wl.fid["over"]:
        print(f"    over tolerance: {line}")

    record = {
        "workload": wl.name,
        "seed": wl.seed,
        "trace": int(trace),
        "points": len(wl.points),
        "points_digest": digest,
        "passes": len(passes),
        "seconds": seconds,
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "code_version": cache.code_version(),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
    }
    print("record: " + json.dumps(record))
    with open(WORK / "records.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({**record, "sweep_cpu_s_samples": cpus, "wall_s_samples": walls,
                             "metrics": out_metrics}) + "\n")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": out_metrics}


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own interpreter, then one summary table."""
    names = WORKLOAD_NAMES + EXTRA_WORKLOADS
    summary: Dict[str, Dict[str, Any]] = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} failed (exit {proc.returncode})", file=sys.stderr)
            return 1
        summary[name] = json.loads(lines[-1])
    print()
    print(f"{'metric':<34}{'unit':>15}" + "".join(f"{n:>20}" for n in names))
    for key, unit in PER_LAYER if trace else END_TO_END:
        print(f"{key:<34}{unit:>15}" + "".join(
            f"{summary[n]['metrics'][key]['value']:>20.6g}" for n in names))
    print(f"{'failed_share (all passes)':<34}{'ratio':>15}" + "".join(
        f"{summary[n]['failed'] / summary[n]['attempted']:>20.6g}" for n in names))
    print(f"{'correct':<34}{'':>15}" + "".join(
        f"{str(summary[n]['correct']):>20}" for n in names))
    return 0 if all(s["correct"] for s in summary.values()) else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=WORKLOAD_NAMES + EXTRA_WORKLOADS)
    target.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail(f"no program source under {ROOT / 'src'}; run from a source checkout")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    WORK.mkdir(exist_ok=True)
    tmp = WORK / "tmp"
    tmp.mkdir(exist_ok=True)
    # Keep every file the program writes inside the checkout, and run
    # without a fault-injection plan.
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["REPRO_EXPERIMENTS_CACHE"] = str(WORK / "default-cache")
    os.environ.pop("REPRO_FAULT_PLAN", None)
    sys.path.insert(0, str(ROOT / "src"))

    if args.all:
        return run_all(args.seed, args.seconds, bool(args.trace))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    # Shared-memory slabs start multiprocessing's resource tracker; stop
    # it and wait for it rather than leave it to exit after this process.
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
