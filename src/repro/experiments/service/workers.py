"""Worker fleet: process pool + shared-memory result slab + driver entry.

The execution layer of the sweep service.  Three pieces live here:

* :func:`execute_point` — the single place a driver is invoked.  Serial
  runs, pool workers, the CLI and the registry all come through here, so
  caching and error capture behave identically everywhere.
* :class:`WorkerPool` — the process-pool fleet one scheduler shard owns.
  This is the **only** module allowed to construct a
  ``ProcessPoolExecutor`` (lint rule SAN109 enforces it), so pool
  lifecycle quirks — submit racing a worker death, killing a pool whose
  workers are stuck — are handled once.
* :class:`ResultSlab` — a Synkhronos-style tagged shared-memory segment.
  The parent creates one slab per sweep with a fixed slot per point-ID;
  workers attach by name (once per process, cached) and publish the
  finished report's bytes into their point's slot instead of pickling it
  back through the result pipe.  The future's completion is the
  synchronization point: the parent only reads a slot after the worker's
  (tiny) control tuple arrives, so slots never need locks.  Oversized
  reports fall back to the pickle channel transparently.
"""

from __future__ import annotations

import struct
import sys
import traceback
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import shared_memory
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.experiments import faults
from repro.experiments.base import ExperimentReport
from repro.experiments.faults import TransientPointError
from repro.experiments.registry import get_spec
from repro.experiments.scenario import Scenario
from repro.experiments.service import cache
from repro.experiments.service.queue import (
    KIND_ERROR,
    KIND_TRANSIENT,
    PointResult,
)

__all__ = [
    "ResultSlab",
    "WorkItem",
    "WorkerPool",
    "WorkerReply",
    "execute_point",
    "worker_main",
]


# -- the single driver entry path ----------------------------------------


def _run_driver(spec: Any, scenario: Scenario) -> ExperimentReport:
    """Invoke the driver, under a sanitizer session when the scenario asks.

    ``scenario.sanitize`` installs a :class:`repro.sanitize.SanitizerSession`
    around the driver call, so every instrumented engine/scope/memory hook
    inside the driver's simulations records into one stream; the session's
    findings ride on the report (``report.sanitizer``) into ``--json`` and
    the rendered output.  A :class:`~repro.sim.engine.DeadlockError`
    escaping a sanitized driver is re-raised with the findings appended to
    its message — the captured traceback then carries the diagnosis
    (which members diverged, at which round, in which scope) instead of
    just the list of hung processes.
    """
    if scenario.sanitize is None:
        return spec.driver(scenario)
    from repro.sanitize import SanitizerSession, render_findings
    from repro.sim.engine import DeadlockError

    with SanitizerSession(scenario.sanitize) as session:
        try:
            report = spec.driver(scenario)
        except DeadlockError as exc:
            lines = render_findings(session.findings())
            if lines:
                exc.args = (
                    str(exc)
                    + "\nsanitizer findings:\n"
                    + "\n".join(f"  {line}" for line in lines),
                )
            raise
    report.sanitizer = session.summary()
    return report


def execute_point(
    exp_id: str,
    scenario: Scenario,
    use_cache: bool = True,
    cache_dir: Optional[Path] = None,
    attempt: int = 1,
) -> PointResult:
    """Run one (experiment, scenario) point: cache lookup, driver, store.

    This is the only place a driver is invoked — serial runs, pool
    workers, the CLI and the registry all come through here, so caching
    and error capture behave identically everywhere.  ``attempt`` is the
    1-based attempt number under the caller's retry policy; it selects
    which fault-plan rules fire and is recorded on the result.
    """
    spec = get_spec(exp_id)
    desc = scenario.describe()
    cdir = Path(cache_dir) if cache_dir is not None else cache.default_cache_dir()
    path = cache.cache_path(cdir, exp_id, scenario)
    claim: Optional[cache.CacheClaim] = None
    if use_cache:
        report = cache.cache_load(path)
        if report is not None:
            return PointResult(
                exp_id, scenario, report=report, cached=True, attempts=attempt
            )
        claim = cache.CacheClaim(path)
        if not claim.acquire():
            report, _ = cache.await_claimed_result(path, claim)
        if report is None:
            # Look again once the claim is ours: a rival may have published
            # and released between the lookup above and our acquire.
            report = cache.cache_load(path)
        if report is not None:
            claim.release()
            return PointResult(
                exp_id, scenario, report=report, cached=True, attempts=attempt
            )
    try:
        try:
            faults.apply_driver_faults(exp_id, desc, attempt)
            report = _run_driver(spec, scenario)
        except TransientPointError:
            return PointResult(
                exp_id, scenario, error=traceback.format_exc(),
                error_kind=KIND_TRANSIENT, attempts=attempt,
            )
        except Exception:
            return PointResult(
                exp_id, scenario, error=traceback.format_exc(),
                error_kind=KIND_ERROR, attempts=attempt,
            )
        report.scenario = scenario.to_dict()
        if scenario.backend is not None and report.backend is None:
            # The driver ignored the backend knob — this experiment has no
            # backend-routed sweeps.  Record the engine truthfully and say
            # so when something faster than the engine was requested.
            report.backend = "engine"
            if scenario.backend != "engine":
                report.notes.append(
                    f"backend={scenario.backend} requested but "
                    f"{exp_id} has no analytic-eligible sweeps; "
                    "ran on the event-precise engine"
                )
        if use_cache:
            # A cache-store failure (read-only dir, full disk) must not
            # turn a finished report into a failed point — or, worse,
            # abort the whole sweep and lose every sibling's result.  The
            # CLI's contract is that partial results always reach the
            # merged report/JSON output; the cache is an optimization, so
            # degrade to uncached and warn.
            try:
                cache.cache_store(path, report, exp_id, desc)
            except OSError as exc:
                print(
                    f"warning: could not write result cache entry {path}: {exc}",
                    file=sys.stderr,
                )
        return PointResult(exp_id, scenario, report=report, attempts=attempt)
    finally:
        if claim is not None:
            claim.release()


# -- shared-memory result slab -------------------------------------------

# Per-slot header: status byte (0 empty, 1 published), cached flag,
# 2 reserved bytes, little-endian u32 payload length.
_SLOT_HEADER = struct.Struct("<BBxxI")
DEFAULT_SLOT_BYTES = 1 << 16  # 64 KiB of payload per point


class ResultSlab:
    """Tagged shared-memory segment of per-point result slots.

    The parent creates the slab (``name=None``) sized to the sweep's
    point count; workers attach to the same tag with
    ``ResultSlab(slots, slot_bytes, name=...)``.  Exactly one worker
    writes a given slot per attempt, and the parent reads it only after
    that worker's future resolves — the pipe carries the 'published'
    signal, the slab carries the bytes.
    """

    def __init__(self, slots: int, slot_bytes: int = DEFAULT_SLOT_BYTES,
                 name: Optional[str] = None):
        self.slots = slots
        self.slot_bytes = slot_bytes
        self._stride = _SLOT_HEADER.size + slot_bytes
        size = max(1, self.slots * self._stride)
        if name is None:
            self._shm = shared_memory.SharedMemory(create=True, size=size)
            self._shm.buf[: self.slots * self._stride] = bytes(
                self.slots * self._stride
            )
            self._owner = True
        else:
            self._shm = shared_memory.SharedMemory(name=name)
            self._owner = False

    @property
    def name(self) -> str:
        """The tag workers attach by."""
        return self._shm.name

    def publish(self, index: int, data: bytes, cached: bool) -> bool:
        """Write one point's report bytes; False when the slot is too small."""
        if not 0 <= index < self.slots or len(data) > self.slot_bytes:
            return False
        base = index * self._stride
        body = base + _SLOT_HEADER.size
        self._shm.buf[body: body + len(data)] = data
        # Header written after the payload: a reader that sees status=1
        # (it only looks after the worker's future resolved) is guaranteed
        # the full payload is in place.
        self._shm.buf[base: base + _SLOT_HEADER.size] = _SLOT_HEADER.pack(
            1, 1 if cached else 0, len(data)
        )
        return True

    def take(self, index: int) -> Optional[Tuple[bytes, bool]]:
        """Read one published slot: (payload, cached), or None if empty."""
        if not 0 <= index < self.slots:
            return None
        base = index * self._stride
        status, cached, length = _SLOT_HEADER.unpack(
            bytes(self._shm.buf[base: base + _SLOT_HEADER.size])
        )
        if status != 1 or length > self.slot_bytes:
            return None
        body = base + _SLOT_HEADER.size
        return bytes(self._shm.buf[body: body + length]), bool(cached)

    def close(self) -> None:
        try:
            self._shm.close()
        except OSError:
            pass

    def unlink(self) -> None:
        """Destroy the segment (parent only; workers just close)."""
        if self._owner:
            try:
                self._shm.unlink()
            except OSError:
                pass


# One cached attachment per (process, tag): a pool worker runs many
# points of the same sweep, so it attaches once and keeps the mapping
# until process exit.
_SLAB_CACHE: Dict[str, ResultSlab] = {}


def _attach_slab(name: str, slots: int, slot_bytes: int) -> Optional[ResultSlab]:
    slab = _SLAB_CACHE.get(name)
    if slab is None:
        try:
            slab = ResultSlab(slots, slot_bytes, name=name)
        except (OSError, ValueError):
            return None  # slab gone (parent tore down): fall back to pickle
        _SLAB_CACHE[name] = slab
    return slab


# -- pool entry ----------------------------------------------------------


@dataclass(frozen=True)
class WorkItem:
    """Picklable pool payload: the scenario travels as its dict form.

    The parent's ``code_version`` travels with the payload and pins the
    worker's memo: under the ``spawn`` start method a fresh interpreter
    would otherwise recompute the digest from the filesystem mid-run, so
    a source edit during a parallel sweep could split one run across two
    cache keys (and mix results from two code states).  The parent's
    programmatic fault plan ships the same way (the env-var channel
    already survives both start methods on its own).
    """

    exp_id: str
    scenario: Dict[str, Any]
    use_cache: bool = True
    cache_dir: Optional[str] = None
    code_version: Optional[str] = None
    attempt: int = 1
    plan_json: Optional[str] = None
    index: int = 0
    slab_name: Optional[str] = None
    slab_slots: int = 0
    slab_slot_bytes: int = 0


@dataclass(frozen=True)
class WorkerReply:
    """Control-channel result: tiny when the report rode the slab."""

    exp_id: str
    report_json: Optional[str] = None
    error: Optional[str] = None
    cached: bool = False
    error_kind: Optional[str] = None
    slab_bytes: int = 0  # >0: report published to the slab slot instead


def worker_main(item: WorkItem) -> WorkerReply:
    """Top-level (picklable) pool entry."""
    if item.code_version:
        cache.pin_code_version(item.code_version)
    faults.IN_WORKER = True  # kill faults may really take this process down
    if item.plan_json is not None:
        faults.set_plan(faults.FaultPlan.from_json(item.plan_json))
    result = execute_point(
        item.exp_id,
        Scenario.from_dict(item.scenario),
        use_cache=item.use_cache,
        cache_dir=Path(item.cache_dir) if item.cache_dir else None,
        attempt=item.attempt,
    )
    if result.report is None:
        return WorkerReply(
            result.exp_id, error=result.error, cached=result.cached,
            error_kind=result.error_kind,
        )
    # Ship the JSON form: ExperimentReport is plain data either way, and
    # JSON keeps the parent <-> worker contract identical to the cache.
    report_json = result.report.to_json()
    if item.slab_name is not None:
        slab = _attach_slab(item.slab_name, item.slab_slots, item.slab_slot_bytes)
        data = report_json.encode("utf-8")
        if slab is not None and slab.publish(item.index, data, result.cached):
            return WorkerReply(
                result.exp_id, cached=result.cached, slab_bytes=len(data)
            )
    return WorkerReply(result.exp_id, report_json=report_json, cached=result.cached)


# -- the pool fleet ------------------------------------------------------


class WorkerPool:
    """One shard's process pool, with crash-tolerant submit and teardown.

    The only construction site for ``ProcessPoolExecutor`` in the
    codebase (SAN109): schedulers ask for a pool of ``max_workers`` and
    get submit/kill/restart semantics that survive worker death.
    """

    def __init__(self, max_workers: int):
        self.max_workers = max_workers
        self._pool = ProcessPoolExecutor(max_workers=max_workers)

    def submit(self, item: WorkItem) -> Future:
        """Submit one work item; recycles the pool if a worker just died."""
        from concurrent.futures.process import BrokenProcessPool

        while True:
            try:
                return self._pool.submit(worker_main, item)
            except BrokenProcessPool:
                # A worker died between the last drain and this submit;
                # recycle the pool and resubmit.
                self.restart()

    def kill(self) -> None:
        """Tear down a pool whose workers may be stuck (best effort)."""
        for proc in list(getattr(self._pool, "_processes", {}).values()):
            try:
                proc.terminate()
            except (OSError, ValueError):
                pass  # already dead/closed: that is the goal
        try:
            self._pool.shutdown(wait=False, cancel_futures=True)
        except (OSError, RuntimeError):
            pass  # pool already broken; nothing left to tear down

    def restart(self) -> None:
        self.kill()
        self._pool = ProcessPoolExecutor(max_workers=self.max_workers)

    def shutdown(self) -> None:
        self._pool.shutdown(wait=False, cancel_futures=True)
