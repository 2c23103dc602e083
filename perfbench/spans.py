"""Outside-in tracing for the benchmark: spans around calls into each layer.

A :class:`Tracer` wraps public functions and methods of the program's
layers with span recorders, from outside the package, and removes every
wrapper again on :meth:`Tracer.uninstall`.  Spans live in memory only;
each closed span adds its duration to its name's *total* (outermost
occurrence of that name only) and its *self* time (duration minus the
time covered by child spans) to its name's self time.

Only the process and thread that installed the tracer record spans:
pool workers forked while the tracer is installed inherit the wrappers
but call straight through, so a traced parallel sweep records
parent-side spans only.
"""

from __future__ import annotations

import dataclasses
import functools
import io
import json
import os
import pickle
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Tuple

__all__ = ["Tracer", "patch_targets"]


class Tracer:
    """In-memory span recorder plus the patch set that feeds it."""

    def __init__(self) -> None:
        self._pid = os.getpid()
        self._thread = threading.get_ident()
        self._patches: List[Tuple[str, Any, str, Any]] = []
        self.enabled = False
        self.reset()

    # -- recording -------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far (one traced pass starts)."""
        self._stack: List[List[Any]] = []  # [name, start, child seconds]
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.roundtrips_s: List[float] = []
        self.futures: List[Any] = []
        self.engines: List[Any] = []
        self._started_pools: set = set()

    def active(self) -> bool:
        return (
            self.enabled
            and os.getpid() == self._pid
            and threading.get_ident() == self._thread
        )

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        dur = time.perf_counter() - start
        self.self_s[name] += dur - child
        self.calls[name] += 1
        if all(frame[0] != name for frame in self._stack):
            self.total_s[name] += dur
        if self._stack:
            self._stack[-1][2] += dur

    def wrap(self, name: str, fn: Callable, top_only: bool = False) -> Callable:
        """``fn`` inside a span called ``name``.

        ``top_only`` records the span only when no other span is open, for
        calls the entry point makes itself (rendering) that deeper layers
        also make (serialization inside the cache).
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active() or (top_only and tracer._stack):
                return fn(*args, **kwargs)
            tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        return wrapper

    def capture(self) -> io.StringIO:
        """A stdout buffer whose writes by the entry point count as render."""
        tracer = self

        class _Capture(io.StringIO):
            def write(self, s: str) -> int:
                if not tracer.active() or tracer._stack:
                    return super().write(s)
                tracer.enter("cli.render")
                try:
                    return super().write(s)
                finally:
                    tracer.exit()

        return _Capture()

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary listed in :func:`patch_targets`.

        Every target is an object's own attribute (a module's or class's
        ``vars``) or a mapping's item, so putting the original back undoes
        the patch.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        for kind, owner, attr, new in patch_targets(self):
            if kind == "item":
                self._patches.append((kind, owner, attr, owner[attr]))
                owner[attr] = new
            else:
                self._patches.append((kind, owner, attr, vars(owner)[attr]))
                setattr(owner, attr, new)

    def uninstall(self) -> None:
        """Put every original object back, in reverse patch order."""
        while self._patches:
            kind, owner, attr, original = self._patches.pop()
            if kind == "item":
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self.enabled = False

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    # -- derived figures -------------------------------------------------

    def reply_bytes(self) -> int:
        """Pickled size of every worker reply the traced pool passes got."""
        total = 0
        for fut in self.futures:
            if fut.done() and not fut.cancelled() and fut.exception() is None:
                total += len(pickle.dumps(fut.result()))
        return total

    def engine_events(self) -> int:
        return sum(e.event_count for e in self.engines)

    def table(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {
                "calls": self.calls[name],
                "self_ms": self.self_s[name] * 1e3,
                "total_ms": self.total_s[name] * 1e3,
            }
            for name in self.calls
        }


def _method(tracer: Tracer, cls: type, attr: str, name: str, **kw: Any):
    return ("attr", cls, attr, tracer.wrap(name, vars(cls)[attr], **kw))


def _classmethod(tracer: Tracer, cls: type, attr: str, name: str):
    raw = vars(cls)[attr]
    return ("attr", cls, attr, classmethod(tracer.wrap(name, raw.__func__)))


def _function(tracer: Tracer, module: Any, attr: str, name: str, **kw: Any):
    return ("attr", module, attr, tracer.wrap(name, vars(module)[attr], **kw))


def patch_targets(tracer: Tracer) -> List[Tuple[str, Any, str, Any]]:
    """Every (kind, owner, attribute, replacement) the traced run installs.

    Functions imported by name are patched in each module that looks them
    up, so every caller goes through the wrapper.
    """
    from repro import reduction
    from repro.experiments import base, journal, registry
    from repro.experiments import service as service_pkg
    from repro.experiments.service import aggregate, cache, queue, scheduler, workers
    from repro.reduction import device
    from repro.sanitize import checker
    from repro.sim import engine
    from repro.sim.backends import analytic

    report_cls = base.ExperimentReport
    targets = [
        # cli: rendering of the merged reports by the entry point itself.
        _method(tracer, report_cls, "to_dict", "cli.render", top_only=True),
        _method(tracer, report_cls, "render", "cli.render", top_only=True),
        ("attr", json, "dumps", tracer.wrap("cli.render", json.dumps, top_only=True)),
        # report (de)serialization, wherever it happens.
        _method(tracer, report_cls, "to_json", "serde.to_json"),
        _classmethod(tracer, report_cls, "from_json", "serde.from_json"),
        # service.queue
        _classmethod(tracer, queue.JobQueue, "from_points", "queue.build"),
        _method(tracer, queue.JobQueue, "ready", "queue.ops"),
        _method(tracer, queue.JobQueue, "pending", "queue.ops"),
        _method(tracer, queue.JobQueue, "steal", "queue.ops"),
        # service.scheduler
        _method(tracer, scheduler.ShardScheduler, "run", "scheduler.run"),
        _function(tracer, service_pkg, "run_serial", "scheduler.serial"),
        # service.workers
        _function(tracer, scheduler, "execute_point", "workers.execute"),
        _function(tracer, workers, "execute_point", "workers.execute"),
        _method(tracer, workers.WorkerPool, "__init__", "workers.pool_start"),
        _method(tracer, workers.WorkerPool, "shutdown", "workers.shutdown"),
        _method(tracer, workers.ResultSlab, "__init__", "workers.slab"),
        _method(tracer, workers.ResultSlab, "take", "workers.slab"),
        ("attr", workers.WorkerPool, "submit",
         _traced_submit(tracer, vars(workers.WorkerPool)["submit"])),
        # service.cache
        ("attr", cache, "cache_load", _traced_load(tracer, cache.cache_load)),
        _function(tracer, cache, "cache_store", "cache.store"),
        _function(tracer, cache, "await_claimed_result", "cache.claim_wait"),
        _method(tracer, cache.CacheClaim, "acquire", "cache.claim"),
        _method(tracer, cache.CacheClaim, "release", "cache.claim"),
        # journal
        _method(tracer, journal.SweepJournal, "sweep_start", "journal.write"),
        _method(tracer, journal.SweepJournal, "point_start", "journal.write"),
        _method(tracer, journal.SweepJournal, "point_finish", "journal.write"),
        _method(tracer, journal.SweepJournal, "point_fail", "journal.write"),
        # service.aggregate
        _method(tracer, aggregate.ReportAggregator, "add", "aggregate.merge"),
        _method(tracer, aggregate.ReportAggregator, "reports", "aggregate.merge"),
        _method(tracer, aggregate.ReportAggregator, "execution_stats",
                "aggregate.merge"),
        # sim.backends.analytic, sim.engine
        _method(tracer, analytic.AnalyticBackend, "run_rounds", "analytic"),
        _method(tracer, engine.Engine, "run", "engine.run"),
        ("attr", engine.Engine, "__init__",
         _counting_init(tracer, vars(engine.Engine)["__init__"])),
        # reduction
        _function(tracer, device, "make_input", "reduction.make_input"),
        _function(tracer, reduction, "make_input", "reduction.make_input"),
        # sanitize
        _function(tracer, checker, "run_checks", "sanitize.check"),
    ]
    # Drivers: one span per registry id, through the spec's public driver.
    for exp_id, spec in registry.EXPERIMENTS.items():
        wrapped = dataclasses.replace(
            spec, driver=tracer.wrap(f"driver.{exp_id}", spec.driver)
        )
        targets.append(("item", registry.EXPERIMENTS, exp_id, wrapped))
    return targets


def _traced_submit(tracer: Tracer, submit: Callable) -> Callable:
    """Pool submit: the first submit of a pool forks its workers, so it
    counts as pool start; every future's submit-to-done time is kept."""

    @functools.wraps(submit)
    def wrapper(pool: Any, item: Any) -> Any:
        if not tracer.active():
            return submit(pool, item)
        first = id(pool) not in tracer._started_pools
        tracer._started_pools.add(id(pool))
        tracer.enter("workers.pool_start" if first else "workers.submit")
        start = time.perf_counter()
        try:
            fut = submit(pool, item)
        finally:
            tracer.exit()
        # Bind this pass's list now: the callback runs on the executor's
        # thread and may land after the pass's figures are read.
        roundtrips = tracer.roundtrips_s
        fut.add_done_callback(
            lambda f: roundtrips.append(time.perf_counter() - start)
        )
        tracer.futures.append(fut)
        return fut

    return wrapper


def _traced_load(tracer: Tracer, load: Callable) -> Callable:
    inner = tracer.wrap("cache.load", load)

    @functools.wraps(load)
    def wrapper(path: Any) -> Any:
        report = inner(path)
        if tracer.active():
            tracer.counts["cache.hits"] += report is not None
        return report

    return wrapper


def _counting_init(tracer: Tracer, init: Callable) -> Callable:
    """Engine construction hook, as ``benchmarks/conftest.py`` counts events."""

    @functools.wraps(init)
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> None:
        init(self, *args, **kwargs)
        if tracer.active():
            tracer.engines.append(self)

    return wrapper
