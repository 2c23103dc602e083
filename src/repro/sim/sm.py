"""Streaming-multiprocessor level models.

Two SM-scoped mechanisms drive the paper's single-GPU results:

* **Block barriers** (``__syncthreads``): one synchronization of a
  ``w``-warp block costs ``base + per_warp_latency * w`` cycles (fits
  Tables II/IV).  Per-warp throughput ``w / L(w)`` then *rises* with the
  active warp count and saturates near the occupancy limit — exactly the
  Fig 4 curves; beyond residency, blocks time-share the SM and the
  apparent latency grows linearly again (Fig 4, upper panel).
* **Warp-sync pipelines**: warp-level sync/shuffle ops retire through a
  per-SM pipeline with an initiation interval; sustained throughput
  saturates at ``1/II`` once enough warps are in flight (the Table II
  throughput protocol: best over all thread/block configurations).

Both models are single FIFO servers with symmetric clients, so besides
the event engine they have exact closed forms on the analytic backend
(:meth:`~repro.sim.backends.analytic.AnalyticBackend.warp_sync_end_ns`,
:meth:`~repro.sim.backends.analytic.AnalyticBackend.block_sync_end_ns`).
``backend`` takes the same choices as a barrier scope
(``docs/backends.md``); ``None`` runs the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Optional

from repro.sim.arch import GPUSpec
from repro.sim.engine import Engine, Resource, Timeout
from repro.sim.occupancy import blocks_per_sm as occ_blocks_per_sm

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.backends.analytic import AnalyticBackend

__all__ = [
    "BlockSyncResult",
    "block_sync_latency_cycles",
    "simulate_block_sync",
    "WarpSyncThroughputResult",
    "simulate_warp_sync_throughput",
]


def block_sync_latency_cycles(spec: GPUSpec, warps: int) -> float:
    """Single-shot latency (cycles) of one block sync over ``warps`` warps.

    ``L(w) = base + per_warp_latency * w`` — the model behind Table IV's
    "sync ltc" row (5 syncs of a 1024-thread block: 420 cy V100 / 2135 cy
    P100).
    """
    if warps < 1:
        raise ValueError("a block has at least one warp")
    bs = spec.block_sync
    return bs.base_latency_cycles + bs.per_warp_latency_cycles * warps


def _analytic(
    backend: Optional[str], engine: Optional[Engine], subject: str
) -> Optional["AnalyticBackend"]:
    """The analytic backend when ``backend`` resolves to it for this run,
    else ``None`` (run the engine)."""
    if backend is None:
        return None
    from repro.sim.backends import BACKENDS, AnalyticBackend, resolve

    analytic = BACKENDS["analytic"]
    assert isinstance(analytic, AnalyticBackend)
    if resolve(backend, lambda: analytic.sm_ineligible_reason(engine), subject) == "engine":
        return None
    return analytic


@dataclass(frozen=True)
class BlockSyncResult:
    """Outcome of a block-sync micro-benchmark on one SM."""

    warps_per_block: int
    n_blocks: int
    repeats: int
    resident_blocks: int
    active_warps: int
    total_warps: int
    total_ns: float
    total_cycles: float

    @property
    def latency_per_sync_cycles(self) -> float:
        """Apparent per-sync latency from the launch perspective.

        With oversubscription the queued blocks extend the wall time, so
        this grows past the saturation point (Fig 4, upper panel).
        """
        return self.total_cycles / self.repeats

    @property
    def per_warp_throughput(self) -> float:
        """Warp-syncs retired per cycle (Fig 4, lower panel)."""
        total_ops = self.total_warps * self.repeats
        return total_ops / self.total_cycles if self.total_cycles else 0.0


def simulate_block_sync(
    spec: GPUSpec,
    warps_per_block: int,
    n_blocks: int,
    repeats: int = 8,
    engine: Optional[Engine] = None,
    backend: Optional[str] = None,
) -> BlockSyncResult:
    """Run ``n_blocks`` blocks of ``warps_per_block`` warps, each executing
    ``repeats`` back-to-back block syncs, on a single SM with residency
    scheduling.

    Blocks beyond the occupancy limit queue and start as residents retire —
    the time-sharing regime of Fig 4's oversubscribed right-hand side.
    """
    if warps_per_block < 1 or warps_per_block * spec.warp_size > spec.max_threads_per_block:
        raise ValueError(f"invalid warps_per_block={warps_per_block} for {spec.name}")
    if n_blocks < 1:
        raise ValueError("n_blocks must be >= 1")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")

    occ = occ_blocks_per_sm(spec, warps_per_block * spec.warp_size)
    resident_cap = max(1, occ.blocks_per_sm)
    service_ns = spec.cycles_to_ns(spec.block_sync.per_warp_service_cycles)
    latency_ns = spec.cycles_to_ns(block_sync_latency_cycles(spec, warps_per_block))
    shape = (warps_per_block, n_blocks, resident_cap, repeats)

    t0 = engine.now if engine is not None else 0.0
    end = None
    analytic = _analytic(backend, engine, "simulate_block_sync")
    if analytic is not None:
        end = analytic.block_sync_end_ns(t0, service_ns, latency_ns, *shape)
    if end is None:
        end = _block_sync_engine(engine or Engine(), service_ns, latency_ns, *shape)
    elif engine is not None:
        engine.now = end

    resident = min(n_blocks, resident_cap)
    return BlockSyncResult(
        warps_per_block=warps_per_block,
        n_blocks=n_blocks,
        repeats=repeats,
        resident_blocks=resident,
        active_warps=resident * warps_per_block,
        total_warps=n_blocks * warps_per_block,
        total_ns=end - t0,
        total_cycles=spec.ns_to_cycles(end - t0),
    )


def _block_sync_engine(
    eng: Engine,
    service_ns: float,
    latency_ns: float,
    warps_per_block: int,
    n_blocks: int,
    resident_cap: int,
    repeats: int,
) -> float:
    """Event-precise block-sync run on ``eng``; returns the end time."""
    slots = Resource(eng, capacity=resident_cap, name="sm-block-slots")
    # All resident blocks share the SM's barrier unit: arrivals drain at one
    # service interval each, so per-warp throughput saturates at
    # 1/per_warp_service_cycles no matter how blocks partition the warps
    # (the Fig 4 plateau).  A lone block is latency-bound instead.
    barrier_unit = Resource(eng, capacity=1, name="sm-barrier-unit")
    t_service = Timeout(service_ns)  # immutable: reused across every yield

    def block_proc() -> Generator:
        yield slots.acquire()
        for _ in range(repeats):
            round_start = eng.now
            for _ in range(warps_per_block):
                yield barrier_unit.acquire()
                yield t_service
                barrier_unit.release()
            remaining = latency_ns - (eng.now - round_start)
            if remaining > 0:
                yield Timeout(remaining)
        slots.release()

    for b in range(n_blocks):
        eng.process(block_proc(), name=f"block{b}")
    return eng.run()


@dataclass(frozen=True)
class WarpSyncThroughputResult:
    """Outcome of a warp-sync throughput micro-benchmark."""

    kind: str
    group_size: int
    n_warps: int
    repeats: int
    total_cycles: float
    total_ops: int

    @property
    def throughput_ops_per_cycle(self) -> float:
        return self.total_ops / self.total_cycles if self.total_cycles else 0.0


def _warp_sync_params(spec: GPUSpec, kind: str, group_size: int) -> tuple[float, float]:
    """(latency, initiation interval) in cycles for a warp-sync op kind."""
    ws = spec.warp_sync
    if kind == "tile":
        return ws.tile_latency, 1.0 / ws.tile_throughput
    if kind == "coalesced":
        if group_size >= spec.warp_size:
            return ws.coalesced_full_latency, 1.0 / ws.coalesced_full_throughput
        return ws.coalesced_partial_latency, 1.0 / ws.coalesced_partial_throughput
    if kind == "shuffle_tile":
        return ws.shuffle_tile_latency, 1.0 / ws.shuffle_tile_throughput
    if kind == "shuffle_coalesced":
        return ws.shuffle_coalesced_latency, 1.0 / ws.shuffle_coalesced_throughput
    raise ValueError(f"unknown warp sync kind {kind!r}")


def simulate_warp_sync_throughput(
    spec: GPUSpec,
    kind: str,
    group_size: int = 32,
    n_warps: int = 64,
    repeats: int = 64,
    engine: Optional[Engine] = None,
    backend: Optional[str] = None,
) -> WarpSyncThroughputResult:
    """Drive ``n_warps`` warps through ``repeats`` dependent sync ops each.

    Each op occupies the SM's sync pipeline for one initiation interval;
    a warp issues its next op one latency after the previous.  Sustained
    throughput therefore approaches ``min(n_warps/latency, 1/II)`` — the
    paper's "highest result" protocol reaches the ``1/II`` plateau.
    """
    if n_warps < 1 or repeats < 1:
        raise ValueError("n_warps and repeats must be >= 1")
    latency_cy, ii_cy = _warp_sync_params(spec, kind, group_size)
    ii_ns = spec.cycles_to_ns(ii_cy)
    tail_ns = spec.cycles_to_ns(max(0.0, latency_cy - ii_cy))

    t0 = engine.now if engine is not None else 0.0
    analytic = _analytic(backend, engine, "simulate_warp_sync_throughput")
    if analytic is None:
        end = _warp_sync_engine(engine or Engine(), ii_ns, tail_ns, n_warps, repeats)
    else:
        end = analytic.warp_sync_end_ns(t0, ii_ns, tail_ns, n_warps, repeats)
        if engine is not None:
            engine.now = end

    return WarpSyncThroughputResult(
        kind=kind,
        group_size=group_size,
        n_warps=n_warps,
        repeats=repeats,
        total_cycles=spec.ns_to_cycles(end - t0),
        total_ops=n_warps * repeats,
    )


def _warp_sync_engine(
    eng: Engine, ii_ns: float, tail_ns: float, n_warps: int, repeats: int
) -> float:
    """Event-precise warp-sync throughput run on ``eng``; returns the end
    time."""
    pipe = Resource(eng, capacity=1, name="warp-sync-pipe")
    t_ii = Timeout(ii_ns)
    t_tail = Timeout(tail_ns) if tail_ns else None

    def warp_proc() -> Generator:
        for _ in range(repeats):
            yield pipe.acquire()
            yield t_ii
            pipe.release()
            if t_tail is not None:
                yield t_tail

    for w in range(n_warps):
        eng.process(warp_proc(), name=f"warp{w}")
    return eng.run()
