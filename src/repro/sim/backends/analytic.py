"""Closed-form vectorized execution of uniform barrier ladders, plus exact
replays of the two SM-level FIFO models of :mod:`repro.sim.sm` (Table II's
warp-sync throughput, Fig 4's block sync).

The engine's barrier workloads are *uniform*: every member runs the same
``sync()`` ladder with no data-dependent control flow, so the full
discrete-event schedule collapses to per-member virtual clocks advanced
by closed forms — broadcast adds for fixed-delay phases, a serialized
max-chain for the arrival counter, a max-reduce (last arrival) for the
release, the :class:`~repro.sim.memory.MemoryChannel` contention closed
form for spin-poll detection, and per-SM cumulative-sum chains for the
grid release ports.

Bit-identity, not approximation.  Every formula below performs the *same
IEEE-754 additions in the same order* as the engine's event walk (the
derivations are spelled out in ``docs/backends.md``), so an eligible
workload produces a :class:`~repro.sync.scope.ScopeRun` whose every
float equals the engine's — the property the equivalence suite
(``tests/sim/test_backend_equivalence.py``) pins down.  Workloads the
closed forms cannot reproduce exactly report an
:meth:`~AnalyticBackend.ineligible_reason` and the dispatcher falls back
to the engine.

Key engine facts the forms rely on (proved against ``sim/engine.py`` /
``sync/`` sources, and re-checked by the equivalence suite):

* FIFO-at-equal-time everywhere (shared seq counter), so ties resolve
  in member-creation order and the counter/port service order equals the
  member index order in every round.
* ``Resource`` release hands the slot to the oldest waiter, so ``b``
  blocks sharing one release port are served round-robin — member rank
  ``i``'s last warp grant is slot ``(wpb - 1) * b + i`` of that port's
  grant chain.
* ``numpy.cumsum`` over float64 is the same sequential left-fold of
  additions the engine performs (verified property), so the port chains
  vectorize without changing a single bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sanitize import events as _sanitize
from repro.sim.backends.base import register_backend
from repro.sync.strategies import (
    BarrierStrategy,
    CooperativeBarrier,
    CpuBarrier,
    SoftwareAtomicBarrier,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine
    from repro.sync.scope import BarrierScope, ScopeRun

__all__ = ["AnalyticBackend"]

#: Strategy classes whose counting/release protocol has an exact closed
#: form.  Exact types only — a subclass may override arrive/wait.
_EXACT_STRATEGIES = (CooperativeBarrier, SoftwareAtomicBarrier, CpuBarrier)


def _uniform_release(
    strategy: BarrierStrategy, arrive_ns: float, n: int
) -> Tuple[float, Optional[float]]:
    """Release time of one round whose ``n`` arrivals all land at
    ``arrive_ns``, plus the per-waiter detection lag (``None`` when the
    strategy has no post-release cost).

    The serialized counter chain over equal arrivals is the left fold
    ``C_k = C_{k-1} + svc`` starting from the first grant at
    ``arrive_ns`` — performed add-by-add to match the engine's floats.
    """
    cls = strategy.__class__
    if cls is CooperativeBarrier:
        port = strategy._counter_port
        if port is None:
            return arrive_ns + strategy.release_delay_ns, None
        c = arrive_ns
        svc = port.service_ns
        for _ in range(n):
            c = c + svc
        return c + strategy.release_delay_ns, None
    if cls is SoftwareAtomicBarrier:
        svc = strategy._counter_port.service_ns
        c = arrive_ns
        for _ in range(n + 1):  # n arrivals + the releaser's flag RMW
            c = c + svc
        return c, strategy.detection_lag_ns()
    # CpuBarrier: the last arrival pays the calibrated barrier cost.
    return arrive_ns + strategy.cost_ns, None


def _staggered_release(
    strategy: BarrierStrategy, arrivals: Sequence[float]
) -> Tuple[float, Optional[float]]:
    """Release time for one round with staggered (nondecreasing, in
    counter-service order) arrivals — the grid's rounds after the first.

    Counter chain: ``C_k = max(a_k, C_{k-1}) + svc`` — a busy port makes
    the next grant start at the previous completion, an idle port grants
    at the arrival instant; both cases are the engine's exact float.
    """
    cls = strategy.__class__
    if cls is CpuBarrier:
        return float(arrivals[-1]) + strategy.cost_ns, None
    if cls is CooperativeBarrier and strategy._counter_port is None:
        return float(arrivals[-1]) + strategy.release_delay_ns, None
    port = strategy._counter_port
    svc = port.service_ns
    c = float(arrivals[0])
    for a in arrivals:
        a = float(a)
        if a > c:
            c = a
        c = c + svc
    if cls is CooperativeBarrier:
        return c + strategy.release_delay_ns, None
    # SoftwareAtomicBarrier: the last-serviced member is the releaser and
    # pays a second serialized RMW for the flag write.
    return c + svc, strategy.detection_lag_ns()


# The closed forms emit no sync events, so a sanitized run would
# silently stop checking the ladder; keep the engine's stream.
_MONITOR_REASON = "a sanitizer monitor is installed (analytic emits no sync events)"
_BUSY_REASON = "engine has other pending work (non-uniform schedule)"


def _busy(engine: "Engine") -> bool:
    return bool(engine._live or engine._ready or engine._heap)


class AnalyticBackend:
    """Numpy/closed-form execution of eligible barrier workloads."""

    name = "analytic"

    # -- eligibility ------------------------------------------------------

    def ineligible_reason(
        self, scope: "BarrierScope", n_syncs: int, members: Sequence[int]
    ) -> Optional[str]:
        # Imported here (not module top) to keep backends importable
        # without dragging every scope in at package-import time.
        from repro.sync.groups import (
            BlockGroup,
            GridGroup,
            HostBarrierGroup,
            MultiGridGroup,
            WarpGroup,
        )

        if _sanitize.MONITOR is not None:
            return _MONITOR_REASON
        # Exact types only: a subclass may override the yield ladders the
        # closed forms were derived from.
        if type(scope) not in (
            WarpGroup,
            BlockGroup,
            GridGroup,
            MultiGridGroup,
            HostBarrierGroup,
        ):
            return f"unsupported scope type {type(scope).__name__}"
        strategy = scope.strategy
        if strategy.__class__ not in _EXACT_STRATEGIES:
            return f"unsupported strategy type {type(strategy).__name__}"
        if strategy.expected != scope.size:
            return (
                f"strategy expects {strategy.expected} arrivals but the "
                f"scope has {scope.size} members"
            )
        if strategy.rounds_released != 0:
            return "strategy has already released rounds"
        ids = tuple(members)
        if len(set(ids)) != len(ids):
            return "duplicate members"
        if len(ids) != scope.size:
            return (
                f"{len(ids)} participants of {scope.size} — a partial "
                "group deadlocks (engine raises DeadlockError)"
            )
        if type(scope) is GridGroup:
            if ids != tuple(range(scope.total_blocks)):
                return "grid members must be 0..total_blocks-1 in order"
        elif type(scope) is MultiGridGroup:
            # Member ids are trace labels only — the cross/local latencies
            # were baked from gpu_ids at construction — so any full-width
            # distinct id set is exact.
            if not scope.full_local_participation:
                return "partial local participation hangs the barrier"
        if _busy(scope.engine):
            return _BUSY_REASON
        return None

    def sm_ineligible_reason(self, engine: Optional["Engine"]) -> Optional[str]:
        """Eligibility of the SM-level models in :mod:`repro.sim.sm`: their
        closed forms replay a fresh (or idle caller-supplied) engine."""
        if _sanitize.MONITOR is not None:
            return _MONITOR_REASON
        if engine is not None and _busy(engine):
            return _BUSY_REASON
        return None

    # -- execution --------------------------------------------------------

    def run_rounds(
        self,
        scope: "BarrierScope",
        n_syncs: int,
        members: Tuple[int, ...],
        collect_trace: bool = True,
    ) -> "ScopeRun":
        from repro.sync.groups import GridGroup, MultiGridGroup
        from repro.sync.scope import ScopeRun

        ids = tuple(members)
        t0 = scope.engine.now
        trace: Dict[Tuple[int, int], float] = {}
        if type(scope) is GridGroup:
            final = self._run_grid(scope, n_syncs, ids, collect_trace, trace)
        elif type(scope) is MultiGridGroup:
            final = self._run_flat(
                scope,
                n_syncs,
                ids,
                collect_trace,
                trace,
                pre_ns=scope._t_arrive.delay,
                post_ns=scope._t_release_local.delay,
            )
        else:
            final = self._run_flat(scope, n_syncs, ids, collect_trace, trace)
        self._commit(scope, n_syncs, len(ids), final)
        return ScopeRun(
            members=ids, n_syncs=n_syncs, total_ns=final - t0, release_ns=trace
        )

    def _run_flat(
        self,
        scope: "BarrierScope",
        n_syncs: int,
        ids: Tuple[int, ...],
        collect_trace: bool,
        trace: Dict[Tuple[int, int], float],
        pre_ns: Optional[float] = None,
        post_ns: Optional[float] = None,
    ) -> float:
        """Warp/Block/Host/MultiGrid ladders: every round is uniform
        (all members arrive together, all finish together), so the whole
        run is a scalar recurrence.  ``pre_ns``/``post_ns`` are the
        multi-grid local-phase timeouts (``None`` = scope has none)."""
        strategy = scope.strategy
        n = len(ids)
        t = scope.engine.now
        for r in range(n_syncs):
            a = t + pre_ns if pre_ns is not None else t
            release, lag = _uniform_release(strategy, a, n)
            f = release + lag if lag is not None else release
            if post_ns is not None:
                f = f + post_ns
            if collect_trace:
                for m in ids:
                    trace[(m, r)] = f
            t = f
        return t

    def _run_grid(
        self,
        scope: "GridGroup",
        n_syncs: int,
        ids: Tuple[int, ...],
        collect_trace: bool,
        trace: Dict[Tuple[int, int], float],
    ) -> float:
        """Grid ladder: uniform arrivals in round 0, then per-SM release
        port chains stagger the members into ``blocks_per_sm`` waves that
        persist through later rounds.

        Per round: arrivals (member order, nondecreasing) -> counter
        chain -> release at ``R`` (+ detection lag) -> every port serves
        its ``b`` members round-robin for ``wpb`` warp grants each.  All
        ports carry identical grant chains, so one ``np.cumsum`` prices
        them all; member ``m`` (rank ``m // sm_count``) finishes at slot
        ``(wpb - 1) * b + rank`` — chain index ``+1`` past the start.
        """
        strategy = scope.strategy
        sm = scope.sm_count
        b = scope.blocks_per_sm
        wpb = scope.warps_per_block
        n = scope.total_blocks
        arrive_ns = scope._t_arrive.delay
        release_ns = scope._t_release.delay
        slots = wpb * b

        ranks = np.arange(n, dtype=np.intp) // sm
        step = np.empty(slots + 1, dtype=np.float64)
        step[1:] = release_ns
        finish: Optional[np.ndarray] = None
        final = scope.engine.now
        for r in range(n_syncs):
            if finish is None:
                arrive = scope.engine.now + arrive_ns
                release, lag = _uniform_release(strategy, arrive, n)
            else:
                # Broadcast add == the same scalar add per member.
                arrivals = finish + arrive_ns
                release, lag = _staggered_release(strategy, arrivals)
            step[0] = release + lag if lag is not None else release
            chain = np.cumsum(step)
            finish = chain[1 + (wpb - 1) * b + ranks]
            final = float(chain[-1])
            if collect_trace:
                for m, f in zip(ids, finish.tolist()):
                    trace[(m, r)] = f
        return final

    # -- SM-level models (sim/sm.py) --------------------------------------

    def warp_sync_end_ns(
        self,
        t0: float,
        ii_ns: float,
        tail_ns: float,
        n_warps: int,
        repeats: int,
    ) -> float:
        """End time of :func:`repro.sim.sm.simulate_warp_sync_throughput`.

        The sync pipe is a capacity-1 FIFO that every warp re-requests
        ``tail_ns`` after its previous op retired, so it serves the warps
        round-robin (a warp's next request always lands behind the
        requests of the warps served after it).  Max-plus recurrence per
        grant: ``g = max(ready[w], c); c = g + ii; ready[w] = c + tail``.
        The last event is the last warp's tail, or its retirement when
        ``tail_ns == 0`` (the engine then yields no tail timeout).
        """
        ready = [t0] * n_warps
        c = t0
        for _ in range(repeats):
            for w in range(n_warps):
                r = ready[w]
                c = (r if r > c else c) + ii_ns
                ready[w] = c + tail_ns
        return c + tail_ns if tail_ns else c

    def block_sync_end_ns(
        self,
        t0: float,
        service_ns: float,
        latency_ns: float,
        warps_per_block: int,
        n_blocks: int,
        resident_cap: int,
        repeats: int,
    ) -> Optional[float]:
        """End time of :func:`repro.sim.sm.simulate_block_sync`, or
        ``None`` when float rounding collapses two event times the replay
        must keep apart (the caller then runs the engine).

        A virtual-clock replay of the barrier unit's FIFO over the
        resident slots.  Every live slot holds exactly one pending request
        keyed like the engine's event order, ``(time, scheduled-at,
        class[, n])``: a round timeout (class 0, scheduled at the
        retirement that started it) beats the unit holder's own next
        request (class 1, scheduled at its grant), and a freed residency
        slot's next block (class 2, scheduled at the release instant, in
        release order ``n``) comes after both.  The smallest key goes
        next: a request is granted at ``g = max(request, unit free)``; a
        finished block's pending slot release admits a queued block.
        """
        # slot: [key, round_start, warps left in round (0 = pending slot
        # release), rounds left]
        slots: List[List[Any]] = [
            [(t0, t0, 2, i), t0, warps_per_block, repeats]
            for i in range(min(n_blocks, resident_cap))
        ]
        waiting = n_blocks - len(slots)
        admitted = len(slots)
        c = end = t0
        while slots:
            slot = min(slots)
            r = slot[0][0]
            if not slot[2]:
                if waiting:
                    waiting -= 1
                    slot[:] = [(r, r, 2, admitted), r, warps_per_block, repeats]
                    admitted += 1
                else:
                    slots.remove(slot)
                continue
            g = r if r > c else c
            c = g + service_ns
            if c == g:
                return None
            if slot[2] > 1:
                slot[0] = (c, g, 1)
                slot[2] -= 1
                continue
            # The block's last warp of this round retired: the engine's
            # float expression, verbatim.
            now = c
            remaining = latency_ns - (now - slot[1])
            if remaining > 0:
                f = now + remaining
                if f == now:
                    return None
                key = (f, now, 0)
            else:
                f = now
                key = (f, g, 1)
            if slot[3] > 1:
                slot[0] = key
                slot[1] = f
                slot[2] = warps_per_block
                slot[3] -= 1
                continue
            if f > end:
                end = f
            if waiting:
                slot[0] = key
                slot[2] = 0
            else:
                slots.remove(slot)
        return end

    def _commit(
        self,
        scope: "BarrierScope",
        n_syncs: int,
        n_members: int,
        final_ns: float,
    ) -> None:
        """Leave the scope/strategy/engine in the exact observable state
        the engine-backed run produces: advanced clock, released rounds,
        counter op counts, poll detections, fired release signals."""
        strategy = scope.strategy
        strategy.rounds_released += n_syncs
        cls = strategy.__class__
        if cls is CooperativeBarrier:
            if strategy._counter_port is not None:
                strategy._counter_port.ops += n_members * n_syncs
        elif cls is SoftwareAtomicBarrier:
            strategy._counter_port.ops += (n_members + 1) * n_syncs
            if strategy.channel is not None:
                strategy.channel.detections += n_members * n_syncs
        for r in range(n_syncs):
            rnd = scope.round_state(r)
            rnd.count = strategy.expected
            rnd.release.fired = True
        scope.engine.now = final_ns


register_backend(AnalyticBackend())
