"""Analytic-vs-engine equivalence: the backend correctness contract.

The analytic backend promises *bit-identical* results on every workload
it declares itself eligible for — same ``total_ns``, same per-member
per-round release trace, same observable side effects (advanced clock,
counter ops, poll detections, released rounds).  These property tests
drive random uniform workloads across every scope type, strategy and
topology and compare float-for-float, with the event-precise engine as
the oracle.

Ineligible workloads must fall back to the engine: silently under
``auto``, with a single per-(scope, reason) warning under ``analytic``.
"""

from __future__ import annotations

import dataclasses
import warnings
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments.scenario import Scenario
from repro.sanitize import events as sanitize_events
from repro.sim.arch import BlockSyncCalib, get_gpu_spec
from repro.sim.backends import (
    BACKEND_CHOICES,
    BACKENDS,
    get_backend,
    reset_fallback_warnings,
)
from repro.sim.engine import Engine, Timeout
from repro.sim.occupancy import blocks_per_sm
from repro.sim.sm import (
    block_sync_latency_cycles,
    simulate_block_sync,
    simulate_warp_sync_throughput,
)
from repro.sync.groups import (
    BlockGroup,
    GridGroup,
    HostBarrierGroup,
    MultiGridGroup,
    WarpGroup,
)
from repro.sync.strategies import CooperativeBarrier

V100 = get_gpu_spec("v100")
P100 = get_gpu_spec("p100")
SPECS = {"V100": V100, "P100": P100}


@pytest.fixture(scope="module")
def nodes():
    return {
        "DGX1": Scenario(node="DGX1").build_node(),
        "P100x2": Scenario(node="P100x2").build_node(),
    }


def assert_identical(make_group, n_syncs, members=None):
    """Run the same workload on both backends; everything must match."""
    g_eng = make_group()
    r_eng = g_eng.run_rounds(n_syncs, members=members, backend="engine")
    g_ana = make_group()
    reason = BACKENDS["analytic"].ineligible_reason(
        g_ana, n_syncs, tuple(members) if members is not None else tuple(range(g_ana.size))
    )
    assert reason is None, f"expected eligible, got: {reason}"
    r_ana = g_ana.run_rounds(n_syncs, members=members, backend="analytic")

    assert r_ana.total_ns == r_eng.total_ns  # bit-identical, no tolerance
    assert r_ana.release_ns == r_eng.release_ns
    assert r_ana.members == r_eng.members
    # Observable side effects downstream code reads.
    assert g_ana.engine.now == g_eng.engine.now
    assert g_ana.strategy.rounds_released == g_eng.strategy.rounds_released
    cp_e = getattr(g_eng.strategy, "_counter_port", None)
    cp_a = getattr(g_ana.strategy, "_counter_port", None)
    if cp_e is not None:
        assert cp_a.ops == cp_e.ops
    ch_e = getattr(g_eng.strategy, "channel", None)
    if ch_e is not None:
        assert g_ana.strategy.channel.detections == ch_e.detections
    for r in range(n_syncs):
        rnd_e, rnd_a = g_eng.round_state(r), g_ana.round_state(r)
        assert rnd_a.count == rnd_e.count
        assert rnd_a.release.fired and rnd_e.release.fired
    return r_ana


class TestGridEquivalence:
    """Fig 5 cells: the vectorized port-chain closed form."""

    @given(
        gpu=st.sampled_from(["V100", "P100"]),
        b=st.integers(min_value=1, max_value=8),
        t=st.sampled_from([32, 64, 128, 256]),
        n_syncs=st.integers(min_value=1, max_value=4),
        strategy=st.sampled_from(["cooperative", "atomic", "cpu"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_grid_bit_identical(self, gpu, b, t, n_syncs, strategy):
        spec = SPECS[gpu]
        from repro.sim.occupancy import blocks_per_sm

        if b > blocks_per_sm(spec, t).blocks_per_sm:
            return  # not co-resident: illegal cell
        assert_identical(
            lambda: GridGroup(spec, b, t, strategy=strategy), n_syncs
        )

    @given(
        t=st.sampled_from([32, 128]),
        util=st.floats(min_value=0.0, max_value=0.75),
        n_syncs=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=25, deadline=None)
    def test_grid_atomic_contention_knobs(self, t, util, n_syncs):
        knobs = {"workload_util": util, "poll_ns": 150.0}
        assert_identical(
            lambda: GridGroup(
                V100, 2, t, strategy="atomic", strategy_knobs=knobs
            ),
            n_syncs,
        )

    def test_grid_full_heatmap_cell_32x32(self):
        # The heaviest published Fig 5 cell: 2560 blocks.
        run = assert_identical(lambda: GridGroup(V100, 32, 32), 1)
        assert len(run.release_ns) == 2560


class TestFlatScopeEquivalence:
    """Warp / block / host barriers: the scalar uniform recurrence."""

    @given(
        size=st.integers(min_value=1, max_value=32),
        kind=st.sampled_from(["tile", "coalesced"]),
        gpu=st.sampled_from(["V100", "P100"]),
        n_syncs=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_warp(self, size, kind, gpu, n_syncs):
        assert_identical(
            lambda: WarpGroup(SPECS[gpu], size, kind=kind), n_syncs
        )

    @given(
        w=st.integers(min_value=1, max_value=32),
        gpu=st.sampled_from(["V100", "P100"]),
        n_syncs=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_block(self, w, gpu, n_syncs):
        assert_identical(lambda: BlockGroup(SPECS[gpu], w), n_syncs)

    @given(
        n=st.integers(min_value=1, max_value=16),
        cost=st.floats(min_value=0.0, max_value=1e5),
        n_syncs=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=30, deadline=None)
    def test_host(self, n, cost, n_syncs):
        assert_identical(lambda: HostBarrierGroup(n, cost), n_syncs)


class TestMultiGridEquivalence:
    """Figs 7/8 and the sync_methods sweep: topology-carrying release."""

    @given(
        node_name=st.sampled_from(["DGX1", "P100x2"]),
        b=st.integers(min_value=1, max_value=4),
        t=st.sampled_from([32, 128, 256]),
        n_gpus=st.integers(min_value=1, max_value=8),
        strategy=st.sampled_from(["cooperative", "atomic", "cpu"]),
        n_syncs=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_multigrid(self, nodes, node_name, b, t, n_gpus, strategy, n_syncs):
        node = nodes[node_name]
        n_gpus = min(n_gpus, node.gpu_count)
        assert_identical(
            lambda: MultiGridGroup(
                node, b, t, gpu_ids=range(n_gpus), strategy=strategy
            ),
            n_syncs,
        )

    @given(util=st.floats(min_value=0.0, max_value=0.9))
    @settings(max_examples=20, deadline=None)
    def test_multigrid_atomic_under_load(self, nodes, util):
        assert_identical(
            lambda: MultiGridGroup(
                nodes["DGX1"], 1, 32, gpu_ids=range(8),
                strategy="atomic", strategy_knobs={"workload_util": util},
            ),
            2,
        )

    def test_two_hop_topology_subset(self, nodes):
        # GPUs {0, 5} are two NVLink hops apart on the DGX-1 cube-mesh:
        # the detection lag carries the hop distance.
        assert_identical(
            lambda: MultiGridGroup(
                nodes["DGX1"], 1, 32, gpu_ids=(0, 5), strategy="atomic"
            ),
            1,
        )


@contextmanager
def closed_form_calls(name):
    """Record what the analytic backend's SM closed form ``name`` returns."""
    analytic = BACKENDS["analytic"]
    real = getattr(analytic, name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(real(*args, **kwargs))
        return calls[-1]

    setattr(analytic, name, spy)  # instance attribute shadows the method
    try:
        yield calls
    finally:
        delattr(analytic, name)


def assert_sm_identical(simulate, closed_form, *args, t0=0.0, **kwargs):
    """Run one SM model on both backends from the same idle engine clock:
    the analytic result must come from the closed form and equal the
    engine's float for float."""
    e_eng, e_ana = Engine(), Engine()
    e_eng.now = e_ana.now = t0
    ref = simulate(*args, engine=e_eng, backend="engine", **kwargs)
    with closed_form_calls(closed_form) as calls:
        got = simulate(*args, engine=e_ana, backend="analytic", **kwargs)
    assert len(calls) == 1 and calls[0] is not None, "closed form did not run"
    assert got.total_cycles == ref.total_cycles  # bit-identical
    assert got == ref
    assert e_ana.now == e_eng.now
    return got


WARP_KINDS = [
    ("tile", 32),
    ("shuffle_tile", 32),
    ("coalesced", 16),
    ("coalesced", 32),
    ("shuffle_coalesced", 32),
]
START = st.sampled_from([0.0, 1.0, 92.0, 12345.678])


class TestSMModelEquivalence:
    """Table II / Fig 4: the SM-level warp-sync and block-sync models."""

    @given(
        gpu=st.sampled_from(["V100", "P100"]),
        kind=st.sampled_from(WARP_KINDS),
        n_warps=st.integers(min_value=1, max_value=80),
        repeats=st.integers(min_value=1, max_value=40),
        t0=START,
    )
    @example(gpu="V100", kind=("tile", 32), n_warps=1, repeats=64, t0=0.0)
    @example(gpu="P100", kind=("coalesced", 16), n_warps=64, repeats=1, t0=0.0)
    @settings(max_examples=60, deadline=None)
    def test_warp_sync_throughput(self, gpu, kind, n_warps, repeats, t0):
        assert_sm_identical(
            simulate_warp_sync_throughput, "warp_sync_end_ns",
            SPECS[gpu], kind[0], kind[1], n_warps=n_warps, repeats=repeats,
            t0=t0,
        )

    @given(
        gpu=st.sampled_from(["V100", "P100"]),
        throughput=st.floats(min_value=0.05, max_value=2.0),
        latency_share=st.floats(min_value=0.0, max_value=1.0),
        n_warps=st.integers(min_value=1, max_value=40),
        repeats=st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=40, deadline=None)
    def test_warp_sync_without_tail(
        self, gpu, throughput, latency_share, n_warps, repeats
    ):
        # latency <= II: the engine yields no tail timeout (tail_ns == 0),
        # a regime no stock warp-sync kind reaches.
        latency = latency_share / throughput
        assert max(0.0, latency - 1.0 / throughput) == 0.0
        ws = dataclasses.replace(
            SPECS[gpu].warp_sync, tile_latency=latency, tile_throughput=throughput
        )
        spec = dataclasses.replace(SPECS[gpu], warp_sync=ws)
        assert_sm_identical(
            simulate_warp_sync_throughput, "warp_sync_end_ns",
            spec, "tile", 32, n_warps=n_warps, repeats=repeats,
        )

    @given(
        gpu=st.sampled_from(["V100", "P100"]),
        wpb=st.integers(min_value=1, max_value=32),
        n_blocks=st.integers(min_value=1, max_value=80),
        repeats=st.integers(min_value=1, max_value=8),
        t0=START,
    )
    @example(gpu="V100", wpb=1, n_blocks=1, repeats=1, t0=0.0)
    # Rounding-sensitive: only the engine's verbatim timeout expression
    # ``now + (latency - (now - round_start))`` lands on its end time.
    @example(gpu="P100", wpb=1, n_blocks=15, repeats=1, t0=92.0)
    @settings(max_examples=60, deadline=None)
    def test_block_sync(self, gpu, wpb, n_blocks, repeats, t0):
        assert_sm_identical(
            simulate_block_sync, "block_sync_end_ns",
            SPECS[gpu], wpb, n_blocks, repeats=repeats, t0=t0,
        )

    @given(
        gpu=st.sampled_from(["V100", "P100"]),
        wpb=st.sampled_from([1, 2, 8, 16, 32]),
        queued=st.integers(min_value=1, max_value=40),
        repeats=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_block_sync_oversubscribed(self, gpu, wpb, queued, repeats):
        # n_blocks > resident cap: queued blocks wait for residency slots.
        spec = SPECS[gpu]
        cap = blocks_per_sm(spec, wpb * spec.warp_size).blocks_per_sm
        r = assert_sm_identical(
            simulate_block_sync, "block_sync_end_ns",
            spec, wpb, cap + queued, repeats=repeats,
        )
        assert r.resident_blocks == cap < r.n_blocks

    @given(
        gpu=st.sampled_from(["V100", "P100"]),
        wpb=st.sampled_from([8, 16, 32]),
        waves=st.integers(min_value=1, max_value=4),
        repeats=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=30, deadline=None)
    def test_block_sync_service_bound_rounds(self, gpu, wpb, waves, repeats):
        # >= 64 resident warps: a round's service span reaches the sync
        # latency, so rounds end without a timeout (remaining <= 0).
        spec = SPECS[gpu]
        n_blocks = waves * (64 // wpb)
        resident = min(n_blocks, blocks_per_sm(spec, wpb * spec.warp_size).blocks_per_sm)
        span = resident * wpb * spec.block_sync.per_warp_service_cycles
        assert span >= block_sync_latency_cycles(spec, wpb)
        assert_sm_identical(
            simulate_block_sync, "block_sync_end_ns",
            spec, wpb, n_blocks, repeats=repeats,
        )

    @given(
        base=st.integers(min_value=0, max_value=60),
        per_warp=st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]),
        service=st.sampled_from([0.5, 1.0, 2.0, 3.0, 4.0]),
        wpb=st.sampled_from([1, 2, 3, 4, 8, 32]),
        n_blocks=st.integers(min_value=1, max_value=70),
        repeats=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_block_sync_tied_event_times(
        self, base, per_warp, service, wpb, n_blocks, repeats
    ):
        # A 1 GHz clock and dyadic costs put many requests, timeouts and
        # slot releases at the same instant: the replay's tie order must
        # be the engine's.
        spec = dataclasses.replace(
            V100,
            freq_mhz=1000.0,
            block_sync=BlockSyncCalib(float(base), per_warp, service),
        )
        assert_sm_identical(
            simulate_block_sync, "block_sync_end_ns",
            spec, wpb, n_blocks, repeats=repeats,
        )


class TestSMModelFallback:
    """The SM closed forms decline exactly where the scope forms do."""

    @staticmethod
    def busy_engine():
        eng = Engine()

        def other_work():
            yield Timeout(250.0)

        eng.process(other_work(), name="other-work")
        return eng

    @pytest.mark.parametrize(
        "simulate, closed_form, args",
        [
            (simulate_block_sync, "block_sync_end_ns", (V100, 8, 5)),
            (simulate_warp_sync_throughput, "warp_sync_end_ns", (V100, "tile", 32)),
        ],
    )
    def test_busy_caller_engine_runs_the_engine(self, simulate, closed_form, args):
        reset_fallback_warnings()
        ref = simulate(*args, engine=self.busy_engine())
        with closed_form_calls(closed_form) as calls:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = simulate(*args, engine=self.busy_engine(), backend="analytic")
                again = simulate(*args, engine=self.busy_engine(), backend="analytic")
                auto = simulate(*args, engine=self.busy_engine(), backend="auto")
        assert calls == []
        assert got == again == auto == ref
        fallbacks = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(fallbacks) == 1 and "pending work" in str(fallbacks[0].message)
        reset_fallback_warnings()

    @pytest.mark.parametrize(
        "simulate, closed_form, args",
        [
            (simulate_block_sync, "block_sync_end_ns", (P100, 32, 4)),
            (simulate_warp_sync_throughput, "warp_sync_end_ns", (P100, "coalesced", 16)),
        ],
    )
    def test_sanitizer_monitor_runs_the_engine(self, simulate, closed_form, args):
        ref = simulate(*args)
        sanitize_events.install(sanitize_events.SyncMonitor())
        try:
            with closed_form_calls(closed_form) as calls:
                got = simulate(*args, backend="auto")
        finally:
            sanitize_events.uninstall()
        assert calls == []
        assert got == ref

    def test_unknown_backend_name_fails_listing_choices(self):
        with pytest.raises(ValueError, match="engine, analytic, auto"):
            simulate_block_sync(V100, 4, 2, backend="bogus")
        with pytest.raises(ValueError, match="engine, analytic, auto"):
            simulate_warp_sync_throughput(V100, "tile", backend="bogus")


class TestEligibilityAndFallback:
    def test_custom_strategy_subclass_is_ineligible(self):
        class TweakedBarrier(CooperativeBarrier):
            pass

        g = WarpGroup(V100, 8, strategy=TweakedBarrier(8, 10.0))
        reason = BACKENDS["analytic"].ineligible_reason(g, 1, tuple(range(8)))
        assert reason is not None and "strategy" in reason

    def test_partial_members_are_ineligible(self):
        g = WarpGroup(V100, 8)
        reason = BACKENDS["analytic"].ineligible_reason(g, 1, (0, 1, 2))
        assert reason is not None

    def test_grid_permuted_members_are_ineligible(self):
        g = GridGroup(V100, 1, 32)
        members = tuple(reversed(range(g.total_blocks)))
        assert BACKENDS["analytic"].ineligible_reason(g, 1, members)

    def test_busy_engine_is_ineligible(self):
        eng = Engine()
        eng.process(iter([]), name="other-work")
        g = WarpGroup(V100, 8, engine=eng)
        reason = BACKENDS["analytic"].ineligible_reason(g, 1, tuple(range(8)))
        assert reason is not None and "engine" in reason

    def test_installed_sanitizer_monitor_makes_every_workload_ineligible(self):
        g = WarpGroup(V100, 8)
        assert BACKENDS["analytic"].ineligible_reason(g, 1, tuple(range(8))) is None
        sanitize_events.install(sanitize_events.SyncMonitor())
        try:
            reason = BACKENDS["analytic"].ineligible_reason(g, 1, tuple(range(8)))
        finally:
            sanitize_events.uninstall()
        assert reason is not None and "sanitizer" in reason

    def test_ineligible_falls_back_with_single_warning(self):
        reset_fallback_warnings()

        class TweakedBarrier(CooperativeBarrier):
            pass

        def run_once():
            g = WarpGroup(
                V100, 8, strategy=TweakedBarrier(8, 10.0), backend="analytic"
            )
            return g.run_rounds(1)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            r1 = run_once()
            r2 = run_once()  # same (scope, reason): no second warning
        fallbacks = [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]
        assert len(fallbacks) == 1
        assert "falling back" in str(fallbacks[0].message)
        # The fallback result is the engine result.
        ref = WarpGroup(V100, 8, strategy=TweakedBarrier(8, 10.0)).run_rounds(1)
        assert r1.total_ns == ref.total_ns == r2.total_ns
        reset_fallback_warnings()

    def test_auto_falls_back_silently(self):
        reset_fallback_warnings()

        class TweakedBarrier(CooperativeBarrier):
            pass

        g = WarpGroup(V100, 8, strategy=TweakedBarrier(8, 10.0), backend="auto")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            g.run_rounds(1)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_unknown_backend_name_fails_listing_choices(self):
        g = WarpGroup(V100, 8)
        with pytest.raises(ValueError, match="engine, analytic, auto"):
            g.run_rounds(1, backend="bogus")
        with pytest.raises(ValueError, match="engine, analytic, auto"):
            get_backend("bogus")

    def test_registry_names(self):
        assert set(BACKENDS) == {"engine", "analytic"}
        assert BACKEND_CHOICES == ("engine", "analytic", "auto")


class TestDriverLevelEquivalence:
    """Whole-report parity: the figures themselves, not just one scope."""

    def test_fig5_reports_identical(self):
        from repro.experiments.exp_sync import run_fig5

        eng = run_fig5(Scenario(gpus=("V100",), backend="engine"))
        ana = run_fig5(Scenario(gpus=("V100",), backend="analytic"))
        assert ana.rows == eng.rows
        assert ana.artifacts == eng.artifacts
        assert ana.notes == eng.notes
        assert eng.backend == "engine" and ana.backend == "analytic"

    def test_sync_methods_reports_identical(self):
        from repro.experiments.exp_sync import run_sync_methods

        eng = run_sync_methods(Scenario(gpus=("V100",), backend="engine"))
        ana = run_sync_methods(Scenario(gpus=("V100",), backend="auto"))
        assert ana.rows == eng.rows
        assert ana.artifacts == eng.artifacts
        assert ana.notes == eng.notes
