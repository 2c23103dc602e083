"""Tests for the warp-level reduction variants (Table V)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.paper_data import TABLE5_CYCLES
from repro.reduction import warp
from repro.reduction.warp import (
    WARP_REDUCE_METHODS,
    table5_rows,
    warp_reduce_latency_cycles,
    warp_reduce_value,
)
from repro.sanitize import events as sanitize_events

CORRECT_METHODS = tuple(m for m in WARP_REDUCE_METHODS if m != "nosync")

values_strategy = st.lists(
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    min_size=32,
    max_size=32,
)


class TestSemantics:
    @pytest.mark.parametrize("method", CORRECT_METHODS)
    def test_correct_methods_sum_exactly(self, method):
        rng = np.random.default_rng(3)
        vals = rng.uniform(-5, 5, 32)
        out = warp_reduce_value(vals, method)
        assert out.correct
        assert out.value == pytest.approx(vals.sum())

    def test_nosync_is_wrong_and_flagged(self):
        rng = np.random.default_rng(4)
        vals = rng.uniform(1.0, 2.0, 32)
        out = warp_reduce_value(vals, "nosync")
        assert out.race_detected
        assert not out.correct
        assert out.value != pytest.approx(vals.sum())

    def test_nosync_reads_stale_initials(self):
        """The stale-read tree sums exactly the slots {0,16,8,4,2,1} of the
        original array — the classic missing-barrier failure."""
        vals = np.arange(32, dtype=float)
        out = warp_reduce_value(vals, "nosync")
        assert out.value == pytest.approx(sum(vals[i] for i in (0, 16, 8, 4, 2, 1)))

    def test_all_zeros_makes_nosync_accidentally_right(self):
        out = warp_reduce_value(np.zeros(32), "nosync")
        # The race exists even when the numbers happen to agree.
        assert out.race_detected

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            warp_reduce_value(np.zeros(16), "tile")

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            warp_reduce_value(np.zeros(32), "magic")

    @given(values_strategy)
    @settings(max_examples=60, deadline=None)
    def test_synced_variants_agree_with_numpy_sum(self, vals):
        arr = np.array(vals)
        for method in ("tile", "volatile", "tile_shuffle"):
            out = warp_reduce_value(arr, method)
            assert np.isclose(out.value, arr.sum(), rtol=1e-9, atol=1e-9)

    @given(values_strategy)
    @settings(max_examples=40, deadline=None)
    def test_shuffle_and_shared_trees_agree(self, vals):
        arr = np.array(vals)
        a = warp_reduce_value(arr, "tile").value
        b = warp_reduce_value(arr, "coalesced_shuffle").value
        assert np.isclose(a, b, rtol=1e-9, atol=1e-9)


class TestTiming:
    @pytest.mark.parametrize("method", WARP_REDUCE_METHODS)
    def test_latency_matches_table5(self, spec, method):
        paper = TABLE5_CYCLES[spec.name][method]
        measured = warp_reduce_latency_cycles(spec, method)
        assert measured == pytest.approx(paper, rel=0.04), method

    def test_nosync_fastest(self, spec):
        lats = {m: warp_reduce_latency_cycles(spec, m) for m in WARP_REDUCE_METHODS}
        assert min(lats, key=lats.get) == "nosync"

    def test_tile_shuffle_fastest_correct_parallel_variant(self, spec):
        lats = {m: warp_reduce_latency_cycles(spec, m) for m in CORRECT_METHODS}
        parallel = {m: v for m, v in lats.items() if m != "serial"}
        assert min(parallel, key=parallel.get) == "tile_shuffle"

    def test_coalesced_shuffle_most_expensive(self, spec):
        lats = {m: warp_reduce_latency_cycles(spec, m) for m in WARP_REDUCE_METHODS}
        assert max(lats, key=lats.get) == "coalesced_shuffle"

    def test_unknown_method_rejected(self, spec):
        with pytest.raises(ValueError):
            warp_reduce_latency_cycles(spec, "magic")

    @pytest.mark.parametrize("method", WARP_REDUCE_METHODS)
    def test_memoized_latency_equals_a_fresh_simulation(self, spec, method):
        memo = warp._latency_cycles
        assert warp_reduce_latency_cycles(spec, method) == memo.__wrapped__(spec, method)
        hits = memo.cache_info().hits
        warp_reduce_latency_cycles(spec, method)
        assert memo.cache_info().hits == hits + 1

    def test_sanitized_run_resimulates(self, spec):
        warp_reduce_latency_cycles(spec, "tile")  # memoized
        monitor = sanitize_events.install(sanitize_events.SyncMonitor())
        try:
            warp_reduce_latency_cycles(spec, "tile")
        finally:
            sanitize_events.uninstall()
        assert monitor.events


class TestTable5Rows:
    def test_rows_complete_and_flagged(self, spec):
        rows = table5_rows(spec)
        assert set(rows) == set(WARP_REDUCE_METHODS)
        assert not rows["nosync"]["correct"]
        for m in CORRECT_METHODS:
            assert rows[m]["correct"], m
