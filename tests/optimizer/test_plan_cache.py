"""Plan cache correctness: hits, perturbation misses, eviction,
corruption.

The load-bearing properties: a hit is only served for a byte-identical
(plan, stats, platform, cluster shape) key; *any* perturbation of those
inputs re-keys; an evicted or corrupted entry recomputes to a
byte-identical decision rather than serving stale or damaged state.
"""

import dataclasses
import json

import pytest

from repro.optimizer import Optimizer, PlanCache, calibration_fingerprint
from repro.runtime.select_chain import select_chain_plan
from repro.simgpu import DeviceSpec

ROWS = {"input": 1_000_000}


def _summary_json(decision) -> str:
    return json.dumps(decision.summary(), sort_keys=True)


class TestPlanCacheUnit:
    def test_roundtrip_and_lru_eviction(self):
        cache = PlanCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1      # refreshes a's recency
        cache.put("c", 3)               # evicts b, the LRU entry
        assert "b" not in cache
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.evictions == 1

    def test_invalidate_and_counters(self):
        cache = PlanCache()
        cache.put("k", "v")
        assert cache.invalidate("k") is True
        assert cache.invalidate("k") is False
        assert cache.invalidations == 1
        assert cache.get("k") is None
        assert cache.stats()["cache.misses"] == 1

    def test_corrupted_entry_is_a_miss_not_a_value(self):
        cache = PlanCache()
        cache.put("k", {"answer": 42})
        cache._corrupt("k")
        assert cache.get("k") is None
        assert cache.corruptions == 1
        assert "k" not in cache         # dropped, not served


class TestDecisionCacheHits:
    def test_repeat_choose_hits_and_matches(self):
        opt = Optimizer(cache=PlanCache())
        plan = select_chain_plan(2)
        first = opt.choose(plan, ROWS)
        second = opt.choose(plan, ROWS)
        assert not first.cache_hit and second.cache_hit
        assert _summary_json(first) == _summary_json(second)

    def test_stats_perturbation_misses(self):
        opt = Optimizer(cache=PlanCache())
        plan = select_chain_plan(2)
        opt.choose(plan, ROWS)
        perturbed = opt.choose(plan, {"input": ROWS["input"] + 1})
        assert not perturbed.cache_hit
        assert perturbed.stats_digest != opt.choose(plan, ROWS).stats_digest

    def test_calibration_perturbation_misses(self):
        cache = PlanCache()
        plan = select_chain_plan(2)
        base = DeviceSpec()
        Optimizer(base, cache=cache).choose(plan, ROWS)
        gpu = dataclasses.replace(
            base.calib.gpu,
            mem_bw_efficiency=base.calib.gpu.mem_bw_efficiency / 2)
        slower = dataclasses.replace(
            base, calib=dataclasses.replace(base.calib, gpu=gpu))
        assert (calibration_fingerprint(slower)
                != calibration_fingerprint(base))
        retuned = Optimizer(slower, cache=cache).choose(plan, ROWS)
        assert not retuned.cache_hit

    def test_cluster_spec_perturbation_misses(self):
        cache = PlanCache()
        plan = select_chain_plan(2)
        opt = Optimizer(cache=cache)
        opt.choose(plan, ROWS, max_devices=1)
        assert not opt.choose(plan, ROWS, max_devices=2).cache_hit
        sharers = Optimizer(cache=cache, pcie_sharers=4)
        assert not sharers.choose(plan, ROWS, max_devices=1).cache_hit

    def test_eviction_recomputes_byte_identical(self):
        cache = PlanCache(capacity=1)
        opt = Optimizer(cache=cache)
        first = opt.choose(select_chain_plan(2), ROWS)
        opt.choose(select_chain_plan(3), ROWS)   # evicts the first decision
        assert first.cache_key not in cache
        recomputed = opt.choose(select_chain_plan(2), ROWS)
        assert not recomputed.cache_hit
        assert _summary_json(recomputed) == _summary_json(first)

    def test_corruption_detected_and_recomputed(self):
        cache = PlanCache()
        opt = Optimizer(cache=cache)
        first = opt.choose(select_chain_plan(2), ROWS)
        cache._corrupt(first.cache_key)
        recomputed = opt.choose(select_chain_plan(2), ROWS)
        assert not recomputed.cache_hit
        assert cache.corruptions == 1
        assert _summary_json(recomputed) == _summary_json(first)
        # and the repaired entry serves hits again
        assert opt.choose(select_chain_plan(2), ROWS).cache_hit


class TestMergeStats:
    """Pooled hit-rate accounting (docs/SERVING.md: worker caches are
    process-private; rates must merge by counts, not by ratio)."""

    def _stats(self, hits, misses, size=0, capacity=256):
        cache = PlanCache(capacity=capacity)
        cache.hits, cache.misses = hits, misses
        for i in range(size):
            cache.put(f"k{i}", i)
        return cache.stats()

    def test_counts_sum_and_rate_recomputes(self):
        merged = PlanCache.merge_stats([
            self._stats(99, 1),        # 99% on 100 lookups
            self._stats(5_000, 5_000),  # 50% on 10,000 lookups
        ])
        assert merged["cache.hits"] == 5_099
        assert merged["cache.misses"] == 5_001
        # lookup-weighted, NOT the 74.5% a ratio average would claim
        assert merged["cache.hit_rate"] == pytest.approx(0.504852, abs=1e-6)
        assert merged["cache.capacity"] == 512

    def test_empty_parts(self):
        merged = PlanCache.merge_stats([])
        assert merged["cache.hit_rate"] == 0.0
        assert merged["cache.hits"] == 0

    def test_merge_matches_single_cache_semantics(self):
        whole = self._stats(30, 10)
        split = PlanCache.merge_stats([self._stats(20, 5),
                                       self._stats(10, 5)])
        for key in ("cache.hits", "cache.misses", "cache.hit_rate"):
            assert split[key] == whole[key]
