"""Equivalence smoke tests for the E-MEGAFLOW trace experiment.

The full-scale run (a million flows) lives in
``benchmarks/test_bench_megaflow.py``; these tests pin the *contract*
on a short horizon: every engine combination — batched vs process
generation, fluid lane on vs off, sketch vs exact stats — produces
identical traffic tallies, and the cheap combinations only cut kernel
events. Two golden runs pin exact outcomes at the benchmark's size.
"""

import hashlib
from dataclasses import replace

import pytest

from repro.core.flow_cache import ExactMatchCache
from repro.experiments import megaflow


DURATION = 0.01  # nominal seconds: ~9k packets, fast enough for tier 1


def tallies(result):
    return (
        result.flows,
        result.flows_completed,
        result.perf.packets,
        result.delivered,
        result.dropped,
        result.emc_hits,
        result.emc_misses,
        result.emc_evictions,
    )


@pytest.fixture(scope="module")
def batched():
    return megaflow.run(duration=DURATION)


class TestEngineEquivalence:
    def test_process_engine_matches_batched(self, batched):
        process = megaflow.run(duration=DURATION, mode="process")
        assert tallies(process) == tallies(batched)
        # The whole point: same traffic, far fewer kernel events.
        assert batched.perf.events < 0.25 * process.perf.events
        assert batched.windows > 0
        assert process.windows == 0

    def test_fluid_off_matches_fluid_on(self, batched):
        off = megaflow.run(duration=DURATION, fluid=False)
        assert tallies(off) == tallies(batched)
        assert (off.absorbed, off.miss_absorbed) == (0, 0)
        # The lane absorbs flows' first packets by the classify replay.
        assert batched.miss_absorbed > 0
        assert batched.perf.events < off.perf.events

    def test_exact_stats_agree_with_sketch(self, batched):
        exact = megaflow.run(duration=DURATION, stats_mode="exact")
        assert tallies(exact) == tallies(batched)
        assert exact.sketch_bins == 0
        assert batched.sketch_bins > 0
        assert batched.delay.count == exact.delay.count
        assert batched.delay.mean == pytest.approx(exact.delay.mean)
        assert batched.delay.maximum == pytest.approx(exact.delay.maximum)
        assert batched.delay.p50 == pytest.approx(exact.delay.p50, rel=0.01)
        assert batched.delay.p99 == pytest.approx(exact.delay.p99, rel=0.02)


class TestResultShape:
    def test_result_fields_and_extra(self, batched):
        assert batched.flows > 1_000
        assert batched.delivered + batched.dropped <= batched.perf.packets
        assert batched.emc_hits + batched.emc_misses == batched.perf.packets
        extra = batched.extra()
        for key in (
            "flows", "delivered", "windows", "miss_absorbed",
            "emc_evictions", "delay_p99_nominal", "sketch_bins",
            "peak_rss_kib",
        ):
            assert key in extra
        assert batched.to_table().rows

    def test_registered_as_campaign_spec(self):
        from repro.experiments.campaign.spec import REGISTRY

        assert "megaflow" in REGISTRY


#: Exact outcomes of a 0.15-nominal-second run (the benchmark's
#: megaflow size), recorded before the fluid lane released parked
#: reorder runs itself. Seed 2024 is the one whose event count moves
#: if a released run's deliveries skip ``PacketSink.receive_later``
#: (its ``fold_interval`` re-arm); seed 7 does not see that.
GOLDEN_DURATION = 0.15
GOLDEN = {
    7: {
        "events": 13_490,
        "submitted": 150_770,
        "delivered": 141_885,
        "dropped": 8_885,
        "bins": 439,
        "bins_sha256": "24912375b078d45c18170729fc6d315e7c5f401eaad698a0e53ed3b56f520315",
        "count": 141_885,
        "sum": 4635.5526495675285,
        "min": 0.002974439999997358,
        "max": 0.23759565735926813,
        "mean": 0.032671196035997156,
        "m2": 322.0823362056986,
        "max_parked": 5,
        "tail_drops": 0,
        "max_occupancy": 1_275,
        "min_free": 11_852,
    },
    2024: {
        "events": 10_167,
        "submitted": 125_995,
        "delivered": 125_994,
        "dropped": 1,
        "bins": 210,
        "bins_sha256": "f7c86bb3d4fa1ea3352650a16b0693b6038288e1ac826bbbe1ca2af90f5617e6",
        "count": 125_994,
        "sum": 526.3198173617875,
        "min": 0.002974439999997358,
        "max": 0.024149232163861,
        "mean": 0.004177340328601406,
        "m2": 0.8508762042108013,
        "max_parked": 4,
        "tail_drops": 0,
        "max_occupancy": 129,
        "min_free": 13_004,
    },
}


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_golden_run(seed):
    """Kernel events, the sink's delay sketch and the egress
    high-water marks, exactly (floats compared bit for bit)."""
    setup = replace(megaflow.DEFAULT_SETUP, seed=seed)
    sim, nic, sink, _ = megaflow.build(setup, duration=GOLDEN_DURATION)
    sim.run(until=GOLDEN_DURATION * setup.scale * 1.02)
    sketch = sink.delay_sketch()
    bins = sorted(sketch._bins.items())
    observed = {
        "events": sim.events_executed,
        "submitted": nic.submitted,
        "delivered": sink.total_packets,
        "dropped": nic.dropped,
        "bins": len(bins),
        "bins_sha256": hashlib.sha256(repr(bins).encode()).hexdigest(),
        "count": sketch.count,
        "sum": sketch._sum,
        "min": sketch._min,
        "max": sketch._max,
        "mean": sketch._mean,
        "m2": sketch._m2,
        "max_parked": nic.reorder.max_parked,
        "tail_drops": nic.tx_ring.tail_drops,
        "max_occupancy": nic.tx_ring.max_occupancy,
        "min_free": nic.buffers.min_free,
    }
    assert observed == GOLDEN[seed]


def _classify_counts(fluid):
    """Run the short megaflow trace counting rule walks; returns the
    counters, the walks, and the lane's pre-walks that did not absorb
    and those that did (both 0 with the lane off)."""
    sim, nic, _sink, _ = megaflow.build(duration=DURATION, fluid=fluid)
    classifier = nic.app.labeler.classifier
    lane = nic._fluid
    walks = [0, 0]  # first_match calls, lane pre-walks
    first_match = classifier.first_match

    def counted_first_match(packet):
        walks[0] += 1
        return first_match(packet)

    classifier.first_match = counted_first_match
    if lane is not None:
        prewalk = lane._try_fluid_miss

        def counted_prewalk(packet):
            walks[1] += 1
            return prewalk(packet)

        lane._try_fluid_miss = counted_prewalk
    sim.run(until=DURATION * megaflow.DEFAULT_SETUP.scale * 1.02)
    cache = nic.app.labeler.cache
    counters = (
        cache.hits, cache.misses, cache.evictions, len(cache),
        classifier.lookups, classifier.misses,
    )
    absorbed = lane.miss_absorbed if lane is not None else 0
    return counters, walks[0], walks[1] - absorbed, absorbed


def test_absorbed_miss_walks_the_rules_once():
    """An absorbed EMC miss walks the classifier once: the counted
    commit reuses the lane's pre-walk. Every cache and classifier
    counter matches the run with the fluid lane off, where the
    per-packet path walks the rules once per lookup."""
    counters, walks, unabsorbed_prewalks, absorbed = _classify_counts(True)
    plain, plain_walks, _, plain_absorbed = _classify_counts(False)
    assert counters == plain
    assert absorbed > 1_000 and plain_absorbed == 0
    lookups = counters[4]
    assert plain_walks == lookups
    # One walk per lookup, plus the real path's own walk for a packet
    # the lane pre-walked but then spilled.
    assert walks == lookups + unabsorbed_prewalks


def _churn_counts(fluid):
    """Run the short megaflow trace through a 256-entry EMC, so the
    cache evicts as it does late in the benchmark's run; returns the
    cache counters with the sink's tallies, and the misses the fluid
    lane absorbed."""
    sim, nic, sink, _ = megaflow.build(duration=DURATION, fluid=fluid)
    cache = nic.app.labeler.cache = ExactMatchCache(256)
    sim.run(until=DURATION * megaflow.DEFAULT_SETUP.scale * 1.02)
    return {
        "hits": cache.hits,
        "misses": cache.misses,
        "evictions": cache.evictions,
        "delivered": sink.total_packets,
        "dropped": nic.dropped,
        "app_bytes": sink.bytes,
    }, nic._fluid.miss_absorbed if nic._fluid is not None else 0


def test_emc_eviction_churn_matches_with_fluid_lane_off():
    """EMC evictions under the fluid lane's classify replay: every
    counter and tally matches the run with the lane off."""
    on, absorbed = _churn_counts(True)
    off, off_absorbed = _churn_counts(False)
    assert on == off
    assert on["evictions"] > 1_000 and on["hits"] > 0
    assert absorbed > 1_000 and off_absorbed == 0
