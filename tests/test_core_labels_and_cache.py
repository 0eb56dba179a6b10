"""Tests for QoS labels, the exact-match flow cache, and the labeling
function."""

import tracemalloc

import pytest

from repro.core import ExactMatchCache, FlowValveFrontend, QosLabel
from repro.core.sched_tree import SchedulingParams
from repro.errors import CapacityError, UnknownClassError
from repro.net import FiveTuple, PacketFactory

SCRIPT = """
fv qdisc add dev eth0 root handle 1: fv default 0
fv class add dev eth0 parent 1: classid 1:1 fv rate 10mbit ceil 10mbit
fv class add dev eth0 parent 1:1 classid 1:2 fv weight 1
fv class add dev eth0 parent 1:2 classid 1:10 fv weight 1 borrow 1:20
fv class add dev eth0 parent 1:2 classid 1:20 fv weight 1
fv filter add dev eth0 parent 1: match app=A flowid 1:10
fv filter add dev eth0 parent 1: match app=B flowid 1:20
"""


@pytest.fixture
def frontend():
    return FlowValveFrontend.from_script(
        SCRIPT, link_rate_bps=10e6,
        params=SchedulingParams(update_interval=0.1, expire_after=1.0),
    )


class TestQosLabel:
    def test_leaf_and_root(self):
        label = QosLabel(hierarchy=("1:1", "1:2", "1:10"), borrow=("1:20",))
        assert label.leaf == "1:10"
        assert label.root == "1:1"
        assert label.depth == 3

    def test_empty_hierarchy_rejected(self):
        with pytest.raises(ValueError):
            QosLabel(hierarchy=())

    def test_apply_to_packet(self):
        label = QosLabel(hierarchy=("1:1", "1:10"), borrow=("1:20",))
        packet = PacketFactory().make(64, FiveTuple("a", "b", 1, 2), 0.0)
        label.apply_to(packet)
        assert packet.hierarchy_label == ("1:1", "1:10")
        assert packet.borrow_label == ("1:20",)

    def test_str_rendering(self):
        label = QosLabel(hierarchy=("1:1", "1:10"), borrow=("1:20",))
        assert "1:1->1:10" in str(label)
        assert "1:20" in str(label)


class TestExactMatchCache:
    def test_hit_after_put(self):
        cache = ExactMatchCache(capacity=4)
        cache.put("k", "v")
        assert cache.get("k") == "v"
        assert cache.hits == 1

    def test_miss_counted(self):
        cache = ExactMatchCache(capacity=4)
        assert cache.get("absent") is None
        assert cache.misses == 1

    def test_lru_eviction_order(self):
        cache = ExactMatchCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh a
        cache.put("c", 3)       # evicts b (least recently used)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.evictions == 1

    def test_zero_capacity_rejected(self):
        with pytest.raises(CapacityError):
            ExactMatchCache(capacity=0)

    def test_hit_ratio(self):
        cache = ExactMatchCache(capacity=4)
        cache.put("k", "v")
        cache.get("k")
        cache.get("x")
        assert cache.hit_ratio == pytest.approx(0.5)

    def test_entry_retains_no_per_entry_wrapper(self):
        # An entry is the key's ordered-dict slot holding the shared
        # value. The bound sits between that map's ~75 B/entry and the
        # ~146 B/entry a per-entry [value, timestamp] list would add up
        # to (~170 with a distinct timestamp float per entry).
        label = QosLabel(hierarchy=("1:1", "1:10"))
        keys = [(FiveTuple("10.0.0.1", "10.0.1.1", port, 5001), 0, "A")
                for port in range(10_000)]
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cache = ExactMatchCache(capacity=len(keys))
            for key in keys:
                cache.put(key, label)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert len(cache) == len(keys)
        assert retained / len(keys) < 120


class TestExactMatchCacheExpiry:
    """The EMC has no idle expiry: an entry leaves only when a full
    cache displaces it (an eviction)."""

    def test_put_displacing_live_head_is_still_eviction(self):
        cache = ExactMatchCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # capacity pressure displaces the LRU head
        assert cache.evictions == 1
        assert cache.get("a") is None
        assert (cache.get("b"), cache.get("c")) == (2, 3)

    def test_put_without_timeout_never_expires(self):
        cache = ExactMatchCache(capacity=1)
        cache.put("a", 1)
        for _ in range(1_000):
            assert cache.get("a") == 1
        cache.put("b", 2)
        assert cache.evictions == 1
        assert len(cache) == 1

    def test_million_entry_churn_stays_bounded_and_books_evictions(self):
        # One million distinct flows through a small cache: the
        # footprint stays at capacity and every displacement of a
        # resident entry is booked as an eviction.
        capacity = 64
        cache = ExactMatchCache(capacity=capacity)
        n = 1_000_000
        for i in range(n):
            cache.put(i, i)
        assert len(cache) == capacity
        assert cache.evictions == n - capacity
        assert list(cache._entries) == list(range(n - capacity, n))


class TestLabelingFunction:
    def test_hierarchy_path_is_root_to_leaf(self, frontend):
        packet = PacketFactory().make(64, FiveTuple("a", "b", 1, 2), 0.0, app="A")
        label = frontend.labeler.label(packet)
        assert label.hierarchy == ("1:1", "1:2", "1:10")
        assert label.borrow == ("1:20",)

    def test_second_packet_hits_cache(self, frontend):
        factory = PacketFactory()
        flow = FiveTuple("a", "b", 1, 2)
        frontend.labeler.label(factory.make(64, flow, 0.0, app="A"))
        lookups_before = frontend.classifier.lookups
        frontend.labeler.label(factory.make(64, flow, 0.0, app="A"))
        assert frontend.classifier.lookups == lookups_before  # slow path skipped

    def test_distinct_flows_distinct_entries(self, frontend):
        factory = PacketFactory()
        frontend.labeler.label(factory.make(64, FiveTuple("a", "b", 1, 2), 0.0, app="A"))
        frontend.labeler.label(factory.make(64, FiveTuple("c", "d", 3, 4), 0.0, app="B"))
        assert len(frontend.labeler.cache) == 2

    def test_apps_sharing_a_flow_get_their_own_labels(self, frontend):
        # The filters match on app: one five-tuple and VF carrying two
        # apps is two EMC entries, not the first app's label twice.
        factory = PacketFactory()
        flow = FiveTuple("a", "b", 1, 2)
        label_a = frontend.labeler.label(factory.make(64, flow, 0.0, app="A"))
        label_b = frontend.labeler.label(factory.make(64, flow, 0.0, app="B"))
        assert (label_a.leaf, label_b.leaf) == ("1:10", "1:20")
        assert len(frontend.labeler.cache) == 2

    def test_unmatched_without_default_dropped(self, frontend):
        packet = PacketFactory().make(64, FiveTuple("a", "b", 1, 2), 0.0, app="Z")
        assert frontend.labeler.label(packet) is None
        assert packet.dropped
        assert frontend.labeler.unclassified_drops == 1

    def test_label_for_unknown_leaf_raises(self, frontend):
        with pytest.raises(UnknownClassError):
            frontend.labeler.label_for_leaf("9:99")


class TestFrontend:
    def test_describe_mentions_classes_and_filters(self, frontend):
        text = frontend.describe()
        assert "4 classes" in text
        assert "2 filters" in text

    def test_class_rates_snapshot(self, frontend):
        rates = frontend.class_rates()
        assert set(rates) == {"1:1", "1:2", "1:10", "1:20"}
        theta, gamma = rates["1:1"]
        assert theta == pytest.approx(0.97 * 10e6)
        assert gamma == 0.0

    def test_invalid_policy_rejected_at_construction(self):
        bad = SCRIPT + "fv filter add dev eth0 parent 1: match app=X flowid 9:99\n"
        from repro.errors import ValidationError

        with pytest.raises(ValidationError):
            FlowValveFrontend.from_script(bad, link_rate_bps=10e6)
