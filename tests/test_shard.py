"""Unit tests for the shard planner and record routing (repro.sim.shard).

The end-to-end byte-identity contract lives in
``test_shard_determinism.py``; this file pins the plan-time pieces:
partitioning, barrier tiling, the zero-lookahead guard, and the total
order of cross-domain record routing (including the properties that a
window barrier can never reorder a stream it splits, and that a shard
routing its own trains gets the trains one router would).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.net.boundary import WIRE_FLOW, BoundaryOutbox
from repro.net.packet import Packet
from repro.sim import BoundaryWire, ShardPlan
from repro.sim.shard import _exchange, route_records


def _wire(src="a", dst="b", lookahead=0.1):
    return BoundaryWire(src=src, dst=dst, lookahead=lookahead)


class TestShardPlanBuild:
    def test_contiguous_block_partition(self):
        plan = ShardPlan.build(["a", "b", "c", "d"], shards=2)
        assert plan.assignment == (0, 0, 1, 1)
        assert plan.n_shards == 2

    def test_uneven_partition_front_loads(self):
        plan = ShardPlan.build(list("abcde"), shards=2)
        assert plan.assignment == (0, 0, 0, 1, 1)

    def test_shards_clamped_to_domain_count(self):
        plan = ShardPlan.build(["a", "b"], shards=8)
        assert plan.n_shards == 2
        assert plan.assignment == (0, 1)

    def test_shard_of_and_domains_of(self):
        plan = ShardPlan.build(["a", "b", "c", "d"], shards=2)
        assert plan.shard_of("a") == 0 and plan.shard_of("d") == 1
        assert plan.domains_of(0) == (0, 1)
        assert plan.domains_of(1) == (2, 3)

    def test_no_domains_rejected(self):
        with pytest.raises(SimulationError, match="no domains"):
            ShardPlan.build([])

    def test_duplicate_domains_rejected(self):
        with pytest.raises(SimulationError, match="duplicate"):
            ShardPlan.build(["a", "a"])

    def test_bad_shard_count_rejected(self):
        with pytest.raises(SimulationError, match="shards"):
            ShardPlan.build(["a"], shards=0)

    def test_unknown_boundary_domain_rejected(self):
        with pytest.raises(SimulationError, match="unknown domain"):
            ShardPlan.build(["a"], [_wire("a", "ghost")])

    def test_lookahead_is_minimum_over_wires(self):
        plan = ShardPlan.build(
            ["a", "b"],
            [_wire("a", "b", 0.5), _wire("b", "a", 0.2)],
            shards=2,
        )
        assert plan.lookahead == pytest.approx(0.2)
        assert plan.window == pytest.approx(0.2)

    def test_window_override_below_lookahead(self):
        plan = ShardPlan.build(["a", "b"], [_wire()], shards=2, window=0.05)
        assert plan.window == pytest.approx(0.05)

    def test_window_above_lookahead_rejected(self):
        with pytest.raises(SimulationError, match="exceeds the lookahead"):
            ShardPlan.build(["a", "b"], [_wire(lookahead=0.1)], window=0.2)

    def test_nonpositive_window_rejected(self):
        with pytest.raises(SimulationError, match="window must be positive"):
            ShardPlan.build(["a", "b"], [_wire()], window=0.0)

    def test_independent_domains_need_no_window(self):
        plan = ShardPlan.build(["a", "b"], shards=2)
        assert plan.window is None
        assert plan.barriers(10.0) == (10.0,)


class TestZeroLookaheadGuard:
    def test_falls_back_to_single_degraded_shard(self):
        with pytest.warns(UserWarning, match="zero propagation delay"):
            plan = ShardPlan.build(
                ["a", "b"], [_wire(lookahead=0.0)], shards=2
            )
        assert plan.degraded
        assert plan.n_shards == 1
        assert plan.assignment == (0, 0)
        assert plan.window is None and plan.lookahead is None

    def test_warning_names_the_culprit_wire(self):
        wires = [_wire("a", "b", 0.5), _wire("b", "a", 0.0)]
        with pytest.warns(UserWarning, match="b->a"):
            ShardPlan.build(["a", "b"], wires, shards=2)

    def test_degraded_plan_runs_one_open_window(self):
        with pytest.warns(UserWarning):
            plan = ShardPlan.build(["a", "b"], [_wire(lookahead=0.0)], shards=4)
        assert plan.barriers(3.0) == (3.0,)


class TestBarriers:
    def test_tiling_ends_exactly_at_duration(self):
        plan = ShardPlan.build(["a", "b"], [_wire(lookahead=0.1)], shards=2)
        assert plan.barriers(0.35) == pytest.approx((0.1, 0.2, 0.3, 0.35))

    def test_exact_multiple_has_no_sliver(self):
        plan = ShardPlan.build(["a", "b"], [_wire(lookahead=0.1)], shards=2)
        barriers = plan.barriers(0.3)
        assert len(barriers) == 3
        assert barriers[-1] == 0.3

    def test_zero_duration_single_barrier(self):
        plan = ShardPlan.build(["a", "b"], [_wire(lookahead=0.1)], shards=2)
        assert plan.barriers(0.0) == (0.0,)

    def test_window_longer_than_duration(self):
        plan = ShardPlan.build(["a", "b"], [_wire(lookahead=5.0)], shards=2)
        assert plan.barriers(2.0) == (2.0,)


def _rec(time, seq=0):
    # (arrival_time, seq, size, created_at, app, vf_index)
    return (time, seq, 1500, 0.0, "A", 0)


class TestRouteRecords:
    def test_merges_by_time_then_source_then_position(self):
        a = [_rec(1.0, 1), _rec(3.0, 2)]
        b = [_rec(1.0, 3), _rec(2.0, 4)]
        routed = route_records([(1, "d", b), (0, "d", a)])
        assert [r[1] for r in routed["d"]] == [1, 3, 4, 2]

    def test_equal_time_same_source_keeps_wire_order(self):
        a = [_rec(1.0, 10), _rec(1.0, 11), _rec(1.0, 12)]
        routed = route_records([(0, "d", a)])
        assert [r[1] for r in routed["d"]] == [10, 11, 12]

    def test_destinations_are_independent(self):
        routed = route_records([(0, "x", [_rec(1.0, 1)]), (0, "y", [_rec(0.5, 2)])])
        assert set(routed) == {"x", "y"}

    def test_empty_shipments(self):
        assert route_records([]) == {}
        assert route_records([(0, "d", [])]) == {}


@st.composite
def _streams(draw):
    """Two per-source streams of non-decreasing arrival times (floats
    snapped to a small grid so equal timestamps are common)."""
    def stream(src):
        deltas = draw(st.lists(st.integers(min_value=0, max_value=3),
                               min_size=0, max_size=20))
        times, t = [], 0.0
        for d in deltas:
            t += d * 0.25
            times.append(t)
        return [(t, i + src * 1000, 1500, 0.0, "A", 0)
                for i, t in enumerate(times)]
    return stream(0), stream(1)


class TestBarrierSplitProperty:
    @settings(max_examples=200, deadline=None)
    @given(_streams(), st.integers(min_value=0, max_value=16))
    def test_window_split_never_reorders(self, streams, barrier_step):
        """Routing a stream in two windows == routing it whole.

        This is the invariant that makes the window count (and hence
        the shard count) invisible to a destination domain: however the
        barriers slice the traffic, concatenating the per-window trains
        reproduces the unsplit global order — equal-timestamp trains
        included.
        """
        a, b = streams
        barrier = barrier_step * 0.25
        whole = route_records([(0, "d", a), (1, "d", b)]).get("d", [])
        first = route_records([
            (0, "d", [r for r in a if r[0] <= barrier]),
            (1, "d", [r for r in b if r[0] <= barrier]),
        ]).get("d", [])
        second = route_records([
            (0, "d", [r for r in a if r[0] > barrier]),
            (1, "d", [r for r in b if r[0] > barrier]),
        ]).get("d", [])
        assert first + second == whole

    @settings(max_examples=200, deadline=None)
    @given(_streams(), st.lists(st.integers(min_value=0, max_value=16),
                                min_size=1, max_size=4))
    def test_outbox_emission_order_survives_arbitrary_splits(
        self, streams, barrier_steps
    ):
        """Boundary emission order survives any barrier placement.

        Feed two outboxes through the real lazy-sink protocol
        (``receive_later``, the exact call the link and the fluid
        lane's epilogue make), drain them at an arbitrary ladder of
        barriers, route each window's trains, and concatenate: the
        result must equal routing one whole drain. Empty drains are
        skipped, as ``_drain_shipments`` does, so the property also
        pins that skipping a window's empty shipment can never perturb
        the order.
        """
        a, b = streams
        barriers = sorted({step * 0.25 for step in barrier_steps})
        barriers.append(float("inf"))
        boxes = (BoundaryOutbox("nic0", "d"), BoundaryOutbox("nic1", "d"))
        whole = route_records([(0, "d", a), (1, "d", b)]).get("d", [])
        fed = [0, 0]
        spliced = []
        for barrier in barriers:
            shipments = []
            for i, (box, stream) in enumerate(zip(boxes, (a, b))):
                while fed[i] < len(stream) and stream[fed[i]][0] <= barrier:
                    time, seq, size, created_at, app, vf_index = stream[fed[i]]
                    box.receive_later(
                        time,
                        Packet(seq, size, WIRE_FLOW, created_at,
                               app=app, vf_index=vf_index),
                    )
                    fed[i] += 1
                train = box.drain()
                if train:
                    shipments.append((i, box.dst, train))
            spliced.extend(route_records(shipments).get("d", []))
        assert spliced == whole
        assert all(not box.records for box in boxes)


@st.composite
def _barrier_exchange(draw):
    """One barrier's shipments over 2-6 domains, and a domain→shard map.

    Each (source, destination) pair ships at most once, as each domain
    drains one outbox per barrier. Arrival times are snapped to a small
    grid and drawn unsorted, so ties within and across sources are
    common.
    """
    n = draw(st.integers(min_value=2, max_value=6))
    names = [f"d{i}" for i in range(n)]
    shards = draw(st.integers(min_value=1, max_value=n))
    owner = {name: draw(st.integers(min_value=0, max_value=shards - 1))
             for name in names}
    pairs = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=n - 1),
                  st.sampled_from(names)),
        unique=True, max_size=2 * n,
    ))
    shipments = []
    for src, dst in pairs:
        steps = draw(st.lists(st.integers(min_value=0, max_value=4), max_size=12))
        shipments.append((src, dst, [
            (step * 0.25, src * 1000 + i, 1500, 0.0, "A", 0)
            for i, step in enumerate(steps)
        ]))
    return names, owner, shipments


class TestShardLocalRoutingProperty:
    @settings(max_examples=300, deadline=None)
    @given(_barrier_exchange(), st.randoms(use_true_random=False))
    def test_a_train_does_not_depend_on_who_routes_it(self, case, rng):
        """Each shard's trains == one router's, restricted to its domains.

        A shard keeps the shipments its own domains send to its own
        domains and receives the ones other shards send them; routing
        the two together must give exactly the trains ``_run_inline``
        would route from every shipment at once. The shipments it sends
        on are exactly its cross-shard ones. Shuffling the shipment list
        changes nothing.
        """
        names, owner, shipments = case
        whole = route_records(shipments)
        # The global order, spelled out: (arrival, source, position).
        for dst, train in whole.items():
            keyed = sorted(
                (record[0], src, position, record)
                for src, to, records in shipments if to == dst
                for position, record in enumerate(records)
            )
            assert train == [item[3] for item in keyed]
        shuffled = list(shipments)
        rng.shuffle(shuffled)
        assert route_records(shuffled) == whole

        for shard in set(owner.values()):
            owned = {name for name in names if owner[name] == shard}
            drained = [s for s in shipments if owner[names[s[0]]] == shard]
            forwarded = [s for s in shipments
                         if owner[names[s[0]]] != shard and s[1] in owned]
            sent = []

            def swap(remote):
                sent.extend(remote)
                return forwarded

            routed = _exchange(drained, owned, swap)
            assert routed == {dst: t for dst, t in whole.items() if dst in owned}
            assert sent == [s for s in drained if s[1] not in owned]
