"""Tests for scheduling-tree construction and per-class updates."""

import pytest

from repro.core.sched_tree import SchedulingParams, SchedulingTree
from repro.errors import PolicyError, UnknownClassError
from repro.tc import parse_script

MOTIVATION_SCRIPT = """
fv qdisc add dev eth0 root handle 1: fv default 0
fv class add dev eth0 parent 1: classid 1:1 fv rate 10mbit ceil 10mbit
fv class add dev eth0 parent 1:1 classid 1:10 fv prio 0 rate 10mbit
fv class add dev eth0 parent 1:1 classid 1:2 fv prio 1 rate 8mbit
fv class add dev eth0 parent 1:2 classid 1:20 fv weight 1 borrow 1:3
fv class add dev eth0 parent 1:2 classid 1:3 fv weight 2
fv class add dev eth0 parent 1:3 classid 1:30 fv prio 0 rate 4mbit borrow 1:20
fv class add dev eth0 parent 1:3 classid 1:31 fv prio 1 rate 2mbit guarantee 2mbit threshold 4mbit borrow 1:20
fv filter add dev eth0 parent 1: prio 1 match app=NC flowid 1:10
fv filter add dev eth0 parent 1: prio 1 match app=WS flowid 1:20
fv filter add dev eth0 parent 1: prio 1 match app=KVS flowid 1:30
fv filter add dev eth0 parent 1: prio 1 match app=ML flowid 1:31
"""


@pytest.fixture
def tree():
    policy = parse_script(MOTIVATION_SCRIPT)
    return SchedulingTree.from_policy(
        policy, link_rate_bps=10e6, params=SchedulingParams(update_interval=0.1, expire_after=1.0)
    )


class TestConstruction:
    def test_node_count(self, tree):
        assert len(tree) == 7

    def test_root_identified(self, tree):
        assert tree.root.classid == "1:1"
        assert tree.root.is_root

    def test_depths(self, tree):
        assert tree.node("1:1").depth == 0
        assert tree.node("1:10").depth == 1
        assert tree.node("1:31").depth == 3

    def test_leaves(self, tree):
        assert {n.classid for n in tree.leaves()} == {"1:10", "1:20", "1:30", "1:31"}

    def test_path_from_root(self, tree):
        path = [n.classid for n in tree.node("1:31").path_from_root()]
        assert path == ["1:1", "1:2", "1:3", "1:31"]

    def test_unknown_class_raises(self, tree):
        with pytest.raises(UnknownClassError):
            tree.node("9:99")

    def test_contains(self, tree):
        assert "1:30" in tree
        assert "9:99" not in tree

    def test_multiple_top_classes_rejected(self):
        policy = parse_script(
            "fv qdisc add dev eth0 root handle 1: fv\n"
            "fv class add dev eth0 parent 1: classid 1:1 fv rate 1mbit\n"
            "fv class add dev eth0 parent 1: classid 1:2 fv rate 1mbit\n"
        )
        with pytest.raises(PolicyError, match="single top class"):
            SchedulingTree.from_policy(policy)

    def test_no_classes_rejected(self):
        policy = parse_script("fv qdisc add dev eth0 root handle 1: fv\n")
        with pytest.raises(PolicyError, match="no classes"):
            SchedulingTree.from_policy(policy)

    def test_link_rate_synthesises_root_rate(self):
        policy = parse_script(
            "fv qdisc add dev eth0 root handle 1: prio\n"
            "fv class add dev eth0 parent 1: classid 1:1 fv\n"
            "fv class add dev eth0 parent 1:1 classid 1:10 fv prio 0\n"
        )
        tree = SchedulingTree.from_policy(policy, link_rate_bps=40e9)
        assert tree.root.theta == pytest.approx(0.97 * 40e9)


class TestPrimedRates:
    """prime() must produce the static policy rates before any traffic."""

    def test_root_theta(self, tree):
        # 3% of the configured rate is withheld as Tx-FIFO headroom.
        assert tree.root.theta == pytest.approx(0.97 * 10e6)

    def test_priority_class_gets_full_parent(self, tree):
        assert tree.node("1:10").theta == pytest.approx(0.97 * 10e6)

    def test_residual_class_initially_full(self, tree):
        # No NC consumption measured yet, so the residual is the whole parent.
        assert tree.node("1:2").theta == pytest.approx(0.97 * 10e6)

    def test_weighted_split(self, tree):
        # The root grants 97% of its configured rate (link_headroom).
        assert tree.node("1:20").theta == pytest.approx(0.97 * 10e6 / 3)
        assert tree.node("1:3").theta == pytest.approx(0.97 * 20e6 / 3)

    def test_describe_contains_all_classes(self, tree):
        text = tree.describe()
        for classid in ("1:1", "1:10", "1:2", "1:20", "1:3", "1:30", "1:31"):
            assert classid in text


class TestUpdateGating:
    def test_update_respects_interval(self, tree):
        node = tree.node("1:10")
        node.touch(0.05)
        assert not node.update(0.05)  # < update_interval since prime
        assert node.update(0.15)
        assert not node.update(0.2)
        assert node.update(0.3)

    def test_try_begin_blocks_second_updater(self, tree):
        node = tree.node("1:10")
        node.touch(0.5)
        assert node.try_begin_update(0.5)
        assert not node.try_begin_update(0.5)  # flag held
        node.end_update()
        # Interval not elapsed relative to last_update (still 0) — but
        # begin/end without perform doesn't advance last_update.
        assert node.try_begin_update(0.5)
        node.end_update()

    def test_update_counts(self, tree):
        node = tree.node("1:10")
        node.touch(0.5)
        node.update(0.5)
        assert node.updates == 1

    def test_gamma_rolls_at_update(self, tree):
        node = tree.node("1:10")
        node.touch(0.1)
        node.update(0.1)
        node.count_forwarded(1_000_000.0)
        node.touch(0.3)
        node.update(0.3)
        # One epoch's raw Γ (1 Mbit over 0.2 s = 5 Mbit/s) folded in at
        # the EWMA weight gamma_alpha.
        alpha = node.params.gamma_alpha
        assert node.gamma_rate == pytest.approx(alpha * 1_000_000.0 / 0.2)

    def test_gamma_converges_to_steady_rate(self, tree):
        node = tree.node("1:10")
        t = 0.1
        for _ in range(25):
            node.touch(t)
            node.update(t)
            node.count_forwarded(5e6 * 0.1)  # 5 Mbit/s worth per epoch
            t += 0.1
        assert node.gamma_rate == pytest.approx(5e6, rel=0.02)


class TestExpiry:
    def test_idle_class_status_reset(self, tree):
        node = tree.node("1:10")
        node.touch(0.1)
        node.update(0.1)
        node.count_forwarded(5e6)
        node.touch(0.2)
        node.update(0.25)
        assert node.gamma_rate > 0
        # 2 simulated seconds of silence (> expire_after=1.0).
        node.update(2.5)
        assert node.gamma_rate == 0.0

    def test_active_class_not_reset(self, tree):
        node = tree.node("1:10")
        node.touch(0.1)
        node.update(0.1)
        node.count_forwarded(5e6)
        node.touch(0.9)
        node.update(0.95)
        assert node.gamma_rate > 0

    def test_is_active_window(self, tree):
        node = tree.node("1:10")
        node.touch(1.0)
        assert node.is_active(1.5)
        assert node.is_active(2.0)
        assert not node.is_active(2.1)


class TestSchedulingParams:
    def test_defaults_valid(self):
        params = SchedulingParams()
        assert params.update_interval == 0.001

    def test_bad_interval_rejected(self):
        with pytest.raises(PolicyError):
            SchedulingParams(update_interval=0.0)

    def test_expire_below_interval_rejected(self):
        with pytest.raises(PolicyError):
            SchedulingParams(update_interval=0.01, expire_after=0.005)

    def test_scaled_stretches_time_constants(self):
        scaled = SchedulingParams.scaled(1000.0)
        assert scaled.update_interval == pytest.approx(1.0)
        assert scaled.expire_after == pytest.approx(10.0)
