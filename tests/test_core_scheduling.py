"""Behavioural tests for the scheduling function (Algorithm 1).

These validate the paper's enforcement semantics end to end in
software mode: rate limiting, priority, weighted sharing, guarantees,
and shadow-bucket borrowing.
"""

import pytest

from repro.core import FlowValve
from repro.core.scheduling import Verdict
from repro.net import FiveTuple, PacketFactory

from conftest import TEST_PARAMS, constant, drive_valve

BASE = """
fv qdisc add dev eth0 root handle 1: fv default 0
fv class add dev eth0 parent 1: classid 1:1 fv rate 10mbit ceil 10mbit
"""


def valve_from(body: str) -> FlowValve:
    return FlowValve.from_script(BASE + body, link_rate_bps=10e6, params=TEST_PARAMS)


class TestSingleClassRateLimiting:
    """Paper Fig. 8: single class rate-limiting is precise."""

    def test_overload_throttled_to_theta(self):
        valve = valve_from(
            "fv class add dev eth0 parent 1:1 classid 1:10 fv rate 4mbit ceil 4mbit\n"
            "fv filter add dev eth0 parent 1: match app=A flowid 1:10\n"
        )
        rates = drive_valve(valve, {"A": constant(20e6)}, duration=20.0)
        assert rates["A"] == pytest.approx(4e6, rel=0.05)

    def test_underload_passes_untouched(self):
        valve = valve_from(
            "fv class add dev eth0 parent 1:1 classid 1:10 fv rate 8mbit ceil 8mbit\n"
            "fv filter add dev eth0 parent 1: match app=A flowid 1:10\n"
        )
        rates = drive_valve(valve, {"A": constant(2e6)}, duration=20.0)
        assert rates["A"] == pytest.approx(2e6, rel=0.05)

    def test_drop_reason_recorded(self):
        valve = valve_from(
            "fv class add dev eth0 parent 1:1 classid 1:10 fv rate 1mbit ceil 1mbit\n"
            "fv filter add dev eth0 parent 1: match app=A flowid 1:10\n"
        )
        factory = PacketFactory()
        flow = FiveTuple("10.0.0.1", "10.0.1.1", 1, 80)
        dropped = None
        for i in range(2000):
            packet = factory.make(1250, flow, i * 1e-4, app="A")
            if valve.process(packet, i * 1e-4) is Verdict.DROP:
                dropped = packet
        assert dropped is not None
        assert dropped.dropped
        assert dropped.drop_reason.value == "sched_red"


class TestWeightedSharing:
    """Eq. 5: siblings split the parent rate by weight."""

    def test_two_to_one_split_under_contention(self):
        valve = valve_from(
            "fv class add dev eth0 parent 1:1 classid 1:10 fv weight 2\n"
            "fv class add dev eth0 parent 1:1 classid 1:20 fv weight 1\n"
            "fv filter add dev eth0 parent 1: match app=A flowid 1:10\n"
            "fv filter add dev eth0 parent 1: match app=B flowid 1:20\n"
        )
        rates = drive_valve(valve, {"A": constant(20e6), "B": constant(20e6)}, duration=20.0)
        assert rates["A"] == pytest.approx(6.67e6, rel=0.07)
        assert rates["B"] == pytest.approx(3.33e6, rel=0.07)

    def test_total_never_exceeds_link(self):
        valve = valve_from(
            "fv class add dev eth0 parent 1:1 classid 1:10 fv weight 2\n"
            "fv class add dev eth0 parent 1:1 classid 1:20 fv weight 1\n"
            "fv filter add dev eth0 parent 1: match app=A flowid 1:10\n"
            "fv filter add dev eth0 parent 1: match app=B flowid 1:20\n"
        )
        rates = drive_valve(valve, {"A": constant(30e6), "B": constant(30e6)}, duration=20.0)
        assert sum(rates.values()) <= 10e6 * 1.05

    def test_equal_weights_fair(self):
        valve = valve_from(
            "fv class add dev eth0 parent 1:1 classid 1:10 fv weight 1\n"
            "fv class add dev eth0 parent 1:1 classid 1:20 fv weight 1\n"
            "fv filter add dev eth0 parent 1: match app=A flowid 1:10\n"
            "fv filter add dev eth0 parent 1: match app=B flowid 1:20\n"
        )
        rates = drive_valve(valve, {"A": constant(20e6), "B": constant(20e6)}, duration=20.0)
        assert rates["A"] == pytest.approx(rates["B"], rel=0.1)


class TestPriority:
    """Eq. 4: a less-prior class gets the residual of its prior sibling."""

    def test_prior_class_wins_under_contention(self):
        valve = valve_from(
            "fv class add dev eth0 parent 1:1 classid 1:10 fv prio 0\n"
            "fv class add dev eth0 parent 1:1 classid 1:20 fv prio 1\n"
            "fv filter add dev eth0 parent 1: match app=HI flowid 1:10\n"
            "fv filter add dev eth0 parent 1: match app=LO flowid 1:20\n"
        )
        rates = drive_valve(valve, {"HI": constant(20e6), "LO": constant(20e6)}, duration=20.0)
        assert rates["HI"] == pytest.approx(10e6, rel=0.05)
        assert rates["LO"] < 1e6

    def test_low_priority_gets_residual(self):
        # The paper's §III-D example: f_high at 9, f_low should get ~1.
        valve = valve_from(
            "fv class add dev eth0 parent 1:1 classid 1:10 fv prio 0\n"
            "fv class add dev eth0 parent 1:1 classid 1:20 fv prio 1\n"
            "fv filter add dev eth0 parent 1: match app=HI flowid 1:10\n"
            "fv filter add dev eth0 parent 1: match app=LO flowid 1:20\n"
        )
        rates = drive_valve(valve, {"HI": constant(9e6), "LO": constant(9e6)}, duration=30.0)
        assert rates["HI"] == pytest.approx(9e6, rel=0.05)
        # Residual = 0.97 * 10 - 9 ≈ 0.7 Mbit (root headroom included).
        assert rates["LO"] == pytest.approx(0.7e6, rel=0.4)

    def test_low_priority_recovers_when_high_stops(self):
        valve = valve_from(
            "fv class add dev eth0 parent 1:1 classid 1:10 fv prio 0\n"
            "fv class add dev eth0 parent 1:1 classid 1:20 fv prio 1\n"
            "fv filter add dev eth0 parent 1: match app=HI flowid 1:10\n"
            "fv filter add dev eth0 parent 1: match app=LO flowid 1:20\n"
        )
        rates = drive_valve(
            valve,
            {"HI": lambda t: 20e6 if t < 10 else 0.0, "LO": constant(20e6)},
            duration=30.0,
        )
        # LO: ~0 for 10 s, then ~10 Mbit for 20 s → mean ≈ 6.67 Mbit.
        assert rates["LO"] == pytest.approx(6.67e6, rel=0.15)


class TestBorrowing:
    """Eq. 6 / Fig. 9: shadow-bucket lending."""

    def test_work_conservation_via_borrowing(self):
        valve = valve_from(
            "fv class add dev eth0 parent 1:1 classid 1:10 fv weight 1 borrow 1:20\n"
            "fv class add dev eth0 parent 1:1 classid 1:20 fv weight 1 borrow 1:10\n"
            "fv filter add dev eth0 parent 1: match app=A flowid 1:10\n"
            "fv filter add dev eth0 parent 1: match app=B flowid 1:20\n"
        )
        rates = drive_valve(valve, {"A": constant(20e6)}, duration=20.0)
        # Work conservation up to the root's 3% headroom.
        assert rates["A"] == pytest.approx(9.7e6, rel=0.05)

    def test_no_borrowing_without_label(self):
        valve = valve_from(
            "fv class add dev eth0 parent 1:1 classid 1:10 fv weight 1\n"
            "fv class add dev eth0 parent 1:1 classid 1:20 fv weight 1\n"
            "fv filter add dev eth0 parent 1: match app=A flowid 1:10\n"
            "fv filter add dev eth0 parent 1: match app=B flowid 1:20\n"
        )
        rates = drive_valve(valve, {"A": constant(20e6)}, duration=20.0)
        assert rates["A"] == pytest.approx(5e6, rel=0.07)

    def test_borrow_statistics_recorded(self):
        valve = valve_from(
            "fv class add dev eth0 parent 1:1 classid 1:10 fv weight 1 borrow 1:20\n"
            "fv class add dev eth0 parent 1:1 classid 1:20 fv weight 1\n"
            "fv filter add dev eth0 parent 1: match app=A flowid 1:10\n"
            "fv filter add dev eth0 parent 1: match app=B flowid 1:20\n"
        )
        drive_valve(valve, {"A": constant(20e6)}, duration=10.0)
        assert valve.stats.forwarded_on_borrowed_tokens > 0
        assert ("1:10", "1:20") in valve.stats.borrow_matrix
        assert valve.tree.node("1:10").borrowed_bits > 0

    def test_lender_reclaims_bandwidth(self):
        valve = valve_from(
            "fv class add dev eth0 parent 1:1 classid 1:10 fv weight 1 borrow 1:20\n"
            "fv class add dev eth0 parent 1:1 classid 1:20 fv weight 1 borrow 1:10\n"
            "fv filter add dev eth0 parent 1: match app=A flowid 1:10\n"
            "fv filter add dev eth0 parent 1: match app=B flowid 1:20\n"
        )
        rates = drive_valve(
            valve,
            {"A": constant(20e6), "B": lambda t: 20e6 if t >= 10 else 0.0},
            duration=30.0,
        )
        # B idle 10 s then claims its 5 Mbit half for 20 s → mean ≈ 3.33.
        assert rates["B"] == pytest.approx(3.33e6, rel=0.2)


class TestGuarantee:
    """§II: ML guaranteed 2 Mbit above the 4 Mbit threshold, weighted below."""

    SCRIPT = (
        "fv class add dev eth0 parent 1:1 classid 1:30 fv prio 0 rate 4mbit\n"
        "fv class add dev eth0 parent 1:1 classid 1:31 fv prio 1 rate 2mbit "
        "guarantee 2mbit threshold 4mbit\n"
        "fv filter add dev eth0 parent 1: match app=KVS flowid 1:30\n"
        "fv filter add dev eth0 parent 1: match app=ML flowid 1:31\n"
    )

    def test_guarantee_held_under_priority_pressure(self):
        valve = valve_from(self.SCRIPT)
        rates = drive_valve(valve, {"KVS": constant(20e6), "ML": constant(20e6)}, duration=20.0)
        assert rates["ML"] == pytest.approx(2e6, rel=0.15)
        assert rates["KVS"] == pytest.approx(8e6, rel=0.1)

    def test_priority_wins_when_guaranteed_class_idle(self):
        valve = valve_from(self.SCRIPT)
        rates = drive_valve(valve, {"KVS": constant(20e6)}, duration=20.0)
        assert rates["KVS"] == pytest.approx(10e6, rel=0.05)


class TestUnclassifiedTraffic:
    def test_dropped_without_default(self):
        valve = valve_from(
            "fv class add dev eth0 parent 1:1 classid 1:10 fv rate 10mbit\n"
            "fv filter add dev eth0 parent 1: match app=KNOWN flowid 1:10\n"
        )
        factory = PacketFactory()
        packet = factory.make(1250, FiveTuple("1.1.1.1", "2.2.2.2", 1, 2), 0.0, app="UNKNOWN")
        assert valve.process(packet, 0.0) is Verdict.DROP
        assert packet.drop_reason.value == "unclassified"

    def test_default_class_used(self):
        script = (
            "fv qdisc add dev eth0 root handle 1: fv default 10\n"
            "fv class add dev eth0 parent 1: classid 1:1 fv rate 10mbit ceil 10mbit\n"
            "fv class add dev eth0 parent 1:1 classid 1:10 fv rate 10mbit\n"
        )
        valve = FlowValve.from_script(script, link_rate_bps=10e6, params=TEST_PARAMS)
        factory = PacketFactory()
        # Buckets start empty and accrue from t=0, so give the meter a
        # moment of accrued tokens before expecting a green verdict.
        packet = factory.make(1250, FiveTuple("1.1.1.1", "2.2.2.2", 1, 2), 0.1, app="ANY")
        assert valve.process(packet, 0.1) is Verdict.FORWARD
        assert packet.leaf_class == "1:10"
