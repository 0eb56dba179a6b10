"""Fast smoke tests of the experiment harness.

The full paper-scale runs live in ``benchmarks/``; these are small
versions that verify the harness plumbing end to end (policy → scaled
testbed → senders → result collection) in seconds, plus the result
container logic.
"""

import pytest

from repro.experiments import (
    ScaledSetup,
    TimelineResult,
    fair_policy,
    motivation_policy,
    weighted_policy,
)
from repro.experiments import ablations, fabric
from repro.experiments.fig13 import PAPER_FIG13, _measure_flowvalve
from repro.experiments.workloads import fair_queueing_demands, motivation_demands
from repro.host.traffic import windows
from repro.tc.validate import validate_policy
from repro.topology import SimulationSpec, timeline


class TestPolicies:
    def test_motivation_policy_validates(self):
        validate_policy(motivation_policy(10e9))

    def test_fair_policy_validates(self):
        for n in (2, 4, 8):
            validate_policy(fair_policy(40e9, n))

    def test_weighted_policy_validates(self):
        validate_policy(weighted_policy(40e9))

    def test_fair_policy_borrow_covers_all_other_leaves(self):
        policy = fair_policy(40e9, 4)
        leaves = [c for c in policy.classes if c.borrow]
        assert len(leaves) == 4
        for leaf in leaves:
            assert len(leaf.borrow) == 3
            assert leaf.classid not in leaf.borrow

    def test_fabric_nics_share_one_policy_nothing_mutates(self):
        setup = fabric.DEFAULT_SETUP
        topo = fabric.build_fabric(setup, hosts=4)
        domains = topo.domains()
        policy = domains[0].nic.policy
        assert all(domain.nic.policy is policy for domain in domains)
        result = SimulationSpec(
            topology=topo, setup=setup, duration=1.0, shards=1
        ).run()
        assert result.total_packets > 0
        assert policy == motivation_policy(setup.link_bps)


class TestWorkloads:
    def test_motivation_timeline_phases(self):
        demands = motivation_demands(10e9)
        assert demands["NC"](5) > 10e9  # backlogged
        assert demands["NC"](20) == pytest.approx(2e9)
        assert demands["ML"](35) == 0.0
        assert demands["WS"](55) > 10e9

    def test_fair_demands_staggered(self):
        demands = fair_queueing_demands(4, join_every=10.0, duration=60.0)
        assert demands["App0"](5) > 0
        assert demands["App3"](5) == 0.0
        assert demands["App3"](35) > 0


class TestScaledSetup:
    def test_scaled_quantities(self):
        setup = ScaledSetup(nominal_link_bps=10e9, scale=100.0, wire_bps=40e9)
        assert setup.link_bps == 100e6
        assert setup.scaled_wire_bps == 400e6
        assert setup.sched_params().update_interval == pytest.approx(0.1)

    def test_ring_sized_to_epochs(self):
        setup = ScaledSetup(nominal_link_bps=10e9, scale=100.0)
        cfg = setup.nic_config()
        pps = setup.link_bps / (1520 * 8)
        assert cfg.tx_ring_depth == pytest.approx(2 * 0.1 * pps, abs=2)


class TestTimelineResult:
    def _result(self):
        r = TimelineResult(title="t", bin_seconds=5.0)
        r.series["A"] = [(5.0, 1e9), (10.0, 2e9)]
        r.series["B"] = [(5.0, 3e9), (10.0, 4e9)]
        return r

    def test_mean_rate(self):
        r = self._result()
        assert r.mean_rate("A", 0, 10) == pytest.approx(1.5e9)
        assert r.mean_rate("A", 5, 10) == pytest.approx(2e9)
        assert r.mean_rate("missing", 0, 10) == 0.0

    def test_total_rate(self):
        r = self._result()
        assert r.total_rate(0, 5) == pytest.approx(4e9)

    def test_table_rendering(self):
        text = self._result().to_table().render()
        assert "0-5s" in text
        assert "4.00G" in text  # totals column


class TestMiniRuns:
    """Actually run (small) experiments through the full stack."""

    def test_flowvalve_weighted_mini(self):
        setup = ScaledSetup(nominal_link_bps=10e9, scale=500.0, wire_bps=10e9, seed=3)
        policy = motivation_policy(setup.link_bps)
        demands = {
            "NC": windows((0, 10, 1e12)),
            "WS": windows((0, 10, 1e12)),
            "KVS": windows((0, 10, 1e12)),
            "ML": windows((0, 10, 1e12)),
        }
        result = timeline(policy, demands, setup, duration=10.0,
                          bin_seconds=2.0, title="mini")
        # NC has strict priority over everything: it takes ~the link.
        assert result.mean_rate("NC", 4, 10) > 0.85 * 10e9
        assert result.total_rate(4, 10) < 1.05 * 10e9

    def test_fig13_single_cell(self):
        mpps = _measure_flowvalve(1518, window=0.001, seed=1)
        assert mpps == pytest.approx(3.25, rel=0.08)

    def test_interval_sensitivity_mini(self):
        # Epoch-granted refill distorts short-window rates once ΔT
        # reaches the measurement window (1.0 s vs the 0.5 s windows);
        # the continuous (hardware-meter) mode never does.
        result = ablations.interval_sensitivity(intervals=[0.05, 1.0], duration=10.0)
        errors = result.overshoot
        assert errors[1.0]["epoch"] > 0.5
        assert errors[1.0]["epoch"] > errors[0.05]["epoch"]
        assert errors[0.05]["continuous"] < 0.2
        assert "ΔT" in result.to_table().render()

    def test_paper_reference_values_present(self):
        assert PAPER_FIG13[64]["flowvalve"] == 19.69
        assert PAPER_FIG13[1518]["dpdk"] == 2.25


class TestTcpRealismVariants:
    def test_nc_dominant_regime(self):
        """With every app (including NC) backlogged, NC's strict
        priority takes the whole link — the other regime of the
        TCP-realism experiment."""
        from repro.experiments import tcp_realism

        result = tcp_realism.run(regime="backlogged", duration=15.0)
        assert result.achieved["NC"] > 0.8 * result.total_target
        assert result.total_achieved < 1.05 * result.total_target


class TestUnifiedApi:
    """The run(setup, **params) -> Result contract."""

    def test_unified_results_expose_to_table(self):
        result = ablations.interval_sensitivity(intervals=[0.5], duration=5.0)
        table = result.to_table()
        assert hasattr(table, "render") and "0.5" in table.render()

    def test_setup_threads_seed(self):
        from repro.experiments import fig13

        result = fig13.run(
            ScaledSetup(nominal_link_bps=40e9, scale=1.0, wire_bps=40e9, seed=5),
            sizes=[1518], window=0.001,
        )
        assert [row.size for row in result.rows] == [1518]
        assert result.rows[0].flowvalve_mpps > 0

    def test_for_link_constructor(self):
        setup = ScaledSetup.for_link(25e9, scale=50.0, seed=3)
        assert setup.nominal_link_bps == 25e9
        assert setup.wire_bps == 25e9
        assert setup.scale == 50.0
        assert setup.seed == 3
