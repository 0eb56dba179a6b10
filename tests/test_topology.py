"""Tests for the declarative construction API (repro.topology).

The Topology/SimulationSpec pair is the one public way to build a
simulation; the classic entry points are thin adapters over it. The
load-bearing contract — a single-domain topology reproduces the
historical engine bit-for-bit — is additionally pinned by the golden
traces; here we check the adapter equivalence, the builder's
validation, and the public surface.
"""

import importlib
import re
import types

import pytest

import repro
from repro.errors import ConfigError
from repro.experiments.base import ScaledSetup as BaseScaledSetup
from repro.experiments.policies import motivation_policy
from repro.experiments.workloads import motivation_demands
from repro.topology import (
    ScaledSetup,
    SimulationSpec,
    Topology,
    timeline,
)


@pytest.fixture
def setup():
    return ScaledSetup(scale=1000.0)


@pytest.fixture
def policy(setup):
    return motivation_policy(setup.link_bps)


@pytest.fixture
def demands(setup):
    return motivation_demands(setup.nominal_link_bps)


#: Packages whose ``__init__`` loads some of its exports on first use.
LAZY_PACKAGES = (
    "repro",
    "repro.baselines",
    "repro.core",
    "repro.experiments",
    "repro.sim",
    "repro.topology",
)


class TestPublicSurface:
    def test_all_names_importable(self):
        for package in LAZY_PACKAGES:
            pkg = importlib.import_module(package)
            listed = dir(pkg)
            for name in pkg.__all__:
                value = getattr(pkg, name)
                assert name in listed, (package, name)
                if isinstance(value, (type, types.FunctionType)):
                    home = importlib.import_module(value.__module__)
                    assert getattr(home, name) is value, (package, name)

    def test_star_import_binds_all_names(self):
        namespace = {}
        exec("from repro import *", namespace)
        missing = [name for name in repro.__all__ if name not in namespace]
        assert missing == []
        assert all(namespace[name] is getattr(repro, name) for name in repro.__all__)

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_misspelled_name_names_the_package(self, package):
        pkg = importlib.import_module(package)
        message = f"module '{package}' has no attribute 'Topolgy'"
        with pytest.raises(AttributeError, match=re.escape(message)):
            pkg.Topolgy

    def test_topology_api_reexported(self):
        assert repro.Topology is Topology
        assert repro.SimulationSpec is SimulationSpec
        assert repro.ScaledSetup is ScaledSetup

    def test_scaled_setup_is_one_class(self):
        # The historical import site must alias, not copy.
        assert BaseScaledSetup is ScaledSetup

    def test_scheduler_registry_reexported(self):
        assert "flowvalve" in repro.scheduler_names()
        assert callable(repro.build_scheduler)


class TestTimelineAdapter:
    def test_timeline_notes_keep_classic_format(self, policy, demands, setup):
        result = timeline(policy, demands, setup, duration=4.0)
        assert result.notes.startswith(f"scale=1/{setup.scale:.0f}, drops=")

    def test_spec_run_timeline_roundtrip(self, policy, demands, setup):
        topo = Topology()
        topo.nic("nic0", policy=policy)
        topo.host("host0", nic="nic0")
        for app, demand in sorted(demands.items()):
            topo.app("host0", app, demand=demand)
        spec = SimulationSpec(topology=topo, setup=setup, duration=6.0,
                              bin_seconds=2.0, title="roundtrip")
        result = spec.run()
        assert result.shards == 1 and result.windows == 1
        adapted = result.timeline()
        reference = timeline(policy, demands, setup, duration=6.0,
                             bin_seconds=2.0, title="roundtrip")
        assert adapted.series == reference.series


class TestTopologyValidation:
    def test_duplicate_nic_rejected(self, policy):
        topo = Topology().nic("n", policy)
        with pytest.raises(ConfigError, match="duplicate NIC"):
            topo.nic("n", policy)

    def test_host_requires_known_nic(self, policy):
        with pytest.raises(ConfigError, match="unknown NIC"):
            Topology().nic("n", policy).host("h", nic="other")

    def test_duplicate_host_rejected(self, policy):
        topo = Topology().nic("n", policy).host("h", nic="n")
        with pytest.raises(ConfigError, match="duplicate host"):
            topo.host("h", nic="n")

    def test_app_requires_known_host(self, policy):
        with pytest.raises(ConfigError, match="unknown host"):
            Topology().nic("n", policy).app("h", "A")

    def test_wire_requires_known_source(self, policy):
        with pytest.raises(ConfigError, match="unknown NIC"):
            Topology().nic("n", policy).wire("other", to="n")

    def test_wire_dst_checked_at_resolution(self, policy):
        # Forward references are allowed at declaration time (rings)...
        topo = Topology().nic("n", policy).wire("n", to="later")
        # ...but must resolve by the time domains are built.
        with pytest.raises(ConfigError, match="unknown NIC 'later'"):
            topo.domains()

    def test_forward_wire_reference_resolves(self, policy):
        topo = Topology().nic("a", policy).wire("a", to="b").nic("b", policy)
        domains = topo.domains()
        assert domains[0].remote and domains[0].wire.dst == "b"

    def test_one_egress_wire_per_nic(self, policy):
        topo = Topology().nic("a", policy).nic("b", policy).wire("a", to="b")
        with pytest.raises(ConfigError, match="already has an egress"):
            topo.wire("a", to="b")

    def test_negative_propagation_rejected(self, policy):
        with pytest.raises(ConfigError, match=">= 0"):
            Topology().nic("a", policy).wire("a", to="a", propagation_delay=-1.0)

    def test_empty_topology_rejected(self):
        with pytest.raises(ConfigError, match="no NICs"):
            Topology().domains()

    def test_duplicate_app_in_domain_rejected(self, policy):
        topo = Topology().nic("n", policy).host("h", nic="n")
        topo.app("h", "A").app("h", "A")
        with pytest.raises(ConfigError, match="duplicate app name"):
            topo.domains()

    def test_apps_ordered_by_name_and_vf(self, policy):
        topo = Topology().nic("n", policy).host("h", nic="n")
        topo.app("h", "ZZ").app("h", "AA").app("h", "MM")
        [domain] = topo.domains()
        assert [a.name for a in domain.apps] == ["AA", "MM", "ZZ"]

    def test_domain_order_is_nic_insertion_order(self, policy):
        topo = Topology().nic("z", policy).nic("a", policy)
        assert [d.name for d in topo.domains()] == ["z", "a"]
        assert [d.index for d in topo.domains()] == [0, 1]


class TestSpecValidation:
    def _two_domains(self, policy):
        topo = Topology()
        for name in ("a", "b"):
            topo.nic(name, policy).host(f"h-{name}", nic=name)
        topo.wire("a", to="b").wire("b", to="a")
        return topo

    def test_trace_tap_single_domain_only(self, policy, setup):
        spec = SimulationSpec(topology=self._two_domains(policy), setup=setup,
                              trace_path="/tmp/x.jsonl")
        with pytest.raises(ConfigError, match="single-domain"):
            spec.plan()

    def test_unknown_scheduler_rejected(self, setup, policy):
        topo = Topology().nic("n", policy, scheduler="cake")
        with pytest.raises(ConfigError, match="cake"):
            SimulationSpec(topology=topo, setup=setup).plan()

    def test_collect_records_flowvalve_only(self, setup, policy):
        topo = Topology().nic("n", policy, scheduler="wfq")
        spec = SimulationSpec(topology=topo, setup=setup, collect_records=True)
        with pytest.raises(ConfigError, match="collect_records"):
            spec.plan()

    def test_with_shards_returns_new_spec(self, setup, policy):
        topo = Topology().nic("n", policy)
        spec = SimulationSpec(topology=topo, setup=setup)
        other = spec.with_shards(4)
        assert spec.shards == 1 and other.shards == 4
        assert other.topology is topo

    def test_shards_must_be_positive(self, setup, policy):
        topo = Topology().nic("n", policy)
        with pytest.raises(ConfigError, match="shards"):
            SimulationSpec(topology=topo, setup=setup, shards=0).plan()


class TestScheduledPortDomains:
    def test_software_scheduler_domain_runs(self, setup, policy):
        topo = Topology().nic("n", policy, scheduler="wfq", queue_limit=256)
        # App names must match the policy's filters (unclassified
        # frames drop); the motivation policy classifies KVS/WS/ML/NC.
        topo.host("h", nic="n").app("h", "KVS").app("h", "WS")
        result = SimulationSpec(topology=topo, setup=setup, duration=2.0).run()
        summary = result.domains["n"]
        assert summary.scheduler == "wfq"
        assert summary.submitted > 0
        assert result.total_packets > 0
