"""Tests for the synthetic data-center workload generator."""

import tracemalloc
from types import SimpleNamespace

import pytest

from repro.host import TraceWorkload, WORKLOAD_PRESETS, WorkloadProfile
from repro.net import FiveTuple, PacketFactory
from repro.net.flow import PROTO_TCP
from repro.sim import Simulator


def run_workload(profile, offered=1e6, duration=20.0, seed=2):
    sim = Simulator(seed=seed)
    sent = []
    workload = TraceWorkload(
        sim, "app", profile, offered_load_bps=offered,
        submit=lambda p: sent.append(p) or True,
        factory=PacketFactory(), duration=duration,
    )
    sim.run(until=duration * 1.5)
    return workload, sent


class TestPresets:
    def test_three_motivating_app_types(self):
        assert set(WORKLOAD_PRESETS) == {"kvs", "ml", "web"}

    def test_kvs_flows_small_ml_flows_huge(self):
        assert WORKLOAD_PRESETS["kvs"].max_flow_bytes < WORKLOAD_PRESETS["ml"].min_flow_bytes


class TestFlowSizes:
    def test_samples_within_bounds(self):
        sim = Simulator(seed=1)
        workload = TraceWorkload(
            sim, "a", WORKLOAD_PRESETS["web"], offered_load_bps=1e6,
            submit=lambda p: True, factory=PacketFactory(), duration=0.0,
        )
        profile = workload.profile
        for _ in range(2000):
            size = workload.sample_flow_size()
            assert profile.min_flow_bytes <= size <= profile.max_flow_bytes

    def test_heavy_tail_present(self):
        """A bounded Pareto with alpha 1.2 must produce flows far above
        the median — the elephant/mice mix."""
        sim = Simulator(seed=1)
        workload = TraceWorkload(
            sim, "a", WORKLOAD_PRESETS["web"], offered_load_bps=1e6,
            submit=lambda p: True, factory=PacketFactory(), duration=0.0,
        )
        sizes = sorted(workload.sample_flow_size() for _ in range(5000))
        median = sizes[len(sizes) // 2]
        assert max(sizes) > 50 * median

    def test_sampled_mean_matches_pareto_mean(self):
        sim = Simulator(seed=3)
        workload = TraceWorkload(
            sim, "a", WORKLOAD_PRESETS["kvs"], offered_load_bps=1e6,
            submit=lambda p: True, factory=PacketFactory(), duration=0.0,
        )
        sizes = [workload.sample_flow_size() for _ in range(20_000)]
        assert sum(sizes) / len(sizes) == pytest.approx(
            workload._pareto_mean(), rel=0.15
        )


class TestOfferedLoad:
    def test_long_run_rate_matches_target(self):
        workload, sent = run_workload(WORKLOAD_PRESETS["kvs"], offered=1e6, duration=30.0)
        achieved = workload.bytes_offered * 8 / 30.0
        assert achieved == pytest.approx(1e6, rel=0.25)

    def test_flows_complete(self):
        workload, _ = run_workload(WORKLOAD_PRESETS["kvs"], duration=10.0)
        assert workload.flows_started > 0
        assert workload.flows_completed == workload.flows_started

    def test_no_new_flows_after_duration(self):
        workload, sent = run_workload(WORKLOAD_PRESETS["kvs"], duration=5.0)
        last_start = max(p.created_at for p in sent)
        # Packets may trail past the cut-off (in-flight flows finish),
        # but flow *starts* don't: the very last packets belong to
        # flows started before 5.0 and paced at the flow rate limit.
        profile = WORKLOAD_PRESETS["kvs"]
        max_trail = profile.max_flow_bytes * 8 / profile.flow_rate_limit_bps
        assert last_start <= 5.0 + max_trail

    def test_packets_carry_app_and_vf(self):
        workload, sent = run_workload(WORKLOAD_PRESETS["kvs"], duration=2.0)
        assert all(p.app == "app" for p in sent)

    def test_rejects_zero_load(self):
        with pytest.raises(ValueError):
            TraceWorkload(Simulator(), "a", WORKLOAD_PRESETS["kvs"], 0.0,
                          lambda p: True, PacketFactory())

    def test_distinct_flows_generated(self):
        workload, sent = run_workload(WORKLOAD_PRESETS["kvs"], duration=10.0)
        flows = {p.flow for p in sent}
        assert len(flows) == workload.flows_started

    def test_deterministic_given_seed(self):
        w1, sent1 = run_workload(WORKLOAD_PRESETS["web"], duration=5.0, seed=9)
        w2, sent2 = run_workload(WORKLOAD_PRESETS["web"], duration=5.0, seed=9)
        assert [p.size for p in sent1] == [p.size for p in sent2]


def run_mode(profile, mode, offered=1e6, duration=20.0, seed=2, window=None):
    sim = Simulator(seed=seed)
    sent = []
    workload = TraceWorkload(
        sim, "app", profile, offered_load_bps=offered,
        submit=lambda p: sent.append(p) or True,
        factory=PacketFactory(), duration=duration,
        mode=mode, window=window,
    )
    sim.run(until=duration * 1.5)
    return workload, sent


def packet_stream(sent):
    return [(p.created_at, p.size, p.flow) for p in sent]


class TestBatchedEngine:
    """The horizon-windowed generator must be bit-identical to the
    process-per-flow engine — same RNG stream, same draw order, same
    emission instants (DESIGN.md §12)."""

    @pytest.mark.parametrize("preset", ["kvs", "ml", "web"])
    def test_bit_identical_to_process_engine(self, preset):
        wp, sent_p = run_mode(WORKLOAD_PRESETS[preset], "process", duration=10.0)
        wb, sent_b = run_mode(WORKLOAD_PRESETS[preset], "batched", duration=10.0)
        assert packet_stream(sent_b) == packet_stream(sent_p)
        assert wb.flows_started == wp.flows_started
        assert wb.flows_completed == wp.flows_completed
        assert wb.bytes_offered == wp.bytes_offered
        assert wb.windows_generated > 0
        assert wp.windows_generated == 0

    def test_explicit_window_does_not_change_the_stream(self):
        _, sent_ref = run_mode(WORKLOAD_PRESETS["kvs"], "batched", duration=8.0)
        for window in (0.25, 1.0, 100.0):
            _, sent = run_mode(
                WORKLOAD_PRESETS["kvs"], "batched", duration=8.0, window=window
            )
            assert packet_stream(sent) == packet_stream(sent_ref), window

    def test_mid_run_counter_reads_are_harmless(self):
        """The lazy ledgers fold on observation; reading the counters
        mid-run must not perturb the stream or the final tallies."""
        sim = Simulator(seed=2)
        sent = []
        workload = TraceWorkload(
            sim, "app", WORKLOAD_PRESETS["kvs"], offered_load_bps=1e6,
            submit=lambda p: sent.append(p) or True,
            factory=PacketFactory(), duration=10.0, mode="batched",
        )
        observed = []
        sim.run(until=4.0)
        observed.append(workload.flows_started)
        sim.run(until=7.0)
        observed.append(workload.flows_started)
        sim.run(until=15.0)
        ref, sent_ref = run_mode(WORKLOAD_PRESETS["kvs"], "batched", duration=10.0)
        assert packet_stream(sent) == packet_stream(sent_ref)
        assert workload.flows_started == ref.flows_started
        assert workload.bytes_offered == ref.bytes_offered
        # Counters were monotone non-decreasing along the way.
        assert observed == sorted(observed)
        assert observed[-1] <= workload.flows_started

    def test_zero_duration_draws_nothing(self):
        workload, sent = run_mode(WORKLOAD_PRESETS["kvs"], "batched", duration=0.0)
        assert sent == []
        assert workload.flows_started == 0

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            TraceWorkload(
                Simulator(), "a", WORKLOAD_PRESETS["kvs"], 1e6,
                lambda p: True, PacketFactory(), mode="streamed",
            )

    def test_many_distinct_flows_without_processes(self):
        """The flow-count stressor: tens of thousands of flows from a
        handful of window events, all distinct."""
        workload, sent = run_mode(
            WORKLOAD_PRESETS["kvs"], "batched", offered=2e7, duration=30.0
        )
        flows = {p.flow for p in sent}
        assert len(flows) == workload.flows_started > 10_000


class TestLedgerFold:
    def test_elapsed_ledgers_fold_every_window(self):
        """Each window step retires the ledgers that have elapsed, so a
        run whose tallies are read only at the end holds at most one
        ledger per workload, and reports the reference engine's
        tallies (DESIGN.md §12: O(active flows + one window))."""

        loads = {"kvs": 2e6, "ml": 1e8, "web": 2e7}

        def build(mode):
            sim = Simulator(seed=4)
            factory = PacketFactory()
            workloads = [
                TraceWorkload(
                    sim, preset, WORKLOAD_PRESETS[preset], offered_load_bps=load,
                    submit=lambda p: True, factory=factory, vf_index=index,
                    duration=3.0, mode=mode, window=0.5 if mode == "batched" else None,
                )
                for index, (preset, load) in enumerate(sorted(loads.items()))
            ]
            sim.run(until=6.0)
            return workloads

        batched = build("batched")
        for workload in batched:
            assert workload.windows_generated >= 3
            assert len(workload._ledgers) <= 1
        tallies = [
            (w.flows_started, w.flows_completed, w.bytes_offered) for w in batched
        ]
        assert tallies == [
            (w.flows_started, w.flows_completed, w.bytes_offered)
            for w in build("process")
        ]


class TestWindowBuild:
    def test_equal_instant_ties_follow_the_process_engine(self):
        """Scripted arrivals whose instants coincide exactly, across a
        window edge and inside a window, must tie-break as the process
        engine does: a cursor kept from the previous window before a new
        arrival, and an earlier arrival's chain before a later one."""
        # 1,000-byte packets at 8 kbit/s: a one-second gap, and every
        # instant below is an exact binary fraction.
        profile = WorkloadProfile(packet_size=1000, flow_rate_limit_bps=8000.0)
        # (interarrival, size): A at 1.0 sends 1, 2, 3 in the first
        # 4-second window and 4.0 from a kept cursor; B at 4.0 is one
        # packet; C at 5.5 sends 5.5, 6.5, 7.5; D at 6.5 is one packet.
        # The last interarrival overshoots the duration.
        script = [(1.0, 4000), (3.0, 500), (1.5, 2500), (1.0, 700), (100.0, None)]

        def run(mode):
            sim = Simulator(seed=1)
            sent = []
            workload = TraceWorkload(
                sim, "app", profile, offered_load_bps=1e4,
                submit=lambda p: sent.append(p) or True,
                factory=PacketFactory(), duration=10.0, mode=mode, window=4.0,
            )
            gaps = iter([gap for gap, _ in script])
            sizes = iter([size for _, size in script[:-1]])
            workload._rng = SimpleNamespace(expovariate=lambda lam: next(gaps))
            workload.sample_flow_size = sizes.__next__
            sim.run(until=20.0)
            return workload, packet_stream(sent)

        batched, stream = run("batched")
        _, reference = run("process")
        assert stream == reference
        assert batched.windows_generated >= 2
        times = [t for t, _, _ in stream]
        assert times == [1.0, 2.0, 3.0, 4.0, 4.0, 5.5, 6.5, 6.5, 7.5]
        a, b, c, d = sorted({flow for _, _, flow in stream})
        assert [flow for t, _, flow in stream if t in (4.0, 6.5)] == [a, b, c, d]

    def test_window_retains_under_48_bytes_a_packet(self):
        """A window keeps its instants, sizes and payload sums in typed
        arrays: with its flow starts and ends, its ledger plus its run
        train retain under 48 B per packet (a float or int object per
        instant or single-packet size would be 24-32 B more)."""
        sim = Simulator(seed=5)
        workload = TraceWorkload(
            sim, "app", WORKLOAD_PRESETS["kvs"], offered_load_bps=1e9,
            submit=lambda p: True, factory=PacketFactory(), duration=10.0,
            window=0.25,
        )
        # Five-tuples are per-flow state the run needs however the
        # window is stored: every flow shares one here, so the traced
        # bytes are the window's own.
        flow = FiveTuple("10.0.0.1", "10.0.1.1", 10_000, 5001)
        workload._mint_flow = lambda: flow
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            workload._emit_window(0.0, workload.window)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        [ledger] = workload._ledgers
        packets = len(ledger.times)
        assert packets >= 20_000
        assert retained < 48 * packets, retained / packets


class TestFlowMint:
    """A flow's five-tuple is the only object the mint allocates: each
    source host opens 16,384 flows, one per ephemeral port, and every
    workload reads its port ints from one shared tuple (DESIGN.md §12)."""

    @staticmethod
    def workload(vf_index=0):
        return TraceWorkload(
            Simulator(seed=1), "app", WORKLOAD_PRESETS["kvs"], 1e6,
            lambda p: True, PacketFactory(), vf_index=vf_index, duration=0.0,
        )

    def test_flows_pairwise_distinct_past_old_wrap_points(self):
        # 2^17 + 5 flows pass the 2^16 address wrap and the 50,000-port
        # wrap of the earlier per-flow scheme, and eight host blocks.
        workload = self.workload()
        flows = [workload._mint_flow() for _ in range((1 << 17) + 5)]
        assert len(set(flows)) == len(flows)
        assert {(f.dst_ip, f.dst_port, f.proto) for f in flows} == {
            ("10.0.1.1", 5001, PROTO_TCP)
        }
        assert flows[0].src_ip == "10.0.0.1"
        assert flows[-1].src_ip == "10.0.0.9"

    def test_addresses_and_ports_are_shared_objects(self):
        first, second = self.workload(), self.workload(vf_index=3)
        flows = [first._mint_flow() for _ in range(16_385)]
        other = [second._mint_flow() for _ in range(3)]
        # One address string per host block.
        assert flows[0].src_ip is flows[16_383].src_ip
        assert flows[16_384].src_ip == "10.0.0.2"
        assert other[0].src_ip == "10.3.0.1"
        # One port int per ephemeral port, across blocks and workloads.
        assert flows[16_384].src_port is flows[0].src_port
        assert other[2].src_port is flows[2].src_port
        ports = [f.src_port for f in flows]
        assert ports[:16_384] == list(range(49152, 65536))
        assert all(49152 <= port <= 65535 for port in ports)

    def test_a_flow_retains_at_most_100_bytes(self):
        workload = self.workload()
        workload._mint_flow()  # opens the first host, shared state built
        n = 20_000
        flows = [None] * n
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(n):
                flows[i] = workload._mint_flow()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained <= 100 * n, retained / n
