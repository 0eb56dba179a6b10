"""Property-based tests (hypothesis) on core data structures and
invariants."""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.token_bucket import MeterColor, TokenBucket
from repro.core.flow_cache import ExactMatchCache
from repro.net import FiveTuple, PacketFactory
from repro.nic import ReorderBuffer
from repro.sim import Simulator
from repro.stats.latency import percentile
from repro.stats.timeseries import RateSeries
from repro.tc.classifier import MatchSpec
from repro.units import parse_rate

# ----------------------------------------------------------------------
# Token bucket invariants
# ----------------------------------------------------------------------

rates = st.floats(min_value=1e3, max_value=1e11, allow_nan=False)
bursts = st.floats(min_value=1e3, max_value=1e9, allow_nan=False)


class TestTokenBucketProperties:
    @given(rate=rates, burst=bursts, dts=st.lists(
        st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=30))
    def test_tokens_never_exceed_capacity(self, rate, burst, dts):
        bucket = TokenBucket(rate, burst, start_full=False)
        t = 0.0
        for dt in dts:
            t += dt
            bucket.refill(t)
            assert 0.0 <= bucket.tokens <= bucket.capacity + 1e-6

    @given(rate=rates, burst=bursts,
           packets=st.lists(st.floats(min_value=1.0, max_value=1e6), max_size=50))
    def test_meter_conserves_tokens(self, rate, burst, packets):
        """Green packets consume exactly their size; red consume nothing."""
        bucket = TokenBucket(rate, burst)
        consumed = 0.0
        for size in packets:
            before = bucket.tokens
            color = bucket.meter(size)
            if color is MeterColor.GREEN:
                assert bucket.tokens == before - size
                consumed += size
            else:
                assert bucket.tokens == before
        assert consumed <= burst + 1e-6

    @settings(deadline=None)
    @given(rate=rates, burst=bursts, duration=st.floats(min_value=0.1, max_value=100.0))
    def test_long_run_grant_bounded_by_rate(self, rate, burst, duration):
        """Total green bits over [0,T] ≤ burst + rate×T (the defining
        token-bucket property)."""
        bucket = TokenBucket(rate, burst)
        # Packet size scales with the total grantable volume so the
        # drain loop stays bounded regardless of the sampled shape.
        packet_bits = max(1.0, (burst + rate * duration) / 500)
        granted = 0.0
        steps = 200
        for i in range(1, steps + 1):
            t = duration * i / steps
            bucket.refill(t)
            while bucket.meter(packet_bits) is MeterColor.GREEN:
                granted += packet_bits
        assert granted <= burst + rate * duration + packet_bits

    @given(keep=st.floats(min_value=0.0, max_value=1e6),
           tokens=st.floats(min_value=0.0, max_value=1e6))
    def test_withdraw_deposit_conserves(self, keep, tokens):
        bucket = TokenBucket(0.0, 1e6, start_full=False)
        bucket.tokens = tokens
        shadow = TokenBucket(0.0, 2e6, start_full=False)
        moved = bucket.withdraw_excess(keep)
        accepted = shadow.deposit(moved)
        assert accepted == moved  # shadow had room
        # The transfer is a move: no tokens created or destroyed.
        assert math.isclose(bucket.tokens + shadow.tokens, tokens, rel_tol=1e-9, abs_tol=1e-6)
        assert bucket.tokens <= max(keep, tokens)


# ----------------------------------------------------------------------
# Reorder buffer: any completion order releases in ticket order
# ----------------------------------------------------------------------

class TestReorderBufferProperties:
    @given(order=st.permutations(list(range(12))),
           drops=st.sets(st.integers(min_value=0, max_value=11)))
    def test_release_order_is_ticket_order(self, order, drops):
        factory = PacketFactory()
        released = []
        reorder = ReorderBuffer(lambda p: released.append(p.seq))
        tickets = [reorder.take_ticket() for _ in range(12)]
        packets = [factory.make(64, FiveTuple("a", "b", 1, 2), 0.0) for _ in range(12)]
        for index in order:
            if index in drops:
                reorder.complete(tickets[index], None)
            else:
                reorder.complete(tickets[index], packets[index])
        expected = [packets[i].seq for i in range(12) if i not in drops]
        assert released == expected
        assert reorder.parked == 0


# ----------------------------------------------------------------------
# LRU cache vs a reference model
# ----------------------------------------------------------------------

class TestCacheProperties:
    @given(ops=st.lists(
        st.tuples(st.sampled_from(["get", "put"]), st.integers(min_value=0, max_value=9)),
        max_size=60))
    def test_matches_reference_lru(self, ops):
        capacity = 4
        cache = ExactMatchCache(capacity=capacity)
        model = {}          # key -> value
        lru = []            # most recent last
        for op, key in ops:
            if op == "put":
                cache.put(key, key * 10)
                if key in model:
                    lru.remove(key)
                elif len(model) == capacity:
                    evicted = lru.pop(0)
                    del model[evicted]
                model[key] = key * 10
                lru.append(key)
            else:
                got = cache.get(key)
                if key in model:
                    assert got == model[key]
                    lru.remove(key)
                    lru.append(key)
                else:
                    assert got is None
        assert len(cache) == len(model)


# ----------------------------------------------------------------------
# Simulator determinism and ordering
# ----------------------------------------------------------------------

class TestSimulatorProperties:
    @given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0),
                           min_size=1, max_size=50))
    def test_events_fire_in_nondecreasing_time(self, delays):
        sim = Simulator()
        fired = []
        for d in delays:
            sim.schedule(d, lambda d=d: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_seeded_streams_reproducible(self, seed):
        a = Simulator(seed=seed).random.stream("x").random()
        b = Simulator(seed=seed).random.stream("x").random()
        assert a == b


# ----------------------------------------------------------------------
# Parsers and stats
# ----------------------------------------------------------------------

class TestParserProperties:
    @given(value=st.integers(min_value=1, max_value=10**6),
           suffix=st.sampled_from(["bit", "kbit", "mbit", "gbit"]))
    def test_rate_parse_scales_correctly(self, value, suffix):
        factor = {"bit": 1, "kbit": 1e3, "mbit": 1e6, "gbit": 1e9}[suffix]
        assert parse_rate(f"{value}{suffix}") == value * factor


class TestStatsProperties:
    @given(samples=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=100),
           p=st.floats(min_value=0.0, max_value=100.0))
    def test_percentile_within_range(self, samples, p):
        result = percentile(samples, p)
        assert min(samples) <= result <= max(samples)

    @given(samples=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=2, max_size=100))
    def test_percentile_monotone_in_p(self, samples):
        assert percentile(samples, 25) <= percentile(samples, 75)

    @given(events=st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=100.0),
                  st.floats(min_value=0.0, max_value=1e6)),
        max_size=60))
    def test_rate_series_total_conserved(self, events):
        series = RateSeries(window=1.0)
        for t, amount in events:
            series.add(t, amount)
        binned = sum(rate * series.window for _, rate in series.samples())
        assert math.isclose(binned, series.total, rel_tol=1e-9, abs_tol=1e-6)


class TestClassifierProperties:
    @given(sport=st.integers(min_value=0, max_value=65535),
           lo=st.integers(min_value=0, max_value=65535),
           hi=st.integers(min_value=0, max_value=65535))
    def test_port_range_match_is_interval(self, sport, lo, hi):
        assume(lo <= hi)
        spec = MatchSpec.compile({"sport": f"{lo}-{hi}"})
        packet = PacketFactory().make(64, FiveTuple("a", "b", sport, 80), 0.0)
        assert spec.matches(packet) == (lo <= sport <= hi)
