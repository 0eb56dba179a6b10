"""Tests for the stats package: series, rates, latency, CPU, report."""

import pytest

from repro.stats import (
    CpuReport,
    EwmaRate,
    LatencySummary,
    RateSeries,
    Table,
    WindowedRate,
    jitter,
    percentile,
    summarize_latencies,
)


class TestRateSeries:
    def test_binning(self):
        rs = RateSeries(window=1.0)
        rs.add(0.5, 100.0)
        rs.add(0.9, 100.0)
        rs.add(1.5, 300.0)
        samples = dict(rs.samples())
        assert samples[1.0] == pytest.approx(200.0)
        assert samples[2.0] == pytest.approx(300.0)

    def test_mean_rate(self):
        rs = RateSeries(window=1.0)
        for t in range(4):
            rs.add(t + 0.5, 100.0)
        assert rs.mean_rate(0.0, 4.0) == pytest.approx(100.0)
        assert rs.mean_rate(2.0, 4.0) == pytest.approx(100.0)

    def test_rate_at_outside_data(self):
        rs = RateSeries(window=1.0)
        rs.add(0.5, 100.0)
        assert rs.rate_at(5.0) == 0.0

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            RateSeries(window=0.0)

    def test_mean_rate_prorates_partial_tail_window(self):
        # Regression: a steady 100 units/s stream stopped mid-bin used
        # to report sum/whole-bins = 250/3 ≈ 83 over [0, 2.5) because
        # the divisor counted the final bin in full.
        rs = RateSeries(window=1.0)
        t = 0.0
        while t < 2.5:
            rs.add(t, 10.0)  # 100 units/s
            t += 0.1
        assert rs.mean_rate(0.0, 2.5) == pytest.approx(100.0)
        # Bin-aligned queries are unchanged by the fix.
        assert rs.mean_rate(0.0, 2.0) == pytest.approx(100.0)

    def test_mean_rate_prorates_mid_run_window(self):
        # A mid-run window ending inside a *fully populated* bin takes
        # that bin's amount pro-rata over the whole bin.
        rs = RateSeries(window=1.0)
        t = 0.0
        while t < 4.0:
            rs.add(t, 10.0)
            t += 0.1
        assert rs.mean_rate(0.0, 2.5) == pytest.approx(100.0, rel=0.01)
        assert rs.mean_rate(1.5, 3.5) == pytest.approx(100.0, rel=0.01)

    def test_add_rejects_negative_time(self):
        # Regression: int(-0.25/0.1) == -2 used to land the amount in
        # the *last* bin via Python negative indexing.
        rs = RateSeries(window=0.1)
        rs.add(0.05, 100.0)
        rs.add(0.95, 100.0)
        with pytest.raises(ValueError):
            rs.add(-0.25, 100.0)
        # The last bin is untouched by the rejected add.
        assert rs.rate_at(0.95) == pytest.approx(1000.0)
        assert rs.total == pytest.approx(200.0)


class TestWindowedRate:
    def test_roll_computes_rate(self):
        wr = WindowedRate(start_time=0.0)
        wr.observe(1000.0)
        assert wr.roll(2.0) == pytest.approx(500.0)
        assert wr.last_rate == pytest.approx(500.0)

    def test_zero_interval_keeps_previous(self):
        wr = WindowedRate(start_time=0.0)
        wr.observe(1000.0)
        wr.roll(1.0)
        assert wr.roll(1.0) == pytest.approx(1000.0)  # unchanged

    def test_reset(self):
        wr = WindowedRate()
        wr.observe(500.0)
        wr.roll(1.0)
        wr.reset(2.0)
        assert wr.last_rate == 0.0
        assert wr.pending == 0.0


class TestEwmaRate:
    def test_converges_to_constant_rate(self):
        ewma = EwmaRate(tau=0.1)
        t = 0.0
        for _ in range(500):
            t += 0.01
            ewma.observe(t, 10.0)  # 1000 units/s
        assert ewma.observe(t + 0.01, 10.0) == pytest.approx(1000.0, rel=0.05)

    def test_decays_when_idle(self):
        ewma = EwmaRate(tau=0.1)
        t = 0.0
        for _ in range(200):
            t += 0.01
            ewma.observe(t, 10.0)
        assert ewma.rate(t + 1.0) < 0.01 * ewma.rate(t)

    def test_bad_tau_rejected(self):
        with pytest.raises(ValueError):
            EwmaRate(tau=0.0)

    def test_first_sample_counts_as_impulse(self):
        # Regression: the first observe() used to return 0.0 and fold
        # nothing in, biasing short-flow estimates low.
        ewma = EwmaRate(tau=0.1)
        rate = ewma.observe(1.0, 50.0)
        assert rate == pytest.approx(50.0 / 0.1)
        assert ewma.rate(1.0) == pytest.approx(500.0)

    def test_first_sample_matches_same_instant_branch(self):
        # The first sample must behave exactly like a same-instant
        # arrival: amount/tau folded into the rate.
        first = EwmaRate(tau=0.05)
        first.observe(2.0, 30.0)
        primed = EwmaRate(tau=0.05)
        primed.observe(2.0, 0.0)   # establish last_time with no amount
        primed.observe(2.0, 30.0)  # dt == 0 branch
        assert first.rate(2.0) == pytest.approx(primed.rate(2.0))


class TestLatency:
    def test_percentile_interpolation(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        assert percentile(samples, 50) == pytest.approx(2.5)
        assert percentile(samples, 0) == 1.0
        assert percentile(samples, 100) == 4.0

    def test_percentile_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_percentile_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)
        with pytest.raises(ValueError):
            percentile([1.0], -0.5)

    def test_percentile_single_sample_any_p(self):
        for p in (0, 37.5, 50, 100):
            assert percentile([42.0], p) == 42.0

    def test_percentile_sorts_input(self):
        shuffled = [3.0, 1.0, 4.0, 2.0]
        assert percentile(shuffled, 50) == pytest.approx(2.5)
        assert percentile(shuffled, 0) == 1.0
        assert percentile(shuffled, 100) == 4.0
        assert shuffled == [3.0, 1.0, 4.0, 2.0]  # caller's list untouched

    def test_percentile_exact_rank_no_interpolation(self):
        # Odd count: p=50 lands exactly on the middle sample.
        assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
        # p=25 on 5 samples: rank 1.0 exactly.
        assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 25) == 2.0

    def test_percentile_matches_numpy_linear(self):
        # Reference values from numpy.percentile(..., method="linear").
        samples = [10.0, 20.0, 30.0, 40.0]
        assert percentile(samples, 90) == pytest.approx(37.0)
        assert percentile(samples, 10) == pytest.approx(13.0)

    def test_jitter_zero_for_constant(self):
        assert jitter([5.0, 5.0, 5.0]) == 0.0

    def test_jitter_single_sample(self):
        assert jitter([5.0]) == 0.0

    def test_summary(self):
        summary = summarize_latencies([1.0, 2.0, 3.0])
        assert summary.count == 3
        assert summary.mean == pytest.approx(2.0)
        assert summary.minimum == 1.0
        assert summary.maximum == 3.0

    def test_summary_empty(self):
        summary = summarize_latencies([])
        assert summary.count == 0
        assert summary.mean == 0.0

    def test_scaled(self):
        summary = LatencySummary(3, 2.0, 2.0, 3.0, 3.0, 1.0, 0.5)
        scaled = summary.scaled(0.5)
        assert scaled.mean == 1.0
        assert scaled.jitter == 0.25
        assert scaled.count == 3


class TestCpuReport:
    def test_core_equivalents(self):
        report = CpuReport()
        report.core(0).charge("sched:enqueue", 5.0)
        report.core(1).charge("app:x", 2.0)
        assert report.core_equivalents(10.0, "sched") == pytest.approx(0.5)
        assert report.core_equivalents(10.0, "") == pytest.approx(0.7)

    def test_cores_in_use(self):
        report = CpuReport()
        report.core(0).charge("a", 9.0)
        report.core(1).charge("a", 0.1)
        assert report.cores_in_use(10.0, threshold=0.05) == 1

    def test_negative_charge_rejected(self):
        report = CpuReport()
        with pytest.raises(ValueError):
            report.core(0).charge("a", -1.0)


class TestReport:
    def test_table_renders_aligned(self):
        table = Table("title", ["a", "bb"])
        table.add_row(1, 22)
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "title"
        assert "a" in lines[1] and "bb" in lines[1]
        assert "1" in lines[3] and "22" in lines[3]

    def test_wrong_cell_count_rejected(self):
        table = Table("t", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)
