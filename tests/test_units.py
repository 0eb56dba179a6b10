"""Tests for repro.units: parsing, formatting, and line-rate math."""

import math

import pytest

from repro import units
from repro.errors import ParseError


class TestParseRate:
    def test_gbit(self):
        assert units.parse_rate("10gbit") == 10e9

    def test_mbit_fractional(self):
        assert units.parse_rate("2.5mbit") == 2.5e6

    def test_bare_number_is_bits_per_second(self):
        assert units.parse_rate("1000") == 1000.0

    def test_bytes_per_second_suffix(self):
        # tc semantics: "bps" means bytes per second.
        assert units.parse_rate("1kbps") == 8000.0

    def test_case_insensitive(self):
        assert units.parse_rate("1GBit") == 1e9

    def test_unknown_suffix_raises(self):
        with pytest.raises(ParseError):
            units.parse_rate("10parsecs")

    def test_garbage_raises(self):
        with pytest.raises(ParseError):
            units.parse_rate("fast")

    def test_empty_raises(self):
        with pytest.raises(ParseError):
            units.parse_rate("")


class TestFormatting:
    def test_format_rate_gbit(self):
        assert units.format_rate(40e9) == "40.00Gbit"

    def test_format_rate_small(self):
        assert units.format_rate(500.0) == "500bit"

    def test_format_time_us(self):
        assert units.format_time(161.01e-6) == "161.010us"

    def test_format_time_seconds(self):
        assert units.format_time(2.0) == "2.000s"


class TestLineRateMath:
    def test_64b_at_10g_is_14_88_mpps(self):
        # The classic line-rate constant: 10 Gbit / (84 B * 8).
        assert units.line_rate_pps(10 * units.GBIT, 64) == pytest.approx(14.88e6, rel=1e-3)

    def test_1518b_at_40g(self):
        # 40 Gbit / (1538 B * 8) = 3.25 Mpps, the Fig. 13 headline size.
        assert units.line_rate_pps(40 * units.GBIT, 1518) == pytest.approx(3.25e6, rel=1e-2)

    def test_wire_bits_includes_overhead(self):
        assert units.wire_bits(64) == (64 + 20) * 8
