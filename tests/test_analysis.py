"""Tests for the statistics and formatting helpers."""

import pytest

from repro.analysis.figures import ascii_cdf
from repro.analysis.stats import (
    fraction_at_or_below,
    mean,
    percentile,
    stdev,
)
from repro.analysis.tables import format_table


class TestStats:
    def test_mean(self):
        assert mean([1, 2, 3]) == 2

    def test_mean_empty_raises(self):
        with pytest.raises(ValueError):
            mean([])

    def test_stdev_sample(self):
        assert stdev([2, 4, 4, 4, 5, 5, 7, 9]) == pytest.approx(2.138, abs=1e-3)

    def test_stdev_small_samples(self):
        assert stdev([5]) == 0.0
        assert stdev([]) == 0.0

    def test_percentile_interpolation(self):
        values = [1, 2, 3, 4]
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 4
        assert percentile(values, 50) == pytest.approx(2.5)

    def test_percentile_bounds(self):
        with pytest.raises(ValueError):
            percentile([1], 101)
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_cdf_monotone(self):
        values = [3, 1, 2]
        points = [fraction_at_or_below(values, v) for v in (1, 2, 3)]
        assert points == [1 / 3, 2 / 3, 1.0]

    def test_fraction_at_or_below(self):
        values = [1, 2, 3, 4]
        assert fraction_at_or_below(values, 2) == 0.5
        assert fraction_at_or_below(values, 0) == 0.0
        assert fraction_at_or_below([], 10) == 0.0


class TestFormatting:
    def test_table_alignment(self):
        out = format_table(
            ["name", "value"], [["a", 1], ["longer", 22]], title="T"
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert all("|" in line for line in lines[1:] if "-" not in line)

    def test_cdf_table(self):
        out = ascii_cdf(
            [("first", [1.0, 2.0, 3.0]), ("second", [2.0, 4.0])],
            points=[2.0, 4.0],
        )
        assert "first" in out and "second" in out
        assert "66.7%" in out  # 2 of 3 first-series values <= 2.0
