"""Tests for the binary coverage model."""

from __future__ import annotations

import pytest

from repro.radio.propagation import CoverageModel


class TestCoverageModel:
    def test_default_radius_is_ten_meters(self):
        assert CoverageModel().radius_m == 10.0

    def test_in_range_boundary_inclusive(self):
        model = CoverageModel(radius_m=10.0)
        assert model.in_range(10.0)
        assert not model.in_range(10.0001)

    def test_diameter_matches_paper(self):
        # §5: "the diameter of the coverage area is about 20m"
        assert CoverageModel().diameter_m == 20.0

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            CoverageModel().in_range(-1.0)

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            CoverageModel(radius_m=0.0)
