"""Radio coverage model.

The paper's class-2/3 Bluetooth radios give each BIPS piconet a
coverage circle of roughly 10 m radius (20 m diameter, §5).  BIPS treats
a room as the granule of location, so the model that matters is binary
in-coverage/out-of-coverage: a distance threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Coverage radius the paper assumes for a BIPS piconet (metres).
DEFAULT_COVERAGE_RADIUS_M = 10.0


@dataclass(frozen=True)
class CoverageModel:
    """Binary disc coverage: in range iff distance <= radius."""

    radius_m: float = DEFAULT_COVERAGE_RADIUS_M

    def __post_init__(self) -> None:
        if self.radius_m <= 0:
            raise ValueError(f"radius must be positive: {self.radius_m}")

    def in_range(self, distance_m: float) -> bool:
        """Whether a device at ``distance_m`` can communicate."""
        if distance_m < 0:
            raise ValueError(f"distance cannot be negative: {distance_m}")
        return distance_m <= self.radius_m

    @property
    def diameter_m(self) -> float:
        """Coverage diameter (the paper's 20 m crossing length)."""
        return 2.0 * self.radius_m
