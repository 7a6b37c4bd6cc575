"""Deterministic resource accounting for fuzzed targets.

Targets report their own costs through an explicit meter instead of being
timed: operation ticks for the timing dimension, an allocation shadow log
for the space dimension, and a response-size counter for observable output.
Identical executions therefore always produce identical readings.
"""

from __future__ import annotations

from dataclasses import dataclass


DIMENSIONS = ("ops", "peak_mem", "response_bytes")

# short aliases accepted on the command line
DIMENSION_ALIASES = {
    "ops": "ops",
    "mem": "peak_mem",
    "response": "response_bytes",
}


class HarnessError(Exception):
    """A target or its metering hooks were used in a way that makes the
    reading meaningless (e.g. freeing more memory than is live)."""


@dataclass(frozen=True)
class CostReading:
    """Snapshot of one execution's cost along all three dimensions."""

    ops: int = 0
    peak_mem: int = 0
    response_bytes: int = 0

    def of(self, dimension: str) -> int:
        if dimension not in DIMENSIONS:
            raise ValueError(f"unknown cost dimension: {dimension!r}")
        return getattr(self, dimension)

    def abs_diff(self, other: "CostReading") -> "CostReading":
        # positional: keywords make this call, one per evaluation, 40% dearer
        return CostReading(
            abs(self.ops - other.ops),
            abs(self.peak_mem - other.peak_mem),
            abs(self.response_bytes - other.response_bytes),
        )


class Meter:
    """Mutable cost accumulator handed to a target for one execution."""

    __slots__ = ("ops", "live_mem", "peak_mem", "response_bytes")

    def __init__(self) -> None:
        self.ops = 0
        self.live_mem = 0
        self.peak_mem = 0
        self.response_bytes = 0

    def tick(self, n: int = 1) -> None:
        """Charge n abstract operations (n >= 1)."""
        if n < 1:
            raise ValueError("tick requires n >= 1")
        self.ops += n

    def record_alloc(self, nbytes: int) -> None:
        """Add nbytes to live memory; peak_mem tracks the high-water mark."""
        if nbytes < 0:
            raise ValueError("record_alloc requires nbytes >= 0")
        self.live_mem += nbytes
        if self.live_mem > self.peak_mem:
            self.peak_mem = self.live_mem

    def record_free(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("record_free requires nbytes >= 0")
        if nbytes > self.live_mem:
            raise HarnessError(
                f"freed {nbytes} bytes with only {self.live_mem} live"
            )
        self.live_mem -= nbytes

    def record_response(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("record_response requires nbytes >= 0")
        self.response_bytes += nbytes

    def read(self) -> CostReading:
        """Immutable snapshot; later meter activity cannot change it."""
        return CostReading(self.ops, self.peak_mem, self.response_bytes)
