"""Two-execution differential harness.

A fuzz input is parsed into (pub, sec1, sec2); the target runs once per
secret with the shared public input and a cleared meter, and the result
carries the per-dimension absolute cost difference. A leak shows up as a
nonzero difference: same public input, different secrets, different cost.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Optional

from .coverage import CoverageMap, tracer_for
from .metering import DIMENSIONS, CostReading, Meter

OUTCOME_OK = "ok"
OUTCOME_PARSE_REJECT = "parse_reject"
OUTCOME_HARNESS_ERROR = "harness_error"

# named character sets a driver may constrain segments to
CHARSETS: dict[str, bytes | None] = {
    "byte": None,
    "binary": b"\x00\x01",
    "lower": b"abcdefghijklmnopqrstuvwxyz",
}


class ConfigError(Exception):
    """Bad user-facing configuration (unknown driver, unusable seeds, ...)."""


class ParseReject(Exception):
    """Input bytes cannot be decoded into three usable segments."""


@dataclass(frozen=True)
class Constraints:
    """Per-segment shape limits enforced constructively by the parser."""

    max_segment_len: int = 16
    charset: str = "byte"

    def alphabet(self) -> bytes | None:
        try:
            return CHARSETS[self.charset]
        except KeyError:
            raise ConfigError(f"unknown charset: {self.charset!r}") from None


def default_parse(data: bytes, constraints: Constraints) -> tuple[bytes, bytes, bytes]:
    """Split into three equal thirds, truncate each to the segment cap, and
    map every byte into the constraint charset."""
    third = len(data) // 3
    if third == 0:
        raise ParseReject(f"need at least 3 bytes, got {len(data)}")
    keep = min(third, constraints.max_segment_len)
    segments = [data[i * third : i * third + keep] for i in range(3)]
    alphabet = constraints.alphabet()
    if alphabet is not None:
        n = len(alphabet)
        segments = [bytes(alphabet[b % n] for b in seg) for seg in segments]
    return segments[0], segments[1], segments[2]


@dataclass(frozen=True)
class Statistic:
    """Declares the one cost-relevant statistic of a target so the oracle can
    enumerate the statistic's range instead of the raw byte domain.

    witnesses(segment_len, alphabet) yields (pub, sec1, sec2) segment triples
    covering the statistic's extremes, drawn from the given alphabet; it
    raises ConfigError for alphabets it cannot express witnesses in.
    """

    name: str
    witnesses: Callable[[int, bytes], Iterator[tuple[bytes, bytes, bytes]]]


@dataclass(frozen=True)
class DriverSpec:
    name: str
    target: Callable[[bytes, bytes, Meter], object]
    description: str = ""
    cost_dimension: str = "ops"
    constraints: Constraints = field(default_factory=Constraints)
    statistic: Optional[Statistic] = None

    def __post_init__(self):
        if self.cost_dimension not in DIMENSIONS:
            raise ConfigError(f"unknown cost dimension: {self.cost_dimension!r}")

    def scope(self) -> tuple[str, ...]:
        """Directories whose code is coverage-traced: wherever the target
        function is defined."""
        return (os.path.dirname(self.target.__code__.co_filename),)


@dataclass(frozen=True)
class DiffResult:
    outcome: str
    delta: CostReading = CostReading()
    cost1: CostReading = CostReading()
    cost2: CostReading = CostReading()
    decoded: tuple[bytes, bytes, bytes] | None = None
    output_mismatch: bool = False
    note: str | None = None

    def delta_of(self, dimension: str) -> int:
        return self.delta.of(dimension)


def run_driver(
    spec: DriverSpec, data: bytes, cov_map: CoverageMap | None = None
) -> DiffResult:
    """Parse, run the target on each secret with a cleared meter, and diff.

    When cov_map is given, both executions are edge-traced into it (their
    union). Target exceptions become a harness_error outcome carrying the
    costs accumulated up to the abort; they are findings, not crashes.
    """
    try:
        pub, sec1, sec2 = default_parse(data, spec.constraints)
    except ParseReject as exc:
        return DiffResult(outcome=OUTCOME_PARSE_REJECT, note=str(exc))

    tracer = tracer_for(spec.scope()) if cov_map is not None else None
    meter = Meter()
    costs: list[CostReading] = []
    outputs: list[object] = []
    failure: str | None = None
    for sec in (sec1, sec2):
        meter.clear()
        try:
            if tracer is not None:
                out = tracer.run(cov_map, spec.target, pub, sec, meter)
            else:
                out = spec.target(pub, sec, meter)
            outputs.append(out)
        except Exception as exc:  # noqa: BLE001 - aborts are findings
            outputs.append(None)
            if failure is None:
                failure = f"{type(exc).__name__}: {exc}"
        costs.append(meter.read())

    return DiffResult(
        outcome=OUTCOME_HARNESS_ERROR if failure else OUTCOME_OK,
        delta=costs[0].abs_diff(costs[1]),
        cost1=costs[0],
        cost2=costs[1],
        decoded=(pub, sec1, sec2),
        output_mismatch=failure is None and outputs[0] != outputs[1],
        note=failure,
    )


def replay_check(spec: DriverSpec, data: bytes, expected: int) -> DiffResult:
    """Run data once, untraced, and insist it reproduces the expected delta
    in the spec's dimension; a reported delta must replay exactly."""
    result = run_driver(spec, data)
    got = result.delta_of(spec.cost_dimension)
    if got != expected:
        raise RuntimeError(
            f"witness failed replay: expected delta {expected}, got {got}"
        )
    return result


_REGISTRY: dict[str, DriverSpec] = {}


def register_driver(spec: DriverSpec) -> DriverSpec:
    if spec.name in _REGISTRY:
        raise ValueError(f"driver already registered: {spec.name}")
    _REGISTRY[spec.name] = spec
    return spec


def get_driver(name: str) -> DriverSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise ConfigError(f"unknown driver {name!r}; registered: {known}") from None


def driver_names() -> list[str]:
    return sorted(_REGISTRY)


def with_domain(
    spec: DriverSpec,
    segment_cap: int | None = None,
    charset: str | None = None,
    dimension: str | None = None,
) -> DriverSpec:
    """Copy of spec with overridden constraints/dimension (campaign- or
    oracle-local; the registry entry is never mutated)."""
    constraints = spec.constraints
    if segment_cap is not None or charset is not None:
        constraints = Constraints(
            max_segment_len=segment_cap
            if segment_cap is not None
            else constraints.max_segment_len,
            charset=charset if charset is not None else constraints.charset,
        )
        if constraints.max_segment_len < 1:
            raise ConfigError("segment cap must be >= 1")
        constraints.alphabet()  # validate charset name eagerly
    return replace(
        spec,
        constraints=constraints,
        cost_dimension=dimension if dimension is not None else spec.cost_dimension,
    )
