"""Two-execution differential harness.

A fuzz input is parsed into (pub, sec1, sec2); the target runs once per
secret with the shared public input and a cleared meter, and the result
carries the per-dimension absolute cost difference. A leak shows up as a
nonzero difference: same public input, different secrets, different cost.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, NamedTuple, Optional

from .coverage import CoverageMap, EdgeTracer, InstrumentError
from .metering import DIMENSION_ALIASES, DIMENSIONS, CostReading, Meter

OUTCOME_OK = "ok"
OUTCOME_PARSE_REJECT = "parse_reject"
OUTCOME_HARNESS_ERROR = "harness_error"

# executions a map's memo keeps, least recently used out first
MEMO_ENTRIES = 512

# path pairs a map's table of folded pairs keeps; a full table is cleared,
# which costs only folds again
FOLDED_PAIRS = 16384

# named character sets a driver may constrain segments to
CHARSETS: dict[str, bytes] = {
    "byte": bytes(range(256)),
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

    def __post_init__(self):
        if self.max_segment_len < 1:
            raise ConfigError("segment cap must be >= 1")
        if self.charset not in CHARSETS:
            raise ConfigError(f"unknown charset: {self.charset!r}")

    def alphabet(self) -> bytes:
        return CHARSETS[self.charset]


def default_parse(data: bytes, constraints: Constraints) -> tuple[bytes, bytes, bytes]:
    """Split into three equal thirds, truncate each to the segment cap, and
    map every byte into the constraint charset."""
    third = len(data) // 3
    if third == 0:
        raise ParseReject(f"need at least 3 bytes, got {len(data)}")
    keep = min(third, constraints.max_segment_len)
    pub, sec1, sec2 = data[:keep], data[third : third + keep], data[2 * third : 2 * third + keep]
    if constraints.charset == "byte":
        return pub, sec1, sec2
    table = _charset_table(constraints.alphabet())
    return pub.translate(table), sec1.translate(table), sec2.translate(table)


@functools.cache
def _charset_table(alphabet: bytes) -> bytes:
    """The translation table that maps byte b to alphabet[b % len(alphabet)]."""
    return bytes(alphabet[b % len(alphabet)] for b in range(256))


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


class DiffResult(NamedTuple):
    outcome: str
    delta: CostReading = CostReading()
    cost1: CostReading = CostReading()
    cost2: CostReading = CostReading()
    decoded: tuple[bytes, bytes, bytes] | None = None
    output_mismatch: bool = False
    note: str | None = None

    def delta_of(self, dimension: str) -> int:
        return self.delta.of(dimension)


# one execution: its cost, output, failure note and path as (token, edges),
# None untraced
Execution = tuple[CostReading, object, Optional[str], Optional[tuple[int, list]]]


def run_driver(
    spec: DriverSpec, data: bytes, cov_map: CoverageMap | None = None
) -> DiffResult:
    """Parse, run the target on each secret with a fresh meter, and diff.

    When cov_map is given, both executions are edge-traced into it (their
    union); code that cannot be instrumented is a ConfigError, raised before
    the target runs. Target exceptions become a harness_error outcome
    carrying the costs accumulated up to the abort; they are findings, not
    crashes.

    When cov_map also has a memo, an execution is looked up there by (pub,
    sec) first, whichever secret it stands for: the target must be a pure
    function of those, so a remembered execution is not run again, and its
    cost, output, note and path stand in for it.

    When cov_map also has a table of folded pairs, the caller must absorb
    every map this fills into one GlobalCoverage: a pair of paths already in
    the table is not folded again, and leaves the map empty.
    """
    try:
        pub, sec1, sec2 = default_parse(data, spec.constraints)
    except ParseReject as exc:
        return DiffResult(outcome=OUTCOME_PARSE_REJECT, note=str(exc))

    tracer = memo = None
    if cov_map is not None:
        tracer = _tracer(spec)
        memo = cov_map.memo
    runs: list[Execution] = []
    for sec in (sec1, sec2):
        key = (pub, sec)
        run = memo.get(key) if memo is not None else None
        if run is None:
            run = _execute(spec.target, tracer, pub, sec)
            if memo is not None:
                memo[key] = run
                if len(memo) > MEMO_ENTRIES:
                    memo.popitem(last=False)
        else:
            memo.move_to_end(key)
        runs.append(run)

    (cost1, out1, note1, path1), (cost2, out2, note2, path2) = runs
    if cov_map is not None:
        folded = cov_map.folded
        pair = path1[0], path2[0]
        if folded is None or pair not in folded:
            cov_map.add(path1[1])
            cov_map.add(path2[1])
            if folded is not None:
                if len(folded) >= FOLDED_PAIRS:
                    folded.clear()
                folded.add(pair)
    failure = note1 if note1 is not None else note2
    # positional: keywords make this call, one per evaluation, twice as dear
    return DiffResult(
        OUTCOME_HARNESS_ERROR if failure else OUTCOME_OK,
        cost1.abs_diff(cost2),  # delta
        cost1,
        cost2,
        (pub, sec1, sec2),  # decoded
        failure is None and out1 != out2,  # output_mismatch
        failure,  # note
    )


def _execute(target, tracer: EdgeTracer | None, pub: bytes, sec: bytes) -> Execution:
    meter = Meter()
    out = note = None
    try:
        out = (target if tracer is None else tracer.run)(pub, sec, meter)
    except Exception as exc:  # noqa: BLE001 - aborts are findings
        note = f"{type(exc).__name__}: {exc}"
    return meter.read(), out, note, tracer.last_path if tracer is not None else None


_TRACERS: dict[object, EdgeTracer] = {}  # by target


def _tracer(spec: DriverSpec) -> EdgeTracer:
    """The tracer for spec's target, built on its first traced run."""
    tracer = _TRACERS.get(spec.target)
    if tracer is None:
        try:
            tracer = _TRACERS[spec.target] = EdgeTracer(spec.target)
        except InstrumentError as exc:
            raise ConfigError(f"cannot trace driver {spec.name!r}: {exc}") from None
    return tracer


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
    oracle-local; the registry entry is never mutated). The dimension may be
    a canonical name or a command-line alias (ops/mem/response)."""
    current = spec.constraints
    return replace(
        spec,
        constraints=Constraints(
            current.max_segment_len if segment_cap is None else segment_cap,
            current.charset if charset is None else charset,
        ),
        cost_dimension=spec.cost_dimension
        if dimension is None
        else DIMENSION_ALIASES.get(dimension, dimension),
    )
