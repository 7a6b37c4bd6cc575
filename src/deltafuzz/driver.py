"""Two-execution differential harness.

A fuzz input is parsed into (pub, sec1, sec2); the target runs once per
secret with the shared public input and a cleared meter, and the result
carries the per-dimension absolute cost difference. A leak shows up as a
nonzero difference: same public input, different secrets, different cost.
"""

from __future__ import annotations

import functools
import os
import threading
from typing import BinaryIO, Callable, NamedTuple, Optional

from .coverage import CoverageMap, EdgeTracer, InstrumentError
from .metering import DIMENSION_ALIASES, DIMENSIONS, CostReading, Meter

OUTCOME_OK = "ok"
OUTCOME_PARSE_REJECT = "parse_reject"
OUTCOME_HARNESS_ERROR = "harness_error"

# executions a map's memo keeps; a full memo is cleared, which costs only
# runs again
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


def checked(cls):
    """Class decorator for a typing.NamedTuple with a _check(self) method,
    which raises for a bad record: every way one is built runs it, the
    constructor, _make, _replace, copy and unpickling alike."""
    new = cls.__new__

    @functools.wraps(new)  # so the signature still lists the fields
    def checked_new(cls, *args, **kwargs):
        self = new(cls, *args, **kwargs)
        self._check()
        return self

    cls.__new__ = checked_new
    cls._make = classmethod(lambda cls, iterable: cls(*iterable))
    return cls


@checked
class Constraints(NamedTuple):
    """Per-segment shape limits enforced constructively by the parser."""

    max_segment_len: int = 16
    charset: str = "byte"

    def _check(self) -> None:
        if self.max_segment_len < 1:
            raise ConfigError("segment cap must be >= 1")
        if self.charset not in CHARSETS:
            raise ConfigError(f"unknown charset: {self.charset!r}")

    def alphabet(self) -> bytes:
        return CHARSETS[self.charset]


@functools.lru_cache(maxsize=1024)  # a lookup costs less than the arithmetic
def segment_layout(size: int, cap: int) -> tuple[tuple[int, int], ...]:
    """(offset, kept length) of each third: the bytes default_parse keeps."""
    third = size // 3
    return tuple((i * third, min(third, cap)) for i in range(3))


def default_parse(data: bytes, constraints: Constraints) -> tuple[bytes, bytes, bytes]:
    """Split into three equal thirds, truncate each to the segment cap, and
    map every byte into the constraint charset."""
    (_, keep), (b, _), (c, _) = segment_layout(len(data), constraints.max_segment_len)
    if keep == 0:
        raise ParseReject(f"need at least 3 bytes, got {len(data)}")
    pub, sec1, sec2 = data[:keep], data[b : b + keep], data[c : c + keep]
    if constraints.charset == "byte":
        return pub, sec1, sec2
    table = _charset_table(constraints.alphabet())
    return pub.translate(table), sec1.translate(table), sec2.translate(table)


@functools.cache
def _charset_table(alphabet: bytes) -> bytes:
    """The translation table that maps byte b to alphabet[b % len(alphabet)]."""
    return bytes(alphabet[b % len(alphabet)] for b in range(256))


def encode(triple: tuple[bytes, bytes, bytes], constraints: Constraints) -> bytes:
    """The input bytes that default_parse decodes into triple: its segments
    back to back, each symbol as its index in the alphabet. Refuses, with
    ConfigError, segments that are empty, of unequal length, longer than the
    segment cap, or that hold a symbol outside the alphabet."""
    n, cap = len(triple[0]), constraints.max_segment_len
    if not 0 < n <= cap or any(len(seg) != n for seg in triple):
        raise ConfigError(f"segments must share one length from 1 to the segment cap of {cap}")
    alphabet = constraints.alphabet()
    try:
        return bytes(alphabet.index(s) for seg in triple for s in seg)
    except ValueError:
        raise ConfigError("witness generator produced a symbol outside the alphabet") from None


class Statistic(NamedTuple):
    """Declares the one cost-relevant statistic of a target so the oracle can
    enumerate the statistic's range instead of the raw byte domain.

    witnesses(segment_len, alphabet) returns (pub, secrets): one public
    segment and the secrets at the statistic's extremes, drawn from the given
    alphabet; it raises ConfigError for alphabets it cannot express them in.
    """

    name: str
    witnesses: Callable[[int, bytes], tuple[bytes, list[bytes]]]


@checked
class DriverSpec(NamedTuple):
    name: str
    target: Callable[[bytes, bytes, Meter], object]
    description: str = ""
    cost_dimension: str = "ops"
    constraints: Constraints = Constraints()
    statistic: Optional[Statistic] = None

    def _check(self) -> None:
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

    Untraced (no cov_map), both executions always run. Traced, both are
    edge-traced into cov_map (their union); code that cannot be instrumented
    is a ConfigError, raised before the target runs. Target exceptions
    become a harness_error outcome carrying the costs accumulated up to the
    abort; they are findings, not crashes.

    A traced execution is looked up in cov_map's memo by (pub, sec) first,
    whichever secret it stands for: the target must be a pure function of
    those, so a remembered execution is not run again, and its cost, output,
    note and path stand in for it; as the keys do not name the target, one
    map serves one target. So a mutant that changes one secret runs the
    target once. The memo keeps up to MEMO_ENTRIES executions and starts
    afresh when full; a run again traces the same path, so only time
    depends on what it still holds. A map is a function of its two paths,
    and a GlobalCoverage only gains bits, so a pair of paths folded and
    absorbed before can show nothing new: a pair in cov_map's table of
    folded pairs (up to FOLDED_PAIRS, cleared when full) is not folded again
    and leaves the map empty. So a caller that reuses one map must absorb
    every non-empty map into one GlobalCoverage; a fresh map per call sees
    both executions folded. Remembered executions from different calls can
    still form a new pair or a new delta, so every call's result still
    needs the caller's novelty check. A remembered execution may also have
    run elsewhere, in a campaign's child that runs stage executions ahead:
    by the same purity rule it stands in for a run here, and a path it
    brings under a token of its own can at worst refold a pair of paths
    already absorbed, which adds no bit.
    """
    try:
        pub, sec1, sec2 = decoded = default_parse(data, spec.constraints)
    except ParseReject as exc:
        return DiffResult(outcome=OUTCOME_PARSE_REJECT, note=str(exc))

    if cov_map is None:
        (cost1, out1, note1, _), (cost2, out2, note2, _) = (
            _execute(spec.target, None, pub, sec1),
            _execute(spec.target, None, pub, sec2),
        )
    else:
        tracer, memo = _tracer(spec), cov_map.memo
        runs: list[Execution] = []
        for sec in (sec1, sec2):
            key = (pub, sec)
            run = memo.get(key)
            if run is None:
                if len(memo) >= MEMO_ENTRIES:
                    memo.clear()
                run = memo[key] = _execute(spec.target, tracer, pub, sec)
            runs.append(run)
        (cost1, out1, note1, path1), (cost2, out2, note2, path2) = runs
        folded, pair = cov_map.folded, (path1[0], path2[0])
        if pair not in folded:
            cov_map.add(path1[1])
            cov_map.add(path2[1])
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
        decoded,
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


def fork_cpus() -> int:
    """The CPUs this process may use for forked workers: 1 where it cannot
    fork, or where a second thread runs, since forking it can deadlock."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def fork_child(serve: Callable[[BinaryIO, BinaryIO], None]) -> tuple:
    """Fork a child that runs serve(requests, replies) on two pipes. If
    serve raises, the child pickles the exception as its last reply, for
    receive to raise; one that would not unpickle goes as a RuntimeError
    giving its type and message. It leaves through os._exit: 0 once serve
    returns or its exception is sent, and its replies are flushed; 1 on any
    other path. Returns (its pid, request writer, reply reader), or () when
    the system has no process to spare. Ctrl-C signals the terminal's whole
    foreground group, so the child ignores SIGINT and only this process acts
    on it; SIGINT stays blocked across the fork, and a Ctrl-C that comes
    during it kills and reaps the child before it is raised here.
    kill_child ends the child."""
    import signal
    requests, to_child = os.pipe()
    from_child, replies = os.pipe()
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    child = ()
    try:
        pid = os.fork()
        if pid == 0:
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                os.close(to_child)
                os.close(from_child)
                with open(requests, "rb") as reader, open(replies, "wb") as writer:
                    try:
                        serve(reader, writer)
                    except BaseException as exc:  # noqa: BLE001 - receive raises it
                        import pickle
                        try:
                            pickle.loads(reply := pickle.dumps(exc))
                        except Exception:  # noqa: BLE001 - whatever the round trip raises
                            reply = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
                        writer.write(reply)
                os._exit(0)
            finally:
                os._exit(1)
        child = pid, open(to_child, "wb"), open(from_child, "rb")
    except OSError:  # EAGAIN or ENOMEM
        os.close(to_child)
        os.close(from_child)
    finally:
        os.close(requests)
        os.close(replies)
        try:  # a SIGINT that came while blocked is raised here
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        except KeyboardInterrupt:
            if child:
                kill_child(child)
            raise
    return child


def receive(child: tuple, what: str):
    """The next reply of a child of fork_child, unpickled. Raises the
    exception serve raised, if that is the reply; if the child exited
    without one, kills and reaps it and raises RuntimeError."""
    import pickle
    try:
        reply = pickle.load(child[2])
    except (EOFError, pickle.UnpicklingError):
        raise RuntimeError(f"{what} child {child[0]} exited with status {kill_child(child)}") from None
    if isinstance(reply, BaseException):
        raise reply
    return reply


def kill_child(child: tuple) -> Optional[int]:
    """Kill and reap a child of fork_child, and close its pipes; its exit
    status, or None if it was killed before."""
    import signal
    pid, requests, replies = child
    if replies.closed:
        return None
    os.kill(pid, signal.SIGKILL)
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    replies.close()
    try:
        requests.close()  # flushes a request cut short by Ctrl-C, if any
    except BrokenPipeError:
        pass
    return status


# by name: the spec, or for a stock driver not yet looked up, its loader
_REGISTRY: dict[str, DriverSpec | Callable[[], DriverSpec]] = {}


def register_driver(spec: DriverSpec) -> DriverSpec:
    register_loader(spec.name, spec)
    return spec


def register_loader(name: str, load: DriverSpec | Callable[[], DriverSpec]) -> None:
    """Register a driver by name with its spec, or with load, which builds
    the spec on the first lookup; so a stock driver's target module is
    imported only when a caller needs it."""
    if name in _REGISTRY:
        raise ValueError(f"driver already registered: {name}")
    _REGISTRY[name] = load


def get_driver(name: str) -> DriverSpec:
    try:
        spec = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise ConfigError(f"unknown driver {name!r}; registered: {known}") from None
    if not isinstance(spec, DriverSpec):
        spec = _REGISTRY[name] = spec()
    return spec


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
    current, dimension = spec.constraints, DIMENSION_ALIASES.get(dimension, dimension)
    return spec._replace(
        cost_dimension=spec.cost_dimension if dimension is None else dimension,
        constraints=Constraints(
            current.max_segment_len if segment_cap is None else segment_cap,
            current.charset if charset is None else charset,
        ),
    )
