"""Ground-truth maximum cost difference for small or structured domains.

The exhaustive oracle enumerates every (pub, sec) pair in the constrained
input domain, measures each cost through the same two-run harness the
fuzzer uses, and reports max over pub of (max over sec - min over sec).
The structured oracle instead asks the driver for witnesses of its declared
cost statistic, which stays tractable at segment lengths the exhaustive
domain cannot reach. Both replay their witness before returning, so the
reported delta is by construction reproducible with `replay`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .driver import ConfigError, DriverSpec, replay_check, run_driver, with_domain

DEFAULT_BUDGET = 2**24


class DomainTooLarge(ConfigError):
    """Input domain exceeds the exhaustive enumeration budget."""


@dataclass(frozen=True)
class OracleResult:
    driver: str
    dimension: str
    mode: str
    segment_len: int
    charset: str
    max_delta: int
    witness: bytes
    decoded: tuple[bytes, bytes, bytes]
    executions: int
    statistic: str | None = None


def _encode_segment(seg: bytes, alphabet: bytes) -> bytes:
    """Raw bytes that the charset map decodes back into seg."""
    if len(alphabet) == 256:
        return seg
    try:
        return bytes(alphabet.index(s) for s in seg)
    except ValueError:
        raise ConfigError(
            "witness generator produced a symbol outside the alphabet"
        ) from None


def _result(
    aspec: DriverSpec,
    mode: str,
    segment_len: int,
    witness: bytes,
    max_delta: int,
    executions: int,
) -> OracleResult:
    """Replay the witness once and package the verdict around it."""
    replayed = replay_check(aspec, witness, max_delta)
    return OracleResult(
        driver=aspec.name,
        dimension=aspec.cost_dimension,
        mode=mode,
        segment_len=segment_len,
        charset=aspec.constraints.charset,
        max_delta=max_delta,
        witness=witness,
        decoded=replayed.decoded,
        executions=executions,
        statistic=aspec.statistic.name if mode == "structured" else None,
    )


def exhaustive_max_delta(
    spec: DriverSpec,
    segment_len: int,
    charset: str | None = None,
    budget: int = DEFAULT_BUDGET,
) -> OracleResult:
    """True maximum delta over the full constrained domain.

    Refuses with DomainTooLarge when the triple domain |A|**(3*len)
    exceeds the budget; cost enumeration itself needs |A|**(2*len) runs.
    """
    aspec = with_domain(spec, segment_cap=segment_len, charset=charset)
    n = len(aspec.constraints.alphabet())
    cardinality = n ** (3 * segment_len)
    if cardinality > budget:
        raise DomainTooLarge(
            f"domain has {n}**{3 * segment_len} = {cardinality} inputs, "
            f"over the budget of {budget}; shrink --len or the alphabet, "
            "or use the structured oracle"
        )

    dim = aspec.cost_dimension
    executions = 0
    best_delta = -1
    best_witness = b""
    for pub_raw in product(range(n), repeat=segment_len):
        pub = bytes(pub_raw)
        lo_cost = hi_cost = None
        lo_sec = hi_sec = b""
        for sec_raw in product(range(n), repeat=segment_len):
            sec = bytes(sec_raw)
            res = run_driver(aspec, pub + sec + sec)
            executions += 1
            if res.delta_of(dim) != 0:
                raise RuntimeError(
                    f"driver {aspec.name!r} cost is nondeterministic: identical "
                    "secrets produced different readings"
                )
            cost = res.cost1.of(dim)
            if lo_cost is None or cost < lo_cost:
                lo_cost, lo_sec = cost, sec
            if hi_cost is None or cost > hi_cost:
                hi_cost, hi_sec = cost, sec
        delta = hi_cost - lo_cost
        if delta > best_delta:
            best_delta = delta
            best_witness = pub + hi_sec + lo_sec

    return _result(aspec, "exhaustive", segment_len, best_witness, best_delta, executions)


def structured_max_delta(
    spec: DriverSpec,
    segment_len: int,
    charset: str | None = None,
) -> OracleResult:
    """Maximum delta over the driver's declared cost-statistic witnesses.

    Sound only insofar as the declared statistic really is the only
    cost-relevant feature of the secret; refuses when the driver declares
    no statistic or the alphabet cannot express its witnesses.
    """
    aspec = with_domain(spec, segment_cap=segment_len, charset=charset)
    if aspec.statistic is None:
        raise ConfigError(
            f"driver {aspec.name!r} declares no cost statistic; "
            "use the exhaustive oracle"
        )
    symbols = aspec.constraints.alphabet()
    dim = aspec.cost_dimension
    executions = 0
    best_delta = -1
    best_witness = b""
    for pub, sec1, sec2 in aspec.statistic.witnesses(segment_len, symbols):
        if not (len(pub) == len(sec1) == len(sec2) == segment_len):
            raise ConfigError(
                f"statistic {aspec.statistic.name!r} produced segments of the "
                f"wrong length for --len {segment_len}"
            )
        data = b"".join(_encode_segment(seg, symbols) for seg in (pub, sec1, sec2))
        res = run_driver(aspec, data)
        executions += 1
        delta = res.delta_of(dim)
        if delta > best_delta:
            best_delta = delta
            best_witness = data
    if executions == 0:
        raise ConfigError(
            f"statistic {aspec.statistic.name!r} produced no witnesses"
        )

    return _result(aspec, "structured", segment_len, best_witness, best_delta, executions)
