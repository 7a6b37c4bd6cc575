"""Ground-truth maximum cost difference for small or structured domains.

Both oracles reduce each public input to max - min cost over a list of
secrets, through the same two-run harness the fuzzer uses, and witness the
widest pub with its dearest and cheapest secret. The exhaustive oracle takes
the whole constrained domain. The structured oracle takes the one pub and
the extreme secrets of the driver's declared cost statistic, which stays
tractable at segment lengths the exhaustive domain cannot reach. Both replay
their witness, so the reported delta is by construction reproducible with
`replay`.

The exhaustive sweep splits its pubs over the CPUs the process may use, in
forked children, with results identical to one process's; so targets must be
pure, as replay assumes. Campaigns stay single-process: each evaluation can
change the queue the next one draws from.
"""

from __future__ import annotations

import os
import threading
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


def _reduce(aspec: DriverSpec, pubs: list[bytes], secs: list[bytes]) -> list[tuple]:
    """(max - min cost over secs, the first secret at each extreme) per pub."""
    dim = aspec.cost_dimension
    out = []
    for pub in pubs:
        costs = {}
        for sec in secs:
            res = run_driver(aspec, pub + sec + sec)
            if res.delta_of(dim) != 0:
                raise RuntimeError(
                    f"driver {aspec.name!r} cost is nondeterministic: identical "
                    "secrets produced different readings"
                )
            costs[sec] = res.cost1.of(dim)
        hi, lo = max(costs, key=costs.get), min(costs, key=costs.get)  # first of each, in order
        out.append((costs[hi] - costs[lo], hi, lo))
    return out


def _sweep(aspec: DriverSpec, pubs: list[bytes], secs: list[bytes]) -> list[tuple]:
    """_reduce over pubs[k::w] for each share k of w: share 0 here, each other in
    a forked child, unless a second thread makes forking liable to deadlock."""
    affinity = getattr(os, "sched_getaffinity", None)
    w = min(len(affinity(0)) if affinity else os.cpu_count() or 1, len(pubs))
    if w < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return _reduce(aspec, pubs, secs)
    import pickle
    import signal
    children, statuses = [], []  # children: (pid, read end of its pipe)
    try:
        for k in range(1, w):
            r, wr = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    try:
                        share = _reduce(aspec, pubs[k::w], secs)
                    except BaseException as exc:  # noqa: BLE001 - the parent raises it
                        share = exc
                    with open(wr, "wb") as fh:
                        fh.write(pickle.dumps(share))
                    os._exit(0)
                finally:
                    os._exit(1)  # nothing sent: the parent reads EOF
            os.close(wr)  # before the next fork, so EOF means this child is gone
            children.append((pid, open(r, "rb")))
        shares = [_reduce(aspec, pubs[::w], secs)]
        sent = [pipe.read() for _, pipe in children]
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for (pid, _), data, status in zip(children, sent, statuses):
        if not data:  # its share or exception, pickled, never came
            raise RuntimeError(f"oracle child {pid} exited with status {status}, sending nothing")
        share = pickle.loads(data)
        if isinstance(share, BaseException):
            raise share
        shares.append(share)
    return [shares[i % w][i // w] for i in range(len(pubs))]


def _best(
    aspec: DriverSpec, mode: str, segment_len: int, pubs: list[bytes], secs: list[bytes]
) -> OracleResult:
    """The first pub with the widest spread of costs over secs, witnessed by
    its dearest and cheapest secret, replayed once."""
    best_delta, best_witness = -1, b""
    for pub, (delta, hi_sec, lo_sec) in zip(pubs, _sweep(aspec, pubs, secs)):
        if delta > best_delta:
            best_delta, best_witness = delta, pub + hi_sec + lo_sec
    replayed = replay_check(aspec, best_witness, best_delta)
    return OracleResult(
        driver=aspec.name,
        dimension=aspec.cost_dimension,
        mode=mode,
        segment_len=segment_len,
        charset=aspec.constraints.charset,
        max_delta=best_delta,
        witness=best_witness,
        decoded=replayed.decoded,
        executions=len(pubs) * len(secs),
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

    pubs = secs = [bytes(p) for p in product(range(n), repeat=segment_len)]
    return _best(aspec, "exhaustive", segment_len, pubs, secs)


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
    pub, secs = aspec.statistic.witnesses(segment_len, symbols)
    if not secs:
        raise ConfigError(f"statistic {aspec.statistic.name!r} produced no witnesses")
    if any(len(seg) != segment_len for seg in (pub, *secs)):
        raise ConfigError(
            f"statistic {aspec.statistic.name!r} produced segments of the "
            f"wrong length for --len {segment_len}"
        )
    secs = [_encode_segment(sec, symbols) for sec in secs]
    return _best(aspec, "structured", segment_len, [_encode_segment(pub, symbols)], secs)
