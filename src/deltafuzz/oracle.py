"""Ground-truth maximum cost difference for small or structured domains.

Both oracles reduce each public input to max - min cost over a list of
secrets, and witness the widest pub with its dearest and cheapest secret.
They enumerate decoded segments and run the target on each (pub, secret)
pair twice, the second run checking that its cost is deterministic, so
`executions` counts pairs, half the target runs. The exhaustive oracle takes
the whole constrained domain, whose pairs its budget bounds. The structured
oracle takes the one pub and the extreme secrets of the driver's declared
cost statistic, which stays tractable at lengths the exhaustive domain
cannot reach. Both encode their witness to input bytes with driver.encode,
the inverse of the harness's parse, and replay it through the fuzzer's
two-run harness, parse included, so the reported delta is by construction
reproducible with `replay`.

The exhaustive sweep shares its pubs among forked children (see _sweep),
with results identical to one process's; so targets must be pure, as replay
assumes. driver.fork_child states how a child treats Ctrl-C and its errors;
the sweep kills and reaps each child on any exit.
"""

from __future__ import annotations

import os
from itertools import product
from typing import NamedTuple

from . import driver
from .driver import ConfigError, DriverSpec, _execute, fork_cpus, replay_check, with_domain

# perfbench's tracer (perfbench/layers.py, Tracer.active) wraps
# oracle.run_driver, which the sweep no longer calls; so the name stays bound
run_driver = driver.run_driver

DEFAULT_BUDGET = 2**24

# chunks a forked sweep hands out at most: their 4-byte tokens fill at most
# 4 KiB, which one write puts into an empty pipe whole, without blocking
_CHUNKS = 1024


class OracleResult(NamedTuple):
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


def _reduce(aspec: DriverSpec, pubs: list[bytes], secs: list[bytes]) -> list[tuple]:
    """(max - min cost over secs, the first secret at each extreme) per pub.

    Segments are decoded symbols, run on the target directly; each pair runs
    twice, and the second run checks that the target is deterministic."""
    target, dim = aspec.target, aspec.cost_dimension
    out = []
    for pub in pubs:
        costs = {}
        for sec in secs:
            cost = _execute(target, None, pub, sec)[0].of(dim)
            if _execute(target, None, pub, sec)[0].of(dim) != cost:
                raise RuntimeError(
                    f"driver {aspec.name!r} cost is nondeterministic: identical "
                    "secrets produced different readings"
                )
            costs[sec] = cost
        hi, lo = max(costs, key=costs.get), min(costs, key=costs.get)  # first of each, in order
        out.append((costs[hi] - costs[lo], hi, lo))
    return out


def _sweep(aspec: DriverSpec, pubs: list[bytes], secs: list[bytes]) -> list[tuple]:
    """_reduce over pubs, shared by w workers: worker 0 here, each other in a
    child of fork_child, one per CPU that fork_cpus allows.

    Worker k reduces pub k, so every child gets work; then each worker claims
    the next unclaimed chunk of the rest, by reading its start, a 4-byte
    token, from one pipe, until the pipe is empty. A fork that fails (no
    process or memory to spare) ends the forking, and worker 0 reduces the
    first pub of each worker not forked. The parent merges the chunks by pub
    index, so the result is a one-process sweep's."""
    w = min(fork_cpus(), len(pubs))
    if w < 2:
        return _reduce(aspec, pubs, secs)
    import pickle
    size = (len(pubs) - w) // _CHUNKS + 1  # so at most _CHUNKS chunks
    tokens, wr = os.pipe()
    os.write(wr, b"".join(i.to_bytes(4, "little") for i in range(w, len(pubs), size)))
    os.close(wr)  # before any fork, so an empty pipe reads as EOF

    def work(*firsts: int) -> dict[int, list[tuple]]:
        done = {k: _reduce(aspec, pubs[k : k + 1], secs) for k in firsts}
        while token := os.read(tokens, 4):
            i = int.from_bytes(token, "little")
            done[i] = _reduce(aspec, pubs[i : i + size], secs)
        return done

    def send(requests, replies) -> None:  # in the child of worker k's fork
        replies.write(pickle.dumps(work(k)))

    children = []  # (pid, request writer, reply reader)
    try:
        for k in range(1, w):
            child = driver.fork_child(send)
            if not child:  # EAGAIN or ENOMEM
                break
            children.append(child)
        done = work(0, *range(len(children) + 1, w))
        for child in children:
            done.update(driver.receive(child, "oracle"))
    finally:
        os.close(tokens)
        for child in children:
            driver.kill_child(child)
    return [res for i in sorted(done) for res in done[i]]


def _best(aspec: DriverSpec, mode: str, pubs: list[bytes], secs: list[bytes]) -> OracleResult:
    """The first pub with the widest spread of costs over secs, witnessed by
    its dearest and cheapest secret, encoded to input bytes and replayed once
    through the harness's parse."""
    best_delta, best = -1, ()
    for pub, (delta, hi_sec, lo_sec) in zip(pubs, _sweep(aspec, pubs, secs)):
        if delta > best_delta:
            best_delta, best = delta, (pub, hi_sec, lo_sec)
    best_witness = driver.encode(best, aspec.constraints)
    replayed = replay_check(aspec, best_witness, best_delta)
    return OracleResult(
        driver=aspec.name,
        dimension=aspec.cost_dimension,
        mode=mode,
        segment_len=aspec.constraints.max_segment_len,
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

    Refuses a budget below 1, and a domain whose |A|**(2*len) (pub,
    secret) pairs, the pairs the sweep runs and `executions` counts, exceed
    the budget.
    """
    if budget < 1:
        raise ConfigError("budget must be >= 1")
    aspec = with_domain(spec, segment_cap=segment_len, charset=charset)
    symbols = aspec.constraints.alphabet()
    n = len(symbols)
    pairs = n ** (2 * segment_len)
    if pairs > budget:
        raise ConfigError(
            f"domain has {n}**{2 * segment_len} = {pairs} (pub, secret) pairs, "
            f"over the budget of {budget}; shrink --len or the alphabet, "
            "or use the structured oracle"
        )

    pubs = secs = [bytes(p) for p in product(symbols, repeat=segment_len)]
    return _best(aspec, "exhaustive", pubs, secs)


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
    for sec in secs:  # refuses a symbol outside the alphabet
        driver.encode((pub, sec, sec), aspec.constraints)
    return _best(aspec, "structured", [pub], secs)
