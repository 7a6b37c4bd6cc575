"""Edge coverage in a fixed 65,536-entry hit-count bitmap.

Each traced source line gets a pseudo-random site id; an edge is the pair of
consecutive sites hashed as (site XOR prev) with prev shifted right one bit,
so A->B and B->A land in different cells. Raw hit counts are compressed into
nine coarse classes before novelty checks, which keeps loop-count noise from
flooding the queue while still rewarding order-of-magnitude escalation.
"""

from __future__ import annotations

import functools
import sys
import zlib

MAP_SIZE = 65536

# hit-count partition: 0, 1, 2, 3, 4-7, 8-15, 16-31, 32-127, >=128
_BUCKET_LIMITS = (0, 1, 2, 3, 7, 15, 31, 127)


def bucketize(raw: int) -> int:
    """Map a raw hit count to its bucket class (0..8)."""
    if raw < 0:
        raise ValueError("raw hit count must be >= 0")
    for cls, limit in enumerate(_BUCKET_LIMITS):
        if raw <= limit:
            return cls
    return 8


# raw counters saturate at 255, so a 256-entry table covers every stored value
_BUCKET_OF_BYTE = bytes(bucketize(n) for n in range(256))


class CoverageMap:
    """Raw saturating hit counts for one candidate's executions."""

    __slots__ = ("raw", "touched")

    def __init__(self) -> None:
        self.raw = bytearray(MAP_SIZE)
        self.touched: list[int] = []  # first-touch order, no duplicates

    def nonzero_count(self) -> int:
        return len(self.touched)


class GlobalCoverage:
    """Campaign-wide record of which bucket classes each edge has shown.

    One bitmask byte per edge index, bit (class-1) set once that class has
    been observed there; class 0 (never hit) needs no bit.
    """

    __slots__ = ("seen", "_touched")

    def __init__(self) -> None:
        self.seen = bytearray(MAP_SIZE)
        self._touched = 0

    def absorb(self, run: CoverageMap) -> list[tuple[int, int]]:
        """Fold a run map in; returns the (index, class) pairs never seen before."""
        new: list[tuple[int, int]] = []
        seen = self.seen
        raw = run.raw
        for i in run.touched:
            cls = _BUCKET_OF_BYTE[raw[i]]
            bit = 1 << (cls - 1)
            have = seen[i]
            if not have & bit:
                if not have:
                    self._touched += 1
                seen[i] = have | bit
                new.append((i, cls))
        return new

    def nonzero_count(self) -> int:
        return self._touched


def site_id(module: str, lineno: int) -> int:
    """Stable pseudo-random id for a source site; survives file relocation
    because it hashes the module name, not the file path."""
    return zlib.crc32(f"{module}:{lineno}".encode()) % MAP_SIZE


class EdgeTracer:
    """Records line-to-line edges of in-scope frames into a CoverageMap.

    Scope is a set of directory prefixes; frames whose code lives elsewhere
    (the fuzzer itself, the stdlib) produce no events. Each in-scope code
    object gets one line callback, built on its first call with its own
    lineno -> site table; callbacks, tables and the per-file module names
    persist for the tracer's life. Only the rolling previous site is reset,
    at the start of each execution, so identical executions yield identical
    maps. Not reentrant: a traced target must not start another traced run.
    """

    def __init__(self, scope_prefixes: tuple[str, ...]):
        scope = tuple(scope_prefixes)
        callbacks: dict[object, object] = {}  # code object -> callback or None
        modnames: dict[str, str] = {}  # filename -> module name
        # the execution being traced, rebound by begin()
        raw = bytearray()
        touched: list[int] = []
        prev = 0

        def line_callback(modname: str):
            sites: dict[int, int] = {}

            def on_line(frame, event, arg):
                nonlocal prev
                if event == "line":
                    lineno = frame.f_lineno
                    try:
                        loc = sites[lineno]
                    except KeyError:
                        loc = sites[lineno] = site_id(modname, lineno)
                    index = loc ^ prev
                    count = raw[index]
                    if count == 0:
                        touched.append(index)
                    if count != 255:
                        raw[index] = count + 1
                    prev = loc >> 1
                return on_line

            return on_line

        def on_call(frame, event, arg):
            code = frame.f_code
            try:
                return callbacks[code]
            except KeyError:
                pass
            filename = code.co_filename
            callback = None
            if filename.startswith(scope):
                modname = modnames.get(filename)
                if modname is None:
                    modname = frame.f_globals.get("__name__", filename)
                    modnames[filename] = modname
                callback = line_callback(modname)
            callbacks[code] = callback
            return callback

        def begin(cov_map: CoverageMap) -> None:
            nonlocal raw, touched, prev
            raw = cov_map.raw
            touched = cov_map.touched
            prev = 0

        self._on_call = on_call
        self._begin = begin

    def run(self, cov_map: CoverageMap, fn, *args):
        """Call fn(*args) with its in-scope lines traced into cov_map; the
        prior trace function is back in place when this returns or raises."""
        self._begin(cov_map)
        prior = sys.gettrace()
        sys.settrace(self._on_call)
        try:
            return fn(*args)
        finally:
            sys.settrace(prior)


@functools.cache
def tracer_for(scope: tuple[str, ...]) -> EdgeTracer:
    """The process-wide tracer for a scope, built on first use. What a tracer
    keeps between executions (callbacks, site tables, module names) depends
    only on the code it has seen, so sharing one cannot change a map."""
    return EdgeTracer(scope)
