"""Edge coverage in a fixed 65,536-entry hit-count bitmap.

Traced code runs as a copy compiled with probes: one at each function's
entry, at the head of every block of a compound statement and where those
blocks join again, the way AFL instruments basic blocks at compile time.
Each probe carries a pseudo-random site id; an edge is the pair of
consecutive sites hashed as (site XOR prev) with prev shifted right one bit,
so A->B and B->A land in different cells. A probe only appends its site id
to a list, so a traced execution holds 8 bytes per probe it runs until it
returns. Its path, the tuple of those sites, is then reduced to per-edge hit
counts, once per distinct path, and added to the map with counts saturating
at 255. Raw hit counts are compressed into nine coarse classes before
novelty checks, which keeps loop-count noise from flooding the queue while
still rewarding order-of-magnitude escalation.
"""

from __future__ import annotations

import ast
import functools
import linecache
import os
import sys
import zlib
from collections import OrderedDict
from types import CodeType, FunctionType, MethodType, ModuleType

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
    """Raw saturating hit counts for one candidate's executions.

    A campaign reuses one map, cleared between candidates, and gives it a
    memo of the executions traced into it: run_driver replays one it
    remembers instead of running the target again.
    """

    __slots__ = ("raw", "touched", "memo")

    def __init__(self) -> None:
        self.raw = bytearray(MAP_SIZE)
        self.touched: list[int] = []  # first-touch order, no duplicates
        self.memo: OrderedDict | None = None

    def nonzero_count(self) -> int:
        return len(self.touched)

    def add(self, edges: list[tuple[int, int]]) -> None:
        """Add (edge index, hits) pairs in order, counts saturating at 255:
        the map a saturating update per probe gives."""
        raw = self.raw
        touched = self.touched
        for index, hits in edges:
            count = raw[index]
            if count == 0:
                touched.append(index)
            count += hits
            raw[index] = count if count < 255 else 255  # min() here would triple the loop's time

    def clear(self) -> None:
        """Zero the map through its touched list, far cheaper than a new one."""
        raw = self.raw
        for index in self.touched:
            raw[index] = 0
        self.touched.clear()


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


# The global name every probe calls. Dunder on both sides, so that class
# bodies do not mangle it; bound in each probed module's namespace per run.
_PROBE = "__deltafuzz_hit__"


class InstrumentError(Exception):
    """Code to be traced has no source, or its source no longer matches it."""


# Cached paths hold at most this many sites between them; a miss that would
# pass it clears the cache first, and a longer path is never cached.
PATH_CACHE_SITES = 65536


def _path_edges(path: tuple[int, ...]) -> list[tuple[int, int]]:
    """(edge index, hits) for one execution's sites, in first-hit order."""
    hits: dict[int, int] = {}
    prev = 0
    for site in path:
        index = site ^ prev
        prev = site >> 1
        hits[index] = hits.get(index, 0) + 1
    return list(hits.items())


def _probe(site: int, at: ast.stmt) -> ast.stmt:
    """The statement `__deltafuzz_hit__(site)` at the source position of `at`."""
    pos = dict(
        lineno=at.lineno,
        col_offset=at.col_offset,
        end_lineno=at.end_lineno,
        end_col_offset=at.end_col_offset,
    )
    name = ast.Name(_PROBE, ast.Load(), **pos)
    return ast.Expr(ast.Call(name, [ast.Constant(site, **pos)], [], **pos), **pos)


# compound statements other than def and class
_BRANCHING = (ast.If, ast.For, ast.AsyncFor, ast.While, ast.With, ast.AsyncWith, ast.Try)
_BRANCHING += (ast.Match,) + ((ast.TryStar,) if sys.version_info >= (3, 11) else ())


def _blocks(stmt: ast.stmt) -> list[list[ast.stmt]]:
    """The statement lists a compound statement chooses among or repeats."""
    blocks = [getattr(stmt, name, None) for name in ("body", "orelse", "finalbody")]
    parts = list(getattr(stmt, "handlers", ())) + list(getattr(stmt, "cases", ()))
    return [block for block in blocks + [part.body for part in parts] if block]


def _is_docstring(stmt: ast.stmt) -> bool:
    value = getattr(stmt, "value", None)
    return isinstance(stmt, ast.Expr) and isinstance(value, ast.Constant) and isinstance(
        value.value, str
    )


def _instrument(stmts: list[ast.stmt], modname: str) -> list[ast.stmt]:
    """stmts with probes at each function's entry (site: the def line), at
    the head of every block of a compound statement (site: the block's first
    line) and after each compound statement, where its blocks join (site:
    its header line)."""
    out: list[ast.stmt] = []
    for i, stmt in enumerate(stmts):
        out.append(stmt)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = _instrument(stmt.body, modname)
            first = 1 if _is_docstring(body[0]) else 0  # keep the docstring first
            at = body[min(first, len(body) - 1)]
            body.insert(first, _probe(site_id(modname, stmt.lineno), at))
            stmt.body = body
        elif isinstance(stmt, ast.ClassDef):
            stmt.body = _instrument(stmt.body, modname)
        elif isinstance(stmt, _BRANCHING):
            for block in _blocks(stmt):
                head = _probe(site_id(modname, block[0].lineno), block[0])
                block[:] = [head] + _instrument(block, modname)
            after = stmts[i + 1] if i + 1 < len(stmts) else stmt
            out.append(_probe(site_id(modname, stmt.lineno), after))
    return out


def _shape(code: CodeType) -> tuple:
    """What a probed copy must share with the code it stands in for."""
    return (
        code.co_argcount,
        code.co_posonlyargcount,
        code.co_kwonlyargcount,
        code.co_flags,
        code.co_freevars,
        code.co_cellvars,
    )


def _compile_probed(filename: str, module_globals: dict) -> dict[tuple[str, int], CodeType]:
    """Every code object of the probed module source, by (name, first line)."""
    linecache.checkcache(filename)
    source = "".join(linecache.getlines(filename, module_globals))
    if not source:
        raise InstrumentError(f"no source for {filename}")
    try:
        tree = ast.parse(source, filename)
    except SyntaxError as exc:
        raise InstrumentError(f"cannot parse {filename}: {exc}") from None
    tree.body = _instrument(tree.body, module_globals.get("__name__", filename))
    found: dict[tuple[str, int], CodeType] = {}
    todo = [compile(tree, filename, "exec", dont_inherit=True)]
    while todo:
        for const in todo.pop().co_consts:
            if isinstance(const, CodeType):
                found[const.co_name, const.co_firstlineno] = const
                todo.append(const)
    return found


def _pseudo(filename: str) -> bool:
    """Names like <string> or <frozen ...> that stand for no file."""
    return filename.startswith("<") and filename.endswith(">")


class EdgeTracer:
    """Runs functions on probed copies of the in-scope code they reach.

    Scope is a set of directories (or files), matched on path boundaries.
    A traced function reaches itself and, transitively, the in-scope
    functions in its closure and globals, including those of the classes,
    containers and in-scope modules found there. The source file of each is
    parsed and compiled with probes once; a run swaps the probed code
    objects into those function objects and restores the originals when it
    returns or raises. Functions the run creates (closures, nested defs)
    come from probed code already; one that outlives its run still appends
    to the site list, which each run clears before it starts. Each execution
    hashes its edges from previous site 0, so identical executions yield
    identical maps. Not reentrant, and the swap is visible to every thread:
    a traced target must not run on another thread during a traced run.
    """

    def __init__(self, scope: tuple[str, ...]):
        paths = [os.path.abspath(path) for path in scope]
        self._files = frozenset(paths)
        self._dirs = tuple(os.path.join(path, "") for path in paths)
        self._probed: dict[str, dict[tuple[str, int], CodeType]] = {}  # by filename
        self._plans: dict[object, tuple[list[dict], list[tuple]]] = {}  # by function
        self._sites: list[int] = []  # the running execution's path
        self._hit = self._sites.append  # the probe: record the site, nothing else
        self._paths: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        self._cached_sites = 0
        self.last_edges: list[tuple[int, int]] = []  # of the last run

    def _fold(self) -> list[tuple[int, int]]:
        """The path just run as (edge index, hits) pairs, reduced once per
        distinct path."""
        path = tuple(self._sites)
        self._sites.clear()
        edges = self._paths.get(path)
        if edges is None:
            edges = _path_edges(path)
            if self._cached_sites + len(path) > PATH_CACHE_SITES:
                self._paths.clear()
                self._cached_sites = 0
            if len(path) <= PATH_CACHE_SITES:
                self._paths[path] = edges
                self._cached_sites += len(path)
        return edges

    def _covers(self, filename: str | None) -> bool:
        if not filename or _pseudo(filename):
            return False
        path = os.path.abspath(filename)
        return path in self._files or path.startswith(self._dirs)

    def instrument(self, fn) -> tuple[list[dict], list[tuple]]:
        """The namespaces the probe is bound in and the (function, original
        code, probed code) swaps that trace fn; built on first use. Raises
        InstrumentError when fn has no source, or a source that no longer
        matches its code. Another function it reaches whose code matches no
        source (generated or rewritten at run time) keeps its code and
        records no edges."""
        plan = self._plans.get(fn)
        if plan is None:
            target = getattr(fn, "__func__", fn)  # a bound method runs its function
            if _pseudo(target.__code__.co_filename):
                raise InstrumentError(
                    f"{target.__qualname__} has no source file ({target.__code__.co_filename})"
                )
            swaps = []
            for func in self._reach(target):
                try:
                    swaps.append((func, func.__code__, self._probed_code(func)))
                except InstrumentError:
                    if func is target:
                        raise
            namespaces = {id(f.__globals__): f.__globals__ for f, _, _ in swaps}
            plan = self._plans[fn] = (list(namespaces.values()), swaps)
        return plan

    def _reach(self, fn) -> list[FunctionType]:
        found: list[FunctionType] = []
        seen: set[int] = set()
        todo = [fn]
        while todo:
            obj = todo.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            if isinstance(obj, FunctionType):
                # a lambda holds no statement, so it has no probe to run; the
                # probe itself, bound in every probed namespace, must not be probed
                if (
                    obj.__name__ != "<lambda>"
                    and obj.__module__ != __name__
                    and self._covers(obj.__code__.co_filename)
                ):
                    found.append(obj)
                    for cell in obj.__closure__ or ():
                        try:
                            todo.append(cell.cell_contents)
                        except ValueError:  # a cell not yet assigned
                            pass
                    todo.append(obj.__globals__)
            elif isinstance(obj, (MethodType, staticmethod, classmethod)):
                todo.append(obj.__func__)
            elif isinstance(obj, property):
                todo += (obj.fget, obj.fset, obj.fdel)
            elif isinstance(obj, ModuleType):
                if self._covers(getattr(obj, "__file__", None)):
                    todo.append(vars(obj))
            elif isinstance(obj, type):
                module = sys.modules.get(obj.__module__)
                if self._covers(getattr(module, "__file__", None)):
                    todo += vars(obj).values()
            elif isinstance(obj, dict):
                todo += obj.values()
            elif isinstance(obj, (list, tuple, set, frozenset)):
                todo += obj
        return found

    def _probed_code(self, fn: FunctionType) -> CodeType:
        code = fn.__code__
        table = self._probed.get(code.co_filename)
        if table is None:
            table = self._probed[code.co_filename] = _compile_probed(
                code.co_filename, fn.__globals__
            )
        probed = table.get((code.co_name, code.co_firstlineno))
        if probed is None or _shape(probed) != _shape(code):
            raise InstrumentError(
                f"the source of {fn.__qualname__} in {code.co_filename} "
                "no longer matches its code"
            )
        return probed

    def run(self, cov_map: CoverageMap, fn, *args):
        """Call fn(*args) on the probed code, its edges going into cov_map
        and into last_edges; every original code object is back when this
        returns or raises."""
        namespaces, swaps = self.instrument(fn)
        for namespace in namespaces:
            namespace[_PROBE] = self._hit
        self._sites.clear()  # sites a probed closure recorded outside a run
        for func, _, probed in swaps:
            func.__code__ = probed
        try:
            return fn(*args)
        finally:
            for func, original, _ in swaps:
                func.__code__ = original
            self.last_edges = self._fold()
            cov_map.add(self.last_edges)


@functools.cache
def tracer_for(scope: tuple[str, ...]) -> EdgeTracer:
    """The process-wide tracer for a scope, built on first use. What a tracer
    keeps between executions (probed code, plans) depends only on the code
    it has seen, so sharing one cannot change a map."""
    return EdgeTracer(scope)
