"""Edge coverage: per-candidate edge hit counts, and a campaign-wide record.

Traced code runs as a copy compiled with probes: one at each function's
entry, at the head of every block of a compound statement and where those
blocks join again, the way AFL instruments basic blocks at compile time.
Each probe carries a pseudo-random site id in a 65,536-cell space; an edge
is the pair of consecutive sites hashed as (site XOR prev) with prev shifted
right one bit, so A->B and B->A land in different cells. Every probe, in
every traced module, appends its site id to one process-wide list, so a
traced execution holds 8 bytes per probe it runs until it returns. Its
path, the tuple of those sites, is then reduced to per-edge hit counts and
named by a token, once per distinct path. A candidate's map sums those
counts by edge index, in first-touch order, saturating at 255. The
campaign-wide record maps each edge index it has seen to a bitmask of the
hit-count classes shown there:
raw counts are compressed into nine coarse classes before novelty checks,
which keeps loop-count noise from flooding the queue while still rewarding
order-of-magnitude escalation.
"""

from __future__ import annotations

import ast
import itertools
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


# raw counters saturate at 255, so a 256-entry table covers every stored value;
# class c >= 1 is bit c-1 of an edge's mask, class 0 sets none
_CLASS_BIT_OF_BYTE = bytes((1 << bucketize(n)) >> 1 for n in range(256))


class CoverageMap(dict):
    """Edge index -> raw hit count, saturating at 255, for one candidate's
    executions, in first-touch order.

    A campaign reuses one map, cleared between candidates, and gives it a
    memo of the executions traced into it: run_driver replays one it
    remembers instead of running the target again. It also gives it a table
    of the path pairs already folded into it, by token. A map is a function
    of its two paths, and the campaign absorbs every map into one record
    that only gains bits, so a pair folded before can show nothing new:
    run_driver leaves the map empty for it.
    """

    memo: OrderedDict | None = None
    folded: set[tuple[int, int]] | None = None

    nonzero_count = dict.__len__

    def add(self, edges: list[tuple[int, int]]) -> None:
        """Add (edge index, hits) pairs in order, counts saturating at 255:
        the map a saturating update per probe gives."""
        get = self.get
        for index, hits in edges:
            count = get(index, 0) + hits
            self[index] = count if count < 255 else 255  # min() here would triple the loop's time


class GlobalCoverage(dict):
    """Campaign-wide record of which bucket classes each edge has shown:
    edge index -> bitmask, bit (class-1) set once that class has been
    observed there; class 0 (never hit) needs no bit, so every key is an
    edge some run has touched.
    """

    nonzero_count = dict.__len__

    def absorb(self, run: CoverageMap) -> list[tuple[int, int]]:
        """Fold a run map in; returns the (index, class) pairs never seen before."""
        new: list[tuple[int, int]] = []
        get = self.get
        for i, count in run.items():
            bit = _CLASS_BIT_OF_BYTE[count]
            have = get(i, 0)
            if not have & bit:
                self[i] = have | bit
                new.append((i, bit.bit_length()))
        return new


def site_id(module: str, lineno: int) -> int:
    """Stable pseudo-random id for a source site; survives file relocation
    because it hashes the module name, not the file path."""
    return zlib.crc32(f"{module}:{lineno}".encode()) % MAP_SIZE


# The global name every probe calls. Dunder on both sides, so that class
# bodies do not mangle it; bound to _SITES.append in each probed module's
# namespace when a tracer is built.
_PROBE = "__deltafuzz_hit__"

# The running execution's path, shared by every tracer: a traced run swaps
# code for the whole process, so only one runs at a time.
_SITES: list[int] = []


class InstrumentError(Exception):
    """Code to be traced has no source, or its source no longer matches it."""


# Cached paths hold at most this many sites between them; a miss that would
# pass it clears the cache first, and a longer path is never cached.
PATH_CACHE_SITES = 65536

# Tokens name folded paths, one per path a tracer caches and one per fold of
# a path too long to cache; drawn from one counter, so none is ever reused
# in the process, by any tracer or after a cache clear.
_TOKENS = itertools.count()


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


def _probed_code(fn: FunctionType, modules: dict[str, dict]) -> CodeType:
    """fn's probed copy, its module compiled into modules on first use."""
    code = fn.__code__
    table = modules.get(code.co_filename)
    if table is None:
        table = modules[code.co_filename] = _compile_probed(code.co_filename, fn.__globals__)
    probed = table.get((code.co_name, code.co_firstlineno))
    if probed is None or _shape(probed) != _shape(code):
        raise InstrumentError(
            f"the source of {fn.__qualname__} in {code.co_filename} no longer matches its code"
        )
    return probed


class EdgeTracer:
    """Runs one function on probed copies of the in-scope code it reaches.

    The scope is the directory of the function's source file, with its
    subdirectories, matched on path boundaries. The function reaches itself
    and, transitively, the in-scope functions in its closure and globals,
    including those of the classes, containers and in-scope modules found
    there. The constructor compiles the source file of each with probes; a
    run swaps the probed code objects into those function objects and
    restores the originals when it returns or raises. Every probed namespace
    binds the same probe, the append of the one process-wide site list.
    Functions the run creates (closures, nested defs) come from probed code
    already; one that outlives its run still appends to the site list, which
    each run clears before it starts. So such a closure, if another target
    calls it during its own traced run, records into that run's path. Each
    execution hashes its edges from previous site 0, so identical executions
    yield identical edges. Not reentrant, and the swap is visible to every
    thread: a traced target must not run on another thread during a traced
    run.
    """

    def __init__(self, fn):
        """Instrument fn. Raises InstrumentError when fn is not a Python
        function, has no source, or has a source that no longer matches its
        code. Another function it reaches whose code matches no source
        (generated or rewritten at run time) keeps its code and records no
        edges."""
        target = getattr(fn, "__func__", fn)  # a bound method runs its function
        code = getattr(target, "__code__", None)
        if code is None:
            raise InstrumentError(f"{fn!r} is not a Python function")
        if _pseudo(code.co_filename):
            raise InstrumentError(f"{target.__qualname__} has no source file ({code.co_filename})")
        self._dir = os.path.join(os.path.dirname(os.path.abspath(code.co_filename)), "")
        modules: dict[str, dict] = {}  # probed code by filename, then (name, first line)
        self._swaps: list[tuple] = []  # (function, original code, probed code)
        for func in self._reach(target):
            try:
                self._swaps.append((func, func.__code__, _probed_code(func, modules)))
            except InstrumentError:
                if func is target:
                    raise
        for func, _, _ in self._swaps:
            func.__globals__[_PROBE] = _SITES.append  # the probe: record the site
        self._fn = fn
        self._paths: dict[tuple[int, ...], tuple[int, list[tuple[int, int]]]] = {}
        self._cached_sites = 0
        self.last_path: tuple[int, list[tuple[int, int]]] = (-1, [])  # of the last run

    def _fold(self) -> tuple[int, list[tuple[int, int]]]:
        """The path just run as its token and its (edge index, hits) pairs,
        reduced once per distinct cached path."""
        path = tuple(_SITES)
        _SITES.clear()
        folded = self._paths.get(path)
        if folded is None:
            folded = next(_TOKENS), _path_edges(path)
            if len(path) <= PATH_CACHE_SITES:
                if self._cached_sites + len(path) > PATH_CACHE_SITES:
                    self._paths.clear()
                    self._cached_sites = 0
                self._paths[path] = folded
                self._cached_sites += len(path)
        return folded

    def _covers(self, filename: str | None) -> bool:
        if not filename or _pseudo(filename):
            return False
        return os.path.abspath(filename).startswith(self._dir)

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
                # tracer's own code, which every run executes, must not be probed
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

    def run(self, *args):
        """Call the function on args with the probed code, leaving its path's
        token and edges in last_path; every original code object is back,
        and last_path set, when this returns or raises."""
        _SITES.clear()  # sites a probed closure recorded outside a run
        for func, _, probed in self._swaps:
            func.__code__ = probed
        try:
            return self._fn(*args)
        finally:
            for func, original, _ in self._swaps:
                func.__code__ = original
            self.last_path = self._fold()
