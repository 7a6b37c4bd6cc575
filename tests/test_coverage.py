"""Edge maps, hit-count bucketing, and the probe tracer."""

import sys
from collections import OrderedDict
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltafuzz import coverage, driver as driver_module
from deltafuzz.coverage import (
    MAP_SIZE,
    CoverageMap,
    EdgeTracer,
    GlobalCoverage,
    bucketize,
    site_id,
)
from deltafuzz.driver import (
    Constraints,
    DriverSpec,
    default_parse,
    driver_names,
    get_driver,
    run_driver,
)
from deltafuzz.metering import Meter


def reference_bucket(raw):
    # independent statement of the 9-way hit-count partition
    if raw == 0:
        return 0
    if raw == 1:
        return 1
    if raw == 2:
        return 2
    if raw == 3:
        return 3
    if 4 <= raw <= 7:
        return 4
    if 8 <= raw <= 15:
        return 5
    if 16 <= raw <= 31:
        return 6
    if 32 <= raw <= 127:
        return 7
    return 8


def test_bucketize_examples():
    assert bucketize(0) == 0
    assert bucketize(5) == 4
    assert bucketize(200) == 8


def test_bucketize_matches_partition_everywhere():
    for raw in range(0, 1025):
        assert bucketize(raw) == reference_bucket(raw)
    with pytest.raises(ValueError):
        bucketize(-1)


def test_bucketize_monotone():
    classes = [bucketize(n) for n in range(0, 600)]
    assert classes == sorted(classes)


def test_has_new_coverage_rules():
    g = GlobalCoverage()

    run = CoverageMap()
    run[100] = 1
    assert g.absorb(run) == [(100, 1)]  # empty global, class 1 edge

    again = CoverageMap()
    again[100] = 1
    assert g.absorb(again) == []  # identical run absorbed

    escalated = CoverageMap()
    escalated[100] = 5  # raw 5 -> class 4 at the same index
    assert g.absorb(escalated) == [(100, 4)]

    lower = CoverageMap()
    lower[100] = 2  # an unseen lower class is new as well
    assert g.absorb(lower) == [(100, 2)]


def test_absorb_reports_new_pairs_and_fixpoint():
    g = GlobalCoverage()
    run = CoverageMap()
    run[3] = 1
    run[9] = 40
    new = g.absorb(run)
    assert sorted(new) == [(3, 1), (9, 7)]
    assert g.absorb(run) == []  # absorption fixpoint
    assert g.nonzero_count() == 2


def test_site_id_range_and_stability():
    seen = set()
    for line in range(1, 200):
        s = site_id("somemodule", line)
        assert 0 <= s < MAP_SIZE
        assert s == site_id("somemodule", line)
        seen.add(s)
    assert len(seen) > 150  # near-perfect spread at this scale
    assert site_id("a", 1) != site_id("b", 1)


def branchy(flag):
    x = 0
    if flag:
        x += 1
        x *= 3
    else:
        x -= 1
    return x


def straight():
    a = 1
    b = 2
    return a + b


def ping_pong(n):
    for _ in range(n):
        x = 1
    return x


def trace_in_use():
    return sys.gettrace()


def code_in_use():
    return sys._getframe().f_code


def raise_after_straight(exc_type):
    straight()
    raise exc_type("target failure")


class Gauge:
    def __init__(self, level):
        self.level = level

    @classmethod
    def empty(cls):
        return cls(0)

    @staticmethod
    def clamp(n):
        return min(n, 9)

    @property
    def full(self):
        return self.level == 9


def make_tabled():
    def tabled():
        return 1

    return tabled


TABLE = [make_tabled()]  # reachable through this list alone


def uses_classes_and_tables():
    gauge = Gauge.empty()
    return gauge.full, Gauge.clamp(12), TABLE[0]()


def dispatch(fn, *args):
    """One traced function whose paths are those of the function it calls."""
    return fn(*args)


def run_into(cov, tracer, *args):
    """tracer.run(*args) with its edges added to cov, as run_driver adds them."""
    try:
        return tracer.run(*args)
    finally:
        cov.add(tracer.last_path[1])


def trace(fn, *args):
    cov = CoverageMap()
    run_into(cov, EdgeTracer(fn), *args)
    return cov


def line_sites(fn, *offsets):
    """Site ids of the lines `offsets` below fn's def line."""
    first = fn.__code__.co_firstlineno
    return [site_id(__name__, first + k) for k in offsets]


@contextmanager
def stub_probe(tracer, probe):
    """Route the probes of tracer's code to probe instead of the
    process-wide site list, for the duration of the block."""
    namespaces = {id(func.__globals__): func.__globals__ for func, _, _ in tracer._swaps}
    for namespace in namespaces.values():
        namespace[coverage._PROBE] = probe
    try:
        yield
    finally:
        for namespace in namespaces.values():
            namespace[coverage._PROBE] = coverage._SITES.append


def recorded_sites(fn, *args):
    """The sites fn's probes report, in order, through a stub probe."""
    sites = []
    tracer = EdgeTracer(fn)
    with stub_probe(tracer, sites.append):
        tracer.run(*args)
    return sites


def test_probe_sites_follow_blocks():
    # entry: the def line; block heads: their first line; join: the header
    entry, if_line, then_head, else_head = line_sites(branchy, 0, 2, 3, 6)
    assert recorded_sites(branchy, True) == [entry, then_head, if_line]
    assert recorded_sites(branchy, False) == [entry, else_head, if_line]
    entry, for_line, body = line_sites(ping_pong, 0, 1, 2)
    assert recorded_sites(ping_pong, 2) == [entry, body, body, for_line]
    assert recorded_sites(straight) == line_sites(straight, 0)


def test_tracer_edge_index_and_counts():
    entry, if_line, head = line_sites(branchy, 0, 2, 3)
    edges = [entry, head ^ (entry >> 1), if_line ^ (head >> 1)]  # site ^ (previous >> 1)
    assert len(set(edges)) == 3
    tracer = EdgeTracer(branchy)
    cov = CoverageMap()
    assert run_into(cov, tracer, True) == 3
    assert list(cov) == edges
    assert [cov[i] for i in edges] == [1, 1, 1]

    # the next execution starts again from previous site 0: same cells
    run_into(cov, tracer, True)
    assert list(cov) == edges
    assert [cov[i] for i in edges] == [2, 2, 2]


def test_tracer_edge_direction_matters():
    entry, body = line_sites(ping_pong, 0, 2)
    there, back = body ^ (entry >> 1), entry ^ (body >> 1)
    assert there != back
    cov = trace(ping_pong, 3)
    assert cov[there] == 1  # entry -> first loop body
    assert back not in cov  # never taken
    assert cov[body ^ (body >> 1)] == 2  # body -> body


def test_raw_counts_saturate():
    (body,) = line_sites(ping_pong, 2)
    cov = trace(ping_pong, 300)  # 299 body -> body edges
    assert cov[body ^ (body >> 1)] == 255
    assert bucketize(cov[body ^ (body >> 1)]) == 8


def test_tracer_is_deterministic():
    a = trace(branchy, True)
    b = trace(branchy, True)
    assert_maps_equal(a, b)


def test_tracer_separates_branches():
    t = trace(branchy, True)
    f = trace(branchy, False)
    assert t != f


def test_tracer_restores_prior_trace():
    # probes need no trace function: whatever is installed stays installed
    before = sys.gettrace()
    assert EdgeTracer(trace_in_use).run() is before
    assert sys.gettrace() is before
    with pytest.raises(RuntimeError):
        EdgeTracer(raise_after_straight).run(RuntimeError)
    assert sys.gettrace() is before


def test_original_code_is_back_after_return_raise_and_interrupt():
    original = code_in_use.__code__
    assert EdgeTracer(code_in_use).run() is not original  # the probed copy ran
    assert code_in_use.__code__ is original

    tracer = EdgeTracer(raise_after_straight)
    codes = (raise_after_straight.__code__, straight.__code__)
    for exc_type in (RuntimeError, KeyboardInterrupt):
        cov = CoverageMap()
        with pytest.raises(exc_type):
            run_into(cov, tracer, exc_type)
        assert (raise_after_straight.__code__, straight.__code__) == codes
        assert cov.nonzero_count() == 2  # both functions' entries ran probed


def test_prior_trace_function_still_sees_target_lines():
    first = branchy.__code__.co_firstlineno
    lines = []

    def spy(frame, event, arg):
        if frame.f_code.co_name != "branchy":
            return None
        if event == "line":
            lines.append(frame.f_lineno - first)
        return spy

    prior = sys.gettrace()
    sys.settrace(spy)
    try:
        cov = trace(branchy, True)
    finally:
        sys.settrace(prior)
    assert lines == [1, 2, 3, 4, 7]  # the lines an uninstrumented run shows
    assert cov.nonzero_count() == 3


def test_helper_in_another_in_scope_module_gets_edges():
    spec = get_driver("modpow_unsafe")
    callers = []

    def probe(site):
        callers.append(sys._getframe(1).f_code.co_name)

    pub, sec, _ = default_parse(bytes(range(1, 49)), spec.constraints)
    u32le = spec.target.__globals__["u32le"]  # defined in benchmarks/support.py
    original = u32le.__code__
    tracer = EdgeTracer(spec.target)
    with stub_probe(tracer, probe):
        tracer.run(pub, sec, Meter())
    assert set(callers) == {"modpow_unsafe_target", "_decode", "u32le", "mod_pow_unsafe"}
    assert u32le.__code__ is original


def test_local_helper_in_a_closure_gets_edges():
    def helper(flag):
        if flag:
            return 1
        return 0

    def target(flag):
        return helper(flag)

    callers = []

    def probe(site):
        callers.append(sys._getframe(1).f_code.co_name)

    tracer = EdgeTracer(target)
    with stub_probe(tracer, probe):
        assert tracer.run(True) == 1
    assert callers == ["target", "helper", "helper"]  # helper: entry, then block head


def test_methods_and_tabled_functions_get_edges():
    callers = []

    def probe(site):
        callers.append(sys._getframe(1).f_code.co_name)

    tracer = EdgeTracer(uses_classes_and_tables)
    with stub_probe(tracer, probe):
        assert tracer.run() == (False, 9, 1)
    assert callers == ["uses_classes_and_tables", "empty", "__init__", "full", "clamp", "tabled"]


def test_the_probe_itself_is_never_probed():
    # a scope holding deltafuzz's own sources reaches the bound probe, and a
    # probed probe would call itself
    EdgeTracer(default_parse).run(bytes(9), Constraints())
    cov = CoverageMap()
    assert run_into(cov, EdgeTracer(get_driver), "pwcheck_unsafe").name == "pwcheck_unsafe"
    assert cov.nonzero_count() > 0


def test_a_second_traced_run_compiles_no_module():
    def fresh(pub, sec, meter):  # a target no earlier test has traced
        if sec[0]:
            meter.tick(1)

    spec = DriverSpec(name="fresh", target=fresh)
    with mock.patch.object(
        coverage, "_compile_probed", wraps=coverage._compile_probed
    ) as compile_probed:
        run_driver(spec, bytes([0, 1, 0]), CoverageMap())
        compiled = compile_probed.call_count
        assert compiled >= 1  # this file, at least
        run_driver(spec, bytes([0, 0, 1]), CoverageMap())
    assert compile_probed.call_count == compiled


# --- the traced harness against the edge algorithm, from recorded sites ------


def reference_map(tracer, executions):
    """The edges of tracer's executions, each an args tuple, recomputed from
    the sites their probes report: index site ^ prev with prev reset per
    execution, then prev = site >> 1; counts saturate at 255 and first
    touches keep their order. One saturating update per probe, independent
    of the tracer's fold."""
    cov = CoverageMap()
    for args in executions:
        sites = []
        with stub_probe(tracer, sites.append):
            try:
                tracer.run(*args)
            except Exception:  # noqa: BLE001 - an aborted run keeps its edges
                pass
        assert sites, "every target has at least its entry probe"
        prev = 0
        for site in sites:
            index = site ^ prev
            cov[index] = min(cov.get(index, 0) + 1, 255)
            prev = site >> 1
    return cov


BENCHMARK_DRIVERS = [
    name
    for name in driver_names()
    if get_driver(name).target.__module__.startswith("deltafuzz.benchmarks")
]


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(BENCHMARK_DRIVERS), data=st.binary(min_size=3, max_size=48))
def test_traced_map_matches_reference_algorithm(name, data):
    spec = get_driver(name)
    cov = CoverageMap()
    run_driver(spec, data, cov)
    pub, sec1, sec2 = default_parse(data, spec.constraints)
    executions = [(pub, sec, Meter()) for sec in (sec1, sec2)]
    assert_maps_equal(cov, reference_map(EdgeTracer(spec.target), executions))


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(BENCHMARK_DRIVERS),
    pool=st.lists(st.binary(min_size=4, max_size=4), min_size=3, max_size=3),
    picks=st.lists(st.tuples(*[st.integers(0, 2)] * 3), min_size=1, max_size=8),
)
def test_remembered_executions_give_the_results_and_maps_of_running_again(name, pool, picks):
    """Inputs whose thirds come from a pool of three, so executions repeat
    across evaluations in either secret slot: with one memo kept over them
    all, each result and map equals a fresh traced run's."""
    spec = get_driver(name)
    cov = CoverageMap()
    cov.memo = OrderedDict()
    for picked in picks:
        data = b"".join(pool[i] for i in picked)
        cov.clear()
        got = run_driver(spec, data, cov)
        fresh = CoverageMap()
        assert got == run_driver(spec, data, fresh)
        assert_maps_equal(cov, fresh)


# --- the table of folded path pairs --------------------------------------------


def loop_target(pub, sec, meter):
    for _ in range(sec[0]):
        meter.tick()


def campaign_map():
    """A map as a campaign keeps it: with a memo and a table of folded pairs."""
    cov = CoverageMap()
    cov.memo = OrderedDict()
    cov.folded = set()
    return cov


def test_executions_folded_in_other_pairs_still_fold_when_first_paired():
    """The table is keyed by the pair of paths, not by each: two paths each
    folded before, but never together, sum their hit counts into a bucket
    neither reached beside another path."""
    (body,) = line_sites(loop_target, 2)
    loop_edge = body ^ (body >> 1)
    spec = DriverSpec(name="loop_target", target=loop_target)
    cov, seen = campaign_map(), GlobalCoverage()

    def absorbed(data):
        cov.clear()
        run_driver(spec, data, cov)
        return seen.absorb(cov)

    assert (loop_edge, 4) in absorbed(b"p\x05\x00")  # 4 loop hits: class 4-7
    assert absorbed(b"p\x06\x00") == []  # 5 hits: class 4-7 again
    absorbed(b"p\x01\x01")  # the entry and exit edges of the loop at 2 hits
    assert absorbed(b"p\x05\x00") == [] and not cov  # a pair folded before
    assert absorbed(b"p\x05\x06") == [(loop_edge, 5)]  # 4 + 5 hits: class 8-15


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(BENCHMARK_DRIVERS),
    pool=st.lists(st.binary(min_size=4, max_size=4), min_size=3, max_size=3),
    picks=st.lists(st.tuples(*[st.integers(0, 2)] * 3), min_size=1, max_size=16),
    table_size=st.sampled_from([1, 2, 3, driver_module.FOLDED_PAIRS]),
    cache_sites=st.sampled_from([40, coverage.PATH_CACHE_SITES]),
)
def test_skipping_folded_pairs_absorbs_as_folding_every_evaluation(
    name, pool, picks, table_size, cache_sites
):
    """Inputs whose thirds come from a pool of three, so path pairs repeat:
    every absorb, and the campaign-wide record in the end, equal those of a
    map that folds every evaluation. Small tables fill and clear often, and
    a small path cache clears often and gives fresh tokens."""
    spec = get_driver(name)
    cov, skipping, folding = campaign_map(), GlobalCoverage(), GlobalCoverage()
    with mock.patch.object(driver_module, "FOLDED_PAIRS", table_size), mock.patch.object(
        coverage, "PATH_CACHE_SITES", cache_sites
    ):
        for picked in picks:
            data = b"".join(pool[i] for i in picked)
            cov.clear()
            got = run_driver(spec, data, cov)
            full = CoverageMap()
            assert got == run_driver(spec, data, full)
            assert skipping.absorb(cov) == folding.absorb(full)
            assert len(cov.folded) <= table_size
    assert list(skipping.items()) == list(folding.items())


# --- folding each path into the map: the same map as one update per probe ----


def traced_map(tracer, executions):
    """tracer's executions, each an args tuple, traced into one map; a raise
    is kept."""
    cov = CoverageMap()
    for args in executions:
        try:
            run_into(cov, tracer, *args)
        except RuntimeError:
            pass
    return cov


def assert_maps_equal(cov, expected):
    assert list(cov.items()) == list(expected.items())  # first-touch order too


def test_fold_saturates_an_edge_hit_over_255_times_in_one_execution():
    (body,) = line_sites(ping_pong, 2)
    tracer = EdgeTracer(ping_pong)
    cov = traced_map(tracer, [(400,)])
    assert cov[body ^ (body >> 1)] == 255
    assert_maps_equal(cov, reference_map(tracer, [(400,)]))


def test_fold_saturates_when_two_executions_pass_255():
    (body,) = line_sites(ping_pong, 2)
    tracer = EdgeTracer(ping_pong)
    executions = [(200,), (200,)]  # 199 + 199 body -> body
    cov = traced_map(tracer, executions)  # the second is a cached path
    assert cov[body ^ (body >> 1)] == 255
    assert_maps_equal(cov, reference_map(tracer, executions))


def test_fold_keeps_first_touch_order_across_a_cached_path():
    tracer = EdgeTracer(branchy)
    traced_map(tracer, [(False,)])  # cache the else path
    executions = [(True,), (False,), (True,)]
    cov = traced_map(tracer, executions)  # both share the entry edge
    assert_maps_equal(cov, reference_map(tracer, executions))
    assert len(cov) == 5  # entry, then head, join; else head, join


def test_fold_of_a_path_longer_than_the_cache_budget(monkeypatch):
    monkeypatch.setattr(coverage, "PATH_CACHE_SITES", 8)
    tracer = EdgeTracer(ping_pong)
    executions = [(20,), (20,), (1,)]  # 22, 22 and 3 sites
    cov = traced_map(tracer, executions)
    assert_maps_equal(cov, reference_map(tracer, executions))
    assert tracer._cached_sites == 3  # only the short path is cached


def test_fold_of_a_path_too_long_to_cache_keeps_the_cache(monkeypatch):
    monkeypatch.setattr(coverage, "PATH_CACHE_SITES", 8)
    tracer = EdgeTracer(ping_pong)
    tracer.run(1)  # 3 sites, cached
    short = tracer.last_path
    tracer.run(20)  # 22 sites: folded, not cached, and the cache kept
    tracer.run(1)
    assert tracer.last_path is short
    assert tracer._cached_sites == 3


def test_a_token_names_one_path_and_is_never_reused(monkeypatch):
    monkeypatch.setattr(coverage, "PATH_CACHE_SITES", 8)
    tracer = EdgeTracer(ping_pong)
    tokens = []
    for n in (1, 1, 2, 20, 20, 3, 1):  # 3, 3, 4, 22, 22, 5 and 3 sites
        tracer.run(n)
        tokens.append(tracer.last_path[0])
    # 1 and 2 fit the budget together, the uncached 20 gets a token per
    # fold, 3 clears the cache, and 1 comes back into it with a fresh token
    one, again, two, long1, long2, three, one_back = tokens
    assert one == again
    assert len({one, two, long1, long2, three, one_back}) == 6
    assert tokens == sorted(tokens)  # drawn from one counter, never reused
    other = EdgeTracer(branchy)
    other.run(True)
    assert other.last_path[0] > one_back  # the counter is process-wide


def test_fold_maps_unchanged_when_the_cache_is_cleared_at_its_budget(monkeypatch):
    monkeypatch.setattr(coverage, "PATH_CACHE_SITES", 10)
    tracer = EdgeTracer(dispatch)
    counts = [1, 2, 3, 1, 4, 2, 5, 1, 3, 6, 9, 2]  # paths of n + 3 sites
    executions = [(ping_pong, n) for n in counts] + [(branchy, True), (branchy, False)]
    cov = CoverageMap()
    for args in executions:
        run_into(cov, tracer, *args)
        assert tracer._cached_sites <= 10
        assert sum(map(len, tracer._paths)) == tracer._cached_sites
    assert_maps_equal(cov, reference_map(tracer, executions))


def test_fold_keeps_the_partial_path_of_a_raise_and_starts_the_next_clean():
    tracer = EdgeTracer(dispatch)
    executions = [(raise_after_straight, RuntimeError), (branchy, True)]
    cov = traced_map(tracer, executions)
    # dispatch, raise_after_straight, straight: 3 edges; then dispatch again
    # from previous site 0, the same cell, and branchy's 3
    assert cov.nonzero_count() == 6
    assert_maps_equal(cov, reference_map(tracer, executions))


def test_a_probed_closure_called_outside_a_run_leaves_the_next_map_unchanged():
    tracer = EdgeTracer(dispatch)
    escaped = tracer.run(make_tabled)  # a nested def of probed code
    assert escaped() == 1  # its entry probe runs outside any traced run
    assert len(coverage._SITES) == 1
    cov = traced_map(tracer, [(branchy, True)])
    assert_maps_equal(cov, reference_map(EdgeTracer(dispatch), [(branchy, True)]))
