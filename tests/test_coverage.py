"""Edge bitmap, hit-count bucketing, and the line tracer."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltafuzz.coverage import (
    MAP_SIZE,
    CoverageMap,
    EdgeTracer,
    GlobalCoverage,
    bucketize,
    site_id,
    tracer_for,
)
from deltafuzz.driver import default_parse, driver_names, get_driver, run_driver
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


def poke(cov, index, raw):
    if cov.raw[index] == 0:
        cov.touched.append(index)
    cov.raw[index] = raw


def test_has_new_coverage_rules():
    g = GlobalCoverage()

    run = CoverageMap()
    poke(run, 100, 1)
    assert g.absorb(run) == [(100, 1)]  # empty global, class 1 edge

    again = CoverageMap()
    poke(again, 100, 1)
    assert g.absorb(again) == []  # identical run absorbed

    escalated = CoverageMap()
    poke(escalated, 100, 5)  # raw 5 -> class 4 at the same index
    assert g.absorb(escalated) == [(100, 4)]

    lower = CoverageMap()
    poke(lower, 100, 2)  # an unseen lower class is new as well
    assert g.absorb(lower) == [(100, 2)]


def test_absorb_reports_new_pairs_and_fixpoint():
    g = GlobalCoverage()
    run = CoverageMap()
    poke(run, 3, 1)
    poke(run, 9, 40)
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


SCOPE = (branchy.__code__.co_filename,)


def trace(fn, *args):
    cov = CoverageMap()
    EdgeTracer(SCOPE).run(cov, fn, *args)
    return cov


def line_sites(fn, *offsets):
    """Site ids of the lines `offsets` below fn's def line."""
    first = fn.__code__.co_firstlineno
    return [site_id(__name__, first + k) for k in offsets]


def test_tracer_edge_index_and_counts():
    s1, s2, s3 = line_sites(straight, 1, 2, 3)
    edges = [s1, s2 ^ (s1 >> 1), s3 ^ (s2 >> 1)]  # site ^ (previous site >> 1)
    assert len(set(edges)) == 3
    tracer = EdgeTracer(SCOPE)
    cov = CoverageMap()
    tracer.run(cov, straight)
    assert cov.touched == edges
    assert [cov.raw[i] for i in edges] == [1, 1, 1]

    # the next execution starts again from previous site 0: same cells
    tracer.run(cov, straight)
    assert cov.touched == edges
    assert [cov.raw[i] for i in edges] == [2, 2, 2]


def test_tracer_edge_direction_matters():
    loop, body = line_sites(ping_pong, 1, 2)
    there, back = body ^ (loop >> 1), loop ^ (body >> 1)
    assert there != back
    cov = trace(ping_pong, 3)
    assert cov.raw[there] == 3
    assert cov.raw[back] == 3


def test_raw_counts_saturate():
    loop, body = line_sites(ping_pong, 1, 2)
    cov = trace(ping_pong, 300)
    assert cov.raw[body ^ (loop >> 1)] == 255
    assert bucketize(cov.raw[body ^ (loop >> 1)]) == 8


def test_tracer_is_deterministic():
    a = trace(branchy, True)
    b = trace(branchy, True)
    assert a.raw == b.raw
    assert a.touched == b.touched


def test_tracer_separates_branches():
    t = trace(branchy, True)
    f = trace(branchy, False)
    assert t.raw != f.raw


def test_tracer_scope_excludes_foreign_code():
    cov = CoverageMap()
    EdgeTracer(("/nonexistent/scope",)).run(cov, branchy, True)
    assert cov.nonzero_count() == 0


def test_tracer_restores_prior_trace():
    def boom():
        raise RuntimeError("target failure")

    before = sys.gettrace()
    tracer = EdgeTracer(SCOPE)
    assert tracer.run(CoverageMap(), straight) == 3
    assert sys.gettrace() is before
    with pytest.raises(RuntimeError):
        tracer.run(CoverageMap(), boom)
    assert sys.gettrace() is before


def test_one_tracer_per_scope():
    assert tracer_for(SCOPE) is tracer_for(SCOPE)
    assert tracer_for(SCOPE) is not tracer_for(("/nonexistent/scope",))


# --- the traced harness against the original per-input line tracer -----------


def reference_map(spec, data):
    """Both executions' edges as the original tracer recorded them: fresh
    state per execution, sites keyed by (file, line), module name per file."""
    cov, scope = CoverageMap(), spec.scope()
    pub, sec1, sec2 = default_parse(data, spec.constraints)
    for sec in (sec1, sec2):
        prev, modnames = 0, {}

        def on_line(frame, event, arg):
            nonlocal prev
            if event == "line":
                name = frame.f_code.co_filename
                modname = modnames.setdefault(name, frame.f_globals.get("__name__", name))
                loc = site_id(modname, frame.f_lineno)
                index = (loc ^ prev) % MAP_SIZE
                if cov.raw[index] == 0:
                    cov.touched.append(index)
                cov.raw[index] = min(cov.raw[index] + 1, 255)
                prev = loc >> 1
            return on_line

        def on_call(frame, event, arg):
            return on_line if frame.f_code.co_filename.startswith(scope) else None

        prior = sys.gettrace()
        sys.settrace(on_call)
        try:
            spec.target(pub, sec, Meter())
        except Exception:  # noqa: BLE001 - an aborted run keeps its edges
            pass
        finally:
            sys.settrace(prior)
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
    expected = reference_map(spec, data)
    assert cov.touched == expected.touched
    assert cov.raw == expected.raw
