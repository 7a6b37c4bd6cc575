"""Two-execution harness: parsing, delta math, outcomes, registry."""

import functools
import importlib.util
import os
import pickle
import re
import signal
import sys
import threading
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_coverage import assert_maps_equal, edge_map, line_sites, stub_probe, walk

from deltafuzz import driver as driver_module
from deltafuzz.campaign import CampaignConfig
from deltafuzz.corpus import QueueEntry
from deltafuzz.coverage import CoverageMap
from deltafuzz.driver import (
    CHARSETS,
    OUTCOME_HARNESS_ERROR,
    OUTCOME_OK,
    OUTCOME_PARSE_REJECT,
    ConfigError,
    Constraints,
    DriverSpec,
    ParseReject,
    default_parse,
    driver_names,
    encode,
    get_driver,
    register_driver,
    run_driver,
    segment_layout,
    with_domain,
)


def toy_compare(pub: bytes, sec: bytes, meter) -> bool:
    """Illustrative early-exit compare: 1 op length check, 1 op per loop
    iteration, bail at first mismatch."""
    meter.tick(1)
    if len(pub) != len(sec):
        return False
    for i in range(len(pub)):
        meter.tick(1)
        if pub[i] != sec[i]:
            return False
    return True


TOY = DriverSpec(name="toy_compare", target=toy_compare, constraints=Constraints())


def test_default_parse_three_equal_thirds():
    c = Constraints(max_segment_len=16)
    assert default_parse(b"abcdef", c) == (b"ab", b"cd", b"ef")


def test_default_parse_truncates_to_cap():
    c = Constraints(max_segment_len=16)
    pub, s1, s2 = default_parse(bytes(100), c)
    assert len(pub) == len(s1) == len(s2) == 16


def test_default_parse_rejects_short_input():
    c = Constraints()
    with pytest.raises(ParseReject):
        default_parse(b"ab", c)
    with pytest.raises(ParseReject):
        default_parse(b"", c)


def test_default_parse_charset_mapping():
    c = Constraints(max_segment_len=4, charset="binary")
    pub, s1, s2 = default_parse(bytes([0, 1, 2, 3, 4, 5]), c)
    # modular map into {0, 1}: even -> 0, odd -> 1
    assert (pub, s1, s2) == (b"\x00\x01", b"\x00\x01", b"\x00\x01")


def test_segments_always_satisfy_constraints():
    c = Constraints(max_segment_len=3, charset="lower")
    for blob in (b"ABCDEF", bytes(range(30)), b"zzz"):
        for seg in default_parse(blob, c):
            assert len(seg) <= 3
            assert all(97 <= b <= 122 for b in seg)


def triples_of(alphabet: bytes, n: int) -> list[tuple[bytes, bytes, bytes]]:
    """Every triple of n-symbol segments over alphabet when there are at most
    4096; else, per symbol, the triple whose segments read the alphabet
    cyclically from that symbol and the next two, so that every symbol
    stands at every position of every segment."""
    if len(alphabet) ** (3 * n) <= 4096:
        return list(product([bytes(s) for s in product(alphabet, repeat=n)], repeat=3))
    cyclic = alphabet * (n // len(alphabet) + 3)
    return [tuple(cyclic[i + k : i + k + n] for k in range(3)) for i in range(len(alphabet))]


@pytest.mark.parametrize("cap", [1, 2, 3, 4, 16])
@pytest.mark.parametrize("charset", ["binary", "lower"])
def test_default_parse_inverts_encode(charset, cap):
    c = Constraints(cap, charset)
    for n in range(1, cap + 1):
        for triple in triples_of(c.alphabet(), n):
            assert default_parse(encode(triple, c), c) == triple


@settings(max_examples=300, deadline=None)
@given(
    data=st.binary(min_size=3, max_size=64),
    cap=st.integers(1, 20),
    charset=st.sampled_from(sorted(CHARSETS)),
)
def test_encoding_a_parsed_input_is_a_fixed_point(data, cap, charset):
    c = Constraints(cap, charset)
    canonical = encode(default_parse(data, c), c)
    assert default_parse(canonical, c) == default_parse(data, c)
    assert encode(default_parse(canonical, c), c) == canonical


def windows(size: int, cap: int) -> set[int]:
    """The byte offsets segment_layout keeps."""
    return {o + i for o, kept in segment_layout(size, cap) for i in range(kept)}


def test_segment_layout_examples():
    assert segment_layout(48, 4) == ((0, 4), (16, 4), (32, 4))
    assert segment_layout(10, 16) == ((0, 3), (3, 3), (6, 3))  # the tenth byte is dropped
    assert segment_layout(2, 4) == ((0, 0), (0, 0), (0, 0))


@st.composite
def flipped(draw, inside: bool):
    """(data, cap, a copy of data XORed with nonzero bytes): any length of
    at least 3, any cap; the flip confined to bytes the layout drops, or
    (inside) touching at least one byte it keeps."""
    data = draw(st.binary(min_size=3, max_size=64))
    cap = draw(st.integers(1, 24))
    kept = windows(len(data), cap)
    pool = sorted(kept) if inside else sorted(set(range(len(data))) - kept)
    assume(pool)
    flip = dict.fromkeys(draw(st.lists(st.sampled_from(pool), min_size=1)), 0)
    if inside:  # and perhaps dropped bytes too
        dropped = sorted(set(range(len(data))) - kept)
        flip.update(dict.fromkeys(draw(st.lists(st.sampled_from(dropped))) if dropped else [], 0))
    for at in flip:
        flip[at] = draw(st.integers(1, 255))
    mutant = bytes(b ^ flip.get(i, 0) for i, b in enumerate(data))
    return data, cap, mutant


@settings(max_examples=300, deadline=None)
@given(case=flipped(inside=False), charset=st.sampled_from(sorted(CHARSETS)))
def test_a_flip_of_dropped_bytes_decodes_to_the_same_triple(case, charset):
    data, cap, mutant = case
    c = Constraints(cap, charset)
    assert default_parse(mutant, c) == default_parse(data, c)


@settings(max_examples=300, deadline=None)
@given(case=flipped(inside=True))
def test_a_flip_of_a_kept_byte_decodes_to_another_triple(case):
    data, cap, mutant = case
    c = Constraints(cap, "byte")
    assert default_parse(mutant, c) != default_parse(data, c)


@pytest.mark.parametrize(
    "triple,constraints,message",
    [
        ((b"", b"", b""), Constraints(), "one length from 1 to the segment cap of 16"),
        ((b"ab", b"a", b"ab"), Constraints(), "one length from 1 to the segment cap of 16"),
        ((b"abc",) * 3, Constraints(2), "one length from 1 to the segment cap of 2"),
        ((b"\x00", b"\x02", b"\x01"), Constraints(4, "binary"), "symbol outside the alphabet"),
        ((b"ab", b"aB", b"ab"), Constraints(4, "lower"), "symbol outside the alphabet"),
    ],
    ids=["empty", "unequal", "over-the-cap", "binary-2", "lower-B"],
)
def test_encode_refusals_are_config_errors(triple, constraints, message):
    with pytest.raises(ConfigError, match=message):
        encode(triple, constraints)


def test_identical_secrets_give_zero_delta():
    data = b"\x41\x42" + b"\x41\x42" + b"\x41\x42"
    res = run_driver(TOY, data)
    assert res.outcome == OUTCOME_OK
    assert res.delta.ops == 0
    assert res.decoded == (b"AB", b"AB", b"AB")


def test_early_exit_delta_three():
    """len-4 segments, sec2 = pub, sec1 mismatching at byte 0: the second
    run executes 3 more loop iterations than the first."""
    pub = b"\x07\x08\x09\x0a"
    sec1 = b"\xff\x08\x09\x0a"
    res = run_driver(TOY, pub + sec1 + pub)
    assert res.outcome == OUTCOME_OK
    assert res.cost1.ops == 2  # length check + first iteration
    assert res.cost2.ops == 5
    assert res.delta.ops == 3


def test_delta_symmetry():
    pub = b"\x07\x08\x09\x0a"
    sec1 = b"\xff\x08\x09\x0a"
    forward = run_driver(TOY, pub + sec1 + pub)
    flipped = run_driver(TOY, pub + pub + sec1)
    assert forward.delta == flipped.delta


def test_run_driver_is_deterministic():
    data = bytes(range(30))
    assert run_driver(TOY, data) == run_driver(TOY, data)


def test_meter_cleared_between_runs():
    observed = []

    def snooping(pub, sec, meter):
        observed.append(meter.ops)
        meter.tick(1 + sec[0])

    spec = DriverSpec(name="snooping", target=snooping)
    run_driver(spec, bytes([1, 1, 1, 5, 5, 5, 9, 9, 9]))
    assert observed == [0, 0]  # both executions start from a clean meter


def test_parse_reject_outcome():
    res = run_driver(TOY, b"ab")
    assert res.outcome == OUTCOME_PARSE_REJECT
    assert res.decoded is None
    assert res.delta.ops == 0


def test_target_abort_is_a_finding():
    def brittle(pub, sec, meter):
        meter.tick(1)
        if sec and sec[0] == 0:
            raise ZeroDivisionError("boom")
        meter.tick(2)

    spec = DriverSpec(name="brittle", target=brittle)
    res = run_driver(spec, bytes([7, 0, 7]))
    assert res.outcome == OUTCOME_HARNESS_ERROR
    assert "ZeroDivisionError" in res.note
    # costs up to the abort still count toward the delta
    assert res.cost1.ops == 1
    assert res.cost2.ops == 3
    assert res.delta.ops == 2


def test_output_mismatch_noted():
    def echo_secret(pub, sec, meter):
        meter.tick(1)
        return bytes(sec)

    spec = DriverSpec(name="echo_secret", target=echo_secret)
    differing = run_driver(spec, bytes([1, 2, 3]))
    assert differing.output_mismatch is True
    agreeing = run_driver(spec, bytes([1, 2, 2]))
    assert agreeing.output_mismatch is False


def test_coverage_union_of_both_runs():
    def forked(pub, sec, meter):
        meter.tick(1)
        if sec[0] % 2:
            x = 1 + 1
        else:
            x = 2 + 2
        return None  # same output either way

    spec = DriverSpec(name="forked", target=forked)
    union = CoverageMap()
    run_driver(spec, bytes([0, 1, 2]), union)  # sec1 odd, sec2 even

    only_odd = CoverageMap()
    run_driver(spec, bytes([0, 1, 1]), only_odd)
    assert union.nonzero_count() > only_odd.nonzero_count()


def load_module(path, source, **names):
    """Import source written to path under a fresh module name, with extra
    names in its namespace; it is not added to sys.modules."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    module_spec = importlib.util.spec_from_file_location(f"loaded_{path.parent.name}", path)
    module = importlib.util.module_from_spec(module_spec)
    vars(module).update(names)
    module_spec.loader.exec_module(module)
    return module


def test_scope_stops_at_a_path_boundary(tmp_path):
    helper = load_module(
        tmp_path / "t_old" / "helper.py",
        "def check(sec, meter):\n    if sec[0]:\n        meter.tick(1)\n    return sec\n",
    )
    target = load_module(
        tmp_path / "t" / "target.py",
        "def target(pub, sec, meter):\n    meter.tick(1)\n    return helper.check(sec, meter)\n",
        helper=helper,
    )
    spec = DriverSpec(name="bounded", target=target.target)
    files = []

    def probe(site):
        files.append(sys._getframe(1).f_code.co_filename)

    with stub_probe(driver_module._tracer(spec), probe):
        res = run_driver(spec, bytes([1, 2, 0]), CoverageMap())
    assert res.delta.ops == 1  # the helper ran, unprobed
    assert set(files) == {str(tmp_path / "t" / "target.py")}  # not t_old/helper.py


def test_helper_reached_through_a_module_attribute_gets_edges(tmp_path):
    helper = load_module(
        tmp_path / "pkg" / "helper.py",
        "def check(sec, meter):\n    if sec[0]:\n        meter.tick(1)\n    return sec\n",
    )
    target = load_module(
        tmp_path / "pkg" / "target.py",
        "def target(pub, sec, meter):\n    meter.tick(1)\n    return helper.check(sec, meter)\n",
        helper=helper,
    )
    spec = DriverSpec(name="through_module", target=target.target)
    original = helper.check.__code__
    callers = []

    def probe(site):
        callers.append(sys._getframe(1).f_code.co_name)

    with stub_probe(driver_module._tracer(spec), probe):
        res = run_driver(spec, bytes([1, 2, 0]), CoverageMap())
    assert res.delta.ops == 1
    assert set(callers) == {"target", "check"}  # helper is in scope: same directory
    assert helper.check.__code__ is original


def test_target_whose_source_was_deleted_is_refused_before_it_runs(tmp_path):
    calls = []
    path = tmp_path / "gone" / "target.py"
    source = "def target(pub, sec, meter):\n    calls.append(sec)\n    meter.tick(1)\n"
    module = load_module(path, source, calls=calls)
    path.unlink()
    spec = DriverSpec(name="gone", target=module.target)
    with pytest.raises(ConfigError, match=re.escape(f"no source for {path}")):
        run_driver(spec, bytes(3), CoverageMap())
    assert calls == []


def test_sourceless_target_is_refused_when_traced():
    namespace = {}
    source = "def ghost(pub, sec, meter):\n    meter.tick(1)\n"
    exec(compile(source, "<string>", "exec"), namespace)
    spec = DriverSpec(name="ghost", target=namespace["ghost"])
    with pytest.raises(ConfigError, match="no source"):
        run_driver(spec, bytes(3), CoverageMap())
    assert run_driver(spec, bytes(3)).outcome == OUTCOME_OK  # untraced runs need no source


class Vault:
    def __init__(self, key):
        self.key = key

    def check(self, pub, sec, meter):
        meter.tick(1)
        if sec == self.key:
            meter.tick(1)


def test_bound_method_target_gets_edges():
    spec = DriverSpec(name="vault", target=Vault(b"k").check)
    original = Vault.check.__code__
    cov = CoverageMap()
    assert run_driver(spec, b"xkz", cov).delta.ops == 1
    entry, join, taken = line_sites(Vault.check, 0, 2, 3)
    # sec_1 matches the key: entry, taken block, join; sec_2: entry, join
    assert_maps_equal(cov, edge_map(*walk(entry, taken, join), *walk(entry, join)))
    assert Vault.check.__code__ is original


def test_partial_target_is_refused_when_traced():
    spec = DriverSpec(name="partial", target=functools.partial(toy_compare))
    with pytest.raises(ConfigError, match="not a Python function"):
        run_driver(spec, bytes(3), CoverageMap())
    assert run_driver(spec, bytes(3)).outcome == OUTCOME_OK


@pytest.mark.parametrize(
    "edited",
    [
        "# a new first line moves the def\ndef target(pub, sec, meter):\n    meter.tick(1)\n",
        "def target(pub, sec, meter, extra=1):\n    meter.tick(extra)\n",
    ],
    ids=["def-moved", "signature-changed"],
)
def test_changed_source_is_a_config_error_not_a_finding(tmp_path, edited):
    path = tmp_path / "edited" / "target.py"
    module = load_module(path, "def target(pub, sec, meter):\n    meter.tick(1)\n")
    path.write_text(edited)
    spec = DriverSpec(name="edited", target=module.target)
    with pytest.raises(ConfigError, match="no longer matches"):
        run_driver(spec, bytes(3), CoverageMap())


def test_registry_lookup_and_duplicates():
    assert "pwcheck_unsafe" in driver_names()
    spec = get_driver("pwcheck_unsafe")
    assert spec.name == "pwcheck_unsafe"
    with pytest.raises(ConfigError, match="unknown driver"):
        get_driver("no_such_driver")
    with pytest.raises(ValueError):
        register_driver(spec)


def test_with_domain_overrides():
    spec = get_driver("pwcheck_unsafe")
    narrowed = with_domain(spec, segment_cap=2, charset="binary", dimension="peak_mem")
    assert narrowed.constraints.max_segment_len == 2
    assert narrowed.constraints.charset == "binary"
    assert narrowed.cost_dimension == "peak_mem"
    # the registry entry is untouched
    assert get_driver("pwcheck_unsafe").constraints.charset == "byte"
    # command-line aliases and canonical names alike
    for given, canonical in [
        ("ops", "ops"),
        ("mem", "peak_mem"),
        ("response", "response_bytes"),
        ("peak_mem", "peak_mem"),
        ("response_bytes", "response_bytes"),
    ]:
        assert with_domain(spec, dimension=given).cost_dimension == canonical
    assert with_domain(spec).cost_dimension == spec.cost_dimension


def test_with_domain_validates():
    spec = get_driver("pwcheck_unsafe")
    with pytest.raises(ConfigError):
        with_domain(spec, segment_cap=0)
    with pytest.raises(ConfigError):
        with_domain(spec, charset="klingon")
    with pytest.raises(ConfigError):
        with_domain(spec, dimension="watts")


# a valid record of each checked type, and one bad field value per case
# with the error that every way of building the record must raise
VALID_RECORDS = {
    Constraints: Constraints(),
    DriverSpec: DriverSpec("ok", toy_compare),
    QueueEntry: QueueEntry(0, b"x", 0),
    CampaignConfig: CampaignConfig("pwcheck_unsafe", "seeds", "out"),
}
BAD_RECORDS = {
    "cap-zero": (Constraints, {"max_segment_len": 0}, ConfigError, "segment cap must be >= 1"),
    "cap-negative": (
        Constraints, {"max_segment_len": -1}, ConfigError, "segment cap must be >= 1"
    ),
    "unknown-charset": (
        Constraints, {"charset": "klingon"}, ConfigError, "unknown charset: 'klingon'"
    ),
    "spec-dimension": (
        DriverSpec, {"cost_dimension": "watts"}, ConfigError, "unknown cost dimension: 'watts'"
    ),
    "entry-empty-data": (
        QueueEntry, {"data": b""}, ValueError, "queue entry bytes must be non-empty"
    ),
    "entry-negative-delta": (QueueEntry, {"best_delta": -1}, ValueError, "best_delta must be >= 0"),
    "config-nan-timeout": (
        CampaignConfig, {"timeout_seconds": float("nan")}, ConfigError, "timeout must be >= 1 second"
    ),
}
# the other ways in: DriverSpec by keyword, QueueEntry by position, and
# CampaignConfig by keyword and position have tests of their own
WAYS_IN = [
    ("cap-zero", "keyword"),
    ("cap-negative", "keyword"),
    ("unknown-charset", "keyword"),
    ("cap-zero", "position"),
    ("unknown-charset", "position"),
    ("spec-dimension", "position"),
    ("entry-empty-data", "keyword"),
    ("entry-negative-delta", "keyword"),
] + [(case, way) for case in BAD_RECORDS for way in ("replace", "make")]


@pytest.mark.parametrize(
    "case,way",
    WAYS_IN,
    ids=[case if way == "keyword" else f"{case}-by-{way}" for case, way in WAYS_IN],
)
def test_constraints_are_checked_at_construction(case, way):
    cls, bad, error, message = BAD_RECORDS[case]
    valid = VALID_RECORDS[cls]
    values = {**valid._asdict(), **bad}
    with pytest.raises(error, match=message):
        if way == "keyword":
            cls(**values)
        elif way == "position":
            cls(*values.values())
        elif way == "replace":
            valid._replace(**bad)
        else:
            cls._make(values.values())


def test_a_driver_with_bad_constraints_never_reaches_the_registry():
    before = driver_names()
    for kwargs in ({"max_segment_len": -1}, {"charset": "klingon"}):
        with pytest.raises(ConfigError):
            register_driver(
                DriverSpec(name="unchecked", target=toy_compare, constraints=Constraints(**kwargs))
            )
    assert driver_names() == before


def test_unknown_dimension_rejected_at_spec_construction():
    with pytest.raises(ConfigError):
        DriverSpec(name="bad", target=toy_compare, cost_dimension="watts")


CALLS: list[tuple[bytes, bytes]] = []


def counted(pub, sec, meter):
    CALLS.append((pub, sec))
    if sec[0]:
        meter.tick(sec[0])


def test_a_reused_map_runs_each_execution_once_and_folds_each_pair_once(monkeypatch):
    """Traced calls over one plain map: the target runs once per distinct
    (pub, sec), in either secret slot, and a pair of paths folded before
    leaves the map empty. The first miss past a full memo empties it, and
    an execution run again folds as before. Untraced calls always run both
    executions."""
    monkeypatch.setattr(driver_module, "MEMO_ENTRIES", 4)
    spec = DriverSpec(name="counted", target=counted, constraints=Constraints(max_segment_len=1))
    cov = CoverageMap()
    CALLS.clear()

    def traced(data):
        cov.clear()
        return run_driver(spec, data, cov).delta.ops, bool(cov)

    assert traced(b"p\x00\x01") == (1, True)  # paths: block skipped, block taken
    assert traced(b"p\x01\x00") == (1, True)  # both executions remembered; a new pair
    assert traced(b"p\x00\x02") == (2, False)  # a new execution, the first pair again
    assert traced(b"q\x00\x00") == (0, True)  # one execution for both secrets
    assert CALLS == [(b"p", b"\x00"), (b"p", b"\x01"), (b"p", b"\x02"), (b"q", b"\x00")]

    CALLS.clear()
    assert traced(b"r\x00\x00") == (0, False)  # a miss with the memo full
    assert list(cov.memo) == [(b"r", b"\x00")]
    assert traced(b"p\x00\x01") == (1, False)  # both run again; their pair is known
    assert CALLS == [(b"r", b"\x00"), (b"p", b"\x00"), (b"p", b"\x01")]

    CALLS.clear()
    assert run_driver(spec, b"q\x00\x00").delta.ops == 0
    assert CALLS == [(b"q", b"\x00")] * 2


def test_a_repeated_triple_is_served_by_the_memo_and_folds_nothing():
    """A traced call whose input differs from the last one only in bytes
    the parser drops runs no target: the memo serves both executions, and
    with their pair in the table the map stays empty and the memo as it
    was. A pair no longer in the table folds again."""
    spec = DriverSpec(name="counted", target=counted, constraints=Constraints(max_segment_len=1))
    cov = CoverageMap()
    CALLS.clear()
    first = run_driver(spec, b"pA\x00B\x01C", cov)
    memo, folded = list(cov.memo.items()), set(cov.folded)
    cov.clear()
    assert run_driver(spec, b"pZ\x00Y\x01X", cov) == first
    assert cov == {} and list(cov.memo.items()) == memo and cov.folded == folded
    assert CALLS == [(b"p", b"\x00"), (b"p", b"\x01")]

    cov.folded.clear()
    assert run_driver(spec, b"pZ\x00Y\x01X", cov) == first and cov  # the pair folds again
    run_driver(spec, b"q\x00\x00", cov)
    assert CALLS == [(b"p", b"\x00"), (b"p", b"\x01"), (b"q", b"\x00")]


# --- forked children --------------------------------------------------------------


def open_fds() -> list[str]:
    return sorted(os.listdir("/dev/fd"))


def test_ctrl_c_during_a_fork_leaves_no_child_and_no_fd(monkeypatch):
    """SIGINT is blocked while fork_child forks; a Ctrl-C that comes then
    is raised to the caller once the child is killed and reaped and every
    pipe is closed."""
    real_fork = os.fork

    def fork_then_ctrl_c():
        pid = real_fork()
        if pid:
            signal.pthread_kill(threading.get_ident(), signal.SIGINT)
        return pid

    fds = open_fds()
    monkeypatch.setattr(os, "fork", fork_then_ctrl_c)
    with pytest.raises(KeyboardInterrupt):
        driver_module.fork_child(lambda requests, replies: requests.read())
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert open_fds() == fds


class Unrebuilt(Exception):
    """Pickles, but pickle cannot rebuild it: it passes back one argument."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def test_a_forked_child_sends_its_error_as_its_last_reply():
    # an error the parent cannot rebuild arrives as a RuntimeError naming it
    for error, raised, message in (
        (ValueError("served"), ValueError, "^served$"),
        (Unrebuilt("a", "b"), RuntimeError, "^Unrebuilt: a and b$"),
    ):
        def serve(requests, replies, error=error):
            replies.write(pickle.dumps("first"))
            replies.flush()
            raise error

        fds = open_fds()
        child = driver_module.fork_child(serve)
        assert driver_module.receive(child, "probe") == "first"
        with pytest.raises(raised, match=message):
            driver_module.receive(child, "probe")
        with pytest.raises(RuntimeError, match=r"probe child \d+ exited with status"):
            driver_module.receive(child, "probe")
        assert driver_module.kill_child(child) is None  # receive reaped it
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert open_fds() == fds
