"""Benchmark cost models (hand-traced), functional equivalence, compressor."""

import itertools
import random

import pytest

from deltafuzz.benchmarks import crime, jetty_eq, login, micro, modpow, pad, pwcheck
from deltafuzz.benchmarks.crime import (
    crime_compress_target,
    lz77_compress,
    lz77_decompress,
)
from deltafuzz.benchmarks.jetty_eq import string_eq_const, string_eq_leaky
from deltafuzz.benchmarks.login import login_safe, login_unsafe
from deltafuzz.benchmarks.micro import (
    WRAP_WINDOW_MIN,
    array_safe,
    array_unsafe,
    loop_and_branch_safe,
    loop_and_branch_unsafe,
    sanity_safe,
    sanity_unsafe,
    straightline_safe,
    straightline_unsafe,
    wraps_to_negative,
)
from deltafuzz.benchmarks.modpow import (
    mod_pow_safe,
    mod_pow_unsafe,
    modpow_safe_target,
    modpow_unsafe_target,
)
from deltafuzz.benchmarks.pad import PAD_TOTAL, pad_safe, pad_unsafe
from deltafuzz.benchmarks.pwcheck import pwcheck_safe, pwcheck_unsafe
from deltafuzz.benchmarks.support import charge_loop, to_signed32, u32le, wrap_add32
from deltafuzz.driver import driver_names, get_driver
from deltafuzz.metering import HarnessError, Meter


def ops_of(target, pub, sec):
    m = Meter()
    target(pub, sec, m)
    return m.ops


def run_or_raise(target, pub, sec):
    """(outcome kind, value) so equivalence checks can compare aborts too."""
    m = Meter()
    try:
        return ("ok", target(pub, sec, m))
    except Exception as exc:  # noqa: BLE001
        return ("raise", type(exc).__name__)


# --- pwcheck ---------------------------------------------------------------


def test_pwcheck_hand_traced_costs():
    assert ops_of(pwcheck_unsafe, b"", b"") == 1
    assert ops_of(pwcheck_unsafe, bytes([1, 2]), bytes([1, 3])) == 6
    assert ops_of(pwcheck_unsafe, bytes([1]), bytes([1, 3])) == 1  # length reject
    # full match: 1 + 2 per byte
    assert ops_of(pwcheck_unsafe, b"abcd", b"abcd") == 9
    # mismatch at the last byte costs one tick more than a full match
    assert ops_of(pwcheck_unsafe, b"abcd", b"abcz") == 10


def test_pwcheck_safe_cost_ignores_secret():
    pub = b"\x10" * 8
    costs = {ops_of(pwcheck_safe, pub, bytes([i] * 8)) for i in range(20)}
    assert costs == {1 + 2 * 8}


def test_pwcheck_results():
    assert pwcheck_unsafe(b"aa", b"aa", Meter()) is True
    assert pwcheck_unsafe(b"aa", b"ab", Meter()) is False
    assert pwcheck_unsafe(b"aa", b"a", Meter()) is False


# --- jetty-style compare ----------------------------------------------------


def test_jetty_cost_tracks_matching_positions():
    # cost = 1 + 3n + (number of matching positions)
    pub = bytes([5, 6])
    assert ops_of(string_eq_leaky, pub, bytes([5, 7])) == 8
    assert ops_of(string_eq_leaky, pub, bytes([5, 6])) == 9
    assert ops_of(string_eq_leaky, pub, bytes([9, 9])) == 7


def test_jetty_const_cost_is_flat():
    pub = bytes(range(8))
    costs = {ops_of(string_eq_const, pub, bytes([i] * 8)) for i in range(30)}
    assert costs == {1 + 4 * 8}


def test_jetty_results_match_equality():
    for sec in (b"\x05\x06", b"\x05\x07", b"\x09\x06", b"\x05"):
        expected = sec == b"\x05\x06"
        assert string_eq_leaky(b"\x05\x06", sec, Meter()) is expected
        assert string_eq_const(b"\x05\x06", sec, Meter()) is expected


# --- pad ---------------------------------------------------------------------


def test_pad_cost_tracks_name_length():
    pub = b"\x41" * 8
    for k in range(0, 9):
        sec = b"\x61" * k + b"\x00" * (8 - k)
        m = Meter()
        pad_unsafe(pub, sec, m)
        assert m.ops == 1 + (PAD_TOTAL - k)
        assert m.peak_mem == PAD_TOTAL - k


def test_pad_safe_cost_is_flat():
    pub = b"\x41" * 8
    for k in range(0, 9):
        sec = b"\x61" * k
        m = Meter()
        pad_safe(pub, sec, m)
        assert m.ops == 1 + PAD_TOTAL
        assert m.peak_mem == PAD_TOTAL


def test_pad_output_is_fixed_width():
    out_u = pad_unsafe(b"\x2e", b"ab\x00cd", Meter())
    out_s = pad_safe(b"\x2e", b"ab\x00cd", Meter())
    assert out_u == out_s == b"ab" + b"\x2e" * 14


# --- modpow -------------------------------------------------------------------


def test_modpow_identity_exponent():
    m = Meter()
    assert mod_pow_unsafe(2, 0, 5, m) == 1
    assert m.ops == 1  # validation only; the loop never runs


def test_modpow_popcount_difference():
    # e=0b1111 vs e=0b1000: same bit width, three extra multiplies
    full = Meter()
    mod_pow_unsafe(3, 0b1111, 1000003, full)
    sparse = Meter()
    mod_pow_unsafe(3, 0b1000, 1000003, sparse)
    assert full.ops - sparse.ops == 3


def test_modpow_rejects_tiny_modulus():
    with pytest.raises(HarnessError):
        mod_pow_unsafe(2, 3, 1, Meter())
    with pytest.raises(HarnessError):
        mod_pow_safe(2, 3, 0, 8, Meter())


def test_modpow_safe_exhaustive_8bit_sweep():
    """All 8-bit exponents: result equals pow() and cost is uniform."""
    costs = set()
    for e in range(256):
        m = Meter()
        assert mod_pow_safe(7, e, 251, 8, m) == pow(7, e, 251)
        costs.add(m.ops)
    assert costs == {1 + 3 * 8}


def test_modpow_unsafe_matches_pow():
    rng = random.Random(11)
    for _ in range(300):
        base = rng.randrange(0, 1 << 32)
        e = rng.randrange(0, 1 << 64)
        mod = rng.randrange(2, 1 << 32)
        assert mod_pow_unsafe(base, e, mod, Meter()) == pow(base, e, mod)


def test_modpow_driver_decoding():
    # pub: modulus 257 (LE), base 2; sec: exponent 5
    pub = (257).to_bytes(4, "little") + (2).to_bytes(4, "little")
    sec = bytes([5])
    assert modpow_unsafe_target(pub, sec, Meter()) == pow(2, 5, 257)
    assert modpow_safe_target(pub, sec, Meter()) == pow(2, 5, 257)


# --- micro loop programs --------------------------------------------------------


def test_support_helpers():
    assert u32le(b"\x01\x00\x00\x00") == 1
    assert u32le(b"\x01\x02") == 0x0201
    assert u32le(b"") == 0
    assert to_signed32(0xFFFFFFFF) == -1
    assert to_signed32(0x7FFFFFFF) == 2**31 - 1
    assert wrap_add32(2**31 - 1, 1) == -(2**31)
    m = Meter()
    charge_loop(m, 10)
    assert m.ops == 21
    with pytest.raises(ValueError):
        charge_loop(Meter(), -1)


def test_array_costs_and_equivalence():
    sec = (3).to_bytes(4, "little")
    assert ops_of(array_unsafe, b"\x00" * 4, sec) == 1 + 2 * 3
    assert ops_of(array_safe, b"\x00" * 4, sec) == 1 + 2 * 256
    for steps in (0, 1, 7, 255):
        s = steps.to_bytes(4, "little")
        assert array_unsafe(b"", s, Meter()) == array_safe(b"", s, Meter())


def test_loop_and_branch_unsafe_branches_on_public_parity():
    sec = (1000).to_bytes(4, "little")
    odd_pub = (3).to_bytes(4, "little")
    even_pub = (4).to_bytes(4, "little")
    assert ops_of(loop_and_branch_unsafe, odd_pub, sec) == 1 + 2 * 1000
    assert ops_of(loop_and_branch_unsafe, even_pub, sec) == 1 + 2 * 4


def test_wrap_window_boundaries():
    def enc(v):
        return (v & 0xFFFFFFFF).to_bytes(4, "little")

    assert WRAP_WINDOW_MIN == 2**31 - 10
    assert wraps_to_negative(enc(WRAP_WINDOW_MIN))
    assert wraps_to_negative(enc(2**31 - 1))
    assert not wraps_to_negative(enc(WRAP_WINDOW_MIN - 1))
    assert not wraps_to_negative(enc(2**31))  # already negative, no wrap
    assert not wraps_to_negative(enc(0))


def test_loop_and_branch_safe_cost_collapses_in_wrap_window():
    pub = (500).to_bytes(4, "little")
    normal = (12345).to_bytes(4, "little")
    wrapping = (2**31 - 1).to_bytes(4, "little")
    assert ops_of(loop_and_branch_safe, pub, normal) == 1 + 2 * 500
    assert ops_of(loop_and_branch_safe, pub, wrapping) == 1
    # outside the window the cost does not depend on the secret at all
    costs = {
        ops_of(loop_and_branch_safe, pub, v.to_bytes(4, "little"))
        for v in (0, 1, 999, 2**31 - 11, 2**31, 2**32 - 1)
    }
    assert costs == {1 + 2 * 500}


def test_sanity_costs():
    sec = (6).to_bytes(4, "little")
    assert ops_of(sanity_unsafe, b"\x00" * 4, sec) == 13
    assert ops_of(sanity_safe, (6).to_bytes(4, "little"), sec) == 13
    big = (2**32 - 1).to_bytes(4, "little")
    assert ops_of(sanity_unsafe, b"\x00" * 4, big) == 1 + 2 * (2**32 - 1)


def test_straightline_costs():
    even = (4).to_bytes(4, "little")
    odd = (5).to_bytes(4, "little")
    assert ops_of(straightline_unsafe, b"", even) == 1
    assert ops_of(straightline_unsafe, b"", odd) == 9
    assert ops_of(straightline_safe, b"", even) == 9
    assert ops_of(straightline_safe, b"", odd) == 9


# --- compressor -------------------------------------------------------------------


def test_lz77_round_trip_small():
    for data in (b"a", b"abcabcabcabc", bytes(range(200)) * 3, b"\x00" * 500):
        assert lz77_decompress(lz77_compress(data)) == data


def test_lz77_incompressible_four_bytes():
    out = lz77_compress(b"\x01\x02\x03\x04")
    assert out == b"\x00\x04\x01\x02\x03\x04"
    assert len(out) >= 4 + 2  # input length plus run header


def test_lz77_repetition_compresses():
    x = bytes(range(16))
    doubled = lz77_compress(x + x)
    disjoint = lz77_compress(x + bytes(range(100, 116)))
    assert len(doubled) < len(disjoint)
    assert lz77_decompress(doubled) == x + x


def test_lz77_overlapping_match():
    data = b"ab" * 40  # matches overlap their own output
    blob = lz77_compress(data)
    assert len(blob) < len(data)
    assert lz77_decompress(blob) == data


def test_lz77_corruption_detected():
    good = lz77_compress(b"abcdabcdabcd")
    for blob in (
        b"\x02",  # unknown tag
        b"\x00",  # truncated literal header
        b"\x00\x05ab",  # run overruns the blob
        b"\x00\x00",  # zero-length run
        b"\x01\x00\x01",  # truncated match
        b"\x01\x00\x00\x08",  # zero offset
        b"\x01\xff\xff\x08",  # offset beyond output start
        good + b"\x01\x00\x01\x01",  # match shorter than the minimum
    ):
        with pytest.raises(ValueError):
            lz77_decompress(blob)


def test_crime_target_reports_response_size():
    m = Meter()
    out = crime_compress_target(b"secret-prefix", b"secret-prefix", m)
    assert m.response_bytes == len(out)
    assert m.ops > 0


def test_crime_shared_substring_shrinks_response():
    pub = bytes(range(16))
    m_shared = Meter()
    crime_compress_target(pub, pub[4:12], m_shared)
    m_fresh = Meter()
    crime_compress_target(pub, bytes(range(100, 108)), m_fresh)
    assert m_shared.response_bytes < m_fresh.response_bytes


# --- login ---------------------------------------------------------------------


def test_login_costs():
    # matching credentials compare all 16 digest bytes
    assert ops_of(login_unsafe, b"hunter2", b"hunter2") == 16
    assert ops_of(login_safe, b"hunter2", b"hunter2") == 16
    assert ops_of(login_safe, b"hunter2", b"other") == 16
    # distinct passwords virtually always diverge at digest byte 0
    assert ops_of(login_unsafe, b"hunter2", b"other") == 2


def test_login_results():
    assert login_unsafe(b"swordfish", b"swordfish", Meter()) is True
    assert login_unsafe(b"swordfish", b"Swordfish", Meter()) is False
    assert login_safe(b"swordfish", b"swordfish", Meter()) is True
    assert login_safe(b"swordfish", b"Swordfish", Meter()) is False


# --- registry and functional equivalence ----------------------------------------


# the benchmarks with a repaired variant, registered as NAME_unsafe and NAME_safe
PAIRED = sorted(name.removesuffix("_safe") for name in driver_names() if name.endswith("_safe"))


def test_benchmark_registry_shape():
    names = driver_names()
    assert len(names) == 19
    for name in PAIRED:
        assert f"{name}_unsafe" in names
    assert [n for n in names if not n.endswith(("_safe", "_unsafe"))] == ["crime_compress"]
    for name in names:
        assert get_driver(name).description
    # each module states its cost model; perfbench derives its truths from them
    for module in (crime, jetty_eq, login, micro, modpow, pad, pwcheck):
        assert module.COST_MODEL


def random_pairs(n, max_len=16, seed=0):
    rng = random.Random(seed)
    for _ in range(n):
        yield (
            rng.randbytes(rng.randint(0, max_len)),
            rng.randbytes(rng.randint(0, max_len)),
        )


def exhaustive_small_pairs():
    values = [b""]
    for length in (1, 2):
        values += [bytes(combo) for combo in itertools.product((0, 1), repeat=length)]
    for pub in values:
        for sec in values:
            yield pub, sec


@pytest.mark.parametrize("name", PAIRED)
def test_functional_equivalence(name):
    """safe(pub, sec) == unsafe(pub, sec) for random and small exhaustive
    inputs; aborts must agree too."""
    unsafe, safe = (get_driver(f"{name}_{variant}").target for variant in ("unsafe", "safe"))
    pairs = list(exhaustive_small_pairs()) + list(random_pairs(10_000, seed=42))
    for pub, sec in pairs:
        left = run_or_raise(unsafe, pub, sec)
        right = run_or_raise(safe, pub, sec)
        assert left == right, (name, pub, sec)
