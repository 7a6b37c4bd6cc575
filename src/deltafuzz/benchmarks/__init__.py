"""Metered reference targets with known leaks and their repaired variants.

Every benchmark registers one driver per variant (NAME_unsafe / NAME_safe,
or just NAME when there is no repaired form). Where a target's cost depends
on a single simple statistic of the secret (match prefix, effective length,
exponent bit pattern, parity), the driver declares it: one public input and
the secrets at the statistic's extremes, which the structured oracle runs
once each instead of the raw byte domain. Each target module's COST_MODEL
states what its meter charges, in prose.

Importing this package registers every driver by name, with a loader: the
first get_driver of a name imports its target module (and `support`, for
`micro` and `modpow`) and builds the DriverSpec, which the registry keeps.
So driver_names() loads no target module, and a campaign loads only its own.
"""

from __future__ import annotations

from importlib import import_module

from ..driver import ConfigError, Constraints, DriverSpec, Statistic, register_loader

Witnesses = tuple[bytes, list[bytes]]  # one pub, the secrets at the extremes


def _two_symbols(alphabet: bytes) -> tuple[int, int]:
    if len(alphabet) < 2:
        raise ConfigError("statistic needs an alphabet with >= 2 symbols")
    return alphabet[0], alphabet[-1]


def prefix_witnesses(segment_len: int, alphabet: bytes) -> Witnesses:
    """Secrets matching the public input on exactly 0..L leading bytes."""
    low, high = _two_symbols(alphabet)
    pub = bytes([high]) * segment_len
    secs = [
        bytes([high]) * k + bytes([low]) * (segment_len - k)
        for k in range(segment_len + 1)
    ]
    return pub, secs


def efflen_witnesses(segment_len: int, alphabet: bytes) -> Witnesses:
    """Secrets whose NUL-terminated effective length spans 0..L."""
    if 0 not in alphabet:
        raise ConfigError("statistic needs the NUL symbol in the alphabet")
    fillers = [s for s in alphabet if s != 0]
    if not fillers:
        raise ConfigError("statistic needs a non-NUL symbol in the alphabet")
    fill = fillers[-1]
    pub = bytes([fill]) * segment_len
    secs = [
        bytes([fill]) * k + b"\x00" * (segment_len - k)
        for k in range(segment_len + 1)
    ]
    return pub, secs


def exponent_witnesses(segment_len: int, alphabet: bytes) -> Witnesses:
    """Exponents extremizing bit length and popcount within the alphabet."""
    allowed = set(alphabet)
    width = 8 * segment_len
    exps = {0}
    exps.update((1 << w) - 1 for w in range(1, width + 1))
    exps.update(1 << (w - 1) for w in range(1, width + 1))
    top = max(alphabet)
    if top:
        for k in range(1, segment_len + 1):
            exps.add(int.from_bytes(bytes([top] * k), "little"))
    secs = []
    for e in sorted(exps):
        raw = e.to_bytes(segment_len, "little")
        if all(b in allowed for b in raw):
            secs.append(raw)
    if len(secs) < 2:
        raise ConfigError("alphabet cannot express exponent witnesses")
    pub = bytes([max(alphabet)]) * segment_len
    return pub, secs


def parity_witnesses(segment_len: int, alphabet: bytes) -> Witnesses:
    """One even and one odd secret (cost branches on the low bit)."""
    evens = [s for s in alphabet if s % 2 == 0]
    odds = [s for s in alphabet if s % 2 == 1]
    if not evens or not odds:
        raise ConfigError("statistic needs both an even and an odd symbol")
    pub = bytes([alphabet[-1]]) * segment_len
    secs = [
        bytes([evens[0]]) * segment_len,
        bytes([odds[0]]) + bytes([evens[0]]) * (segment_len - 1),
    ]
    return pub, secs


def _register(
    name: str,
    module: str,
    unsafe: str,
    safe: str | None,
    description: str,
    cap: int,
    dimension: str = "ops",
    statistic: Statistic | None = None,
) -> None:
    """Register NAME_unsafe and NAME_safe, or just NAME without a repaired
    variant, whose targets are the functions named unsafe and safe in the
    target module; the variants share every field but the target."""
    constraints = Constraints(max_segment_len=cap)
    variants = {name: unsafe} if safe is None else {f"{name}_unsafe": unsafe, f"{name}_safe": safe}
    for driver, attr in variants.items():

        def load(driver: str = driver, attr: str = attr) -> DriverSpec:
            target = getattr(import_module(f".{module}", __name__), attr)
            return DriverSpec(driver, target, description, dimension, constraints, statistic)

        register_loader(driver, load)


_register("pwcheck", "pwcheck", "pwcheck_unsafe", "pwcheck_safe",
          "byte-compare password check; unsafe exits at first mismatch",
          16, statistic=Statistic("match-prefix-length", prefix_witnesses))
_register("jetty_eq", "jetty_eq", "string_eq_leaky", "string_eq_const",
          "AND-folded string compare; unsafe fold is cheaper on mismatch",
          16, statistic=Statistic("matching-positions", prefix_witnesses))
_register("pad", "pad", "pad_unsafe", "pad_safe",
          "fixed-width padder; unsafe work shrinks with name length",
          8, statistic=Statistic("effective-length", efflen_witnesses))
_register("modpow", "modpow", "modpow_unsafe_target", "modpow_safe_target",
          "square-and-multiply modular exponentiation, secret exponent",
          8, statistic=Statistic("exponent-bit-pattern", exponent_witnesses))
_register("array", "micro", "array_unsafe", "array_safe",
          "table walk of secret-bounded length", 4)
_register("loop_and_branch", "micro", "loop_and_branch_unsafe", "loop_and_branch_safe",
          "branchy loops; the repaired guard wraps at secret+10", 4)
_register("sanity", "micro", "sanity_unsafe", "sanity_safe",
          "loop of secret-many iterations vs a public-bounded loop", 4)
_register("straightline", "micro", "straightline_unsafe", "straightline_safe",
          "constant-size extra block guarded by the secret's low bit",
          4, statistic=Statistic("low-bit-parity", parity_witnesses))
_register("crime_compress", "crime", "crime_compress_target", None,
          "compressed size of pub++sec reveals shared substrings",
          16, dimension="response_bytes")
_register("login", "login", "login_unsafe", "login_safe",
          "salted-digest credential check; unsafe compare short-circuits", 8)
