"""Credential check against a stored salt+digest record.

The server stores salt || md5(salt || password); a login attempt is hashed
with the same salt and its digest compared against the stored one. The
fuzzed secret is the stored password (the record derives from it), the
public input is the attempt. Unsafe compares digest bytes with an early
exit, so cost tracks the length of the matching digest prefix and peaks
when attempt == stored password; safe folds a constant-time XOR.

Cost model (ops): 1 tick per digest byte compared, 1 extra tick for the
unsafe early return. Hashing itself is library code and is not ticked.
"""

from __future__ import annotations

from ..metering import Meter

SALT = bytes.fromhex("9e1cc2f0")

COST_MODEL = (
    "tick(1) per digest byte compared",
    "tick(1) early return at the first differing byte (unsafe only)",
    "md5 internals not ticked (fixed-size input, uniform cost)",
)


def _digest(password: bytes) -> bytes:
    import hashlib  # here, so only a login evaluation loads OpenSSL

    return hashlib.md5(SALT + password).digest()


def login_unsafe(pub: bytes, sec: bytes, meter: Meter) -> bool:
    stored = _digest(sec)
    attempt = _digest(pub)
    for i in range(len(stored)):
        meter.tick(1)
        if attempt[i] != stored[i]:
            meter.tick(1)
            return False
    return True


def login_safe(pub: bytes, sec: bytes, meter: Meter) -> bool:
    stored = _digest(sec)
    attempt = _digest(pub)
    diff = 0
    for i in range(len(stored)):
        meter.tick(1)
        diff |= attempt[i] ^ stored[i]
    return diff == 0
