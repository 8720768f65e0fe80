"""Hash-and-retry signatures from the Niederreiter trapdoor.

A message is signed by hashing it together with a fresh random counter
until the digest lands on a decodable syndrome; roughly one counter in
t! works, so the retry loop is short for small t.  The syndrome width
is the key's r = n - k rows, read from whichever key the call is given.
"""
from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field

from .binmat import BitVector, mat_vec_mul
from .errors import ParameterError, RangeError, RetryLimitExceeded, Undecodable
from .niederreiter import NiedPublicKey, NiedSecretKey, nied_decrypt

__all__ = [
    "MAX_SYNDROME_BITS",
    "McfsSignature",
    "counter_max",
    "hash_to_syndrome",
    "mcfs_sign",
    "mcfs_verify",
]

DOMAIN_SYNDROME = 0x01  # domain separator for message-to-syndrome hashing
MAX_SYNDROME_BITS = 256  # one SHA-256 digest


def counter_max(bits: int) -> int:
    """Largest counter for a bits-wide syndrome: 2^bits, capped at what 8 bytes hold."""
    if not 1 <= bits <= MAX_SYNDROME_BITS:
        raise ParameterError(f"syndrome width {bits} outside 1..{MAX_SYNDROME_BITS}")
    return min(1 << bits, (1 << 64) - 1)


def hash_to_syndrome(bits: int, msg: bytes, i: int) -> BitVector:
    """First bits of SHA-256(DOMAIN_SYNDROME || len(msg) || msg || i), MSB first."""
    top = counter_max(bits)
    if not 1 <= i <= top:
        raise RangeError(f"counter {i} outside 1..{top}")
    h = hashlib.sha256()
    h.update(bytes([DOMAIN_SYNDROME]))
    h.update(len(msg).to_bytes(8, "big"))
    h.update(msg)
    h.update(i.to_bytes(8, "big"))
    # digest bit j (MSB first) becomes vector bit j: take the prefix, reverse it
    prefix = format(int.from_bytes(h.digest(), "big"), "0256b")[:bits]
    return BitVector(bits, int(prefix[::-1], 2))


@dataclass(frozen=True)
class McfsSignature:
    i: int
    x: BitVector
    attempts: int = field(default=0, compare=False)  # bookkeeping, not serialized


def mcfs_sign(
    sk: NiedSecretKey,
    msg: bytes,
    rng: random.Random,
    retry_cap: int | None = None,
) -> McfsSignature:
    """Draw counters until the hashed syndrome decodes; sign with the preimage."""
    bits = sk.code.n - sk.code.k
    top = counter_max(bits)
    if retry_cap is None:
        retry_cap = 1000 * math.factorial(sk.code.t)
    for attempt in range(1, retry_cap + 1):
        i = rng.randrange(1, top + 1)
        syn = hash_to_syndrome(bits, msg, i)
        try:
            x = nied_decrypt(sk, syn)
        except Undecodable:
            continue
        return McfsSignature(i, x, attempt)
    raise RetryLimitExceeded(f"no decodable syndrome in {retry_cap} attempts")


def mcfs_verify(pk: NiedPublicKey, msg: bytes, sig: McfsSignature) -> bool:
    """True iff sig.x is a weight-<=t preimage of the hashed syndrome."""
    x = sig.x
    bits = pk.h_tilde.nrows
    if x.n != pk.n or x.weight() > pk.t:
        return False
    if not 1 <= sig.i <= counter_max(bits):
        return False
    return mat_vec_mul(pk.h_tilde, x) == hash_to_syndrome(bits, msg, sig.i)
