"""Hash-and-retry signatures from the Niederreiter trapdoor.

A message is signed by hashing it together with a fresh random counter
until the digest lands on a decodable syndrome; roughly one counter in
t! works, so the retry loop is short for small t.
"""
from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field

from .binmat import BitVector, mat_vec_mul
from .errors import DimensionMismatch, ParameterError, RangeError, RetryLimitExceeded, Undecodable
from .niederreiter import NiedPublicKey, NiedSecretKey, nied_decrypt

__all__ = ["HashSpec", "McfsSignature", "hash_to_syndrome", "mcfs_sign", "mcfs_verify"]

DOMAIN_SYNDROME = 0x01  # domain separator for message-to-syndrome hashing


@dataclass(frozen=True)
class HashSpec:
    """Map (message, counter) to an out_bits-long syndrome via SHA-256."""

    out_bits: int

    MAX_OUT_BITS = 256  # one digest

    def __post_init__(self):
        if not 1 <= self.out_bits <= self.MAX_OUT_BITS:
            raise ParameterError(f"out_bits={self.out_bits} outside 1..{self.MAX_OUT_BITS}")

    @property
    def counter_max(self) -> int:
        # the counter is hashed as a fixed 8-byte integer, so its range is
        # additionally capped at what that encoding can hold
        return min(1 << self.out_bits, (1 << 64) - 1)


def hash_to_syndrome(spec: HashSpec, msg: bytes, i: int) -> BitVector:
    """First out_bits of SHA-256(DOMAIN_SYNDROME || len(msg) || msg || i), MSB first."""
    if not 1 <= i <= spec.counter_max:
        raise RangeError(f"counter {i} outside 1..{spec.counter_max}")
    h = hashlib.sha256()
    h.update(bytes([DOMAIN_SYNDROME]))
    h.update(len(msg).to_bytes(8, "big"))
    h.update(msg)
    h.update(i.to_bytes(8, "big"))
    digest = h.digest()
    bits = 0
    for j in range(spec.out_bits):
        if (digest[j >> 3] >> (7 - (j & 7))) & 1:
            bits |= 1 << j
    return BitVector(spec.out_bits, bits)


@dataclass(frozen=True)
class McfsSignature:
    i: int
    x: BitVector
    attempts: int = field(default=0, compare=False)  # bookkeeping, not serialized


def mcfs_sign(
    sk: NiedSecretKey,
    spec: HashSpec,
    msg: bytes,
    rng: random.Random,
    retry_cap: int | None = None,
) -> McfsSignature:
    """Draw counters until the hashed syndrome decodes; sign with the preimage."""
    r = sk.code.n - sk.code.k
    if spec.out_bits != r:
        raise DimensionMismatch(f"hash emits {spec.out_bits} bits, code needs {r}")
    if retry_cap is None:
        retry_cap = 1000 * math.factorial(sk.code.t)
    for attempt in range(1, retry_cap + 1):
        i = rng.randrange(1, spec.counter_max + 1)
        syn = hash_to_syndrome(spec, msg, i)
        try:
            x = nied_decrypt(sk, syn)
        except Undecodable:
            continue
        return McfsSignature(i, x, attempt)
    raise RetryLimitExceeded(f"no decodable syndrome in {retry_cap} attempts")


def mcfs_verify(pk: NiedPublicKey, spec: HashSpec, msg: bytes, sig: McfsSignature) -> bool:
    """True iff sig.x is a weight-<=t preimage of the hashed syndrome."""
    x = sig.x
    if x.n != pk.n or x.weight() > pk.t:
        return False
    if not 1 <= sig.i <= spec.counter_max:
        return False
    return mat_vec_mul(pk.h_tilde, x) == hash_to_syndrome(spec, msg, sig.i)
