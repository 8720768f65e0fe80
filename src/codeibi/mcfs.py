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
from .niederreiter import NiedPublicKey, NiedSecretKey, nied_decrypt, nied_screen

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
MAX_LANES = 4096  # counters screened in one bit-sliced pass
MIN_LANES = 48  # below this, one counter at a time is faster


def _lanes(t: int, left: int) -> int:
    """Counters in the next batch: about two keys' worth, 2*t!, capped by the
    attempts left; a batch too small to repay its fixed cost is one counter."""
    lanes = min(2 * math.factorial(t), MAX_LANES, left)
    return lanes if lanes >= MIN_LANES else 1


def counter_max(bits: int) -> int:
    """Largest counter for a bits-wide syndrome: 2^bits, capped at what 8 bytes hold."""
    if not 1 <= bits <= MAX_SYNDROME_BITS:
        raise ParameterError(f"syndrome width {bits} outside 1..{MAX_SYNDROME_BITS}")
    return min(1 << bits, (1 << 64) - 1)


def _hash_to_syndromes(bits: int, msg: bytes, counters: list[int]) -> list[BitVector]:
    """The counter hash: for each i in counters, which are in range, the
    first bits of SHA-256(DOMAIN_SYNDROME || len(msg) || msg || i), MSB first.

    The hash of the prefix is made once and copied for each counter, and
    the joined digests are formatted as one string of bits.
    """
    prefix = hashlib.sha256()
    prefix.update(bytes([DOMAIN_SYNDROME]))
    prefix.update(len(msg).to_bytes(8, "big"))
    prefix.update(msg)
    digests = []
    for i in counters:
        h = prefix.copy()
        h.update(i.to_bytes(8, "big"))
        digests.append(h.digest())
    # digest bit j (MSB first) becomes vector bit j: take the prefix, reverse it
    joined = format(int.from_bytes(b"".join(digests), "big"), f"0{256 * len(counters)}b")
    return [BitVector(bits, int(joined[o : o + bits][::-1], 2)) for o in range(0, 256 * len(counters), 256)]


def hash_to_syndrome(bits: int, msg: bytes, i: int) -> BitVector:
    """The counter hash (_hash_to_syndromes) of one counter i in 1..counter_max(bits)."""
    top = counter_max(bits)
    if not 1 <= i <= top:
        raise RangeError(f"counter {i} outside 1..{top}")
    return _hash_to_syndromes(bits, msg, [i])[0]


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
    """Draw counters until the hashed syndrome decodes; sign with the preimage.

    Counters are drawn in batches, as many as _lanes gives.  One
    bit-sliced pass, niederreiter.nied_screen, decodes a batch across
    its lanes and keeps only the counters that nied_decrypt may accept.
    nied_decrypt then tries those in draw order, and the first it
    decodes wins.  Every counter the screen drops would have raised
    Undecodable, so the winner, its preimage and its attempt number are
    those of drawing and decoding one counter at a time.  Before a batch
    the rng state is saved; after a win it is restored and the counters
    up to the winner are drawn again, so the rng is left where the
    one-at-a-time loop leaves it.  SystemRandom has no state to keep.
    """
    bits = sk.code.n - sk.code.k
    top = counter_max(bits)
    if retry_cap is None:
        retry_cap = 1000 * math.factorial(sk.code.t)
    drawn = 0
    while drawn < retry_cap:
        lanes = _lanes(sk.code.t, retry_cap - drawn)
        saved = rng.getstate() if lanes > 1 and not isinstance(rng, random.SystemRandom) else None
        counters = [rng.randrange(1, top + 1) for _ in range(lanes)]
        syns = _hash_to_syndromes(bits, msg, counters)
        candidates = nied_screen(sk, syns) if lanes > 1 else 1
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            lane = low.bit_length() - 1
            try:
                x = nied_decrypt(sk, syns[lane])
            except Undecodable:
                continue
            if saved is not None:
                rng.setstate(saved)
                for _ in range(lane + 1):
                    rng.randrange(1, top + 1)
            return McfsSignature(counters[lane], x, drawn + lane + 1)
        drawn += lanes
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
