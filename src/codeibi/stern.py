"""Stern's 3-pass zero-knowledge identification from syndrome decoding.

The prover holds a low-weight s with h @ s = identifier, for the
public (n-k) x n matrix h.  Per round it commits to a masking vector y
and a permutation sigma through three hashes, answers one of three
challenges, and leaks nothing about s beyond its weight w.  Each round
catches a cheater with probability at least 1/3, so k rounds leave a
soundness error of (2/3)^k.  The functions here take h, s and w as they
are; the round count k and the weight bound t belong to the master
public key (ibi.MasterPublicKey).
"""
from __future__ import annotations

import hashlib
import random
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .binmat import (
    BitMatrix,
    BitVector,
    Permutation,
    apply_permutation,
    mat_vec_mul,
    permute_support,
    random_permutation,
)
from .errors import (
    DimensionMismatch,
    MalformedEnvelope,
    RangeError,
    StateReuse,
)

__all__ = [
    "Commitments",
    "DOMAIN_COMMIT",
    "ProverRoundState",
    "Response",
    "RoundTranscript",
    "draw_challenge",
    "rounds_for_security",
    "stern_commit",
    "stern_respond",
    "ternary_challenges",
    "verify_round",
]

DOMAIN_COMMIT = 0x02  # domain separator for round commitments


@dataclass(frozen=True)
class Commitments:
    """A round's three SHA-256 digests; on the wire, c1 || c2 || c3."""

    c1: bytes
    c2: bytes
    c3: bytes

    SIZE = 96  # not a field: the length of to_bytes()

    def __post_init__(self):
        if len(self.c1) != 32 or len(self.c2) != 32 or len(self.c3) != 32:
            raise MalformedEnvelope("commitments must be 32 bytes each")

    def to_bytes(self) -> bytes:
        return self.c1 + self.c2 + self.c3

    @classmethod
    def from_bytes(cls, data: bytes) -> "Commitments":
        return cls(data[:32], data[32:64], data[64:])


@dataclass(frozen=True)
class Response:
    """Challenge answer; (vec, perm) for b in {0,1}, (vec, vec2) for b = 2, on vec's points, nothing else."""

    b: int
    vec: BitVector
    perm: Permutation | None = None
    vec2: BitVector | None = None

    def __post_init__(self):
        if self.b not in (0, 1, 2):
            raise MalformedEnvelope(f"bad response tag {self.b}")
        opened = self.perm if self.b < 2 else self.vec2
        if opened is None or opened.n != self.vec.n:
            raise MalformedEnvelope(f"response {self.b} opens no part on its vector's {self.vec.n} points")
        if (self.vec2 if self.b < 2 else self.perm) is not None:
            raise MalformedEnvelope(f"response {self.b} carries a part its tag does not open")


@dataclass(frozen=True)
class RoundTranscript:
    """One round as a verifier saw it; a failed round may hold another challenge's response."""

    commitments: Commitments
    challenge: int
    response: Response
    accepted: bool

    def __post_init__(self):
        if self.challenge not in (0, 1, 2):
            raise MalformedEnvelope(f"bad challenge {self.challenge}")
        if self.accepted and self.response.b != self.challenge:
            raise MalformedEnvelope("response tag disagrees with its challenge")


class ProverRoundState:
    """One-shot per-round prover memory; consumed by stern_respond."""

    __slots__ = ("y", "sigma", "sig_y", "sig_s", "syn_y", "consumed")

    def __init__(self, y, sigma, sig_y, sig_s, syn_y):
        self.y = y
        self.sigma = sigma
        self.sig_y = sig_y
        self.sig_s = sig_s
        self.syn_y = syn_y
        self.consumed = False


def _commit(*parts: bytes) -> bytes:
    h = hashlib.sha256(bytes([DOMAIN_COMMIT]))
    for part in parts:
        h.update(part)
    return h.digest()


def stern_commit(h: BitMatrix, s: BitVector, rng: random.Random):
    """Fresh (y, sigma) and the three round commitments."""
    n = h.ncols
    if s.n != n:
        raise DimensionMismatch(f"secret length {s.n}, matrix width {n}")
    y = BitVector.random(n, rng)
    sigma = random_permutation(n, rng)
    syn_y = mat_vec_mul(h, y)
    sig_y = apply_permutation(sigma, y)
    # s is sparse (weight <= t for a prover), so sigma(s) moves its support
    sig_s = permute_support(sigma, s)
    com = Commitments(
        _commit(sigma.words, syn_y.to_bytes()),
        _commit(sig_y.to_bytes()),
        _commit((sig_y ^ sig_s).to_bytes()),
    )
    return ProverRoundState(y, sigma, sig_y, sig_s, syn_y), com


def stern_respond(state: ProverRoundState, s: BitVector, ch: int) -> Response:
    """Open the pair of commitments selected by the challenge."""
    if state.consumed:
        raise StateReuse("round state already answered")
    if ch not in (0, 1, 2):
        raise RangeError(f"challenge {ch} not ternary")
    state.consumed = True
    if ch == 2:
        return Response(2, state.sig_y, vec2=state.sig_s)
    return Response(ch, state.y if ch == 0 else state.y ^ s, perm=state.sigma)


def verify_round(
    h: BitMatrix,
    identifier: BitVector,
    com: Commitments,
    ch: int,
    resp: Response,
    w: int,
) -> bool:
    """Check one round's opened commitments against the identifier.

    w is the secret's declared weight, which the b=2 opening must show.
    """
    if resp.b != ch or resp.vec.n != h.ncols:
        return False
    if ch < 2:
        # b=0 opens y (c1, c2); b=1 opens y + s, whose syndrome is off by the identifier (c1, c3)
        syn = mat_vec_mul(h, resp.vec)
        if ch == 1:
            syn ^= identifier
        opened = com.c3 if ch else com.c2
        return com.c1 == _commit(resp.perm.words, syn.to_bytes()) and opened == _commit(
            apply_permutation(resp.perm, resp.vec).to_bytes()
        )
    return (
        com.c2 == _commit(resp.vec.to_bytes())
        and com.c3 == _commit((resp.vec ^ resp.vec2).to_bytes())
        and resp.vec2.weight() == w
    )


def ternary_challenges(stream: Iterable[int]) -> Iterator[int]:
    """Uniform ternary challenges from uniform bytes.

    Drops each byte of 252 or more and reduces the rest mod 3; since
    252 = 3 * 84, each challenge value comes from 84 of the bytes kept.
    """
    return (c % 3 for c in stream if c < 252)


def draw_challenge(rng: random.Random) -> int:
    """One ternary challenge from rng's 8-bit draws."""
    return next(ternary_challenges(iter(lambda: rng.getrandbits(8), None)))


def rounds_for_security(beta: float) -> int:
    """Fewest rounds k with (2/3)^k <= beta."""
    if not 0.0 < beta < 1.0:
        raise RangeError(f"target {beta} outside (0, 1)")
    k = 1
    while (2.0 / 3.0) ** k > beta:
        k += 1
    return k
