"""Identity-based identification and signatures on top of the trapdoor.

The authority's master key is a Niederreiter key pair.  A user's secret
key is a hash-and-retry signature on their identity string: a low-weight
s whose public syndrome equals hash(identity, j) for the counter j
found during extraction.  Holding s, the user runs the zero-knowledge
rounds against that hashed identifier (identification), or compiles the
rounds into a signature by deriving the challenges from a hash over all
commitments, the identity, the counter, and the message.
"""
from __future__ import annotations

import hashlib
import itertools
import random
from collections import deque
from dataclasses import dataclass, field

from .binmat import BitVector
from .errors import CodeIbiError, ParameterError, ProtocolViolation
from .gf2m import FieldParams
from .mcfs import counter_max, hash_to_syndrome, mcfs_sign, mcfs_verify
from .niederreiter import NiedPublicKey, NiedSecretKey, nied_keygen
from .stern import (
    Commitments,
    Response,
    RoundTranscript,
    draw_challenge,
    stern_commit,
    stern_respond,
    ternary_challenges,
    verify_round,
)

__all__ = [
    "DOMAIN_FS",
    "IbiTranscript",
    "IbsSignature",
    "MasterPublicKey",
    "MasterSecretKey",
    "Prover",
    "UserCredential",
    "UserSecretKey",
    "Verifier",
    "derive_identifier",
    "extract_user_key",
    "fs_challenges",
    "ibi_identify",
    "ibs_sign",
    "ibs_verify",
    "master_keygen",
]

DOMAIN_FS = 0x03  # domain separator for derived challenge streams


@dataclass(frozen=True)
class MasterPublicKey:
    """The public matrix h~ and its weight bound t, and the round count k.

    Every other size is read from these: the length n and the syndrome
    width r are h~'s shape, and r fixes the counter range.
    """

    nied_pk: NiedPublicKey
    stern_rounds: int

    def __post_init__(self):
        pk = self.nied_pk
        if self.stern_rounds < 1:
            raise ParameterError("need at least one round")
        if not 1 <= pk.t <= pk.n:
            raise ParameterError(f"weight bound t={pk.t} outside 1..{pk.n}")
        counter_max(pk.h_tilde.nrows)  # refuses a syndrome wider than one digest


@dataclass(frozen=True)
class MasterSecretKey:
    nied_sk: NiedSecretKey


@dataclass(frozen=True, slots=True)  # an authority holds one per user it has issued
class UserSecretKey:
    s: BitVector
    j: int
    w: int  # declared weight of s, bound into the credential
    attempts: int = field(default=0, compare=False)


@dataclass(frozen=True)
class UserCredential:
    """What a prover carries: their secret key plus the system parameters."""

    usk: UserSecretKey
    mpk: MasterPublicKey


@dataclass(frozen=True)
class IbiTranscript:
    """Verifier-side record of one identification session."""

    identity: bytes
    j: int
    w: int
    accepted: bool
    rounds: tuple


def master_keygen(params: FieldParams, t: int, rounds: int, rng: random.Random):
    """Authority setup; returns (MasterPublicKey, MasterSecretKey)."""
    pk, sk = nied_keygen(params, t, rng)
    return MasterPublicKey(pk, rounds), MasterSecretKey(sk)


def derive_identifier(mpk: MasterPublicKey, identity: bytes, j: int) -> BitVector:
    """Public syndrome a prover must answer for: hash(identity, j)."""
    return hash_to_syndrome(mpk.nied_pk.h_tilde.nrows, identity, j)


def extract_user_key(
    msk: MasterSecretKey,
    mpk: MasterPublicKey,
    identity: bytes,
    rng: random.Random,
    retry_cap: int | None = None,
) -> UserSecretKey:
    """Authority-side key issuance: sign the identity string.

    Raises ParameterError, before any draw from rng, unless mpk's h_tilde
    is the one msk determines; on keygen's own pair it is the same object.
    """
    if mpk.nied_pk.h_tilde != msk.nied_sk.h_tilde:
        raise ParameterError("mpk is not the one this msk determines")
    sig = mcfs_sign(msk.nied_sk, identity, rng, retry_cap)
    if not mcfs_verify(mpk.nied_pk, identity, sig):
        raise CodeIbiError("extracted key fails its own identity equation")
    return UserSecretKey(sig.x, sig.i, sig.x.weight(), sig.attempts)


class Prover:
    """Prover side of a session, whatever carries its messages.

    commit() opens a round and respond() answers the oldest open one, so
    rounds can run one at a time or, as in a signature, all commits first.
    """

    def __init__(self, usk: UserSecretKey, mpk: MasterPublicKey, rng: random.Random):
        self.h, self.s, self.rng = mpk.nied_pk.h_tilde, usk.s, rng
        self._open = deque()

    def commit(self) -> Commitments:
        state, com = stern_commit(self.h, self.s, self.rng)
        self._open.append(state)
        return com

    def respond(self, ch: int) -> Response:
        if not self._open:
            raise ProtocolViolation("no open round to respond to")
        return stern_respond(self._open.popleft(), self.s, ch)


class Verifier:
    """Verifier side of one session, whatever carries its messages.

    Admits (identity, j, w) only within the mpk's bounds, then checks and
    records rounds until one fails or it holds k of them, and accepts
    only if all k passed.  challenge() draws a round's challenge from rng
    and check() settles that round; record() settles a round whose
    challenge was derived elsewhere, as a signature's are.
    """

    def __init__(
        self,
        mpk: MasterPublicKey,
        identity: bytes,
        j: int,
        w: int,
        rng: random.Random | None = None,
    ):
        self.mpk, self.identity, self.j, self.w, self.rng = mpk, identity, j, w, rng
        self.rounds: list[RoundTranscript] = []
        self.admitted = w <= mpk.nied_pk.t and 1 <= j <= counter_max(mpk.nied_pk.h_tilde.nrows)
        if self.admitted:
            self.identifier = derive_identifier(mpk, identity, j)
        self._pending = None

    @property
    def done(self) -> bool:
        """Refused at admission, or the last round failed, or k rounds passed."""
        return (
            not self.admitted
            or bool(self.rounds) and not self.rounds[-1].accepted
            or len(self.rounds) == self.mpk.stern_rounds
        )

    @property
    def accepted(self) -> bool:
        return self.done and bool(self.rounds) and self.rounds[-1].accepted

    def challenge(self, com: Commitments) -> int:
        if self._pending is not None:
            raise ProtocolViolation("the open round has not been checked")
        self._pending = (com, draw_challenge(self.rng))
        return self._pending[1]

    def check(self, resp: Response) -> bool:
        if self._pending is None:
            raise ProtocolViolation("no open challenge to check")
        (com, ch), self._pending = self._pending, None
        return self.record(com, ch, resp)

    def record(self, com: Commitments, ch: int, resp: Response) -> bool:
        if self.done:
            raise ProtocolViolation("session takes no further rounds")
        ok = verify_round(self.mpk.nied_pk.h_tilde, self.identifier, com, ch, resp, self.w)
        self.rounds.append(RoundTranscript(com, ch, resp, ok))
        return ok

    def transcript(self) -> IbiTranscript:
        return IbiTranscript(self.identity, self.j, self.w, self.accepted, tuple(self.rounds))


def ibi_identify(
    usk: UserSecretKey,
    mpk: MasterPublicKey,
    identity: bytes,
    prover_rng: random.Random,
    verifier_rng: random.Random,
) -> IbiTranscript:
    """In-process identification session; mirrors the wire protocol."""
    verifier = Verifier(mpk, identity, usk.j, usk.w, verifier_rng)
    prover = Prover(usk, mpk, prover_rng)
    while not verifier.done:
        ch = verifier.challenge(prover.commit())
        verifier.check(prover.respond(ch))
    return verifier.transcript()


def fs_challenges(
    mpk: MasterPublicKey,
    identity: bytes,
    j: int,
    commitments_blob: bytes,
    msg: bytes,
    rounds: int,
) -> list:
    """Derived ternary challenges for the non-interactive variant.

    The bytes of SHA-256 over (identity, j, every commitment, message,
    block counter), for block counter 0, 1, 2, ..., feed
    stern.ternary_challenges.  Neither mpk nor the round count is
    hashed, and the commitments do not bind the matrix either: c1 hashes
    H*y, not H.
    """
    prefix = hashlib.sha256()
    prefix.update(bytes([DOMAIN_FS]))
    prefix.update(len(identity).to_bytes(8, "big"))
    prefix.update(identity)
    prefix.update(j.to_bytes(8, "big"))
    prefix.update(len(commitments_blob).to_bytes(8, "big"))
    prefix.update(commitments_blob)
    prefix.update(len(msg).to_bytes(8, "big"))
    prefix.update(msg)

    def stream():
        for block in itertools.count():
            h = prefix.copy()
            h.update(block.to_bytes(8, "big"))
            yield from h.digest()

    return list(itertools.islice(ternary_challenges(stream()), rounds))


@dataclass(frozen=True)
class IbsSignature:
    j: int
    w: int
    commitments: tuple
    challenges: tuple
    responses: tuple


def ibs_sign(
    usk: UserSecretKey,
    mpk: MasterPublicKey,
    identity: bytes,
    msg: bytes,
    rng: random.Random,
) -> IbsSignature:
    """Sign by committing for every round first, then deriving all challenges."""
    prover = Prover(usk, mpk, rng)
    coms = tuple(prover.commit() for _ in range(mpk.stern_rounds))
    blob = b"".join(c.to_bytes() for c in coms)
    chs = tuple(fs_challenges(mpk, identity, usk.j, blob, msg, len(coms)))
    resps = tuple(prover.respond(ch) for ch in chs)
    return IbsSignature(usk.j, usk.w, coms, chs, resps)


def ibs_verify(mpk: MasterPublicKey, identity: bytes, msg: bytes, sig: IbsSignature) -> bool:
    """Recompute the challenge stream and check every round.

    A signature has exactly the mpk's round count: a signer who could
    pick k would pick k = 1 and win with probability 2/3 without a key.
    """
    try:
        k = mpk.stern_rounds
        if not len(sig.commitments) == len(sig.challenges) == len(sig.responses) == k:
            return False
        verifier = Verifier(mpk, identity, sig.j, sig.w)
        if not verifier.admitted:
            return False
        # to_bytes() raises MalformedEnvelope unless each digest is 32 bytes
        blob = b"".join(c.to_bytes() for c in sig.commitments)
        if tuple(fs_challenges(mpk, identity, sig.j, blob, msg, k)) != tuple(sig.challenges):
            return False
        return all(map(verifier.record, sig.commitments, sig.challenges, sig.responses))
    except CodeIbiError:
        return False
