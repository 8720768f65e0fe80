"""The benchmark's four workloads and the gates that check their outputs.

Each workload builds its state in ``setup`` and then runs one closed-loop
operation per ``op`` call.  The master key and the workload's own
credential are fixtures drawn from a fixed seed, so every run sets up
the same work; everything an op consumes (identities, messages, session
and signing randomness, wrong keys, tamper positions) comes from the
run's ``--seed`` and the op's index.

Calls into codeibi go through module attributes (``ibi.extract_user_key``,
not a name imported into this module), so the tracer in ``spans.py`` sees
them when it is installed.
"""
from __future__ import annotations

import random
import socket
import time

from codeibi import gf2m, harness, ibi, wirecli
from codeibi.binmat import BitVector
from codeibi.errors import CodeIbiError, RetryLimitExceeded

# The paper's round counts: 58 rounds for identification, 280 for IBS.
IBI_ROUNDS = 58
IBS_ROUNDS = 280

# Decode attempts per capped (16,9) extraction.  A full extraction needs
# about 9! = 362,880 attempts, which no run can wait for; one attempt per
# op (~0.7 s) gives a run the most ops to take a median over.
FULL_SCALE_RETRY_CAP = 1

# Every fourth identification session uses a wrong key; every fourth
# signature also has a one-bit-tampered copy verified.
NEGATIVE_EVERY = 4


def op_rng(seed: int, workload: str, i: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{i}")


def fixture_rng(label: str) -> random.Random:
    return random.Random(f"perfbench-fixture:{label}")


# ---- gates -------------------------------------------------------------------


def key_holds(mpk, identity: bytes, usk) -> bool:
    """True iff usk has weight <= t and H~ s equals hash(identity, j).

    The matrix product is recomputed here, row parity by row parity, so a
    broken mat_vec_mul cannot vouch for its own output.
    """
    s = usk.s
    if usk.w != s.weight() or usk.w > mpk.nied_pk.t or s.n != mpk.nied_pk.n:
        return False
    try:
        target = ibi.derive_identifier(mpk, identity, usk.j)
    except CodeIbiError:
        return False
    syndrome = 0
    for r, row in enumerate(mpk.nied_pk.h_tilde.rows):
        syndrome |= ((row & s.bits).bit_count() & 1) << r
    return syndrome == target.bits


def session_ok(honest: bool, accepted: bool) -> bool:
    """An honest session must be accepted and a wrong-key one rejected."""
    return accepted is honest


def signature_ok(accepted: bool, tamper_rejected: bool | None) -> bool:
    """The genuine signature verifies; a tampered copy, if any, does not."""
    return accepted is True and tamper_rejected in (None, True)


def verify_blob(mpk, identity: bytes, msg: bytes, blob: bytes) -> bool:
    """Decode an IBS envelope and verify it; a refused envelope is a rejection."""
    try:
        sig = wirecli.decode(blob, wirecli.KIND_IBS_SIG)
    except CodeIbiError:
        return False
    return ibi.ibs_verify(mpk, identity, msg, sig)


# ---- workloads ----------------------------------------------------------------


class Workload:
    name = ""
    m = 0
    t = 0
    rounds = IBI_ROUNDS
    setup_reps = 5  # set-up is timed this many times; the median is setup_s

    def __init__(self, seed: int, tracer):
        self.seed = seed
        self.tracer = tracer

    def setup(self) -> None:
        with self.tracer.span("gf2m.FieldParams"):
            params = gf2m.FieldParams(self.m)
        rng = fixture_rng(f"master:{self.m}:{self.t}:{self.rounds}")
        self.mpk, self.msk = ibi.master_keygen(params, self.t, self.rounds, rng)

    def op(self, i: int) -> dict:
        raise NotImplementedError

    def check(self, out: dict) -> bool:
        raise NotImplementedError

    def close(self) -> set:
        """Release the set-up; returns indices of ops found wrong only now."""
        return set()

    def rng(self, i: int) -> random.Random:
        return op_rng(self.seed, self.name, i)


class Extract(Workload):
    """The authority's traffic: one user key per op, about t! attempts each."""

    name = "extract"
    m, t = 12, 5

    def op(self, i):
        rng = self.rng(i)
        identity = b"user-" + rng.randbytes(8).hex().encode()
        usk = ibi.extract_user_key(self.msk, self.mpk, identity, rng)
        return {"identity": identity, "usk": usk, "attempts": usk.attempts}

    def check(self, out):
        return key_holds(self.mpk, out["identity"], out["usk"])


class ExtractFull(Extract):
    """The paper's (16,9) scale, one capped extraction per op."""

    name = "extract-full"
    m, t = 16, 9
    setup_reps = 3  # each set-up is a (16,9) keygen of about 12 s

    def op(self, i):
        rng = self.rng(i)
        identity = b"user-" + rng.randbytes(8).hex().encode()
        try:
            usk = ibi.extract_user_key(self.msk, self.mpk, identity, rng, retry_cap=FULL_SCALE_RETRY_CAP)
        except RetryLimitExceeded:
            return {"identity": identity, "usk": None, "attempts": FULL_SCALE_RETRY_CAP}
        return {"identity": identity, "usk": usk, "attempts": usk.attempts}

    def check(self, out):
        return out["usk"] is None or key_holds(self.mpk, out["identity"], out["usk"])


class IdentifyWire(Workload):
    """One prover session per op against a VerifierServer over loopback."""

    name = "identify-wire"
    m, t = 12, 5
    identity = b"perfbench-prover"

    def setup(self):
        super().setup()
        usk = ibi.extract_user_key(self.msk, self.mpk, self.identity, fixture_rng("prover"))
        self.cred = ibi.UserCredential(usk, self.mpk)
        self.expected = []  # honest flag of every session, in order
        self.verdicts = []  # the verifier's own decision on every session, in order
        self.server = wirecli.VerifierServer(self.mpk, seed=self.seed).start()

    def _drain(self, timeout: float = 0.0):
        """Move finished transcripts out of the server, keeping only the verdicts.

        VerifierServer keeps every transcript it records (about 6 MB per
        (12,5) session); left there, peak memory would grow with the number
        of sessions a run fits in, so a faster verifier would read as a
        larger one.  The server thread records a session just after it
        sends the result, so this waits up to timeout for the record of
        every session run so far.  The server thread appends while this pops.
        """
        sessions = self.server.sessions
        deadline = time.perf_counter() + timeout
        while True:
            while sessions:
                self.verdicts.append(sessions.pop(0).accepted)
            if len(self.verdicts) >= len(self.expected) or time.perf_counter() >= deadline:
                return
            time.sleep(0.0005)

    def op(self, i):
        rng = self.rng(i)
        honest = i % NEGATIVE_EVERY != NEGATIVE_EVERY - 1
        cred = self.cred
        if not honest:
            pk = self.mpk.nied_pk
            wrong = ibi.UserSecretKey(BitVector.random_weight(pk.n, pk.t, rng), cred.usk.j, pk.t)
            cred = ibi.UserCredential(wrong, self.mpk)
        self.expected.append(honest)
        accepted = wirecli.run_prover(self.server.host, self.server.port, cred, self.identity, rng)
        return {"honest": honest, "accepted": accepted}

    def check(self, out):
        self._drain(timeout=1.0)
        return session_ok(out["honest"], out["accepted"])

    def close(self):
        """Stop the server and hold its verdicts against the prover's view."""
        # Closing the listening socket does not wake a thread blocked in
        # accept(), so stop() alone waits out its 10 s join.  Spend the
        # session budget and knock once: the thread takes the empty
        # connection, finds no sessions left, and returns.
        self.server.max_sessions = 0
        socket.create_connection((self.server.host, self.server.port)).close()
        self.server.stop()
        self._drain()
        if len(self.verdicts) != len(self.expected):
            return set(range(len(self.expected)))
        return {i for i, (honest, accepted) in enumerate(zip(self.expected, self.verdicts))
                if not session_ok(honest, accepted)}


class Ibs(Workload):
    """Sign, encode, decode and verify one 280-round signature per op."""

    name = "ibs"
    m, t = 12, 5
    rounds = IBS_ROUNDS
    identity = b"perfbench-signer"

    def setup(self):
        super().setup()
        self.usk = ibi.extract_user_key(self.msk, self.mpk, self.identity, fixture_rng("signer"))

    def op(self, i):
        rng = self.rng(i)
        msg = rng.randbytes(32)
        clock = time.perf_counter
        t0 = clock()
        sig = ibi.ibs_sign(self.usk, self.mpk, self.identity, msg, rng)
        t1 = clock()
        blob = wirecli.encode(sig)
        t2 = clock()
        sig2 = wirecli.decode(blob, wirecli.KIND_IBS_SIG)
        t3 = clock()
        accepted = ibi.ibs_verify(self.mpk, self.identity, msg, sig2)
        t4 = clock()
        del sig, sig2  # a signature holds ~40 MB of Python ints; keep one alive at a time
        tamper_rejected = None
        if i % NEGATIVE_EVERY == NEGATIVE_EVERY - 1:
            bit = rng.randrange(len(blob) * 8)
            bad = bytearray(blob)
            bad[bit >> 3] ^= 1 << (bit & 7)
            tamper_rejected = not verify_blob(self.mpk, self.identity, msg, bytes(bad))
        return {
            "accepted": accepted,
            "tamper_rejected": tamper_rejected,
            "sign_s": t1 - t0,
            "encode_s": t2 - t1,
            "decode_s": t3 - t2,
            "verify_s": t4 - t3,
            "sig_bytes": len(blob),
        }

    def check(self, out):
        return signature_ok(out["accepted"], out["tamper_rejected"])


WORKLOADS = {w.name: w for w in (Extract, IdentifyWire, Ibs, ExtractFull)}


def cost_model(workload: type):
    """harness.estimate_costs at the workload's (m, t) and the paper's round counts."""
    return harness.estimate_costs(workload.m, workload.t, IBI_ROUNDS, IBS_ROUNDS)
