"""Seeded outputs pinned byte for byte.

Each digest covers the envelopes of one seeded run: the master public
and secret keys, the extracted user credential, an IBS signature and an
identification transcript.  A refactor that changes any RNG draw, any
permutation or any field table changes the digest.

No pytest import, so the module also runs as a plain script on an
interpreter without pytest:

    PYTHONPATH=src python tests/test_pinned_bytes.py
"""
import hashlib
import random

from codeibi import (
    CodeParams,
    FieldParams,
    UserCredential,
    encode,
    extract_user_key,
    ibi_identify,
    ibs_sign,
    master_keygen,
    mcfs_sign,
)

# (m, t, rounds, seed) -> sha256 of the concatenated envelopes.
PINNED = {
    (10, 3, 9, 70): "5674b3eb43c054b30f2c35d6192823261f0f416ba3f154a2ca80bd395a58268b",
    (12, 5, 7, 71): "3c4029538dd577cae94107f48cba9a780c6b030362329d516a5fc472250c4e53",
}


def seeded_digest(m: int, t: int, rounds: int, seed: int) -> str:
    rng = random.Random(seed)
    mpk, msk = master_keygen(FieldParams(m), t, rounds, rng)
    usk = extract_user_key(msk, mpk, b"pinned", rng)
    sig = ibs_sign(usk, mpk, b"pinned", b"pinned message", rng)
    tr = ibi_identify(usk, mpk, b"pinned", random.Random(seed + 1), random.Random(seed + 2))
    h = hashlib.sha256()
    for value in (mpk, msk, UserCredential(usk, mpk), sig, tr):
        h.update(encode(value))
    return h.hexdigest()


# Kinds the digests above do not cover, each pinned on its own.
PINNED_KINDS = {
    "mcfs": "fa1c76ea4cdefe4f8dacbdc4b0d3766a4fa8d74bf9e27e335261a0121b37847d",
    "params": "c871016ca0b5ba11ab51f23c88f995983dca886ac8fdebbac32cc0eac35f66ca",
}


def kind_digests() -> dict:
    rng = random.Random(72)
    _, msk = master_keygen(FieldParams(10), 3, 1, rng)
    sig = mcfs_sign(msk.nied_sk, b"pinned message", rng)
    params = CodeParams(16, FieldParams(16).modulus, 9)
    return {
        "mcfs": hashlib.sha256(encode(sig)).hexdigest(),
        "params": hashlib.sha256(encode(params)).hexdigest(),
    }


# sha256 of encode(mpk) and encode(msk) for a seeded keygen at the paper's
# (16,9); the irreducibility test picks the Goppa polynomial g.
PINNED_FULL_KEYGEN = (
    "0330797d05a338dc0e4f32ab9e95d3bd2f3132e3a2dad4ab4691fa264d8380c5",
    "9e1d73fd243df438ca3fd75c4ad49544307262a77057cb92671236ccf29dd391",
)


def full_keygen_digests() -> tuple:
    mpk, msk = master_keygen(FieldParams(16), 9, 280, random.Random(1609))
    return tuple(hashlib.sha256(encode(v)).hexdigest() for v in (mpk, msk))


# sha256 of encode(transcript) for a seeded (10,3) session in which a real
# key answers for another identity.  It is refused at its tenth of 20
# rounds, after one challenge byte of 252 or more was redrawn.
PINNED_WRONG_KEY = "7db270e3ca50ebf4ed6264092f5b8d8d1345c4ca67580ccc6ab7191170cc51d6"


def wrong_key_transcript():
    rng = random.Random(73)
    mpk, msk = master_keygen(FieldParams(10), 3, 20, rng)
    usk = extract_user_key(msk, mpk, b"pinned", rng)
    return ibi_identify(usk, mpk, b"impostor", random.Random(109), random.Random(110))


def test_seeded_envelopes_match_pinned_digests():
    for key, digest in PINNED.items():
        assert seeded_digest(*key) == digest, key


def test_mcfs_and_params_envelopes_match_pinned_digests():
    assert kind_digests() == PINNED_KINDS


def test_wrong_key_transcript_matches_pinned_digest():
    tr = wrong_key_transcript()
    assert not tr.accepted and len(tr.rounds) == 10
    assert hashlib.sha256(encode(tr)).hexdigest() == PINNED_WRONG_KEY


def test_full_scale_keygen_matches_pinned_digests():
    assert full_keygen_digests() == PINNED_FULL_KEYGEN


if __name__ == "__main__":
    ok = True
    for key, digest in PINNED.items():
        got = seeded_digest(*key)
        ok &= got == digest
        print(key, got, "ok" if got == digest else "MISMATCH")
    for key, got in kind_digests().items():
        ok &= got == PINNED_KINDS[key]
        print(key, got, "ok" if got == PINNED_KINDS[key] else "MISMATCH")
    got = hashlib.sha256(encode(wrong_key_transcript())).hexdigest()
    ok &= got == PINNED_WRONG_KEY
    print("wrong key", got, "ok" if got == PINNED_WRONG_KEY else "MISMATCH")
    for got, digest in zip(full_keygen_digests(), PINNED_FULL_KEYGEN):
        ok &= got == digest
        print("(16, 9) keygen", got, "ok" if got == digest else "MISMATCH")
    raise SystemExit(0 if ok else 1)
