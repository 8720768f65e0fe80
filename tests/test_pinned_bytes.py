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
    (10, 3, 9, 70): "0e6e1b83b8a3acc6871bf8b70c742fb883dbb6c02269d5c5150ca90cf58962df",
    (12, 5, 7, 71): "f2a9b5280444c1b488509a311a22df5b2059d736c1299c83419ecfd299ea54a6",
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


# The one kind the digests above do not cover, pinned on its own.
PINNED_MCFS = "3ea416c94337cdca3a686395778ad41141874cffb61efdb6842fd0b35e6a3cce"


def mcfs_digest() -> str:
    rng = random.Random(72)
    _, msk = master_keygen(FieldParams(10), 3, 1, rng)
    return hashlib.sha256(encode(mcfs_sign(msk.nied_sk, b"pinned message", rng))).hexdigest()


# sha256 of encode(mpk) and encode(msk) for a seeded keygen at the paper's
# (16,9); the irreducibility test picks the Goppa polynomial g.
PINNED_FULL_KEYGEN = (
    "a3ac25fdd4a1e7a55b8fdfb318348e1b7713990c9424d9000514a0fb45187bce",
    "b36bb9a8d4f4a983ef106fef8690ee0eb3f062656b70d11d7af55a13ecda9fd8",
)


def full_keygen_digests() -> tuple:
    mpk, msk = master_keygen(FieldParams(16), 9, 280, random.Random(1609))
    return tuple(hashlib.sha256(encode(v)).hexdigest() for v in (mpk, msk))


# sha256 of encode(transcript) for a seeded (10,3) session in which a real
# key answers for another identity.  It is refused at its tenth of 20
# rounds, after one challenge byte of 252 or more was redrawn.
PINNED_WRONG_KEY = "7e92fd7bd63f11b933254ba165cc01ea35f3defb3da655c8f611c1b2332febc4"


def wrong_key_transcript():
    rng = random.Random(73)
    mpk, msk = master_keygen(FieldParams(10), 3, 20, rng)
    usk = extract_user_key(msk, mpk, b"pinned", rng)
    return ibi_identify(usk, mpk, b"impostor", random.Random(109), random.Random(110))


def test_seeded_envelopes_match_pinned_digests():
    for key, digest in PINNED.items():
        assert seeded_digest(*key) == digest, key


def test_mcfs_envelope_matches_pinned_digest():
    assert mcfs_digest() == PINNED_MCFS


def test_wrong_key_transcript_matches_pinned_digest():
    tr = wrong_key_transcript()
    assert not tr.accepted and len(tr.rounds) == 10
    assert hashlib.sha256(encode(tr)).hexdigest() == PINNED_WRONG_KEY


def test_full_scale_keygen_matches_pinned_digests():
    assert full_keygen_digests() == PINNED_FULL_KEYGEN


def test_full_scale_public_matrix_is_systematic():
    mpk, _ = master_keygen(FieldParams(16), 9, 280, random.Random(1609))
    assert [row & ((1 << 144) - 1) for row in mpk.nied_pk.h_tilde.rows] == [1 << i for i in range(144)]


if __name__ == "__main__":
    ok = True
    for key, digest in PINNED.items():
        got = seeded_digest(*key)
        ok &= got == digest
        print(key, got, "ok" if got == digest else "MISMATCH")
    got = mcfs_digest()
    ok &= got == PINNED_MCFS
    print("mcfs", got, "ok" if got == PINNED_MCFS else "MISMATCH")
    got = hashlib.sha256(encode(wrong_key_transcript())).hexdigest()
    ok &= got == PINNED_WRONG_KEY
    print("wrong key", got, "ok" if got == PINNED_WRONG_KEY else "MISMATCH")
    for got, digest in zip(full_keygen_digests(), PINNED_FULL_KEYGEN):
        ok &= got == digest
        print("(16, 9) keygen", got, "ok" if got == digest else "MISMATCH")
    raise SystemExit(0 if ok else 1)
