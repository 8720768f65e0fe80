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


def test_seeded_envelopes_match_pinned_digests():
    for key, digest in PINNED.items():
        assert seeded_digest(*key) == digest, key


if __name__ == "__main__":
    ok = True
    for key, digest in PINNED.items():
        got = seeded_digest(*key)
        ok &= got == digest
        print(key, got, "ok" if got == digest else "MISMATCH")
    raise SystemExit(0 if ok else 1)
