"""Serialization, the prover/verifier socket protocol, and the CLI.

An envelope is ``CIBI`` magic, a version byte, a kind byte, a u64 body
length, then the body; ``_KINDS`` gives each kind its type and codec.
Fixed fields are big-endian struct formats; bit vectors are a u32
length, then bits packed low first; matrices are u32 rows and columns,
then little-endian rows; permutations and Goppa polynomials are a u32
count (at most 2^16) of u16 words; commitments are the 96 bytes of
stern.Commitments.  Every length is capped or checked against the bytes
left before it is used, and decoders reject anything non-canonical.
"""
from __future__ import annotations

import argparse
import io
import random
import socket
import struct
import sys
import threading
from pathlib import Path

from .binmat import BitMatrix, BitVector, Permutation
from .errors import (
    ChannelError,
    CodeIbiError,
    CostGuard,
    MalformedEnvelope,
    ParameterError,
    ProtocolViolation,
    RangeError,
    Singular,
    TruncatedInput,
    Undecodable,
    VersionMismatch,
)
from .gf2m import FieldParams, Gf2mPoly
from .goppa import _check_code_params, code_from_poly
from .harness import GameConfig, brute_force_decode, estimate_costs, impersonation_game
from .ibi import (
    MAX_ROUNDS,
    IbiTranscript,
    IbsSignature,
    MasterPublicKey,
    MasterSecretKey,
    Prover,
    UserCredential,
    UserSecretKey,
    Verifier,
    extract_user_key,
    ibs_sign,
    ibs_verify,
    master_keygen,
)
from .mcfs import DOMAIN_SYNDROME, MAX_SYNDROME_BITS, McfsSignature, counter_max
from .niederreiter import NiedPublicKey, NiedSecretKey, nied_decrypt, nied_keygen
from .stern import DOMAIN_COMMIT, Commitments, Response, RoundTranscript

__all__ = [
    "KIND_IBS_SIG",
    "KIND_MCFS_SIG",
    "KIND_MPK",
    "KIND_MSK",
    "KIND_TRANSCRIPT",
    "KIND_USK",
    "VerifierServer",
    "decode",
    "encode",
    "main",
    "read_envelope",
    "run_prover",
    "write_envelope",
]

MAGIC = b"CIBI"
VERSION = 0x02

KIND_MPK = 0x01
KIND_MSK = 0x02
KIND_USK = 0x03
KIND_MCFS_SIG = 0x04
KIND_IBS_SIG = 0x05
KIND_TRANSCRIPT = 0x06

MSG_HELLO = 0x10
MSG_COMMIT = 0x11
MSG_CHALLENGE = 0x12
MSG_RESPONSE = 0x13
MSG_RESULT = 0x14

_HEADER = ">4sBBQ"  # magic, version, kind, body length
_HEADER_SIZE = struct.calcsize(_HEADER)
_MAX_WIRE_PAYLOAD = 1 << 28  # frames read by a caller that names no cap
_MAX_WORDS = 1 << 16  # entries in a permutation or polynomial


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncatedInput(f"wanted {n} bytes at offset {self.pos}")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def expect_end(self) -> None:
        if self.pos != len(self.data):
            raise MalformedEnvelope(f"{len(self.data) - self.pos} trailing bytes")


def _finish(r: _Reader, dec):
    """dec applied to the rest of r's bytes, with nothing left over.

    A value that refuses what dec read raises its own codeibi error, a
    ParameterError or a RangeError say; untrusted bytes report every one
    as MalformedEnvelope.
    """
    try:
        value = dec(r)
        r.expect_end()
        return value
    except (TruncatedInput, MalformedEnvelope):
        raise
    except CodeIbiError as e:
        raise MalformedEnvelope(str(e)) from e


def _parse(data: bytes, dec):
    """dec applied to all of data, with nothing left over."""
    return _finish(_Reader(data), dec)


def _enc_bitvec(v: BitVector) -> bytes:
    return struct.pack(">I", v.n) + v.to_bytes()


def _dec_bitvec(r: _Reader) -> BitVector:
    (n,) = r.unpack(">I")
    return BitVector.from_bytes(r.take((n + 7) // 8), n)


def _enc_words(words: bytes) -> bytes:
    """A u32 count, then the big-endian u16 words: permutations and polynomials."""
    if len(words) > 2 * _MAX_WORDS:
        raise MalformedEnvelope(f"word array of {len(words)} bytes too large")
    return struct.pack(">I", len(words) // 2) + words


def _dec_words(r: _Reader) -> bytes:
    (n,) = r.unpack(">I")
    if n > _MAX_WORDS:
        raise MalformedEnvelope(f"word array of {n} entries too large")
    return r.take(2 * n)


def _enc_matrix(m: BitMatrix, out: io.BytesIO) -> None:
    width = (m.ncols + 7) // 8
    out.write(struct.pack(">II", m.nrows, m.ncols))
    for row in m.rows:
        out.write(row.to_bytes(width, "little"))


def _dec_matrix(r: _Reader) -> BitMatrix:
    """Dimensions are checked, and the rows' bytes taken, before any row is built."""
    nrows, ncols = r.unpack(">II")
    if nrows * ncols > 1 << 30:
        raise MalformedEnvelope("matrix too large")
    if nrows and not ncols:
        raise MalformedEnvelope(f"matrix has {nrows} rows but no columns")
    width = (ncols + 7) // 8
    block = r.take(nrows * width)
    rows = [int.from_bytes(block[i * width : (i + 1) * width], "little") for i in range(nrows)]
    return BitMatrix(nrows, ncols, rows)


def encode_response_payload(resp: Response) -> bytes:
    opened = _enc_words(resp.perm.words) if resp.b < 2 else _enc_bitvec(resp.vec2)
    return bytes([resp.b]) + _enc_bitvec(resp.vec) + opened


def _dec_response(r: _Reader) -> Response:
    (b,) = r.unpack(">B")
    if b in (0, 1):
        return Response(b, _dec_bitvec(r), perm=Permutation.from_words(_dec_words(r)))
    if b == 2:
        return Response(b, _dec_bitvec(r), vec2=_dec_bitvec(r))
    raise MalformedEnvelope(f"bad response tag {b}")


def decode_response_payload(payload: bytes) -> Response:
    return _parse(payload, _dec_response)


# ---- rules an encoder and its decoder share ---------------------------------
# (rounds, signatures and transcripts state their own in stern and ibi)


def _check_round_count(k: int, least: int) -> None:
    if not least <= k <= MAX_ROUNDS:
        raise MalformedEnvelope(f"bad round count {k}")


def _check_credential(usk: UserSecretKey, mpk: MasterPublicKey) -> None:
    """The secret an extraction issues: length n, weight w <= t, counter in range."""
    pk, s = mpk.nied_pk, usk.s
    top = counter_max(pk.h_tilde.nrows)
    if s.n != pk.n or usk.w != s.weight() or usk.w > pk.t or not 1 <= usk.j <= top:
        raise MalformedEnvelope("secret does not fit its credential")


def _check_public_key(m: int, t: int, h: BitMatrix) -> None:
    """h~ of an (m, t) Goppa code: m*t rows of 2^m columns."""
    try:
        _check_code_params(m, t)
    except ParameterError as e:
        raise MalformedEnvelope(str(e)) from e
    if h.ncols != 1 << m or h.nrows != m * t:
        raise MalformedEnvelope("public key dimensions are inconsistent")


def _check_secret_key(m: int, t: int, p: Permutation) -> None:
    """P of an (m, t) code acts on 2^m points.

    No mpk has a syndrome longer than one hash, so no usable msk does either.
    """
    if p.n != 1 << m:
        raise MalformedEnvelope("secret key dimensions are inconsistent")
    if m * t > MAX_SYNDROME_BITS:
        raise MalformedEnvelope(f"m*t={m * t} exceeds the {MAX_SYNDROME_BITS}-bit syndrome")


def _hello_payload(identity: bytes, j: int, w: int) -> bytes:
    """(identity, j, w): a HELLO's payload and a transcript's header."""
    return struct.pack(f">I{len(identity)}sQH", len(identity), identity, j, w)


def _dec_hello(r: _Reader) -> tuple:
    identity = r.take(*r.unpack(">I"))
    return (identity, *r.unpack(">QH"))


def _parse_hello(payload: bytes) -> tuple:
    return _parse(payload, _dec_hello)


# ---- kind bodies ----------------------------------------------------------


def _enc_mpk_body(mpk: MasterPublicKey, out: io.BytesIO) -> None:
    pk = mpk.nied_pk
    m = (pk.n - 1).bit_length()
    _check_public_key(m, pk.t, pk.h_tilde)
    out.write(struct.pack(">BHHBB", m, pk.t, mpk.stern_rounds, DOMAIN_SYNDROME, DOMAIN_COMMIT))
    _enc_matrix(pk.h_tilde, out)


def _dec_mpk_body(r: _Reader) -> MasterPublicKey:
    m, t, rounds, ds_syn, ds_commit = r.unpack(">BHHBB")
    if (ds_syn, ds_commit) != (DOMAIN_SYNDROME, DOMAIN_COMMIT):
        want = f"{DOMAIN_SYNDROME:#x}, {DOMAIN_COMMIT:#x}"
        raise MalformedEnvelope(f"domain bytes {ds_syn:#x}, {ds_commit:#x}, not {want}")
    h = _dec_matrix(r)
    _check_public_key(m, t, h)
    return MasterPublicKey(NiedPublicKey(h, t), rounds)


def _enc_msk_body(msk: MasterSecretKey, out: io.BytesIO) -> None:
    sk = msk.nied_sk
    code = sk.code
    _check_secret_key(code.params.m, code.t, sk.p)
    out.write(struct.pack(">BIH", code.params.m, code.params.modulus, code.t))
    # a coefficient of 2^16 or more makes struct raise, which encode() reports as MalformedEnvelope
    out.write(_enc_words(struct.pack(f">{len(code.g.coeffs)}H", *code.g.coeffs)))
    out.write(_enc_words(sk.p.words))
    NiedSecretKey(code, sk.p)  # rebuilt as decode() builds it: a forged key with a singular A raises Singular


def _dec_msk_body(r: _Reader) -> MasterSecretKey:
    m, modulus, t = r.unpack(">BIH")
    words = _dec_words(r)
    coeffs = struct.unpack(f">{len(words) // 2}H", words)
    if coeffs and coeffs[-1] == 0:
        raise MalformedEnvelope("non-normalized polynomial")
    p = Permutation.from_words(_dec_words(r))
    _check_secret_key(m, t, p)  # before code_from_poly, whose irreducibility test grows with t
    code = code_from_poly(FieldParams(m, modulus), t, Gf2mPoly(coeffs))
    return MasterSecretKey(NiedSecretKey(code, p))


def _enc_usk_body(cred: UserCredential, out: io.BytesIO) -> None:
    usk = cred.usk
    _check_credential(usk, cred.mpk)
    out.write(struct.pack(">QH", usk.j, usk.w) + _enc_bitvec(usk.s))
    _enc_mpk_body(cred.mpk, out)


def _dec_usk_body(r: _Reader) -> UserCredential:
    j, w = r.unpack(">QH")
    s = _dec_bitvec(r)
    mpk = _dec_mpk_body(r)
    usk = UserSecretKey(s, j, w)
    _check_credential(usk, mpk)
    return UserCredential(usk, mpk)


def _enc_mcfs_body(sig: McfsSignature, out: io.BytesIO) -> None:
    out.write(struct.pack(">Q", sig.i) + _enc_bitvec(sig.x))


def _dec_mcfs_body(r: _Reader) -> McfsSignature:
    (i,) = r.unpack(">Q")
    return McfsSignature(i, _dec_bitvec(r))


def _enc_ibs_body(sig: IbsSignature, out: io.BytesIO) -> None:
    """Written a part at a time, so only one response's bytes exist apart from out."""
    k = len(sig.commitments)
    _check_round_count(k, 1)
    out.write(struct.pack(">QHI", sig.j, sig.w, k))
    out.writelines(com.to_bytes() for com in sig.commitments)
    out.write(bytes(sig.challenges))
    out.writelines(map(encode_response_payload, sig.responses))


def _dec_ibs_body(r: _Reader) -> IbsSignature:
    j, w, k = r.unpack(">QHI")
    _check_round_count(k, 1)
    coms = tuple(Commitments.from_bytes(r.take(Commitments.SIZE)) for _ in range(k))
    chs = tuple(r.take(k))
    resps = tuple(_dec_response(r) for _ in range(k))
    return IbsSignature(j, w, coms, chs, resps)


def _enc_transcript_body(tr: IbiTranscript, out: io.BytesIO) -> None:
    _check_round_count(len(tr.rounds), 0)
    out.write(_hello_payload(tr.identity, tr.j, tr.w))
    out.write(struct.pack(">BI", bool(tr.accepted), len(tr.rounds)))
    for rt in tr.rounds:
        resp = encode_response_payload(rt.response)
        out.writelines((rt.commitments.to_bytes(), bytes([rt.challenge]), resp, bytes([bool(rt.accepted)])))


def _dec_transcript_body(r: _Reader) -> IbiTranscript:
    identity, j, w = _dec_hello(r)
    accepted, k = r.unpack(">BI")
    if accepted > 1:
        raise MalformedEnvelope("bad transcript header")
    _check_round_count(k, 0)
    rounds = []
    for _ in range(k):
        com = Commitments.from_bytes(r.take(Commitments.SIZE))
        (ch,) = r.unpack(">B")
        resp = _dec_response(r)
        (ok,) = r.unpack(">B")
        if ok > 1:
            raise MalformedEnvelope("bad accept flag")
        rounds.append(RoundTranscript(com, ch, resp, bool(ok)))
    return IbiTranscript(identity, j, w, bool(accepted), tuple(rounds))


# kind -> (value type, body encoder, body decoder)
_KINDS = {
    KIND_MPK: (MasterPublicKey, _enc_mpk_body, _dec_mpk_body),
    KIND_MSK: (MasterSecretKey, _enc_msk_body, _dec_msk_body),
    KIND_USK: (UserCredential, _enc_usk_body, _dec_usk_body),
    KIND_MCFS_SIG: (McfsSignature, _enc_mcfs_body, _dec_mcfs_body),
    KIND_IBS_SIG: (IbsSignature, _enc_ibs_body, _dec_ibs_body),
    KIND_TRANSCRIPT: (IbiTranscript, _enc_transcript_body, _dec_transcript_body),
}


def encode(value, kind: int | None = None) -> bytes:
    """Serialize a value into its envelope."""
    actual = next((k for k, (cls, _, _) in _KINDS.items() if type(value) is cls), None)
    if actual is None:
        raise MalformedEnvelope(f"no envelope kind for {type(value).__name__}")
    if kind is not None and kind != actual:
        raise MalformedEnvelope(f"value is kind {actual:#x}, not {kind:#x}")
    # the body is streamed in after room for the header, which goes in last, once
    # its length is known: one buffer holds the envelope, and no copy of the body
    out = io.BytesIO()
    out.seek(_HEADER_SIZE)
    try:
        _KINDS[actual][1](value, out)
    except (struct.error, Singular) as e:  # a field out of range, or an msk that cannot decrypt
        raise MalformedEnvelope(f"{type(e).__name__}: {e}") from e
    body_len = out.tell() - _HEADER_SIZE
    out.seek(0)
    out.write(struct.pack(_HEADER, MAGIC, VERSION, actual, body_len))
    return out.getvalue()


def decode(data: bytes, expect: int | None = None):
    """Parse an envelope back into its value; strict and canonical."""
    r = _Reader(data)
    if r.take(4) != MAGIC:
        raise MalformedEnvelope("bad magic")
    (version,) = r.unpack(">B")
    if version != VERSION:
        raise VersionMismatch(f"version {version}, expected {VERSION}")
    (kind,) = r.unpack(">B")
    if kind not in _KINDS:
        raise MalformedEnvelope(f"unknown kind {kind:#x}")
    if expect is not None and kind != expect:
        raise MalformedEnvelope(f"expected kind {expect:#x}, found {kind:#x}")
    (body_len,) = r.unpack(">Q")
    # the body is parsed where it lies, not copied out of the envelope first
    if body_len > len(data) - r.pos:
        raise TruncatedInput(f"wanted {body_len} bytes at offset {r.pos}")
    if body_len < len(data) - r.pos:
        raise MalformedEnvelope(f"{len(data) - r.pos - body_len} trailing bytes")
    return _finish(r, _KINDS[kind][2])


def write_envelope(path, value) -> None:
    Path(path).write_bytes(encode(value))


def read_envelope(path, expect: int | None = None):
    return decode(Path(path).read_bytes(), expect)


# ---- socket protocol ------------------------------------------------------


def _send_msg(sock: socket.socket, mtype: int, payload: bytes) -> None:
    # one sendall per frame: with TCP_NODELAY a split write would leave as two segments
    try:
        sock.sendall(struct.pack(">BI", mtype, len(payload)) + payload)
    except OSError as e:
        raise ChannelError(f"send failed: {e}") from e


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    got = 0
    while got < n:
        try:
            chunk = sock.recv(n - got)
        except OSError as e:
            raise ChannelError(f"recv failed: {e}") from e
        if not chunk:
            raise ChannelError("peer closed the connection")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def _recv_msg(sock: socket.socket, cap: int = _MAX_WIRE_PAYLOAD):
    """The next (type, payload); a frame longer than cap is refused from its header."""
    mtype, length = struct.unpack(">BI", _recv_exact(sock, 5))
    if mtype not in (MSG_HELLO, MSG_COMMIT, MSG_CHALLENGE, MSG_RESPONSE, MSG_RESULT):
        raise ProtocolViolation(f"unknown message type {mtype:#x}")
    if length > cap:
        raise ProtocolViolation(f"payload of {length} bytes refused")
    return mtype, _recv_exact(sock, length)


def _max_frame(mpk: MasterPublicKey) -> int:
    """The largest payload a verifier receives: a b in {0,1} response, or a COMMIT below n=64."""
    n = mpk.nied_pk.n
    return max(Commitments.SIZE, 1 + (4 + (n + 7) // 8) + (4 + 2 * n))


def _recv_as(sock: socket.socket, mtype: int, parse, cap: int):
    """The next message's parsed payload; None if refused, of another type, or unparsable."""
    try:
        got, payload = _recv_msg(sock, cap)
        return parse(payload) if got == mtype else None
    except ChannelError:
        raise
    except CodeIbiError:
        return None


def _make_rng(seed: int | None) -> random.Random:
    return random.Random(seed) if seed is not None else random.SystemRandom()


class VerifierServer:
    """Accepts identification sessions and records their transcripts; refused counts
    the connections that ended before a session began (a bad first frame, a lost peer).
    A seed is for tests: a prover who knows it predicts every challenge and needs no key."""

    def __init__(
        self,
        mpk: MasterPublicKey,
        host: str = "127.0.0.1",
        port: int = 0,
        seed: int | None = None,
        max_sessions: int | None = None,
    ):
        self.mpk = mpk
        self.rng = _make_rng(seed)
        self.max_sessions = max_sessions
        self.sessions: list[IbiTranscript] = []
        self.refused = 0
        self._frame_cap = _max_frame(mpk)
        self._sock = socket.create_server((host, port))
        self.host, self.port = self._sock.getsockname()[:2]
        self._thread: threading.Thread | None = None

    def serve_forever(self) -> None:
        served = 0
        while self.max_sessions is None or served < self.max_sessions:
            try:
                conn, _ = self._sock.accept()
            except OSError:  # stop() shut the listening socket down
                break
            with conn:
                conn.settimeout(60.0)
                try:
                    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                    transcript = self._session(conn)
                except (CodeIbiError, OSError):
                    transcript = None
                if transcript is None:
                    self.refused += 1
                else:
                    self.sessions.append(transcript)
            served += 1

    def start(self) -> "VerifierServer":
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        try:
            # shutdown, unlike close, wakes a thread blocked in accept()
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        if self._thread is not None:
            self._thread.join(timeout=10.0)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()

    def _send_result(self, conn, accepted: bool) -> None:
        # the verdict stands whether or not the peer is still there to read it
        try:
            _send_msg(conn, MSG_RESULT, bytes([accepted]))
        except ChannelError:
            pass

    def _session(self, conn) -> IbiTranscript | None:
        cap = self._frame_cap
        hello = _recv_as(conn, MSG_HELLO, _parse_hello, cap)
        if hello is None:
            self._send_result(conn, False)
            return None
        verifier = Verifier(self.mpk, *hello, self.rng)
        while not verifier.done:
            com = _recv_as(conn, MSG_COMMIT, Commitments.from_bytes, cap)
            if com is None:
                break
            _send_msg(conn, MSG_CHALLENGE, bytes([verifier.challenge(com)]))
            resp = _recv_as(conn, MSG_RESPONSE, decode_response_payload, cap)
            if resp is None:
                break
            verifier.check(resp)
        self._send_result(conn, verifier.accepted)
        return verifier.transcript()


def _verdict(payload: bytes) -> bool:
    if payload not in (b"\x00", b"\x01"):
        raise ProtocolViolation(f"bad session result {payload!r}")
    return payload == b"\x01"


def run_prover(host: str, port: int, cred: UserCredential, identity: bytes, rng: random.Random) -> bool:
    """Drive one identification session as the prover; True iff accepted.
    rng must not replay another session's draws: one commitment opened for b=0 and b=1 gives s away."""
    prover = Prover(cred.usk, cred.mpk, rng)
    try:
        sock = socket.create_connection((host, port), timeout=60.0)
    except OSError as e:
        raise ChannelError(f"connect failed: {e}") from e
    with sock:
        # without it Nagle holds each COMMIT until the verifier's delayed ACK
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        _send_msg(sock, MSG_HELLO, _hello_payload(identity, cred.usk.j, cred.usk.w))
        for _ in range(cred.mpk.stern_rounds):
            com = prover.commit()
            _send_msg(sock, MSG_COMMIT, com.to_bytes())
            mtype, payload = _recv_msg(sock, 1)  # a CHALLENGE or an early RESULT
            if mtype == MSG_RESULT:
                return _verdict(payload)
            if mtype != MSG_CHALLENGE or len(payload) != 1 or payload[0] > 2:
                raise ProtocolViolation("expected a ternary challenge")
            _send_msg(sock, MSG_RESPONSE, encode_response_payload(prover.respond(payload[0])))
        mtype, payload = _recv_msg(sock, 1)
        if mtype != MSG_RESULT:
            raise ProtocolViolation("expected the session result")
        return _verdict(payload)


# ---- CLI ------------------------------------------------------------------


def _parse_endpoint(text: str):
    host, sep, port = text.rpartition(":")
    if not sep or not host or not port.isascii() or not port.isdigit() or int(port) > 0xFFFF:
        raise ParameterError(f"endpoint {text!r} is not HOST:PORT")
    return host, int(port)


def _print_kv(pairs) -> None:
    for k, v in pairs:
        print(f"{k}={v}")


def _cmd_keygen(args) -> int:
    rng = _make_rng(args.seed)
    fp = FieldParams(args.m)
    mpk, msk = master_keygen(fp, args.t, args.rounds, rng)
    write_envelope(args.out_mpk, mpk)
    write_envelope(args.out_msk, msk)
    pk = mpk.nied_pk
    _print_kv(
        [
            ("n", pk.n),
            ("k", pk.k),
            ("t", pk.t),
            ("rounds", mpk.stern_rounds),
            ("mpk", args.out_mpk),
            ("msk", args.out_msk),
        ]
    )
    return 0


def _cmd_extract(args) -> int:
    msk = read_envelope(args.msk, KIND_MSK)
    mpk = read_envelope(args.mpk, KIND_MPK)
    rng = _make_rng(args.seed)
    usk = extract_user_key(msk, mpk, args.id.encode(), rng)
    write_envelope(args.out_usk, UserCredential(usk, mpk))
    _print_kv([("j", usk.j), ("w", usk.w), ("attempts", usk.attempts), ("usk", args.out_usk)])
    return 0


def _cmd_verify_serve(args) -> int:
    mpk = read_envelope(args.mpk, KIND_MPK)
    host, port = _parse_endpoint(args.listen)
    server = VerifierServer(mpk, host, port, max_sessions=args.max_sessions)
    print(f"listening={server.host}:{server.port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    for i, tr in enumerate(server.sessions):
        print(f"session={i} id={tr.identity.decode(errors='replace')} j={tr.j} "
              f"accepted={tr.accepted}")
    print(f"refused={server.refused}")
    if args.transcript_out and server.sessions:
        write_envelope(args.transcript_out, server.sessions[-1])
    return 0 if not server.refused and all(tr.accepted for tr in server.sessions) else 1


def _cmd_prove(args) -> int:
    cred = read_envelope(args.usk, KIND_USK)
    host, port = _parse_endpoint(args.connect)
    ok = run_prover(host, port, cred, args.id.encode(), random.SystemRandom())
    print(f"accepted={ok}")
    return 0 if ok else 1


def _cmd_ibs_sign(args) -> int:
    cred = read_envelope(args.usk, KIND_USK)
    mpk = read_envelope(args.mpk, KIND_MPK)
    if mpk != cred.mpk:
        raise ParameterError("usk was not issued under this mpk")
    msg = Path(args.msg_file).read_bytes()
    rng = _make_rng(args.seed)
    sig = ibs_sign(cred.usk, mpk, args.id.encode(), msg, rng)
    blob = encode(sig)
    Path(args.out).write_bytes(blob)
    _print_kv([("rounds", len(sig.commitments)), ("bytes", len(blob)), ("sig", args.out)])
    return 0


def _cmd_ibs_verify(args) -> int:
    mpk = read_envelope(args.mpk, KIND_MPK)
    msg = Path(args.msg_file).read_bytes()
    try:
        sig = read_envelope(args.sig, KIND_IBS_SIG)
    except (MalformedEnvelope, VersionMismatch, TruncatedInput) as e:
        print(f"valid=False reason={e}")
        return 1
    ok = ibs_verify(mpk, args.id.encode(), msg, sig)
    print(f"valid={ok}")
    return 0 if ok else 1


def _cmd_game(args) -> int:
    cfg = GameConfig(args.m, args.t, args.rounds, args.trials, args.seed, args.kind)
    res = impersonation_game(cfg)
    _print_kv(
        [
            ("kind", res.kind),
            ("trials", res.trials),
            ("successes", res.successes),
            ("rate", f"{res.rate:.6f}"),
            ("bound", f"{res.bound:.6g}"),
            ("three_sigma", f"{res.three_sigma:.6g}"),
            ("within_three_sigma", abs(res.rate - res.bound) <= res.three_sigma),
        ]
    )
    return 0


def _cmd_estimate(args) -> int:
    est = estimate_costs(args.m, args.t, args.rounds_ibi, args.rounds_ibs)
    _print_kv(
        [
            ("pk_bits", est.pk_bits),
            ("sk_bits", est.sk_bits),
            ("matrix_bits", est.matrix_bits),
            ("comm_bits_identification", est.comm_bits_identification),
            ("comm_bits_signature", est.comm_bits_signature),
            ("extraction_binops", f"{est.extraction_binops:.6g}"),
            ("attack_binops_log2", est.attack_binops_log2),
            ("attack_binops_is_lower_bound", est.attack_binops_is_lower_bound),
            ("isd_success_prob", f"{est.isd_success_prob:.6g}"),
        ]
    )
    return 0


def _cmd_oracle_check(args) -> int:
    rng = _make_rng(args.seed)
    fp = FieldParams(args.m)
    pk, sk = nied_keygen(fp, args.t, rng)
    r = pk.n - pk.k
    total = 1 << r
    if total > 4096:
        raise CostGuard(f"syndrome space 2^{r} too large for the oracle check")
    agree = 0
    for sbits in range(total):
        syn = BitVector(r, sbits)
        try:
            fast = nied_decrypt(sk, syn)
        except Undecodable:
            fast = None
        slow = brute_force_decode(pk.h_tilde, syn, args.t)
        if fast == slow:
            agree += 1
    print(f"syndromes={total} agree={agree}")
    return 0 if agree == total else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="codeibi", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a master key pair")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--rounds", type=int, default=137)
    p.add_argument("--seed", type=int)
    p.add_argument("--out-mpk", required=True)
    p.add_argument("--out-msk", required=True)
    p.set_defaults(func=_cmd_keygen)

    p = sub.add_parser("extract", help="issue a user key for an identity")
    p.add_argument("--msk", required=True)
    p.add_argument("--mpk", required=True)
    p.add_argument("--id", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out-usk", required=True)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("verify-serve", help="run the verifier server")
    p.add_argument("--mpk", required=True)
    p.add_argument("--listen", required=True, metavar="HOST:PORT")
    p.add_argument("--max-sessions", type=int)
    p.add_argument("--transcript-out")
    p.set_defaults(func=_cmd_verify_serve)

    p = sub.add_parser("prove", help="prove an identity to a verifier")
    p.add_argument("--usk", required=True)
    p.add_argument("--id", required=True)
    p.add_argument("--connect", required=True, metavar="HOST:PORT")
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("ibs-sign", help="sign a message under an identity")
    p.add_argument("--usk", required=True)
    p.add_argument("--mpk", required=True)
    p.add_argument("--id", required=True)
    p.add_argument("--msg-file", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ibs_sign)

    p = sub.add_parser("ibs-verify", help="verify an identity-based signature")
    p.add_argument("--mpk", required=True)
    p.add_argument("--id", required=True)
    p.add_argument("--msg-file", required=True)
    p.add_argument("--sig", required=True)
    p.set_defaults(func=_cmd_ibs_verify)

    p = sub.add_parser("game", help="run the empirical impersonation game")
    p.add_argument("--kind", choices=["cheat", "wrong-key", "honest"], default="cheat")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_game)

    p = sub.add_parser("estimate", help="print the closed-form cost model")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--rounds-ibi", type=int, required=True)
    p.add_argument("--rounds-ibs", type=int, required=True)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("oracle-check", help="cross-check the decoder exhaustively")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_oracle_check)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, RangeError, CostGuard) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (CodeIbiError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
