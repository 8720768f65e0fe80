"""Envelope codecs, the socket protocol, and the command line."""
import dataclasses
import os
import random
import shutil
import socket
import struct
import subprocess
import sys
import threading
import time
import tracemalloc

import pytest

from codeibi import (
    BitMatrix,
    BitVector,
    ChannelError,
    Commitments,
    FieldParams,
    Gf2mPoly,
    GoppaCode,
    MalformedEnvelope,
    MasterPublicKey,
    MasterSecretKey,
    NiedPublicKey,
    NiedSecretKey,
    ParameterError,
    Permutation,
    ProtocolViolation,
    Response,
    Singular,
    TruncatedInput,
    UserCredential,
    UserSecretKey,
    Verifier,
    VerifierServer,
    VersionMismatch,
    counter_max,
    decode,
    encode,
    extract_user_key,
    ibi_identify,
    ibs_sign,
    ibs_verify,
    main,
    master_keygen,
    mcfs_sign,
    nied_keygen,
    read_envelope,
    run_prover,
    write_envelope,
)
from codeibi import wirecli
from codeibi.wirecli import (
    KIND_IBS_SIG,
    KIND_MPK,
    KIND_MSK,
    KIND_TRANSCRIPT,
    KIND_USK,
    MSG_HELLO,
    MSG_RESPONSE,
    MSG_RESULT,
    decode_response_payload,
    encode_response_payload,
)


@pytest.fixture(scope="module")
def system():
    rng = random.Random(40)
    mpk, msk = master_keygen(FieldParams(5), 2, 9, rng)
    usk = extract_user_key(msk, mpk, b"alice", rng)
    sig = ibs_sign(usk, mpk, b"alice", b"hello", rng)
    mcfs = mcfs_sign(msk.nied_sk, b"raw message", rng)
    tr = ibi_identify(usk, mpk, b"alice", random.Random(41), random.Random(42))
    return {
        "mpk": mpk,
        "msk": msk,
        "cred": UserCredential(usk, mpk),
        "ibs": sig,
        "mcfs": mcfs,
        "transcript": tr,
    }


def all_values(system):
    return [
        system["mpk"],
        system["msk"],
        system["cred"],
        system["mcfs"],
        system["ibs"],
        system["transcript"],
    ]


def test_canonical_roundtrip_every_kind(system):
    for value in all_values(system):
        blob = encode(value)
        again = decode(blob)
        assert encode(again) == blob, type(value).__name__


def test_decoded_values_compare_equal(system):
    for key in ("mpk", "cred", "mcfs", "ibs", "transcript"):
        assert decode(encode(system[key])) == system[key], key


def test_decoded_msk_still_extracts(system):
    msk2 = decode(encode(system["msk"]))
    mpk = system["mpk"]
    usk2 = extract_user_key(msk2, mpk, b"alice", random.Random(43))
    assert ibi_identify(usk2, mpk, b"alice", random.Random(44), random.Random(45)).accepted


def test_truncation_and_trailing_garbage(system):
    for value in all_values(system):
        blob = encode(value)
        with pytest.raises(TruncatedInput):
            decode(blob[:-1])
        with pytest.raises(TruncatedInput):
            decode(blob[:9])
        with pytest.raises(MalformedEnvelope):
            decode(blob + b"\x00")


def test_header_validation(system):
    blob = bytearray(encode(system["mcfs"]))
    with pytest.raises(MalformedEnvelope):
        decode(b"XIBI" + bytes(blob[4:]))
    bad_version = bytes(blob[:4]) + b"\x03" + bytes(blob[5:])
    with pytest.raises(VersionMismatch):
        decode(bad_version)
    bad_kind = bytes(blob[:5]) + b"\x7f" + bytes(blob[6:])
    with pytest.raises(MalformedEnvelope):
        decode(bad_kind)
    with pytest.raises(MalformedEnvelope):
        decode(bytes(blob), expect=KIND_MPK)


def test_a_version_1_envelope_is_refused(system):
    # an msk held a row scramble Q up to version 1; every kind moved to version 2 with it
    for value in all_values(system):
        blob = encode(value)
        assert blob[4] == 2
        with pytest.raises(VersionMismatch):
            decode(blob[:4] + b"\x01" + blob[5:])


def test_kind_argument_checked(system):
    with pytest.raises(MalformedEnvelope):
        encode(system["mpk"], kind=KIND_MSK)
    with pytest.raises(MalformedEnvelope):
        encode(12345)


def test_ibs_decode_rejects_tag_mismatch(system):
    blob = bytearray(encode(system["ibs"]))
    k = len(system["ibs"].commitments)
    first_challenge = 14 + 8 + 2 + 4 + 96 * k
    blob[first_challenge] = (blob[first_challenge] + 1) % 3
    with pytest.raises(MalformedEnvelope):
        decode(bytes(blob))


def test_msk_goppa_coefficient_outside_the_field_is_malformed(system):
    blob = bytearray(encode(system["msk"]))
    # header 14, then m (1), modulus (4), t (2), coefficient count (4), big-endian u16 coefficients
    g0_high = 14 + 1 + 4 + 2 + 4
    blob[g0_high] |= 0x01  # g_0 gains 2^8, outside GF(2^5)
    with pytest.raises(MalformedEnvelope):
        decode(bytes(blob))


def test_response_payload_roundtrip(system):
    seen = set()
    for rt in system["transcript"].rounds:
        payload = encode_response_payload(rt.response)
        assert decode_response_payload(payload) == rt.response
        seen.add(rt.response.b)
        with pytest.raises(MalformedEnvelope):
            decode_response_payload(payload + b"\x00")
    assert seen  # at least one branch exercised
    with pytest.raises(MalformedEnvelope):
        decode_response_payload(b"\x03" + b"\x00" * 8)


def test_file_roundtrip(tmp_path, system):
    path = tmp_path / "alice.usk"
    write_envelope(path, system["cred"])
    assert read_envelope(path, KIND_USK) == system["cred"]
    with pytest.raises(MalformedEnvelope):
        read_envelope(path, KIND_MPK)


def test_full_scale_public_key_size():
    h = BitMatrix.zeros(144, 65536)
    mpk = MasterPublicKey(NiedPublicKey(h, 9), 58)
    blob = encode(mpk)
    assert len(blob) == 14 + 7 + 8 + 144 * 8192
    assert abs(len(blob) - 1_179_648) / 1_179_648 < 0.001


def test_wire_session_matches_in_process(system):
    mpk = dataclasses.replace(system["mpk"], stern_rounds=12)
    cred = UserCredential(system["cred"].usk, mpk)
    with VerifierServer(mpk, seed=50, max_sessions=1).start() as server:
        ok = run_prover("127.0.0.1", server.port, cred, b"alice", random.Random(51))
    assert ok
    assert len(server.sessions) == 1
    local = ibi_identify(cred.usk, mpk, b"alice", random.Random(51), random.Random(50))
    assert encode(server.sessions[0]) == encode(local)


def test_wire_rejects_wrong_identity(system):
    mpk, cred = system["mpk"], system["cred"]
    with VerifierServer(mpk, seed=52, max_sessions=1).start() as server:
        ok = run_prover("127.0.0.1", server.port, cred, b"eve", random.Random(53))
    assert not ok
    assert not server.sessions[0].accepted


def test_wire_rejects_overweight_hello(system):
    mpk = system["mpk"]
    with VerifierServer(mpk, seed=54, max_sessions=1).start() as server:
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            wirecli._send_msg(sock, MSG_HELLO, wirecli._hello_payload(b"x", 1, 3))
            mtype, payload = wirecli._recv_msg(sock)
    assert mtype == MSG_RESULT and payload == b"\x00"
    assert server.sessions[0].accepted is False
    assert server.sessions[0].rounds == ()


def test_wire_rejects_skipped_commit(system):
    mpk = system["mpk"]
    with VerifierServer(mpk, seed=55, max_sessions=1).start() as server:
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            wirecli._send_msg(sock, MSG_HELLO, wirecli._hello_payload(b"alice", 1, 2))
            wirecli._send_msg(sock, MSG_RESPONSE, b"\x00")
            mtype, payload = wirecli._recv_msg(sock)
    assert mtype == MSG_RESULT and payload == b"\x00"
    assert server.sessions[0].accepted is False


def test_stop_wakes_an_idle_server(system):
    server = VerifierServer(system["mpk"]).start()
    start = time.perf_counter()
    server.stop()
    assert time.perf_counter() - start < 1.0
    assert not server._thread.is_alive()


def test_peers_that_close_early_record_no_session(system):
    mpk, cred = system["mpk"], system["cred"]
    with VerifierServer(mpk, seed=57, max_sessions=3).start() as server:
        socket.create_connection(("127.0.0.1", server.port), timeout=10).close()
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(bytes([MSG_HELLO, 0]))  # two of the five header bytes
        ok = run_prover("127.0.0.1", server.port, cred, b"alice", random.Random(58))
    assert ok
    assert len(server.sessions) == 1
    assert server.sessions[0].accepted and server.sessions[0].identity == b"alice"


def scripted_verifier(rounds: int, early: bool, result: bytes):
    """A listener that answers each COMMIT with challenge 0 and sends the
    given RESULT payload after the first COMMIT (early) or the last round."""
    lsock = socket.create_server(("127.0.0.1", 0))

    def serve():
        conn, _ = lsock.accept()
        with conn:
            conn.settimeout(10)
            wirecli._recv_msg(conn)  # HELLO
            for _ in range(rounds):
                wirecli._recv_msg(conn)  # COMMIT
                if early:
                    break
                wirecli._send_msg(conn, wirecli.MSG_CHALLENGE, b"\x00")
                wirecli._recv_msg(conn)  # RESPONSE
            wirecli._send_msg(conn, MSG_RESULT, result)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return lsock, thread


def test_prover_reads_a_result_by_one_rule_early_or_last(system):
    # a RESULT of b"" or b"\x02" used to read as a reject after the first
    # COMMIT but raise ProtocolViolation after the last round
    mpk = dataclasses.replace(system["mpk"], stern_rounds=3)
    cred = UserCredential(system["cred"].usk, mpk)
    for early in (True, False):
        for result in (b"", b"\x02", b"\x00", b"\x01"):
            lsock, thread = scripted_verifier(3, early, result)
            port = lsock.getsockname()[1]
            try:
                if result in (b"\x00", b"\x01"):
                    ok = run_prover("127.0.0.1", port, cred, b"alice", random.Random(64))
                    assert ok is (result == b"\x01"), (early, result)
                else:
                    with pytest.raises(ProtocolViolation):
                        run_prover("127.0.0.1", port, cred, b"alice", random.Random(64))
            finally:
                thread.join(timeout=10)
                lsock.close()


def test_mpk_refuses_fewer_than_one_round(system):
    # k >= 1 is an invariant of every MasterPublicKey, decoded or built
    mpk = system["mpk"]
    with pytest.raises(ParameterError):
        MasterPublicKey(mpk.nied_pk, 0)
    blob = bytearray(encode(mpk))
    assert blob[17:19] == mpk.stern_rounds.to_bytes(2, "big")  # after magic, version, kind, length, m, t
    blob[17:19] = b"\x00\x00"
    with pytest.raises(MalformedEnvelope):
        decode(bytes(blob))


def test_prover_raises_on_dead_server(system):
    lsock = socket.create_server(("127.0.0.1", 0))
    port = lsock.getsockname()[1]

    def slam():
        conn, _ = lsock.accept()
        conn.recv(16)
        conn.close()

    thread = threading.Thread(target=slam, daemon=True)
    thread.start()
    try:
        with pytest.raises(ChannelError):
            run_prover("127.0.0.1", port, system["cred"], b"alice", random.Random(56))
    finally:
        thread.join(timeout=10)
        lsock.close()


def test_cli_keygen_extract_sign_verify(tmp_path):
    mpk = tmp_path / "a.mpk"
    msk = tmp_path / "a.msk"
    usk = tmp_path / "alice.usk"
    msg = tmp_path / "note.txt"
    sig = tmp_path / "note.sig"
    msg.write_bytes(b"wire format payload")

    base = ["keygen", "--m", "5", "--t", "2", "--rounds", "9", "--seed", "60",
            "--out-mpk", str(mpk), "--out-msk", str(msk)]
    assert main(base) == 0
    assert main(["extract", "--msk", str(msk), "--mpk", str(mpk), "--id", "alice",
                 "--seed", "61", "--out-usk", str(usk)]) == 0
    assert main(["ibs-sign", "--usk", str(usk), "--mpk", str(mpk), "--id", "alice",
                 "--msg-file", str(msg), "--seed", "62", "--out", str(sig)]) == 0
    assert main(["ibs-verify", "--mpk", str(mpk), "--id", "alice",
                 "--msg-file", str(msg), "--sig", str(sig)]) == 0
    assert main(["ibs-verify", "--mpk", str(mpk), "--id", "bob",
                 "--msg-file", str(msg), "--sig", str(sig)]) == 1

    # corrupt the signature file; a parse failure is a rejection, not a crash
    sig.write_bytes(sig.read_bytes()[:-5])
    assert main(["ibs-verify", "--mpk", str(mpk), "--id", "alice",
                 "--msg-file", str(msg), "--sig", str(sig)]) == 1


def test_cli_prove_against_server(tmp_path):
    mpk_p = tmp_path / "b.mpk"
    msk_p = tmp_path / "b.msk"
    usk_p = tmp_path / "carol.usk"
    assert main(["keygen", "--m", "5", "--t", "2", "--rounds", "8", "--seed", "63",
                 "--out-mpk", str(mpk_p), "--out-msk", str(msk_p)]) == 0
    assert main(["extract", "--msk", str(msk_p), "--mpk", str(mpk_p), "--id", "carol",
                 "--seed", "64", "--out-usk", str(usk_p)]) == 0
    mpk = read_envelope(mpk_p, KIND_MPK)
    with VerifierServer(mpk, seed=65, max_sessions=2).start() as server:
        ok = main(["prove", "--usk", str(usk_p), "--id", "carol",
                   "--connect", f"127.0.0.1:{server.port}", "--seed", "66"])
        bad = main(["prove", "--usk", str(usk_p), "--id", "mallory",
                    "--connect", f"127.0.0.1:{server.port}", "--seed", "67"])
    assert ok == 0 and bad == 1
    assert [tr.accepted for tr in server.sessions] == [True, False]


def test_cli_verify_serve_end_to_end(tmp_path, system):
    mpk_p = tmp_path / "d.mpk"
    usk_p = tmp_path / "d.usk"
    tr_p = tmp_path / "d.transcript"
    write_envelope(mpk_p, system["mpk"])
    write_envelope(usk_p, system["cred"])
    src = os.path.dirname(os.path.dirname(os.path.abspath(wirecli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "codeibi.wirecli", "verify-serve", "--mpk", str(mpk_p),
         "--listen", "127.0.0.1:0", "--seed", "76", "--max-sessions", "1",
         "--transcript-out", str(tr_p)],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        listening = proc.stdout.readline()
        assert listening.startswith("listening=127.0.0.1:")
        port = listening.strip().rpartition(":")[2]
        assert main(["prove", "--usk", str(usk_p), "--id", "alice",
                     "--connect", f"127.0.0.1:{port}", "--seed", "77"]) == 0
        out, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0
    assert "session=0 id=alice" in out and "accepted=True" in out
    tr = read_envelope(tr_p, KIND_TRANSCRIPT)
    assert tr.accepted and tr.identity == b"alice"
    assert len(tr.rounds) == system["mpk"].stern_rounds


def test_server_counts_the_connections_it_refuses(system):
    mpk, cred = system["mpk"], system["cred"]
    with VerifierServer(mpk, seed=58, max_sessions=3).start() as server:
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(b"\xff" * 5)  # a header of unknown type
            assert wirecli._recv_msg(sock) == (MSG_RESULT, b"\x00")
        socket.create_connection(("127.0.0.1", server.port), timeout=10).close()
        assert run_prover("127.0.0.1", server.port, cred, b"alice", random.Random(59))
    assert server.refused == 2 and len(server.sessions) == 1


def test_cli_verify_serve_fails_when_it_refuses_a_peer(tmp_path, system):
    # a refused peer left no transcript, and verify-serve exited 0 over none
    mpk_p = tmp_path / "r.mpk"
    write_envelope(mpk_p, system["mpk"])
    src = os.path.dirname(os.path.dirname(os.path.abspath(wirecli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "codeibi.wirecli", "verify-serve", "--mpk", str(mpk_p),
         "--listen", "127.0.0.1:0", "--seed", "78", "--max-sessions", "1"],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        port = int(proc.stdout.readline().strip().rpartition(":")[2])
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(b"\xff" * 5)  # a header of unknown type
            assert wirecli._recv_msg(sock) == (MSG_RESULT, b"\x00")
        out, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert out.splitlines() == ["refused=1"]
    assert proc.returncode == 1


def test_cli_usage_and_io_errors(tmp_path, system):
    with pytest.raises(SystemExit) as exc:
        main(["keygen", "--m", "5"])
    assert exc.value.code == 2
    assert main(["keygen", "--m", "99", "--t", "2", "--out-mpk", str(tmp_path / "x"),
                 "--out-msk", str(tmp_path / "y")]) == 2
    usk_p = tmp_path / "c.usk"
    write_envelope(usk_p, system["cred"])
    assert main(["prove", "--usk", str(usk_p), "--id", "a",
                 "--connect", "not-an-endpoint"]) == 2
    assert main(["extract", "--msk", str(tmp_path / "missing.msk"),
                 "--mpk", str(tmp_path / "missing.mpk"), "--id", "a",
                 "--out-usk", str(tmp_path / "z")]) == 3


def test_cli_extract_refuses_another_keygens_mpk(tmp_path):
    for name, seed in (("a", "70"), ("b", "71")):
        assert main(["keygen", "--m", "5", "--t", "2", "--seed", seed, "--out-mpk", str(tmp_path / f"{name}.mpk"),
                     "--out-msk", str(tmp_path / f"{name}.msk")]) == 0
    assert main(["extract", "--msk", str(tmp_path / "a.msk"), "--mpk", str(tmp_path / "b.mpk"), "--id", "alice",
                 "--seed", "2", "--out-usk", str(tmp_path / "alice.usk")]) == 2
    assert not (tmp_path / "alice.usk").exists()


def test_cli_game_estimate_oracle(tmp_path, capsys):
    assert main(["game", "--kind", "honest", "--m", "5", "--t", "2", "--rounds", "4",
                 "--trials", "10", "--seed", "68"]) == 0
    out = capsys.readouterr().out
    assert "rate=1.000000" in out

    assert main(["estimate", "--m", "16", "--t", "9",
                 "--rounds-ibi", "58", "--rounds-ibs", "280"]) == 0
    out = capsys.readouterr().out
    assert "pk_bits=144" in out and "matrix_bits=9437184" in out

    assert main(["oracle-check", "--m", "4", "--t", "2", "--seed", "69"]) == 0
    out = capsys.readouterr().out
    assert "syndromes=256 agree=256" in out
    # the guard refuses syndrome spaces past 2^12
    assert main(["oracle-check", "--m", "8", "--t", "3"]) == 2


def test_cli_game_and_estimate_refuse_bad_counts_as_usage_errors(capsys):
    for trials in ("0", "-2"):
        assert main(["game", "--m", "5", "--t", "2", "--rounds", "3", "--trials", trials]) == 2
    assert main(["estimate", "--m", "16", "--t", "9", "--rounds-ibi", "-1", "--rounds-ibs", "0"]) == 2
    assert main(["estimate", "--m", "3", "--t", "1", "--rounds-ibi", "58", "--rounds-ibs", "280"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("usage error") == 4


def test_console_script_smoke():
    script = shutil.which("codeibi")
    cmd = [script] if script else [sys.executable, "-m", "codeibi.wirecli"]
    proc = subprocess.run(
        cmd + ["estimate", "--m", "16", "--t", "9",
               "--rounds-ibi", "58", "--rounds-ibs", "280"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "attack_binops_log2=72.0" in proc.stdout


def test_matrix_with_rows_but_no_columns_is_refused():
    # 2^20 rows of width 0 fit in no bytes at all; the parser built them
    # all before the mpk's dimension check could refuse them
    with pytest.raises(MalformedEnvelope):
        wirecli._dec_matrix(wirecli._Reader(struct.pack(">II", 1 << 20, 0)))
    with pytest.raises(TruncatedInput):
        wirecli._dec_matrix(wirecli._Reader(struct.pack(">II", 1 << 20, 8) + bytes(8)))
    empty = wirecli._dec_matrix(wirecli._Reader(struct.pack(">II", 0, 0)))
    assert (empty.nrows, empty.ncols) == (0, 0)
    body = struct.pack(">BHHBB", 5, 2, 9, 1, 2) + struct.pack(">II", 1 << 20, 0)
    blob = b"CIBI" + bytes([wirecli.VERSION, KIND_MPK]) + struct.pack(">Q", len(body)) + body
    assert len(blob) == 29
    with pytest.raises(MalformedEnvelope):
        decode(blob)


def test_commitment_not_32_bytes_is_refused(system):
    sig, tr = system["ibs"], system["transcript"]
    com = sig.commitments[0]
    for bad in (dataclasses.replace(com, c1=com.c1[:31]), Commitments(com.c1[:31], com.c2 + b"\0", com.c3)):
        bad_sig = dataclasses.replace(sig, commitments=(bad,) + sig.commitments[1:])
        with pytest.raises(MalformedEnvelope):
            encode(bad_sig)
        assert not ibs_verify(system["mpk"], b"alice", b"hello", bad_sig)
        bad_round = dataclasses.replace(tr.rounds[0], commitments=bad)
        with pytest.raises(MalformedEnvelope):
            encode(dataclasses.replace(tr, rounds=(bad_round,) + tr.rounds[1:]))
    assert ibs_verify(system["mpk"], b"alice", b"hello", sig)


def test_msk_longer_than_one_syndrome_hash_is_refused():
    # m*t = 270 is past every mpk's 256-bit syndrome, so no usable msk has it;
    # the encoder refuses it as the decoder does
    _, sk = nied_keygen(FieldParams(9), 30, random.Random(930))
    with pytest.raises(MalformedEnvelope):
        encode(MasterSecretKey(sk))


def test_word_arrays_outside_16_bits_are_malformed(system):
    sk = system["msk"].nied_sk
    code = sk.code
    wide_g = Gf2mPoly((1 << 16,) + code.g.coeffs[1:])
    wide_msk = MasterSecretKey(forged_key(GoppaCode(code.params, code.t, wide_g), sk.p))
    with pytest.raises(MalformedEnvelope):
        encode(wide_msk)
    n = (1 << 16) + 1
    with pytest.raises(MalformedEnvelope):
        decode_response_payload(b"\x00" + struct.pack(">I", 8) + b"\x00" + struct.pack(">I", n))


def test_a_response_whose_parts_act_on_different_point_counts_is_malformed(system):
    short_sigma = Response(0, BitVector.zeros(5), perm=Permutation(range(4)))
    short_vec2 = Response(2, BitVector.zeros(5), vec2=BitVector.zeros(4))
    for resp in (short_sigma, short_vec2):
        with pytest.raises(MalformedEnvelope, match="opens no part"):
            encode_response_payload(resp)
    vec = struct.pack(">I", 5) + b"\x00"
    for payload in (b"\x00" + vec + struct.pack(">I", 4) + Permutation(range(4)).words,
                    b"\x02" + vec + struct.pack(">I", 4) + b"\x00"):
        with pytest.raises(MalformedEnvelope, match="opens no part"):
            decode_response_payload(payload)
    sig = system["ibs"]
    ch = sig.challenges[0]
    bad = dataclasses.replace(short_vec2 if ch == 2 else short_sigma, b=ch)
    with pytest.raises(MalformedEnvelope, match="opens no part"):
        encode(dataclasses.replace(sig, responses=(bad,) + sig.responses[1:]))


def test_many_round_session_does_not_wait_on_delayed_acks(system):
    # with Nagle on, each COMMIT after a RESPONSE waited for the verifier's
    # delayed ACK, about 40 ms a round: 200 rounds took 8.8 s on loopback
    mpk = dataclasses.replace(system["mpk"], stern_rounds=200)
    cred = UserCredential(system["cred"].usk, mpk)
    with VerifierServer(mpk, seed=80, max_sessions=1).start() as server:
        start = time.perf_counter()
        ok = run_prover("127.0.0.1", server.port, cred, b"alice", random.Random(81))
        elapsed = time.perf_counter() - start
    assert ok and len(server.sessions[0].rounds) == 200
    assert elapsed < 2.0


def test_frame_longer_than_one_response_is_refused_from_its_header(system):
    # the server used to wait out its 60 s timeout for a 1 MiB COMMIT that
    # never came, and every prover behind it waited too
    mpk, cred = system["mpk"], system["cred"]
    n = mpk.nied_pk.n
    resp = Response(0, BitVector.zeros(n), perm=Permutation(range(n)))
    cap = max(Commitments.SIZE, len(encode_response_payload(resp)))
    assert cap == 96  # at n=32 a COMMIT outweighs a response
    with VerifierServer(mpk, seed=82, max_sessions=3).start() as server:
        with socket.create_connection(("127.0.0.1", server.port), timeout=2) as sock:
            wirecli._send_msg(sock, MSG_HELLO, wirecli._hello_payload(b"alice", 1, 2))
            sock.sendall(struct.pack(">BI", wirecli.MSG_COMMIT, 1 << 20))
            start = time.perf_counter()
            mtype, payload = wirecli._recv_msg(sock)
            assert time.perf_counter() - start < 2.0
        assert mtype == MSG_RESULT and payload == b"\x00"
        # a HELLO is held to the same cap
        long_id = bytes(cap - 4 - 10 + 1)
        with socket.create_connection(("127.0.0.1", server.port), timeout=2) as sock:
            wirecli._send_msg(sock, MSG_HELLO, wirecli._hello_payload(long_id, 1, 2))
            mtype, payload = wirecli._recv_msg(sock)
        assert mtype == MSG_RESULT and payload == b"\x00"
        assert run_prover("127.0.0.1", server.port, cred, b"alice", random.Random(83))
    assert [tr.accepted for tr in server.sessions] == [False, True]
    assert server.sessions[0].rounds == ()
    assert wirecli._max_frame(mpk) == cap


def test_frame_cap_admits_every_honest_frame_once_responses_outgrow_commits():
    rng = random.Random(85)
    mpk, msk = master_keygen(FieldParams(6), 2, 20, rng)
    cred = UserCredential(extract_user_key(msk, mpk, b"alice", rng), mpk)
    n = mpk.nied_pk.n
    resp = Response(1, BitVector.zeros(n), perm=Permutation(range(n)))
    assert wirecli._max_frame(mpk) == len(encode_response_payload(resp)) == 145
    with VerifierServer(mpk, seed=86, max_sessions=1).start() as server:
        assert run_prover("127.0.0.1", server.port, cred, b"alice", random.Random(87))
    assert {rt.challenge for rt in server.sessions[0].rounds} == {0, 1, 2}


def test_prover_refuses_a_frame_longer_than_a_challenge(system):
    lsock = socket.create_server(("127.0.0.1", 0))
    port = lsock.getsockname()[1]

    def oversized_challenge():
        conn, _ = lsock.accept()
        with conn:
            wirecli._recv_msg(conn)  # HELLO
            wirecli._recv_msg(conn)  # COMMIT
            conn.sendall(struct.pack(">BI", wirecli.MSG_CHALLENGE, 1 << 20))
            conn.recv(16)  # hold the connection until the prover hangs up

    thread = threading.Thread(target=oversized_challenge, daemon=True)
    thread.start()
    try:
        start = time.perf_counter()
        with pytest.raises(ProtocolViolation):
            run_prover("127.0.0.1", port, system["cred"], b"alice", random.Random(84))
        assert time.perf_counter() - start < 2.0
    finally:
        thread.join(timeout=10)
        lsock.close()


def test_module_cli_starts_without_a_runtime_warning():
    # the package imported wirecli eagerly, so runpy found it in sys.modules
    # before running it as __main__, warned, and loaded it twice
    src = os.path.dirname(os.path.dirname(os.path.abspath(wirecli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "codeibi.wirecli", "estimate", "--m", "5", "--t", "2",
         "--rounds-ibi", "9", "--rounds-ibs", "9"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "pk_bits=10" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr


def test_wrong_key_wire_session_matches_in_process_and_ends_early(system):
    mpk, usk = dataclasses.replace(system["mpk"], stern_rounds=30), system["cred"].usk
    t = mpk.nied_pk.t
    wrong = UserSecretKey(BitVector.random_weight(mpk.nied_pk.n, t, random.Random(60)), usk.j, t)
    with VerifierServer(mpk, seed=61, max_sessions=1).start() as server:
        ok = run_prover(
            "127.0.0.1", server.port, UserCredential(wrong, mpk), b"alice", random.Random(62)
        )
    assert not ok
    assert len(server.sessions) == 1
    local = ibi_identify(wrong, mpk, b"alice", random.Random(62), random.Random(61))
    assert encode(server.sessions[0]) == encode(local)
    assert len(local.rounds) < 30 and not local.rounds[-1].accepted


def mpk_blob(m, t, commit_domain=0x02):
    """An mpk envelope with an all-zero matrix of the shape (m, t) implies."""
    n = 1 << m
    body = struct.pack(">BHHBB", m, t, 9, 0x01, commit_domain)
    body += struct.pack(">II", m * t, n) + bytes(m * t * ((n + 7) // 8))
    return b"CIBI" + bytes([wirecli.VERSION, KIND_MPK]) + struct.pack(">Q", len(body)) + body


def test_mpk_decoder_refuses_sizes_no_keygen_makes(system):
    assert decode(mpk_blob(5, 2)).nied_pk.n == 32
    # m < 3 and t < 2 make no Goppa code; (3, 3) has k = -1; (20, 1) has n = 2^20
    for m, t in ((1, 1), (2, 1), (3, 3), (20, 1)):
        with pytest.raises(MalformedEnvelope):
            decode(mpk_blob(m, t))


def test_mpk_decoder_refuses_any_other_commit_domain(system):
    blob = bytearray(encode(system["mpk"]))
    assert blob[20] == 0x02  # magic, version, kind, length, then m, t, rounds, syndrome domain
    blob[20] = 0x07
    with pytest.raises(MalformedEnvelope):
        decode(bytes(blob))
    with pytest.raises(MalformedEnvelope):
        decode(mpk_blob(5, 2, commit_domain=0x07))


def test_usk_decoder_refuses_a_secret_that_does_not_fit_its_credential(system):
    usk, mpk = system["cred"].usk, system["mpk"]
    assert (mpk.nied_pk.n, mpk.nied_pk.t) == (32, 2) and usk.w >= 1
    rng = random.Random(63)
    misfits = [
        UserSecretKey(BitVector.random_weight(7, usk.w, rng), usk.j, usk.w),  # s shorter than n
        dataclasses.replace(usk, w=5),
        dataclasses.replace(usk, w=0),
        UserSecretKey(BitVector.random_weight(32, 3, rng), usk.j, 3),  # w = weight, but over t
    ]
    for bad in misfits:
        with pytest.raises(MalformedEnvelope):
            decode(encode(UserCredential(bad, mpk)))
    assert decode(encode(system["cred"])) == system["cred"]


def test_mpk_decoder_refuses_any_other_syndrome_domain(system):
    blob = bytearray(encode(system["mpk"]))
    assert blob[19] == 0x01  # magic, version, kind, length, then m, t, rounds
    blob[19] = 0x07
    with pytest.raises(MalformedEnvelope):
        decode(bytes(blob))


def test_usk_decoder_refuses_a_counter_outside_its_range(system):
    usk, mpk = system["cred"].usk, system["mpk"]
    top = counter_max(mpk.nied_pk.h_tilde.nrows)
    assert top == 1024
    for j in (0, top + 1, 1029):
        with pytest.raises(MalformedEnvelope):
            decode(encode(UserCredential(dataclasses.replace(usk, j=j), mpk)))
    for j in (1, top):
        assert decode(encode(UserCredential(dataclasses.replace(usk, j=j), mpk))).usk.j == j


def test_transcript_decoder_refuses_a_verdict_that_contradicts_its_rounds(system):
    mpk, usk, honest = system["mpk"], system["cred"].usk, system["transcript"]
    assert honest.accepted and len(honest.rounds) == 9
    first_failed = dataclasses.replace(honest.rounds[0], accepted=False)
    last_failed = dataclasses.replace(honest.rounds[-1], accepted=False)
    contradictions = [
        dataclasses.replace(honest, rounds=(first_failed, *honest.rounds[1:])),
        dataclasses.replace(honest, accepted=False, rounds=(first_failed, *honest.rounds[1:])),
        dataclasses.replace(honest, rounds=(*honest.rounds[:-1], last_failed)),
        dataclasses.replace(honest, rounds=()),
    ]
    for bad in contradictions:
        with pytest.raises(MalformedEnvelope):
            decode(encode(bad))
    admission = Verifier(mpk, b"alice", usk.j, mpk.nied_pk.t + 1).transcript()
    cut_short = dataclasses.replace(honest, accepted=False, rounds=honest.rounds[:4])
    wrong_key = ibi_identify(usk, mpk, b"eve", random.Random(64), random.Random(65))
    assert admission.rounds == () and not wrong_key.rounds[-1].accepted
    for tr in (honest, admission, cut_short, wrong_key):
        assert decode(encode(tr)) == tr


def test_credential_encoder_refuses_what_its_decoder_refuses(system):
    # the declared weight is bound to s; a w that is not s.weight() used to encode
    usk, mpk = system["cred"].usk, system["mpk"]
    for bad in (dataclasses.replace(usk, w=usk.w + 1), dataclasses.replace(usk, j=0)):
        with pytest.raises(MalformedEnvelope):
            encode(UserCredential(bad, mpk))


def test_signature_encoder_refuses_what_its_decoder_refuses(system):
    # no rounds, or a response answering another challenge than its own, used to encode
    sig = system["ibs"]
    ch = sig.challenges[0]
    misfits = [
        dataclasses.replace(sig, commitments=(), challenges=(), responses=()),
        dataclasses.replace(sig, challenges=((ch + 1) % 3, *sig.challenges[1:])),
    ]
    for bad in misfits:
        with pytest.raises(MalformedEnvelope):
            encode(bad)


def test_transcript_encoder_refuses_what_its_decoder_refuses(system):
    # an accepted session that holds a failed round used to encode
    honest = system["transcript"]
    failed = dataclasses.replace(honest.rounds[0], accepted=False)
    with pytest.raises(MalformedEnvelope):
        encode(dataclasses.replace(honest, rounds=(failed, *honest.rounds[1:])))
    swapped = dataclasses.replace(honest.rounds[0], challenge=(honest.rounds[0].challenge + 1) % 3)
    with pytest.raises(MalformedEnvelope):
        encode(dataclasses.replace(honest, rounds=(swapped, *honest.rounds[1:])))


def msk_fields(msk):
    """What an msk is made of; GoppaCode itself compares by identity."""
    sk = msk.nied_sk
    return sk.p, sk.code.params.m, sk.code.params.modulus, sk.code.t, sk.code.g


def forged_key(code, p):
    """A NiedSecretKey made past its constructor, which would refuse (code, p)."""
    sk = object.__new__(NiedSecretKey)
    object.__setattr__(sk, "code", code)
    object.__setattr__(sk, "p", p)
    return sk


def dependent_perm(code):
    """A support permutation whose first m*t columns of H_bin @ P lie in one hyperplane."""
    r, cols = code.H_bin.nrows, [code.H_bin.column_int(j) for j in range(code.n)]
    dual = next(d for d in range(1, 1 << r) if sum((d & c).bit_count() % 2 == 0 for c in cols) >= r)
    flat = [j for j in range(code.n) if (dual & cols[j]).bit_count() % 2 == 0][:r]
    return Permutation(flat + [j for j in range(code.n) if j not in flat])


@pytest.mark.parametrize("m,t,seed", [(5, 2, 80), (10, 3, 81)])
def test_every_kind_decodes_to_the_value_it_encodes(m, t, seed):
    rng = random.Random(seed)
    mpk, msk = master_keygen(FieldParams(m), t, 7, rng)
    usk = extract_user_key(msk, mpk, b"carol", rng)
    cheat = UserSecretKey(BitVector.random_weight(mpk.nied_pk.n, t, rng), usk.j, t)
    values = [
        mpk,
        UserCredential(usk, mpk),
        mcfs_sign(msk.nied_sk, b"note", rng),
        ibs_sign(usk, mpk, b"carol", b"note", rng),
        ibi_identify(usk, mpk, b"carol", rng, rng),
        ibi_identify(cheat, mpk, b"carol", rng, rng),
    ]
    for value in values:
        assert decode(encode(value)) == value, type(value).__name__
    assert msk_fields(decode(encode(msk))) == msk_fields(msk)


def test_mpk_encoder_refuses_what_its_decoder_refuses(system):
    # 40 columns are no 2^m, and (3, 3) has k = -1; both used to encode
    for h, t in ((BitMatrix.zeros(20, 40), 2), (BitMatrix.zeros(9, 8), 3)):
        with pytest.raises(MalformedEnvelope):
            encode(MasterPublicKey(NiedPublicKey(h, t), 3))
    with pytest.raises(MalformedEnvelope):
        decode(mpk_blob(3, 3))
    assert decode(encode(system["mpk"])) == system["mpk"]


def test_msk_encoder_refuses_what_its_decoder_refuses(system):
    # a P on 16 points used to encode under a (5, 2) code; the constructor now refuses it too
    sk = system["msk"].nied_sk
    with pytest.raises(MalformedEnvelope):
        encode(MasterSecretKey(forged_key(sk.code, Permutation(range(16)))))
    assert msk_fields(decode(encode(system["msk"]))) == msk_fields(system["msk"])


def test_msk_whose_left_block_is_singular_is_refused_both_ways(system):
    # no keygen makes such a key and it cannot decrypt: A, the left block of
    # H_bin @ P, is what nied_decrypt multiplies by
    sk = system["msk"].nied_sk
    p = dependent_perm(sk.code)
    with pytest.raises(Singular):
        NiedSecretKey(sk.code, p)
    with pytest.raises(MalformedEnvelope):
        encode(MasterSecretKey(forged_key(sk.code, p)))
    blob = encode(system["msk"])
    with pytest.raises(MalformedEnvelope):
        decode(blob[: -len(p.words)] + p.words)


def test_extraction_refuses_an_mpk_its_msk_does_not_determine(system):
    other, _ = master_keygen(FieldParams(5), 2, 9, random.Random(46))
    rng = random.Random(47)
    before = rng.getstate()
    with pytest.raises(ParameterError):
        extract_user_key(system["msk"], other, b"alice", rng)
    assert rng.getstate() == before


def test_encoding_a_signature_holds_one_copy_of_its_envelope():
    # a (10,3) 280-round envelope is about 445 kB; a body joined from a list of
    # its parts, and then copied once more behind the header, peaked at 2.2 times that
    mpk, msk = master_keygen(FieldParams(10), 3, 280, random.Random(50))
    usk = extract_user_key(msk, mpk, b"dana", random.Random(51))
    sig = ibs_sign(usk, mpk, b"dana", b"memo", random.Random(52))
    tracemalloc.start()
    try:
        blob = encode(sig)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert decode(blob, KIND_IBS_SIG) == sig
    assert peak <= 1.3 * len(blob)


def test_decoding_a_signature_does_not_copy_its_envelope():
    # the body used to be sliced out of the envelope before it was parsed: a
    # (10,3) 280-round signature of about 466 kB left a transient of 543 kB
    mpk, msk = master_keygen(FieldParams(10), 3, 280, random.Random(50))
    usk = extract_user_key(msk, mpk, b"dana", random.Random(51))
    blob = encode(ibs_sign(usk, mpk, b"dana", b"memo", random.Random(52)))
    tracemalloc.start()
    try:
        sig = decode(blob, KIND_IBS_SIG)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert encode(sig) == blob
    assert peak - current < len(blob) / 2


def test_envelope_length_is_checked_against_the_data(system):
    blob = encode(system["ibs"])
    with pytest.raises(TruncatedInput):
        decode(blob[:-1])
    with pytest.raises(MalformedEnvelope, match="1 trailing bytes"):
        decode(blob + b"\x00")


def test_ibs_sign_command_encodes_its_signature_once(tmp_path, monkeypatch, capsys):
    mpk, msk, usk = tmp_path / "a.mpk", tmp_path / "a.msk", tmp_path / "a.usk"
    msg, sig = tmp_path / "note.txt", tmp_path / "note.sig"
    msg.write_bytes(b"one encoding")
    assert main(["keygen", "--m", "5", "--t", "2", "--rounds", "9", "--seed", "64",
                 "--out-mpk", str(mpk), "--out-msk", str(msk)]) == 0
    assert main(["extract", "--msk", str(msk), "--mpk", str(mpk), "--id", "erin",
                 "--seed", "65", "--out-usk", str(usk)]) == 0
    calls = []

    def counted(value, kind=None):
        calls.append(type(value).__name__)
        return encode(value, kind)

    monkeypatch.setattr(wirecli, "encode", counted)
    capsys.readouterr()
    assert main(["ibs-sign", "--usk", str(usk), "--mpk", str(mpk), "--id", "erin",
                 "--msg-file", str(msg), "--seed", "66", "--out", str(sig)]) == 0
    assert calls == ["IbsSignature"]
    assert f"bytes={sig.stat().st_size}" in capsys.readouterr().out.split()


def test_response_decoder_reports_every_bad_field_as_malformed():
    # a repeated or out-of-range word raised ParameterError, and a set padding
    # bit RangeError, though decode() reports both as MalformedEnvelope
    n = 5
    vec = struct.pack(">I", n) + b"\x00"

    def response(*words):
        return b"\x00" + vec + struct.pack(f">I{len(words)}H", len(words), *words)

    assert decode_response_payload(response(4, 3, 2, 1, 0)).perm == Permutation((4, 3, 2, 1, 0))
    for bad in (response(0, 1, 2, 3, 3), response(0, 1, 2, 3, 5)):
        with pytest.raises(MalformedEnvelope):
            decode_response_payload(bad)
    with pytest.raises(MalformedEnvelope):
        decode_response_payload(b"\x02" + struct.pack(">I", n) + b"\xff" + vec)


def test_decoded_msk_and_response_refuse_a_repeated_word_and_a_word_equal_to_n(system):
    p = system["msk"].nied_sk.p
    blob, n, words = encode(system["msk"]), p.n, p.words
    assert blob.endswith(struct.pack(">I", n) + words)  # P goes on the wire as its own words, last
    resp = next(rt.response for rt in system["transcript"].rounds if rt.response.b in (0, 1))
    payload = encode_response_payload(resp)
    assert payload.endswith(resp.perm.words) and decode_response_payload(payload) == resp
    for bad in (words[2:4] + words[2:], struct.pack(">H", n) + words[2:]):
        with pytest.raises(MalformedEnvelope):
            decode(blob[: -2 * n] + bad)
        with pytest.raises(MalformedEnvelope):
            decode_response_payload(payload[: -2 * n] + bad)

