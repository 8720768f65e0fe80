"""Smoke test for the benchmark itself.

Every workload runs for a moment, untraced and traced, and must emit every
metric its report promises; then each correctness gate is fed one planted
wrong output and must count the op as failed.  Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

The extract-full cases pay for real (16,9) key generation, so the file
takes about a minute and a half.
"""
from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import workloads  # noqa: E402
from codeibi import ibi, wirecli  # noqa: E402
from codeibi.binmat import BitVector  # noqa: E402
from codeibi.errors import Undecodable  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

END_TO_END = {"setup_s", "ops_per_s", "op_ms_p50", "op_samples", "fail_rate", "peak_rss_mb", "work_ms_p50"}
END_TO_END_BY_WORKLOAD = {
    "extract": {"attempt_ms"},
    "extract-full": {"attempt_ms", "projected_full_extract_h"},
    "ibs": {"sign_ms_p50", "verify_ms_p50", "sig_bytes", "wirecli.sig_bytes_over_model"},
    "identify-wire": set(),
}
PER_LAYER = {
    "gf2m.poly_inv_mod.ms_p50", "gf2m.poly_sqrt_mod.ms_p50", "gf2m.poly_ext_gcd.ms_p50",
    "gf2m.FieldParams.ms", "gf2m.random_irreducible.ms", "goppa.build_goppa.ms", "niederreiter.nied_keygen.ms",
    "goppa.patterson_decode.calls", "goppa.patterson_decode.ms_p50", "goppa.patterson_decode.self_ms_p50",
    "goppa.patterson_decode.decoded.calls", "goppa.patterson_decode.decoded.ms_p50",
    "goppa.patterson_decode.undecodable.calls", "goppa.patterson_decode.undecodable.ms_p50",
    "goppa.undecodable.no_sqrt", "goppa.undecodable.vanishing_locator", "goppa.undecodable.no_split",
    "goppa.undecodable.syndrome_mismatch",
    "niederreiter.nied_decrypt.calls", "niederreiter.nied_decrypt.ms_p50", "mcfs.hash_to_syndrome.ms_total",
    "mcfs.decodable_ratio",
    "ibi.extract_user_key.attempts_mean", "ibi.fs_challenges.ms_p50", "ibi.derive_identifier.ms_p50",
    "stern.stern_commit.ms_p50", "stern.stern_respond.ms_p50", "stern.verify_round.ch0.ms_p50",
    "stern.verify_round.ch1.ms_p50", "stern.verify_round.ch2.ms_p50", "stern.encode_perm.ms_total",
    "binmat.random_permutation.ms_total", "binmat.apply_permutation.ms_total",
    "binmat.mat_vec_mul.stern.calls", "binmat.mat_vec_mul.stern.ms_total",
    "binmat.mat_vec_mul.niederreiter.calls", "binmat.mat_vec_mul.niederreiter.ms_total",
    "binmat.mat_rank.ms", "binmat.mat_invert.ms", "binmat.mat_mul.ms", "binmat.random_nonsingular.ms",
    "wirecli.encode.ms_p50", "wirecli.decode.ms_p50",
    "wirecli.encode_response_payload.ms_total", "wirecli.decode_response_payload.ms_total",
    "wirecli.wait_ms_p50", "wirecli.session_bytes",
    "wirecli.sig_bytes_over_model", "wirecli.session_bytes_over_model",
    "trace.overhead_ms", "trace.overhead_pct", "trace.spans_per_op",
}


def _run(workload: str, trace: int):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "0.2", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    report = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split(" ")[:4]
            report[name] = float(value)
    return report, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    report, final = _run(workload, trace)
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(final["metrics"]) == {m["name"] for m in declared}
    if trace:
        assert PER_LAYER <= set(report)
    else:
        assert END_TO_END | END_TO_END_BY_WORKLOAD[workload] <= set(report)
        assert report["fail_rate"] == 0.0
        assert ("op_ms_p90" in report) == (report["op_samples"] >= 100)


def _record(w, i):
    return bench._run_op(w, w.tracer, i, i, traced=False)


def _setup(cls):
    w = cls(1, Tracer())
    w.setup()
    return w


def test_extract_gate_counts_a_wrong_key(monkeypatch):
    w = _setup(workloads.Extract)
    assert _record(w, 0)["ok"]
    real = ibi.extract_user_key

    def wrong_key(msk, mpk, identity, rng, retry_cap=None):
        usk = real(msk, mpk, identity, rng, retry_cap)
        s = BitVector.random_weight(mpk.nied_pk.n, mpk.nied_pk.t, random.Random(0))
        return ibi.UserSecretKey(s, usk.j, mpk.nied_pk.t, usk.attempts)

    monkeypatch.setattr(ibi, "extract_user_key", wrong_key)
    assert not _record(w, 1)["ok"]


def test_capped_extraction_expects_only_the_retry_limit(monkeypatch):
    class SmallCapped(workloads.ExtractFull):
        m, t = 12, 5  # the capped op and its gate, without a (16,9) keygen

    w = _setup(SmallCapped)
    assert _record(w, 0)["ok"]

    def undecodable(*args, **kwargs):
        raise Undecodable("planted")

    monkeypatch.setattr(ibi, "extract_user_key", undecodable)
    rec = _record(w, 1)
    assert not rec["ok"] and rec["error"].startswith("Undecodable")


def test_session_gate_counts_a_wrong_key_marked_accepted(monkeypatch):
    w = _setup(workloads.IdentifyWire)
    try:
        wrong_key_op = workloads.NEGATIVE_EVERY - 1
        assert _record(w, 0)["ok"]
        assert _record(w, wrong_key_op)["ok"]
        real = wirecli.run_prover
        monkeypatch.setattr(wirecli, "run_prover", lambda *a, **k: real(*a, **k) or True)
        rec = _record(w, wrong_key_op)
        assert rec["out"] == {"honest": False, "accepted": True}
        assert not rec["ok"]
    finally:
        late = w.close()
    # the verifier's own transcripts agree with every verdict it gave
    assert late == set()


def test_session_cross_check_counts_a_disagreeing_transcript():
    w = _setup(workloads.IdentifyWire)
    try:
        assert _record(w, 0)["ok"]
    finally:
        w.expected[0] = False  # planted: the verifier accepted a "wrong-key" session
        late = w.close()
    assert w.verdicts == [True]
    assert late == {0}


def test_signature_gate_counts_a_signature_for_another_message(monkeypatch):
    w = _setup(workloads.Ibs)
    real = ibi.ibs_sign
    monkeypatch.setattr(ibi, "ibs_sign", lambda usk, mpk, ident, msg, rng: real(usk, mpk, ident, b"another", rng))
    rec = _record(w, 0)
    assert rec["out"]["accepted"] is False
    assert not rec["ok"]


def test_signature_gate_counts_a_tampered_copy_accepted(monkeypatch):
    w = _setup(workloads.Ibs)
    tampered_op = workloads.NEGATIVE_EVERY - 1
    assert _record(w, tampered_op)["ok"]
    monkeypatch.setattr(workloads, "verify_blob", lambda *a: True)
    rec = _record(w, tampered_op)
    assert rec["out"]["tamper_rejected"] is False
    assert not rec["ok"]
