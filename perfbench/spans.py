"""In-memory spans around codeibi's layer boundaries, installed from outside.

The program carries no tracing of its own, so the benchmark replaces a
function where its caller looks it up (``codeibi.niederreiter.patterson_decode``
is the goppa decoder as the niederreiter layer calls it) with a wrapper
that records a span.  Spans live in memory while the run goes on and are
written out once, at the end.

A span is ``[name, start, end, parent, op, tag]``: the parent is the span
open in the same thread when this one started, the op is the id of the
benchmark operation open at the time (server-side spans take the one
session that is open), and the tag carries a detail such as the caller
module, the Stern challenge, or the exception a call raised.
"""
from __future__ import annotations

import contextlib
import json
import statistics
import threading
import time
from collections import defaultdict

from codeibi import binmat, goppa, ibi, mcfs, niederreiter, stern, wirecli

NAME, START, END, PARENT, OP, TAG = range(6)

SETUP_OP = "setup"


def _caller(module):
    return lambda args, kwargs: module.__name__.rsplit(".", 1)[1]


def _challenge(args, kwargs):
    return "ch%d" % (args[3] if len(args) > 3 else kwargs["ch"])


# (module holding the binding, attribute, span name, tag function or None).
# The module is where the call is looked up, so each entry is one layer
# boundary.  poly_eval and field_mul are left alone on purpose: the root
# search makes 2^m poly_eval calls per decode, and a span on each would
# measure the tracer instead of the decoder.
BOUNDARIES = (
    # gf2m below goppa
    (goppa, "random_irreducible", "gf2m.random_irreducible", None),
    (goppa, "poly_inv_mod", "gf2m.poly_inv_mod", None),
    (goppa, "poly_sqrt_mod", "gf2m.poly_sqrt_mod", None),
    (goppa, "poly_ext_gcd", "gf2m.poly_ext_gcd", None),
    # goppa's own steps and goppa below niederreiter
    (goppa, "syndrome_poly", "goppa.syndrome_poly", None),
    (niederreiter, "build_goppa", "goppa.build_goppa", None),
    (niederreiter, "patterson_decode", "goppa.patterson_decode", None),
    # binmat below goppa, niederreiter, stern and ibi
    (goppa, "mat_rank", "binmat.mat_rank", None),
    (binmat, "mat_rank", "binmat.mat_rank", None),
    (niederreiter, "random_nonsingular", "binmat.random_nonsingular", None),
    (niederreiter, "mat_invert", "binmat.mat_invert", None),
    (niederreiter, "mat_mul", "binmat.mat_mul", None),
    (niederreiter, "permute_columns", "binmat.permute_columns", None),
    (niederreiter, "random_permutation", "binmat.random_permutation", None),
    (stern, "random_permutation", "binmat.random_permutation", None),
    (stern, "apply_permutation", "binmat.apply_permutation", None),
    (niederreiter, "mat_vec_mul", "binmat.mat_vec_mul", _caller(niederreiter)),
    (stern, "mat_vec_mul", "binmat.mat_vec_mul", _caller(stern)),
    (ibi, "mat_vec_mul", "binmat.mat_vec_mul", _caller(ibi)),
    # niederreiter below mcfs and ibi
    (mcfs, "nied_decrypt", "niederreiter.nied_decrypt", None),
    (ibi, "nied_keygen", "niederreiter.nied_keygen", None),
    # mcfs below ibi
    (ibi, "mcfs_sign", "mcfs.mcfs_sign", None),
    (ibi, "hash_to_syndrome", "mcfs.hash_to_syndrome", None),
    (mcfs, "hash_to_syndrome", "mcfs.hash_to_syndrome", None),
    # stern below ibi and wirecli
    (ibi, "stern_commit", "stern.stern_commit", None),
    (ibi, "stern_respond", "stern.stern_respond", None),
    (ibi, "verify_round", "stern.verify_round", _challenge),
    (wirecli, "stern_commit", "stern.stern_commit", None),
    (wirecli, "stern_respond", "stern.stern_respond", None),
    (wirecli, "verify_round", "stern.verify_round", _challenge),
    (stern, "encode_perm", "stern.encode_perm", None),
    # ibi's own steps and ibi below wirecli
    (ibi, "fs_challenges", "ibi.fs_challenges", None),
    (ibi, "derive_identifier", "ibi.derive_identifier", None),
    (wirecli, "derive_identifier", "ibi.derive_identifier", None),
    # wirecli's codecs
    (wirecli, "encode_response_payload", "wirecli.encode_response_payload", None),
    (wirecli, "decode_response_payload", "wirecli.decode_response_payload", None),
    # the public calls the benchmark itself makes
    (ibi, "master_keygen", "ibi.master_keygen", None),
    (ibi, "extract_user_key", "ibi.extract_user_key", None),
    (ibi, "ibs_sign", "ibi.ibs_sign", None),
    (ibi, "ibs_verify", "ibi.ibs_verify", None),
    (wirecli, "encode", "wirecli.encode", None),
    (wirecli, "decode", "wirecli.decode", None),
)

# Counted, not timed: every protocol frame either side sends.  A frame is
# a 1-byte type and a 4-byte length ahead of the payload.
FRAME_HEADER_BYTES = 5


class Tracer:
    """Spans and counters for one benchmark process."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict = defaultdict(int)  # (op, name) -> total
        self.op = None  # id of the benchmark op now running
        self.absent: list = []  # boundaries this version of codeibi lacks
        self._local = threading.local()
        self._saved: list = []

    # -- recording ----------------------------------------------------------

    def span(self, name: str):
        """Context manager for a span the benchmark opens itself."""
        return _ManualSpan(self, name) if self._saved else contextlib.nullcontext()

    def _open(self, name, tag=None):
        local = self._local
        parent = getattr(local, "top", None)
        rec = [name, time.perf_counter(), 0.0, parent, self.op, tag]
        self.spans.append(rec)
        local.top = rec
        return rec, parent

    def _close(self, rec, parent):
        rec[END] = time.perf_counter()
        self._local.top = parent

    def _wrap(self, fn, name, tag_fn):
        tracer = self

        def traced(*args, **kwargs):
            rec, parent = tracer._open(name, tag_fn(args, kwargs) if tag_fn else None)
            try:
                return fn(*args, **kwargs)
            except Exception as e:
                rec[TAG] = "%s: %s" % (type(e).__name__, e)
                raise
            finally:
                tracer._close(rec, parent)

        traced.__wrapped__ = fn
        return traced

    def _count_frames(self, fn):
        tracer = self

        def counted(sock, mtype, payload):
            tracer.counters[(tracer.op, "wirecli.session_bytes")] += FRAME_HEADER_BYTES + len(payload)
            return fn(sock, mtype, payload)

        counted.__wrapped__ = fn
        return counted

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            return
        self.absent = []
        for module, attr, name, tag_fn in BOUNDARIES:
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module.__name__}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, tag_fn))
        send = getattr(wirecli, "_send_msg", None)
        if send is None:
            self.absent.append("codeibi.wirecli._send_msg")
        else:
            self._saved.append((wirecli, "_send_msg", send))
            wirecli._send_msg = self._count_frames(send)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved = []

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        """One JSON object per span; parents become indices into the file."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        with open(path, "w") as f:
            for rec in self.spans:
                parent = rec[PARENT]
                f.write(
                    json.dumps(
                        {
                            "name": rec[NAME],
                            "start": rec[START],
                            "end": rec[END],
                            "parent": None if parent is None else index[id(parent)],
                            "op": rec[OP],
                            "tag": rec[TAG],
                        }
                    )
                    + "\n"
                )


class _ManualSpan:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.rec, self.parent = self.tracer._open(self.name)
        return self.rec

    def __exit__(self, *exc):
        self.tracer._close(self.rec, self.parent)


# ---- derived figures --------------------------------------------------------

UNDECODABLE_REASONS = (
    ("no square root", "no_sqrt"),
    ("vanishing locator", "vanishing_locator"),
    ("does not split", "no_split"),
    ("syndrome mismatch", "syndrome_mismatch"),
)

SETUP_LAYERS = (
    "gf2m.FieldParams",
    "gf2m.random_irreducible",
    "goppa.build_goppa",
    "niederreiter.nied_keygen",
    "binmat.mat_rank",
    "binmat.mat_invert",
    "binmat.mat_mul",
    "binmat.random_nonsingular",
    "binmat.permute_columns",
)

# Layers whose share of traced op time goes into the per-layer figures.
OP_LAYERS = (
    "gf2m.poly_inv_mod",
    "gf2m.poly_sqrt_mod",
    "gf2m.poly_ext_gcd",
    "goppa.syndrome_poly",
    "goppa.patterson_decode",
    "niederreiter.nied_decrypt",
    "mcfs.hash_to_syndrome",
    "ibi.fs_challenges",
    "ibi.derive_identifier",
    "stern.stern_commit",
    "stern.stern_respond",
    "stern.verify_round",
    "stern.encode_perm",
    "binmat.random_permutation",
    "binmat.apply_permutation",
    "binmat.mat_vec_mul",
    "wirecli.encode",
    "wirecli.decode",
    "wirecli.encode_response_payload",
    "wirecli.decode_response_payload",
)


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def _raised(tag: str) -> bool:
    return ": " in tag  # "<exception class>: <message>", set by the wrapper


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals.

    The prover and the verifier thread can both be inside a span at once,
    so plain sums would count that time twice.
    """
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def summarize(tracer: Tracer, op_times: dict) -> dict:
    """Per-layer figures from the spans.

    op_times maps each traced op id to its wall time in seconds.  Call
    counts and per-op totals are means over the traced ops; ``ms_p50``
    is the median over all spans of that name inside traced ops; setup
    figures are totals over the one traced set-up.
    """
    n_ops = len(op_times)
    total_op_s = sum(op_times.values())
    child_s: dict = defaultdict(float)
    for rec in tracer.spans:
        if rec[PARENT] is not None:
            child_s[id(rec[PARENT])] += rec[END] - rec[START]

    setup_s: dict = defaultdict(float)
    durations: dict = defaultdict(list)  # name -> [seconds] over traced ops
    top_level: dict = defaultdict(list)  # op -> [(start, end)] of spans with no parent
    patterson_self: list = []
    reasons: dict = defaultdict(int)
    perm_in_commit = 0.0
    in_ops = 0
    for rec in tracer.spans:
        name, op = rec[NAME], rec[OP]
        dur = rec[END] - rec[START]
        if op == SETUP_OP:
            setup_s[name] += dur
            continue
        if op not in op_times:
            continue
        in_ops += 1
        durations[name].append(dur)
        tag = rec[TAG]
        if tag is not None and not _raised(tag):
            durations[f"{name}.{tag}"].append(dur)
        if rec[PARENT] is None:
            top_level[op].append((rec[START], rec[END]))
        if name == "goppa.patterson_decode":
            patterson_self.append(dur - child_s[id(rec)])
            if tag is None:
                durations["goppa.patterson_decode.decoded"].append(dur)
            else:
                durations["goppa.patterson_decode.undecodable"].append(dur)
                for needle, reason in UNDECODABLE_REASONS:
                    if needle in tag:
                        reasons[reason] += 1
        elif name in ("binmat.random_permutation", "binmat.apply_permutation"):
            parent = rec[PARENT]
            if parent is not None and parent[NAME] == "stern.stern_commit":
                perm_in_commit += dur

    def per_op(x):
        return x / n_ops if n_ops else 0.0

    def calls(name):
        return per_op(len(durations.get(name, ())))

    def total_ms(name):
        return per_op(_ms(sum(durations.get(name, ()))))

    def p50_ms(name):
        return _ms(_p50(durations.get(name, ())))

    def share(seconds):
        return 100.0 * seconds / total_op_s if total_op_s else 0.0

    out = {}
    for layer in SETUP_LAYERS:
        out[f"{layer}.ms"] = (_ms(setup_s.get(layer, 0.0)), "ms")

    for name in ("gf2m.poly_inv_mod", "gf2m.poly_sqrt_mod", "gf2m.poly_ext_gcd",
                 "goppa.syndrome_poly", "niederreiter.nied_decrypt",
                 "ibi.fs_challenges", "ibi.derive_identifier",
                 "stern.stern_commit", "stern.stern_respond",
                 "wirecli.encode", "wirecli.decode"):
        out[f"{name}.ms_p50"] = (p50_ms(name), "ms")
    out["goppa.patterson_decode.calls"] = (calls("goppa.patterson_decode"), "count")
    out["goppa.patterson_decode.ms_p50"] = (p50_ms("goppa.patterson_decode"), "ms")
    out["goppa.patterson_decode.self_ms_p50"] = (_ms(_p50(patterson_self)), "ms")
    for branch in ("decoded", "undecodable"):
        key = f"goppa.patterson_decode.{branch}"
        out[f"{key}.calls"] = (calls(key), "count")
        out[f"{key}.ms_p50"] = (p50_ms(key), "ms")
    for _, reason in UNDECODABLE_REASONS:
        out[f"goppa.undecodable.{reason}"] = (per_op(reasons[reason]), "count")
    decodes = len(durations.get("goppa.patterson_decode", ()))
    decoded = len(durations.get("goppa.patterson_decode.decoded", ()))
    out["mcfs.decodable_ratio"] = (decoded / decodes if decodes else 0.0, "ratio")
    out["niederreiter.nied_decrypt.calls"] = (calls("niederreiter.nied_decrypt"), "count")
    out["mcfs.hash_to_syndrome.ms_total"] = (total_ms("mcfs.hash_to_syndrome"), "ms")
    for ch in ("ch0", "ch1", "ch2"):
        out[f"stern.verify_round.{ch}.ms_p50"] = (p50_ms(f"stern.verify_round.{ch}"), "ms")
    out["stern.stern_commit.calls"] = (calls("stern.stern_commit"), "count")
    commit_s = sum(durations.get("stern.stern_commit", ()))
    out["stern.stern_commit.perm_pct"] = (100.0 * perm_in_commit / commit_s if commit_s else 0.0, "%")
    for name in ("stern.encode_perm", "binmat.random_permutation", "binmat.apply_permutation",
                 "wirecli.encode_response_payload", "wirecli.decode_response_payload"):
        out[f"{name}.ms_total"] = (total_ms(name), "ms")
    for caller in ("stern", "niederreiter", "ibi"):
        key = f"binmat.mat_vec_mul.{caller}"
        out[f"{key}.calls"] = (calls(key), "count")
        out[f"{key}.ms_total"] = (total_ms(key), "ms")

    for layer in OP_LAYERS:
        out[f"{layer}.op_pct"] = (share(sum(durations.get(layer, ()))), "%")
    out["goppa.patterson_decode.self.op_pct"] = (share(sum(patterson_self)), "%")

    sent = {op: tracer.counters.get((op, "wirecli.session_bytes"), 0) for op in op_times}
    if any(sent.values()):
        waits = [op_times[op] - _covered(top_level[op]) for op in op_times]
        out["wirecli.wait_ms_p50"] = (_ms(_p50(waits)), "ms")
        out["wirecli.wait.op_pct"] = (share(sum(waits)), "%")
        out["wirecli.session_bytes"] = (statistics.mean(sent.values()), "count")
    else:
        out["wirecli.wait_ms_p50"] = (0.0, "ms")
        out["wirecli.wait.op_pct"] = (0.0, "%")
        out["wirecli.session_bytes"] = (0.0, "count")
    out["trace.spans_per_op"] = (per_op(in_ops), "count")
    return out
