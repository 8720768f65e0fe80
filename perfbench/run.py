"""Benchmark for codeibi: key extraction, loopback identification, IBS, and
capped full-scale extraction, with an optional traced run for per-layer figures.

Run every workload, untraced, and print each metric with its unit:

    python3 perfbench/run.py

Run one workload (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload extract --seed 3 --seconds 10 --trace 0

``--trace 1`` installs the span wrappers from spans.py, runs each op once
untraced and once traced with the same inputs, and reports the per-layer
figures and the tracing overhead instead of the end-to-end ones.  The
last line of a one-workload run is a JSON object with ``correct``,
``attempted``, ``failed`` and the metrics BENCHMARK.json names; the full
report, the run metadata and (traced) the spans go to ``.perfbench/``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SPEC = ROOT / "BENCHMARK.json"


def _load_program():
    """Put the checkout's own src/ first on the path and import codeibi from it."""
    pkg = SRC / "codeibi"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no codeibi sources at {pkg}")
    sys.path.insert(0, str(SRC))
    import codeibi

    if Path(codeibi.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"perfbench: imported codeibi from {codeibi.__file__}, not {pkg}")


def _load_spec() -> dict:
    try:
        return json.loads(SPEC.read_text())
    except (OSError, ValueError) as e:
        raise SystemExit(f"perfbench: cannot read {SPEC}: {e}")


def _git_commit() -> str:
    """HEAD's commit read from .git directly; the checkout may not be a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _pct(values, q):
    """q-th percentile by the same rule as statistics.quantiles(n=100)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---- one workload --------------------------------------------------------------


def _run_op(w, tracer, i: int, op_id: int, traced: bool) -> dict:
    if traced:
        tracer.install()
        tracer.op = op_id
    t0 = time.perf_counter()
    try:
        out, error = w.op(i), None
    except Exception as e:  # any exception the program raises is a failed op
        out, error = None, f"{type(e).__name__}: {e}"
    seconds = time.perf_counter() - t0
    if traced:
        tracer.op = None
        tracer.uninstall()
    ok = False
    if error is None:
        try:
            ok = bool(w.check(out))
        except Exception as e:
            error = f"check raised {type(e).__name__}: {e}"
    return {"id": op_id, "i": i, "s": seconds, "ok": ok, "traced": traced, "out": out, "error": error}


def _measured_run(cls, seed, seconds, tracer):
    """Set up setup_reps times (the last set-up is kept), then run ops untraced."""
    setup_times = []
    for rep in range(cls.setup_reps):
        w = cls(seed, tracer)
        t0 = time.perf_counter()
        w.setup()
        setup_times.append(time.perf_counter() - t0)
        if rep < cls.setup_reps - 1:
            w.close()
    records = []
    start = time.perf_counter()
    while True:
        records.append(_run_op(w, tracer, len(records), len(records), traced=False))
        if time.perf_counter() - start >= seconds:
            break
    elapsed = time.perf_counter() - start
    return w, setup_times, records, elapsed


def _traced_run(cls, seed, seconds, tracer):
    """Set up once, traced; then each input twice, untraced and traced, in turn."""
    from spans import SETUP_OP

    w = cls(seed, tracer)
    tracer.install()
    tracer.op = SETUP_OP
    t0 = time.perf_counter()
    w.setup()
    setup_s = time.perf_counter() - t0
    tracer.op = None
    tracer.uninstall()
    records = []
    start = time.perf_counter()
    i = 0
    while True:
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            records.append(_run_op(w, tracer, i, len(records), traced))
        i += 1
        if time.perf_counter() - start >= seconds:
            break
    elapsed = time.perf_counter() - start
    return w, [setup_s], records, elapsed


def _op_metrics(cls, records, elapsed) -> dict:
    """Figures every workload reports, plus the ones particular to it."""
    from workloads import Extract, ExtractFull, Ibs, cost_model

    done = [r for r in records if r["error"] is None]
    ms = [r["s"] * 1000.0 for r in done]
    passed = sum(r["ok"] for r in records)
    out = {
        "ops_per_s": (passed / elapsed, "1/s"),
        "op_ms_p50": (statistics.median(ms) if ms else 0.0, "ms"),
        "op_samples": (len(ms), "count"),
        "fail_rate": ((len(records) - passed) / len(records), "ratio"),
    }
    if len(ms) >= 100:
        out["op_ms_p90"] = (_pct(ms, 90), "ms")
    work = ms
    if issubclass(cls, Extract):
        per_attempt = [r["s"] * 1000.0 / r["out"]["attempts"] for r in done]
        work = per_attempt
        out["attempt_ms"] = (statistics.median(per_attempt) if per_attempt else 0.0, "ms")
        out["ibi.extract_user_key.attempts_mean"] = (
            statistics.mean(r["out"]["attempts"] for r in done) if done else 0.0, "count")
        if cls is ExtractFull:
            hours = math.factorial(cls.t) * out["attempt_ms"][0] / 3.6e6
            out["projected_full_extract_h"] = (hours, "h")
    out["work_ms_p50"] = (statistics.median(work) if work else 0.0, "ms")
    if cls is Ibs and done:
        for phase in ("sign", "encode", "decode", "verify"):
            out[f"{phase}_ms_p50"] = (statistics.median(r["out"][f"{phase}_s"] * 1000.0 for r in done), "ms")
        sig_bytes = statistics.median(r["out"]["sig_bytes"] for r in done)
        out["sig_bytes"] = (sig_bytes, "B")
        out["wirecli.sig_bytes_over_model"] = (sig_bytes / (cost_model(cls).comm_bits_signature / 8), "x")
    return out


def run_workload(args, spec: dict) -> int:
    _load_program()
    from spans import Tracer, summarize
    from workloads import FULL_SCALE_RETRY_CAP, WORKLOADS, ExtractFull, IdentifyWire, cost_model

    cls = WORKLOADS[args.workload]
    tracer = Tracer()
    run = _traced_run if args.trace else _measured_run
    w, setup_times, records, elapsed = run(cls, args.seed, args.seconds, tracer)
    late = w.close()
    for r in records:
        if r["id"] in late and r["ok"]:
            r["ok"] = False
            r["error"] = "verifier transcript disagrees"

    meta = {
        "workload": cls.name,
        "seed": args.seed,
        "m": cls.m,
        "t": cls.t,
        "rounds": cls.rounds,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_reps": len(setup_times),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
    }
    if cls is ExtractFull:
        meta["retry_cap"] = FULL_SCALE_RETRY_CAP
    report = {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    if args.trace:
        plain = [r for r in records if not r["traced"]]
        traced = [r for r in records if r["traced"]]
        untraced_figs = _op_metrics(cls, plain, elapsed)
        traced_figs = _op_metrics(cls, traced, elapsed)
        report.update(summarize(tracer, {r["id"]: r["s"] for r in traced if r["error"] is None}))
        report["trace.op_ms_p50.untraced"] = untraced_figs["op_ms_p50"]
        report["trace.op_ms_p50.traced"] = traced_figs["op_ms_p50"]
        pairs = {}
        for r in records:
            if r["error"] is None:
                pairs.setdefault(r["i"], {})[r["traced"]] = r["s"] * 1000.0
        diffs = [p[True] - p[False] for p in pairs.values() if len(p) == 2]
        rel = [100.0 * (p[True] - p[False]) / p[False] for p in pairs.values() if len(p) == 2]
        # Paired: each input ran once each way, so op-to-op variation cancels.
        report["trace.overhead_ms"] = (statistics.median(diffs) if diffs else 0.0, "ms")
        report["trace.overhead_pct"] = (statistics.median(rel) if rel else 0.0, "%")
        report["trace.work_ms_p50.traced"] = traced_figs["work_ms_p50"]
        report["ibi.extract_user_key.attempts_mean"] = traced_figs.get("ibi.extract_user_key.attempts_mean", (0.0, "count"))
        report["wirecli.sig_bytes_over_model"] = traced_figs.get("wirecli.sig_bytes_over_model", (0.0, "x"))
        model_session = cost_model(cls).comm_bits_identification / 8 if cls is IdentifyWire else 0
        session = report["wirecli.session_bytes"][0]
        report["wirecli.session_bytes_over_model"] = (session / model_session if model_session else 0.0, "x")
    else:
        report.update(_op_metrics(cls, records, elapsed))

    failed = sum(not r["ok"] for r in records)
    errors = sorted({r["error"] for r in records if r["error"]})
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in declared:
        value, unit = report[m["name"]]
        if unit != m["unit"]:
            raise SystemExit(f"perfbench: {m['name']} is measured in {unit}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    final = {"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{cls.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(OUT / f"{stem}-spans.jsonl")
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"meta": meta, "report": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
         "errors": errors, "absent_boundaries": tracer.absent, "result": final}, indent=1))

    print("meta " + json.dumps(meta))
    for name, (value, unit) in report.items():
        note = f" (n={report['op_samples'][0]})" if name == "op_ms_p90" else ""
        print(f"metric {name} {value!r} {unit}{note}")
    for e in errors:
        print(f"error {e}", file=sys.stderr)
    if tracer.absent:
        print("untraced (absent in this codeibi): " + ", ".join(tracer.absent), file=sys.stderr)
    print(json.dumps(final))
    return 0


# ---- every workload ------------------------------------------------------------


SUMMARY = ("setup_s", "ops_per_s", "op_ms_p50", "work_ms_p50", "fail_rate", "peak_rss_mb")


def run_all(args, spec: dict) -> int:
    """Each workload in a fresh process, one after another."""
    names = [w["name"] for w in spec["workloads"]]
    status = 0
    rows = []
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print("  " + line)
        try:
            final = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"  no result (exit code {proc.returncode})")
            status = 1
            continue
        if proc.returncode or not final["correct"]:
            status = 1
        report = {}
        for line in lines:
            if line.startswith("metric "):
                _, key, value, unit = line.split(" ", 4)[:4]
                report[key] = f"{float(value):.4g} {unit}"
        rows.append((name, final, report))
    print("== summary")
    for name, final, report in rows:
        cells = [f"{k}={report[k]}" for k in SUMMARY if k in report]
        print(f"  {name}: attempted={final['attempted']} failed={final['failed']} " + " ".join(cells))
    return status


def main(argv=None) -> int:
    spec = _load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names, help="run one workload; omit to run all of them")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"], help="measured time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload is None:
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
