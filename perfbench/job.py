"""One benchmark job, run in a fresh process by run.py.

The job imports sigmaconics from the checkout's `src`, times the workload's
set-up (the field, plane, kernel and incidence caches it uses), then runs
each of the workload's CLI calls through `sigmaconics.cli.main`, which
reuses those caches.  The report each call writes to standard output is
captured in memory, hashed and parsed.  The job prints one JSON line.

    python3 perfbench/job.py --workload gl-8 --seed 1 [--trace SPANS] [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

from workloads import WORKLOADS  # noqa: E402  (sibling module of this script)


def load_library():
    sys.path.insert(0, SRC)
    import sigmaconics
    import sigmaconics.cli  # noqa: F401  (the CLI is not imported by the package)
    if not os.path.abspath(sigmaconics.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"sigmaconics was imported from {sigmaconics.__file__}, "
                         f"not from {SRC}")
    return sigmaconics


def parse_report(text: str) -> dict:
    """Summary records, matrix-record count and the violation tally of one
    JSON-lines report.

    `checked` counts the matrices the summaries cover (census totals, code
    sizes).  `flagged` counts matrices carrying at least one violation: the
    distinct matrices of the violation records and of the matrix records with
    violations, plus one per violation the CLI left out of the report
    (`--max-violations`), except those that the matrix records already list.
    """
    summaries, shown, flagged = [], [], set()
    records, listed = 0, set()
    for line in text.splitlines():
        rec = json.loads(line)
        kind = rec.get("record")
        if kind == "summary":
            summaries.append(rec)
        elif kind == "violation":
            shown.append((tuple(rec["matrix"]), rec["reason"]))
        elif kind == "matrix":
            records += 1
            for reason in rec.get("violations", ()):
                listed.add((tuple(rec["matrix"]), reason))
    flagged.update(m for m, _ in shown)
    flagged.update(m for m, _ in listed)
    total = sum(s.get("violations", 0) for s in summaries if "violations" in s)
    hidden = total - len(shown) - len(listed - set(shown))
    checked = sum(s.get("total", s.get("code_size", 0)) for s in summaries)
    return {"summaries": summaries, "matrix_records": records,
            "checked": checked, "flagged": len(flagged) + max(hidden, 0)}


def run_call(cli, argv: list) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
            error = None
        except Exception as exc:  # a crash is a failed call, not a failed job
            code, error = None, f"{type(exc).__name__}: {exc}"
        run_s = time.perf_counter() - t0
    text = buf.getvalue()
    out = {"argv": argv, "exit": code, "error": error, "run_s": run_s,
           "bytes": len(text.encode()),
           "sha256": hashlib.sha256(text.encode()).hexdigest()}
    try:
        out.update(parse_report(text) if code in (0, 3) else {})
    except (ValueError, KeyError) as exc:
        out["error"] = f"unreadable report: {exc}"
    for key, empty in (("summaries", []), ("matrix_records", 0),
                       ("checked", 0), ("flagged", 0)):
        out.setdefault(key, empty)
    if code == 3 and not out["flagged"]:
        # a failed statement without violation records (mrd) flags every
        # matrix the report covers
        out["flagged"] = out["checked"]
    return out


def environment() -> dict:
    import numpy as np
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "threads": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS")}}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", help="record spans and write them to this path")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]

    lib = load_library()
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(run_id=os.path.basename(args.trace).rsplit(".", 1)[0])
        tracer.install()

    t0 = time.perf_counter()
    kern = wl.setup(lib)
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s, "calls": []}
    if not args.setup_only:
        result["calls"] = [run_call(lib.cli, argv) for argv in wl.argvs(args.seed)]
    wall_s = time.perf_counter() - t0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["env"] = environment()
    if tracer is not None:
        layers = tracer.metrics(wall_s)
        tracer.write(args.trace)
        layers["census.kernel_bytes"] = 0 if kern is None else int(
            sum(h.nbytes for h in kern.h) + kern.smul.nbytes)
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
