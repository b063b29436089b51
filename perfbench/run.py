"""sigmaconics benchmark: one workload per invocation.

    python3 perfbench/run.py --workload gl-8 --seed 1 --seconds 30 --trace 0

Load is closed-loop with one client: one job at a time, each a fresh
single-threaded Python process (perfbench/job.py) that times the workload's
set-up and then runs its CLI calls through `sigmaconics.cli.main`.  Jobs
start while one more, as long as the last, fits in `--seconds` (at least one
runs); set-up is also sampled in set-up-only processes until there are
SETUP_SAMPLES of it.  Every report is checked (workloads.py) and must be
byte-identical across the jobs of a run.

With `--trace 0` the run prints the end-to-end metrics, medians over its
jobs.  With `--trace 1` it alternates an untraced and a traced job and
prints the per-layer metrics of the traced ones (tracer.py); the spans go to
.perfbench/spans/.  Human-readable lines come first; the last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.  The full result is also kept in .perfbench/results/ for
reconcile.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
RUN_DEADLINE_S = 170   # jobs still running then are killed, so a run ends within 180 s
SETUP_SAMPLES = 7

from workloads import WORKLOADS  # noqa: E402  (sibling module of this script)

# name -> unit; the order is the order of BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}
PER_LAYER = {
    "fields.vadd.s": "s", "fields.vadd.cells": "count",
    "fields.vmul.s": "s", "fields.vmul.cells": "count",
    "fields.scalar.calls": "count", "fields.build_field.s": "s",
    "fields.self_s": "s",
    "linalg.s": "s", "linalg.self_s": "s",
    "projective.index_rows.s": "s", "projective.index_rows.rows": "count",
    "projective.normalize_rows.s": "s", "projective.incidence.s": "s",
    "projective.self_s": "s",
    "forms.absolute_mask.s": "s", "forms.absolute_mask.calls": "count",
    "forms.collineation_images.s": "s", "forms.self_s": "s",
    "classify.classify_plane_form.s": "s", "classify.kestenband_profile.s": "s",
    "classify.line_spectrum.s": "s", "classify.lines_points_array.s": "s",
    "classify.self_s": "s",
    "cfsets.verify_exterior.s": "s", "cfsets.build.s": "s", "cfsets.self_s": "s",
    "census.plane_kernel.s": "s", "census.kernel_bytes": "B",
    "census.masks.s": "s", "census.masks.cells": "count",
    "census.renc_add.calls": "count", "census.self_s": "s",
    "census.enum_yield": "ratio", "census.steiner_checked": "count",
    "mrd.min_rank_distance.s": "s", "mrd.build_code.s": "s",
    "mrd.nonlinearity_witness.s": "s", "mrd.pairs": "count", "mrd.self_s": "s",
    "cli.self_s": "s", "cli.report_bytes": "B",
    "trace.wall_s": "s", "trace.unwrapped_s": "s", "trace.overhead_s": "s",
    "trace.spans": "count",
}


def job_env() -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)     # the job imports the checkout's src only
    return env


def run_job(workload: str, seed: int, deadline: float, trace: str | None = None,
            setup_only: bool = False) -> dict | None:
    """Run one job to completion; None if it crashed or timed out."""
    cmd = [sys.executable, os.path.join(HERE, "job.py"),
           "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd += ["--trace", trace]
    if setup_only:
        cmd.append("--setup-only")
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=job_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"job timed out after {timeout:.0f} s: {' '.join(cmd)}",
              file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"job exited {proc.returncode}: {' '.join(cmd)}\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def call_ok(call: dict) -> bool:
    """Exit 0 or 3 is a completed call (3: a statement failed, counted in
    failed_frac); 2, 4 or an exception is a failed call."""
    return call["exit"] in (0, 3) and call["error"] is None


def check_jobs(wl, jobs: list, seed: int, n_calls: int) -> tuple:
    """(attempted, failed, problems) over the jobs of one run."""
    attempted = n_calls * len(jobs)
    failed = 0
    problems = []
    digests = [set() for _ in range(n_calls)]
    for job in jobs:
        if job is None:
            failed += n_calls
            continue
        calls = job["calls"]
        bad = [c for c in calls if not call_ok(c)]
        failed += len(bad)
        problems += [f"{' '.join(c['argv'])}: exit {c['exit']} {c['error'] or ''}"
                     for c in bad]
        if not bad:
            problems += wl.check(calls)
        for k, c in enumerate(calls):
            digests[k].add(c["sha256"])
    for k, d in enumerate(digests):
        if len(d) > 1:
            problems.append(f"call {k}: {len(d)} different reports for the "
                            "same arguments")
    problems += check_earlier_runs(wl.argvs(seed), digests)
    return attempted, failed, sorted(set(problems))


def check_earlier_runs(argvs: list, digests: list) -> list:
    """Compare report digests with those of earlier runs of the same sources
    and arguments, kept in .perfbench/digests.json."""
    src = os.path.join(ROOT, "src", "sigmaconics")
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    path = os.path.join(OUT, "digests.json")
    try:
        with open(path) as fh:
            known = json.load(fh)
    except FileNotFoundError:
        known = {}
    problems = []
    for argv, d in zip(argvs, digests):
        key = f"{h.hexdigest()[:16]} {' '.join(argv)}"
        if len(d) == 1:
            (digest,) = d
            if known.setdefault(key, digest) != digest:
                problems.append(f"{' '.join(argv)}: report differs from an "
                                "earlier run of the same sources")
    with open(path, "w") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)
    return problems


def completed(jobs: list) -> list:
    """The jobs whose process and CLI calls all completed."""
    return [j for j in jobs if j is not None and all(map(call_ok, j["calls"]))]


def job_run_s(job: dict) -> float:
    return sum(c["run_s"] for c in job["calls"])


def end_to_end(wl, done: list, setups: list) -> tuple:
    run_s = [job_run_s(j) for j in done]
    flagged = sum(c["flagged"] for j in done for c in j["calls"])
    checked = sum(c["checked"] for j in done for c in j["calls"])
    failed_frac = flagged / checked
    metrics = {
        "setup_s": median(setups),
        "run_s": median(run_s),
        "items_per_s": median([wl.items(j["calls"]) / r
                               for j, r in zip(done, run_s)]),
        "peak_rss_mb": median([j["peak_rss_mb"] for j in done]),
        # share of checked matrices without a violation record; its
        # complement failed_frac is 0 on a clean workload
        "ok_frac": 1.0 - failed_frac,
    }
    detail = {"failed_frac": failed_frac, "flagged": flagged,
              "checked": checked, "run_s_all": run_s, "setup_s_all": setups}
    return metrics, detail


def per_layer(done: list, plain: list) -> tuple:
    rows = []
    for j in done:
        lay = dict(j["layers"])
        calls = j["calls"]
        verified = sum(s.get("total", 0) for c in calls for s in c["summaries"])
        enumerated = lay.pop("census.enumerated")
        lay["census.enum_yield"] = verified / enumerated if enumerated else 0.0
        lay["census.steiner_checked"] = sum(
            s.get("kinds", {}).get("steiner_checked", 0)
            for c in calls for s in c["summaries"])
        lay["cli.report_bytes"] = sum(c["bytes"] for c in calls)
        rows.append(lay)
    traced_run = median([job_run_s(j) for j in done])
    plain_run = median([job_run_s(j) for j in plain])
    metrics = {name: median([r[name] for r in rows])
               for name in PER_LAYER if name != "trace.overhead_s"}
    metrics["trace.overhead_s"] = traced_run - plain_run
    problems = []
    for r in rows:
        # nested spans inside the traced wall time: then the layer self times
        # and the unwrapped rest add up to it
        if r.pop("trace.nesting_errors") or r["trace.unwrapped_s"] < 0:
            problems.append("trace spans do not account for the wall time")
    return {k: metrics[k] for k in PER_LAYER}, problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "sigmaconics", "cli.py")):
        print(f"no sigmaconics sources under {ROOT}/src", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    n_calls = len(wl.argvs(args.seed))
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)

    jobs, traced = [], []
    while True:
        began = time.monotonic()
        jobs.append(run_job(wl.name, args.seed, deadline))
        if args.trace:
            spans = os.path.join(OUT, "spans", f"{wl.name}-{len(traced)}.tsv")
            traced.append(run_job(wl.name, args.seed, deadline, trace=spans))
        if jobs[-1] is None or (traced and traced[-1] is None):
            break
        # start another job only if one as long as the last still fits
        now = time.monotonic()
        if now - start + (now - began) > args.seconds:
            break
    setups = [j["setup_s"] for j in jobs if j is not None]
    while not args.trace and jobs[-1] is not None and len(setups) < SETUP_SAMPLES:
        probe = run_job(wl.name, args.seed, deadline, setup_only=True)
        if probe is None:
            break
        setups.append(probe["setup_s"])

    attempted, failed, problems = check_jobs(wl, jobs + traced, args.seed, n_calls)
    jobs, traced = completed(jobs), completed(traced)
    if not jobs or (args.trace and not traced):
        print("no job completed all its CLI calls; no result", file=sys.stderr)
        return 1
    e2e, detail = end_to_end(wl, jobs, setups)
    if args.trace:
        metrics, trace_problems = per_layer(traced, jobs)
        problems += trace_problems
        units = PER_LAYER
    else:
        metrics, units = e2e, END_TO_END
    correct = not problems and failed == 0
    env = jobs[0]["env"]

    print(f"workload {wl.name} ({wl.why})")
    print(f"seed {args.seed}, {len(jobs)} job(s){' + traced' if args.trace else ''}, "
          f"{attempted} CLI call(s), {failed} failed, correct={correct}")
    print(f"env: nproc={env['nproc']} cpu={env['cpu']!r} python={env['python']} "
          f"numpy={env['numpy']} threads={env['threads']}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    e2e_units = dict(END_TO_END, items_per_s=f"{wl.item_unit}/s")
    for name, value in e2e.items():
        print(f"  {name:<13} {value:.6g} {e2e_units[name]}")
    print(f"  {'failed_frac':<13} {detail['failed_frac']:.6g} "
          f"({detail['flagged']} of {detail['checked']} matrices carry a violation)")
    for name in ("run_s", "setup_s"):
        samples = sorted(detail[f"{name}_all"])
        print(f"  {name} samples (n={len(samples)}): "
              + " ".join(f"{x:.4g}" for x in samples))
    if args.trace:
        for name, value in metrics.items():
            print(f"  {name:<31} {value:.6g} {units[name]}")

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    record = dict(result, workload=wl.name, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, end_to_end=e2e, detail=detail, env=env,
                  problems=problems)
    with open(os.path.join(OUT, "results", f"{wl.name}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
