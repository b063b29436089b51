"""Print the benchmark's measured medians beside the ROADMAP re-anchor table.

    python3 perfbench/reconcile.py

Reads the untraced results that run.py kept in .perfbench/results/ and
prints, per workload, the median over those runs of each run's median
run_s and setup_s, beside the figure the ROADMAP recorded for the nearest
workload.  The sizes are not always the same; the note column says how they
differ.  Then it lists the ROADMAP workloads the benchmark leaves out.
"""

from __future__ import annotations

import glob
import json
import os
import statistics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# workload -> (ROADMAP row, ROADMAP time in s, note on the comparison)
REANCHOR = {
    "gl-8": ("GL(3,8) exhaustive", 4.6, "same size"),
    "rank-le2-8": ("rank <= 2, PG(2,8)", 17.4, "same size, Steiner on"),
    "random-27": ("random census, PG(2,27), 10^5 samples", 2.5,
                  "ROADMAP time includes about 1 s of table build and no "
                  "records; here 2*10^5 samples plus 1000 full records, "
                  "set-up timed apart"),
    "mrd-3": ("MRD distance, q = 3", 0.32,
              "ROADMAP time is one code; run_s here covers two (T={1}, "
              "T={1,2}), so compare half of it"),
}
EXCLUDED = {
    "GL(3,9) exhaustive (37.7 s)":
        "about 42 s a call, longer than a whole run (run_seconds)",
    "MRD distance, q = 5 (79 s)": "79 s a call, longer than a whole run",
    "MRD distance, q = 4 (e = 2)":
        "does not finish: the pure-Python e > 1 rank path",
}


def main() -> int:
    runs = {}
    for path in sorted(glob.glob(os.path.join(ROOT, ".perfbench", "results",
                                              "*-trace0.json"))):
        with open(path) as fh:
            rec = json.load(fh)
        runs.setdefault(rec["workload"], []).append(rec)
    print(f"{'workload':<11} {'runs':>4} {'run_s':>9} {'setup_s':>9}  "
          f"{'ROADMAP':>7}  ROADMAP workload; note")
    for name, (row, seconds, note) in REANCHOR.items():
        recs = runs.get(name, [])
        if recs:
            run_s = statistics.median(r["end_to_end"]["run_s"] for r in recs)
            setup_s = statistics.median(r["end_to_end"]["setup_s"] for r in recs)
            measured = f"{run_s:>9.3f} {setup_s:>9.4f}"
        else:
            measured = f"{'-':>9} {'-':>9}"
        print(f"{name:<11} {len(recs):>4} {measured}  {seconds:>7.2f}  {row}; {note}")
    print("\nleft out of the benchmark:")
    for row, why in EXCLUDED.items():
        print(f"  {row}: {why}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
