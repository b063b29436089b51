"""The four benchmark workloads: the CLI calls each one makes, the library
caches it builds before those calls (its set-up), how its work is counted,
and the checks its reports must pass.

Shared by run.py (which checks and aggregates) and job.py (which sets up and
runs); neither the set-up nor the checks may change between runs, so both
live here next to the argument lists they belong to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

FIELD_8 = ["--p", "2", "--n", "3", "--m", "1"]
FIELD_27 = ["--p", "3", "--n", "3", "--m", "1"]
RANDOM_COUNT = 200_000
RANDOM_RECORDS = 1000
RANDOM_MENU = {19, 28, 37}

GL8_HISTOGRAM = {5: 4120704, 9: 8241408, 13: 4120704}
RANK_LE2_HISTOGRAM = {1: 12264, 9: 2373157, 17: 299592, 25: 6132}
RANK_LE2_KINDS = {
    "cf": 2354688,
    "degenerate_cf": 294336,
    "cone_over_sigma_quadric": 36792,
    "cone_base_subline": 6132,
    "union_two_lines": 5329,
    "two_lines_coincident": 73,
    "steiner_checked": 2649024,
}


def _plane(lib, p):
    tower = lib.fields.build_field(p, 1, 3, 1)
    return tower, lib.projective.projective_space(tower, 2)


def _setup_kernel(lib, p, incidence):
    tower, space = _plane(lib, p)
    kern = lib.census.plane_kernel(space)
    if incidence:
        space.incidence()
        lib.classify.lines_points_array(space)
    return kern


def _setup_rank_le2(lib):
    kern = _setup_kernel(lib, 2, incidence=True)
    lib.projective.projective_space(kern.tower, 1)   # cone bases
    return kern


def _setup_mrd(lib):
    _plane(lib, 3)
    return None


def _summary(call, problems, label):
    """The report's single summary record, or {} after noting a problem."""
    if len(call["summaries"]) != 1:
        problems.append(f"{label}: {len(call['summaries'])} summary records")
        return {}
    return call["summaries"][0]


def _check_histogram(summary, expect, problems, label):
    got = {int(k): v for k, v in summary.get("histogram", {}).items()}
    if got != expect:
        problems.append(f"{label}: histogram {got} != {expect}")


def _check_gl8(calls):
    problems = []
    s = _summary(calls[0], problems, "gl-8")
    _check_histogram(s, GL8_HISTOGRAM, problems, "gl-8")
    if s.get("violations") != 0:
        problems.append(f"gl-8: {s.get('violations')} violations, expected 0")
    return problems


def _check_rank_le2(calls):
    problems = []
    s = _summary(calls[0], problems, "rank-le2-8")
    _check_histogram(s, RANK_LE2_HISTOGRAM, problems, "rank-le2-8")
    if s.get("kinds") != RANK_LE2_KINDS:
        problems.append(f"rank-le2-8: kinds {s.get('kinds')} != {RANK_LE2_KINDS}")
    if s.get("violations") != 0:
        problems.append(f"rank-le2-8: {s.get('violations')} violations, expected 0")
    return problems


def _check_random(calls):
    # only seed-independent facts: the odd-q false violations vary with the
    # seed and are reported through failed_frac, not filtered here
    problems = []
    s = _summary(calls[0], problems, "random-27")
    if s.get("total") != RANDOM_COUNT:
        problems.append(f"random-27: total {s.get('total')} != {RANDOM_COUNT}")
    keys = {int(k) for k in s.get("histogram", {})}
    if not keys or not keys <= RANDOM_MENU:
        problems.append(f"random-27: histogram keys {sorted(keys)} not in "
                        f"{sorted(RANDOM_MENU)}")
    if calls[0]["matrix_records"] != RANDOM_RECORDS:
        problems.append(f"random-27: {calls[0]['matrix_records']} matrix "
                        f"records != {RANDOM_RECORDS}")
    return problems


def _check_mrd(calls):
    problems = []
    for call, linear in zip(calls, (False, True)):
        argv = call["argv"]
        label = "mrd-3 T=" + ",".join(argv[argv.index("--T") + 1:])
        s = _summary(call, problems, label)
        if not (s.get("code_size") == s.get("singleton_bound") == 729):
            problems.append(f"{label}: code_size {s.get('code_size')}, "
                            f"singleton_bound {s.get('singleton_bound')}")
        if s.get("min_rank_distance") != 2:
            problems.append(f"{label}: min_rank_distance {s.get('min_rank_distance')}")
        if s.get("exterior_verified") is not True:
            problems.append(f"{label}: exterior set not verified")
        if s.get("linear") is not linear:
            problems.append(f"{label}: linear is {s.get('linear')}, expected {linear}")
    return problems


def _census_items(calls):
    return sum(s.get("total", 0) for c in calls for s in c["summaries"])


def _mrd_items(calls):
    return sum(s.get("code_size", 0) * (s.get("code_size", 0) - 1) // 2
               for c in calls for s in c["summaries"])


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argvs: Callable       # seed -> list of CLI argument lists, run in order
    setup: Callable       # library -> PlaneKernel or None; fills the caches
    items: Callable       # call results -> units of work done
    item_unit: str
    check: Callable       # call results -> list of problems


WORKLOADS = {w.name: w for w in (
    Workload(
        "gl-8",
        "all 16,482,816 scalar classes of GL(3,8): the row-table sweep loop "
        "of census with XOR additions",
        lambda seed: [["census", *FIELD_8, "--mode", "exhaustive", "--scope", "gl"]],
        lambda lib: _setup_kernel(lib, 2, incidence=False),
        _census_items, "classes", _check_gl8),
    Workload(
        "rank-le2-8",
        "exhaustive rank <= 2 sweep of PG(2,8) with Steiner: vmul gathers, "
        "index_rows and the batch verifiers",
        lambda seed: [["census", *FIELD_8, "--mode", "exhaustive",
                       "--scope", "rank-le2"]],
        _setup_rank_le2,
        _census_items, "verified classes", _check_rank_le2),
    Workload(
        "random-27",
        "seeded 2e5-sample census of PG(2,27) with 1000 full records: odd-p "
        "vadd gathers, the kernel build and the per-form path",
        lambda seed: [["census", *FIELD_27, "--mode", "random",
                       "--count", str(RANDOM_COUNT), "--seed", str(seed),
                       "--records", str(RANDOM_RECORDS)]],
        lambda lib: _setup_kernel(lib, 3, incidence=True),
        _census_items, "samples", _check_random),
    Workload(
        "mrd-3",
        "the two 729-word exterior-set codes for q = 3: the only workload "
        "that runs mrd and cfsets",
        lambda seed: [["mrd", *FIELD_27, "--T", "1"],
                      ["mrd", *FIELD_27, "--T", "1", "2"]],
        _setup_mrd,
        _mrd_items, "codeword pairs", _check_mrd),
)}
