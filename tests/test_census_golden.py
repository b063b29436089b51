"""Pinned summary records of every census entry point.

The expected values were recorded before the census sweeps were rebuilt
around shared sources and batch verifiers; any change to a histogram, a
kind count, a total or a violation count is a regression.  The one
exception is deliberate: since every plane census runs through one driver,
the non-record rank-1 and rank-2 samples of the any-rank censuses take the
per-kind checks, which added their kind counters.
"""

import hashlib

import numpy as np
import pytest

from sigmaconics import census
from sigmaconics.cli import _summary_record, main
from sigmaconics.fields import build_field
from sigmaconics.linalg import vranks
from sigmaconics.projective import projective_space

FIELDS = {"T4": build_field(2, 1, 2, 1), "T9": build_field(3, 1, 2, 1)}

ENTRY_POINTS = {
    "exhaustive_invertible_census": census.exhaustive_invertible_census,
    "diagonal_census": census.diagonal_census,
    "rank_le2_census": census.rank_le2_census,
    "rank1_census": census.rank1_census,
    "rank2_normal_census": census.rank2_normal_census,
    "rank2_random_census": lambda t: census.rank2_random_census(t, 300, seed=99),
    "random_census": lambda t: census.random_census(t, 500, seed=12),
    "random_census_any_rank": lambda t: census.random_census(
        t, 400, seed=8, invertible_only=False),
    "random_census_records": lambda t: census.random_census(
        t, 200, seed=3, invertible_only=False, records=40),
    "random_census_records_invertible": lambda t: census.random_census(
        t, 64, seed=3, records=10),
    "line_census": census.line_census,
}

CF_KINDS = ("cf", "cone_base_subline", "cone_over_sigma_quadric",
            "degenerate_cf", "steiner_checked")

# (field, entry point) -> (mode, histogram, kinds, total, violations)
GOLDEN = {
    ("T4", "exhaustive_invertible_census"): (
        "exhaustive-gl", {1: 2520, 3: 20160, 5: 15120, 7: 20160, 9: 2520},
        {}, 60480, 0),
    ("T4", "diagonal_census"): ("diagonal", {3: 6, 9: 3}, {}, 9, 0),
    ("T4", "rank_le2_census"): (
        "exhaustive-rank-le2", {1: 420, 5: 20811, 9: 5460, 13: 210},
        dict(zip(CF_KINDS, (20160, 210, 1260, 5040, 25200)),
             two_lines_coincident=21, union_two_lines=441), 26901, 0),
    ("T4", "rank1_census"): (
        "rank1", {5: 21, 9: 420},
        {"two_lines_coincident": 21, "union_two_lines": 441}, 441, 0),
    ("T4", "rank2_normal_census"): (
        "rank2-normal", {1: 20, 5: 78, 9: 12, 13: 10},
        dict(zip(CF_KINDS, (48, 10, 60, 12, 60))), 120, 0),
    ("T4", "rank2_random_census"): (
        "rank2-random(seed=99, count=300)", {1: 5, 5: 239, 9: 53, 13: 3},
        dict(zip(CF_KINDS, (234, 3, 13, 53, 287))), 300, 0),
    ("T4", "random_census"): (
        "random(seed=12, count=500)", {1: 21, 3: 157, 5: 113, 7: 192, 9: 17},
        {}, 500, 0),
    ("T4", "random_census_any_rank"): (
        "random(seed=8, count=400)",
        {1: 15, 3: 98, 5: 158, 7: 92, 9: 36, 13: 1},
        dict(zip(CF_KINDS, (91, 1, 3, 19, 110)),
             two_lines_coincident=1, union_two_lines=3), 400, 0),
    ("T4", "random_census_records"): (
        "random(seed=3, count=200)", {1: 7, 3: 48, 5: 83, 7: 45, 9: 17},
        dict(zip(CF_KINDS, (49, 0, 6, 10, 46)), kestenband_nondegenerate=26,
             two_lines_coincident=0, union_two_lines=1), 200, 0),
    ("T4", "random_census_records_invertible"): (
        "random(seed=3, count=64)", {1: 3, 3: 23, 5: 18, 7: 19, 9: 1},
        {"kestenband_nondegenerate": 10}, 64, 0),
    ("T4", "line_census"): (
        "line-2x2", {0: 20, 1: 35, 2: 20, 3: 10},
        {"subline_verified": 10}, 85, 0),
    ("T9", "exhaustive_invertible_census"): (
        "exhaustive-gl",
        {1: 393120, 4: 1326780, 7: 12130560, 10: 15331680, 13: 10614240,
         16: 2653560, 28: 7020}, {}, 42456960, 0),
    ("T9", "diagonal_census"): ("diagonal", {4: 36, 16: 24, 28: 4}, {}, 64, 0),
    ("T9", "rank_le2_census"): (
        "exhaustive-rank-le2", {1: 24570, 10: 5329051, 19: 614250, 37: 2730},
        dict(zip(CF_KINDS, (5307120, 2730, 65520, 589680, 5896800)),
             two_lines_coincident=91, union_two_lines=8281), 5970601, 0),
    ("T9", "rank1_census"): (
        "rank1", {10: 91, 19: 8190},
        {"two_lines_coincident": 91, "union_two_lines": 8281}, 8281, 0),
    ("T9", "rank2_normal_census"): (
        "rank2-normal", {1: 270, 10: 888, 19: 252, 37: 30},
        dict(zip(CF_KINDS, (648, 30, 720, 72, 720))), 1440, 0),
    ("T9", "rank2_random_census"): (
        "rank2-random(seed=99, count=300)", {1: 1, 10: 271, 19: 28},
        dict(zip(CF_KINDS, (267, 0, 5, 28, 295))), 300, 0),
    ("T9", "random_census"): (
        "random(seed=12, count=500)",
        {1: 3, 4: 11, 7: 130, 10: 194, 13: 128, 16: 34}, {}, 500, 0),
    ("T9", "random_census_any_rank"): (
        "random(seed=8, count=400)",
        {1: 3, 4: 12, 7: 87, 10: 166, 13: 93, 16: 30, 19: 9},
        dict(zip(CF_KINDS, (36, 0, 2, 7, 43))), 400, 0),
    ("T9", "random_census_records"): (
        "random(seed=3, count=200)",
        {1: 1, 4: 3, 7: 48, 10: 79, 13: 53, 16: 13, 19: 3},
        {"cf": 19, "degenerate_cf": 3, "kestenband_nondegenerate": 34,
         "steiner_checked": 16}, 200, 0),
    ("T9", "random_census_records_invertible"): (
        "random(seed=3, count=64)", {1: 1, 4: 2, 7: 18, 10: 23, 13: 15, 16: 5},
        {"kestenband_nondegenerate": 10}, 64, 0),
    ("T9", "line_census"): (
        "line-2x2", {0: 270, 1: 250, 2: 270, 4: 30},
        {"subline_verified": 30}, 820, 0),
}


def _golden_record(field_name, entry) -> dict:
    mode, histogram, kinds, total, violations = GOLDEN[field_name, entry]
    return {"record": "summary", "mode": mode,
            "histogram": {str(k): v for k, v in histogram.items()},
            "kinds": kinds, "total": total, "violations": violations}


@pytest.mark.parametrize("field_name,entry", sorted(GOLDEN),
                         ids=[f"{f}-{e}" for f, e in sorted(GOLDEN)])
def test_summary_record_pinned(field_name, entry):
    summary = ENTRY_POINTS[entry](FIELDS[field_name])
    assert _summary_record(summary) == _golden_record(field_name, entry)


def test_diagonal_census_in_kernel_batches(monkeypatch):
    """The diagonal census counts (Q-1)^2 matrices in batches of at most
    `_kernel_rows`, like the sampled censuses, and keeps its record."""
    t = FIELDS["T9"]
    space = projective_space(t, 2)
    monkeypatch.setattr(census, "_KERNEL_CELLS", 10 * space.n_points)
    batches = []
    masks = census.PlaneKernel.masks

    def recording_masks(self, *idx):
        out = masks(self, *idx)
        batches.append(len(out))
        return out
    monkeypatch.setattr(census.PlaneKernel, "masks", recording_masks)
    summary = census.diagonal_census(t)
    assert census._kernel_rows(space) == 10
    assert max(batches) <= 10 and sum(batches) == (t.order - 1) ** 2
    assert _summary_record(summary) == _golden_record("T9", "diagonal_census")


@pytest.mark.parametrize("rank", [2, 3])
def test_sampler_independent_of_batch_size(monkeypatch, rank):
    t = FIELDS["T4"]

    def keep(ranks):
        return ranks == rank

    kept = {}
    for batch in (1 << 15, 37):
        monkeypatch.setattr(census, "_SAMPLE_BATCH", batch)
        kept[batch] = census._sample_entries(t, 300, 99, keep)
    for a, b in zip(kept[1 << 15], kept[37]):
        assert np.array_equal(a, b)
    # sample i is read from counters 9i..9i+8 of the one stream
    stream = census.sample_matrix_entries(t.order, 99, 0, 4000)
    ranks = vranks(t, stream.reshape(-1, 3, 3))
    e, r = kept[37]
    assert np.array_equal(e, stream[keep(ranks)][:300])
    assert (r == rank).all() and len(r) == 300


def test_any_rank_records_bytes_pinned(tmp_path):
    # 500 full records of PG(2,27), among them 11 C_F^m-sets and one
    # degenerate one, each with its Steiner cross-check
    out = tmp_path / "records.jsonl"
    assert main(["census", "--p", "3", "--n", "3", "--mode", "random",
                 "--count", "500", "--seed", "11", "--records", "500",
                 "--any-rank", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "fb0ed58cdb0a7caa22ba5e59d487f59d7edc5d5d1e4d3fb4801cc7e3db17d635")


@pytest.mark.parametrize("argv, digest", [
    # odd degree: 1000 invertible records of PG(2,27)
    (["--p", "3", "--n", "3", "--count", "20000", "--seed", "7", "--records", "1000"],
     "4ec6c133777af75891bc439d89f7f7b3d574e53c0b45540a31cf49297df00575"),
    # even degree: 500 invertible records of PG(2,9), the menu branch
    (["--p", "3", "--n", "2", "--count", "2000", "--seed", "3", "--records", "500"],
     "ea500facce8ac436ad6a38e775764ea785dd64d0ea9ea5fada907bdbc3ece4de"),
], ids=["PG(2,27)", "PG(2,9)"])
def test_invertible_records_bytes_pinned(tmp_path, argv, digest):
    out = tmp_path / "records.jsonl"
    assert main(["census", "--mode", "random", *argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
