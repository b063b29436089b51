import numpy as np
import pytest

from sigmaconics.census import (CapExceeded, diagonal_census,
                                exhaustive_invertible_census, form_record,
                                line_census, plane_kernel,
                                random_census, rand_stream, rank1_census,
                                rank2_normal_census, rank2_random_census,
                                rank_le2_census, sample_matrix_entries,
                                splitmix64)
from sigmaconics.fields import build_field
from sigmaconics.forms import SesquiForm, absolute_mask, make_form
from sigmaconics.linalg import mat_rank, vranks
from sigmaconics.projective import projective_space

T4 = build_field(2, 1, 2, 1)
T8 = build_field(2, 1, 3, 1)
T9 = build_field(3, 1, 2, 1)
T27 = build_field(3, 1, 3, 1)


def test_splitmix_scalar_vector_agree():
    s = rand_stream(424242, 17, 64)
    assert [splitmix64(424242, 17 + i) for i in range(64)] == [int(x) for x in s]
    assert np.array_equal(rand_stream(1, 0, 8), rand_stream(1, 0, 8))
    assert not np.array_equal(rand_stream(1, 0, 8), rand_stream(2, 0, 8))


def test_kernel_matches_library_mask():
    for t, seed in ((T4, 3), (T9, 4)):
        sp = projective_space(t, 2)
        kern = plane_kernel(sp)
        entries = sample_matrix_entries(t.order, seed, 0, 120)
        entries = entries[entries.any(axis=1)]
        masks = kern.masks(*kern.row_encode(entries))
        for i in range(len(entries)):
            form = make_form(t, [int(x) for x in entries[i]])
            assert np.array_equal(absolute_mask(form, sp), masks[i])


def test_matrix_ranks_vectorised():
    entries = sample_matrix_entries(T9.order, 5, 0, 200)
    ranks = vranks(T9, entries.reshape(-1, 3, 3))
    for row, r in zip(entries, ranks):
        form_rows = tuple(tuple(int(x) for x in row[3 * i:3 * i + 3])
                          for i in range(3))
        assert mat_rank(T9, form_rows) == int(r)


def test_exhaustive_gl_census_pg2_4():
    s = exhaustive_invertible_census(T4)
    assert s.total == 60480                      # |GL(3,4)| / 3
    assert s.histogram == {1: 2520, 3: 20160, 5: 15120, 7: 20160, 9: 2520}
    assert not s.violations


def test_diagonal_census_pg2_4():
    s = diagonal_census(T4)
    assert s.histogram == {3: 6, 9: 3} and not s.violations


def test_diagonal_census_pg2_9():
    s = diagonal_census(T9)
    assert s.histogram == {4: 36, 16: 24, 28: 4} and not s.violations


def test_rank_le2_census_pg2_4():
    s = rank_le2_census(T4)
    assert s.total == 26901
    assert s.kind_counts["union_two_lines"] == 441
    assert s.kind_counts["cone_over_sigma_quadric"] == 1260
    assert s.kind_counts["degenerate_cf"] == 5040
    assert s.kind_counts["cf"] == 20160
    assert s.kind_counts["steiner_checked"] == 25200
    assert not s.violations


def test_partial_censuses_consistent_with_full():
    r1 = rank1_census(T4)
    assert r1.kind_counts["union_two_lines"] == 441
    assert r1.kind_counts["two_lines_coincident"] == 21
    assert not r1.violations
    rn = rank2_normal_census(T4)
    assert rn.kind_counts["cone_over_sigma_quadric"] == 60
    assert rn.kind_counts["cf"] + rn.kind_counts["degenerate_cf"] == 60
    assert not rn.violations
    rr = rank2_random_census(T4, 300, seed=99)
    assert rr.total == 300 and not rr.violations


def test_random_census_deterministic():
    a = random_census(T9, 500, seed=12)
    b = random_census(T9, 500, seed=12)
    assert a.histogram == b.histogram
    assert a.total == 500
    assert set(a.histogram) <= {1, 4, 7, 10, 13, 16, 28}
    assert not a.violations


def test_random_census_records():
    s = random_census(T4, 64, seed=3, collect_records=True, record_limit=10)
    assert len(s.records) == 10
    for rec in s.records:
        assert rec["rank"] == 3
        assert rec["kind"] == "kestenband_nondegenerate"
        assert set(rec["spectrum"]) <= {0, 1, 2, 3}
        assert not rec["violations"]


def test_random_census_any_rank():
    s = random_census(T4, 400, seed=8, invertible_only=False,
                      collect_records=True, record_limit=400, steiner=True)
    kinds = set(s.kind_counts)
    assert "kestenband_nondegenerate" in kinds
    assert not s.violations


def test_line_census_small_fields():
    for t in (T4, T9):
        s = line_census(t)
        assert s.total == (t.order ** 4 - 1) // (t.order - 1)
        assert set(s.histogram) <= {0, 1, 2, t.q + 1}
        assert not s.violations


def test_exhaustive_cap():
    with pytest.raises(CapExceeded):
        exhaustive_invertible_census(T27)
    with pytest.raises(CapExceeded):
        rank_le2_census(T27)


def test_form_record_contents():
    rec = form_record(SesquiForm(T8, ((1, 0, 0), (0, 1, 0), (0, 0, 1))))
    assert rec["absolute"] == 9 and rec["epsilon"] == 0
    assert rec["fixed_in"] == 3 and rec["fixed_out"] == 4
    assert rec["kind"] == "kestenband_nondegenerate"
    assert not rec["violations"]
    rec2 = form_record(SesquiForm(T8, ((0, 0, 1), (0, 1, 0), (0, 0, 0))),
                       steiner=True)
    assert rec2["kind"] == "cf" and rec2["absolute"] == 9
    assert not rec2["violations"]
