import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmaconics import census, classify
from sigmaconics.census import (CapExceeded, diagonal_census,
                                exhaustive_invertible_census, form_record,
                                form_records, line_census, plane_kernel,
                                random_census, rand_stream, rank1_census,
                                rank2_normal_census, rank2_random_census,
                                rank_le2_census, sample_matrix_entries,
                                splitmix64)
from sigmaconics.cli import _summary_record, main
from sigmaconics.fields import build_field
from sigmaconics.cfsets import cf_verdicts
from sigmaconics.forms import (SesquiForm, absolute_mask, absolute_masks,
                               make_form, radical_lines, radical_points)
from sigmaconics.linalg import mat_rank, vranks
from sigmaconics.projective import ProjectiveSpace, projective_space

T4 = build_field(2, 1, 2, 1)
T8 = build_field(2, 1, 3, 1)
T9 = build_field(3, 1, 2, 1)
T27 = build_field(3, 1, 3, 1)


@pytest.mark.parametrize("run", [random_census, rank2_random_census],
                         ids=["random", "rank2-random"])
def test_sampled_census_refuses_seeds_past_64_bits(run):
    """The stream masks its seed to 64 bits, so -1 and 2^64 would alias
    2^64 - 1 and 0 under another mode; the library refuses them."""
    for seed in (-1, 2 ** 64):
        with pytest.raises(ValueError, match=r"outside 0\.\.2\^64-1"):
            run(T4, 5, seed)
    assert run(T4, 5, 2 ** 64 - 1).total == 5


def test_splitmix_scalar_vector_agree():
    s = rand_stream(424242, 17, 64)
    assert [splitmix64(424242, 17 + i) for i in range(64)] == [int(x) for x in s]
    assert np.array_equal(rand_stream(1, 0, 8), rand_stream(1, 0, 8))
    assert not np.array_equal(rand_stream(1, 0, 8), rand_stream(2, 0, 8))


@pytest.mark.parametrize("order", [2, 27, 151, 243, 256])
def test_sample_entries_are_the_stream_mod_order(order):
    """Sample i holds counters start + 9i .. start + 9i + 8 of the stream,
    each reduced mod the field order, at a seed near 2^64 - 1."""
    seed, start = 2 ** 64 - 3, 18
    e = sample_matrix_entries(order, seed, start, 40)
    assert e.dtype == np.uint32 and e.shape == (40, 9)
    assert e.ravel().tolist() == [splitmix64(seed, start + c) % order
                                  for c in range(9 * 40)]


def test_kernel_matches_library_mask():
    for t, seed in ((T4, 3), (T9, 4)):
        sp = projective_space(t, 2)
        kern = plane_kernel(sp)
        entries = sample_matrix_entries(t.order, seed, 0, 120)
        entries = entries[entries.any(axis=1)]
        masks = kern.masks(*kern.row_encode(entries))
        for i in range(len(entries)):
            form = make_form(t, [int(x) for x in entries[i]])
            assert np.array_equal(absolute_mask(form), masks[i])


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


def _gl_menu_violations(t, menu):
    """The invertible scalar classes whose count is outside `menu`, walked
    one (r1, r2, r3) class at a time: first rows in point order, then every
    second row off the span of r1, then every third row off the span of
    (r1, r2), each ascending."""
    sp = projective_space(t, 2)
    kern = plane_kernel(sp)
    Q = t.order
    out = []
    for r1 in sp.points.astype(np.int64) @ np.array([Q * Q, Q, 1]):
        line = set(kern.smul[:, r1].tolist())
        for r2 in range(Q ** 3):
            if r2 in line:
                continue
            span = set(kern.renc_add(kern.smul[:, r1][:, None],
                                     kern.smul[:, r2][None, :]).ravel().tolist())
            r3s = np.array([r for r in range(Q ** 3) if r not in span])
            # the row encodings decoded into (K, 9) entries, the kernel's
            # indices
            renc = np.stack(np.broadcast_arrays(r1, r2, r3s), axis=1)
            e = (renc[:, :, None] // np.array([Q * Q, Q, 1]) % Q).reshape(-1, 9)
            for row, c in zip(e.tolist(), kern.counts(*kern.row_encode(e))):
                if c not in menu:
                    out.append(row)
    return out


def _frobenius(t, a, j):
    """x -> x^(p^j) entrywise, by repeated multiplication."""
    for _ in range(j):
        x = a
        for _ in range(t.p - 1):
            x = t.vmul(x, a)
        a = x
    return a


# -- the symmetries behind the orbit reduction of the exhaustive 3x3 sweeps --

SYMMETRY_TOWERS = {"T4": T4, "T8": T8, "T8-m2": build_field(2, 1, 3, 2),
                   "T9": T9, "T27": T27}


@st.composite
def _forms(draw, t):
    """A nonzero 3x3 matrix of rank at most 3, 2 or 1, the sum of that many
    outer products u v^T of vectors with frequent zero entries."""
    entry = st.one_of(st.just(0), st.integers(1, t.order - 1))
    vector = st.lists(entry, min_size=3, max_size=3)
    a = np.zeros((3, 3), dtype=np.uint32)
    for _ in range(draw(st.sampled_from((3, 2, 1)))):
        u, v = (np.array(draw(vector), dtype=np.uint32) for _ in range(2))
        a = t.vadd(a, t.vmul(u[:, None], v[None, :])).astype(np.uint32)
    if not a.any():
        a[draw(st.integers(0, 2)), draw(st.integers(0, 2))] = 1
    return a


def _invariants(t, space, a):
    cls = classify.classify_plane_form(make_form(t, a.ravel().tolist()))
    return cls.rank, cls.absolute_count, cls.kind


@pytest.mark.parametrize("name", sorted(SYMMETRY_TOWERS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_orbit_maps_keep_rank_count_and_kind(name, data):
    """Permutation congruence P^T A P, the entrywise Frobenius x -> x^(p^j),
    a nonzero scalar and a torus congruence a_ij -> d_i a_ij d_j^sigma each
    keep the rank, the number of absolute points and the kind of a form, so
    the exhaustive sweeps may verify one form per orbit of the group they
    generate."""
    t = SYMMETRY_TOWERS[name]
    space = projective_space(t, 2)
    a = data.draw(_forms(t))
    unit = st.integers(1, t.order - 1)
    lam = data.draw(unit)
    d = np.array([data.draw(unit) for _ in range(3)], dtype=np.uint32)
    j = data.draw(st.integers(1, max(1, t.e * t.n - 1)))
    images = [a[pi][:, pi] for pi in map(list, itertools.permutations(range(3)))]
    images.append(_frobenius(t, a, j))
    images.append(t.vmul(np.uint32(lam), a))
    images.append(t.vmul(t.vmul(d[:, None], a), t.vsigma(d)[None, :]))
    expect = _invariants(t, space, a)
    for image in images:
        assert _invariants(t, space, np.asarray(image, dtype=np.uint32)) == expect


def _orbit_class_codes(t, matrices):
    """For each matrix, the scalar classes in its orbit under S3 x Gal x
    torus, computed by field arithmetic: P^T A P for the six permutation
    matrices P, then x -> x^(p^j) entrywise, then lam d_i a_ij d_j^sigma
    over every (lam, d) in (F*)^4.  An (M, 6en(Q-1)^4) array of the base-Q
    codes of the orbit members with leading entry 1, and -1 for the other
    members."""
    units = np.arange(1, t.order, dtype=np.uint32)
    g = np.stack(np.meshgrid(*[units] * 4, indexing="ij"), axis=-1).reshape(-1, 4)
    lam, d = g[:, 0], g[:, 1:]
    a = np.array(matrices, dtype=np.uint32).reshape(-1, 3, 3)
    a = np.stack([_frobenius(t, a[:, pi][:, :, pi], j)
                  for pi in map(list, itertools.permutations(range(3)))
                  for j in range(t.e * t.n)], axis=1)[:, :, None]
    orbit = t.vmul(lam[None, None, :, None, None],
                   t.vmul(t.vmul(d[None, None, :, :, None], a),
                          t.vsigma(d)[None, None, :, None, :])
                   ).reshape(len(a), -1, 9)
    lead = np.take_along_axis(orbit, (orbit != 0).argmax(axis=2)[..., None], axis=2)
    codes = orbit.astype(np.int64) @ (t.order ** np.arange(8, -1, -1, dtype=np.int64))
    return np.where(lead[..., 0] == 1, codes, -1)


@pytest.mark.parametrize("tower, menu", [(T4, [5, 7, 9]),
                                         (build_field(3, 1, 1, 1), [1, 7])],
                         ids=["T4", "T3"])
def test_exhaustive_gl_violation_order(tower, menu, monkeypatch):
    """The sweep reports one representative per violating orbit of S3 x
    Gal x torus: the orbits of the reported matrices are disjoint and their
    scalar classes are exactly the violating classes of the per-class
    walk."""
    monkeypatch.setattr(census, "_admissible",
                        lambda t, diagonal: np.array(menu, dtype=np.int64))
    s = exhaustive_invertible_census(tower)
    expect = _gl_menu_violations(tower, menu)
    assert 0 < len(expect) < s.total
    assert {v["reason"] for v in s.violations} == {census._MENU_REASON}
    codes = _orbit_class_codes(tower, [v["matrix"] for v in s.violations])
    per_orbit = [np.unique(row[row >= 0]) for row in codes]
    union = np.unique(np.concatenate(per_orbit))
    assert len(union) == sum(len(c) for c in per_orbit)      # disjoint
    Q = tower.order
    assert np.array_equal(union, np.unique(np.array(expect, dtype=np.int64)
                                           @ (Q ** np.arange(8, -1, -1))))


def test_violation_store_keeps_the_first_and_counts_all(monkeypatch):
    monkeypatch.setattr(census, "_admissible",
                        lambda t, diagonal: np.array([5, 7, 9], dtype=np.int64))
    full = exhaustive_invertible_census(T4)
    kept = exhaustive_invertible_census(T4, max_violations=3)
    assert len(full.violations) == full.violation_count > 3
    assert kept.violations == full.violations[:3]
    assert kept.violation_count == full.violation_count
    assert kept.histogram == full.histogram
    assert _summary_record(kept) == _summary_record(full)
    none = exhaustive_invertible_census(T4, max_violations=0)
    assert not none.violations and none.violation_count == full.violation_count


# the rank filter of each exhaustive 3x3 sweep, and of both together
_SWEEP_KEEP = {"gl": lambda r: r == 3, "rank-le2": lambda r: r < 3}
_ANY_RANK = lambda r: r > 0  # noqa: E731


@pytest.mark.parametrize("params, indices",
                         [((2, 1, 4, 1), {"gl": 13_369_215, "rank-le2": 13_354_738}),
                          ((5, 1, 2, 1), None),
                          ((3, 1, 3, 1), None)],
                         ids=["Q16", "Q25", "Q27"])
def test_orbit_batches_cap(params, indices):
    """Each exhaustive 3x3 sweep checks one budget on the torus indices of
    the supports it visits when its source is made, before a batch is
    produced."""
    t = build_field(*params)
    for sweep, keep in _SWEEP_KEEP.items():
        if indices:
            census._orbit_batches(t, "probe", 1, keep)
            assert sum(s.count for s in census._orbit_supports(t, keep)) == indices[sweep]
        else:
            with pytest.raises(CapExceeded, match="probe beyond the matrix budget"):
                census._orbit_batches(t, "probe", 1, keep)


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
    s = random_census(T4, 64, seed=3, records=10)
    assert len(s.records) == 10
    for rec in s.records:
        assert rec["rank"] == 3
        assert rec["kind"] == "kestenband_nondegenerate"
        assert set(rec["spectrum"]) <= {0, 1, 2, 3}
        assert not rec["violations"]


@pytest.mark.parametrize("records", [0, 100, 500])
def test_record_rows_counted_once(monkeypatch, records):
    """With 10 dropped from the menu, the 194 samples of T9 with 10 absolute
    points are violations; a record row takes its Kestenband profile
    instead of the menu check, so each counts once however many rows carry
    records."""
    real = census.allowed_cardinalities

    def without_10(tower, diagonal):
        menu, family = real(tower, diagonal)
        return menu - {10}, family
    monkeypatch.setattr(census, "allowed_cardinalities", without_10)
    monkeypatch.setattr(classify, "allowed_cardinalities", without_10)
    s = random_census(T9, 500, seed=12, records=records)
    assert len(s.records) == records
    assert s.violation_count == 194
    assert s.total == 500 and s.histogram == random_census(T9, 500, seed=12).histogram
    assert s.histogram[10] == 194


def _masked_rows(monkeypatch) -> list:
    """Record the number of rows of each `PlaneKernel.masks` call."""
    rows, masks = [], census.PlaneKernel.masks

    def recording(self, *idx):
        out = masks(self, *idx)
        rows.append(len(out))
        return out
    monkeypatch.setattr(census.PlaneKernel, "masks", recording)
    return rows


def test_planted_count_table_fault_is_flagged(monkeypatch, capsys):
    """One wrong entry of the line kernel's count table, on the line l_inf
    of the first record row, is caught by the record's cross-check with
    the point kernel: the row is flagged and the CLI exits 3."""
    e0 = census._join(list(census._samples(T9, 1, 4, lambda r: r == 3)))[0][0]
    a = T9.vmul(e0, T9.vinv(e0[8])) if e0[8] else e0
    Q = T9.order
    # l_inf restricts to b = (a11, a12, a21, a22)
    hit = ((int(a[8]) * Q + int(a[5])) * Q + int(a[7])) * Q + int(a[4])
    table = census.LineKernel._count_table

    def planted(self, dtype):
        out = table(self, dtype)
        out[hit] += 1
        return out
    monkeypatch.setattr(census.LineKernel, "_count_table", planted)
    monkeypatch.setattr(projective_space(T9, 2), "_line_kernel", None)
    s = random_census(T9, 50, seed=4, records=5)
    assert s.records[0]["matrix"] == e0.tolist()
    assert census._LINE_REASON in s.records[0]["violations"]
    assert {"matrix": e0.tolist(), "reason": census._LINE_REASON} in s.violations
    assert main(["census", "--p", "3", "--n", "2", "--mode", "random",
                 "--count", "50", "--seed", "4", "--records", "5"]) == 3
    assert census._LINE_REASON in capsys.readouterr().out


def test_gl_sweep_masks_no_row(monkeypatch):
    rows = _masked_rows(monkeypatch)
    s = exhaustive_invertible_census(T8)
    assert s.total == 16_482_816 and sum(rows) == 0


def test_random_census_masks_its_record_rows_only(monkeypatch, capsys):
    rows = _masked_rows(monkeypatch)
    assert main(["census", "--p", "3", "--n", "3", "--mode", "random",
                 "--count", "3000", "--seed", "2", "--records", "10"]) == 0
    assert capsys.readouterr().out.count('"record":"matrix"') == 10
    assert sum(rows) == 10


def test_rank_le2_sweep_masks_every_row(monkeypatch):
    """Every row of the rank <= 2 sweep is masked, once, and the line
    tables are never built."""
    rows = _masked_rows(monkeypatch)

    def no_line_tables(*args):
        raise AssertionError("the line tables were built")
    monkeypatch.setattr(census, "LineKernel", no_line_tables)
    monkeypatch.setattr(projective_space(T8, 2), "_line_kernel", None)
    rank_le2_census(T8)
    reps = census._orbit_batches(T8, "sweep", census._ENUM_CHUNK, _SWEEP_KEEP["rank-le2"])
    assert sum(rows) == sum(len(e) for e, _, _ in reps) > 0


def test_random_census_any_rank():
    """Rank-3 records name their kind; the summary counts no kind for them."""
    s = random_census(T4, 400, seed=8, invertible_only=False, records=400)
    assert "kestenband_nondegenerate" in {r["kind"] for r in s.records}
    assert "kestenband_nondegenerate" not in s.kind_counts
    assert not s.violations


@pytest.mark.parametrize("invertible_only", [True, False], ids=["gl", "any-rank"])
@pytest.mark.parametrize("tower", [T4, T8, T9, T27], ids=["F4", "F8", "F9", "F27"])
def test_summary_independent_of_records(tower, invertible_only):
    """Record rows are booked like every other row: no record, records
    ending inside the one batch and a record on every row give one
    summary."""
    count = 200
    summaries = [random_census(tower, count, seed=6, invertible_only=invertible_only,
                               records=records) for records in (0, 40, count)]
    assert len(summaries[2].records) == count
    for s in summaries:
        assert s.kind_counts == summaries[0].kind_counts
        assert s.histogram == summaries[0].histogram
        assert (s.total, s.violation_count) == (count, 0)
    if not invertible_only:
        assert summaries[0].kind_counts["steiner_checked"] > 0


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


def test_kernel_budget_checked_before_any_table(monkeypatch):
    """PG(2,169) needs more than the kernel budget; the kernel refuses it
    before it computes any table."""
    t = build_field(13, 1, 2, 1)
    space = projective_space(t, 2)

    def no_tables(*args):
        raise AssertionError("a kernel table was computed")
    monkeypatch.setattr(t, "vmul", no_tables)
    monkeypatch.setattr(t, "vsigma", no_tables)
    with pytest.raises(CapExceeded, match="beyond the 64 MiB kernel budget"):
        plane_kernel(space)
    assert space._kernel is None


@pytest.mark.parametrize("params", [(3, 1, 2, 1), (3, 1, 3, 1), (2, 1, 4, 1)],
                         ids=["n2", "n3", "n4"])
def test_records_census_holds_one_point_table_set(params, monkeypatch):
    """The profiles of rank-3 records take their fixed points line by line
    (`forms.fixed_masks`), from no point tables: a records census builds
    one point-table set, the count kernel's, at every degree."""
    tower = build_field(*params)
    space = projective_space(tower, 2)
    monkeypatch.setattr(space, "_kernel", None)
    built = []

    class Counted(census.PlaneKernel):
        def __init__(self, space):
            built.append(space)
            super().__init__(space)
    monkeypatch.setattr(census, "PlaneKernel", Counted)
    s = random_census(tower, 200, seed=6, invertible_only=False, records=20)
    assert any(r["fixed_in"] is not None for r in s.records)
    assert built == [space] and plane_kernel(space) is space._kernel


def test_kernel_budget_boundary():
    """The nine entry tables of PG(2,151) fit the budget (59.5 MiB); those
    of PG(2,157) (66.9 MiB) do not, and the plan, which `plane_kernel`
    checks before it computes any table, refuses them."""
    n_points = 151 * 151 + 151 + 1
    base, dtype = census._kernel_plan(build_field(151, 1, 1, 1), n_points)
    need = 9 * 151 * n_points * dtype.itemsize + base
    assert base == 9 * 150 + 1 and need <= census.KERNEL_BUDGET
    assert round(need / 2 ** 20, 1) == 59.5
    with pytest.raises(CapExceeded, match=r"PG\(2,157\) need 67 MiB"):
        census._kernel_plan(build_field(157, 1, 1, 1), 157 * 157 + 157 + 1)


def _pulled_pieces(monkeypatch) -> tuple:
    """(calls, pulled): the chunk of each `_rebatch` call and the rows of
    each piece a source has handed it so far."""
    calls, pulled, rebatch = [], [], census._rebatch

    def watched(pieces, chunk):
        def seen():
            for piece in pieces:
                pulled.append(len(piece[0]))
                yield piece
        calls.append(chunk)
        return rebatch(seen(), chunk)
    monkeypatch.setattr(census, "_rebatch", watched)
    return calls, pulled


@pytest.mark.parametrize("run", [
    lambda t: random_census(t, 10 ** 6, seed=1),
    lambda t: rank2_random_census(t, 10 ** 6, seed=1),
    diagonal_census,
], ids=["random", "rank2-random", "diagonal"])
def test_no_row_before_the_kernel_budget(monkeypatch, run):
    """The point-kernel tables of PG(2,157) need 66.9 MiB, past the budget.
    Each streamed census refuses the plane before its source draws a
    sample or builds a diagonal piece."""
    def no_samples(*args):
        raise AssertionError("a sample was drawn")
    monkeypatch.setattr(census, "sample_matrix_entries", no_samples)
    calls, pulled = _pulled_pieces(monkeypatch)
    with pytest.raises(CapExceeded, match=r"PG\(2,157\) need 67 MiB"):
        run(build_field(157, 1, 1, 1))
    assert len(calls) == 1 and pulled == []


def test_sampled_census_memory_does_not_grow_with_count():
    """The sampler holds one draw at a time: a 400,000-sample census of
    PG(2,8) peaks (tracemalloc) within 1 MiB of a 100,000-sample one."""
    random_census(T8, 10, seed=1)    # the plane and its kernels, cached
    peaks = []
    for count in (100_000, 400_000):
        tracemalloc.start()
        try:
            assert random_census(T8, count, seed=1).total == count
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 2 ** 20, peaks


def _batch_records(space, e, mask) -> list:
    """`form_records` of K rows with their ranks and per-kind checks, as
    the sweep driver passes them."""
    ranks = vranks(space.tower, e.reshape(-1, 3, 3))
    checks = list(census._degenerate_verdicts(space, e, mask, ranks))
    return form_records(space, e, mask, ranks, checks)


def _plant_count(monkeypatch, space, value: int):
    """Make the line kernel's count table read `value` in the cell of
    b = (b11, b01, b10, b00) = (0, 0, 0, 1).  Of the lines of the identity
    at PG(2,8) only x = y reads it: through P = (1, 1, 0) the identity reads
    as A_P with a22 = 1 + 1 = 0, whose line through R and (1, 0, 0) is
    x = y and restricts to b."""
    kern = census.line_kernel(space)
    cell = 1
    assert kern.count[cell] != value
    planted = kern.count.copy()
    planted[cell] = value
    monkeypatch.setattr(kern, "count", planted)


def test_invertible_form_with_a_line_is_flagged(monkeypatch):
    """At n >= 2 a line of absolute points is impossible for an invertible
    form; a line-count table cell planted to read Q+1 on one line of an
    invertible n = 3 row is flagged."""
    space = projective_space(T8, 2)
    form = make_form(T8, [1, 0, 0, 0, 1, 0, 0, 0, 1])
    _plant_count(monkeypatch, space, T8.order + 1)
    rec = _batch_records(space, form.entries[None], absolute_mask(form)[None])[0]
    assert rec["rank"] == 3
    assert rec["spectrum"][T8.order + 1] == 1
    assert "an invertible form may not contain a line" in rec["violations"]
    monkeypatch.undo()
    assert not form_record(form)["violations"]


def test_line_count_outside_the_shapes_is_flagged(monkeypatch):
    """A line meets an absolute set in 0, 1, 2, q+1 or all Q+1 points; a
    count-table cell planted to read 5 at PG(2,8) (q+1 = 3) is flagged."""
    space = projective_space(T8, 2)
    form = make_form(T8, [1, 0, 0, 0, 1, 0, 0, 0, 1])
    _plant_count(monkeypatch, space, 5)
    rec = _batch_records(space, form.entries[None], absolute_mask(form)[None])[0]
    assert rec["spectrum"][5] == 1
    assert ("line intersections [5] outside {0, 1, 2, q+1, full}"
            in rec["violations"])


def test_line_paths_leave_incidence_unbuilt(monkeypatch):
    """Records with their spectrum, the rank-1 sweep and the degenerate
    C_F^m check list the points of lines without the dense incidence."""
    def no_incidence(self):
        raise AssertionError("the dense incidence was built")
    monkeypatch.setattr(ProjectiveSpace, "incidence", no_incidence)
    space = projective_space(T27, 2)
    built = space._incidence
    rec = form_record(SesquiForm(T27, ((1, 0, 0), (0, 1, 0), (0, 0, 1))))
    assert sum(rec["spectrum"].values()) == space.n_lines
    assert not rec["violations"]
    s = rank1_census(T4)
    assert s.total > 0 and not s.violations
    summary = census._summary(T27, "degenerate-cf")
    e = np.array([[0, 0, 1, 0, 0, 0, 0, T27.neg(1), 0]], dtype=np.uint32)
    census._sweep(summary, space, [(e, np.ones(1, dtype=np.int64), np.array([2]))])
    assert summary.kind_counts["degenerate_cf"] == 1
    assert summary.kind_counts["steiner_checked"] == 1
    assert not summary.violations
    assert space._incidence is built


def test_records_leave_line_lists_unbuilt(monkeypatch):
    """Records take their line spectra from the line kernel, so a records
    census and `form_record` leave the point lists of the lines unbuilt."""
    for t in (T8, T27):
        space = projective_space(t, 2)
        monkeypatch.setattr(space, "_lines_points", None)
        s = random_census(t, 300, seed=3, invertible_only=False, records=10)
        assert len(s.records) == 10 and not s.violations
        rec = form_record(SesquiForm(t, ((1, 0, 0), (0, 1, 0), (0, 0, 1))))
        assert sum(rec["spectrum"].values()) == space.n_lines
        assert space._lines_points is None


def _spectrum_rows(t, count: int) -> np.ndarray:
    """Nonzero rows of every rank for the spectrum test: sampled ones, a
    third of them with a22 = 0, rank-1 and rank-2 sums of outer products
    u v^T, and rows with a00 = a01 = a10 = a11 = 0, whose absolute set
    holds l0 = {z = 0}; at n = 1 also rows with a00 = a11 = 0 and a10 =
    -a01, which hold l0 and may be invertible."""
    r = sample_matrix_entries(t.order, 11, 0, 4 * count)
    sampled, u, v = r[:count].copy(), r[count:2 * count], r[2 * count:3 * count]
    sampled[::3, 8] = 0
    one = t.vmul(u[:, :3, None], u[:, None, 3:6]).reshape(-1, 9)
    two = t.vadd(one, t.vmul(v[:, :3, None], v[:, None, 3:6]).reshape(-1, 9))
    on_l0 = r[3 * count:].copy()
    on_l0[:, [0, 1, 3, 4]] = 0
    rows = [sampled, one, two, on_l0]
    if t.n == 1:
        alt = v.copy()
        alt[:, [0, 4]] = 0
        alt[:, 3] = t.vneg(alt[:, 1])
        rows.append(alt)
    e = np.concatenate(rows)
    return e[e.any(axis=1)]


# p = 2 and odd p, n = 1 to 5, sigma = x^2 and x^4 at Q = 8 and both towers
# of Q = 16; a few rows at Q = 125, where the reference gathers 2e6 cells a row
_SPECTRUM_TOWERS = {"Q4-n1": (2, 2, 1, 1, 100), "Q4": (2, 1, 2, 1, 100),
                    "Q7-n1": (7, 1, 1, 1, 100), "Q8": (2, 1, 3, 1, 100),
                    "Q8-m2": (2, 1, 3, 2, 100), "Q9": (3, 1, 2, 1, 100),
                    "Q16-q2": (2, 1, 4, 1, 60), "Q16-q4": (2, 2, 2, 1, 60),
                    "Q25": (5, 1, 2, 1, 40), "Q27": (3, 1, 3, 1, 40),
                    "Q32": (2, 1, 5, 1, 40), "Q125": (5, 1, 3, 1, 8)}


@pytest.mark.parametrize("p, e, n, m, count", list(_SPECTRUM_TOWERS.values()),
                         ids=list(_SPECTRUM_TOWERS))
def test_line_kernel_spectra_match_the_mask_gather(p, e, n, m, count):
    """The spectra that records take from the line kernel through l0 equal
    the histograms of `classify.line_spectrum`, the gather of the absolute
    mask over the lines' point lists, on every row: rows of every rank, with
    a22 = 0, with l0 absolute and with whole lines absolute."""
    t = build_field(p, e, n, m)
    space = projective_space(t, 2)
    rows = _spectrum_rows(t, count)
    Q = t.order
    mask = absolute_masks(space, rows)
    ref = np.array([np.bincount(classify.line_spectrum(row, space), minlength=Q + 2)
                    for row in mask])
    assert np.array_equal(census._line_spectra(space, rows), ref)
    on_l0 = space.points[:, 2] == 0
    assert set(vranks(t, rows.reshape(-1, 3, 3)).tolist()) == {1, 2, 3}
    assert (rows[:, 8] == 0).any() and mask[:, on_l0].all(axis=1).any()
    assert (ref[:, Q + 1] > 0).any() and (ref.sum(axis=1) == space.n_lines).all()


@pytest.mark.parametrize("column", range(9))
def test_line_kernel_refuses_an_entry_outside_the_field(column):
    """An entry equal to Q anywhere in a row is refused with IndexError by
    the scaling gathers (`vinv` for a22, the product table for the rest),
    not read as a cell of another row."""
    kern = census.LineKernel(T8)
    e = np.ones((2, 9), dtype=np.uint32)
    e[1, column] = T8.order
    with pytest.raises(IndexError):
        kern.counts(e)


def test_line_kernel_peak_memory():
    """The line tables of PG(2,125) are built with bounded gather keys: the
    traced peak stays within 53 MiB, the 52.63 MiB measured for 2-D table
    reads (71.3 MiB with one flat key array per broadcast)."""
    t = build_field(5, 1, 3, 1)
    tracemalloc.start()
    try:
        census.LineKernel(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 53 * 2 ** 20, peak


def _one_radical_line(space, mask):
    """x0 x1^sigma = 0 without its line x1 = 0: only x0 = 0 is left."""
    return mask & (space.points[:, 0] == 0)


def _half_dropped(space, mask):
    keep = mask.copy()
    keep[np.nonzero(mask)[0][::2]] = False
    return keep


def _one_dropped(space, mask):
    keep = mask.copy()
    keep[np.nonzero(mask)[0][-1]] = False
    return keep


_CONE = "cone cardinality does not match its base shape"
_CF = ["cf cardinality does not match the tangent-line split",
       "steiner locus differs from the absolute set"]


@pytest.mark.parametrize("entries, spoil, reasons", [
    ((0, 1, 0, 0, 0, 0, 0, 0, 0), _one_radical_line,
     ["rank-1 set is not the union of its radical lines"]),
    ((0, 0, 0, 0, 1, 1, 0, 0, 1), _half_dropped, [_CONE]),
    ((0, 0, 1, 0, 2, 0, 0, 0, 0), _one_dropped, _CF),
    ((0, 0, 1, 0, 0, 0, 0, 2, 0), _one_dropped, _CF),
], ids=["rank1", "cone", "cf", "degenerate-cf"])
def test_records_run_the_sweep_checks(entries, spoil, reasons):
    """A wrong absolute mask gives a record the reasons of the per-kind
    batch check of the sweeps (the record adds its line-spectrum check)."""
    space = projective_space(T27, 2)
    form = make_form(T27, entries)
    e = form.entries[None]
    mask = spoil(space, absolute_mask(form))
    rec = form_record(form, mask)
    kind = [r for r in rec["violations"] if not r.startswith("line intersections")]
    assert kind == reasons
    if rec["rank"] == 1:
        verdicts = classify.rank1_verdicts(space, e, mask[None])
    else:
        v_r, v_l = radical_points(space, e)
        verdicts = (classify.cone_verdicts(space, e, mask[None], v_r)
                    if rec["kind"] == "cone_over_sigma_quadric"
                    else cf_verdicts(space, e, mask[None], v_r, v_l))
    assert [r for r, bad in verdicts.flags.items() if bad[0]] == reasons
    # the true mask passes both
    assert not form_record(form)["violations"]


def test_any_rank_samples_take_the_kind_checks(monkeypatch):
    """Past its records, an any-rank census checks its rank-1 and rank-2
    samples by kind: with one absolute point dropped from every mask, each
    of them is flagged and no rank-3 sample is (there is no menu)."""
    masks = census.PlaneKernel.masks

    def spoiled(self, *idx):
        out = masks(self, *idx)
        for row in out:
            row[np.nonzero(row)[0][-1:]] = False
        return out
    monkeypatch.setattr(census.PlaneKernel, "masks", spoiled)
    s = random_census(T9, 400, seed=8, invertible_only=False, records=10)
    e, _, ranks = census._join(list(census._samples(T9, 400, 8, lambda r: r > 0)))
    low = {tuple(int(x) for x in row) for row in e[10:][ranks[10:] < 3]}
    assert len(low) > 5
    flagged = {tuple(v["matrix"]) for v in s.violations}
    assert all(r["violations"] for r in s.records)
    assert flagged == low | {tuple(r["matrix"]) for r in s.records}


def test_form_record_finds_radicals_once(monkeypatch):
    """A rank-2 record finds its radical points once, for its kind, and its
    check reuses them; other ranks do not look for them.  A sampled census
    finds those of all the rank-2 rows of a batch in one call, record rows
    or not."""
    calls = []
    real = radical_points

    def counted(space, e):
        if len(e):
            calls.append(len(e))
        return real(space, e)
    monkeypatch.setattr(census, "radical_points", counted)
    monkeypatch.setattr(classify, "radical_points", counted)
    space = projective_space(T27, 2)
    forms = [(0, 0, 0, 0, 1, 1, 0, 0, 1), (0, 0, 1, 0, 2, 0, 0, 0, 0),
             (0, 0, 1, 0, 0, 0, 0, 2, 0), (0, 1, 0, 0, 0, 0, 0, 0, 0),
             (1, 0, 0, 0, 1, 0, 0, 0, 1)]
    recs = [form_record(make_form(T27, f)) for f in forms]
    assert [r["rank"] for r in recs] == [2, 2, 2, 1, 3]
    assert not any(r["violations"] for r in recs)
    assert calls == [1, 1, 1]
    calls.clear()
    s = random_census(T27, 400, seed=5, invertible_only=False, records=400)
    assert calls == [sum(r["rank"] == 2 for r in s.records)] and calls[0] > 0
    # four batches of 100 rows, the records inside the first
    calls.clear()
    monkeypatch.setattr(census, "_KERNEL_CELLS", 100 * space.n_points)
    random_census(T27, 400, seed=5, invertible_only=False, records=40)
    _, _, ranks = census._join(list(census._samples(T27, 400, 5, lambda r: r > 0)))
    per_batch = [int(np.count_nonzero(ranks[i:i + 100] == 2)) for i in range(0, 400, 100)]
    assert calls == [c for c in per_batch if c]
    assert 0 < np.count_nonzero(ranks[:40] == 2) < per_batch[0]


def test_form_record_finds_radical_lines_once(monkeypatch):
    """A rank-1 record finds its radical lines once, in its check; a batch of
    records finds those of all its rank-1 rows in one call."""
    calls = []
    real = radical_lines

    def counted(space, e):
        if len(e):
            calls.append(len(e))
        return real(space, e)
    monkeypatch.setattr(classify, "radical_lines", counted)
    space = projective_space(T27, 2)
    rec = form_record(make_form(T27, (0, 1, 0, 0, 0, 0, 0, 0, 0)))
    assert rec["kind"] == "union_two_lines" and not rec["violations"]
    assert calls == [1]
    calls.clear()
    e = np.array([[0, 1, 0, 0, 0, 0, 0, 0, 0], [1, 0, 0, 0, 1, 0, 0, 0, 1],
                  [1, 0, 0, 0, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 2, 0, 0, 0]],
                 dtype=np.uint32)
    recs = _batch_records(space, e, absolute_masks(space, e))
    assert [r["rank"] for r in recs] == [1, 3, 1, 1]
    assert not any(r["violations"] for r in recs)
    assert calls == [3]


# rows of every kind: rank 1, a cone, C_F^m-sets, degenerate ones and the
# identity, whose fixed points form a pointwise subplane in odd degree
_KIND_ROWS = [(0, 1, 0, 0, 0, 0, 0, 0, 0), (1, 1, 0, 1, 1, 0, 0, 0, 0),
              (0, 0, 0, 0, 1, 1, 0, 0, 1), (0, 0, 1, 0, 2, 0, 0, 0, 0),
              (0, 0, 1, 0, 0, 0, 0, 1, 0), (0, 0, 1, 0, 0, 0, 0, 2, 0),
              (1, 0, 0, 0, 1, 0, 0, 0, 1)]
_KINDS = {"union_two_lines", "cone_over_sigma_quadric", "cf", "degenerate_cf",
          "kestenband_nondegenerate"}


@pytest.mark.parametrize("tower", [T27, T9, T8], ids=["F27", "F9", "F8"])
def test_form_records_match_form_record(tower):
    """The batch records of mixed rows equal the K = 1 records key for key,
    violations in the same order; with one planted wrong mask per kind."""
    space = projective_space(tower, 2)
    sampled = sample_matrix_entries(tower.order, 21, 0, 60)
    e = np.concatenate([np.array(_KIND_ROWS, dtype=np.uint32),
                        sampled[sampled.any(axis=1)]])
    mask = absolute_masks(space, e)
    kinds = [form_record(make_form(tower, row.tolist()), m)["kind"]
             for row, m in zip(e, mask)]
    assert set(kinds) == _KINDS
    # the first row of each kind again, under a wrong mask
    first = [kinds.index(k) for k in sorted(_KINDS)]
    e = np.concatenate([e, e[first], e[[kinds.index("cone_over_sigma_quadric")]]])
    mask = np.concatenate([mask, [_one_dropped(space, mask[k]) for k in first],
                           [_half_dropped(space, mask[kinds.index(
                               "cone_over_sigma_quadric")])]])
    batch = _batch_records(space, e, mask)
    ref = [form_record(make_form(tower, row.tolist()), m)
           for row, m in zip(e, mask)]
    assert [list(r.items()) for r in batch] == [list(r.items()) for r in ref]
    assert all(r["violations"] for r in batch[-len(first) - 1:])
    assert not any(r["violations"] for r in batch[:-len(first) - 1])
    identity = batch[len(_KIND_ROWS) - 1]
    if tower.n % 2:
        assert identity["fixed_in"] == tower.q + 1


def test_form_record_contents():
    rec = form_record(SesquiForm(T8, ((1, 0, 0), (0, 1, 0), (0, 0, 1))))
    assert rec["absolute"] == 9 and rec["epsilon"] == 0
    assert rec["fixed_in"] == 3 and rec["fixed_out"] == 4
    assert rec["kind"] == "kestenband_nondegenerate"
    assert not rec["violations"]
    rec2 = form_record(SesquiForm(T8, ((0, 0, 1), (0, 1, 0), (0, 0, 0))))
    assert rec2["kind"] == "cf" and rec2["absolute"] == 9
    assert not rec2["violations"]


# -- the torus-reduced rank <= 2 sweep ------------------------------------------

def _unreduced(t, mode, keep, menu=None):
    """The sweep driver fed by every scalar class whose rank passes `keep`,
    with unit weights."""
    batches = ((e, np.ones(len(e), dtype=np.int64))
               for e in census._enumerate_scalar_classes(t.order, 9, census._ENUM_CHUNK))
    return census._sweep(census._summary(t, mode), projective_space(t, 2),
                         census._ranked(t, batches, keep), menu)


def _unreduced_rank_le2(t):
    """The rank <= 2 sweep over every scalar class, with unit weights."""
    return _unreduced(t, "exhaustive-rank-le2", lambda r: r < 3)


def _unreduced_gl(t):
    """The GL sweep over every scalar class, with unit weights."""
    return _unreduced(t, "exhaustive-gl", lambda r: r == 3, census._admissible(t, False))


def _torus_sweep(sweep):
    """`sweep` fed by the torus source, one representative per torus orbit
    on each of the 511 supports."""
    def run(t):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(census, "_orbit_batches",
                       lambda tower, what, chunk, keep: census._ranked(
                           tower, census._torus_representatives(
                               tower, census._torus_supports(tower), chunk), keep))
            return sweep(t)
    return run


# fields checked against the sweep over every scalar class, and (Q8, Q9)
# against the torus source
_SMALL_FIELDS = {"Q2": (2, 1, 1, 1), "Q3": (3, 1, 1, 1), "Q4-q2": (2, 1, 2, 1),
                 "Q4-q4": (2, 2, 1, 1), "Q5": (5, 1, 1, 1)}
_TORUS_FIELDS = {"Q8": (2, 1, 3, 1), "Q9": (3, 1, 2, 1)}
_SWEEPS = {"": (rank_le2_census, _unreduced_rank_le2),
           "-gl": (exhaustive_invertible_census, _unreduced_gl)}


@pytest.mark.parametrize(
    "params, reduced_sweep, reference",
    [(p, sw, ref) for sw, unreduced in _SWEEPS.values()
     for fields, ref in ((_SMALL_FIELDS, unreduced), (_TORUS_FIELDS, _torus_sweep(sw)))
     for p in fields.values()],
    ids=[f + s for s in _SWEEPS for f in (*_SMALL_FIELDS, *_TORUS_FIELDS)])
def test_rank_le2_reduced_matches_unreduced(params, reduced_sweep, reference):
    """Both reduced sweeps (the rank <= 2 cases keep their plain ids)
    reproduce the summary of their sweep over every scalar class, or at Q =
    8 and 9 over every torus orbit."""
    t = build_field(*params)
    reduced = _summary_record(reduced_sweep(t))
    assert reduced == _summary_record(reference(t))
    assert reduced["violations"] == 0


# fields whose orbit source is checked against the index-by-index scan, and
# the representatives each keeps
_ORBIT_FIELDS = {"Q2": ((2, 1, 1, 1), 103), "Q3": ((3, 1, 1, 1), 479),
                 "Q4-q2": ((2, 1, 2, 1), 960), "Q4-q4": ((2, 2, 1, 1), 941),
                 "Q5": ((5, 1, 1, 1), 5275), "Q8": ((2, 1, 3, 1), 21_957),
                 "Q9": ((3, 1, 2, 1), 63_979), "Q8-m2": ((2, 1, 3, 2), 21_957)}
# at Q = 16 the counts were taken from the index-by-index scan
_Q16_FIELDS = {"Q16": ((2, 1, 4, 1), 850_396), "Q16-q4": ((2, 2, 2, 1), 850_424)}


@pytest.mark.parametrize("params, reps", [*_ORBIT_FIELDS.values(), *_Q16_FIELDS.values()],
                         ids=[*_ORBIT_FIELDS, *_Q16_FIELDS])
def test_orbit_weights_sum_to_scalar_classes(params, reps):
    """The weights of the orbit representatives add up to every nonzero
    scalar class, (Q^9 - 1)/(Q - 1), each a positive divisor of the
    support's weight."""
    t = build_field(*params)
    supports = census._orbit_supports(t, _ANY_RANK)
    assert len(supports) == 103
    rows = total = 0
    for e, w in census._orbit_representatives(t, supports, 4096):
        assert len(e) == len(w) <= 4096 and (w > 0).all() and e.any(axis=1).all()
        rows += len(e)
        total += int(w.sum())
    assert rows == reps
    assert total == (t.order ** 9 - 1) // (t.order - 1)


@pytest.mark.parametrize("t", [T4, T8], ids=["T4", "T8"])
def test_transversal_rule_bounds_support_ranks(t):
    """On each of the 511 supports the torus representatives have only the
    ranks that `_support_ranks` allows: all 3 when exactly one transversal
    (permutation pattern) lies inside the support, det A being then +- one
    product of nonzero entries, and all <= 2 when none does."""
    for sup in census._torus_supports(t):
        inside = sum(all(3 * i + pi[i] in sup.positions for i in range(3))
                     for pi in itertools.permutations(range(3)))
        ranks = np.unique(np.concatenate([
            vranks(t, e.reshape(-1, 3, 3))
            for e, _ in census._torus_representatives(t, [sup], 1 << 14)]))
        bits = sum(1 << k for k in sup.positions)
        assert set(ranks.tolist()) <= set(census._support_ranks(bits))
        if inside == 1:
            assert (ranks == 3).all()
        if inside == 0:
            assert (ranks <= 2).all()


@pytest.mark.parametrize("params",
                         [(2, 1, 2, 1), (5, 1, 1, 1), (2, 1, 3, 1), (3, 1, 2, 1)],
                         ids=["Q4", "Q5", "Q8", "Q9"])
def test_sweeps_split_every_scalar_class(params):
    """The GL sweep, which leaves out the supports without a transversal,
    counts |GL(3,Q)|/(Q-1) scalar classes (16,482,816 at Q = 8), and the
    rank <= 2 sweep, which leaves out those with exactly one, counts the
    other nonzero ones."""
    t = build_field(*params)
    Q = t.order
    gl = exhaustive_invertible_census(t).total
    assert gl == (Q ** 3 - 1) * (Q ** 3 - Q) * (Q ** 3 - Q ** 2) // (Q - 1)
    assert gl + rank_le2_census(t).total == (Q ** 9 - 1) // (Q - 1)


def _floor_div(v, d):
    """v // d, exactly, for float64 arrays of integers 0 <= v < 2^50 and d
    >= 1 (the cap keeps the orbit indices below 1e8): (v + 1/2) / d lies at
    least 1/(2d) from any integer, and its rounding error, at most
    2^-53 (v + 1) / d, is smaller, so its floor is v // d."""
    return np.floor((v + 0.5) / d)


def _mod(v, d):
    return v - d * _floor_div(v, d)


def _scan(t, positions):
    """(y, fixed) of the canonical orbits on the support `positions`, index
    by index: the indices that are <= the index of each image under H, and
    the number of elements of H fixing each.  The digits are those of
    `_torus_support` with radix above 1, the largest leading, and each h =
    (pi, j) but the identity acts by the matrix p^j U Pi U^-1 mod N, taken
    one at a time on the rows still kept, in exact float64 arithmetic.  The
    sieve of `_OrbitSupport` replaced this scan, which stays here as its
    reference."""
    n_units = t.order - 1
    sup = census._torus_support(t, positions)
    free = sorted((k for k, r in enumerate(sup.radices) if r > 1),
                  key=lambda k: -sup.radices[k]) or [0]
    column = {k: a for a, k in enumerate(positions)}
    images = []
    for pos in census._PERM_POS:
        if sorted(pos[k] for k in positions) == list(positions):
            pi_uinv = sup.uinv[[column[pos[k]] for k in positions]]
            m = (sup.u @ pi_uinv % n_units)[np.ix_(free, free)]
            images += [(t.p ** j % n_units * m % n_units).astype(np.float64)
                       for j in range(t.e * t.n)]
    radices = [sup.radices[k] for k in free]
    radix = np.array(radices, dtype=np.float64)[:, None]
    place = np.array([float(np.prod(radices[a + 1:])) for a in range(len(free))])
    idx = np.arange(sup.count, dtype=np.float64)
    y = _mod(_floor_div(idx, place[:, None]), radix)
    fixed = np.ones(len(idx), dtype=np.int64)
    for m in images[1:]:
        # the leading digit settles all rows but its ties
        lead = _mod(np.einsum("j,jk->k", m[0], y), radix[0])
        keep = lead > y[0]
        tie = np.nonzero(lead == y[0])[0]
        img = np.einsum("i,ik->k", place, _mod(
            np.einsum("ij,jk->ik", m, y[:, tie]), radix))
        keep[tie] = img >= idx[tie]
        fixed[tie] += img == idx[tie]
        idx, y, fixed = idx[keep], y[:, keep], fixed[keep]
    return y.T.astype(np.int64), fixed


@pytest.mark.parametrize("params", [p for p, _ in _ORBIT_FIELDS.values()],
                         ids=list(_ORBIT_FIELDS))
def test_sieve_matches_index_scan(params, monkeypatch):
    """On every support the sieve keeps the rows of the index-by-index
    scan, in the same order, with the same stabiliser orders, whether it
    was sieved with the other small supports of its radix or alone."""
    sizes, sieve = [], census._sieve

    def counted(group, plan):
        sizes.append(len(group))
        return sieve(group, plan)
    monkeypatch.setattr(census, "_sieve", counted)
    t = build_field(*params)
    supports = census._orbit_supports(t, _ANY_RANK)
    sieved = list(census._sieved(supports))
    assert [sup.positions for sup, _ in sieved] == [sup.positions for sup in supports]
    for sup, pieces in sieved:
        pieces = list(pieces)
        y, fixed = _scan(t, sup.positions)
        assert np.array_equal(np.concatenate([p[0] for p in pieces]), y)
        assert np.array_equal(np.concatenate([p[1] for p in pieces]), fixed)
    assert max(sizes) > 1      # some pass sieved several supports


def test_orbit_scan_dropping_a_row_is_caught(monkeypatch):
    """A sieve that loses one canonical row no longer covers its support
    (orbit-stabiliser: the kept orbits' sizes |H| / fixed add up to the
    indices of the support), and the source raises once the support is
    done."""
    sieve = census._sieve

    def lossy(group, plan):
        for i, (owner, y, fixed) in enumerate(sieve(group, plan)):
            drop = i == 0 and len(group[0].positions) == 9
            yield (owner[1:], y[1:], fixed[1:]) if drop else (owner, y, fixed)
    monkeypatch.setattr(census, "_sieve", lossy)
    with pytest.raises(RuntimeError, match=r"orbit scan of support \(0, 1, .*, 8\): the "
                                           r"kept orbits cover \d+ indices, not 117649"):
        for _ in census._orbit_batches(T8, "probe", 4096, _SWEEP_KEEP["gl"]):
            pass


@pytest.mark.parametrize("lose", ["row", "support"])
def test_grouped_sieve_dropping_a_row_is_caught(lose, monkeypatch):
    """A pass over several supports that loses the last row of one, or
    every row of it, no longer covers that support, and the source names
    it."""
    sieve, lost = census._sieve, []

    def lossy(group, plan):
        for owner, y, fixed in sieve(group, plan):
            # the last support of the first pass over several, one whose
            # orbits are not all one row
            if len(group) > 1 and not lost and (owner == owner[-1]).sum() > 1:
                lost.append(group[owner[-1]].positions)
                keep = (owner != owner[-1] if lose == "support"
                        else np.arange(len(owner)) < len(owner) - 1)
                owner, y, fixed = owner[keep], y[keep], fixed[keep]
            yield owner, y, fixed
    monkeypatch.setattr(census, "_sieve", lossy)
    supports = census._orbit_supports(T8, _ANY_RANK)
    with pytest.raises(RuntimeError) as caught:
        for _ in census._orbit_representatives(T8, supports, 4096):
            pass
    assert str(caught.value).startswith(f"orbit scan of support {lost[0]}: ")
    assert ("cover 0 indices" in str(caught.value)) == (lose == "support")


@pytest.mark.parametrize("chunk, bound", [(census._GL_CHUNK, 1.51),
                                          (census._ENUM_CHUNK, 4.39)],
                         ids=["gl", "enum"])
def test_orbit_source_memory(chunk, bound):
    """The orbit source of GL(3,8) stays within the traced peak of the
    index-by-index scan it replaced (1.51 and 4.39 MiB at the two batch
    sizes): its blocks are sized in bytes, not in indices."""
    tracemalloc.start()
    try:
        supports = census._orbit_supports(T8, _ANY_RANK)
        for _ in census._orbit_representatives(T8, supports, chunk):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * 2 ** 20


def _torus_image(positions, qm, n_units):
    """The distinct vectors T_S z mod N, z over (Z/N)^4, as (M, |S|)."""
    z = np.stack(np.meshgrid(*[np.arange(n_units)] * 4, indexing="ij"),
                 axis=-1).reshape(-1, 4)
    rows = np.array([[1] + [int(k // 3 == c) + qm * int(k % 3 == c)
                            for c in range(3)] for k in positions])
    return np.unique((z @ rows.T) % n_units, axis=0)


@pytest.mark.parametrize("t", [T4, T8], ids=["T4", "T8"])
@pytest.mark.parametrize("positions", [(0, 4, 8), (0, 1, 2), tuple(range(9))],
                         ids=["diagonal", "row", "full"])
def test_torus_orbits_partition_support(t, positions):
    n_units = t.order - 1
    sup = next(s for s in census._torus_supports(t) if s.positions == positions)
    image = _torus_image(positions, t.q ** t.m, n_units)
    assert len(image) == sup.weight * n_units
    reps = sup.logs(0, sup.count)
    assert len(reps) == sup.count
    assert sup.count * len(image) == n_units ** len(positions)
    place = n_units ** np.arange(len(positions), dtype=np.int64)
    seen = np.zeros(n_units ** len(positions), dtype=bool)
    for start in range(0, len(reps), 64):
        orbit = (reps[start:start + 64, None, :] + image[None]) % n_units
        codes = orbit @ place
        seen[codes.ravel()] = True
    # the orbits have total size N^|S| and reach every matrix on S, so they
    # are pairwise disjoint
    assert seen.all()


def test_diagonal_form_invariants_match_smith():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form
    for qm in (2, 3, 4):
        for bits in range(1, 1 << 9):
            positions = [k for k in range(9) if bits >> k & 1]
            rows = [[1] + [int(k // 3 == c) + qm * int(k % 3 == c)
                           for c in range(3)] for k in positions]
            d, u, uinv = census._diagonalise(rows)
            # U = uinv^-1 is integral and U T = diag(d) V^-1: row k of U T is
            # a multiple of d_k
            u = np.array(u, dtype=np.int64)
            assert np.array_equal(u @ np.array(uinv), np.eye(len(rows)))
            ut = u @ np.array(rows)
            for k, dk in enumerate(d):
                assert not (ut[k] % dk).any() if dk else not ut[k].any()
            snf = smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
            invariants = [int(snf[k, k]) for k in range(min(snf.shape))]
            invariants += [0] * (len(rows) - len(invariants))
            for n_units in (3, 7, 8, 15, 26, 63):
                assert (np.prod([np.gcd(x, n_units) for x in d])
                        == np.prod([np.gcd(x, n_units) for x in invariants]))


@pytest.mark.parametrize("params, reps", [((2, 1, 4, 1), 13_354_738),
                                          ((2, 2, 2, 1), 13_355_230)],
                         ids=["2-1-4-1", "2-2-2-1"])
def test_rank_le2_cap_counts_representatives(params, reps, monkeypatch):
    """The budget counts the torus indices of the 74 supports that may hold
    a singular matrix."""
    t = build_field(*params)
    assert (t.order ** 9 - 1) // (t.order - 1) > census.EXHAUSTIVE_CAP
    supports = census._orbit_supports(t, _SWEEP_KEEP["rank-le2"])
    assert (len(supports), sum(s.count for s in supports)) == (74, reps)
    monkeypatch.setattr(census, "_orbit_representatives",
                        lambda tower, supports, chunk: iter(()))
    assert rank_le2_census(t).total == 0
