import itertools

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
    cls = classify.classify_plane_form(make_form(t, a.ravel().tolist()), space)
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


@pytest.mark.parametrize("params, reps, within",
                         [((2, 1, 4, 1), 13_378_303, True),
                          ((5, 1, 2, 1), None, False),
                          ((3, 1, 3, 1), None, False)],
                         ids=["Q16", "Q25", "Q27"])
def test_orbit_batches_cap(params, reps, within):
    """Both exhaustive 3x3 sweeps check one budget on the torus indices
    scanned when their source is made, before a batch is produced."""
    t = build_field(*params)
    if within:
        census._orbit_batches(t, "probe", 1)
        assert sum(s.count for s in census._orbit_supports(t)) == reps
    else:
        with pytest.raises(CapExceeded, match="probe beyond the matrix budget"):
            census._orbit_batches(t, "probe", 1)


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
    points are violations; a record row is checked by its record alone, so
    each counts once however many rows carry records."""
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
    e0 = census._sample_entries(T9, 1, 4, lambda r: r == 3)[0][0]
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
    reps = census._ranked(T8, census._orbit_batches(T8, "sweep", census._ENUM_CHUNK),
                          lambda r: r < 3)
    assert sum(rows) == sum(len(e) for e, _, _ in reps) > 0


def test_random_census_any_rank():
    s = random_census(T4, 400, seed=8, invertible_only=False, records=400)
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


def test_invertible_form_with_a_line_is_flagged():
    """At n >= 2 a line of absolute points is impossible for an invertible
    form; a mask planted with one is flagged on an invertible n = 3 row."""
    space = projective_space(T8, 2)
    form = make_form(T8, [1, 0, 0, 0, 1, 0, 0, 0, 1])
    line = classify.lines_points_array(space)[0]
    mask = absolute_mask(form, space)
    assert not mask[line].all()
    mask[line] = True
    rec = form_records(space, form.entries[None], mask[None])[0]
    assert rec["rank"] == 3
    assert "an invertible form may not contain a line" in rec["violations"]
    assert not form_record(form, space)["violations"]


def test_line_paths_leave_incidence_unbuilt(monkeypatch):
    """Records with their spectrum, the rank-1 sweep and the degenerate
    C_F^m check list the points of lines without the dense incidence."""
    def no_incidence(self):
        raise AssertionError("the dense incidence was built")
    monkeypatch.setattr(ProjectiveSpace, "incidence", no_incidence)
    space = ProjectiveSpace(T27, 2)
    rec = form_record(SesquiForm(T27, ((1, 0, 0), (0, 1, 0), (0, 0, 1))), space)
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
    assert space._incidence is None


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
    mask = spoil(space, absolute_mask(form, space))
    rec = form_record(form, space, mask)
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
    assert not form_record(form, space)["violations"]


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
    e, ranks = census._sample_entries(T9, 400, 8, lambda r: r > 0)
    low = {tuple(int(x) for x in row) for row in e[10:][ranks[10:] < 3]}
    assert len(low) > 5
    flagged = {tuple(v["matrix"]) for v in s.violations}
    assert all(r["violations"] for r in s.records)
    assert flagged == low | {tuple(r["matrix"]) for r in s.records}


def test_form_record_finds_radicals_once(monkeypatch):
    """A rank-2 record finds its radical points once, for its kind, and its
    check reuses them; other ranks do not look for them.  A sampled census
    finds those of all its rank-2 records in one batch call."""
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
    recs = [form_record(make_form(T27, f), space) for f in forms]
    assert [r["rank"] for r in recs] == [2, 2, 2, 1, 3]
    assert not any(r["violations"] for r in recs)
    assert calls == [1, 1, 1]
    calls.clear()
    s = random_census(T27, 400, seed=5, invertible_only=False, records=400)
    assert calls == [sum(r["rank"] == 2 for r in s.records)] and calls[0] > 0


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
    rec = form_record(make_form(T27, (0, 1, 0, 0, 0, 0, 0, 0, 0)), space)
    assert rec["kind"] == "union_two_lines" and not rec["violations"]
    assert calls == [1]
    calls.clear()
    e = np.array([[0, 1, 0, 0, 0, 0, 0, 0, 0], [1, 0, 0, 0, 1, 0, 0, 0, 1],
                  [1, 0, 0, 0, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 2, 0, 0, 0]],
                 dtype=np.uint32)
    recs = form_records(space, e, absolute_masks(space, e))
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
    kinds = [form_record(make_form(tower, row.tolist()), space, m)["kind"]
             for row, m in zip(e, mask)]
    assert set(kinds) == _KINDS
    # the first row of each kind again, under a wrong mask
    first = [kinds.index(k) for k in sorted(_KINDS)]
    e = np.concatenate([e, e[first], e[[kinds.index("cone_over_sigma_quadric")]]])
    mask = np.concatenate([mask, [_one_dropped(space, mask[k]) for k in first],
                           [_half_dropped(space, mask[kinds.index(
                               "cone_over_sigma_quadric")])]])
    batch = form_records(space, e, mask)
    ref = [form_record(make_form(tower, row.tolist()), space, m)
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
                       lambda tower, what, chunk: census._torus_representatives(
                           tower, census._torus_supports(tower), chunk))
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


@pytest.mark.parametrize("params, reps", [
    ((2, 1, 1, 1), 103), ((3, 1, 1, 1), 479), ((2, 1, 2, 1), 960),
    ((2, 2, 1, 1), 941), ((5, 1, 1, 1), 5275), ((2, 1, 3, 1), 21_957),
    ((3, 1, 2, 1), 63_979), ((2, 1, 3, 2), 21_957)],
    ids=["Q2", "Q3", "Q4-q2", "Q4-q4", "Q5", "Q8", "Q9", "Q8-m2"])
def test_orbit_weights_sum_to_scalar_classes(params, reps):
    """The weights of the orbit representatives add up to every nonzero
    scalar class, (Q^9 - 1)/(Q - 1), each a positive divisor of the
    support's weight."""
    t = build_field(*params)
    supports = census._orbit_supports(t)
    assert len(supports) == 103
    rows = total = 0
    for e, w in census._orbit_batches(t, "probe", 4096):
        assert len(e) == len(w) <= 4096 and (w > 0).all() and e.any(axis=1).all()
        rows += len(e)
        total += int(w.sum())
    assert rows == reps
    assert total == (t.order ** 9 - 1) // (t.order - 1)


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


@pytest.mark.parametrize("params, reps", [((2, 1, 4, 1), 13_378_303),
                                          ((2, 2, 2, 1), 13_378_881)],
                         ids=["2-1-4-1", "2-2-2-1"])
def test_rank_le2_cap_counts_representatives(params, reps, monkeypatch):
    """The budget counts the torus indices scanned on the 103 supports."""
    t = build_field(*params)
    assert (t.order ** 9 - 1) // (t.order - 1) > census.EXHAUSTIVE_CAP
    assert sum(s.count for s in census._orbit_supports(t)) == reps
    monkeypatch.setattr(census, "_orbit_representatives",
                        lambda tower, supports, chunk: iter(()))
    assert rank_le2_census(t).total == 0
