import numpy as np
import pytest

from sigmaconics import census
from sigmaconics.census import (CapExceeded, diagonal_census,
                                exhaustive_invertible_census, form_record,
                                line_census, plane_kernel,
                                random_census, rand_stream, rank1_census,
                                rank2_normal_census, rank2_random_census,
                                rank_le2_census, sample_matrix_entries,
                                splitmix64)
from sigmaconics.cli import _summary_record
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
            for r3, c in zip(r3s, kern.counts(r1, r2, r3s)):
                if c not in menu:
                    out.append([d for r in (r1, r2, r3)
                                for d in (r // (Q * Q), (r // Q) % Q, r % Q)])
    return out


def _orbit_class_codes(t, matrices):
    """For each matrix, the scalar classes in its torus orbit, computed by
    field arithmetic as lam d_i a_ij d_j^sigma over every (lam, d) in
    (F*)^4: an (M, (Q-1)^4) array of the base-Q codes of the orbit members
    with leading entry 1, and -1 for the other members."""
    units = np.arange(1, t.order, dtype=np.uint32)
    g = np.stack(np.meshgrid(*[units] * 4, indexing="ij"), axis=-1).reshape(-1, 4)
    lam, d = g[:, 0], g[:, 1:]
    a = np.array(matrices, dtype=np.uint32).reshape(-1, 1, 3, 3)
    orbit = t.vmul(lam[None, :, None, None],
                   t.vmul(t.vmul(d[None, :, :, None], a),
                          t.vsigma(d)[None, :, None, :])).reshape(len(a), len(g), 9)
    lead = np.take_along_axis(orbit, (orbit != 0).argmax(axis=2)[..., None], axis=2)
    codes = orbit.astype(np.int64) @ (t.order ** np.arange(8, -1, -1, dtype=np.int64))
    return np.where(lead[..., 0] == 1, codes, -1)


@pytest.mark.parametrize("tower, menu", [(T4, [5, 7, 9]),
                                         (build_field(3, 1, 1, 1), [1, 7])],
                         ids=["T4", "T3"])
def test_exhaustive_gl_violation_order(tower, menu, monkeypatch):
    """The sweep reports one representative per violating torus orbit: the
    orbits of the reported matrices are disjoint and their scalar classes
    are exactly the violating classes of the per-class walk."""
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


@pytest.mark.parametrize("params, reps, within",
                         [((2, 1, 4, 1), 20_363_925, True),
                          ((5, 1, 2, 1), None, False),
                          ((3, 1, 3, 1), None, False)],
                         ids=["Q16", "Q25", "Q27"])
def test_orbit_batches_cap(params, reps, within):
    """Both exhaustive 3x3 sweeps check one budget on the representatives
    when their source is made, before a batch is produced."""
    t = build_field(*params)
    if within:
        census._orbit_batches(t, "probe", 1)
        assert sum(s.count for s in census._torus_supports(t)) == reps
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


# -- the torus-reduced rank <= 2 sweep ------------------------------------------

def _unreduced_rank_le2(t):
    """The rank <= 2 sweep over every scalar class, with unit weights."""
    space = projective_space(t, 2)
    summary = census._summary(t, "exhaustive-rank-le2")
    for e in census._enumerate_scalar_classes(t.order, 9, census._ENUM_CHUNK):
        ranks = vranks(t, e.reshape(-1, 3, 3))
        census._verify_rank1_batch(t, space, e[ranks == 1], summary)
        census._verify_rank2_batch(t, space, e[ranks == 2], summary, True)
    return summary


def _unreduced_gl(t):
    """The GL sweep over every scalar class, with unit weights."""
    kern = plane_kernel(projective_space(t, 2))
    summary = census._summary(t, "exhaustive-gl")
    menu = census._admissible(t, False)
    for e in census._enumerate_scalar_classes(t.order, 9, census._ENUM_CHUNK):
        census._verify_menu_batch(kern, e[vranks(t, e.reshape(-1, 3, 3)) == 3],
                                  summary, menu)
    return summary


_SMALL_FIELDS = {"Q2": (2, 1, 1, 1), "Q3": (3, 1, 1, 1), "Q4-q2": (2, 1, 2, 1),
                 "Q4-q4": (2, 2, 1, 1), "Q5": (5, 1, 1, 1)}
_SWEEPS = {"": (rank_le2_census, _unreduced_rank_le2),
           "-gl": (exhaustive_invertible_census, _unreduced_gl)}


@pytest.mark.parametrize("params, sweep",
                         [(p, sw) for sw in _SWEEPS.values()
                          for p in _SMALL_FIELDS.values()],
                         ids=[f + s for s in _SWEEPS for f in _SMALL_FIELDS])
def test_rank_le2_reduced_matches_unreduced(params, sweep):
    """Both torus-reduced sweeps (the rank <= 2 cases keep their plain ids)
    reproduce the summary of their sweep over every scalar class."""
    reduced_sweep, unreduced_sweep = sweep
    t = build_field(*params)
    reduced = _summary_record(reduced_sweep(t))
    assert reduced == _summary_record(unreduced_sweep(t))
    assert reduced["violations"] == 0


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
            d, uinv = census._diagonalise(rows)
            # U = uinv^-1 is integral and U T = diag(d) V^-1: row k of U T is
            # a multiple of d_k
            u = np.rint(np.linalg.inv(np.array(uinv, dtype=float)))
            u = u.astype(np.int64)
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


@pytest.mark.parametrize("params, reps", [((2, 1, 4, 1), 20_363_925),
                                          ((2, 2, 2, 1), 20_365_833)],
                         ids=["2-1-4-1", "2-2-2-1"])
def test_rank_le2_cap_counts_representatives(params, reps, monkeypatch):
    t = build_field(*params)
    assert (t.order ** 9 - 1) // (t.order - 1) > census.EXHAUSTIVE_CAP
    assert sum(s.count for s in census._torus_supports(t)) == reps
    monkeypatch.setattr(census, "_torus_representatives",
                        lambda tower, supports, chunk: iter(()))
    assert rank_le2_census(t).total == 0
