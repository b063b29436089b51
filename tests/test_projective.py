import tracemalloc

import numpy as np
import pytest

from sigmaconics import projective
from sigmaconics.classify import is_arc, lines_points_array
from sigmaconics.fields import build_field
from sigmaconics.linalg import normalize
from sigmaconics.projective import CapExceeded, ProjectiveSpace, projective_space


def test_point_counts():
    assert projective_space(build_field(2, 1, 2, 1), 1).n_points == 5
    assert projective_space(build_field(2, 1, 3, 1), 2).n_points == 73
    assert projective_space(build_field(3, 1, 3, 1), 2).n_points == 757
    assert projective_space(build_field(2, 1, 5, 1), 2).n_points == 1057


def test_enumeration_has_no_duplicates_and_round_trips():
    sp = projective_space(build_field(3, 1, 2, 1), 2)
    seen = set()
    for i in range(sp.n_points):
        v = sp.point_vec(i)
        assert v not in seen
        seen.add(v)
        assert sp.point_index(v) == i


def test_normalization():
    t = build_field(2, 1, 3, 1)
    sp = projective_space(t, 2)
    v = (0, 5, 3)
    w = normalize(t, v)
    assert w[1] == 1 and normalize(t, w) == w
    for lam in t.units():
        assert normalize(t, tuple(t.mul(lam, x) for x in v)) == w
    with pytest.raises(ValueError):
        normalize(t, (0, 0, 0))


def test_plane_axioms_exhaustive_pg2_4():
    sp = projective_space(build_field(2, 1, 2, 1), 2)
    inc = sp.incidence()
    # every line has q^n + 1 points, every point lies on q^n + 1 lines
    assert (inc.sum(axis=1) == 5).all() and (inc.sum(axis=0) == 5).all()
    # two distinct points span exactly one line; dually for lines
    common = inc.T.astype(np.int64) @ inc.astype(np.int64)
    off = common - np.diag(np.diag(common))
    assert (off[np.triu_indices_from(off, 1)] == 1).all()


def test_line_through_and_points_on():
    sp = projective_space(build_field(2, 1, 3, 1), 2)
    line = sp.line_through((1, 0, 0), (0, 1, 0))
    assert line == (0, 0, 1)
    pts = sp.line_points(line)
    assert len(pts) == 9
    assert sp.point_index((1, 0, 0)) in pts
    assert sp.line_through((0, 1, 0), (1, 0, 0)) == line
    with pytest.raises(ValueError):
        sp.line_through((1, 0, 0), (1, 0, 0))


def test_pencil():
    sp = projective_space(build_field(2, 1, 2, 1), 2)
    center = sp.point_index((1, 2, 3))
    pen = sp.pencil(center)
    assert len(pen.line_ids) == 5
    for lid in pen.line_ids:
        assert center in sp.line_points(lid)


@pytest.mark.parametrize("params", [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 1, 4),
                                    (2, 2, 2), (5, 1, 2), (3, 1, 3)],
                         ids=["Q4", "Q8", "Q9", "Q16-q2", "Q16-q4", "Q25", "Q27"])
def test_lines_points_array_matches_incidence(params):
    """R and xR + L list exactly the row-sorted points of each incidence row,
    as the same int64 bytes."""
    sp = ProjectiveSpace(build_field(*params, 1), 2)
    rows, cols = np.nonzero(sp.incidence())
    expect = cols.reshape(sp.n_points, sp.tower.order + 1).astype(np.int64)
    got = lines_points_array(sp)
    assert got.dtype == expect.dtype and got.shape == expect.shape
    assert got.tobytes() == expect.tobytes()


def test_incidence_peak_memory():
    """The dense incidence of PG(2,27) is formed in point-row blocks: its
    traced peak stays within 7 MiB, the 6.69 MiB measured for one (N, N)
    broadcast of 2-D table reads (1.36 MiB in blocks; one broadcast of
    flat keys peaked at 7.12 MiB in key blocks, 10.9 MiB without)."""
    sp = ProjectiveSpace(build_field(3, 1, 3, 1), 2)
    tracemalloc.start()
    try:
        inc = sp.incidence()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inc.shape == (757, 757) and (inc.sum(axis=1) == 28).all()
    assert peak <= 7 * 2 ** 20, peak


@pytest.mark.parametrize("params", [(2, 1, 2), (3, 1, 2)], ids=["Q4", "Q9"])
def test_line_point_and_pencil_lists_match_incidence(params):
    sp = ProjectiveSpace(build_field(*params, 1), 2)
    inc = sp.incidence()
    for i in range(sp.n_points):
        on_line = np.nonzero(inc[i])[0]
        through = np.nonzero(inc[:, i])[0]
        assert np.array_equal(sp.line_points(i), on_line)
        assert np.array_equal(sp.line_points(sp.line_vec(i)), on_line)
        assert np.array_equal(sp.point_lines(i), through)
        assert sp.pencil(sp.point_vec(i)).line_ids == tuple(through.tolist())


def test_line_list_budget_checked_before_any_point(monkeypatch):
    """The lines of PG(2,163) need more than the line-list budget; the
    construction refuses them before it computes any point."""
    t = build_field(163, 1, 1, 1)
    sp = ProjectiveSpace(t, 2)

    def no_points(*args):
        raise AssertionError("a point of a line was computed")
    for name in ("vneg", "vmul", "vadd"):
        monkeypatch.setattr(t, name, no_points)
    monkeypatch.setattr(sp, "index_rows", no_points)
    with pytest.raises(CapExceeded, match="PG.2,163.*32 MiB line-list budget"):
        lines_points_array(sp)
    assert sp._lines_points is None


def test_point_budget_checked_before_enumeration(monkeypatch):
    def no_points(self):
        raise AssertionError("the points were enumerated")
    monkeypatch.setattr(projective, "POINTS_BUDGET", 1 << 10)
    monkeypatch.setattr(ProjectiveSpace, "_enumerate", no_points)
    with pytest.raises(CapExceeded, match="PG.2,27.*point-array budget"):
        ProjectiveSpace(build_field(3, 1, 3, 1), 2)


def test_index_rows_matches_scalar():
    t = build_field(3, 1, 2, 1)
    sp = projective_space(t, 2)
    rng = np.random.default_rng(3)
    rows = rng.integers(0, t.order, size=(200, 3)).astype(np.uint32)
    rows = rows[rows.any(axis=1)]
    idx = sp.index_rows(rows)
    for r, i in zip(rows, idx):
        assert sp.point_index(tuple(int(x) for x in r)) == int(i)


def test_standard_subline_is_detected():
    t = build_field(3, 1, 2, 1)          # PG(1, 9), q = 3
    sp = projective_space(t, 1)
    ids = [sp.point_index((0, 1))] + [sp.point_index((1, c)) for c in t.subfield]
    assert sp.is_fq_subline(ids)
    # replace one point by a parameter outside F_3
    alpha = 3
    broken = ids[:-1] + [sp.point_index((1, alpha))]
    assert not sp.is_fq_subline(broken)
    with pytest.raises(ValueError):
        sp.is_fq_subline(ids[:-1])


def test_subline_on_a_plane_line():
    t = build_field(2, 1, 3, 1)
    sp = projective_space(t, 2)
    # points (x, 1, 0) with x in F_2, plus (1, 0, 0), on the line x3 = 0
    ids = [sp.point_index((1, 0, 0)), sp.point_index((0, 1, 0)),
           sp.point_index((1, 1, 0))]
    assert sp.is_fq_subline(ids)
    alpha = 2
    ids_bad = ids[:-1] + [sp.point_index((alpha, 1, 0))]
    assert sp.is_fq_subline(ids_bad)     # any 3 distinct points form a PG(1,2)
    with pytest.raises(ValueError):
        sp.is_fq_subline([0, 1, sp.point_index((1, 1, 1))])  # not collinear


def test_subline_translates_of_f3():
    t = build_field(3, 1, 3, 1)          # PG(1, 27)
    sp = projective_space(t, 1)
    good = [sp.point_index((0, 1))] + [sp.point_index((1, c)) for c in (0, 1, 2)]
    assert sp.is_fq_subline(good)
    bad = good[:-1] + [sp.point_index((1, 3))]
    assert not sp.is_fq_subline(bad)


# (p, e, n): T8, T9, T27, the tower (2, 2, 2) and the degree-1 tower F_4 / F_4
ORACLE_TOWERS = [(2, 1, 3), (3, 1, 2), (3, 1, 3), (2, 2, 2), (2, 2, 1)]
ORACLE_IDS = ["T8", "T9", "T27", "T16-q4", "T4-n1"]


def _oracle_subline(sp, p0, p1, p2):
    """The F_q-subline through three distinct collinear points, by
    enumeration: p2 = alpha p0 + beta p1 for some alpha, beta, found among
    all pairs; with a = alpha p0 and b = beta p1 the subline is the point
    set {lam a + mu b : (lam:mu) in PG(1,q)}."""
    t = sp.tower
    u, v, w = (sp.points[i].astype(np.int64) for i in (p0, p1, p2))
    x = np.arange(t.order)
    combos = t.vadd(t.vmul(x[:, None, None], u), t.vmul(x[None, :, None], v))
    alpha, beta = np.argwhere((combos == w).all(axis=2))[0]
    a, b = t.vmul(int(alpha), u), t.vmul(int(beta), v)
    params = [(1, mu) for mu in t.subfield] + [(0, 1)]
    return {sp.point_index(tuple(int(c) for c in t.vadd(t.vmul(lam, a), t.vmul(mu, b))))
            for lam, mu in params}


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("params", ORACLE_TOWERS, ids=ORACLE_IDS)
def test_sublines_match_enumeration(params, d):
    """The batch subline test against the subline through the first three
    points of each row, enumerated: random (q+1)-subsets of random lines
    and true sublines, each row shuffled."""
    sp = projective_space(build_field(*params, 1), d)
    q = sp.tower.q
    rng = np.random.default_rng(sum(params) + d)
    rows, expect = [], []
    for k in range(60):
        line = (np.arange(sp.n_points) if d == 1
                else sp.line_points(int(rng.integers(sp.n_points))))
        row = rng.choice(line, size=q + 1, replace=False)
        if k % 2:
            row = np.array(sorted(_oracle_subline(sp, *row[:3].tolist())))
            rng.shuffle(row)
        rows.append(row)
        expect.append(set(row.tolist()) == _oracle_subline(sp, *row[:3].tolist()))
    got = sp.sublines(np.array(rows))
    assert got.tolist() == expect
    assert all(expect[1::2])
    # the K = 1 caller agrees
    assert [sp.is_fq_subline(r) for r in rows[:10]] == expect[:10]


@pytest.mark.parametrize("params", ORACLE_TOWERS, ids=ORACLE_IDS)
def test_collinear_triples_match_scalar_collinear(params):
    """The zero pattern of the batch determinant test against the scalar
    `collinear` on random triples of rows of random points, some rows
    drawn from one line."""
    sp = projective_space(build_field(*params, 1), 2)
    rng = np.random.default_rng(sum(params))
    rows = rng.integers(sp.n_points, size=(40, 5))
    for k in range(0, 40, 3):
        rows[k, :3] = rng.choice(sp.line_points(int(rng.integers(sp.n_points))), 3)
    triples = rng.integers(5, size=(12, 3))
    triples[0] = (0, 1, 2)
    got = sp.collinear_triples(rows, triples)
    expect = [[sp.collinear(*row[list(tri)].tolist()) for tri in triples] for row in rows]
    assert got.tolist() == expect
    assert got.any() and not got.all()


def test_subline_and_arc_errors():
    """The K = 1 callers keep their errors: a subline test needs q+1
    distinct points, on the line and in the plane, and the arc test of
    three or more points needs the plane."""
    t = build_field(3, 1, 2, 1)
    line, plane = projective_space(t, 1), projective_space(t, 2)
    for sp in (line, plane):
        with pytest.raises(ValueError, match="distinct points"):
            sp.is_fq_subline([0, 1, 2])
        with pytest.raises(ValueError, match="distinct points"):
            sp.is_fq_subline([0, 1, 2, 2])
    assert is_arc([0, 1], line)
    with pytest.raises(ValueError, match="requires PG"):
        is_arc([0, 1, 2], line)
    assert not is_arc([0, 1, 1], plane)


def test_incidence_cap_raises_before_allocating():
    """Past its cell cap the dense incidence raises CapExceeded, like every
    other cap, before it allocates anything: PG(2,343) would need 1.4e10
    cells."""
    sp = projective_space(build_field(7, 1, 3, 1), 2)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match="cell cap"):
            sp.incidence()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sp._incidence is None
    assert peak < 2 ** 16, peak


def test_canonical_subplane():
    sp8 = projective_space(build_field(2, 1, 3, 1), 2)
    sub = sp8.canonical_subplane()
    assert len(sub.point_ids) == 7
    sp27 = projective_space(build_field(3, 1, 3, 1), 2)
    sub27 = sp27.canonical_subplane()
    assert len(sub27.point_ids) == 13
    # lines of the subgeometry meet it in exactly q + 1 points
    ids = sorted(sub27.point_ids)
    for a in ids[:5]:
        for b in ids[6:11]:
            if a == b:
                continue
            line = sp27.line_through(a, b)
            hits = set(int(i) for i in sp27.line_points(line)) & sub27.point_ids
            assert len(hits) == 4
