import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmaconics import census
from sigmaconics.census import LineKernel, PlaneKernel, sample_matrix_entries
from sigmaconics.fields import build_field
from sigmaconics.forms import (SesquiForm, absolute_mask, absolute_points,
                               collineation_images, congruence_transform,
                               fixed_points, form_values,
                               induced_collineation,
                               is_polarity, is_reflexive, make_form, radicals)
from sigmaconics.linalg import (cross3, dot, mat_rank, mat_sigma, vcross, vdot,
                                vranks)
from sigmaconics.projective import projective_space

T8 = build_field(2, 1, 3, 1)
T4 = build_field(2, 1, 2, 1)
T27 = build_field(3, 1, 3, 1)

IDENT = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def rand_forms(tower, count, seed, invertible=None):
    entries = sample_matrix_entries(tower.order, seed, 0, count)
    for row in entries:
        if not row.any():
            continue
        form = make_form(tower, [int(x) for x in row])
        if invertible is None or (form.rank() == 3) == invertible:
            yield form


def test_evaluate_identities():
    f = SesquiForm(T8, IDENT)
    assert f.evaluate((1, 0, 0), (0, 1, 0)) == 0
    assert f.evaluate((1, 0, 0), (1, 0, 0)) == 1


def test_evaluate_semilinearity_laws():
    t = T27
    for form in rand_forms(t, 40, seed=11):
        x, y = (5, 17, 2), (9, 1, 20)
        base = form.evaluate(x, y)
        for a in (2, 7, 26):
            ax = tuple(t.mul(a, c) for c in x)
            ay = tuple(t.mul(a, c) for c in y)
            assert form.evaluate(ax, y) == t.mul(a, base)
            assert form.evaluate(x, ay) == t.mul(t.sigma(a), base)


def test_radicals_invertible_are_trivial():
    rp = radicals(SesquiForm(T8, IDENT))
    assert rp.rank == 3 and rp.left == () and rp.right == ()


def test_radicals_rank_one():
    rp = radicals(SesquiForm(T8, ((0, 0, 0), (0, 0, 0), (1, 2, 3))))
    assert rp.rank == 1 and len(rp.left) == 2 and len(rp.right) == 2


def test_radicals_normal_form_vertices():
    # zero first column and zero last row: right radical (1,0,0), left (0,0,1)
    rp = radicals(SesquiForm(T8, ((0, 1, 1), (0, 1, 0), (0, 0, 0))))
    assert rp.rank == 2
    assert rp.right == ((1, 0, 0),) and rp.left == ((0, 0, 1),)


def test_radical_dimensions_always_agree():
    for tower, seed in ((T8, 1), (T27, 2), (T4, 3)):
        for form in rand_forms(tower, 300, seed):
            rp = radicals(form)
            assert len(rp.left) == len(rp.right) == 3 - rp.rank
            twisted = mat_sigma(tower, form.matrix, tower.n - tower.m)
            assert mat_rank(tower, twisted) == rp.rank


def test_reflexive_bilinear_cases():
    t5 = build_field(5, 1, 1, 1)         # sigma is the identity here
    sym = SesquiForm(t5, ((1, 2, 0), (2, 3, 4), (0, 4, 1)))
    assert is_reflexive(sym)
    alt = SesquiForm(t5, ((0, 1, 2), (4, 0, 3), (3, 2, 0)))
    assert is_reflexive(alt)


def test_nonreflexive_rank2_form():
    form = SesquiForm(T8, ((0, 0, 1), (0, 1, 0), (0, 0, 0)))
    assert not is_reflexive(form)


def test_polarity_iff_reflexive_for_invertible():
    t16 = build_field(2, 2, 2, 1)        # sigma^2 = 1 available
    checked = 0
    for tower, seed in ((T4, 5), (t16, 6), (T8, 7)):
        for form in rand_forms(tower, 60, seed, invertible=True):
            assert is_polarity(form) == is_reflexive(form)
            checked += 1
    assert checked > 50


def test_polarity_iff_reflexive_exhaustive_2x2():
    # every invertible 2x2 matrix over F_4
    t = T4
    for a in t.elements():
        for b in t.elements():
            for c in t.elements():
                for d in t.elements():
                    if t.sub(t.mul(a, d), t.mul(b, c)) == 0:
                        continue
                    form = SesquiForm(t, ((a, b), (c, d)))
                    assert is_polarity(form) == is_reflexive(form)


def test_hermitian_identity_is_polarity():
    assert is_polarity(SesquiForm(T4, IDENT))
    assert not is_polarity(SesquiForm(T8, IDENT))   # sigma^2 != 1 on F_8
    with pytest.raises(ZeroDivisionError):
        is_polarity(SesquiForm(T8, ((0, 0, 1), (0, 1, 0), (0, 0, 0))))


def test_absolute_points_two_point_quadric():
    form = SesquiForm(T8, ((0, 1), (0, 0)))
    sp = projective_space(T8, 1)
    ids = absolute_points(form).point_ids
    assert {sp.point_vec(i) for i in ids} == {(0, 1), (1, 0)}


def test_absolute_points_hermitian_curve_pg2_4():
    assert len(absolute_points(SesquiForm(T4, IDENT))) == 9


def test_absolute_set_scalar_invariant():
    for form in rand_forms(T27, 60, seed=13):
        m1 = absolute_mask(form)
        for rho in (2, 9, 26):
            assert np.array_equal(m1, absolute_mask(form.scaled(rho)))


def test_collineation_identity_when_sigma_squared_trivial():
    coll = induced_collineation(SesquiForm(T4, IDENT))
    assert len(fixed_points(coll)) == 21


def test_collineation_fixes_subplane_pg2_8():
    sp = projective_space(T8, 2)
    mask = absolute_mask(SesquiForm(T8, IDENT))
    fixed = fixed_points(induced_collineation(SesquiForm(T8, IDENT)))
    assert len(fixed) == 7
    assert set(fixed) == set(sp.canonical_subplane().point_ids)
    assert sum(1 for i in fixed if mask[i]) == 3


def test_collineation_permutes_absolute_set():
    sp = projective_space(T8, 2)
    for form in rand_forms(T8, 80, seed=17, invertible=True):
        mask = absolute_mask(form)
        img = collineation_images(induced_collineation(form), sp)
        assert sorted(img) == list(range(sp.n_points))     # bijection
        assert np.array_equal(mask[img], mask)


def test_congruence_transform_preserves_cardinality():
    sp = projective_space(T27, 2)
    mats = [m for m in rand_forms(T27, 40, seed=19, invertible=True)]
    forms = [f for f in rand_forms(T27, 40, seed=23)]
    for form, mform in zip(forms, mats):
        b = congruence_transform(form, mform.matrix)
        ma, mb = absolute_mask(form), absolute_mask(b)
        assert ma.sum() == mb.sum()
        # the transformed set is the preimage of the original under x -> Mx
        t = T27
        from sigmaconics.linalg import mat_vec
        cols = np.array([mat_vec(t, mform.matrix, sp.point_vec(i))
                         for i in range(sp.n_points)], dtype=np.uint32)
        assert np.array_equal(mb, ma[sp.index_rows(cols)])


def test_make_form_shapes():
    assert make_form(T8, [1, 0, 0, 1]).d == 1
    assert make_form(T8, [0, 1, 2, 3, 4, 5, 6, 7, 0]).d == 2
    with pytest.raises(ValueError):
        make_form(T8, [1, 2, 3])
    for bad in (8, -1):
        with pytest.raises(ValueError, match=f"matrix entry {bad} at row 3, "
                                             "column 3 is outside 0..7"):
            make_form(T8, [0, 1, 2, 3, 4, 5, 6, 7, bad])


# -- the shared vectorised evaluators against their scalar references --------

T64 = build_field(2, 2, 3, 1)
SHARED_TOWERS = [T8, T27, T64]


def _entries(tower, count, seed, size=9):
    return sample_matrix_entries(tower.order, seed, 0, count)[:, :size]


def _evaluate(tower, entries, x, y):
    return make_form(tower, [int(v) for v in entries]).evaluate(
        tuple(int(v) for v in x), tuple(int(v) for v in y))


@pytest.mark.parametrize("tower", SHARED_TOWERS, ids=lambda t: f"F{t.order}")
def test_form_values_batched_pairs(tower):
    e = _entries(tower, 200, seed=41)
    x = _entries(tower, 200, seed=42, size=3)
    y = _entries(tower, 200, seed=43, size=3)
    got = form_values(tower, e, x, y)
    assert got.shape == (200,)
    assert got.tolist() == [_evaluate(tower, *args) for args in zip(e, x, y)]


@pytest.mark.parametrize("tower", SHARED_TOWERS, ids=lambda t: f"F{t.order}")
def test_form_values_one_form_over_all_points(tower):
    pts = projective_space(tower, 2).points
    for e in _entries(tower, 2, seed=44):
        got = form_values(tower, e, pts, pts)
        assert got.tolist() == [_evaluate(tower, e, p, p) for p in pts]
        assert np.array_equal(got == 0, absolute_mask(make_form(
            tower, [int(v) for v in e])))


@pytest.mark.parametrize("tower", SHARED_TOWERS, ids=lambda t: f"F{t.order}")
def test_form_values_one_form_over_point_pairs(tower):
    pts = projective_space(tower, 2).points
    pts = pts[np.linspace(0, len(pts) - 1, 30).astype(int)]
    e = _entries(tower, 1, seed=45)[0]
    got = form_values(tower, e, pts[:, None], pts[None, :])
    assert got.shape == (30, 30)
    assert got.tolist() == [[_evaluate(tower, e, u, v) for v in pts] for u in pts]


@pytest.mark.parametrize("tower", SHARED_TOWERS, ids=lambda t: f"F{t.order}")
def test_form_values_line_forms_over_pg1(tower):
    pts = projective_space(tower, 1).points
    blocks = _entries(tower, 12, seed=46, size=4)
    got = form_values(tower, blocks[:, None, :], pts[None], pts[None])
    assert got.shape == (12, tower.order + 1)
    assert got.tolist() == [[_evaluate(tower, b, p, p) for p in pts]
                            for b in blocks]


@pytest.mark.parametrize("tower", SHARED_TOWERS, ids=lambda t: f"F{t.order}")
def test_vdot_matches_scalar_dot(tower):
    u = _entries(tower, 50, seed=47, size=3)
    v = _entries(tower, 40, seed=48, size=3)
    got = vdot(tower, u[:, None, :], v[None, :, :])
    assert got.shape == (50, 40)
    assert got.tolist() == [[dot(tower, tuple(int(c) for c in a),
                                 tuple(int(c) for c in b)) for b in v] for a in u]
    assert np.array_equal(vdot(tower, u[:40], v), np.diagonal(got[:40]))


# -- the batch rank against row reduction ------------------------------------

@st.composite
def _planted_batches(draw, tower, widths=(2, 3, 4)):
    """(K, 3, c) batches, each matrix a sum of r outer products u v^T, so
    every rank from 0 to 3 is planted; returns the batch and the r."""
    c = draw(st.sampled_from(widths))
    elem = st.integers(0, tower.order - 1)
    mats, planted = [], []
    for _ in range(draw(st.integers(1, 12))):
        r = draw(st.integers(0, 3))
        m = np.zeros((3, c), dtype=np.uint32)
        for _ in range(r):
            u = np.array(draw(st.lists(elem, min_size=3, max_size=3)), dtype=np.uint32)
            v = np.array(draw(st.lists(elem, min_size=c, max_size=c)), dtype=np.uint32)
            m = tower.vadd(m, tower.vmul(u[:, None], v[None, :]))
        mats.append(m)
        planted.append(r)
    return np.stack(mats), planted


@pytest.mark.parametrize("tower", SHARED_TOWERS, ids=lambda t: f"F{t.order}")
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_vranks_matches_mat_rank(tower, data):
    mats, planted = data.draw(_planted_batches(tower))
    ranks = vranks(tower, mats).tolist()
    assert ranks == [mat_rank(tower, tuple(map(tuple, m.tolist()))) for m in mats]
    assert all(r <= p for r, p in zip(ranks, planted))


@pytest.mark.parametrize("tower", SHARED_TOWERS, ids=lambda t: f"F{t.order}")
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_vcross_matches_cross3(tower, data):
    vecs = st.lists(st.lists(st.integers(0, tower.order - 1), min_size=3,
                             max_size=3), min_size=1, max_size=8)
    u = np.array(data.draw(vecs), dtype=np.uint32)
    v = np.array(data.draw(vecs), dtype=np.uint32)
    got = vcross(tower, u[:, None], v[None, :])
    assert got.shape == (len(u), len(v), 3)
    assert got.tolist() == [[list(cross3(tower, a, b)) for b in v.tolist()]
                            for a in u.tolist()]


# -- the count kernel's entry tables against the evaluator -------------------

# p = 2 at F_8, odd p at F_9, F_27, F_49 and F_81 (degree 4 over F_3), and
# F_16 = (2, 2, 2) and F_64 = (2, 2, 3) over the extension subfield F_4
KERNEL_TOWERS = [T8, build_field(3, 1, 2, 1), build_field(2, 2, 2, 1), T27,
                 build_field(7, 1, 2, 1), build_field(2, 2, 3, 1),
                 build_field(3, 1, 4, 1)]


@pytest.fixture(scope="module")
def kernels():
    """Count kernels built once per tower for this module, not cached on the
    plane, so the larger tables are dropped with the module."""
    return {}


@pytest.mark.parametrize("tower", KERNEL_TOWERS, ids=lambda t: f"F{t.order}")
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_kernel_masks_match_form_values(tower, kernels, data):
    # for odd p a slip in the lazy digit sums or the zero table shows up here
    mats, _ = data.draw(_planted_batches(tower, widths=(3,)))
    e = mats.reshape(-1, 9)
    space = projective_space(tower, 2)
    if tower.order not in kernels:
        kernels[tower.order] = PlaneKernel(space)
    kern = kernels[tower.order]
    assert len(kern.h) == 9 and "smul" not in vars(kern)
    pts = space.points
    expect = form_values(tower, e[:, None, :], pts[None], pts[None]) == 0
    assert np.array_equal(kern.masks(*kern.row_encode(e)), expect)
    assert np.array_equal(kern.counts(*kern.row_encode(e)), expect.sum(axis=1))


@pytest.mark.parametrize("tower", [KERNEL_TOWERS[k] for k in (0, 3, 6)],
                         ids=["F8-xor", "F27-digits", "F81-degree4"])
@pytest.mark.parametrize("rows", [1, 7])
def test_kernel_row_blocks_match_form_values(tower, rows, kernels, monkeypatch):
    """With the accumulator block cut to `rows` rows, 52 matrices (not a
    multiple of it, the zero matrix among them) give the evaluator's masks
    and counts; an index past an entry table is refused."""
    space = projective_space(tower, 2)
    if tower.order not in kernels:
        kernels[tower.order] = PlaneKernel(space)
    kern = kernels[tower.order]
    assert len(kern.h) == 9
    monkeypatch.setattr(census, "_KERNEL_BLOCK",
                        rows * space.n_points * kern.h[0].itemsize)
    e = sample_matrix_entries(tower.order, 5, 0, 52)
    e[3] = 0
    pts = space.points
    expect = form_values(tower, e[:, None, :], pts[None], pts[None]) == 0
    assert np.array_equal(kern.masks(*kern.row_encode(e)), expect)
    assert np.array_equal(kern.counts(*kern.row_encode(e)), expect.sum(axis=1))
    idx = list(kern.row_encode(e[:2]))
    idx[-1] = idx[-1] + len(kern.h[-1])
    with pytest.raises(IndexError):
        kern.masks(*idx)


# -- the line-count kernel against the point kernel and the PG(1) forms ------

def _line_rows(tower, count, seed):
    """(count, 9) sampled rows of every rank with the cases the line kernel
    treats apart: a22 = 0; a whole line through R = (0,0,1) absolute, its
    restricted 2x2 form zero (l_0, l_inf and l_1); outer products of rank
    1 and sums of two of rank <= 2; the zero form."""
    t = tower
    e = sample_matrix_entries(t.order, seed, 0, count)
    uv = sample_matrix_entries(t.order, seed + 1, 0, count)
    outer = t.vmul(uv[:, :3, None], uv[:, None, 3:6]).reshape(-1, 9)
    pair = t.vadd(outer, t.vmul(uv[:, 6:, None], uv[:, None, :3]).reshape(-1, 9))
    part = np.array_split(np.arange(count), 7)
    e[part[0], 8] = 0
    e[np.ix_(part[1], [0, 2, 6, 8])] = 0        # l_0 restricts to (a00, a02, a20, a22)
    e[np.ix_(part[2], [4, 5, 7, 8])] = 0        # l_inf to (a11, a12, a21, a22)
    one = part[3]                               # l_1: b00 = a00+a01+a10+a11, ...
    e[one, 8] = 0
    e[one, 2] = t.vneg(e[one, 5])
    e[one, 6] = t.vneg(e[one, 7])
    e[one, 0] = t.vneg(t.vadd(t.vadd(e[one, 1], e[one, 3]), e[one, 4]))
    e[part[4]] = outer[part[4]]
    e[part[5]] = pair[part[5]]
    e[part[6][0]] = 0
    return e


def _point_counts(kernels, tower, e):
    space = projective_space(tower, 2)
    if tower.order not in kernels:
        kernels[tower.order] = PlaneKernel(space)
    kern = kernels[tower.order]
    return kern.counts(*kern.row_encode(e))


@pytest.mark.parametrize("tower", KERNEL_TOWERS, ids=lambda t: f"F{t.order}")
def test_line_counts_match_point_kernel(tower, kernels):
    e = _line_rows(tower, 350, seed=61)
    ranks = vranks(tower, e.reshape(-1, 3, 3))
    assert set(ranks.tolist()) == {0, 1, 2, 3}
    assert np.array_equal(LineKernel(tower).counts(e), _point_counts(kernels, tower, e))


# (p, e, n, m): Q = 2, 3, 4, 5, 25, 32 and 125, and sigma = x^(q^2) on F_8
LINE_TOWERS = [(2, 1, 1, 1), (3, 1, 1, 1), (2, 1, 2, 1), (5, 1, 1, 1),
               (5, 1, 2, 1), (2, 1, 5, 1), (5, 1, 3, 1), (2, 1, 3, 2)]


@pytest.mark.parametrize("params", LINE_TOWERS, ids=lambda a: "F%d^%d-m%d" % (
    a[0], a[1] * a[2], a[3]))
def test_line_counts_match_point_kernel_sampled(params):
    tower = build_field(*params)
    e = _line_rows(tower, 140, seed=62)
    assert np.array_equal(LineKernel(tower).counts(e), _point_counts({}, tower, e))


@pytest.mark.parametrize("params", LINE_TOWERS + [(3, 1, 2, 1), (3, 1, 3, 1)],
                         ids=lambda a: "F%d^%d-m%d" % (a[0], a[1] * a[2], a[3]))
def test_line_count_table_matches_pg1_forms(params):
    """The count table against the scalar evaluation of each 2x2 form b
    on the points of PG(1): every entry for Q <= 9, 300 sampled above."""
    tower = build_field(*params)
    Q = tower.order
    table = LineKernel(tower).count
    assert table.shape == (2 * Q ** 3,)
    idx = np.arange(2 * Q ** 3)
    if Q > 9:
        idx = sample_matrix_entries(len(idx), 63, 0, 300)[:, 0].astype(np.int64)
    pts = projective_space(tower, 1).points
    for i in idx.tolist():
        b11, b01, b10, b00 = i // Q ** 3, i // Q ** 2 % Q, i // Q % Q, i % Q
        b = (b00, b01, b10, b11)
        assert table[i] == sum(_evaluate(tower, b, x, x) == 0 for x in pts), b


# (p, e, n, m) and the number of sampled forms: sigma of order 2 (F9, and
# F16 over F4), 3 (F8 with m = 1 and 2, F27; one table set with the count
# kernel), 4 (F16 with m = 1 and 3), 5 (F32), 6 (F64) and 7 (F128)
FIXED_TOWERS = {"F9": ((3, 1, 2, 1), 30), "F16-q4": ((2, 2, 2, 1), 30),
                "F8": ((2, 1, 3, 1), 30), "F8-m2": ((2, 1, 3, 2), 30),
                "F27": ((3, 1, 3, 1), 30), "F16": ((2, 1, 4, 1), 30),
                "F16-m3": ((2, 1, 4, 3), 30), "F32": ((2, 1, 5, 1), 30),
                "F64": ((2, 1, 6, 1), 30), "F128": ((2, 1, 7, 1), 3)}


def _fixed_case(monkeypatch, params, count) -> tuple:
    """The plane, the entries of the identity and `count` sampled
    invertible forms, and the fixed points of their scalar collineations
    (A^T)^-1 A^sigma.  The plane's point kernels start empty and are
    dropped with the test."""
    tower = build_field(*params)
    space = projective_space(tower, 2)
    monkeypatch.setattr(space, "_kernels", {})
    forms = [SesquiForm(tower, IDENT)] + list(rand_forms(tower, count, 8, True))
    return space, np.stack([f.entries for f in forms]), [
        fixed_points(induced_collineation(f)) for f in forms]


def _ids(masks) -> list:
    return [tuple(np.nonzero(row)[0].tolist()) for row in masks]


@pytest.mark.parametrize("name", FIXED_TOWERS)
def test_fixed_point_masks_match_collineation_images(name, monkeypatch):
    """The kernel's fixed points, three six-term sums over the tables of
    Frobenius power -2, are those of the scalar collineation of each form."""
    space, e, expect = _fixed_case(monkeypatch, *FIXED_TOWERS[name])
    assert _ids(census.fixed_masks(space, e)) == expect


@pytest.mark.parametrize("name", ["F9", "F27"])
def test_planted_fixed_table_fault_is_caught(name, monkeypatch):
    """One wrong cell of the fixed-point tables is caught by the scalar
    collineation: h[5][1, R] = 1 P_1 R_2^tau is 0 at R = (0, 0, 1), and
    set to 1 it unfixes R, which the identity fixes."""
    space, e, expect = _fixed_case(monkeypatch, *FIXED_TOWERS[name])
    assert _ids(census.fixed_masks(space, e)) == expect
    census.plane_kernel(space, -2).h[5][1, 0] = 1
    got = _ids(census.fixed_masks(space, e))
    assert got != expect and got[0] == expect[0][1:]
