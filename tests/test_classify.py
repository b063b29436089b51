import numpy as np
import pytest

from sigmaconics.census import sample_matrix_entries
from sigmaconics.classify import (KIND_CF, KIND_CONE, KIND_DEGENERATE_CF,
                                  KIND_KESTENBAND, KIND_TWO_LINES,
                                  LINE_EMPTY, LINE_ONE_POINT, LINE_SUBLINE,
                                  LINE_TWO_POINTS, TrinomialSpec,
                                  allowed_cardinalities, classify_line_form,
                                  classify_plane_form, count_trinomial_roots,
                                  _odd_degree_case_checks, is_arc,
                                  kestenband_profile, line_spectrum)
from sigmaconics.fields import build_field
from sigmaconics.forms import SesquiForm, absolute_mask, make_form
from sigmaconics.projective import projective_space

T4 = build_field(2, 1, 2, 1)
T8 = build_field(2, 1, 3, 1)
T9 = build_field(3, 1, 2, 1)
T27 = build_field(3, 1, 3, 1)


def test_line_one_point():
    cls = classify_line_form(SesquiForm(T8, ((1, 0), (0, 0))))
    assert cls.kind == LINE_ONE_POINT and cls.degenerate
    sp = projective_space(T8, 1)
    assert [sp.point_vec(i) for i in cls.point_ids] == [(0, 1)]


def test_line_two_points():
    cls = classify_line_form(SesquiForm(T8, ((0, 1), (0, 0))))
    assert cls.kind == LINE_TWO_POINTS and not cls.degenerate


def test_line_subline():
    cls = classify_line_form(SesquiForm(T9, ((0, 1), (T9.neg(1), 0))))
    assert cls.kind == LINE_SUBLINE and len(cls.point_ids) == 4


def test_line_empty_odd_q():
    # x1^(sigma+1) + d x2^(sigma+1) with -d a non-square
    t = T9
    d = next(x for x in t.units() if not t.is_square(t.neg(x)))
    cls = classify_line_form(SesquiForm(t, ((1, 0), (0, d))))
    assert cls.kind == LINE_EMPTY


def test_line_empty_even_q():
    # q even: empty iff d is not a (q^m + 1)-st power
    t = T4
    d = next(x for x in t.units() if not t.is_sigma_norm_value(x))
    cls = classify_line_form(SesquiForm(t, ((1, 0), (0, d))))
    assert cls.kind == LINE_EMPTY


def test_line_taxonomy_random_sweeps():
    for t, seed in ((T4, 31), (T8, 32), (T9, 33)):
        entries = sample_matrix_entries(t.order, seed, 0, 300)
        for row in entries[:, :4]:
            if not row.any():
                continue
            cls = classify_line_form(make_form(t, [int(x) for x in row]))
            assert len(cls.point_ids) in (0, 1, 2, t.q + 1)
            assert cls.degenerate == (len(cls.point_ids) not in (0, 2, t.q + 1))


def test_plane_degenerate_cf_normal_form():
    # b = 0, d = 1, a != 0 in the radical-normal layout
    cls = classify_plane_form(SesquiForm(T8, ((0, 3, 0), (0, 2, 1), (0, 0, 0))))
    assert cls.kind == KIND_DEGENERATE_CF
    assert cls.vertices == ((1, 0, 0), (0, 0, 1))
    assert cls.absolute_count == 17 and cls.tangent_value == 0


def test_plane_cf_normal_form():
    # d = 0, b = 1, c != 0
    cls = classify_plane_form(SesquiForm(T8, ((0, 0, 1), (0, 5, 0), (0, 0, 0))))
    assert cls.kind == KIND_CF and cls.absolute_count == 9
    assert cls.tangent_value != 0


def test_plane_cone():
    cls = classify_plane_form(SesquiForm(T8, ((0, 0, 0), (0, 1, 0), (0, 0, 1))))
    assert cls.kind == KIND_CONE and cls.vertex == (1, 0, 0)
    assert cls.base is not None


def test_plane_two_lines():
    form = SesquiForm(T8, ((0, 0, 1), (0, 0, 0), (0, 0, 0)))   # x1 x3^sigma
    cls = classify_plane_form(form)
    assert cls.kind == KIND_TWO_LINES
    assert set(cls.radical_lines) == {(1, 0, 0), (0, 0, 1)}
    assert cls.absolute_count == 17
    sp = projective_space(T8, 2)
    spec = line_spectrum(cls.point_ids, sp)
    assert sorted(np.nonzero(spec == 9)[0].tolist()) == sorted(
        [sp.line_index((1, 0, 0)), sp.line_index((0, 0, 1))])


def test_plane_rank_dispatch_random():
    for t, seed in ((T4, 41), (T8, 42), (T27, 43)):
        entries = sample_matrix_entries(t.order, seed, 0, 150)
        for row in entries:
            if not row.any():
                continue
            form = make_form(t, [int(x) for x in row])
            cls = classify_plane_form(form)
            if cls.rank == 3:
                assert cls.kind == KIND_KESTENBAND
            else:
                assert cls.kind != KIND_KESTENBAND
            if cls.kind == KIND_CF:
                assert cls.absolute_count == t.order + 1
            if cls.kind == KIND_DEGENERATE_CF:
                assert cls.absolute_count == 2 * t.order + 1


def test_zero_form_rejected():
    with pytest.raises(ValueError):
        classify_plane_form(SesquiForm(T8, ((0,) * 3,) * 3))


def test_spectrum_values_and_sublines():
    sp = projective_space(T8, 2)
    q = T8.q
    entries = sample_matrix_entries(T8.order, 51, 0, 60)
    for row in entries:
        if not row.any():
            continue
        form = make_form(T8, [int(x) for x in row])
        mask = absolute_mask(form)
        spec = line_spectrum(mask, sp)
        vals = set(int(v) for v in np.unique(spec))
        assert vals <= {0, 1, 2, q + 1, T8.order + 1}
        if form.rank() == 3:
            assert T8.order + 1 not in vals
        # every (q+1)-line is a subline of the absolute set
        for lid in np.nonzero(spec == q + 1)[0][:4]:
            from sigmaconics.classify import lines_points_array
            pts = lines_points_array(sp)[lid]
            hits = [int(p) for p in pts if mask[p]]
            assert sp.is_fq_subline(hits)


def test_trinomial_counts():
    # s = 0: roots are 0 and the unique solution of x^(q^m) = -rho/r
    assert count_trinomial_roots(TrinomialSpec(T8, r=1, rho=3, s=0)) == 2
    # rho = 0, s = -r: count = gcd(q^m + 1, q^n - 1)
    assert count_trinomial_roots(TrinomialSpec(T8, r=1, rho=0, s=T8.neg(1))) == 1
    assert count_trinomial_roots(
        TrinomialSpec(T9, r=1, rho=0, s=T9.neg(1))) == np.gcd(3 + 1, 8)
    with pytest.raises(ValueError):
        count_trinomial_roots(TrinomialSpec(T8, r=0, rho=1, s=1))


@pytest.mark.parametrize("tower", [T4, T8, T9])
def test_trinomial_exhaustive_sweeps(tower):
    t = tower
    allowed = {0, 1, 2, t.q + 1}
    tbl = t.pow_table(t.q ** t.m + 1)
    x = np.arange(t.order, dtype=np.uint32)
    for r in t.units():
        rx = t.vmul(np.uint32(r), tbl)
        for rho in t.elements():
            rrx = t.vadd(rx, t.vmul(np.uint32(rho), x))
            for s in t.elements():
                count = int((t.vadd(rrx, np.uint32(s)) == 0).sum())
                assert count in allowed


def test_kestenband_profile_identity_pg2_8():
    prof = kestenband_profile(SesquiForm(T8, ((1, 0, 0), (0, 1, 0), (0, 0, 1))))
    assert prof.absolute_count == 9 and prof.epsilon == 0
    assert (prof.fixed_in, prof.fixed_out) == (3, 4)
    assert prof.violations == ()


def test_kestenband_profile_diagonal_pg2_4():
    a = next(x for x in T4.units() if not T4.is_sigma_norm_value(x))
    prof = kestenband_profile(SesquiForm(T4, ((1, 0, 0), (0, 1, 0), (0, 0, a))))
    assert prof.absolute_count == 3
    prof_i = kestenband_profile(SesquiForm(T4, ((1, 0, 0), (0, 1, 0), (0, 0, 1))))
    assert prof_i.absolute_count == 9
    assert (prof_i.fixed_in, prof_i.fixed_out) == (9, 12)  # identity collineation


def test_kestenband_profile_errors():
    with pytest.raises(ValueError):
        kestenband_profile(SesquiForm(T8, ((0, 0, 1), (0, 1, 0), (0, 0, 0))))
    t_prime = build_field(5, 1, 1, 1)
    with pytest.raises(ValueError):
        kestenband_profile(SesquiForm(t_prime, ((1, 0, 0), (0, 1, 0), (0, 0, 1))))


def test_kestenband_profiles_random_clean():
    entries = sample_matrix_entries(T8.order, 61, 0, 400)
    seen = 0
    for row in entries:
        form = make_form(T8, [int(x) for x in row])
        if form.rank() != 3:
            continue
        prof = kestenband_profile(form)
        assert prof.absolute_count in {5, 9, 13}
        assert prof.violations == ()
        seen += 1
    assert seen > 300


def test_allowed_cardinality_menus():
    assert allowed_cardinalities(T8, False)[0] == frozenset({5, 9, 13})
    assert allowed_cardinalities(T27, True)[0] == frozenset({19, 28, 37})
    assert allowed_cardinalities(T4, True)[0] == frozenset({3, 9})
    assert allowed_cardinalities(T9, True)[0] == frozenset({4, 16, 28})
    assert allowed_cardinalities(T9, False)[0] == frozenset({1, 4, 7, 10, 13, 16, 28})


def test_is_arc():
    sp = projective_space(T8, 2)
    triangle = [sp.point_index(v) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    assert is_arc(triangle, sp)
    line_pts = sp.line_points(sp.line_through((1, 0, 0), (0, 1, 0)))
    assert not is_arc(line_pts, sp)


def test_is_arc_refuses_more_than_q_plus_2_points(monkeypatch):
    """No arc of PG(2,Q) has more than Q + 2 points: 120 points of PG(2,27)
    are refused without a collinearity test of their C(120, 3) triples,
    and 29 points are still tested.  On a line the test still raises."""
    sp = projective_space(T27, 2)
    calls = []
    triples = sp.collinear_triples

    def watched(ids, cols):
        calls.append(len(cols))
        return triples(ids, cols)
    monkeypatch.setattr(sp, "collinear_triples", watched)
    assert not is_arc(range(0, 1200, 10), sp)
    assert calls == []
    assert not is_arc(range(29), sp)
    assert calls == [29 * 28 * 27 // 6]
    with pytest.raises(ValueError, match="requires PG"):
        is_arc(range(3), projective_space(T27, 1))


def test_odd_q_subplane_profile_accepts_conic_arc():
    # 13 fixed points, 4 of them absolute and forming an arc of PG(2,3)
    form = make_form(T27, [13, 11, 24, 17, 3, 1, 1, 12, 23])
    sp = projective_space(T27, 2)
    prof = kestenband_profile(form)
    assert (prof.fixed_in, prof.fixed_out, prof.epsilon) == (4, 9, 0)
    absolute = absolute_mask(form)
    on_set = [i for i in prof.fixed_ids if absolute[i]]
    assert is_arc(on_set, sp)
    assert prof.violations == ()


def _subplane_case_violations(tower, form, vecs, fixed_out):
    sp = projective_space(tower, 2)
    mask = np.zeros(sp.n_points, dtype=bool)
    mask[[sp.point_index(v) for v in vecs]] = True
    q = tower.q
    return _odd_degree_case_checks(sp, mask[None], mask[None], np.array([0]),
                                   np.array([q + 1]), np.array([fixed_out]))[0]


def test_fixed_points_on_set_shape_checks():
    form = make_form(T27, [13, 11, 24, 17, 3, 1, 1, 12, 23])
    line = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 0)]
    arc = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    neither = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)]
    assert _subplane_case_violations(T27, form, line, 9) == []
    assert _subplane_case_violations(T27, form, arc, 9) == []
    assert _subplane_case_violations(T27, form, neither, 9) == [
        "the q+1 fixed points on the set are neither collinear nor an arc"]
    # off the pointwise-subplane profile the points must stay collinear
    assert "the q+1 fixed points on the set are not collinear" in \
        _subplane_case_violations(T27, form, arc, 1)
    # and for even q an arc of q+1 = 3 points is always flagged
    even = make_form(T8, [1, 0, 0, 0, 1, 0, 0, 0, 1])
    assert "the q+1 fixed points on the set are not collinear" in \
        _subplane_case_violations(T8, even, arc[:3], 4)
