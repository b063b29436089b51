import numpy as np
import pytest

from sigmaconics.census import sample_matrix_entries
from sigmaconics.cfsets import (cf_canonical, cf_degenerate_canonical,
                                components, embed_subplane_in_component,
                                exterior_set, pencil_collineation,
                                pencil_collineation_from_form,
                                steiner_generate, steiner_locus,
                                steiner_matches_form, verify_exterior)
from sigmaconics.classify import line_spectrum
from sigmaconics.fields import build_field
from sigmaconics.forms import SesquiForm, absolute_mask, make_form
from sigmaconics.linalg import vcross, vdot, vranks
from sigmaconics.projective import ProjectiveSpace, projective_space

T8 = build_field(2, 1, 3, 1)
T27 = build_field(3, 1, 3, 1)
T125 = build_field(5, 1, 3, 1)


def test_steiner_projectivity_gives_conic():
    # automorphism exponent 0: classical generation of a conic
    t = build_field(3, 1, 2, 1)
    sp = projective_space(t, 2)
    phi = pencil_collineation(t, (1, 0, 0), (0, 0, 1), ((0, 1), (2, 0)), qexp=0)
    pts = steiner_generate(phi)
    assert len(pts) == t.order + 1
    assert max(line_spectrum(pts, sp)) == 2      # no three points collinear


def test_steiner_degenerate_when_rl_is_fixed():
    t = build_field(3, 1, 2, 1)
    phi = pencil_collineation(t, (1, 0, 0), (0, 0, 1), ((1, 0), (2, 1)), qexp=0)
    assert phi.maps_rl_to_itself()
    pts = steiner_generate(phi)
    assert len(pts) == 2 * t.order + 1           # contains the full line RL


def test_steiner_counts_with_field_twist():
    phi = pencil_collineation(T8, (1, 0, 0), (0, 0, 1), ((0, 1), (T8.neg(1), 0)))
    assert len(steiner_generate(phi)) == 9
    phi_deg = pencil_collineation(T8, (1, 0, 0), (0, 0, 1), ((1, 0), (0, 1)))
    assert len(steiner_generate(phi_deg)) == 17


def test_pencil_collineation_validation():
    with pytest.raises(ValueError):
        pencil_collineation(T8, (1, 0, 0), (1, 0, 0), ((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        pencil_collineation(T8, (1, 0, 0), (0, 0, 1), ((1, 1), (1, 1)))


def test_steiner_matches_absolute_set_random_rank2():
    # general-position rank-2 matrices over both planes
    for tower, seed, goal in ((T8, 101, 60), (T27, 102, 25)):
        hits = 0
        entries = sample_matrix_entries(tower.order, seed, 0, 4000)
        for row in entries:
            form = make_form(tower, [int(x) for x in row])
            from sigmaconics.forms import radicals
            rp = radicals(form)
            if rp.rank != 2:
                continue
            from sigmaconics.linalg import normalize
            if normalize(tower, rp.left[0]) == normalize(tower, rp.right[0]):
                continue
            assert steiner_matches_form(form)
            hits += 1
            if hits >= goal:
                break
        assert hits >= goal


def test_cf_canonical_counts_and_parametrisation():
    sp = projective_space(T8, 2)
    cf = cf_canonical(T8)
    assert len(cf) == 9 and not cf.degenerate
    expected = {sp.point_index((1, 0, 0))}
    tbl = T8.pow_table(T8.q ** T8.m + 1)
    for x in T8.elements():
        expected.add(sp.point_index((int(tbl[x]), x, 1)))
    assert cf.point_ids == frozenset(expected)
    assert cf.vertices == ((1, 0, 0), (0, 0, 1))


def test_cf_degenerate_counts():
    cf = cf_degenerate_canonical(T8)
    assert len(cf) == 17 and cf.degenerate
    sp = projective_space(T8, 2)
    rl = sp.line_through(*cf.vertices)
    assert set(int(i) for i in sp.line_points(rl)) <= cf.point_ids


def test_components_partition():
    cf = components(cf_canonical(T27))
    assert set(cf) == {1, 2}
    assert all(len(v) == 13 for v in cf.values())
    assert not (cf[1] & cf[2])
    cf8 = components(cf_canonical(T8))
    assert set(cf8) == {1} and len(cf8[1]) == 7
    with pytest.raises(ValueError):
        components(cf_degenerate_canonical(T8))


def test_component_subplane():
    sp = projective_space(T27, 2)
    cf = cf_canonical(T27)
    sub = embed_subplane_in_component(cf)
    assert len(sub.point_ids) == 13
    assert sub.point_ids <= cf.components[1]
    # every point has the twisted-power shape up to a scalar
    shapes = {sp.point_index((T27.sigma(x, 2), T27.sigma(x, 1), x))
              for x in T27.units()}
    assert sub.point_ids == shapes
    with pytest.raises(ValueError):
        embed_subplane_in_component(cf_degenerate_canonical(T8))


def test_component_subplane_larger_field():
    t81 = build_field(3, 1, 4, 1)
    cf = cf_canonical(t81)
    sub = embed_subplane_in_component(cf)
    assert len(sub.point_ids) == 13
    assert sub.point_ids <= cf.components[1]


def test_exterior_set_sizes_and_validation():
    cf = cf_canonical(T27)
    x1 = exterior_set(cf, {1})
    assert len(x1.point_ids) == 28
    x12 = exterior_set(cf, {1, 2})
    assert len(x12.point_ids) == 28
    sp = projective_space(T27, 2)
    for a, j in x1.replaced.items():
        assert j == frozenset(sp.point_index((T27.neg(t), 0, 1))
                              for t in T27.norm_class(a))
    with pytest.raises(ValueError):
        exterior_set(cf, {2})
    with pytest.raises(ValueError):
        exterior_set(cf, {1, 3})          # 3 encodes alpha, not in F_3
    with pytest.raises(ValueError):
        exterior_set(cf_degenerate_canonical(T27), {1})


def _pairwise_exterior(point_ids, subplane, space):
    """Reference for `verify_exterior`: every line through two of the
    points, in blocks of pairs, is tested against every subplane point."""
    t = space.tower
    pts = space.points[sorted(int(i) for i in point_ids)]
    sub = space.points[sorted(subplane.point_ids)]
    first, second = np.triu_indices(len(pts), 1)
    block = max(1, (1 << 22) // len(sub))
    for k in range(0, len(first), block):
        lines = vcross(t, pts[first[k:k + block]], pts[second[k:k + block]])
        lines = lines[lines.any(axis=1)]        # repeated points span no line
        if (vdot(t, lines[:, None], sub) == 0).any():
            return False
    return True


@pytest.mark.parametrize("tower, parts", [(T27, ({1}, {1, 2})), (T125, ({1},))],
                         ids=["q3", "q5"])
def test_verify_exterior_positive_and_negative(tower, parts):
    sp = projective_space(tower, 2)
    cf = cf_canonical(tower)
    sub = embed_subplane_in_component(cf)
    for T in parts:
        ids = exterior_set(cf, T).point_ids
        assert verify_exterior(ids, sub, sp)
        assert _pairwise_exterior(ids, sub, sp)
    two_inside = list(sorted(sub.point_ids))[:2]
    assert not verify_exterior(two_inside, sub, sp)
    assert not _pairwise_exterior(two_inside, sub, sp)
    # u + c z lies on the secant through the exterior point u and the
    # subplane point z: planted in the set, that secant meets the subplane
    ids = exterior_set(cf, {1}).point_ids
    u, z = sp.points[min(ids)], sp.points[min(sub.point_ids)]
    for c in (1, tower.encode([0, 1])):
        w = sp.point_index(tuple(tower.vadd(u, tower.vmul(c, z)).tolist()))
        assert w not in ids | sub.point_ids
        assert not verify_exterior(ids | {w}, sub, sp)
        assert not _pairwise_exterior(ids | {w}, sub, sp)


def test_exterior_set_other_parameters():
    # q = 2 canonical set: single component, the theorem still applies
    sp = projective_space(T8, 2)
    cf = cf_canonical(T8)
    sub = embed_subplane_in_component(cf)
    assert len(sub.point_ids) == 7
    x = exterior_set(cf, {1})
    assert len(x.point_ids) == 9
    assert verify_exterior(x.point_ids, sub, sp)


def test_affine_points():
    sp = projective_space(T8, 2)
    cf = cf_canonical(T8)
    aff = cf.affine_point_ids(sp)
    assert len(aff) == 8                 # includes the vertex (0,0,1)
    deg = cf_degenerate_canonical(T8)
    assert len(deg.affine_point_ids(sp)) == 8


def test_form_collineation_consistency():
    # the pencil collineation of the canonical form fixes RL exactly in the
    # degenerate layout
    f_cf = SesquiForm(T8, ((0, 0, 1), (0, T8.neg(1), 0), (0, 0, 0)))
    assert not pencil_collineation_from_form(f_cf).maps_rl_to_itself()
    f_deg = SesquiForm(T8, ((0, 0, 1), (0, 0, 0), (0, T8.neg(1), 0)))
    assert pencil_collineation_from_form(f_deg).maps_rl_to_itself()


T64 = build_field(2, 2, 3, 1)


def test_steiner_matches_absolute_set_extension_tower():
    # F_64 over F_4: rank-2 forms with distinct radicals, cones skipped
    entries = sample_matrix_entries(T64.order, 103, 0, 8000)
    entries = entries[vranks(T64, entries.reshape(-1, 3, 3)) == 2]
    hits = 0
    for row in entries:
        form = make_form(T64, [int(x) for x in row])
        try:
            phi = pencil_collineation_from_form(form)
        except ValueError:
            continue
        assert steiner_matches_form(form)
        # the batch check agrees with the reference collineation's locus
        assert steiner_generate(phi) == set(np.nonzero(absolute_mask(form))[0].tolist())
        hits += 1
        if hits >= 30:
            break
    assert hits >= 30


@pytest.mark.parametrize("tower", [T8, T27, T64], ids=lambda t: f"F{t.order}")
def test_steiner_locus_batch_matches_single_collineations(tower):
    # one batch of random pencil collineations against steiner_generate one
    # collineation at a time; every third block fixes the line RL
    sp = projective_space(tower, 2)
    vecs = sample_matrix_entries(tower.order, 104, 0, 200)
    blocks = sample_matrix_entries(tower.order, 105, 0, 200)[:, :4]
    blocks[::3, 1] = 0
    for qexp in (0, tower.m):
        phis = []
        for row, blk in zip(vecs, blocks):
            try:
                phis.append(pencil_collineation(tower, row[:3], row[3:6],
                                                blk.reshape(2, 2), qexp=qexp))
            except (ValueError, ZeroDivisionError):
                continue
        basis = np.array([phi.basis for phi in phis], dtype=np.uint32)
        block = np.array([phi.block for phi in phis], dtype=np.uint32)
        idx, whole_line = steiner_locus(sp, basis[..., 0], basis[..., 1],
                                        basis[..., 2], block.reshape(-1, 4), qexp)
        assert idx.shape == whole_line.shape == (len(phis), tower.order + 1)
        assert 0 < whole_line.any(axis=1).sum() < len(phis)
        for phi, ids, line in zip(phis, idx, whole_line):
            assert line.any() == phi.maps_rl_to_itself()
            expect = set(ids.tolist())
            if line.any():
                rl = sp.line_through(phi.r_vec, phi.l_vec)
                expect |= set(sp.line_points(rl).tolist())
            assert steiner_generate(phi) == expect


def test_steiner_generate_lists_fixed_line_without_incidence(monkeypatch):
    # a degenerate C_F^m form of PG(2,64): the fixed line RL is listed from
    # R and x R + L, without the dense incidence matrix of the plane
    def no_incidence(self):
        raise AssertionError("the dense incidence was built")
    monkeypatch.setattr(ProjectiveSpace, "incidence", no_incidence)
    sp = projective_space(T64, 2)
    built = sp._incidence
    form = SesquiForm(T64, ((0, 0, 1), (0, 0, 0), (0, T64.neg(1), 0)))
    phi = pencil_collineation_from_form(form)
    assert phi.maps_rl_to_itself()
    pts = steiner_generate(phi)
    assert sp._incidence is built
    assert len(pts) == 2 * T64.order + 1
    assert pts == frozenset(np.nonzero(absolute_mask(form))[0].tolist())
