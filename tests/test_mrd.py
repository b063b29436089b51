import json

import numpy as np
import pytest

from sigmaconics import cli
from sigmaconics.cfsets import (ExteriorSet, cf_canonical,
                                embed_subplane_in_component, exterior_set)
from sigmaconics.cli import main
from sigmaconics.fields import build_field
from sigmaconics.linalg import mat_vec, vranks
from sigmaconics.mrd import (RankCode, build_code, field_reduce,
                             min_rank_distance, nonlinearity_witness,
                             orbit_distance, orbit_linear, rank_fq,
                             singleton_bound, subfield_coords,
                             subplane_alignment)
from sigmaconics.projective import projective_space

T27 = build_field(3, 1, 3, 1)
T64 = build_field(2, 2, 3, 1)
T125 = build_field(5, 1, 3, 1)
T81 = build_field(3, 1, 4, 1)
T512 = build_field(2, 3, 3, 1)


@pytest.fixture(scope="module")
def mrd_pipeline():
    sp = projective_space(T27, 2)
    cf = cf_canonical(T27)
    sub = embed_subplane_in_component(cf)
    ext = exterior_set(cf, {1})
    return sp, cf, sub, ext


def test_field_reduce_basics():
    assert not field_reduce(T27, (0, 0, 0)).any()
    e1 = field_reduce(T27, (1, 0, 0))
    assert e1[0, 0] == 1 and e1.sum() == 1
    # F_q-linearity
    u, v = (5, 17, 2), (9, 1, 20)
    s = tuple(T27.add(a, b) for a, b in zip(u, v))
    assert np.array_equal(field_reduce(T27, s),
                          (field_reduce(T27, u) + field_reduce(T27, v)) % 3)
    for c in (1, 2):
        cu = tuple(T27.mul(c, a) for a in u)
        assert np.array_equal(field_reduce(T27, cu),
                              (c * field_reduce(T27, u)) % 3)


def test_rank_invariant_under_field_scalars():
    sp = projective_space(T27, 2)
    for i in range(sp.n_points):
        v = sp.point_vec(i)
        r = rank_fq(T27, field_reduce(T27, v))
        for lam in (2, 5, 14):
            w = tuple(T27.mul(lam, x) for x in v)
            assert rank_fq(T27, field_reduce(T27, w)) == r


@pytest.mark.parametrize("tower", [T27, T64, T125, T81, T512],
                         ids=["q3", "q4", "q5", "q3n4", "q8"])
def test_rank_one_locus_is_canonical_subplane(tower):
    # orbit_distance takes the rank-1 points from canonical_subplane()
    sp = projective_space(tower, 2)
    ranks = vranks(tower, field_reduce(tower, sp.points))
    canon = np.zeros(sp.n_points, dtype=bool)
    canon[sorted(sp.canonical_subplane().point_ids)] = True
    assert np.array_equal(ranks == 1, canon)
    assert ranks.min() >= 1 and ranks.max() <= 3


def test_subfield_coords_extension_tower():
    t16 = build_field(2, 2, 2, 1)        # F_16 over F_4
    alpha = t16.encode([0, 1])
    for x in t16.elements():
        coords = subfield_coords(t16, x)
        assert len(coords) == 2
        assert all(t16.in_subfield(c) for c in coords)
        acc = 0
        for i, c in enumerate(coords):
            acc = t16.add(acc, t16.mul(c, t16.pow(alpha, i)))
        assert acc == x


def test_alignment_maps_component_subplane_to_rank_one(mrd_pipeline):
    sp, cf, sub, ext = mrd_pipeline
    g = subplane_alignment(sp, sub)
    for i in sorted(sub.point_ids):
        img = mat_vec(T27, g, sp.point_vec(i))
        assert rank_fq(T27, field_reduce(T27, img)) == 1


def test_build_code_properties(mrd_pipeline):
    sp, cf, sub, ext = mrd_pipeline
    code = build_code(ext, sub, "all")
    assert len(code) == 729 == singleton_bound(3, 3, 3, 2)
    assert not code.matrices[0].any()            # contains the zero matrix
    assert min_rank_distance(code) == 2
    assert nonlinearity_witness(code) is not None
    sub_code = build_code(ext, sub, "subfield")
    assert len(sub_code) == 57
    assert min_rank_distance(sub_code) >= 2


def test_build_code_hypotheses(mrd_pipeline):
    sp, cf, sub, ext = mrd_pipeline
    t8 = build_field(2, 1, 3, 1)
    cf8 = cf_canonical(t8)
    sub8 = embed_subplane_in_component(cf8)
    ext8 = exterior_set(cf8, {1})
    with pytest.raises(ValueError):
        build_code(ext8, sub8, "all")            # q = 2 is excluded
    with pytest.raises(ValueError):
        build_code(ext, sub, "everything")


def test_full_component_replacement_gives_linear_code(mrd_pipeline):
    # T = F_q^* collapses the exterior set onto the line joining the
    # vertices; its scalar orbit is a linear spread-set style code
    sp, cf, sub, ext = mrd_pipeline
    full = exterior_set(cf, {1, 2})
    code = build_code(full, sub, "all")
    assert len(code) == 729 and min_rank_distance(code) == 2
    assert nonlinearity_witness(code) is None


def test_min_rank_distance_small_cases():
    m3 = np.array([[[0, 0, 0], [0, 0, 0], [0, 0, 0]],
                   [[1, 0, 0], [0, 1, 0], [0, 0, 1]]], dtype=np.int64)
    code = RankCode(tower=T27, matrices=m3, scalars="all")
    assert min_rank_distance(code) == 3
    m = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 0]], dtype=np.int64)
    trip = np.stack([np.zeros_like(m), m, (2 * m) % 3])
    code = RankCode(tower=T27, matrices=trip, scalars="all")
    assert min_rank_distance(code) == 2
    with pytest.raises(ValueError):
        min_rank_distance(RankCode(tower=T27, matrices=m3[:1], scalars="all"))


def test_rank_fq_hand_cases():
    assert rank_fq(T27, np.zeros((3, 3), dtype=int)) == 0
    assert rank_fq(T27, np.array([[1, 2, 0], [2, 4 % 3, 0], [0, 0, 0]])) == 1
    assert rank_fq(T27, np.eye(3, dtype=int)) == 3


def test_singleton_bound():
    assert singleton_bound(3, 3, 3, 2) == 729
    assert singleton_bound(3, 5, 2, 3) == 2 ** 5
    assert singleton_bound(3, 4, 3, 1) == 3 ** 12
    with pytest.raises(ValueError):
        singleton_bound(4, 3, 3, 2)
    with pytest.raises(ValueError):
        singleton_bound(3, 3, 3, 4)


def test_code_export_shape(mrd_pipeline):
    sp, cf, sub, ext = mrd_pipeline
    code = build_code(ext, sub, "all")
    assert code.matrices.shape == (729, 3, 3)
    assert len(code.keys()) == 729


def test_q4_code_over_extension_subfield():
    # q = 4 = 2^2: distances and sums go through the same batch path as q = p
    cf = cf_canonical(T64)
    code = build_code(exterior_set(cf, {1}), embed_subplane_in_component(cf))
    assert len(code) == singleton_bound(3, 3, 4, 2) == 4096
    assert min_rank_distance(code) == 2
    witness = nonlinearity_witness(code)
    assert witness is not None
    total = T64.vadd(*witness).astype(code.matrices.dtype)
    assert total.tobytes() not in code.keys()


def _first_escaping_pair(code):
    """Reference witness: walk i, then j >= i, with one set lookup per sum."""
    t, keys, mats = code.tower, code.keys(), code.matrices
    for i in range(len(mats)):
        sums = t.vadd(mats[i][None], mats).astype(mats.dtype)
        for j in range(i, len(mats)):
            if sums[j].tobytes() not in keys:
                return mats[i], mats[j]
    return None


@pytest.mark.parametrize("tower, T", [(T27, {1}), (T64, {1}), (T27, {1, 2})],
                         ids=["q3-T1", "q4-T1", "q3-T12"])
def test_witness_matches_reference(tower, T):
    cf = cf_canonical(tower)
    code = build_code(exterior_set(cf, T), embed_subplane_in_component(cf))
    got, expect = nonlinearity_witness(code), _first_escaping_pair(code)
    if T == {1, 2}:
        assert got is None and expect is None
    else:
        assert expect is not None
        assert all(np.array_equal(a, b) for a, b in zip(got, expect))


def test_witness_past_the_first_block(mrd_pipeline):
    # a linear code followed by its coset through a rank-1 matrix (outside
    # the code, whose distance is 2): sums within the code stay in it, so
    # the first escaping pair is (729, 729), past the first block of rows
    sp, cf, sub, ext = mrd_pipeline
    lin = build_code(exterior_set(cf, {1, 2}), sub).matrices
    unit = np.zeros_like(lin[0])
    unit[0, 0] = 1
    mats = np.concatenate([lin, T27.vadd(lin, unit).astype(lin.dtype)])
    code = RankCode(tower=T27, matrices=mats, scalars="all")
    got, expect = nonlinearity_witness(code), _first_escaping_pair(code)
    assert np.array_equal(expect[0], mats[729])
    assert all(np.array_equal(a, b) for a, b in zip(got, expect))


@pytest.mark.parametrize("scalars", ["all", "subfield"])
@pytest.mark.parametrize("tower, T", [(T27, {1}), (T27, {1, 2}), (T64, {1})],
                         ids=["q3-T1", "q3-T12", "q4-T1"])
def test_orbit_checks_match_pairwise_references(tower, T, scalars):
    cf = cf_canonical(tower)
    code = build_code(exterior_set(cf, T), embed_subplane_in_component(cf),
                      scalars)
    assert orbit_distance(code) == min_rank_distance(code) == 2
    assert orbit_linear(code) == (nonlinearity_witness(code) is None)


@pytest.mark.parametrize("tower", [T27, T64], ids=["q3", "q4"])
def test_orbit_linear_subfield_positive_control(tower):
    # the points of the canonical PG(2,q) under F_q^*: all of F_q^3 in the
    # first column, an F_q-subspace; dropping one point breaks it
    sp = projective_space(tower, 2)
    pts = sp.points[sorted(sp.canonical_subplane().point_ids)]
    for u in (pts, pts[1:]):
        code = _orbit_code(tower, u, "subfield")
        assert orbit_linear(code) == (nonlinearity_witness(code) is None)
        assert orbit_linear(code) == (len(u) == len(pts))


@pytest.mark.parametrize("scalars", ["all", "subfield"])
def test_orbit_distance_negative_control(mrd_pipeline, scalars):
    # one subplane point joins the exterior set: its codewords have rank 1
    sp, cf, sub, ext = mrd_pipeline
    extra = min(sub.point_ids - ext.point_ids)
    bad = ExteriorSet(point_ids=ext.point_ids | {extra}, T=ext.T,
                      replaced=ext.replaced, cf=cf)
    code = build_code(bad, sub, scalars)
    assert orbit_distance(code) == min_rank_distance(code) == 1


def _orbit_code(tower, points, scalars):
    """The code {0} + S U of `build_code` on the given representatives of
    its points U, which the alignment would otherwise fix."""
    s = np.array(list(tower.units()) if scalars == "all"
                 else [a for a in tower.subfield if a != 0], dtype=np.uint32)
    w = tower.vmul(s[None, :, None], points[:, None, :]).reshape(-1, 3)
    mats = np.concatenate([np.zeros((1, 3, tower.n), dtype=np.int64),
                           field_reduce(tower, w)])
    return RankCode(tower=tower, matrices=mats, scalars=scalars, points=points)


@pytest.mark.parametrize("tower", [T27, T64], ids=["q3", "q4"])
@pytest.mark.parametrize("c_in_subfield", [True, False],
                         ids=["c-in-Fq", "c-not-in-Fq"])
def test_orbit_distance_catches_planted_secants(tower, c_in_subfield):
    # w = c^-1 (u + z), z of rank 1, gives u - c w = -z: a rank-1 difference
    # of the full code, and of the subfield code only when c is in F_q, so
    # the c outside F_q separates the key mu^s from the line alone
    sp = projective_space(tower, 2)
    cf = cf_canonical(tower)
    pts = build_code(exterior_set(cf, {1}), embed_subplane_in_component(cf)).points
    z = sp.points[max(sp.canonical_subplane().point_ids)]
    c = tower.subfield[-1] if c_in_subfield else tower.encode([1, 1])
    assert tower.in_subfield(c) == c_in_subfield
    w = tower.vmul(tower.inv(c), tower.vadd(pts[0], z))
    planted = np.vstack([pts, w[None]])
    for scalars, expect in (("all", 1), ("subfield", 1 if c_in_subfield else 2)):
        code = _orbit_code(tower, planted, scalars)
        assert orbit_distance(code) == min_rank_distance(code) == expect


def test_orbit_checks_need_the_aligned_points():
    code = RankCode(tower=T27, matrices=np.zeros((2, 3, 3), dtype=np.int64),
                    scalars="all")
    with pytest.raises(ValueError):
        orbit_distance(code)
    with pytest.raises(ValueError):
        orbit_linear(code)


def test_orbit_distance_refuses_codes_within_the_distance_3_bound():
    # the rank-1 projection tells 1 from 2 only: a code of at most q^n
    # words could have distance 3, so orbit_distance refuses it
    sp = projective_space(T27, 2)
    pts = sp.points[sorted(sp.canonical_subplane().point_ids)]
    code = _orbit_code(T27, pts, "subfield")
    assert len(code) == singleton_bound(3, 3, 3, 3) == 27
    with pytest.raises(ValueError, match="Singleton"):
        orbit_distance(code)


@pytest.mark.parametrize("field", [["--p", "5", "--n", "3"],
                                   ["--p", "3", "--n", "4"],
                                   ["--p", "3", "--e", "2", "--n", "3"],
                                   ["--p", "5", "--n", "4"]],
                         ids=["q5", "q3n4", "q9", "q5n4"])
def test_mrd_cli_larger_codes(field, capsys):
    assert main(["mrd", *field, "--T", "1"]) == 0
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert summary["code_size"] == summary["singleton_bound"]
    assert summary["min_rank_distance"] == 2 and not summary["linear"]


def test_mrd_cli_orbit_budget(capsys, monkeypatch):
    # (1 + 1332 * 1330) codewords of 9 int64 entries, 121.6 MiB: past the
    # 64 MiB code budget, refused before the plane is built
    def no_plane(*args, **kwargs):
        raise AssertionError("the plane was built before the budget check")
    monkeypatch.setattr(cli, "projective_space", no_plane)
    assert main(["mrd", "--p", "11", "--n", "3", "--T", "1"]) == 4
    assert "64 MiB code budget" in capsys.readouterr().err
