import numpy as np
import pytest

from sigmaconics.cfsets import (cf_canonical, embed_subplane_in_component,
                                exterior_set)
from sigmaconics.fields import build_field
from sigmaconics.mrd import (RankCode, build_code, field_reduce,
                             min_rank_distance, nonlinearity_witness, rank_fq,
                             singleton_bound, subfield_coords,
                             subplane_alignment)
from sigmaconics.projective import projective_space

T27 = build_field(3, 1, 3, 1)
T64 = build_field(2, 2, 3, 1)


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


def test_rank_one_locus_is_canonical_subplane():
    sp = projective_space(T27, 2)
    canon = sp.canonical_subplane().point_ids
    for i in range(sp.n_points):
        r = rank_fq(T27, field_reduce(T27, sp.point_vec(i)))
        assert (r == 1) == (i in canon)
        assert 1 <= r <= 3


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
    from sigmaconics.linalg import mat_vec
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
    code = RankCode(tower=T27, matrices=m3, scalars="all", claimed_distance=3)
    assert min_rank_distance(code) == 3
    m = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 0]], dtype=np.int64)
    trip = np.stack([np.zeros_like(m), m, (2 * m) % 3])
    code = RankCode(tower=T27, matrices=trip, scalars="all", claimed_distance=2)
    assert min_rank_distance(code) == 2
    with pytest.raises(ValueError):
        min_rank_distance(RankCode(tower=T27, matrices=m3[:1], scalars="all",
                                   claimed_distance=1))


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
