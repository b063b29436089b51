"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured evidence.  Run with `pytest -s tests/test_acceptance.py` to see
the report lines."""

import time

import numpy as np

from sigmaconics.census import (diagonal_census, exhaustive_invertible_census,
                                line_census, plane_kernel,
                                random_census, rank1_census,
                                rank2_normal_census, rank2_random_census,
                                rank_le2_census, sample_matrix_entries)
from sigmaconics.cfsets import (cf_canonical, cf_degenerate_canonical,
                                components, embed_subplane_in_component,
                                exterior_set, verify_exterior)
from sigmaconics.classify import (is_arc, kestenband_profile, line_spectrum,
                                  lines_points_array)
from sigmaconics.fields import build_field
from sigmaconics.forms import (SesquiForm, absolute_mask, collineation_images,
                               congruence_transform, fixed_points,
                               induced_collineation, make_form, radicals)
from sigmaconics.linalg import mat_mul, mat_sigma, mat_transpose, vranks
from sigmaconics.mrd import (build_code, min_rank_distance,
                             nonlinearity_witness, singleton_bound)
from sigmaconics.projective import projective_space

SEED = 20240809


def _report(num, text):
    print(f"\nacceptance {num}: PASS - {text}")


def test_1_line_taxonomy_exhaustive():
    details = []
    for p, n, m in ((2, 3, 1), (2, 3, 2), (3, 2, 1), (2, 5, 1), (2, 5, 2)):
        t = build_field(p, 1, n, m)
        t0 = time.time()
        s = line_census(t)
        dt = time.time() - t0
        assert s.total == (t.order ** 4 - 1) // (t.order - 1)
        assert set(s.histogram) <= {0, 1, 2, t.q + 1}
        assert s.kind_counts.get("subline_verified", 0) == s.histogram.get(t.q + 1, 0)
        assert not s.violations
        assert dt < 60
        details.append(f"q^n={t.order},m={m}:{sorted(s.histogram)}")
    _report(1, "all 2x2 absolute sets are empty/1/2/subline, sublines "
               f"verified pointwise [{'; '.join(details)}]")


def test_2_line_spectrum_random_forms():
    details = []
    for p, n in ((2, 3), (3, 3), (2, 2), (3, 2)):
        t = build_field(p, 1, n, 1)
        sp = projective_space(t, 2)
        kern = plane_kernel(sp)
        lines_pts = lines_points_array(sp)
        allowed = np.array([0, 1, 2, t.q + 1, t.order + 1], dtype=np.int64)
        entries = sample_matrix_entries(t.order, SEED, 0, 10100)
        entries = entries[entries.any(axis=1)][:10000]
        assert len(entries) == 10000
        full_line_ranks = []
        for start in range(0, len(entries), 256):
            e = entries[start:start + 256]
            masks = kern.masks(*kern.row_encode(e))
            spec = masks[:, lines_pts].sum(axis=2)
            assert bool(np.isin(spec, allowed).all())
            has_full = (spec == t.order + 1).any(axis=1)
            if has_full.any():
                full_line_ranks.append(vranks(t, e[has_full].reshape(-1, 3, 3)))
        ranks = np.concatenate(full_line_ranks) if full_line_ranks else np.array([])
        assert (ranks <= 2).all()
        details.append(f"PG(2,{t.order}):{len(entries)} forms, "
                       f"{len(ranks)} with full lines (all rank<=2)")
    _report(2, "line intersections always in {0,1,2,q+1} or a full line, "
               f"full lines only at rank<=2 [{'; '.join(details)}]")


def test_3_rank_le2_classification():
    t8 = build_field(2, 1, 3, 1)
    s = rank_le2_census(t8)
    assert s.total == 2691145
    assert s.kind_counts["union_two_lines"] == 5329
    assert s.kind_counts["cone_over_sigma_quadric"] == 36792
    assert s.kind_counts["cf"] == 2354688
    assert s.kind_counts["degenerate_cf"] == 294336
    assert s.kind_counts["steiner_checked"] == 2649024
    assert not s.violations

    # PG(2,27): the full rank-2 space has ~10^10 scalar classes; cover every
    # rank-1 matrix, every radical-normal-position rank-2 matrix, and a
    # seeded random sample of general-position rank-2 matrices instead
    t27 = build_field(3, 1, 3, 1)
    r1 = rank1_census(t27)
    assert r1.total == 757 * 757 and not r1.violations
    rn = rank2_normal_census(t27)
    assert rn.kind_counts["cone_over_sigma_quadric"] == 19656
    assert rn.kind_counts["cf"] + rn.kind_counts["degenerate_cf"] == 19656
    assert not rn.violations
    rr = rank2_random_census(t27, 10000, seed=SEED)
    assert rr.total == 10000 and not rr.violations
    _report(3, "PG(2,8): all 2691145 rank<=2 classes verified with Steiner "
               "cross-check on all 2649024 two-vertex cases; PG(2,27): "
               "exhaustive rank-1 (573049) + normal-position rank-2 (39312) "
               "+ 10000 random rank-2, zero violations")


def test_4_canonical_cf_structure():
    details = []
    for p, n, m in ((2, 3, 1), (3, 3, 1), (2, 5, 2)):
        t = build_field(p, 1, n, m)
        sp = projective_space(t, 2)
        cf = cf_canonical(t)
        assert len(cf) == t.order + 1
        spec = set(int(v) for v in np.unique(line_spectrum(cf.point_ids, sp)))
        assert spec <= {0, 1, 2, t.q + 1}
        comps = components(cf)
        assert len(comps) == t.q - 1
        fiber = (t.order - 1) // (t.q - 1)
        assert all(len(c) == fiber for c in comps.values())
        union = set()
        for c in comps.values():
            assert not (union & c)
            union |= c
        vert_ids = {sp.point_index(v) for v in cf.vertices}
        assert union | vert_ids == cf.point_ids
        deg = cf_degenerate_canonical(t)
        assert len(deg) == 2 * t.order + 1
        dspec = set(int(v) for v in np.unique(line_spectrum(deg.point_ids, sp)))
        assert dspec <= {1, 2, t.q + 1, t.order + 1}
        details.append(f"(q={t.q},n={n},m={m}): {t.order + 1}/{2 * t.order + 1} "
                       f"points, {t.q - 1} components of {fiber}")
    _report(4, f"canonical set sizes, line types and components [{'; '.join(details)}]")


def test_5_invertible_cardinality_census():
    times = []
    for m in (1, 2):
        t8 = build_field(2, 1, 3, m)
        t0 = time.time()
        s = exhaustive_invertible_census(t8)
        times.append(time.time() - t0)
        assert s.total == 16482816
        assert set(s.histogram) == {5, 9, 13}
        assert not s.violations
        assert times[-1] < 600
    t4 = build_field(2, 1, 2, 1)
    d = diagonal_census(t4)
    assert set(d.histogram) == {3, 9} and not d.violations
    t27 = build_field(3, 1, 3, 1)
    r = random_census(t27, 100000, seed=SEED)
    assert r.total == 100000
    assert set(r.histogram) == {19, 28, 37} and not r.violations
    _report(5, "PG(2,8) exhaustive m=1,2 supported exactly on {5,9,13} "
               f"({times[0]:.1f}s/{times[1]:.1f}s), PG(2,4) diagonals on "
               "{3,9}, PG(2,27) random 100000 on {19,28,37}")


def test_6_fixed_point_profiles():
    ident = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for m in (1, 2):
        t8 = build_field(2, 1, 3, m)
        sp = projective_space(t8, 2)
        form = SesquiForm(t8, ident)
        mask = absolute_mask(form)
        fixed = fixed_points(induced_collineation(form))
        assert len(fixed) == 7
        assert set(fixed) == set(sp.canonical_subplane().point_ids)
        assert sum(1 for i in fixed if mask[i]) == 3
        assert sum(1 for i in fixed if not mask[i]) == 4
    # every sampled invertible matrix whose collineation fixes q+1 points of
    # the absolute set has those fixed points collinear (checked inside the
    # profile validator; a violation would be reported)
    t8 = build_field(2, 1, 3, 1)
    sp = projective_space(t8, 2)
    entries = sample_matrix_entries(t8.order, SEED + 6, 0, 3000)
    witnesses = 0
    for row in entries:
        form = make_form(t8, [int(x) for x in row])
        if form.rank() != 3:
            continue
        prof = kestenband_profile(form)
        assert not prof.violations
        if prof.fixed_in == t8.q + 1:
            witnesses += 1
    prof_i = kestenband_profile(SesquiForm(t8, ident))
    assert prof_i.fixed_in == 3 and not prof_i.violations
    witnesses += 1
    assert witnesses >= 1
    _report(6, "PG(2,8) identity matrix fixes exactly PG(2,2) (3 on / 4 off "
               f"the set) for m=1,2; {witnesses} sampled profiles with q+1 "
               "fixed absolute points, all collinear")


def test_7_exterior_sets_and_mrd_code():
    t0 = time.time()
    t27 = build_field(3, 1, 3, 1)
    sp = projective_space(t27, 2)
    cf = cf_canonical(t27)
    sub = embed_subplane_in_component(cf)
    assert len(sub.point_ids) == 13
    for T in ({1}, {1, 2}):
        ext = exterior_set(cf, T)
        assert len(ext.point_ids) == 28
        n_pairs = 28 * 27 // 2
        assert n_pairs == 378
        assert verify_exterior(ext.point_ids, sub, sp)
    ext = exterior_set(cf, {1})
    code = build_code(ext, sub, "all")
    assert len(code) == 729 == singleton_bound(3, 3, 3, 2)
    assert min_rank_distance(code) == 2
    assert nonlinearity_witness(code) is not None
    dt = time.time() - t0
    assert dt < 120
    _report(7, "both exterior sets verified over 378 joining lines; the "
               "scalar-orbit code has 729 = 3^6 matrices, min rank distance "
               f"exactly 2, meets the Singleton bound, non-linear ({dt:.1f}s)")


def test_8_hyperovals():
    # the degenerate canonical sets: affine graph of x -> x^(q^m) plus the
    # two vertices; m = 1 is a conic plus nucleus, m = 2 a translation
    # hyperoval
    for m in (1, 2):
        t = build_field(2, 1, 3, m)
        sp = projective_space(t, 2)
        deg = cf_degenerate_canonical(t)
        pts = set(deg.affine_point_ids(sp))
        pts |= {sp.point_index(v) for v in deg.vertices}
        assert len(pts) == t.order + 2 == 10
        assert is_arc(pts, sp)
    # the non-degenerate set is never an arc here: its norm-one component is
    # a subgeometry and already contains collinear triples
    t = build_field(2, 1, 3, 2)
    sp = projective_space(t, 2)
    cf = cf_canonical(t)
    assert not is_arc(cf.point_ids, sp)
    _report(8, "degenerate canonical sets for m=1,2 give 10-point arcs "
               "(regular and translation hyperovals); the non-degenerate "
               "set is not an arc")


def test_9_algebraic_invariant_suite():
    towers = [build_field(2, 1, 2, 1), build_field(2, 1, 3, 1),
              build_field(3, 1, 2, 1), build_field(3, 1, 3, 1)]
    checked = {"sigma": 0, "norm": 0, "radical": 0, "scalar": 0,
               "congruence": 0, "collineation": 0}
    for t in towers:
        sp = projective_space(t, 2)
        kern = plane_kernel(sp)
        Q = t.order
        # automorphism and norm laws on 1000 random pairs
        vals = (sample_matrix_entries(Q, SEED + 9, 0, 1000)[:, :2]).astype(int)
        for x, y in vals:
            assert t.sigma(t.mul(x, y)) == t.mul(t.sigma(x), t.sigma(y))
            assert t.sigma(t.add(x, y)) == t.add(t.sigma(x), t.sigma(y))
            assert t.norm(t.mul(x, y)) == t.mul(t.norm(x), t.norm(y))
            assert t.in_subfield(t.norm(x))
            assert t.sigma(x, t.n) == x
            checked["sigma"] += 1
            checked["norm"] += 1
        fiber = (Q - 1) // (t.q - 1)
        assert all(len(t.norm_class(a)) == fiber for a in t.subfield if a)
        # radical dimensions agree on 1000 random matrices
        entries = sample_matrix_entries(Q, SEED + 19, 0, 1000)
        for row in entries:
            if not row.any():
                continue
            rp = radicals(make_form(t, [int(x) for x in row]))
            assert len(rp.left) == len(rp.right)
            checked["radical"] += 1
        # absolute-set invariance under scalars (vectorised over 1000 forms)
        entries = entries[entries.any(axis=1)]
        masks = kern.masks(*kern.row_encode(entries))
        rhos = (sample_matrix_entries(Q, SEED + 29, 0, 112).ravel() % (Q - 1)) + 1
        scaled = t.vmul(entries, rhos[:len(entries), None].astype(np.uint32))
        masks2 = kern.masks(*kern.row_encode(scaled))
        assert np.array_equal(masks, masks2)
        checked["scalar"] += len(entries)
        # congruence transforms preserve the cardinality; the collineation
        # of an invertible form permutes its absolute set
        mats = sample_matrix_entries(Q, SEED + 39, 0, 2000)
        inv_rows = mats[vranks(t, mats.reshape(-1, 3, 3)) == 3][:1000]
        for i, row in enumerate(entries[:1000]):
            form = make_form(t, [int(x) for x in row])
            mrow = inv_rows[i % len(inv_rows)]
            m = tuple(tuple(int(x) for x in mrow[3 * j:3 * j + 3])
                      for j in range(3))
            b = congruence_transform(form, m)
            assert absolute_mask(b).sum() == masks[i].sum()
            checked["congruence"] += 1
        for row in inv_rows:
            form = make_form(t, [int(x) for x in row])
            mask = absolute_mask(form)
            img = collineation_images(induced_collineation(form), sp)
            assert np.array_equal(mask[img], mask)
            checked["collineation"] += 1
    assert all(v >= 1000 for v in checked.values())
    _report(9, "algebraic invariants hold with zero failures "
               + str({k: v for k, v in sorted(checked.items())}))
