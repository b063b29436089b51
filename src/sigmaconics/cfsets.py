"""Steiner-style projective generation and C_F^m-sets of PG(2,q^n).

A pencil collineation maps the lines through a vertex R to the lines
through a second vertex L, twisting pencil parameters by an invertible
2x2 block and a field automorphism x -> x^(q^k).  The locus of
intersections of corresponding lines is a conic for k = 0, and for k = m
it is the C_F^m-set (degenerate exactly when the line RL is mapped to
itself).  The canonical non-degenerate set splits, away from its
vertices, into norm-class components C_a; replacing the components named
by a subset T of F_q^* (containing 1) with the matching pieces J_a of the
line RL produces an exterior set with respect to a PG(2,q) subgeometry
inside C_1, which is the seed of the rank-metric code construction.
The C_F^m kind has one check, `cf_verdicts`, run at K rows by the census
and at K = 1 by records and `steiner_matches_form`.  The constructions
of one object (a Steiner locus, the canonical sets, the component
subplane, an exterior set) work on the cached plane
`projective_space(tower, 2)`; the batch routines take the plane first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .fields import FieldTower
from .forms import SesquiForm, Verdicts, absolute_mask, radical_points
from .linalg import mat_det, normalize, vcross, vdot, vranks
from .projective import ProjectiveSpace, Subplane, projective_space


@dataclass(frozen=True)
class PencilCollineation:
    """Map between the pencils centred at two distinct vertices.

    `basis` is an invertible matrix whose first and last columns are the
    vertices R and L; in those coordinates a pencil line with parameters
    (alpha, beta) is sent to the line alpha' x1 + beta' x2 = 0 where
    (alpha', beta') = block . (alpha, beta)^(q^qexp).
    """
    tower: FieldTower
    basis: tuple
    block: tuple
    qexp: int

    @property
    def r_vec(self) -> tuple:
        return tuple(row[0] for row in self.basis)

    @property
    def l_vec(self) -> tuple:
        return tuple(row[2] for row in self.basis)

    def maps_rl_to_itself(self) -> bool:
        # the pencil line RL has parameters (0, 1); its image is the line RL
        # exactly when the top-right block entry vanishes
        return self.block[0][1] == 0


KIND_CF = "cf"
KIND_DEGENERATE_CF = "degenerate_cf"

_STD = np.eye(3, dtype=np.uint32)


def pencil_midpoints(t: FieldTower, r_vec: np.ndarray, l_vec: np.ndarray) -> np.ndarray:
    """Midpoints (K, 3) of the bases (R, mid, L) of K pairs of distinct
    points: e_k, k the first nonzero coordinate of R x L."""
    rl = vcross(t, r_vec, l_vec)
    return _STD[np.where(rl[:, 0] != 0, 0, np.where(rl[:, 1] != 0, 1, 2))]


def pencil_normal_form(t: FieldTower, e: np.ndarray, r_vec: np.ndarray,
                       l_vec: np.ndarray) -> tuple:
    """Midpoints (K, 3), row-major pencil blocks (K, 4) and normal-form mask
    (K,) of K rank-2 forms with (K, 9) entries and distinct right and left
    radical points r_vec and l_vec.  In the basis (R, mid = e_k, L) the
    congruent matrix has a zero first column and last row where `normal`
    holds; the block is its upper-right 2x2 corner (R A mid^sigma,
    R A L^sigma, mid A mid^sigma, mid A L^sigma)."""
    mid = pencil_midpoints(t, r_vec, l_vec)
    a = e.reshape(-1, 3, 3)
    rows, k = np.arange(len(e)), mid.argmax(axis=1)
    a_mid = a[rows, :, k]
    a_l = vdot(t, a, t.vsigma(l_vec)[:, None])
    block = np.stack([vdot(t, r_vec, a_mid), vdot(t, r_vec, a_l),
                      a_mid[rows, k], a_l[rows, k]], axis=1)
    normal = (vdot(t, l_vec, a_mid) == 0) & (vdot(t, l_vec, a_l) == 0)
    # freed before A R^sigma is formed: in this order the check leaves the
    # peak RSS of the rank <= 2 sweep of PG(2,8) where it was without it
    del a_mid, a_l
    normal &= ~vdot(t, a, t.vsigma(r_vec)[:, None]).any(axis=1)
    return mid, block, normal


def pencil_collineation(tower: FieldTower, r_vec, l_vec, block,
                        qexp: int | None = None) -> PencilCollineation:
    """Build a pencil collineation with explicit vertices and block."""
    t = tower
    r_vec = normalize(t, r_vec)
    l_vec = normalize(t, l_vec)
    if r_vec == l_vec:
        raise ValueError("vertices must be distinct")
    if mat_det(t, block) == 0:
        raise ValueError("block must be invertible")
    mid = pencil_midpoints(t, np.array([r_vec], dtype=np.uint32),
                           np.array([l_vec], dtype=np.uint32))[0].tolist()
    basis = tuple(zip(r_vec, mid, l_vec))
    return PencilCollineation(tower=t, basis=basis,
                              block=tuple(tuple(int(x) for x in row) for row in block),
                              qexp=(tower.m if qexp is None else qexp) % tower.n)


def pencil_collineation_from_form(form: SesquiForm) -> PencilCollineation:
    """The pencil collineation attached to a rank-2 form with distinct
    radicals, from `pencil_normal_form`: the tests' reference object."""
    e = form.entries[None]
    v_r, v_l = _pencil_radicals(form.space(), e)
    _, block, normal = pencil_normal_form(form.tower, e, v_r, v_l)
    if not normal[0]:
        raise RuntimeError("the radical basis does not put the form in "
                           "pencil normal form")
    return pencil_collineation(form.tower, v_r[0].tolist(), v_l[0].tolist(),
                               block.reshape(2, 2).tolist())


def _pencil_radicals(space: ProjectiveSpace, e: np.ndarray) -> tuple:
    """Radical points of a rank-2 form with (1, 9) entries; a cone raises."""
    if vranks(space.tower, e.reshape(1, 3, 3))[0] != 2:
        raise ValueError("form must have rank 2")
    v_r, v_l = radical_points(space, e)
    if (v_r == v_l).all():
        raise ValueError("radical points coincide; this form defines a cone")
    return v_r, v_l


def steiner_locus(space: ProjectiveSpace, r_vec: np.ndarray, mid: np.ndarray,
                  l_vec: np.ndarray, block: np.ndarray, qexp: int) -> tuple:
    """Steiner loci of K pencil collineations at once.

    Collineation k has the basis columns r_vec[k], mid[k], l_vec[k] (each
    (K, 3)) and the row-major pencil block block[k] = (a, b, c, d).  The
    pencil line with parameters (alpha, beta), taken in the order (1, x)
    for every element x and then (0, 1), meets its image in one point.
    Returns the (K, q^n + 1) indices of those points and a mask of the
    same shape that is true at the parameter (0, 1) when the line RL is
    mapped to itself: the whole of RL then lies in the locus, and the index
    there is that of L.
    """
    t = space.tower
    Q = t.order
    alpha = np.ones(Q + 1, dtype=np.uint32)
    alpha[Q] = 0
    beta = np.arange(Q + 1, dtype=np.uint32)
    beta[Q] = 1
    twisted = t.vfrobq(np.stack([alpha, beta], axis=1), qexp)
    alp = vdot(t, block[:, None, :2], twisted[None])
    bep = vdot(t, block[:, None, 2:], twisted[None])
    whole_line = (alp == 0) & (alpha == 0)
    at_vertex = (alp == 0) & (alpha != 0)
    lam = t.vmul(t.vneg(t.vmul(bep, t.vinv(np.where(alp == 0, 1, alp)))), alpha)
    local = np.empty(lam.shape + (3,), dtype=np.uint32)
    local[..., 0] = np.where(at_vertex, 1, lam)
    local[..., 1] = np.where(at_vertex, 0, alpha)
    local[..., 2] = np.where(at_vertex, 0, beta)
    basis = np.stack([r_vec, mid, l_vec], axis=2)
    pts = vdot(t, basis[:, None], local[:, :, None])
    return space.index_rows(pts.reshape(-1, 3)).reshape(lam.shape), whole_line


def steiner_generate(phi: PencilCollineation) -> frozenset:
    """Point indices of the locus {l meet phi(l) : l through R}.

    When phi fixes the line RL, that line lies entirely in the locus.
    """
    space = projective_space(phi.tower, 2)
    basis = np.array(phi.basis, dtype=np.uint32)[None]
    block = np.array(phi.block, dtype=np.uint32).reshape(1, 4)
    idx, whole_line = steiner_locus(space, basis[..., 0], basis[..., 1],
                                    basis[..., 2], block, phi.qexp)
    out = set(idx[0].tolist())
    if whole_line.any():
        rl = vcross(phi.tower, basis[..., 0], basis[..., 2])
        out.update(space.lines_points(rl)[0].tolist())
    return frozenset(out)


def steiner_matches_form(form: SesquiForm) -> bool:
    """`cf_verdicts` at K = 1: a rank-2 form with distinct radicals passes
    it, the Steiner locus equal to its absolute set."""
    space = form.space()
    e = form.entries[None]
    v_r, v_l = _pencil_radicals(space, e)
    verdicts = cf_verdicts(space, e, absolute_mask(form)[None], v_r, v_l)
    return not any(bad.any() for bad in verdicts.flags.values())


def cf_verdicts(space: ProjectiveSpace, e: np.ndarray, mask: np.ndarray,
                v_r: np.ndarray, v_l: np.ndarray) -> Verdicts:
    """The C_F^m check of K rank-2 forms with (K, 9) entries, absolute masks
    (K, N) and distinct radical points (K, 3): counts the degenerate sets
    (R A L^sigma = 0) and the others, and flags a basis off the pencil
    normal form, a size other than 2 q^n + 1 or q^n + 1, and a Steiner
    locus other than the absolute set."""
    t = space.tower
    mid, block, normal = pencil_normal_form(t, e, v_r, v_l)
    deg = block[:, 1] == 0
    idx, whole_line = steiner_locus(space, v_r, mid, v_l, block, t.m)
    # distinct absolute single points, plus the whole line RL where fixed
    ok = (np.take_along_axis(mask, idx, axis=1) | whole_line).all(axis=1)
    single = np.sort(np.where(whole_line, -1, idx), axis=1)
    ok &= ~((single[:, 1:] == single[:, :-1]) & (single[:, 1:] >= 0)).any(axis=1)
    has_line = whole_line.any(axis=1)
    if has_line.any():
        rl = vcross(t, v_r[has_line], v_l[has_line])
        on_line = np.take_along_axis(mask[has_line], space.lines_points(rl), axis=1)
        ok[has_line] &= on_line.all(axis=1)
    counts = np.count_nonzero(mask, axis=1)
    ok &= (~whole_line).sum(axis=1) + np.where(has_line, t.order + 1, 0) == counts
    ok &= has_line == deg
    return Verdicts(
        kinds={KIND_DEGENERATE_CF: deg, KIND_CF: ~deg,
               "steiner_checked": np.ones(len(e), dtype=bool)},
        flags={"the radical basis does not put the form in pencil normal form":
                   ~normal,
               "cf cardinality does not match the tangent-line split":
                   counts != np.where(deg, 2, 1) * t.order + 1,
               "steiner locus differs from the absolute set": ~ok})


@dataclass(frozen=True)
class CfSet:
    """A (possibly degenerate) C_F^m-set in canonical position."""
    tower: FieldTower
    m: int
    degenerate: bool
    vertices: tuple
    point_ids: frozenset
    components: dict

    def __len__(self):
        return len(self.point_ids)

    def affine_point_ids(self, space: ProjectiveSpace) -> frozenset:
        """Points of the set with nonzero last coordinate."""
        return frozenset(i for i in self.point_ids if space.points[i][2] != 0)


def _canonical_form(tower: FieldTower, degenerate: bool) -> SesquiForm:
    neg1 = tower.neg(1)
    if degenerate:
        rows = ((0, 0, 1), (0, 0, 0), (0, neg1, 0))
    else:
        rows = ((0, 0, 1), (0, neg1, 0), (0, 0, 0))
    return SesquiForm(tower, rows)


def cf_canonical(tower: FieldTower) -> CfSet:
    """The C_F^m-set x1 x3^(q^m) = x2^(q^m + 1) with vertices (1,0,0), (0,0,1).

    Its affine points are parameterised as (t^(q^m + 1), t, 1); the component
    attached to a in F_q^* collects the parameters of norm a.
    """
    space = projective_space(tower, 2)
    t = tower
    x = np.arange(t.order, dtype=np.uint32)
    affine = np.stack([t.pow_table(t.q ** t.m + 1), x, np.ones_like(x)], axis=1)
    ids = space.index_rows(np.vstack([[1, 0, 0], affine]))
    norms = t.vnorm(x)
    cf = CfSet(tower=t, m=t.m, degenerate=False,
               vertices=((1, 0, 0), (0, 0, 1)), point_ids=frozenset(ids.tolist()),
               components={a: frozenset(ids[1:][norms == a].tolist())
                           for a in t.subfield if a != 0})
    if absolute_mask(_canonical_form(t, False)).sum() != len(cf.point_ids):
        raise RuntimeError("the canonical parametrisation misses absolute points")
    return cf


def cf_degenerate_canonical(tower: FieldTower) -> CfSet:
    """The degenerate set x3 (x1 x3^(q^m - 1) - x2^(q^m)) = 0 with vertices
    (1,0,0) and (0,1,0); it is the line joining the vertices plus the graph
    of x -> x^(q^m)."""
    t = tower
    mask = absolute_mask(_canonical_form(t, True))
    ids = frozenset(int(i) for i in np.nonzero(mask)[0])
    return CfSet(tower=t, m=t.m, degenerate=True,
                 vertices=((1, 0, 0), (0, 1, 0)), point_ids=ids, components={})


def components(cf: CfSet) -> dict:
    """Norm-class components of a canonical non-degenerate set."""
    if cf.degenerate or not cf.components:
        raise ValueError("components require a canonical non-degenerate set")
    return dict(cf.components)


def embed_subplane_in_component(cf: CfSet) -> Subplane:
    """A PG(2,q) inside the component C_1: the points (x^(q^2m), x^(q^m), x)
    with x ranging over the rank-3 subspace spanned by 1, alpha, alpha^2.

    Every such point has parameter of norm 1, and the three twisted powers
    are F_q-linear in x, so the image is a projectivity image of the
    canonical subplane (a Moore-type matrix built on the subspace basis).
    For n = 3 the subspace is the whole field and the subplane is all of
    C_1.
    """
    t = cf.tower
    if cf.degenerate:
        raise ValueError("subplane embedding requires a non-degenerate set")
    if t.n < 3:
        raise ValueError("the component subplane needs n >= 3")
    space = projective_space(t, 2)
    alpha = t.encode([0, 1])
    basis = np.array([1, alpha, t.mul(alpha, alpha)], dtype=np.uint32)
    # t.subfield starts with 0, so the first triple is the zero one
    abc = np.array(list(product(t.subfield, repeat=3)), dtype=np.uint32)[1:]
    x = vdot(t, abc, basis)
    ids = set(space.index_rows(np.stack([t.vsigma(x, 2), t.vsigma(x, 1), x],
                                        axis=1)).tolist())
    if len(ids) != t.q * t.q + t.q + 1:
        raise RuntimeError("subspace parameterisation collapsed")
    if not ids <= cf.components[1]:
        raise RuntimeError("subplane points escaped the norm-1 component")
    frame = _general_position_frame(space, sorted(ids))
    return Subplane(point_ids=frozenset(ids), frame=frame, q=t.q)


def _general_position_frame(space: ProjectiveSpace, ids) -> tuple:
    for quad in combinations(ids, 4):
        vecs = [space.point_vec(i) for i in quad]
        if all(not space.collinear(*tri) for tri in combinations(vecs, 3)):
            return tuple(vecs)
    raise ValueError("no frame in general position")


@dataclass(frozen=True)
class ExteriorSet:
    point_ids: frozenset
    T: frozenset
    replaced: dict
    cf: CfSet


def exterior_set(cf: CfSet, T) -> ExteriorSet:
    """Replace the components C_a, a in T, by the line-RL pieces
    J_a = {(-t, 0, 1) : norm(t) = a}.  T must contain 1."""
    t = cf.tower
    if cf.degenerate:
        raise ValueError("exterior sets are built from non-degenerate sets")
    T = frozenset(int(a) for a in T)
    if 1 not in T:
        raise ValueError("T must contain 1")
    bad = [a for a in T if a == 0 or not t.in_subfield(a)]
    if bad:
        raise ValueError(f"T must consist of nonzero subfield elements, got {bad}")
    space = projective_space(t, 2)
    pts = set(cf.point_ids)
    replaced = {}
    for a in sorted(T):
        pts -= cf.components[a]
        j_a = frozenset(space.point_index((t.neg(x), 0, 1)) for x in t.norm_class(a))
        replaced[a] = j_a
        pts |= j_a
    return ExteriorSet(point_ids=frozenset(pts), T=T, replaced=replaced, cf=cf)


def secant_hits(space: ProjectiveSpace, u: np.ndarray, z: np.ndarray,
                s: int) -> np.ndarray:
    """(M,) mask over the (M, 3) points z of the plane: true where z is one
    of the (E, 3) points u, or u - c w is a multiple of z for two of them
    and some c with c^s = 1 (every c != 0 at s = Q - 1).

    U is projected from each z.  The line l_u = z x u is zero exactly when u
    is z.  Otherwise z x u = mu_u l for the normalized line l through z and
    u, so z x (u - c w) = (mu_u - c mu_w) l vanishes exactly when u, w and z
    are collinear and c = mu_u / mu_w, which has c^s = 1 exactly when
    mu_u^s = mu_w^s: a row of keys (index of l, mu^s) has a repeat.  That is
    (M, E) cross products and one sort, not a pass over the pairs of U."""
    t = space.tower
    lines = vcross(t, z[:, None], u[None]).reshape(-1, 3)
    lead = np.where(lines[:, 0] != 0, lines[:, 0],
                    np.where(lines[:, 1] != 0, lines[:, 1], lines[:, 2]))
    # a zero line (z in U) is a hit whatever key it gets
    keys = space.index_rows(lines) * t.order + t.pow_table(s)[lead]
    keys = np.sort(keys.reshape(len(z), len(u)), axis=1)
    on_u = ~lines.any(axis=1).reshape(len(z), len(u))
    return on_u.any(axis=1) | (keys[:, 1:] == keys[:, :-1]).any(axis=1)


def verify_exterior(point_ids, subplane: Subplane, space: ProjectiveSpace) -> bool:
    """Whether every line through two of the points misses the subplane:
    no subplane point is one of the points or lies on a secant u w, that is
    equals u - c w for some c != 0 (`secant_hits` at s = Q - 1)."""
    pts = space.points[sorted(int(i) for i in point_ids)]
    sub = space.points[sorted(subplane.point_ids)]
    return not secant_hits(space, pts, sub, space.tower.order - 1).any()
