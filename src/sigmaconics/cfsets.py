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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .fields import FieldTower
from .forms import SesquiForm, absolute_mask, radicals
from .linalg import (cross3, dot, mat_det, mat_mul, mat_sigma,
                     mat_transpose, normalize, vdot)
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


def pencil_collineation(tower: FieldTower, r_vec, l_vec, block, qexp: int | None = None,
                        mid=None) -> PencilCollineation:
    """Build a pencil collineation with explicit vertices and block."""
    t = tower
    r_vec = normalize(t, r_vec)
    l_vec = normalize(t, l_vec)
    if r_vec == l_vec:
        raise ValueError("vertices must be distinct")
    if mat_det(t, block) == 0:
        raise ValueError("block must be invertible")
    if mid is None:
        c = cross3(t, r_vec, l_vec)
        k = next(i for i in range(3) if c[i] != 0)
        mid = tuple(1 if i == k else 0 for i in range(3))
    basis = tuple(zip(r_vec, mid, l_vec))
    if mat_det(t, basis) == 0:
        raise ValueError("midpoint lies on the line RL")
    return PencilCollineation(tower=t, basis=basis,
                              block=tuple(tuple(int(x) for x in row) for row in block),
                              qexp=(tower.m if qexp is None else qexp) % tower.n)


def pencil_collineation_from_form(form: SesquiForm) -> PencilCollineation:
    """The pencil collineation attached to a rank-2 form with distinct radicals.

    In coordinates where the right radical is (1,0,0) and the left radical
    is (0,0,1), the matrix has zero first column and zero last row; the
    collineation block is the upper-right 2x2 corner.
    """
    t = form.tower
    rad = radicals(form)
    if rad.rank != 2:
        raise ValueError("form must have rank 2")
    v_r = normalize(t, rad.right[0])
    v_l = normalize(t, rad.left[0])
    if v_r == v_l:
        raise ValueError("radical points coincide; this form defines a cone")
    c = cross3(t, v_r, v_l)
    k = next(i for i in range(3) if c[i] != 0)
    mid = tuple(1 if i == k else 0 for i in range(3))
    basis = tuple(zip(v_r, mid, v_l))
    b = mat_mul(t, mat_mul(t, mat_transpose(basis), form.matrix), mat_sigma(t, basis))
    if any(b[i][0] != 0 for i in range(3)) or any(b[2][j] != 0 for j in range(3)):
        raise RuntimeError("the radical basis does not put the form in "
                           "pencil normal form")
    block = ((b[0][1], b[0][2]), (b[1][1], b[1][2]))
    return PencilCollineation(tower=t, basis=basis, block=block, qexp=t.m)


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


def steiner_generate(phi: PencilCollineation,
                     space: ProjectiveSpace | None = None) -> frozenset:
    """Point indices of the locus {l meet phi(l) : l through R}.

    When phi fixes the line RL, that line lies entirely in the locus.
    """
    space = space or projective_space(phi.tower, 2)
    basis = np.array(phi.basis, dtype=np.uint32)[None]
    block = np.array(phi.block, dtype=np.uint32).reshape(1, 4)
    idx, whole_line = steiner_locus(space, basis[..., 0], basis[..., 1],
                                    basis[..., 2], block, phi.qexp)
    out = set(idx[0].tolist())
    if whole_line.any():
        # the points of RL are R and x R + L for x in F_Q
        t = phi.tower
        r = np.array(phi.r_vec, dtype=np.uint32)
        l = np.array(phi.l_vec, dtype=np.uint32)
        x = np.arange(t.order, dtype=np.uint32)[:, None]
        rl = np.vstack([r, t.vadd(t.vmul(x, r), l)])
        out.update(space.index_rows(rl).tolist())
    return frozenset(out)


def steiner_matches_form(form: SesquiForm,
                         space: ProjectiveSpace | None = None) -> bool:
    """Cross-check: the Steiner locus of the pencil collineation attached to
    a rank-2 form with distinct radicals equals its absolute point set."""
    space = space or form.space()
    phi = pencil_collineation_from_form(form)
    generated = steiner_generate(phi, space)
    mask = absolute_mask(form, space)
    ids = set(int(i) for i in np.nonzero(mask)[0])
    return generated == ids


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


def cf_canonical(tower: FieldTower, space: ProjectiveSpace | None = None) -> CfSet:
    """The C_F^m-set x1 x3^(q^m) = x2^(q^m + 1) with vertices (1,0,0), (0,0,1).

    Its affine points are parameterised as (t^(q^m + 1), t, 1); the component
    attached to a in F_q^* collects the parameters of norm a.
    """
    space = space or projective_space(tower, 2)
    t = tower
    exp_tbl = t.pow_table(t.q ** t.m + 1)
    ids = {space.point_index((1, 0, 0))}
    comps: dict[int, set] = {a: set() for a in t.subfield if a != 0}
    for x in t.elements():
        idx = space.point_index((int(exp_tbl[x]), x, 1))
        ids.add(idx)
        if x != 0:
            comps[t.norm(x)].add(idx)
    cf = CfSet(tower=t, m=t.m, degenerate=False,
               vertices=((1, 0, 0), (0, 0, 1)), point_ids=frozenset(ids),
               components={a: frozenset(v) for a, v in comps.items()})
    if absolute_mask(_canonical_form(t, False), space).sum() != len(cf.point_ids):
        raise RuntimeError("the canonical parametrisation misses absolute points")
    return cf


def cf_degenerate_canonical(tower: FieldTower,
                            space: ProjectiveSpace | None = None) -> CfSet:
    """The degenerate set x3 (x1 x3^(q^m - 1) - x2^(q^m)) = 0 with vertices
    (1,0,0) and (0,1,0); it is the line joining the vertices plus the graph
    of x -> x^(q^m)."""
    space = space or projective_space(tower, 2)
    t = tower
    mask = absolute_mask(_canonical_form(t, True), space)
    ids = frozenset(int(i) for i in np.nonzero(mask)[0])
    return CfSet(tower=t, m=t.m, degenerate=True,
                 vertices=((1, 0, 0), (0, 1, 0)), point_ids=ids, components={})


def components(cf: CfSet) -> dict:
    """Norm-class components of a canonical non-degenerate set."""
    if cf.degenerate or not cf.components:
        raise ValueError("components require a canonical non-degenerate set")
    return dict(cf.components)


def embed_subplane_in_component(cf: CfSet,
                                space: ProjectiveSpace | None = None) -> Subplane:
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
    space = space or projective_space(t, 2)
    alpha = t.encode([0, 1])
    basis = (1, alpha, t.mul(alpha, alpha))
    ids = set()
    for a in t.subfield:
        for b in t.subfield:
            for c in t.subfield:
                if a == b == c == 0:
                    continue
                x = t.add(t.add(t.mul(a, basis[0]), t.mul(b, basis[1])),
                          t.mul(c, basis[2]))
                ids.add(space.point_index((t.sigma(x, 2), t.sigma(x, 1), x)))
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


def exterior_set(cf: CfSet, T, space: ProjectiveSpace | None = None) -> ExteriorSet:
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
    space = space or projective_space(t, 2)
    pts = set(cf.point_ids)
    replaced = {}
    for a in sorted(T):
        pts -= cf.components[a]
        j_a = frozenset(space.point_index((t.neg(x), 0, 1)) for x in t.norm_class(a))
        replaced[a] = j_a
        pts |= j_a
    return ExteriorSet(point_ids=frozenset(pts), T=T, replaced=replaced, cf=cf)


def verify_exterior(point_ids, subplane: Subplane, space: ProjectiveSpace) -> bool:
    """Exhaustive check that every line through two of the points misses the
    subplane."""
    t = space.tower
    ids = sorted(int(i) for i in point_ids)
    vecs = [space.point_vec(i) for i in ids]
    sub_vecs = [space.point_vec(i) for i in sorted(subplane.point_ids)]
    for u, v in combinations(vecs, 2):
        line = cross3(t, u, v)
        if all(x == 0 for x in line):
            continue
        if any(dot(t, line, s) == 0 for s in sub_vecs):
            return False
    return True
