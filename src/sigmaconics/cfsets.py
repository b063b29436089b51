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
`pencil_normal_form`, the pencil bases and blocks of K rank-2 forms, runs
at K rows in the census and at K = 1 in `pencil_collineation_from_form`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .fields import FieldTower
from .forms import SesquiForm, absolute_mask, form_values, radical_points
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


_STD = np.eye(3, dtype=np.uint32)


def pencil_midpoints(t: FieldTower, r_vec: np.ndarray, l_vec: np.ndarray) -> np.ndarray:
    """Midpoints (K, 3) of the bases (R, mid, L) of K pairs of distinct
    points: e_k, k the first nonzero coordinate of R x L."""
    rl = vcross(t, r_vec, l_vec)
    return _STD[np.where(rl[:, 0] != 0, 0, np.where(rl[:, 1] != 0, 1, 2))]


def pencil_normal_form(t: FieldTower, e: np.ndarray, r_vec: np.ndarray,
                       l_vec: np.ndarray) -> tuple:
    """Midpoints (K, 3) and row-major pencil blocks (K, 4) of K rank-2 forms
    with (K, 9) entries and distinct right and left radical points r_vec
    and l_vec.  In the basis (R, mid, L) the congruent matrix has a zero
    first column and a zero last row; the block is its upper-right 2x2
    corner (R A mid^sigma, R A L^sigma, mid A mid^sigma, mid A L^sigma)."""
    mid = pencil_midpoints(t, r_vec, l_vec)
    block = np.stack([form_values(t, e, r_vec, mid), form_values(t, e, r_vec, l_vec),
                      form_values(t, e, mid, mid), form_values(t, e, mid, l_vec)],
                     axis=1)
    return mid, block


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


def pencil_collineation_from_form(form: SesquiForm, vertices=None,
                                  block=None) -> PencilCollineation:
    """The pencil collineation attached to a rank-2 form with distinct
    radicals: its basis and block are those of `pencil_normal_form`.
    `vertices` (the right and left radical points) and `block` are those
    of `classify_plane_form` when the caller already has them; the
    normal-form check runs either way."""
    t = form.tower
    e = form.entries[None]
    if vertices is None:
        if vranks(t, e.reshape(1, 3, 3))[0] != 2:
            raise ValueError("form must have rank 2")
        v_r, v_l = radical_points(form.space(), e)
    else:
        v_r, v_l = (np.array([v], dtype=np.uint32) for v in vertices)
    if (v_r == v_l).all():
        raise ValueError("radical points coincide; this form defines a cone")
    # the normal form's zero first column and last row: A R^sigma = L^T A = 0
    if form_values(t, e, _STD, v_r).any() or form_values(t, e, v_l, _STD).any():
        raise RuntimeError("the radical basis does not put the form in "
                           "pencil normal form")
    if block is None:
        block = pencil_normal_form(t, e, v_r, v_l)[1].reshape(2, 2).tolist()
    return pencil_collineation(t, v_r[0].tolist(), v_l[0].tolist(), block)


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
        rl = vcross(phi.tower, basis[..., 0], basis[..., 2])
        out.update(space.lines_points(rl)[0].tolist())
    return frozenset(out)


def steiner_matches_form(form: SesquiForm, space: ProjectiveSpace | None = None,
                         mask: np.ndarray | None = None,
                         phi: PencilCollineation | None = None) -> bool:
    """Cross-check: the Steiner locus of the pencil collineation attached to
    a rank-2 form with distinct radicals equals its absolute point set.
    `mask` and `phi` are the form's absolute mask and pencil collineation
    when the caller already has them."""
    space = space or form.space()
    if phi is None:
        phi = pencil_collineation_from_form(form)
    if mask is None:
        mask = absolute_mask(form, space)
    return steiner_generate(phi, space) == set(np.nonzero(mask)[0].tolist())


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
    subplane, in blocks of pairs of about 2^22 (line, subplane point) cells."""
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
