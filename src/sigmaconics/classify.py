"""Classification of absolute-point sets of correlations of PG(1,q^n) and
PG(2,q^n).

On a line the absolute set is empty, a point, two points, or an F_q-subline.
In the plane a degenerate form yields a cone over one of those line shapes,
a (possibly degenerate) C_F^m-set, or a union of two (possibly equal)
lines, dispatched on the rank and the radical geometry; an invertible
matrix yields one of the Kestenband point sets, whose cardinality must fall
in a short menu determined by the field degree, the parity of q, and
whether the matrix is diagonal.

`classify_plane_form` runs the batch steps of the degenerate normal form at
K = 1 (the census at K rows): `forms.radical_points`/`radical_lines`,
`cfsets.pencil_normal_form` and `cone_blocks`.  Each kind has one check,
run at K rows by the census and at K = 1 by records: `line_verdicts`,
`rank1_verdicts`, `cone_verdicts` and `cfsets.cf_verdicts`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .cfsets import KIND_CF, KIND_DEGENERATE_CF, pencil_normal_form
from .fields import FieldTower
from .forms import (SesquiForm, Verdicts, absolute_mask, absolute_masks,
                    collineation_images, induced_collineation, radical_lines,
                    radical_points)
from .linalg import cross3, dot, mat_det, vranks
from .projective import ProjectiveSpace, projective_space

LINE_EMPTY = "empty"
LINE_ONE_POINT = "one_point"
LINE_TWO_POINTS = "two_points"
LINE_SUBLINE = "subline"

KIND_CONE = "cone_over_sigma_quadric"
KIND_TWO_LINES = "union_two_lines"
KIND_KESTENBAND = "kestenband_nondegenerate"


class LineTaxonomyError(RuntimeError):
    """An absolute set on PG(1,q^n) that is none of the four line shapes,
    that is, a counterexample to the line taxonomy."""

    def __init__(self, point_ids: tuple):
        self.point_ids = point_ids
        super().__init__(f"absolute set of size {len(point_ids)} escapes "
                         "the line taxonomy")


@dataclass(frozen=True)
class LineClassification:
    kind: str
    point_ids: tuple
    degenerate: bool


def classify_line_form(form: SesquiForm,
                       space: ProjectiveSpace | None = None) -> LineClassification:
    """Line shape of one 2x2 form: `line_verdicts` at K = 1."""
    if form.d != 1:
        raise ValueError("expected a form on the projective line")
    if not any(x for row in form.matrix for x in row):
        raise ValueError("the zero form is absolute everywhere and is not classified")
    space = space or form.space()
    mask = absolute_mask(form, space)
    ids = tuple(int(i) for i in np.nonzero(mask)[0])
    if any(bad[0] for bad in line_verdicts(space, form.entries[None],
                                           mask[None]).flags.values()):
        raise LineTaxonomyError(ids)
    size = len(ids)
    kind = (LINE_EMPTY, LINE_ONE_POINT, LINE_TWO_POINTS, LINE_SUBLINE)[min(size, 3)]
    return LineClassification(kind=kind, point_ids=ids,
                              degenerate=size not in (0, 2, form.tower.q + 1))


def line_verdicts(space: ProjectiveSpace, e: np.ndarray, mask: np.ndarray) -> Verdicts:
    """The line-shape check of K forms of PG(1,q^n) with (K, 4) entries and
    absolute masks (K, q^n + 1): counts the verified F_q-sublines and flags
    a size outside {0, 1, 2, q+1}, then q+1 points off a subline."""
    q = space.tower.q
    counts = np.count_nonzero(mask, axis=1)
    full = counts == q + 1
    subline = np.zeros(len(e), dtype=bool)
    for k in np.nonzero(full)[0]:
        subline[k] = space.is_fq_subline(np.nonzero(mask[k])[0])
    return Verdicts(
        kinds={"subline_verified": subline},
        flags={"line absolute count outside {0, 1, 2, q+1}":
                   ~np.isin(counts, [0, 1, 2, q + 1]),
               "q+1 absolute points do not form a subline": full & ~subline})


@dataclass(frozen=True)
class PlaneClassification:
    kind: str
    rank: int
    absolute_count: int
    point_ids: tuple
    vertex: tuple | None = None
    vertices: tuple | None = None
    radical_lines: tuple | None = None
    base: LineClassification | None = None
    block: tuple | None = None
    tangent_value: int | None = None


def classify_plane_form(form: SesquiForm, space: ProjectiveSpace | None = None,
                        mask: np.ndarray | None = None) -> PlaneClassification:
    """Kind, rank and absolute points of a 3x3 form; `mask` is its
    absolute mask when the caller already has it."""
    if form.d != 2:
        raise ValueError("expected a form on the projective plane")
    space = space or form.space()
    t = form.tower
    if mask is None:
        mask = absolute_mask(form, space)
    ids = tuple(int(i) for i in np.nonzero(mask)[0])
    found = partial(PlaneClassification, absolute_count=len(ids), point_ids=ids)
    if mat_det(t, form.matrix) != 0:
        return found(kind=KIND_KESTENBAND, rank=3)

    e = form.entries[None]
    rank = int(vranks(t, e.reshape(1, 3, 3))[0])
    if rank == 0:
        raise ValueError("the zero form is absolute everywhere and is not classified")
    if rank == 1:
        return found(kind=KIND_TWO_LINES, rank=1, radical_lines=tuple(
            tuple(v[0].tolist()) for v in radical_lines(space, e)))

    v_r, v_l = radical_points(space, e)
    r, l = tuple(v_r[0].tolist()), tuple(v_l[0].tolist())
    if r == l:
        base = cone_blocks(e, v_r)[0].tolist()
        return found(kind=KIND_CONE, rank=2, vertex=r,
                     base=classify_line_form(SesquiForm(t, (base[:2], base[2:]))))
    block = pencil_normal_form(t, e, v_r, v_l)[1][0].tolist()
    return found(kind=KIND_DEGENERATE_CF if block[1] == 0 else KIND_CF, rank=2,
                 vertices=(r, l), block=(tuple(block[:2]), tuple(block[2:])),
                 tangent_value=block[1])


def cone_blocks(e: np.ndarray, vertex: np.ndarray) -> np.ndarray:
    """Row-major base blocks (K, 4) of K cones with (K, 9) entries and
    vertices (K, 3): in the basis (vertex, e_i, e_j), i < j leaving out the
    vertex's last nonzero coordinate, the block is (a_ii, a_ij, a_ji, a_jj)."""
    pair_idx = np.where(vertex[:, 2] != 0, 0, np.where(vertex[:, 1] != 0, 1, 2))
    i, j = np.array([[0, 1], [0, 2], [1, 2]])[pair_idx].T
    return np.take_along_axis(e, np.stack([4 * i, 3 * i + j, 3 * j + i, 4 * j], axis=1),
                              axis=1)


def rank1_verdicts(space: ProjectiveSpace, e: np.ndarray, mask: np.ndarray) -> Verdicts:
    """The rank-1 check of K forms with (K, 9) entries and absolute masks
    (K, N): counts the line pairs and the coincident ones, and flags a set
    that is not the union of the two radical lines."""
    lines = radical_lines(space, e)
    expect = np.zeros(mask.shape, dtype=bool)
    for line in lines:
        np.put_along_axis(expect, space.lines_points(line), True, axis=1)
    return Verdicts(
        kinds={KIND_TWO_LINES: np.ones(len(e), dtype=bool),
               "two_lines_coincident": (lines[0] == lines[1]).all(axis=1)},
        flags={"rank-1 set is not the union of its radical lines":
                   ~(mask == expect).all(axis=1)})


def cone_verdicts(space: ProjectiveSpace, e: np.ndarray, mask: np.ndarray,
                  vertex: np.ndarray) -> Verdicts:
    """The cone check of K forms with (K, 9) entries, absolute masks (K, N)
    and vertices (K, 3): counts the cones and those over q+1 base points,
    and flags a base (`cone_blocks`) off the line shapes or a size other
    than 1 + q^n |base|, then a q+1 base off a subline."""
    t = space.tower
    line = projective_space(t, 1)
    blocks = cone_blocks(e, vertex)
    base_mask = absolute_masks(line, blocks)
    base = line_verdicts(line, blocks, base_mask)
    base_counts = np.count_nonzero(base_mask, axis=1)
    ok_size = np.count_nonzero(mask, axis=1) == 1 + base_counts * t.order
    bad_shape, bad_subline = base.flags.values()
    return Verdicts(
        kinds={KIND_CONE: np.ones(len(e), dtype=bool),
               "cone_base_subline": base_counts == t.q + 1},
        flags={"cone cardinality does not match its base shape": ~ok_size | bad_shape,
               "cone base of size q+1 is not a subline": bad_subline})


def line_spectrum(points, space: ProjectiveSpace) -> np.ndarray:
    """Number of absolute points on each line of the plane; `points` is a
    boolean mask over the points or a collection of point indices."""
    mask = np.asarray(points)
    if mask.dtype != bool:
        mask = np.isin(np.arange(space.n_points), np.fromiter(points, np.int64))
    return mask[lines_points_array(space)].sum(axis=1)


def lines_points_array(space: ProjectiveSpace) -> np.ndarray:
    """(n_lines, q^n + 1) array of the point indices on each line."""
    if space._lines_points is None:
        space._lines_points = space.lines_points(space.points)
    return space._lines_points


@dataclass(frozen=True)
class TrinomialSpec:
    """The polynomial r x^(q^mexp + 1) + rho x + s over the big field."""
    tower: FieldTower
    r: int
    rho: int
    s: int
    mexp: int | None = None


def count_trinomial_roots(spec: TrinomialSpec) -> int:
    t = spec.tower
    if spec.r == 0:
        raise ValueError("leading coefficient must be nonzero")
    mexp = t.m if spec.mexp is None else spec.mexp
    tbl = t.pow_table(t.q ** mexp + 1)
    x = np.arange(t.order, dtype=np.uint32)
    vals = t.vadd(t.vadd(t.vmul(np.uint32(spec.r), tbl),
                         t.vmul(np.uint32(spec.rho), x)),
                  np.uint32(spec.s))
    return int((vals == 0).sum())


@dataclass(frozen=True)
class KestenbandProfile:
    absolute_count: int
    family: str
    epsilon: int | None
    fixed_in: int
    fixed_out: int
    fixed_ids: tuple
    violations: tuple


def allowed_cardinalities(tower: FieldTower, diagonal: bool) -> tuple:
    """(allowed set, family label) for invertible forms over this tower."""
    q, n = tower.q, tower.n
    big = tower.order
    if n == 1:
        raise ValueError("no nondegenerate taxonomy for degree 1 over F_q")
    if n % 2 == 1:
        k = (n - 1) // 2
        menu = {big + eps * q ** (k + 1) + 1 for eps in (-1, 0, 1)}
        return frozenset(menu), "odd-degree"
    k = n // 2
    s = (-q) ** k
    diag_menu = {big + 1 + (-q) ** (k + 1) * (q - 1), big + 1 + s * (q - 1),
                 big + 1 - 2 * s}
    if diagonal:
        return frozenset(diag_menu), "even-degree-diagonal"
    nondiag = {big - (-q) ** (k + 1) + 1, big - s + 1, big + 1}
    if q % 2 == 1:
        nondiag |= {big + q ** k + 1, big - q ** k + 1}
    # a non-diagonal matrix can be congruent to a diagonal one, so the
    # diagonal menu stays admissible
    return frozenset(nondiag | diag_menu), "even-degree-nondiagonal"


def is_diagonal(matrix) -> bool:
    return all(matrix[i][j] == 0 for i in range(len(matrix))
               for j in range(len(matrix)) if i != j)


def kestenband_profile(form: SesquiForm, space: ProjectiveSpace | None = None,
                       mask: np.ndarray | None = None,
                       rank: int | None = None) -> KestenbandProfile:
    """Cardinality and fixed-point profile of an invertible form, validated
    against the admissible cardinality menu.  Violations are reported, not
    raised, so censuses can surface counterexample candidates.  `mask` and
    `rank` are the form's absolute mask and rank when the caller already
    has them."""
    t = form.tower
    space = space or form.space()
    if (form.rank() if rank is None else rank) != 3:
        raise ValueError("profile requires an invertible 3x3 matrix")
    if t.n == 1:
        raise ValueError("degree over F_q must be at least 2")
    if mask is None:
        mask = absolute_mask(form, space)
    count = int(mask.sum())
    img = collineation_images(induced_collineation(form), space)
    fixed = img == np.arange(space.n_points)
    fixed_ids = tuple(int(i) for i in np.nonzero(fixed)[0])
    fixed_in = int((fixed & mask).sum())
    fixed_out = len(fixed_ids) - fixed_in

    violations = []
    allowed, family = allowed_cardinalities(t, is_diagonal(form.matrix))
    epsilon = None
    q = t.q
    if t.n % 2 == 1:
        k = (t.n - 1) // 2
        diff = count - t.order - 1
        step = q ** (k + 1)
        if diff % step == 0 and abs(diff // step) <= 1:
            epsilon = diff // step
        if epsilon is None:
            violations.append(f"cardinality {count} not of the form "
                              f"{t.order}+eps*{step}+1")
        else:
            violations.extend(_odd_degree_case_checks(
                form, space, mask, fixed, epsilon, fixed_in, fixed_out))
    elif count not in allowed:
        violations.append(f"cardinality {count} not in menu {sorted(allowed)}")
    return KestenbandProfile(absolute_count=count, family=family, epsilon=epsilon,
                             fixed_in=fixed_in, fixed_out=fixed_out,
                             fixed_ids=fixed_ids, violations=tuple(violations))


def _odd_degree_case_checks(form, space, mask, fixed, epsilon,
                            fixed_in, fixed_out) -> list:
    """Consistency of (fixed_in, fixed_out, epsilon) with the odd-degree
    fixed-point case tables."""
    q = form.tower.q
    out = []
    if fixed_out == 0:
        if q % 2 == 1 and (epsilon != 0 or fixed_in != 1):
            out.append("no fixed point off the set forces eps=0 and one "
                       "fixed point on it")
        if q % 2 == 0 and (epsilon == 0 or fixed_in != 1):
            out.append("no fixed point off the set forces eps=+-1 and one "
                       "fixed point on it")
    elif fixed_out > 1 and q % 2 == 1:
        if epsilon != 0 or fixed_in != q + 1 or fixed_out != q * q:
            out.append("many fixed points off the set force the pointwise "
                       "subplane profile")
    elif q % 2 == 0:
        if epsilon != 0:
            out.append("a fixed point off the set forces eps=0 for even q")
        if fixed_in not in (0, 2, q + 1):
            out.append(f"fixed_in={fixed_in} not in {{0, 2, q+1}}")
        if fixed_in == q + 1 and fixed_out != q * q:
            out.append("a pointwise subplane should leave q^2 fixed points "
                       "off the set")
    else:  # q odd, exactly one fixed point off the set
        if fixed_in in (0, 2, q + 1) and epsilon != 0:
            out.append("fixed_in in {0,2,q+1} forces eps=0")
        if fixed_in == 1 and epsilon == 0:
            out.append("fixed_in=1 forces eps=+-1")
        if fixed_in not in (0, 1, 2, q + 1):
            out.append(f"fixed_in={fixed_in} not in {{0, 1, 2, q+1}}")
    if fixed_in == q + 1:
        ids = [i for i in np.nonzero(fixed & mask)[0]]
        # for odd q in the pointwise-subplane profile these points are the
        # zero set of the form restricted to the fixed PG(2,q): a conic,
        # which is a line or an arc
        conic = q % 2 == 1 and fixed_out == q * q
        if conic and not (_all_collinear(space, ids) or is_arc(ids, space)):
            out.append("the q+1 fixed points on the set are neither "
                       "collinear nor an arc")
        elif not conic and not _all_collinear(space, ids):
            out.append("the q+1 fixed points on the set are not collinear")
    return out


def _all_collinear(space: ProjectiveSpace, ids) -> bool:
    if len(ids) <= 2:
        return True
    t = space.tower
    u, v = space.point_vec(ids[0]), space.point_vec(ids[1])
    line = cross3(t, u, v)
    return all(dot(t, line, space.point_vec(i)) == 0 for i in ids[2:])


def is_arc(point_ids, space: ProjectiveSpace) -> bool:
    """True when no three of the points are collinear."""
    t = space.tower
    ids = sorted(int(i) for i in point_ids)
    vecs = [space.point_vec(i) for i in ids]
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            line = cross3(t, vecs[i], vecs[j])
            on = sum(1 for w in vecs if dot(t, line, w) == 0)
            if on > 2:
                return False
    return True
