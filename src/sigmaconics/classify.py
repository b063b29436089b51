"""Classification of absolute-point sets of correlations of PG(1,q^n) and
PG(2,q^n).

On a line the absolute set is empty, a point, two points, or an F_q-subline.
In the plane a degenerate form yields a cone over one of those line shapes,
a (possibly degenerate) C_F^m-set, or a union of two (possibly equal)
lines, dispatched on the rank and the radical geometry; an invertible
matrix yields one of the Kestenband point sets, whose cardinality must fall
in a short menu determined by the field degree, the parity of q, and
whether the matrix is diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cfsets import pencil_collineation_from_form
from .fields import FieldTower
from .forms import (SesquiForm, absolute_mask, collineation_images,
                    induced_collineation, radicals)
from .linalg import (cross3, dot, mat_det, mat_mul, mat_sigma, mat_transpose,
                     normalize)
from .projective import ProjectiveSpace, projective_space

LINE_EMPTY = "empty"
LINE_ONE_POINT = "one_point"
LINE_TWO_POINTS = "two_points"
LINE_SUBLINE = "subline"

KIND_CONE = "cone_over_sigma_quadric"
KIND_DEGENERATE_CF = "degenerate_cf"
KIND_CF = "cf"
KIND_TWO_LINES = "union_two_lines"
KIND_KESTENBAND = "kestenband_nondegenerate"


@dataclass(frozen=True)
class LineClassification:
    kind: str
    point_ids: tuple
    degenerate: bool


def classify_line_form(form: SesquiForm,
                       space: ProjectiveSpace | None = None) -> LineClassification:
    if form.d != 1:
        raise ValueError("expected a form on the projective line")
    space = space or form.space()
    mask = absolute_mask(form, space)
    ids = tuple(int(i) for i in np.nonzero(mask)[0])
    q = form.tower.q
    size = len(ids)
    if size == 0:
        kind = LINE_EMPTY
    elif size == 1:
        kind = LINE_ONE_POINT
    elif size == 2:
        kind = LINE_TWO_POINTS
    elif size == q + 1 and space.is_fq_subline(ids):
        kind = LINE_SUBLINE
    else:
        raise RuntimeError(f"absolute set of size {size} escapes the line taxonomy")
    return LineClassification(kind=kind, point_ids=ids,
                              degenerate=size not in (0, 2, q + 1))


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


def _radical_line(t: FieldTower, basis) -> tuple:
    """Dual coordinates of the line whose points form a 2-dim radical."""
    return normalize(t, cross3(t, basis[0], basis[1]))


def classify_plane_form(form: SesquiForm,
                        space: ProjectiveSpace | None = None) -> PlaneClassification:
    if form.d != 2:
        raise ValueError("expected a form on the projective plane")
    space = space or form.space()
    t = form.tower
    rad = radicals(form)
    mask = absolute_mask(form, space)
    ids = tuple(int(i) for i in np.nonzero(mask)[0])
    count = len(ids)

    if rad.rank == 0:
        raise ValueError("the zero form is absolute everywhere and is not classified")

    if rad.rank == 1:
        r_line = _radical_line(t, rad.right)
        l_line = _radical_line(t, rad.left)
        return PlaneClassification(kind=KIND_TWO_LINES, rank=1, absolute_count=count,
                                   point_ids=ids, radical_lines=(r_line, l_line))

    if rad.rank == 2:
        v_r = normalize(t, rad.right[0])
        v_l = normalize(t, rad.left[0])
        if v_r == v_l:
            base = _cone_base(form, v_r)
            return PlaneClassification(kind=KIND_CONE, rank=2, absolute_count=count,
                                       point_ids=ids, vertex=v_r, base=base)
        phi = pencil_collineation_from_form(form)
        b = form.evaluate(v_r, v_l)
        kind = KIND_DEGENERATE_CF if b == 0 else KIND_CF
        return PlaneClassification(kind=kind, rank=2, absolute_count=count,
                                   point_ids=ids, vertices=(v_r, v_l),
                                   block=phi.block, tangent_value=b)

    return PlaneClassification(kind=KIND_KESTENBAND, rank=3, absolute_count=count,
                               point_ids=ids)


def _cone_base(form: SesquiForm, vertex) -> LineClassification:
    """Classify the base of a cone: the restriction of the form to a
    complement of the common radical point."""
    t = form.tower
    ident = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    pair = next((e1, e2) for i, e1 in enumerate(ident) for e2 in ident[i + 1:]
                if mat_det(t, (vertex, e1, e2)) != 0)
    basis = tuple(zip(vertex, *pair))
    b = mat_mul(t, mat_mul(t, mat_transpose(basis), form.matrix), mat_sigma(t, basis))
    block = ((b[1][1], b[1][2]), (b[2][1], b[2][2]))
    return classify_line_form(SesquiForm(t, block))


def line_spectrum(mask_or_form, space: ProjectiveSpace) -> np.ndarray:
    """Number of absolute points on each line of the plane."""
    if isinstance(mask_or_form, SesquiForm):
        mask = absolute_mask(mask_or_form, space)
    else:
        mask = np.asarray(mask_or_form)
        if mask.dtype != bool:
            full = np.zeros(space.n_points, dtype=bool)
            full[np.asarray(sorted(mask_or_form), dtype=np.int64)] = True
            mask = full
    return mask[lines_points_array(space)].sum(axis=1)


def lines_points_array(space: ProjectiveSpace) -> np.ndarray:
    """(n_lines, q^n + 1) array of the point indices on each line."""
    if space._lines_points is None:
        rows, cols = np.nonzero(space.incidence())
        per = space.tower.order + 1
        if not (np.bincount(rows, minlength=space.n_points) == per).all():
            raise RuntimeError(f"a line of the incidence matrix does not "
                               f"have {per} points")
        space._lines_points = cols.reshape(space.n_points, per).astype(np.int64)
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


def kestenband_profile(form: SesquiForm,
                       space: ProjectiveSpace | None = None) -> KestenbandProfile:
    """Cardinality and fixed-point profile of an invertible form, validated
    against the admissible cardinality menu.  Violations are reported, not
    raised, so censuses can surface counterexample candidates."""
    t = form.tower
    space = space or form.space()
    if form.rank() != 3:
        raise ValueError("profile requires an invertible 3x3 matrix")
    if t.n == 1:
        raise ValueError("degree over F_q must be at least 2")
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
