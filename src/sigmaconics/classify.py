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
run at K rows by the census sweeps and records and at K = 1 by a single
record: `line_verdicts`, `rank1_verdicts`, `cone_verdicts` and
`cfsets.cf_verdicts`.  The invertible forms have one profile,
`kestenband_profiles`, with `kestenband_profile` its K = 1 caller.  The
K = 1 routines take the form alone, on its cached plane `form.space()`.
The checks test sublines, collinearity and arcs with the plane's batch
tests, one call per batch (`ProjectiveSpace.sublines` and
`collinear_triples`); `is_arc` is a reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .cfsets import KIND_CF, KIND_DEGENERATE_CF, pencil_normal_form
from .fields import FieldTower
from .forms import (SesquiForm, Verdicts, absolute_mask, absolute_masks,
                    fixed_masks, radical_lines, radical_points)
from .linalg import vranks
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


def classify_line_form(form: SesquiForm) -> LineClassification:
    """Line shape of one 2x2 form: `line_verdicts` at K = 1."""
    if form.d != 1:
        raise ValueError("expected a form on the projective line")
    if not any(x for row in form.matrix for x in row):
        raise ValueError("the zero form is absolute everywhere and is not classified")
    mask = absolute_mask(form)
    ids = tuple(int(i) for i in np.nonzero(mask)[0])
    if any(bad[0] for bad in line_verdicts(form.space(), form.entries[None],
                                           mask[None]).flags.values()):
        raise LineTaxonomyError(ids)
    size = len(ids)
    kind = (LINE_EMPTY, LINE_ONE_POINT, LINE_TWO_POINTS, LINE_SUBLINE)[min(size, 3)]
    return LineClassification(kind=kind, point_ids=ids,
                              degenerate=size not in (0, 2, form.tower.q + 1))


def line_verdicts(space: ProjectiveSpace, e: np.ndarray, mask: np.ndarray) -> Verdicts:
    """The line-shape check of K forms of PG(1,q^n) with (K, 4) entries and
    absolute masks (K, q^n + 1): counts the F_q-sublines, verified in one
    `ProjectiveSpace.sublines` call, and flags a size outside
    {0, 1, 2, q+1}, then q+1 points off a subline."""
    q = space.tower.q
    counts = np.count_nonzero(mask, axis=1)
    full = counts == q + 1
    subline = np.zeros(len(e), dtype=bool)
    subline[full] = space.sublines(np.nonzero(mask[full])[1].reshape(-1, q + 1))
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


def classify_plane_form(form: SesquiForm) -> PlaneClassification:
    """Kind, rank and absolute points of a 3x3 form."""
    if form.d != 2:
        raise ValueError("expected a form on the projective plane")
    space = form.space()
    t = form.tower
    ids = tuple(int(i) for i in np.nonzero(absolute_mask(form))[0])
    found = partial(PlaneClassification, absolute_count=len(ids), point_ids=ids)
    e = form.entries[None]
    rank = int(vranks(t, e.reshape(1, 3, 3))[0])
    if rank == 3:
        return found(kind=KIND_KESTENBAND, rank=3)
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


class KestenbandProfiles(NamedTuple):
    """The profiles of K invertible forms, row by row: the family label,
    epsilon (None where the count has no odd-degree form or the degree is
    even), the fixed points on and off the absolute set, and the violation
    reasons of each row in order."""
    family: list
    epsilon: list
    fixed_in: np.ndarray
    fixed_out: np.ndarray
    violations: list


def kestenband_profiles(space: ProjectiveSpace, e: np.ndarray, mask: np.ndarray,
                        fixed: np.ndarray) -> KestenbandProfiles:
    """Cardinality and fixed-point profiles of K invertible forms with (K, 9)
    entries, absolute masks (K, N) and the fixed-point masks (K, N) of
    their induced collineations x -> (A^T)^-1 A^sigma x^(sigma^2), which
    the caller takes from `forms.fixed_masks`, at O(Q) work a form, in a
    census and for one form alike.  They are validated
    against the admissible menu (even degree) or the odd-degree case
    tables, whose checks run as masks over the rows, the shape of q+1
    fixed points on the set included (`_odd_degree_case_checks`)."""
    t = space.tower
    counts = np.count_nonzero(mask, axis=1)
    fixed_in = np.count_nonzero(fixed & mask, axis=1)
    fixed_out = np.count_nonzero(fixed, axis=1) - fixed_in
    violations = [[] for _ in range(len(e))]
    diagonal = ~e[:, [1, 2, 3, 5, 6, 7]].any(axis=1)
    menus = {d: allowed_cardinalities(t, d) for d in (False, True)}
    family = [menus[d][1] for d in diagonal.tolist()]
    epsilon = [None] * len(e)
    if t.n % 2 == 0:
        for d, (allowed, _) in menus.items():
            _add_reasons(violations, (diagonal == d) & ~np.isin(counts, list(allowed)),
                         lambda k: f"cardinality {counts[k]} not in menu "
                                   f"{sorted(allowed)}")
    else:
        step = t.q ** ((t.n - 1) // 2 + 1)
        eps, diff = np.divmod(counts - t.order - 1, step)
        known = (diff == 0) & (abs(eps) <= 1)
        _add_reasons(violations, ~known, lambda k: f"cardinality {counts[k]} not "
                                                   f"of the form {t.order}+eps*{step}+1")
        rows = np.nonzero(known)[0]
        cases = _odd_degree_case_checks(space, mask[rows], fixed[rows], eps[rows],
                                        fixed_in[rows], fixed_out[rows])
        for k, eps_k, reasons in zip(rows.tolist(), eps[rows].tolist(), cases):
            epsilon[k] = eps_k
            violations[k].extend(reasons)
    return KestenbandProfiles(family, epsilon, fixed_in, fixed_out, violations)


def _add_reasons(violations: list, bad: np.ndarray, reason):
    """Append `reason` (a string, or a function of the row) to the
    violations of each row in `bad`."""
    for k in np.nonzero(bad)[0]:
        violations[k].append(reason if isinstance(reason, str) else reason(k))


def kestenband_profile(form: SesquiForm) -> KestenbandProfile:
    """Cardinality and fixed-point profile of an invertible form, validated
    against the admissible cardinality menu: `kestenband_profiles` at K = 1.
    Violations are reported, not raised, so censuses can surface
    counterexample candidates."""
    t = form.tower
    space = form.space()
    if form.rank() != 3:
        raise ValueError("profile requires an invertible 3x3 matrix")
    if t.n == 1:
        raise ValueError("degree over F_q must be at least 2")
    mask = absolute_mask(form)
    fixed = fixed_masks(space, form.entries[None])[0]
    prof = kestenband_profiles(space, form.entries[None], mask[None], fixed[None])
    return KestenbandProfile(
        absolute_count=int(mask.sum()), family=prof.family[0],
        epsilon=prof.epsilon[0], fixed_in=int(prof.fixed_in[0]),
        fixed_out=int(prof.fixed_out[0]),
        fixed_ids=tuple(np.nonzero(fixed)[0].tolist()),
        violations=tuple(prof.violations[0]))


def _odd_degree_case_checks(space: ProjectiveSpace, mask: np.ndarray,
                            fixed: np.ndarray, epsilon: np.ndarray,
                            fixed_in: np.ndarray, fixed_out: np.ndarray) -> list:
    """The reasons, row by row, that K profiles with absolute masks and
    fixed-point masks (K, N) contradict the odd-degree fixed-point case
    tables.  Each row falls in one case, by its fixed points off the set
    and the parity of q, whose checks run as masks over the rows.  The
    rows with q+1 fixed points on the set then take one batch collinearity
    test and, in the conic profile of odd q, one batch arc test, both
    `ProjectiveSpace.collinear_triples`."""
    q = space.tower.q
    none, one, many = fixed_out == 0, fixed_out == 1, fixed_out > 1
    if q % 2 == 1:
        cases = [
            (none & ((epsilon != 0) | (fixed_in != 1)),
             "no fixed point off the set forces eps=0 and one fixed point on it"),
            (many & ((epsilon != 0) | (fixed_in != q + 1) | (fixed_out != q * q)),
             "many fixed points off the set force the pointwise subplane profile"),
            (one & np.isin(fixed_in, (0, 2, q + 1)) & (epsilon != 0),
             "fixed_in in {0,2,q+1} forces eps=0"),
            (one & (fixed_in == 1) & (epsilon == 0), "fixed_in=1 forces eps=+-1"),
            (one & ~np.isin(fixed_in, (0, 1, 2, q + 1)),
             lambda k: f"fixed_in={fixed_in[k]} not in {{0, 1, 2, q+1}}")]
    else:
        cases = [
            (none & ((epsilon == 0) | (fixed_in != 1)),
             "no fixed point off the set forces eps=+-1 and one fixed point on it"),
            (~none & (epsilon != 0), "a fixed point off the set forces eps=0 for even q"),
            (~none & ~np.isin(fixed_in, (0, 2, q + 1)),
             lambda k: f"fixed_in={fixed_in[k]} not in {{0, 2, q+1}}"),
            (~none & (fixed_in == q + 1) & (fixed_out != q * q),
             "a pointwise subplane should leave q^2 fixed points off the set")]
    out = [[] for _ in range(len(mask))]
    for bad, reason in cases:
        _add_reasons(out, bad, reason)
    full = fixed_in == q + 1
    ids = np.nonzero(fixed[full] & mask[full])[1].reshape(-1, q + 1)
    off_line = full.copy()
    off_line[full] = ~space.collinear_triples(
        ids, [(0, 1, k) for k in range(2, q + 1)]).all(axis=1)
    # for odd q in the pointwise-subplane profile these points are the
    # zero set of the form restricted to the fixed PG(2,q): a conic,
    # which is a line or an arc
    conic = off_line & (q % 2 == 1) & (fixed_out == q * q)
    neither = conic.copy()
    neither[conic] = space.collinear_triples(
        ids[conic[full]], list(combinations(range(q + 1), 3))).any(axis=1)
    _add_reasons(out, neither, "the q+1 fixed points on the set are neither "
                               "collinear nor an arc")
    _add_reasons(out, off_line & ~conic,
                 "the q+1 fixed points on the set are not collinear")
    return out


def is_arc(point_ids, space: ProjectiveSpace) -> bool:
    """True when no three of the points are collinear: the arc test of
    `_odd_degree_case_checks` at K = 1, over all triples of the points.
    No arc of PG(2,Q) has more than Q + 2 points, so a larger set is
    refused before its triples are formed."""
    ids = sorted(int(i) for i in point_ids)
    if space.d == 2 and len(ids) > space.tower.order + 2:
        return False
    return len(ids) < 3 or not space.collinear_triples(
        np.array(ids)[None], list(combinations(range(len(ids)), 3))).any()
