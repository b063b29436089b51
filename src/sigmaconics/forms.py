"""Sigma-sesquilinear forms on F_{q^n}^2 and F_{q^n}^3.

A form is given by a square matrix A over the tower; its value on a pair of
coordinate vectors is x^T A y^sigma, linear in x and sigma-semilinear in y.
This module computes radicals, reflexivity and polarity predicates, the set
of absolute points of the induced (possibly degenerate) correlation, and
the collineation obtained by applying the correlation twice.

`form_values` is the one vectorised evaluator of x^T A y^sigma; the
absolute sets (`absolute_masks`, K forms at once) and the reflexivity test
go through it, and `cfsets.pencil_normal_form` shares the products
A y^sigma of its basis.  `SesquiForm.evaluate` is its scalar reference.

The radicals have one batch routine per rank on (K, 9) entries,
`radical_points` (rank 2) and `radical_lines` (rank 1), called at K = 1 by
classify and cfsets and at K rows by census; `radicals` is their reference.

The routines of one form or collineation (`absolute_mask`,
`absolute_points`, `is_reflexive`, `fixed_points`) take it alone and work
on its plane, `projective_space(tower, d)`, cached per tower; the batch
routines take the plane as their first argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .fields import FieldTower
from .linalg import (dot, first_nonzero_rows, mat_inv, mat_mul, mat_rank,
                     mat_sigma, mat_transpose, mat_vec, null_space, vcross,
                     vdot, vec_frobq, vec_sigma)
from .projective import ProjectiveSpace, projective_space


@dataclass(frozen=True)
class SesquiForm:
    tower: FieldTower
    matrix: tuple

    def __post_init__(self):
        k = len(self.matrix)
        if k not in (2, 3) or any(len(r) != k for r in self.matrix):
            raise ValueError("matrix must be 2x2 or 3x3")
        matrix = tuple(tuple(int(x) for x in r) for r in self.matrix)
        Q = self.tower.order
        for i, row in enumerate(matrix):
            for j, x in enumerate(row):
                if not 0 <= x < Q:
                    raise ValueError(f"matrix entry {x} at row {i + 1}, column "
                                     f"{j + 1} is outside 0..{Q - 1}, the "
                                     f"encodings of F_{Q}")
        object.__setattr__(self, "matrix", matrix)

    @property
    def entries(self) -> np.ndarray:
        """The row-major entries as a (k*k,) array of encodings."""
        return np.array(self.matrix, dtype=np.uint32).ravel()

    @property
    def d(self) -> int:
        return len(self.matrix) - 1

    def space(self) -> ProjectiveSpace:
        return projective_space(self.tower, self.d)

    def evaluate(self, x, y) -> int:
        """x^T A y^sigma."""
        if len(x) != len(self.matrix) or len(y) != len(self.matrix):
            raise ValueError("vector length does not match the form")
        t = self.tower
        ys = vec_sigma(t, y)
        return dot(t, mat_vec(t, self.matrix, ys), x)

    def rank(self) -> int:
        return mat_rank(self.tower, self.matrix)

    def scaled(self, c: int) -> "SesquiForm":
        t = self.tower
        return SesquiForm(t, tuple(tuple(t.mul(c, x) for x in r) for r in self.matrix))


def make_form(tower: FieldTower, entries) -> SesquiForm:
    """Build a form from either a flat list (4 or 9 entries) or nested rows."""
    entries = list(entries)
    if entries and not hasattr(entries[0], "__len__"):
        k = {4: 2, 9: 3}.get(len(entries))
        if k is None:
            raise ValueError("expected 4 or 9 matrix entries")
        entries = [entries[i * k:(i + 1) * k] for i in range(k)]
    return SesquiForm(tower, tuple(tuple(entries[i]) for i in range(len(entries))))


@dataclass(frozen=True)
class RadicalPair:
    """Left radical {x : <x,y> = 0 for all y} and right radical
    {y : <x,y> = 0 for all x}, each as a deterministic basis."""
    left: tuple
    right: tuple
    rank: int


def radicals(form: SesquiForm) -> RadicalPair:
    t = form.tower
    a = form.matrix
    left = null_space(t, mat_transpose(a))
    # right radical: y with A y^sigma = 0, i.e. sigma-inverse of the null space
    right = tuple(vec_frobq(t, b, (t.n - t.m) % t.n) for b in null_space(t, a))
    rank = len(a) - len(left)
    return RadicalPair(left=left, right=right, rank=rank)


def _radical_pair(space: ProjectiveSpace, e: np.ndarray, pick) -> tuple:
    """Normalized (right, left) radicals of (K, 9) entries: sigma^-1 of
    `pick` of the rows of A, and `pick` of its columns."""
    t = space.tower
    right = pick([e[:, 3 * i:3 * i + 3] for i in range(3)])
    left = pick([e[:, i::3] for i in range(3)])
    return (space.normalize_rows(t.vfrobq(right, (t.n - t.m) % t.n)),
            space.normalize_rows(left))


def radical_points(space: ProjectiveSpace, e: np.ndarray) -> tuple:
    """Right (A y^sigma = 0) and left (x^T A = 0) radical points, each
    (K, 3), of K rank-2 forms of the plane with (K, 9) entries: cross
    products of two independent rows, and of two independent columns."""
    t = space.tower
    return _radical_pair(space, e, lambda vecs: first_nonzero_rows(
        [vcross(t, u, v) for u, v in combinations(vecs, 2)]))


def radical_lines(space: ProjectiveSpace, e: np.ndarray) -> tuple:
    """Dual coordinates, each (K, 3), of the right and left radical lines of
    K rank-1 forms of the plane with (K, 9) entries.  A rank-1 matrix is
    c r^T: its radicals are the lines r^(sigma^-1) and c."""
    return _radical_pair(space, e, first_nonzero_rows)


class Verdicts(NamedTuple):
    """A per-kind batch check's findings on K forms, in booking order: each
    kind counter's (K,) mask of rows counted, and each violation reason's
    (K,) mask of failing rows."""
    kinds: dict
    flags: dict


@dataclass(frozen=True)
class AbsolutePointSet:
    form: SesquiForm
    point_ids: tuple
    mask: np.ndarray

    def __len__(self):
        return len(self.point_ids)


def form_values(t: FieldTower, entries: np.ndarray, x: np.ndarray,
                y: np.ndarray) -> np.ndarray:
    """x^T A y^sigma for arrays of encodings.  The last axis of `entries`
    holds the k*k row-major entries of A, the last axis of x and y the k
    coordinates; all leading axes broadcast."""
    k = x.shape[-1]
    a = entries.reshape(entries.shape[:-1] + (k, k))
    return vdot(t, x, vdot(t, a, t.vsigma(y)[..., None, :]))


def absolute_mask(form: SesquiForm) -> np.ndarray:
    """Boolean mask over the points of the form's space: true where
    x^T A x^sigma = 0."""
    return absolute_masks(form.space(), form.entries[None])[0]


def absolute_masks(space: ProjectiveSpace, e: np.ndarray) -> np.ndarray:
    """Absolute masks (K, N) of K forms of the space with (K, k*k) entries."""
    pts = space.points[None]
    return form_values(space.tower, e[:, None], pts, pts) == 0


def absolute_points(form: SesquiForm) -> AbsolutePointSet:
    mask = absolute_mask(form)
    ids = tuple(int(i) for i in np.nonzero(mask)[0])
    return AbsolutePointSet(form=form, point_ids=ids, mask=mask)


def is_reflexive(form: SesquiForm) -> bool:
    """Exhaustive test: <x,y> = 0 implies <y,x> = 0 on all projective pairs."""
    pts = form.space().points
    zero = form_values(form.tower, form.entries, pts[:, None], pts[None, :]) == 0
    return bool(np.array_equal(zero, zero.T))


def is_polarity(form: SesquiForm) -> bool:
    """Invertible A induces a polarity iff A_t^{-1} A^sigma is scalar and
    sigma^2 = 1."""
    t = form.tower
    m = induced_collineation(form).matrix
    if (2 * t.m) % t.n != 0:
        return False
    k = len(m)
    diag = m[0][0]
    return all(m[i][j] == (diag if i == j else 0)
               for i in range(k) for j in range(k)) and diag != 0


@dataclass(frozen=True)
class Collineation:
    """Point map x -> M x^(q^qexp) of PG(d, q^n)."""
    tower: FieldTower
    matrix: tuple
    qexp: int


def induced_collineation(form: SesquiForm) -> Collineation:
    """The collineation A_t^{-1} A^sigma composed with sigma^2, i.e. the
    square of the correlation induced by the form."""
    t = form.tower
    a = form.matrix
    m = mat_mul(t, mat_inv(t, mat_transpose(a)), mat_sigma(t, a))
    return Collineation(tower=t, matrix=m, qexp=(2 * t.m) % t.n)


def collineation_images(coll: Collineation, space: ProjectiveSpace) -> np.ndarray:
    """Index array img with img[i] = index of the image of point i."""
    t = coll.tower
    w = t.vfrobq(space.points, coll.qexp)
    m = np.array(coll.matrix, dtype=np.uint32)
    return space.index_rows(vdot(t, m, w[:, None, :]))


def fixed_points(coll: Collineation) -> tuple:
    space = projective_space(coll.tower, len(coll.matrix) - 1)
    img = collineation_images(coll, space)
    return tuple(int(i) for i in np.nonzero(img == np.arange(space.n_points))[0])


def congruence_transform(form: SesquiForm, m) -> SesquiForm:
    """The form M^T A M^sigma; its absolute set is the preimage of the
    original one under x -> M x."""
    t = form.tower
    b = mat_mul(t, mat_mul(t, mat_transpose(m), form.matrix), mat_sigma(t, m))
    return SesquiForm(t, b)
