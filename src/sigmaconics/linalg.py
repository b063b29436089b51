"""Small dense linear algebra over a FieldTower.

Vectors are tuples of element encodings, matrices are tuples of row tuples.
Everything here is exact; elimination pivots on the first nonzero entry so
reduced forms and null-space bases are deterministic.  The vectorised
routines act on numpy arrays of encodings: `vdot` (the dot product),
`vcross` (the cross product), `vranks`, the library's one batch rank,
built from the two, and `first_nonzero_rows`, which the batch radicals of
`forms` rest on.  `dot`, `cross3` and `mat_rank` are scalar references.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .fields import FieldTower


def vec_sigma(t: FieldTower, u, k: int = 1):
    return tuple(t.sigma(a, k) for a in u)


def vec_frobq(t: FieldTower, u, j: int):
    return tuple(t.frobq(a, j) for a in u)


def dot(t: FieldTower, u, v) -> int:
    acc = 0
    for a, b in zip(u, v):
        acc = t.add(acc, t.mul(a, b))
    return acc


def vdot(t: FieldTower, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Field dot product over the last axis of two arrays of encodings; the
    leading axes broadcast."""
    acc = t.vmul(u[..., 0], v[..., 0])
    for i in range(1, u.shape[-1]):
        acc = t.vadd(acc, t.vmul(u[..., i], v[..., i]))
    return acc


def vcross(t: FieldTower, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Field cross product over the last axis (of length 3) of two arrays of
    encodings; the leading axes broadcast."""
    def minor(i, j):
        return t.vsub(t.vmul(u[..., i], v[..., j]), t.vmul(u[..., j], v[..., i]))
    return np.stack([minor(1, 2), minor(2, 0), minor(0, 1)], axis=-1)


def first_nonzero_rows(cands) -> np.ndarray:
    """Row-wise first of the (K, c) candidate arrays that is not a zero
    vector (a zero vector where all are)."""
    c = np.stack(cands, axis=1)
    return c[np.arange(len(c)), c.any(axis=2).argmax(axis=1)]


def vranks(t: FieldTower, m: np.ndarray) -> np.ndarray:
    """Ranks (0..3) of a (K, 3, c) batch of matrices of encodings.

    The 3x3 minors are col_a . (col_b x col_c) for every column triple; the
    2x2 minors, the entries of col_a x col_b, are only evaluated on the
    matrices that the 3x3 minors leave singular.
    """
    c = m.shape[2]
    full = np.zeros(len(m), dtype=bool)
    for a, b, d in combinations(range(c), 3):
        full |= vdot(t, m[:, :, a], vcross(t, m[:, :, b], m[:, :, d])) != 0
    ranks = np.where(full, 3, 2)
    singular = np.nonzero(~full)[0]
    s = m[singular]
    two = np.zeros(len(s), dtype=bool)
    for a, b in combinations(range(c), 2):
        two |= vcross(t, s[:, :, a], s[:, :, b]).any(axis=1)
    ranks[singular] = np.where(two, 2, s.any(axis=(1, 2)))
    return ranks


def mat_transpose(a):
    return tuple(zip(*a))


def mat_sigma(t: FieldTower, a, k: int = 1):
    return tuple(tuple(t.sigma(x, k) for x in row) for row in a)


def mat_vec(t: FieldTower, a, v):
    return tuple(dot(t, row, v) for row in a)


def mat_mul(t: FieldTower, a, b):
    bt = mat_transpose(b)
    return tuple(tuple(dot(t, row, col) for col in bt) for row in a)


def mat_det(t: FieldTower, a) -> int:
    k = len(a)
    if k == 1:
        return a[0][0]
    if k == 2:
        return t.sub(t.mul(a[0][0], a[1][1]), t.mul(a[0][1], a[1][0]))
    if k == 3:
        m00 = t.sub(t.mul(a[1][1], a[2][2]), t.mul(a[1][2], a[2][1]))
        m01 = t.sub(t.mul(a[1][0], a[2][2]), t.mul(a[1][2], a[2][0]))
        m02 = t.sub(t.mul(a[1][0], a[2][1]), t.mul(a[1][1], a[2][0]))
        return t.add(t.sub(t.mul(a[0][0], m00), t.mul(a[0][1], m01)),
                     t.mul(a[0][2], m02))
    raise ValueError("only sizes 1..3 supported")


def mat_inv(t: FieldTower, a):
    d = mat_det(t, a)
    if d == 0:
        raise ZeroDivisionError("matrix is singular")
    di = t.inv(d)
    k = len(a)
    if k == 2:
        return ((t.mul(di, a[1][1]), t.mul(di, t.neg(a[0][1]))),
                (t.mul(di, t.neg(a[1][0])), t.mul(di, a[0][0])))
    if k == 3:
        def cof(i, j):
            r = [x for x in range(3) if x != i]
            c = [x for x in range(3) if x != j]
            minor = t.sub(t.mul(a[r[0]][c[0]], a[r[1]][c[1]]),
                          t.mul(a[r[0]][c[1]], a[r[1]][c[0]]))
            return minor if (i + j) % 2 == 0 else t.neg(minor)
        # adjugate is the transpose of the cofactor matrix
        return tuple(tuple(t.mul(di, cof(j, i)) for j in range(3))
                     for i in range(3))
    raise ValueError("only sizes 2 and 3 supported")


def row_reduce(t: FieldTower, a):
    """Return (rank, rref rows, pivot column indices)."""
    rows = [list(r) for r in a]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        f = t.inv(rows[r][c])
        rows[r] = [t.mul(f, x) for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                g = rows[i][c]
                rows[i] = [t.sub(x, t.mul(g, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return r, tuple(tuple(row) for row in rows), tuple(pivots)


def mat_rank(t: FieldTower, a) -> int:
    return row_reduce(t, a)[0]


def null_space(t: FieldTower, a):
    """Deterministic basis of {v : a v = 0}."""
    rank, rref, pivots = row_reduce(t, a)
    ncols = len(a[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = t.neg(rref[r][fc])
        basis.append(tuple(v))
    return tuple(basis)


def cross3(t: FieldTower, u, v):
    return (t.sub(t.mul(u[1], v[2]), t.mul(u[2], v[1])),
            t.sub(t.mul(u[2], v[0]), t.mul(u[0], v[2])),
            t.sub(t.mul(u[0], v[1]), t.mul(u[1], v[0])))


def normalize(t: FieldTower, v):
    """Projective representative with leading nonzero coordinate 1."""
    lead = next((x for x in v if x != 0), None)
    if lead is None:
        raise ValueError("cannot normalize the zero vector")
    if lead == 1:
        return tuple(v)
    f = t.inv(lead)
    return tuple(t.mul(f, x) for x in v)
