"""Field reduction of PG(2,q^n) to 3 x n matrices over F_q and the
non-linear rank-distance codes built from exterior sets.

A vector of F_{q^n}^3 expands row-wise over the fixed polynomial basis of
F_{q^n}/F_q into a 3 x n matrix Phi(v) over F_q; under this reduction the
matrices of rank 1 come exactly from points with a representative whose
coordinates all lie in F_q, i.e. from the canonical PG(2,q).  The exterior
sets produced by cfsets avoid a *different* copy of PG(2,q) (the subplane
inside the component C_1), so the code construction first applies the
projectivity carrying that subplane onto the canonical one and only then
reduces; skipping this step collapses the minimum distance to 1.

The code is {0} and Phi(c u) for the aligned exterior points u and the
scalars c of S (F_{q^n}^* or F_q^*), and both checks on the CLI path use
that structure rather than pairs of codewords.  Phi is F_q-linear and
Phi(c v) = Phi(v) M_c with M_c invertible, so the rank of Phi is a function
of the projective point, and rank 1 is the canonical PG(2,q).  A
difference of two codewords is c1 u - c2 w = c1 (u - (c2/c1) w), with
c2/c1 in S because S is a group, so the code has distance 1 exactly when
a point z of the canonical PG(2,q) is one of the u or a multiple of
u - c w for some c in S: `cfsets.secant_hits` projects U from each z, and
`orbit_distance` reads 2 otherwise.  No code from `build_code` has
distance 3, since it has more than q^n words, the Singleton bound for
distance 3.  One linearity rule covers both S: F = S + {0} is a field, so
the code {0} + S U is additively closed iff it is an F-subspace, iff |U| =
(|F|^k - 1) / (|F| - 1) for k the F-rank of the points (F_{q^n}) or of
their rows Phi(u) (F_q): one `mat_rank` in `orbit_linear`.  The only
budget is on what `build_code` allocates: the code matrices, checked by
`check_code_budget` before any array is built.

The pairwise `min_rank_distance`, the sum test `nonlinearity_witness` and
`rank_fq` are the references: the first ranks blocks of code-matrix
differences through `linalg.vranks` (the minors of an F_q matrix are the
same in F_{q^n}), the last is the scalar rank.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .cfsets import ExteriorSet, secant_hits
from .fields import FieldTower
from .linalg import mat_inv, mat_mul, mat_rank, mat_vec, normalize, vdot, vranks
from .projective import CapExceeded, ProjectiveSpace, Subplane, projective_space

CODE_BUDGET = 64 << 20  # bytes of the int64 matrices `build_code` holds
_PAIR_CHUNK = 512  # code matrices per side of one block of differences
_WITNESS_ROWS = 64  # code matrices whose sums one witness block tests


@functools.lru_cache(maxsize=None)
def _coord_table(t: FieldTower) -> np.ndarray:
    """(Q, n) coordinates of every x in F_{q^n} over the polynomial basis
    {alpha^i} of F_{q^n}/F_q: row x holds the subfield encodings c with
    x = sum c_i alpha^i, found by evaluating every c in F_q^n."""
    sub = np.array(t.subfield, dtype=np.uint32)
    c = sub[np.indices((t.q,) * t.n).reshape(t.n, -1).T]
    alpha = t.encode([0, 1]) if t.degree > 1 else 1
    x = vdot(t, c, np.array([t.pow(alpha, i) for i in range(t.n)], dtype=np.uint32))
    if (np.bincount(x, minlength=t.order) != 1).any():
        raise ValueError("the powers of alpha are not a basis over F_q")
    table = np.empty((t.order, t.n), dtype=np.uint32)
    table[x] = c
    table.flags.writeable = False   # one table, shared by every caller
    return table


def subfield_coords(t: FieldTower, x: int) -> tuple:
    """Coordinates of x over the polynomial basis {alpha^i} of F_{q^n}/F_q,
    as a tuple of n subfield element encodings."""
    return tuple(int(c) for c in _coord_table(t)[x])


def field_reduce(t: FieldTower, v) -> np.ndarray:
    """3 x n matrix over F_q whose rows are the basis coordinates of the
    coordinates of v; an array of vectors gives one matrix per vector."""
    return _coord_table(t)[np.asarray(v, dtype=np.int64)].astype(np.int64)


def rank_fq(t: FieldTower, mat) -> int:
    """Rank over F_q of a matrix of subfield element encodings; it equals
    the rank over F_{q^n}, which elimination in the big field computes."""
    return mat_rank(t, tuple(tuple(int(x) for x in r) for r in np.asarray(mat)))


def singleton_bound(rows: int, cols: int, q: int, s: int) -> int:
    """Largest possible size of a rank-distance code of rows x cols matrices
    over F_q with minimum distance s."""
    if rows > cols:
        raise ValueError("expected rows <= cols")
    if not 1 <= s <= rows:
        raise ValueError("distance must be between 1 and the row count")
    return q ** (cols * (rows - s + 1))


@dataclass(frozen=True)
class RankCode:
    tower: FieldTower
    matrices: np.ndarray          # (size, 3, n) subfield encodings
    scalars: str
    # (E, 3) aligned exterior points u: the code is {0} and Phi(c u), c in S
    points: np.ndarray | None = None

    def __len__(self):
        return len(self.matrices)

    def keys(self) -> set:
        return {m.tobytes() for m in np.ascontiguousarray(self.matrices)}


def frame_projectivity(t: FieldTower, src_frame, dst_frame) -> tuple:
    """Matrix of the unique projectivity carrying one frame to another."""
    def frame_matrix(frame):
        f0, f1, f2, f3 = [normalize(t, f) for f in frame]
        base = tuple(zip(f0, f1, f2))
        coef = mat_vec(t, mat_inv(t, base), f3)
        if any(c == 0 for c in coef):
            raise ValueError("frame has three collinear points")
        return tuple(tuple(t.mul(coef[j], base[i][j]) for j in range(3))
                     for i in range(3))
    m_src = frame_matrix(src_frame)
    m_dst = frame_matrix(dst_frame)
    # dst_matrix . src_matrix^{-1} sends src frame to dst frame
    return mat_mul(t, m_dst, mat_inv(t, m_src))


def subplane_alignment(space: ProjectiveSpace, subplane: Subplane) -> tuple:
    """Projectivity g with g(subplane) = canonical PG(2,q), verified exactly."""
    t = space.tower
    canonical = space.canonical_subplane()
    g = frame_projectivity(t, subplane.frame, canonical.frame)
    pts = space.points[sorted(subplane.point_ids)][:, None]
    image = set(space.index_rows(vdot(t, pts, np.array(g, dtype=np.uint32))).tolist())
    if image != set(canonical.point_ids):
        raise RuntimeError("alignment projectivity failed to map the "
                           "subplane onto the canonical one")
    return g


def check_code_budget(t: FieldTower, size: int, scalars: str) -> None:
    """Raise CapExceeded if the code of `size` exterior points, 1 + size |S|
    matrices of 3 x n int64, would not fit CODE_BUDGET."""
    need = (1 + size * len(_scalar_set(t, scalars))) * 3 * t.n * 8
    if need > CODE_BUDGET:
        raise CapExceeded(f"the code matrices need {need / 2**20:.1f} MiB, "
                          f"beyond the {CODE_BUDGET >> 20} MiB code budget")


def build_code(exterior: ExteriorSet, subplane: Subplane,
               scalars: str = "all") -> RankCode:
    """Rank-distance code from an exterior set: align the subplane with the
    rank-1 locus, then reduce every scalar multiple of every point.

    `scalars` chooses the orbit: "all" takes every nonzero field scalar
    (the maximum-size code), "subfield" only the scalars in F_q^* applied
    to the normalized representatives.
    """
    t = exterior.cf.tower
    if t.q <= 2 or t.n < 3:
        raise ValueError("code construction requires q > 2 and n >= 3")
    scalar_set = _scalar_set(t, scalars)
    check_code_budget(t, len(exterior.point_ids), scalars)
    space = projective_space(t, 2)
    g = np.array(subplane_alignment(space, subplane), dtype=np.uint32)
    # the aligned points g v, point by point, each times every scalar
    pts = space.points[sorted(exterior.point_ids)]
    v = vdot(t, pts[:, None, :], g[None])
    w = t.vmul(scalar_set[None, :, None], v[:, None, :]).reshape(-1, 3)
    arr = np.zeros((1 + len(w), 3, t.n), dtype=np.int64)
    arr[1:] = _coord_table(t)[w]
    # sorted rather than np.unique, whose first call imports numpy.ma
    keys = np.sort(_subfield_keys(t, arr.reshape(len(arr), -1))[2])
    if (keys[1:] == keys[:-1]).any():
        raise RuntimeError("code contains duplicate matrices")
    return RankCode(tower=t, matrices=arr, scalars=scalars, points=v)


def _scalar_set(t: FieldTower, scalars: str) -> np.ndarray:
    """The scalars S of a code's orbit: F_{q^n}^* ("all") or F_q^*
    ("subfield")."""
    if scalars not in ("all", "subfield"):
        raise ValueError("scalars must be 'all' or 'subfield'")
    return np.array(list(t.units()) if scalars == "all"
                    else [a for a in t.subfield if a != 0], dtype=np.uint32)


def orbit_distance(code: RankCode) -> int:
    """Minimum rank distance of a code from `build_code`, exactly: 1 if a
    point of the canonical PG(2,q), the rank-1 locus, is one of its aligned
    points u or a multiple of u - c w for c in S (`cfsets.secant_hits` at
    s = |S|), and 2 otherwise.  It is never 3: the code has more than q^n
    words, the Singleton bound for distance 3, which is checked."""
    if code.points is None:
        raise ValueError("the orbit distance needs the code's aligned points")
    t = code.tower
    if len(code) <= singleton_bound(3, t.n, t.q, 3):
        raise ValueError("a code within the distance-3 Singleton bound "
                         "needs the pairwise distance")
    space = projective_space(t, 2)
    rank_one = space.points[sorted(space.canonical_subplane().point_ids)]
    s = len(_scalar_set(t, code.scalars))
    return 1 if secant_hits(space, code.points, rank_one, s).any() else 2


def orbit_linear(code: RankCode) -> bool:
    """Closure under addition of a code from `build_code`: its aligned
    points U number (|F|^k - 1) / (|F| - 1), F = S + {0} and k the F-rank
    of U over F_{q^n} or of the rows Phi(u) over F_q."""
    t, pts = code.tower, code.points
    if pts is None:
        raise ValueError("the orbit test needs the code's aligned points")
    size, reps = ((t.order, pts) if code.scalars == "all"
                  else (t.q, field_reduce(t, pts).reshape(len(pts), -1)))
    rank = mat_rank(t, tuple(map(tuple, reps.tolist())))
    return len(pts) == (size ** rank - 1) // (size - 1)


def _vector_ranks_mod_p(diff: np.ndarray, tower: FieldTower) -> np.ndarray:
    # a function of its own, not an alias of vranks: perfbench/tracer.py
    # counts the ranked differences by wrapping this name, and it swaps
    # functions by identity, so an alias would wrap every binding of vranks
    return vranks(tower, diff)


def min_rank_distance(code: RankCode) -> int:
    """Exhaustive minimum rank of pairwise differences: the reference for
    `orbit_distance`, and the check for codes given only as matrices."""
    k = len(code.matrices)
    if k < 2:
        raise ValueError("distance needs at least two matrices")
    t = code.tower
    mats = code.matrices
    best = 4
    for i0 in range(0, k, _PAIR_CHUNK):
        block = mats[i0:i0 + _PAIR_CHUNK]
        for j0 in range(i0, k, _PAIR_CHUNK):
            diff = t.vsub(block[:, None], mats[None, j0:j0 + _PAIR_CHUNK])
            bi, bj = diff.shape[0], diff.shape[1]
            ranks = _vector_ranks_mod_p(diff.reshape(bi * bj, 3, -1), t)
            ranks = ranks.reshape(bi, bj)
            ii, jj = np.indices((bi, bj))
            valid = (i0 + ii) < (j0 + jj)
            if valid.any():
                best = min(best, int(ranks[valid].min()))
            if best == 0:
                return 0
    return best


def _subfield_keys(t: FieldTower, flat: np.ndarray) -> tuple:
    """Key each row of (k, w) subfield encodings as one int64: the
    positions of its entries in `t.subfield`, read as base-q digits.
    Returns the position table, the (w,) digit weights and the (k,) keys."""
    if t.q ** flat.shape[1] > 1 << 63:
        raise ValueError("code matrices too large for int64 keys")
    pos = np.zeros(t.order, dtype=np.int64)
    pos[list(t.subfield)] = np.arange(t.q)
    weights = t.q ** np.arange(flat.shape[1], dtype=np.int64)
    keys = np.zeros(len(flat), dtype=np.int64)
    for col, weight in enumerate(weights):
        keys += pos[flat[:, col]] * weight
    return pos, weights, keys


def nonlinearity_witness(code: RankCode):
    """The first pair (i, j >= i) of code matrices whose sum escapes the
    code, or None if the code is closed under addition (checked
    exhaustively, a block of rows against every later matrix at a time).

    A matrix is keyed by `_subfield_keys`, and a sum's key is built entry
    by entry from the addition table of the digit positions, so no sum
    matrix is formed."""
    t = code.tower
    mats = code.matrices
    flat = mats.reshape(len(mats), -1)
    pos, weights, keys = _subfield_keys(t, flat)
    keys = np.sort(keys)
    digits = pos[flat]
    k = len(flat)
    sub = np.array(t.subfield, dtype=np.int64)
    # add[a * q + b] is the position of subfield[a] + subfield[b]
    add = pos[t.vadd(sub[:, None], sub[None, :])].ravel()
    for i0 in range(0, k, _WITNESS_ROWS):
        rows = digits[i0:i0 + _WITNESS_ROWS] * t.q
        cols = digits[i0:]
        sums = np.zeros((len(rows), len(cols)), dtype=np.int64)
        for w, weight in enumerate(weights):
            sums += add[rows[:, w, None] + cols[None, :, w]] * weight
        found = keys[np.minimum(np.searchsorted(keys, sums), k - 1)] == sums
        miss = ~found & (np.arange(len(rows))[:, None] <= np.arange(len(cols)))
        hit = np.nonzero(miss.any(axis=1))[0]
        if len(hit):
            i = hit[0]
            return mats[i0 + i], mats[i0 + int(np.argmax(miss[i]))]
    return None
