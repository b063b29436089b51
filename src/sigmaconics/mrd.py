"""Field reduction of PG(2,q^n) to 3 x n matrices over F_q and the
non-linear rank-distance codes built from exterior sets.

A vector of F_{q^n}^3 expands row-wise over the fixed polynomial basis of
F_{q^n}/F_q into a 3 x n matrix over F_q; under this reduction the
matrices of rank 1 come exactly from points with a representative whose
coordinates all lie in F_q, i.e. from the canonical PG(2,q).  The exterior
sets produced by cfsets avoid a *different* copy of PG(2,q) (the subplane
inside the component C_1), so the code construction first applies the
projectivity carrying that subplane onto the canonical one and only then
reduces; skipping this step collapses the minimum distance to 1.

Distances and sums are checked in blocks of code matrices for every
q = p^e: differences and sums come from the tower's `vsub`/`vadd` on the
subfield encodings, ranks from `linalg.vranks` (the minors of an F_q
matrix are the same in F_{q^n}).  `rank_fq` is the scalar reference.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .cfsets import ExteriorSet
from .fields import FieldTower
from .linalg import mat_inv, mat_mul, mat_rank, mat_vec, normalize, vranks
from .projective import ProjectiveSpace, Subplane, projective_space

_PAIR_CHUNK = 512  # code matrices per side of one block of differences


def _subfield_coord_matrix(t: FieldTower):
    """Change of basis between F_p digit vectors and coordinates over the
    basis {1, alpha, ..., alpha^(n-1)} of F_{q^n}/F_q (entries of F_q split
    over the F_p-basis {1, s, ..., s^(e-1)} of F_q)."""
    p, e, n, d = t.p, t.e, t.n, t.degree
    s = t.pow(t.generator, (t.order - 1) // (t.q - 1)) if t.q > 2 else 1
    alpha = t.encode([0, 1]) if d > 1 else 1
    cols = []
    basis_elems = []
    for i in range(n):
        for j in range(e):
            el = t.mul(t.pow(alpha, i), t.pow(s, j))
            basis_elems.append((i, t.pow(s, j)))
            cols.append(t.coeffs(el))
    b = np.array(cols, dtype=np.int64).T % p  # d x d over F_p
    binv = _mod_inverse_matrix(b, p)
    return binv, basis_elems


def _mod_inverse_matrix(b: np.ndarray, p: int) -> np.ndarray:
    d = b.shape[0]
    aug = np.concatenate([b % p, np.eye(d, dtype=np.int64)], axis=1)
    r = 0
    for c in range(d):
        piv = next((i for i in range(r, d) if aug[i, c] % p), None)
        if piv is None:
            raise ValueError("basis matrix is singular")
        aug[[r, piv]] = aug[[piv, r]]
        aug[r] = (aug[r] * pow(int(aug[r, c]), p - 2, p)) % p
        for i in range(d):
            if i != r and aug[i, c]:
                aug[i] = (aug[i] - aug[i, c] * aug[r]) % p
        r += 1
    return aug[:, d:] % p


def _decomposer(t: FieldTower):
    if t._subfield_decomp is None:
        t._subfield_decomp = _subfield_coord_matrix(t)
    return t._subfield_decomp


def subfield_coords(t: FieldTower, x: int) -> tuple:
    """Coordinates of x over the polynomial basis {alpha^i} of F_{q^n}/F_q,
    as a tuple of n subfield element encodings."""
    if t.e == 1:
        return t.coeffs(x)
    binv, basis_elems = _decomposer(t)
    digits = np.array(t.coeffs(x), dtype=np.int64)
    raw = (binv @ digits) % t.p
    out = [0] * t.n
    for (i, s_pow), c in zip(basis_elems, raw):
        if c:
            out[i] = t.add(out[i], t.mul(int(c) % t.p, s_pow))
    return tuple(out)


def field_reduce(t: FieldTower, v) -> np.ndarray:
    """3 x n matrix over F_q whose rows are the basis coordinates of the
    coordinates of v."""
    return np.array([subfield_coords(t, int(x)) for x in v], dtype=np.int64)


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
    claimed_distance: int

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
    image = {space.point_index(mat_vec(t, g, space.point_vec(i)))
             for i in subplane.point_ids}
    if image != set(canonical.point_ids):
        raise RuntimeError("alignment projectivity failed to map the "
                           "subplane onto the canonical one")
    return g


def build_code(exterior: ExteriorSet, subplane: Subplane,
               scalars: str = "all",
               space: ProjectiveSpace | None = None) -> RankCode:
    """Rank-distance code from an exterior set: align the subplane with the
    rank-1 locus, then reduce every scalar multiple of every point.

    `scalars` chooses the orbit: "all" takes every nonzero field scalar
    (the maximum-size code), "subfield" only the scalars in F_q^* applied
    to the normalized representatives.
    """
    t = exterior.cf.tower
    if t.q <= 2 or t.n < 3:
        raise ValueError("code construction requires q > 2 and n >= 3")
    if scalars not in ("all", "subfield"):
        raise ValueError("scalars must be 'all' or 'subfield'")
    space = space or projective_space(t, 2)
    g = subplane_alignment(space, subplane)
    scalar_set = list(t.units()) if scalars == "all" \
        else [a for a in t.subfield if a != 0]
    mats = [np.zeros((3, t.n), dtype=np.int64)]
    for idx in sorted(exterior.point_ids):
        v = mat_vec(t, g, space.point_vec(idx))
        for rho in scalar_set:
            w = tuple(t.mul(rho, x) for x in v)
            mats.append(field_reduce(t, w))
    arr = np.stack(mats)
    code = RankCode(tower=t, matrices=arr, scalars=scalars, claimed_distance=2)
    if len(code.keys()) != len(arr):
        raise RuntimeError("code contains duplicate matrices")
    return code


def _vector_ranks_mod_p(diff: np.ndarray, tower: FieldTower) -> np.ndarray:
    # a function of its own, not an alias of vranks: perfbench/tracer.py
    # counts the ranked differences by wrapping this name, and it swaps
    # functions by identity, so an alias would wrap every binding of vranks
    return vranks(tower, diff)


def min_rank_distance(code: RankCode) -> int:
    """Exhaustive minimum rank of pairwise differences."""
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


def nonlinearity_witness(code: RankCode):
    """A pair of code matrices whose sum escapes the code, or None if the
    code is closed under addition (checked exhaustively)."""
    t = code.tower
    keys = code.keys()
    mats = code.matrices
    for i in range(len(mats)):
        sums = t.vadd(mats[i][None], mats).astype(mats.dtype, copy=False)
        for j in range(i, len(mats)):
            if sums[j].tobytes() not in keys:
                return mats[i], mats[j]
    return None
