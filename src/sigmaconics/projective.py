"""Points, lines, pencils, sublines and subplanes of PG(1,q^n) and PG(2,q^n).

Projective points are stored normalized (leading nonzero coordinate 1) and
enumerated in ascending lexicographic order of their coordinate encodings,
so indices are reproducible and can be computed arithmetically.  Lines of
PG(2,q^n) are represented by dual coordinates with the same normalization
and ordering.  `lines_points` lists the points of lines as R and xR + L
for x in F_{q^n}; the dense `incidence()` matrix is a test reference.
Rows of point indices take two batch tests, `sublines` and
`collinear_triples`; `is_fq_subline` and the scalar `collinear` are their
references.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fields import CapExceeded, FieldTower, build_field
from .linalg import cross3, mat_det, normalize, vcross, vdot

_INCIDENCE_MAX_CELLS = 64_000_000
LINES_BUDGET = 32 << 20  # bytes of int64 point indices per call of lines_points
POINTS_BUDGET = 64 << 20  # bytes of uint32 point coordinates, checked before they exist


@dataclass(frozen=True)
class Subplane:
    """A PG(2,q) subgeometry given by its point set and a frame."""
    point_ids: frozenset
    frame: tuple
    q: int


@dataclass(frozen=True)
class Pencil:
    center: int
    line_ids: tuple


class ProjectiveSpace:
    """PG(d, q^n) for d in {1, 2} over a FieldTower."""

    def __init__(self, tower: FieldTower, d: int):
        if d not in (1, 2):
            raise ValueError("only PG(1,.) and PG(2,.) are supported")
        self.tower = tower
        self.d = d
        Q = tower.order
        self.n_points = (Q ** (d + 1) - 1) // (Q - 1)
        need = self.n_points * (d + 1) * 4
        if need > POINTS_BUDGET:
            raise CapExceeded(f"the points of PG({d},{Q}) need {need / 2**20:.1f} "
                              f"MiB, beyond the {POINTS_BUDGET >> 20} MiB "
                              f"point-array budget")
        self.points = self._enumerate()
        # caches built on first use: the dense incidence matrix, the
        # lines-by-points array (classify), the point and the line count
        # kernels (census)
        self._incidence = None
        self._lines_points = None
        self._kernel = None
        self._line_kernel = None

    def _enumerate(self) -> np.ndarray:
        Q = self.tower.order
        if self.d == 1:
            pts = np.zeros((Q + 1, 2), dtype=np.uint32)
            pts[0] = (0, 1)
            pts[1:, 0] = 1
            pts[1:, 1] = np.arange(Q)
        else:
            pts = np.zeros((self.n_points, 3), dtype=np.uint32)
            pts[0] = (0, 0, 1)
            pts[1:Q + 1, 1] = 1
            pts[1:Q + 1, 2] = np.arange(Q)
            pts[Q + 1:, 0] = 1
            pts[Q + 1:, 1] = np.repeat(np.arange(Q), Q)
            pts[Q + 1:, 2] = np.tile(np.arange(Q), Q)
        return pts

    # -- indexing ------------------------------------------------------------

    def point_vec(self, idx: int) -> tuple:
        return tuple(int(c) for c in self.points[idx])

    def point_index(self, vec) -> int:
        v = normalize(self.tower, vec)
        Q = self.tower.order
        if self.d == 1:
            return 0 if v[0] == 0 else 1 + v[1]
        if v[0] == 1:
            return 1 + Q + v[1] * Q + v[2]
        if v[1] == 1:
            return 1 + v[2]
        return 0

    # lines of PG(2,.) share the enumeration of points via dual coordinates
    line_vec = point_vec
    line_index = point_index

    @property
    def n_lines(self) -> int:
        self._require_plane()
        return self.n_points

    def _require_plane(self):
        if self.d != 2:
            raise ValueError("operation requires PG(2,q^n)")

    # -- incidence -------------------------------------------------------------

    def incidence(self) -> np.ndarray:
        """Boolean matrix I with I[line, point] true when the point is on the
        line.  Raises CapExceeded, before anything is allocated, past
        _INCIDENCE_MAX_CELLS cells."""
        self._require_plane()
        if self._incidence is None:
            t = self.tower
            N = self.n_points
            if N * N > _INCIDENCE_MAX_CELLS:
                raise CapExceeded(f"the dense incidence of PG(2,{t.order}) needs "
                                  f"{N * N:,} cells, beyond the "
                                  f"{_INCIDENCE_MAX_CELLS:,}-cell cap")
            P = self.points
            # point-row blocks of about 2^15 cells, one key block of the
            # field gathers, keep the dot products' temporaries off (N, N)
            inc = np.empty((N, N), dtype=bool)
            step = max(1, (1 << 15) // N)
            for i in range(0, N, step):
                inc[i:i + step] = vdot(t, P[i:i + step, None, :], P[None, :, :]) == 0
            self._incidence = inc
        return self._incidence

    def lines_points(self, dual: np.ndarray) -> np.ndarray:
        """(K, q^n + 1) ascending point indices of the K lines with nonzero
        dual coordinates (K, 3), listed as R and xR + L for x in F_{q^n} in
        blocks of about 2^18 points.  Raises CapExceeded, before anything is
        allocated, past LINES_BUDGET."""
        self._require_plane()
        t = self.tower
        Q = t.order
        need = len(dual) * (Q + 1) * 8
        if need > LINES_BUDGET:
            raise CapExceeded(f"the point lists of {len(dual)} lines of "
                              f"PG(2,{Q}) need {need / 2**20:.0f} MiB, beyond "
                              f"the {LINES_BUDGET >> 20} MiB line-list budget")
        out = np.empty((len(dual), Q + 1), dtype=np.int64)
        x = np.arange(Q, dtype=np.uint32)[:, None]
        step = max(1, (1 << 18) // (Q + 1))
        for k in range(0, len(dual), step):
            d = dual[k:k + step]
            # R = d x e_{j+1} and L = d x e_{j+2}, j the leading coordinate of d
            j = np.where(d[:, 0] != 0, 0, np.where(d[:, 1] != 0, 1, 2))
            i = np.arange(len(d))
            r, l = np.zeros((2, len(d), 1, 3), dtype=np.uint32)
            r[i, 0, (j + 2) % 3] = d[i, j]
            r[i, 0, j] = t.vneg(d[i, (j + 2) % 3])
            l[i, 0, j] = d[i, (j + 1) % 3]
            l[i, 0, (j + 1) % 3] = t.vneg(d[i, j])
            pts = np.concatenate([r, t.vadd(t.vmul(x, r), l)], axis=1)
            out[k:k + step] = self.index_rows(pts.reshape(-1, 3)).reshape(-1, Q + 1)
        out.sort(axis=1)
        return out

    def line_points(self, line) -> np.ndarray:
        """Indices of the q^n + 1 points on a line (index or dual vector)."""
        idx = line if isinstance(line, (int, np.integer)) else self.line_index(line)
        return self.lines_points(self.points[idx][None])[0]

    point_lines = line_points  # by duality, as the points of the dual line

    def pencil(self, point) -> Pencil:
        idx = point if isinstance(point, (int, np.integer)) else self.point_index(point)
        return Pencil(center=idx, line_ids=tuple(int(i) for i in self.point_lines(idx)))

    def line_through(self, p, r) -> tuple:
        """Dual coordinates (normalized) of the unique line through two points."""
        self._require_plane()
        u = p if not isinstance(p, (int, np.integer)) else self.point_vec(p)
        v = r if not isinstance(r, (int, np.integer)) else self.point_vec(r)
        c = cross3(self.tower, u, v)
        if all(x == 0 for x in c):
            raise ValueError("coincident points do not span a line")
        return normalize(self.tower, c)

    def collinear(self, a, b, c) -> bool:
        self._require_plane()
        vecs = [x if not isinstance(x, (int, np.integer)) else self.point_vec(x)
                for x in (a, b, c)]
        return mat_det(self.tower, tuple(vecs)) == 0

    # -- vectorised coordinate helpers (rows of encodings, no zero rows) -------

    def normalize_rows(self, v: np.ndarray) -> np.ndarray:
        t = self.tower
        if self.d == 1:
            lead = np.where(v[:, 0] != 0, v[:, 0], v[:, 1])
        else:
            lead = np.where(v[:, 0] != 0, v[:, 0],
                            np.where(v[:, 1] != 0, v[:, 1], v[:, 2]))
        return t.vmul(t.vinv(lead)[:, None], v)

    def index_rows(self, v: np.ndarray) -> np.ndarray:
        """Point (or line) indices for an array of coordinate rows."""
        w = self.normalize_rows(v)
        Q = self.tower.order
        if self.d == 1:
            return np.where(w[:, 0] == 0, 0, 1 + w[:, 1].astype(np.int64))
        w1 = w[:, 1].astype(np.int64)
        w2 = w[:, 2].astype(np.int64)
        return np.where(w[:, 0] != 0, 1 + Q + w1 * Q + w2,
                        np.where(w[:, 1] != 0, 1 + w2, 0))

    # -- batch geometric tests ---------------------------------------------------

    def collinear_triples(self, ids: np.ndarray, triples) -> np.ndarray:
        """(K, T) mask over K rows of point indices (K, r) and T column
        triples (T, 3): true where the determinant [u, v, w] = (u x v) . w
        of the three points vanishes, that is, where they are collinear.
        The triples (0, 1, k) test a row for collinearity, all triples for
        an arc."""
        self._require_plane()
        t = self.tower
        pts = self.points[ids]
        u, v, w = (pts[:, col] for col in np.asarray(triples).T)
        return vdot(t, vcross(t, u, v), w) == 0

    def sublines(self, ids: np.ndarray) -> np.ndarray:
        """(K,) mask over K rows (K, r) of distinct collinear points: true
        where the row lies in one F_q-subline of its line, that is, where
        every cross-ratio x = [p0, p2][p1, pk] / ([p1, p2][p0, pk]) has
        x^q = x.  With p0, p1 scaled to a, b so that p2 = a + b, the point
        pk = lam a + mu b has x = lam / mu.  The bracket [u, v] is
        u0 v1 - u1 v0 on PG(1); on PG(2) it is the coordinate j of u x v,
        for a nonzero coordinate j of the line p0 x p1, which is the PG(1)
        bracket of the two coordinates after j."""
        t = self.tower
        pts = self.points[ids]
        if self.d == 2:
            j = (vcross(t, pts[:, 0], pts[:, 1]) != 0).argmax(axis=1)
            pts = np.take_along_axis(pts, (j[:, None, None] + [[[1, 2]]]) % 3, axis=2)

        def bracket(a, b):
            u, v = pts[:, a], pts[:, b]
            return t.vsub(t.vmul(u[..., 0], v[..., 1]), t.vmul(u[..., 1], v[..., 0]))
        k = np.arange(3, pts.shape[1])
        x = t.vmul(t.vmul(bracket([0], [2]), bracket([1], k)),
                   t.vinv(t.vmul(bracket([1], [2]), bracket([0], k))))
        return (t.vfrobq(x) == x).all(axis=1)

    def is_fq_subline(self, point_ids) -> bool:
        """Whether q+1 collinear points form a PG(1,q) inside their line:
        `sublines` at K = 1, after `collinear_triples` on PG(2)."""
        ids = sorted(int(i) for i in point_ids)
        q = self.tower.q
        if len(ids) != q + 1 or len(set(ids)) != len(ids):
            raise ValueError(f"a subline test needs q+1 = {q + 1} distinct points")
        row = np.array(ids)[None]
        if self.d == 2 and not self.collinear_triples(
                row, [(0, 1, k) for k in range(2, q + 1)]).all():
            raise ValueError("points are not collinear")
        return bool(self.sublines(row)[0])

    # -- subplanes -----------------------------------------------------------

    def canonical_subplane(self) -> Subplane:
        """The PG(2,q) of points with all coordinates in F_q."""
        self._require_plane()
        t = self.tower
        sub = t.subfield
        ids = [0]
        ids += [self.point_index((0, 1, c)) for c in sub]
        ids += [self.point_index((1, b, c)) for b in sub for c in sub]
        frame = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))
        return Subplane(point_ids=frozenset(ids), frame=frame, q=t.q)

    def __repr__(self):
        return f"ProjectiveSpace(d={self.d}, order={self.tower.order})"


@lru_cache(maxsize=None)
def _space(p, e, n, m, d):
    return ProjectiveSpace(build_field(p, e, n, m), d)


def projective_space(tower: FieldTower, d: int) -> ProjectiveSpace:
    """Cached PG(d, q^n) for the given tower."""
    return _space(tower.p, tower.e, tower.n, tower.m, d)
