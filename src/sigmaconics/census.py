"""Vectorised census sweeps: exhaustive and sampled runs over 2x2 and 3x3
matrices that verify the classification and cardinality statements at
scale.

Every sweep is a source of entry batches, (K, 9) for the plane or (K, 4)
for the line, feeding shared batch verifiers:

- sources: the scalar-class enumerator `_enumerate_scalar_classes`, the
  torus-orbit representatives `_torus_representatives` of the exhaustive
  3x3 sweeps, the counter-based rejection sampler `_sample_entries`, the
  outer products of `rank1_census`, the radical-normal layouts of
  `rank2_normal_census` and the diagonal matrices;
- verifiers: the menu check `_check_menu` on absolute counts, the rank-1
  line-pair check `_verify_rank1_batch`, the rank-2 split into cones and
  C_F^m-sets `_verify_rank2_batch` (with the Steiner cross-check through
  `cfsets.steiner_locus`, the same construction as `steiner_generate`),
  and the PG(1) form check `_line_form_counts`, shared by the 2x2 sweep and
  the cone bases.  The menu check and the rank verifiers take an int64
  weight per row, the number of matrices the row stands for (one unless
  given); histograms and kind counts add the weights exactly.

Both exhaustive 3x3 sweeps, the GL sweep and the rank <= 2 sweep, verify
one representative per orbit of the torus congruence a_ij -> lam d_i a_ij
d_j^sigma, a projectivity of the plane that keeps the rank, the absolute
count and the kind; `_orbit_batches` is their one source and budget check.
On the matrices with support S (the positions of the nonzero entries, 511
in all) the torus acts in log coordinates mod Q-1 through an integer
|S| x 4 matrix T_S; a diagonal form U T_S V = diag(d_k) (`_diagonalise`,
in-house) lists the orbits by a mixed-radix counter, and each orbit weighs
N^(|S|-1) / prod gcd(d_k, N) scalar classes (N = Q-1).  At Q = 8 that is
391,543 representatives for 19,173,961 nonzero scalar classes, at Q = 16
20,363,925 for 4.58e9.  A violation names the failing representative.

Form values outside the count kernel (the tangent test, the pencil blocks,
the PG(1) forms) come from `forms.form_values`, the library's one
vectorised x^T A y^sigma.  Ranks come from `linalg.vranks` on the entries
reshaped to (K, 3, 3), radicals from `linalg.vcross`.

The key trick: for a fixed point P the absolute condition x^T A x^sigma = 0
is linear in the entries of A, and splits over the rows of A as
sum_i P_i * (row_i . P^sigma).  Tables indexed by (row encoding, point)
therefore reduce the absolute count of a matrix to three gathers, one
addition and one comparison over the full point set (the third table is
stored negated), which batches cleanly over millions of matrices.  Row
vectors (a,b,c) are encoded as a*Q^2 + b*Q + c.

Random sampling uses a counter-based SplitMix64 stream so any run is
reproducible from (seed, counter) alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .classify import (KIND_CF, KIND_CONE, KIND_DEGENERATE_CF,
                       KIND_TWO_LINES, allowed_cardinalities,
                       classify_plane_form, kestenband_profile,
                       line_spectrum, lines_points_array)
from .cfsets import steiner_locus, steiner_matches_form
from .fields import FieldTower
from .forms import SesquiForm, form_values
from .linalg import vcross, vdot, vranks
from .projective import ProjectiveSpace, projective_space

EXHAUSTIVE_CAP = 100_000_000  # torus-orbit representatives per exhaustive 3x3 sweep
_ENUM_CHUNK = 1 << 16  # rows (scalar classes or orbit representatives) per batch
# orbit representatives per batch of the GL sweep; at _ENUM_CHUNK its (K, N)
# count masks raised the peak RSS of GL(3,8) from 36 to 58 MB
_GL_CHUNK = 1 << 12
_MENU_REASON = "cardinality outside the admissible menu"


class CapExceeded(RuntimeError):
    """The requested exhaustive sweep is beyond the configured budget."""


def _check_exhaustive_cap(classes: int, what: str):
    if classes > EXHAUSTIVE_CAP:
        raise CapExceeded(f"{what} beyond the matrix budget; use random sampling")


# -- deterministic counter-based randomness ----------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_SAMPLE_BATCH = 1 << 15


def splitmix64(seed: int, counter: int) -> int:
    """Reference scalar implementation of the sampling stream."""
    z = (seed + (counter + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def rand_stream(seed: int, start: int, count: int) -> np.ndarray:
    c = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = (np.uint64(seed & _MASK64) + c * np.uint64(_GOLDEN))
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def sample_matrix_entries(order: int, seed: int, start: int, count: int) -> np.ndarray:
    """(count, 9) matrix entries; sample i consumes counters 9i..9i+8."""
    vals = rand_stream(seed, start, 9 * count)
    return (vals % np.uint64(order)).astype(np.uint32).reshape(count, 9)


def _sample_entries(tower: FieldTower, count: int, seed: int, keep) -> np.ndarray:
    """The first `count` sampled (K, 9) entry arrays that pass `keep`, a
    function from a batch to its keep mask.  Sample i consumes counters
    9i..9i+8 whether or not it is kept, so the result does not depend on
    the batch size.  A batch draws a quarter more than is still needed, so
    one usually suffices when most samples are kept."""
    out, got, start = [np.empty((0, 9), dtype=np.uint32)], 0, 0
    while got < count:
        batch = max(_SAMPLE_BATCH, (count - got) * 5 // 4)
        e = sample_matrix_entries(tower.order, seed, 9 * start, batch)
        start += batch
        e = e[keep(e)][:count - got]
        out.append(e)
        got += len(e)
    return np.concatenate(out)


# -- the batched absolute-count kernel ----------------------------------------

class PlaneKernel:
    """Per-plane tables mapping row encodings to their point functionals."""

    def __init__(self, space: ProjectiveSpace):
        t = space.tower
        Q = t.order
        self.space = space
        self.tower = t
        self.Q = Q
        n_rows = Q ** 3
        if n_rows * space.n_points > 200_000_000:
            raise CapExceeded("row-functional tables would be too large")
        renc = np.arange(n_rows, dtype=np.int64)
        digits = np.stack([renc // (Q * Q), (renc // Q) % Q, renc % Q],
                          axis=1).astype(np.uint32)
        dtype = np.uint8 if Q <= 256 else np.uint32
        # g[r, P] = row r . P^sigma; h[i][r, P] = P_i g[r, P], except that
        # h[2] carries -P_2, so P is absolute for rows (r1, r2, r3) exactly
        # when h[0][r1, P] + h[1][r2, P] == h[2][r3, P]
        g = vdot(t, digits[:, None, :], t.vsigma(space.points)[None, :, :])
        pts = space.points
        self.h = [t.vmul(c[None, :], g).astype(dtype)
                  for c in (pts[:, 0], pts[:, 1], t.vneg(pts[:, 2]))]
        del g
        # scalar multiples of every row vector, as encodings; no sweep uses
        # them or `renc_add`, but they are the per-class reference of the
        # tests (rows off a span) and perfbench binds both
        lam = np.arange(Q, dtype=np.uint32)
        self.smul = (t.vmul(lam[:, None], digits[None, :, 0]).astype(np.int64) * Q * Q
                     + t.vmul(lam[:, None], digits[None, :, 1]).astype(np.int64) * Q
                     + t.vmul(lam[:, None], digits[None, :, 2]).astype(np.int64))

    def row_encode(self, entries: np.ndarray) -> tuple:
        """Row encodings (r1, r2, r3) for (K, 9) matrix entry arrays."""
        e = entries.astype(np.int64)
        Q = self.Q
        return tuple(e[:, 3 * i] * Q * Q + e[:, 3 * i + 1] * Q + e[:, 3 * i + 2]
                     for i in range(3))

    def renc_add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Coordinate-wise field addition of row encodings."""
        t, Q = self.tower, self.Q
        if t.p == 2:
            return np.bitwise_xor(a, b)
        out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        for shift in (Q * Q, Q, 1):
            da = ((a // shift) % Q).astype(np.uint32)
            db = ((b // shift) % Q).astype(np.uint32)
            out += t.vadd(da, db).astype(np.int64) * shift
        return out

    def masks(self, r1, r2, r3) -> np.ndarray:
        return self.tower.vadd(self.h[0][r1], self.h[1][r2]) == self.h[2][r3]

    def counts(self, r1, r2, r3) -> np.ndarray:
        return self.masks(r1, r2, r3).sum(axis=1)


def plane_kernel(space: ProjectiveSpace) -> PlaneKernel:
    if space._kernel is None:
        space._kernel = PlaneKernel(space)
    return space._kernel


# -- vectorised helpers on entry columns -------------------------------------

def _first_nonzero_rows(cands) -> np.ndarray:
    """Row-wise first candidate vector that is not identically zero."""
    out = cands[-1].copy()
    taken = np.zeros(len(out), dtype=bool)
    for c in cands:
        nz = c.any(axis=1) & ~taken
        out[nz] = c[nz]
        taken |= nz
    return out


# -- census data structures ----------------------------------------------------

@dataclass
class CensusSummary:
    field_params: tuple
    mode: str
    histogram: dict = field(default_factory=dict)
    kind_counts: dict = field(default_factory=dict)
    total: int = 0
    violations: list = field(default_factory=list)
    records: list = field(default_factory=list)

    def add_counts(self, counts: np.ndarray, weights: np.ndarray | None = None):
        """Histogram absolute counts; count k stands for weights[k] matrices
        (one without weights), added exactly as int64."""
        counts = counts.ravel()
        if len(counts):
            hist = np.zeros(int(counts.max()) + 1, dtype=np.int64)
            np.add.at(hist, counts, 1 if weights is None else weights)
            for v in np.nonzero(hist)[0]:
                self.histogram[int(v)] = self.histogram.get(int(v), 0) + int(hist[v])
            self.total += int(hist.sum())

    def bump(self, kind: str, k: int = 1):
        self.kind_counts[kind] = self.kind_counts.get(kind, 0) + k


def _summary(t: FieldTower, mode: str) -> CensusSummary:
    return CensusSummary(field_params=(t.p, t.e, t.n, t.m), mode=mode)


def _violation(matrix_entries, reason: str) -> dict:
    return {"matrix": [int(x) for x in matrix_entries], "reason": reason}


def _admissible(tower: FieldTower, diagonal: bool) -> np.ndarray | None:
    """The admissible cardinalities of invertible (or invertible diagonal)
    forms as an array; None in degree 1, which has no menu."""
    if tower.n == 1:
        return None
    return np.array(sorted(allowed_cardinalities(tower, diagonal)[0]),
                    dtype=np.int64)


def _check_menu(summary, counts, menu, reason, entries, w=None):
    """Histogram `counts` (row k standing for w[k] matrices, one without
    weights) and flag each count outside `menu` (None: no check);
    `entries(bad)` gives the matrices of the rows in mask `bad`."""
    summary.add_counts(counts, w)
    if menu is None:
        return
    bad = ~np.isin(counts, menu)
    if bad.any():
        for row in entries(bad):
            summary.violations.append(_violation(row, reason))


def _verify_menu_batch(kern, e, summary, menu, reason=_MENU_REASON, w=None):
    _check_menu(summary, kern.counts(*kern.row_encode(e)), menu, reason,
                lambda bad: e[bad], w)


# -- sources -----------------------------------------------------------------------

def _enumerate_scalar_classes(Q: int, size: int, chunk: int):
    """Yield (K, size) entry arrays covering every nonzero 2x2 (size 4) or
    3x3 (size 9) matrix up to scalars: entries before the leading one are
    zero, the leading entry is 1."""
    for lead in range(size):
        total = Q ** (size - 1 - lead)
        for start in range(0, total, chunk):
            stop = min(start + chunk, total)
            e = np.zeros((stop - start, size), dtype=np.uint32)
            e[:, lead] = 1
            rest = np.arange(start, stop, dtype=np.int64)
            for pos in range(size - 1, lead, -1):
                e[:, pos] = (rest % Q).astype(np.uint32)
                rest //= Q
            yield e


def _diagonalise(a: list) -> tuple:
    """A diagonal form of the integer matrix `a` (a list of s rows).

    Returns (d, uinv): unimodular U and V with U a V = diag(d), where d is
    padded with zeros to length s, and uinv = U^-1.  Repeatedly moves the
    smallest nonzero entry of the remaining block to the pivot and reduces
    its row and column by it; V is not tracked.
    """
    a = [list(row) for row in a]
    s, c = len(a), len(a[0])
    uinv = [[int(i == j) for j in range(s)] for i in range(s)]
    d = [0] * s
    for t in range(min(s, c)):
        while True:
            nz = [(abs(a[i][j]), i, j) for i in range(t, s) for j in range(t, c)
                  if a[i][j]]
            if not nz:
                return d, uinv
            _, i, j = min(nz)
            # a row operation R turns U into R U and uinv into uinv R^-1: a
            # row swap swaps the same columns of uinv, and row_i -= f row_t
            # adds f times column i of uinv to its column t
            a[t], a[i] = a[i], a[t]
            for row in uinv:
                row[t], row[i] = row[i], row[t]
            for row in a:
                row[t], row[j] = row[j], row[t]
            piv, done = a[t][t], True
            for i in range(t + 1, s):
                f = a[i][t] // piv
                a[i] = [x - f * y for x, y in zip(a[i], a[t])]
                for row in uinv:
                    row[t] += f * row[i]
                done &= a[i][t] == 0
            for j in range(t + 1, c):
                f = a[t][j] // piv
                for row in a:
                    row[j] -= f * row[t]
                done &= a[t][j] == 0
            if done:
                break
        d[t] = a[t][t]
    return d, uinv


@dataclass(frozen=True)
class _TorusSupport:
    """The matrices whose nonzero entries sit exactly at `positions`, up to
    the torus a_ij -> lam d_i a_ij d_j^sigma.  In log coordinates (mod N =
    Q-1) the orbits are the cosets of the image of T_S; orbit k has the
    representative uinv @ y mod N, y being k in the mixed radix `radices`,
    and stands for `weight` scalar classes."""
    positions: tuple
    uinv: np.ndarray
    radices: tuple
    weight: int
    units: int

    @property
    def count(self) -> int:
        return math.prod(self.radices)

    def logs(self, start: int, stop: int) -> np.ndarray:
        """(stop - start, |S|) log coordinates of representatives start..stop-1."""
        rest = np.arange(start, stop, dtype=np.int64)
        y = np.empty((len(rest), len(self.radices)), dtype=np.int64)
        for k in range(len(self.radices) - 1, -1, -1):
            y[:, k] = rest % self.radices[k]
            rest //= self.radices[k]
        return (y @ self.uinv.T) % self.units


def _torus_supports(tower: FieldTower) -> list:
    """One `_TorusSupport` per nonempty support S of a 3x3 matrix (511 of
    them).  In log coordinates the torus (lam, d_0, d_1, d_2) acts on the
    entry (i, j) by adding lam + d_i + q^m d_j, the row of the |S| x 4
    integer matrix T_S.  With U T_S V = diag(d_k), the cosets of im T_S in
    (Z/N)^S are U^-1 y for 0 <= y_k < gcd(d_k, N) (d_k = 0 past the rank,
    so gcd N); each holds |im T_S| = N^|S| / prod gcd(d_k, N) matrices, a
    weight of |im T_S| / N scalar classes."""
    n_units = tower.order - 1
    qm = tower.q ** (tower.m % tower.n)
    out = []
    for bits in range(1, 1 << 9):
        positions = tuple(k for k in range(9) if bits >> k & 1)
        rows = []
        for k in positions:
            row = [1, 0, 0, 0]
            row[1 + k // 3] += 1
            row[1 + k % 3] += qm
            rows.append(row)
        d, uinv = _diagonalise(rows)
        radices = tuple(math.gcd(x, n_units) for x in d)
        out.append(_TorusSupport(
            positions, np.array(uinv, dtype=np.int64) % n_units, radices,
            n_units ** (len(positions) - 1) // math.prod(radices), n_units))
    return out


def _torus_representatives(tower: FieldTower, supports: list, chunk: int):
    """Yield (e, w): (K, 9) entries of torus-orbit representatives, K <=
    `chunk`, filled across supports, and their int64 weights in scalar
    classes.  Representatives are generated by index, so a support is
    never held whole."""
    exp = tower._exp
    pieces, size = [], 0
    for sup in supports:
        start = 0
        while start < sup.count:
            stop = min(sup.count, start + chunk - size)
            e = np.zeros((stop - start, 9), dtype=np.uint32)
            e[:, sup.positions] = exp[sup.logs(start, stop)]
            pieces.append((e, np.full(stop - start, sup.weight, dtype=np.int64)))
            size += stop - start
            start = stop
            if size == chunk:
                yield _join(pieces)
                pieces, size = [], 0
    if pieces:
        yield _join(pieces)


def _join(pieces: list) -> tuple:
    return (np.concatenate([e for e, _ in pieces]),
            np.concatenate([w for _, w in pieces]))


def _orbit_batches(tower: FieldTower, what: str, chunk: int):
    """The source of both exhaustive 3x3 sweeps: (e, w) batches of the
    torus-orbit representatives of every nonzero matrix and their weights.
    The budget is checked on the number of representatives when this is
    called, before anything is allocated.  The callers rank a batch after
    the loop has dropped the previous one, which keeps the peak RSS down."""
    supports = _torus_supports(tower)
    _check_exhaustive_cap(sum(sup.count for sup in supports), what)
    return _torus_representatives(tower, supports, chunk)


# -- invertible censuses -------------------------------------------------------

def exhaustive_invertible_census(tower: FieldTower,
                                 check_allowed: bool = True) -> CensusSummary:
    """Absolute-count histogram over all invertible matrices up to scalars.

    Like the rank <= 2 sweep, this verifies one representative per orbit of
    the torus congruence a_ij -> lam d_i a_ij d_j^sigma (`_orbit_batches`),
    keeps the representatives of rank 3, counts their absolute points
    through the row tables and adds each representative's weight, the
    number of scalar classes in its orbit, to the histogram; every scalar
    class of GL(3, q^n) is counted exactly once.  A violation names the
    failing representative.  The budget counts representatives.
    """
    batches = _orbit_batches(tower, "exhaustive census", _GL_CHUNK)
    kern = plane_kernel(projective_space(tower, 2))
    menu = _admissible(tower, False) if check_allowed else None
    summary = _summary(tower, "exhaustive-gl")
    for e, w in batches:
        inv = vranks(tower, e.reshape(-1, 3, 3)) == 3
        _verify_menu_batch(kern, e[inv], summary, menu, w=w[inv])
    return summary


def diagonal_census(tower: FieldTower) -> CensusSummary:
    """Absolute counts over invertible diagonal matrices up to scalars."""
    Q = tower.order
    summary = _summary(tower, "diagonal")
    units = np.arange(1, Q, dtype=np.uint32)
    e = np.zeros(((Q - 1) ** 2, 9), dtype=np.uint32)
    e[:, 0] = 1
    e[:, 4] = np.repeat(units, Q - 1)
    e[:, 8] = np.tile(units, Q - 1)
    _verify_menu_batch(plane_kernel(projective_space(tower, 2)), e, summary,
                       _admissible(tower, True),
                       "diagonal cardinality outside the admissible menu")
    return summary


# -- rank <= 2 censuses ------------------------------------------------------------

def rank_le2_census(tower: FieldTower, steiner: bool = True) -> CensusSummary:
    """Exhaustive classification of every rank <= 2 matrix up to scalars.

    Verifies, per matrix: the union-of-lines shape for rank 1; for rank 2,
    the cone / degenerate / non-degenerate split with the expected
    cardinalities, cone base shapes, and (optionally) that the Steiner locus
    of the attached pencil collineation reproduces the absolute set.

    The congruence a_ij -> lam d_i a_ij d_j^sigma is a projectivity of the
    plane, so the rank, the absolute count and the kind are constant on its
    orbits.  The sweep therefore verifies one representative per orbit
    (`_orbit_batches`, support by support) and adds its weight, the
    number of scalar classes in the orbit, to the histogram and the kind
    counts; these equal those of the full scalar-class sweep.  A violation
    names the failing representative.  The budget counts representatives.
    """
    batches = _orbit_batches(tower, "rank<=2 sweep", _ENUM_CHUNK)
    space = projective_space(tower, 2)
    summary = _summary(tower, "exhaustive-rank-le2")
    for e, w in batches:
        ranks = vranks(tower, e.reshape(-1, 3, 3))
        one, two = ranks == 1, ranks == 2
        _verify_rank1_batch(tower, space, e[one], summary, w[one])
        _verify_rank2_batch(tower, space, e[two], summary, steiner, w[two])
    return summary


def _unit(e, w):
    """The weights of a batch: one matrix per row unless given."""
    return np.ones(len(e), dtype=np.int64) if w is None else w


def _verify_rank1_batch(tower, space, e, summary, w=None):
    if not len(e):
        return
    w = _unit(e, w)
    t = tower
    kern = plane_kernel(space)
    inc = space.incidence()
    cols = [e[:, i::3] for i in range(3)]          # column vectors
    u = _first_nonzero_rows([cols[0], cols[1], cols[2]])
    rows = [e[:, 3 * i:3 * i + 3] for i in range(3)]
    w_tw = t.vfrobq(_first_nonzero_rows(rows), (t.n - t.m) % t.n)
    left_idx = space.index_rows(u)
    right_idx = space.index_rows(w_tw)
    expect = inc[left_idx] | inc[right_idx]
    mask = kern.masks(*kern.row_encode(e))
    ok = (mask == expect).all(axis=1)
    summary.add_counts(mask.sum(axis=1), w)
    summary.bump(KIND_TWO_LINES, int(w.sum()))
    summary.bump("two_lines_coincident", int(w[left_idx == right_idx].sum()))
    for bad in np.nonzero(~ok)[0]:
        summary.violations.append(_violation(e[bad],
                                             "rank-1 set is not the union of "
                                             "its radical lines"))


_STD = np.eye(3, dtype=np.uint32)


def _verify_rank2_batch(tower, space, e, summary, steiner, w=None):
    if not len(e):
        return
    w = _unit(e, w)
    t = tower
    kern = plane_kernel(space)
    mask = kern.masks(*kern.row_encode(e))
    counts = mask.sum(axis=1)
    summary.add_counts(counts, w)

    rows = [e[:, 3 * i:3 * i + 3] for i in range(3)]
    cols = [e[:, i::3] for i in range(3)]
    null_r = _first_nonzero_rows([vcross(t, rows[0], rows[1]),
                                  vcross(t, rows[0], rows[2]),
                                  vcross(t, rows[1], rows[2])])
    v_r = space.normalize_rows(t.vfrobq(null_r, (t.n - t.m) % t.n))
    v_l = space.normalize_rows(_first_nonzero_rows(
        [vcross(t, cols[0], cols[1]), vcross(t, cols[0], cols[2]),
         vcross(t, cols[1], cols[2])]))
    same = (v_r == v_l).all(axis=1)

    _verify_cone_batch(tower, e[same], v_r[same], counts[same], w[same], summary)
    sel = ~same
    _verify_cf_batch(tower, space, e[sel], v_r[sel], v_l[sel], mask[sel],
                     counts[sel], w[sel], summary, steiner)


def _line_form_counts(tower: FieldTower, blocks: np.ndarray) -> tuple:
    """Absolute counts on PG(1,q^n) of the 2x2 forms with (K, 4) entries
    (a, b, c, d), and the mask of those whose absolute set is an F_q-subline
    (which needs exactly q+1 points)."""
    t = tower
    line = projective_space(t, 1)
    pts = line.points[None]
    zero = form_values(t, blocks[:, None, :], pts, pts) == 0
    counts = zero.sum(axis=1)
    subline = np.zeros(len(blocks), dtype=bool)
    for k in np.nonzero(counts == t.q + 1)[0]:
        subline[k] = line.is_fq_subline(np.nonzero(zero[k])[0])
    return counts, subline


def _verify_cone_batch(tower, e, vert, counts, w, summary):
    if not len(e):
        return
    Q, q = tower.order, tower.q
    summary.bump(KIND_CONE, int(w.sum()))
    # complement the vertex with two standard basis vectors; the block of
    # the congruent matrix is then just a 2x2 submatrix of A
    pair_idx = np.where(vert[:, 2] != 0, 0,
                        np.where(vert[:, 1] != 0, 1, 2))
    pairs = np.array([[0, 1], [0, 2], [1, 2]])[pair_idx]
    i, j = pairs[:, 0], pairs[:, 1]
    blocks = e[np.arange(len(e))[:, None],
               np.stack([4 * i, 3 * i + j, 3 * j + i, 4 * j], axis=1)]
    base_counts, subline = _line_form_counts(tower, blocks)
    ok_size = counts == 1 + base_counts.astype(np.int64) * Q
    ok_base = np.isin(base_counts, [0, 1, 2, q + 1])
    for bad in np.nonzero(~(ok_size & ok_base))[0]:
        summary.violations.append(_violation(e[bad],
                                             "cone cardinality does not match "
                                             "its base shape"))
    full_base = base_counts == q + 1
    for bad in np.nonzero(full_base & ~subline)[0]:
        summary.violations.append(_violation(e[bad], "cone base of size q+1 "
                                                     "is not a subline"))
    summary.bump("cone_base_subline", int(w[full_base].sum()))


def _verify_cf_batch(tower, space, e, v_r, v_l, mask, counts, w, summary, steiner):
    if not len(e):
        return
    t = tower
    Q = t.order
    bval = form_values(t, e, v_r, v_l)
    deg = bval == 0
    summary.bump(KIND_DEGENERATE_CF, int(w[deg].sum()))
    summary.bump(KIND_CF, int(w[~deg].sum()))
    expect = np.where(deg, 2 * Q + 1, Q + 1)
    for bad in np.nonzero(counts != expect)[0]:
        summary.violations.append(_violation(e[bad],
                                             "cf cardinality does not match "
                                             "the tangent-line split"))
    if not steiner:
        return
    # the midpoint column and the pencil block in normal coordinates, as in
    # cfsets.pencil_collineation_from_form
    rl = vcross(t, v_r, v_l)
    mid = _STD[np.where(rl[:, 0] != 0, 0, np.where(rl[:, 1] != 0, 1, 2))]
    block = np.stack([form_values(t, e, v_r, mid), bval,
                      form_values(t, e, mid, mid), form_values(t, e, mid, v_l)],
                     axis=1)
    idx, whole_line = steiner_locus(space, v_r, mid, v_l, block, t.m)
    member = np.take_along_axis(mask, idx, axis=1)
    single = ~whole_line
    ok = (member | whole_line).all(axis=1)
    # distinctness of the single points
    sort_idx = np.sort(np.where(whole_line, -1, idx), axis=1)
    dup = (sort_idx[:, 1:] == sort_idx[:, :-1]) & (sort_idx[:, 1:] >= 0)
    ok &= ~dup.any(axis=1)
    # totals: singles plus (for the degenerate case) the full line RL
    n_single = single.sum(axis=1)
    rl_idx = space.index_rows(rl)
    has_line = whole_line.any(axis=1)
    if has_line.any():
        lines_pts = lines_points_array(space)[rl_idx[has_line]]
        on_line = np.take_along_axis(mask[has_line], lines_pts, axis=1)
        ok[has_line] &= on_line.all(axis=1)
    totals = n_single + np.where(has_line, Q + 1, 0)
    ok &= totals == counts
    ok &= has_line == deg
    summary.bump("steiner_checked", int(w.sum()))
    for bad in np.nonzero(~ok)[0]:
        summary.violations.append(_violation(e[bad],
                                             "steiner locus differs from the "
                                             "absolute set"))


def line_census(tower: FieldTower) -> CensusSummary:
    """Exhaustive sweep over all nonzero 2x2 matrices up to scalars: the
    absolute set on PG(1,q^n) must be empty, a point, two points, or an
    F_q-subline (verified point set by point set via reparameterisation)."""
    t = tower
    summary = _summary(t, "line-2x2")
    menu = np.array([0, 1, 2, t.q + 1], dtype=np.int64)
    for blk in _enumerate_scalar_classes(t.order, 4, _ENUM_CHUNK):
        counts, subline = _line_form_counts(t, blk)
        _check_menu(summary, counts, menu,
                    "line absolute count outside {0, 1, 2, q+1}",
                    lambda bad: blk[bad])
        if subline.any():
            summary.bump("subline_verified", int(subline.sum()))
        for bad in np.nonzero((counts == t.q + 1) & ~subline)[0]:
            summary.violations.append(_violation(blk[bad],
                                                 "q+1 absolute points do "
                                                 "not form a subline"))
    return summary


def rank1_census(tower: FieldTower) -> CensusSummary:
    """Exhaustive check over every rank-1 matrix up to scalars that the
    absolute set is the union of the two radical lines.

    Scalar classes of rank-1 matrices are exactly the outer products of a
    projective column with a projective row, so the sweep has
    (q^(2n) + q^n + 1)^2 entries and stays feasible where the full rank <= 2
    enumeration does not.
    """
    space = projective_space(tower, 2)
    t = tower
    pts = space.points
    summary = _summary(t, "rank1")
    for u in pts:
        outer = t.vmul(u[None, :, None], pts[:, None, :]).reshape(-1, 9)
        _verify_rank1_batch(t, space, outer, summary)
    return summary


# entry positions of an invertible 2x2 block in the two radical-normal
# layouts: radicals (1,0,0) and (0,0,1), and the cone with vertex (1,0,0)
_NORMAL_LAYOUTS = ([1, 2, 4, 5], [4, 5, 7, 8])


def rank2_normal_census(tower: FieldTower, steiner: bool = True) -> CensusSummary:
    """Exhaustive sweep over the rank-2 matrices in the two radical-normal
    layouts: distinct radicals at (1,0,0)/(0,0,1) and the coincident-radical
    cone layout, each over all invertible blocks up to scalars."""
    space = projective_space(tower, 2)
    summary = _summary(tower, "rank2-normal")
    for layout in _NORMAL_LAYOUTS:
        for blk in _enumerate_scalar_classes(tower.order, 4, 1 << 15):
            e = np.zeros((len(blk), 9), dtype=np.uint32)
            e[:, layout] = blk
            _verify_rank2_batch(tower, space, e[vranks(tower, e.reshape(-1, 3, 3)) == 2],
                                summary, steiner)
    return summary


def rank2_random_census(tower: FieldTower, count: int, seed: int,
                        steiner: bool = True) -> CensusSummary:
    """Full verification of `count` sampled rank-2 matrices in general
    position (deterministic rejection sampling)."""
    space = projective_space(tower, 2)
    t = tower
    summary = _summary(t, f"rank2-random(seed={seed}, count={count})")
    entries = _sample_entries(t, count, seed, lambda e: vranks(t, e.reshape(-1, 3, 3)) == 2)
    for start in range(0, len(entries), 1 << 15):
        _verify_rank2_batch(t, space, entries[start:start + (1 << 15)],
                            summary, steiner)
    return summary


# -- random censuses --------------------------------------------------------------

def random_census(tower: FieldTower, count: int, seed: int,
                  invertible_only: bool = True,
                  collect_records: bool = False,
                  record_limit: int | None = None,
                  steiner: bool = False) -> CensusSummary:
    """Sampled census.  The light mode only histograms absolute counts; with
    `collect_records` every sampled matrix is fully classified and profiled."""
    space = projective_space(tower, 2)
    kern = plane_kernel(space)
    summary = _summary(tower, f"random(seed={seed}, count={count})")
    if invertible_only:
        entries = _sample_entries(tower, count, seed,
                                  lambda e: vranks(tower, e.reshape(-1, 3, 3)) == 3)
        menu = _admissible(tower, False)
    else:
        entries = _sample_entries(tower, count, seed, lambda e: e.any(axis=1))
        menu = None
    for start in range(0, len(entries), 4096):
        _verify_menu_batch(kern, entries[start:start + 4096], summary, menu)
    if collect_records:
        limit = len(entries) if record_limit is None else min(record_limit,
                                                              len(entries))
        summary.records = [form_record(SesquiForm(tower, _to_rows(entries[i])),
                                       space, steiner=steiner)
                           for i in range(limit)]
        for rec in summary.records:
            summary.bump(rec["kind"])
            for v in rec["violations"]:
                summary.violations.append({"matrix": rec["matrix"], "reason": v})
    return summary


def _to_rows(entries) -> tuple:
    e = [int(x) for x in entries]
    return tuple(tuple(e[3 * i:3 * i + 3]) for i in range(3))


def form_record(form: SesquiForm, space: ProjectiveSpace | None = None,
                steiner: bool = False, spectrum: bool = True) -> dict:
    """One census record: classification, cardinality, profile, spectrum."""
    space = space or form.space()
    t = form.tower
    Q = t.order
    cls = classify_plane_form(form, space)
    rec = {
        "matrix": [x for row in form.matrix for x in row],
        "rank": cls.rank,
        "kind": cls.kind,
        "absolute": cls.absolute_count,
        "family": None,
        "epsilon": None,
        "fixed_in": None,
        "fixed_out": None,
        "spectrum": {},
        "violations": [],
    }
    violations = []
    if spectrum:
        spec = line_spectrum(cls.point_ids, space)
        vals, freq = np.unique(spec, return_counts=True)
        rec["spectrum"] = {int(v): int(f) for v, f in zip(vals, freq)}
        legal = {0, 1, 2, t.q + 1, Q + 1}
        if not set(rec["spectrum"]) <= legal:
            violations.append(f"line intersections {sorted(set(rec['spectrum']) - legal)} "
                              "outside {0, 1, 2, q+1, full}")
        if Q + 1 in rec["spectrum"] and cls.rank == 3:
            violations.append("an invertible form may not contain a line")
    if cls.rank == 3 and t.n > 1:
        prof = kestenband_profile(form, space)
        rec.update(family=prof.family, epsilon=prof.epsilon,
                   fixed_in=prof.fixed_in, fixed_out=prof.fixed_out)
        violations.extend(prof.violations)
    elif cls.rank == 2 and cls.kind in (KIND_CF, KIND_DEGENERATE_CF):
        expect = 2 * Q + 1 if cls.kind == KIND_DEGENERATE_CF else Q + 1
        if cls.absolute_count != expect:
            violations.append(f"expected {expect} absolute points, "
                              f"got {cls.absolute_count}")
        if steiner and not steiner_matches_form(form, space):
            violations.append("steiner locus differs from the absolute set")
    rec["violations"] = violations
    return rec
