"""Vectorised census sweeps: exhaustive and sampled runs over 2x2 and 3x3
matrices that verify the classification and cardinality statements at
scale.

Every plane census is one driver, `_sweep`, fed by a source of batches
(e, w, ranks): (K, 9) entries of nonzero forms, the int64 number of
matrices each row stands for, and their ranks.  The sources are the orbit
representatives of the exhaustive 3x3 sweeps (`_orbit_batches`, ranked
once per batch by `_ranked`), the diagonal matrices, the outer products of
`rank1_census`, the radical-normal layouts of `rank2_normal_census` and
the counter-based rejection sampler `_sample_entries`, which keeps rows by
rank and returns the ranks it computed.  The driver masks each batch once
through the count kernel and histograms it with its weights; rank-3 rows
are checked against the cardinality menu, if any, and rank-1 and rank-2
rows take the one check per kind, a batch function returning
`forms.Verdicts` (`classify.rank1_verdicts`, `cone_verdicts` and
`cfsets.cf_verdicts`, Steiner always on), split by `_degenerate_verdicts`
and booked by `CensusSummary.book`.  `line_census` keeps its own loop on
PG(1), over the 2x2 scalar classes of `_enumerate_scalar_classes`, with
`classify.line_verdicts` (also the check of cone bases).

The first `records` rows of a sweep get records instead, built in one pass
per batch (`form_records`; `form_record` is its K = 1 caller).  They reuse
the sweep's masks and carry their rows' checks, so each violation counts
once, with the sweep's reason: the line spectra are one gather of the
masks over the lines' point lists, the invertible rows get their
Kestenband profiles from `classify.kestenband_profiles` (fixed points of
the induced collineations in batch) and the others the per-kind checks of
the sweeps at K rows; only the record dictionaries are assembled row by
row.

Both exhaustive 3x3 sweeps, the GL sweep and the rank <= 2 sweep, verify
one representative per orbit of G = S3 x Gal x torus: the permutation
congruences A -> P^T A P, the entrywise Frobenius A -> A^(p^j) (Gal, of
order en) and the torus congruence a_ij -> lam d_i a_ij d_j^sigma.  Each is
a collineation of the plane that keeps the rank, the absolute count and
the kind; `_orbit_batches` is their one source and budget check.  On the
matrices with support S (the positions of the nonzero entries, 511 in all)
the torus acts in log coordinates mod N = Q-1 through an integer |S| x 4
matrix T_S; a diagonal form U T_S V = diag(d_k) (`_diagonalise`, in-house)
lists its orbits by a mixed-radix index y, 0 <= y_k < gcd(d_k, N), and each
torus orbit weighs N^(|S|-1) / prod gcd(d_k, N) scalar classes.  The
source scans the torus indices of one support per S3-orbit of supports
(103 of them), and H = Stab_S3(S) x Gal acts on those indices by y ->
p^j U Pi U^-1 y mod gcd(d, N), Pi the permutation of the entries of S.  It
keeps an index when no element of H maps it to a smaller one, the
canonical representative of isomorph rejection (McKay, "Isomorph-free
exhaustive generation", J. Algorithms 26, 1998), and gives it the weight

    torus weight x 6en / #{h in H : h y = y}

scalar classes.  At Q = 8 that is 21,957 representatives out of 177,727
indices scanned, for 19,173,961 nonzero scalar classes; at Q = 16,
13,378,303 indices scanned for 4.58e9 classes.  The budget counts the
indices scanned.  A violation names the failing representative.

The key trick: for a fixed point P the absolute condition x^T A x^sigma = 0
is linear in the entries of A: it is sum_ij a_ij P_i P_j^sigma = 0.  The
count kernel `PlaneKernel` splits the nine entries into g groups, each a
set of entries of one row i, and tabulates per group G the value
P_i * sum_{j in G} a_ij P_j^sigma for every combination of the group's
entries and every point P.  The absolute mask of a matrix is then g row
gathers, g - 1 additions and one zero test over the full point set, which
batches cleanly over millions of matrices.  The grouping is the coarsest
whose tables fit KERNEL_BUDGET (64 MiB), checked before any table is built:
rows (3 tables of Q^3 x N; Q = 8, 9, 16, 25), half-rows ((a_i0, a_i1) in a
Q^2 x N table and a_i2 in a Q x N one, 6 tables; Q = 27, 32, 49, 64) or
single entries (9 tables of Q x N; Q = 81, 121, 125, 128).  The largest
plane within the budget is PG(2,151); past it the census raises
CapExceeded.  In characteristic 2 the additions are XOR.  For odd p they
are reduced lazily, as in the delayed modular reduction of Dumas, Giorgi
and Pernet (FFLAS-FFPACK, ACM TOMS 2008): each value is stored as its F_p
digits in base B = g(p-1)+1, so g values add as plain integers with no
carry between digits, and one lookup in a B^d zero table (d the degree
over F_p) tests the sum.  Under the rows grouping the group index of
(a,b,c) is the row encoding a*Q^2 + b*Q + c.  A batch is counted in row
blocks of about _KERNEL_BLOCK (1 MiB) of accumulator, gathered and added
in place, so that the g gathered rows of a block stay in cache; at
PG(2,27) that took the 2e5-sample census's count from about 0.9 to 0.6 s.

Random sampling uses a counter-based SplitMix64 stream so any run is
reproducible from (seed, counter) alone.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .classify import (KIND_KESTENBAND, allowed_cardinalities,
                       cone_verdicts, kestenband_profiles, line_verdicts,
                       lines_points_array, rank1_verdicts)
from .cfsets import cf_verdicts
from .fields import FieldTower
from .forms import SesquiForm, absolute_mask, absolute_masks, radical_points
from .linalg import vranks
from .projective import CapExceeded, ProjectiveSpace, projective_space

EXHAUSTIVE_CAP = 100_000_000  # 3x3 sweep torus indices scanned; mrd orbit differences
# rows (scalar classes or orbit representatives) per batch; 1 << 16 lifted the
# rank <= 2 sweep of PG(2,8) from 42 MB to 58-66 MB peak RSS, by heap layout
_ENUM_CHUNK = 1 << 14
# orbit representatives per batch of the GL sweep; at 1 << 16 its (K, N)
# count masks raised the peak RSS of GL(3,8) from 36 to 58 MB
_GL_CHUNK = 1 << 12
_KERNEL_CELLS = 1 << 22  # (matrix, point) cells per batch of a sampled census
# bytes of count-kernel accumulator per row block, a cache-sized part of a
# batch: 2^19 uint16 cells (690 rows of PG(2,27)) or 2^18 uint32 cells
_KERNEL_BLOCK = 1 << 20
_MENU_REASON = "cardinality outside the admissible menu"


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


def _sample_entries(tower: FieldTower, count: int, seed: int, keep) -> tuple:
    """(e, ranks): the first `count` sampled (K, 9) entry arrays whose
    ranks pass `keep`, a function from a batch's ranks to its keep mask,
    and those ranks.  Sample i consumes counters 9i..9i+8 whether or not it
    is kept, so the result does not depend on the batch size.  Samples are
    drawn and ranked `_SAMPLE_BATCH` at a time: one 250,000-sample draw
    peaked at 51.5 MB (tracemalloc) for a 6.9 MB result."""
    out, got, start = [(np.empty((0, 9), dtype=np.uint32),
                        np.empty(0, dtype=np.int64))], 0, 0
    while got < count:
        e = sample_matrix_entries(tower.order, seed, 9 * start, _SAMPLE_BATCH)
        start += _SAMPLE_BATCH
        ranks = vranks(tower, e.reshape(-1, 3, 3))
        rows = np.nonzero(keep(ranks))[0][:count - got]
        out.append((e[rows], ranks[rows]))
        got += len(rows)
    return _join(out)


# -- the batched absolute-count kernel ----------------------------------------

KERNEL_BUDGET = 64 << 20  # bytes of count-kernel tables, checked before any is built
# the groupings of each row's columns, coarsest first: rows, half-rows and
# single entries
_GROUPINGS = (((0, 1, 2),), ((0, 1), (2,)), ((0,), (1,), (2,)))


def _kernel_plan(tower: FieldTower, n_points: int) -> tuple:
    """(grouping, base, dtype) of the coarsest grouping whose tables fit
    KERNEL_BUDGET.  For p = 2 the tables hold field encodings (base None);
    for odd p they hold each value's F_p digits in base g(p-1)+1, g the
    number of groups, and the base^d zero table counts too.  Raises
    CapExceeded, before anything is allocated, when even single entries do
    not fit."""
    t, Q = tower, tower.order
    for grouping in _GROUPINGS:
        if t.p == 2:
            base, dtype, zero_bytes = None, np.min_scalar_type(Q - 1), 0
        else:
            base = 3 * len(grouping) * (t.p - 1) + 1
            zero_bytes = base ** t.degree
            dtype = np.min_scalar_type(zero_bytes - 1)
        need = (3 * sum(Q ** len(c) for c in grouping) * n_points * dtype.itemsize
                + zero_bytes)
        if need <= KERNEL_BUDGET:
            return grouping, base, dtype
    raise CapExceeded(f"count-kernel tables for PG(2,{Q}) need {need / 2**20:.0f} "
                      f"MiB even as single entries, beyond the "
                      f"{KERNEL_BUDGET >> 20} MiB kernel budget")


class PlaneKernel:
    """Grouped coefficient tables for the absolute counts of 3x3 forms.

    A group is a tuple of columns j of one row i of A; its table is
    h[G][idx, P] = P_i * sum_{j in G} a_ij P_j^sigma, idx the base-Q code
    of the group's entries (first entry most significant).  The point P is
    absolute for A exactly when the g group values sum to zero.  The groups
    run row by row; under the rows grouping the group indices are the row
    encodings a*Q^2 + b*Q + c."""

    def __init__(self, space: ProjectiveSpace):
        t = space.tower
        Q = t.order
        self.space = space
        self.tower = t
        self.Q = Q
        self.grouping, base, dtype = _kernel_plan(t, space.n_points)
        pts, n_points = space.points, space.n_points
        if t.p == 2:
            encode, red = (lambda v: v.astype(dtype)), None
        else:
            # value x -> its F_p digits in base `base`; red maps a vector of
            # base-`base` digits below `base` to the same digits mod p
            lazy = (t._digits.astype(np.int64) @ base ** np.arange(t.degree)
                    ).astype(dtype)
            encode = lazy.__getitem__
            sums = np.arange(base ** t.degree, dtype=np.int64)
            red = np.zeros(len(sums), dtype=dtype)
            for k in range(t.degree):
                red += (sums // base ** k % base % t.p * base ** k).astype(dtype)
        # a group's table sums its columns' (Q, N) tables of a * P_i P_j^sigma
        # over every combination of entries; for odd p the sum is plain
        # integer addition of digit vectors and one `red` lookup reduces it
        units = np.arange(Q, dtype=np.uint32)[:, None]
        ps = t.vsigma(pts)
        self.h = []
        for i in range(3):
            for cols in self.grouping:
                tbl, *rest = [encode(t.vmul(units, t.vmul(pts[:, i], ps[:, j])[None]))
                              for j in cols]
                for m in rest:
                    tbl = (tbl[:, None] ^ m[None] if red is None
                           else tbl[:, None] + m[None]).reshape(-1, n_points)
                self.h.append(red[tbl] if rest and red is not None else tbl)
        # a point is absolute when the sum of the g values is zero; for odd p
        # that sum has every digit below `base`, no carries, so red reduces it
        self._zero = None if red is None else red == 0

    @functools.cached_property
    def smul(self) -> np.ndarray:
        """(Q, Q^3) scalar multiples of every row vector, as row encodings.
        No sweep uses them or `renc_add`; they are the per-class reference
        of the tests (rows off a span), built on first use."""
        t, Q = self.tower, self.Q
        renc = np.arange(Q ** 3, dtype=np.int64)
        lam = np.arange(Q, dtype=np.uint32)[:, None]
        out = np.zeros((Q, Q ** 3), dtype=np.int64)
        for shift in (Q * Q, Q, 1):
            out += t.vmul(lam, (renc // shift % Q).astype(np.uint32)[None]
                          ).astype(np.int64) * shift
        return out

    def row_encode(self, entries: np.ndarray) -> tuple:
        """Group indices for (K, 9) matrix entry arrays, group by group; the
        row encodings (r1, r2, r3) under the rows grouping."""
        e = entries.astype(np.int64)
        out = []
        for i in range(3):
            for cols in self.grouping:
                idx = e[:, 3 * i + cols[0]]
                for j in cols[1:]:
                    idx = idx * self.Q + e[:, 3 * i + j]
                out.append(idx)
        return tuple(out)

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

    def masks(self, *idx) -> np.ndarray:
        """Absolute-point masks, (K, N), from the g group indices of K
        matrices (they broadcast), in row blocks of about _KERNEL_BLOCK bytes
        of accumulator each, so that the gathered rows stay in cache."""
        idx = np.broadcast_arrays(*idx)
        n_points = self.space.n_points
        for tbl, i in zip(self.h, idx):
            if len(i) and not 0 <= i.min() <= i.max() < len(tbl):
                raise IndexError(f"group index outside 0..{len(tbl) - 1}")
        out = np.empty((len(idx[0]), n_points), dtype=bool)
        step = max(1, _KERNEL_BLOCK // (n_points * self.h[0].itemsize))
        buf = np.empty((2, min(step, len(out)), n_points), dtype=self.h[0].dtype)
        # the indices are in range (checked above; the digit sums by
        # construction), so the gathers skip numpy's buffered bounds check
        for start in range(0, len(out), step):
            rows = slice(start, start + step)
            a, v = buf[:, :len(out[rows])]
            np.take(self.h[0], idx[0][rows], axis=0, out=a, mode="clip")
            if self._zero is None:
                # characteristic 2: the adds are XOR, and the sum is zero
                # when the last value equals the sum of the others
                for tbl, i in zip(self.h[1:-1], idx[1:-1]):
                    a ^= np.take(tbl, i[rows], axis=0, out=v, mode="clip")
                np.equal(a, np.take(self.h[-1], idx[-1][rows], axis=0, out=v,
                                    mode="clip"), out=out[rows])
            else:
                for tbl, i in zip(self.h[1:], idx[1:]):
                    a += np.take(tbl, i[rows], axis=0, out=v, mode="clip")
                np.take(self._zero, a, out=out[rows], mode="clip")
        return out

    def counts(self, *idx) -> np.ndarray:
        return np.count_nonzero(self.masks(*idx), axis=1)


def plane_kernel(space: ProjectiveSpace) -> PlaneKernel:
    if space._kernel is None:
        space._kernel = PlaneKernel(space)
    return space._kernel


def _kernel_rows(space: ProjectiveSpace) -> int:
    """Matrices per batch of a sampled census: 4096, fewer where their
    (K, N) count masks would pass 2^22 cells."""
    return max(1, min(4096, _KERNEL_CELLS // space.n_points))


def _kernel_batches(space: ProjectiveSpace, e: np.ndarray, ranks: np.ndarray):
    """Yield (e, w, ranks) batches of `_kernel_rows` rows, unit weights."""
    step = _kernel_rows(space)
    for start in range(0, len(e), step):
        rows = slice(start, start + step)
        yield e[rows], np.ones(len(e[rows]), dtype=np.int64), ranks[rows]


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
    # every violation found; `violations` keeps the first `max_violations`
    # of them (all without a bound)
    violation_count: int = 0
    max_violations: int | None = None

    def add_counts(self, counts: np.ndarray, weights: np.ndarray):
        """Histogram absolute counts; count k stands for weights[k] matrices,
        added exactly as int64."""
        if len(counts):
            hist = np.zeros(int(counts.max()) + 1, dtype=np.int64)
            np.add.at(hist, counts, weights)
            for v in np.nonzero(hist)[0]:
                self.histogram[int(v)] = self.histogram.get(int(v), 0) + int(hist[v])
            self.total += int(hist.sum())

    def bump(self, kind: str, k: int = 1):
        self.kind_counts[kind] = self.kind_counts.get(kind, 0) + k

    def book(self, e: np.ndarray, verdicts, w: np.ndarray):
        """Add the weights (w[k] for row k) of a check's kind counters and
        flag its failing rows of `e`, in order."""
        for kind, rows in verdicts.kinds.items():
            self.bump(kind, int(w[rows].sum()))
        for reason, bad in verdicts.flags.items():
            self.flag(e[bad], reason)

    def flag(self, matrices, reason: str):
        """Count one violation per matrix (a sequence of entry rows) and keep
        as many as the bound leaves room for."""
        self.violation_count += len(matrices)
        room = len(matrices)
        if self.max_violations is not None:
            room = min(room, max(0, self.max_violations - len(self.violations)))
        self.violations.extend({"matrix": [int(x) for x in m], "reason": reason}
                               for m in matrices[:room])


def _summary(t: FieldTower, mode: str,
             max_violations: int | None = None) -> CensusSummary:
    return CensusSummary(field_params=(t.p, t.e, t.n, t.m), mode=mode,
                         max_violations=max_violations)


def _admissible(tower: FieldTower, diagonal: bool) -> np.ndarray | None:
    """The admissible cardinalities of invertible (or invertible diagonal)
    forms as an array; None in degree 1, which has no menu."""
    if tower.n == 1:
        return None
    return np.array(sorted(allowed_cardinalities(tower, diagonal)[0]),
                    dtype=np.int64)


def _sweep(summary: CensusSummary, space: ProjectiveSpace, batches,
           menu: np.ndarray | None = None, reason: str = _MENU_REASON,
           records: int = 0) -> CensusSummary:
    """The one loop over plane batches.  `batches` yields (e, w, ranks):
    (K, 9) entries of nonzero forms, the int64 number of matrices each row
    stands for and the ranks.  Each batch is masked once by the count
    kernel and histogrammed with its weights.  The first `records` rows of
    the sweep get a `form_records` record, whose checks are theirs, so each
    violation counts once.  Of the other rows, those of rank 3 are checked
    against `menu` (none without one) and those of rank 1 or 2 take the
    per-kind checks, booked with their weights."""
    kern = plane_kernel(space)
    for e, w, ranks in batches:
        mask = kern.masks(*kern.row_encode(e))
        counts = np.count_nonzero(mask, axis=1)
        summary.add_counts(counts, w)
        k = min(records, len(e))    # the batch's record rows
        records -= k
        for rec in form_records(space, e[:k], mask[:k]):
            summary.records.append(rec)
            summary.bump(rec["kind"])
            for v in rec["violations"]:
                summary.flag([rec["matrix"]], v)
        e, w, ranks, mask, counts = e[k:], w[k:], ranks[k:], mask[k:], counts[k:]
        if menu is not None:
            summary.flag(e[(ranks == 3) & ~np.isin(counts, menu)], reason)
        for rows, verdicts in _degenerate_verdicts(space, e, mask, ranks):
            summary.book(e[rows], verdicts, w[rows])
    return summary


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

    Returns (d, u, uinv): unimodular U and V with U a V = diag(d), where d
    is padded with zeros to length s, U as exact integers and uinv = U^-1.
    Repeatedly moves the smallest nonzero entry of the remaining block to
    the pivot and reduces its row and column by it; V is not tracked.
    """
    a = [list(row) for row in a]
    s, c = len(a), len(a[0])
    u = [[int(i == j) for j in range(s)] for i in range(s)]
    uinv = [row[:] for row in u]
    d = [0] * s
    for t in range(min(s, c)):
        while True:
            nz = [(abs(a[i][j]), i, j) for i in range(t, s) for j in range(t, c)
                  if a[i][j]]
            if not nz:
                return d, u, uinv
            _, i, j = min(nz)
            # a row operation R turns U into R U and uinv into uinv R^-1: a
            # row swap swaps the same columns of uinv, and row_i -= f row_t
            # adds f times column i of uinv to its column t
            a[t], a[i] = a[i], a[t]
            u[t], u[i] = u[i], u[t]
            for row in uinv:
                row[t], row[i] = row[i], row[t]
            for row in a:
                row[t], row[j] = row[j], row[t]
            piv, done = a[t][t], True
            for i in range(t + 1, s):
                f = a[i][t] // piv
                a[i] = [x - f * y for x, y in zip(a[i], a[t])]
                u[i] = [x - f * y for x, y in zip(u[i], u[t])]
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
    return d, u, uinv


@dataclass(frozen=True)
class _TorusSupport:
    """The matrices whose nonzero entries sit exactly at `positions`, up to
    the torus a_ij -> lam d_i a_ij d_j^sigma.  In log coordinates (mod N =
    Q-1) the orbits are the cosets of the image of T_S; orbit k has the
    representative uinv @ y mod N, y being k in the mixed radix `radices`,
    and stands for `weight` scalar classes.  A log vector l lies in the
    orbit with y = (u @ l mod N) mod radices."""
    positions: tuple
    u: np.ndarray
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


def _torus_support(tower: FieldTower, positions: tuple) -> _TorusSupport:
    """The `_TorusSupport` of the support S = `positions`.  In log
    coordinates the torus (lam, d_0, d_1, d_2) acts on the entry (i, j) by
    adding lam + d_i + q^m d_j, the row of the |S| x 4 integer matrix T_S.
    With U T_S V = diag(d_k), the cosets of im T_S in (Z/N)^S are U^-1 y
    for 0 <= y_k < gcd(d_k, N) (d_k = 0 past the rank, so gcd N); each
    holds |im T_S| = N^|S| / prod gcd(d_k, N) matrices, a weight of
    |im T_S| / N scalar classes."""
    n_units = tower.order - 1
    qm = tower.q ** (tower.m % tower.n)
    rows = []
    for k in positions:
        row = [1, 0, 0, 0]
        row[1 + k // 3] += 1
        row[1 + k % 3] += qm
        rows.append(row)
    d, u, uinv = _diagonalise(rows)
    radices = tuple(math.gcd(x, n_units) for x in d)
    return _TorusSupport(
        positions, np.array(u, dtype=np.int64) % n_units,
        np.array(uinv, dtype=np.int64) % n_units, radices,
        n_units ** (len(positions) - 1) // math.prod(radices), n_units)


def _torus_supports(tower: FieldTower) -> list:
    """One `_TorusSupport` per nonempty support of a 3x3 matrix (511 of
    them); with `_torus_representatives`, the unreduced reference of the
    orbit source."""
    return [_torus_support(tower, tuple(k for k in range(9) if bits >> k & 1))
            for bits in range(1, 1 << 9)]


def _torus_representatives(tower: FieldTower, supports: list, chunk: int):
    """Yield (e, w): (K, 9) entries of torus-orbit representatives, K <=
    `chunk`, filled across supports, and their int64 weights in scalar
    classes."""
    def pieces():
        for sup in supports:
            for start in range(0, sup.count, chunk):
                logs = sup.logs(start, min(sup.count, start + chunk))
                e = np.zeros((len(logs), 9), dtype=np.uint32)
                e[:, sup.positions] = tower._exp[logs]
                yield e, np.full(len(e), sup.weight, dtype=np.int64)
    return _rebatch(pieces(), chunk)


# entry k = 3i + j of P^T A P is entry pos[k] = 3 pi(i) + pi(j) of A, one
# `pos` per permutation pi of the coordinates (the identity first)
_PERM_POS = tuple(tuple(3 * pi[k // 3] + pi[k % 3] for k in range(9))
                  for pi in itertools.permutations(range(3)))


@dataclass(frozen=True)
class _OrbitSupport:
    """The torus orbits on a support S, one S per S3-orbit of supports, and
    the action on them of H = Stab_S3(S) x Gal, where pi acts by P^T A P and
    Frobenius by A -> A^(p^j).  Only the coordinates y_k of an orbit index
    with radix above 1 vary; `radix` (a column) and `place` are theirs, in
    the mixed radix of the index, and the orbit of index y has the log
    coordinates `uinv` y mod N.  `images` holds, for each element h of H
    but the identity, the integer matrix M_h = p^j U Pi U^-1 mod N on those
    coordinates (Pi the permutation of the entries of S), so that h maps y
    to M_h y mod radix.  `weight` is the torus weight times |S3 x Gal| =
    6en.  `radix`, `place` and `images` are float64 for `canonical`."""
    positions: tuple
    uinv: np.ndarray
    radix: np.ndarray
    place: np.ndarray
    images: tuple
    weight: int
    units: int
    count: int

    def canonical(self, start: int, stop: int) -> tuple:
        """(y, fixed) of the canonical orbits among indices start..stop-1:
        those whose index is <= the index of each image under H, and the
        number of elements of H fixing each.  The images are taken one
        element at a time, on the rows still kept.  The index digits are
        the columns of y, in exact float64 arithmetic (`_mod`)."""
        idx = np.arange(start, stop, dtype=np.float64)
        y = _mod(_floor_div(idx, self.place[:, None]), self.radix)
        fixed = np.ones(len(idx), dtype=np.int64)
        for m in self.images:
            # the leading digit of the image settles all rows but its ties,
            # about one in radix[0], which take the whole image index; einsum,
            # not matmul: a BLAS call here raised the peak RSS of GL(3,8) by
            # 0.7 MB
            lead = _mod(np.einsum("j,jk->k", m[0], y), self.radix[0])
            keep = lead > y[0]
            tie = np.nonzero(lead == y[0])[0]
            img = np.einsum("i,ik->k", self.place, _mod(
                np.einsum("ij,jk->ik", m, y[:, tie]), self.radix))
            keep[tie] = img >= idx[tie]
            fixed[tie] += img == idx[tie]
            idx, y, fixed = idx[keep], y[:, keep], fixed[keep]
        return y.T.astype(np.int64), fixed


def _floor_div(v: np.ndarray, d: np.ndarray) -> np.ndarray:
    """v // d, exactly, for float64 arrays of integers 0 <= v < 2^50 and d
    >= 1 (the cap keeps the orbit indices below 1e8): (v + 1/2) / d lies at
    least 1/(2d) from any integer, and its rounding error, at most
    2^-53 (v + 1) / d, is smaller, so its floor is v // d."""
    return np.floor((v + 0.5) / d)


def _mod(v: np.ndarray, d: np.ndarray) -> np.ndarray:
    return v - d * _floor_div(v, d)


def _orbit_supports(tower: FieldTower) -> list:
    """One `_OrbitSupport` per S3-orbit of the 511 supports (103 of them),
    the one whose bit set is least."""
    n_units = tower.order - 1
    frobenius = [tower.p ** j % n_units for j in range(tower.e * tower.n)]
    # the bit set of each support's image under each permutation
    member = np.arange(1 << 9)[:, None] >> np.arange(9) & 1
    permuted = (member[:, _PERM_POS] << np.arange(9)).sum(axis=2).tolist()
    out = []
    for bits in range(1, 1 << 9):
        images = permuted[bits]
        if min(images) != bits:
            continue
        positions = tuple(k for k in range(9) if bits >> k & 1)
        sup = _torus_support(tower, positions)
        # the coordinates with radix above 1 (one of radix 1 if none), the
        # largest radix leading
        free = sorted((k for k, r in enumerate(sup.radices) if r > 1),
                      key=lambda k: -sup.radices[k]) or [0]
        column = {k: a for a, k in enumerate(positions)}
        mats = []
        for pos, image in zip(_PERM_POS, images):
            if image == bits:
                # Pi U^-1 is U^-1 with its rows permuted
                pi_uinv = sup.uinv[[column[pos[k]] for k in positions]]
                m = (sup.u @ pi_uinv % n_units)[np.ix_(free, free)]
                mats += [(f * m % n_units).astype(np.float64) for f in frobenius]
        radices = [sup.radices[k] for k in free]
        place = [math.prod(radices[a + 1:]) for a in range(len(free))]
        # mats[0], of the identity permutation and j = 0, is the identity
        out.append(_OrbitSupport(
            positions, sup.uinv[:, free],
            np.array(radices, dtype=np.float64)[:, None],
            np.array(place, dtype=np.float64), tuple(mats[1:]),
            sup.weight * len(_PERM_POS) * len(frobenius), n_units, sup.count))
    return out


def _orbit_representatives(tower: FieldTower, supports: list, chunk: int):
    """Yield (e, w): (K, 9) entries of the canonical orbits of G = S3 x Gal
    x torus, K <= `chunk`, filled across supports, and their int64 weights
    in scalar classes, the support's weight over the order of the
    stabiliser in H.  Each support is scanned `chunk` indices at a time and
    only the canonical rows get log coordinates and entries."""
    def pieces():
        for sup in supports:
            for start in range(0, sup.count, chunk):
                y, fixed = sup.canonical(start, min(sup.count, start + chunk))
                e = np.zeros((len(y), 9), dtype=np.uint32)
                e[:, sup.positions] = tower._exp[y @ sup.uinv.T % sup.units]
                yield e, sup.weight // fixed
    return _rebatch(pieces(), chunk)


def _rebatch(pieces, chunk: int):
    """Regroup (e, w) pieces into batches of `chunk` rows, the last fewer."""
    buf, size = [], 0
    for e, w in pieces:
        while len(e):
            take = min(chunk - size, len(e))
            buf.append((e[:take], w[:take]))
            e, w, size = e[take:], w[take:], size + take
            if size == chunk:
                yield _join(buf)
                buf, size = [], 0
    if buf:
        yield _join(buf)


def _join(pieces: list) -> tuple:
    return (np.concatenate([e for e, _ in pieces]),
            np.concatenate([w for _, w in pieces]))


def _orbit_batches(tower: FieldTower, what: str, chunk: int):
    """The source of both exhaustive 3x3 sweeps: (e, w) batches of one
    representative per orbit of G = S3 x Gal x torus on the nonzero
    matrices, and their weights.  The budget is checked on the torus
    indices to be scanned when this is called, before anything is
    allocated."""
    supports = _orbit_supports(tower)
    _check_exhaustive_cap(sum(sup.count for sup in supports), what)
    return _orbit_representatives(tower, supports, chunk)


def _ranked(tower: FieldTower, batches, keep):
    """Yield (e, w, ranks) of the rows of the (e, w) `batches` whose ranks
    pass `keep`, a function from a batch's ranks to its keep mask."""
    for e, w in batches:
        ranks = vranks(tower, e.reshape(-1, 3, 3))
        rows = keep(ranks)
        yield e[rows], w[rows], ranks[rows]


# -- invertible censuses -------------------------------------------------------

def exhaustive_invertible_census(tower: FieldTower,
                                 max_violations: int | None = None) -> CensusSummary:
    """Absolute-count histogram over all invertible matrices up to scalars.

    Like the rank <= 2 sweep, this verifies one representative per orbit of
    S3 x Gal x torus (`_orbit_batches`), keeps the representatives of rank
    3, counts their absolute points through the count kernel and adds each
    representative's weight, the number of scalar classes in its orbit, to
    the histogram; every scalar class of GL(3, q^n) is counted exactly
    once.  A violation names the failing representative.  The budget
    counts the torus indices scanned; `max_violations` bounds the
    violations kept, not those counted.
    """
    batches = _orbit_batches(tower, "exhaustive census", _GL_CHUNK)
    return _sweep(_summary(tower, "exhaustive-gl", max_violations),
                  projective_space(tower, 2),
                  _ranked(tower, batches, lambda r: r == 3),
                  _admissible(tower, False))


def diagonal_census(tower: FieldTower,
                    max_violations: int | None = None) -> CensusSummary:
    """Absolute counts over invertible diagonal matrices up to scalars,
    diag(1, a, b) in the order of (a, b), in batches of `_kernel_rows`."""
    Q = tower.order
    space = projective_space(tower, 2)
    k = np.arange((Q - 1) ** 2)
    e = np.zeros((len(k), 9), dtype=np.uint32)
    e[:, 0], e[:, 4], e[:, 8] = 1, 1 + k // (Q - 1), 1 + k % (Q - 1)
    return _sweep(_summary(tower, "diagonal", max_violations), space,
                  _kernel_batches(space, e, np.full(len(e), 3)),
                  _admissible(tower, True),
                  "diagonal cardinality outside the admissible menu")


# -- rank <= 2 censuses ------------------------------------------------------------

def rank_le2_census(tower: FieldTower,
                    max_violations: int | None = None) -> CensusSummary:
    """Exhaustive classification of every rank <= 2 matrix up to scalars.

    Verifies, per matrix: the union-of-lines shape for rank 1; for rank 2,
    the cone / degenerate / non-degenerate split with the expected
    cardinalities, cone base shapes, and that the Steiner locus of the
    attached pencil collineation reproduces the absolute set.

    The permutation congruences, the entrywise Frobenius and the torus
    congruence a_ij -> lam d_i a_ij d_j^sigma are collineations of the
    plane, so the rank, the absolute count and the kind are constant on the
    orbits of the group they generate.  The sweep therefore verifies one
    representative per orbit (`_orbit_batches`) and adds its weight, the
    number of scalar classes in the orbit, to the histogram and the kind
    counts; these equal those of the full scalar-class sweep.  A violation
    names the failing representative.  The budget counts the torus indices
    scanned; `max_violations` bounds the violations kept, not those
    counted.
    """
    batches = _orbit_batches(tower, "rank<=2 sweep", _ENUM_CHUNK)
    return _sweep(_summary(tower, "exhaustive-rank-le2", max_violations),
                  projective_space(tower, 2),
                  _ranked(tower, batches, lambda r: r < 3))


def _degenerate_verdicts(space, e, mask, ranks):
    """Yield (rows, verdicts) of the per-kind checks of the rank-1 and
    rank-2 rows among K forms with (K, 9) entries, absolute masks (K, N)
    and `ranks`, in booking order; the radical points of the rank-2 rows
    are found once, for the split and the checks."""
    one, two = (np.nonzero(ranks == r)[0] for r in (1, 2))
    if len(one):
        yield one, rank1_verdicts(space, e[one], mask[one])
    if len(two):
        v_r, v_l = radical_points(space, e[two])
        same = (v_r == v_l).all(axis=1)
        for rows, check, radicals in ((two[same], cone_verdicts, (v_r[same],)),
                                      (two[~same], cf_verdicts, (v_r[~same], v_l[~same]))):
            if len(rows):
                yield rows, check(space, e[rows], mask[rows], *radicals)


def line_census(tower: FieldTower) -> CensusSummary:
    """Exhaustive sweep over all nonzero 2x2 matrices up to scalars: the
    absolute set on PG(1,q^n) must be empty, a point, two points, or an
    F_q-subline (`line_verdicts`, each subline verified by
    reparameterisation)."""
    line = projective_space(tower, 1)
    summary = _summary(tower, "line-2x2")
    for blk in _enumerate_scalar_classes(tower.order, 4, _ENUM_CHUNK):
        mask = absolute_masks(line, blk)
        w = np.ones(len(blk), dtype=np.int64)
        summary.add_counts(np.count_nonzero(mask, axis=1), w)
        summary.book(blk, line_verdicts(line, blk, mask), w)
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
    pts = space.points
    ones = np.ones(len(pts), dtype=np.int64)   # each row: one matrix, rank 1
    outer = (tower.vmul(u[None, :, None], pts[:, None, :]).reshape(-1, 9)
             for u in pts)
    return _sweep(_summary(tower, "rank1"), space,
                  ((e, ones, ones) for e in outer))


# entry positions of an invertible 2x2 block in the two radical-normal
# layouts: radicals (1,0,0) and (0,0,1), and the cone with vertex (1,0,0)
_NORMAL_LAYOUTS = ([1, 2, 4, 5], [4, 5, 7, 8])


def rank2_normal_census(tower: FieldTower) -> CensusSummary:
    """Exhaustive sweep over the rank-2 matrices in the two radical-normal
    layouts: distinct radicals at (1,0,0)/(0,0,1) and the coincident-radical
    cone layout, each over all invertible blocks up to scalars."""
    def layouts():
        for layout in _NORMAL_LAYOUTS:
            for blk in _enumerate_scalar_classes(tower.order, 4, 1 << 15):
                e = np.zeros((len(blk), 9), dtype=np.uint32)
                e[:, layout] = blk
                yield e, np.ones(len(e), dtype=np.int64)
    return _sweep(_summary(tower, "rank2-normal"), projective_space(tower, 2),
                  _ranked(tower, layouts(), lambda r: r == 2))


def rank2_random_census(tower: FieldTower, count: int, seed: int) -> CensusSummary:
    """Full verification of `count` sampled rank-2 matrices in general
    position (deterministic rejection sampling)."""
    space = projective_space(tower, 2)
    e, ranks = _sample_entries(tower, count, seed, lambda r: r == 2)
    return _sweep(_summary(tower, f"rank2-random(seed={seed}, count={count})"),
                  space, _kernel_batches(space, e, ranks))


# -- random censuses --------------------------------------------------------------

def random_census(tower: FieldTower, count: int, seed: int,
                  invertible_only: bool = True, records: int = 0,
                  max_violations: int | None = None) -> CensusSummary:
    """Sampled census: histogram the absolute counts of `count` sampled
    matrices, invertible ones with `invertible_only` (checked against the
    menu) or any nonzero ones (rank 1 and 2 rows take their per-kind checks,
    rank-3 rows no menu check).  The first `records` samples also get a
    full `form_record`, from the sweep's masks; its checks (the menu, the
    stricter diagonal one or the odd-degree epsilon form, and the Steiner
    cross-check, always on) replace the sweep's check on that row, so each
    violation counts once.  `max_violations` bounds the violations kept,
    not those counted."""
    space = projective_space(tower, 2)
    e, ranks = _sample_entries(tower, count, seed,
                               (lambda r: r == 3) if invertible_only else
                               (lambda r: r > 0))
    return _sweep(_summary(tower, f"random(seed={seed}, count={count})",
                           max_violations),
                  space, _kernel_batches(space, e, ranks),
                  _admissible(tower, False) if invertible_only else None,
                  records=records)


def form_record(form: SesquiForm, space: ProjectiveSpace | None = None,
                mask: np.ndarray | None = None) -> dict:
    """One census record: `form_records` at K = 1.  `mask` is the form's
    absolute mask when the caller already has it."""
    if form.d != 2:
        raise ValueError("expected a form on the projective plane")
    space = space or form.space()
    if mask is None:
        mask = absolute_mask(form, space)
    return form_records(space, form.entries[None], mask[None])[0]


def form_records(space: ProjectiveSpace, e: np.ndarray, mask: np.ndarray) -> list:
    """The census records of K nonzero forms of the plane with (K, 9)
    entries and absolute masks (K, N): rank, kind, cardinality, line
    spectrum and either the Kestenband profile (rank 3, `kestenband_profiles`)
    or the sweep's per-kind check (`_degenerate_verdicts`), whose first kind
    counter set on a row names its kind.  The spectra are one gather of the
    masks over `lines_points_array`, in blocks of about 2^18 cells."""
    if not len(e):
        return []
    t = space.tower
    Q = t.order
    ranks = vranks(t, e.reshape(-1, 3, 3))
    if not ranks.all():
        raise ValueError("the zero form is absolute everywhere and is not classified")
    lines = lines_points_array(space)
    # freq[k, v]: the lines of row k with v absolute points
    freq = np.empty((len(e), Q + 2), dtype=np.int64)
    step = max(1, (1 << 18) // lines.size)
    for k in range(0, len(e), step):
        on_line = np.take(mask[k:k + step], lines, axis=1).sum(axis=2, dtype=np.uint16)
        rows = (Q + 2) * np.arange(len(on_line))[:, None]
        freq[k:k + step] = np.bincount((on_line + rows).ravel(), minlength=len(
            on_line) * (Q + 2)).reshape(-1, Q + 2)
    illegal = np.ones(Q + 2, dtype=bool)
    illegal[[0, 1, 2, t.q + 1, Q + 1]] = False
    counts = np.count_nonzero(mask, axis=1)
    recs = []
    for k in range(len(e)):
        values = np.nonzero(freq[k])[0].tolist()
        recs.append({
            "matrix": e[k].tolist(),
            "rank": int(ranks[k]),
            "kind": KIND_KESTENBAND,
            "absolute": int(counts[k]),
            "family": None,
            "epsilon": None,
            "fixed_in": None,
            "fixed_out": None,
            "spectrum": dict(zip(values, freq[k, values].tolist())),
            "violations": [],
        })
        if illegal[values].any():
            recs[k]["violations"].append(
                f"line intersections {[v for v in values if illegal[v]]} "
                "outside {0, 1, 2, q+1, full}")
        if freq[k, Q + 1] and ranks[k] == 3:
            recs[k]["violations"].append("an invertible form may not contain a line")
    full = np.nonzero(ranks == 3)[0]
    if t.n > 1 and len(full):
        prof = kestenband_profiles(space, e[full], mask[full])
        for j, k in enumerate(full):
            recs[k].update(family=prof.family[j], epsilon=prof.epsilon[j],
                           fixed_in=int(prof.fixed_in[j]),
                           fixed_out=int(prof.fixed_out[j]))
            recs[k]["violations"].extend(prof.violations[j])
    for rows, verdicts in _degenerate_verdicts(space, e, mask, ranks):
        for j, k in enumerate(rows):
            recs[k]["kind"] = next(kind for kind, on in verdicts.kinds.items() if on[j])
            recs[k]["violations"].extend(r for r, bad in verdicts.flags.items() if bad[j])
    return recs
