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
rank and returns the ranks it computed.  The driver counts each batch
once, through one of two count kernels (below), and histograms it with
its weights; rank-3 rows are checked against the cardinality menu, if
any, and rank-1 and rank-2 rows take the one check per kind, a batch
function returning
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
count kernel `PlaneKernel` holds one table per entry, h[3i+j][a, P] =
a P_i P_j^sigma for every a in F_Q and every point P, nine tables of Q x
N.  The absolute mask of a matrix is then nine row gathers, eight
additions and one zero test over the full point set, which batches
cleanly over millions of matrices.  The tables must fit KERNEL_BUDGET (64
MiB), checked before any is built; the largest plane within it is
PG(2,151), and past it the census raises CapExceeded.  In characteristic
2 the additions are XOR.  For odd p they are reduced lazily, as in the
delayed modular reduction of Dumas, Giorgi and Pernet (FFLAS-FFPACK, ACM
TOMS 2008): each value is stored as its F_p digits in base B = 9(p-1)+1,
so the nine values add as plain integers with no carry between digits,
and one lookup in a B^d zero table (d the degree over F_p) tests the
sum.  A batch is masked in row blocks of about _KERNEL_BLOCK (1 MiB) of
accumulator, gathered and added in place, so that the gathered rows of a
block stay in cache.

Most rows need their count only, and a count needs no point mask.  The
lines through R = (0,0,1), l_y = span((1,y,0), R) for y in F_Q and l_inf =
span((0,1,0), R), meet only in R, and the form restricts to l_y as the
2x2 form b on PG(1) with b00 = a00 + a01 y^sigma + a10 y + a11
y^(sigma+1), b01 = a02 + a12 y, b10 = a20 + a21 y^sigma and b11 = a22 (to
l_inf as b = (a11, a12, a21, a22)).  Hence

    |Gamma(A)| = sum_l n(b_l) - Q [a22 = 0],

n(b) the absolute count of b on PG(1): Q+1 table lookups per form instead
of a zero test at each of the Q^2+Q+1 points.  `LineKernel` scales a row
by a22^-1 when a22 != 0, so that b11 is 0 or 1, and tabulates n for all
2Q^3 (b11, b01, b10, b00) by enumerating the points of PG(1), not from
the line taxonomy that the census checks.  It reads b01, b10 and the two
parts of b00 by row gathers from (Q^2, Q+1) tables keyed by entry pairs,
joins the parts of b00 by XOR (p = 2) or a Q^2 add table (odd p) and makes
one lookup per line.  The driver masks through `PlaneKernel` only the
rows whose checks read the absolute set, the record rows and the rank-1
and rank-2 rows; every other row, all of the GL, diagonal and invertible
random censuses, is counted by `LineKernel`.  The record rows are counted
by both, and a record whose counts differ is flagged with its own reason,
a standing cross-check between two independent count paths.  The line
tables (about 18 Q^3 bytes for odd p, 62 MB at PG(2,151)) are held to the
same KERNEL_BUDGET, checked with the point kernel's before the first batch
of a sweep; each kernel is built on the first batch that needs it, so the
rank <= 2 sweeps never build the line tables and the GL sweep never
builds the point kernel.  At PG(2,27) the 2e5-sample census counts its
non-record rows in about 0.05 s, against about 0.6 s through the point
kernel.

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
# orbit representatives per batch of the GL sweep, which masks none of them;
# at _ENUM_CHUNK GL(3,8) ran 12% faster but peaked at 42.3 MB instead of
# 37.7 MB, by the per-batch arrays of the orbit scan, vranks and the line
# kernel (6.7 instead of 1.9 MB traced)
_GL_CHUNK = 1 << 12
_KERNEL_CELLS = 1 << 22  # (matrix, point) cells per batch of a sampled census
# bytes of count-kernel accumulator per row block, a cache-sized part of a
# batch: 2^19 uint16 cells (690 rows of PG(2,27)) or 2^18 uint32 cells
_KERNEL_BLOCK = 1 << 20
_MENU_REASON = "cardinality outside the admissible menu"
_LINE_REASON = "line-kernel count differs from the point-kernel count"


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


def _kernel_plan(tower: FieldTower, n_points: int) -> tuple:
    """(base, dtype) of the nine (Q, N) entry tables.  For p = 2 they hold
    field encodings (base None); for odd p each value's F_p digits in base
    9(p-1)+1, so that nine values add with no carry between digits, and
    the base^d zero table counts too.  Raises CapExceeded, before anything
    is allocated, when they do not fit KERNEL_BUDGET."""
    t, Q = tower, tower.order
    if t.p == 2:
        base, dtype, zero_bytes = None, np.min_scalar_type(Q - 1), 0
    else:
        base = 9 * (t.p - 1) + 1
        zero_bytes = base ** t.degree
        dtype = np.min_scalar_type(zero_bytes - 1)
    need = 9 * Q * n_points * dtype.itemsize + zero_bytes
    if need > KERNEL_BUDGET:
        raise CapExceeded(f"count-kernel tables for PG(2,{Q}) need {need / 2**20:.0f} "
                          f"MiB, beyond the {KERNEL_BUDGET >> 20} MiB kernel budget")
    return base, dtype


class PlaneKernel:
    """One coefficient table per entry for the absolute counts of 3x3 forms.

    The table of entry k = 3i + j is h[k][a, P] = a P_i P_j^sigma, for
    every a in F_Q and every point P; P is absolute for A exactly when the
    nine values h[k][a_k, P] sum to zero.  The kernel indices of a matrix
    are therefore its nine entries (`row_encode`)."""

    def __init__(self, space: ProjectiveSpace):
        t = space.tower
        Q = t.order
        self.space = space
        self.tower = t
        self.Q = Q
        base, dtype = _kernel_plan(t, space.n_points)
        pts = space.points
        if t.p == 2:
            lazy, self._zero = np.arange(Q).astype(dtype), None
        else:
            # value x -> its F_p digits in base `base`; a sum of nine has
            # every digit below `base`, no carries, and is zero when every
            # digit is 0 mod p
            lazy = (t._digits.astype(np.int64) @ base ** np.arange(t.degree)
                    ).astype(dtype)
            sums = np.arange(base ** t.degree)
            self._zero = np.ones(len(sums), dtype=bool)
            for k in range(t.degree):
                self._zero &= sums // base ** k % base % t.p == 0
        units = np.arange(Q, dtype=np.uint32)[:, None]
        ps = t.vsigma(pts)
        self.h = [lazy[t.vmul(units, t.vmul(pts[:, i], ps[:, j])[None])]
                  for i in range(3) for j in range(3)]

    @functools.cached_property
    def smul(self) -> np.ndarray:
        """(Q, Q^3) scalar multiples of every row vector, as row encodings
        a Q^2 + b Q + c, which are not kernel indices.  No sweep uses them
        or `renc_add`; they are the per-class reference of the tests (rows
        off a span), built on first use."""
        t, Q = self.tower, self.Q
        renc = np.arange(Q ** 3, dtype=np.int64)
        lam = np.arange(Q, dtype=np.uint32)[:, None]
        out = np.zeros((Q, Q ** 3), dtype=np.int64)
        for shift in (Q * Q, Q, 1):
            out += t.vmul(lam, (renc // shift % Q).astype(np.uint32)[None]
                          ).astype(np.int64) * shift
        return out

    def row_encode(self, entries: np.ndarray) -> tuple:
        """The nine kernel indices of (K, 9) matrix entry arrays: their
        entry columns, contiguous."""
        return tuple(entries.T.astype(np.intp, order="C"))

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
        """Absolute-point masks, (K, N), from the nine entry indices of K
        matrices (they broadcast), in row blocks of about _KERNEL_BLOCK bytes
        of accumulator each, so that the gathered rows stay in cache."""
        idx = np.broadcast_arrays(*idx)
        n_points = self.space.n_points
        for tbl, i in zip(self.h, idx):
            if len(i) and not 0 <= i.min() <= i.max() < len(tbl):
                raise IndexError(f"entry index outside 0..{len(tbl) - 1}")
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


def _line_plan(tower: FieldTower) -> tuple:
    """(part dtype, index dtype, count dtype) of the line-count tables.
    Raises CapExceeded, before anything is allocated, when the tables do
    not fit KERNEL_BUDGET."""
    Q = tower.order
    idx = np.min_scalar_type(2 * Q ** 3 - 1)
    # the two parts of b00: codes for p = 2, add-table keys m Q + n for odd p
    part = np.min_scalar_type(Q - 1 if tower.p == 2 else Q * Q - 1)
    count = np.min_scalar_type(Q + 1)
    # m and n, b01 (twice) and b10, the count table, the add table (odd p)
    # and the intp product table
    need = (Q * Q * (Q + 1) * (2 * part.itemsize + 3 * idx.itemsize)
            + 2 * Q ** 3 * count.itemsize
            + (0 if tower.p == 2 else Q * Q * idx.itemsize) + Q * Q * 8)
    if need > KERNEL_BUDGET:
        raise CapExceeded(f"line-count tables for PG(2,{Q}) need "
                          f"{need / 2**20:.0f} MiB, beyond the "
                          f"{KERNEL_BUDGET >> 20} MiB kernel budget")
    return part, idx, count


class LineKernel:
    """Absolute counts of 3x3 forms, summed over the Q+1 lines through
    R = (0,0,1): l_y = {(1,y,t)} + R for y in F_Q and l_inf = {(0,1,t)} + R.

    On l_y the form restricts to the 2x2 form b with b00 = a00 + a01 y^s +
    a10 y + a11 y^(s+1), b01 = a02 + a12 y, b10 = a20 + a21 y^s and b11 =
    a22 (s = sigma); on l_inf to b = (a11, a12, a21, a22).  Every point but
    R lies on one of these lines, so |Gamma(A)| = sum_l n(b_l) - Q [a22 =
    0], n(b) the absolute count of b on PG(1).  A row is scaled by a22^-1
    when a22 != 0, through the Q^2 product table `_mul`, which keeps its
    absolute set and makes b11 0 or 1.

    `count` is the table of n over the index ((b11 Q + b01) Q + b10) Q +
    b00, built by enumerating the points of PG(1).  The other tables have
    one row per pair of entries, a Q + b, and one column per line, the
    last for l_inf.  `b01`, whose rows for b11 = 1 follow those for b11 =
    0, and `b10` hold their part of the index; b00 is the field sum of
    the parts in `m` (a00, a01) and `n` (a10, a11): an XOR of codes for
    p = 2, for odd p a lookup of m Q + n in the Q^2 add table `_add`."""

    def __init__(self, tower: FieldTower):
        t, Q = tower, tower.order
        part, idx, count = _line_plan(t)
        self.tower, self.Q = t, Q
        y = np.arange(Q, dtype=np.uint32)
        first = np.repeat(y, Q)[:, None]    # the pair (a, b) has row a Q + b
        second = np.tile(y, Q)[:, None]

        def table(values, at_inf, scale, dtype):
            out = np.empty((Q * Q, Q + 1), dtype=dtype)
            out[:, :Q] = values
            out[:, Q] = at_inf.ravel()
            out *= dtype.type(scale)
            return out

        a_bys = t.vadd(first, t.vmul(second, t.vsigma(y)))    # a + b y^s
        zero = np.zeros(Q * Q, dtype=np.uint32)
        b01 = table(t.vadd(first, t.vmul(second, y)), second, Q * Q, idx)
        self.b01 = np.concatenate([b01, b01 + idx.type(Q ** 3)])
        self.b10 = table(a_bys, second, Q, idx)
        self.m = table(a_bys, zero, 1 if t.p == 2 else Q, part)
        self.n = table(t.vmul(a_bys, y), second, 1, part)
        self._add = None if t.p == 2 else t.vadd(first, second).ravel().astype(idx)
        self._mul = t.vmul(first, second).ravel().astype(np.intp)
        self.count = self._count_table(count)

    def _count_table(self, dtype) -> np.ndarray:
        """n(b) for b11 in {0, 1} and every b00, b01, b10: for each point
        (1, t) of PG(1) and each (b11, b01, b10) exactly one b00 makes it
        absolute, -(b01 t^s + b10 t + b11 t^(s+1)); (0, 1) is absolute when
        b11 = 0.  One bincount per (b11, b01) slab of Q^2 entries."""
        t, Q = self.tower, self.Q
        ts = np.arange(Q, dtype=np.uint32)
        tsig = t.vsigma(ts)
        b10_t = t.vmul(ts[:, None], ts[None])          # [b10, t]
        out = np.zeros((2, Q, Q * Q), dtype=dtype)
        out[0] += 1
        for b11 in (0, 1):
            rest = t.vadd(b10_t, t.vmul(np.uint32(b11), t.vmul(ts, tsig))[None])
            for b01 in range(Q):
                b00 = t.vneg(t.vadd(rest, t.vmul(np.uint32(b01), tsig)[None]))
                cell = (ts[:, None].astype(np.int64) * Q + b00).ravel()
                out[b11, b01] += np.bincount(cell, minlength=Q * Q).astype(dtype)
        return out.ravel()

    def counts(self, entries: np.ndarray) -> np.ndarray:
        """Absolute counts of K forms with (K, 9) entries, in row blocks of
        about _KERNEL_BLOCK bytes of index each.  Scaling looks the entries
        up in the Q^2 product table `_mul`, which refuses any outside F_Q,
        so every key below is in range and the gathers skip numpy's
        buffered bounds check."""
        t, Q = self.tower, self.Q
        a22 = entries[:, 8]
        scale = np.where(a22 == 0, np.uint32(1), t.vinv(a22))
        a = entries.astype(np.intp)
        a *= Q
        a += scale[:, None]
        a = self._mul.take(a)
        keys = ((a[:, 8] * Q + a[:, 2]) * Q + a[:, 5], a[:, 6] * Q + a[:, 7],
                a[:, 0] * Q + a[:, 1], a[:, 3] * Q + a[:, 4])
        out = np.empty(len(a), dtype=np.int64)
        step = max(1, _KERNEL_BLOCK // ((Q + 1) * self.b01.itemsize))
        size = (min(step, len(a)), Q + 1)
        m, n = np.empty((2, *size), dtype=self.m.dtype)
        acc, v = np.empty((2, *size), dtype=self.b01.dtype)
        c = np.empty(size, dtype=self.count.dtype)
        total = np.min_scalar_type((Q + 1) ** 2)
        for start in range(0, len(a), step):
            k01, k10, km, kn = (x[start:start + step] for x in keys)
            rows = slice(0, len(k01))
            np.take(self.m, km, axis=0, out=m[rows], mode="clip")
            np.take(self.n, kn, axis=0, out=n[rows], mode="clip")
            if self._add is None:
                np.bitwise_xor(m[rows], n[rows], out=acc[rows])
            else:
                m[rows] += n[rows]
                np.take(self._add, m[rows], out=acc[rows], mode="clip")
            acc[rows] += np.take(self.b01, k01, axis=0, out=v[rows], mode="clip")
            acc[rows] += np.take(self.b10, k10, axis=0, out=v[rows], mode="clip")
            np.take(self.count, acc[rows], out=c[rows], mode="clip")
            # einsum sums the short rows 2-3x faster than sum(axis=1)
            out[start:start + step] = np.einsum("ij->i", c[rows].astype(total))
        out -= Q * (a[:, 8] == 0)
        return out


def line_kernel(space: ProjectiveSpace) -> LineKernel:
    if space._line_kernel is None:
        space._line_kernel = LineKernel(space.tower)
    return space._line_kernel


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


def _rows(a: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """a[keep], without a copy when every row is kept."""
    return a if keep.all() else a[keep]


def _sweep(summary: CensusSummary, space: ProjectiveSpace, batches,
           menu: np.ndarray | None = None, reason: str = _MENU_REASON,
           records: int = 0) -> CensusSummary:
    """The one loop over plane batches.  `batches` yields (e, w, ranks):
    (K, 9) entries of nonzero forms, the int64 number of matrices each row
    stands for and the ranks.  Each batch is histogrammed with its weights.
    The first `records` rows of the sweep get a `form_records` record,
    whose checks are theirs, so each violation counts once.  Of the other
    rows, those of rank 3 are checked against `menu` (none without one) and
    those of rank 1 or 2 take the per-kind checks, booked with their
    weights.  Only the record rows and the rank-1 and rank-2 rows, whose
    checks read the absolute set, are masked by the point kernel; every
    other row is counted by the line kernel, and the record rows by both,
    a mismatch flagged on the record.  Each kernel is built on the first
    batch that needs it; both budgets are checked before the first."""
    _kernel_plan(space.tower, space.n_points)
    _line_plan(space.tower)
    for e, w, ranks in batches:
        k = min(records, len(e))    # the batch's record rows
        records -= k
        degenerate = ranks < 3
        degenerate[:k] = False
        # the record rows are masked and lined; em holds them first, then
        # the degenerate rows
        masked, lined = degenerate.copy(), ~degenerate
        masked[:k] = True
        em = _rows(e, masked)
        counts = np.empty(len(e), dtype=np.int64)
        mask = np.empty((0, space.n_points), dtype=bool)
        if len(em):
            kern = plane_kernel(space)
            mask = kern.masks(*kern.row_encode(em))
            counts[masked] = np.count_nonzero(mask, axis=1)
        line = np.empty(0, dtype=np.int64)
        if lined.any():
            line = line_kernel(space).counts(_rows(e, lined))
            counts[k:][lined[k:]] = line[k:]
        summary.add_counts(counts, w)
        for rec, own in zip(form_records(space, e[:k], mask[:k]), line[:k].tolist()):
            if rec["absolute"] != own:
                rec["violations"].append(_LINE_REASON)
            summary.records.append(rec)
            summary.bump(rec["kind"])
            for v in rec["violations"]:
                summary.flag([rec["matrix"]], v)
        if menu is not None:
            summary.flag(e[k:][(ranks[k:] == 3) & ~np.isin(counts[k:], menu)], reason)
        for rows, verdicts in _degenerate_verdicts(space, em[k:], mask[k:],
                                                   _rows(ranks, degenerate)):
            summary.book(em[k:][rows], verdicts, _rows(w, degenerate)[rows])
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
        # a line in Gamma(A) restricts A to a 2x2 form with all Q+1 points
        # absolute, which for n >= 2 (Q+1 > q+1) is zero, impossible for
        # invertible A; at n = 1 sigma is the identity and x^T A x a
        # quadratic form, which may contain a line
        if freq[k, Q + 1] and ranks[k] == 3 and t.n > 1:
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
