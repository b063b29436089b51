"""Vectorised census sweeps: exhaustive and sampled runs over 2x2 and 3x3
matrices that verify the classification and cardinality statements at
scale.

Every plane census is one driver, `_sweep`, fed by a source of batches
(e, w, ranks): (K, 9) entries of nonzero forms, the int64 number of
matrices each row stands for, and their ranks.  The sources are the orbit
representatives of the exhaustive 3x3 sweeps (`_orbit_batches`, ranked
once per batch by `_ranked`), the diagonal matrices, one piece per a, the
outer products of `rank1_census`, the radical-normal layouts of
`rank2_normal_census` and the counter-based rejection sampler `_samples`,
which yields the rows it keeps by rank, one draw at a time, with the
ranks it computed.  The sources stream: the orbit, diagonal and sampled
ones are regrouped by one batcher, `_rebatch`, and the driver checks both
kernel budgets before it pulls the first row, so no row is drawn past a
budget.  The driver counts each batch once, through one of two count
kernels (below), and histograms it with its weights; rank-3 rows are
checked against the cardinality menu, if any, and rank-1 and rank-2 rows
take the one check per kind, a batch function returning `forms.Verdicts`
(`classify.rank1_verdicts`, `cone_verdicts` and `cfsets.cf_verdicts`,
Steiner always on), split by `_degenerate_verdicts` and booked by
`CensusSummary.book`.  `line_census` keeps its own loop on
PG(1), over the 2x2 scalar classes of `_enumerate_scalar_classes`, with
`classify.line_verdicts` (also the check of cone bases).

The first `records` rows of a sweep also get records, built in one pass
per batch (`form_records`; `form_record` is its K = 1 caller, which
takes the form alone and a `mask` only so that a test can plant a wrong
absolute set).  A record adds checks and replaces only one: every row is
histogrammed, checked by kind and booked as it would be without a
record, and the record reuses the sweep's masks, ranks and per-kind
verdicts.  It adds the line spectrum, from the line kernel (below) through
the lines of each point of the line z = 0 (`_line_spectra`), and on
rank-3 rows the Kestenband profile (`classify.kestenband_profiles`), from
the fixed points of the induced collineations (`forms.fixed_masks`,
below); it is stricter than the menu check and takes its place on those
rows.  So a summary does not depend on `records`, and each violation
counts once.  Only the record dictionaries are assembled row by row.

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
source takes the torus indices of one support per S3-orbit of supports
(103 of them), but only of those that can hold a rank its sweep keeps:
det A is the signed sum, over the transversals inside S (the supports of
the permutation matrices), of their entry products, so a support with no
transversal holds only singular matrices and one with exactly one only
invertible ones.  The GL sweep skips the 52 supports without a
transversal, the rank <= 2 sweep the 29 with exactly one, before their
torus action is diagonalised; the 22 with two or more hold both, and
each sweep filters their rows by rank.  H = Stab_S3(S) x Gal acts on the
torus indices of a support by y -> p^j U Pi U^-1 y mod gcd(d, N), Pi the
permutation of the entries of S.  The source keeps an index when no
element of H maps it to a smaller one, the canonical representative of
isomorph rejection (McKay, "Isomorph-free exhaustive generation", J.
Algorithms 26, 1998), and gives it the weight

    torus weight x 6en / #{h in H : h y = y}

scalar classes.  It finds them with a sieve on the leading digit of the
index (`_sieve`), the prefix pruning of orderly generation (Read 1978):
each h acts linearly on the digits, so the leading digit of h y is one
term from the high digits plus one from the low digits, and packed bit
tables over the low digits reject whole rows of indices at once, after
Frobenius, which acts digit by digit, has dropped the high prefixes it
maps lower.  Only the survivors are compared in full, and only with the
h whose leading image digit ties.  The supports of one radix whose
indices fit one sieve block are sieved together, as many in one pass
over their stacked H as fill a block, and a larger support alone, block
by block (`_sieved`); the rows leave support by support in bit order.
At Q = 8, (p, e, n) = (2, 1, 3), the GL sweep visits 51 supports and
176,445 indices, of which 30,410 reach the full comparison and 21,626
representatives are kept (18,807 of rank 3, for the 16,482,816
invertible scalar classes); the rank <= 2 sweep visits 74 supports and
174,938 indices, 29,862 reach the comparison and 21,036 are kept (3,150
singular, for 2,691,145 classes).  At Q = 16, (p, e, n) = (2, 1, 4), the
GL sweep visits 13,369,215 indices, 1,247,570 reach the comparison and
848,922 are kept; the rank <= 2 sweep 13,354,738, 1,243,405 and 844,509.
By orbit-stabiliser the kept orbits of a support cover its indices, sum
|H| / #{h : h y = y}; the source checks that on every support it visits
and raises RuntimeError if not.  The budget counts the torus indices of
the supports a sweep visits.  A violation names the failing representative.

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
block stay in cache, and the zero table reads a block in slices of
_ZERO_SLICE cells.

The fixed points need no point tables.  The collineation x -> M
x^(sigma^2) of an invertible form, M = cof(A) A^sigma, is taken line by
line through the pencil of R = (0,0,1), as the line kernel below takes
the counts: on each line l_y one condition of a fixed point is linear in
t^(sigma^2) and leaves one candidate point, and only a line on which it
vanishes identically has all its Q points tested (`forms.fixed_masks`),
O(Q) work a form against N = Q^2+Q+1 points.  The plane holds one point
kernel, the count kernel, at every degree.

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
kernel.  The per-line counts that `LineKernel` sums are also the records'
line spectra: moving R to each point P of the line z = 0 by a change of
coordinates covers every line of the plane, that line itself Q+1 times,
so a record's spectrum takes (Q+1)^2 counts and no point list of a line.

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
                       rank1_verdicts)
from .cfsets import cf_verdicts
from .fields import FieldTower
from .forms import (SesquiForm, absolute_mask, absolute_masks, fixed_masks,
                    radical_points)
from .linalg import vranks
from .projective import CapExceeded, ProjectiveSpace, projective_space

EXHAUSTIVE_CAP = 100_000_000  # 3x3 sweep torus indices
# rows (scalar classes or orbit representatives) per batch; 1 << 16 lifted the
# rank <= 2 sweep of PG(2,8) from 42 MB to 58-66 MB peak RSS, by heap layout
_ENUM_CHUNK = 1 << 14
# orbit representatives per batch of the GL sweep, which masks none of them;
# at _ENUM_CHUNK GL(3,8) ran 12% faster but peaked at 42.3 MB instead of
# 37.7 MB, by the per-batch arrays of the orbit scan, vranks and the line
# kernel (6.7 instead of 1.9 MB traced)
_GL_CHUNK = 1 << 12
# bytes of the tie table (elements of H x sieve survivors) per block of the
# orbit sieve; 1 << 18 raised the traced peak of draining the GL(3,8) source
# at _GL_CHUNK from 1.24 to 2.16 MiB, and 1 << 15 sieved its three largest
# supports 28% slower
_SIEVE_BLOCK = 1 << 16
_KERNEL_CELLS = 1 << 22  # (matrix, point) cells per batch of a sampled census
# bytes of count-kernel accumulator per row block, a cache-sized part of a
# batch: 2^19 uint16 cells (690 rows of PG(2,27)) or 2^18 uint32 cells
_KERNEL_BLOCK = 1 << 20
# accumulator cells per zero-table lookup of odd p: numpy copies the keys of
# a lookup to intp, 4 MiB for a whole 2^19-cell block, 256 KiB for a slice
_ZERO_SLICE = 1 << 15
# bytes of each of the line kernel's four row-block buffers; at
# _KERNEL_BLOCK a 4096-row batch of PG(2,27) held 1.8 MiB of them, freed
# and faulted back in by the next batch (18,000 more page faults in a
# 2e5-sample census), while at 1 << 17 they stay in L2
_LINE_BLOCK = 1 << 17
_MENU_REASON = "cardinality outside the admissible menu"
_LINE_REASON = "line-kernel count differs from the point-kernel count"


def _check_exhaustive_cap(indices: int, what: str):
    if indices > EXHAUSTIVE_CAP:
        raise CapExceeded(f"{what} beyond the matrix budget: {indices:.1e} torus "
                          f"indices, cap {EXHAUSTIVE_CAP:.0e}; use random sampling")


# -- deterministic counter-based randomness ----------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_SAMPLE_BATCH = 1 << 13


def splitmix64(seed: int, counter: int) -> int:
    """Reference scalar implementation of the sampling stream."""
    z = (seed + (counter + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def rand_stream(seed: int, start: int, count: int) -> np.ndarray:
    # in place: each slab-sized temporary freed is faulted back in by the next draw
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= np.uint64(_GOLDEN)
    z += np.uint64(seed & _MASK64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def sample_matrix_entries(order: int, seed: int, start: int, count: int) -> np.ndarray:
    """(count, 9) matrix entries; sample i consumes counters 9i..9i+8."""
    vals = rand_stream(seed, start, 9 * count)
    # vals % order, in place as vals - (vals // order) order: numpy's uint64
    # division by a scalar is 2.6x faster than its remainder
    order = np.uint64(order)
    quot = vals // order
    quot *= order
    vals -= quot
    return vals.astype(np.uint32).reshape(count, 9)


def _check_seed(seed: int):
    """The stream takes 64-bit seeds; any other would alias one of them
    under `rand_stream`'s mask and report a different mode."""
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed {seed} is outside 0..2^64-1")


def _samples(tower: FieldTower, count: int, seed: int, keep):
    """Yield (e, w, ranks) pieces, unit weights, of the first `count`
    sampled (K, 9) entry arrays whose ranks pass `keep`, a function from a
    draw's ranks to its keep mask.  Sample i consumes counters 9i..9i+8
    whether or not it is kept, so the rows do not depend on the draw size.
    Samples are drawn and ranked `_SAMPLE_BATCH` at a time, and one draw is
    held at a time: memory does not grow with `count`.  At 2^13 samples a
    draw's uint64 counters (576 KiB) and its rank test stay in L2.  Among
    2^11..2^15, 2^13 and 2^14 drained the 2e5 invertible samples of
    PG(2,27) fastest (34 ms, against 38 ms at 2^12 and 48 ms at 2^11 and
    2^15, minima of 21 warm runs); 2^13 holds half the memory and its
    last draw overshoots `count` by less."""
    start = 0
    while count > 0:
        e = sample_matrix_entries(tower.order, seed, 9 * start, _SAMPLE_BATCH)
        start += _SAMPLE_BATCH
        ranks = vranks(tower, e.reshape(-1, 3, 3))
        rows = np.nonzero(keep(ranks))[0][:count]
        e, ranks, count = e[rows], ranks[rows], count - len(rows)
        yield e, np.ones(len(e), dtype=np.int64), ranks


# -- the batched absolute-count kernel ----------------------------------------

# bytes of the tables of each kernel, the point kernel and the line kernel,
# checked before any is built
KERNEL_BUDGET = 64 << 20


def _kernel_plan(tower: FieldTower, n_points: int) -> tuple:
    """(base, dtype) of the nine (Q, N) entry tables of one point kernel.
    For p = 2 they hold field encodings (base None); for odd p each value's
    F_p digits in base 9(p-1)+1, so that nine values add with no carry
    between digits, and the base^d zero table counts too.  Raises
    CapExceeded, before anything is allocated, when they do not fit
    KERNEL_BUDGET.  The plane holds one point kernel, whatever its
    records: the fixed points of their profiles read no point tables."""
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
    """The count kernel: one coefficient table per entry, for the zero test
    of x^T A x^sigma, linear in the entries of A, at every point of the
    plane.

    The table of entry k = 3i + j is h[k][a, P] = a P_i P_j^sigma, for
    every a in F_Q and every point P.  P is absolute for A exactly when
    the nine values h[k][a_k, P] sum to zero, so the kernel indices of a
    matrix are its nine entries (`row_encode`)."""

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
        matrices (they broadcast): P is absolute where the nine values
        h[k][idx[k], P] sum to zero.  The sums are formed in row blocks of
        about _KERNEL_BLOCK bytes of accumulator each, gathered and added
        in place, so that the gathered rows stay in cache.  For odd p the
        zero table reads each block in slices of _ZERO_SLICE cells, so
        that numpy's intp copy of the keys of a slice stays in cache too."""
        terms = list(zip(self.h, np.broadcast_arrays(*idx)))
        for tbl, i in terms:
            if len(i) and not 0 <= i.min() <= i.max() < len(tbl):
                raise IndexError(f"entry index outside 0..{len(tbl) - 1}")
        n_points = self.space.n_points
        out = np.empty((len(terms[0][1]), n_points), dtype=bool)
        step = max(1, _KERNEL_BLOCK // (n_points * self.h[0].itemsize))
        buf = np.empty((2, min(step, len(out)), n_points), dtype=self.h[0].dtype)
        (first, i0), *rest = terms
        # the indices are in range (checked above; the digit sums by
        # construction), so the gathers skip numpy's buffered bounds check
        for start in range(0, len(out), step):
            rows = slice(start, start + step)
            a, v = buf[:, :len(out[rows])]
            np.take(first, i0[rows], axis=0, out=a, mode="clip")
            if self._zero is None:
                # characteristic 2: the adds are XOR, and the sum is zero
                # when the last value equals the sum of the others
                for tbl, i in rest[:-1]:
                    a ^= np.take(tbl, i[rows], axis=0, out=v, mode="clip")
                tbl, i = rest[-1]
                np.equal(a, np.take(tbl, i[rows], axis=0, out=v, mode="clip"),
                         out=out[rows])
            else:
                for tbl, i in rest:
                    a += np.take(tbl, i[rows], axis=0, out=v, mode="clip")
                keys, dest = a.reshape(-1), out[rows].reshape(-1)
                for k in range(0, len(keys), _ZERO_SLICE):
                    np.take(self._zero, keys[k:k + _ZERO_SLICE],
                            out=dest[k:k + _ZERO_SLICE], mode="clip")
        return out

    def counts(self, *idx) -> np.ndarray:
        return np.count_nonzero(self.masks(*idx), axis=1)


def plane_kernel(space: ProjectiveSpace) -> PlaneKernel:
    """The plane's count kernel, built on first use and cached."""
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

    def line_counts(self, entries: np.ndarray):
        """Yield (start, c) for K forms with (K, 9) entries, in row blocks
        of about _LINE_BLOCK bytes of index each: c[i, l] is the number
        of absolute points of form start + i on line l through R (the
        last column l_inf), R included.  `c` is one buffer, overwritten by
        the next block.  Scaling looks the entries up in the Q^2 product
        table `_mul`, which refuses any outside F_Q, so every key below is
        in range and the gathers skip numpy's buffered bounds check."""
        t, Q = self.tower, self.Q
        a22 = entries[:, 8]
        scale = np.where(a22 == 0, np.uint32(1), t.vinv(a22))
        a = entries.astype(np.intp)
        a *= Q
        a += scale[:, None]
        a = self._mul.take(a)
        keys = ((a[:, 8] * Q + a[:, 2]) * Q + a[:, 5], a[:, 6] * Q + a[:, 7],
                a[:, 0] * Q + a[:, 1], a[:, 3] * Q + a[:, 4])
        step = max(1, _LINE_BLOCK // ((Q + 1) * self.b01.itemsize))
        size = (min(step, len(a)), Q + 1)
        m, n = np.empty((2, *size), dtype=self.m.dtype)
        acc, v = np.empty((2, *size), dtype=self.b01.dtype)
        c = np.empty(size, dtype=self.count.dtype)
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
            yield start, np.take(self.count, acc[rows], out=c[rows], mode="clip")

    def counts(self, entries: np.ndarray) -> np.ndarray:
        """Absolute counts of K forms with (K, 9) entries: the sums of
        their `line_counts`, less Q where R is absolute (a22 = 0)."""
        Q = self.Q
        out = np.empty(len(entries), dtype=np.int64)
        total = np.min_scalar_type((Q + 1) ** 2)
        for start, c in self.line_counts(entries):
            # einsum sums the short rows 2-3x faster than sum(axis=1)
            out[start:start + len(c)] = np.einsum("ij->i", c.astype(total))
        out -= Q * (entries[:, 8] == 0)
        return out


def line_kernel(space: ProjectiveSpace) -> LineKernel:
    if space._line_kernel is None:
        space._line_kernel = LineKernel(space.tower)
    return space._line_kernel


def _kernel_rows(space: ProjectiveSpace) -> int:
    """Matrices per batch of a sampled, diagonal or rank-2 normal census:
    4096, fewer where their (K, N) count masks would pass 2^22 cells."""
    return max(1, min(4096, _KERNEL_CELLS // space.n_points))


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
    stands for and the ranks.  Each batch is histogrammed with its weights,
    its rank-3 rows are checked against `menu` (none without one) and its
    rank-1 and rank-2 rows take the per-kind checks, booked with their
    weights, whether or not they get a record.  The first `records` rows of
    the sweep also get a `form_records` record, from the sweep's ranks and
    checks, which adds the checks no other row takes: the line spectrum,
    from the line kernel, and, on rank-3 rows, the Kestenband profile, from
    the fixed points of `forms.fixed_masks`, which replaces the menu check
    there.  Only the reasons of these added checks are flagged from the
    records, so each violation counts once.  Only the record rows and the
    rank-1 and rank-2 rows, whose checks read the absolute set, are masked
    by the point kernel; every other row is counted by the line kernel, and
    the record rows by both, a mismatch flagged on the record.  Each kernel
    is built on the first batch that needs it; both budgets are checked
    before the first batch is pulled from `batches`, so a streamed source
    draws no row past them.  No sweep lists the points of a line."""
    _kernel_plan(space.tower, space.n_points)
    _line_plan(space.tower)
    for e, w, ranks in batches:
        k = min(records, len(e))    # the batch's record rows
        records -= k
        masked, lined = ranks < 3, ranks == 3
        masked[:k] = lined[:k] = True    # so em holds the record rows first
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
        checks = list(_degenerate_verdicts(space, em, mask, _rows(ranks, masked)))
        booked = {r for _, verdicts in checks for r in verdicts.flags}
        for rec, own in zip(form_records(space, e[:k], mask[:k], ranks[:k], checks),
                            line[:k].tolist()):
            if rec["absolute"] != own:
                rec["violations"].append(_LINE_REASON)
            summary.records.append(rec)
            for v in rec["violations"]:
                if v not in booked:
                    summary.flag([rec["matrix"]], v)
        if menu is not None:
            summary.flag(e[k:][(ranks[k:] == 3) & ~np.isin(counts[k:], menu)], reason)
        for rows, verdicts in checks:
            summary.book(em[rows], verdicts, _rows(w, masked)[rows])
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
    # uinv by columns: a row operation R turns U into R U and uinv into
    # uinv R^-1, so a row swap swaps the same columns of uinv, and row_i -=
    # f row_t adds f times column i of uinv to its column t
    cols = [row[:] for row in u]
    d = [0] * s
    for t in range(min(s, c)):
        while True:
            # the first entry of least absolute value, row by row
            best = 0
            for i in range(t, s):
                for j in range(t, c):
                    x = abs(a[i][j])
                    if x and (not best or x < best):
                        best, bi, bj = x, i, j
                if best == 1:
                    break
            if not best:
                return d, u, [list(row) for row in zip(*cols)]
            i, j = bi, bj
            a[t], a[i] = a[i], a[t]
            u[t], u[i] = u[i], u[t]
            cols[t], cols[i] = cols[i], cols[t]
            if j != t:
                for row in a:
                    row[t], row[j] = row[j], row[t]
            piv, done = a[t][t], True
            # (f = 0 leaves every matrix as it is)
            for i in range(t + 1, s):
                f = a[i][t] // piv
                if f:
                    a[i] = [x - f * y for x, y in zip(a[i], a[t])]
                    u[i] = [x - f * y for x, y in zip(u[i], u[t])]
                    cols[t] = [x + f * y for x, y in zip(cols[t], cols[i])]
                done &= a[i][t] == 0
            for j in range(t + 1, c):
                f = a[t][j] // piv
                if f:
                    for row in a:
                        row[j] -= f * row[t]
                done &= a[t][j] == 0
            if done:
                break
        d[t] = a[t][t]
    return d, u, [list(row) for row in zip(*cols)]


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
    with radix above 1 vary; `radix` holds theirs, the largest leading, and
    the orbit of index y, read as digits in that mixed radix, has the log
    coordinates `uinv` y mod N.  `perms` holds, for each pi in Stab_S3(S)
    (the identity first), the integer matrix M_pi = U Pi U^-1 on those
    coordinates (Pi the permutation of the entries of S), row a reduced mod
    radix[a], and `frobenius` the multipliers p^j mod N, so that h = (pi, j)
    maps y to p^j M_pi y mod radix.  `weight` is the torus weight times
    |S3 x Gal| = 6en."""
    positions: tuple
    uinv: np.ndarray
    radix: tuple
    perms: np.ndarray
    frobenius: tuple
    weight: int
    units: int
    count: int


def _sieve(group: list, plan: _SievePlan):
    """Yield (owner, y, fixed), block by block in index order, of the
    canonical orbits of the supports `group`, all of the radix of `plan`:
    the indices y of support group[owner] that are <= the index of each
    image under its H, as (K, k) digit rows in (owner, index) order, and
    the number of elements of H fixing each.

    The digits split into a high part, which holds the leading digit
    y_0, and a low part, as `plan` (the `_sieve_plan` of the radix) lays
    out.  The products M_pi y of each part are taken once per block (high)
    or per group (low), so that digit a of the image of y under (pi, j) is
    f[a, j, A + B], A and B the two parts' digit a mod radix[a] and f[a, j,
    x] = p^j x mod radix[a].  With mu(x) the least of f[0, j, x] over j, an
    index whose leading image digit under some pi has mu below y_0 is not
    canonical; one table per pi, of packed bits over (A_0, y_0, low part),
    marks the low parts that pass, and ANDing the rows of a block over the
    pi of each support sieves every index of every support of the group at
    once.  Only the survivors are compared in full, and only with the h of
    their own support whose leading image digit ties y_0, one digit at a
    time, each step keeping the ties; the h that tie to the last digit fix
    y.  Each support's pi are padded to the group's most with copies of its
    identity, which change no AND and whose ties are dropped."""
    r, high, f = plan.radix, plan.high, plan.f
    r0, n_sup = group[0].radix[0], len(group)
    n_pi = max(len(sup.perms) for sup in group)
    pad = np.stack([np.concatenate([sup.perms, sup.perms[:1].repeat(
        n_pi - len(sup.perms), axis=0)]) for sup in group], axis=1)
    # real[pi, k]: whether pi is one of support k's own, not a copy
    real = np.arange(n_pi)[:, None] < [len(sup.perms) for sup in group]
    # (digit, (pi, support), part) layout, so that each digit's terms are
    # one array, and its leading terms of one pi are one row over
    # (support, part)
    perms = pad.reshape(-1, *pad.shape[2:]).transpose(1, 0, 2)
    b = (perms[:, :, high:] @ plan.ylow % r).astype(f.dtype)
    size, v = b.shape[2], np.arange(r0)
    table = np.packbits(plan.mu[v[:, None] + b[0][:, None]][:, :, None]
                        >= v[:, None], axis=-1)
    pis = np.arange(n_pi * n_sup)[:, None]
    for yhigh, ident in plan.blocks:
        n_high = len(yhigh[0])
        a = (perms[:, :, :high] @ yhigh % r).astype(f.dtype)
        alive = np.bitwise_and.reduce(
            table[pis, a[0], yhigh[0]].reshape(n_pi, n_sup * n_high, -1), axis=0)
        # cell = owner n_high + hi, and low = owner size + lo, index the
        # (support, part) rows of the leading terms
        cell, lo = np.nonzero(np.unpackbits(alive, axis=1, count=size))
        owner, hi = np.divmod(cell, n_high)
        low = owner * size
        low += lo
        y = np.concatenate([yhigh.take(hi, axis=1), plan.ylow.take(lo, axis=1)])
        # the elements (pi, j) of its own support whose leading image digit
        # ties y_0 (x - r0 wraps around when x < r0); for the identity, the
        # ties of the high part on all its digits
        x = (a[0].reshape(n_pi, -1).take(cell, axis=1)
             + b[0].reshape(n_pi, -1).take(low, axis=1))
        tie = np.minimum(x, x - r0) == plan.g.take(y[0], axis=1)[:, None]
        tie[:, 0] = ident.take(hi, axis=1)
        tie &= real.take(owner, axis=1)
        jx, ib, row = np.nonzero(tie)
        # flat positions of each tie's terms in f[d], a[d] and b[d], from
        # (j, pi, row) in place: these arrays set the block's peak memory
        ia = ib * (n_sup * n_high) + cell[row]
        ib *= n_sup * size
        ib += low[row]
        jx *= f.shape[2]
        keep = np.ones(len(hi), dtype=bool)
        for d in range(1, len(r)):
            img = f[d].take(jx + a[d].take(ia) + b[d].take(ib))
            own = y[d].take(row)
            keep[row[img < own]] = False
            same = np.nonzero(img == own)[0]
            row, ia, ib, jx = row[same], ia[same], ib[same], jx[same]
        fixed = 1 + np.bincount(row, minlength=len(hi))
        yield owner[keep], y[:, keep].T, fixed[keep]


@dataclass(frozen=True)
class _SievePlan:
    """What the sieve of every support of one radix shares, for one Gal: the
    radix as a (k, 1, 1) column; the digit split, with `high` digits in the
    high part; f[a, j, x] = p^j x mod radix[a] for x < 2 radix[0], so that a
    sum of two reduced digits needs no reduction; g[j, v], the x < radix[0]
    with f[0, j, x] = v; mu[x], the least f[0, j, x] over j; `ylow`, the
    digits of every low part; and `blocks`, the high parts block by block as
    (yhigh, ident).  Frobenius alone acts digit by digit, so a high part's
    own images are compared on its digits here: a high part that one maps
    lower is left out, and ident[j] marks those that p^j fixes, j = 0 left
    out."""
    radix: np.ndarray
    high: int
    f: np.ndarray
    g: np.ndarray
    mu: np.ndarray
    ylow: np.ndarray
    blocks: tuple


def _sieve_plan(frobenius: tuple, radix: tuple) -> _SievePlan:
    """The `_SievePlan` of `radix` under the Frobenius multipliers
    `frobenius`.  Trailing digits join the low part while the tables of
    the sieve, radix[0]^2 bits per low part, stay within an eighth of the
    high parts; a block holds as many high parts as keep its tie table,
    up to 6 en bytes per index, within _SIEVE_BLOCK."""
    r = np.array(radix)
    k, r0, n_j = len(radix), radix[0], len(frobenius)
    count = math.prod(radix)
    low, size = 0, 1
    while low < k - 1 and count // (size * radix[-1 - low]) >= 8 * r0 ** 2:
        size *= radix[-1 - low]
        low += 1
    high = k - low
    f = (np.array(frobenius)[:, None] * np.arange(2 * r0)
         % r[:, None, None]).astype(np.min_scalar_type(2 * r0))
    place = np.array([math.prod(radix[d + 1:high]) for d in range(high)])
    idx = np.arange(count // size)
    yhigh = _digits(idx, r[:high])
    # code[j, i]: the index of the image of high part i under p^j
    code = place @ f[np.arange(high)[:, None], :, yhigh].transpose(2, 0, 1)
    pre = np.nonzero((code >= idx).all(axis=0))[0]
    ident = code[:, pre] == pre
    ident[0] = False
    rows = max(1, _SIEVE_BLOCK // (size * len(_PERM_POS) * n_j))
    yhigh = yhigh[:, pre].astype(f.dtype)
    blocks = tuple((yhigh[:, s:s + rows], ident[:, s:s + rows])
                   for s in range(0, len(pre), rows))
    return _SievePlan(r[:, None, None], high, f, f[0, -np.arange(n_j) % n_j],
                      f[0].min(axis=0),
                      _digits(np.arange(size), r[high:]).astype(f.dtype), blocks)


def _digits(idx: np.ndarray, radix: np.ndarray) -> np.ndarray:
    """(len(radix), len(idx)) digits of `idx` in the mixed radix `radix`,
    the most significant first."""
    out = np.empty((len(radix), len(idx)), dtype=np.int64)
    for a in range(len(radix) - 1, -1, -1):
        idx, out[a] = np.divmod(idx, radix[a])
    return out


# the bit sets of the six transversals, the supports of the permutation
# matrices
_TRANSVERSALS = tuple(sum(1 << 3 * i + pi[i] for i in range(3))
                      for pi in itertools.permutations(range(3)))


def _support_ranks(bits: int) -> tuple:
    """The ranks a matrix on the support `bits` may have.  det A is the
    signed sum, over the transversals inside the support, of their entry
    products: with none every matrix on it is singular, with exactly one
    every one is invertible (a product of nonzero entries)."""
    inside = sum(bits & t == t for t in _TRANSVERSALS)
    return (1, 2) if not inside else (3,) if inside == 1 else (1, 2, 3)


def _orbit_supports(tower: FieldTower, keep) -> list:
    """One `_OrbitSupport` per S3-orbit of the 511 supports (103 of them),
    the one whose bit set is least, among those on which `keep`, a function
    from ranks to a keep mask, passes a rank that the support may hold
    (`_support_ranks`); the others are left out before their torus action
    is diagonalised."""
    n_units = tower.order - 1
    frobenius = tuple(tower.p ** j % n_units for j in range(tower.e * tower.n))
    # the bit set of each support's image under each permutation
    member = np.arange(1 << 9)[:, None] >> np.arange(9) & 1
    permuted = (member[:, _PERM_POS] << np.arange(9)).sum(axis=2).tolist()
    wanted = set(np.nonzero(keep(np.arange(4)))[0].tolist())    # ranks kept
    out = []
    for bits in range(1, 1 << 9):
        images = permuted[bits]
        if min(images) != bits or wanted.isdisjoint(_support_ranks(bits)):
            continue
        positions = tuple(k for k in range(9) if bits >> k & 1)
        sup = _torus_support(tower, positions)
        # the coordinates with radix above 1 (one of radix 1 if none), the
        # largest radix leading
        free = sorted((k for k, r in enumerate(sup.radices) if r > 1),
                      key=lambda k: -sup.radices[k]) or [0]
        radix = tuple(sup.radices[k] for k in free)
        column = {k: a for a, k in enumerate(positions)}
        u, uinv = sup.u[free], sup.uinv[:, free]
        # Pi U^-1 is U^-1 with its rows permuted; the identity comes first
        perms = u @ uinv[[[column[pos[k]] for k in positions]
                          for pos, image in zip(_PERM_POS, images) if image == bits]]
        out.append(_OrbitSupport(
            positions, uinv, radix, perms % np.array(radix)[:, None],
            frobenius, sup.weight * len(_PERM_POS) * len(frobenius), n_units,
            sup.count))
    return out


def _sieved(supports: list):
    """Yield (sup, pieces) for each of `supports`, in order: the (y, fixed)
    pieces of `_sieve` on its canonical orbits, in index order.  The
    supports whose indices fit one block of their plan are sieved with the
    others of their radix, as many in one pass as their high parts fill a
    block, when the first of them comes up, and their rows are held until
    their turn; a larger support streams alone, block by block.  Supports
    of one radix share a plan."""
    plan = functools.cache(_sieve_plan)
    small = {}
    for sup in supports:
        if len(plan(sup.frobenius, sup.radix).blocks) == 1:
            small.setdefault(sup.radix, []).append(sup)
    passes = {}     # positions -> the pass of a small support
    for radix, sups in small.items():
        p = plan(sups[0].frobenius, radix)
        # a block holds this many supports' high parts
        room = _SIEVE_BLOCK // (len(_PERM_POS) * len(p.g) * p.blocks[0][0].shape[1]
                                * p.ylow.shape[1])
        for start in range(0, len(sups), room):
            passes.update((sup.positions, sups[start:start + room])
                          for sup in sups[start:start + room])
    held = {}
    for sup in supports:
        group = passes.get(sup.positions)
        if group is None:
            yield sup, ((y, fixed) for _, y, fixed in
                        _sieve([sup], plan(sup.frobenius, sup.radix)))
            continue
        if sup.positions not in held:
            # the first support of its pass: sieve the pass
            held.update((other.positions, []) for other in group)
            for owner, y, fixed in _sieve(group, plan(sup.frobenius, sup.radix)):
                cut = np.searchsorted(owner, np.arange(1, len(group)))
                for other, part in zip(group, zip(np.split(y, cut), np.split(fixed, cut))):
                    held[other.positions].append(part)
        yield sup, held.pop(sup.positions)


def _orbit_representatives(tower: FieldTower, supports: list, chunk: int):
    """Yield (e, w): (K, 9) entries of the canonical orbits of G = S3 x Gal
    x torus on `supports`, K <= `chunk`, filled across supports in their
    order, and their int64 weights in scalar classes, the support's weight
    over the order of the stabiliser in H.  Each support is sieved
    (`_sieved`), and only the canonical rows get log coordinates and
    entries.  By orbit-stabiliser, the orbits kept on a support cover its
    `count` indices, sum |H| / fixed; a support whose sum differs raises
    RuntimeError."""
    def pieces():
        for sup, sieved in _sieved(supports):
            order, covered = len(sup.perms) * len(sup.frobenius), 0
            # the log coordinates uinv y are formed in float64, through BLAS
            # rather than numpy's integer matmul; they are exact, each of the
            # at most 9 terms of a row being a digit times an entry below Q
            # (under Q^2), far below 2^53
            uinv = sup.uinv.T.astype(np.float64)
            for y, fixed in sieved:
                covered += int((order // fixed).sum())
                e = np.zeros((len(y), 9), dtype=np.uint32)
                e[:, sup.positions] = tower._exp[(y @ uinv).astype(np.int64)
                                                 % sup.units]
                yield e, sup.weight // fixed
            if covered != sup.count:
                raise RuntimeError(
                    f"orbit scan of support {sup.positions}: the kept orbits "
                    f"cover {covered} indices, not {sup.count}")
    return _rebatch(pieces(), chunk)


def _rebatch(pieces, chunk: int):
    """Regroup pieces, tuples of equal-length arrays ((e, w) or (e, w,
    ranks)), into batches of `chunk` rows, the last fewer."""
    buf, size = [], 0
    for piece in pieces:
        while len(piece[0]):
            take = min(chunk - size, len(piece[0]))
            buf.append(tuple(a[:take] for a in piece))
            piece, size = tuple(a[take:] for a in piece), size + take
            if size == chunk:
                yield _join(buf)
                buf, size = [], 0
    if buf:
        yield _join(buf)


def _join(pieces: list) -> tuple:
    return tuple(np.concatenate(arrays) for arrays in zip(*pieces))


def _orbit_batches(tower: FieldTower, what: str, chunk: int, keep):
    """The source of both exhaustive 3x3 sweeps: (e, w, ranks) batches of
    one representative per orbit of G = S3 x Gal x torus on the nonzero
    matrices whose ranks pass `keep`, a function from a batch's ranks to
    its keep mask, their weights and their ranks.  Only the supports that
    may hold such a rank are visited (`_orbit_supports`), and `_ranked`
    filters the rows of those that may also hold others.  The budget is
    checked on the torus indices of the visited supports when this is
    called, before any table of the sieve is built."""
    supports = _orbit_supports(tower, keep)
    _check_exhaustive_cap(sum(sup.count for sup in supports), what)
    return _ranked(tower, _orbit_representatives(tower, supports, chunk), keep)


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
    S3 x Gal x torus (`_orbit_batches`) on the supports with a transversal,
    the only ones that hold invertible matrices, keeps the representatives
    of rank 3, counts their absolute points through the count kernel and
    adds each representative's weight, the number of scalar classes in its
    orbit, to the histogram; every scalar class of GL(3, q^n) is counted
    exactly once.  A violation names the failing representative.  The
    budget counts the torus indices of those supports (13,369,215 at Q =
    16); `max_violations` bounds the violations kept, not those counted.
    """
    return _sweep(_summary(tower, "exhaustive-gl", max_violations),
                  projective_space(tower, 2),
                  _orbit_batches(tower, "exhaustive census", _GL_CHUNK,
                                 lambda r: r == 3),
                  _admissible(tower, False))


def diagonal_census(tower: FieldTower,
                    max_violations: int | None = None) -> CensusSummary:
    """Absolute counts over invertible diagonal matrices up to scalars,
    diag(1, a, b) in the order of (a, b), one piece per a, in batches of
    `_kernel_rows`."""
    Q = tower.order
    space = projective_space(tower, 2)

    def pieces():
        for a in range(1, Q):
            e = np.zeros((Q - 1, 9), dtype=np.uint32)
            e[:, 0], e[:, 4], e[:, 8] = 1, a, np.arange(1, Q)
            yield e, np.ones(Q - 1, dtype=np.int64), np.full(Q - 1, 3)
    return _sweep(_summary(tower, "diagonal", max_violations), space,
                  _rebatch(pieces(), _kernel_rows(space)),
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
    counts; these equal those of the full scalar-class sweep.  It skips the
    supports with exactly one transversal, which hold only invertible
    matrices.  A violation names the failing representative.  The budget
    counts the torus indices of the supports it visits (13,354,738 at Q =
    16); `max_violations` bounds the violations kept, not those counted.
    """
    return _sweep(_summary(tower, "exhaustive-rank-le2", max_violations),
                  projective_space(tower, 2),
                  _orbit_batches(tower, "rank<=2 sweep", _ENUM_CHUNK,
                                 lambda r: r < 3))


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
    F_q-subline (`line_verdicts`, each subline verified by its
    cross-ratios)."""
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
    cone layout, each over all invertible blocks up to scalars, enumerated
    in batches of `_kernel_rows`."""
    space = projective_space(tower, 2)

    def layouts():
        for layout in _NORMAL_LAYOUTS:
            for blk in _enumerate_scalar_classes(tower.order, 4, _kernel_rows(space)):
                e = np.zeros((len(blk), 9), dtype=np.uint32)
                e[:, layout] = blk
                yield e, np.ones(len(e), dtype=np.int64)
    return _sweep(_summary(tower, "rank2-normal"), space,
                  _ranked(tower, layouts(), lambda r: r == 2))


def rank2_random_census(tower: FieldTower, count: int, seed: int) -> CensusSummary:
    """Full verification of `count` sampled rank-2 matrices in general
    position (deterministic rejection sampling).  `seed` is in 0..2^64-1."""
    _check_seed(seed)
    space = projective_space(tower, 2)
    return _sweep(_summary(tower, f"rank2-random(seed={seed}, count={count})"),
                  space, _rebatch(_samples(tower, count, seed, lambda r: r == 2),
                                  _kernel_rows(space)))


# -- random censuses --------------------------------------------------------------

def random_census(tower: FieldTower, count: int, seed: int,
                  invertible_only: bool = True, records: int = 0,
                  max_violations: int | None = None) -> CensusSummary:
    """Sampled census: histogram the absolute counts of `count` sampled
    matrices, invertible ones with `invertible_only` (checked against the
    menu) or any nonzero ones (rank 1 and 2 rows take their per-kind checks,
    rank-3 rows no menu check).  The first `records` samples also get a
    full record (`form_records`), from the sweep's masks and checks.  It
    adds the line spectrum and, on rank-3 rows, the Kestenband profile
    (the menu, the stricter diagonal one or the odd-degree epsilon form),
    which takes the place of the menu check there; the summary does not
    depend on `records`, and each violation counts once.  `max_violations`
    bounds the violations kept, not those counted; `seed` is in
    0..2^64-1."""
    _check_seed(seed)
    space = projective_space(tower, 2)
    keep = (lambda r: r == 3) if invertible_only else (lambda r: r > 0)
    return _sweep(_summary(tower, f"random(seed={seed}, count={count})",
                           max_violations),
                  space, _rebatch(_samples(tower, count, seed, keep),
                                  _kernel_rows(space)),
                  _admissible(tower, False) if invertible_only else None,
                  records=records)


def _line_spectra(space: ProjectiveSpace, e: np.ndarray) -> np.ndarray:
    """(K, Q+2) line spectra of K nonzero forms of the plane with (K, 9)
    entries: freq[k, v] lines meet the absolute set of form k in v points.
    Every line but l0 = {z = 0} meets l0 in one point P, so the lines
    through the Q+1 points of l0 cover every line once and l0 itself Q+1
    times.  For each P take g_P with g_P R = P, R = (0,0,1): g_P = [e3 | e2
    | P] at P = (1, y, 0), g_P = [e1 | e3 | e2] at P = (0, 1, 0).  Then
    Gamma(A_P) = g_P^-1 Gamma(A) for A_P = g_P^T A g_P^sigma, and the
    `LineKernel.line_counts` of A_P are the sizes |Gamma(A) cap l| of the
    Q+1 lines l through P.  With s = sigma,

        A_P = [[a22, a21, a20 + a21 y^s],
               [a12, a11, a10 + a11 y^s],
               [a02 + y a12, a01 + y a11, a00 + a01 y^s + y (a10 + a11 y^s)]];

    at P = (1, 0, 0) the l_inf column, span(g_P e2, P), is l0.  The
    (Q+1)^2 counts of a row are histogrammed, less Q in the bin of l0's,
    in blocks of about 2^16 counts, each within one kernel block.  A block
    holds about 30 bytes a count (its intp bincount keys and the kernel's
    buffers), 2 MiB, below a sweep's other transients; blocks of 2^18
    counts would hold 8 MiB, to save about 10% at Q = 125."""
    t, Q = space.tower, space.tower.order
    kern = line_kernel(space)
    y = np.arange(Q, dtype=np.uint32)
    ys = t.vsigma(y)
    freq = np.zeros((len(e), Q + 2), dtype=np.int64)
    per = max(1, (1 << 16) // (Q + 1) ** 2)
    for k in range(0, len(e), per):
        a = e[k:k + per]
        a_p = np.empty((len(a), Q + 1, 9), dtype=np.uint32)
        # at P = (0, 1, 0), A_P is A with its indices 1 and 2 swapped
        a_p[:, Q] = a[:, [0, 2, 1, 6, 8, 7, 3, 5, 4]]
        a00, a01, a02, a10, a11, a12, a20, a21, _ = a.T[:, :, None]
        a_p[:, :Q, [0, 1, 3, 4]] = a[:, None, [8, 7, 5, 4]]    # a22, a21, a12, a11
        a_p[:, :Q, 2] = t.vadd(a20, t.vmul(a21, ys))
        a_p[:, :Q, 5] = c = t.vadd(a10, t.vmul(a11, ys))
        a_p[:, :Q, 6] = t.vadd(a02, t.vmul(y, a12))
        a_p[:, :Q, 7] = t.vadd(a01, t.vmul(y, a11))
        a_p[:, :Q, 8] = t.vadd(t.vadd(a00, t.vmul(a01, ys)), t.vmul(y, c))
        block = freq[k:k + per]
        for start, counts in kern.line_counts(a_p.reshape(-1, 9)):
            form, point = np.divmod(np.arange(start, start + len(counts)), Q + 1)
            cells = counts + (Q + 2) * form[:, None]
            block += np.bincount(cells.ravel(), minlength=block.size).reshape(block.shape)
            first = point == 0
            block[form[first], counts[first, Q]] -= Q
    return freq


def form_record(form: SesquiForm, mask: np.ndarray | None = None) -> dict:
    """One census record: `form_records` at K = 1, with the form's rank and
    per-kind check.  `mask` stands in for the form's absolute mask
    (`absolute_mask` of the form without it), so that a test can hand the
    record a planted set and see the checks flag it."""
    if form.d != 2:
        raise ValueError("expected a form on the projective plane")
    space = form.space()
    e = form.entries[None]
    mask = (absolute_mask(form) if mask is None else mask)[None]
    ranks = vranks(space.tower, e.reshape(-1, 3, 3))
    if not ranks.all():
        raise ValueError("the zero form is absolute everywhere and is not classified")
    checks = list(_degenerate_verdicts(space, e, mask, ranks))
    return form_records(space, e, mask, ranks, checks)[0]


def form_records(space: ProjectiveSpace, e: np.ndarray, mask: np.ndarray,
                 ranks: np.ndarray, checks: list) -> list:
    """The census records of K nonzero forms of the plane with (K, 9)
    entries, absolute masks (K, N) and `ranks`: rank, kind, cardinality,
    line spectrum and either the Kestenband profile (rank 3,
    `kestenband_profiles`) or the reasons of the per-kind check.  `checks`
    are the (rows, verdicts) of `_degenerate_verdicts` over rows whose
    first K are these, rows ascending, so that the records' rows come
    first; the first kind counter set on a row names its kind.  At n > 1
    the profiles of the rank-3 rows read the fixed points of their
    collineations, from `forms.fixed_masks` at O(Q) work a row.
    The records add the spectrum and the profile; they run no check of
    their own on rank-1 and rank-2 rows.  The spectra come from the line
    kernel, not the masks (`_line_spectra`)."""
    if not len(e):
        return []
    t = space.tower
    Q = t.order
    freq = _line_spectra(space, e)
    illegal = np.ones(Q + 2, dtype=bool)
    illegal[[0, 1, 2, t.q + 1, Q + 1]] = False
    # the spectrum of row k: lines[ends[k]:ends[k + 1]] lines meet its
    # absolute set in values[ends[k]:ends[k + 1]] points
    row, values = np.nonzero(freq)
    ends = np.searchsorted(row, np.arange(len(e) + 1)).tolist()
    lines, values = freq[row, values].tolist(), values.tolist()
    outside = freq[:, illegal].any(axis=1).tolist()
    # a line in Gamma(A) restricts A to a 2x2 form with all Q+1 points
    # absolute, which for n >= 2 (Q+1 > q+1) is zero, impossible for
    # invertible A; at n = 1 sigma is the identity and x^T A x a
    # quadratic form, which may contain a line
    line_in = ((freq[:, Q + 1] != 0) & (ranks == 3) & (t.n > 1)).tolist()
    recs = []
    for k, (matrix, rank, absolute) in enumerate(zip(
            e.tolist(), ranks.tolist(), np.count_nonzero(mask, axis=1).tolist())):
        at = slice(ends[k], ends[k + 1])
        recs.append({
            "matrix": matrix,
            "rank": rank,
            "kind": KIND_KESTENBAND,
            "absolute": absolute,
            "family": None,
            "epsilon": None,
            "fixed_in": None,
            "fixed_out": None,
            "spectrum": dict(zip(values[at], lines[at])),
            "violations": [],
        })
        if outside[k]:
            recs[k]["violations"].append(
                f"line intersections {[v for v in values[at] if illegal[v]]} "
                "outside {0, 1, 2, q+1, full}")
        if line_in[k]:
            recs[k]["violations"].append("an invertible form may not contain a line")
    full = np.nonzero(ranks == 3)[0]
    if t.n > 1 and len(full):
        prof = kestenband_profiles(space, e[full], mask[full],
                                   fixed_masks(space, e[full]))
        for j, k in enumerate(full):
            recs[k].update(family=prof.family[j], epsilon=prof.epsilon[j],
                           fixed_in=int(prof.fixed_in[j]),
                           fixed_out=int(prof.fixed_out[j]))
            recs[k]["violations"].extend(prof.violations[j])
    for rows, verdicts in checks:
        for j, k in enumerate(rows[rows < len(e)].tolist()):
            recs[k]["kind"] = next(kind for kind, on in verdicts.kinds.items() if on[j])
            recs[k]["violations"].extend(r for r, bad in verdicts.flags.items() if bad[j])
    return recs
