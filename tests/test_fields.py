import math
import os
import subprocess
import sys

import numpy as np
import pytest

import sigmaconics
from sigmaconics import fields, projective
from sigmaconics.fields import CapExceeded, FieldTower, build_field


def brute_least_irreducible(p, d):
    """Oracle: trial division by every monic factor of lower degree."""
    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
        return out

    def divides(f, g):
        g = list(g)
        while len(g) >= len(f) and any(g):
            if g[-1] == 0:
                g.pop()
                continue
            c = g[-1] * pow(f[-1], p - 2, p) % p
            for k in range(len(f)):
                g[len(g) - len(f) + k] = (g[len(g) - len(f) + k] - c * f[k]) % p
            while g and g[-1] == 0:
                g.pop()
        return not any(g)

    def monic_polys(deg):
        for k in range(p ** deg):
            yield [(k // p ** i) % p for i in range(deg)] + [1]

    for k in range(p ** d):
        f = [(k // p ** i) % p for i in range(d)] + [1]
        if all(not divides(g, f)
               for deg in range(1, d // 2 + 1) for g in monic_polys(deg)):
            return tuple(f)
    raise AssertionError


def test_modulus_f4_unique_quadratic():
    assert build_field(2, 1, 2, 1).modulus == (1, 1, 1)


def test_modulus_matches_enumeration_oracle():
    assert build_field(3, 1, 3, 1).modulus == brute_least_irreducible(3, 3)
    assert build_field(2, 1, 3, 1).modulus == brute_least_irreducible(2, 3)
    assert build_field(2, 1, 5, 1).modulus == brute_least_irreducible(2, 5)


def test_build_field_validation():
    with pytest.raises(ValueError):
        build_field(4, 1, 2, 1)          # not prime
    with pytest.raises(ValueError):
        build_field(2, 1, 4, 2)          # gcd(m, n) = 2
    build_field(2, 1, 3, 2)              # gcd(2, 3) = 1 accepted


def test_order_cap_raises_cap_exceeded():
    """2^21 is the first order of characteristic 2 past the 2^20 cap; like
    every resource cap it raises the one CapExceeded class."""
    with pytest.raises(CapExceeded, match="field order 2097152 exceeds the order cap"):
        build_field(2, 1, 21, 1)
    assert projective.CapExceeded is sigmaconics.CapExceeded is CapExceeded


def test_f4_arithmetic_by_hand():
    t = build_field(2, 1, 2, 1)
    alpha = 2
    assert t.mul(alpha, alpha) == 3      # alpha^2 = alpha + 1
    assert t.inv(alpha) == 3             # alpha * (alpha + 1) = 1
    assert t.mul(alpha, 1) == alpha
    assert t.add(alpha, alpha) == 0
    with pytest.raises(ZeroDivisionError):
        t.inv(0)


def test_field_axioms_exhaustive_f8():
    t = build_field(2, 1, 3, 1)
    for x in t.elements():
        assert t.mul(x, 1) == x and t.add(x, 0) == x
        if x:
            assert t.mul(x, t.inv(x)) == 1
        for y in t.elements():
            assert t.mul(x, y) == t.mul(y, x)
            assert t.add(x, y) == t.add(y, x)
    # associativity and distributivity on a slice
    for x in t.elements():
        for y in t.elements():
            for z in (0, 1, 5):
                assert t.mul(x, t.mul(y, z)) == t.mul(t.mul(x, y), z)
                assert t.mul(x, t.add(y, z)) == t.add(t.mul(x, y), t.mul(x, z))


def test_pow_matches_repeated_multiplication():
    t = build_field(3, 1, 2, 1)
    for x in t.units():
        acc = 1
        for k in range(1, 10):
            acc = t.mul(acc, x)
            assert t.pow(x, k) == acc
    assert t.pow(0, 5) == 0 and t.pow(0, 0) == 1


def test_sigma_basics():
    t = build_field(2, 1, 2, 1)
    assert t.sigma(0) == 0 and t.sigma(1) == 1
    assert t.sigma(2) == 3               # alpha -> alpha^2 = alpha + 1


@pytest.mark.parametrize("params", [(2, 1, 3, 1), (3, 1, 3, 1), (2, 1, 3, 2)])
def test_sigma_is_automorphism_of_order_n(params):
    t = build_field(*params)
    for x in t.elements():
        assert t.sigma(x, t.n) == x
        for y in t.elements():
            assert t.sigma(t.mul(x, y)) == t.mul(t.sigma(x), t.sigma(y))
            assert t.sigma(t.add(x, y)) == t.add(t.sigma(x), t.sigma(y))
    for k in range(1, t.n):
        assert any(t.sigma(x, k) != x for x in t.elements())


def test_norm_values_and_fibers():
    t = build_field(2, 1, 2, 1)
    assert t.norm(0) == 0
    assert t.norm(2) == 1                # alpha^3 = 1
    for params in [(2, 1, 3, 1), (3, 1, 3, 1), (3, 1, 2, 1)]:
        t = build_field(*params)
        fiber = (t.order - 1) // (t.q - 1)
        counts = {}
        for x in t.units():
            nx = t.norm(x)
            assert t.in_subfield(nx) and nx != 0
            counts[nx] = counts.get(nx, 0) + 1
        assert set(counts) == {a for a in t.subfield if a}
        assert all(v == fiber for v in counts.values())
        for x in t.elements():
            for y in (1, 2, t.order - 1):
                assert t.norm(t.mul(x, y)) == t.mul(t.norm(x), t.norm(y))


def test_norm_class():
    t4 = build_field(2, 1, 2, 1)
    assert set(t4.norm_class(1)) == {1, 2, 3}
    t27 = build_field(3, 1, 3, 1)
    assert len(t27.norm_class(1)) == 13
    union = set()
    for a in (1, 2):
        union |= set(t27.norm_class(a))
    assert union == set(t27.units())
    with pytest.raises(ValueError):
        t27.norm_class(0)
    with pytest.raises(ValueError):
        t27.norm_class(3)                # alpha is not in F_3


def test_is_square():
    t9 = build_field(3, 1, 2, 1)
    assert t9.is_square(0) and t9.is_square(1)
    squares = {t9.mul(x, x) for x in t9.units()}
    assert len(squares) == 4
    assert all(t9.is_square(x) == (x in squares) for x in t9.units())
    t8 = build_field(2, 1, 3, 1)
    assert all(t8.is_square(x) for x in t8.elements())


def test_is_sigma_norm_value_matches_exhaustion():
    for params in [(2, 1, 2, 1), (2, 1, 3, 1), (3, 1, 2, 1), (3, 1, 3, 1)]:
        t = build_field(*params)
        e = t.q ** t.m + 1
        image = {t.pow(x, e) for x in t.elements()}
        for d in t.elements():
            assert t.is_sigma_norm_value(d) == (d in image)


def test_subfield_recognition():
    for params in [(2, 1, 3, 1), (3, 1, 2, 1), (2, 2, 2, 1), (2, 2, 3, 1)]:
        t = build_field(*params)
        assert len(t.subfield) == t.q
        sub = set(t.subfield)
        for x in sub:
            for y in sub:
                assert t.add(x, y) in sub and t.mul(x, y) in sub


def test_coeffs_roundtrip():
    t = build_field(3, 1, 3, 1)
    for x in t.elements():
        c = t.coeffs(x)
        assert len(c) == 3 and t.encode(c) == x


def test_vector_ops_match_scalar():
    for params in [(2, 1, 3, 2), (3, 1, 2, 1)]:
        t = build_field(*params)
        xs = np.arange(t.order, dtype=np.uint32)
        ys = np.roll(xs, 7)
        vadd = t.vadd(xs, ys)
        vmul = t.vmul(xs, ys)
        vsig = t.vsigma(xs)
        for i in range(t.order):
            assert int(vadd[i]) == t.add(int(xs[i]), int(ys[i]))
            assert int(vmul[i]) == t.mul(int(xs[i]), int(ys[i]))
            assert int(vsig[i]) == t.sigma(int(xs[i]))
        units = xs[1:]
        assert all(int(v) == t.inv(int(x)) for x, v in zip(units, t.vinv(units)))


def test_pow_table():
    t = build_field(3, 1, 2, 1)
    tbl = t.pow_table(5)
    assert all(int(tbl[x]) == t.pow(x, 5) for x in t.elements())


def test_large_field_within_cap():
    t = build_field(2, 1, 5, 2)
    assert t.order == 32
    x = 19
    assert t.mul(x, t.inv(x)) == 1
    assert t.sigma(x, 5) == x


# the peak is the process's VmHWM: unlike ru_maxrss it starts afresh at
# exec, so the size of the forking test process does not leak into it
_TABLE_PEAK = """
import numpy as np
from sigmaconics.fields import build_field
t = build_field(11, 1, 3, 1)
with open("/proc/self/status") as fh:
    print(next(int(line.split()[1]) for line in fh if line.startswith("VmHWM")) // 1024)
rng = np.random.default_rng(5)
for x, y in rng.integers(0, t.order, size=(2000, 2)).tolist():
    if int(t._mul_t[x, y]) != t._raw_mul(x, y):
        raise SystemExit(f"product table wrong at {x}, {y}")
    s = [(a + b) % t.p for a, b in zip(t._pad(x), t._pad(y))]
    if int(t._add_t[x, y]) != t._encode_list(s):
        raise SystemExit(f"sum table wrong at {x}, {y}")
"""


def test_dense_tables_peak_memory():
    """The dense product and sum tables of F_1331 are built without (Q, Q)
    int64 or (Q, Q, d) temporaries: a fresh process peaks below 80 MB (it
    passed 110 MB with them), and sampled entries match the polynomial
    arithmetic."""
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs /proc/self/status for the peak resident size")
    env = dict(os.environ, PYTHONPATH=str(os.path.dirname(os.path.dirname(
        sigmaconics.__file__))), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", _TABLE_PEAK], env=env,
                          capture_output=True, text=True, check=True)
    assert int(proc.stdout) < 80


# -- the flat-key gathers of vmul and vadd ------------------------------------

_GATHER_TOWERS = {"T8": (2, 1, 3, 1), "T27": (3, 1, 3, 1),
                  "T222": (2, 2, 2, 1), "T322": (3, 2, 2, 1)}


@pytest.mark.parametrize("params", list(_GATHER_TOWERS.values()),
                         ids=list(_GATHER_TOWERS))
def test_flat_gathers_match_tables_and_scalars(params):
    """vmul, vadd and vsub over all pairs equal the 2-D table reads and the
    scalar operations."""
    t = build_field(*params)
    els = np.arange(t.order, dtype=np.uint32)
    a, b = els[:, None], els[None, :]
    pairs = [(x, y) for x in t.elements() for y in t.elements()]
    shape = (t.order, t.order)
    prod, total, diff = t.vmul(a, b), t.vadd(a, b), t.vsub(a, b)
    assert np.array_equal(prod, t._mul_t[a, b])
    assert np.array_equal(total, t._add_t[a, b] if t.p > 2 else a ^ b)
    assert np.array_equal(prod, np.reshape([t.mul(x, y) for x, y in pairs], shape))
    assert np.array_equal(total, np.reshape([t.add(x, y) for x, y in pairs], shape))
    assert np.array_equal(diff, np.reshape([t.sub(x, y) for x, y in pairs], shape))


def _layouts(t):
    """(a, b) operand pairs of the layouts the library passes."""
    Q = t.order
    rng = np.random.default_rng(3)
    batch = rng.integers(0, Q, size=(50, 3, 3)).astype(np.uint32)
    col = np.arange(Q, dtype=np.uint32)[:, None]
    row = rng.integers(0, Q, size=(1, 40)).astype(np.uint32)
    return {"outer": (col, row), "scalar-array": (np.uint32(Q - 1), row[0]),
            "0d-0d": (np.asarray(Q - 1, dtype=np.uint32), np.asarray(2, dtype=np.uint32)),
            "int": (Q - 2, row), "int-int": (Q - 2, 3),
            "strided": (batch[:, :, 0], batch[:, :, 2])}


@pytest.mark.parametrize("params", [(2, 1, 3, 1), (3, 1, 3, 1)], ids=["T8", "T27"])
def test_flat_gather_shapes_and_dtype(params):
    """Each layout gives the broadcast shape in uint32, and the cells of
    the 2-D table read: an outer product, a scalar times an array, 0-d
    times 0-d, Python ints and strided columns of a (K, 3, 3) batch."""
    t = build_field(*params)
    ops = [("vmul", t._mul_t)] + ([("vadd", t._add_t)] if t.p > 2 else [])
    for name, (a, b) in _layouts(t).items():
        for op, table in ops:
            got = getattr(t, op)(a, b)
            expect = table[a, b]
            assert np.shape(got) == np.shape(expect), (name, op)
            assert got.dtype == np.uint32, (name, op)
            assert np.array_equal(got, expect), (name, op)


class _KeySpy(np.ndarray):
    """A table view that records the number of keys of each take."""
    keys: list = []

    def take(self, indices, *args, **kwargs):
        _KeySpy.keys.append(np.size(indices))
        return np.asarray(self).take(indices, *args, **kwargs)


@pytest.mark.parametrize("shapes", [((5, 1), (1, 5)), ((20, 1), (1, 20)),
                                    ((1, 20), (20, 1)), ((1, 3, 1), (4, 1, 9)),
                                    ((2, 1, 30), (30,)), ((45,), (45,)), ((3, 5), ())],
                         ids=["small-col-row", "col-row", "row-col", "rows-past-block",
                              "leading-pair", "equal", "scalar"])
def test_broadcast_past_the_key_block(monkeypatch, shapes):
    """With the key block set to 7, a broadcast past it is gathered in
    slices of at most 7 keys into the one uint32 output, equal to the 2-D
    table read.  (5, 1) x (1, 5) has operands of equal size within the
    block, but its broadcast is 25 keys."""
    monkeypatch.setattr(fields, "_KEY_BLOCK", 7)
    t = build_field(3, 1, 3, 1)
    rng = np.random.default_rng(11)
    a, b = (rng.integers(0, t.order, size=s).astype(np.uint32) for s in shapes)
    for name in ("_mul_t", "_add_t"):
        table = getattr(t, name)
        monkeypatch.setattr(t, name, table.view(_KeySpy))
        _KeySpy.keys = []
        got = t.vmul(a, b) if name == "_mul_t" else t.vadd(a, b)
        assert type(got) is np.ndarray and got.dtype == np.uint32
        assert np.array_equal(got, table[a, b])
        assert _KeySpy.keys and max(_KeySpy.keys) <= 7, _KeySpy.keys
        assert sum(_KeySpy.keys) == got.size
