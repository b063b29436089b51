"""The field arithmetic against an independent oracle: sympy's dense
polynomial arithmetic over F_p, reduced modulo the tower's modulus."""

import numpy as np
import pytest

pytest.importorskip("sympy")

from sympy.polys.domains import ZZ  # noqa: E402
from sympy.polys.galoistools import (gf_add, gf_irreducible_p,  # noqa: E402
                                     gf_mul, gf_neg, gf_pow_mod, gf_rem,
                                     gf_strip, gf_sub)

from sigmaconics.fields import build_field  # noqa: E402

TOWERS = [build_field(p, e, n, 1) for p, e, n in ((3, 1, 3), (2, 2, 3), (3, 2, 2))]


def tower_id(t):
    return f"p{t.p}e{t.e}n{t.n}"


def to_gf(t, x):
    """Element encoding -> sympy dense polynomial, high degree first."""
    return gf_strip([ZZ(c) for c in reversed(t.coeffs(x))])


def from_gf(t, poly):
    return sum(int(c) * t.p ** i for i, c in enumerate(reversed(poly)))


def modulus(t):
    return [ZZ(c) for c in reversed(t.modulus)]


@pytest.mark.parametrize("t", TOWERS, ids=tower_id)
def test_modulus_is_monic_irreducible(t):
    mod = modulus(t)
    assert len(mod) == t.degree + 1 and mod[0] == 1
    assert gf_irreducible_p(mod, t.p, ZZ)


@pytest.mark.parametrize("t", TOWERS, ids=tower_id)
def test_mul_matches_oracle(t):
    mod = modulus(t)
    polys = [to_gf(t, x) for x in t.elements()]
    expect = np.array([[from_gf(t, gf_rem(gf_mul(a, b, t.p, ZZ), mod, t.p, ZZ))
                        for b in polys] for a in polys], dtype=np.int64)
    els = np.arange(t.order, dtype=np.uint32)
    assert np.array_equal(t.vmul(els[:, None], els[None, :]), expect)
    assert all(t.mul(a, b) == expect[a, b]
               for a in t.elements() for b in t.elements())


@pytest.mark.parametrize("t", TOWERS, ids=tower_id)
def test_add_sub_neg_match_oracle(t):
    """vadd, vsub and vneg over all pairs against sympy's coefficient-wise
    arithmetic mod p."""
    polys = [to_gf(t, x) for x in t.elements()]
    add = np.array([[from_gf(t, gf_add(a, b, t.p, ZZ)) for b in polys]
                    for a in polys], dtype=np.int64)
    sub = np.array([[from_gf(t, gf_sub(a, b, t.p, ZZ)) for b in polys]
                    for a in polys], dtype=np.int64)
    neg = np.array([from_gf(t, gf_neg(a, t.p, ZZ)) for a in polys], dtype=np.int64)
    els = np.arange(t.order, dtype=np.uint32)
    assert np.array_equal(t.vadd(els[:, None], els[None, :]), add)
    assert np.array_equal(t.vsub(els[:, None], els[None, :]), sub)
    assert np.array_equal(t.vneg(els), neg)


@pytest.mark.parametrize("t", TOWERS, ids=tower_id)
def test_pow_frobenius_and_norm_match_oracle(t):
    mod = modulus(t)

    def power(x, k):
        return from_gf(t, gf_pow_mod(to_gf(t, x), k, mod, t.p, ZZ))

    norm_exp = (t.order - 1) // (t.q - 1)
    for x in t.elements():
        for k in (2, 5, t.order - 2):
            assert t.pow(x, k) == power(x, k)
        for j in range(1, t.n):
            assert t.frobq(x, j) == power(x, t.q ** j)
        assert t.norm(x) == power(x, norm_exp)
