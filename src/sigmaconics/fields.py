"""Arithmetic in the tower F_p < F_q < F_{q^n}, q = p^e.

The big field F_{q^n} is realised as F_p[x]/(modulus) with a deterministic
modulus (the lexicographically least monic irreducible polynomial of degree
e*n over F_p), so element encodings are reproducible across runs.

Elements are plain Python ints: the element with polynomial coordinates
(c_0, c_1, ..., c_{d-1}) is encoded as sum(c_i * p**i).  This encoding is
also the wire format used by the CLI.  Multiplication runs on exp/log
tables for a fixed generator of the multiplicative group; addition is XOR
of encodings in characteristic 2 and digit-wise mod p otherwise.  Small
fields additionally carry dense mul/add tables so that numpy kernels can
evaluate forms over millions of matrices by flat-key gathers.

The distinguished automorphism is sigma: x -> x**(q**m) with gcd(m, n) = 1;
the norm onto F_q is x -> x**((q**n - 1)//(q - 1)).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

MAX_ORDER = 1 << 20  # fields beyond this raise CapExceeded, not silently slow
_MUL_TABLE_MAX = 2048  # dense Q x Q tables only below this order
_SCALAR_LIST_MAX = 65536
# intp keys per table gather of vmul/vadd: a broadcast past it is written
# slice by slice, so no key array grows with the broadcast; at 1 << 16 the
# 512 KiB key slices raised the peak RSS of `classify` at PG(2,151) by 0.7 MB
_KEY_BLOCK = 1 << 15


class CapExceeded(RuntimeError):
    """A computation is beyond one of the stated resource budgets."""


def _is_prime(x: int) -> bool:
    if x < 2:
        return False
    if x < 4:
        return True
    if x % 2 == 0:
        return False
    f = 3
    while f * f <= x:
        if x % f == 0:
            return False
        f += 2
    return True


def _prime_factors(x: int) -> list[int]:
    out = []
    f = 2
    while f * f <= x:
        if x % f == 0:
            out.append(f)
            while x % f == 0:
                x //= f
        f += 1 if f == 2 else 2
    if x > 1:
        out.append(x)
    return out


# -- polynomial helpers over F_p, coefficient lists low degree first --------

def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mulmod(a, b, mod, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    # mod is monic
    dm = len(mod) - 1
    for k in range(len(out) - 1, dm - 1, -1):
        c = out[k]
        if c:
            out[k] = 0
            for j in range(dm):
                out[k - dm + j] = (out[k - dm + j] - c * mod[j]) % p
    return _poly_trim(out)


def _poly_powmod(a, exp, mod, p):
    result = [1]
    base = list(a)
    while exp:
        if exp & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        exp >>= 1
    return result


def _poly_gcd(a, b, p):
    a, b = list(a), list(b)
    while _poly_trim(b):
        # make b monic, then reduce a mod b
        lead = b[-1]
        if lead != 1:
            li = pow(lead, p - 2, p)
            b = [(c * li) % p for c in b]
        while len(a) >= len(b) and _poly_trim(a):
            c = a[-1]
            shift = len(a) - len(b)
            for j in range(len(b)):
                a[shift + j] = (a[shift + j] - c * b[j]) % p
            _poly_trim(a)
        a, b = b, a
    return _poly_trim(a)


def _is_irreducible(mod, p):
    d = len(mod) - 1
    if d < 1:
        return False
    # x^(p^d) == x  (mod f), and x^(p^(d/r)) - x coprime to f for primes r | d
    t = [0, 1]
    for _ in range(d):
        t = _poly_powmod(t, p, mod, p)
    if t != [0, 1]:
        return False
    for r in set(_prime_factors(d)):
        t = [0, 1]
        for _ in range(d // r):
            t = _poly_powmod(t, p, mod, p)
        diff = list(t) + [0] * (2 - len(t))
        diff[1] = (diff[1] - 1) % p
        g = _poly_gcd(list(mod), diff, p)
        if len(g) > 1:
            return False
    return True


def _least_irreducible(p: int, d: int) -> list[int]:
    """Lexicographically least monic irreducible of degree d over F_p.

    Candidates x^d + c_{d-1} x^{d-1} + ... + c_0 are ordered by the integer
    sum(c_i * p^i), which coincides with lexicographic order on the tuple
    (c_{d-1}, ..., c_0).
    """
    if d == 1:
        return [0, 1]  # the polynomial x; F_p[x]/(x) = F_p
    for k in range(p ** d):
        coeffs = [(k // p ** i) % p for i in range(d)] + [1]
        if _is_irreducible(coeffs, p):
            return coeffs
    raise RuntimeError("no irreducible polynomial found; this cannot happen")


class FieldTower:
    """The field F_{q^n} together with its subfield F_q and automorphism sigma.

    Instances are immutable after construction and safe to share; every
    operation is a pure function of its arguments.
    """

    def __init__(self, p: int, e: int, n: int, m: int):
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if e < 1 or n < 1 or m < 1:
            raise ValueError("e, n, m must be positive")
        if math.gcd(m, n) != 1:
            raise ValueError(f"gcd(m, n) = {math.gcd(m, n)} != 1")
        d = e * n
        order = p ** d
        if order > MAX_ORDER:
            raise CapExceeded(f"field order {order} exceeds the order cap {MAX_ORDER}")
        self.p = p
        self.e = e
        self.n = n
        self.m = m
        self.q = p ** e
        self.degree = d
        self.order = order
        self.modulus = tuple(_least_irreducible(p, d))
        self._build_tables()

    # -- construction ------------------------------------------------------

    def _raw_mul(self, a: int, b: int) -> int:
        pa = self._decode(a)
        pb = self._decode(b)
        prod = _poly_mulmod(pa, pb, list(self.modulus), self.p)
        return self._encode_list(prod)

    def _raw_pow(self, a: int, k: int) -> int:
        r = 1
        while k:
            if k & 1:
                r = self._raw_mul(r, a)
            a = self._raw_mul(a, a)
            k >>= 1
        return r

    def _decode(self, a: int) -> list[int]:
        p = self.p
        out = []
        while a:
            a, c = divmod(a, p)
            out.append(c)
        return out

    def _encode_list(self, coeffs) -> int:
        out = 0
        for c in reversed(coeffs):
            out = out * self.p + c
        return out

    def _build_tables(self):
        p, order = self.p, self.order
        units = order - 1
        # multiplicative generator
        primes = set(_prime_factors(units)) if units > 1 else set()
        gen = 1
        for g in range(2, order):
            if all(self._raw_pow(g, units // r) != 1 for r in primes):
                gen = g
                break
        self.generator = gen
        exp = np.zeros(max(units, 1), dtype=np.uint32)
        log = np.zeros(order, dtype=np.int64)
        acc = 1
        for i in range(units):
            exp[i] = acc
            log[acc] = i
            acc = self._raw_mul(acc, gen)
        log[0] = -1
        self._exp = exp
        self._log = log
        self._exp_l = exp.tolist() if order <= _SCALAR_LIST_MAX else None
        self._log_l = log.tolist() if order <= _SCALAR_LIST_MAX else None

        # digit matrix, used for additive structure when p > 2
        idx = np.arange(order, dtype=np.int64)
        digits = np.empty((order, self.degree),
                          dtype=np.int16 if p < 256 else np.int64)
        rest = idx.copy()
        for i in range(self.degree):
            digits[:, i] = rest % p
            rest //= p
        self._digits = digits
        self._pow_p = p ** np.arange(self.degree, dtype=np.int64)

        if p == 2:
            self._neg = idx.astype(np.uint32)
        else:
            self._neg = (((-digits) % p) @ self._pow_p).astype(np.uint32)

        inv = np.zeros(order, dtype=np.uint32)
        if units > 1:
            inv[exp] = exp[(units - np.arange(units)) % units]
        else:
            inv[1] = 1
        self._inv = inv

        if order <= _MUL_TABLE_MAX:
            # no (Q, Q) int64 or (Q, Q, d) temporaries: products from int32
            # log sums into a doubled exp, sums digit by digit in uint32
            exp2 = np.concatenate([exp, exp])
            lg = log[1:].astype(np.int32)
            tbl = np.zeros((order, order), dtype=np.uint32)
            for r in range(1, order, 256):
                tbl[r:r + 256, 1:] = exp2[lg[r - 1:r + 255, None] + lg]
            self._mul_t = tbl
            if p > 2:
                add = np.zeros((order, order), dtype=np.uint32)
                for i, d in enumerate(digits.T.astype(np.uint32)):
                    add += (d[:, None] + d) % p * np.uint32(p ** i)
                self._add_t = add
            else:
                self._add_t = None
        else:
            self._mul_t = None
            self._add_t = None

        small = order <= 256
        self._mul_rows = [r.tolist() for r in self._mul_t] if small and self._mul_t is not None else None
        self._add_rows = [r.tolist() for r in self._add_t] if small and self._add_t is not None else None

        # frobenius powers x -> x^(q^j), j = 0..n-1
        frob = np.empty((self.n, order), dtype=np.uint32)
        frob[0] = idx
        if units > 1:
            for j in range(1, self.n):
                shift = pow(self.q, j, units)
                frob[j, 0] = 0
                frob[j, exp] = exp[(log[exp] * shift) % units]
        self._frobq = frob

        norm = np.zeros(order, dtype=np.uint32)
        if units > 1:
            ne = (order - 1) // (self.q - 1) if self.q > 1 else 1
            norm[exp] = exp[(log[exp] * ne) % units]
        norm[0] = 0
        self._norm = norm

        self._subfield = tuple(int(x) for x in np.nonzero(frob[1 % self.n] == idx)[0]) if self.n > 1 \
            else tuple(range(order))
        self._pow_cache: dict[int, np.ndarray] = {}

    # -- scalar operations -------------------------------------------------

    def add(self, x: int, y: int) -> int:
        if self.p == 2:
            return x ^ y
        if self._add_rows is not None:
            return self._add_rows[x][y]
        if self._add_t is not None:
            return int(self._add_t[x, y])
        return self._encode_list([(a + b) % self.p for a, b in
                                  zip(self._pad(x), self._pad(y))])

    def neg(self, x: int) -> int:
        return x if self.p == 2 else int(self._neg[x])

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        if self._mul_rows is not None:
            return self._mul_rows[x][y]
        if self._log_l is not None:
            return self._exp_l[(self._log_l[x] + self._log_l[y]) % (self.order - 1)]
        return int(self._exp[(self._log[x] + self._log[y]) % (self.order - 1)])

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        return int(self._inv[x])

    def div(self, x: int, y: int) -> int:
        return self.mul(x, self.inv(y))

    def pow(self, x: int, k: int) -> int:
        if x == 0:
            if k < 0:
                raise ZeroDivisionError("inverse of zero")
            return 0 if k else 1
        lg = self._log[x] if self._log_l is None else self._log_l[x]
        return int(self._exp[(int(lg) * k) % (self.order - 1)])

    def frobq(self, x: int, j: int = 1) -> int:
        """x -> x**(q**j)."""
        return int(self._frobq[j % self.n, x])

    def sigma(self, x: int, k: int = 1) -> int:
        """k-th power of the distinguished automorphism x -> x**(q**m)."""
        return int(self._frobq[(self.m * k) % self.n, x])

    def norm(self, x: int) -> int:
        return int(self._norm[x])

    def _pad(self, x: int) -> list[int]:
        c = self._decode(x)
        return c + [0] * (self.degree - len(c))

    def coeffs(self, x: int) -> tuple[int, ...]:
        """Polynomial coordinates of x, low degree first, length e*n."""
        return tuple(self._pad(x))

    def encode(self, coeffs) -> int:
        return self._encode_list([c % self.p for c in coeffs])

    # -- predicates and subsets ---------------------------------------------

    def elements(self) -> range:
        return range(self.order)

    def units(self) -> range:
        return range(1, self.order)

    @property
    def subfield(self) -> tuple[int, ...]:
        """The elements of F_q, i.e. the fixed points of x -> x**q."""
        return self._subfield

    def in_subfield(self, x: int) -> bool:
        return self.frobq(x, 1) == x

    def is_square(self, x: int) -> bool:
        if self.p == 2 or x == 0:
            return True
        return self._log[x] % 2 == 0

    def is_sigma_norm_value(self, x: int) -> bool:
        """True when x = y**(q**m + 1) for some y."""
        if x == 0:
            return True
        r = math.gcd(self.order - 1, self.q ** self.m + 1)
        return self._log[x] % r == 0

    def norm_class(self, a: int) -> tuple[int, ...]:
        """All x with norm(x) = a, for a in F_q^*."""
        if a == 0:
            raise ValueError("norm classes are indexed by nonzero subfield elements")
        if not self.in_subfield(a):
            raise ValueError(f"{a} is not in the subfield F_{self.q}")
        return tuple(int(v) for v in np.nonzero(self._norm == a)[0])

    # -- vectorised operations on numpy arrays of encodings ------------------

    def _gather(self, table, a, b):
        """table[a, b] of a dense (Q, Q) table, the broadcast of a and b, as
        one take of flat intp keys a Q + b from the raveled table.  A
        broadcast past _KEY_BLOCK keys is written into one uint32 output,
        slice by slice along its leading axes, each slice's keys formed
        alone."""
        a, b = np.asarray(a), np.asarray(b)
        # a.size * b.size bounds the broadcast's size
        if a.size * b.size > _KEY_BLOCK and (a.shape != b.shape or a.size > _KEY_BLOCK):
            shape = np.broadcast_shapes(a.shape, b.shape)
            if math.prod(shape) > _KEY_BLOCK:
                out = np.empty(shape, dtype=np.uint32)
                self._gather_into(table, np.broadcast_to(a, shape),
                                  np.broadcast_to(b, shape), out)
                return out
        return table.take(np.multiply(a, self.order, dtype=np.intp) + b)

    def _gather_into(self, table, a, b, out):
        """Write table[a, b] into `out`, all three of one shape, in slices
        of at most _KEY_BLOCK keys along the leading axis, or row by row
        where one row is past it."""
        row = out.size // len(out)
        if row > _KEY_BLOCK:
            for i in range(len(out)):
                self._gather_into(table, a[i], b[i], out[i])
            return
        step = _KEY_BLOCK // row
        for i in range(0, len(out), step):
            s = slice(i, i + step)
            out[s] = table.take(np.multiply(a[s], self.order, dtype=np.intp) + b[s])

    def vadd(self, a, b):
        """Field sum of two arrays (or ints) of encodings, broadcast.

        Operands are encodings 0..Q-1 and are not range-checked: below the
        dense-table order a sum is one gather of the flat key a Q + b, so
        an operand b >= Q or b < 0 silently reads a cell of another row,
        and a >= Q raises IndexError.  Entries are checked where they come
        in (`forms.SesquiForm`, the CLI's `--matrix`, the kernels' index
        checks).  For odd p the result is uint32 of the broadcast shape;
        for p = 2 it is the XOR of the operands, in their dtype."""
        if self.p == 2:
            return np.bitwise_xor(a, b)
        if self._add_t is not None:
            return self._gather(self._add_t, a, b)
        s = (self._digits[a] + self._digits[b]) % self.p
        return (s @ self._pow_p).astype(np.uint32)

    def vneg(self, a):
        return a if self.p == 2 else self._neg[a]

    def vsub(self, a, b):
        return self.vadd(a, self.vneg(b))

    def vmul(self, a, b):
        """Field product of two arrays (or ints) of encodings, broadcast,
        as uint32.  Operands are encodings 0..Q-1 and are not range-checked,
        as for `vadd`: below the dense-table order a product is one gather
        of the flat key a Q + b."""
        if self._mul_t is not None:
            return self._gather(self._mul_t, a, b)
        out = self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]
        return np.where((a == 0) | (b == 0), 0, out).astype(np.uint32)

    def vinv(self, a):
        return self._inv[a]

    def vfrobq(self, a, j: int = 1):
        return self._frobq[j % self.n][a]

    def vsigma(self, a, k: int = 1):
        return self._frobq[(self.m * k) % self.n][a]

    def vnorm(self, a):
        return self._norm[a]

    def pow_table(self, k: int) -> np.ndarray:
        """Array t with t[x] = x**k for every element x."""
        k = k % (self.order - 1) if self.order > 2 else k
        tbl = self._pow_cache.get(k)
        if tbl is None:
            units = self.order - 1
            tbl = np.zeros(self.order, dtype=np.uint32)
            if k == 0:
                tbl[1:] = 1
            else:
                tbl[self._exp] = self._exp[(np.arange(units) * k) % units]
            self._pow_cache[k] = tbl
        return tbl

    def __repr__(self):
        return (f"FieldTower(p={self.p}, e={self.e}, n={self.n}, m={self.m}, "
                f"order={self.order})")


@lru_cache(maxsize=None)
def build_field(p: int, e: int, n: int, m: int) -> FieldTower:
    """Construct (and cache) the tower F_p < F_{p^e} < F_{p^(e*n)}."""
    return FieldTower(p, e, n, m)
