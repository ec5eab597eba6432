"""Exact arithmetic in small finite fields GF(p^e).

Elements are canonical integers in [0, q): the base-p encoding of the
little-endian coefficient vector of the residue polynomial (for prime
fields simply the residue in [0, p)). This single integer form is also
the on-disk encoding used by the file format.

Field orders are capped at 2^16 so every element fits an unsigned
16-bit array entry, and every log and Zech index a signed 32-bit one.

`add`, `mul`, `neg` and `inv` are plain callables stored on the field
(a - b is add(a, neg(b))), and so are the row kernels `axpy(x, c, y)`,
the row x + c*y, and `scale(c, y)`, the row c*y, which do a whole row
in one call, and the product kernel `matmul(a_rows, b_rows, m)`, the
rows of A*B for a B of width m. A row kernel takes any sequence of
canonical ints (tuple, list or bytes) and returns a new sequence:
`bytes` in characteristic 2 with q <= 256 and for primes p <= 127, a
list otherwise. The constructor builds every table the field uses and
binds one kernel set (`Field._bind`); the field never changes after
that, so a call pays for no dispatch:

* primes: integer arithmetic mod p, with XOR add for p = 2;
* 2^e: XOR add; mul through log and exp tables (the exp table has
  2(q - 1) entries, so a sum of two logs indexes it without a
  reduction), and inv(g^l) = exp[-l];
* odd p^e: the same exp/log mul and inv, neg(g^l) = exp[l + (q - 1)/2],
  and add through Zech's logarithms (K. Huber, "Some comments on Zech's
  logarithms", IEEE Trans. IT 36(4), 1990): with g primitive and
  Z(i) = log_g(1 + g^i), g^i + g^j = g^(i + Z(j - i)).

The byte-row fields, characteristic 2 with q <= 256 and primes with
2(p - 1) < 256 (p <= 127), also keep q `bytes` rows of products, row a
holding a*b at byte b and padded to 256 bytes so that row c is also the
`bytes.translate` table of c*row, and a q-entry inv list; mul and inv
read them, and for those primes neg reads a list too. In characteristic
2 a row is one `operator.itemgetter` gather from exp. Every other field
keeps only the tables its kernels read: none for a prime, exp and log
for 2^e, and for odd p^e also Zech. Up to q = 2^13 these are lists;
above it exp and log are `array("H")` and Zech, whose entries run from
-1 to q - 2, is `array("i")` (a C int has 32 bits). A list entry above
256 points to an int object of its own, so as lists GF(2^16) held
5.7 MiB and GF(3^10) 6.5 MiB, as arrays 0.4 and 0.8 MiB, and a
reduce-lift-extract round trip over them runs 10-20% faster on the
smaller tables. Below 2^13 the int that each array read creates
costs more than it saves: as arrays, GF(3^6) and GF(5^4) ran a third
slower.

The tables and their layout are private to this module; every other
module calls the bound kernels.

The `bytes` row kernels hold one entry per byte: scale(c, y) is one
`bytes.translate` through product row c, and axpy reads x and c*y as
ints and combines them in one big-int operation. In characteristic 2
that is XOR. For a prime with 2(p - 1) < 256 it is a sum, in which no
byte carries into the next, reduced once by a translate through the
mod-p table (the delayed reduction cited below).

`matmul` packs whole rows into Python ints, so that one C-level big-int
operation handles a row (Kronecker substitution; D. Harvey, "Faster
polynomial multiplication via multipoint Kronecker substitution",
J. Symb. Comput. 44(10), 2009):

* prime fields: each row of B becomes one int of w-bit slots, w the
  smallest of 8, 16, 32, 64 with len(B)*(p - 1)^2 < 2^w. A row of A*B is
  then sum_i a_i * B_i over ints, with no reduction inside the sum (the
  delayed reduction of J.-G. Dumas, P. Giorgi, C. Pernet, "Dense linear
  algebra over word-size prime fields: the FFLAS and FFPACK packages",
  ACM TOMS 35(3), 2008), and is reduced once per slot at the end: by
  `bytes.translate` through a mod-p table when w = 8, else slot by slot;
* GF(2^e) with q <= 256: one byte per entry. c*row is a `bytes.translate`
  through row c of the product table, and the sum is an XOR of ints;
* every other field: one `axpy` per non-zero entry of A.

The exp table is the walk 1, g, g^2, ... with a lookup per step, which
fills log as it goes. Multiplication by g is F_p-linear: with
a = lo + P*hi and P = p^(e//2), a*g is the digit-wise sum of the images
of lo and of P*hi, which cost about 2 sqrt(q) digit-wise products to
precompute. In characteristic 2 that sum is XOR. For odd p each image
holds one w-bit slot per digit, w the bit length of 2(p - 1), so an int
sum adds digits without carries and one lookup per half maps the slot
sums back to digits mod p. Zech is then one C-level gather from log
shifted by one within each block of p entries, as 1 + x changes only
digit 0 of x. The built-in modulus is the smallest monic irreducible;
the test for one divides only by the monic irreducibles of degree 2 to
e//2, sieved degree by degree.

The digit-wise `_mul_raw` and `_pow_raw` are the reference that the
tables are built from and tested against. No table is built from a
digit-wise sum or negation, so the reference for `add` and `neg` lives
with the tests.
"""

from __future__ import annotations

import functools
import operator
import sys
from array import array
from typing import Iterable, Optional, Sequence

from .errors import (
    NotPrime,
    ReducibleModulus,
    UnsupportedSize,
    ZeroInverse,
)

MAX_ORDER = 1 << 16
MAX_DEGREE = 16
FLAT_TABLE_CAP = 256


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# ---------------------------------------------------------------------------
# polynomial helpers on little-endian coefficient lists over F_p


def _poly_mod(num: list[int], den: Sequence[int], p: int) -> list[int]:
    """Remainder of num modulo the monic polynomial den, in place."""
    dn = len(den) - 1
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            num[i] = 0
            off = i - dn
            for j in range(dn):
                if den[j]:
                    num[off + j] = (num[off + j] - c * den[j]) % p
    del num[dn:]
    while len(num) < dn:
        num.append(0)
    return num


def _poly_mul_mod(a: Sequence[int], b: Sequence[int], den: Sequence[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else [0]
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_mod(out, den, p)


def _irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Whether the monic coeffs is irreducible over F_p: it has no root
    and no monic irreducible factor of degree 2..e//2."""
    e = len(coeffs) - 1
    if e < 1 or coeffs[-1] != 1:
        return False
    return e == 1 or _no_factor(coeffs, p, _divisors(p, e // 2))


def _no_factor(coeffs: Sequence[int], p: int, divisors) -> bool:
    """Whether coeffs has no root over F_p, and a non-zero remainder
    modulo each monic polynomial in divisors."""
    for x in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        if acc == 0:
            return False
    return all(any(_poly_mod(list(coeffs), den, p)) for den in divisors)


@functools.lru_cache(maxsize=None)
def _divisors(p: int, top: int) -> tuple[tuple[int, ...], ...]:
    """The monic irreducibles of degree 2..top over F_p, by degree, each
    degree sieved by roots and by those of degree up to half its own:
    69 for p = 2 and top = 8, where all monic divisors number 508."""
    out: list[tuple[int, ...]] = []
    for d in range(2, top + 1):
        below = [f for f in out if 2 * (len(f) - 1) <= d]
        monic = (tuple(_digits(enc, p, d)) + (1,) for enc in range(p**d))
        out += [f for f in monic if _no_factor(f, p, below)]
    return tuple(out)


def _digits(x: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        x, r = divmod(x, p)
        out.append(r)
    return out


def _undigits(digits: Iterable[int], p: int) -> int:
    x = 0
    for d in reversed(list(digits)):
        x = x * p + d
    return x


@functools.lru_cache(maxsize=None)
def default_modulus(p: int, e: int) -> tuple[int, ...]:
    """Deterministic built-in modulus for GF(p^e): the lexicographically
    smallest monic irreducible of degree e over F_p, ordered by the integer
    encoding of the non-leading coefficients."""
    for enc in range(1, p**e):
        cand = _digits(enc, p, e) + [1]
        if _irreducible(cand, p):
            return tuple(cand)
    raise ReducibleModulus(f"no irreducible polynomial found for GF({p}^{e})")


# ---------------------------------------------------------------------------


class Field:
    """A field context GF(p^e); operations act on canonical element ints.

    add(a, b), mul(a, b), neg(a), inv(a), axpy(x, c, y), scale(c, y)
    and matmul(a_rows, b_rows, m) are attributes that the constructor
    binds, once, to the kernels of its family; inv(0) raises ZeroInverse.
    The row kernels take rows as any sequence of canonical ints and
    return new rows, as `bytes` for the byte-row fields (q <= 256 in
    characteristic 2, primes up to 127), else as lists.
    """

    __slots__ = (
        "p", "e", "q", "modulus", "minus_one",
        # the tables, private to this module
        "_mod_int", "_exp", "_log", "_zech", "_mul_rows", "_neg_list", "_inv_list",
        # the bound kernels
        "add", "mul", "neg", "inv", "axpy", "scale", "matmul",
    )

    def __init__(self, p: int, e: int = 1, modulus: Optional[Sequence[int]] = None):
        # the caps come before is_prime and p**e, which an oversized
        # spec would keep busy for minutes
        if isinstance(p, int) and p > MAX_ORDER:
            raise UnsupportedSize(f"characteristic {p} exceeds order cap {MAX_ORDER}")
        if not isinstance(p, int) or not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if not isinstance(e, int) or e < 1:
            raise UnsupportedSize(f"extension degree must be >= 1, got {e}")
        if e > MAX_DEGREE:
            raise UnsupportedSize(f"extension degree {e} exceeds cap {MAX_DEGREE}")
        q = p**e
        if q > MAX_ORDER:
            raise UnsupportedSize(f"field order {q} exceeds cap {MAX_ORDER}")
        self.p = p
        self.e = e
        self.q = q
        if e == 1:
            if modulus is not None:
                raise ReducibleModulus("a prime field takes no modulus")
            self.modulus = None
        else:
            coeffs = tuple(int(c) for c in (modulus if modulus is not None else default_modulus(p, e)))
            if len(coeffs) != e + 1 or coeffs[-1] != 1:
                raise ReducibleModulus(f"modulus must be monic of degree {e}")
            if any(not (0 <= c < p) for c in coeffs):
                raise ReducibleModulus("modulus coefficients must lie in [0, p)")
            # the built-in modulus was found by this very test
            if coeffs != default_modulus(p, e) and not _irreducible(coeffs, p):
                raise ReducibleModulus(f"modulus {list(coeffs)} is reducible over F_{p}")
            self.modulus = coeffs
        self.minus_one = 1 if p == 2 else p - 1
        self._mod_int = _undigits(self.modulus, 2) if (p == 2 and e > 1) else 0
        self._exp = self._log = self._zech = self._mul_rows = self._neg_list = self._inv_list = None
        if e > 1:
            self._build_exp_log()
        self._bind()

    # -- identity / plumbing ------------------------------------------------

    def __repr__(self):
        if self.e == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.e})"

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.e == other.e
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __reduce__(self):
        return (field, (self.p, self.e, self.modulus))

    def units(self) -> range:
        return range(1, self.q)

    # -- raw arithmetic (no tables) ------------------------------------------

    def _mul_raw(self, a, b):
        p, e = self.p, self.e
        if e == 1:
            return a * b % p
        if p == 2:
            r = 0
            x = a
            while b:
                if b & 1:
                    r ^= x
                b >>= 1
                x <<= 1
                if x >> e:
                    x ^= self._mod_int
            return r
        return _undigits(
            _poly_mul_mod(_digits(a, p, e), _digits(b, p, e), self.modulus, p), p
        )

    def _pow_raw(self, a, k):
        r = 1
        x = a
        while k:
            if k & 1:
                r = self._mul_raw(r, x)
            x = self._mul_raw(x, x)
            k >>= 1
        return r

    # -- table construction --------------------------------------------------

    def _build_exp_log(self):
        p, q = self.p, self.q
        span = q - 1
        fs = []
        t = span
        f = 2
        while f * f <= t:
            if t % f == 0:
                fs.append(f)
                while t % f == 0:
                    t //= f
            f += 1
        if t > 1:
            fs.append(t)
        # the least generator of the cyclic group of units; below p lies
        # F_p, where no unit has order q - 1
        g = next(c for c in range(p, q) if all(self._pow_raw(c, span // f) != 1 for f in fs))
        exp, log = self._powers(g)
        if p != 2:
            # Z(i) = log(1 + g^i), and 1 + x changes only coefficient 0 of
            # x: one_up[x] = log[1 + x] is log shifted by one within each
            # block of p entries. Zech logs run from -1 to q - 2; a C int
            # has 32 bits
            one_up = log[1:] + log[:1]
            one_up[p - 1::p] = log[::p]
            zech = map(one_up.__getitem__, exp)
            zech = array("i", zech) if type(log) is array else list(zech)
            zech[span // 2] = -1  # g^half = -1, and 1 + g^half = 0 has no log
            # doubled, so that an index log[b] - log[a] lands in it from
            # either side
            zech *= 2
            self._zech = zech
        # doubled as well: a sum of two logs indexes it without a reduction
        exp *= 2
        self._exp, self._log = exp, log

    def _powers(self, g):
        """(exp, log): [g^0, ..., g^(q - 2)] by the lookup walk of the module
        docstring, and its inverse, log[0] = 0, filled on the way; arrays
        above q = 2^13, where a list's own int per entry costs more."""
        p, e, q = self.p, self.e, self.q
        h = e // 2
        P = p**h
        lo_img = [0] + [self._mul_raw(lo, g) for lo in range(1, P)]
        hi_img = [0] + [self._mul_raw(P * hi, g) for hi in range(1, q // P)]
        if q > 1 << 13:
            exp, log = array("H", bytes(2 * q - 2)), array("H", bytes(2 * q))
        else:
            exp, log = [0] * (q - 1), [0] * q
        if p == 2:
            mask = P - 1
            acc = 1
            for i in range(q - 1):
                exp[i] = acc
                log[acc] = i
                acc = lo_img[acc & mask] ^ hi_img[acc >> h]
            return exp, log
        w = (2 * (p - 1)).bit_length()
        shift = h * w
        mask = (1 << shift) - 1
        lo_img = [_slots(x, p, e, w) for x in lo_img]
        hi_img = [_slots(x, p, e, w) for x in hi_img]
        lo_of = _slot_sums(h, p, w)
        hi_of = _slot_sums(e - h, p, w)
        lo, hi = 1, 0
        for i in range(q - 1):
            acc = lo + P * hi
            exp[i] = acc
            log[acc] = i
            s = lo_img[lo] + hi_img[hi]
            lo = lo_of[s & mask]
            hi = hi_of[s >> shift]
        return exp, log

    def _bind(self):
        """Store the element kernels (add/mul/neg/inv), the row
        kernels (axpy/scale) and the product kernel (matmul) of the
        field's family; the byte-row fields look mul, inv and neg up in
        tables filled from those kernels, and in characteristic 2 cut
        their product rows from exp."""
        p, e, q = self.p, self.e, self.q
        exp, log = self._exp, self._log
        zero = f"zero has no inverse in {self!r}"
        if e == 1:
            mul = lambda a, b: a * b % p
            def inv(a):
                if not a:
                    raise ZeroInverse(zero)
                return pow(a, -1, p)
        else:
            mul = lambda a, b: exp[log[a] + log[b]] if a and b else 0
            # exp[-l] is g^(-l), the inverse of g^l
            def inv(a):
                if not a:
                    raise ZeroInverse(zero)
                return exp[-log[a]]
        if p == 2:
            add = operator.xor
            neg = operator.pos  # -a = a in characteristic 2
        elif e == 1:
            add = lambda a, b: (a + b) % p
            neg = lambda a: -a % p
        else:
            add = _zech_add(exp, log, self._zech)
            half = (q - 1) // 2
            # exp[l + half] is g^(l + half), the negative of g^l
            neg = lambda a: exp[log[a] + half] if a else 0
        # byte i holds i mod p: the reduction of the byte slots that the
        # prime axpy and matmul sum into
        mod_t = bytes([i % p for i in range(256)]) if e == 1 else None
        if p == 2 and q <= FLAT_TABLE_CAP or e == 1 and 2 * (p - 1) < 256:
            els = range(q)
            pad = bytes(256 - q)
            if e == 1:
                rows = [bytes([mul(a, b) for b in els]) + pad for a in els]
                self._neg_list = [neg(a) for a in els]
                neg = self._neg_list.__getitem__
            else:
                # byte b of row a is exp[log a + log b]: one gather at the
                # logs of 1..q - 1 from exp shifted by log a
                at_logs = operator.itemgetter(*log[1:])
                rows = [bytes(256)] + [bytes((0, *at_logs(exp[l:]))) + pad for l in log[1:]]
            mul_rows = self._mul_rows = rows
            mul = lambda a, b: mul_rows[a][b]
            inv_t = self._inv_list = [0] + [inv(a) for a in els[1:]]
            def inv(a):
                if not a:
                    raise ZeroInverse(zero)
                return inv_t[a]
            scale = lambda c, y: bytes(y).translate(mul_rows[c])
            axpy = _xor_bytes_axpy(mul_rows) if p == 2 else _sum_bytes_axpy(mul_rows, mod_t)
        elif e == 1:
            axpy = lambda x, c, y: [(a + c * b) % p for a, b in zip(x, y)]
            scale = lambda c, y: [c * b % p for b in y]
        else:
            axpy = _xor_axpy(exp, log) if p == 2 else _zech_axpy(exp, log, self._zech)
            scale = _log_scale(exp, log)
        if e == 1:
            matmul = _packed_matmul(p, mod_t)
        elif p == 2 and q <= FLAT_TABLE_CAP:
            matmul = _translate_matmul(self._mul_rows)
        else:
            matmul = _axpy_matmul(axpy)
        self.add, self.mul, self.neg, self.inv = add, mul, neg, inv
        self.axpy, self.scale, self.matmul = axpy, scale, matmul

    def warm(self):
        """Return the field unchanged. The constructor already builds every
        table; this stays only because the benchmark harness in
        `perfbench/` calls it."""
        return self

    # -- signs -----------------------------------------------------------------

    def signs(self) -> tuple[int, ...]:
        """1 and -1, which coincide in characteristic 2."""
        return (1,) if self.p == 2 else (1, self.minus_one)


def _slots(x: int, p: int, e: int, w: int) -> int:
    """The e base-p digits of x, one per w-bit slot."""
    return sum(d << (k * w) for k, d in enumerate(_digits(x, p, e)))


def _slot_sums(n: int, p: int, w: int) -> list[int]:
    """Lookup from n w-bit slots, each holding a digit sum in [0, 2p - 2],
    to the canonical int of those digits reduced mod p."""
    keys, vals = [0], [0]
    for k in range(n):
        keys = [key | d << (k * w) for d in range(2 * p - 1) for key in keys]
        vals = [v + d % p * p**k for d in range(2 * p - 1) for v in vals]
    out = [0] * (1 << (n * w))
    for key, v in zip(keys, vals):
        out[key] = v
    return out


def _zech_add(exp, log, zech):
    """add of an odd-characteristic extension field through Zech's
    logarithms."""

    def add(a, b):
        if not a:
            return b
        if not b:
            return a
        la = log[a]
        s = zech[log[b] - la]
        return exp[la + s] if s >= 0 else 0

    return add


# Row kernels. axpy(x, c, y) is the new row x + c*y and scale(c, y) the
# new row c*y, for equal-length sequences of canonical ints (tuples, lists
# or bytes); both accept c = 0, zero entries and x and y being one row.
# In a byte-row field c*b is byte b of the product row c, and its kernels
# return `bytes`; every other kernel returns a list.


def _xor_bytes_axpy(mul_rows):
    """axpy of characteristic 2 with q <= 256: c*y by translate, the sum
    as one XOR of the rows read as ints."""

    def axpy(x, c, y):
        cy = int.from_bytes(bytes(y).translate(mul_rows[c]), "little")
        return (int.from_bytes(x, "little") ^ cy).to_bytes(len(x), "little")

    return axpy


def _sum_bytes_axpy(mul_rows, mod_t):
    """axpy of a prime p with 2(p - 1) < 256: the rows read as ints add
    without a carry out of any byte, and one translate through mod_t
    reduces every byte mod p."""

    def axpy(x, c, y):
        cy = int.from_bytes(bytes(y).translate(mul_rows[c]), "little")
        return (int.from_bytes(x, "little") + cy).to_bytes(len(x), "little").translate(mod_t)

    return axpy


def _log_scale(exp, log):
    """scale of an extension field without byte rows: exp/log mul."""

    def scale(c, y):
        if not c:
            return [0] * len(y)
        lc = log[c]
        return [exp[lc + log[b]] if b else 0 for b in y]

    return scale


def _xor_axpy(exp, log):
    """axpy of GF(2^e) above 256: XOR add, exp/log mul."""

    def axpy(x, c, y):
        if not c:
            return list(x)
        lc = log[c]
        return [a ^ exp[lc + log[b]] if b else a for a, b in zip(x, y)]

    return axpy


def _zech_axpy(exp, log, zech):
    """axpy of odd GF(p^e): exp/log mul, Zech add (see
    `_zech_add`). log(c*b) = lc + log b stays below 2(q - 1), so it
    indexes the doubled exp table and, less log a, the doubled zech table
    from either side."""

    def axpy(x, c, y):
        out = list(x)
        if not c:
            return out
        lc = log[c]
        i = 0
        for b in y:
            if b:
                a = out[i]
                if a:
                    la = log[a]
                    s = zech[lc + log[b] - la]
                    out[i] = exp[la + s] if s >= 0 else 0
                else:
                    out[i] = exp[lc + log[b]]
            i += 1
        return out

    return axpy


# Product kernels. matmul(a_rows, b_rows, m) is the list of rows of A*B,
# for A given by its rows, each as long as b_rows, and B by its rows of m
# canonical ints; any shape may be empty.

# array type code of each slot width in bits
_SLOT_CODES = {array(code).itemsize * 8: code for code in "QLIHB"}


def _packed_matmul(p, mod_t):
    """matmul of GF(p): rows of B packed into ints of w-bit slots (module
    docstring), in native byte order, which `array` and `memoryview`
    use."""
    square = (p - 1) ** 2
    order = sys.byteorder

    def matmul(a_rows, b_rows, m):
        bound = len(b_rows) * square
        # (p - 1)^2 < 2^32, so w = 64 holds any B that fits in memory
        w = next(w for w in (8, 16, 32, 64) if bound < 1 << w)
        code = _SLOT_CODES[w]
        # bytes(r) checks entries < 256 faster than array("B", r) does
        slotted = map(bytes, b_rows) if w == 8 else [array(code, r) for r in b_rows]
        packed = [int.from_bytes(r, order) for r in slotted]
        size = m * w // 8
        out = []
        for arow in a_rows:
            slots = sum(map(operator.mul, arow, packed)).to_bytes(size, order)
            if w == 8:
                out.append(tuple(slots.translate(mod_t)))
            else:
                out.append(tuple([x % p for x in memoryview(slots).cast(code)]))
        return out

    return matmul


def _translate_matmul(mul_rows):
    """matmul of GF(2^e) with q <= 256: one byte per entry, c*row through
    the translate table mul_rows[c], sums by XOR."""

    def matmul(a_rows, b_rows, m):
        b_bytes = [bytes(r) for r in b_rows]
        out = []
        for arow in a_rows:
            acc = 0
            for c, brow in zip(arow, b_bytes):
                if c:
                    acc ^= int.from_bytes(brow.translate(mul_rows[c]), "little")
            out.append(tuple(acc.to_bytes(m, "little")))
        return out

    return matmul


def _axpy_matmul(axpy):
    """matmul through the row kernel: one axpy per non-zero entry of A."""

    def matmul(a_rows, b_rows, m):
        out = []
        for arow in a_rows:
            acc = [0] * m
            for a, brow in zip(arow, b_rows):
                if a:
                    acc = axpy(acc, a, brow)
            out.append(acc)
        return out

    return matmul


@functools.lru_cache(maxsize=None)
def _field_cached(p: int, e: int, modulus):
    return Field(p, e, modulus)


def field(p: int, e: int = 1, modulus: Optional[Sequence[int]] = None) -> Field:
    """Validated, process-cached field constructor.

    The default modulus is resolved before caching, so requesting GF(p^e)
    with and without the explicit default yields the same object.
    """
    if modulus is not None:
        mod = tuple(int(c) for c in modulus)
    elif 1 < e <= MAX_DEGREE and p <= MAX_ORDER and is_prime(p) and p**e <= MAX_ORDER:
        mod = default_modulus(p, e)
    else:
        mod = None
    return _field_cached(p, e, mod)
