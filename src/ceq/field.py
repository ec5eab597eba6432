"""Exact arithmetic in small finite fields GF(p^e).

Elements are canonical integers in [0, q): the base-p encoding of the
little-endian coefficient vector of the residue polynomial (for prime
fields simply the residue in [0, p)). This single integer form is also
the on-disk encoding used by the file format.

Field orders are capped at 2^16 so every element fits comfortably in a
machine word and small fields can be backed by flat lookup tables.

Addition takes one of three paths, chosen by the field:

* prime fields add residues mod p;
* characteristic-2 extensions XOR the bit vectors;
* odd-characteristic extensions, once warmed, use Zech's logarithms
  (K. Huber, "Some comments on Zech's logarithms", IEEE Trans. IT 36(4),
  1990): with g primitive and Z(i) = log_g(1 + g^i),
  g^i + g^j = g^(i + Z(j - i)). Unwarmed ones add base-p digit-wise.

Multiplication goes through exp/log tables once the field is warmed.
For q <= 256, warming also fills flat q x q tables that every operation
then reads directly.
"""

from __future__ import annotations

import functools
from typing import Iterable, Optional, Sequence

from .errors import (
    FieldMismatch,
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


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


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


def _poly_divides(den: Sequence[int], num: Sequence[int], p: int) -> bool:
    """Whether the monic polynomial den divides num over F_p."""
    rem = _poly_mod(list(num), den, p)
    return not any(rem)


def _irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Exhaustive root/divisor search; fine for the capped degrees here."""
    e = len(coeffs) - 1
    if e < 1 or coeffs[-1] != 1:
        return False
    if e == 1:
        return True
    for x in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        if acc == 0:
            return False
    # trial division by every monic polynomial of degree 2..e//2
    for d in range(2, e // 2 + 1):
        for enc in range(p**d):
            den = _digits(enc, p, d) + [1]
            if _poly_divides(den, coeffs, p):
                return False
    return True


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
    """A field context GF(p^e); operations act on canonical element ints."""

    __slots__ = (
        "p",
        "e",
        "q",
        "modulus",
        "minus_one",
        "_mod_int",
        "_exp",
        "_log",
        "_add_flat",
        "_sub_flat",
        "_mul_flat",
        "_neg_list",
        "_inv_list",
        "_zech",
    )

    def __init__(self, p: int, e: int = 1, modulus: Optional[Sequence[int]] = None):
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
            self.modulus = None
        else:
            coeffs = tuple(int(c) for c in (modulus if modulus is not None else default_modulus(p, e)))
            if len(coeffs) != e + 1 or coeffs[-1] != 1:
                raise ReducibleModulus(f"modulus must be monic of degree {e}")
            if any(not (0 <= c < p) for c in coeffs):
                raise ReducibleModulus("modulus coefficients must lie in [0, p)")
            if not _irreducible(coeffs, p):
                raise ReducibleModulus(f"modulus {list(coeffs)} is reducible over F_{p}")
            self.modulus = coeffs
        self.minus_one = 1 if p == 2 else p - 1
        self._mod_int = _undigits(self.modulus, 2) if (p == 2 and e > 1) else 0
        self._exp = None
        self._log = None
        self._add_flat = None
        self._sub_flat = None
        self._mul_flat = None
        self._neg_list = None
        self._inv_list = None
        self._zech = None

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

    def elements(self) -> range:
        return range(self.q)

    def units(self) -> range:
        return range(1, self.q)

    def encode(self, coeffs: Sequence[int]) -> int:
        """Pack a little-endian coefficient vector into a canonical int."""
        if len(coeffs) > self.e:
            raise ValueError("too many coefficients")
        if any(not (0 <= c < self.p) for c in coeffs):
            raise ValueError("coefficients must lie in [0, p)")
        return _undigits(coeffs, self.p)

    def decode(self, a: int) -> tuple[int, ...]:
        """Little-endian coefficient vector of a canonical element int."""
        self._check(a)
        return tuple(_digits(a, self.p, self.e))

    def _check(self, a: int):
        if not (0 <= a < self.q):
            raise ValueError(f"{a} is not an element of {self!r}")

    # -- raw arithmetic (no tables) ------------------------------------------

    def _add_raw(self, a, b):
        p = self.p
        if self.e == 1:
            return (a + b) % p
        if p == 2:
            return a ^ b
        return _undigits(
            [(x + y) % p for x, y in zip(_digits(a, p, self.e), _digits(b, p, self.e))], p
        )

    def _neg_raw(self, a):
        p = self.p
        if self.e == 1:
            return (-a) % p
        if p == 2:
            return a
        return _undigits([(-x) % p for x in _digits(a, p, self.e)], p)

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

    # -- table management ----------------------------------------------------

    def _build_flat(self):
        self._ensure_exp_log()
        q = self.q
        exp, log = self._exp, self._log
        span = q - 1
        els = range(q)
        if self._zech is not None:
            # add() takes the Zech path while _add_flat is still unset
            neg, add_fn = self._neg_list, self.add
        else:
            neg, add_fn = [self._neg_raw(a) for a in els], self._add_raw
        add = [add_fn(a, b) for a in els for b in els]
        mul = [0] * q
        for a in range(1, q):
            la = log[a]
            mul.append(0)
            mul.extend(exp[(la + log[b]) % span] for b in range(1, q))
        self._sub_flat = [add[a * q + nb] for a in els for nb in neg]
        self._add_flat = add
        self._mul_flat = mul
        self._neg_list = neg

    def _ensure_exp_log(self):
        if self._exp is not None:
            return
        q = self.q
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
        g = None
        for cand in range(1, q):
            if all(self._pow_raw(cand, span // f) != 1 for f in fs):
                g = cand
                break
        if g is None:
            raise ReducibleModulus(f"{self!r} has no primitive element")
        exp = [0] * span
        acc = 1
        for i in range(span):
            exp[i] = acc
            acc = self._mul_raw(acc, g)
        log = [0] * q
        for i, v in enumerate(exp):
            log[v] = i
        self._exp = exp
        self._log = log
        self._inv_list = [0] + [exp[(span - log[a]) % span] for a in range(1, q)]
        if self.e > 1 and self.p != 2:
            p = self.p
            half = span // 2
            # 1 + x changes only coefficient 0 of x
            zech = [log[x - x % p + (x + 1) % p] for x in exp]
            zech[half] = -1  # g^half = -1, so 1 + g^half = 0 has no log
            self._zech = zech
            self._neg_list = [0] + [exp[(log[a] + half) % span] for a in range(1, q)]

    def warm(self):
        """Build the fast lookup paths up front (idempotent)."""
        self._ensure_exp_log()
        if self.q <= FLAT_TABLE_CAP and self._mul_flat is None:
            self._build_flat()
        return self

    def flat_ops(self):
        """(add, sub, mul, neg, inv) flat tables for small q, else None."""
        if self.q > FLAT_TABLE_CAP:
            return None
        if self._mul_flat is None:
            self.warm()
        return (self._add_flat, self._sub_flat, self._mul_flat, self._neg_list, self._inv_list)

    # -- public arithmetic -----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        t = self._add_flat
        if t is not None:
            return t[a * self.q + b]
        z = self._zech
        if z is not None:
            if not a:
                return b
            if not b:
                return a
            log = self._log
            la = log[a]
            # z has q - 1 entries, so a negative index wraps mod q - 1
            s = z[log[b] - la]
            if s < 0:
                return 0
            return self._exp[(la + s) % (self.q - 1)]
        if self.q <= FLAT_TABLE_CAP:
            self.warm()
            return self._add_flat[a * self.q + b]
        return self._add_raw(a, b)

    def sub(self, a: int, b: int) -> int:
        t = self._sub_flat
        if t is not None:
            return t[a * self.q + b]
        n = self._neg_list
        return self.add(a, n[b] if n is not None else self._neg_raw(b))

    def neg(self, a: int) -> int:
        t = self._neg_list
        if t is not None:
            return t[a]
        return self._neg_raw(a)

    def mul(self, a: int, b: int) -> int:
        t = self._mul_flat
        if t is not None:
            return t[a * self.q + b]
        if self.q <= FLAT_TABLE_CAP:
            self.warm()
            return self._mul_flat[a * self.q + b]
        if self._exp is not None:
            if a == 0 or b == 0:
                return 0
            return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]
        return self._mul_raw(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroInverse(f"zero has no inverse in {self!r}")
        t = self._inv_list
        if t is not None:
            return t[a]
        if self.q <= FLAT_TABLE_CAP:
            self.warm()
            return self._inv_list[a]
        if self._exp is not None:
            return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]
        return self._pow_raw(a, self.q - 2)

    def pow(self, a: int, k: int) -> int:
        if k < 0:
            return self.pow(self.inv(a), -k)
        r = 1
        x = a
        while k:
            if k & 1:
                r = self.mul(r, x)
            x = self.mul(x, x)
            k >>= 1
        return r

    def is_sign(self, a: int) -> bool:
        """Whether a is 1 or -1 (these coincide in characteristic 2)."""
        return a == 1 or a == self.minus_one

    def signs(self) -> tuple[int, ...]:
        return (1,) if self.p == 2 else (1, self.minus_one)

    def random_element(self, rng) -> int:
        return rng.randrange(self.q)


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
    elif e > 1 and is_prime(p) and p**e <= MAX_ORDER and e <= MAX_DEGREE:
        mod = default_modulus(p, e)
    else:
        mod = None
    return _field_cached(p, e, mod)


class Element:
    """A field element bound to its context, with operator sugar.

    Internally the package works on raw canonical ints for speed; this
    wrapper is the convenient public face for scripting and tests.
    """

    __slots__ = ("field", "val")

    def __init__(self, fld: Field, val: int):
        fld._check(val)
        self.field = fld
        self.val = val

    def _coerce(self, other) -> int:
        if isinstance(other, Element):
            if other.field != self.field:
                raise FieldMismatch(f"{self.field!r} vs {other.field!r}")
            return other.val
        if isinstance(other, int):
            self.field._check(other)
            return other
        raise TypeError(f"cannot combine Element with {type(other).__name__}")

    def __add__(self, other):
        return Element(self.field, self.field.add(self.val, self._coerce(other)))

    def __sub__(self, other):
        return Element(self.field, self.field.sub(self.val, self._coerce(other)))

    def __mul__(self, other):
        return Element(self.field, self.field.mul(self.val, self._coerce(other)))

    def __neg__(self):
        return Element(self.field, self.field.neg(self.val))

    def __pow__(self, k: int):
        return Element(self.field, self.field.pow(self.val, k))

    def inverse(self):
        return Element(self.field, self.field.inv(self.val))

    def is_sign(self) -> bool:
        return self.field.is_sign(self.val)

    def __eq__(self, other):
        if isinstance(other, Element):
            return self.field == other.field and self.val == other.val
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.val))

    def __repr__(self):
        return f"{self.field!r}({self.val})"
