"""Constructors and reference arithmetic that only the tests use."""

import os
from pathlib import Path

import ceq
from ceq.matrix import Mat, Mono


def src_env() -> dict:
    """The environment with this checkout's package directory first on
    PYTHONPATH, for a test's child interpreters."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(ceq.__file__).parent.parent),
                                                      env.get("PYTHONPATH")]))
    return env


def zeros(fld, k: int, n: int) -> Mat:
    """The k x n zero matrix; k x 0 and 0 x n are allowed."""
    return Mat(fld, [(0,) * n for _ in range(k)], n)


def of_rank(fld, k: int, r: int, n: int, rng) -> Mat:
    """A random k x n matrix of rank r <= min(k, n): r independent rows
    and k - r rows from their span (one of them zero when k >= r + 2),
    in shuffled order."""
    while True:
        base = Mat(fld, [[rng.randrange(fld.q) for _ in range(n)] for _ in range(r)], n)
        if base.rank() == r:
            break
    coeffs = [[rng.randrange(fld.q) for _ in range(r)] for _ in range(k - r)]
    if k - r >= 2:
        coeffs[0] = [0] * r
    extra = Mat(fld, coeffs, r).mul(base).rows
    rows = list(base.rows) + list(extra)
    rng.shuffle(rows)
    return Mat(fld, rows, n)


def mono_from_perm(fld, perm) -> Mono:
    """The monomial action of perm with every scalar 1."""
    return Mono(fld, perm, (1,) * perm.n)


def with_zero_columns(a: Mat, count: int, rng) -> Mat:
    """a with count zero columns inserted at random positions."""
    cols = list(a.cols())
    for _ in range(count):
        cols.insert(rng.randrange(len(cols) + 1), (0,) * a.k)
    return Mat(a.field, [[c[i] for c in cols] for i in range(a.k)], len(cols))


def encode(fld, coeffs) -> int:
    """Pack a little-endian coefficient vector over F_p into the canonical
    int of its GF(p^e) element."""
    if len(coeffs) > fld.e:
        raise ValueError("too many coefficients")
    if any(not (0 <= c < fld.p) for c in coeffs):
        raise ValueError("coefficients must lie in [0, p)")
    x = 0
    for c in reversed(coeffs):
        x = x * fld.p + c
    return x


def add_raw(fld, a: int, b: int) -> int:
    """a + b digit by digit over F_p, without the field's tables."""
    p = fld.p
    out, scale = 0, 1
    for _ in range(fld.e):
        a, x = divmod(a, p)
        b, y = divmod(b, p)
        out += (x + y) % p * scale
        scale *= p
    return out


def neg_raw(fld, a: int) -> int:
    """-a digit by digit over F_p, without the field's tables."""
    p = fld.p
    out, scale = 0, 1
    for _ in range(fld.e):
        a, x = divmod(a, p)
        out += (-x) % p * scale
        scale *= p
    return out
