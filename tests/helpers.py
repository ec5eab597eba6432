"""Constructors that only the tests use."""

from ceq.matrix import Mat


def zeros(fld, k: int, n: int) -> Mat:
    """The k x n zero matrix; k x 0 and 0 x n are allowed."""
    return Mat(fld, [(0,) * n for _ in range(k)], n)


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
