"""Constructors that only the tests use."""

from ceq.matrix import Mat


def zeros(fld, k: int, n: int) -> Mat:
    """The k x n zero matrix; k x 0 and 0 x n are allowed."""
    return Mat(fld, [(0,) * n for _ in range(k)], n)
