"""Dense matrices over a finite field, plus permutation and monomial actions.

Column-action convention, used everywhere and pinned by tests:

    (A * P)[i] = A[sigma(i)]

i.e. column i of the permuted matrix is column sigma(i) of the original.
A monomial matrix factors as M = D * P with D = diag(d_1..d_n), so

    (A * M)[i] = d[sigma(i)] * A[sigma(i)]

with the diagonal indexed by *source* column. Degenerate shapes (zero
rows or zero columns) are legal in every operation.

Validation happens at the boundary: the public constructor `Mat(...)`,
unpickling and the file parser take every entry as an integer (a float
or a string is refused, not truncated or parsed) and check that it is a
canonical element of the field. Rows the package computes
itself (products, scalings, monomial actions, eliminations, column
selections, the views the gadget and preprocessing's normalized
matrices are expanded from, and the generator's draws of `randrange(q)`
entries) are canonical by construction and go through the trusted
`Mat._of`, which only freezes them, or `Mat._expand`, which builds on
it. `Perm` and `Mono` are immutable `Record`s whose constructors store
sigma and the diagonal as tuples of ints and check that sigma is a
bijection and the diagonal non-zero; the trusted `Record._of`, as
`Perm._of` and `Mono._of`, takes tuples the package built as such itself
(the reduction's lifted and extracted actions, and the generator's
planted action: a shuffled range(n) and units from `core.scalars`) and
checks nothing.

A `Mat` never changes, so what depends on its rows alone is computed
once per matrix and kept in its memo: the RREF with and without the
transform, the columns, the distinct-column view, and what other modules
store through `Mat.memo`: the reduction keeps its gadgets there, and
preprocessing, the gadget, the planted generator and the backtracker's
witness record under "rank" the ranks they know by construction, so
that `rank` and `row_basis_transform` find them without an RREF. The
latter has two branches by b's rank: one elimination at full row rank,
two transforms, an inverse and a product below it. Preprocessing
row-reduces each stripped matrix through its distinct-column view D:
the RREF with the transform lives in D's memo, not the stripped
matrix's, and is the elimination of [D | I_k], d + k columns wide
instead of n + k (a repeated column never pivots, so the row
operations, rank and transform are the full matrix's). A matrix known
by its distinct columns is built by the trusted `Mat._expand(view,
slots)`, which records (view, slots) as its distinct-column view:
preprocessing's normalized matrices are expanded from D's reduced
rows, and the gadget from the view the reduction derives from its
input's, so no pass over the columns finds either view. Only this
module reads or writes the memo directly, and `_expand` alone records
a view that `distinct_cols` did not find. Pickling and every constructor start with an
empty one, and `==` and `hash` ignore it.
"""

from __future__ import annotations

from operator import index, itemgetter
from typing import Optional

from .errors import DimMismatch, FieldMismatch, NotSquare, Singular
from .field import Field
from .record import Record

# the largest dimension a file or the generator may declare: a wide margin
# over the tests, tools and benchmarks (256 columns read, 1,200 built), and
# a rowless pair this wide is read, reduced and decided within a second
MAX_DIM = 1 << 16


class Mat:
    """Immutable k x n matrix; entries are canonical field ints."""

    __slots__ = ("field", "k", "n", "rows", "_memo")

    def __init__(self, fld: Field, rows, n: Optional[int] = None):
        try:
            # lists first: see the note above `cols` on tuples of unknown length
            rows = tuple([tuple([*map(index, r)]) for r in rows])
            n = n if n is None else index(n)
        except TypeError as exc:
            raise ValueError(f"matrix entries and width must be integers: {exc}") from None
        k = len(rows)
        if k:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise DimMismatch("ragged rows")
            if n is not None and n != width:
                raise DimMismatch(f"declared width {n} but rows have {width}")
            n = width
        elif n is None:
            n = 0
        elif n < 0:
            raise ValueError(f"matrix width must be non-negative, got {n}")
        q = fld.q
        for r in rows:
            for x in r:
                if not (0 <= x < q):
                    raise ValueError(f"entry {x} not in {fld!r}")
        self.field = fld
        self.k = k
        self.n = n
        self.rows = rows
        self._memo = {}

    @classmethod
    def _of(cls, fld: Field, rows, n: int) -> "Mat":
        """Trusted constructor for rows the package computed itself: each
        row has n canonical field ints. Freezes the rows, checks nothing."""
        self = object.__new__(cls)
        self.rows = rows = tuple([*map(tuple, rows)])
        self.field = fld
        self.k = len(rows)
        self.n = n
        self._memo = {}
        return self

    @classmethod
    def _expand(cls, view: "Mat", slots: tuple[int, ...]) -> "Mat":
        """Trusted constructor for the matrix whose column j is column
        slots[j] of view, where view's columns are distinct and first
        occur in slot order; (view, slots) is recorded as its
        distinct-column view. Each row is gathered by one itemgetter."""
        n = len(slots)
        # itemgetter of one index returns the entry, not a tuple, and of
        # none raises; slots first occur in order, so one slot is slot 0
        take = itemgetter(*slots) if n > 1 else lambda r: r[:n]
        self = cls._of(view.field, [take(r) for r in view.rows], n)
        self._memo["distinct_cols"] = (view, slots)
        return self

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls, fld: Field, k: int) -> "Mat":
        return cls(fld, tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k)), k)

    # -- plumbing --------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.field == other.field
            and self.n == other.n
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.n, self.rows))

    def __repr__(self):
        return f"Mat({self.field!r}, {self.k}x{self.n})"

    def __reduce__(self):
        return (Mat, (self.field, self.rows, self.n))

    # -- memoized views --------------------------------------------------------

    def memo(self, key, make):
        """make(), computed at the first call with this key and kept: make
        must depend on nothing but key and this matrix's rows."""
        memo = self._memo
        if key not in memo:
            memo[key] = make()
        return memo[key]

    # the benchmark's tracer (perfbench/tracing.py) reads these two to
    # count the RREF calls that find their result memoized
    @property
    def _rref(self):
        return self._memo.get("rref")

    @property
    def _rref_t(self):
        return self._memo.get("rref_t")

    # the views here and the RREFs below read the memo inline rather than
    # through `memo`: the deciders' inner loops call them on small
    # matrices, where a method call per hit shows

    # CPython builds tuple(iterator) of unknown length by resizing, so each
    # such tuple is later freed into the free list of a size it was not
    # taken from; over many matrices those free lists fill to their cap
    # and hold memory. The views, both constructors of Mat and the
    # validating ones of Perm and Mono build a list first, so that a tuple
    # goes back to the free list it came from.

    def cols(self) -> tuple:
        """The columns, as a tuple of tuples."""
        memo = self._memo
        if "cols" not in memo:
            memo["cols"] = tuple([*zip(*self.rows)]) if self.k else ((),) * self.n
        return memo["cols"]

    def distinct_cols(self) -> tuple["Mat", tuple[int, ...]]:
        """(D, slots): D holds the distinct columns in order of first
        occurrence, and column j is column slots[j] of D."""
        memo = self._memo
        if "distinct_cols" not in memo:
            cols = self.cols()
            slot: dict[tuple, int] = {}
            for c in cols:
                slot.setdefault(c, len(slot))
            rows = zip(*slot) if slot else [()] * self.k
            memo["distinct_cols"] = (
                Mat._of(self.field, rows, len(slot)),
                tuple([slot[c] for c in cols]),
            )
        return memo["distinct_cols"]

    # -- arithmetic --------------------------------------------------------------

    def _same_field(self, other: "Mat"):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field!r} vs {other.field!r}")

    def mul(self, other: "Mat") -> "Mat":
        """The product self * other, by the field's bound `matmul` kernel,
        which packs rows of small fields into ints. Like every matrix
        routine it never reads the field's tables."""
        self._same_field(other)
        if self.n != other.k:
            raise DimMismatch(f"{self.k}x{self.n} times {other.k}x{other.n}")
        return Mat._of(self.field, self.field.matmul(self.rows, other.rows, other.n), other.n)

    def scale(self, a: int) -> "Mat":
        if not (0 <= a < self.field.q):
            raise ValueError(f"scalar {a} not in {self.field!r}")
        scale = self.field.scale
        return Mat._of(self.field, [scale(a, r) for r in self.rows], self.n)

    def apply_mono(self, m: "Mono") -> "Mat":
        """A * M by column relocation and scaling; no dense n x n product."""
        if m.field != self.field:
            raise FieldMismatch(f"{self.field!r} vs {m.field!r}")
        if m.n != self.n:
            raise DimMismatch(f"matrix has {self.n} columns, action has {m.n}")
        sigma = m.perm.sigma
        diag = m.diag
        mul = self.field.mul
        out = [
            [mul(diag[s], row[s]) for s in sigma]
            for row in self.rows
        ]
        return Mat._of(self.field, out, self.n)

    # -- elimination -----------------------------------------------------------

    def rref(self):
        """(R, rank, pivots): the unique reduced row echelon form."""
        memo = self._memo
        if "rref" not in memo:
            rows, rank, piv = _eliminate(self.field, list(self.rows), self.n)
            memo["rref"] = (Mat._of(self.field, rows, self.n), rank, tuple(piv))
        return memo["rref"]

    def rref_with_transform(self):
        """(R, rank, pivots, U) with U invertible and U * self = R."""
        memo = self._memo
        if "rref_t" not in memo:
            k, n = self.k, self.n
            aug = [list(r) + [1 if i == j else 0 for j in range(k)] for i, r in enumerate(self.rows)]
            rows, rank, piv = _eliminate(self.field, aug, n)
            r_mat = Mat._of(self.field, [row[:n] for row in rows], n)
            u_mat = Mat._of(self.field, [row[n:] for row in rows], k)
            memo["rref_t"] = (r_mat, rank, tuple(piv), u_mat)
        return memo["rref_t"]

    def rank(self) -> int:
        """Read off a rank recorded through `memo` under "rank" or an RREF
        already held, with or without the transform; else one RREF."""
        memo = self._memo
        if "rank" in memo:
            return memo["rank"]
        held = memo.get("rref") or memo.get("rref_t") or self.rref()
        return held[1]

    def is_invertible(self) -> bool:
        return self.k == self.n and self.rank() == self.n

    def inv(self) -> "Mat":
        if self.k != self.n:
            raise NotSquare(f"{self.k}x{self.n}")
        _, rank, _, u = self.rref_with_transform()
        if rank != self.n:
            raise Singular(f"rank {rank} < {self.n}")
        return u


def _eliminate(fld: Field, rows: list, n: int):
    """Gauss-Jordan on the first n columns; pivots scan columns left to
    right, first non-zero entry top to bottom. Extra columns ride along.
    Rows are replaced, never written into, so they may be tuples. A pivot
    row is zero left of its column, so the whole-row kernel calls change
    no entry left of it."""
    k = len(rows)
    inv, neg, axpy, scale = fld.inv, fld.neg, fld.axpy, fld.scale
    piv_cols = []
    r = 0
    for c in range(n):
        if r == k:
            break
        pr = None
        for i in range(r, k):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        head = rows[r][c]
        if head != 1:
            rows[r] = scale(inv(head), rows[r])
        prow = rows[r]
        for i in range(k):
            if i != r:
                f = rows[i][c]
                if f:
                    rows[i] = axpy(rows[i], neg(f), prow)
        piv_cols.append(c)
        r += 1
    return rows, r, piv_cols


# ---------------------------------------------------------------------------
# row-space relations


def row_basis_transform(a: Mat, b: Mat) -> Optional[Mat]:
    """Invertible S with S * a = b for any equal-shape pair with equal row
    span (works at any rank); None when the spans differ.

    b's rank is read from the memo or an RREF b holds; a fresh b takes its
    RREF with the transform, which the short-rank case reuses. When b has
    full row rank k, S is unique and S * a = b is a^T * S^T = b^T: one
    elimination of the n rows [a^T | b^T] on their first k columns gives
    [I | S^T] on the first k rows and [0 | 0] below them. A short rank on
    the left, or a non-zero row below, means the spans differ. At short
    rank S is not unique: from U_a * a = R = U_b * b, S = U_b^-1 * U_a.
    This is the package's only change-of-basis routine: the deciders
    recover every witness's S through it."""
    a._same_field(b)
    if a.k != b.k or a.n != b.n:
        raise DimMismatch(f"{a.k}x{a.n} vs {b.k}x{b.n}")
    k, memo = a.k, b._memo
    rank_b = memo["rank"] if "rank" in memo else (memo.get("rref") or b.rref_with_transform())[1]
    if rank_b == k:
        aug = [ca + cb for ca, cb in zip(zip(*a.rows), zip(*b.rows))]
        rows, rank, _ = _eliminate(a.field, aug, k)
        if rank < k or any(map(any, rows[k:])):
            return None
        return Mat._of(a.field, zip(*[row[k:] for row in rows[:k]]), k)
    ra, rank_a, _, ua = a.rref_with_transform()
    rb, _, _, ub = b.rref_with_transform()
    if rank_a != rank_b or ra != rb:
        return None
    return ub.inv().mul(ua)


# ---------------------------------------------------------------------------
# column statistics


def column_multiplicity_profile(a: Mat) -> tuple[int, ...]:
    """Sorted multiset of occurrence counts of the distinct column values,
    counted off the slots of the distinct-column view."""
    distinct, slots = a.distinct_cols()
    counts = [0] * distinct.n
    for s in slots:
        counts[s] += 1
    return tuple(sorted(counts))


def max_column_multiplicity(a: Mat) -> int:
    prof = column_multiplicity_profile(a)
    return prof[-1] if prof else 0


def strip_zero_columns(a: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Drop every all-zero column, preserving order; report dropped indices.
    With no zero column, a itself comes back, memoized views and all."""
    cols = a.cols()
    removed = tuple([j for j, c in enumerate(cols) if not any(c)])
    if not removed:
        return a, removed
    kept = [j for j, c in enumerate(cols) if any(c)]
    rows = [[r[j] for j in kept] for r in a.rows]
    return Mat._of(a.field, rows, len(kept)), removed


# ---------------------------------------------------------------------------
# permutation and monomial actions


class Perm(Record):
    """Column permutation in the (A*P)[i] = A[sigma(i)] convention; sigma
    is stored as a tuple of ints."""

    __slots__ = ("sigma",)

    def __init__(self, sigma: tuple[int, ...]):
        try:
            sigma = tuple([*map(index, sigma)])
        except TypeError:
            raise DimMismatch("permutation entries must be integers") from None
        n = len(sigma)
        if sorted(sigma) != list(range(n)):
            raise DimMismatch(f"not a bijection on [0,{n})")
        Record.__init__(self, sigma)

    @property
    def n(self) -> int:
        return len(self.sigma)

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls(tuple(range(n)))


class Mono(Record):
    """Monomial action M = D * P; diag holds D's diagonal (source-indexed)."""

    __slots__ = ("field", "perm", "diag")

    def __init__(self, field: Field, perm: Perm, diag: tuple[int, ...]):
        try:
            diag = tuple([*map(index, diag)])
        except TypeError:
            raise ValueError("diagonal entries must be integers") from None
        if len(diag) != perm.n:
            raise DimMismatch("diagonal length differs from permutation size")
        q = field.q
        for d in diag:
            if not (1 <= d < q):
                raise ValueError(f"diagonal entry {d} must be a non-zero element")
        Record.__init__(self, field, perm, diag)

    @property
    def n(self) -> int:
        return self.perm.n

    @classmethod
    def identity(cls, fld: Field, n: int) -> "Mono":
        return cls(fld, Perm.identity(n), (1,) * n)

    def is_permutation(self) -> bool:
        return all(d == 1 for d in self.diag)
