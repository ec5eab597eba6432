import pytest

from ceq.core import Tag, diag_allowed
from ceq.errors import DimMismatch, FieldMismatch, NotSquare, Singular
from ceq.field import field
from ceq.matrix import (
    Mat,
    Mono,
    Perm,
    column_multiplicity_profile,
    max_column_multiplicity,
    row_basis_transform,
    strip_zero_columns,
)
from ceq.rng import stream

from helpers import mono_from_perm, of_rank, with_zero_columns, zeros

F2 = field(2)
F3 = field(3)
F5 = field(5)


def rand_mat(fld, k, n, rng):
    return Mat(fld, [[rng.randrange(fld.q) for _ in range(n)] for _ in range(k)], n)


def dense(m):
    """The n x n matrix of a monomial action: column c holds diag[sigma(c)]
    in row sigma(c)."""
    n = m.n
    rows = [[0] * n for _ in range(n)]
    for c, s in enumerate(m.perm.sigma):
        rows[s][c] = m.diag[s]
    return Mat(m.field, rows, n)


def rand_invertible(fld, k, rng):
    while True:
        m = rand_mat(fld, k, k, rng)
        if m.is_invertible():
            return m


def test_mul_identity():
    a = Mat(F3, [[1, 2, 0], [0, 1, 1]])
    assert Mat.identity(F3, 2).mul(a) == a
    assert a.mul(Mat.identity(F3, 3)) == a


def test_mul_shape_and_field_errors():
    a = Mat(F3, [[1, 2]])
    with pytest.raises(DimMismatch):
        a.mul(a)
    with pytest.raises(FieldMismatch):
        a.mul(Mat(F5, [[1], [2]]))


def test_apply_mono_equals_dense_product():
    rng = stream(11, "mono")
    for fld in (F2, F3, F5, field(2, 2)):
        for _ in range(25):
            k = rng.randrange(1, 4)
            n = rng.randrange(1, 6)
            a = rand_mat(fld, k, n, rng)
            sigma = list(range(n))
            rng.shuffle(sigma)
            diag = tuple(rng.randrange(1, fld.q) for _ in range(n))
            m = Mono(fld, Perm(tuple(sigma)), diag)
            assert a.apply_mono(m) == a.mul(dense(m))


def test_apply_mono_identity_is_noop():
    a = Mat(F5, [[1, 2, 3], [4, 0, 1]])
    assert a.apply_mono(Mono.identity(F5, 3)) == a


def test_mono_swap_scale_example():
    # I2 over F_3 under the action with sigma = swap and D = diag(1, 2):
    # column 0 comes from source 1 scaled by diag[1]=2, column 1 from source 0.
    a = Mat.identity(F3, 2)
    m = Mono(F3, Perm((1, 0)), (1, 2))
    out = a.apply_mono(m)
    assert out.cols() == ((0, 2), (1, 0))
    assert out == a.mul(dense(m))


def test_perm_convention_roundtrip():
    # pins (A*P)[i] = A[sigma(i)]
    a = Mat(F5, [[1, 2, 3]])
    p = Perm((2, 0, 1))
    moved = a.apply_mono(mono_from_perm(F5, p))
    assert moved.rows[0] == (3, 1, 2)
    assert moved == a.mul(dense(mono_from_perm(F5, p)))
    inverse = Perm(tuple(p.sigma.index(i) for i in range(p.n)))
    back = moved.apply_mono(mono_from_perm(F5, inverse))
    assert back == a


def test_rref_examples():
    r, rank, piv = Mat(F2, [[1, 1], [0, 1]]).rref()
    assert r == Mat.identity(F2, 2) and rank == 2 and piv == (0, 1)
    r, rank, piv = zeros(F2, 2, 3).rref()
    assert rank == 0 and piv == () and r == zeros(F2, 2, 3)
    r, rank, piv = Mat(F5, [[1, 2], [2, 4]]).rref()
    assert r.rows == ((1, 2), (0, 0)) and rank == 1


def test_rref_idempotent_and_transform():
    rng = stream(5, "rref")
    for _ in range(40):
        fld = rng.choice([F2, F3, F5])
        a = rand_mat(fld, rng.randrange(0, 4), rng.randrange(0, 5), rng)
        r, rank, piv = a.rref()
        assert r.rref()[0] == r
        assert list(piv) == sorted(piv)
        r2, rank2, piv2, u = a.rref_with_transform()
        assert (r2, rank2, piv2) == (r, rank, piv)
        assert u.is_invertible()
        assert u.mul(a) == r


def test_inverse_examples():
    i3 = Mat.identity(F3, 3)
    assert i3.inv() == i3
    a = Mat(F2, [[1, 1], [0, 1]])
    assert a.inv() == a  # self-inverse: check by squaring
    assert a.mul(a) == Mat.identity(F2, 2)
    with pytest.raises(Singular):
        Mat(F2, [[1, 1], [1, 1]]).inv()
    with pytest.raises(NotSquare):
        Mat(F2, [[1, 0]]).inv()


def test_row_basis_transform_examples():
    i2 = Mat.identity(F2, 2)
    b = Mat(F2, [[0, 1], [1, 0]])
    assert row_basis_transform(i2, b) == b
    assert row_basis_transform(b, b) == Mat.identity(F2, 2)
    s = row_basis_transform(Mat(F5, [[1, 2]]), Mat(F5, [[2, 4]]))
    assert s.rows == ((2,),)
    assert row_basis_transform(Mat(F2, [[1, 0]]), Mat(F2, [[1, 1]])) is None
    # rank-deficient pair: S is not unique, but one invertible S exists
    a = Mat(F5, [[1, 2], [2, 4]])
    s = row_basis_transform(a, a)
    assert s is not None and s.is_invertible() and s.mul(a) == a


def test_row_basis_transform_property():
    rng = stream(9, "cob")
    for _ in range(30):
        fld = rng.choice([F2, F3, F5])
        k = rng.randrange(1, 4)
        n = rng.randrange(k, k + 3)
        a = rand_mat(fld, k, n, rng)
        if a.rank() != k:
            continue
        s = rand_invertible(fld, k, rng)
        b = s.mul(a)
        # full row rank: the change of basis is unique
        assert row_basis_transform(a, b) == s


def test_row_basis_transform_any_rank():
    fields = [F2, F3, field(2, 2), F5, field(3, 6), field(65521)]
    rng = stream(13, "rbt")
    for _ in range(30):
        fld = rng.choice(fields)
        k = rng.randrange(1, 4)
        n = rng.randrange(1, 5)
        a = rand_mat(fld, k, n, rng)
        s = rand_invertible(fld, k, rng)
        b = s.mul(a)
        t = row_basis_transform(a, b)
        assert t is not None and t.is_invertible() and t.mul(a) == b
    # the backtracker's shape: r pinned pairs as the columns of two k x r
    # matrices of full column rank, r from 0 to k, k = 0 included
    shapes = set()
    for fld in fields:
        for k in range(5):
            for r in range(k + 1):
                for _ in range(3):
                    x = rand_mat(fld, k, r, rng)
                    while x.rank() != r:
                        x = rand_mat(fld, k, r, rng)
                    s = rand_invertible(fld, k, rng)
                    y = s.mul(x)
                    t = row_basis_transform(x, y)
                    assert t is not None and t.is_invertible() and t.mul(x) == y
                    if r == k:
                        assert t == s
                    shapes.add((fld.q, k, r))
    assert len(shapes) == len(fields) * 15


def _transform_reference(a, b):
    """S = U_b^-1 * U_a from both transformed RREFs, on fresh copies."""
    ra, rank_a, _, ua = Mat(a.field, a.rows, a.n).rref_with_transform()
    rb, rank_b, _, ub = Mat(b.field, b.rows, b.n).rref_with_transform()
    if rank_a != rank_b or ra != rb:
        return None
    return ub.inv().mul(ua)


def test_row_basis_transform_matches_the_reference():
    # full-rank, short-rank and span-mismatch pairs, square ones among
    # them, plus square pairs where exactly one side is singular; b fresh,
    # or holding its plain RREF, or only the transformed one, or only its
    # recorded rank
    fields = [F2, F3, field(2, 2), F5, field(2, 8), field(3, 5), field(65521)]
    rng = stream(20261019, "rbt-reference")
    kinds = {"full": 0, "short": 0, "mismatch": 0, "square singular a": 0, "square singular b": 0}
    for fld in fields:
        for k in range(5):
            for n in range(k, k + 4):
                for r in sorted({k, max(k - 1, 0), max(k - 2, 0)}):
                    a = of_rank(fld, k, min(r, n), n, rng)
                    pairs = [(a, rand_invertible(fld, k, rng).mul(a))]
                    other = of_rank(fld, k, min(r, n), n, rng)
                    if other.rref()[0] != a.rref()[0]:
                        pairs.append((a, other))
                    if n == k and r == k - 1:
                        singular, invertible = a, rand_invertible(fld, k, rng)
                        pairs += [(singular, invertible), (invertible, singular)]
                    for x, y in pairs:
                        want = _transform_reference(x, y)
                        if x.n == k and x.rank() != y.rank():
                            kind = "square singular a" if x.rank() < k else "square singular b"
                            assert want is None
                        else:
                            kind = "mismatch" if want is None else "full" if x.rank() == k else "short"
                        kinds[kind] += 1
                        for hold in (None, "rref", "rref_with_transform", "rank"):
                            fresh_x, fresh_y = Mat(fld, x.rows, n), Mat(fld, y.rows, n)
                            if hold == "rank":
                                fresh_y.memo("rank", y.rank)
                            elif hold:
                                getattr(fresh_y, hold)()
                            got = row_basis_transform(fresh_x, fresh_y)
                            assert got == want
                            if got is not None:
                                assert got.mul(x) == y and got.is_invertible()
    assert min(kinds.values()) >= 25, kinds
    assert min(kinds["full"], kinds["short"], kinds["mismatch"]) >= 100, kinds


def test_identical_columns_preserved_by_invertible_maps():
    # invertible row maps keep the column equality pattern intact
    rng = stream(17, "bijection")
    for _ in range(30):
        fld = rng.choice([F2, F3, F5])
        k = rng.randrange(1, 4)
        a = rand_mat(fld, k, rng.randrange(1, 6), rng)
        s = rand_invertible(fld, k, rng)
        cols, s_cols = a.cols(), s.mul(a).cols()
        for i in range(a.n):
            for j in range(a.n):
                assert (cols[i] == cols[j]) == (s_cols[i] == s_cols[j])


def test_column_profile_examples():
    assert column_multiplicity_profile(Mat.identity(F2, 2)) == (1, 1)
    assert max_column_multiplicity(Mat.identity(F2, 2)) == 1
    a = Mat(F2, [[1, 1, 0]])
    assert column_multiplicity_profile(a) == (1, 2)
    assert max_column_multiplicity(a) == 2
    empty = zeros(F2, 2, 0)
    assert column_multiplicity_profile(empty) == ()
    assert max_column_multiplicity(empty) == 0


def test_column_profile_invariant_under_permutation():
    rng = stream(23, "profperm")
    for _ in range(25):
        fld = rng.choice([F2, F3])
        a = rand_mat(fld, rng.randrange(1, 4), rng.randrange(1, 7), rng)
        sigma = list(range(a.n))
        rng.shuffle(sigma)
        moved = a.apply_mono(mono_from_perm(fld, Perm(tuple(sigma))))
        assert column_multiplicity_profile(moved) == column_multiplicity_profile(a)


def test_strip_zero_columns_examples():
    m, removed = strip_zero_columns(Mat(F2, [[1, 0], [0, 0]]))
    assert m.rows == ((1,), (0,)) and removed == (1,)
    a = Mat(F3, [[1, 2], [0, 1]])
    m, removed = strip_zero_columns(a)
    assert m == a and removed == ()
    m, removed = strip_zero_columns(zeros(F2, 2, 3))
    assert (m.k, m.n) == (2, 0) and removed == (0, 1, 2)


def test_strip_zero_columns_returns_its_input_when_nothing_is_zero():
    rng = stream(19, "strip")
    for fld in (F2, F5, field(2, 8), field(65521)):
        for k, n in ((0, 0), (1, 1), (2, 4), (3, 6)):
            # no zero entry, so no zero column
            a = Mat(fld, [[rng.randrange(1, fld.q) for _ in range(n)] for _ in range(k)], n)
            m, removed = strip_zero_columns(a)
            assert m is a and removed == ()
            b = with_zero_columns(a, rng.randrange(1, 3), rng)
            want_removed = tuple(j for j, c in enumerate(b.cols()) if not any(c))
            m, removed = strip_zero_columns(b)
            assert removed == want_removed and len(removed) == b.n - a.n
            assert m is not b and m == a
    # with no rows every column is zero
    m, removed = strip_zero_columns(zeros(F5, 0, 3))
    assert (m.k, m.n) == (0, 0) and removed == (0, 1, 2)


def test_rank_is_read_off_what_the_matrix_holds(monkeypatch):
    import pickle

    from ceq import matrix

    eliminations = []
    inner = matrix._eliminate
    monkeypatch.setattr(matrix, "_eliminate", lambda *a: eliminations.append(1) or inner(*a))
    rng = stream(19, "rank-memo")
    for fld in (F2, F5, field(3, 6)):
        for k, n in ((0, 0), (0, 3), (3, 0), (3, 5), (4, 4)):
            want = Mat(fld, rand_mat(fld, k, n, rng).rows, n)
            r = want.rank()
            # a fresh matrix eliminates once, and rank keeps no key of its
            # own next to the RREF
            a = Mat(fld, want.rows, n)
            del eliminations[:]
            assert a.rank() == a.rank() == r and len(eliminations) == 1
            assert set(a._memo) == {"rref"}
            # an RREF with the transform already held is read, not redone
            b = Mat(fld, want.rows, n)
            b.rref_with_transform()
            del eliminations[:]
            assert b.rank() == r and eliminations == [] and set(b._memo) == {"rref_t"}
            # a rank recorded through memo is read first; pickling drops it
            c = Mat(fld, want.rows, n)
            c.memo("rank", lambda: r)
            assert c.rank() == r and eliminations == [] and set(c._memo) == {"rank"}
            assert pickle.loads(pickle.dumps(c))._memo == {}


def test_degenerate_shapes_are_legal():
    empty_rows = Mat(F2, [], n=4)
    assert empty_rows.rank() == 0
    assert empty_rows.rref()[2] == ()
    empty_cols = zeros(F2, 3, 0)
    assert empty_cols.rank() == 0
    assert empty_cols.mul(Mat(F2, [], n=2)) == zeros(F2, 3, 2)
    assert column_multiplicity_profile(empty_rows) == (4,)


def test_perm_validation():
    with pytest.raises(DimMismatch):
        Perm((0, 0))
    with pytest.raises(DimMismatch):
        Mono(F2, Perm((0, 1)), (1,))
    with pytest.raises(ValueError):
        Mono(F3, Perm((0, 1)), (1, 0))


def test_perm_and_mono_store_tuples_of_ints():
    # a caller's list, floats or bools become a hashable tuple of plain
    # ints, or are refused
    p = Perm([1, 0])
    assert p.sigma == (1, 0) and type(p.sigma) is tuple
    assert hash(p) == hash(Perm((1, 0)))
    m = Mono(F3, Perm([0, True]), [1, True])
    assert m.perm.sigma == (0, 1) and m.diag == (1, 1)
    assert all(type(x) is int for x in m.perm.sigma + m.diag)
    assert hash(m) == hash(Mono.identity(F3, 2))
    for sigma in ((0, 1.0), (0, "1"), (0, None)):
        with pytest.raises(DimMismatch):
            Perm(sigma)
    for diag in ((1, 2.0), (1, "2"), (1, None)):
        with pytest.raises(ValueError):
            Mono(F3, Perm((0, 1)), diag)


def test_mat_rejects_non_integer_entries():
    for rows in ([[1.5, 2]], [[2.0, 2]], [["3", 2]], [[1, None]]):
        with pytest.raises(ValueError):
            Mat(F5, rows)
    a = Mat(F5, [[True, 2]])
    assert a.rows == ((1, 2),) and type(a.rows[0][0]) is int
    # a declared width is read like an entry, with or without rows
    for rows, n in (([], 2.5), ([], "2"), ([[1, 2]], 2.0)):
        with pytest.raises(ValueError, match="matrix entries and width must be integers"):
            Mat(F5, rows, n)
    for make in (lambda: Mat(F5, [], -3), lambda: Mat.identity(F5, -2)):
        with pytest.raises(ValueError, match="matrix width must be non-negative"):
            make()
    width = Mat(F5, [], True).n
    assert width == 1 and type(width) is int


def test_mono_class_predicates():
    m = Mono(F3, Perm((1, 0)), (1, 2))
    assert not m.is_permutation()
    assert diag_allowed(F3, Tag.SPCE, m.diag)
    assert Mono.identity(F3, 2).is_permutation()
    assert not diag_allowed(F5, Tag.SPCE, Mono(F5, Perm((0,)), (3,)).diag)


# ---------------------------------------------------------------------------
# trusted construction of computed results


def _assert_canonical(m):
    """m holds tuples of canonical ints and equals (and hashes like) the
    same rows passed through the validating constructor."""
    assert type(m.rows) is tuple
    for row in m.rows:
        assert type(row) is tuple and len(row) == m.n
        for x in row:
            assert type(x) is int and 0 <= x < m.field.q
    checked = Mat(m.field, m.rows, m.n)
    assert checked == m and hash(checked) == hash(m)
    assert (checked.k, checked.n) == (m.k, m.n)


def test_computed_results_match_validating_constructor():
    # byte-row primes and 2^e, a prime and 2^e above 256, odd p^e fields
    fields = [F2, F5, field(65521), field(2, 2), field(3, 2), field(2, 16), field(3, 5)]
    rng = stream(13, "trusted")
    for fld in fields:
        for k, n in ((0, 3), (3, 0), (1, 1), (2, 5), (4, 4), (3, 7)):
            a = rand_mat(fld, k, n, rng)
            b = rand_mat(fld, n, rng.randrange(0, 4), rng)
            # a zero column for strip_zero_columns to drop
            rows = [list(r) for r in a.rows]
            if n:
                for r in rows:
                    r[rng.randrange(n)] = 0
            z = Mat(fld, rows, n)
            sigma = list(range(n))
            rng.shuffle(sigma)
            mono = Mono(fld, Perm(tuple(sigma)), tuple(rng.randrange(1, fld.q) for _ in range(n)))
            r, _, _ = z.rref()
            rt, _, _, u = z.rref_with_transform()
            for m in (
                a.mul(b),
                a.scale(rng.randrange(fld.q)),
                a.apply_mono(mono),
                r,
                rt,
                u,
                strip_zero_columns(z)[0],
            ):
                _assert_canonical(m)


def test_scale_rejects_non_element():
    a = Mat(F5, [[1, 2]])
    for bad in (-1, 5):
        with pytest.raises(ValueError):
            a.scale(bad)


def test_trusted_mat_survives_pickle():
    import pickle

    fld = field(3, 2)
    rng = stream(14, "trusted-pickle")
    a = rand_mat(fld, 3, 5, rng)
    for m in (a.mul(rand_mat(fld, 5, 4, rng)), a.rref()[0], strip_zero_columns(a)[0]):
        m.rref()
        back = pickle.loads(pickle.dumps(m))
        assert back == m and hash(back) == hash(m)
        assert back._rref is None and back._memo == {}
        _assert_canonical(back)


# ---------------------------------------------------------------------------
# the per-matrix memo


def _with_repeats(fld, k, n, rng):
    """A k x n matrix whose columns are drawn from few values, so that
    some repeat."""
    pool = [tuple(rng.randrange(fld.q) for _ in range(k)) for _ in range(max(1, n // 2))]
    cols = [rng.choice(pool) for _ in range(n)]
    return Mat(fld, [[col[i] for col in cols] for i in range(k)], n)


def test_memoized_views_equal_a_fresh_recomputation():
    rng = stream(17, "memo-views")
    for fld in (F2, F5, field(2, 16), field(3, 6)):
        for k, n in ((0, 0), (0, 3), (3, 0), (1, 1), (3, 7), (4, 9)):
            a = _with_repeats(fld, k, n, rng)
            views = (a.rref(), a.rref_with_transform(), a.cols(), a.distinct_cols())
            # a second call returns the memoized objects
            again = (a.rref(), a.rref_with_transform(), a.cols(), a.distinct_cols())
            assert all(x is y for x, y in zip(views, again))
            fresh = Mat(fld, a.rows, n)
            assert fresh._memo == {}
            assert views[0] == fresh.rref() and views[1] == fresh.rref_with_transform()
            r, _, _, u = views[1]
            assert u.mul(a) == r == views[0][0]
            cols = tuple(tuple(row[j] for row in a.rows) for j in range(n))
            assert views[2] == cols
            d, slots = views[3]
            distinct = list(dict.fromkeys(cols))
            assert (d.k, d.n) == (k, len(distinct)) and d.cols() == tuple(distinct)
            assert slots == tuple(distinct.index(c) for c in cols)
            # equality and hashing ignore the memo
            assert a == fresh and hash(a) == hash(fresh)


def test_expand_gathers_columns_by_slot_and_records_the_view():
    # Mat._expand(view, slots) has column j equal to column slots[j] of
    # view, with view and slots recorded as what a fresh copy finds; a
    # single slot and no slot are the cases itemgetter does not cover
    rng = stream(43, "expand")
    for fld in (F2, F5, field(2, 16), field(3, 6)):
        for k, n in ((0, 0), (0, 1), (2, 0), (2, 1), (1, 3), (3, 7), (4, 9)):
            view, slots = _with_repeats(fld, k, n, rng).distinct_cols()
            out = Mat._expand(view, slots)
            want = [[row[s] for s in slots] for row in view.rows]
            assert [list(r) for r in out.rows] == want and (out.k, out.n) == (k, n)
            assert all(type(r) is tuple for r in out.rows)
            assert out.distinct_cols() == (view, slots) == Mat(fld, want, n).distinct_cols()
            assert out.distinct_cols()[0] is view


def test_cols_cannot_be_mutated():
    a = Mat(F5, [[1, 2, 1], [3, 4, 3]])
    cols = a.cols()
    assert type(cols) is tuple and all(type(c) is tuple for c in cols)
    with pytest.raises(TypeError):
        cols[0] = (0, 0)
    with pytest.raises(TypeError):
        cols[0][0] = 0
    d, slots = a.distinct_cols()
    assert type(slots) is tuple and slots == (0, 1, 0)
    with pytest.raises(TypeError):
        slots[0] = 1
    assert a.cols() == ((1, 3), (2, 4), (1, 3)) and d.cols() == ((1, 3), (2, 4))


def test_memo_keeps_one_value_per_key():
    a = Mat(F5, [[1, 2]])
    calls = []

    def make(tag):
        def inner():
            calls.append(tag)
            return object()
        return inner

    x = a.memo(("k", 1), make(1))
    assert a.memo(("k", 1), make(2)) is x
    y = a.memo(("k", 2), make(3))
    assert y is not x and calls == [1, 3]


def test_pickle_drops_every_memoized_view():
    import pickle

    fld = field(3, 6)
    a = _with_repeats(fld, 3, 8, stream(18, "memo-pickle"))
    a.rref(), a.rref_with_transform(), a.cols(), a.distinct_cols(), a.memo("x", lambda: 1)
    assert a._rref is not None and a._rref_t is not None and len(a._memo) == 5
    back = pickle.loads(pickle.dumps(a))
    assert back == a and hash(back) == hash(a)
    assert back._memo == {} and back._rref is None and back._rref_t is None
    assert back.distinct_cols()[1] == a.distinct_cols()[1]
