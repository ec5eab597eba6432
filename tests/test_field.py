from array import array

import pytest

from ceq import fileio
from ceq.cli import main
from ceq.errors import FormatError, NotPrime, ReducibleModulus, UnsupportedSize, ZeroInverse
from ceq.field import Field, field, default_modulus, is_prime
from ceq.rng import stream

from helpers import add_raw, encode, neg_raw


def test_make_prime_field():
    f = field(2)
    assert (f.p, f.e, f.q) == (2, 1, 2)
    assert f.modulus is None


def test_make_gf4_default_modulus():
    f = field(2, 2)
    # the unique irreducible quadratic over F_2
    assert f.modulus == (1, 1, 1)
    assert f.q == 4


def test_make_rejects_composite_characteristic():
    with pytest.raises(NotPrime):
        field(4)
    with pytest.raises(NotPrime):
        field(1)


def test_make_rejects_reducible_modulus():
    with pytest.raises(ReducibleModulus):
        field(2, 2, (1, 0, 1))  # x^2 + 1 = (x+1)^2 over F_2
    with pytest.raises(ReducibleModulus):
        field(2, 2, (0, 1, 1))  # x^2 + x has root 0
    with pytest.raises(ReducibleModulus):
        field(2, 2, (1, 1))  # wrong degree


def test_only_a_given_modulus_is_tested_for_irreducibility(monkeypatch):
    import importlib

    field_mod = importlib.import_module("ceq.field")  # the package binds ceq.field to field()
    calls = []
    real = field_mod._irreducible

    def counted(coeffs, p):
        calls.append(tuple(coeffs))
        return real(coeffs, p)

    for p, e in ((2, 16), (3, 2)):
        default_modulus(p, e)  # resolve the built-in moduli before counting
    monkeypatch.setattr(field_mod, "_irreducible", counted)
    Field(2, 16)
    assert calls == []
    Field(3, 2, (2, 1, 1))  # x^2 + x + 2, irreducible but not the default
    assert calls == [(2, 1, 1)]
    with pytest.raises(ReducibleModulus):
        Field(3, 2, (2, 0, 1))  # x^2 - 1


@pytest.mark.parametrize("modulus", [(1, 1), (5, 7, 9)], ids=["1,1", "5,7,9"])
@pytest.mark.parametrize("entry", ["Field", "field", "gen", "parse_instance"])
def test_prime_field_takes_no_modulus(entry, modulus, tmp_path, capsys):
    msg = "a prime field takes no modulus"
    spec = ",".join(map(str, modulus))
    if entry == "Field":
        with pytest.raises(ReducibleModulus, match=msg):
            Field(3, 1, modulus)
    elif entry == "field":
        with pytest.raises(ReducibleModulus, match=msg):
            field(3, 1, modulus)
    elif entry == "gen":
        out = tmp_path / "x.ceq"
        argv = ["gen", "--k", "1", "--n", "2", "--field", "3", "--modulus", spec,
                "--tag", "PCE", "--planted", "yes", "--seed", "1", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {msg}\n"
        assert not out.exists()
    else:
        with pytest.raises(FormatError, match=msg):
            fileio.parse_instance(f"%CEQ 1\nfield 3^1 mod {spec}\ntag PCE\nG 0 0\nH 0 0\n")


def test_make_rejects_oversized_fields():
    with pytest.raises(UnsupportedSize):
        field(2, 17)
    with pytest.raises(UnsupportedSize):
        field(65537)
    with pytest.raises(UnsupportedSize):
        field(3, 11)  # 3^11 > 2^16
    # the caps are checked before is_prime and p**e
    with pytest.raises(UnsupportedSize):
        field(10**18 + 3)
    with pytest.raises(UnsupportedSize):
        field(3, 10**8)


def test_add_mul_examples():
    f3 = field(3)
    assert f3.add(2, 2) == 1
    f5 = field(5)
    assert f5.mul(2, 3) == 1
    f4 = field(2, 2)
    x = encode(f4, (0, 1))
    assert x == 2
    assert f4.mul(x, x) == encode(f4, (1, 1))  # x^2 = x + 1


def test_inv_examples():
    assert field(5).inv(2) == 3
    assert field(2).inv(1) == 1
    f4 = field(2, 2)
    assert f4.inv(2) == 3  # x * (x+1) = 1
    with pytest.raises(ZeroInverse):
        field(7).inv(0)
    # an array table holds 0 at index 0: the check, not the table, refuses
    f16 = field(2, 16)
    assert type(f16._inv_list) is array
    with pytest.raises(ZeroInverse):
        f16.inv(0)


def test_neg_and_sign_examples():
    f3 = field(3)
    assert f3.neg(1) == 2
    assert 2 in f3.signs()  # 2 = -1 over F_3
    f5 = field(5)
    assert 3 not in f5.signs()
    assert 4 in f5.signs()
    f2 = field(2)
    assert 1 in f2.signs() and 0 not in f2.signs()
    assert f2.signs() == (1,)
    assert field(9 // 3, 2).signs() == (1, 2)


SMALL_FIELDS = [
    field(2),
    field(3),
    field(5),
    field(7),
    field(11),
    field(13),
    field(2, 2),
    field(2, 3),
    field(2, 4),
    field(3, 2),
]


@pytest.mark.parametrize("f", SMALL_FIELDS, ids=repr)
def test_field_axioms_exhaustive(f):
    els = list(range(f.q))
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
    for a in els:
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in els:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize(
    "f", [field(251), field(2, 8), field(2, 16), field(251, 2), field(3, 6)], ids=repr
)
def test_field_axioms_sampled(f):
    rng = stream(20240815, "axioms", f.p, f.e)
    for _ in range(200):
        a, b, c = (rng.randrange(f.q) for _ in range(3))
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
            assert f.inv(f.inv(a)) == a


@pytest.mark.parametrize("f", SMALL_FIELDS, ids=repr)
def test_inv_involution_and_sign_characterization(f):
    for a in f.units():
        assert f.inv(f.inv(a)) == a
        if f.p == 2:
            assert (a in f.signs()) == (a == 1)
        else:
            assert (a in f.signs()) == (f.mul(a, a) == 1)


# all pairs of every kernel family below q = 256: the byte-row fields
# (GF(2), GF(2^e), GF(5)) and the family kernels of odd GF(p^e) and of
# primes from 131 to 251
def test_tables_match_raw_arithmetic():
    for f in (field(2), field(2, 2), field(2, 4), field(5), field(3, 2), field(251)):
        for a in range(f.q):
            assert f.neg(a) == neg_raw(f, a)
            for b in range(f.q):
                assert f.mul(a, b) == f._mul_raw(a, b)
                assert f.add(a, b) == add_raw(f, a, b)


def test_small_field_tables_are_bytes_rows():
    # the byte-row fields (characteristic 2 with q <= 256, primes with
    # 2(p - 1) < 256) hold one bytes row of products per element; every
    # other field computes as the fields above 256 do and holds none
    for f in (Field(2), Field(2, 8), Field(5), Field(127)):
        assert len(f._mul_rows) == f.q and all(type(r) is bytes and len(r) == 256 for r in f._mul_rows)
    for f in (Field(3, 2), Field(3, 5), Field(131), Field(251)):
        assert f._mul_rows is None
    # primes without byte rows keep no inv or neg list either
    assert all(f._inv_list is None and f._neg_list is None for f in (Field(131), Field(251)))


def test_exp_log_tables_are_arrays_above_2_to_the_13():
    # up to q = 2^13 the exp/log fields keep lists; above it, arrays of
    # unsigned 16-bit entries and a signed Zech array of at least 32 bits
    for f in (Field(2, 13), Field(3, 8)):
        tables = [f._exp, f._log, f._inv_list] + ([f._zech, f._neg_list] if f.p != 2 else [])
        assert all(type(t) is list for t in tables)
    for f in (Field(2, 14), Field(3, 9), Field(251, 2)):
        tables = [f._exp, f._log, f._inv_list] + ([f._neg_list] if f.p != 2 else [])
        assert all(type(t) is array and t.typecode == "H" for t in tables)
        if f.p != 2:
            assert type(f._zech) is array and f._zech.typecode == "i" and f._zech.itemsize >= 4
            assert min(f._zech) == -1 and max(f._zech) == f.q - 2


def test_small_field_tables_hold_under_a_mebibyte():
    # as q x q lists of ints, these three fields held 3.20 MiB
    import tracemalloc

    tracemalloc.start()
    try:
        fields = [Field(2, 8), Field(3, 5), Field(251)]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(fields) == 3 and held < 1 << 20


def test_large_field_tables_hold_under_two_mebibytes():
    # as lists of ints, these two fields held 12.3 MiB
    import tracemalloc

    tracemalloc.start()
    try:
        fields = [Field(2, 16), Field(3, 10)]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(fields) == 2 and held < 2 << 20


def _assert_kernels_match_raw(f, pairs):
    """The bound add/mul/neg/inv against the table-free reference."""
    for a, b in pairs:
        assert f.add(a, b) == add_raw(f, a, b)
        assert f.mul(a, b) == f._mul_raw(a, b)
    for a in {x for pair in pairs for x in pair}:
        assert f.neg(a) == neg_raw(f, a)
        if a:
            # inverses are unique, so this pins inv(a) to _pow_raw(a, q - 2)
            assert f._mul_raw(a, f.inv(a)) == 1
    with pytest.raises(ZeroInverse):
        f.inv(0)


def _assert_matches_digitwise(f, pairs):
    for a in range(f.q):
        assert f.neg(a) == neg_raw(f, a)
    _assert_kernels_match_raw(f, list(pairs))


# one field per family on each side of q = 256; below it GF(251) and
# GF(3^5) run the family kernels, GF(2^8) the byte rows
@pytest.mark.parametrize(
    "p, e", [(251, 1), (65521, 1), (2, 8), (2, 16), (3, 5), (5, 4), (3, 10), (251, 2)]
)
def test_bound_kernels_match_raw(p, e):
    import pickle

    f = Field(p, e)
    assert f.warm() is f
    rng = stream(20261018, "kernels", p, e)
    pairs = [(rng.randrange(f.q), rng.randrange(f.q)) for _ in range(2000)]
    special = (0, 1, f.minus_one, f.q - 1)
    pairs += [(a, b) for a in special for b in special]
    _assert_kernels_match_raw(f, pairs)
    for a in special[1:]:
        assert f.inv(a) == f._pow_raw(a, f.q - 2)
    g = pickle.loads(pickle.dumps(f))
    assert g == f
    _assert_kernels_match_raw(g, pairs)


# every row-kernel family: byte rows (char 2 with q <= 256, primes with
# 2(p - 1) < 256, so both sides of that switch at 127 and 131), then the
# family kernels of primes (131, 251, 65521), 2^e above 256 on list and
# array tables (2^12, then 2^14 and 2^16) and odd p^e (3^2 and 3^5 below
# 256, 3^6 and 5^4 above)
@pytest.mark.parametrize(
    "p, e",
    [
        (2, 1), (7, 1), (127, 1), (131, 1), (251, 1), (2, 8), (3, 2), (3, 5), (65521, 1),
        (2, 12), (2, 14), (2, 16), (3, 6), (5, 4),
    ],
)
def test_row_kernels_match_element_kernels_and_raw(p, e):
    f = field(p, e)
    rng = stream(20261018, "row-kernels", p, e)
    byte_rows = p == 2 and f.q <= 256 or e == 1 and 2 * (p - 1) < 256
    row_type = bytes if byte_rows else list

    def row(width):
        # about a third of the entries are zero
        return [rng.randrange(f.q) if rng.randrange(3) else 0 for _ in range(width)]

    cases = []
    for width in (0, 1, 2, 5, 17):
        for c in (0, 1, f.minus_one, rng.randrange(f.q), rng.randrange(1, f.q)):
            cases.append((row(width), c, row(width)))
        cases.append(([0] * width, rng.randrange(1, f.q), row(width)))
        cases.append((row(width), rng.randrange(1, f.q), [0] * width))
        # every entry q - 1: the largest sum of two entries
        cases.append(([f.q - 1] * width, f.q - 1, [f.q - 1] * width))
        # y = -x / c, so every entry of x + c*y cancels to zero
        x, c = row(width), rng.randrange(1, f.q)
        cases.append((x, c, [f._mul_raw(f.inv(c), neg_raw(f, a)) for a in x]))
    for x, c, y in cases:
        xs, ys = list(x), list(y)
        want = [add_raw(f, a, f._mul_raw(c, b)) for a, b in zip(x, y)]
        got = f.axpy(x, c, y)
        assert list(got) == [f.add(a, f.mul(c, b)) for a, b in zip(x, y)] == want
        assert type(got) is row_type and got is not x
        want_scale = [f._mul_raw(c, b) for b in y]
        assert list(f.scale(c, y)) == [f.mul(c, b) for b in y] == want_scale
        assert type(f.scale(c, y)) is row_type
        # rows as tuple, list and, where every entry fits a byte, bytes
        kinds = [tuple, list] + ([bytes] if f.q <= 256 else [])
        for kx in kinds:
            for ky in kinds:
                got = f.axpy(kx(x), c, ky(y))
                assert type(got) is row_type and list(got) == want
            got = f.scale(c, kx(y))
            assert type(got) is row_type and list(got) == want_scale
        # x and y one row: x + c*x, with x left as it was
        for kx in kinds:
            same = kx(x)
            assert list(f.axpy(same, c, same)) == [add_raw(f, a, f._mul_raw(c, a)) for a in xs]
        assert (x, y) == (xs, ys)


# every product-kernel family: packed primes below and above q = 256 and
# at each slot width, translated GF(2^e) <= 256, and the axpy loop of odd
# p^e (3^5 below 256, 3^6 above) and of 2^e on list (2^12) and array
# tables (2^14, 2^16)
@pytest.mark.parametrize(
    "p, e",
    [(2, 1), (3, 1), (7, 1), (251, 1), (257, 1), (65521, 1), (2, 2), (2, 8), (3, 5), (3, 6), (2, 12), (2, 14), (2, 16)],
)
def test_matmul_matches_sums_of_raw_products(p, e):
    f = field(p, e)
    rng = stream(20261019, "matmul", p, e)
    top = f.q - 1

    def rows(k, m, fill=None):
        # about a third of the random entries are zero
        return [
            tuple(fill if fill is not None else rng.randrange(f.q) if rng.randrange(3) else 0 for _ in range(m))
            for _ in range(k)
        ]

    cases = [(rows(k, n), rows(n, m), m) for k, n, m in [(0, 3, 4), (3, 0, 4), (3, 4, 0), (0, 0, 0), (2, 0, 0)]]
    cases += [(rows(k, n), rows(n, m), m) for k, n, m in [(1, 1, 1), (3, 5, 2), (6, 6, 14), (7, 7, 40), (5, 9, 3)]]
    # every entry q - 1, so that each slot of a packed sum holds
    # len(B) * (p - 1)^2, for B of 1 to 9 rows: GF(7) needs w = 8 up to 7
    # rows (7 * 36 = 252) and w = 16 from 8; GF(251) w = 16 at 1 row and
    # 32 from 2; GF(65521) w = 32 at 1 row and 64 from 2
    cases += [(rows(2, n, top), rows(n, 5, top), 5) for n in range(1, 10)]
    for a, b, m in cases:
        want = []
        for arow in a:
            out = []
            for j in range(m):
                acc = 0
                for x, brow in zip(arow, b):
                    acc = add_raw(f, acc, f._mul_raw(x, brow[j]))
                out.append(acc)
            want.append(out)
        got = f.matmul(a, b, m)
        assert [list(r) for r in got] == want
        assert len(got) == len(a) and all(len(r) == m for r in got)
        assert f.matmul([list(r) for r in a], [list(r) for r in b], m) == got


@pytest.mark.parametrize(
    "p, e, modulus",
    [(2, 16, None), (3, 10, None), (251, 2, None), (3, 2, (1, 0, 1)), (3, 6, (1, 1, 1, 0, 0, 0, 1))],
    ids=["GF(2^16)", "GF(3^10)", "GF(251^2)", "GF(3^2) x^2+1", "GF(3^6) x^6+x^2+x+1"],
)
def test_exp_table_matches_a_digitwise_walk(p, e, modulus):
    # the constructor steps by lookup images of multiply-by-g; stepping by
    # the digit-wise product must visit the same powers in the same order
    f = field(p, e, modulus)
    g = f._exp[1]
    walk = [1]
    for _ in range(f.q - 2):
        walk.append(f._mul_raw(walk[-1], g))
    assert f._mul_raw(walk[-1], g) == 1 and len(set(walk)) == f.q - 1
    assert list(f._exp) == walk + walk


@pytest.mark.parametrize("f", [field(3, 2), field(5, 2), field(7, 2), field(3, 3), field(3, 5)], ids=repr)
def test_zech_kernel_matches_digitwise_all_pairs(f):
    _assert_matches_digitwise(f, ((a, b) for a in range(f.q) for b in range(f.q)))


# list tables (3^6, 5^4, 3^8) and array tables (7^5, 3^10, 251^2)
@pytest.mark.parametrize(
    "f", [field(3, 6), field(5, 4), field(3, 8), field(7, 5), field(3, 10), field(251, 2)], ids=repr
)
def test_zech_kernel_matches_digitwise_sampled(f):
    rng = stream(20261017, "zech", f.p, f.e)
    pairs = [(rng.randrange(f.q), rng.randrange(f.q)) for _ in range(2000)]
    # zero operands and b = -a take their own branches
    pairs += [(0, 0), (0, 1), (1, 0), (1, f.minus_one), (f.minus_one, 1), (f.q - 1, f.q - 1)]
    pairs += [(a, neg_raw(f, a)) for a, _ in pairs[:50]]
    _assert_matches_digitwise(f, pairs)


@pytest.mark.parametrize(
    "p, e, modulus",
    [(3, 2, (1, 0, 1)), (3, 6, (1, 1, 1, 0, 0, 0, 1))],
    ids=["GF(3^2) x^2+1", "GF(3^6) x^6+x^2+x+1"],
)
def test_zech_kernel_with_non_primitive_modulus(p, e, modulus):
    # x is not a generator of the multiplicative group under these moduli
    f = Field(p, e, modulus)
    x = encode(f, (0, 1))
    assert f._pow_raw(x, (f.q - 1) // 2) == 1
    rng = stream(20261017, "zech-explicit", p, e)
    pairs = [(rng.randrange(f.q), rng.randrange(f.q)) for _ in range(2000)]
    _assert_matches_digitwise(f, pairs)


def test_field_unpickles_in_its_table_state_in_a_fresh_process():
    # a field pickles by its spec, and another process rebuilds its tables
    import os
    import pickle
    import subprocess
    import sys

    import ceq

    code = (
        "import pickle, sys\n"
        "f = pickle.load(sys.stdin.buffer)\n"
        "print(f.p, f.e, f.modulus, type(f._exp).__name__, type(f._zech).__name__, f.mul(2, 3), f.add(2, 3))"
    )
    src = os.path.dirname(os.path.dirname(ceq.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    # list tables, then array tables
    for f, kind in ((Field(5, 4), "list"), (Field(7, 5), "array")):
        out = subprocess.run(
            [sys.executable, "-c", code], input=pickle.dumps(f), capture_output=True, env=env, check=True
        )
        want = f"{f.p} {f.e} {f.modulus} {kind} {kind} {f._mul_raw(2, 3)} {add_raw(f, 2, 3)}\n"
        assert out.stdout.decode() == want


def test_large_field_exp_log_consistent_with_raw():
    f = field(2, 16)
    rng = stream(7, "explog")
    for _ in range(100):
        a, b = rng.randrange(f.q), rng.randrange(f.q)
        assert f.mul(a, b) == f._mul_raw(a, b)


def test_encode_decode_roundtrip():
    f = field(3, 3)
    for a in range(f.q):
        # decode: the little-endian base-p digits of a
        coeffs = [a // f.p ** i % f.p for i in range(f.e)]
        assert encode(f, coeffs) == a
    assert encode(f, (2, 1, 0)) == 5


# Built-in moduli that files written so far depend on; changing any of
# them changes the canonical encoding of every element of that field.
FROZEN_MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1),
    (2, 9): (1, 1, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 10): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    (2, 11): (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 12): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 13): (1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 14): (1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 15): (1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 16): (1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (3, 7): (2, 0, 1, 0, 0, 0, 0, 1),
    (3, 8): (2, 0, 1, 0, 0, 0, 0, 0, 1),
    (3, 9): (1, 0, 1, 2, 0, 0, 0, 0, 0, 1),
    (3, 10): (1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1),
    (5, 2): (2, 0, 1),
    (5, 3): (1, 1, 0, 1),
    (5, 4): (2, 0, 0, 0, 1),
    (5, 5): (1, 4, 0, 0, 0, 1),
    (5, 6): (2, 1, 0, 0, 0, 0, 1),
    (7, 2): (1, 0, 1),
    (7, 3): (2, 0, 0, 1),
    (7, 4): (1, 1, 0, 0, 1),
    (7, 5): (3, 1, 0, 0, 0, 1),
    (11, 2): (1, 0, 1),
    (11, 3): (4, 1, 0, 1),
    (11, 4): (2, 1, 0, 0, 1),
    (13, 2): (2, 0, 1),
    (13, 3): (2, 0, 0, 1),
    (13, 4): (2, 0, 0, 0, 1),
}


def test_default_moduli_are_lex_smallest_and_frozen():
    from ceq.field import _irreducible, _digits

    for (p, e), mod in FROZEN_MODULI.items():
        assert default_modulus(p, e) == mod, (p, e)
    for (p, e), mod in list(FROZEN_MODULI.items())[:12]:
        assert _irreducible(mod, p)
        enc = sum(c * p**i for i, c in enumerate(mod[:-1]))
        for smaller in range(1, enc):
            assert not _irreducible(_digits(smaller, p, e) + [1], p)


def test_field_constructor_is_cached_and_picklable():
    import pickle

    f1 = field(3, 2)
    f2 = field(3, 2)
    assert f1 is f2
    f3 = pickle.loads(pickle.dumps(f1))
    assert f3 == f1


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
