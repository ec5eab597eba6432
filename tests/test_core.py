import pytest

from ceq.core import (
    Instance,
    Journal,
    RejectReason,
    Rejection,
    Tag,
    Witness,
    diag_allowed,
    map_witness_to_normalized,
    map_witness_to_original,
    preprocess,
    scalars,
    verify_witness,
)
from ceq.errors import DimMismatch, WitnessInvalid
from ceq.field import field
from ceq.matrix import Mat, Mono, Perm, column_multiplicity_profile, strip_zero_columns
from ceq.oracle import Budget, DecideResult, Mode, Status
from ceq.rng import stream

from helpers import mono_from_perm, of_rank, zeros

F2 = field(2)
F3 = field(3)
F5 = field(5)


def rand_full_rank(fld, k, n, rng):
    while True:
        m = Mat(fld, [[rng.randrange(fld.q) for _ in range(n)] for _ in range(k)], n)
        if m.rank() == k:
            return m


def rand_invertible(fld, k, rng):
    return rand_full_rank(fld, k, k, rng)


def planted(fld, k, n, tag, rng, zero_cols=0):
    g = rand_full_rank(fld, k, n, rng)
    if zero_cols:
        rows = [list(r) for r in g.rows]
        for _ in range(zero_cols):
            pos = rng.randrange(len(rows[0]) + 1)
            for r in rows:
                r.insert(pos, 0)
        g = Mat(fld, rows, n + zero_cols)
        n += zero_cols
    s = rand_invertible(fld, k, rng)
    sigma = list(range(n))
    rng.shuffle(sigma)
    if tag is Tag.PCE:
        diag = (1,) * n
    elif tag is Tag.SPCE:
        diag = tuple(rng.choice(fld.signs()) for _ in range(n))
    else:
        diag = tuple(rng.randrange(1, fld.q) for _ in range(n))
    m = Mono(fld, Perm(tuple(sigma)), diag)
    h = s.mul(g).apply_mono(m)
    return Instance(fld, g, h, tag), Witness(s, m)


def test_instance_shape_validation():
    with pytest.raises(DimMismatch):
        Instance(F2, Mat.identity(F2, 2), Mat(F2, [[1, 0, 0], [0, 1, 0]]), Tag.PCE)


def test_verify_trivial_identity():
    i2 = Mat.identity(F2, 2)
    w = Witness(Mat.identity(F2, 2), Mono.identity(F2, 2))
    for tag in Tag:
        assert verify_witness(Instance(F2, i2, i2, tag), w)


def test_verify_scaled_swap_example():
    g = Mat(F3, [[1, 2]])
    h = Mat(F3, [[1, 2]])
    s = Mat(F3, [[2]])
    m = Mono(F3, Perm((1, 0)), (1, 1))
    assert verify_witness(Instance(F3, g, h, Tag.LCE), Witness(s, m))
    # diagonal is all ones, so the same witness is fine for PCE
    assert verify_witness(Instance(F3, g, h, Tag.PCE), Witness(s, m))


def test_scalars_are_the_tags_diagonal_groups():
    # 1 for PCE, the signs for SPCE ((1,) in characteristic 2, else
    # (1, p - 1)), every unit for LCE; diag_allowed takes exactly these
    table = {
        (2, 1): ((1,), (1,), (1,)),
        (3, 1): ((1,), (1, 2), (1, 2)),
        (2, 2): ((1,), (1,), (1, 2, 3)),
        (5, 1): ((1,), (1, 4), (1, 2, 3, 4)),
        (3, 2): ((1,), (1, 2), (1, 2, 3, 4, 5, 6, 7, 8)),
    }
    for (p, e), row in table.items():
        fld = field(p, e)
        for tag, want in zip((Tag.PCE, Tag.SPCE, Tag.LCE), row):
            assert tuple(scalars(fld, tag)) == want, (fld, tag)
            assert [d for d in range(fld.q) if diag_allowed(fld, tag, (1, d))] == list(want)
    # every unit as a range, so a membership test costs O(1)
    assert scalars(field(65521), Tag.LCE) == range(1, 65521)


def test_verify_rejects_tag_violations():
    g = Mat(F3, [[1, 2]])
    h = Mat(F3, [[2, 1]])
    m = Mono(F3, Perm((0, 1)), (2, 2))  # scaling by -1
    w = Witness(Mat(F3, [[1]]), m)
    assert verify_witness(Instance(F3, g, h, Tag.LCE), w)
    assert verify_witness(Instance(F3, g, h, Tag.SPCE), w)
    assert not verify_witness(Instance(F3, g, h, Tag.PCE), w)


def test_verify_forms_the_product_for_every_witness():
    # G's distinct columns are memoized, S*G is not: witnesses that differ
    # only in S are each checked against their own product
    fld = field(3, 2)
    rng = stream(19, "verify-fresh-product")
    for tag in Tag:
        inst, w = planted(fld, 3, 7, tag, rng)
        other = rand_invertible(fld, 3, rng)
        while other == w.S:
            other = rand_invertible(fld, 3, rng)
        assert verify_witness(inst, w)
        assert not verify_witness(inst, Witness(other, w.M))
        assert verify_witness(inst, w)


def test_transport_entries_reject_a_witness_that_does_not_verify():
    # each bad witness shares M and the matrices with a good one
    from ceq.reduction import extract_witness, lift_witness, reduce_instance

    rng = stream(22, "entry-reject")
    inst, w = planted(F5, 2, 4, Tag.PCE, rng, zero_cols=1)
    reduced, cert = reduce_instance(inst, Tag.LCE)
    journal = cert.journal
    assert verify_witness(inst, w)
    with pytest.raises(WitnessInvalid):
        map_witness_to_normalized(journal, Witness(w.S.scale(2), w.M))
    w_norm = map_witness_to_normalized(journal, w)
    with pytest.raises(WitnessInvalid):
        map_witness_to_original(journal, Witness(w_norm.S.scale(2), w_norm.M))
    lifted = lift_witness(cert, w_norm)
    assert verify_witness(reduced, lifted)
    norm = journal.normalized
    with pytest.raises(WitnessInvalid):
        extract_witness(cert, norm.G, norm.H, Witness(lifted.S.scale(2), lifted.M))
    assert verify_witness(inst, map_witness_to_original(journal, extract_witness(cert, norm.G, norm.H, lifted)))


def test_transport_entries_reject_a_witness_shaped_for_another_instance():
    # verify_witness raises DimMismatch on such a witness; both maps turn
    # it into WitnessInvalid, the error of a witness that does not verify
    from ceq.reduction import lift_witness, reduce_instance

    rng = stream(22, "entry-shape")
    inst, w = planted(F5, 2, 4, Tag.PCE, rng, zero_cols=1)
    _, cert = reduce_instance(inst, Tag.LCE)
    journal = cert.journal
    w_norm = map_witness_to_normalized(journal, w)
    lifted = lift_witness(cert, w_norm)
    assert (inst.n, journal.normalized.n) == (5, 4)
    for bad in (lifted, w_norm, Witness(Mat.identity(F5, 3), w.M)):
        with pytest.raises(WitnessInvalid):
            map_witness_to_normalized(journal, bad)
    for bad in (lifted, w, Witness(Mat.identity(F5, 3), w_norm.M)):
        with pytest.raises(WitnessInvalid):
            map_witness_to_original(journal, bad)


def test_verify_rejects_singular_s():
    g = Mat(F2, [[1, 0], [1, 0]])
    w = Witness(Mat(F2, [[1, 1], [1, 1]]), Mono.identity(F2, 2))
    assert not verify_witness(Instance(F2, g, zeros(F2, 2, 2), Tag.PCE), w)


def test_verify_is_exact():
    inst, w = planted(F5, 2, 4, Tag.LCE, stream(1, "exact"))
    assert verify_witness(inst, w)
    bumped = list(list(r) for r in w.S.rows)
    bumped[0][0] = (bumped[0][0] + 1) % 5
    assert not verify_witness(inst, Witness(Mat(F5, bumped), w.M))


def _dense_verify(inst, w):
    """Test-only reference: the verdict of verify_witness from S's own
    elimination and the dense product S*G*M over all n columns."""
    if not diag_allowed(inst.field, inst.tag, w.M.diag):
        return False
    if not w.S.is_invertible():
        return False
    return w.S.mul(inst.G).apply_mono(w.M) == inst.H


def _planted_repeated(fld, k, n_distinct, n, tag, rng):
    """A planted pair whose n columns repeat n_distinct random columns,
    zero columns allowed, with a random witness for the tag."""
    base = [tuple(rng.randrange(fld.q) for _ in range(k)) for _ in range(n_distinct)]
    if n_distinct and k:
        base[0] = (0,) * k
    cols = [base[rng.randrange(n_distinct)] for _ in range(n)] if n_distinct else []
    g = Mat(fld, [[c[i] for c in cols] for i in range(k)], n)
    s = rand_invertible(fld, k, rng)
    sigma = list(range(n))
    rng.shuffle(sigma)
    scal = scalars(fld, tag)
    # equal columns often share a scalar, so some swaps of them stay valid
    by_col = {c: rng.choice(scal) for c in cols}
    diag = tuple(by_col[c] if rng.random() < 0.7 else rng.choice(scal) for c in cols)
    m = Mono(fld, Perm(tuple(sigma)), diag)
    return Instance(fld, g, s.mul(g).apply_mono(m), tag), Witness(s, m)


def _gadget_pairs(fld, tag, rng):
    """Planted PCE pairs with repeated columns, reduced to tag; the lifted
    witness and a globally rescaled copy of it."""
    from ceq.oracle import GenSpec, Planted, generate
    from ceq.reduction import lift_witness, reduce_instance

    out = []
    for k, n, profile in ((2, 4, (2, 1, 1)), (3, 6, (2, 2, 1, 1))):
        gen = generate(GenSpec(fld, k, n, Tag.PCE, Planted.YES, rng.getrandbits(32), profile))
        red, cert = reduce_instance(gen.instance, tag)
        w = lift_witness(cert, map_witness_to_normalized(cert.journal, gen.witness))
        c = fld.minus_one if tag is Tag.SPCE else rng.randrange(2, fld.q) if fld.q > 2 else 1
        scaled = Witness(w.S.scale(c), Mono(fld, w.M.perm, (fld.inv(c),) * red.n))
        out += [(red, w), (red, scaled)]
    return out


def _mutants(inst, w, rng):
    """(kind, witness) pairs: small edits of a valid witness."""
    fld, n, k = inst.field, inst.n, inst.k
    cols = inst.G.cols()
    sigma, diag = list(w.M.perm.sigma), list(w.M.diag)
    scal = scalars(fld, inst.tag)

    def with_m(sig, dg):
        return Witness(w.S, Mono(fld, Perm(tuple(sig)), tuple(dg)))

    out = []
    dups = [s for s in range(n) if cols.count(cols[s]) > 1]
    for s in rng.sample(dups, min(3, len(dups))):
        other = [d for d in scal if d != diag[s]]
        if other:
            dg = diag.copy()
            dg[s] = rng.choice(other)
            out.append(("duplicate scalar", with_m(sigma, dg)))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    rng.shuffle(pairs)
    same = [(a, b) for a, b in pairs if cols[sigma[a]] == cols[sigma[b]] and diag[sigma[a]] == diag[sigma[b]]]
    differ = [(a, b) for a, b in pairs if cols[sigma[a]] != cols[sigma[b]]]
    for kind, chosen in (("swap equal", same[:2]), ("swap different", differ[:2])):
        for a, b in chosen:
            sig = sigma.copy()
            sig[a], sig[b] = sig[b], sig[a]
            out.append((kind, with_m(sig, diag)))
    if k:
        rows = [list(r) for r in w.S.rows]
        i, j = rng.randrange(k), rng.randrange(k)
        rows[i][j] = fld.add(rows[i][j], rng.randrange(1, fld.q))
        out.append(("S entry", Witness(Mat(fld, rows, k), w.M)))
    allowed = set(scal)
    banned = [d for d in fld.units() if d not in allowed]
    if n and banned:
        dg = diag.copy()
        dg[rng.randrange(n)] = rng.choice(banned)
        out.append(("banned scalar", with_m(sigma, dg)))
    return out


def test_verify_matches_dense_reference_on_mutants():
    rng = stream(20261018, "verify-diff")
    cases = []
    for fld in (F2, F3, field(2, 2), F5, field(7), field(5, 4)):
        for tag in (Tag.LCE, Tag.SPCE):
            cases += _gadget_pairs(fld, tag, rng)
        for tag in Tag:
            for k, n_distinct, n in ((2, 3, 6), (3, 4, 9), (1, 2, 5), (0, 1, 4), (2, 0, 0), (0, 0, 0)):
                cases.append(_planted_repeated(fld, k, n_distinct, n, tag, rng))
    verdicts = {}
    for inst, w in cases:
        assert verify_witness(inst, w) and _dense_verify(inst, w)
        for kind, m in _mutants(inst, w, rng):
            got = verify_witness(inst, m)
            assert got == _dense_verify(inst, m), (kind, inst, m)
            verdicts[kind, got] = verdicts.get((kind, got), 0) + 1
    kinds = {"duplicate scalar", "swap equal", "swap different", "S entry", "banned scalar"}
    assert {kind for kind, _ in verdicts} == kinds
    assert sum(c for (_, got), c in verdicts.items() if got) >= 200
    assert sum(c for (_, got), c in verdicts.items() if not got) >= 300
    assert verdicts["swap equal", True] >= 150
    assert verdicts["swap different", False] >= 100
    # a zero column takes any scalar, so these edits reach both verdicts
    assert verdicts["duplicate scalar", True] >= 20
    assert verdicts["duplicate scalar", False] >= 100


def test_preprocess_strips_and_normalizes():
    g = Mat(F2, [[1, 0], [0, 0]])
    h = Mat(F2, [[0, 0], [1, 0]])
    out = preprocess(Instance(F2, g, h, Tag.PCE))
    assert isinstance(out, Journal)
    assert out.normalized.G.rows == ((1,),)
    assert out.normalized.H.rows == ((1,),)
    assert out.removed_g == (1,)
    assert out.removed_h == (1,)
    assert out.rank == 1


def test_preprocess_rejects_zero_count_mismatch():
    out = preprocess(Instance(F2, Mat(F2, [[1, 1, 0]]), Mat(F2, [[1, 0, 0]]), Tag.PCE))
    assert isinstance(out, Rejection)
    assert out.reason is RejectReason.ZERO_COLUMN_COUNT_MISMATCH


def test_preprocess_rejects_rank_mismatch():
    g = Mat(F2, [[1, 0, 1], [0, 1, 1]])
    h = Mat(F2, [[1, 1, 1], [1, 1, 1]])
    out = preprocess(Instance(F2, g, h, Tag.PCE))
    assert isinstance(out, Rejection)
    assert out.reason is RejectReason.RANK_MISMATCH


def test_preprocess_rejects_profile_mismatch():
    g = Mat(F5, [[1, 1, 2], [0, 0, 1]])  # duplicated column
    h = Mat(F5, [[1, 2, 3], [0, 1, 1]])  # distinct columns
    assert g.rank() == h.rank() == 2
    out = preprocess(Instance(F5, g, h, Tag.PCE))
    assert isinstance(out, Rejection)
    assert out.reason is RejectReason.PROFILE_MISMATCH


def test_preprocess_identity_on_clean_input():
    i2 = Mat.identity(F2, 2)
    out = preprocess(Instance(F2, i2, i2, Tag.PCE))
    assert isinstance(out, Journal)
    assert out.normalized.G == i2
    _assert_identity_journal(out)


def test_preprocess_refuses_non_pce():
    # the reductions normalize only the PCE side
    g = Mat(F2, [[1, 0], [0, 0]])
    for tag in (Tag.SPCE, Tag.LCE):
        with pytest.raises(ValueError, match="PCE instances only"):
            preprocess(Instance(F2, g, g, tag))


def _assert_identity_journal(journal):
    # nothing removed, full rank, identity transforms: the maps change no witness
    k = journal.original.k
    assert journal.removed_g == journal.removed_h == ()
    assert journal.rank == k
    assert journal.u_g == journal.u_h == Mat.identity(journal.original.field, k)
    assert journal.normalized == journal.original


def _reference_preprocess(inst):
    """(reason, None) or (None, sides): PCE preprocessing by the full-width
    elimination of [stripped | I_k], on fresh matrices that share no memo
    with `preprocess`; sides holds (removed, rank, u, normalized) per side."""
    fld = inst.field
    sides = []
    for a in (inst.G, inst.H):
        stripped, removed = strip_zero_columns(Mat(fld, a.rows, a.n))
        r, rank, _, u = stripped.rref_with_transform()
        sides.append((removed, rank, u, Mat(fld, r.rows[:rank], stripped.n)))
    (removed_g, rank_g, _, g), (removed_h, rank_h, _, h) = sides
    if len(removed_g) != len(removed_h):
        return RejectReason.ZERO_COLUMN_COUNT_MISMATCH, None
    if rank_g != rank_h:
        return RejectReason.RANK_MISMATCH, None
    if column_multiplicity_profile(g) != column_multiplicity_profile(h):
        return RejectReason.PROFILE_MISMATCH, None
    return None, sides


def _of_columns(fld, k, cols):
    return Mat(fld, [[c[i] for c in cols] for i in range(k)], len(cols))


def _reference_pairs(fld, rng):
    """PCE pairs whose columns repeat a few drawn columns: permuted images
    S * G * P, which normalize, and pairs drawn apart, which mostly reject;
    with zero columns, all-equal columns, short rank and empty shapes."""
    pairs = [(0, []), (3, [])]
    for k, n in ((0, 3), (2, 5), (3, 4)):
        col = tuple(rng.randrange(1, fld.q) for _ in range(k))
        pairs.append((k, [col] * n))
    # (k, distinct columns drawn, n); a pool under k columns or k > n
    # gives a short rank
    for k, d, n in ((2, 3, 6), (3, 4, 9), (4, 3, 8), (5, 3, 4), (4, 6, 12), (6, 8, 14)):
        for zero in (False, True):
            pool = [tuple(rng.randrange(fld.q) for _ in range(k)) for _ in range(d)]
            if zero:
                pool[0] = (0,) * k
            pairs.append((k, [rng.choice(pool) for _ in range(n)]))
    for k, cols in pairs:
        g = _of_columns(fld, k, cols)
        s = rand_invertible(fld, k, rng)
        perm = _random_perm(len(cols), rng)
        h = s.mul(g).apply_mono(mono_from_perm(fld, perm))
        yield Instance(fld, g, h, Tag.PCE)
        if cols:
            # drawn apart: the same pool size, or one column of the image
            # replaced by zero or by a copy of another
            other = [rng.choice(cols) if rng.random() < 0.5 else tuple(rng.randrange(fld.q) for _ in range(k))
                     for _ in cols]
            yield Instance(fld, g, _of_columns(fld, k, other), Tag.PCE)
            edited = list(h.cols())
            j = rng.randrange(len(edited))
            edited[j] = (0,) * k if rng.random() < 0.5 else rng.choice(edited)
            yield Instance(fld, g, _of_columns(fld, k, edited), Tag.PCE)


def test_preprocess_matches_the_full_width_reference():
    # preprocessing row-reduces the distinct columns only; the journal,
    # the normalized pair, its recorded ranks and distinct views and the
    # rejection reasons are those of the elimination of [stripped | I_k]
    rng = stream(23, "preprocess-reference")
    outcomes = dict.fromkeys([None, *RejectReason], 0)
    for pe in ((2, 1), (7, 1), (65521, 1), (2, 8), (2, 16), (3, 5)):
        fld = field(*pe)
        for inst in _reference_pairs(fld, rng):
            reason, sides = _reference_preprocess(inst)
            out = preprocess(inst)
            outcomes[reason] += 1
            if reason is not None:
                assert isinstance(out, Rejection) and out.reason is reason, inst
                continue
            assert isinstance(out, Journal), inst
            (removed_g, rank, u_g, g), (removed_h, _, u_h, h) = sides
            assert (out.removed_g, out.removed_h, out.rank, out.u_g, out.u_h) == (removed_g, removed_h, rank, u_g, u_h)
            assert inst.G.rank() == inst.H.rank() == rank
            for got, want in ((out.normalized.G, g), (out.normalized.H, h)):
                assert got == want
                # recorded, and equal to what a fresh matrix computes
                assert {"rank", "distinct_cols"} <= set(got._memo)
                fresh = Mat(fld, want.rows, want.n)
                assert got.rank() == fresh.rank() == rank
                assert got.distinct_cols() == fresh.distinct_cols()
    assert min(outcomes.values()) >= 6, outcomes


def test_witness_map_trivial_journal_is_identity():
    rng = stream(2, "triv")
    for fld in (F2, F3, field(2, 2), F5, field(7), field(3, 2)):
        for trial in range(4):
            k = rng.randrange(1, 3)
            n = rng.randrange(k, k + 3)
            # a normalized PCE pair is already in RREF with no zero
            # columns, so normalizing it again does no row operation
            inst, w = planted(fld, k, n, Tag.PCE, rng)
            first = preprocess(inst)
            assert isinstance(first, Journal)
            inst, w = first.normalized, map_witness_to_normalized(first, w)
            out = preprocess(inst)
            assert isinstance(out, Journal)
            _assert_identity_journal(out)
            assert map_witness_to_normalized(out, w) == w
            assert map_witness_to_original(out, w) == w


def test_witness_maps_roundtrip_with_zero_columns():
    rng = stream(3, "zc")
    for trial in range(25):
        fld = rng.choice([F2, F3, F5])
        k = rng.randrange(1, 3)
        n = rng.randrange(k, k + 3)
        inst, w = planted(fld, k, n, Tag.PCE, rng, zero_cols=rng.randrange(0, 3))
        out = preprocess(inst)
        assert isinstance(out, Journal)
        w_norm = map_witness_to_normalized(out, w)
        assert verify_witness(out.normalized, w_norm)
        w_back = map_witness_to_original(out, w_norm)
        assert verify_witness(inst, w_back)


def test_witness_maps_roundtrip_rank_deficient():
    rng = stream(4, "deficient")
    for trial in range(20):
        fld = rng.choice([F3, F5])
        k = rng.randrange(2, 4)
        n = rng.randrange(k, k + 3)
        inst, w = planted(fld, k - 1, n, Tag.PCE, rng)
        # duplicate a row through an invertible stack: rank stays k-1
        stack = Mat(fld, list(inst.G.rows) + [inst.G.rows[0]], n)
        stack_h = Mat(fld, list(inst.H.rows) + [inst.H.rows[0]], n)
        s_rows = [list(r) + [0] for r in w.S.rows] + [[0] * (k - 1) + [1]]
        # witness for the stacked pair: S must route row k of G to row k of H
        big = Instance(fld, stack, stack_h, Tag.PCE)
        out = preprocess(big)
        assert isinstance(out, Journal)
        assert out.rank == k - 1
        # map a normalized witness back to the stacked original
        w_norm = decide_like_witness(out.normalized)
        if w_norm is None:
            continue
        w_back = map_witness_to_original(out, w_norm)
        assert verify_witness(big, w_back)


def decide_like_witness(inst):
    """Tiny helper: for a normalized pair with identical G and H, the
    identity witness works; otherwise skip (covered by oracle tests)."""
    if inst.G == inst.H:
        return Witness(Mat.identity(inst.field, inst.k), Mono.identity(inst.field, inst.n))
    return None


def test_map_rejects_non_verifying_witness():
    rng = stream(5, "reject")
    inst, w = planted(F3, 2, 3, Tag.PCE, rng, zero_cols=1)
    out = preprocess(inst)
    bad = Witness(w.S, Mono.identity(F3, inst.n))
    if not verify_witness(inst, bad):
        with pytest.raises(WitnessInvalid):
            map_witness_to_normalized(out, bad)


def test_planted_yes_pairs_share_column_profiles():
    from ceq.matrix import column_multiplicity_profile

    rng = stream(6, "profiles")
    for trial in range(30):
        fld = rng.choice([F2, F3, F5])
        k = rng.randrange(1, 4)
        n = rng.randrange(k, k + 4)
        inst, _ = planted(fld, k, n, Tag.PCE, rng, zero_cols=rng.randrange(0, 2))
        assert column_multiplicity_profile(inst.G) == column_multiplicity_profile(inst.H)


def test_zero_column_pairing_maps_across_positions():
    # zero column at G position 0 must supply H position 2
    g = Mat(F2, [[0, 1, 0], [0, 0, 1]])
    h = Mat(F2, [[1, 0, 0], [0, 1, 0]])
    inst = Instance(F2, g, h, Tag.PCE)
    out = preprocess(inst)
    w = Witness(Mat.identity(F2, 2), Mono.identity(F2, 2))
    assert verify_witness(out.normalized, w)
    back = map_witness_to_original(out, w)
    assert back.M.perm.sigma[2] == 0
    assert verify_witness(inst, back)


def test_pickle_roundtrip_of_worker_payloads_drops_memoized_rref():
    # instances, witnesses and decide's records pickle by value; a pickled
    # matrix carries no memoized RREF
    import pickle

    fld = field(3, 6)
    rng = stream(11, "pickle")
    inst, w = planted(fld, 2, 4, Tag.LCE, rng)
    inst.G.rref()
    inst.H.rref_with_transform()
    assert inst.G._rref is not None and inst.H._rref_t is not None
    inst2 = pickle.loads(pickle.dumps(inst))
    mono2 = pickle.loads(pickle.dumps(w.M))
    mat2 = pickle.loads(pickle.dumps(inst.G))
    assert inst2 == inst and mono2 == w.M and mat2 == inst.G
    assert inst2.field is fld and mono2.field is fld
    for m in (inst2.G, inst2.H, mat2):
        assert m._rref is None and m._rref_t is None and m._memo == {}
    assert verify_witness(inst2, Witness(w.S, mono2))
    budget = Budget(max_nodes=500, time_limit=1.5, mode=Mode.BACKTRACKING)
    res = DecideResult(Status.YES, w, 12, 0.5, "found")
    budget2, res2 = pickle.loads(pickle.dumps((budget, res)))
    assert budget2 == budget and res2 == res and res2.witness.M.field is fld


# the roundtrip benchmark's fields: prime, 2^e and odd p^e on both sides
# of q = 256, below which GF(7) and GF(2^8) keep byte rows
ROUNDTRIP_FIELDS = [(2, 1), (7, 1), (65521, 1), (2, 8), (2, 16), (3, 5), (3, 6), (5, 4)]


def _singular(fld, k, rng):
    """A random singular k x k matrix: its last row is a combination of
    the others (zero when k = 1)."""
    rows = [[rng.randrange(fld.q) for _ in range(k)] for _ in range(k - 1)]
    last = Mat(fld, [[rng.randrange(fld.q) for _ in range(k - 1)]], k - 1).mul(Mat(fld, rows, k))
    return Mat(fld, rows + list(last.rows), k)


def _random_perm(n, rng):
    sigma = list(range(n))
    rng.shuffle(sigma)
    return Perm(tuple(sigma))


def test_verify_matches_the_reference_check():
    from ceq.reduction import ReductionCert, build_gadget, lift_witness, reduce_instance

    rng = stream(19, "verify-reference")
    verdicts = {True: 0, False: 0}
    singular_matches = 0

    def agree(inst, w):
        # the witness and its edits (swapped sources, a changed entry of
        # S, a scalar the tag does not allow, ...); verify_witness runs
        # first, so it finds no elimination of S left by the reference
        nonlocal singular_matches
        for cand in [w] + [m for _, m in _mutants(inst, w, rng)]:
            got = verify_witness(inst, cand)
            want = _dense_verify(inst, cand)
            assert got == want, (inst, cand)
            verdicts[want] += 1
            if not want and not cand.S.is_invertible() and cand.S.mul(inst.G).apply_mono(cand.M) == inst.H:
                singular_matches += 1

    for pe in ROUNDTRIP_FIELDS:
        fld = field(*pe)
        for tag in Tag:
            for k, n in ((1, 3), (2, 4), (3, 6)):
                inst, w = planted(fld, k, n, tag, rng, zero_cols=rng.randrange(0, 2))
                agree(inst, w)
        # raw rank-deficient pairs: an invertible S and a singular one,
        # both with S*G*M = H; checked before and after preprocessing
        # records the pair's rank
        for k, r, n in ((2, 1, 4), (3, 1, 5), (4, 2, 6), (3, 0, 3)):
            g = of_rank(fld, k, r, n, rng)
            m = Mono(fld, _random_perm(n, rng), (1,) * n)
            for s in (rand_invertible(fld, k, rng), _singular(fld, k, rng)):
                inst = Instance(fld, g, s.mul(g).apply_mono(m), Tag.PCE)
                w = Witness(s, m)
                agree(inst, w)
                out = preprocess(inst)
                agree(inst, w)
                if isinstance(out, Journal) and s.is_invertible():
                    norm_w = map_witness_to_normalized(out, w)
                    agree(out.normalized, norm_w)
        # gadget pairs of full-rank normalized pairs, lifted witnesses
        for target in (Tag.LCE, Tag.SPCE):
            inst, w = planted(fld, 3, 5, Tag.PCE, rng, zero_cols=1)
            reduced, cert = reduce_instance(inst, target)
            lifted = lift_witness(cert, map_witness_to_normalized(cert.journal, w))
            agree(reduced, lifted)
        # gadgets of a rank-deficient a, with an invertible and a singular S
        for k, r, n, m_dup in ((2, 1, 3, 2), (3, 2, 4, 3)):
            a = of_rank(fld, k, r, n, rng)
            perm = _random_perm(n, rng)
            for s in (rand_invertible(fld, k, rng), _singular(fld, k, rng)):
                h = s.mul(a).apply_mono(mono_from_perm(fld, perm))
                cert = ReductionCert(fld, Tag.LCE, n, k, m_dup)
                lifted = lift_witness(cert, Witness(s, mono_from_perm(fld, perm)))
                gadget_pair = Instance(fld, build_gadget(a, m_dup), build_gadget(h, m_dup), Tag.LCE)
                agree(gadget_pair, lifted)
    assert verdicts[True] >= 300 and verdicts[False] >= 900
    # the fallback's case: the columns all match and only S's rank refutes
    assert singular_matches >= 150
