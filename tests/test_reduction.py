import itertools
import os

import pytest

from ceq.core import (
    Instance,
    Journal,
    Rejection,
    Tag,
    Witness,
    diag_allowed,
    map_witness_to_normalized,
    map_witness_to_original,
    preprocess,
    verify_witness,
)
from ceq.errors import FieldMismatch, StructureViolation, WitnessInvalid
from ceq.field import field
from ceq.matrix import Mat, Mono, Perm
from ceq.oracle import Budget, GenSpec, Mode, Planted, Status, decide, generate
from ceq.reduction import (
    CHECK_BASIS,
    CHECK_BLOCKS,
    CHECK_SCALAR,
    build_gadget,
    canonical_no_instance,
    extract_witness,
    lift_witness,
    reduce_instance,
)
from ceq.rng import stream

from helpers import monomial_orbits, mono_from_perm, of_rank, with_zero_columns, zeros

F2 = field(2)
F3 = field(3)
F5 = field(5)


def planted_pce(fld, k, n, rng, zero_cols=0, dup_col=False):
    while True:
        rows = [[rng.randrange(fld.q) for _ in range(n)] for _ in range(k)]
        g = Mat(fld, rows, n)
        if g.rank() == k:
            break
    if dup_col and n >= 2:
        rows = [list(r) for r in g.rows]
        src = rng.randrange(n)
        dst = rng.randrange(n)
        if src != dst and g.rank() == k:
            for r in rows:
                r[dst] = r[src]
            cand = Mat(fld, rows, n)
            if cand.rank() == k:
                g = cand
    if zero_cols:
        rows = [list(r) for r in g.rows]
        for _ in range(zero_cols):
            pos = rng.randrange(len(rows[0]) + 1)
            for r in rows:
                r.insert(pos, 0)
        g = Mat(fld, rows, g.n + zero_cols)
    n_full = g.n
    while True:
        s = Mat(fld, [[rng.randrange(fld.q) for _ in range(k)] for _ in range(k)], k)
        if s.is_invertible():
            break
    sigma = list(range(n_full))
    rng.shuffle(sigma)
    m = mono_from_perm(fld, Perm(tuple(sigma)))
    h = s.mul(g).apply_mono(m)
    return Instance(fld, g, h, Tag.PCE), Witness(s, m)


# ---------------------------------------------------------------------------
# gadget shape


def test_gadget_1x1_layout():
    out = build_gadget(Mat(F2, [[1]]), 2)
    assert (out.k, out.n) == (2, 6)
    assert out.rows == ((1, 1, 1, 0, 0, 0), (1, 0, 0, 1, 1, 1))
    # n * m = 1: a single duplicated column
    out = build_gadget(Mat(F5, [[3], [4]]), 1)
    assert out.rows == ((3, 3, 0, 0), (4, 4, 0, 0), (1, 0, 1, 1))


def test_gadget_rows_match_the_block_layout():
    # [a | each column of a m times | 0] over [1 | 0 | 1], built entry by
    # entry. The gadget's rows come from its distinct-column view, so the
    # inputs also repeat columns and hold an all-zero column, whose slot
    # the view gives block 3
    rng = stream(20261019, "gadget-layout")
    zero_slots = 0
    for fld in (F2, F5, field(2, 8), field(3, 5)):
        inputs = []
        for k, n, m in ((0, 2, 3), (1, 1, 1), (2, 1, 3), (3, 4, 1), (4, 5, 2), (2, 6, 4)):
            inputs.append((Mat(fld, [[rng.randrange(fld.q) for _ in range(n)] for _ in range(k)], n), m))
        for k, n, m in ((1, 4, 1), (2, 5, 2), (3, 7, 3), (2, 6, 1)):
            pool = [(0,) * k] + [tuple(rng.randrange(fld.q) for _ in range(k)) for _ in range(2)]
            cols = pool + [rng.choice(pool) for _ in range(n - len(pool))]
            rng.shuffle(cols)
            a = Mat(fld, [[c[i] for c in cols] for i in range(k)], n)
            assert (0,) * k in a.cols() and a.distinct_cols()[0].n < n
            inputs.append((a, m))
        for a, m in inputs:
            n = a.n
            want = [list(r) + [r[c] for c in range(n) for _ in range(m)] + [0] * (n * m + 1) for r in a.rows]
            want.append([1] * n + [0] * (n * m) + [1] * (n * m + 1))
            out = build_gadget(a, m)
            assert [list(r) for r in out.rows] == want
            assert all(type(r) is tuple for r in out.rows) and out.n == n + 2 * n * m + 1
            zero_slots += a.k > 0 and (0,) * a.k in a.cols()
    assert zero_slots >= 16


def test_gadget_identity_layout():
    out = build_gadget(Mat.identity(F2, 2), 2)
    assert (out.k, out.n) == (3, 11)
    # block 2 duplicates each source column twice, with a zero marker row
    cols = out.cols()
    assert cols[2:6] == ((1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 1, 0))
    # block 3 is nm+1 = 5 copies of the last standard basis vector
    assert cols[6:11] == ((0, 0, 1),) * 5
    # block 1 carries the original columns over a ones marker row
    assert cols[:2] == ((1, 0, 1), (0, 1, 1))


def test_gadget_blowup_identity_and_rank():
    rng = stream(31, "blowup")
    for _ in range(40):
        fld = rng.choice([F2, F3, F5])
        k = rng.randrange(1, 4)
        n = rng.randrange(max(k, 1), 6)
        while True:
            a = Mat(fld, [[rng.randrange(fld.q) for _ in range(n)] for _ in range(k)], n)
            if a.rank() == k:
                break
        m = rng.randrange(1, 5)
        out = build_gadget(a, m)
        assert out.n == n + 2 * n * m + 1
        assert out.k == k + 1
        assert out.rank() == k + 1


def test_gadget_rank_from_distinct_columns_matches_full_rref():
    # the argument in build_gadget: the gadget's rank is rank(A) + 1, for
    # full-row-rank and rank-deficient inputs alike (taken through the
    # validating constructor, so no cached elimination is reused)
    rng = stream(32, "gadget-rank")
    fields = [F2, F3, field(2, 2), F5, field(7), field(3, 2), field(2, 8), field(65521)]
    deficient = 0
    for _ in range(120):
        fld = rng.choice(fields)
        k = rng.randrange(0, 5)
        n = rng.randrange(1, 7)
        pool = [[rng.randrange(fld.q) for _ in range(k)] for _ in range(rng.randrange(1, n + 1))]
        cols = [rng.choice(pool) for _ in range(n)]
        if rng.randrange(3) == 0 and k >= 2:
            # force a dependent row
            cols = [c[:-1] + [c[0]] for c in cols]
        a = Mat(fld, [[c[i] for c in cols] for i in range(k)], n)
        m = rng.randrange(1, 5)
        out = build_gadget(a, m)
        full = Mat(fld, out.rows, out.n)
        assert full.rank() == a.rank() + 1
        deficient += a.rank() < k
    assert deficient >= 20
    # degenerate shapes: no rows, all-zero inputs, a single column, m = 1
    # (an input without columns, see test_gadget_of_no_columns_is_the_marker_column)
    for k, n in ((0, 3), (2, 3), (0, 1), (3, 1)):
        out = build_gadget(zeros(F3, k, n), 1)
        assert Mat(F3, out.rows, out.n).rank() == 1


def test_gadget_of_no_columns_is_the_marker_column():
    # a k x 0 input keeps only the last block, one column e_{k+1}; its
    # recorded rank and distinct-column view are those of a fresh Mat
    for k in (0, 2):
        out = build_gadget(zeros(F2, k, 0), 2)
        fresh = Mat(F2, [[0]] * k + [[1]])
        assert out == fresh
        assert out.rank() == fresh.rank() == 1
        assert out.distinct_cols() == fresh.distinct_cols()


def test_gadget_is_memoized_per_duplication_count():
    a = Mat(F3, [[1, 2, 0, 1], [0, 1, 1, 0]])
    g2, g3 = build_gadget(a, 2), build_gadget(a, 3)
    assert (g2.n, g3.n) == (4 + 16 + 1, 4 + 24 + 1) and g2 != g3
    assert build_gadget(a, 2) is g2 and build_gadget(a, 3) is g3
    # the same gadgets, built afresh on a matrix with an empty memo
    fresh = Mat(F3, a.rows)
    assert build_gadget(fresh, 3) == g3 and build_gadget(fresh, 2) == g2


def test_extract_reuses_the_gadgets_of_the_reduction():
    rng = stream(23, "gadget-memo")
    inst, w = planted_pce(F5, 2, 5, rng)
    red, cert = reduce_instance(inst, Tag.LCE)
    norm = cert.journal.normalized
    assert build_gadget(norm.G, cert.m) is red.G and build_gadget(norm.H, cert.m) is red.H
    lifted = lift_witness(cert, map_witness_to_normalized(cert.journal, w))
    back = extract_witness(cert, norm.G, norm.H, lifted)
    assert verify_witness(norm, back)


# ---------------------------------------------------------------------------
# reduction


def test_reduce_identity_pair():
    i2 = Mat.identity(F2, 2)
    red, cert = reduce_instance(Instance(F2, i2, i2, Tag.PCE), Tag.LCE)
    assert red.G == red.H
    assert (red.k, red.n) == (3, 11)
    assert (cert.n, cert.k, cert.m) == (2, 2, 2)
    assert cert.n_prime == 11
    assert [list(b) for b in cert.blocks] == [[0, 1], [2, 3, 4, 5], [6, 7, 8, 9, 10]]


def test_reduce_requires_pce_input():
    i2 = Mat.identity(F2, 2)
    with pytest.raises(ValueError):
        reduce_instance(Instance(F2, i2, i2, Tag.LCE), Tag.LCE)
    with pytest.raises(ValueError):
        reduce_instance(Instance(F2, i2, i2, Tag.PCE), Tag.PCE)


def test_reduce_reject_emits_canonical_no():
    g = Mat(F2, [[1, 0]])
    h = Mat(F2, [[1, 1]])
    red, cert = reduce_instance(Instance(F2, g, h, Tag.PCE), Tag.LCE)
    assert cert.rejected
    assert red == canonical_no_instance(F2, Tag.LCE)


def test_canonical_no_pair_is_no_over_many_fields():
    for fld in (F2, F3, field(2, 2), F5, field(7), field(3, 2)):
        for tag in (Tag.LCE, Tag.SPCE, Tag.PCE):
            inst = canonical_no_instance(fld, tag)
            res = decide(inst, Budget(mode=Mode.EXHAUSTIVE))
            assert res.status is Status.NO, (fld, tag)


def test_reduce_degenerate_zero_width():
    g = zeros(F2, 2, 0)
    red, cert = reduce_instance(Instance(F2, g, g, Tag.PCE), Tag.SPCE)
    assert cert.n == 0
    assert red.G.rows == ((1,),) and red.H.rows == ((1,),)
    lifted = lift_witness(cert, Witness(Mat.identity(F2, 0), Mono.identity(F2, 0)))
    assert verify_witness(red, lifted)


def test_degenerate_cert_checks_the_witness_it_is_given():
    # the all-zero 2 x 3 pair normalizes to 0 x 0 and its gadget pair is
    # [1], [1]: lift takes only the 0 x 0 witness, and extract only a
    # witness that verifies on that pair
    zero = zeros(F3, 2, 3)
    inst = Instance(F3, zero, zero, Tag.PCE)
    empty = Witness(Mat.identity(F3, 0), Mono.identity(F3, 0))
    one = Witness(Mat.identity(F3, 1), Mono.identity(F3, 1))
    for target in (Tag.LCE, Tag.SPCE):
        red, cert = reduce_instance(inst, target)
        assert cert.n == 0 and red == Instance(F3, Mat(F3, [[1]]), Mat(F3, [[1]]), target)
        assert lift_witness(cert, empty) == one
        for bad in (one, Witness(Mat.identity(F3, 2), Mono.identity(F3, 3))):
            with pytest.raises(WitnessInvalid):
                lift_witness(cert, bad)
        norm = cert.journal.normalized
        # 2 * 1 * 2 = 1, while 2 * 1 * 1 = 2
        good = Witness(Mat(F3, [[2]]), Mono(F3, Perm((0,)), (2,)))
        assert verify_witness(red, good)
        unscaled = Witness(Mat(F3, [[2]]), Mono.identity(F3, 1))
        for bad in (unscaled, Witness(Mat.identity(F3, 2), Mono.identity(F3, 3))):
            with pytest.raises(WitnessInvalid):
                extract_witness(cert, norm.G, norm.H, bad)
        got = extract_witness(cert, norm.G, norm.H, good)
        assert got == empty
        assert verify_witness(inst, map_witness_to_original(cert.journal, got))


def test_reduced_yes_pair_is_yes_for_both_targets():
    i2 = Mat.identity(F2, 2)
    sw = Mat(F2, [[0, 1], [1, 0]])
    inst = Instance(F2, i2, sw, Tag.PCE)
    for target in (Tag.LCE, Tag.SPCE):
        red, cert = reduce_instance(inst, target)
        res = decide(red, Budget(mode=Mode.BACKTRACKING))
        assert res.status is Status.YES


# ---------------------------------------------------------------------------
# lifting


def test_lift_identity_witness():
    i2 = Mat.identity(F3, 2)
    red, cert = reduce_instance(Instance(F3, i2, i2, Tag.PCE), Tag.LCE)
    w = Witness(Mat.identity(F3, 2), Mono.identity(F3, 2))
    lifted = lift_witness(cert, w)
    assert lifted.S == Mat.identity(F3, 3)
    assert lifted.M.perm == Perm.identity(lifted.M.n)
    assert verify_witness(red, lifted)


def test_lift_swap_block_map():
    # n = 2, m = 2, sigma = swap: in 1-based terms the lifted map sends
    # position 3 to 5, position 5 to 3, and fixes positions 7..11
    i2 = Mat.identity(F2, 2)
    sw = Mat(F2, [[0, 1], [1, 0]])
    inst = Instance(F2, i2, sw, Tag.PCE)
    red, cert = reduce_instance(inst, Tag.LCE)
    w = Witness(Mat.identity(F2, 2), mono_from_perm(F2, Perm((1, 0))))
    w_norm = map_witness_to_normalized(cert.journal, w)
    lifted = lift_witness(cert, w_norm)
    one_based = [s + 1 for s in lifted.M.perm.sigma]
    assert one_based[2] == 5 and one_based[4] == 3
    assert all(one_based[x - 1] == x for x in range(7, 12))
    assert verify_witness(red, lifted)
    assert verify_witness(Instance(F2, red.G, red.H, Tag.PCE), lifted)
    assert verify_witness(Instance(F2, red.G, red.H, Tag.SPCE), lifted)


def test_lift_requires_pure_permutation():
    g = Mat(F3, [[1, 2]])
    red, cert = reduce_instance(Instance(F3, g, g, Tag.PCE), Tag.LCE)
    scaled = Witness(Mat.identity(F3, 1), Mono(F3, Perm((0, 1)), (2, 2)))
    with pytest.raises(WitnessInvalid):
        lift_witness(cert, scaled)


def test_lift_rejects_a_witness_from_another_field():
    i2 = Mat.identity(F5, 2)
    red, cert = reduce_instance(Instance(F5, i2, i2, Tag.PCE), Tag.LCE)
    for w in (
        Witness(Mat.identity(F2, 2), Mono.identity(F2, 2)),
        Witness(Mat.identity(F5, 2), Mono.identity(F2, 2)),
        Witness(Mat.identity(F2, 2), Mono.identity(F5, 2)),
    ):
        with pytest.raises(FieldMismatch):
            lift_witness(cert, w)


def test_lift_on_rejected_cert_fails():
    red, cert = reduce_instance(
        Instance(F2, Mat(F2, [[1, 0]]), Mat(F2, [[1, 1]]), Tag.PCE), Tag.LCE
    )
    with pytest.raises(WitnessInvalid):
        lift_witness(cert, Witness(Mat.identity(F2, 1), Mono.identity(F2, 2)))


def test_lift_completeness_randomized():
    rng = stream(37, "complete")
    for trial in range(40):
        fld = rng.choice([F2, F3, F5, field(2, 2)])
        k = rng.randrange(1, 4)
        n = rng.randrange(k, 6)
        inst, w = planted_pce(fld, k, n, rng, zero_cols=rng.randrange(0, 2), dup_col=rng.random() < 0.5)
        for target in (Tag.LCE, Tag.SPCE):
            red, cert = reduce_instance(inst, target)
            assert not cert.rejected
            w_norm = map_witness_to_normalized(cert.journal, w)
            lifted = lift_witness(cert, w_norm)
            assert verify_witness(red, lifted)
            assert verify_witness(Instance(fld, red.G, red.H, Tag.PCE), lifted)


# ---------------------------------------------------------------------------
# extraction


def test_extract_round_trip_identity():
    i2 = Mat.identity(F2, 2)
    red, cert = reduce_instance(Instance(F2, i2, i2, Tag.PCE), Tag.LCE)
    w = Witness(Mat.identity(F2, 2), Mono.identity(F2, 2))
    lifted = lift_witness(cert, w)
    norm = cert.journal.normalized
    back = extract_witness(cert, norm.G, norm.H, lifted)
    assert back.S == Mat.identity(F2, 2)
    assert back.M.perm == Perm.identity(2)


def test_extract_from_solver_witness():
    i2 = Mat.identity(F2, 2)
    sw = Mat(F2, [[0, 1], [1, 0]])
    inst = Instance(F2, i2, sw, Tag.PCE)
    red, cert = reduce_instance(inst, Tag.LCE)
    res = decide(red, Budget(mode=Mode.EXHAUSTIVE))
    assert res.status is Status.YES
    norm = cert.journal.normalized
    got = extract_witness(cert, norm.G, norm.H, res.witness)
    assert got.M.is_permutation()
    assert verify_witness(Instance(F2, norm.G, norm.H, Tag.PCE), got)


def test_extract_scaled_witness_folds_global_scalar():
    # scale a lifted permutation witness by a global unit; extraction must
    # still recover an unsigned permutation witness
    rng = stream(41, "scaled")
    inst, w = planted_pce(F5, 2, 3, rng)
    red, cert = reduce_instance(inst, Tag.LCE)
    w_norm = map_witness_to_normalized(cert.journal, w)
    lifted = lift_witness(cert, w_norm)
    a = 3
    scaled = Witness(
        lifted.S.scale(F5.inv(a)),
        Mono(F5, lifted.M.perm, tuple(F5.mul(a, d) for d in lifted.M.diag)),
    )
    assert verify_witness(red, scaled)
    norm = cert.journal.normalized
    got = extract_witness(cert, norm.G, norm.H, scaled)
    assert got.M.is_permutation()
    assert verify_witness(Instance(F5, norm.G, norm.H, Tag.PCE), got)


def test_extract_block_violation():
    i2 = Mat.identity(F2, 2)
    sw = Mat(F2, [[0, 1], [1, 0]])
    red, cert = reduce_instance(Instance(F2, i2, sw, Tag.PCE), Tag.LCE)
    w = Witness(Mat.identity(F2, 2), mono_from_perm(F2, Perm((1, 0))))
    lifted = lift_witness(cert, map_witness_to_normalized(cert.journal, w))
    sigma = list(lifted.M.perm.sigma)
    sigma[0], sigma[2] = sigma[2], sigma[0]
    crossed = Witness(lifted.S, mono_from_perm(F2, Perm(tuple(sigma))))
    norm = cert.journal.normalized
    with pytest.raises(StructureViolation) as exc:
        extract_witness(cert, norm.G, norm.H, crossed)
    assert exc.value.check == CHECK_BLOCKS


def test_extract_basis_violation():
    i2 = Mat.identity(F2, 2)
    red, cert = reduce_instance(Instance(F2, i2, i2, Tag.PCE), Tag.LCE)
    lifted = lift_witness(cert, Witness(i2, Mono.identity(F2, 2)))
    rows = [list(r) for r in lifted.S.rows]
    rows[0][2] = 1  # couple the marker coordinate into the code rows
    bad = Witness(Mat(F2, rows), lifted.M)
    norm = cert.journal.normalized
    with pytest.raises(StructureViolation) as exc:
        extract_witness(cert, norm.G, norm.H, bad)
    assert exc.value.check == CHECK_BASIS


def test_extract_scalar_violation():
    rng = stream(43, "scalarviolation")
    inst, w = planted_pce(F5, 2, 3, rng)
    red, cert = reduce_instance(inst, Tag.LCE)
    lifted = lift_witness(cert, map_witness_to_normalized(cert.journal, w))
    diag = list(lifted.M.diag)
    diag[0] = 2  # one first-block source scaled differently
    bad = Witness(lifted.S, Mono(F5, lifted.M.perm, tuple(diag)))
    norm = cert.journal.normalized
    with pytest.raises(StructureViolation) as exc:
        extract_witness(cert, norm.G, norm.H, bad)
    assert exc.value.check == CHECK_SCALAR


def test_extract_rejects_non_verifying_witness():
    # structure-clean but wrong permutation inside block 1
    i2 = Mat.identity(F2, 2)
    sw = Mat(F2, [[0, 1], [1, 0]])
    red, cert = reduce_instance(Instance(F2, i2, sw, Tag.PCE), Tag.LCE)
    w = Witness(Mat.identity(F2, 2), mono_from_perm(F2, Perm((1, 0))))
    lifted = lift_witness(cert, map_witness_to_normalized(cert.journal, w))
    wrong = Witness(Mat.identity(F2, 3), lifted.M)
    norm = cert.journal.normalized
    with pytest.raises(WitnessInvalid):
        extract_witness(cert, norm.G, norm.H, wrong)


def test_extract_from_spce_target_witnesses():
    rng = stream(53, "spce-extract")
    fields = [F2, F3, F5, field(2, 2), field(3, 2)]
    for i in range(25):
        fld = rng.choice(fields)
        n = rng.randrange(1, 5)
        k = rng.randrange(1, min(n, 3) + 1)
        inst, _ = planted_pce(fld, k, n, rng)
        red, cert = reduce_instance(inst, Tag.SPCE)
        res = decide(red, Budget(mode=Mode.BACKTRACKING))
        assert res.status is Status.YES
        assert diag_allowed(fld, Tag.SPCE, res.witness.M.diag)
        norm = cert.journal.normalized
        got = extract_witness(cert, norm.G, norm.H, res.witness)
        assert got.M.is_permutation()
        assert verify_witness(Instance(fld, norm.G, norm.H, Tag.PCE), got)


# ---------------------------------------------------------------------------
# soundness sweep: every k x n pair over F_2 with k, n <= 2


def _all_mats(fld, k, n):
    cells = k * n
    for bits in itertools.product(range(fld.q), repeat=cells):
        rows = [bits[i * n : (i + 1) * n] for i in range(k)]
        yield Mat(fld, rows, n)


def test_soundness_exhaustive_sweep_q2():
    budget = Budget(max_nodes=10_000_000, mode=Mode.EXHAUSTIVE)
    checked = 0
    for k in (1, 2):
        for n in (1, 2):
            for g in _all_mats(F2, k, n):
                for h in _all_mats(F2, k, n):
                    inst = Instance(F2, g, h, Tag.PCE)
                    truth = decide(inst, budget)
                    assert truth.status in (Status.YES, Status.NO)
                    red, cert = reduce_instance(inst, Tag.LCE)
                    reduced_res = decide(red, budget)
                    assert reduced_res.status in (Status.YES, Status.NO)
                    # Karp property, both directions at oracle scale
                    assert reduced_res.status == truth.status, (g.rows, h.rows)
                    checked += 1
    assert checked == 4 + 16 + 16 + 256



def test_soundness_hard_no_through_gadget():
    """Certified-NO PCE pairs that survive preprocessing reduce to NO pairs.

    The profile hint gives G and H the same column-multiplicity profile, so
    a share of the pairs gets past every preprocessing rule and through the
    gadget; the backtracker (whose YES answers always carry a verified
    witness) must then answer NO for both targets.
    """
    budget = Budget(max_nodes=200_000, mode=Mode.BACKTRACKING)
    reached = 0
    for p, e in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1)):
        for n, profile in ((4, (2, 1, 1)), (5, (2, 1, 1, 1))):
            for seed in range(8):
                spec = GenSpec(field(p, e), 2, n, Tag.PCE, Planted.NO, seed, profile)
                inst = generate(spec).instance
                if isinstance(preprocess(inst), Rejection):
                    continue
                reached += 1
                for target in (Tag.LCE, Tag.SPCE):
                    red, cert = reduce_instance(inst, target)
                    assert not cert.rejected
                    res = decide(red, budget)
                    assert res.status is Status.NO, (p, e, n, seed, target, res.status)
    # preprocessing must not quietly swallow the sweep (29 of 80 pairs today)
    assert reached >= 25


def test_soundness_hard_no_through_gadget_wide():
    """The same sweep at n = 6, with two column profiles and the larger
    fields q in {8, 9, 11, 13, 16}: every certified-NO PCE pair that gets
    past preprocessing must reduce to a NO for both targets."""
    budget = Budget(max_nodes=200_000, mode=Mode.BACKTRACKING)
    reached = 0
    for p, e in ((2, 3), (3, 2), (11, 1), (13, 1), (2, 4)):
        for profile in ((2, 2, 1, 1), (3, 1, 1, 1)):
            for seed in range(8):
                spec = GenSpec(field(p, e), 2, 6, Tag.PCE, Planted.NO, seed, profile)
                inst = generate(spec).instance
                if isinstance(preprocess(inst), Rejection):
                    continue
                reached += 1
                for target in (Tag.LCE, Tag.SPCE):
                    red, cert = reduce_instance(inst, target)
                    assert not cert.rejected
                    res = decide(red, budget)
                    assert res.status is Status.NO, (p, e, profile, seed, target, res.status)
    # 63 of 80 pairs reach the gadget today
    assert reached >= 55


def _margin_pair(fld, a, b, target):
    """The PCE pair (a, b), checked NO in both modes, and its gadget pair
    for target with its cert."""
    inst = Instance(fld, Mat(fld, a), Mat(fld, b), Tag.PCE)
    for mode in Mode:
        assert decide(inst, Budget(mode=mode)).status is Status.NO
    red, cert = reduce_instance(inst, target)
    assert not cert.rejected
    return red, cert


def _backtrack(fld, g, h, target):
    res = decide(Instance(fld, g, h, target), Budget(mode=Mode.BACKTRACKING))
    return res.status, res.nodes


@pytest.mark.parametrize("target", [Tag.LCE, Tag.SPCE])
def test_soundness_margin_of_m_duplicates_gf3(target):
    """A PCE NO pair whose gadget needs all m = mu_max + 1 duplicates.

    Over GF(3), A = [1 0 0 0 1; 0 1 0 1 0; 0 0 1 1 1] and B is A with
    columns 3-5 negated. With m duplicates the class of each [a_j; 0] is
    here m times as large as that of [a_j; 1], so no witness exchanges
    the two.
    With m - 1 = 1 they are the same size, and S = [S' 0; v c] may swap
    [a_j; 1] with [a_j; 0] wherever v . a_j = -c: v = (0, 0, 1) takes the
    one non-zero value 1 on A's columns, and on columns 3-5 exactly, which
    gives their sign flip. The 4 x 26 gadget pair is NO; its m - 1 twin
    is YES, with a witness that `decide` verifies.
    """
    a = [[1, 0, 0, 0, 1], [0, 1, 0, 1, 0], [0, 0, 1, 1, 1]]
    b = [[1, 0, 0, 0, 2], [0, 1, 0, 2, 0], [0, 0, 2, 2, 2]]
    red, cert = _margin_pair(F3, a, b, target)
    assert _backtrack(F3, red.G, red.H, target) == (Status.NO, 421)
    assert (red.k, red.n, cert.m) == (4, 26, 2)
    norm = cert.journal.normalized
    fewer = [build_gadget(x, cert.m - 1) for x in (norm.G, norm.H)]
    assert _backtrack(F3, *fewer, target) == (Status.YES, 803)


@pytest.mark.parametrize("target, nodes", [(Tag.LCE, 100), (Tag.SPCE, 76)])
def test_soundness_margin_of_the_third_block_gf4(target, nodes):
    """A PCE NO pair whose gadget needs the third block's nm + 1 columns.

    Over GF(4), A = [1 0 0 1; 0 1 2 1] and B = [1 0 0 1; 0 1 2 2]. With
    nm + 1 columns e_{k+1} is the largest class, so S fixes its line. Cut
    to one column, the 3 x 13 LCE pair is YES: S = [1 0 0; 2 2 2; 0 0 1]
    sends e_3 to the first-block column [0; 2; 1], that to [0; 1; 1] and
    that to e_3, and so [1; 1; 1] to B's [1; 2; 1]. It maps [0; y; 0] to
    [0; 2y; 0], which the second block's columns [0; 1; 0] and [0; 2; 0]
    undo with the scalar 3 = 2^-1: an LCE scalar other than +-1, which
    SPCE over GF(4) lacks. The 3 x 21 gadget pair is NO for both targets.
    """
    fld = field(2, 2)
    red, cert = _margin_pair(fld, [[1, 0, 0, 1], [0, 1, 2, 1]], [[1, 0, 0, 1], [0, 1, 2, 2]], target)
    assert _backtrack(fld, red.G, red.H, target) == (Status.NO, nodes)
    assert (red.k, red.n, cert.m) == (3, 21, 2)
    width = cert.n + cert.n * cert.m + 1
    cut = [Mat(fld, [row[:width] for row in x.rows], width) for x in (red.G, red.H)]
    assert _backtrack(fld, *cut, target) == ((Status.YES, 48) if target is Tag.LCE else (Status.NO, 99))


def _subspaces(fld, k, n):
    """Every k-dimensional subspace of F_q^n, as the RREF matrix of its basis."""
    for pivots in itertools.combinations(range(n), k):
        free = [(i, c) for i in range(k) for c in range(pivots[i] + 1, n) if c not in pivots]
        for vals in itertools.product(range(fld.q), repeat=len(free)):
            rows = [[0] * n for _ in range(k)]
            for i, c in enumerate(pivots):
                rows[i][c] = 1
            for (i, c), v in zip(free, vals):
                rows[i][c] = v
            yield Mat(fld, rows, n)


def _column_orbit_representatives(mats):
    """The first matrix of each orbit under column permutation, the orbits
    taken on RREFs."""
    seen, reps = set(), []
    for g in mats:
        if g.rows in seen:
            continue
        reps.append(g)
        for sigma in itertools.permutations(range(g.n)):
            permuted = Mat(g.field, [[row[s] for s in sigma] for row in g.rows], g.n)
            seen.add(permuted.rref()[0].rows)
    return reps


# the n = 4 censuses over GF(4) and GF(5) take seconds to a minute; they
# run when this environment variable is set to 1
LONG_CENSUS = os.environ.get("CEQ_LONG_CENSUS") == "1"
_long = pytest.mark.skipif(not LONG_CENSUS, reason="set CEQ_LONG_CENSUS=1 to run")


@pytest.mark.parametrize(
    "p, e, k, n, subspaces, orbits, gadget_no_floor, scaled_floor",
    [
        (3, 1, 2, 4, 130, 16, 600, 36),
        (2, 1, 3, 5, 155, 10, 225, 0),
        (2, 2, 2, 3, 21, 7, 108, 3),
        (5, 1, 2, 3, 31, 9, 270, 3),
        (7, 1, 2, 3, 57, 15, 1100, 6),
        pytest.param(2, 2, 2, 4, 357, 31, 5600, 100, marks=_long),
        pytest.param(5, 1, 2, 4, 806, 56, 32500, 280, marks=_long),
    ],
    ids=["GF3-k2-n4", "GF2-k3-n5", "GF4-k2-n3", "GF5-k2-n3", "GF7-k2-n3", "GF4-k2-n4", "GF5-k2-n4"],
)
def test_karp_census(p, e, k, n, subspaces, orbits, gadget_no_floor, scaled_floor):
    """The Karp property on every PCE pair of one size, up to permuting G's
    columns, which does not change PCE equivalence: the truth comes from
    the exhaustive decider, and both gadgets, decided by backtracking, must
    give the same answer. Every gadget YES witness is carried back through
    `extract_witness` and `map_witness_to_original` and must verify on the
    PCE pair; from GF(3) on, some of them carry a scalar other than 1.

    Over GF(2) and GF(3) every LCE scalar is a sign; from GF(4) on, LCE has
    scalars other than +-1, which the gadget's third block (the nm + 1
    columns e_{k+1}) exists for. Mutants of the gadget checked against the
    census; the layout is spelled once, so a margin mutant is an edit to
    `_gadget_view` (and to the cert's width, `ReductionCert.n_prime`,
    which `reduce_instance`'s shape check ties to it), with no recorded
    view to switch off:

    - without the third block, LCE answers go wrong at n = 3: 6 over
      GF(4), 4 over GF(5) and 10 over GF(7). The GF(2) and GF(3) cases,
      and both hard-NO sweeps, pass on that mutant;
    - a third block of one column instead of nm + 1, with the cert's
      width cut to match so that extraction reads the blocks it has,
      passes every case at n = 3, and gives 40 wrong LCE answers over
      GF(4) and 24 over GF(5) at n = 4, which only the CEQ_LONG_CENSUS
      cases run; in tier-1, `test_soundness_margin_of_the_third_block_gf4`
      kills it;
    - one duplicate fewer per column (m - 1, with the cert's lower bound
      on m relaxed) gives no wrong answer, up to GF(5) at n = 4, but some
      of its YES witnesses draw a column from another block, which
      `extract_witness` refuses, over GF(3) at n = 4 and over GF(5) and
      GF(7) at n = 3; `test_soundness_margin_of_m_duplicates_gf3` kills it
      through a wrong answer.
    """
    fld = field(p, e)
    every_h = list(_subspaces(fld, k, n))
    reps = _column_orbit_representatives(every_h)
    assert (len(every_h), len(reps)) == (subspaces, orbits)
    exhaustive, backtracking = Budget(mode=Mode.EXHAUSTIVE), Budget(mode=Mode.BACKTRACKING)
    gadget_no = 0
    scaled = 0
    for g in reps:
        for h in every_h:
            inst = Instance(fld, g, h, Tag.PCE)
            truth = decide(inst, exhaustive).status
            assert truth in (Status.YES, Status.NO)
            for target in (Tag.LCE, Tag.SPCE):
                red, cert = reduce_instance(inst, target)
                res = decide(red, backtracking)
                assert res.status is truth, (g.rows, h.rows, target)
                gadget_no += truth is Status.NO and not cert.rejected
                if truth is Status.YES:
                    # every gadget witness carries back to the PCE pair
                    norm = cert.journal.normalized
                    back = extract_witness(cert, norm.G, norm.H, res.witness)
                    assert verify_witness(inst, map_witness_to_original(cert.journal, back)), (g.rows, h.rows)
                    scaled += any(d != 1 for d in res.witness.M.diag)
    # NOs that reach the gadget instead of a preprocessing rule
    assert gadget_no >= gadget_no_floor
    # YES witnesses with a diagonal entry other than 1, over both targets
    assert scaled >= scaled_floor, scaled


def _orbit_pairs(fld, k, n):
    """The PCE orbits of the k-subspaces of F_q^n, under column
    permutations, and the census pairs they give: every ordered pair of
    distinct orbit representatives is NO, and each representative with
    every member of its orbit is YES."""
    orbits = [[Mat(fld, rows, n) for rows in orbit] for orbit in monomial_orbits(fld, Tag.PCE, k, n)]
    reps = [orbit[0] for orbit in orbits]
    pairs = [(g, h, Status.NO) for g in reps for h in reps if g is not h]
    pairs += [(orbit[0], h, Status.YES) for orbit in orbits for h in orbit]
    return orbits, pairs


@pytest.mark.parametrize(
    "p, e, k, n, subspaces, orbits",
    [(3, 1, 2, 4, 130, 16), (2, 1, 3, 5, 155, 10), (2, 2, 2, 3, 21, 7), (5, 1, 2, 3, 31, 9),
     (7, 1, 2, 3, 57, 15)],
    ids=["GF3-k2-n4", "GF2-k3-n5", "GF4-k2-n3", "GF5-k2-n3", "GF7-k2-n3"],
)
def test_orbit_truth_matches_the_exhaustive_decider(p, e, k, n, subspaces, orbits):
    # the orbit census's truth on the tier-1 `test_karp_census` shapes,
    # whose orbit counts that census pins from its own orbit walk
    fld = field(p, e)
    found, pairs = _orbit_pairs(fld, k, n)
    assert (sum(map(len, found)), len(found)) == (subspaces, orbits)
    exhaustive = Budget(mode=Mode.EXHAUSTIVE)
    for g, h, truth in pairs:
        assert decide(Instance(fld, g, h, Tag.PCE), exhaustive).status is truth, (g.rows, h.rows)


@pytest.mark.parametrize(
    "p, e, k, n, subspaces, orbits, pairs, gadget_no",
    [
        (2, 2, 2, 4, 357, 31, 1287, 496),
        pytest.param(3, 1, 3, 5, 1210, 39, 2692, 892, marks=_long),
        pytest.param(7, 1, 2, 4, 2850, 162, 28932, 28616, marks=_long),
    ],
    ids=["GF4-k2-n4", "GF3-k3-n5", "GF7-k2-n4"],
)
def test_karp_orbit_census(p, e, k, n, subspaces, orbits, pairs, gadget_no):
    """The Karp property on one pair per orbit relation of a size, both
    targets. PCE truth comes from the column-permutation orbits (see
    `_orbit_pairs`), and the exhaustive decider must agree with it; PCE
    truth and the gadget's answer are both constant on orbits, so these
    pairs cover what `test_karp_census` checks at the same size with one
    pair per (representative, orbit) relation. Every gadget YES witness
    is carried back to the PCE pair and must verify.

    Wrong answers of the margin mutants (see `test_karp_census`), over
    both targets: a one-column third block gives 4 at GF(4) k2n4 and 6 at
    GF(7) k2n4, no third block 6 and 32, all LCE; m - 1 duplicates per
    column give 16 at GF(3) k3n5 and 4 at GF(7) k2n4, half of them SPCE.
    So the tier-1 case sees the third block's margins, and the gated ones
    see all three.
    """
    fld = field(p, e)
    found, census = _orbit_pairs(fld, k, n)
    assert (sum(map(len, found)), len(found), len(census)) == (subspaces, orbits, pairs)
    exhaustive, backtracking = Budget(mode=Mode.EXHAUSTIVE), Budget(mode=Mode.BACKTRACKING)
    reached = 0
    for g, h, truth in census:
        inst = Instance(fld, g, h, Tag.PCE)
        assert decide(inst, exhaustive).status is truth, (g.rows, h.rows)
        for target in (Tag.LCE, Tag.SPCE):
            red, cert = reduce_instance(inst, target)
            res = decide(red, backtracking)
            assert res.status is truth, (g.rows, h.rows, target)
            reached += truth is Status.NO and not cert.rejected
            if truth is Status.YES:
                norm = cert.journal.normalized
                back = extract_witness(cert, norm.G, norm.H, res.witness)
                assert verify_witness(inst, map_witness_to_original(cert.journal, back)), (g.rows, h.rows)
    # NOs that reach the gadget instead of a preprocessing rule
    assert reached == gadget_no


def test_stripping_preserves_decision():
    rng = stream(47, "strip")
    budget = Budget(mode=Mode.EXHAUSTIVE)
    for _ in range(30):
        fld = rng.choice([F2, F3])
        k = rng.randrange(1, 3)
        n = rng.randrange(k, 4)
        inst, _ = planted_pce(fld, k, n, rng, zero_cols=rng.randrange(0, 3))
        out = preprocess(inst)
        truth = decide(inst, budget)
        if isinstance(out, Journal):
            assert decide(out.normalized, budget).status == truth.status
        else:
            assert truth.status is Status.NO


def _assert_recorded_rank(x):
    assert "rank" in x._memo
    assert x.rank() == x._memo["rank"] == Mat(x.field, x.rows, x.n).rank()


def test_recorded_ranks_equal_a_fresh_elimination():
    # preprocessing records the rank of the original and the normalized
    # pair, the gadget records rank(a) + 1 and a planted YES instance
    # records rank(G) on H; each must be what a fresh copy's elimination
    # finds
    rng = stream(19, "recorded-ranks")
    deficient = 0
    for fld in (F2, F5, field(2, 8), field(3, 5), field(65521)):
        for tag in Tag:
            for k, n in ((0, 2), (1, 1), (2, 5), (3, 4)):
                _assert_recorded_rank(generate(GenSpec(fld, k, n, tag, Planted.YES, rng.getrandbits(32))).instance.H)
        for k, r, n, zero_cols in (
            (3, 3, 5, 0), (3, 3, 5, 2), (4, 2, 6, 0), (4, 2, 6, 1),
            (3, 0, 4, 1), (0, 0, 3, 0), (2, 0, 0, 0), (0, 0, 0, 0),
        ):
            g = with_zero_columns(of_rank(fld, k, r, n, rng), zero_cols, rng)
            sigma = list(range(g.n))
            rng.shuffle(sigma)
            s = of_rank(fld, k, k, k, rng)
            inst = Instance(fld, g, s.mul(g).apply_mono(mono_from_perm(fld, Perm(tuple(sigma)))), Tag.PCE)
            out = preprocess(inst)
            norm = out.normalized
            for x in (inst.G, inst.H, norm.G, norm.H):
                _assert_recorded_rank(x)
            deficient += out.rank < k
            if norm.n:
                for m in (1, 2, 3):
                    for a in (norm.G, norm.H, Mat(fld, g.rows, g.n)):
                        _assert_recorded_rank(build_gadget(a, m))
                red, _ = reduce_instance(inst, Tag.LCE)
                _assert_recorded_rank(red.G)
                _assert_recorded_rank(red.H)
    assert deficient >= 15
    # gadgets of matrices with no rows, or with only zero rows
    for k, n in ((0, 1), (0, 3), (2, 3)):
        for m in (1, 2, 3):
            _assert_recorded_rank(build_gadget(zeros(F3, k, n), m))


def _assert_recorded_view(x):
    assert "distinct_cols" in x._memo
    distinct, slots = x._memo["distinct_cols"]
    fresh, fresh_slots = Mat(x.field, x.rows, x.n).distinct_cols()
    assert type(slots) is tuple and slots == fresh_slots
    assert distinct == fresh and (distinct.k, distinct.n) == (fresh.k, fresh.n)


def test_recorded_views_equal_a_fresh_computation():
    # preprocessing records the normalized pair's distinct-column view from
    # the stripped input's, and the gadget records its view from a's; each
    # must be what a fresh copy computes
    rng = stream(23, "recorded-views")
    deficient = zero_gadgets = 0
    for fld in (F2, F5, field(2, 8), field(3, 5), field(65521)):
        for k, r, n, zero_cols in (
            (3, 3, 5, 0), (3, 3, 5, 2), (4, 2, 6, 0), (4, 2, 6, 1),
            (3, 0, 4, 1), (0, 0, 3, 0), (2, 0, 0, 0), (0, 0, 0, 0),
        ):
            base = of_rank(fld, k, r, n, rng)
            if n >= 3:
                # repeat columns, so that slots are shared
                rows = [[row[j] for j in (0, 1, 0, 2, 1) + tuple(range(3, n))] for row in base.rows]
                base = Mat(fld, rows, n + 2)
            g = with_zero_columns(base, zero_cols, rng)
            sigma = list(range(g.n))
            rng.shuffle(sigma)
            s = of_rank(fld, k, k, k, rng)
            inst = Instance(fld, g, s.mul(g).apply_mono(mono_from_perm(fld, Perm(tuple(sigma)))), Tag.PCE)
            out = preprocess(inst)
            norm = out.normalized
            _assert_recorded_view(norm.G)
            _assert_recorded_view(norm.H)
            deficient += out.rank < k
            if norm.n:
                for m in (1, 2, 3):
                    for a in (norm.G, norm.H, Mat(fld, g.rows, g.n)):
                        _assert_recorded_view(build_gadget(a, m))
                        zero_gadgets += any(not any(c) for c in a.cols())
                red, _ = reduce_instance(inst, Tag.LCE)
                _assert_recorded_view(red.G)
                _assert_recorded_view(red.H)
    assert deficient >= 15 and zero_gadgets >= 30
    # gadgets of matrices with no rows, or with only zero rows
    for k, n in ((0, 1), (0, 3), (2, 3)):
        for m in (1, 2, 3):
            _assert_recorded_view(build_gadget(zeros(F3, k, n), m))


def test_trusted_actions_pass_the_validating_constructors():
    # lift_witness and extract_witness build their actions with Perm._of
    # and Mono._of; each must be one the checking constructors accept
    rng = stream(29, "trusted-actions")
    built = 0
    for fld in (F2, F3, F5, field(2, 2), field(3, 2)):
        for _ in range(12):
            k = rng.randrange(1, 4)
            n = rng.randrange(k, 7)
            inst, w = planted_pce(fld, k, n, rng, zero_cols=rng.randrange(2), dup_col=rng.random() < 0.5)
            for target in (Tag.LCE, Tag.SPCE):
                red, cert = reduce_instance(inst, target)
                lifted = lift_witness(cert, map_witness_to_normalized(cert.journal, w))
                # a verifying witness of the gadget pair scaled by a global unit
                c = rng.choice(fld.signs() if target is Tag.SPCE else range(1, fld.q))
                scaled = Witness(lifted.S.scale(fld.inv(c)), Mono(fld, lifted.M.perm, (c,) * lifted.M.n))
                assert verify_witness(red, scaled)
                norm = cert.journal.normalized
                for m in (lifted.M, extract_witness(cert, norm.G, norm.H, scaled).M):
                    assert m == Mono(fld, Perm(m.perm.sigma), m.diag)
                    assert all(type(x) is int for x in m.perm.sigma + m.diag)
                    built += 1
    assert built >= 200


def test_block_violation_names_the_first_column_that_crosses():
    # the per-column reference: blocks in order, first column whose source
    # lies outside its block
    rng = stream(31, "block-violation")
    inst, w = planted_pce(F5, 2, 4, rng, dup_col=True)
    red, cert = reduce_instance(inst, Tag.LCE)
    lifted = lift_witness(cert, map_witness_to_normalized(cert.journal, w))
    norm = cert.journal.normalized
    crossed = 0
    for _ in range(120):
        sigma = list(lifted.M.perm.sigma)
        for _ in range(rng.randrange(1, 4)):
            i, j = rng.sample(range(cert.n_prime), 2)
            sigma[i], sigma[j] = sigma[j], sigma[i]
        first = next((c for b in cert.blocks for c in b if sigma[c] not in b), None)
        if first is None:
            continue
        crossed += 1
        with pytest.raises(StructureViolation) as exc:
            extract_witness(cert, norm.G, norm.H, Witness(lifted.S, mono_from_perm(F5, Perm(tuple(sigma)))))
        assert exc.value.check == CHECK_BLOCKS
        assert exc.value.detail == f"column {first + 1} drawn from column {sigma[first] + 1}"
    assert crossed >= 80
