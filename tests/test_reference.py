"""Both deciders against a reference that searches the whole monomial group.

The exhaustive decider and the backtracker each fix one scalar to 1,
because (c*S, c^-1*M) is a witness whenever (S, M) is. The reference
below shares none of that: it tries every permutation and every diagonal
whose entries `scalars` allows, and asks whether the row spaces of G*M and
H agree. The orbit test takes its truth from the group's orbits on
subspaces instead, which no decide computes.
"""

import itertools

import pytest

from ceq import oracle
from ceq.core import Instance, Tag, scalars, verify_witness
from ceq.field import field
from ceq.matrix import Mat, Mono, Perm
from ceq.oracle import Budget, GenSpec, Mode, Planted, Status, decide, generate
from ceq.rng import stream

from helpers import monomial_orbits, subspaces

FIELDS = (field(2), field(3), field(2, 2), field(5))


def reference_equivalent(inst: Instance) -> bool:
    """Whether S*G*M = H for some invertible S and allowed monomial M:
    for equal shapes that holds iff G*M and H have the same RREF."""
    fld, g, h = inst.field, inst.G, inst.H
    target = h.rref()[0].rows
    allowed = scalars(fld, inst.tag)
    for sigma in itertools.permutations(range(g.n)):
        for diag in itertools.product(allowed, repeat=g.n):
            if g.apply_mono(Mono(fld, Perm(sigma), diag)).rref()[0].rows == target:
                return True
    return False


def _random_mat(fld, k, n, rng):
    """A k x n matrix whose columns are zero with probability 1/4."""
    cols = [
        [0] * k if rng.randrange(4) == 0 else [rng.randrange(fld.q) for _ in range(k)]
        for _ in range(n)
    ]
    return Mat(fld, [[col[i] for col in cols] for i in range(k)], n)


def _random_action(fld, n, tag, rng):
    allowed = scalars(fld, tag)
    sigma = list(range(n))
    rng.shuffle(sigma)
    return Mono(fld, Perm(tuple(sigma)), tuple(rng.choice(allowed) for _ in range(n)))


def _passes_counting(inst):
    """Equal ranks and equal class counts: neither decider can answer NO
    without a search."""
    bt = oracle._Backtracker(inst, oracle._Ticker(Budget(), 0.0))
    return inst.G.rank() == inst.H.rank() and not bt.infeasible_by_counting()


def _hard_pair(fld, n, tag, rng):
    """Of 30 random pairs with k = min(n, 2) and no zero column, the first
    that passes the counting test and is not equivalent, else the first
    that passes it, else the last."""
    k = min(n, 2)
    found = None
    for _ in range(30):
        cols = []
        while len(cols) < 2 * n:
            col = [rng.randrange(fld.q) for _ in range(k)]
            if any(col):
                cols.append(col)
        g = Mat(fld, [[c[i] for c in cols[:n]] for i in range(k)], n)
        h = Mat(fld, [[c[i] for c in cols[n:]] for i in range(k)], n)
        inst = Instance(fld, g, h, tag)
        if _passes_counting(inst):
            if not reference_equivalent(inst):
                return inst
            found = found or inst
    return found or inst


def _tiny_instances():
    """Seeded instances with n <= 4, in four kinds: planted YES; planted
    YES with one entry of H changed; a pair from `_hard_pair`; any random
    pair. G may have zero columns and need not have full row rank."""
    rng = stream(6, "reference")
    for trial in range(480):
        fld = FIELDS[trial % 4]
        tag = list(Tag)[trial // 4 % 3]
        n = trial // 12 % 5
        k = rng.randrange(0, 3)
        kind = trial // 120
        g = _random_mat(fld, k, n, rng)
        if kind == 2:
            yield _hard_pair(fld, n, tag, rng)
            continue
        if kind == 3:
            yield Instance(fld, g, _random_mat(fld, k, n, rng), tag)
            continue
        while True:
            s = Mat(fld, [[rng.randrange(fld.q) for _ in range(k)] for _ in range(k)], k)
            if s.is_invertible():
                break
        h = s.mul(g).apply_mono(_random_action(fld, n, tag, rng))
        if kind == 1 and k and n:
            rows = [list(r) for r in h.rows]
            i, j = rng.randrange(k), rng.randrange(n)
            rows[i][j] = (rows[i][j] + 1 + rng.randrange(fld.q - 1)) % fld.q
            h = Mat(fld, rows, n)
        yield Instance(fld, g, h, tag)


def test_deciders_agree_with_full_group_reference():
    seen = {Status.YES: 0, Status.NO: 0, Mode.EXHAUSTIVE: 0, Mode.BACKTRACKING: 0}
    covered = set()
    for inst in _tiny_instances():
        want = Status.YES if reference_equivalent(inst) else Status.NO
        for mode in Mode:
            res = decide(inst, Budget(mode=mode))
            assert res.status is want, (mode, inst.field, inst.tag, inst.G.rows, inst.H.rows)
            # NO answers that took a search, not a rank or counting test
            seen[mode] += want is Status.NO and res.nodes > 0
        seen[want] += 1
        zero_col = any(not any(col) for col in zip(*inst.G.rows)) if inst.k else inst.n > 0
        covered.add((inst.field.q, inst.tag, inst.n, zero_col))
    assert seen[Status.YES] >= 300 and seen[Status.NO] >= 100, seen
    assert seen[Mode.EXHAUSTIVE] >= 50 and seen[Mode.BACKTRACKING] >= 15, seen
    # every field, tag and n in 0..4 is reached, many with a zero column
    assert {(q, t, n) for q, t, n, _ in covered} == {
        (fld.q, t, n) for fld in FIELDS for t in Tag for n in range(5)
    }
    assert sum(z for *_, z in covered) >= 40


def _first_nonzero_target(inst):
    """The H column the backtracker pins first among the non-zero ones."""
    bt = oracle._Backtracker(inst, oracle._Ticker(Budget(), 0.0))
    return next((j for j in bt.targets if any(bt.hcols[j])), None)


def test_planted_yes_found_outside_the_quotient():
    """Every planted YES is found, including those whose planted diagonal
    is not 1 where a decider fixes its scalar, so that the decider must
    find a scaled copy of the planted witness. The decider's own witness
    carries 1 there."""
    outside = {Mode.EXHAUSTIVE: 0, Mode.BACKTRACKING: 0}
    for seed in range(36):
        fld = (field(3), field(2, 2), field(5), field(7))[seed % 4]
        tag = (Tag.SPCE, Tag.LCE)[seed // 4 % 2]
        n = 3 + seed // 8 % 3
        if tag is Tag.SPCE and fld.p == 2:
            tag = Tag.LCE
        gen = generate(GenSpec(fld, 2, n, tag, Planted.YES, seed))
        inst, planted = gen.instance, gen.witness.M
        j0 = _first_nonzero_target(inst)
        fixed = {Mode.EXHAUSTIVE: 0, Mode.BACKTRACKING: planted.perm.sigma[j0]}
        for mode in Mode:
            res = decide(inst, Budget(mode=mode))
            assert res.status is Status.YES, (mode, fld, tag, n, seed)
            if planted.diag[fixed[mode]] != 1:
                outside[mode] += 1
            m = res.witness.M
            col = 0 if mode is Mode.EXHAUSTIVE else m.perm.sigma[j0]
            assert m.diag[col] == 1, (mode, fld, tag, n, seed)
    assert min(outside.values()) >= 15, outside


@pytest.mark.parametrize("p, e, counts", [
    (3, 1, (130, 16, 7, 7)),
    (2, 2, (357, 31, 31, 7)),
    (5, 1, (806, 56, 18, 7)),
], ids=["GF3", "GF4", "GF5"])
def test_deciders_agree_with_orbit_truth(p, e, counts):
    # every 2-subspace of F_q^4, the orbits taken under each tag's group:
    # two codes are equivalent exactly when their row spaces share an
    # orbit. Every ordered pair of distinct orbit representatives is NO,
    # and the first and last members of each orbit are YES, in both modes.
    # The counts are (subspaces, PCE, SPCE, LCE orbits). H enters as
    # [[1, 1], [1, 0]] times its RREF, so that no pair is in RREF on both
    # sides
    fld = field(p, e)
    mix = Mat(fld, [[1, 1], [1, 0]], 2)
    got = [len(subspaces(fld, 2, 4))]
    for tag in Tag:
        orbits = monomial_orbits(fld, tag, 2, 4)
        got.append(len(orbits))
        reps = [orbit[0] for orbit in orbits]
        pairs = [(a, b, Status.NO) for a in reps for b in reps if a != b]
        pairs += [(orbit[0], orbit[-1], Status.YES) for orbit in orbits]
        for a, b, want in pairs:
            inst = Instance(fld, Mat(fld, a, 4), mix.mul(Mat(fld, b, 4)), tag)
            for mode in Mode:
                res = decide(inst, Budget(mode=mode))
                assert res.status is want, (tag, mode, a, b)
                assert want is Status.NO or verify_witness(inst, res.witness)
    assert tuple(got) == counts
