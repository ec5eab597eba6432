"""The exhaustive decider against the scan it replaced.

`reference_scan` is the exhaustive decider as it was before it pruned
on partial assignments: every candidate (sigma, diag) in order, one tick
each, and the whole span check for each. The pruning scan must visit the
same candidates in the same order, so status, node count and witness
must agree exactly, also under node budgets that end the search inside
a block of candidates it skips at once.
"""

import itertools
import time

import pytest

from ceq import oracle
from ceq.core import Instance, Tag, Witness, scalars, verify_witness
from ceq.errors import WitnessInvalid
from ceq.field import field
from ceq.matrix import Mat, Mono, Perm, row_basis_transform
from ceq.oracle import Budget, Mode, decide
from ceq.rng import stream

FIELDS = (field(2), field(3), field(2, 2), field(5), field(7), field(3, 6))
# candidates of the whole scan, n! * |scalars|^(n-1), for one instance
MAX_CANDIDATES = 1500


def reference_scan(inst, ticker):
    fld, g, h = inst.field, inst.G, inst.H
    n = g.n
    scal = scalars(fld, inst.tag)
    rg, rank_g, _ = g.rref()
    rh, rank_h, piv_h = h.rref()
    reduced_rows = rg.rows[:rank_g]
    # v lies in the row space of H iff at every non-pivot column f of
    # R = rref(H) the residual v[f] - sum_i v[piv_i] * R[i][f] is zero
    checks = [
        (f, [(piv_h[i], rh.rows[i][f]) for i in range(rank_h) if rh.rows[i][f]])
        for f in range(n)
        if f not in piv_h
    ]
    add, mul, neg = fld.add, fld.mul, fld.neg

    def in_span(sigma, diag):
        """Whether every scaled row [diag[s] * row[s] for s in sigma] of G
        lies in the row space of H; computes only the entries a check reads."""
        for row in reduced_rows:
            for f, terms in checks:
                s = sigma[f]
                res = mul(diag[s], row[s])
                for c, coef in terms:
                    s = sigma[c]
                    x = row[s]
                    if x:
                        res = add(res, neg(mul(coef, mul(diag[s], x))))
                if res:
                    return False
        return True

    # the global scalar is quotiented out: diag[0] = 1 (module docstring)
    head = (1,) if n else ()
    for sigma in itertools.permutations(range(n)):
        for rest in itertools.product(scal, repeat=max(n - 1, 0)):
            diag = head + rest
            ticker.tick()
            if not in_span(sigma, diag):
                continue
            m = Mono(fld, Perm(sigma), diag) if n else Mono.identity(fld, 0)
            s = row_basis_transform(g.apply_mono(m), h)
            if s is None:
                continue
            w = Witness(s, m)
            if not verify_witness(inst, w):
                raise WitnessInvalid("exhaustive search recovered a non-verifying witness")
            return w
    return None


def _outcome(status, nodes, w):
    return (status, nodes, None if w is None else (w.S.rows, w.M.perm.sigma, w.M.diag))


def _reference_decide(inst, budget):
    if inst.G.rank() != inst.H.rank():
        return _outcome("NO", 0, None)
    ticker = oracle._Ticker(budget, time.perf_counter())
    try:
        w = reference_scan(inst, ticker)
    except oracle._OutOfBudget:
        return _outcome("UNKNOWN", ticker.nodes, None)
    return _outcome("NO" if w is None else "YES", ticker.nodes, w)


def _decide(inst, budget):
    res = decide(inst, Budget(max_nodes=budget.max_nodes, mode=Mode.EXHAUSTIVE))
    return _outcome(res.status.value, res.nodes, res.witness)


def _candidates(fld, tag, n):
    scal = scalars(fld, tag)
    return (len(scal) ** (n - 1) if n else 1) * len(list(itertools.permutations(range(n))))


def _random_mat(fld, k, n, rng):
    """A k x n matrix whose columns are zero with probability 1/4 and
    whose last row repeats the first with probability 1/4."""
    cols = [
        [0] * k if rng.randrange(4) == 0 else [rng.randrange(fld.q) for _ in range(k)]
        for _ in range(n)
    ]
    rows = [[col[i] for col in cols] for i in range(k)]
    if k > 1 and rng.randrange(4) == 0:
        rows[-1] = list(rows[0])
    return Mat(fld, rows, n)


def _planted(fld, g, tag, rng):
    k, n = g.k, g.n
    while True:
        s = Mat(fld, [[rng.randrange(fld.q) for _ in range(k)] for _ in range(k)], k)
        if s.is_invertible():
            break
    allowed = scalars(fld, tag)
    sigma = list(range(n))
    rng.shuffle(sigma)
    m = Mono(fld, Perm(tuple(sigma)), tuple(rng.choice(allowed) for _ in range(n)))
    return s.mul(g).apply_mono(m)


def _instances():
    """Seeded instances in four kinds: planted YES; planted YES with one
    entry of H changed; a random pair; and a random H of G's rank."""
    rng = stream(13, "exhaustive-scan")
    for trial in range(480):
        fld = FIELDS[trial % len(FIELDS)]
        tag = list(Tag)[trial // len(FIELDS) % 3]
        n = trial // 18 % 7
        while _candidates(fld, tag, n) > MAX_CANDIDATES:
            n -= 1
        k = rng.randrange(0, 4)
        g = _random_mat(fld, k, n, rng)
        kind = trial // 120
        if kind == 2:
            h = _random_mat(fld, k, n, rng)
        elif kind == 3:
            for _ in range(20):
                h = _random_mat(fld, k, n, rng)
                if h.rank() == g.rank():
                    break
        else:
            h = _planted(fld, g, tag, rng)
            if kind == 1 and k and n:
                rows = [list(r) for r in h.rows]
                i, j = rng.randrange(k), rng.randrange(n)
                rows[i][j] = (rows[i][j] + 1 + rng.randrange(fld.q - 1)) % fld.q
                h = Mat(fld, rows, n)
        yield Instance(fld, g, h, tag)


def _skips(inst, budget):
    """(nodes before, count) of every tick of more than one candidate that
    the pruning scan makes."""
    seen = []
    real_tick = oracle._Ticker.tick

    def tick(ticker, count=1):
        if count > 1:
            seen.append((ticker.nodes, count))
        real_tick(ticker, count)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle._Ticker, "tick", tick)
        decide(inst, budget)
    return seen


def test_pruning_scan_matches_the_per_candidate_scan():
    full = Budget(mode=Mode.EXHAUSTIVE)
    seen = {"YES": 0, "NO": 0, "UNKNOWN": 0}
    covered = set()
    for trial, inst in enumerate(_instances()):
        want = _reference_decide(inst, full)
        assert _decide(inst, full) == want, (trial, inst.field, inst.tag, inst.G.rows, inst.H.rows)
        # count only NOs that took a search, not a rank test
        seen[want[0]] += want[0] != "NO" or want[1] > 0
        rank_g = inst.G.rank()
        covered.add((inst.field.q, inst.tag, inst.n))
        covered.add(("rank-deficient", rank_g < inst.k and rank_g == inst.H.rank()))
        covered.add(("zero column", any(not any(c) for c in zip(*inst.G.rows)) if inst.k else inst.n > 0))
        if rank_g != inst.H.rank():
            continue
        # node budgets that end inside the first and the last block the
        # pruning scan skips at once
        blocks = _skips(inst, full)
        for before, count in {*blocks[:1], *blocks[-1:]}:
            budget = Budget(max_nodes=before + count // 2, mode=Mode.EXHAUSTIVE)
            got = _decide(inst, budget)
            assert got == _reference_decide(inst, budget) == ("UNKNOWN", budget.max_nodes + 1, None), trial
            seen["UNKNOWN"] += 1
    assert seen["YES"] >= 300 and seen["NO"] >= 70 and seen["UNKNOWN"] >= 200, seen
    for fld in FIELDS[:5]:
        for tag in Tag:
            assert {(fld.q, tag, n) for n in (0, 1, 2, 3)} <= covered, (fld, tag)
    assert {(729, tag, n) for tag in Tag for n in (0, 1)} <= covered
    assert {("rank-deficient", True), ("zero column", True)} <= covered


@pytest.mark.parametrize("count", [7, 10 ** 30])
def test_skip_under_node_budget_caps_at_the_node_after_it(count):
    ticker = oracle._Ticker(Budget(max_nodes=10), 0.0)
    ticker.tick(4)
    ticker.tick(6)
    assert ticker.nodes == 10
    with pytest.raises(oracle._OutOfBudget):
        ticker.tick(count)
    assert ticker.nodes == 11


def test_wide_instance_needs_no_deep_recursion():
    # the scan keeps its prefix on explicit arrays: with G = H over 1,200
    # columns the first candidate is accepted after placing every position
    fld = field(5)
    rng = stream(5, "wide")
    g = Mat(fld, [[rng.randrange(fld.q) for _ in range(1200)] for _ in range(3)], 1200)
    for tag in Tag:
        res = decide(Instance(fld, g, g, tag), Budget(mode=Mode.EXHAUSTIVE))
        assert (res.status.value, res.nodes) == ("YES", 1)
        assert res.witness.M.perm.sigma == tuple(range(1200))
