import itertools
from fractions import Fraction

import pytest

from ceq.core import Instance, Tag, scalars, verify_witness
from ceq.errors import BudgetExceeded, WitnessInvalid
from ceq.field import field
from ceq.matrix import MAX_DIM, Mat, Mono, Perm
from ceq import oracle
from ceq.reduction import reduce_instance
from ceq.oracle import (
    Budget,
    GenSpec,
    Mode,
    Planted,
    Status,
    decide,
    generate,
)
from ceq.rng import stream

from helpers import zeros

F2 = field(2)
F3 = field(3)
F5 = field(5)


def test_budget_validation():
    with pytest.raises(ValueError):
        Budget(max_nodes=0)


def test_decide_swap_example():
    i2 = Mat.identity(F2, 2)
    sw = Mat(F2, [[0, 1], [1, 0]])
    res = decide(Instance(F2, i2, sw, Tag.PCE))
    assert res.status is Status.YES
    assert verify_witness(Instance(F2, i2, sw, Tag.PCE), res.witness)
    # the identity permutation already matches the row spaces, so the
    # lexicographically first witness carries sigma = id and S = swap
    assert res.witness.M.perm == Perm.identity(2)
    assert res.witness.S == sw


def test_decide_no_example():
    res = decide(Instance(F2, Mat(F2, [[1, 0]]), Mat(F2, [[1, 1]]), Tag.PCE))
    assert res.status is Status.NO
    assert res.witness is None


def test_decide_spce_sign_example():
    g = Mat(F3, [[1, 2]])
    h = Mat(F3, [[2, 1]])
    inst = Instance(F3, g, h, Tag.SPCE)
    res = decide(inst)
    assert res.status is Status.YES
    assert verify_witness(inst, res.witness)
    # sign-only scaling: (2,2) = (-1,-1) maps (1,2) to (2,1) with S = [1],
    # but row spaces already match at sigma = id with diag (1,1), S = [2]
    assert res.witness.M.diag == (1, 1)
    assert res.witness.S.rows == ((2,),)


def test_decide_rejects_rank_mismatch_fast():
    g = Mat(F5, [[1, 0], [0, 1]])
    h = Mat(F5, [[1, 1], [2, 2]])
    res = decide(Instance(F5, g, h, Tag.LCE))
    assert res.status is Status.NO and res.nodes == 0


def test_decide_zero_width():
    g = zeros(F3, 2, 0)
    res = decide(Instance(F3, g, g, Tag.PCE))
    assert res.status is Status.YES
    assert verify_witness(Instance(F3, g, g, Tag.PCE), res.witness)


def test_decide_zero_matrices():
    z = zeros(F2, 2, 3)
    for mode in Mode:
        res = decide(Instance(F2, z, z, Tag.LCE), Budget(mode=mode))
        assert res.status is Status.YES
        assert verify_witness(Instance(F2, z, z, Tag.LCE), res.witness)


def test_unknown_on_tiny_time_limit():
    gen = generate(GenSpec(F5, 3, 5, Tag.LCE, Planted.UNLABELED, seed=17))
    res = decide(gen.instance, Budget(time_limit=0.0001, mode=Mode.EXHAUSTIVE))
    assert res.status in (Status.UNKNOWN, Status.YES)
    if res.status is Status.UNKNOWN:
        assert res.detail and res.witness is None


class _StepClock:
    """Stands in for the oracle's `time`: each read moves one step, so a
    time limit is checked on fake seconds and does not depend on the speed
    or load of the machine."""

    step = 2.0 ** -10

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        self.now += self.step
        return self.now


def test_time_limit_stops_search_at_first_node_past_deadline(monkeypatch):
    # the search on this 7 x 61 gadget pair needs far more nodes than the
    # limit allows in either mode. decide reads the clock once before the
    # first node and once after the last; the search reads it once per
    # ticked node and once per block of nodes counted at once.
    step = _StepClock.step
    limit = 50 * step
    fld = field(2, 8)
    gen = generate(GenSpec(fld, 6, 12, Tag.PCE, Planted.YES, seed=7))
    red, _ = reduce_instance(gen.instance, Tag.LCE)
    monkeypatch.setattr(oracle, "time", _StepClock())
    res = decide(red, Budget(time_limit=limit, mode=Mode.BACKTRACKING))
    assert res.status is Status.UNKNOWN and res.witness is None
    assert limit < res.elapsed <= limit + 3 * step
    assert res.nodes == 51
    # the exhaustive scan's first pruned prefix already counts more
    # candidates than the node budget, so the budget ends it there, as it
    # does without a limit, before the clock is read again
    monkeypatch.setattr(oracle, "time", _StepClock())
    res = decide(red, Budget(time_limit=limit, mode=Mode.EXHAUSTIVE))
    assert res.status is Status.UNKNOWN and res.witness is None
    assert res.elapsed == step
    assert res.nodes == Budget().max_nodes + 1


def test_time_limit_that_does_not_bind_keeps_the_answer():
    # a seeded exhaustive NO: most of its 737,280 nodes are counted in
    # blocks of pruned candidates, with one clock read per block under a
    # limit. A scan that read the clock once per counted node took about
    # 100 times its unlimited time and answered UNKNOWN here.
    inst = generate(GenSpec(F5, 3, 6, Tag.LCE, Planted.UNLABELED, 11)).instance
    for mode in Mode:
        free = decide(inst, Budget(mode=mode))
        assert free.status is Status.NO
        limited = decide(inst, Budget(time_limit=50 * free.elapsed + 0.05, mode=mode))
        assert (limited.status, limited.nodes) == (free.status, free.nodes), mode
    assert free.nodes < 737_280 == decide(inst, Budget(mode=Mode.EXHAUSTIVE)).nodes


def test_backtracker_draws_one_scalar_per_node(monkeypatch):
    # LCE over GF(65521) has 65,520 scalars. Listing every scalar of a
    # value before the first tick would draw about q - 1 of them; the
    # search draws none, so a node does bounded work before its tick and a
    # limit stops the search within a node.
    step = _StepClock.step
    limit = 50 * step

    class CountingScalars:
        drawn = 0

        def __init__(self, scalars):
            self.scalars = scalars

        def __iter__(self):
            for d in self.scalars:
                CountingScalars.drawn += 1
                yield d

        # a size or membership test draws no scalar
        def __len__(self):
            return len(self.scalars)

        def __contains__(self, d):
            return d in self.scalars

    real_scalars, real_tick = oracle.scalars, oracle._Ticker.tick
    gaps = []

    def tick(ticker, count=1):
        gaps.append(CountingScalars.drawn - sum(gaps))
        real_tick(ticker, count)

    monkeypatch.setattr(oracle, "scalars", lambda fld, tag: CountingScalars(real_scalars(fld, tag)))
    monkeypatch.setattr(oracle._Ticker, "tick", tick)
    monkeypatch.setattr(oracle, "time", _StepClock())
    gen = generate(GenSpec(field(65521), 4, 8, Tag.PCE, Planted.YES, seed=7))
    red, _ = reduce_instance(gen.instance, Tag.LCE)
    assert (red.k, red.n) == (5, 41)
    res = decide(red, Budget(time_limit=limit, mode=Mode.BACKTRACKING))
    assert res.status is Status.UNKNOWN and res.nodes == 51
    assert limit < res.elapsed <= limit + 3 * step
    # a pinned column's scalar is an unknown that later columns fix, so
    # the search draws no scalar at all, before any tick or after it
    assert gaps and max(gaps) == 0
    assert CountingScalars.drawn == 0


def test_unknown_on_tiny_budget():
    gen = generate(GenSpec(F5, 2, 4, Tag.LCE, Planted.UNLABELED, seed=5))
    res = decide(gen.instance, Budget(max_nodes=3, mode=Mode.EXHAUSTIVE))
    if res.status is Status.UNKNOWN:
        assert res.detail
        assert res.nodes >= 3
    else:
        # an early witness can legitimately beat the budget
        assert res.status is Status.YES


def test_modes_agree_randomized():
    rng = stream(2024, "agree")
    fields = [F2, F3, field(2, 2), F5, field(7), field(2, 3)]
    for trial in range(150):
        fld = rng.choice(fields)
        n = rng.randrange(1, 7)
        k = rng.randrange(1, min(n, 3) + 1)
        tag = rng.choice(list(Tag))
        # keeps the exhaustive sweep desk-scale
        if tag is Tag.LCE and fld.q > 3:
            n = min(n, 5 if fld.q <= 5 else 4)
        planted = rng.choice([Planted.YES, Planted.UNLABELED, Planted.UNLABELED])
        gen = generate(GenSpec(fld, k, n, tag, planted, seed=trial))
        a = decide(gen.instance, Budget(mode=Mode.EXHAUSTIVE))
        b = decide(gen.instance, Budget(mode=Mode.BACKTRACKING))
        assert a.status == b.status, (fld, k, n, tag, gen.instance.G.rows, gen.instance.H.rows)
        assert a.status in (Status.YES, Status.NO)
        if a.status is Status.YES:
            assert verify_witness(gen.instance, a.witness)
            assert verify_witness(gen.instance, b.witness)
        if planted is Planted.YES:
            assert a.status is Status.YES



def test_modes_agree_on_large_fields():
    """Fields above q = 256, which keep no byte rows, run the same search
    code as small ones; both deciders must still agree and every YES verify."""
    for fld in (field(3, 6), field(65521)):
        for tag, n in ((Tag.PCE, 4), (Tag.PCE, 6), (Tag.SPCE, 3), (Tag.SPCE, 5)):
            for planted in (Planted.YES, Planted.UNLABELED):
                for seed in range(2):
                    inst = generate(GenSpec(fld, 2, n, tag, planted, seed)).instance
                    a = decide(inst, Budget(mode=Mode.EXHAUSTIVE))
                    b = decide(inst, Budget(mode=Mode.BACKTRACKING))
                    assert a.status == b.status, (fld, tag, n, planted, seed)
                    assert a.status in (Status.YES, Status.NO)
                    if a.status is Status.YES:
                        assert verify_witness(inst, a.witness)
                        assert verify_witness(inst, b.witness)
                    if planted is Planted.YES:
                        assert a.status is Status.YES


# (tag, (p, e), k, n, planted, seed, profile, source, mode) ->
# (status, nodes, (S rows, sigma, diag) or None). "gadget" instances are
# the named PCE pair reduced to tag; "stacked" instances repeat the first
# row of G and of H under it, so that rank(G) < k. Pinned so that a change
# meant to make nodes cheaper cannot move the search: a change that is
# meant to alter node counts or witnesses updates these values and says so.
_PINNED_SEARCH = {
    ('PCE', (2, 1), 2, 5, 'yes', 1, None, 'raw', Mode.EXHAUSTIVE):
        ('YES', 33, (
            ((1, 0), (0, 1)),
            (1, 2, 3, 0, 4),
            (1,) * 5,
        )),
    ('PCE', (2, 1), 2, 5, 'yes', 1, None, 'raw', Mode.BACKTRACKING):
        ('YES', 5, (
            ((1, 0), (0, 1)),
            (1, 2, 3, 0, 4),
            (1,) * 5,
        )),
    ('PCE', (7, 1), 3, 5, 'no', 1, (2, 1, 1, 1), 'raw', Mode.EXHAUSTIVE):
        ('NO', 120, None),
    ('PCE', (7, 1), 3, 5, 'no', 1, (2, 1, 1, 1), 'raw', Mode.BACKTRACKING):
        ('NO', 21, None),
    ('SPCE', (3, 1), 2, 5, 'yes', 3, None, 'raw', Mode.EXHAUSTIVE):
        ('YES', 533, (
            ((1, 0), (2, 1)),
            (1, 2, 3, 4, 0),
            (1, 1, 2, 1, 1),
        )),
    ('SPCE', (3, 1), 2, 5, 'yes', 3, None, 'raw', Mode.BACKTRACKING):
        ('YES', 5, (
            ((1, 0), (2, 1)),
            (1, 3, 2, 4, 0),
            (1, 1, 2, 1, 1),
        )),
    ('SPCE', (7, 1), 2, 4, 'yes', 4, None, 'raw', Mode.EXHAUSTIVE):
        ('YES', 64, (
            ((2, 3), (5, 1)),
            (1, 0, 3, 2),
            (1, 6, 6, 6),
        )),
    ('SPCE', (7, 1), 2, 4, 'yes', 4, None, 'raw', Mode.BACKTRACKING):
        ('YES', 5, (
            ((1, 0), (2, 6)),
            (1, 2, 3, 0),
            (1, 6, 6, 1),
        )),
    ('LCE', (5, 1), 2, 4, 'yes', 5, None, 'raw', Mode.EXHAUSTIVE):
        ('YES', 20, (
            ((2, 3), (0, 2)),
            (0, 1, 2, 3),
            (1, 2, 1, 4),
        )),
    ('LCE', (5, 1), 2, 4, 'yes', 5, None, 'raw', Mode.BACKTRACKING):
        ('YES', 4, (
            ((2, 3), (0, 2)),
            (0, 1, 2, 3),
            (1, 2, 1, 4),
        )),
    ('LCE', (2, 2), 2, 4, 'no', 6, None, 'raw', Mode.EXHAUSTIVE):
        ('NO', 648, None),
    ('LCE', (2, 2), 2, 4, 'no', 6, None, 'raw', Mode.BACKTRACKING):
        ('NO', 0, None),
    ('LCE', (3, 1), 2, 5, 'yes', 2, (2, 1, 1, 1), 'gadget', Mode.BACKTRACKING):
        ('YES', 52, (
            ((1, 1, 0), (0, 2, 0), (0, 0, 1)),
            (
                0, 2, 3, 1, 4, 5, 6, 7, 11, 12, 13, 14, 15, 16, 8, 9, 10, 17, 18, 19,
                20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35,
            ),
            (1,) * 36,
        )),
    ('SPCE', (5, 1), 2, 5, 'yes', 1, (2, 1, 1, 1), 'gadget', Mode.BACKTRACKING):
        ('YES', 53, (
            ((2, 0, 0), (3, 1, 0), (0, 0, 1)),
            (
                4, 1, 3, 2, 0, 11, 12, 13, 8, 9, 10, 14, 15, 16, 17, 18, 19, 5, 6, 7,
                20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35,
            ),
            (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 4, 4, 4, 1, 1, 1, 4, 4, 4, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
        )),
    ('SPCE', (7, 1), 2, 5, 'yes', 0, (2, 1, 1, 1), 'gadget', Mode.BACKTRACKING):
        ('YES', 55, (
            ((4, 4, 0), (5, 4, 0), (0, 0, 1)),
            (
                2, 3, 1, 0, 4, 11, 12, 13, 14, 15, 16, 8, 9, 10, 5, 6, 7, 17, 18, 19,
                20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35,
            ),
            (1,) * 36,
        )),
    ('LCE', (2, 1), 3, 5, 'yes', 5, (2, 1, 1, 1), 'gadget', Mode.BACKTRACKING):
        ('YES', 59, (
            ((0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 0, 0), (0, 0, 0, 1)),
            (
                2, 3, 0, 1, 4, 11, 12, 13, 14, 15, 16, 5, 6, 7, 8, 9, 10, 17, 18, 19,
                20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35,
            ),
            (1,) * 36,
        )),
    ('LCE', (5, 1), 2, 6, 'yes', 2, (2, 2, 1, 1), 'gadget', Mode.BACKTRACKING):
        ('YES', 60, (
            ((1, 3, 0), (0, 1, 0), (0, 0, 1)),
            (
                0, 2, 3, 4, 1, 5, 6, 7, 8, 12, 13, 14, 9, 10, 11, 15, 16, 17, 18, 19,
                20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39,
                40, 41, 42,
            ),
            (1,) * 9 + (3,) * 3 + (1,) * 6 + (2,) * 3 + (1,) * 22,
        )),
    # hard NOs: certified-NO PCE pairs that pass preprocessing
    ('LCE', (2, 2), 2, 5, 'no', 3, (2, 1, 1, 1), 'gadget', Mode.BACKTRACKING):
        ('NO', 26, None),
    ('LCE', (5, 1), 2, 6, 'no', 2, (2, 2, 1, 1), 'gadget', Mode.BACKTRACKING):
        ('NO', 31, None),
    ('SPCE', (7, 1), 2, 5, 'no', 0, (2, 1, 1, 1), 'gadget', Mode.BACKTRACKING):
        ('NO', 21, None),
    # k = 0: the map has rank k before any pair is pinned
    ('LCE', (5, 1), 0, 4, 'unlabeled', 2, None, 'raw', Mode.BACKTRACKING):
        ('YES', 4, ((), (0, 1, 2, 3), (1,) * 4)),
    # rank(G) = 2 < k = 3: S is one of several valid choices
    ('LCE', (3, 1), 2, 5, 'unlabeled', 0, None, 'stacked', Mode.BACKTRACKING):
        ('YES', 5, (
            ((2, 0, 0), (0, 2, 0), (1, 0, 1)),
            (2, 4, 1, 3, 0),
            (1, 1, 2, 1, 1),
        )),
}


def _pinned_instance(case):
    tag, (p, e), k, n, planted, seed, profile, source, mode = case
    fld = field(p, e)
    if source == "gadget":
        spec = GenSpec(fld, k, n, Tag.PCE, Planted(planted), seed, profile)
        inst, cert = reduce_instance(generate(spec).instance, Tag[tag])
        assert not cert.rejected
        return inst
    inst = generate(GenSpec(fld, k, n, Tag[tag], Planted(planted), seed, profile)).instance
    if source == "stacked":
        g, h = inst.G.rows, inst.H.rows
        return Instance(fld, Mat(fld, g + g[:1], n), Mat(fld, h + h[:1], n), inst.tag)
    return inst


_LCE_GADGET_YES = ('LCE', (5, 1), 2, 6, 'yes', 2, (2, 2, 1, 1), 'gadget', Mode.BACKTRACKING)
_LCE_GADGET_NO = ('LCE', (5, 1), 2, 6, 'no', 2, (2, 2, 1, 1), 'gadget', Mode.BACKTRACKING)
_SPCE_GADGET_NO = ('SPCE', (7, 1), 2, 5, 'no', 0, (2, 1, 1, 1), 'gadget', Mode.BACKTRACKING)


@pytest.mark.parametrize("case", list(_PINNED_SEARCH), ids=lambda c: "-".join(map(str, c)))
def test_search_nodes_and_witnesses_pinned(case):
    res = decide(_pinned_instance(case), Budget(mode=case[-1]))
    w = res.witness
    got = (res.status.value, res.nodes, None if w is None else (w.S.rows, w.M.perm.sigma, w.M.diag))
    assert got == _PINNED_SEARCH[case]


def test_backtracker_works_once_per_distinct_column_value(monkeypatch):
    # a gadget pair repeats its columns: n' = 43 here, with few distinct
    # values. Set-up computes one class key per distinct value of G and H,
    # and a forced completion computes S^-1 * y (in `_sources`) and its
    # class key once per distinct target value, not once per target column.
    # The instances are built before the counters go in: certified-NO
    # generation builds backtrackers of its own, on pairs that need not
    # repeat a column
    cases = [case for case in _PINNED_SEARCH if case[-2] == "gadget"]
    instances = [_pinned_instance(case) for case in cases]
    calls = {"key": 0, "sources": 0}

    def counting(name, real):
        def wrapped(*args):
            calls[name] += 1
            return real(*args)
        return wrapped

    monkeypatch.setattr(oracle, "_class_key", counting("key", oracle._class_key))
    monkeypatch.setattr(oracle._Backtracker, "_sources", counting("sources", oracle._Backtracker._sources))
    real_init, real_complete = oracle._Backtracker.__init__, oracle._Backtracker._complete
    setups, completions = [], []

    def init(bt, inst, ticker):
        before = calls["key"]
        real_init(bt, inst, ticker)
        setups.append((calls["key"] - before, len({*inst.G.cols(), *bt.hcols}), inst.n))

    def complete(bt, t):
        before = dict(calls)
        got = real_complete(bt, t)
        targets = len(bt.targets) - t
        distinct = len({bt.hcols[j] for j in bt.targets[t:]})
        completions.append((calls["sources"] - before["sources"], calls["key"] - before["key"], distinct, targets))
        return got

    monkeypatch.setattr(oracle._Backtracker, "__init__", init)
    monkeypatch.setattr(oracle._Backtracker, "_complete", complete)
    for case, inst in zip(cases, instances):
        assert decide(inst, Budget(mode=Mode.BACKTRACKING)).nodes == _PINNED_SEARCH[case][1]
    assert all(keys <= distinct < n for keys, distinct, n in setups)
    assert all(sources <= distinct and keys <= distinct for sources, keys, distinct, _ in completions)
    # the completions do reach targets that repeat a value
    assert len(completions) > 10
    assert sum(targets for *_, targets in completions) > 2 * sum(distinct for *_, distinct, _ in completions)


def test_full_rank_witness_costs_one_elimination(monkeypatch):
    # at full rank the slots make X and Y square, and Y records its rank,
    # so `_finish` builds S with one elimination of [X^T | Y^T]: no RREF of
    # either side, no inverse and no product (verify_witness reads H's
    # memoized rank and row-reduces nothing)
    from ceq import matrix

    real_eliminate, real_finish = matrix._eliminate, oracle._Backtracker._finish
    inside, per_finish = [], []

    def eliminate(*args):
        if inside:
            per_finish[-1] += 1
        return real_eliminate(*args)

    def finish(bt, sigma, diag):
        inside.append(True)
        per_finish.append(0)
        try:
            return real_finish(bt, sigma, diag)
        finally:
            inside.pop()

    monkeypatch.setattr(matrix, "_eliminate", eliminate)
    monkeypatch.setattr(oracle._Backtracker, "_finish", finish)
    instances = [
        generate(GenSpec(field(q), k, n, tag, Planted.YES, seed)).instance
        for q, k, n in ((2, 3, 6), (5, 3, 5), (7, 2, 4))
        for tag in Tag
        for seed in (1, 2)
    ]
    instances += [reduce_instance(inst, Tag.LCE)[0] for inst in instances if inst.tag is Tag.PCE]
    for inst in instances:
        assert inst.G.rank() == inst.k
        before = len(per_finish)
        assert decide(inst, Budget(mode=Mode.BACKTRACKING)).status is Status.YES
        assert per_finish[before:] == [1]


@pytest.mark.parametrize("p, e", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 6)])
def test_push_and_pop_match_the_rank_triple(p, e):
    # a pair (x, y) may join the pinned pairs S*x = y exactly when
    # rank X = rank Y = rank [X | Y] still holds over every pair pushed so
    # far; _push answers None when it does not, else a pin whose first
    # entry says whether rank X grew. PCE has one scalar, 1, and its class
    # key of a column is the column itself; see the next test for tags
    # with several scalars
    fld = field(p, e)
    add, mul = fld.add, fld.mul
    rng = stream(14, "push-pop", p, e)

    def vec(k):
        return tuple(rng.randrange(fld.q) for _ in range(k))

    def nonzero(k):
        while True:
            v = vec(k)
            if any(v):
                return v

    def comb(vecs, k):
        out = (0,) * k
        for v in vecs:
            c = rng.randrange(fld.q)
            out = tuple(add(a, mul(c, b)) for a, b in zip(out, v))
        return out

    def apply(m, v):
        return tuple(r[0] for r in m.mul(Mat(fld, [[c] for c in v], 1)).rows)

    def rank(vecs, width):
        return Mat(fld, vecs, width).rank()

    seen = {"y only": 0, "x only": 0, "full rank": 0}
    for k in range(5):
        zero = (0,) * k
        for _ in range(10):
            while True:
                s = Mat(fld, [vec(k) for _ in range(k)], k)
                if s.is_invertible():
                    break
            # G holds S^-1 * y for three probe targets y, so that `_sources`
            # can name them once the pairs pin S
            probes = [vec(k) for _ in range(3)]
            preimages = [apply(s.inv(), y) for y in probes]
            g = Mat(fld, list(zip(*preimages)) if k else [], 3)
            bt = oracle._Backtracker(Instance(fld, g, g, Tag.PCE), oracle._Ticker(Budget(), 0.0))
            stack = []  # (x, y, what _push returned)
            for _ in range(4 * k + 8):
                if stack and rng.random() < 0.25:
                    bt._pop(stack.pop()[2])
                else:
                    xs = [x for x, _, _ in stack]
                    ys = [y for _, y, _ in stack]
                    draw = rng.randrange(7) if k else 0
                    if draw == 0:  # a pair of the planted S, zero included
                        x = rng.choice([zero, vec(k), comb(xs, k)])
                        y = apply(s, x)
                    elif draw == 1:
                        x, y = rng.choice([(zero, zero), (zero, nonzero(k)), (nonzero(k), zero)])
                    elif draw == 2 and stack:  # a repeated pair
                        x, y, _ = rng.choice(stack)
                    elif draw == 3:  # x dependent, y most likely not
                        x, y = comb(xs, k), vec(k)
                    elif draw == 4:  # y dependent, x most likely not
                        x, y = vec(k), comb(ys, k)
                    else:
                        x, y = vec(k), vec(k)
                    rx, ry = rank(xs + [x], k), rank(ys + [y], k)
                    rxy = rank([a + b for a, b in zip(xs + [x], ys + [y])], 2 * k)
                    before = rank(xs, k)
                    seen["y only"] += ry > rx == before
                    seen["x only"] += rx > ry == before
                    expected = rx > before if rx == ry == rxy else None
                    got = bt._push(x, y, bt.acc_y.reduce(y + bt.tails[len(bt.slots)]))
                    assert (None if got is None else got[0]) is expected, (k, x, y, stack)
                    if got is not None:
                        stack.append((x, y, got))
                r = rank([x for x, _, _ in stack], k)
                assert len(bt.acc_x.rows) == len(bt.acc_y.rows) == len(bt.slots) == r
                if r == k and all(apply(s, x) == y for x, y, _ in stack):
                    for y, want in zip(probes, preimages):
                        assert {g.cols()[i] for v, _ in bt._sources(y) for i in bt.members[v]} == {want}
                    seen["full rank"] += 1
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize(
    "tag, p, e",
    [(Tag.LCE, 2, 2), (Tag.LCE, 5, 1), (Tag.LCE, 7, 1), (Tag.SPCE, 5, 1), (Tag.SPCE, 7, 1)],
    ids=lambda v: getattr(v, "value", v),
)
def test_push_matches_brute_force_over_the_scalars(tag, p, e):
    # with several scalars a pair (x, y) pins S * (d * x) = y with d
    # unknown: _push must accept exactly when some allowed scalars d_i,
    # the first non-zero x's being 1, make rank X = rank Y = rank [X | Y]
    # over the scaled pairs (d_i * x_i, y_i) pushed so far. The ties that
    # _push returns must name one such choice, with scalar 1 at the root
    # of each component (as `_finish` reads them)
    fld = field(p, e)
    q, add, mul, inv = fld.q, fld.add, fld.mul, fld.inv
    scal = list(scalars(fld, tag))
    rng = stream(15, "push-scalars", tag.value, p, e)

    def vec(k):
        return tuple(rng.randrange(q) for _ in range(k))

    def nonzero(k):
        while True:
            v = vec(k)
            if any(v):
                return v

    def scaled(c, v):
        return tuple(mul(c, a) for a in v)

    def comb(vecs, k, coefs=None):
        out = (0,) * k
        for i, v in enumerate(vecs):
            c = rng.randrange(q) if coefs is None else coefs[i]
            out = tuple(add(a, mul(c, b)) for a, b in zip(out, v))
        return out

    def apply(m, v):
        return tuple(r[0] for r in m.mul(Mat(fld, [[c] for c in v], 1)).rows)

    def rank(vecs, width):
        return Mat(fld, vecs, width).rank()

    def joint_rank(xs, ys, ds, k):
        return rank([scaled(d, x) + y for d, x, y in zip(ds, xs, ys)], 2 * k)

    def brute(xs, ys, k):
        # scaling x by a unit keeps rank X; d = 1 wherever x = 0, and on
        # the first non-zero x, since (c * d_i) works whenever (d_i) does
        rx = rank(xs, k)
        if rx != rank(ys, k):
            return False
        free = [i for i, x in enumerate(xs) if any(x)][1:]
        for choice in itertools.product(scal, repeat=len(free)):
            ds = [1] * len(xs)
            for i, d in zip(free, choice):
                ds[i] = d
            if joint_rank(xs, ys, ds, k) == rx:
                return True
        return False

    seen = {"x only": 0, "y only": 0, "ratio": 0, "in span": 0, "join": 0, "full rank": 0}
    for k in range(4):
        zero = (0,) * k
        for _ in range(10):
            while True:
                s = Mat(fld, [vec(k) for _ in range(k)], k)
                if s.is_invertible():
                    break
            probes = [vec(k) for _ in range(3)]
            preimages = [apply(s.inv(), y) for y in probes]
            g = Mat(fld, list(zip(*preimages)) if k else [], 3)
            bt = oracle._Backtracker(Instance(fld, g, g, tag), oracle._Ticker(Budget(), 0.0))
            stack = []  # (x, y, the planted scalar or None, what _push returned)
            for _ in range(4 * k + 6):
                # at most k + 1 scalars for the brute force to range over
                if stack and (sum(any(x) for x, *_ in stack) > k + 1 or rng.random() < 0.15):
                    bt._pop(stack.pop()[3])
                else:
                    xs = [x for x, *_ in stack]
                    ys = [y for _, y, *_ in stack]
                    d = None
                    draw = rng.randrange(10) if k else 0
                    if draw <= 5:  # a pair of the planted S, with its scalar
                        d = rng.choice(scal)
                        spread = comb(xs, k, [rng.randrange(1, q) for _ in xs])
                        x = rng.choice([zero, vec(k), vec(k), comb(xs, k), spread, spread])
                        y = apply(s, scaled(d, x))
                    elif draw == 6:
                        x, y = rng.choice([(zero, zero), (zero, nonzero(k)), (nonzero(k), zero)])
                    elif draw == 7:  # x dependent, y most likely not
                        x, y = comb(xs, k), vec(k)
                    elif draw == 8:  # y dependent, x most likely not
                        x, y = vec(k), comb(ys, k)
                    else:  # both dependent, with ratios of allowed scalars
                        coefs = [rng.randrange(q) for _ in stack]
                        x = comb(xs, k, coefs)
                        y = comb(ys, k, [mul(c, rng.choice(scal)) for c in coefs])
                    before, rx, ry = rank(xs, k), rank(xs + [x], k), rank(ys + [y], k)
                    seen["y only"] += ry > rx == before
                    seen["x only"] += rx > ry == before
                    expected = brute(xs + [x], ys + [y], k)
                    got = bt._push(x, y, bt.acc_y.reduce(y + bt.tails[len(bt.slots)]))
                    assert (got is not None) is expected, (k, x, y, stack)
                    if got is None:
                        seen["ratio"] += rx == ry == before
                        continue
                    assert got[0] is (rx > before)
                    seen["in span"] += not got[0] and got[1] is not None
                    seen["join"] += got[2] is not None
                    stack.append((x, y, d, got))
                r = rank([x for x, *_ in stack], k)
                assert len(bt.acc_x.rows) == len(bt.acc_y.rows) == len(bt.slots) == r
                assert all(len(row) == 2 * k for row in bt.acc_x.rows + bt.acc_y.rows)
                # the scalars the ties name, each root's scalar 1
                ds = [1 if pin[1] is None else mul(pin[1][1], bt.weight[pin[1][0]]) for *_, pin in stack]
                assert joint_rank([x for x, *_ in stack], [y for _, y, *_ in stack], ds, k) == r
                if 0 < r == k and not any(bt.root) and all(d is not None for _, _, d, _ in stack):
                    # S is pinned with slot 0's scalar 1: S' = d_0 * S for
                    # the planted scalar d_0 of slot 0, so S'^-1 * y is
                    # d_0^-1 times the planted preimage
                    d0 = next(d for x, _, d, _ in stack if any(x))
                    key = oracle._class_key
                    for y, want in zip(probes, preimages):
                        got_values = set()
                        for v, c in bt._sources(y):
                            value = g.cols()[bt.members[v][0]]
                            assert scaled(c, value) == scaled(inv(d0), want)
                            got_values.add(value)
                        same = {col for col in g.cols() if key(fld, scal, col) == key(fld, scal, want)}
                        assert got_values == same
                    # past one slot, only joins make one component
                    seen["full rank"] += r > 1
    assert min(seen.values()) > 0, seen


def test_decider_invariant_under_representation_change():
    rng = stream(99, "rerandom")
    for trial in range(25):
        fld = rng.choice([F2, F3])
        n = rng.randrange(2, 5)
        k = rng.randrange(1, min(n, 3) + 1)
        tag = rng.choice(list(Tag))
        gen = generate(GenSpec(fld, k, n, tag, Planted.UNLABELED, seed=1000 + trial))
        inst = gen.instance
        base = decide(inst).status

        def scramble(m, seed_label):
            r2 = stream(trial, seed_label)
            while True:
                s = Mat(fld, [[r2.randrange(fld.q) for _ in range(k)] for _ in range(k)], k)
                if s.is_invertible():
                    break
            sigma = list(range(n))
            r2.shuffle(sigma)
            if tag is Tag.PCE:
                diag = (1,) * n
            elif tag is Tag.SPCE:
                diag = tuple(r2.choice(fld.signs()) for _ in range(n))
            else:
                diag = tuple(r2.randrange(1, fld.q) for _ in range(n))
            return s.mul(m).apply_mono(Mono(fld, Perm(tuple(sigma)), diag))

        scrambled = Instance(fld, scramble(inst.G, "g"), scramble(inst.H, "h"), tag)
        assert decide(scrambled).status == base


def test_workers_match_serial():
    # decide runs one serial search: a repeated call returns the same
    # answer, nodes and witness, on raw instances and on gadget pairs
    raw = generate(GenSpec(F3, 2, 4, Tag.SPCE, Planted.YES, seed=77)).instance
    cases = (
        (raw, Mode.EXHAUSTIVE, Status.YES),
        (raw, Mode.BACKTRACKING, Status.YES),
        (_pinned_instance(_LCE_GADGET_YES), Mode.BACKTRACKING, Status.YES),
        (_pinned_instance(_SPCE_GADGET_NO), Mode.BACKTRACKING, Status.NO),
    )
    for inst, mode, status in cases:
        res = decide(inst, Budget(mode=mode))
        again = decide(inst, Budget(mode=mode))
        assert res.status is again.status is status
        assert (res.nodes, res.witness) == (again.nodes, again.witness)
        if status is Status.YES:
            assert verify_witness(inst, res.witness)
        else:
            assert res.witness is None


def test_workers_no_instance():
    gen = generate(GenSpec(F2, 1, 2, Tag.PCE, Planted.NO, seed=4))
    res = decide(gen.instance, Budget(mode=Mode.EXHAUSTIVE))
    assert res.status is Status.NO
    assert res.witness is None


def test_no_names_why_it_ended():
    # class counts refute the raw LCE pair before any node; the other NOs
    # come out of a search
    class_counts = ('LCE', (2, 2), 2, 4, 'no', 6, None, 'raw', Mode.BACKTRACKING)
    exhaustive_no = ('PCE', (7, 1), 3, 5, 'no', 1, (2, 1, 1, 1), 'raw', Mode.EXHAUSTIVE)
    cases = (
        (class_counts, "class counts"),
        (exhaustive_no, "search exhausted"),
        (_SPCE_GADGET_NO, "search exhausted"),
    )
    for case, detail in cases:
        res = decide(_pinned_instance(case), Budget(mode=case[-1]))
        assert (res.status, res.detail) == (Status.NO, detail), case
    # equal ranks and sorted class sizes [1, 2] on both sides, but one zero
    # column against two: only the zero-class comparison refutes it
    for tag in Tag:
        zero_classes = Instance(F3, Mat(F3, [[0, 1, 1]]), Mat(F3, [[0, 0, 1]]), tag)
        res = decide(zero_classes, Budget(mode=Mode.BACKTRACKING))
        assert (res.status, res.nodes, res.detail) == (Status.NO, 0, "class counts"), tag
        res = decide(zero_classes, Budget(mode=Mode.EXHAUSTIVE))
        assert (res.status, res.detail) == (Status.NO, "search exhausted"), tag
    rank_mismatch = Instance(F5, Mat(F5, [[1, 0], [0, 1]]), Mat(F5, [[1, 1], [2, 2]]), Tag.LCE)
    for mode in Mode:
        res = decide(rank_mismatch, Budget(mode=mode))
        assert (res.status, res.nodes, res.detail) == (Status.NO, 0, "rank mismatch")


@pytest.mark.parametrize("fault", ["no change of basis", "no verify"])
@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_a_witness_that_fails_raises_witness_invalid_naming_the_mode(mode, fault, monkeypatch):
    # decide checks every witness a search returns, once, whichever way it
    # fails: a change of basis that comes back None, or an S * G * M != H
    inst = generate(GenSpec(F5, 2, 4, Tag.LCE, Planted.YES, seed=3)).instance
    assert decide(inst, Budget(mode=mode)).status is Status.YES
    if fault == "no change of basis":
        monkeypatch.setattr(oracle, "row_basis_transform", lambda x, y: None)
    else:
        monkeypatch.setattr(oracle, "verify_witness", lambda inst, w: False)
    with pytest.raises(WitnessInvalid, match=f"^{mode.value} search"):
        decide(inst, Budget(mode=mode))


# ---------------------------------------------------------------------------
# generation


def test_generate_planted_yes_verifies():
    gen = generate(GenSpec(F2, 1, 2, Tag.PCE, Planted.YES, seed=7))
    assert gen.witness is not None
    assert verify_witness(gen.instance, gen.witness)


def test_generate_no_is_certified():
    gen = generate(GenSpec(F2, 1, 2, Tag.PCE, Planted.NO, seed=7))
    assert gen.witness is None
    assert decide(gen.instance).status is Status.NO


def _reference_no(spec):
    """The certified-NO loop of `generate` with every draw decided by the
    exhaustive decider: the first NO draw, and how many draws the class
    counts refute, each of them checked NO on the way."""
    fld = spec.field
    rng = stream(spec.seed, "gen", spec.tag.value, spec.planted.value, spec.k, spec.n, fld.p, fld.e)
    refuted = 0
    for _ in range(oracle._MAX_NO_TRIES):
        g = oracle._sample_full_rank(fld, spec.k, spec.n, spec.profile, rng)
        h = oracle._sample_full_rank(fld, spec.k, spec.n, spec.profile, rng)
        inst = Instance(fld, g, h, spec.tag)
        status = decide(inst, Budget(mode=Mode.EXHAUSTIVE)).status
        if oracle._Backtracker(inst, None).infeasible_by_counting():
            assert status is Status.NO
            refuted += 1
        if status is Status.NO:
            return inst, refuted
    raise AssertionError(f"no NO draw for {spec}")


def test_generate_no_matches_the_exhaustive_reference():
    # generate returns a draw that the class counts refute without a
    # search; the counts are invariant under S * G * M, so it must return
    # the reference's draw, and every draw they refute must be NO
    refuted = dict.fromkeys(Tag, 0)
    for p, e in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4)):
        fld = field(p, e)
        for tag in Tag:
            if tag is Tag.LCE and fld.q > 5:
                continue
            shapes = [(2, 3, None), (2, 4, (2, 1, 1)), (3, 4, None)]
            if tag is not Tag.LCE:
                shapes += [(2, 5, (2, 1, 1, 1)), (3, 5, (2, 1, 1, 1))]
            for k, n, profile in shapes:
                for seed in range(8):
                    spec = GenSpec(fld, k, n, tag, Planted.NO, seed, profile)
                    want, count = _reference_no(spec)
                    assert generate(spec).instance == want
                    refuted[tag] += count
    # the counts do refute draws in every tag: 118, 133 and 87 draws over
    # 320, 320 and 96 specs
    assert refuted == {Tag.PCE: 118, Tag.SPCE: 133, Tag.LCE: 87}


def test_generate_is_deterministic():
    a = generate(GenSpec(F3, 2, 4, Tag.LCE, Planted.YES, seed=123))
    b = generate(GenSpec(F3, 2, 4, Tag.LCE, Planted.YES, seed=123))
    assert a.instance == b.instance and a.witness == b.witness
    c = generate(GenSpec(F3, 2, 4, Tag.LCE, Planted.YES, seed=124))
    assert c.instance != a.instance


def test_generate_profile_hint():
    spec = GenSpec(F5, 2, 5, Tag.PCE, Planted.YES, seed=3, profile=(3, 1, 1))
    gen = generate(spec)
    from ceq.matrix import max_column_multiplicity

    assert gen.instance.G.n == 5
    assert max_column_multiplicity(gen.instance.G) >= 3


def test_generate_profile_must_sum():
    with pytest.raises(ValueError):
        GenSpec(F5, 2, 5, Tag.PCE, Planted.YES, seed=3, profile=(3, 1))


def test_genspec_takes_only_integer_sizes_seeds_and_counts():
    # each of these ended in a raw TypeError, most of them inside `generate`
    bad = [
        dict(k=2.0),
        dict(n=3.0),
        dict(seed=1.5),
        dict(seed="7"),
        dict(profile=(1.0, 1, 1)),
        dict(profile="111"),
        dict(profile=3),
    ]
    for change in bad:
        args = {"k": 2, "n": 3, "seed": 1, "profile": None, **change}
        with pytest.raises(ValueError, match="must be integers"):
            GenSpec(F3, args["k"], args["n"], Tag.PCE, Planted.YES, args["seed"], args["profile"])
    # integer-like values are read through operator.index and stored as ints
    class Two:
        def __index__(self):
            return 2

    spec = GenSpec(F3, Two(), 3, Tag.PCE, Planted.YES, Two(), [Two(), 1])
    assert (spec.k, spec.seed, spec.profile) == (2, 2, (2, 1))
    assert type(spec.k) is int and type(spec.seed) is int
    assert generate(spec) == generate(GenSpec(F3, 2, 3, Tag.PCE, Planted.YES, 2, (2, 1)))


def test_genspec_takes_only_a_field():
    # a field named by its text, or by its order, reached `generate` and
    # died there with an AttributeError
    for fld in ("GF3", 3, None):
        with pytest.raises(ValueError, match="must be a Field"):
            GenSpec(fld, 2, 3, Tag.PCE, Planted.YES, 1)


def test_backtracker_pins_the_widest_pair_in_linear_time():
    # G = H = [1...1 0...0; 0...0 1...1], two classes of MAX_DIM / 2. The
    # backtracker pins every column of the first class before the slots
    # reach rank 2, and the completion takes the second class as one run:
    # one node per column. Each pin reads its value's first free member
    # at once; a scan of the members from the start for a free one took
    # 16 s here
    fld = field(5)
    half = MAX_DIM // 2
    g = Mat(fld, [(1,) * half + (0,) * half, (0,) * half + (1,) * half], MAX_DIM)
    inst = Instance(fld, g, g, Tag.LCE)
    res = decide(inst, Budget(time_limit=8, mode=Mode.BACKTRACKING))
    assert (res.status, res.nodes) == (Status.YES, MAX_DIM)
    assert verify_witness(inst, res.witness)


def test_budget_takes_only_a_real_time_limit():
    # a string or a list ended in a raw TypeError, and True read as 1 s
    for limit in ("5", [1], True, False, 1j, -1, float("nan")):
        with pytest.raises(ValueError, match="time_limit"):
            Budget(time_limit=limit)
    for limit in (None, 0, 2, 0.5, Fraction(1, 4)):
        assert Budget(time_limit=limit).time_limit == limit


def test_genspec_caps_dimensions_and_entries():
    # k * n bounds what a generation builds; a rowless pair may be as wide
    # as a file may declare
    for k, n in ((0, MAX_DIM), (MAX_DIM, 0), (1, MAX_DIM), (256, 256)):
        GenSpec(F5, k, n, Tag.PCE, Planted.UNLABELED, seed=0)
    for k, n in ((0, MAX_DIM + 1), (MAX_DIM + 1, 0), (2, MAX_DIM // 2 + 1), (257, 256), (-1, 2)):
        with pytest.raises(ValueError, match="dimensions must lie in"):
            GenSpec(F5, k, n, Tag.PCE, Planted.UNLABELED, seed=0)


def test_generate_planted_needs_k_le_n():
    with pytest.raises(ValueError):
        GenSpec(F5, 3, 2, Tag.PCE, Planted.YES, seed=0)
    GenSpec(F5, 3, 2, Tag.PCE, Planted.UNLABELED, seed=0)


def test_generate_unlabeled_wider_than_tall_has_rank_n():
    # with k > n no k x n matrix has rank k, so both sides are drawn to
    # rank n
    got = generate(GenSpec(F3, 3, 2, Tag.PCE, Planted.UNLABELED, seed=1))
    g, h = got.instance.G, got.instance.H
    assert (g.k, g.n) == (h.k, h.n) == (3, 2)
    assert g.rank() == h.rank() == 2
    assert got.witness is None


def test_no_certification_caps_enforced():
    with pytest.raises(BudgetExceeded):
        generate(GenSpec(F2, 2, 7, Tag.PCE, Planted.NO, seed=0))
    with pytest.raises(BudgetExceeded):
        generate(GenSpec(F3, 2, 6, Tag.SPCE, Planted.NO, seed=0))
    with pytest.raises(BudgetExceeded):
        generate(GenSpec(F5, 2, 5, Tag.LCE, Planted.NO, seed=0))
    with pytest.raises(BudgetExceeded):
        generate(GenSpec(field(7), 2, 4, Tag.LCE, Planted.NO, seed=0))
    # SPCE over characteristic 2 degenerates to PCE and inherits its cap
    gen = generate(GenSpec(F2, 1, 2, Tag.SPCE, Planted.NO, seed=11))
    assert decide(gen.instance).status is Status.NO


def test_generate_no_impossible_size_raises():
    # every full-rank 1x1 pair over F_2 is equivalent, so NO cannot be certified
    with pytest.raises(BudgetExceeded):
        generate(GenSpec(F2, 1, 1, Tag.PCE, Planted.NO, seed=0))
