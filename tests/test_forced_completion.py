"""The backtracker's forced completion against the loop it replaced.

`reference_complete` is `_Backtracker._complete` as it was before it
consumed runs of equal target values at once: one target column at a
time, each taking the first unused member of the first source value
that has one, one tick each. It marks the columns that sigma pins as
used and scans each value's members for the first unused one, where the
search counts the pinned members of each value. Like `_complete`, it
works on copies of the search state and hands a fresh diagonal to
`_finish`. The run-wise
completion must pick the same columns and count the same nodes, so
status, nodes, detail and witness must agree exactly, also under node
budgets that end the search inside a run. Under a time limit the two read the clock at different points: the
reference at every column, the run-wise completion once per run.

The same corpus, cut to 96 decides, guards search determinism:
its node total and a hash of every answer are literals, so a change
that moves a node count or a witness fails here.
"""

import hashlib

from ceq import oracle
from ceq.core import Instance, Tag
from ceq.field import field
from ceq.fileio import serialize_witness
from ceq.matrix import Mat
from ceq.oracle import Budget, GenSpec, Mode, Planted, decide, generate
from ceq.reduction import reduce_instance

from test_oracle import _StepClock

FIELDS = {(2, 1): field(2), (3, 1): field(3), (2, 2): field(2, 2), (5, 1): field(5),
          (7, 1): field(7), (2, 3): field(2, 3)}
# node cap of a corpus decide, so that none runs long; an UNKNOWN would
# still have nodes to compare
MAX_NODES = 3000


def reference_complete(self, t, seen=None):
    """seen, when given, collects the node count of every tick spent on a
    column that continues a run of equal targets."""
    used = [False] * len(self.sigma)
    for rep in self.sigma:
        if rep >= 0:
            used[rep] = True
    sigma, diag = self.sigma[:], [1] * len(self.sigma)
    sources = {}
    for tt in range(t, len(self.targets)):
        self.ticker.tick()
        j = self.targets[tt]
        y = self.hcols[j]
        if seen is not None and tt > t and self.hcols[self.targets[tt - 1]] == y:
            seen.append(self.ticker.nodes)
        options = sources.get(y)
        if options is None:
            options = sources[y] = self._sources(y)
        for v, d in options:
            rep = next((i for i in self.members[v] if not used[i]), None)
            if rep is not None:
                break
        else:
            return None
        used[rep] = True
        sigma[j] = rep
        diag[rep] = d
    return self._finish(sigma, diag)


def _hard_no(fld, k, n, profile, seed):
    """A certified-NO PCE pair that passes preprocessing: the first one
    from seed, seed + 1000, ..."""
    for seed in range(seed, seed + 100_000, 1000):
        inst = generate(GenSpec(fld, k, n, Tag.PCE, Planted.NO, seed, profile)).instance
        if not reduce_instance(inst, Tag.LCE)[1].rejected:
            return inst
    raise AssertionError(f"no hard NO pair over {fld!r}")


def _gadget_shape(fld, s):
    """(k, n, profile) of the s-th PCE pair over fld; over GF(2) every
    2-row pair with a certified NO fails preprocessing."""
    if fld.q == 2:
        return ((3, 5, (2, 1, 1, 1)), (3, 6, (2, 2, 1, 1)))[s % 2]
    return ((2, 4, (2, 1, 1)), (2, 5, (2, 1, 1, 1)), (2, 6, (2, 2, 1, 1)))[s % 3]


def gadget_corpus(per_stratum):
    """LCE and SPCE gadget pairs of planted-YES and hard-NO PCE pairs over
    every field of FIELDS, per_stratum PCE pairs of each truth."""
    for (p, e), fld in FIELDS.items():
        for truth in ("yes", "no"):
            for s in range(per_stratum):
                k, n, profile = _gadget_shape(fld, s)
                seed = 100 * p + 10 * e + s
                if truth == "yes":
                    pce = generate(GenSpec(fld, k, n, Tag.PCE, Planted.YES, seed, profile)).instance
                else:
                    pce = _hard_no(fld, k, n, profile, seed)
                for target in (Tag.LCE, Tag.SPCE):
                    red, cert = reduce_instance(pce, target)
                    assert not cert.rejected
                    yield red


def corpus(per_stratum):
    """Backtracking decides in a fixed order: the gadget pairs of
    `gadget_corpus`, then raw PCE, SPCE and LCE pairs over the fields up to
    q = 5; per_stratum instances of each kind."""
    yield from gadget_corpus(per_stratum)
    for tag, n in ((Tag.PCE, 5), (Tag.SPCE, 5), (Tag.LCE, 4)):
        for (p, e), fld in FIELDS.items():
            if fld.q > 5:
                continue
            for planted in (Planted.YES, Planted.NO):
                for s in range(per_stratum):
                    yield generate(GenSpec(fld, 2, n, tag, planted, 7 * s + p + e)).instance


def _answer(res):
    w = None if res.witness is None else serialize_witness(res.witness.S.field, res.witness)
    return res.status.value, res.nodes, res.detail, w


def _fresh(inst):
    """The instance without the RREFs and columns an earlier decide left."""
    fld = inst.field
    return Instance(fld, Mat(fld, inst.G.rows, inst.G.n), Mat(fld, inst.H.rows, inst.H.n), inst.tag)


def _both(inst, budget, monkeypatch, clock=None):
    """(reference answer, run-wise answer) of one decide."""
    got = []
    for complete in (reference_complete, oracle._Backtracker._complete):
        with monkeypatch.context() as mp:
            mp.setattr(oracle._Backtracker, "_complete", complete)
            if clock is not None:
                mp.setattr(oracle, "time", clock())
            got.append(_answer(decide(_fresh(inst), budget)))
    return got


def test_completion_matches_the_per_column_reference(monkeypatch):
    budget = Budget(max_nodes=MAX_NODES, mode=Mode.BACKTRACKING)
    statuses = set()
    count = 0
    for inst in corpus(7):
        want, got = _both(inst, budget, monkeypatch)
        assert got == want
        statuses.add(want[0])
        count += 1
    assert count >= 300 and statuses == {"YES", "NO"}


def test_classes_locked_before_a_first_target_are_fully_taken(monkeypatch):
    # targets come class by class, and an H class pins as many columns as
    # the G class it locks holds, so when a later H class reaches its first
    # target every G class locked so far has no free member left: `_moves`
    # needs no reverse lock to pass them over
    real_moves = oracle._Backtracker._moves
    checks = []

    def moves(bt, t):
        if bt.hkeys[bt.targets[t]] not in bt.lock:
            for gkey in bt.lock.values():
                for _, v in bt.gvalues[gkey]:
                    assert bt.taken[v] == len(bt.members[v]), (t, gkey)
            checks.append(len(bt.lock))
        return real_moves(bt, t)

    monkeypatch.setattr(oracle._Backtracker, "_moves", moves)
    budget = Budget(max_nodes=MAX_NODES, mode=Mode.BACKTRACKING)
    tags = set()
    for inst in gadget_corpus(3):
        decide(inst, budget)
        tags.add(inst.tag)
    assert tags == {Tag.LCE, Tag.SPCE}
    # first targets reached with some class locked, and the locked G
    # classes checked at them: 404 and 874 on this corpus
    reached = (sum(map(bool, checks)), sum(checks))
    assert reached[0] >= 380 and reached[1] >= 800, reached


def _run_inside(inst, monkeypatch):
    """The node counts at which the reference completion ticks a column
    that continues a run of equal targets."""
    seen = []
    with monkeypatch.context() as mp:
        mp.setattr(oracle._Backtracker, "_complete", lambda bt, t: reference_complete(bt, t, seen))
        decide(_fresh(inst), Budget(mode=Mode.BACKTRACKING))
    return seen


def test_node_budget_ending_inside_a_run(monkeypatch):
    # the budget ends at a node that the reference spends on a column in
    # the middle of a run of equal targets, in failing and in succeeding
    # completions
    fld = FIELDS[(5, 1)]
    cases = [
        reduce_instance(generate(GenSpec(fld, 2, 6, Tag.PCE, Planted.YES, 2, (2, 2, 1, 1))).instance, Tag.LCE)[0],
        reduce_instance(_hard_no(fld, 2, 6, (2, 2, 1, 1), 2), Tag.LCE)[0],
    ]
    swept = 0
    for inst in cases:
        inside = _run_inside(inst, monkeypatch)
        assert inside
        for nodes in sorted(set(inside))[:: max(1, len(inside) // 25)]:
            for max_nodes in (nodes - 1, nodes, nodes + 1):
                budget = Budget(max_nodes=max_nodes, mode=Mode.BACKTRACKING)
                want, got = _both(inst, budget, monkeypatch)
                assert got == want
                swept += want[0] == "UNKNOWN"
    assert swept > 20


def _read_marks(inst, monkeypatch):
    """The node count at each point where the run-wise search reads the
    clock under a time limit: after every `tick`, of one node or of a
    block counted at once. The run itself has no limit."""
    marks = []
    real_tick = oracle._Ticker.tick

    def tick(ticker, count=1):
        real_tick(ticker, count)
        marks.append(ticker.nodes)

    with monkeypatch.context() as mp:
        mp.setattr(oracle._Ticker, "tick", tick)
        decide(_fresh(inst), Budget(mode=Mode.BACKTRACKING))
    return marks


def test_time_limit_ending_inside_a_run(monkeypatch):
    # the fake clock moves one step per read. The reference reads it at
    # every column, so a limit of i steps ends it at node i + 1; the
    # run-wise completion reads it once per run of equal targets, so a
    # deadline inside a run ends the search at that run's last column,
    # the whole run counted
    fld = FIELDS[(5, 1)]
    inst = reduce_instance(_hard_no(fld, 2, 6, (2, 2, 1, 1), 2), Tag.LCE)[0]
    marks = _read_marks(inst, monkeypatch)
    runs = [i for i in range(1, len(marks)) if marks[i] - marks[i - 1] >= 2]
    assert len(runs) >= 2
    i = runs[1]
    budget = Budget(time_limit=i * _StepClock.step, mode=Mode.BACKTRACKING)
    want, got = _both(inst, budget, monkeypatch, _StepClock)
    assert want[:2] == ("UNKNOWN", i + 1)
    assert got[:2] == ("UNKNOWN", marks[i]) and marks[i] > i + 1
    assert got[2:] == want[2:]


# node total and sha256 of the answers of `corpus(2)`, 96 decides, as the
# per-column completion computed them
DETERMINISM_NODES = 1457
DETERMINISM_SHA256 = "0bebc95021b44b0bcb847cc9d526052b509d66e895b31aa5fbb7c697f6b85e26"


def test_search_answers_are_pinned():
    budget = Budget(max_nodes=MAX_NODES, mode=Mode.BACKTRACKING)
    h = hashlib.sha256()
    total = count = 0
    for inst in corpus(2):
        answer = _answer(decide(inst, budget))
        h.update(repr(answer).encode())
        total += answer[1]
        count += 1
    assert count == 96
    assert (total, h.hexdigest()) == (DETERMINISM_NODES, DETERMINISM_SHA256)
