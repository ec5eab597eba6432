"""Ground-truth deciders and instance generators.

The deciders are deliberately naive searches over the full matrix
groups, meant to validate the reductions at desk scale rather than to
compete with structural equivalence algorithms.

EXHAUSTIVE scans permutations in lexicographic order of sigma and,
inside each, diagonal vectors in lexicographic order of the encoded
field elements; a candidate action M is accepted when the row spaces of
G*M and H coincide, at which point the change of basis is recovered by
`row_basis_transform(G*M, H)`. The first verifying candidate in that
order is the one returned. A vector v lies in the row space of H exactly
when, at every non-pivot column f of R = rref(H), the residual
v[f] - sum_i v[piv_i] * R[i][f] is zero. For a row of rref(G) scaled by
M that residual is a linear form in diag, one term per position it
reads, and it is complete once sigma has placed position f (R's pivots
in it lie left of f). The scan places sigma position by position and
then diag source by source, in the same order, and checks each residual
once per prefix instead of once per candidate: a complete form with a
single non-zero term never vanishes, and with one scalar (PCE, SPCE in
characteristic 2) a form is evaluated as soon as it is complete; other
forms are evaluated once diag has assigned their largest source index.
A prefix that breaks a residual is pruned, and every candidate below it
is counted at once, so node counts are those of a scan that ticks each
candidate; under a time limit they are still ticked one by one.

BACKTRACKING assigns the permutation column by column. A partial
assignment pins pairs (x, y) that the change of basis must map onto
each other; the branch dies as soon as the x-side rank, the y-side
rank, and the joint rank of those pairs disagree (an invertible map
with the pinned behaviour then cannot exist), or when column
multiplicity classes are incompatible. The pairs that add rank live in
two echelon accumulators: one of their x, and one of their rows (y | x)
that pivots on the y half. A new pair reduces (y | x) once. If the y
half vanishes, y lies in the span of the pinned y, and the pair is
consistent exactly when the x half vanishes too; otherwise it is
consistent, and adds rank, exactly when x adds x-side rank. Once the
rank reaches k the change of basis is determined and the remainder of
the assignment is forced by lookups instead of search: each remaining
target column y needs the source column S^-1 * y, the negated x half of
(y | 0) reduced against the pairs. S itself is built once, for the
witness that is returned, by `row_basis_transform(X, Y)`, where the r
pinned pairs are the columns of the k x r matrices X and Y. When
rank(G) = k, r = k and S is unique; when rank(G) < k, S is one of
several valid choices.

The gadget holds [a_j; 1] once, [a_j; 0] m times and e_{k+1} nm + 1
times, so a gadget pair has at most 2d + 1 distinct column values for d
distinct columns of A. The backtracker's set-up therefore groups each
side's columns by value once, with members in index order, and computes
one class key per distinct value; the classes, their sizes and the
target order (H classes by size and key, each class's members in index
order) come from those records. A forced completion computes S^-1 * y,
its class key and the scalars of the matching source values once per
distinct target value y. The completion consumes a run of equal
consecutive target values at once: one column at a time would take, for
each, the first unused member of the first source value that has one,
and the members of distinct values are disjoint, so the run takes the
first unused members across those values in order. It counts one node
per column of the run, and on a failing run one per column taken plus
one for the column that fails, so node counts are those of a per-column
completion (one tick each under a time limit).

Both deciders fix one scalar to 1. If (S, M) is a witness, so is
(c*S, c^-1*M) for every unit c (LCE) or sign c (SPCE), so each class of
witnesses under this global scalar has a member with that scalar equal
to 1. EXHAUSTIVE enumerates only diagonals with diag[0] = 1; since 1 is
the first scalar and the accepted candidates are closed under scaling,
the first accepted candidate already had diag[0] = 1, and the witness
returned is the same as without the quotient. BACKTRACKING gives the
first non-zero column it pins scalar 1 only; the subtree under scalar c
holds a witness iff the subtree under scalar 1 does, and the latter was
searched first, so again the witness is the same. Only node counts
fall; PCE, whose only scalar is 1, is unaffected.

Both modes return identical YES/NO answers; witnesses may differ.
Budgets, results and generator specs are immutable `Record`s.
"""

from __future__ import annotations

import enum
import time
from itertools import islice
from operator import index
from typing import Optional

from .core import Instance, Tag, Witness, verify_witness
from .errors import BudgetExceeded, WitnessInvalid
from .field import Field
from .matrix import Mat, Mono, Perm, row_basis_transform
from .record import Record
from .rng import stream


class Mode(enum.Enum):
    EXHAUSTIVE = "exhaustive"
    BACKTRACKING = "backtracking"


class Status(enum.Enum):
    YES = "YES"
    NO = "NO"
    UNKNOWN = "UNKNOWN"


class Budget(Record):
    __slots__ = ("max_nodes", "time_limit", "mode")

    def __init__(self, max_nodes: int = 100_000_000, time_limit: Optional[float] = None,
                 mode: Mode = Mode.EXHAUSTIVE):
        try:
            max_nodes = index(max_nodes)
        except TypeError:
            raise ValueError(f"max_nodes must be an integer, got {max_nodes!r}") from None
        if max_nodes < 1:
            raise ValueError("max_nodes must be at least 1")
        # `not >= 0` also catches NaN, which every comparison would
        # otherwise treat as "no deadline yet"
        if time_limit is not None and not time_limit >= 0:
            raise ValueError("time_limit must be a non-negative number")
        if not isinstance(mode, Mode):
            raise ValueError(f"mode must be a Mode, got {mode!r}")
        Record.__init__(self, max_nodes, time_limit, mode)


class DecideResult(Record):
    __slots__ = ("status", "witness", "nodes", "elapsed", "detail")

    def __init__(self, status: Status, witness: Optional[Witness], nodes: int, elapsed: float,
                 detail: str = ""):
        Record.__init__(self, status, witness, nodes, elapsed, detail)


def _scalars(fld: Field, tag: Tag) -> tuple[int, ...]:
    if tag is Tag.PCE:
        return (1,)
    if tag is Tag.SPCE:
        return fld.signs()
    return tuple(fld.units())


class _OutOfBudget(Exception):
    pass


class _Ticker:
    """Node counter with budget enforcement.

    `tick` does one comparison per node. Without a time limit the check
    point is the node after the budget; with one, every node is checked
    and reads the clock. `skip` counts a block of nodes: pruned
    candidates, or the columns of a forced run.
    """

    __slots__ = ("nodes", "max_nodes", "deadline", "_check_at")

    def __init__(self, budget: Budget, t0: float):
        self.nodes = 0
        self.max_nodes = budget.max_nodes
        self.deadline = None if budget.time_limit is None else t0 + budget.time_limit
        self._check_at = self.max_nodes + 1 if self.deadline is None else 1

    def tick(self):
        self.nodes += 1
        if self.nodes >= self._check_at:
            self._check()

    def skip(self, count: int):
        """Account for `count` nodes at once. Without a time limit they
        are added in one step, capped at the node after the budget; with
        one, each is ticked, so the clock is still read once per node."""
        if self.deadline is not None:
            for _ in range(count):
                self.tick()
            return
        self.nodes += count
        if self.nodes >= self._check_at:
            self.nodes = self._check_at
            raise _OutOfBudget

    def _check(self):
        if self.nodes > self.max_nodes or time.perf_counter() > self.deadline:
            raise _OutOfBudget


# ---------------------------------------------------------------------------
# exhaustive search


def _exhaustive(inst: Instance, ticker: _Ticker):
    """Scan candidates. Returns a witness or None after scanning them all."""
    fld, g, h = inst.field, inst.G, inst.H
    n = g.n
    scal = _scalars(fld, inst.tag)
    rg, rank_g, _ = g.rref()
    rh, _, piv_h = h.rref()
    reduced_rows = rg.rows[:rank_g]
    add, mul, neg = fld.add, fld.mul, fld.neg

    def accept(sigma, diag):
        m = Mono(fld, Perm(tuple(sigma)), tuple(diag))
        s = row_basis_transform(g.apply_mono(m), h)
        if s is None:
            return None
        w = Witness(s, m)
        if not verify_witness(inst, w):
            raise WitnessInvalid("exhaustive search recovered a non-verifying witness")
        return w

    if n == 0:
        ticker.tick()
        return accept((), ())

    # the residual check at each non-pivot column f of rref(H), done when
    # sigma places position f (module docstring), with -R[i][f] stored
    check_at: list[Optional[list]] = [None] * n
    for f in range(n):
        if f not in piv_h:
            check_at[f] = [(c, neg(row[f])) for c, row in zip(piv_h, rh.rows) if row[f]]
    single = len(scal) == 1
    # candidates under a pruned prefix: (n-1-p)! * |scal|^(n-1) below
    # sigma position p, |scal|^(n-1-s) below diag index s
    below_diag = [len(scal) ** (n - 1 - s) for s in range(n)]
    below_sigma = [below_diag[0]] * n
    for p in range(n - 2, -1, -1):
        below_sigma[p] = below_sigma[p + 1] * (n - 1 - p)

    # sigma[p] is -1 while no value is placed at position p; diag[0] = 1
    # since the global scalar is quotiented out (module docstring)
    sigma = [-1] * n
    used = [False] * n
    diag = [1] * n
    # residuals that sigma leaves to the diagonal: (largest source index,
    # [(source s, c_s)]) for the form sum_s c_s * diag[s]; the forms of
    # position p start at marks[p]
    pending: list[tuple[int, list[tuple[int, int]]]] = []
    marks = [0] * n

    def residuals_vanish(p) -> bool:
        """Whether every residual that position p completes can still
        vanish; residuals that depend on the diagonal go to `pending`."""
        terms = check_at[p]
        if terms is None:
            return True
        sf = sigma[p]
        for row in reduced_rows:
            if single:
                res = row[sf]
                for c, coef in terms:
                    x = row[sigma[c]]
                    if x:
                        res = add(res, mul(coef, x))
                if res:
                    return False
                continue
            form = [(sf, row[sf])] if row[sf] else []
            for c, coef in terms:
                s = sigma[c]
                x = row[s]
                if x:
                    form.append((s, mul(coef, x)))
            if len(form) == 1:
                # a single term times a unit never vanishes
                return False
            if form:
                pending.append((max(s for s, _ in form), form))
        return True

    def vanishes(form) -> bool:
        res = 0
        for s, c in form:
            res = add(res, mul(c, diag[s]))
        return not res

    def scale():
        """Scan the diagonals under the placed sigma, in order."""
        forms_at: list[list] = [[] for _ in range(n)]
        for s, form in pending:
            forms_at[s].append(form)
        pick = [-1] * n  # index into scal of diag[s], -1 before the first
        s = 1
        while s:
            if s == n:
                ticker.tick()
                w = accept(sigma, diag)
                if w is not None:
                    return w
                s -= 1
                continue
            i = pick[s] + 1
            if i == len(scal):
                pick[s] = -1
                s -= 1
                continue
            pick[s] = i
            diag[s] = scal[i]
            for form in forms_at[s]:
                if not vanishes(form):
                    ticker.skip(below_diag[s])
                    break
            else:
                s += 1
        return None

    # depth first over sigma, iteratively so that wide instances need no
    # deep recursion
    p = 0
    while p >= 0:
        v = sigma[p]
        if v >= 0:
            # take back the value tried last at p
            used[v] = False
            del pending[marks[p]:]
        v += 1
        while v < n and used[v]:
            v += 1
        if v == n:
            sigma[p] = -1
            p -= 1
            continue
        sigma[p] = v
        used[v] = True
        marks[p] = len(pending)
        if not residuals_vanish(p):
            ticker.skip(below_sigma[p])
        elif p + 1 < n:
            p += 1
        else:
            w = scale()
            if w is not None:
                return w
    return None


# ---------------------------------------------------------------------------
# backtracking search


class _Echelon:
    """Incremental row echelon accumulator over a field. Pivots lie in the
    first `width` entries of a row; any entries after them ride along."""

    __slots__ = ("fld", "width", "rows", "pivots")

    def __init__(self, fld: Field, width: int):
        self.fld = fld
        self.width = width
        self.rows = []
        self.pivots = []

    def reduce(self, vec):
        """vec minus the multiples of the rows that clear it at every pivot."""
        neg, axpy = self.fld.neg, self.fld.axpy
        v = vec
        for piv, row in zip(self.pivots, self.rows):
            coef = v[piv]
            if coef:
                v = axpy(v, neg(coef), row)
        return v

    def append(self, v) -> bool:
        """Append a reduced row, scaled to pivot 1, and return True if it
        has a pivot; return False, appending nothing, if it has none."""
        for j in range(self.width):
            if v[j]:
                self.rows.append(self.fld.scale(self.fld.inv(v[j]), v))
                self.pivots.append(j)
                return True
        return False

    def insert(self, vec) -> bool:
        """Reduce vec against the basis; extend and return True if it adds rank."""
        return self.append(self.reduce(vec))

    def pop(self):
        self.rows.pop()
        self.pivots.pop()

    @property
    def rank(self) -> int:
        return len(self.rows)


def _class_key(fld: Field, tag: Tag, col: tuple) -> tuple:
    """Canonical representative of a column under the tag's scalar action."""
    if tag is Tag.PCE:
        return col
    if tag is Tag.SPCE:
        return min(col, tuple(fld.scale(fld.minus_one, col)))
    for x in col:
        if x:
            return tuple(fld.scale(fld.inv(x), col))
    return col


class _Backtracker:
    def __init__(self, inst: Instance, ticker: _Ticker):
        self.inst = inst
        self.fld = fld = inst.field
        self.tag = tag = inst.tag
        self.k = inst.k
        self.ticker = ticker
        self.hcols = inst.H.cols()
        self.scalars = _scalars(fld, tag)
        self.zero = (0,) * self.k

        # each side's columns grouped by value, members in index order, and
        # one class key per distinct value (see the module docstring)
        gvals: dict[tuple, list[int]] = {}
        hvals: dict[tuple, list[int]] = {}
        for cols, by_val in ((inst.G.cols(), gvals), (self.hcols, hvals)):
            for i, col in enumerate(cols):
                by_val.setdefault(col, []).append(i)
        keys = {col: _class_key(fld, tag, col) for col in {*gvals, *hvals}}
        self.hkeys = [keys[col] for col in self.hcols]

        # the values inside each G class in sorted order, each with its
        # members; the class sizes; G class keys by size, each list sorted
        self.gvalues: dict[tuple, list[tuple[tuple, list[int]]]] = {}
        for value, members in sorted(gvals.items()):
            self.gvalues.setdefault(keys[value], []).append((value, members))
        self.gsize = {key: sum(len(m) for _, m in vals) for key, vals in self.gvalues.items()}
        self.gkeys_by_size: dict[int, list[tuple]] = {}
        for key in sorted(self.gsize):
            self.gkeys_by_size.setdefault(self.gsize[key], []).append(key)
        hmembers: dict[tuple, list[int]] = {}
        for value, members in hvals.items():
            hmembers.setdefault(keys[value], []).extend(members)
        self.hsize = {key: len(members) for key, members in hmembers.items()}

        n = inst.n
        self.used = [False] * n
        self.lock: dict[tuple, tuple] = {}
        self.lock_rev: dict[tuple, tuple] = {}
        # the pinned pairs S*x = y that add rank: their x, their rows
        # (y | x) pivoting on y, and the pairs themselves for `_finish`
        self.acc_x = _Echelon(fld, self.k)
        self.pairs = _Echelon(fld, self.k)
        self.basis_pairs: list[tuple[tuple, tuple]] = []
        self.sigma = [-1] * n
        self.diag = [1] * n

        # targets ordered by class (small, distinctive classes first), each
        # class's members in index order
        order = sorted(hmembers, key=lambda key: (self.hsize[key], key))
        self.targets = [j for key in order for j in sorted(hmembers[key])]
        # run_end[t]: one past the last position of the run of equal
        # consecutive target values that holds position t
        values = [self.hcols[j] for j in self.targets]
        self.run_end = run_end = list(range(1, len(values) + 1))
        for t in range(len(values) - 2, -1, -1):
            if values[t] == values[t + 1]:
                run_end[t] = run_end[t + 1]

    def infeasible_by_counting(self) -> bool:
        if sorted(self.gsize.values()) != sorted(self.hsize.values()):
            return True
        return self.gsize.get(self.zero, 0) != self.hsize.get(self.zero, 0)

    # -- constraint stack ----------------------------------------------------

    def _push(self, x: tuple, y: tuple) -> Optional[bool]:
        """None: inconsistent (nothing retained). True: consistent, rank
        grew. False: consistent, no rank change. The same test as x-side
        rank = y-side rank = joint rank of the pairs (module docstring)."""
        v = self.pairs.reduce(y + x)
        if not any(v[: self.k]):
            # y lies in the pinned span: x must be the source the pairs give it
            return None if any(v) else False
        if not self.acc_x.insert(x):
            return None
        self.pairs.append(v)
        self.basis_pairs.append((x, y))
        return True

    def _pop(self, grew: bool):
        if grew:
            self.acc_x.pop()
            self.pairs.pop()
            self.basis_pairs.pop()

    # -- search ---------------------------------------------------------------

    def _candidates(self, hkey: tuple, locked: Optional[tuple]):
        """Candidates for a target column of class hkey, in a fixed order and
        one at a time: (gkey, value, rep index, scalar). Duplicates collapse
        to the smallest unused rep. Until a non-zero column is pinned, a
        non-zero value takes scalar 1 only (the global scalar is quotiented
        out, see the module docstring). Each draw reads the search state
        afresh; `_assign` restores it before drawing the next candidate."""
        if locked is not None:
            gkeys = [locked]
        else:
            size = self.hsize[hkey]
            gkeys = [
                key
                for key in self.gkeys_by_size.get(size, ())
                if key not in self.lock_rev
            ]
        for gkey in gkeys:
            for value, members in self.gvalues[gkey]:
                rep = next((i for i in members if not self.used[i]), None)
                if rep is None:
                    continue
                if value == self.zero or self.acc_x.rank == 0:
                    yield gkey, value, rep, 1
                else:
                    for d in self.scalars:
                        yield gkey, value, rep, d

    def _assign(self, t: int) -> Optional[Witness]:
        """Search from target position t; `decide` starts at 0 once
        `infeasible_by_counting` has passed. With n = 0 there are no
        targets, and `_assign` finishes at once."""
        if t == len(self.targets):
            return self._finish()
        j = self.targets[t]
        y = self.hcols[j]
        hkey = self.hkeys[j]
        locked = self.lock.get(hkey)
        scale = self.fld.scale
        for gkey, value, rep, d in self._candidates(hkey, locked):
            self.ticker.tick()
            x = value if d == 1 else tuple(scale(d, value))
            grew = self._push(x, y)
            if grew is None:
                continue
            self.used[rep] = True
            self.sigma[j] = rep
            self.diag[rep] = d
            did_lock = locked is None
            if did_lock:
                self.lock[hkey] = gkey
                self.lock_rev[gkey] = hkey
            if self.acc_x.rank == self.k:
                got = self._complete(t + 1)
            else:
                got = self._assign(t + 1)
            if got is not None:
                return got
            if did_lock:
                del self.lock[hkey]
                del self.lock_rev[gkey]
            self.used[rep] = False
            self.sigma[j] = -1
            self.diag[rep] = 1
            self._pop(grew)
        return None

    def _complete(self, t: int) -> Optional[Witness]:
        """With the change of basis pinned, the rest of the assignment is
        forced; consume matching source columns or fail. The sources of a
        target are worked out once per distinct target value, and a run of
        equal targets is consumed at once (module docstring)."""
        used, sigma, diag = self.used, self.sigma, self.diag
        targets, run_end, ticker = self.targets, self.run_end, self.ticker
        sources: dict[tuple, list[tuple[list[int], int]]] = {}
        consumed = []
        ok = True
        while t < len(targets):
            end = run_end[t]
            y = self.hcols[targets[t]]
            options = sources.get(y)
            if options is None:
                options = sources[y] = self._sources(y)
            need = end - t
            picks = list(islice(((i, d) for members, d in options for i in members if not used[i]), need))
            if len(picks) < need:
                # the column after the last pick fails
                ticker.skip(len(picks) + 1)
                ok = False
                break
            ticker.skip(need)
            for j, (rep, d) in zip(targets[t:end], picks):
                used[rep] = True
                sigma[j] = rep
                diag[rep] = d
                consumed.append((j, rep))
            t = end
        if ok:
            got = self._finish()
            if got is not None:
                return got
        for j, rep in reversed(consumed):
            used[rep] = False
            sigma[j] = -1
            diag[rep] = 1
        return None

    def _sources(self, y: tuple) -> list[tuple[list[int], int]]:
        """The G values that target y can take under the pinned S, in order:
        each value's members and the scalar d with S^-1 * y = d * value."""
        fld, k = self.fld, self.k
        # (y | 0) reduces to (0 | -S^-1 * y)
        x_req = tuple(map(fld.neg, self.pairs.reduce(y + self.zero)[k:]))
        by_val = self.gvalues.get(_class_key(fld, self.tag, x_req), ())
        if x_req == self.zero:
            return [(members, 1) for _, members in by_val]
        # each value shares x_req's class key, so x_req = d * value with d
        # allowed for the tag: the key is the column itself for PCE
        # (d = 1), min(v, -v) for SPCE (d = +-1), and the column over its
        # first non-zero entry for LCE (d a unit)
        nz = next(i for i, v in enumerate(x_req) if v)
        c, inv, mul = x_req[nz], fld.inv, fld.mul
        return [(members, mul(c, inv(value[nz]))) for value, members in by_val]

    def _finish(self) -> Optional[Witness]:
        fld, k = self.fld, self.k
        m = Mono(fld, Perm(tuple(self.sigma)), tuple(self.diag))
        # the r pinned pairs as columns: two k x r matrices of full column
        # rank, so both RREFs are [I_r; 0] and S exists (unique when r = k)
        r = len(self.basis_pairs)
        xs = [x for x, _ in self.basis_pairs]
        ys = [y for _, y in self.basis_pairs]
        x_mat = Mat._of(fld, zip(*xs) if r else [()] * k, r)
        y_mat = Mat._of(fld, zip(*ys) if r else [()] * k, r)
        w = Witness(row_basis_transform(x_mat, y_mat), m)
        if not verify_witness(self.inst, w):
            raise WitnessInvalid("backtracking search completed a non-verifying witness")
        return w


# ---------------------------------------------------------------------------
# public decide


def decide(inst: Instance, budget: Budget = Budget()) -> DecideResult:
    """Decide an instance by brute force under the given budget.

    YES always carries a verifying witness. A NO names why it ended in
    `detail`: rank mismatch, class counts or search exhausted.
    """
    t0 = time.perf_counter()
    if inst.G.rank() != inst.H.rank():
        return DecideResult(Status.NO, None, 0, time.perf_counter() - t0, "rank mismatch")
    ticker = _Ticker(budget, t0)
    try:
        if budget.mode is Mode.EXHAUSTIVE:
            w = _exhaustive(inst, ticker)
        else:
            bt = _Backtracker(inst, ticker)
            if bt.infeasible_by_counting():
                return DecideResult(Status.NO, None, 0, time.perf_counter() - t0, "class counts")
            w = bt._assign(0)
    except _OutOfBudget:
        return DecideResult(Status.UNKNOWN, None, ticker.nodes, time.perf_counter() - t0, "budget exhausted")
    if w is None:
        return DecideResult(Status.NO, None, ticker.nodes, time.perf_counter() - t0, "search exhausted")
    return DecideResult(Status.YES, w, ticker.nodes, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# generation


class Planted(enum.Enum):
    YES = "yes"
    NO = "no"
    UNLABELED = "unlabeled"


# size caps for certified-NO generation; beyond these the exhaustive
# certification is no longer desk-scale
NO_CERT_CAPS = {
    Tag.PCE: (6, 16),
    Tag.SPCE: (5, 16),
    Tag.LCE: (4, 5),
}


class GenSpec(Record):
    __slots__ = ("field", "k", "n", "tag", "planted", "seed", "profile")

    def __init__(self, field: Field, k: int, n: int, tag: Tag, planted: Planted, seed: int,
                 profile: Optional[tuple[int, ...]] = None):
        if not isinstance(tag, Tag):
            raise ValueError(f"tag must be a Tag, got {tag!r}")
        if not isinstance(planted, Planted):
            raise ValueError(f"planted must be a Planted, got {planted!r}")
        if k < 0 or n < 0:
            raise ValueError("dimensions must be non-negative")
        if planted is not Planted.UNLABELED and k > n:
            raise ValueError("planted instances need k <= n for full row rank")
        if profile is not None:
            if sum(profile) != n:
                raise ValueError("multiplicity profile must sum to n")
            if any(c < 1 for c in profile):
                raise ValueError("multiplicity counts must be positive")
            if len(profile) < k:
                raise ValueError(
                    "full row rank needs at least k distinct columns; "
                    "the profile has too few parts"
                )
        Record.__init__(self, field, k, n, tag, planted, seed, profile)


class Generated(Record):
    __slots__ = ("instance", "witness")

    def __init__(self, instance: Instance, witness: Optional[Witness] = None):
        Record.__init__(self, instance, witness)


_MAX_SAMPLE_TRIES = 2000
_MAX_NO_TRIES = 256


def _sample_full_rank(spec: GenSpec, rng) -> Mat:
    """A k x n matrix of rank min(k, n); unlabeled specs allow k > n."""
    fld, k, n = spec.field, spec.k, spec.n
    q = fld.q
    rank = min(k, n)
    for _ in range(_MAX_SAMPLE_TRIES):
        if spec.profile is None:
            rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
            mat = Mat(fld, rows, n)
        else:
            cols = []
            for count in spec.profile:
                col = [rng.randrange(q) for _ in range(k)]
                cols.extend([col] * count)
            rng.shuffle(cols)
            mat = Mat(fld, [[col[i] for col in cols] for i in range(k)], n)
        if mat.rank() == rank:
            return mat
    raise BudgetExceeded(f"could not sample a full-rank {k}x{n} matrix over {fld!r}")


def _sample_invertible(fld: Field, k: int, rng) -> Mat:
    q = fld.q
    for _ in range(_MAX_SAMPLE_TRIES):
        m = Mat(fld, [[rng.randrange(q) for _ in range(k)] for _ in range(k)], k)
        if m.is_invertible():
            return m
    raise BudgetExceeded(f"could not sample an invertible {k}x{k} matrix over {fld!r}")


def _sample_action(fld: Field, n: int, tag: Tag, rng) -> Mono:
    sigma = list(range(n))
    rng.shuffle(sigma)
    if tag is Tag.PCE:
        diag = (1,) * n
    elif tag is Tag.SPCE:
        signs = fld.signs()
        diag = tuple(rng.choice(signs) for _ in range(n))
    else:
        diag = tuple(rng.randrange(1, fld.q) for _ in range(n))
    return Mono(fld, Perm(tuple(sigma)), diag)


def generate(spec: GenSpec) -> Generated:
    """Generate an instance from a GenSpec; deterministic in the seed.

    YES plants a witness by construction; NO is certified by the
    exhaustive decider (within the published size caps) and resampled on
    accidental equivalence; UNLABELED skips certification.
    """
    fld = spec.field
    rng = stream(
        spec.seed,
        "gen",
        spec.tag.value,
        spec.planted.value,
        spec.k,
        spec.n,
        fld.p,
        fld.e,
    )
    if spec.planted is Planted.YES:
        g = _sample_full_rank(spec, rng)
        s = _sample_invertible(fld, spec.k, rng)
        m = _sample_action(fld, spec.n, spec.tag, rng)
        h = s.mul(g).apply_mono(m)
        # s is invertible and m monomial, so h has g's rank
        h.memo("rank", g.rank)
        inst = Instance(fld, g, h, spec.tag)
        w = Witness(s, m)
        if not verify_witness(inst, w):
            raise WitnessInvalid("planted witness does not verify")
        return Generated(inst, w)
    if spec.planted is Planted.UNLABELED:
        g = _sample_full_rank(spec, rng)
        h = _sample_full_rank(spec, rng)
        return Generated(Instance(fld, g, h, spec.tag))
    cap_n, cap_q = NO_CERT_CAPS[spec.tag]
    if spec.tag is Tag.SPCE and fld.p == 2:
        cap_n, cap_q = NO_CERT_CAPS[Tag.PCE]
    if spec.n > cap_n or fld.q > cap_q:
        raise BudgetExceeded(
            f"certified NO generation for {spec.tag.value} capped at "
            f"n <= {cap_n}, q <= {cap_q}"
        )
    for _ in range(_MAX_NO_TRIES):
        g = _sample_full_rank(spec, rng)
        h = _sample_full_rank(spec, rng)
        inst = Instance(fld, g, h, spec.tag)
        res = decide(inst, Budget(mode=Mode.EXHAUSTIVE))
        if res.status is Status.NO:
            return Generated(inst)
        if res.status is not Status.YES:
            raise BudgetExceeded(f"NO certification ended {res.status.value}: {res.detail}")
    raise BudgetExceeded("could not certify a NO instance within the retry budget")
