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
candidate.

BACKTRACKING assigns the permutation column by column and branches on
source columns only. Pinning target y to a source value v states
S * (d * v) = y with the scalar d unknown, since whether the pair adds
rank does not depend on d. The pairs that add rank are the slots, held
in two echelon accumulators, one of their values and one of their
targets, each row carrying its coordinates over the slots. A target
position reduces y once and each candidate v at most once. If exactly
one of them leaves the pinned span, the branch dies: the x-side and
y-side ranks would differ. If both do, the pair becomes a slot with a
free scalar. If neither does, v = sum a_i v_i and y = sum b_i y_i over
the slots, and S * (d * v) = y
holds exactly when a and b have the same support and d / d_i = b_i / a_i
on it. Each such ratio must be an allowed scalar (1 for PCE, +-1 for
SPCE, a unit for LCE), and the ratios live in a union-find over the
slots whose weights compose through the field's mul and inv: a pair that
gives one component two different weights dies, and one that meets
several components joins them. While one component holds every slot,
S^-1 * y is known for each y in the slots' span, so such a pair needs no
reduction of v, which must lie in the class of S^-1 * y. Once the slots
have rank k and one component holds them all, S is fixed up to the
global scalar below, and the rest of the assignment is forced by
lookups instead of search: each remaining target column y needs the
source column S^-1 * y. With one allowed scalar (PCE, LCE over GF(2),
SPCE in characteristic 2) every slot joins the first one's component,
so S is known up to the global scalar at every step, and node counts
and witnesses are those of a search that pinned each column with
scalar 1. With more, branching on
columns goes on past rank k until the components join; a component that
no pinned column ties keeps scalar 1 at its root, since every scalar of
it gives a witness. Compared with branching on the scalar of every
pinned column, node counts fall and answers stay the same; an LCE or
SPCE witness may differ, as it is the first one found in column order.
S itself is built once, for the witness that is returned, by
`row_basis_transform(X, Y)`, where the r slots, their values scaled by
their scalars, are the columns of the k x r matrices X and Y. When
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
completion.

Under a time limit both deciders read the clock once per searched node
and once per block of nodes counted at once (the candidates under a
pruned prefix, the columns of a forced run), so a limit that does not
bind gives the answer and node count of the run without it.

Both deciders fix one scalar to 1. If (S, M) is a witness, so is
(c*S, c^-1*M) for every unit c (LCE) or sign c (SPCE), so each class of
witnesses under this global scalar has a member with that scalar equal
to 1. EXHAUSTIVE enumerates only diagonals with diag[0] = 1; since 1 is
the first scalar and the accepted candidates are closed under scaling,
the first accepted candidate already had diag[0] = 1, and the witness
returned is the same as without the quotient. BACKTRACKING gives the
root of each component of slots scalar 1; the first non-zero column it
pins is slot 0, the root of its component, so that column's scalar is
1. PCE, whose only scalar is 1, is unaffected.

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

    `tick` counts one searched node and `skip` a block of nodes at once:
    pruned candidates, or the columns of a forced run. Without a time
    limit the check point is the node after the budget, and a block that
    crosses it stops at that node. A time limit adds one clock read per
    `tick` and one per `skip` block, so a limit that does not bind leaves
    the answer and the node count as they are without it.
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
        """Account for `count` nodes in one step, capped at the node after
        the budget; under a time limit, read the clock once for the block."""
        self.nodes += count
        if self.nodes > self.max_nodes:
            self.nodes = self.max_nodes + 1
            raise _OutOfBudget
        if self.deadline is not None and time.perf_counter() > self.deadline:
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
    """Canonical representative of a column under the tag's scalar action:
    the column itself where 1 is the only scalar."""
    if tag is Tag.PCE or fld.q == 2:
        return col
    if tag is Tag.SPCE:
        return col if fld.p == 2 else min(col, tuple(fld.scale(fld.minus_one, col)))
    for x in col:
        if x:
            return tuple(fld.scale(fld.inv(x), col))
    return col


class _Backtracker:
    def __init__(self, inst: Instance, ticker: _Ticker):
        self.inst = inst
        self.fld = fld = inst.field
        self.tag = tag = inst.tag
        self.k = k = inst.k
        self.ticker = ticker
        self.hcols = inst.H.cols()
        self.zero = (0,) * k
        # the values a ratio of two scalars may take; None for LCE over a
        # field with more than one unit, where every unit is allowed
        self.ratios = None if tag is Tag.LCE and fld.q > 2 else frozenset(_scalars(fld, tag))
        # with one scalar every slot's scalar is the root's: one component
        # holds every slot, and the coordinates below have width 0
        self.one_scalar = self.ratios == {1}

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
        # the pinned pairs that add rank, the slots: (value, y) with the
        # value's scalar unknown. acc_x holds rows (u | c) and acc_y rows
        # (u | c | x), u the sum of c_i times the value (the y) of slot i
        # and x the sum of c_i d_i value_i, so that a vector in the pinned
        # span reduces to (0 | minus its coordinates | minus the x of
        # them). x is kept exact only while one component holds every
        # slot, the only time it is read. A vector reduced while r slots
        # are pinned carries tails[r] = e_r, so that it enters as slot r
        self.acc_x = _Echelon(fld, k)
        self.acc_y = _Echelon(fld, k)
        self.slots: list[tuple[tuple, tuple]] = []
        if self.one_scalar:
            self.tails = [()] * (k + 1)
        else:
            self.tails = [(0,) * r + (1,) + (0,) * (k - 1 - r) for r in range(k)] + [self.zero]
        # the scalar ratios, a union-find over the slots: d_i, the scalar of
        # slot i, is weight[i] times that of its component's root root[i]
        self.root: list[int] = []
        self.weight: list[int] = []
        self.comps = 0
        # rep -> (slot, ratio) for each non-zero column that branching
        # pinned: its scalar is ratio times that of the slot
        self.ties: dict[int, tuple[int, int]] = {}
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

    def _target(self, y: tuple) -> tuple:
        """What `_push` needs of target y, worked out once per target
        position: ry, that is y + tails[r] + 0 reduced against acc_y with r
        slots pinned, and, if y lies in the pinned span and one component
        holds every slot, S^-1 * y for root scalar 1 and its class key."""
        k = self.k
        ry = self.acc_y.reduce(y + self.tails[len(self.slots)] + self.zero)
        if self.comps > 1 or any(ry[:k]):
            return ry, None, None
        x_req = tuple(map(self.fld.neg, ry[k + len(self.tails[k]):]))
        return ry, x_req, _class_key(self.fld, self.tag, x_req)

    def _push(self, value: tuple, gkey: tuple, y: tuple, target: tuple) -> Optional[tuple]:
        """Pin S * (d * value) = y with the scalar d unknown; gkey is the
        value's class key and target is `_target(y)`. None: inconsistent,
        nothing retained. Otherwise (grew, tie, undo) for `_pop`: whether
        the pair became a slot, and d as a (slot, ratio) tie, None for a
        zero column. The test is the module docstring's."""
        ry, x_req, x_key = target
        if x_key is not None:
            # d * value = S^-1 * y needs the same class
            if gkey != x_key:
                return None
            if x_req == self.zero:
                return False, None, None
            if self.one_scalar:
                return False, (0, 1), None
            nz = next(i for i, v in enumerate(x_req) if v)
            return False, (0, self.fld.mul(x_req[nz], self.fld.inv(value[nz]))), None
        k = self.k
        r = len(self.slots)
        rv = self.acc_x.reduce(value + self.tails[r])
        new_x, new_y = any(rv[:k]), any(ry[:k])
        if new_x or new_y:
            if not (new_x and new_y):
                return None
            self.acc_x.append(rv)
            self.acc_y.append(self.fld.axpy(ry, 1, self.zero + self.tails[k] + value))
            self.slots.append((value, y))
            # with one scalar every ratio is 1: all slots share one component
            root = 0 if r and self.one_scalar else r
            self.comps += root == r
            self.root.append(root)
            self.weight.append(1)
            return True, (r, 1), None
        # value = sum a_i value_i and y = sum b_i y_i over the slots, with
        # a_i = -rv[k + i] and b_i = -ry[k + i]; more than one component,
        # so more than one scalar
        mul, inv, ratios = self.fld.mul, self.fld.inv, self.ratios
        root, weight = self.root, self.weight
        # each component the support meets -> d over the scalar of its root
        meets: dict[int, int] = {}
        for i in range(r):
            a, b = rv[k + i], ry[k + i]
            if not (a and b):
                if a or b:
                    return None
                continue
            rho = mul(b, inv(a))  # d / d_i
            if ratios is not None and rho not in ratios:
                return None
            t = mul(rho, weight[i])
            if meets.setdefault(root[i], t) != t:
                return None
        if not meets:
            return False, None, None
        first = min(meets)
        t_first = meets.pop(first)
        if not meets:
            return False, (first, t_first), None
        # join the other components into first's
        undo = (root[:], weight[:], self.comps, self.acc_y.rows)
        for c, t in meets.items():
            f = mul(t_first, inv(t))  # root c's scalar over root first's
            for i in range(r):
                if root[i] == c:
                    root[i] = first
                    weight[i] = mul(weight[i], f)
        self.comps -= len(meets)
        if self.comps == 1:
            self._rebuild_x()
        return False, (first, t_first), undo

    def _rebuild_x(self):
        """Recompute the x part of every acc_y row from its coordinates,
        once the weights are those of a single component (only a tag with
        more than one scalar joins components)."""
        k, axpy, mul = self.k, self.fld.axpy, self.fld.mul
        rows = []
        for row in self.acc_y.rows:
            x = self.zero
            for c, w, (value, _) in zip(row[k:2 * k], self.weight, self.slots):
                if c:
                    x = axpy(x, mul(c, w), value)
            rows.append(tuple(row[:2 * k]) + tuple(x))
        self.acc_y.rows = rows

    def _pop(self, pin: tuple):
        grew, _, undo = pin
        if grew:
            self.acc_x.pop()
            self.acc_y.pop()
            self.slots.pop()
            self.weight.pop()
            if self.root.pop() == len(self.slots):
                self.comps -= 1
        elif undo is not None:
            self.root, self.weight, self.comps, self.acc_y.rows = undo

    # -- search ---------------------------------------------------------------

    def _candidates(self, hkey: tuple, locked: Optional[tuple]):
        """Candidates for a target column of class hkey, in a fixed order and
        one at a time: (gkey, value, rep index). Duplicates collapse to the
        smallest unused rep. Each draw reads the search state afresh;
        `_assign` restores it before drawing the next candidate."""
        if locked is not None:
            gkeys = [locked]
        else:
            size = self.hsize[hkey]
            gkeys = [
                key
                for key in self.gkeys_by_size.get(size, ())
                if key not in self.lock_rev
            ]
        used = self.used
        for gkey in gkeys:
            for value, members in self.gvalues[gkey]:
                for rep in members:
                    if not used[rep]:
                        yield gkey, value, rep
                        break

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
        target = None
        for gkey, value, rep in self._candidates(hkey, locked):
            self.ticker.tick()
            if target is None:
                target = self._target(y)
            pin = self._push(value, gkey, y, target)
            if pin is None:
                continue
            tie = pin[1]
            self.used[rep] = True
            self.sigma[j] = rep
            if tie is not None:
                self.ties[rep] = tie
            did_lock = locked is None
            if did_lock:
                self.lock[hkey] = gkey
                self.lock_rev[gkey] = hkey
            if len(self.slots) == self.k and self.comps <= 1:
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
            self.ties.pop(rep, None)
            self._pop(pin)
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
        _, x_req, key = self._target(y)
        by_val = self.gvalues.get(key, ())
        if x_req == self.zero:
            return [(members, 1) for _, members in by_val]
        # each value shares x_req's class key, so x_req = d * value with d
        # allowed for the tag: the key is the column itself for PCE
        # (d = 1), min(v, -v) for SPCE (d = +-1), and the column over its
        # first non-zero entry for LCE (d a unit)
        nz = next(i for i, v in enumerate(x_req) if v)
        c, inv, mul = x_req[nz], self.fld.inv, self.fld.mul
        return [(members, mul(c, inv(value[nz]))) for value, members in by_val]

    def _finish(self) -> Optional[Witness]:
        """The witness of a complete assignment. The root of each component
        of slots takes scalar 1, so slot i takes weight[i] (module
        docstring)."""
        fld, k, weight = self.fld, self.k, self.weight
        diag = list(self.diag)
        for rep, (slot, ratio) in self.ties.items():
            diag[rep] = fld.mul(ratio, weight[slot])
        m = Mono(fld, Perm(tuple(self.sigma)), tuple(diag))
        # the r slots as columns S * (d_i * value_i) = y_i: two k x r
        # matrices of full column rank, so both RREFs are [I_r; 0] and S
        # exists (unique when r = k)
        r = len(self.slots)
        xs = [value if w == 1 else tuple(fld.scale(w, value)) for w, (value, _) in zip(weight, self.slots)]
        ys = [y for _, y in self.slots]
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
