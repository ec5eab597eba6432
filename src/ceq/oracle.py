"""Ground-truth deciders and instance generators.

The deciders are deliberately naive searches over the full matrix
groups, meant to validate the reductions at desk scale rather than to
compete with structural equivalence algorithms. Both read a tag's
allowed diagonal entries, its scalars, from `core.scalars` alone: 1 for
PCE, +-1 for SPCE, every unit for LCE.

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
in it lie left of f). The scan is one depth-first loop over 2n - 1
levels: sigma positions 0..n-1, then diag sources 1..n-1, each in the
same order. It checks each residual once per prefix instead of once per
candidate: a complete form with a single non-zero term never vanishes,
and with one scalar a form is evaluated as soon as it is complete;
other forms are evaluated once diag has assigned their largest source
index. A prefix that breaks a residual is pruned, and the candidates
below it, one table entry per level, are counted at once, so node counts
are those of a scan that ticks each candidate.

BACKTRACKING assigns the permutation column by column and branches on
source columns only, depth first from an explicit stack with one
generator per target position: it pins that position's candidates in
order and takes each pin back when resumed, so no input depth reaches
Python's frame limit. Pinning target y to a source value v states
S * (d * v) = y with the scalar d unknown, since whether the pair adds
rank does not depend on d. The pairs that add rank are the slots, held
in two echelon accumulators, one of their values and one of their
targets, each row carrying its coordinates over the slots. A target
position reduces y once and each candidate v once. If exactly one of
them leaves the pinned span, the branch dies: the x-side and y-side
ranks would differ. If both do, the pair becomes a slot with a free
scalar. If neither does, v = sum a_i v_i and y = sum b_i y_i over
the slots, and S * (d * v) = y holds exactly when a and b have the same
support and d / d_i = b_i / a_i on it. Each such ratio must be an
allowed scalar, and the ratios live in a union-find over the slots whose
weights compose through the field's mul and inv: a pair that gives one
component two different weights dies, and one that meets several
components joins them. Slot 0 is always the root of its component, and a
join relabels every member, so one component holds all the slots exactly
when every slot's root is 0. Once the slots have rank k and one component
holds them all, S is fixed up to the global scalar below, and the rest
of the assignment is forced by lookups instead of search: each remaining
target column y = sum b_i y_i needs the source column
S^-1 * y = sum b_i d_i v_i, formed from y's coordinates and the slots'
weights, with scalar 1 at the root. With one allowed scalar every slot
joins the first one's component, so S is known up to the global scalar
at every step, and node counts and witnesses are those of a search that
pinned each column with scalar 1. With more, branching on columns goes
on past rank k until the components join; a component that no pinned
column ties keeps scalar 1 at its root, since every scalar of it gives a
witness. Compared with branching on the scalar of every pinned column,
node counts fall and answers stay the same; an LCE or SPCE witness may
differ, as it is the first one found in column order.
S itself is built once, for the witness that is returned, by
`row_basis_transform(X, Y)`, where the r slots, their values scaled by
their scalars, are the columns of the k x r matrices X and Y. Each slot
adds rank on both sides, so Y has rank r by construction and records it.
When rank(G) = k, r = k: Y has full row rank, S is unique and costs one
elimination of [X^T | Y^T]. When rank(G) < k, S is one of several valid
choices, U_Y^-1 * U_X.

The gadget holds [a_j; 1] once, [a_j; 0] m times and e_{k+1} nm + 1
times, so a gadget pair has at most 2d + 1 distinct column values for d
distinct columns of A. The backtracker's set-up therefore groups G's
columns by value once, members in index order, and computes one class
key per distinct value of either side: the lexicographically least
multiple of the value by an allowed scalar, so two values share a key
exactly when one is an allowed multiple of the other. The classes, their
sizes and the target order (H classes by size and key, each class's
members in index order) come from those records. The first target of an
H class locks the G class of its size that it takes, and the class's
later targets draw only on that one. Targets come class by class, and a
class pins as many columns as the G class it locks holds, so when a
later H class reaches its first target every G class locked before has
no free member left: the lock is kept one way only. The members of a value
are interchangeable, so a pin takes the first free one; pins come off in
the reverse order of going on, so the pinned members of a value are
always its first ones, and the search keeps only their count per value.
The free member is read at once, and a class of c equal columns costs
O(c) to pin, not O(c^2). A forced completion computes S^-1 * y, its
class key and the scalars of the matching source values once per
distinct target value y, and takes the run of equal consecutive targets
that starts at y at once, finding its end as it goes: one column at a
time would take, for each, the first free member of the first source
value that has one, and the members of distinct values are disjoint, so
the run takes the first free members across those values in order. It
counts one node per column of the run, and on a failing run one per
column taken plus one for the column that fails, so node counts are
those of a per-column completion. A completion works on copies of the
counts and sigma and on a fresh diagonal, so one that fails leaves
nothing to undo.

Both deciders count nodes through one `_Ticker.tick`, of one searched
node or of a block counted at once (the candidates under a pruned
prefix, the columns of a forced run). Under a time limit it reads the
clock once per call, so a limit that does not bind gives the answer and
node count of the run without it.

Both deciders fix one scalar to 1. If (S, M) is a witness, so is
(c*S, c^-1*M) for every allowed scalar c, so each class of witnesses
under this global scalar has a member with that scalar equal to 1.
EXHAUSTIVE enumerates only diagonals with diag[0] = 1; since 1 is the
first scalar and the accepted candidates are closed under scaling, the
first accepted candidate already had diag[0] = 1, and the witness
returned is the same as without the quotient. BACKTRACKING gives the
root of each component of slots scalar 1; the first non-zero column it
pins is slot 0, the root of its component, so that column's scalar is
1. PCE, whose only scalar is 1, is unaffected.

Both modes return identical YES/NO answers; witnesses may differ. Each
search returns its witness unchecked, and `decide` verifies it once.
Budgets, results and generator specs are immutable `Record`s.
"""

from __future__ import annotations

import enum
import time
from numbers import Real
from operator import index
from typing import Optional

from .core import Instance, Tag, Witness, all_units, scalars, verify_witness
from .errors import BudgetExceeded, WitnessInvalid
from .field import Field
from .matrix import MAX_DIM, Mat, Mono, Perm, row_basis_transform
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
        if time_limit is not None and (
            isinstance(time_limit, bool) or not isinstance(time_limit, Real) or not time_limit >= 0
        ):
            raise ValueError(f"time_limit must be a non-negative number, got {time_limit!r}")
        if not isinstance(mode, Mode):
            raise ValueError(f"mode must be a Mode, got {mode!r}")
        Record.__init__(self, max_nodes, time_limit, mode)


class DecideResult(Record):
    __slots__ = ("status", "witness", "nodes", "elapsed", "detail")

    def __init__(self, status: Status, witness: Optional[Witness], nodes: int, elapsed: float,
                 detail: str = ""):
        Record.__init__(self, status, witness, nodes, elapsed, detail)


class _OutOfBudget(Exception):
    pass


class _Ticker:
    """Node counter with budget enforcement.

    `tick(count)` counts `count` nodes at once: one searched node, or a
    block of them (pruned candidates, the columns of a forced run). A
    count that crosses the budget stops at the node after it. A time limit
    adds one clock read per call, so a limit that does not bind leaves the
    answer and the node count as they are without it.
    """

    __slots__ = ("nodes", "max_nodes", "deadline")

    def __init__(self, budget: Budget, t0: float):
        self.nodes = 0
        self.max_nodes = budget.max_nodes
        self.deadline = None if budget.time_limit is None else t0 + budget.time_limit

    def tick(self, count: int = 1):
        self.nodes += count
        if self.nodes > self.max_nodes:
            self.nodes = self.max_nodes + 1
            raise _OutOfBudget
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise _OutOfBudget


# ---------------------------------------------------------------------------
# exhaustive search


def _exhaustive(inst: Instance, ticker: _Ticker):
    """Scan candidates. Returns the first accepted candidate's witness, for
    `decide` to verify, or None after scanning them all."""
    fld, g, h = inst.field, inst.G, inst.H
    n = g.n
    # a tuple, as the scan indexes it once per candidate
    scal = tuple(scalars(fld, inst.tag))
    rg, rank_g, _ = g.rref()
    rh, _, piv_h = h.rref()
    reduced_rows = rg.rows[:rank_g]
    add, mul, neg = fld.add, fld.mul, fld.neg

    # the residual check at each non-pivot column f of rref(H), done when
    # sigma places position f (module docstring), with -R[i][f] stored
    check_at: list[Optional[list]] = [None] * n
    for f in range(n):
        if f not in piv_h:
            check_at[f] = [(c, neg(row[f])) for c, row in zip(piv_h, rh.rows) if row[f]]
    single = len(scal) == 1
    # levels 0..n-1 place sigma positions 0..n-1, levels n..2n-2 diag
    # sources 1..n-1, and a path that reaches the leaf is a candidate.
    # pick[l] is the choice at level l, -1 before the first: sigma's value
    # at position l < n, else the index into scal of diag[l - n + 1].
    # diag[0] = 1 since the global scalar is quotiented out (module
    # docstring)
    leaf = max(2 * n - 1, 0)
    pick = [-1] * leaf
    used = [False] * n
    diag = [1] * n
    # candidates under a pruned prefix at level l: (n-1-l)! * |scal|^(n-1)
    # below sigma position l, |scal|^(n-1-s) below diag source s; each is
    # capped where the budget ends the search anyway, so that no count
    # grows to n digits
    cap = ticker.max_nodes + 1
    below = [1] * leaf
    for l in range(leaf - 2, -1, -1):
        below[l] = min(below[l + 1] * (len(scal) if l + 1 >= n else n - 1 - l), cap)
    # residuals that sigma leaves to the diagonal: (largest source index,
    # [(source s, c_s)]) for the form sum_s c_s * diag[s]; the forms of
    # position p start at marks[p], and once sigma is placed forms_at[s]
    # holds those whose largest source is s
    pending: list[tuple[int, list[tuple[int, int]]]] = []
    marks = [0] * n

    def residuals_vanish(p) -> bool:
        """Whether every residual that position p completes can still
        vanish; residuals that depend on the diagonal go to `pending`."""
        terms = check_at[p]
        if terms is None:
            return True
        sf = pick[p]
        for row in reduced_rows:
            if single:
                res = row[sf]
                for c, coef in terms:
                    x = row[pick[c]]
                    if x:
                        res = add(res, mul(coef, x))
                if res:
                    return False
                continue
            form = [(sf, row[sf])] if row[sf] else []
            for c, coef in terms:
                s = pick[c]
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

    # depth first over the levels, iteratively so that wide instances need
    # no deep recursion; every value below `free` is used, so a sigma
    # position entered afresh starts its scan there and a first descent is
    # O(n)
    l = free = 0
    while 0 <= l < leaf:
        v = pick[l]
        if l < n:
            if v >= 0:
                # take back the value tried last at l
                used[v] = False
                if v < free:
                    free = v
                del pending[marks[l]:]
                v += 1
            else:
                v = free
            while v < n and used[v]:
                v += 1
            if v == n:
                pick[l] = -1
                l -= 1
                continue
            pick[l] = v
            used[v] = True
            if v == free:
                free += 1
            marks[l] = len(pending)
            if not residuals_vanish(l):
                ticker.tick(below[l])
                continue
            if l == n - 1:
                forms_at: list[list] = [[] for _ in range(n)]
                for s, form in pending:
                    forms_at[s].append(form)
            l += 1
        else:
            v += 1
            if v == len(scal):
                pick[l] = -1
                l -= 1
                continue
            pick[l] = v
            s = l - n + 1
            diag[s] = scal[v]
            for form in forms_at[s]:
                if not vanishes(form):
                    ticker.tick(below[l])
                    break
            else:
                l += 1
    if l < 0:
        return None
    # the leaf: every residual vanishes there and rank(G) = rank(H), so the
    # row spaces of G*M and H coincide
    ticker.tick()
    m = Mono(fld, Perm(tuple(pick[:n])), tuple(diag))
    return Witness(row_basis_transform(g.apply_mono(m), h), m)


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

    def append(self, v):
        """Append a reduced row that has a pivot, scaled to pivot 1."""
        for j in range(self.width):
            if v[j]:
                break
        self.rows.append(self.fld.scale(self.fld.inv(v[j]), v))
        self.pivots.append(j)

    def pop(self):
        self.rows.pop()
        self.pivots.pop()


def _class_key(fld: Field, scal, col: tuple) -> tuple:
    """The lexicographically least multiple of a column by an allowed
    scalar: the column itself where 1 is the only scalar, the column over
    its first non-zero entry where every unit is, and min(col, -col) for
    the signs otherwise. Over GF(3) the units are the signs, and the last
    two rules agree."""
    if len(scal) == 1:
        return col
    if all_units(fld, scal):
        for x in col:
            if x:
                return tuple(fld.scale(fld.inv(x), col))
        return col
    return min(col, tuple(fld.scale(fld.minus_one, col)))


class _Backtracker:
    def __init__(self, inst: Instance, ticker: _Ticker):
        self.fld = fld = inst.field
        self.k = k = inst.k
        self.ticker = ticker
        self.hcols = inst.H.cols()
        self.zero = (0,) * k
        # the allowed scalars, also the values a ratio of two of them takes
        self.scal = scal = scalars(fld, inst.tag)

        # G's columns grouped by value, members in index order, and one
        # class key per distinct value of G and H (see the module docstring)
        gvals: dict[tuple, list[int]] = {}
        for i, col in enumerate(inst.G.cols()):
            gvals.setdefault(col, []).append(i)
        keys = {col: _class_key(fld, scal, col) for col in {*gvals, *self.hcols}}
        self.hkeys = [keys[col] for col in self.hcols]

        # distinct G value v has the columns members[v], of which the first
        # taken[v] are pinned; each G class holds its (value, v) pairs in
        # sorted order. The class sizes; G class keys by size, each list
        # sorted; H's members of each class in index order
        self.members: list[list[int]] = []
        self.gvalues: dict[tuple, list[tuple[tuple, int]]] = {}
        for value, members in sorted(gvals.items()):
            self.gvalues.setdefault(keys[value], []).append((value, len(self.members)))
            self.members.append(members)
        self.taken = [0] * len(self.members)
        self.gsize = {key: sum(len(self.members[v]) for _, v in vals) for key, vals in self.gvalues.items()}
        self.gkeys_by_size: dict[int, list[tuple]] = {}
        for key in sorted(self.gsize):
            self.gkeys_by_size.setdefault(self.gsize[key], []).append(key)
        hmembers: dict[tuple, list[int]] = {}
        for j, key in enumerate(self.hkeys):
            hmembers.setdefault(key, []).append(j)
        self.hsize = {key: len(members) for key, members in hmembers.items()}

        self.lock: dict[tuple, tuple] = {}
        # the pinned pairs that add rank, the slots: (value, y) with the
        # value's scalar unknown. acc_x and acc_y hold rows (u | c), u the
        # sum of c_i times the value (the y) of slot i, so that a vector
        # in the pinned span reduces to (0 | minus its coordinates). A
        # vector reduced while r slots are pinned carries tails[r] = e_r,
        # so that it enters as slot r
        self.acc_x = _Echelon(fld, k)
        self.acc_y = _Echelon(fld, k)
        self.slots: list[tuple[tuple, tuple]] = []
        self.tails = [(0,) * r + (1,) + (0,) * (k - 1 - r) for r in range(k)] + [self.zero]
        # the scalar ratios, a union-find over the slots: d_i, the scalar of
        # slot i, is weight[i] times that of its component's root root[i]
        self.root: list[int] = []
        self.weight: list[int] = []
        # rep -> (slot, ratio) for each non-zero column that branching
        # pinned: its scalar is ratio times that of the slot
        self.ties: dict[int, tuple[int, int]] = {}
        self.sigma = [-1] * inst.n

        # targets ordered by class (small, distinctive classes first), each
        # class's members in index order
        order = sorted(hmembers, key=lambda key: (self.hsize[key], key))
        self.targets = [j for key in order for j in hmembers[key]]

    def infeasible_by_counting(self) -> bool:
        if sorted(self.gsize.values()) != sorted(self.hsize.values()):
            return True
        return self.gsize.get(self.zero, 0) != self.hsize.get(self.zero, 0)

    # -- constraint stack ----------------------------------------------------

    def _push(self, value: tuple, y: tuple, ry: tuple) -> Optional[tuple]:
        """Pin S * (d * value) = y with the scalar d unknown; ry is
        y + tails[r] reduced against acc_y with r slots pinned. None:
        inconsistent, nothing retained. Otherwise (grew, tie, undo) for
        `_pop`: whether the pair became a slot, and d as a (slot, ratio)
        tie, None for a zero column. The test is the module docstring's."""
        k = self.k
        r = len(self.slots)
        rv = self.acc_x.reduce(value + self.tails[r])
        new_x, new_y = any(rv[:k]), any(ry[:k])
        if new_x or new_y:
            if not (new_x and new_y):
                return None
            self.acc_x.append(rv)
            self.acc_y.append(ry)
            self.slots.append((value, y))
            # with one scalar every ratio is 1: all slots share one component
            self.root.append(0 if r and len(self.scal) == 1 else r)
            self.weight.append(1)
            return True, (r, 1), None
        # value = sum a_i value_i and y = sum b_i y_i over the slots, with
        # a_i = -rv[k + i] and b_i = -ry[k + i]
        mul, inv, scal = self.fld.mul, self.fld.inv, self.scal
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
            if rho not in scal:
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
        undo = (root[:], weight[:])
        for c, t in meets.items():
            f = mul(t_first, inv(t))  # root c's scalar over root first's
            for i in range(r):
                if root[i] == c:
                    root[i] = first
                    weight[i] = mul(weight[i], f)
        return False, (first, t_first), undo

    def _pop(self, pin: tuple):
        grew, _, undo = pin
        if grew:
            self.acc_x.pop()
            self.acc_y.pop()
            self.slots.pop()
            self.root.pop()
            self.weight.pop()
        elif undo is not None:
            self.root, self.weight = undo

    # -- search ---------------------------------------------------------------

    def _search(self) -> Optional[Witness]:
        """Depth first over the target positions, from an explicit stack of
        `_moves` generators, so that no input depth reaches Python's frame
        limit; `decide` runs it once `infeasible_by_counting` has passed.
        With n = 0 there are no targets, and it finishes at once."""
        end = len(self.targets)
        if not end:
            return self._complete(0)
        stack = [self._moves(0)]
        while stack:
            t = next(stack[-1], None)
            if t is None:
                stack.pop()
            elif t == end or (len(self.slots) == self.k and not any(self.root)):
                w = self._complete(t)
                if w is not None:
                    return w
            else:
                stack.append(self._moves(t))
        return None

    def _moves(self, t: int):
        """Pin each candidate for target position t that `_push` accepts, in
        a fixed order, and yield t + 1 with it pinned; resumed, take the pin
        back and go on to the next candidate. The candidates are the G
        values of the locked class, or of each class of the target's size,
        that have a member left; a value's copies collapse to its first
        free member, members[v][taken[v]]. At an H class's first target
        every class locked so far is fully taken (module docstring), so
        the free-member test alone passes over them. Pins come off in the
        reverse order of going on, so the pinned members of each value are
        always its first taken[v]."""
        j = self.targets[t]
        y = self.hcols[j]
        hkey = self.hkeys[j]
        locked = self.lock.get(hkey)
        gkeys = self.gkeys_by_size.get(self.hsize[hkey], ()) if locked is None else (locked,)
        members, taken = self.members, self.taken
        ry = None
        for gkey in gkeys:
            for value, v in self.gvalues[gkey]:
                if taken[v] == len(members[v]):
                    continue
                self.ticker.tick()
                if ry is None:
                    ry = self.acc_y.reduce(y + self.tails[len(self.slots)])
                pin = self._push(value, y, ry)
                if pin is None:
                    continue
                tie = pin[1]
                rep = members[v][taken[v]]
                taken[v] += 1
                self.sigma[j] = rep
                if tie is not None:
                    self.ties[rep] = tie
                if locked is None:
                    self.lock[hkey] = gkey
                yield t + 1
                if locked is None:
                    del self.lock[hkey]
                taken[v] -= 1
                self.sigma[j] = -1
                self.ties.pop(rep, None)
                self._pop(pin)

    def _complete(self, t: int) -> Optional[Witness]:
        """With the change of basis pinned, the rest of the assignment is
        forced: take matching source columns on copies of the search state,
        or fail. The sources of a target are worked out once per distinct
        target value, and a run of equal targets is taken at once (module
        docstring)."""
        taken, sigma, diag = self.taken[:], self.sigma[:], [1] * len(self.sigma)
        targets, hcols, members, ticker = self.targets, self.hcols, self.members, self.ticker
        end = len(targets)
        sources: dict[tuple, list[tuple[int, int]]] = {}
        while t < end:
            y = hcols[targets[t]]
            options = sources.get(y)
            if options is None:
                options = sources[y] = self._sources(y)
            # take the run of targets equal to y, value after value
            start = t
            for v, d in options:
                pool, i = members[v], taken[v]
                while i < len(pool) and t < end and hcols[targets[t]] == y:
                    rep = pool[i]
                    sigma[targets[t]] = rep
                    diag[rep] = d
                    i += 1
                    t += 1
                taken[v] = i
            if t < end and hcols[targets[t]] == y:
                # the column after the last pick fails
                ticker.tick(t - start + 1)
                return None
            ticker.tick(t - start)
        return self._finish(sigma, diag)

    def _sources(self, y: tuple) -> list[tuple[int, int]]:
        """The G values that target y can take under the pinned S, in order:
        each value's index v and the scalar d with S^-1 * y = d * value.
        With the slots at rank k, y = sum b_i y_i with b_i = -ry[k + i],
        and S^-1 * y = sum b_i * weight[i] * value_i for root scalar 1."""
        k, fld = self.k, self.fld
        ry = self.acc_y.reduce(y + self.zero)
        x_req = self.zero
        for c, w, (value, _) in zip(ry[k:], self.weight, self.slots):
            if c:
                x_req = fld.axpy(x_req, fld.neg(fld.mul(c, w)), value)
        x_req = tuple(x_req)
        by_val = self.gvalues.get(_class_key(fld, self.scal, x_req), ())
        if x_req == self.zero:
            return [(v, 1) for _, v in by_val]
        # each value shares x_req's class key, its least multiple by an
        # allowed scalar, so x_req = d * value with d allowed
        nz = next(i for i, v in enumerate(x_req) if v)
        c, inv, mul = x_req[nz], fld.inv, fld.mul
        return [(v, mul(c, inv(value[nz]))) for value, v in by_val]

    def _finish(self, sigma: list[int], diag: list[int]) -> Witness:
        """The witness of a complete assignment, for `decide` to verify:
        sigma, and diag with the completion's scalars, to which it adds
        those of the pinned columns. The root of each component of slots
        takes scalar 1, so slot i takes weight[i] (module docstring)."""
        fld, k, weight = self.fld, self.k, self.weight
        for rep, (slot, ratio) in self.ties.items():
            diag[rep] = fld.mul(ratio, weight[slot])
        m = Mono(fld, Perm(tuple(sigma)), tuple(diag))
        # the r slots as columns S * (d_i * value_i) = y_i: two k x r
        # matrices of full column rank, so both RREFs are [I_r; 0] and S
        # exists (unique when r = k); Y's rank r is recorded, so
        # row_basis_transform picks its branch without an RREF of Y
        r = len(self.slots)
        xs = [value if w == 1 else tuple(fld.scale(w, value)) for w, (value, _) in zip(weight, self.slots)]
        ys = [y for _, y in self.slots]
        x_mat = Mat._of(fld, zip(*xs) if r else [()] * k, r)
        y_mat = Mat._of(fld, zip(*ys) if r else [()] * k, r)
        y_mat.memo("rank", lambda: r)
        return Witness(row_basis_transform(x_mat, y_mat), m)


# ---------------------------------------------------------------------------
# public decide


def decide(inst: Instance, budget: Budget = Budget()) -> DecideResult:
    """Decide an instance by brute force under the given budget.

    YES always carries a verifying witness: this is the one place that
    checks what either search returns, and it raises WitnessInvalid,
    naming the mode, when the change of basis is None or the witness does
    not verify. A NO names why it ended in `detail`: rank mismatch, class
    counts or search exhausted.
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
            w = bt._search()
    except _OutOfBudget:
        return DecideResult(Status.UNKNOWN, None, ticker.nodes, time.perf_counter() - t0, "budget exhausted")
    if w is None:
        return DecideResult(Status.NO, None, ticker.nodes, time.perf_counter() - t0, "search exhausted")
    if w.S is None or not verify_witness(inst, w):
        raise WitnessInvalid(f"{budget.mode.value} search found a non-verifying witness")
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
    """What `generate` draws: a k x n pair over field with the tag and
    planted answer, from seed. A profile is a hint, not a promise: its
    class columns are drawn independently, so two classes can coincide
    and merge, and a class can be the zero column. Over small fields
    that is common: replaying the seed-13 draws of the `roundtrip`
    benchmark, 10 of its 96 planted pairs miss their profile, 9 of them
    over GF(2)."""

    __slots__ = ("field", "k", "n", "tag", "planted", "seed", "profile")

    def __init__(self, field: Field, k: int, n: int, tag: Tag, planted: Planted, seed: int,
                 profile: Optional[tuple[int, ...]] = None):
        if not isinstance(field, Field):
            raise ValueError(f"field must be a Field, got {field!r}")
        if not isinstance(tag, Tag):
            raise ValueError(f"tag must be a Tag, got {tag!r}")
        if not isinstance(planted, Planted):
            raise ValueError(f"planted must be a Planted, got {planted!r}")
        try:
            k, n, seed = index(k), index(n), index(seed)
            if profile is not None:
                profile = tuple([*map(index, profile)])
        except TypeError:
            raise ValueError("k, n, seed and the profile counts must be integers") from None
        # k * n bounds what a generation builds, a k x k S included
        if not (k >= 0 and n >= 0 and max(k, n, k * n) <= MAX_DIM):
            raise ValueError(f"dimensions must lie in [0, {MAX_DIM}], with at most {MAX_DIM} entries")
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


def _sample_full_rank(fld: Field, k: int, n: int, profile: Optional[tuple[int, ...]], rng) -> Mat:
    """A k x n matrix of rank min(k, n), its columns drawn as the profile's
    classes when one is given; unlabeled specs allow k > n, and k = n
    gives an invertible matrix."""
    q = fld.q
    rank = min(k, n)
    for _ in range(_MAX_SAMPLE_TRIES):
        if profile is None:
            rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
            mat = Mat(fld, rows, n)
        else:
            cols = []
            for count in profile:
                col = [rng.randrange(q) for _ in range(k)]
                cols.extend([col] * count)
            rng.shuffle(cols)
            mat = Mat(fld, [[col[i] for col in cols] for i in range(k)], n)
        if mat.rank() == rank:
            return mat
    raise BudgetExceeded(f"could not sample a full-rank {k}x{n} matrix over {fld!r}")


def _sample_action(fld: Field, n: int, tag: Tag, rng) -> Mono:
    sigma = list(range(n))
    rng.shuffle(sigma)
    scal = scalars(fld, tag)
    # PCE draws nothing: a choice over its one scalar would still take bits
    diag = (1,) * n if tag is Tag.PCE else tuple(rng.choice(scal) for _ in range(n))
    return Mono(fld, Perm(tuple(sigma)), diag)


def generate(spec: GenSpec) -> Generated:
    """Generate an instance from a GenSpec; deterministic in the seed.

    YES plants a witness by construction; NO is certified by the
    exhaustive decider (within the published size caps) and resampled on
    accidental equivalence; UNLABELED skips certification. A matrix drawn
    with a profile has one uniform column per class, so its multiplicity
    profile can be coarser than the one asked for (see `GenSpec`).
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
        g = _sample_full_rank(fld, spec.k, spec.n, spec.profile, rng)
        s = _sample_full_rank(fld, spec.k, spec.k, None, rng)
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
        g = _sample_full_rank(fld, spec.k, spec.n, spec.profile, rng)
        h = _sample_full_rank(fld, spec.k, spec.n, spec.profile, rng)
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
        g = _sample_full_rank(fld, spec.k, spec.n, spec.profile, rng)
        h = _sample_full_rank(fld, spec.k, spec.n, spec.profile, rng)
        inst = Instance(fld, g, h, spec.tag)
        res = decide(inst, Budget(mode=Mode.EXHAUSTIVE))
        if res.status is Status.NO:
            return Generated(inst)
        if res.status is not Status.YES:
            raise BudgetExceeded(f"NO certification ended {res.status.value}: {res.detail}")
    raise BudgetExceeded("could not certify a NO instance within the retry budget")
