"""The gadget construction and the Karp reductions PCE -> LCE / SPCE,
with constructive witness lifting and extraction.

Given a k x n generator matrix A with no zero column and full row rank,
the gadget produces a (k+1) x (n + 2nm + 1) matrix laid out as three
column blocks:

    [ A        | A-hat     | 0 ]
    [ 1 1 .. 1 | 0 0 ... 0 | 1 1 ... 1 ]

where A-hat repeats each column of A exactly m times (m is one more
than the largest column multiplicity) and the last block has nm + 1
columns. The duplication counts and the marker row force any monomial
equivalence of a gadget pair to respect the block boundaries and to use
one global scalar on the first block, which is what makes witness
extraction possible. A 0-width input needs no special case: its 0 x 0
normalized pair gets m = 1 and the 1 x 1 gadget [1]. The bookkeeping a
reduction run leaves is an immutable `ReductionCert` record.
"""

from __future__ import annotations

import operator
from typing import Optional

from .core import (
    Instance,
    Journal,
    Rejection,
    RejectReason,
    Tag,
    Witness,
    preprocess,
    verify_witness,
)
from .errors import DimMismatch, FieldMismatch, StructureViolation, WitnessInvalid
from .field import Field
from .matrix import Mat, Mono, Perm, max_column_multiplicity
from .record import Record

CHECK_BLOCKS = "permutation crosses gadget block boundaries"
CHECK_BASIS = "change of basis couples the marker row with the code rows"
CHECK_SCALAR = "first-block scaling is not a single global scalar"


class ReductionCert(Record):
    """Bookkeeping for one reduction run, needed to lift or extract.

    n, k, m describe the matrices the gadget was applied to (after
    normalization); journal maps between those and the raw input. On the
    reject path no gadget is built: the canonical NO pair is emitted and
    reject_reason is set. A 0-width input goes through the gadget like
    any other, with m = 1, and gives the 1 x 1 pair [1], [1].
    """

    __slots__ = ("field", "target", "n", "k", "m", "journal", "reject_reason")

    def __init__(self, field: Field, target: Tag, n: int, k: int, m: int,
                 journal: Optional[Journal] = None, reject_reason: Optional[RejectReason] = None):
        # the gadget needs m >= 1, and m >= 2 once there is a column
        least = 2 if n >= 1 else 1
        if reject_reason is None and m < least:
            raise ValueError(f"duplication count must be at least {least}")
        Record.__init__(self, field, target, n, k, m, journal, reject_reason)

    @property
    def rejected(self) -> bool:
        return self.reject_reason is not None

    @property
    def degenerate(self) -> bool:
        """No non-zero column in the input: the gadget pair is [1], [1]."""
        return self.reject_reason is None and self.n == 0

    @property
    def n_prime(self) -> int:
        return self.n + 2 * self.n * self.m + 1

    @property
    def blocks(self) -> tuple[range, range, range]:
        """Half-open column ranges of the three gadget blocks (0-based)."""
        n, m = self.n, self.m
        return (range(0, n), range(n, n + n * m), range(n + n * m, self.n_prime))


def build_gadget(a: Mat, m: int) -> Mat:
    """Expand a k x n matrix into its (k+1) x (n + 2nm + 1) gadget form.

    The gadget's rank is always rank(a) + 1, because each first-block
    column is the sum of two other gadget columns, so a full-row-rank
    input gives a full-row-rank gadget and nothing is checked; that rank
    is recorded on the gadget, so verifying a witness on it needs no
    elimination. Its distinct-column view is recorded too, derived from
    a's (at most 2d + 1 columns for a's d), so no pass over its n + 2nm +
    1 columns is made. The gadget is memoized on a, one per m, so that
    extracting on the pair a reduction built reuses its gadgets and
    their memoized views.
    """
    if m < 1:
        raise ValueError("duplication count must be at least 1")
    return a.memo(("gadget", m), lambda: _gadget(a, m))


def _gadget(a: Mat, m: int) -> Mat:
    n = a.n
    nm = n * m
    idx = [c for c in range(n) for _ in range(m)]
    # itemgetter of one index returns the entry, not a tuple, and of none raises
    dup = operator.itemgetter(*idx) if nm > 1 else lambda r: r[:nm]
    tail = (0,) * (nm + 1)
    rows = [r + dup(r) + tail for r in a.rows]
    rows.append((1,) * n + (0,) * nm + (1,) * (nm + 1))
    # rank(out) = rank(a) + 1: with m >= 1 the gadget has the columns
    # [a_j; 0] (A-hat) and e_{k+1} (last block), and each first-block
    # column [a_j; 1] is their sum, so the column space is that of [A; 0]
    # plus e_{k+1}
    out = Mat._of(a.field, rows, n + 2 * nm + 1)
    out.memo("rank", lambda: a.rank() + 1)
    out.memo("distinct_cols", lambda: _gadget_view(a, dup, nm))
    return out


def _gadget_view(a: Mat, dup, nm: int) -> tuple[Mat, tuple[int, ...]]:
    """The gadget's distinct-column view, from a's view (D, slots) with d
    columns: the [D_s; 1] of block 1 take slots 0..d-1 in a's order, the
    [D_s; 0] of block 2 slots d..2d-1, and e_{k+1} of block 3 slot 2d,
    unless a has a zero column at slot z, whose [0; 1] is e_{k+1} and
    gives block 3 slot z (every column is zero when k = 0)."""
    distinct, slots = a.distinct_cols()
    d, cols, zero = distinct.n, distinct.cols(), (0,) * distinct.k
    last, tail = (cols.index(zero), ()) if zero in cols else (2 * d, (0,))
    # rows spliced into lists: a temporary r + r has 2d entries, and
    # CPython 3.11 keeps every freed 20-entry tuple on a free list it never
    # allocates from
    rows = [[*r, *r, *tail] for r in distinct.rows]
    rows.append([1] * d + [0] * d + [1] * len(tail))
    view = Mat._of(a.field, rows, 2 * d + len(tail))
    shifted = [d + s for s in slots]
    return view, (*slots, *dup(shifted), *(last,) * (nm + 1))


def canonical_no_instance(fld: Field, target: Tag) -> Instance:
    """A fixed 1x2 pair that is a NO instance of every tag over every field:
    one row space contains a weight-1 vector, the other cannot."""
    return Instance(fld, Mat(fld, [[1, 1]]), Mat(fld, [[1, 0]]), target)


def reduction_cert(inst: Instance, target: Tag) -> ReductionCert:
    """The bookkeeping of reducing a PCE instance to the target problem
    (LCE or SPCE), without building the gadget pair.

    Deterministic, so the cert file `reduce` writes is a function of the
    instance and the target alone: preprocessing rejections give a
    rejected cert, and otherwise the normalized pair's shape, journal and
    shared duplication count.
    """
    if inst.tag is not Tag.PCE:
        raise ValueError("reduction input must be a PCE instance")
    if target not in (Tag.LCE, Tag.SPCE):
        raise ValueError("reduction target must be LCE or SPCE")
    outcome = preprocess(inst)
    if isinstance(outcome, Rejection):
        return ReductionCert(inst.field, target, 0, 0, 0, None, outcome.reason)
    norm = outcome.instance
    m_g = max_column_multiplicity(norm.G)
    m_h = max_column_multiplicity(norm.H)
    if m_g != m_h:
        raise DimMismatch(f"column multiplicities {m_g} and {m_h} passed the profile check")
    return ReductionCert(inst.field, target, norm.n, norm.k, m_g + 1, outcome.journal)


def reduce_instance(inst: Instance, target: Tag) -> tuple[Instance, ReductionCert]:
    """Karp-reduce a PCE instance to the target problem (LCE or SPCE).

    Deterministic; always emits an instance. Rejections from
    preprocessing become the canonical NO pair; otherwise both normalized
    matrices go through the gadget with a shared duplication count.
    """
    cert = reduction_cert(inst, target)
    if cert.rejected:
        return canonical_no_instance(inst.field, target), cert
    norm = cert.journal.normalized
    g_prime = build_gadget(norm.G, cert.m)
    h_prime = build_gadget(norm.H, cert.m)
    reduced = Instance(inst.field, g_prime, h_prime, target)
    if reduced.n != cert.n_prime or reduced.k != cert.k + 1:
        raise DimMismatch(f"reduced pair is {reduced.k}x{reduced.n}, cert says {cert.k + 1}x{cert.n_prime}")
    return reduced, cert


# ---------------------------------------------------------------------------
# witness lifting (original pair -> gadget pair)


def lift_witness(cert: ReductionCert, w: Witness) -> Witness:
    """Lift a PCE witness of the normalized pair to the gadget pair.

    S grows by an untouched marker coordinate; the permutation acts as
    before on block 1, moves each duplicated column along with its
    source in block 2, and fixes block 3 pointwise. The result is a pure
    permutation witness, hence valid for PCE, SPCE, and LCE alike.
    """
    if cert.rejected:
        raise WitnessInvalid("rejected reductions have no YES witnesses to lift")
    fld = cert.field
    if w.S.field != fld or w.M.field != fld:
        raise FieldMismatch("witness field differs from the reduction's field")
    n, k, m = cert.n, cert.k, cert.m
    if w.S.k != k or w.S.n != k or w.M.n != n:
        raise WitnessInvalid(f"witness shaped for {w.S.k}x{w.M.n}, expected {k}x{n}")
    if not w.M.is_permutation():
        raise WitnessInvalid("lift needs a pure permutation witness")
    s_rows = [list(r) + [0] for r in w.S.rows]
    s_rows.append([0] * k + [1])
    s_prime = Mat._of(fld, s_rows, k + 1)
    sigma = w.M.perm.sigma
    n_prime, nm = cert.n_prime, n * m
    # block 2 column n + m*i + j is drawn from n + m*sigma[i] + j, and block
    # 3 is fixed: a bijection by construction, so the trusted constructors
    sigma_prime = (*sigma, *[n + m * s + j for s in sigma for j in range(m)], *range(n + nm, n_prime))
    return Witness(s_prime, Mono._of(fld, Perm._of(sigma_prime), (1,) * n_prime))


# ---------------------------------------------------------------------------
# witness extraction (gadget pair -> original pair)


def extract_witness(cert: ReductionCert, g: Mat, h: Mat, w: Witness) -> Witness:
    """Extract a PCE witness for (g, h) from any verifying witness of the
    gadget pair built from them.

    The structural checks run first and raise StructureViolation when
    they fail; on a genuine gadget pair they cannot fail for a verifying
    witness, so a violation signals a bug or a corrupted input. After
    the checks, the first-block scalar is folded into the change of
    basis: with M_1 = a * P, the pair (a * S, P) verifies on (g, h).
    """
    if cert.rejected:
        raise WitnessInvalid("rejected reductions have no witnesses to extract")
    fld = cert.field
    n, k, m = cert.n, cert.k, cert.m
    if (g.k, g.n) != (k, n) or (h.k, h.n) != (k, n):
        raise DimMismatch(f"expected {k}x{n} inputs for this cert")
    n_prime = cert.n_prime
    if w.S.k != k + 1 or w.S.n != k + 1 or w.M.n != n_prime:
        raise WitnessInvalid(
            f"witness shaped for {w.S.k}x{w.M.n}, expected {k + 1}x{n_prime}"
        )
    sigma = w.M.perm.sigma
    for block in cert.blocks:
        part = sigma[block.start:block.stop]
        if part and (min(part) < block.start or max(part) >= block.stop):
            c = next(c for c in block if sigma[c] not in block)
            raise StructureViolation(
                CHECK_BLOCKS, f"column {c + 1} drawn from column {sigma[c] + 1}"
            )

    s_rows = w.S.rows
    bad_col = any(s_rows[i][k] != 0 for i in range(k))
    bad_row = any(s_rows[k][j] != 0 for j in range(k))
    if bad_col or bad_row or s_rows[k][k] == 0:
        raise StructureViolation(CHECK_BASIS)

    scalars = {w.M.diag[s] for s in sigma[:n]}
    if len(scalars) > 1:
        raise StructureViolation(CHECK_SCALAR, f"saw scalars {sorted(scalars)}")
    a = scalars.pop() if scalars else 1

    g_prime = build_gadget(g, m)
    h_prime = build_gadget(h, m)
    if not verify_witness(Instance(fld, g_prime, h_prime, cert.target), w):
        raise WitnessInvalid("witness does not verify on the gadget pair")

    s_block = Mat._of(fld, [row[:k] for row in s_rows[:k]], k)
    # the block check made sigma[:n] a bijection on block 1
    out = Witness(s_block.scale(a), Mono._of(fld, Perm._of(sigma[:n]), (1,) * n))
    if not verify_witness(Instance(fld, g, h, Tag.PCE), out):
        raise WitnessInvalid("extracted witness does not verify on the original pair")
    return out
