"""Problem instances, witnesses, verification, and input normalization.

A PCE/SPCE/LCE instance is a pair of equal-shape generator matrices; a
witness is an invertible change of basis S together with a monomial
action M, and it verifies when S * G * M = H entrywise and the diagonal
of M lies in the class the problem tag allows.

`preprocess` normalizes PCE inputs ahead of the gadget reduction: it
strips zero columns, replaces both matrices by the non-zero rows of
their RREF (full row rank), and rejects early when a cheap invariant
already refutes equivalence (zero-column counts, ranks, or column
multiplicity profiles differing). The returned journal carries enough
to map witnesses across the normalization in both directions.

Instances, witnesses, journals and preprocessing outcomes are immutable
`Record`s (see `record.py`).
"""

from __future__ import annotations

import enum
from typing import Union

from .errors import DimMismatch, FieldMismatch, WitnessInvalid
from .field import Field
from .matrix import (
    Mat,
    Mono,
    Perm,
    column_multiplicity_profile,
    strip_zero_columns,
)
from .record import Record


class Tag(enum.Enum):
    PCE = "PCE"
    SPCE = "SPCE"
    LCE = "LCE"


class RejectReason(enum.Enum):
    ZERO_COLUMN_COUNT_MISMATCH = "ZeroColumnCountMismatch"
    RANK_MISMATCH = "RankMismatch"
    PROFILE_MISMATCH = "ProfileMismatch"


class Instance(Record):
    """A pair (G, H) of k x n generator matrices plus the problem tag."""

    __slots__ = ("field", "G", "H", "tag")

    def __init__(self, field: Field, G: Mat, H: Mat, tag: Tag):
        if not isinstance(tag, Tag):
            raise ValueError(f"tag must be a Tag, got {tag!r}")
        if G.field != field or H.field != field:
            raise FieldMismatch("matrices must live in the instance field")
        if (G.k, G.n) != (H.k, H.n):
            raise DimMismatch(f"G is {G.k}x{G.n} but H is {H.k}x{H.n}")
        Record.__init__(self, field, G, H, tag)

    @property
    def k(self) -> int:
        return self.G.k

    @property
    def n(self) -> int:
        return self.G.n


class Witness(Record):
    """(S, M) with S a k x k change of basis and M a monomial action."""

    __slots__ = ("S", "M")

    def __init__(self, S: Mat, M: Mono):
        Record.__init__(self, S, M)


def diag_allowed(fld: Field, tag: Tag, diag) -> bool:
    if tag is Tag.PCE:
        return set(diag) <= {1}
    if tag is Tag.SPCE:
        return set(diag) <= set(fld.signs())
    return 0 not in diag


def verify_witness(inst: Instance, w: Witness) -> bool:
    """Exact check: S invertible, diagonal in the tag's class, S*G*M = H.

    Column j of S*G*M is d[sigma(j)] * (S*G)[sigma(j)], so S*G is formed
    once per distinct column of G (a gadget repeats each column of the
    source pair) and every column of H is compared with the scaled image
    of its source; the scaling is skipped where d = 1. G's distinct
    columns and H's columns are memoized on the matrices; the product
    with S is formed anew on every call.

    Invertibility is checked last. Once S*G*M = H holds, rank(S) >=
    rank(H), so S is invertible when H has rank k, and S is row-reduced
    only when H's rank is short. H's rank is memoized, and preprocessing,
    the gadget and the planted generator record it by construction, so on
    the pairs they build the check costs no elimination at all.
    """
    if w.S.field != inst.field or w.M.field != inst.field:
        raise FieldMismatch("witness field differs from instance field")
    if w.S.k != inst.k or w.S.n != inst.k:
        raise DimMismatch(f"S must be {inst.k}x{inst.k}, got {w.S.k}x{w.S.n}")
    if w.M.n != inst.n:
        raise DimMismatch(f"M must act on {inst.n} columns, got {w.M.n}")
    if not diag_allowed(inst.field, inst.tag, w.M.diag):
        return False
    distinct, slots = inst.G.distinct_cols()
    images = w.S.mul(distinct).cols()
    scale = inst.field.scale
    diag = w.M.diag
    for s, h_col in zip(w.M.perm.sigma, inst.H.cols()):
        img = images[slots[s]]
        d = diag[s]
        if d != 1:
            img = tuple(scale(d, img))
        if img != h_col:
            return False
    return inst.H.rank() == inst.k or w.S.is_invertible()


# ---------------------------------------------------------------------------
# preprocessing


class Journal(Record):
    """Record of one normalization run, enough to move witnesses across it.

    removed_g / removed_h are the dropped zero-column indices (0-based,
    ascending); u_g / u_h are invertible k x k transforms with
    u_g * stripped(G) = rref(stripped(G)), same for H; rank is the common
    row rank. The normalized generators are the first `rank` rows of
    those RREFs.
    """

    __slots__ = ("original", "normalized", "removed_g", "removed_h", "rank", "u_g", "u_h")

    def __init__(self, original: Instance, normalized: Instance, removed_g: tuple[int, ...],
                 removed_h: tuple[int, ...], rank: int, u_g: Mat, u_h: Mat):
        Record.__init__(self, original, normalized, removed_g, removed_h, rank, u_g, u_h)


class Rejection(Record):
    __slots__ = ("reason",)

    def __init__(self, reason: RejectReason):
        Record.__init__(self, reason)


class Normalized(Record):
    __slots__ = ("instance", "journal")

    def __init__(self, instance: Instance, journal: Journal):
        Record.__init__(self, instance, journal)


PreprocessOutcome = Union[Rejection, Normalized]


def _identity_journal(inst: Instance) -> Journal:
    u = Mat.identity(inst.field, inst.k)
    return Journal(inst, inst, (), (), inst.k, u, u)


def preprocess(inst: Instance) -> PreprocessOutcome:
    """Normalize a PCE instance or reject it on a cheap refuting invariant.

    Non-PCE instances pass through untouched with a trivial journal.
    Rejection is a value, not an error.
    """
    if inst.tag is not Tag.PCE:
        return Normalized(inst, _identity_journal(inst))
    g_stripped, removed_g = strip_zero_columns(inst.G)
    h_stripped, removed_h = strip_zero_columns(inst.H)
    if len(removed_g) != len(removed_h):
        return Rejection(RejectReason.ZERO_COLUMN_COUNT_MISMATCH)
    rg, rank_g, _, u_g = g_stripped.rref_with_transform()
    rh, rank_h, _, u_h = h_stripped.rref_with_transform()
    # dropping zero columns keeps the rank
    inst.G.memo("rank", lambda: rank_g)
    inst.H.memo("rank", lambda: rank_h)
    if rank_g != rank_h:
        return Rejection(RejectReason.RANK_MISMATCH)
    g_norm = _normalized(g_stripped, rg, rank_g)
    h_norm = _normalized(h_stripped, rh, rank_h)
    if column_multiplicity_profile(g_norm) != column_multiplicity_profile(h_norm):
        return Rejection(RejectReason.PROFILE_MISMATCH)
    norm_inst = Instance(inst.field, g_norm, h_norm, Tag.PCE)
    journal = Journal(inst, norm_inst, removed_g, removed_h, rank_g, u_g, u_h)
    return Normalized(norm_inst, journal)


def _normalized(stripped: Mat, rref: Mat, rank: int) -> Mat:
    """The first rank rows of stripped's RREF, with their rank and
    distinct-column view recorded. Column j is the first rank entries of
    u * (column j of stripped), an injective image (u is invertible and
    the other rows of the RREF are zero), so the view has stripped's
    slots and the columns at their first occurrences."""
    norm = Mat._of(stripped.field, rref.rows[:rank], stripped.n)
    # the non-zero rows of an RREF are independent
    norm.memo("rank", lambda: rank)
    stripped_distinct, slots = stripped.distinct_cols()
    firsts = [slots.index(s) for s in range(stripped_distinct.n)]
    distinct = Mat._of(norm.field, [[r[j] for j in firsts] for r in norm.rows], len(firsts))
    norm.memo("distinct_cols", lambda: (distinct, slots))
    return norm


# ---------------------------------------------------------------------------
# witness transport across the normalization


def _require(inst: Instance, w: Witness, name: str) -> None:
    """Raise WitnessInvalid unless w verifies on inst; a witness shaped
    for another instance does not."""
    try:
        ok = verify_witness(inst, w)
    except DimMismatch as exc:
        raise WitnessInvalid(f"witness does not fit the {name} instance: {exc}") from None
    if not ok:
        raise WitnessInvalid(f"witness does not verify on the {name} instance")


def _kept(n: int, removed: tuple[int, ...]) -> list[int]:
    dropped = set(removed)
    return [j for j in range(n) if j not in dropped]


def _pivot_images(g_norm: Mat, h_cols, sigma) -> list:
    """Column piv_t of H * M^-1 for each pivot column piv_t of a normalized
    G (each RREF row starts with its pivot's 1), where column j of H is
    drawn from column sigma[j] of G. A journal that normalizes anything
    is a PCE one, so M is a permutation and that column is the column of
    H drawn from piv_t."""
    drawn_by = {src: j for j, src in enumerate(sigma)}
    return [h_cols[drawn_by[row.index(1)]] for row in g_norm.rows]


def map_witness_to_normalized(journal: Journal, w: Witness) -> Witness:
    """Turn a witness for the original instance into one for the normalized
    instance (forward through zero-column stripping and rank reduction).

    S acts on rows only, so stripping leaves it alone. The normalized S
    solves S_norm * G_norm = H_norm * M_s^-1, and G_norm is in RREF with
    full row rank, so its pivot column piv_t is e_t and column t of
    S_norm is column piv_t of H_norm * M_s^-1: read off, with no product
    and no inverse. A trivial journal returns its input."""
    orig = journal.original
    _require(orig, w, "original")
    norm = journal.normalized
    if norm is orig:
        return w
    fld = orig.field
    kept_g = _kept(orig.n, journal.removed_g)
    kept_h = _kept(orig.n, journal.removed_h)
    pos_in_g = {j: t for t, j in enumerate(kept_g)}
    sigma = w.M.perm.sigma
    sigma_s = []
    for j in kept_h:
        src = sigma[j]
        if src not in pos_in_g:
            raise WitnessInvalid("witness maps a non-zero column onto a zero column")
        sigma_s.append(pos_in_g[src])
    diag_s = tuple(w.M.diag[j] for j in kept_g)
    m_s = Mono(fld, Perm(tuple(sigma_s)), diag_s)
    s_cols = _pivot_images(norm.G, norm.H.cols(), sigma_s)
    out = Witness(Mat._of(fld, zip(*s_cols), journal.rank), m_s)
    if not verify_witness(norm, out):
        raise WitnessInvalid("witness does not survive normalization")
    return out


def map_witness_to_original(journal: Journal, w: Witness) -> Witness:
    """Turn a witness for the normalized instance into one for the original:
    dropped zero columns are re-inserted (paired in ascending index order)
    and S is padded with the identity on the discarded row complement.

    The padded S is u_h^-1 * pad(S) * u_g = C * u_g, one product. With
    R_g = u_g * G_s the RREF of stripped G, C * R_g = H_s * M^-1, and
    column piv_t of R_g is e_t, so for t < r column t of C is column
    piv_t of H_s * M^-1, read off the original H; for t >= r it is column
    t of u_h^-1, the only inverse, needed only when the rank is short. A
    trivial journal returns its input."""
    norm = journal.normalized
    _require(norm, w, "normalized")
    orig = journal.original
    if norm is orig:
        return w
    fld = orig.field
    k = orig.k
    r = journal.rank
    kept_g = _kept(orig.n, journal.removed_g)
    kept_h = _kept(orig.n, journal.removed_h)
    sigma_w, diag_w = w.M.perm.sigma, w.M.diag
    sigma = [0] * orig.n
    diag = [1] * orig.n
    for t, j in enumerate(kept_h):
        src = kept_g[sigma_w[t]]
        sigma[j] = src
        diag[src] = diag_w[sigma_w[t]]
    for zh, zg in zip(journal.removed_h, journal.removed_g):
        sigma[zh] = zg
    h_cols = orig.H.cols()
    c_cols = _pivot_images(norm.G, [h_cols[j] for j in kept_h], sigma_w)
    if r < k:
        c_cols += journal.u_h.inv().cols()[r:]
    s_full = Mat._of(fld, zip(*c_cols), k).mul(journal.u_g)
    out = Witness(s_full, Mono(fld, Perm(tuple(sigma)), tuple(diag)))
    if not verify_witness(orig, out):
        raise WitnessInvalid("reconstructed witness fails on the original instance")
    return out
