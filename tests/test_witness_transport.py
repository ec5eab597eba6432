"""The witness maps across preprocessing against the formulas they
replaced, kept here as references: u_h * S * u_g^-1 (leading r x r
block) to the normalized pair, and u_h^-1 * pad(S) * u_g back to the
original. The package reads both changes of basis off pivot columns."""

import pytest

from ceq.core import (
    Instance,
    Normalized,
    Tag,
    Witness,
    map_witness_to_normalized,
    map_witness_to_original,
    preprocess,
    verify_witness,
)
from ceq.field import field
from ceq.matrix import Mat, Mono, Perm
from ceq.rng import stream

# the roundtrip benchmark's fields: prime, 2^e and odd p^e on both sides
# of q = 256, below which GF(7) and GF(2^8) keep byte rows
FIELDS = [(2, 1), (7, 1), (65521, 1), (2, 8), (2, 16), (3, 5), (3, 6), (5, 4)]


def _kept(n, removed):
    return [j for j in range(n) if j not in set(removed)]


def reference_to_normalized(journal, w):
    orig = journal.original
    fld = orig.field
    kept_g = _kept(orig.n, journal.removed_g)
    kept_h = _kept(orig.n, journal.removed_h)
    pos_in_g = {j: t for t, j in enumerate(kept_g)}
    sigma_s = tuple(pos_in_g[w.M.perm.sigma[j]] for j in kept_h)
    diag_s = tuple(w.M.diag[j] for j in kept_g)
    r = journal.rank
    t_full = journal.u_h.mul(w.S).mul(journal.u_g.inv())
    s_norm = Mat(fld, [row[:r] for row in t_full.rows[:r]], r)
    return Witness(s_norm, Mono(fld, Perm(sigma_s), diag_s))


def reference_to_original(journal, w):
    orig = journal.original
    fld = orig.field
    k, r = orig.k, journal.rank
    pad = [[0] * k for _ in range(k)]
    for i in range(r):
        pad[i][:r] = w.S.rows[i]
    for i in range(r, k):
        pad[i][i] = 1
    s_full = journal.u_h.inv().mul(Mat(fld, pad, k)).mul(journal.u_g)
    kept_g = _kept(orig.n, journal.removed_g)
    kept_h = _kept(orig.n, journal.removed_h)
    sigma = [0] * orig.n
    diag = [1] * orig.n
    for t, j in enumerate(kept_h):
        src = kept_g[w.M.perm.sigma[t]]
        sigma[j] = src
        diag[src] = w.M.diag[w.M.perm.sigma[t]]
    for zh, zg in zip(journal.removed_h, journal.removed_g):
        sigma[zh] = zg
    return Witness(s_full, Mono(fld, Perm(tuple(sigma)), tuple(diag)))


def _random(fld, k, n, rng):
    return Mat(fld, [[rng.randrange(fld.q) for _ in range(n)] for _ in range(k)], n)


def _of_rank(fld, k, r, rng):
    """A random k x r matrix of rank r. Below full rank its first row is
    zero or a copy of a later row, so that eliminating A * G0 swaps rows
    and u^-1 differs from u in the columns past the rank."""
    while True:
        a = [[rng.randrange(fld.q) for _ in range(r)] for _ in range(k)]
        if 0 < r < k:
            a[0] = [0] * r if rng.random() < 0.5 else list(a[rng.randrange(1, k)])
        a = Mat(fld, a, r)
        if a.rank() == r:
            return a


def _completed(a, rng):
    """[a | b], invertible, for a k x r matrix a of rank r."""
    while True:
        b = _random(a.field, a.k, a.k - a.n, rng)
        full = Mat(a.field, [ra + rb for ra, rb in zip(a.rows, b.rows)], a.k)
        if full.is_invertible():
            return full


def _planted(fld, k, n, r, tag, rng, zero_cols=0):
    """G = A_g * G0 and H = A_h * G0 * M of rank r, and the witness (S, M)
    with S = [A_h | B_h] * [A_g | B_g]^-1, so that S * A_g = A_h."""
    while True:
        g0 = _random(fld, r, n, rng)
        if g0.rank() == r:
            break
    rows = [list(row) for row in g0.rows]
    for _ in range(zero_cols):
        pos = rng.randrange(n + 1)
        for row in rows:
            row.insert(pos, 0)
        n += 1
    g0 = Mat(fld, rows, n)
    a_g, a_h = _of_rank(fld, k, r, rng), _of_rank(fld, k, r, rng)
    s = _completed(a_h, rng).mul(_completed(a_g, rng).inv())
    sigma = list(range(n))
    rng.shuffle(sigma)
    if tag is Tag.PCE:
        diag = (1,) * n
    elif tag is Tag.SPCE:
        diag = tuple(rng.choice(fld.signs()) for _ in range(n))
    else:
        diag = tuple(rng.randrange(1, fld.q) for _ in range(n))
    m = Mono(fld, Perm(tuple(sigma)), diag)
    inst = Instance(fld, a_g.mul(g0), a_h.mul(g0).apply_mono(m), tag)
    w = Witness(s, m)
    assert verify_witness(inst, w)
    return inst, w


def _both_ways(inst, w):
    out = preprocess(inst)
    assert isinstance(out, Normalized)
    journal = out.journal
    w_norm = map_witness_to_normalized(journal, w)
    assert w_norm == reference_to_normalized(journal, w)
    assert verify_witness(out.instance, w_norm)
    w_back = map_witness_to_original(journal, w_norm)
    assert w_back == reference_to_original(journal, w_norm)
    assert verify_witness(inst, w_back)
    return journal


@pytest.mark.parametrize("pe", FIELDS, ids=lambda pe: f"{pe[0]}^{pe[1]}")
def test_maps_match_the_reference_formulas(pe):
    fld = field(*pe)
    rng = stream(18, f"transport:{pe}")
    for trial in range(8):
        k = rng.randrange(1, 5)
        n = rng.randrange(k, k + 4)
        # every other pair is rank-deficient: the planted S is one of
        # many, and only the maps' outputs are unique
        r = k if trial % 2 == 0 else rng.randrange(0, k)
        inst, w = _planted(fld, k, n, r, Tag.PCE, rng, zero_cols=rng.randrange(0, 3))
        assert _both_ways(inst, w).rank == r


def test_maps_match_the_reference_on_all_zero_and_empty_inputs():
    rng = stream(18, "transport:zero")
    for pe in FIELDS[:4]:
        fld = field(*pe)
        for k, n in ((2, 3), (3, 0), (0, 2), (0, 0)):
            inst, w = _planted(fld, k, n, 0, Tag.PCE, rng)
            assert _both_ways(inst, w).rank == 0


@pytest.mark.parametrize("tag", [Tag.SPCE, Tag.LCE])
def test_trivial_journals_return_the_input_witness(tag):
    rng = stream(18, f"transport:{tag.value}")
    for pe in FIELDS:
        fld = field(*pe)
        k = rng.randrange(1, 4)
        inst, w = _planted(fld, k, k + 2, k, tag, rng)
        journal = preprocess(inst).journal
        assert journal.normalized is inst
        assert map_witness_to_normalized(journal, w) is w == reference_to_normalized(journal, w)
        assert map_witness_to_original(journal, w) is w == reference_to_original(journal, w)
