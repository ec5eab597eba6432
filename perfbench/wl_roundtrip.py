"""`roundtrip`: reduce a planted-YES PCE instance and carry its witness
across the reduction and back, in-process.

One op takes the instance through `reduce_instance` to LCE or SPCE,
`map_witness_to_normalized`, `lift_witness`, `verify_witness` on the
gadget pair, `extract_witness`, `map_witness_to_original` and
`verify_witness` on the original. A minority of ops are reduce-only calls
on unlabeled pairs whose column-multiplicity profiles differ, so they
take the preprocessing reject path.

The shapes are fixed and the seed draws the entries. Instances repeat
columns (maximum multiplicity 3, so the gadget duplicates each column 4
times) and the largest gadget has 24 + 2*24*4 + 1 = 217 columns. The two
odd extension fields above q = 256 have no flat tables and dominate the
upper latency percentiles, so `op_p90_ms` follows the field kernel while
`op_p50_ms` follows the matrix and reduction path.
"""

from __future__ import annotations

import random

from harness import LOOP, Op, require

# in-process ops: scaled by the reference loop
CALIBRATION = LOOP

# (p, e): prime, 2^e and odd p^e fields on both sides of the q = 256
# flat-table cap
FIELDS = ((2, 1), (7, 1), (65521, 1), (2, 8), (2, 16), (3, 5), (3, 6), (5, 4))

# (k, n, column-multiplicity profile, target)
SHAPES = (
    (3, 10, (3, 2, 2, 1, 1, 1), "LCE"),
    (4, 14, (3, 3, 2, 2, 1, 1, 1, 1), "SPCE"),
    (5, 19, (3, 3, 2, 2, 2, 2, 1, 1, 1, 1, 1), "LCE"),
    (6, 24, (3, 3, 3, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1), "SPCE"),
)

# instances per field and shape; more instances make the totals differ
# less from one seed to the next
COUNT = 3

# unlabeled pairs: G drawn with one profile, H with another
REJECT_SHAPE = (3, 10, (3, 2, 2, 1, 1, 1), (2, 2, 2, 2, 1, 1))


def _expected_reject(g_rows, h_rows):
    """The preprocessing verdict, from the raw columns: both matrices are
    sampled with full row rank, so only the zero-column count and the
    multiplicity profile of the non-zero columns can differ."""

    def columns(rows):
        return [tuple(r[j] for r in rows) for j in range(len(rows[0]))]

    def profile(cols):
        counts = {}
        for c in cols:
            if any(c):
                counts[c] = counts.get(c, 0) + 1
        return sorted(counts.values())

    gc, hc = columns(g_rows), columns(h_rows)
    if sum(not any(c) for c in gc) != sum(not any(c) for c in hc):
        return "ZERO_COLUMN_COUNT_MISMATCH"
    if profile(gc) != profile(hc):
        return "PROFILE_MISMATCH"
    return None


def setup(ceq, ctx):
    rng = random.Random(f"roundtrip:{ctx.seed}")
    fields = {pe: ceq.field(*pe).warm() for pe in FIELDS}
    shapes = SHAPES[:2] if ctx.quick else SHAPES
    ops = []
    for pe in FIELDS:
        fld = fields[pe]
        for k, n, prof, target in shapes:
            for _ in range(1 if ctx.quick else COUNT):
                spec = ceq.GenSpec(fld, k, n, ceq.Tag.PCE, ceq.Planted.YES, rng.getrandbits(32), prof)
                ops.append(_yes_op(ceq, fld, ceq.generate(spec), ceq.Tag[target]))
        k, n, prof_g, prof_h = REJECT_SHAPE
        g = ceq.generate(ceq.GenSpec(fld, k, n, ceq.Tag.PCE, ceq.Planted.UNLABELED, rng.getrandbits(32), prof_g))
        h = ceq.generate(ceq.GenSpec(fld, k, n, ceq.Tag.PCE, ceq.Planted.UNLABELED, rng.getrandbits(32), prof_h))
        ops.append(_reject_op(ceq, fld, g.instance.G.rows, h.instance.G.rows, ceq.Tag.LCE))
    rng.shuffle(ops)
    return ops


def _yes_op(ceq, fld, got, target):
    Mat, Mono, Perm = ceq.Mat, ceq.Mono, ceq.Perm
    inst, w = got.instance, got.witness
    g_rows, h_rows, s_rows = inst.G.rows, inst.H.rows, w.S.rows
    sigma, diag = w.M.perm.sigma, w.M.diag

    def prepare():
        fresh = ceq.Instance(fld, Mat(fld, g_rows), Mat(fld, h_rows), ceq.Tag.PCE)
        return fresh, ceq.Witness(Mat(fld, s_rows), Mono(fld, Perm(sigma), diag))

    def run(inputs):
        inst, w = inputs
        reduced, cert = ceq.reduce_instance(inst, target)
        lifted = ceq.lift_witness(cert, ceq.map_witness_to_normalized(cert.journal, w))
        lift_ok = ceq.verify_witness(reduced, lifted)
        norm = cert.journal.normalized
        extracted = ceq.extract_witness(cert, norm.G, norm.H, lifted)
        back = ceq.map_witness_to_original(cert.journal, extracted)
        return reduced, cert, lift_ok, back, ceq.verify_witness(inst, back)

    def check(inputs, result):
        reduced, cert, lift_ok, back, back_ok = result
        require(not cert.rejected, f"planted YES rejected in preprocessing ({cert.reject_reason})")
        require(reduced.n == cert.n_prime and reduced.k == cert.k + 1, "gadget has the wrong shape")
        require(lift_ok, "lifted witness does not verify on the gadget pair")
        require(back_ok, "extracted witness does not verify on the original")
        original = ceq.Instance(fld, Mat(fld, g_rows), Mat(fld, h_rows), ceq.Tag.PCE)
        require(ceq.verify_witness(original, back), "returned witness fails on the original instance")
        return True

    return Op("yes", prepare, run, check)


def _reject_op(ceq, fld, g_rows, h_rows, target):
    Mat = ceq.Mat
    expected = _expected_reject(g_rows, h_rows)

    def prepare():
        return ceq.Instance(fld, Mat(fld, g_rows), Mat(fld, h_rows), ceq.Tag.PCE)

    def run(inst):
        return ceq.reduce_instance(inst, target)

    def check(inst, result):
        reduced, cert = result
        if expected is None:
            require(not cert.rejected, "pair with equal invariants was rejected")
            return True
        require(
            cert.reject_reason is not None and cert.reject_reason.name == expected,
            f"expected rejection {expected}, got {cert.reject_reason}",
        )
        require(
            reduced.G.rows == ((1, 1),) and reduced.H.rows == ((1, 0),),
            "rejected pair did not map to the canonical NO instance",
        )
        return True

    return Op("reject", prepare, run, check)
