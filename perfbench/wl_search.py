"""`search`: one op is one `decide` call under a fixed node budget.

Two kinds of input, both with q <= 8:

* gadget pairs: planted-YES and hard-NO PCE instances (certified NO by
  the exhaustive oracle, yet passing `preprocess`), reduced to LCE and
  SPCE and decided by the backtracker;
* raw small PCE/SPCE/LCE instances, planted YES and certified NO, each
  decided once by the exhaustive and once by the backtracking decider,
  which must agree.

The budget is nodes only, never time, so node counts are the same on
every machine. Fields above q = 256 stay out: their slow arithmetic
would swamp every other op.
"""

from __future__ import annotations

import random

from harness import LOOP, Op, require

MAX_NODES = 200_000
# in-process ops: scaled by the reference loop
CALIBRATION = LOOP

# instances per stratum and truth; the run-to-run spread of the totals
# falls with its square root
COUNT = 24

# gadget strata: (p, e, k, n, profile, targets, truths). LCE stops at
# q = 5: at q = 7 and 8 a single LCE gadget decide takes from 0.3 ms to
# 0.4 s (standard deviation above the mean), so a handful of them would
# set every total.
GADGET = (
    (2, 1, 3, 5, (2, 1, 1, 1), ("LCE", "SPCE"), ("yes", "no")),
    (3, 1, 2, 5, (2, 1, 1, 1), ("LCE", "SPCE"), ("yes", "no")),
    (2, 2, 2, 6, (2, 2, 1, 1), ("LCE", "SPCE"), ("yes", "no")),
    (5, 1, 2, 5, (2, 1, 1, 1), ("LCE", "SPCE"), ("yes", "no")),
    (7, 1, 2, 6, (2, 2, 1, 1), ("SPCE",), ("yes", "no")),
    (2, 3, 2, 5, (2, 1, 1, 1), ("SPCE",), ("yes", "no")),
    # certified NO generation stops at n = 6, so n = 7 is YES only
    (2, 1, 3, 7, (2, 2, 1, 1, 1), ("LCE", "SPCE"), ("yes",)),
)

# raw strata: (p, e, k, n, tag); each instance is decided in both modes
RAW = (
    (2, 1, 2, 6, "PCE"),
    (5, 1, 2, 6, "PCE"),
    (3, 1, 2, 5, "SPCE"),
    (5, 1, 2, 5, "SPCE"),
    (3, 1, 2, 4, "LCE"),
    (2, 2, 2, 4, "LCE"),
    (5, 1, 2, 4, "LCE"),
)

_HARD_NO_TRIES = 500


def _hard_no(ceq, fld, k, n, prof, rng):
    """A certified-NO PCE pair that survives preprocessing."""
    for _ in range(_HARD_NO_TRIES):
        spec = ceq.GenSpec(fld, k, n, ceq.Tag.PCE, ceq.Planted.NO, rng.getrandbits(32), prof)
        inst = ceq.generate(spec).instance
        if not isinstance(ceq.preprocess(inst), ceq.Rejection):
            return inst
    raise RuntimeError(f"no hard NO pair for {fld!r} k={k} n={n} in {_HARD_NO_TRIES} tries")


def setup(ceq, ctx):
    rng = random.Random(f"search:{ctx.seed}")
    groups = []
    for p, e, k, n, prof, targets, truths in GADGET:
        fld = ceq.field(p, e).warm()
        for truth in truths:
            for _ in range(1 if ctx.quick else COUNT):
                if truth == "yes":
                    spec = ceq.GenSpec(fld, k, n, ceq.Tag.PCE, ceq.Planted.YES, rng.getrandbits(32), prof)
                    pce = ceq.generate(spec).instance
                else:
                    pce = _hard_no(ceq, fld, k, n, prof, rng)
                for target in targets:
                    reduced, cert = ceq.reduce_instance(pce, ceq.Tag[target])
                    require(not cert.rejected, "gadget stratum input was rejected")
                    groups.append([_decide_op(ceq, reduced, truth, "gadget", ceq.Mode.BACKTRACKING, None)])
    for p, e, k, n, tag in RAW:
        fld = ceq.field(p, e).warm()
        for truth in ("yes", "no"):
            planted = ceq.Planted.YES if truth == "yes" else ceq.Planted.NO
            for _ in range(1 if ctx.quick else COUNT):
                spec = ceq.GenSpec(fld, k, n, ceq.Tag[tag], planted, rng.getrandbits(32))
                inst = ceq.generate(spec).instance
                seen = {}
                groups.append(
                    [
                        _decide_op(ceq, inst, truth, "raw", mode, seen)
                        for mode in (ceq.Mode.EXHAUSTIVE, ceq.Mode.BACKTRACKING)
                    ]
                )
    rng.shuffle(groups)
    return [op for group in groups for op in group]


def _decide_op(ceq, inst, truth, origin, mode, seen):
    """seen, when given, is shared by the ops deciding one raw instance in
    both modes, so the second can require the same answer."""
    fld, tag = inst.field, inst.tag
    g_rows, h_rows = inst.G.rows, inst.H.rows
    budget = ceq.Budget(max_nodes=MAX_NODES, mode=mode)
    expected = ceq.Status.YES if truth == "yes" else ceq.Status.NO

    def prepare():
        return ceq.Instance(fld, ceq.Mat(fld, g_rows), ceq.Mat(fld, h_rows), tag)

    def run(inst):
        return ceq.decide(inst, budget)

    def check(inst, res):
        if res.status is ceq.Status.UNKNOWN:
            return False
        require(res.status is expected, f"{mode.value} answered {res.status.value} on a planted {truth.upper()}")
        if res.status is ceq.Status.YES:
            require(ceq.verify_witness(inst, res.witness), "YES witness does not verify")
        if seen is not None:
            for other, status in seen.items():
                require(status is res.status, f"{mode.value} and {other} disagree")
            seen[mode.value] = res.status
        return True

    return Op(f"{origin}.{mode.value}.{truth}", prepare, run, check)
