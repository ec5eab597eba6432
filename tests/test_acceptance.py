"""Acceptance suite: one test per published criterion, each printing a
PASS/FAIL line (run pytest with -s or -v to see them). All checks are
exact; the only measured quantity is the runtime-scaling ratio."""

import time

from ceq.core import (
    Instance,
    Rejection,
    Tag,
    map_witness_to_normalized,
    map_witness_to_original,
    preprocess,
    verify_witness,
)
from ceq.field import field
from ceq.matrix import Mat
from ceq.oracle import Budget, GenSpec, Mode, Planted, Status, decide, generate
from ceq.reduction import extract_witness, lift_witness, reduce_instance
from ceq.rng import stream

F2 = field(2)


def report(name, ok, total, extra=""):
    verdict = "PASS" if ok == total else "FAIL"
    tail = f" {extra}" if extra else ""
    print(f"ACCEPTANCE {name}: {verdict} ({ok}/{total}){tail}")
    return ok == total


def small_field(rng, qs):
    q = rng.choice(qs)
    return {2: F2, 3: field(3), 4: field(2, 2), 5: field(5), 7: field(7), 9: field(3, 2)}[q]


def rand_profile(n, k, rng):
    parts = [1] * k
    left = n - k
    while left:
        c = rng.randrange(1, left + 1)
        parts.append(c)
        left -= c
    rng.shuffle(parts)
    return tuple(parts)


def test_criterion_1_completeness():
    """Lifted witnesses verify on the reduced pair, for both targets."""
    rng = stream(101, "acceptance", "completeness")
    total = 500
    ok = 0
    t0 = time.perf_counter()
    for i in range(total):
        fld = small_field(rng, [2, 3, 4, 5, 7, 9])
        n = rng.randrange(1, 7)
        k = rng.randrange(1, min(n, 4) + 1)
        profile = rand_profile(n, k, rng) if rng.random() < 0.6 else None
        gen = generate(GenSpec(fld, k, n, Tag.PCE, Planted.YES, seed=i, profile=profile))
        good = 0
        for target in (Tag.LCE, Tag.SPCE):
            reduced, cert = reduce_instance(gen.instance, target)
            w_norm = map_witness_to_normalized(cert.journal, gen.witness)
            lifted = lift_witness(cert, w_norm)
            if verify_witness(reduced, lifted):
                good += 1
        ok += good == 2
    elapsed = time.perf_counter() - t0
    assert report("1 completeness", ok, total, f"in {elapsed:.1f}s")
    assert elapsed < 30.0


def test_criterion_2_soundness_q2():
    """Certified-NO inputs at q = 2 stay NO after reduction to LCE."""
    total = 100
    ok = 0
    unknowns = 0
    budget = Budget(max_nodes=100_000_000, mode=Mode.EXHAUSTIVE)
    t0 = time.perf_counter()
    for i in range(total):
        gen = generate(GenSpec(F2, 1, 2, Tag.PCE, Planted.NO, seed=i))
        reduced, cert = reduce_instance(gen.instance, Tag.LCE)
        res = decide(reduced, budget)
        if res.status is Status.UNKNOWN:
            unknowns += 1
        elif res.status is Status.NO:
            ok += 1
    elapsed = time.perf_counter() - t0
    assert unknowns == 0
    assert report("2 soundness at q=2", ok, total, f"in {elapsed:.1f}s, 0 UNKNOWN")


def test_criterion_3_structure_of_solver_witnesses():
    """Backtracking witnesses on gadget pairs pass every structural check
    inside extraction, and the extracted witness verifies."""
    rng = stream(103, "acceptance", "structure")
    total = 200
    ok = 0
    t0 = time.perf_counter()
    for i in range(total):
        fld = small_field(rng, [2, 3, 4, 5])
        n = rng.randrange(1, 5)
        k = rng.randrange(1, min(n, 3) + 1)
        profile = rand_profile(n, k, rng) if rng.random() < 0.5 else None
        gen = generate(GenSpec(fld, k, n, Tag.PCE, Planted.YES, seed=3000 + i, profile=profile))
        reduced, cert = reduce_instance(gen.instance, Tag.LCE)
        res = decide(reduced, Budget(mode=Mode.BACKTRACKING))
        if res.status is not Status.YES:
            continue
        norm = cert.journal.normalized
        extracted = extract_witness(cert, norm.G, norm.H, res.witness)
        if not extracted.M.is_permutation():
            continue
        if not verify_witness(Instance(fld, norm.G, norm.H, Tag.PCE), extracted):
            continue
        back = map_witness_to_original(cert.journal, extracted)
        if verify_witness(gen.instance, back):
            ok += 1
    elapsed = time.perf_counter() - t0
    assert report("3 structure checks", ok, total, f"in {elapsed:.1f}s")


def test_criterion_4_blowup_identity():
    """Every executed reduction obeys the size and rank identities."""
    rng = stream(104, "acceptance", "blowup")
    total = 200
    ok = 0
    for i in range(total):
        fld = small_field(rng, [2, 3, 4, 5, 7, 9])
        n = rng.randrange(1, 7)
        k = rng.randrange(1, min(n, 4) + 1)
        profile = rand_profile(n, k, rng) if rng.random() < 0.5 else None
        gen = generate(GenSpec(fld, k, n, Tag.PCE, Planted.YES, seed=4000 + i, profile=profile))
        target = (Tag.LCE, Tag.SPCE)[i % 2]
        reduced, cert = reduce_instance(gen.instance, target)
        if cert.rejected or cert.n == 0:
            continue
        checks = (
            reduced.n == cert.n + 2 * cert.n * cert.m + 1
            and reduced.k == cert.k + 1
            and reduced.G.rank() == cert.k + 1
            and reduced.H.rank() == cert.k + 1
            and cert.m >= 2
        )
        ok += checks
    assert report("4 blowup identity", ok, total)


def test_criterion_5_oracle_self_consistency():
    """Exhaustive and backtracking agree; YES answers carry witnesses."""
    rng = stream(105, "acceptance", "oracle")
    total = 300
    ok = 0
    t0 = time.perf_counter()
    for i in range(total):
        fld = small_field(rng, [2, 3, 4, 5])
        n = rng.randrange(1, 6)
        k = rng.randrange(1, min(n, 3) + 1)
        tag = rng.choice(list(Tag))
        planted = rng.choice([Planted.YES, Planted.UNLABELED, Planted.UNLABELED])
        gen = generate(GenSpec(fld, k, n, tag, planted, seed=5000 + i))
        a = decide(gen.instance, Budget(mode=Mode.EXHAUSTIVE))
        b = decide(gen.instance, Budget(mode=Mode.BACKTRACKING))
        good = a.status == b.status and a.status in (Status.YES, Status.NO)
        if a.status is Status.YES:
            good = (
                good
                and verify_witness(gen.instance, a.witness)
                and verify_witness(gen.instance, b.witness)
            )
        if planted is Planted.YES:
            good = good and a.status is Status.YES
        ok += good
    elapsed = time.perf_counter() - t0
    assert report("5 oracle self-consistency", ok, total, f"in {elapsed:.1f}s")


def _mutate_with_zero_columns(inst, rng):
    """Insert zero columns (sometimes unevenly) and occasionally kill the
    rank of one side, to exercise every preprocessing path."""
    fld = inst.field

    def pad(m, count):
        rows = [list(r) for r in m.rows]
        for _ in range(count):
            pos = rng.randrange(len(rows[0]) + 1 if rows and rows[0] else 1)
            for r in rows:
                r.insert(pos, 0)
        return Mat(fld, rows, m.n + count)

    zg = rng.randrange(0, 3)
    zh = zg if rng.random() < 0.7 else rng.randrange(0, 3)
    g, h = pad(inst.G, zg), pad(inst.H, zh)
    if zg != zh:
        wider = max(g.n, h.n)
        g, h = pad(g, wider - g.n), pad(h, wider - h.n)
    if rng.random() < 0.25 and g.k >= 2:
        rows = [list(r) for r in g.rows]
        rows[-1] = list(rows[0])
        g = Mat(fld, rows, g.n)
    return Instance(fld, g, h, Tag.PCE)


def test_criterion_6_preprocessing_equivalence():
    """Normalization never changes the decision; rejections are true NOs."""
    rng = stream(106, "acceptance", "preprocess")
    total = 200
    ok = 0
    rejects = 0
    budget = Budget(mode=Mode.EXHAUSTIVE)
    t0 = time.perf_counter()
    for i in range(total):
        fld = small_field(rng, [2, 3, 5])
        n = rng.randrange(1, 5)
        k = rng.randrange(1, min(n, 3) + 1)
        planted = rng.choice([Planted.YES, Planted.UNLABELED])
        base = generate(GenSpec(fld, k, n, Tag.PCE, planted, seed=6000 + i))
        inst = _mutate_with_zero_columns(base.instance, rng)
        truth = decide(inst, budget)
        outcome = preprocess(inst)
        if isinstance(outcome, Rejection):
            rejects += 1
            ok += truth.status is Status.NO
        else:
            ok += decide(outcome.instance, budget).status == truth.status
    elapsed = time.perf_counter() - t0
    assert rejects > 0
    assert report(
        "6 preprocessing equivalence", ok, total, f"({rejects} rejects) in {elapsed:.1f}s"
    )


def test_criterion_7_runtime_scaling():
    """Reduction wall-time grows mildly with the element encoding size:
    at fixed n = 6, k = 3 the ratio between q = 2^16 and q = 2 stays
    under 4x (best of several batches)."""

    def best_time(fld, reps=40, batches=5):
        gen = generate(GenSpec(fld, 3, 6, Tag.PCE, Planted.YES, seed=1234))
        best = float("inf")
        for _ in range(batches):
            t0 = time.perf_counter()
            for _ in range(reps):
                reduce_instance(gen.instance, Tag.LCE)
            best = min(best, (time.perf_counter() - t0) / reps)
        return best

    times = {q: best_time(f) for q, f in ((2, F2), (256, field(2, 8)), (65536, field(2, 16)))}
    ratio = times[65536] / times[2]
    mid = times[256] / times[2]
    ok = int(ratio <= 4.0)
    print(
        f"ACCEPTANCE 7 runtime scaling: {'PASS' if ok else 'FAIL'} "
        f"(q=2: {times[2]*1e6:.0f}us, q=2^8: {mid:.2f}x, q=2^16: {ratio:.2f}x, threshold 4x)"
    )
    assert ok


def test_criterion_8_determinism(tmp_path):
    """A seeded gen/reduce/solve/extract pipeline is byte-identical."""
    from ceq.cli import main

    outputs = []
    for run_dir in ("one", "two"):
        d = tmp_path / run_dir
        d.mkdir()
        inst, red, cert = d / "i.ceq", d / "r.ceq", d / "r.cert"
        wit, solved, extracted = d / "i.wit", d / "s.wit", d / "x.wit"
        assert main(["gen", "--k", "2", "--n", "4", "--field", "5", "--tag", "PCE",
                     "--planted", "yes", "--seed", "97", "--out", str(inst),
                     "--witness-out", str(wit)]) == 0
        assert main(["reduce", "--in", str(inst), "--target", "lce",
                     "--out", str(red), "--cert-out", str(cert)]) == 0
        assert main(["solve", "--in", str(red), "--mode", "backtracking",
                     "--witness-out", str(solved)]) == 0
        assert main(["extract", "--cert", str(cert), "--instance", str(inst),
                     "--witness", str(solved), "--out", str(extracted)]) == 0
        outputs.append(tuple(p.read_bytes() for p in (inst, wit, red, cert, solved, extracted)))
    same = sum(a == b for a, b in zip(outputs[0], outputs[1]))
    assert report("8 determinism", same, 6, "files byte-identical")
