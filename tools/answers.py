"""Answer corpora: seeded decides whose answers must not move unless a change means them to.

Four strata:

- `search`, with three groups of decides:
  - `gadget`: planted-YES and hard-NO PCE pairs over GF(2), GF(3),
    GF(4), GF(5), GF(7) and GF(8), each reduced to LCE and to SPCE and
    decided with `Mode.BACKTRACKING`;
  - `raw`: planted-YES and certified-NO PCE, SPCE and LCE pairs with
    k = 2 over the fields up to q = 5, each decided in both modes,
    which must agree;
  - `short_rank`: unlabeled pairs with k > n, so both sides have rank
    n < k, each decided in both modes; their witnesses come from the
    short-rank branch of the change of basis, where S is not unique.

  A hard NO is a certified-NO PCE pair that preprocessing does not
  reject. A planted answer contradicted, or two modes that disagree,
  stop the run with an error.
- `yes-probe`: the hard end of the backtracker. Each shape (q, k, n)
  and seed gives `generate(GenSpec(GF(q), k, n, PCE, YES, seed))`; the
  pair is reduced to LCE and to SPCE, and each reduced pair is decided
  with `Mode.BACKTRACKING` under a node budget: 20 shapes x seeds 7 and
  11 x {LCE, SPCE} = 80 runs under 300,000 nodes each. An answer NO
  stops the run with an error.
- `roundtrip`: the witness transport that perfbench's `roundtrip`
  workload times, over its eight fields. Each YES pair goes through
  `reduce_instance`, `map_witness_to_normalized`, `lift_witness`,
  `verify_witness` on the gadget pair, `extract_witness` and
  `map_witness_to_original`, and the returned witness must verify. The
  pairs are planted YES pairs with repeated columns (the workload's
  shapes, targets LCE and SPCE alternating), pairs with zero columns,
  and short-rank pairs whose k rows span fewer columns; pairs that
  preprocessing rejects (differing profiles, zero-column counts or
  ranks) are only reduced, and must reject for the reason expected.
- `fields`: the arithmetic of every extension field with q <= 2^16 and
  of the primes 2, 3, 7, 127, 131, 251, 257 and 65521, on both sides of
  the byte-row switch at 127. Each field records its built-in modulus,
  its generator g (the least element of multiplicative order q - 1,
  found through `mul`), and the sha256 of [mul(g, x)] and [neg(x)] over
  every x and of [inv(x)] over every x but 0. An x whose inv(x) * x is
  not 1 stops the run with an error.

Every seed is fixed here, and a YES whose witness does not verify stops
the run with an error.

It prints one JSON object with one key per stratum run. The `search`
and `yes-probe` entries hold `count`, `max_nodes`, `nodes` (per group
and mode in `search`, per tag in `yes-probe`, and the total),
`unknown`, `answers_sha256` and `wall_s`; `yes-probe` adds `field_s`,
its wall time per field. The `roundtrip` entry holds `count`,
`rejected` (per reason), `answers_sha256` and `wall_s`. The hash is the
sha256 of the per-decide rows as compact JSON, in run order:
[status, nodes, detail, witness] in `search`, where the witness is its
text from `ceq.fileio.serialize_witness` or null,
[q, k, n, seed, tag, status, nodes] in `yes-probe`, and in `roundtrip`
[label..., cert, reduced instance, witnesses] with the texts of
`ceq.fileio`'s serializers: the cert, the reduced pair and, for a YES
pair, the normalized, lifted and returned witnesses. Every key but the
`*_s` ones is the same on every machine and run. The `fields` entry
holds `count`, `answers_sha256` over the rows [p, e, modulus, g,
mul sha256, inv sha256, neg sha256], `wall_s` and `build_s`, the
seconds of each field's first `ceq.field(p, e)` call in the process,
modulus search included; run the stratum alone for cold builds.

Usage: python tools/answers.py [--stratum NAME]... [--quick] [--rows]

`--stratum` runs the named stratum, and may be given more than once;
without it all run. `--quick` decides one pair per field and kind in
`search`, 2 shapes, (4, 3, 6) and (16, 3, 4), under a 2,000-node
budget in `yes-probe`, and one seed and the two smaller YES shapes in
`roundtrip`, and in `fields` GF(2), GF(131), GF(2^2), GF(2^3), GF(3^2)
and GF(5^2). `--rows` adds the per-decide rows, each led by its label
in `search` and `roundtrip`, to the output. The script uses the standard
library and the public API of `ceq` only; run it with `src` on
`PYTHONPATH`, or with `ceq` installed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time

import ceq
import ceq.fileio

# node cap of one `search` decide; none of them comes near it
MAX_NODES = 200_000
PER_KIND = 24
QUICK_PER_KIND = 1

# (p, e) of the gadget group's fields
GADGET_FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3))
# (p, e) of the raw and short-rank groups' fields, where the exhaustive
# decider stays desk-scale and LCE NOs can be certified
RAW_FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1))
# (tag, n) of the raw pairs, all with k = 2
RAW_SHAPES = (("PCE", 5), ("SPCE", 5), ("LCE", 4))
# (k, n) of the short-rank pairs
SHORT_SHAPES = ((3, 2), (4, 3))
MODES = (ceq.Mode.EXHAUSTIVE, ceq.Mode.BACKTRACKING)

_HARD_NO_TRIES = 100

# (p, e, k, n) of the yes-probe shapes
YES_SHAPES = (
    (2, 1, 4, 8), (2, 1, 5, 10), (2, 1, 6, 12), (3, 1, 3, 6), (3, 1, 4, 8), (3, 1, 5, 10),
    (2, 2, 3, 6), (2, 2, 4, 8), (5, 1, 3, 5), (5, 1, 3, 6), (5, 1, 4, 8), (7, 1, 3, 4),
    (7, 1, 3, 6), (7, 1, 4, 6), (2, 3, 3, 6), (2, 3, 4, 6), (3, 2, 3, 5), (3, 2, 4, 6),
    (11, 1, 3, 5), (2, 4, 3, 4),
)
YES_SEEDS = (7, 11)
YES_TAGS = ("LCE", "SPCE")
YES_MAX_NODES = 300_000
# --quick: one shape over GF(4) and one over GF(16), where LCE has more
# scalars than signs
YES_QUICK_SHAPES = ((2, 2, 3, 6), (2, 4, 3, 4))
YES_QUICK_MAX_NODES = 2_000

# (p, e) of the roundtrip fields: prime, 2^e and odd p^e on both sides of
# the q = 256 flat-table cap, as in perfbench's `roundtrip` workload
ROUND_FIELDS = ((2, 1), (7, 1), (65521, 1), (2, 8), (2, 16), (3, 5), (3, 6), (5, 4))
# (k, n, column-multiplicity profile, target) of the planted YES pairs
ROUND_SHAPES = (
    (3, 10, (3, 2, 2, 1, 1, 1), "LCE"),
    (4, 14, (3, 3, 2, 2, 1, 1, 1, 1), "SPCE"),
    (5, 19, (3, 3, 2, 2, 2, 2, 1, 1, 1, 1, 1), "LCE"),
    (6, 24, (3, 3, 3, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1), "SPCE"),
)
ROUND_SEEDS = (13, 29)
# (k, column-multiplicity profile, zero columns) of the built YES pairs:
# zero columns at full rank, and short ranks with fewer distinct columns
# than rows, one pair with all its non-zero columns equal
ROUND_BUILT = (
    (3, (2, 2, 1, 1), 2), (4, (3, 2, 2, 1, 1), 3), (4, (3, 2), 0), (5, (2, 2, 2), 1), (6, (5,), 2),
)
# (profile, zero columns) of G and of H in the pairs that preprocessing
# rejects, all with k = 3 and n = 8
ROUND_REJECTS = (
    (((3, 2, 1, 1, 1), 0), ((2, 2, 2, 1, 1), 0), "PROFILE_MISMATCH"),
    (((3, 2, 1, 1, 1), 0), ((3, 2, 1, 1), 1), "ZERO_COLUMN_COUNT_MISMATCH"),
    (((3, 2, 1, 1, 1), 0), ((4, 4), 0), "RANK_MISMATCH"),
)


def _sha256(rows: list[list]) -> str:
    """The sha256 of rows as compact JSON."""
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()


def _gadget_shape(q: int, s: int) -> tuple[int, int, tuple[int, ...]]:
    """(k, n, profile) of the s-th PCE pair; over GF(2) every 2-row pair
    with a certified NO fails preprocessing."""
    if q == 2:
        return ((3, 5, (2, 1, 1, 1)), (3, 6, (2, 2, 1, 1)))[s % 2]
    return ((2, 4, (2, 1, 1)), (2, 5, (2, 1, 1, 1)), (2, 6, (2, 2, 1, 1)))[s % 3]


def _hard_no(fld, k, n, profile, seed):
    """The first certified-NO PCE pair from seed, seed + 1000, ... that
    preprocessing does not reject."""
    for i in range(_HARD_NO_TRIES):
        spec = ceq.GenSpec(fld, k, n, ceq.Tag.PCE, ceq.Planted.NO, seed + 1000 * i, profile)
        inst = ceq.generate(spec).instance
        if not isinstance(ceq.preprocess(inst), ceq.Rejection):
            return inst
    raise RuntimeError(f"no hard NO pair over {fld!r} from seed {seed}")


def _search_cases(per_kind: int):
    """(label, instance, modes, expected status or None) in run order."""
    for p, e in GADGET_FIELDS:
        fld = ceq.field(p, e)
        for truth in ("yes", "no"):
            for s in range(per_kind):
                k, n, profile = _gadget_shape(fld.q, s)
                seed = 1000 * p + 100 * e + s
                if truth == "yes":
                    spec = ceq.GenSpec(fld, k, n, ceq.Tag.PCE, ceq.Planted.YES, seed, profile)
                    pce = ceq.generate(spec).instance
                else:
                    pce = _hard_no(fld, k, n, profile, seed)
                for tag in (ceq.Tag.LCE, ceq.Tag.SPCE):
                    red, cert = ceq.reduce_instance(pce, tag)
                    if cert.rejected:
                        raise RuntimeError(f"gadget input over {fld!r} seed {seed} was rejected")
                    label = ["gadget", fld.q, tag.value, truth, seed]
                    yield label, red, (ceq.Mode.BACKTRACKING,), truth.upper()
    for tag, n in RAW_SHAPES:
        for p, e in RAW_FIELDS:
            fld = ceq.field(p, e)
            for planted in (ceq.Planted.YES, ceq.Planted.NO):
                for s in range(per_kind):
                    seed = 7 * s + 10 * p + e
                    inst = ceq.generate(ceq.GenSpec(fld, 2, n, ceq.Tag[tag], planted, seed)).instance
                    label = ["raw", fld.q, tag, planted.value, seed]
                    yield label, inst, MODES, planted.value.upper()
    for k, n in SHORT_SHAPES:
        for tag in ceq.Tag:
            for p, e in RAW_FIELDS:
                fld = ceq.field(p, e)
                for s in range(per_kind):
                    seed = 11 * s + 10 * p + e
                    inst = ceq.generate(ceq.GenSpec(fld, k, n, tag, ceq.Planted.UNLABELED, seed)).instance
                    yield ["short_rank", fld.q, tag.value, k, n, seed], inst, MODES, None


def _fresh(inst):
    """The instance without the RREFs and columns an earlier decide left."""
    fld = inst.field
    return ceq.Instance(fld, ceq.Mat(fld, inst.G.rows, inst.G.n), ceq.Mat(fld, inst.H.rows, inst.H.n), inst.tag)


def search(quick: bool = False) -> tuple[dict, list[list]]:
    """Run the `search` stratum; return its summary and its labelled rows."""
    t0 = time.perf_counter()
    rows = []
    nodes: dict[str, int] = {}
    unknown = 0
    for label, inst, modes, expected in _search_cases(QUICK_PER_KIND if quick else PER_KIND):
        statuses = set()
        for mode in modes:
            res = ceq.decide(_fresh(inst), ceq.Budget(max_nodes=MAX_NODES, mode=mode))
            where = f"{label} {mode.value}"
            if res.status is ceq.Status.YES and not ceq.verify_witness(inst, res.witness):
                raise RuntimeError(f"{where}: witness does not verify")
            if res.status is not ceq.Status.UNKNOWN:
                if expected is not None and res.status.value != expected:
                    raise RuntimeError(f"{where}: answered {res.status.value}, planted {expected}")
                statuses.add(res.status)
            unknown += res.status is ceq.Status.UNKNOWN
            key = f"{label[0]}.{mode.value}"
            nodes[key] = nodes.get(key, 0) + res.nodes
            w = None if res.witness is None else ceq.fileio.serialize_witness(inst.field, res.witness)
            rows.append([*label, mode.value, res.status.value, res.nodes, res.detail, w])
        if len(statuses) > 1:
            raise RuntimeError(f"{label}: the modes disagree")
    summary = {
        "count": len(rows),
        "max_nodes": MAX_NODES,
        "nodes": {**nodes, "total": sum(nodes.values())},
        "unknown": unknown,
        "answers_sha256": _sha256([row[-4:] for row in rows]),
        "wall_s": round(time.perf_counter() - t0, 3),
    }
    return summary, rows


def yes_probe(quick: bool = False) -> tuple[dict, list[list]]:
    """Run the `yes-probe` stratum; return its summary and its rows."""
    t_all = time.perf_counter()
    budget = ceq.Budget(max_nodes=YES_QUICK_MAX_NODES if quick else YES_MAX_NODES, mode=ceq.Mode.BACKTRACKING)
    rows = []
    nodes = dict.fromkeys(YES_TAGS, 0)
    field_s: dict[str, float] = {}
    unknown = 0
    for p, e, k, n in YES_QUICK_SHAPES if quick else YES_SHAPES:
        fld = ceq.field(p, e)
        t0 = time.perf_counter()
        for seed in YES_SEEDS:
            pce = ceq.generate(ceq.GenSpec(fld, k, n, ceq.Tag.PCE, ceq.Planted.YES, seed)).instance
            for tag in YES_TAGS:
                where = f"planted YES ({fld.q}, {k}, {n}) seed {seed} {tag}"
                red, cert = ceq.reduce_instance(pce, ceq.Tag[tag])
                if cert.rejected:
                    raise RuntimeError(f"{where} was rejected")
                res = ceq.decide(red, budget)
                if res.status is ceq.Status.NO:
                    raise RuntimeError(f"{where} answered NO")
                if res.status is ceq.Status.YES and not ceq.verify_witness(red, res.witness):
                    raise RuntimeError(f"{where}: witness does not verify")
                unknown += res.status is ceq.Status.UNKNOWN
                nodes[tag] += res.nodes
                rows.append([fld.q, k, n, seed, tag, res.status.value, res.nodes])
        name = repr(fld)
        field_s[name] = round(field_s.get(name, 0.0) + time.perf_counter() - t0, 3)
    summary = {
        "count": len(rows),
        "max_nodes": budget.max_nodes,
        "nodes": {**nodes, "total": sum(nodes.values())},
        "unknown": unknown,
        "answers_sha256": _sha256(rows),
        "wall_s": round(time.perf_counter() - t_all, 3),
        "field_s": field_s,
    }
    return summary, rows


def _drawn(fld, k: int, profile: tuple, zeros: int, rng: random.Random) -> "ceq.Mat":
    """A k x n matrix of rank min(k, len(profile)): `zeros` zero columns
    and distinct non-zero columns of the given multiplicities, shuffled."""
    d = len(profile)
    while True:
        pool = [tuple(rng.randrange(fld.q) for _ in range(k)) for _ in range(d)]
        if all(map(any, pool)) and len(set(pool)) == d:
            basis = ceq.Mat(fld, [[c[i] for c in pool] for i in range(k)], d)
            if basis.rank() == min(k, d):
                break
    cols = [c for c, count in zip(pool, profile) for _ in range(count)] + [(0,) * k] * zeros
    rng.shuffle(cols)
    return ceq.Mat(fld, [[c[i] for c in cols] for i in range(k)], len(cols))


def _permuted_image(g, rng: random.Random):
    """(instance, witness): the PCE pair (g, S * g * P) for a drawn
    invertible S and permutation P."""
    fld, k = g.field, g.k
    while True:
        s = ceq.Mat(fld, [[rng.randrange(fld.q) for _ in range(k)] for _ in range(k)], k)
        if s.rank() == k:
            break
    sigma = list(range(g.n))
    rng.shuffle(sigma)
    m = ceq.Mono(fld, ceq.Perm(tuple(sigma)), (1,) * g.n)
    return ceq.Instance(fld, g, s.mul(g).apply_mono(m), ceq.Tag.PCE), ceq.Witness(s, m)


def _roundtrip_cases(quick: bool):
    """(label, instance, witness or None, target, expected rejection or
    None) in run order."""
    for p, e in ROUND_FIELDS:
        fld = ceq.field(p, e)
        for seed in ROUND_SEEDS[:1] if quick else ROUND_SEEDS:
            rng = random.Random(f"roundtrip:{p}:{e}:{seed}")
            for k, n, profile, target in ROUND_SHAPES[:2] if quick else ROUND_SHAPES:
                got = ceq.generate(ceq.GenSpec(fld, k, n, ceq.Tag.PCE, ceq.Planted.YES, seed, profile))
                yield ["yes", fld.q, k, n, seed, target], got.instance, got.witness, ceq.Tag[target], None
            for i, (k, profile, zeros) in enumerate(ROUND_BUILT):
                inst, w = _permuted_image(_drawn(fld, k, profile, zeros, rng), rng)
                target = ("LCE", "SPCE")[i % 2]
                yield ["built", fld.q, k, inst.n, zeros, seed, target], inst, w, ceq.Tag[target], None
            for (g_prof, g_zeros), (h_prof, h_zeros), reason in ROUND_REJECTS:
                g, h = _drawn(fld, 3, g_prof, g_zeros, rng), _drawn(fld, 3, h_prof, h_zeros, rng)
                label = ["reject", fld.q, 3, g.n, seed, "LCE"]
                yield label, ceq.Instance(fld, g, h, ceq.Tag.PCE), None, ceq.Tag.LCE, ceq.RejectReason[reason]


def roundtrip(quick: bool = False) -> tuple[dict, list[list]]:
    """Run the `roundtrip` stratum; return its summary and its labelled rows."""
    t0 = time.perf_counter()
    rows = []
    rejected = {reason.value: 0 for reason in ceq.RejectReason}
    serialize_witness = ceq.fileio.serialize_witness
    for label, inst, w, target, expected in _roundtrip_cases(quick):
        fld = inst.field
        reduced, cert = ceq.reduce_instance(_fresh(inst), target)
        if cert.reject_reason is not expected:
            raise RuntimeError(f"{label}: preprocessing gave {cert.reject_reason}, expected {expected}")
        texts = [ceq.fileio.serialize_cert(cert), ceq.fileio.serialize_instance(reduced, cert.reject_reason)]
        if cert.rejected:
            rejected[cert.reject_reason.value] += 1
        else:
            w_norm = ceq.map_witness_to_normalized(cert.journal, w)
            lifted = ceq.lift_witness(cert, w_norm)
            if not ceq.verify_witness(reduced, lifted):
                raise RuntimeError(f"{label}: lifted witness does not verify")
            norm = cert.journal.normalized
            back = ceq.map_witness_to_original(cert.journal, ceq.extract_witness(cert, norm.G, norm.H, lifted))
            if not ceq.verify_witness(inst, back):
                raise RuntimeError(f"{label}: returned witness does not verify")
            texts += [serialize_witness(fld, w_norm), serialize_witness(fld, lifted), serialize_witness(fld, back)]
        rows.append([*label, *texts])
    summary = {
        "count": len(rows),
        "rejected": rejected,
        "answers_sha256": _sha256(rows),
        "wall_s": round(time.perf_counter() - t0, 3),
    }
    return summary, rows


# primes of the `fields` stratum: XOR add at 2, byte rows up to 127,
# mod-p kernels from 131 on, and the largest prime order
FIELD_PRIMES = (2, 3, 7, 127, 131, 251, 257, 65521)
FIELD_QUICK = ((2, 1), (131, 1), (2, 2), (2, 3), (3, 2), (5, 2))


def _primes_to(n: int) -> list[int]:
    return [m for m in range(2, n + 1) if all(m % d for d in range(2, int(m**0.5) + 1))]


def _field_specs(quick: bool) -> list[tuple[int, int]]:
    """(p, e) of the `fields` stratum in run order: the primes, then every
    extension field with q <= 2^16 by p and e."""
    if quick:
        return list(FIELD_QUICK)
    ext = [(p, e) for p in _primes_to(256) for e in range(2, 17) if p**e <= 1 << 16]
    return [(p, 1) for p in FIELD_PRIMES] + ext


def _generator(fld) -> int:
    """The least element of multiplicative order q - 1, by `fld.mul`."""
    span = fld.q - 1
    factors = [f for f in _primes_to(int(span**0.5) + 1) if span % f == 0]
    rest = span
    for f in factors:
        while rest % f == 0:
            rest //= f
    factors += [rest] if rest > 1 else []

    def power(a: int, k: int) -> int:
        out = 1
        while k:
            if k & 1:
                out = fld.mul(out, a)
            a = fld.mul(a, a)
            k >>= 1
        return out

    return next(c for c in range(1, fld.q) if all(power(c, span // f) != 1 for f in factors))


def fields(quick: bool = False) -> tuple[dict, list[list]]:
    """Run the `fields` stratum; return its summary and its rows."""
    t_all = time.perf_counter()
    rows = []
    build_s: dict[str, float] = {}
    for p, e in _field_specs(quick):
        t0 = time.perf_counter()
        fld = ceq.field(p, e)
        build_s[repr(fld)] = round(time.perf_counter() - t0, 4)
        g = _generator(fld)
        els = range(fld.q)
        inv = [fld.inv(x) for x in els[1:]]
        if any(fld.mul(x, y) != 1 for x, y in zip(els[1:], inv)):
            raise RuntimeError(f"{fld!r}: inv(x) * x is not 1")
        modulus = None if fld.modulus is None else list(fld.modulus)
        mul_g, neg = [fld.mul(g, x) for x in els], [fld.neg(x) for x in els]
        rows.append([p, e, modulus, g, _sha256(mul_g), _sha256(inv), _sha256(neg)])
    summary = {
        "count": len(rows),
        "answers_sha256": _sha256(rows),
        "wall_s": round(time.perf_counter() - t_all, 3),
        "build_s": build_s,
    }
    return summary, rows


STRATA = {"search": search, "yes-probe": yes_probe, "roundtrip": roundtrip, "fields": fields}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--stratum", action="append", choices=STRATA,
                        help="run this stratum (repeatable; default: all)")
    parser.add_argument("--quick", action="store_true", help="a few decides per stratum")
    parser.add_argument("--rows", action="store_true", help="add the per-decide rows to the output")
    args = parser.parse_args(argv)
    out = {}
    for name in dict.fromkeys(args.stratum or STRATA):
        summary, rows = STRATA[name](args.quick)
        if args.rows:
            summary["rows"] = rows
        out[name] = summary
    json.dump(out, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
