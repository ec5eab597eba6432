"""Answer corpora: seeded decides whose answers must not move unless a change means them to.

Two strata:

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

Every seed is fixed here, and a YES whose witness does not verify stops
the run with an error.

It prints one JSON object with one key per stratum run. Each entry holds
`count`, `max_nodes`, `nodes` (per group and mode in `search`, per tag
in `yes-probe`, and the total), `unknown`, `answers_sha256` and
`wall_s`; `yes-probe` adds `field_s`, its wall time per field. The hash
is the sha256 of the per-decide rows as compact JSON, in run order:
[status, nodes, detail, witness] in `search`, where the witness is its
text from `ceq.fileio.serialize_witness` or null, and
[q, k, n, seed, tag, status, nodes] in `yes-probe`. Every key but the
`*_s` ones is the same on every machine and run.

Usage: python tools/answers.py [--stratum NAME]... [--quick] [--rows]

`--stratum` runs the named stratum, and may be given more than once;
without it both run. `--quick` decides one pair per field and kind in
`search`, and 2 shapes, (4, 3, 6) and (16, 3, 4), under a 2,000-node
budget in `yes-probe`. `--rows` adds the per-decide rows, each led by
its label in `search`, to the output. The script uses the standard
library and the public API of `ceq` only; run it with `src` on
`PYTHONPATH`, or with `ceq` installed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
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


STRATA = {"search": search, "yes-probe": yes_probe}


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
