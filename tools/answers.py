"""Answer corpora: seeded decides whose answers must not move unless a change means them to.

One stratum so far, `search`, with three groups of decides:

- `gadget`: planted-YES and hard-NO PCE pairs over GF(2), GF(3), GF(4),
  GF(5), GF(7) and GF(8), each reduced to LCE and to SPCE and decided
  with `Mode.BACKTRACKING`;
- `raw`: planted-YES and certified-NO PCE, SPCE and LCE pairs with k = 2
  over the fields up to q = 5, each decided in both modes, which must
  agree;
- `short_rank`: unlabeled pairs with k > n, so both sides have rank
  n < k, each decided in both modes; their witnesses come from the
  short-rank path of the change of basis, where S is not unique.

A hard NO is a certified-NO PCE pair that preprocessing does not reject.
Every seed is fixed here. A YES whose witness does not verify, a planted
answer contradicted, or two modes that disagree stop the run with an
error.

It prints one JSON object with one key per stratum. The `search` entry
holds `count`, `max_nodes`, `nodes` (per group and mode, and the total),
`unknown`, `answers_sha256` and `wall_s`. The hash is the sha256 of the
per-decide rows [status, nodes, detail, witness] as compact JSON, in run
order, where the witness is its text from `ceq.fileio.serialize_witness`
or null. Every key but the `*_s` ones is the same on every machine and
run.

Usage: python tools/answers.py [--quick] [--rows]

`--quick` decides one pair per field and kind instead of 24; `--rows`
adds the per-decide rows, each led by its label, to the output. The
script uses the standard library and the public API of `ceq` only; run
it with `src` on `PYTHONPATH`, or with `ceq` installed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

import ceq
import ceq.fileio

# node cap of one decide; no decide of the corpus comes near it
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
    answers = [row[-4:] for row in rows]
    digest = hashlib.sha256(json.dumps(answers, separators=(",", ":")).encode()).hexdigest()
    summary = {
        "count": len(rows),
        "max_nodes": MAX_NODES,
        "nodes": {**nodes, "total": sum(nodes.values())},
        "unknown": unknown,
        "answers_sha256": digest,
        "wall_s": round(time.perf_counter() - t0, 3),
    }
    return summary, rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--quick", action="store_true", help="one pair per field and kind")
    parser.add_argument("--rows", action="store_true", help="add the per-decide rows to the output")
    args = parser.parse_args(argv)
    summary, rows = search(args.quick)
    if args.rows:
        summary["rows"] = rows
    json.dump({"search": summary}, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
