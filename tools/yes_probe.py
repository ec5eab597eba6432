"""The YES probe: backtracking decides on gadget pairs of planted-YES PCE pairs.

Each shape (q, k, n) and seed gives `generate(GenSpec(GF(q), k, n, PCE,
YES, seed))`. The pair is reduced to LCE and to SPCE, and each reduced pair is
decided with `Mode.BACKTRACKING` under a node budget. The full probe is 20
shapes x seeds 7 and 11 x {LCE, SPCE} = 80 runs under 300,000 nodes each.

It prints one JSON object:

- `runs`, `nodes` (the total per tag and over both) and `unknown`;
- `rows_sha256`, the sha256 of the per-run rows
  [q, k, n, seed, tag, status, nodes] as compact JSON;
- `wall_s` and `field_s` (per field), the only keys that hold wall time.

Every key but the `*_s` ones is the same on every machine and run. A YES
whose witness does not verify stops the probe with an error.

Usage: python tools/yes_probe.py [--quick] [--rows]

`--quick` runs 2 shapes, (4, 3, 6) and (16, 3, 4), under a 2,000-node
budget; `--rows` adds the per-run rows to the output. The script uses the
standard library and the public API of `ceq` only; run it with `src` on
`PYTHONPATH`, or with `ceq` installed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

import ceq

# (q, k, n)
SHAPES = (
    (2, 4, 8), (2, 5, 10), (2, 6, 12), (3, 3, 6), (3, 4, 8), (3, 5, 10), (4, 3, 6),
    (4, 4, 8), (5, 3, 5), (5, 3, 6), (5, 4, 8), (7, 3, 4), (7, 3, 6), (7, 4, 6),
    (8, 3, 6), (8, 4, 6), (9, 3, 5), (9, 4, 6), (11, 3, 5), (16, 3, 4),
)
SEEDS = (7, 11)
TAGS = ("LCE", "SPCE")
MAX_NODES = 300_000
# --quick: one shape over GF(4) and one over GF(16), where LCE has more
# scalars than signs
QUICK_SHAPES = ((4, 3, 6), (16, 3, 4))
QUICK_MAX_NODES = 2_000


def _field(q: int) -> ceq.Field:
    for p in range(2, q + 1):
        e, r = 0, q
        while r % p == 0:
            r //= p
            e += 1
        if e:
            if r != 1:
                raise ValueError(f"{q} is not a prime power")
            return ceq.field(p, e)
    raise ValueError(f"{q} is not a prime power")


def probe(quick: bool = False) -> tuple[dict, list[list]]:
    """Run the probe; return its summary and its per-run rows."""
    shapes = QUICK_SHAPES if quick else SHAPES
    budget = ceq.Budget(max_nodes=QUICK_MAX_NODES if quick else MAX_NODES, mode=ceq.Mode.BACKTRACKING)
    rows = []
    nodes = dict.fromkeys(TAGS, 0)
    field_s: dict[str, float] = {}
    unknown = 0
    t_all = time.perf_counter()
    for q, k, n in shapes:
        fld = _field(q)
        t0 = time.perf_counter()
        for seed in SEEDS:
            pce = ceq.generate(ceq.GenSpec(fld, k, n, ceq.Tag.PCE, ceq.Planted.YES, seed)).instance
            for tag in TAGS:
                red, cert = ceq.reduce_instance(pce, ceq.Tag[tag])
                if cert.rejected:
                    raise RuntimeError(f"planted YES ({q}, {k}, {n}) seed {seed} was rejected")
                res = ceq.decide(red, budget)
                if res.status is ceq.Status.NO:
                    raise RuntimeError(f"planted YES ({q}, {k}, {n}) seed {seed} {tag} answered NO")
                if res.status is ceq.Status.YES and not ceq.verify_witness(red, res.witness):
                    raise RuntimeError(f"({q}, {k}, {n}) seed {seed} {tag}: witness does not verify")
                unknown += res.status is ceq.Status.UNKNOWN
                nodes[tag] += res.nodes
                rows.append([q, k, n, seed, tag, res.status.value, res.nodes])
        name = repr(fld)
        field_s[name] = round(field_s.get(name, 0.0) + time.perf_counter() - t0, 3)
    digest = hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()
    summary = {
        "runs": len(rows),
        "max_nodes": budget.max_nodes,
        "nodes": {**nodes, "total": sum(nodes.values())},
        "unknown": unknown,
        "rows_sha256": digest,
        "wall_s": round(time.perf_counter() - t_all, 3),
        "field_s": field_s,
    }
    return summary, rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--quick", action="store_true", help="2 shapes under a 2,000-node budget")
    parser.add_argument("--rows", action="store_true", help="add the per-run rows to the output")
    args = parser.parse_args(argv)
    summary, rows = probe(args.quick)
    if args.rows:
        summary["rows"] = rows
    json.dump(summary, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
