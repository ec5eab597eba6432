"""Command-line surface: generate, reduce, solve, verify, lift, extract.

Exit codes are stable: 0 ok/YES, 1 NO or failed verification, 2 usage or
malformed input, 3 search/certification budget exhausted, 4 structural
violation during witness extraction. stdout carries a human summary;
machine-readable data goes to files (and to the optional solve CSV).
Flags read numbers and field specs as files do, through
`fileio.decimal`, `fileio.seconds` and `fileio.field_spec`: ASCII
decimal digits only.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from . import fileio, oracle, reduction
from .core import Instance, Tag, Witness, map_witness_to_original, map_witness_to_normalized, verify_witness
from .errors import BudgetExceeded, CeqError, FormatError, NotPrime, StructureViolation, WitnessInvalid
from .field import Field

EXIT_OK = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_STRUCTURE = 4


class UsageError(CeqError):
    pass


def _parse_field_flag(spec: str, modulus: str | None) -> Field:
    try:
        return fileio.field_spec(spec, modulus)
    except (ValueError, CeqError) as exc:
        hint = ""
        if isinstance(exc, NotPrime) and "^" not in spec and fileio.decimal(spec) > 1:
            hint = " (for prime powers use extension syntax, e.g. --field 2^2)"
        raise UsageError(f"{exc}{hint}") from None


def _load_instance(path: str) -> Instance:
    inst, _ = fileio.read_instance(path)
    return inst


def _load_witness(path: str, fld: Field) -> Witness:
    wfld, w = fileio.read_witness(path)
    if wfld != fld:
        raise FormatError(f"{path}: witness field {wfld!r} differs from instance field {fld!r}")
    return w


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    fld = _parse_field_flag(args.field, args.modulus)
    try:
        tag = Tag(args.tag.upper())
    except ValueError:
        raise UsageError(f"unknown tag {args.tag!r}") from None
    planted = oracle.Planted(args.planted)
    profile = None
    if args.profile is not None:
        try:
            profile = tuple(map(fileio.decimal, args.profile.split(",")))
        except ValueError:
            raise UsageError(f"bad --profile value {args.profile!r}") from None
    try:
        spec = oracle.GenSpec(fld, args.k, args.n, tag, planted, args.seed, profile)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    got = oracle.generate(spec)
    fileio.write_text(args.out, fileio.serialize_instance(got.instance))
    print(f"gen: wrote {planted.value} {tag.value} instance ({args.k}x{args.n} over {fld!r}) to {args.out}")
    if got.witness is not None:
        wpath = args.witness_out or args.out + ".wit"
        fileio.write_text(wpath, fileio.serialize_witness(fld, got.witness))
        print(f"gen: wrote planted witness to {wpath}")
    return EXIT_OK


def cmd_reduce(args) -> int:
    inst = _load_instance(getattr(args, "in"))
    if inst.tag is not Tag.PCE:
        raise UsageError(f"reduce expects a PCE instance, got {inst.tag.value}")
    target = Tag.LCE if args.target == "lce" else Tag.SPCE
    reduced, cert = reduction.reduce_instance(inst, target)
    fileio.write_text(args.out, fileio.serialize_instance(reduced, cert.reject_reason))
    fileio.write_text(args.cert_out, fileio.serialize_cert(cert))
    if cert.rejected or cert.degenerate:
        why = (f"refuted in preprocessing ({cert.reject_reason.value})" if cert.rejected
               else "has no non-zero column (degenerate)")
        answer = "NO" if cert.rejected else "YES"
        print(f"reduce: input {why}; wrote canonical {answer} {target.value} instance to {args.out}")
    else:
        print(
            f"reduce: {inst.k}x{inst.n} PCE -> {reduced.k}x{reduced.n} {target.value} "
            f"(m={cert.m}), instance to {args.out}, cert to {args.cert_out}"
        )
    return EXIT_OK


def cmd_solve(args) -> int:
    mode = oracle.Mode(args.mode)
    try:
        time_limit = None if args.time_limit is None else fileio.seconds(args.time_limit)
        budget = oracle.Budget(max_nodes=args.max_nodes, time_limit=time_limit, mode=mode)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    inst = _load_instance(getattr(args, "in"))
    res = oracle.decide(inst, budget)
    print(
        f"solve: {res.status.value} ({inst.tag.value} {inst.k}x{inst.n} over {inst.field!r}, "
        f"{mode.value}, nodes={res.nodes}, {res.elapsed:.3f}s)"
        + (f" [{res.detail}]" if res.detail else "")
    )
    if res.status is oracle.Status.YES and args.witness_out:
        fileio.write_text(args.witness_out, fileio.serialize_witness(inst.field, res.witness))
        print(f"solve: wrote witness to {args.witness_out}")
    if args.stats:
        _append_stats(args.stats, getattr(args, "in"), inst, mode, res)
    if res.status is oracle.Status.YES:
        return EXIT_OK
    if res.status is oracle.Status.NO:
        return EXIT_NO
    return EXIT_BUDGET


def _append_stats(path: str, instance_path: str, inst: Instance, mode: oracle.Mode, res) -> None:
    p = Path(path)
    # an empty file, as mktemp leaves one, gets the header too
    new = not p.exists() or p.stat().st_size == 0
    with p.open("a", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        if new:
            wr.writerow(
                ["instance", "tag", "q", "k", "n", "mode", "workers", "status", "nodes", "elapsed_s"]
            )
        wr.writerow(
            [
                instance_path,
                inst.tag.value,
                inst.field.q,
                inst.k,
                inst.n,
                mode.value,
                1,  # the workers column, kept so that the layout does not move
                res.status.value,
                res.nodes,
                f"{res.elapsed:.6f}",
            ]
        )


def cmd_verify(args) -> int:
    inst = _load_instance(args.instance)
    w = _load_witness(args.witness, inst.field)
    try:
        ok = verify_witness(inst, w)
    except CeqError as exc:
        print(f"verify: FAIL ({exc})")
        return EXIT_NO
    if ok:
        print(f"verify: OK ({inst.tag.value} witness for {args.instance})")
        return EXIT_OK
    print("verify: FAIL (witness does not satisfy the instance)")
    return EXIT_NO


def cmd_lift(args) -> int:
    original = _load_instance(args.instance)
    cert = fileio.read_cert(args.cert, original)
    w = _load_witness(args.witness, original.field)
    if cert.rejected:
        raise WitnessInvalid("cannot lift a witness through a rejected reduction")
    w_norm = map_witness_to_normalized(cert.journal, w)
    lifted = reduction.lift_witness(cert, w_norm)
    fileio.write_text(args.out, fileio.serialize_witness(original.field, lifted))
    print(f"lift: wrote witness for the reduced pair to {args.out}")
    return EXIT_OK


def cmd_extract(args) -> int:
    original = _load_instance(args.instance)
    cert = fileio.read_cert(args.cert, original)
    w = _load_witness(args.witness, original.field)
    if cert.rejected:
        raise WitnessInvalid("cannot extract a witness from a rejected reduction")
    norm = cert.journal.normalized
    extracted = reduction.extract_witness(cert, norm.G, norm.H, w)
    out = map_witness_to_original(cert.journal, extracted)
    fileio.write_text(args.out, fileio.serialize_witness(original.field, out))
    print(f"extract: wrote PCE witness for {args.instance} to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ceq",
        description="Code equivalence toolkit: generate, reduce, solve, verify, lift, extract.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance (and witness for planted YES)")
    g.add_argument("--k", type=fileio.decimal, required=True)
    g.add_argument("--n", type=fileio.decimal, required=True)
    g.add_argument("--field", required=True, help="p or p^e, e.g. 5 or 2^2")
    g.add_argument("--modulus", help="extension modulus c0,c1,...,1 (little-endian, monic)")
    g.add_argument("--tag", required=True, help="PCE, SPCE, or LCE")
    g.add_argument("--planted", choices=["yes", "no", "unlabeled"], required=True)
    g.add_argument("--seed", type=fileio.decimal, required=True)
    g.add_argument("--profile", help="column multiplicity hint, e.g. 2,1,1")
    g.add_argument("--out", required=True)
    g.add_argument("--witness-out")
    g.set_defaults(func=cmd_gen)

    r = sub.add_parser("reduce", help="Karp-reduce a PCE instance to LCE or SPCE")
    r.add_argument("--in", required=True)
    r.add_argument("--target", choices=["lce", "spce"], required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--cert-out", required=True)
    r.set_defaults(func=cmd_reduce)

    s = sub.add_parser("solve", help="decide an instance by brute force")
    s.add_argument("--in", required=True)
    s.add_argument("--mode", choices=["exhaustive", "backtracking"], default="exhaustive")
    s.add_argument("--max-nodes", type=fileio.decimal, default=100_000_000)
    s.add_argument("--time-limit", help="seconds, e.g. 2 or 0.5")
    s.add_argument("--witness-out")
    s.add_argument("--stats", help="append a CSV summary row to this path")
    s.set_defaults(func=cmd_solve)

    v = sub.add_parser("verify", help="check a witness against an instance")
    v.add_argument("--instance", required=True)
    v.add_argument("--witness", required=True)
    v.set_defaults(func=cmd_verify)

    l = sub.add_parser("lift", help="lift an original-instance witness to the reduced pair")
    l.add_argument("--cert", required=True)
    l.add_argument("--instance", required=True, help="the original (pre-reduction) instance file")
    l.add_argument("--witness", required=True)
    l.add_argument("--out", required=True)
    l.set_defaults(func=cmd_lift)

    e = sub.add_parser("extract", help="extract an original-instance witness from a reduced-pair witness")
    e.add_argument("--cert", required=True)
    e.add_argument("--instance", required=True, help="the original (pre-reduction) instance file")
    e.add_argument("--witness", required=True)
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_extract)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except StructureViolation as exc:
        print(f"error: structure violation: {exc}", file=sys.stderr)
        return EXIT_STRUCTURE
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except WitnessInvalid as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO
    except (CeqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
