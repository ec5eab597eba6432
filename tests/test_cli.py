import csv
import subprocess
import sys

import pytest

from ceq import fileio
from ceq.cli import main
from ceq.matrix import MAX_DIM

from helpers import src_env


def run(args):
    return main([str(a) for a in args])


def run_module(args, timeout):
    """`python -m ceq` on args in a child interpreter that finds this
    checkout's package."""
    return subprocess.run([sys.executable, "-m", "ceq", *map(str, args)], env=src_env(),
                          capture_output=True, text=True, timeout=timeout)


def test_gen_verify_roundtrip(tmp_path):
    inst = tmp_path / "inst.ceq"
    assert run(["gen", "--k", 2, "--n", 3, "--field", 2, "--tag", "PCE",
                "--planted", "yes", "--seed", 1, "--out", inst]) == 0
    wit = tmp_path / "inst.ceq.wit"
    assert wit.exists()
    assert run(["verify", "--instance", inst, "--witness", wit]) == 0


def test_gen_rejects_composite_field(tmp_path, capsys):
    rc = run(["gen", "--k", 1, "--n", 2, "--field", 4, "--tag", "PCE",
              "--planted", "yes", "--seed", 1, "--out", tmp_path / "x.ceq"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "2^2" in err  # points at the extension syntax


def test_gen_same_seed_same_bytes(tmp_path):
    paths = []
    for name in ("a", "b"):
        inst = tmp_path / f"{name}.ceq"
        wit = tmp_path / f"{name}.wit"
        assert run(["gen", "--k", 2, "--n", 4, "--field", "3^2", "--tag", "LCE",
                    "--planted", "yes", "--seed", 42, "--out", inst,
                    "--witness-out", wit]) == 0
        paths.append((inst.read_bytes(), wit.read_bytes()))
    assert paths[0] == paths[1]


def test_gen_unlabeled_with_k_above_n(tmp_path):
    out = tmp_path / "u.inst"
    assert run(["gen", "--k", 3, "--n", 2, "--field", 3, "--tag", "PCE",
                "--planted", "unlabeled", "--seed", 1, "--out", out]) == 0
    assert out.exists()


def test_gen_budget_exit_code(tmp_path):
    rc = run(["gen", "--k", 1, "--n", 1, "--field", 2, "--tag", "PCE",
              "--planted", "no", "--seed", 1, "--out", tmp_path / "x.ceq"])
    assert rc == 3


def test_usage_errors(tmp_path, capsys):
    assert run(["solve"]) == 2
    assert run(["frobnicate"]) == 2
    capsys.readouterr()
    assert run(["gen", "--k", 1, "--n", 2, "--field", 2, "--tag", "XYZ",
                "--planted", "yes", "--seed", 1, "--out", tmp_path / "x.ceq"]) == 2
    assert "unknown tag 'XYZ'" in capsys.readouterr().err
    assert not (tmp_path / "x.ceq").exists()


def test_reduce_header_dims(tmp_path):
    inst = tmp_path / "i.ceq"
    red = tmp_path / "r.ceq"
    cert = tmp_path / "r.cert"
    run(["gen", "--k", 2, "--n", 2, "--field", 2, "--tag", "PCE",
         "--planted", "yes", "--seed", 9, "--out", inst])
    assert run(["reduce", "--in", inst, "--target", "lce", "--out", red,
                "--cert-out", cert]) == 0
    body = red.read_text()
    assert "G 3 11" in body and "H 3 11" in body and "tag LCE" in body


def test_reduce_reject_reason_in_output(tmp_path, capsys):
    inst = tmp_path / "i.ceq"
    inst.write_text("%CEQ 1\nfield 2\ntag PCE\nG 1 2\n1 0\nH 1 2\n1 1\n")
    red = tmp_path / "r.ceq"
    cert = tmp_path / "r.cert"
    assert run(["reduce", "--in", inst, "--target", "spce", "--out", red,
                "--cert-out", cert]) == 0
    assert "reject-reason ZeroColumnCountMismatch" in red.read_text()
    assert "cert rejected" in cert.read_text()
    # a rejected reduction carries no witness either way
    wit = tmp_path / "i.wit"
    wit.write_text("%CEQ 1\nfield 2\nS 1 1\n1\nperm 1 2\ndiag 1 1\n")
    capsys.readouterr()
    for command in ("lift", "extract"):
        out = tmp_path / f"{command}.wit"
        assert run([command, "--cert", cert, "--instance", inst, "--witness", wit, "--out", out]) == 1
        assert "rejected reduction" in capsys.readouterr().err
        assert not out.exists()


def test_reduce_rejects_non_pce(tmp_path):
    inst = tmp_path / "i.ceq"
    inst.write_text("%CEQ 1\nfield 2\ntag LCE\nG 1 1\n1\nH 1 1\n1\n")
    assert run(["reduce", "--in", inst, "--target", "lce",
                "--out", tmp_path / "r.ceq", "--cert-out", tmp_path / "c"]) == 2


def test_full_pipeline_lift_and_extract(tmp_path):
    inst = tmp_path / "i.ceq"
    red = tmp_path / "r.ceq"
    cert = tmp_path / "r.cert"
    run(["gen", "--k", 2, "--n", 3, "--field", 5, "--tag", "PCE",
         "--planted", "yes", "--seed", 11, "--out", inst])
    run(["reduce", "--in", inst, "--target", "lce", "--out", red, "--cert-out", cert])
    lifted = tmp_path / "lifted.wit"
    assert run(["lift", "--cert", cert, "--instance", inst,
                "--witness", tmp_path / "i.ceq.wit", "--out", lifted]) == 0
    assert run(["verify", "--instance", red, "--witness", lifted]) == 0
    # a CRLF copy of the cert is the same cert
    crlf = tmp_path / "crlf.cert"
    crlf.write_bytes(cert.read_bytes().replace(b"\n", b"\r\n"))
    assert run(["lift", "--cert", crlf, "--instance", inst,
                "--witness", tmp_path / "i.ceq.wit", "--out", tmp_path / "crlf.wit"]) == 0
    assert (tmp_path / "crlf.wit").read_bytes() == lifted.read_bytes()
    solved = tmp_path / "solved.wit"
    assert run(["solve", "--in", red, "--mode", "backtracking",
                "--witness-out", solved]) == 0
    extracted = tmp_path / "extracted.wit"
    assert run(["extract", "--cert", cert, "--instance", inst,
                "--witness", solved, "--out", extracted]) == 0
    assert run(["verify", "--instance", inst, "--witness", extracted]) == 0


def _gen_pce(tmp_path, name, fld, seed, tag="PCE"):
    inst = tmp_path / f"{name}.ceq"
    assert run(["gen", "--k", 2, "--n", 4, "--field", fld, "--tag", tag,
                "--planted", "yes", "--seed", seed, "--out", inst]) == 0
    return inst


def _reduce(tmp_path, inst):
    cert = tmp_path / f"{inst.stem}.cert"
    assert run(["reduce", "--in", inst, "--target", "lce",
                "--out", tmp_path / f"{inst.stem}.red", "--cert-out", cert]) == 0
    return cert


def _rejected_gf2_cert(tmp_path):
    inst = tmp_path / "rej.ceq"
    inst.write_text("%CEQ 1\nfield 2\ntag PCE\nG 1 2\n1 0\nH 1 2\n1 1\n")
    cert = _reduce(tmp_path, inst)
    assert "cert rejected" in cert.read_text()
    return cert


def _mismatch_gf5_yes(tmp_path):
    return _rejected_gf2_cert(tmp_path), _gen_pce(tmp_path, "yes5", 5, 3)


def _mismatch_non_pce(tmp_path):
    return _rejected_gf2_cert(tmp_path), _gen_pce(tmp_path, "lce2", 2, 3, tag="LCE")


def _mismatch_same_shape(tmp_path):
    other = _gen_pce(tmp_path, "other", 5, 6)
    return _reduce(tmp_path, other), _gen_pce(tmp_path, "mine", 5, 5)


@pytest.mark.parametrize("command", ["lift", "extract"])
@pytest.mark.parametrize(
    "make",
    [_mismatch_gf5_yes, _mismatch_non_pce, _mismatch_same_shape],
    ids=["rejected-gf2-cert-gf5-yes", "rejected-cert-non-pce", "cert-of-same-shape-instance"],
)
def test_cert_of_another_instance_is_malformed_input(tmp_path, capsys, command, make):
    cert, inst = make(tmp_path)
    out = tmp_path / "out.wit"
    capsys.readouterr()
    rc = run([command, "--cert", cert, "--instance", inst,
              "--witness", str(inst) + ".wit", "--out", out])
    err = capsys.readouterr().err
    assert rc == 2
    assert "error:" in err and "Traceback" not in err
    assert not out.exists()


def test_solve_no_and_exit_codes(tmp_path):
    inst = tmp_path / "no.ceq"
    run(["gen", "--k", 1, "--n", 2, "--field", 2, "--tag", "PCE",
         "--planted", "no", "--seed", 3, "--out", inst])
    assert run(["solve", "--in", inst, "--mode", "exhaustive"]) == 1
    # reduced NO stays NO
    red = tmp_path / "no-red.ceq"
    cert = tmp_path / "no-red.cert"
    run(["reduce", "--in", inst, "--target", "lce", "--out", red, "--cert-out", cert])
    assert run(["solve", "--in", red, "--mode", "exhaustive"]) == 1


def test_solve_unknown_budget_exit(tmp_path):
    inst = tmp_path / "i.ceq"
    run(["gen", "--k", 2, "--n", 5, "--field", 5, "--tag", "LCE",
         "--planted", "unlabeled", "--seed", 13, "--out", inst])
    rc = run(["solve", "--in", inst, "--mode", "exhaustive", "--max-nodes", 2])
    assert rc in (0, 3)  # YES can legitimately appear before the budget bites


@pytest.mark.parametrize(
    "flag, value",
    [("--max-nodes", "0"), ("--time-limit", "nan"), ("--time-limit", "-1"),
     # float() reads these as 10, 1, inf, inf and inf
     ("--time-limit", "1_0"), ("--time-limit", "١"), ("--time-limit", "inf"), ("--time-limit", "1e400"),
     pytest.param("--time-limit", "1" + "0" * 400, id="--time-limit-400-digits")],
)
def test_solve_rejects_bad_budget_flags(tmp_path, capsys, flag, value):
    inst = tmp_path / "i.ceq"
    run(["gen", "--k", 1, "--n", 2, "--field", 2, "--tag", "PCE",
         "--planted", "yes", "--seed", 2, "--out", inst])
    capsys.readouterr()
    assert run(["solve", "--in", inst, flag, value]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error:")
    assert "Traceback" not in out + err
    assert not out  # refused before any search


def test_solve_stats_csv(tmp_path):
    inst = tmp_path / "i.ceq"
    stats = tmp_path / "stats.csv"
    run(["gen", "--k", 1, "--n", 2, "--field", 2, "--tag", "PCE",
         "--planted", "yes", "--seed", 2, "--out", inst])
    assert run(["solve", "--in", inst, "--stats", stats]) == 0
    assert run(["solve", "--in", inst, "--stats", stats]) == 0
    with stats.open(newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    # harnesses read the columns by position: status is index 7
    assert header == ["instance", "tag", "q", "k", "n", "mode", "workers", "status", "nodes", "elapsed_s"]
    assert len(rows) == 2
    for row in rows:
        assert len(row) == 10
        assert row[:8] == [str(inst), "PCE", "2", "1", "2", "exhaustive", "1", "YES"]


def test_verify_fail_exit(tmp_path, capsys):
    inst = tmp_path / "i.ceq"
    other = tmp_path / "j.ceq"
    run(["gen", "--k", 2, "--n", 3, "--field", 3, "--tag", "PCE",
         "--planted", "yes", "--seed", 21, "--out", inst])
    run(["gen", "--k", 2, "--n", 3, "--field", 3, "--tag", "PCE",
         "--planted", "yes", "--seed", 22, "--out", other])
    assert run(["verify", "--instance", inst, "--witness", str(other) + ".wit"]) == 1
    # a witness over another field is malformed input, not a NO
    gf5 = tmp_path / "k.ceq"
    run(["gen", "--k", 2, "--n", 3, "--field", 5, "--tag", "PCE",
         "--planted", "yes", "--seed", 21, "--out", gf5])
    capsys.readouterr()
    assert run(["verify", "--instance", inst, "--witness", str(gf5) + ".wit"]) == 2
    err = capsys.readouterr().err
    assert "witness field GF(5)" in err and "instance field GF(3)" in err


def test_witness_shaped_for_another_instance_exits_1(tmp_path, capsys):
    # the lifted witness of a 2x3 instance has a 3x3 S and does not fit a
    # 2x2 original, its cert or its reduced pair: every command reads it
    # as a witness that does not verify
    def pipeline(name, n, seed):
        inst = tmp_path / f"{name}.ceq"
        cert = tmp_path / f"{name}.cert"
        assert run(["gen", "--k", 2, "--n", n, "--field", 5, "--tag", "PCE",
                    "--planted", "yes", "--seed", seed, "--out", inst]) == 0
        assert run(["reduce", "--in", inst, "--target", "lce",
                    "--out", tmp_path / f"{name}.red", "--cert-out", cert]) == 0
        lifted = tmp_path / f"{name}.lifted"
        assert run(["lift", "--cert", cert, "--instance", inst,
                    "--witness", str(inst) + ".wit", "--out", lifted]) == 0
        return inst, cert, lifted

    inst, cert, _ = pipeline("small", 2, 5)
    _, _, lifted = pipeline("other", 3, 11)
    capsys.readouterr()
    assert run(["verify", "--instance", inst, "--witness", lifted]) == 1
    for command in ("lift", "extract"):
        out = tmp_path / f"{command}.wit"
        assert run([command, "--cert", cert, "--instance", inst,
                    "--witness", lifted, "--out", out]) == 1
        assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("error:") == 2 and "Traceback" not in err


def test_degenerate_reduction_names_its_path_and_checks_witnesses(tmp_path, capsys):
    # an all-zero pair reduces to the canonical YES pair; lift takes the
    # original's witness to that pair's, and extract takes only a witness
    # of that pair, not one shaped for the original
    inst = tmp_path / "z.ceq"
    inst.write_text("%CEQ 1\nfield 3\ntag PCE\nG 2 3\n0 0 0\n0 0 0\nH 2 3\n0 0 0\n0 0 0\n")
    red, cert = tmp_path / "z.red", tmp_path / "z.cert"
    capsys.readouterr()
    assert run(["reduce", "--in", inst, "--target", "lce", "--out", red, "--cert-out", cert]) == 0
    summary = capsys.readouterr().out
    assert "degenerate" in summary and "canonical YES LCE" in summary and "m=" not in summary
    assert "cert degenerate" in cert.read_text()
    ident, lifted = tmp_path / "i.wit", tmp_path / "l.wit"
    ident.write_text("%CEQ 1\nfield 3\nS 2 2\n1 0\n0 1\nperm 1 2 3\ndiag 1 1 1\n")
    assert run(["lift", "--cert", cert, "--instance", inst, "--witness", ident, "--out", lifted]) == 0
    assert lifted.read_text() == "%CEQ 1\nfield 3\nS 1 1\n1\nperm 1\ndiag 1\n"
    other = tmp_path / "o.ceq"
    assert run(["gen", "--k", 2, "--n", 2, "--field", 3, "--tag", "PCE",
                "--planted", "yes", "--seed", 1, "--out", other]) == 0
    out = tmp_path / "x.wit"
    assert run(["extract", "--cert", cert, "--instance", inst,
                "--witness", str(other) + ".wit", "--out", out]) == 1
    assert not out.exists()
    solved = tmp_path / "solved.wit"
    assert run(["solve", "--in", red, "--witness-out", solved]) == 0
    assert run(["extract", "--cert", cert, "--instance", inst,
                "--witness", solved, "--out", out]) == 0
    assert run(["verify", "--instance", inst, "--witness", out]) == 0


def test_extract_structure_violation_exit_code(tmp_path, capsys):
    inst = tmp_path / "i.ceq"
    red = tmp_path / "r.ceq"
    cert = tmp_path / "r.cert"
    run(["gen", "--k", 2, "--n", 2, "--field", 2, "--tag", "PCE",
         "--planted", "yes", "--seed", 5, "--out", inst])
    run(["reduce", "--in", inst, "--target", "lce", "--out", red, "--cert-out", cert])
    lifted = tmp_path / "lifted.wit"
    run(["lift", "--cert", cert, "--instance", inst,
         "--witness", tmp_path / "i.ceq.wit", "--out", lifted])
    # corrupt the permutation so it crosses gadget blocks
    text = lifted.read_text().splitlines()
    for idx, line in enumerate(text):
        if line.startswith("perm "):
            parts = line.split()
            parts[1], parts[3] = parts[3], parts[1]
            text[idx] = " ".join(parts)
    lifted.write_text("\n".join(text) + "\n")
    rc = run(["extract", "--cert", cert, "--instance", inst,
              "--witness", lifted, "--out", tmp_path / "x.wit"])
    assert rc == 4
    assert "block" in capsys.readouterr().err


def test_malformed_file_exit(tmp_path):
    bad = tmp_path / "bad.ceq"
    bad.write_text("%CEQ 9\n")
    assert run(["solve", "--in", bad]) == 2


def test_non_decimal_numerals_are_malformed_input(tmp_path, capsys):
    # int() reads "0_1" as 1 and "\u0661" (Arabic-Indic one) as 1; neither
    # is a numeral the writer produces
    inst = tmp_path / "i.ceq"
    inst.write_text("%CEQ 1\nfield 2\ntag PCE\nG 1 2\n0 1\nH 1 2\n0 0_1\n")
    assert run(["solve", "--in", inst]) == 2
    assert capsys.readouterr().err.startswith(f"error: {inst}:7: expected integers")
    inst.write_text(inst.read_text().replace("0 0_1", "0 1"))
    wit = tmp_path / "i.wit"
    wit.write_text("%CEQ 1\nfield 2\nS 1 1\n1\nperm 1 2\ndiag 1 1\n")
    assert run(["verify", "--instance", inst, "--witness", wit]) == 0
    wit.write_text(wit.read_text().replace("perm 1 2", "perm \u0661 2"))
    capsys.readouterr()
    assert run(["verify", "--instance", inst, "--witness", wit]) == 2
    assert capsys.readouterr().err.startswith(f"error: {wit}:5: bad permutation entries")


# each flag value that holds a number, with {} where the numeral goes;
# int() reads "0_2" as 2 and "+1", "١" (Arabic-Indic) and "１"
# (fullwidth) as 1, so with int() the gen cases at 0_2 write a file
_GEN_FLAGS = {"--k": "1", "--n": "2", "--field": "3", "--seed": "1"}
_NUMBER_FLAGS = [
    ("--k", "{}"), ("--n", "{}"), ("--seed", "{}"), ("--field", "{}^2"), ("--field", "3^{}"),
    ("--modulus", "2,{},1"), ("--profile", "{},1"), ("--max-nodes", "{}"),
]


@pytest.mark.parametrize("numeral", ["0_2", "+1", "-0", "١", "１"])
@pytest.mark.parametrize("flag, template", _NUMBER_FLAGS)
def test_flags_read_numbers_as_ascii_decimal(tmp_path, capsys, flag, template, numeral):
    out = tmp_path / "out"
    value = template.format(numeral)
    if flag == "--max-nodes":
        inst = _gen_pce(tmp_path, "i", 3, 4)
        argv = ["solve", "--in", inst, "--witness-out", out, flag, value]
    else:
        flags = dict(_GEN_FLAGS, **{flag: value})
        if flag == "--modulus":
            flags["--field"] = "3^2"
        argv = ["gen", *(x for kv in flags.items() for x in kv), "--tag", "PCE",
                "--planted", "yes", "--out", out]
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not out.exists()
    assert not (tmp_path / "out.wit").exists()


def test_negative_seed_is_still_a_number(tmp_path):
    out = tmp_path / "x.ceq"
    assert run(["gen", "--k", 1, "--n", 2, "--field", 3, "--tag", "PCE",
                "--planted", "yes", "--seed", -3, "--out", out]) == 0
    assert out.exists()


@pytest.mark.parametrize(
    "command, bad",
    [("verify", "--instance"), ("verify", "--witness"), ("solve", "--in"), ("reduce", "--in"),
     ("lift", "--cert"), ("extract", "--witness")],
)
def test_non_utf8_input_is_malformed_input(tmp_path, capsys, command, bad):
    inst = _gen_pce(tmp_path, "i", 3, 4)
    wit = str(inst) + ".wit"
    cert = _reduce(tmp_path, inst)
    out = tmp_path / "out"
    argv = {
        "verify": ["--instance", inst, "--witness", wit],
        "solve": ["--in", inst],
        "reduce": ["--in", inst, "--target", "lce", "--out", out, "--cert-out", tmp_path / "r.cert"],
        "lift": ["--cert", cert, "--instance", inst, "--witness", wit, "--out", out],
        "extract": ["--cert", cert, "--instance", inst, "--witness", wit, "--out", out],
    }[command]
    garbled = tmp_path / "garbled"
    garbled.write_bytes(b"\xff\xfe%CEQ 1\n")
    argv[argv.index(bad) + 1] = garbled
    capsys.readouterr()
    rc = run([command, *argv])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {garbled}: not UTF-8 text")
    assert "Traceback" not in err
    assert not out.exists()


def test_module_entry_point_smoke(tmp_path):
    out = tmp_path / "m.ceq"
    proc = run_module(["gen", "--k", 1, "--n", 2, "--field", 2, "--tag", "PCE",
                       "--planted", "yes", "--seed", 0, "--out", out], timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


@pytest.mark.parametrize("spec", ["1000000000000000003", "3^100000000"])
@pytest.mark.parametrize("source", ["file", "flag"])
def test_oversized_field_spec_exits_promptly(tmp_path, spec, source):
    # a subprocess with a timeout, so a field check that runs is_prime or
    # p**e on the raw spec fails the test instead of hanging the suite
    if source == "file":
        inst = tmp_path / "big.ceq"
        inst.write_text(f"%CEQ 1\nfield {spec}\ntag PCE\nG 1 2\n1 1\nH 1 2\n1 1\n")
        args = ["solve", "--in", str(inst)]
    else:
        args = ["gen", "--k", "1", "--n", "2", "--field", spec, "--tag", "PCE",
                "--planted", "yes", "--seed", "0", "--out", str(tmp_path / "x.ceq")]
    proc = run_module(args, timeout=10)
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("width, code", [(MAX_DIM, 0), (MAX_DIM + 1, 2), (10**30, 2)])
@pytest.mark.parametrize("command", ["reduce", "solve", "gen"])
def test_declared_widths_exit_promptly(tmp_path, command, width, code):
    # a matrix with no rows has no entries to bound its width: a pair as
    # wide as MAX_DIM is reduced, decided within a 1-s limit (as YES) and
    # generated, and a wider one is refused before anything is built or
    # scanned for it
    inst = tmp_path / "wide.ceq"
    inst.write_text(f"%CEQ 1\nfield 2\ntag PCE\nG 0 {width}\nH 0 {width}\n")
    args = {
        "reduce": ["reduce", "--in", inst, "--target", "lce", "--out", tmp_path / "r.ceq",
                   "--cert-out", tmp_path / "r.cert"],
        "solve": ["solve", "--in", inst, "--time-limit", "1"],
        "gen": ["gen", "--k", "0", "--n", width, "--field", "2", "--tag", "PCE",
                "--planted", "unlabeled", "--seed", "0", "--out", tmp_path / "g.ceq"],
    }[command]
    proc = run_module(args, timeout=10)
    assert proc.returncode == code
    assert ("error:" in proc.stderr) == bool(code)
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("n, code", [(180, 0), (181, 2)])
def test_reduce_writes_no_gadget_that_a_file_cannot_hold(tmp_path, capsys, n, code):
    # one row of n equal columns has multiplicity n, so its gadget is
    # 2 x (n + 2n(n+1) + 1): 65,341 columns at n = 180 and 66,066 at
    # n = 181, past MAX_DIM = 65,536. What reduce writes reads back; what
    # could not, reduce refuses before building it
    assert MAX_DIM == 65536
    inst = tmp_path / "equal.ceq"
    row = " ".join(["1"] * n)
    inst.write_text(f"%CEQ 1\nfield 2\ntag PCE\nG 1 {n}\n{row}\nH 1 {n}\n{row}\n")
    out, cert = tmp_path / "r.ceq", tmp_path / "r.cert"
    assert run(["reduce", "--in", inst, "--target", "lce", "--out", out, "--cert-out", cert]) == code
    if code:
        assert capsys.readouterr().err == "error: the gadget would have 66066 columns, above 65536\n"
        assert not out.exists() and not cert.exists()
        return
    reduced, _ = fileio.read_instance(out)
    assert (reduced.k, reduced.n) == (2, 65341)
    original, _ = fileio.read_instance(inst)
    assert fileio.parse_cert(cert.read_text(), original).n_prime == 65341


@pytest.mark.parametrize("which, old, new", [
    ("instance", "\n", "\u2028"),
    ("instance", "\n", "\x85"),
    ("instance", " ", "\u3000"),
    ("witness", " ", "\u3000"),
    ("witness", "\n", "\x0b"),
])
def test_verify_refuses_foreign_separators(tmp_path, capsys, which, old, new):
    # str.splitlines and str.split take these, the writer writes none of
    # them: a file that uses one is a format error, not a valid file. The
    # instance's lines after the magic, or the witness's perm and diag
    # lines, are rewritten
    inst = tmp_path / "x.ceq"
    wit = tmp_path / "x.wit"
    assert run(["gen", "--k", 2, "--n", 4, "--field", 5, "--tag", "LCE",
                "--planted", "yes", "--seed", 3, "--out", inst, "--witness-out", wit]) == 0
    assert run(["verify", "--instance", inst, "--witness", wit]) == 0
    path = {"instance": inst, "witness": wit}[which]
    text = path.read_text()
    cut = text.index("\n") + 1 if which == "instance" else text.index("perm")
    path.write_text(text[:cut] + text[cut:-1].replace(old, new) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert run(["verify", "--instance", inst, "--witness", wit]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:")
    assert "Traceback" not in err


def test_solve_has_no_workers_flag(tmp_path):
    inst = tmp_path / "x.ceq"
    wit = tmp_path / "x.wit"
    assert run(["gen", "--k", 2, "--n", 4, "--field", 3, "--tag", "SPCE",
                "--planted", "yes", "--seed", 31, "--out", inst]) == 0
    proc = run_module(["solve", "--in", inst, "--witness-out", wit, "--workers", 2], timeout=60)
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert not wit.exists()


@pytest.mark.parametrize("mode", ["exhaustive", "backtracking"])
@pytest.mark.parametrize("p, tag, ones, twos", [
    (5, "LCE", 1100, 1), (2, "PCE", 1500, 1500), (2, "LCE", 1500, 1500), (3, "SPCE", 1500, 1500),
])
def test_solve_pins_long_runs_without_deep_recursion(tmp_path, mode, p, tag, ones, twos):
    # G = H = [1...1 0...0; 0...0 1...1], `ones` equal columns and then
    # `twos`. The backtracker pins a column per search level until the
    # slots reach rank 2 in one component: at least the whole first of two
    # classes of 1,500, and every column over GF(5), where the two slots'
    # scalars never join. Either is deeper than Python's default frame
    # limit. Both modes answer YES
    n = ones + twos
    rows = " ".join(["1"] * ones + ["0"] * twos) + "\n" + " ".join(["0"] * ones + ["1"] * twos)
    inst = tmp_path / "runs.ceq"
    inst.write_text(f"%CEQ 1\nfield {p}\ntag {tag}\nG 2 {n}\n{rows}\nH 2 {n}\n{rows}\n")
    proc = run_module(["solve", "--in", inst, "--mode", mode], timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith(f"solve: YES ({tag} 2x{n} over GF({p}), {mode}, nodes=")
