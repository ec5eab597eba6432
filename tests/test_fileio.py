import pytest

from ceq import fileio
from ceq.core import Instance, RejectReason, Tag, Witness
from ceq.errors import FormatError
from ceq.field import field
from ceq.matrix import Mat, Mono, Perm
from ceq.oracle import GenSpec, Planted, generate
from ceq.reduction import ReductionCert, reduce_instance
from ceq.rng import stream

from helpers import zeros

F2 = field(2)
F9 = field(3, 2)


def sample_instance():
    g = Mat(F9, [[1, 2, 0], [0, 4, 7]])
    h = Mat(F9, [[2, 1, 0], [4, 0, 7]])
    return Instance(F9, g, h, Tag.LCE)


def test_instance_roundtrip_value_and_bytes():
    inst = sample_instance()
    text = fileio.serialize_instance(inst)
    parsed, reject = fileio.parse_instance(text)
    assert parsed == inst and reject is None
    assert fileio.serialize_instance(parsed) == text


def test_instance_with_reject_reason():
    inst = Instance(F2, Mat(F2, [[1, 1]]), Mat(F2, [[1, 0]]), Tag.LCE)
    text = fileio.serialize_instance(inst, RejectReason.PROFILE_MISMATCH)
    assert "reject-reason ProfileMismatch" in text
    parsed, reject = fileio.parse_instance(text)
    assert reject is RejectReason.PROFILE_MISMATCH and parsed == inst


def test_extension_field_line_roundtrip():
    inst = sample_instance()
    text = fileio.serialize_instance(inst)
    assert "field 3^2 mod 1,0,1" in text
    parsed, _ = fileio.parse_instance(text)
    assert parsed.field is F9


def test_witness_roundtrip():
    w = Witness(Mat(F2, [[1, 1], [0, 1]]), Mono(F2, Perm((1, 0, 2)), (1, 1, 1)))
    text = fileio.serialize_witness(F2, w)
    fld, parsed = fileio.parse_witness(text)
    assert fld is F2 and parsed == w
    assert fileio.serialize_witness(fld, parsed) == text
    # permutation serialized 1-based
    assert "perm 2 1 3" in text


def test_cert_roundtrip_through_rebuild():
    rng = stream(8, "certs")
    gen = generate(GenSpec(field(5), 2, 4, Tag.PCE, Planted.YES, seed=5))
    reduced, cert = reduce_instance(gen.instance, Tag.SPCE)
    text = fileio.serialize_cert(cert)
    rebuilt = fileio.parse_cert(text, gen.instance)
    assert rebuilt == cert
    assert fileio.serialize_cert(rebuilt) == text


def test_cert_rejected_roundtrip():
    inst = Instance(F2, Mat(F2, [[1, 0]]), Mat(F2, [[1, 1]]), Tag.PCE)
    reduced, cert = reduce_instance(inst, Tag.LCE)
    text = fileio.serialize_cert(cert)
    rebuilt = fileio.parse_cert(text, inst)
    assert rebuilt.rejected and rebuilt.reject_reason is RejectReason.ZERO_COLUMN_COUNT_MISMATCH
    assert rebuilt.rejected and rebuilt.reject_reason == cert.reject_reason


def test_cert_degenerate_roundtrip():
    g = zeros(F2, 2, 0)
    inst = Instance(F2, g, g, Tag.PCE)
    reduced, cert = reduce_instance(inst, Tag.LCE)
    text = fileio.serialize_cert(cert)
    rebuilt = fileio.parse_cert(text, inst)
    assert rebuilt.n == 0


def test_cert_without_journal_is_refused_by_name():
    # a cert built by hand, not by reduction_cert, may lack its journal
    for n, k, m in ((0, 0, 1), (3, 2, 2)):
        with pytest.raises(ValueError, match="cert has no journal"):
            fileio.serialize_cert(ReductionCert(F2, Tag.LCE, n, k, m))


def test_rebuild_cert_cross_checks_instance():
    gen = generate(GenSpec(field(5), 2, 4, Tag.PCE, Planted.YES, seed=5))
    other = generate(GenSpec(field(5), 2, 4, Tag.PCE, Planted.YES, seed=6))
    _, cert = reduce_instance(gen.instance, Tag.LCE)
    text = fileio.serialize_cert(cert)
    with pytest.raises(FormatError):
        fileio.parse_cert(text, other.instance)


def test_unknown_version_rejected():
    with pytest.raises(FormatError):
        fileio.parse_instance("%CEQ 2\nfield 2\ntag PCE\nG 0 0\nH 0 0\n")


def test_malformed_inputs_rejected():
    good = fileio.serialize_instance(sample_instance())
    with pytest.raises(FormatError):
        fileio.parse_instance(good + "extra junk\n")
    with pytest.raises(FormatError):
        fileio.parse_instance("%CEQ 1\nfield 4\ntag PCE\nG 0 0\nH 0 0\n")
    with pytest.raises(FormatError):
        fileio.parse_instance("%CEQ 1\nfield 2\ntag WAT\nG 0 0\nH 0 0\n")
    with pytest.raises(FormatError):
        fileio.parse_instance("%CEQ 1\nfield 2\ntag PCE\nG 1 2\n1 2\nH 1 2\n1 0\n")
    with pytest.raises(FormatError):
        fileio.parse_witness("%CEQ 1\nfield 2\nS 1 1\n1\nperm 1 1\ndiag 1 1\n")


def _error_line(parse, text):
    with pytest.raises(FormatError) as exc:
        parse(text, "f")
    head, line, _ = str(exc.value).split(":", 2)
    assert head == "f"
    return int(line)


def _replace_line(text, number, line):
    lines = text.split("\n")
    lines[number - 1] = line
    return "\n".join(lines)


def test_format_errors_name_the_line_at_fault():
    inst = fileio.serialize_instance(sample_instance())
    # 1 magic, 2 field, 3 tag, 4 "G 2 3", 5-6 G rows, 7 "H 2 3", 8-9 H rows
    assert _error_line(fileio.parse_instance, _replace_line(inst, 1, "%CEQ 2")) == 1
    assert _error_line(fileio.parse_instance, _replace_line(inst, 2, "field 4")) == 2
    assert _error_line(fileio.parse_instance, _replace_line(inst, 3, "tag WAT")) == 3
    assert _error_line(fileio.parse_instance, _replace_line(inst, 4, "G 2")) == 4
    assert _error_line(fileio.parse_instance, _replace_line(inst, 6, "0 4 x")) == 6
    # an entry out of range names the row that holds it
    assert _error_line(fileio.parse_instance, _replace_line(inst, 5, "1 2 9")) == 5
    assert _error_line(fileio.parse_instance, _replace_line(inst, 9, "9 0 7")) == 9
    assert _error_line(fileio.parse_instance, inst + "extra junk\n") == 10
    assert _error_line(fileio.parse_instance, inst.rsplit("\n", 2)[0] + "\n") == 9
    # G and H shaped differently: the H header
    assert _error_line(fileio.parse_instance, "%CEQ 1\nfield 2\ntag PCE\nG 1 2\n1 0\nH 1 1\n1\n") == 6
    # a reject-reason line takes exactly its name
    rejected = _replace_line(inst, 3, "tag PCE\nreject-reason RankMismatch")
    fileio.parse_instance(rejected)
    assert _error_line(fileio.parse_instance, rejected.replace("RankMismatch", "RankMismatch junk")) == 4
    assert _error_line(fileio.parse_instance, rejected.replace(" RankMismatch", "")) == 4

    w = Witness(Mat(F9, [[1, 2], [0, 1]]), Mono(F9, Perm((1, 0)), (1, 2)))
    wit = fileio.serialize_witness(F9, w)
    # 1 magic, 2 field, 3 "S 2 2", 4-5 S rows, 6 perm, 7 diag
    assert len(wit.splitlines()) == 7
    assert _error_line(fileio.parse_witness, _replace_line(wit, 5, "0 9")) == 5
    assert _error_line(fileio.parse_witness, _replace_line(wit, 6, "perm 1 1")) == 6
    assert _error_line(fileio.parse_witness, _replace_line(wit, 6, "perm 1 x")) == 6
    assert _error_line(fileio.parse_witness, _replace_line(wit, 7, "diag 1 0")) == 7
    assert _error_line(fileio.parse_witness, _replace_line(wit, 7, "diag 1")) == 7
    assert _error_line(fileio.parse_witness, _replace_line(wit, 7, "dag 1 1")) == 7
    # S must be square: the S header, also when its rows parse
    assert _error_line(fileio.parse_witness, "%CEQ 1\nfield 3\nS 1 2\n1 0\nperm 1 2\ndiag 1 1\n") == 3


@pytest.mark.parametrize("numeral", ["0_1", "+1", "\u0661", "\uff11", "-0", "1.0", "0x1"])
def test_numbers_are_ascii_decimal_only(numeral):
    # int() reads the first five as 1 or 0; the writer produces none of
    # them, so each is a format error naming its line
    inst = fileio.serialize_instance(sample_instance())
    # 1 magic, 2 field, 3 tag, 4 "G 2 3", 5-6 G rows, 7 "H 2 3", 8-9 H rows
    for line, text in ((2, f"field {numeral}^2 mod 1,0,1"), (2, f"field 3^{numeral} mod 1,0,1"),
                       (2, f"field 3^2 mod 1,{numeral},1"), (4, f"G {numeral} 3"), (8, f"2 {numeral} 0")):
        assert _error_line(fileio.parse_instance, _replace_line(inst, line, text)) == line
    prime = "%CEQ 1\nfield 3\ntag PCE\nG 0 0\nH 0 0\n"
    fileio.parse_instance(prime)
    assert _error_line(fileio.parse_instance, prime.replace("field 3", f"field {numeral}")) == 2

    w = Witness(Mat(F9, [[1, 2], [0, 1]]), Mono(F9, Perm((1, 0)), (1, 2)))
    wit = fileio.serialize_witness(F9, w)
    # 1 magic, 2 field, 3 "S 2 2", 4-5 S rows, 6 perm, 7 diag
    assert _error_line(fileio.parse_witness, _replace_line(wit, 3, f"S 2 {numeral}")) == 3
    assert _error_line(fileio.parse_witness, _replace_line(wit, 6, f"perm 2 {numeral}")) == 6
    assert _error_line(fileio.parse_witness, _replace_line(wit, 7, f"diag {numeral} 2")) == 7


def test_number_checks_keep_their_messages():
    base = "%CEQ 1\nfield 3\ntag PCE\nG 1 2\n1 2\nH 1 2\n2 1\n"
    cases = (
        ("G 1 2", "G -1 2", "f:4: negative matrix dimensions"),
        ("G 1 2", "G 1 x", "f:4: bad matrix dimensions (not a decimal numeral: 'x')"),
        ("field 3", "field 0_3", "f:2: bad field spec (not a decimal numeral: '0_3')"),
        ("field 3", "field 9", "f:2: bad field spec: "),
        ("2 1\n", "-1 1\n", "f:7: bad H entries: entry -1 not in GF(3)"),
    )
    for old, new, message in cases:
        with pytest.raises(FormatError) as exc:
            fileio.parse_instance(base.replace(old, new, 1), "f")
        assert str(exc.value).startswith(message)
    # leading zeros are still ASCII decimal numerals
    assert fileio.parse_instance(base.replace("2 1\n", "02 001\n"))[0] == fileio.parse_instance(base)[0]


def test_degenerate_shapes_roundtrip():
    for k, n in ((0, 3), (2, 0), (0, 0)):
        g = zeros(F2, k, n)
        inst = Instance(F2, g, g, Tag.PCE)
        text = fileio.serialize_instance(inst)
        parsed, _ = fileio.parse_instance(text)
        assert parsed == inst


def test_generated_files_are_byte_stable():
    gen = generate(GenSpec(field(7), 2, 3, Tag.LCE, Planted.YES, seed=99))
    a = fileio.serialize_instance(gen.instance)
    b = fileio.serialize_instance(gen.instance)
    assert a == b
    assert a.endswith("\n") and "\t" not in a


def _fuzz_corpus():
    """Seeded instance, witness and cert files, each with the original
    instance its cert was built from."""
    files = []
    specs = [
        (field(2), 2, 5, (2, 1, 1, 1)),
        (field(5), 3, 6, None),
        (F9, 2, 4, None),
        (field(2, 8), 2, 4, (2, 1, 1)),
        (field(3, 6, (1, 1, 1, 0, 0, 0, 1)), 2, 3, None),
    ]
    for seed, (fld, k, n, prof) in enumerate(specs):
        gen = generate(GenSpec(fld, k, n, Tag.PCE, Planted.YES, seed, prof))
        inst = gen.instance
        _, cert = reduce_instance(inst, Tag.SPCE if seed % 2 else Tag.LCE)
        files.append(("instance", fileio.serialize_instance(inst), inst))
        files.append(("witness", fileio.serialize_witness(fld, gen.witness), inst))
        files.append(("cert", fileio.serialize_cert(cert), inst))
    rejected = Instance(F2, Mat(F2, [[1, 0]]), Mat(F2, [[1, 1]]), Tag.PCE)
    files.append(("cert", fileio.serialize_cert(reduce_instance(rejected, Tag.LCE)[1]), rejected))
    empty = Instance(F2, zeros(F2, 2, 0), zeros(F2, 2, 0), Tag.PCE)
    files.append(("cert", fileio.serialize_cert(reduce_instance(empty, Tag.LCE)[1]), empty))
    return files


# numerals that int() or float() read but the writer never produces
_FOREIGN_NUMERALS = ("0_1", "+1", "-0", "\u0661", "\uff11", "1e3", "inf", "nan")
_FUZZ_TOKENS = (
    "-1", "0", "1", "2", "3", "256", "65521", "x", "1.5", "", "^", ",", "9" * 25, "mod",
) + _FOREIGN_NUMERALS


def _mutate(text: str, rng) -> str:
    lines = text.split("\n")
    kind = rng.randrange(7)
    i = rng.randrange(len(lines))
    if kind == 0:
        # replace one token of a line
        parts = lines[i].split(" ")
        j = rng.randrange(len(parts))
        parts[j] = rng.choice(_FUZZ_TOKENS + (str(rng.randrange(-3, 300)),))
        lines[i] = " ".join(parts)
    elif kind == 1:
        del lines[i]
    elif kind == 2:
        lines.insert(i, lines[rng.randrange(len(lines))])
    elif kind == 3:
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == 4:
        return text[: rng.randrange(len(text))]
    elif kind == 5:
        pos = rng.randrange(len(text) + 1)
        return text[:pos] + rng.choice(" \t-0123456789x,^\n") + text[pos:]
    else:
        # drop one token of a line
        parts = lines[i].split(" ")
        del parts[rng.randrange(len(parts))]
        lines[i] = " ".join(parts)
    return "\n".join(lines)


def test_parser_fuzz_raises_only_ceq_errors():
    # every mutated file either parses (and then goes through the checks
    # that read it) or raises a CeqError; anything else is a crash
    from ceq.core import verify_witness
    from ceq.errors import CeqError

    rng = stream(21, "fuzz")
    corpus = _fuzz_corpus()
    outcomes = {"parsed": 0, "rejected": 0}
    crashes = []
    # mutants that carry a foreign numeral, and those of them that parsed
    carried, foreign = 0, []
    for _ in range(6000):
        kind, text, original = rng.choice(corpus)
        mutated = _mutate(text, rng)
        tokens = [t for t in mutated.split() if t in _FOREIGN_NUMERALS]
        carried += bool(tokens)
        try:
            if kind == "instance":
                fileio.parse_instance(mutated)
            elif kind == "witness":
                fld, w = fileio.parse_witness(mutated)
                if fld == original.field:
                    verify_witness(original, w)
            else:
                fileio.parse_cert(mutated, original)
            outcomes["parsed"] += 1
            foreign += [(kind, t) for t in tokens]
        except CeqError:
            outcomes["rejected"] += 1
        except Exception as exc:
            crashes.append((kind, mutated, repr(exc)))
    assert crashes == []
    assert carried >= 100 and foreign == []
    assert outcomes["rejected"] >= 3000 and outcomes["parsed"] >= 100
