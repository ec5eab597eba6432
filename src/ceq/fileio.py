"""Line-oriented text format for instances, witnesses, and reduction certs.

Every file starts with the magic line `%CEQ 1`; unknown versions are
rejected. Tokens are single-space separated (read at runs of spaces and
tabs), lines end with LF (read also at CRLF, and at nothing else),
and serialization is canonical so equal values produce byte-identical
files. Matrix entries and diagonal values use the canonical integer
element encoding (base-p coefficient packing). Permutations are written
1-based in the column convention `(A*P)[i] = A[sigma(i)]`. Every number
is written, and read, in ASCII decimal digits; `decimal`, `seconds`
and `field_spec`, which read an integer, a time and a field spec, are
public because the command-line flags read theirs through them too.

Sections, in canonical order:

    %CEQ 1
    field <p>                      or: field <p>^<e> mod <c0,c1,...,1>
    tag <PCE|SPCE|LCE>             instance files
    reject-reason <name>           reduce output on the reject path
    G <k> <n> + k rows             instance files
    H <k> <n> + k rows
    S <k> <k> + k rows             witness files
    perm <s1 ... sn>
    diag <d1 ... dn>
    target <PCE|SPCE|LCE>          cert files
    cert <n> <k> <m>               or: cert rejected | cert degenerate (n = 0)
    journal <n> <k> <rank>         cert files (non-reject path)
    removed-g [i1 ...]             1-based dropped zero-column indices
    removed-h [i1 ...]
    UG <k> <k> + k rows
    UH <k> <k> + k rows

Cert sections are written by `serialize_cert` alone. Every line of a
cert follows from the original instance and the target, so `parse_cert`
checks a cert by recomputing it and comparing lines; it never parses a
cert field by field. The `read_*` functions raise `FormatError`, naming
the path, for a file that is not UTF-8 text.
"""

from __future__ import annotations

import itertools
from pathlib import Path
from typing import Optional, Union

from . import reduction
from .core import Instance, RejectReason, Tag, Witness
from .errors import DimMismatch, FormatError
from .field import Field, field
from .matrix import MAX_DIM, Mat, Mono, Perm

MAGIC = "%CEQ 1"

PathLike = Union[str, Path]


# ---------------------------------------------------------------------------
# writing


def _field_line(fld: Field) -> str:
    if fld.e == 1:
        return f"field {fld.p}"
    coeffs = ",".join(str(c) for c in fld.modulus)
    return f"field {fld.p}^{fld.e} mod {coeffs}"


def _matrix_lines(label: str, m: Mat) -> list[str]:
    lines = [f"{label} {m.k} {m.n}"]
    lines.extend(" ".join(str(x) for x in row) for row in m.rows)
    return lines


def serialize_instance(inst: Instance, reject_reason: Optional[RejectReason] = None) -> str:
    lines = [MAGIC, _field_line(inst.field), f"tag {inst.tag.value}"]
    if reject_reason is not None:
        lines.append(f"reject-reason {reject_reason.value}")
    lines.extend(_matrix_lines("G", inst.G))
    lines.extend(_matrix_lines("H", inst.H))
    return "\n".join(lines) + "\n"


def serialize_witness(fld: Field, w: Witness) -> str:
    lines = [MAGIC, _field_line(fld)]
    lines.extend(_matrix_lines("S", w.S))
    lines.append("perm " + " ".join(str(s + 1) for s in w.M.perm.sigma))
    lines.append("diag " + " ".join(str(d) for d in w.M.diag))
    return "\n".join(lines) + "\n"


def serialize_cert(cert: reduction.ReductionCert) -> str:
    lines = [MAGIC, _field_line(cert.field), f"target {cert.target.value}"]
    if cert.rejected:
        lines.append("cert rejected")
        lines.append(f"reject-reason {cert.reject_reason.value}")
    else:
        if cert.degenerate:
            lines.append("cert degenerate")
        else:
            lines.append(f"cert {cert.n} {cert.k} {cert.m}")
        j = cert.journal
        if j is None:
            raise ValueError("cert has no journal to write: only reduction_cert makes a complete cert")
        orig = j.original
        lines.append(f"journal {orig.n} {orig.k} {j.rank}")
        lines.append(("removed-g " + " ".join(str(i + 1) for i in j.removed_g)).rstrip())
        lines.append(("removed-h " + " ".join(str(i + 1) for i in j.removed_h)).rstrip())
        lines.extend(_matrix_lines("UG", j.u_g))
        lines.extend(_matrix_lines("UH", j.u_h))
    return "\n".join(lines) + "\n"


def write_text(path: PathLike, text: str):
    Path(path).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# parsing


def decimal(token: str) -> int:
    """The number a token spells in ASCII decimal digits; ValueError for
    any other token.

    A leading '-' is read on a non-zero value, so that a negative number
    reaches the caller's range check and its message. int() alone would
    also take numerals the writer never produces: '0_1', '+1', '-0' and
    non-ASCII digits such as '١'.
    """
    negative = token.startswith("-")
    digits = token[1:] if negative else token
    if digits.isascii() and digits.isdigit() and (digits.strip("0") or not negative):
        try:
            return int(token)
        except ValueError:  # more digits than int() converts
            pass
    raise ValueError(f"not a decimal numeral: {token!r}")


def seconds(token: str) -> float:
    """The finite number a token spells in ASCII decimal digits with an
    optional '.digits' fraction; ValueError for any other token, such as
    '1_0', '-1', 'inf', 'nan', '1e400' or '١'."""
    whole, dot, frac = token.partition(".")
    if (whole + frac).isascii() and whole.isdigit() and (frac.isdigit() or not dot):
        if float(token) < float("inf"):  # float() reads 400 digits as inf
            return float(token)
    raise ValueError(f"not a number of seconds: {token!r}")


def field_spec(spec: str, modulus: Optional[str] = None) -> Field:
    """The field that spec, `p` or `p^e`, and modulus, `c0,c1,...,1` or
    None, name. A ValueError names the part that is not `decimal`."""
    try:
        coeffs = None if modulus is None else tuple(map(decimal, modulus.split(",")))
    except ValueError as exc:
        raise ValueError(f"bad field modulus ({exc})") from None
    try:
        p_e = [decimal(x) for x in spec.split("^", 1)]
    except ValueError as exc:
        raise ValueError(f"bad field spec ({exc})") from None
    return field(*p_e, modulus=coeffs)


def _tokens(line: str) -> list[str]:
    """The runs of characters other than ASCII space and tab."""
    return [t for t in line.replace("\t", " ").split(" ") if t]


class _Reader:
    def __init__(self, text: str, origin: str):
        # lines break at '\n' or CRLF alone, unlike with str.splitlines
        self.lines = text.replace("\r\n", "\n").removesuffix("\n").split("\n") if text else []
        self.pos = 0
        self.origin = origin

    def error(self, msg: str, line: Optional[int] = None) -> FormatError:
        """A FormatError naming line (1-based), by default the line taken
        last."""
        return FormatError(f"{self.origin}:{self.pos if line is None else line}: {msg}")

    def done(self) -> bool:
        return self.pos >= len(self.lines)

    def peek_key(self) -> Optional[str]:
        return None if self.done() else next(iter(_tokens(self.lines[self.pos])), "")

    def take(self) -> str:
        if self.done():
            raise self.error("unexpected end of file", self.pos + 1)
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def ints(self, tokens: list[str], msg: str) -> list[int]:
        """The numbers of the line taken last (see `decimal`), or a
        FormatError that says msg."""
        try:
            return [decimal(x) for x in tokens]
        except ValueError as exc:
            raise self.error(f"{msg} ({exc})") from None

    def take_ints(self, expected: int) -> list[int]:
        vals = self.ints(_tokens(self.take()), "expected integers")
        if len(vals) != expected:
            raise self.error(f"expected {expected} integers, got {len(vals)}")
        return vals


def _parse_magic(r: _Reader):
    line = r.take()
    if line != MAGIC:
        raise r.error(f"unknown format version (expected '{MAGIC}')")


def _parse_field(r: _Reader) -> Field:
    parts = _tokens(r.take())
    if parts[:1] != ["field"]:
        raise r.error("expected a field line")
    # `field <p>` or `field <p>^<e> mod <c0,...,1>`: no p^e without its
    # modulus, and so no p^1, since a prime field takes no modulus
    if len(parts) == 2 and "^" not in parts[1]:
        modulus = None
    elif len(parts) == 4 and parts[2] == "mod" and "^" in parts[1]:
        modulus = parts[3]
    else:
        raise r.error("bad field line")
    try:
        return field_spec(parts[1], modulus)
    except ValueError as exc:
        raise r.error(str(exc)) from None
    except Exception as exc:
        raise r.error(f"bad field spec: {exc}") from None


def _parse_matrix(r: _Reader, fld: Field, label: str) -> Mat:
    head = _tokens(r.take())
    if len(head) != 3 or head[0] != label:
        raise r.error(f"expected '{label} <k> <n>'")
    k, n = r.ints(head[1:], "bad matrix dimensions")
    if k < 0 or n < 0:
        raise r.error("negative matrix dimensions")
    if k > MAX_DIM or n > MAX_DIM:
        raise r.error(f"matrix dimensions above {MAX_DIM}")
    rows = [r.take_ints(n) for _ in range(k)]
    try:
        return Mat(fld, rows, n)
    except ValueError as exc:
        # name the row holding the first entry out of range
        bad = next(i for i, row in enumerate(rows) if not all(0 <= x < fld.q for x in row))
        raise r.error(f"bad {label} entries: {exc}", r.pos - k + bad + 1) from None


def _parse_end(r: _Reader):
    if not r.done():
        raise r.error(f"trailing content {r.lines[r.pos]!r}", r.pos + 1)


def _parse_tag(r: _Reader) -> Tag:
    parts = _tokens(r.take())
    if len(parts) != 2 or parts[0] != "tag":
        raise r.error("expected 'tag <PCE|SPCE|LCE>'")
    try:
        return Tag(parts[1])
    except ValueError:
        raise r.error(f"unknown problem tag {parts[1]!r}") from None


def parse_instance(text: str, origin: str = "<instance>") -> tuple[Instance, Optional[RejectReason]]:
    r = _Reader(text, origin)
    _parse_magic(r)
    fld = _parse_field(r)
    tag = _parse_tag(r)
    reject = None
    if r.peek_key() == "reject-reason":
        parts = _tokens(r.take())
        try:
            _, name = parts
            reject = RejectReason(name)
        except ValueError:
            raise r.error("expected 'reject-reason <name>'") from None
    g = _parse_matrix(r, fld, "G")
    h_line = r.pos + 1
    h = _parse_matrix(r, fld, "H")
    _parse_end(r)
    try:
        return Instance(fld, g, h, tag), reject
    except DimMismatch as exc:
        raise r.error(str(exc), h_line) from None


def parse_witness(text: str, origin: str = "<witness>") -> tuple[Field, Witness]:
    r = _Reader(text, origin)
    _parse_magic(r)
    fld = _parse_field(r)
    s_line = r.pos + 1
    s = _parse_matrix(r, fld, "S")
    if s.k != s.n:
        raise r.error(f"expected 'S <k> <k>', got a {s.k}x{s.n} S", s_line)
    parts = _tokens(r.take())
    if not parts or parts[0] != "perm":
        raise r.error("expected a perm line")
    perm_line = r.pos
    sigma = tuple(x - 1 for x in r.ints(parts[1:], "bad permutation entries"))
    parts = _tokens(r.take())
    if not parts or parts[0] != "diag":
        raise r.error("expected a diag line")
    diag = tuple(r.ints(parts[1:], "bad diagonal entries"))
    _parse_end(r)
    try:
        perm = Perm(sigma)
    except DimMismatch as exc:
        raise r.error(str(exc), perm_line) from None
    try:
        return fld, Witness(s, Mono(fld, perm, diag))
    except (DimMismatch, ValueError) as exc:
        raise r.error(str(exc), perm_line + 1) from None


def parse_cert(text: str, original: Instance, origin: str = "<cert>") -> reduction.ReductionCert:
    """Check a cert file against the PCE instance it was reduced from.

    Every cert line follows from the instance and the target, so the
    cert is recomputed rather than read: the file is accepted only if it
    is, line for line, what `reduce` writes for this instance and target.
    """
    if original.tag is not Tag.PCE:
        raise FormatError(f"{origin}: a cert pairs only with a PCE instance, got {original.tag.value}")
    lines = _Reader(text, origin).lines
    target = Tag.SPCE if lines[2:3] == ["target SPCE"] else Tag.LCE
    cert = reduction.reduction_cert(original, target)
    expected = serialize_cert(cert).splitlines()
    for line, (got, want) in enumerate(itertools.zip_longest(lines, expected), 1):
        if got != want:
            raise FormatError(f"{origin}:{line}: cert does not match the instance")
    return cert


def _read_text(path: PathLike) -> str:
    # text mode would turn a lone '\r' into a line break
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def read_instance(path: PathLike) -> tuple[Instance, Optional[RejectReason]]:
    return parse_instance(_read_text(path), str(path))


def read_witness(path: PathLike) -> tuple[Field, Witness]:
    return parse_witness(_read_text(path), str(path))


def read_cert(path: PathLike, original: Instance) -> reduction.ReductionCert:
    return parse_cert(_read_text(path), original, str(path))
