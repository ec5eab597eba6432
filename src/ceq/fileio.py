"""Line-oriented text format for instances, witnesses, and reduction certs.

Every file starts with the magic line `%CEQ 1`; unknown versions are
rejected. Lines are single-space separated, files end with one newline,
and serialization is canonical so equal values produce byte-identical
files. Matrix entries and diagonal values use the canonical integer
element encoding (base-p coefficient packing). Permutations are written
1-based in the column convention `(A*P)[i] = A[sigma(i)]`.

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
    cert <n> <k> <m>               or: cert rejected | cert degenerate
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

from .core import Instance, RejectReason, Tag, Witness
from .errors import FormatError
from .field import Field, field
from .matrix import Mat, Mono, Perm
from .reduction import ReductionCert, reduction_cert

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


def serialize_cert(cert: ReductionCert) -> str:
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


class _Reader:
    def __init__(self, text: str, origin: str):
        self.lines = text.splitlines()
        self.pos = 0
        self.origin = origin

    def error(self, msg: str) -> FormatError:
        return FormatError(f"{self.origin}:{self.pos + 1}: {msg}")

    def done(self) -> bool:
        return self.pos >= len(self.lines)

    def peek_key(self) -> Optional[str]:
        if self.done():
            return None
        return self.lines[self.pos].split(" ", 1)[0]

    def take(self) -> str:
        if self.done():
            raise self.error("unexpected end of file")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def take_ints(self, expected: int) -> list[int]:
        parts = self.take().split()
        try:
            vals = [int(x) for x in parts]
        except ValueError:
            raise self.error("expected integers") from None
        if len(vals) != expected:
            raise self.error(f"expected {expected} integers, got {len(vals)}")
        return vals


def _parse_magic(r: _Reader):
    line = r.take()
    if line != MAGIC:
        raise r.error(f"unknown format version (expected '{MAGIC}')")


def _parse_field(r: _Reader) -> Field:
    line = r.take()
    parts = line.split(" ")
    if parts[0] != "field":
        raise r.error("expected a field line")
    try:
        if len(parts) == 2:
            spec = parts[1]
            if "^" in spec:
                p_s, e_s = spec.split("^", 1)
                return field(int(p_s), int(e_s))
            return field(int(spec))
        if len(parts) == 4 and parts[2] == "mod" and "^" in parts[1]:
            p_s, e_s = parts[1].split("^", 1)
            coeffs = tuple(int(c) for c in parts[3].split(","))
            return field(int(p_s), int(e_s), coeffs)
    except FormatError:
        raise
    except Exception as exc:
        raise r.error(f"bad field spec: {exc}") from None
    raise r.error("bad field line")


def _parse_matrix(r: _Reader, fld: Field, label: str) -> Mat:
    head = r.take().split()
    if len(head) != 3 or head[0] != label:
        raise r.error(f"expected '{label} <k> <n>'")
    try:
        k, n = int(head[1]), int(head[2])
    except ValueError:
        raise r.error("bad matrix dimensions") from None
    if k < 0 or n < 0:
        raise r.error("negative matrix dimensions")
    rows = [r.take_ints(n) for _ in range(k)]
    try:
        return Mat(fld, rows, n)
    except Exception as exc:
        raise r.error(f"bad {label} entries: {exc}") from None


def _parse_tag(r: _Reader) -> Tag:
    parts = r.take().split()
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
        parts = r.take().split()
        try:
            reject = RejectReason(parts[1])
        except (IndexError, ValueError):
            raise r.error("bad reject-reason") from None
    g = _parse_matrix(r, fld, "G")
    h = _parse_matrix(r, fld, "H")
    if not r.done():
        raise r.error(f"trailing content {r.lines[r.pos]!r}")
    try:
        return Instance(fld, g, h, tag), reject
    except Exception as exc:
        raise r.error(str(exc)) from None


def parse_witness(text: str, origin: str = "<witness>") -> tuple[Field, Witness]:
    r = _Reader(text, origin)
    _parse_magic(r)
    fld = _parse_field(r)
    s = _parse_matrix(r, fld, "S")
    parts = r.take().split()
    if not parts or parts[0] != "perm":
        raise r.error("expected a perm line")
    try:
        sigma = tuple(int(x) - 1 for x in parts[1:])
    except ValueError:
        raise r.error("bad permutation entries") from None
    parts = r.take().split()
    if not parts or parts[0] != "diag":
        raise r.error("expected a diag line")
    try:
        diag = tuple(int(x) for x in parts[1:])
    except ValueError:
        raise r.error("bad diagonal entries") from None
    if not r.done():
        raise r.error(f"trailing content {r.lines[r.pos]!r}")
    try:
        return fld, Witness(s, Mono(fld, Perm(sigma), diag))
    except Exception as exc:
        raise r.error(str(exc)) from None


def parse_cert(text: str, original: Instance, origin: str = "<cert>") -> ReductionCert:
    """Check a cert file against the PCE instance it was reduced from.

    Every cert line follows from the instance and the target, so the
    cert is recomputed rather than read: the file is accepted only if it
    is, line for line, what `reduce` writes for this instance and target.
    """
    if original.tag is not Tag.PCE:
        raise FormatError(f"{origin}: a cert pairs only with a PCE instance, got {original.tag.value}")
    lines = text.splitlines()
    target = Tag.SPCE if lines[2:3] == ["target SPCE"] else Tag.LCE
    cert = reduction_cert(original, target)
    expected = serialize_cert(cert).splitlines()
    for line, (got, want) in enumerate(itertools.zip_longest(lines, expected), 1):
        if got != want:
            raise FormatError(f"{origin}:{line}: cert does not match the instance")
    return cert


def _read_text(path: PathLike) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def read_instance(path: PathLike) -> tuple[Instance, Optional[RejectReason]]:
    return parse_instance(_read_text(path), str(path))


def read_witness(path: PathLike) -> tuple[Field, Witness]:
    return parse_witness(_read_text(path), str(path))


def read_cert(path: PathLike, original: Instance) -> ReductionCert:
    return parse_cert(_read_text(path), original, str(path))
