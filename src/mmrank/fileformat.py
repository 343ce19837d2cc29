"""Bit-exact text format for decomposition files.

Files are human-diffable certificates.  Grammar (UTF-8, LF endings)::

    version 1
    field F2          # "Q" or "F<p>"
    n 2
    mode plain        # or: mode symmetric

    <block>           # blocks separated by blank lines

A plain block is 3*n lines: the three factor matrices of one term, each
as n rows of n whitespace-separated element literals.  In symmetric mode
every block is prefixed by one line, ``orbit=G`` for a free orbit or
``orbit=fixed`` for a group-fixed term, followed by the representative's
3*n matrix rows.  Element literals are canonical, so parse(format(x))
returns x bit for bit.
"""

from __future__ import annotations

from .fields import Field, parse_field
from .symmetry import OrbitTerm, StabilizerTag, SymmetricDecomposition
from .tensors import MAX_SIDE, Decomposition, Matrix, RankOneTerm

ORBIT_FREE = "orbit=G"
ORBIT_FIXED = "orbit=fixed"


class ParseError(ValueError):
    pass


def _matrix_lines(m: Matrix) -> list[str]:
    f = m.field
    return [
        " ".join(f.format(e) for e in m.entries[i * m.n:(i + 1) * m.n])
        for i in range(m.n)
    ]


def _term_lines(t: RankOneTerm) -> list[str]:
    out = []
    for mat in t.factors:
        out.extend(_matrix_lines(mat))
    return out


def format_decomposition(d: Decomposition | SymmetricDecomposition) -> str:
    symmetric = isinstance(d, SymmetricDecomposition)
    lines = [
        "version 1",
        f"field {d.field.name}",
        f"n {d.n}",
        f"mode {'symmetric' if symmetric else 'plain'}",
    ]
    if symmetric:
        for ot in d.orbit_terms:
            lines.append("")
            lines.append(ORBIT_FIXED if ot.tag is StabilizerTag.FULL else ORBIT_FREE)
            lines.extend(_term_lines(ot.rep))
    else:
        for t in d.terms:
            lines.append("")
            lines.extend(_term_lines(t))
    return "\n".join(lines) + "\n"


def _parse_header(lines: list[str]):
    if len(lines) < 4:
        raise ParseError("truncated header")
    if lines[0].strip() != "version 1":
        raise ParseError(f"line 1: expected 'version 1', got {lines[0]!r}")
    parts = lines[1].split()
    if len(parts) != 2 or parts[0] != "field":
        raise ParseError(f"line 2: expected 'field <literal>', got {lines[1]!r}")
    try:
        field = parse_field(parts[1])
    except ValueError as exc:
        raise ParseError(f"line 2: {exc}") from exc
    parts = lines[2].split()
    if len(parts) != 2 or parts[0] != "n" or not parts[1].isdigit():
        raise ParseError(f"line 3: expected 'n <side>', got {lines[2]!r}")
    n = int(parts[1])
    if not 1 <= n <= MAX_SIDE:
        raise ParseError(f"line 3: side must be in [1, {MAX_SIDE}], got {n}")
    parts = lines[3].split()
    if len(parts) != 2 or parts[0] != "mode" or parts[1] not in ("plain", "symmetric"):
        raise ParseError(f"line 4: expected 'mode plain|symmetric', got {lines[3]!r}")
    return field, n, parts[1]


def _parse_matrix(field: Field, n: int, lines: list[str], at: int) -> Matrix:
    entries = []
    for r in range(n):
        lineno, text = lines[at + r]
        lits = text.split()
        if len(lits) != n:
            raise ParseError(f"line {lineno}: expected {n} entries, got {len(lits)}")
        for lit in lits:
            try:
                entries.append(field.parse_raw(lit))
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
    return Matrix(field, n, entries)


def parse_decomposition(text: str) -> Decomposition | SymmetricDecomposition:
    raw_lines = text.split("\n")
    field, n, mode = _parse_header(raw_lines[:4])
    body = [
        (i + 1, ln.strip())
        for i, ln in enumerate(raw_lines)
        if i >= 4 and ln.strip()
    ]
    block_len = 3 * n + (1 if mode == "symmetric" else 0)
    if len(body) % block_len != 0:
        raise ParseError(
            f"body has {len(body)} nonblank lines, not a multiple of {block_len}"
        )
    terms = []
    orbit_terms = []
    at = 0
    while at < len(body):
        if mode == "symmetric":
            lineno, tagline = body[at]
            if tagline == ORBIT_FREE:
                tag = StabilizerTag.TRIVIAL
            elif tagline == ORBIT_FIXED:
                tag = StabilizerTag.FULL
            else:
                raise ParseError(
                    f"line {lineno}: expected '{ORBIT_FREE}' or '{ORBIT_FIXED}', got {tagline!r}"
                )
            at += 1
        mats = []
        for k in range(3):
            mats.append(_parse_matrix(field, n, body, at))
            at += n
        term = RankOneTerm(*mats)
        if mode == "symmetric":
            try:
                orbit_terms.append(OrbitTerm(term, tag))
            except ValueError as exc:
                raise ParseError(str(exc)) from exc
        else:
            terms.append(term)
    if mode == "symmetric":
        return SymmetricDecomposition(n, field, tuple(orbit_terms))
    return Decomposition(n, field, tuple(terms))


def write_decomposition_file(path, d: Decomposition | SymmetricDecomposition) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_decomposition(d))


def read_decomposition_file(path) -> Decomposition | SymmetricDecomposition:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_decomposition(fh.read())
