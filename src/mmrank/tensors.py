"""Matrices, rank-one terms and order-3 tensors with exact entries.

A :class:`Tensor` lives in the triple tensor power of the space of n x n
matrices.  Coefficients are indexed by three (row, col) pairs, one per
factor slot, with the first slot outermost; every module in this package
uses this one convention.  Sides are capped at n = 6, so dense storage
(n**6 <= 46656 scalars) stays trivial.

Expansion and verification are sparse: summing terms (u, v, w) costs
the sum of nnz(u) * nnz(v) * nnz(w) over the terms, not n**6 per term
(see :func:`sparse_expansion`).

The multiplication tensor for n x n matrices has coefficient 1 exactly at
the positions ((i,j),(j,k),(k,i)) and 0 elsewhere; its n**3 basis summands
form the standard (expensive) decomposition that search starts from.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

from .fields import F2, Field, FieldElement, MixedFieldError

MAX_SIDE = 6

Position = tuple[tuple[int, int], tuple[int, int], tuple[int, int]]

_BINARY_DIGITS = bytes.maketrans(b"\0\1", b"01")
_BINARY_VALUES = bytes.maketrans(b"01", b"\0\1")


def pack_bits(values) -> int:
    """Values 0 and 1 as the bits of one int, values[i] at bit i."""
    return int(bytes(reversed(values)).translate(_BINARY_DIGITS), 2)


def _check_side(n: int) -> None:
    if not 1 <= n <= MAX_SIDE:
        raise ValueError(f"side must be in [1, {MAX_SIDE}], got {n}")


def _position(n: int, flat: int) -> Position:
    n2 = n * n
    s0, rest = divmod(flat, n2 * n2)
    s1, s2 = divmod(rest, n2)
    return ((s0 // n, s0 % n), (s1 // n, s1 % n), (s2 // n, s2 % n))


class Matrix:
    """Immutable square matrix of exact field scalars, row-major.

    Matrices standing alone may have any side (recursive multiplication
    operates on sides n**d); the 1..6 cap applies where matrices become
    tensor factors.
    """

    __slots__ = ("field", "n", "entries")

    def __init__(self, field: Field, n: int, entries):
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"side must be a positive integer, got {n!r}")
        raw = tuple(field.coerce(e.value if isinstance(e, FieldElement) else e) for e in entries)
        if len(raw) != n * n:
            raise ValueError(f"expected {n * n} entries, got {len(raw)}")
        self.field = field
        self.n = n
        self.entries = raw

    @classmethod
    def from_rows(cls, field: Field, rows) -> "Matrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix rows must form a square")
        return cls(field, n, [e for r in rows for e in r])

    @classmethod
    def zero(cls, field: Field, n: int) -> "Matrix":
        return cls(field, n, [field.zero] * (n * n))

    @classmethod
    def basis(cls, field: Field, n: int, i: int, j: int) -> "Matrix":
        """The matrix with a single 1 at (i, j)."""
        ent = [field.zero] * (n * n)
        ent[i * n + j] = field.one
        return cls(field, n, ent)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        ent = [field.zero] * (n * n)
        for i in range(n):
            ent[i * n + i] = field.one
        return cls(field, n, ent)

    def _compat(self, other: "Matrix") -> None:
        if not isinstance(other, Matrix):
            raise TypeError("expected a Matrix")
        if other.field != self.field:
            raise MixedFieldError("matrices from different fields")
        if other.n != self.n:
            raise ValueError("matrix sides differ")

    def __add__(self, other):
        self._compat(other)
        f = self.field
        return Matrix(f, self.n, [f.add(a, b) for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other):
        self._compat(other)
        f = self.field
        return Matrix(f, self.n, [f.sub(a, b) for a, b in zip(self.entries, other.entries)])

    def __neg__(self):
        f = self.field
        return Matrix(f, self.n, [f.neg(a) for a in self.entries])

    def scale(self, c) -> "Matrix":
        f = self.field
        c = f.coerce(c.value if isinstance(c, FieldElement) else c)
        return Matrix(f, self.n, [f.mul(c, a) for a in self.entries])

    def reverse_indices(self) -> "Matrix":
        """Entry (i, j) moves to (n-1-i, n-1-j); the order-2 inversion map."""
        return Matrix(self.field, self.n, self.entries[::-1])

    def __getitem__(self, ij) -> FieldElement:
        i, j = ij
        return FieldElement(self.field, self.entries[i * self.n + j])

    @property
    def is_zero(self) -> bool:
        z = self.field.zero
        return all(e == z for e in self.entries)

    def fingerprint(self) -> bytes:
        """Canonical byte encoding: field literal plus entry literals."""
        f = self.field
        return ";".join([f.name, str(self.n)] + [f.format(e) for e in self.entries]).encode()

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field == other.field and self.n == other.n and self.entries == other.entries

    def __hash__(self):
        return hash((self.field, self.n, self.entries))

    def __str__(self):
        f = self.field
        rows = []
        for i in range(self.n):
            rows.append(" ".join(f.format(e) for e in self.entries[i * self.n:(i + 1) * self.n]))
        return "[" + "; ".join(rows) + "]"

    def __repr__(self):
        return f"Matrix({self.field.name}, {self})"


class RankOneTerm:
    """An elementary tensor given by an ordered triple of matrices."""

    __slots__ = ("u", "v", "w")

    def __init__(self, u: Matrix, v: Matrix, w: Matrix):
        if not (u.field == v.field == w.field):
            raise MixedFieldError("term factors from different fields")
        if not (u.n == v.n == w.n):
            raise ValueError("term factors of different sides")
        _check_side(u.n)
        self.u = u
        self.v = v
        self.w = w

    @property
    def field(self) -> Field:
        return self.u.field

    @property
    def n(self) -> int:
        return self.u.n

    @property
    def factors(self) -> tuple[Matrix, Matrix, Matrix]:
        return (self.u, self.v, self.w)

    def __iter__(self):
        return iter(self.factors)

    def __eq__(self, other):
        if not isinstance(other, RankOneTerm):
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        return f"RankOneTerm({self.u}, {self.v}, {self.w})"


class Tensor:
    """Dense order-3 tensor over triples of n x n index pairs.

    Tensors are immutable; :meth:`sparse` scans the coefficients once and
    keeps the result, unless :meth:`from_sparse` was given it.
    """

    __slots__ = ("field", "n", "coeffs", "_sparse")

    def __init__(self, field: Field, n: int, coeffs):
        _check_side(n)
        raw = tuple(field.coerce(c.value if isinstance(c, FieldElement) else c) for c in coeffs)
        if len(raw) != n**6:
            raise ValueError(f"expected {n**6} coefficients, got {len(raw)}")
        self.field = field
        self.n = n
        self.coeffs = raw
        self._sparse = None

    def __reduce__(self):
        return (Tensor, (self.field, self.n, self.coeffs))

    @classmethod
    def zero(cls, field: Field, n: int) -> "Tensor":
        return cls(field, n, [field.zero] * n**6)

    @classmethod
    def from_sparse(cls, field: Field, n: int, acc) -> "Tensor":
        """The tensor of a :func:`sparse_expansion` result, kept as its :meth:`sparse` form.

        Outside F2 the tensor takes ``acc`` over, read-only.  Its values
        are raw already, so the dense coefficients are not coerced again.
        """
        _check_side(n)
        if field == F2:
            coeffs = tuple(f"{acc:0{n**6}b}".encode().translate(_BINARY_VALUES)[::-1])
        else:
            dense = [field.zero] * n**6
            for flat, c in acc.items():
                dense[flat] = c
            coeffs = tuple(dense)
            acc = MappingProxyType(acc)
        t = cls.__new__(cls)
        t.field, t.n, t.coeffs, t._sparse = field, n, coeffs, acc
        return t

    def sparse(self):
        """This tensor in the form :func:`sparse_expansion` returns.

        Computed on the first call; later calls return the same object,
        read-only (a mapping proxy) outside F2.
        """
        if self._sparse is None:
            if self.field == F2:
                self._sparse = pack_bits(self.coeffs)
            else:
                self._sparse = MappingProxyType(
                    {flat: c for flat, c in enumerate(self.coeffs) if c})
        return self._sparse

    def _compat(self, other: "Tensor") -> None:
        if not isinstance(other, Tensor):
            raise TypeError("expected a Tensor")
        if other.field != self.field:
            raise MixedFieldError("tensors from different fields")
        if other.n != self.n:
            raise ValueError("tensor sides differ")

    def __add__(self, other):
        self._compat(other)
        f = self.field
        return Tensor(f, self.n, [f.add(a, b) for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._compat(other)
        f = self.field
        return Tensor(f, self.n, [f.sub(a, b) for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        f = self.field
        return Tensor(f, self.n, [f.neg(a) for a in self.coeffs])

    def scale(self, c) -> "Tensor":
        f = self.field
        c = f.coerce(c.value if isinstance(c, FieldElement) else c)
        return Tensor(f, self.n, [f.mul(c, a) for a in self.coeffs])

    def coeff(self, p0: tuple[int, int], p1: tuple[int, int], p2: tuple[int, int]) -> FieldElement:
        n, n2 = self.n, self.n * self.n
        flat = ((p0[0] * n + p0[1]) * n2 + (p1[0] * n + p1[1])) * n2 + (p2[0] * n + p2[1])
        return FieldElement(self.field, self.coeffs[flat])

    @property
    def is_zero(self) -> bool:
        z = self.field.zero
        return all(c == z for c in self.coeffs)

    def nonzero_positions(self) -> list[Position]:
        z = self.field.zero
        return [_position(self.n, flat) for flat, c in enumerate(self.coeffs) if c != z]

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return self.field == other.field and self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.n, self.coeffs))

    def __repr__(self):
        nz = sum(1 for c in self.coeffs if c != self.field.zero)
        return f"Tensor({self.field.name}, n={self.n}, nonzeros={nz})"


@dataclass(frozen=True)
class Decomposition:
    """An ordered list of rank-one terms; its length bounds the rank."""

    n: int
    field: Field
    terms: tuple[RankOneTerm, ...]

    def __post_init__(self):
        _check_side(self.n)
        for t in self.terms:
            if t.n != self.n or t.field != self.field:
                raise ValueError("decomposition terms must share side and field")

    @property
    def rank_bound(self) -> int:
        return len(self.terms)


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    rank_bound: int
    mismatches: tuple[Position, ...]  # up to 16 differing coordinates


def matmul_tensor(n: int, field: Field) -> Tensor:
    """The n x n matrix multiplication tensor.

    The coefficient at ((i,j),(j,k),(k,i)) is 1 for all i, j, k; every
    other coefficient is 0.  It encodes the bilinear map (A, B) -> AB.
    """
    _check_side(n)
    n2 = n * n
    flats = [((i * n + j) * n2 + (j * n + k)) * n2 + (k * n + i)
             for i in range(n) for j in range(n) for k in range(n)]
    if field == F2:
        return Tensor.from_sparse(field, n, sum(1 << flat for flat in flats))
    return Tensor.from_sparse(field, n, dict.fromkeys(flats, field.one))


def expand_mask(u: int, v: int, w: int, n2: int) -> int:
    """Packed expansion of a rank-one term: one bit per coefficient."""
    out = 0
    a = u
    while a:
        abit = (a & -a).bit_length() - 1
        a &= a - 1
        base_a = abit * n2
        b = v
        while b:
            bbit = (b & -b).bit_length() - 1
            b &= b - 1
            out ^= w << ((base_a + bbit) * n2)
        # positions are distinct across (abit, bbit), XOR equals OR here
    return out


def sparse_expansion(field: Field, n: int, triples):
    """Exact sum of u (x) v (x) w over (u, v, w) triples of raw entries.

    Over F2: an int, bit ``flat`` holding that coefficient, XORed from
    the expansions of the packed factors.  Elsewhere: a dict
    from flat index to nonzero raw coefficient, scattered with + and * and
    normalized once by ``field.coerce``.  Costs sum nnz(u)*nnz(v)*nnz(w).
    """
    n2 = n * n
    if field == F2:
        acc = 0
        for t in triples:
            acc ^= expand_mask(*map(pack_bits, t), n2)
        return acc
    n4 = n2 * n2
    acc = {}
    get = acc.get
    for u, v, w in triples:
        nv = [(j * n2, b) for j, b in enumerate(v) if b]
        nw = [(k, c) for k, c in enumerate(w) if c]
        for i, a in enumerate(u):
            if a:
                for j, b in nv:
                    ab = a * b
                    base = i * n4 + j
                    for k, c in nw:
                        acc[base + k] = get(base + k, 0) + ab * c
    return {flat: r for flat, c in acc.items() if (r := field.coerce(c))}


def _entries(terms):
    return ((t.u.entries, t.v.entries, t.w.entries) for t in terms)


def expand_term(t: RankOneTerm) -> Tensor:
    """Dense expansion of u (x) v (x) w."""
    return Tensor.from_sparse(t.field, t.n, sparse_expansion(t.field, t.n, _entries((t,))))


def expand_decomposition(d: Decomposition) -> Tensor:
    return Tensor.from_sparse(d.field, d.n, sparse_expansion(d.field, d.n, _entries(d.terms)))


def standard_decomposition(n: int, field: Field) -> Decomposition:
    """The n**3 basis summands (e_ij, e_jk, e_ki), in (i, j, k) lex order."""
    _check_side(n)
    terms = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                terms.append(
                    RankOneTerm(
                        Matrix.basis(field, n, i, j),
                        Matrix.basis(field, n, j, k),
                        Matrix.basis(field, n, k, i),
                    )
                )
    return Decomposition(n, field, tuple(terms))


def verify(d: Decomposition, target: Tensor, max_mismatches: int = 16) -> VerifyResult:
    """Exact check that the decomposition expands to the target.

    A mismatch is a result, not an error.  The verdict compares whole
    sparse sums; the first ``max_mismatches`` differing coordinates in
    flat order (at least one) are reported to keep failure output readable.
    """
    if d.n != target.n or d.field != target.field:
        raise ValueError("decomposition and target have different shape or field")
    got = sparse_expansion(d.field, d.n, _entries(d.terms))
    want = target.sparse()
    if got == want:
        return VerifyResult(True, d.rank_bound, ())
    k = max(1, max_mismatches)
    if d.field == F2:  # the set bits of the difference
        bad = [f for f, bit in enumerate(reversed(f"{got ^ want:b}")) if bit == "1"][:k]
    else:
        bad = sorted(f for f in got.keys() | want.keys() if got.get(f) != want.get(f))[:k]
    return VerifyResult(False, d.rank_bound, tuple(_position(d.n, f) for f in bad))
