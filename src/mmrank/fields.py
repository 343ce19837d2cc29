"""Exact scalar arithmetic over the rationals and over prime fields.

Everything else in this package is parameterized by a :class:`Field`.  Two
implementations exist: :class:`Rationals` (arbitrary-precision fractions,
the singleton ``Q``) and :class:`PrimeField` (residues modulo a prime
``p < 2**31``).  A field object works on *raw* values (``Fraction`` for the
rationals, ``int`` residues for prime fields); :class:`FieldElement` wraps
a raw value together with its field for operator syntax and mixed-field
error checking.  There is deliberately no floating point anywhere.

Field literals, as used in files and on the command line, are ``"Q"`` and
``"F<p>"`` (for example ``"F2"``, ``"F101"``).  Element literals are
``[+-]digits[/digits]`` over the rationals and plain ``digits`` over a
prime field; parsing normalizes (``"-2/4"`` becomes ``-1/2``, ``"103"``
over F101 becomes ``2``) and formatting emits the canonical form, so
``parse(format(x)) == x`` always.
"""

from __future__ import annotations

import re
from fractions import Fraction

MAX_MODULUS = 2**31 - 1

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")
_RESIDUE_RE = re.compile(r"^\d+$")


class MixedFieldError(ValueError):
    """Raised when an operation mixes values from different fields."""


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class Field:
    """Base class: exact arithmetic on raw scalar values."""

    name: str
    characteristic: int

    # raw-value arithmetic, implemented by subclasses
    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def coerce(self, value):
        """Raw value from an int, a raw value, or an element literal."""
        raise NotImplementedError

    def parse_raw(self, text: str):
        raise NotImplementedError

    def format(self, a) -> str:
        raise NotImplementedError

    @property
    def zero(self):
        return self._zero

    @property
    def one(self):
        return self._one

    # element-level convenience
    def element(self, value) -> "FieldElement":
        if isinstance(value, FieldElement):
            if value.field != self:
                raise MixedFieldError(
                    f"cannot reinterpret {value.field.name} element in {self.name}"
                )
            return value
        return FieldElement(self, self.coerce(value))

    def __repr__(self):
        return f"{type(self).__name__}({self.name!r})"


class Rationals(Field):
    """The field of rational numbers, backed by ``fractions.Fraction``.

    Fractions are normalized by construction (positive denominator, gcd 1),
    which is exactly the invariant the rest of the package relies on.
    """

    name = "Q"
    characteristic = 0

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __init__(self):
        self._zero = Fraction(0)
        self._one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in Q")
        return 1 / a

    def coerce(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return self.parse_raw(value)
        raise TypeError(f"cannot coerce {value!r} into Q")

    def parse_raw(self, text: str):
        s = text.strip().replace("−", "-")
        if not _RATIONAL_RE.match(s):
            raise ValueError(f"malformed rational literal {text!r}")
        if "/" in s:
            num, den = s.split("/")
            if int(den) == 0:
                raise ValueError(f"zero denominator in {text!r}")
            return Fraction(int(num), int(den))
        return Fraction(int(s))

    def format(self, a) -> str:
        if a.denominator == 1:
            return str(a.numerator)
        return f"{a.numerator}/{a.denominator}"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __reduce__(self):
        return (Rationals, ())


class PrimeField(Field):
    """Integers modulo a prime ``p``, with ``2 <= p <= 2**31 - 1``.

    Raw values are reduced residues in ``[0, p)``.  Primality is checked at
    construction by trial division so that every nonzero residue is
    invertible; composite moduli are rejected outright.
    """

    _cache: dict[int, "PrimeField"] = {}

    def __new__(cls, p: int):
        inst = cls._cache.get(p)
        if inst is None:
            inst = super().__new__(cls)
            cls._cache[p] = inst
        return inst

    def __init__(self, p: int):
        if not isinstance(p, int) or p < 2 or p > MAX_MODULUS:
            raise ValueError(f"modulus must be a prime in [2, 2**31 - 1], got {p!r}")
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.name = f"F{p}"
        self.characteristic = p
        self._zero = 0
        self._one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of zero in {self.name}")
        return pow(a, -1, self.p)

    def coerce(self, value):
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, str):
            return self.parse_raw(value)
        raise TypeError(f"cannot coerce {value!r} into {self.name}")

    def parse_raw(self, text: str):
        s = text.strip()
        if not _RESIDUE_RE.match(s):
            raise ValueError(f"malformed {self.name} literal {text!r}")
        return int(s) % self.p

    def format(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))

    def __reduce__(self):
        return (PrimeField, (self.p,))


Q = Rationals()
F2 = PrimeField(2)


def parse_field(literal: str) -> Field:
    """Field from a literal: ``"Q"`` or ``"F<p>"`` with p prime."""
    s = literal.strip()
    if s == "Q":
        return Q
    if s.startswith("F") and s[1:].isdigit():
        return PrimeField(int(s[1:]))
    raise ValueError(f"malformed field literal {literal!r}")


class FieldElement:
    """A raw scalar tagged with its field; supports operator syntax."""

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value):
        self.field = field
        self.value = value

    def _check(self, other) -> "FieldElement":
        if isinstance(other, int):
            return FieldElement(self.field, self.field.coerce(other))
        if not isinstance(other, FieldElement):
            return NotImplemented
        if other.field != self.field:
            raise MixedFieldError(
                f"mixed operands: {self.field.name} and {other.field.name}"
            )
        return other

    def __add__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.field, self.field.add(self.value, o.value))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.field, self.field.sub(self.value, o.value))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.field, self.field.mul(self.value, o.value))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.field, self.field.mul(self.value, self.field.inv(o.value)))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.value))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv(self.value))

    @property
    def is_zero(self) -> bool:
        return self.value == self.field.zero

    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == self.field.coerce(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and self.value == other.value

    def __hash__(self):
        return hash((self.field, self.value))

    def __str__(self):
        return self.field.format(self.value)

    def __repr__(self):
        return f"<{self.field.name}: {self}>"
