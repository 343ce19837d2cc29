"""The order-6 symmetry group acting on rank-one terms and tensors.

Two commuting generators: a slot rotation of order 3 that cycles a triple
(u, v, w) to (w, u, v), and an index inversion of order 2 that replaces
every factor matrix m by the matrix with m'[i, j] = m[n-1-i, n-1-j].  For
n = 2 the inversion is the swap 0 <-> 1 on all indices; index reversal is
the generalization that keeps the multiplication tensor invariant for
every n.  Together they generate a group isomorphic to C3 x C2.

Group elements enumerate in the fixed order (rot, flip) with rot varying
fastest; every orbit listing in the package uses that order.  The orbit
sum of a term is the sum of its images over all six group elements, with
multiplicity.  Symmetric decompositions list orbit representatives whose
stabilizer is either trivial (orbit size 6) or the full group (orbit size
1); sizes 2 and 3 also occur for general terms and are rejected here.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .fields import Field
from .tensors import Decomposition, RankOneTerm, Tensor, expand_decomposition


@dataclass(frozen=True)
class GroupElement:
    """rot in {0,1,2} rotations composed with flip in {0,1} inversions."""

    rot: int
    flip: int

    def __post_init__(self):
        if self.rot not in (0, 1, 2) or self.flip not in (0, 1):
            raise ValueError(f"invalid group element ({self.rot}, {self.flip})")

    def compose(self, other: "GroupElement") -> "GroupElement":
        # The factors commute: rotations add mod 3, flips add mod 2.
        return GroupElement((self.rot + other.rot) % 3, (self.flip + other.flip) % 2)

    def inverse(self) -> "GroupElement":
        return GroupElement((-self.rot) % 3, self.flip)

    @property
    def is_identity(self) -> bool:
        return self.rot == 0 and self.flip == 0

    def __str__(self):
        return f"pi^{self.rot} tau^{self.flip}"


IDENTITY = GroupElement(0, 0)
GROUP = tuple(GroupElement(r, f) for f in (0, 1) for r in (0, 1, 2))


def parse_group_element(text: str) -> GroupElement:
    parts = text.split()
    if len(parts) == 2 and parts[0].startswith("pi^") and parts[1].startswith("tau^"):
        return GroupElement(int(parts[0][3:]), int(parts[1][4:]))
    raise ValueError(f"malformed group element {text!r}")


def rotate_term(t: RankOneTerm) -> RankOneTerm:
    """(u, v, w) -> (w, u, v)."""
    return RankOneTerm(t.w, t.u, t.v)


def invert_term(t: RankOneTerm) -> RankOneTerm:
    """Reverse all matrix indices in every factor."""
    return RankOneTerm(t.u.reverse_indices(), t.v.reverse_indices(), t.w.reverse_indices())


def apply_group(g: GroupElement, t: RankOneTerm) -> RankOneTerm:
    """Apply rot slot rotations and flip index inversions (they commute)."""
    out = t
    if g.flip:
        out = invert_term(out)
    for _ in range(g.rot):
        out = rotate_term(out)
    return out


def _tensor_permutation(n: int, g: GroupElement) -> list[int]:
    """Flat-index permutation: result[new] = old coefficient position."""
    n2 = n * n
    size = n2**3
    perm = list(range(size))
    if g.flip:
        # Index reversal inside each slot: pair (i, j) -> (n-1-i, n-1-j),
        # which is position p -> n2 - 1 - p on flattened pairs.
        nxt = []
        for flat in perm:
            s2 = flat % n2
            s1 = (flat // n2) % n2
            s0 = flat // (n2 * n2)
            nxt.append(((n2 - 1 - s0) * n2 + (n2 - 1 - s1)) * n2 + (n2 - 1 - s2))
        perm = nxt
    for _ in range(g.rot):
        # Rotated tensor reads coefficient (x,y,z) from (y,z,x).
        nxt = []
        for flat in perm:
            s2 = flat % n2
            s1 = (flat // n2) % n2
            s0 = flat // (n2 * n2)
            nxt.append((s1 * n2 + s2) * n2 + s0)
        perm = nxt
    return perm


_PERM_CACHE: dict[tuple[int, GroupElement], list[int]] = {}


def apply_group_tensor(g: GroupElement, t: Tensor) -> Tensor:
    """Linear extension of the group action: a coefficient permutation."""
    key = (t.n, g)
    perm = _PERM_CACHE.get(key)
    if perm is None:
        perm = _tensor_permutation(t.n, g)
        _PERM_CACHE[key] = perm
    coeffs = t.coeffs
    return Tensor(t.field, t.n, [coeffs[p] for p in perm])


def orbit(t: RankOneTerm) -> list[RankOneTerm]:
    """Distinct images of t, in group enumeration order."""
    seen = []
    for g in GROUP:
        img = apply_group(g, t)
        if img not in seen:
            seen.append(img)
    return seen


def orbit_sum(t: RankOneTerm) -> Tensor:
    """Sum of g(t) over all six group elements, multiplicities included."""
    images = tuple(apply_group(g, t) for g in GROUP)
    return expand_decomposition(Decomposition(t.n, t.field, images))


def stabilizer(t: RankOneTerm) -> list[GroupElement]:
    """All group elements fixing t exactly, as a triple of matrices."""
    return [g for g in GROUP if apply_group(g, t) == t]


class StabilizerTag(Enum):
    TRIVIAL = "trivial"  # only the identity fixes the representative; orbit size 6
    FULL = "full"        # every group element fixes the representative; orbit size 1

    @property
    def orbit_size(self) -> int:
        return 1 if self is StabilizerTag.FULL else 6


class OrbitTerm:
    """An orbit representative with its validated stabilizer tag."""

    __slots__ = ("rep", "tag")

    def __init__(self, rep: RankOneTerm, tag: StabilizerTag):
        stab = len(stabilizer(rep))
        if tag is StabilizerTag.FULL and stab != 6:
            raise ValueError(f"tag 'full' requires a group-fixed representative, stabilizer has order {stab}")
        if tag is StabilizerTag.TRIVIAL and stab != 1:
            raise ValueError(f"tag 'trivial' requires a free orbit, stabilizer has order {stab}")
        self.rep = rep
        self.tag = tag

    @classmethod
    def for_rep(cls, rep: RankOneTerm) -> "OrbitTerm":
        """Infer the tag; rejects orbit sizes other than 1 and 6."""
        stab = len(stabilizer(rep))
        if stab == 6:
            return cls(rep, StabilizerTag.FULL)
        if stab == 1:
            return cls(rep, StabilizerTag.TRIVIAL)
        raise ValueError(f"orbit size {6 // stab} unsupported (stabilizer order {stab})")

    @property
    def orbit_size(self) -> int:
        return self.tag.orbit_size

    def __eq__(self, other):
        if not isinstance(other, OrbitTerm):
            return NotImplemented
        return self.rep == other.rep and self.tag == other.tag

    def __repr__(self):
        return f"OrbitTerm({self.rep!r}, {self.tag.value})"


@dataclass(frozen=True)
class SymmetricDecomposition:
    """Orbit terms whose expanded orbits sum to a target tensor.

    The rank bound is the sum of orbit sizes: 6 per free orbit plus 1 per
    group-fixed term.
    """

    n: int
    field: Field
    orbit_terms: tuple[OrbitTerm, ...]

    def __post_init__(self):
        for ot in self.orbit_terms:
            if ot.rep.n != self.n or ot.rep.field != self.field:
                raise ValueError("orbit terms must share side and field")

    @property
    def rank_bound(self) -> int:
        return sum(ot.orbit_size for ot in self.orbit_terms)


def expand_symmetric(sd: SymmetricDecomposition) -> Tensor:
    """Full terms contribute once; trivial terms contribute their 6 images."""
    return expand_decomposition(flatten(sd))


def flatten(sd: SymmetricDecomposition) -> Decomposition:
    """Concatenate the orbit images into a plain decomposition."""
    terms = []
    for ot in sd.orbit_terms:
        if ot.tag is StabilizerTag.FULL:
            terms.append(ot.rep)
        else:
            terms.extend(orbit(ot.rep))
    return Decomposition(sd.n, sd.field, tuple(terms))
