"""Machine-checked derivation that 2 x 2 matrix multiplication has rank <= 7.

The derivation is a chain of exact tensor identities over an arbitrary
field.  Starting from the 8 standard summands of the multiplication
tensor, it groups 6 of them into one free orbit of the order-6 symmetry
group, trades the two diagonal summands for the rank-one cube
(e00+e11)^(x3) minus one more orbit, inserts a cancelling orbit pair,
rewrites orbit representatives (orbit sums are invariant under the group),
and merges parallel orbits, ending with one fixed term plus one free
orbit: a symmetric decomposition of rank bound 1 + 6 = 7.

Every step is stored with both sides as formal expressions so a failure
can name the offending atom, and the chain is replayed per field at run
time: the identities have integer coefficients, so they hold over the
rationals and every prime field alike.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import Field
from .symmetry import (
    GROUP,
    OrbitTerm,
    StabilizerTag,
    SymmetricDecomposition,
    apply_group,
    expand_symmetric,
)
from .tensors import (
    Decomposition,
    Matrix,
    Position,
    RankOneTerm,
    Tensor,
    expand_decomposition,
    matmul_tensor,
)

PLAIN = "plain"
ORBIT = "orbit"

Atom = tuple[int, str, RankOneTerm]


@dataclass(frozen=True)
class TensorExpr:
    """A formal signed sum of plain terms and whole-orbit sums."""

    atoms: tuple[Atom, ...]

    @classmethod
    def plain(cls, t: RankOneTerm) -> "TensorExpr":
        return cls(((1, PLAIN, t),))

    @classmethod
    def orbit(cls, t: RankOneTerm) -> "TensorExpr":
        return cls(((1, ORBIT, t),))

    def __add__(self, other: "TensorExpr") -> "TensorExpr":
        return TensorExpr(self.atoms + other.atoms)

    def __sub__(self, other: "TensorExpr") -> "TensorExpr":
        return self + (-other)

    def __neg__(self) -> "TensorExpr":
        return TensorExpr(tuple((-s, k, t) for (s, k, t) in self.atoms))


def eval_expr(e: TensorExpr, field: Field, n: int) -> Tensor:
    """Signed sum of atom expansions; empty expressions evaluate to zero."""
    terms = []
    for sign, kind, term in e.atoms:
        if term.field != field or term.n != n:
            raise ValueError("expression atom has mismatched field or side")
        images = [apply_group(g, term) for g in GROUP] if kind == ORBIT else [term]
        terms.extend(t if sign > 0 else RankOneTerm(-t.u, t.v, t.w) for t in images)
    return expand_decomposition(Decomposition(n, field, tuple(terms)))


@dataclass(frozen=True)
class ProofStep:
    label: str
    lhs: TensorExpr
    rhs: TensorExpr
    note: str

    def check(self, field: Field, n: int) -> tuple[bool, tuple[Position, ...]]:
        got = eval_expr(self.lhs, field, n)
        want = eval_expr(self.rhs, field, n)
        if got == want:
            return True, ()
        return False, tuple((got - want).nonzero_positions()[:16])


@dataclass(frozen=True)
class Derivation:
    field: Field
    steps: tuple[ProofStep, ...]
    final: SymmetricDecomposition


@dataclass(frozen=True)
class StepResult:
    label: str
    ok: bool
    mismatches: tuple[Position, ...]


@dataclass(frozen=True)
class DerivationReport:
    steps: tuple[StepResult, ...]
    chain_ok: bool
    final_ok: bool
    final_rank_bound: int

    @property
    def passed(self) -> bool:
        return self.chain_ok and self.final_ok and all(s.ok for s in self.steps)


def _basis2(field: Field):
    e = {(i, j): Matrix.basis(field, 2, i, j) for i in (0, 1) for j in (0, 1)}
    return e


def naive_symmetric_form(field: Field) -> SymmetricDecomposition:
    """The 1 + 6 + 6 = 13 symmetric form read off the summand structure:
    the diagonal cube, the free orbit of the off-diagonal summands, and
    the correction orbit with a -1 folded into its representative."""
    e = _basis2(field)
    cube_factor = e[0, 0] + e[1, 1]
    cube = RankOneTerm(cube_factor, cube_factor, cube_factor)
    t_off = RankOneTerm(e[1, 0], e[0, 1], e[1, 1])
    t_corr = RankOneTerm(-e[0, 0], e[0, 0], e[1, 1])
    return SymmetricDecomposition(
        2,
        field,
        (
            OrbitTerm(cube, StabilizerTag.FULL),
            OrbitTerm(t_off, StabilizerTag.TRIVIAL),
            OrbitTerm(t_corr, StabilizerTag.TRIVIAL),
        ),
    )


def rank7_derivation(field: Field) -> Derivation:
    """Build the six-step chain over the given field.

    Each step is an identity on the full multiplication tensor; the right
    side of each step is reused verbatim as the left side of the next, so
    the chain property is an expression identity, not just a numeric one.
    """
    e = _basis2(field)
    E = TensorExpr
    cube_factor = e[0, 0] + e[1, 1]
    cube = RankOneTerm(cube_factor, cube_factor, cube_factor)

    t_off = RankOneTerm(e[1, 0], e[0, 1], e[1, 1])          # free orbit of off-diagonal summands
    t_corr = RankOneTerm(e[0, 0], e[0, 0], e[1, 1])         # correction orbit under the cube
    t_ins = RankOneTerm(e[0, 1], e[1, 1], e[0, 0])          # inserted cancelling orbit
    t_ins_inv = RankOneTerm(e[1, 0], e[0, 0], e[1, 1])      # its index-inverted representative
    t_ins_rot = RankOneTerm(e[0, 0], e[0, 1], e[1, 1])      # its slot-rotated representative
    diff = e[0, 1] - e[0, 0]
    t_half1 = RankOneTerm(e[1, 0], diff, e[1, 1])
    t_half2 = RankOneTerm(e[0, 0], diff, e[1, 1])
    t_final = RankOneTerm(e[1, 0] + e[0, 0], diff, e[1, 1])

    # The defining sum: one plain atom per standard summand.
    m2_atoms = TensorExpr(tuple())
    for i in (0, 1):
        for j in (0, 1):
            for k in (0, 1):
                m2_atoms = m2_atoms + E.plain(RankOneTerm(e[i, j], e[j, k], e[k, i]))

    diag = E.plain(RankOneTerm(e[0, 0], e[0, 0], e[0, 0])) + E.plain(
        RankOneTerm(e[1, 1], e[1, 1], e[1, 1])
    )

    s1_rhs = E.orbit(t_off) + diag
    s2_rhs = E.plain(cube) + E.orbit(t_off) - E.orbit(t_corr)
    s3_rhs = (
        E.plain(cube)
        + E.orbit(t_off)
        + (-E.orbit(t_ins) + E.orbit(t_ins))
        - E.orbit(t_corr)
    )
    s4_rhs = (
        E.plain(cube)
        + E.orbit(t_off)
        - E.orbit(t_ins_inv)
        + E.orbit(t_ins_rot)
        - E.orbit(t_corr)
    )
    s5_rhs = E.plain(cube) + E.orbit(t_half1) + E.orbit(t_half2)
    s6_rhs = E.plain(cube) + E.orbit(t_final)

    steps = (
        ProofStep(
            "S1",
            m2_atoms,
            s1_rhs,
            "6 off-diagonal summands form one free orbit; 2 diagonal summands remain",
        ),
        ProofStep(
            "S2",
            s1_rhs,
            s2_rhs,
            "diagonal summands = rank-one cube minus its 6 mixed cross terms, one orbit",
        ),
        ProofStep(
            "S3",
            s2_rhs,
            s3_rhs,
            "insert a cancelling pair -X + X of one orbit sum",
        ),
        ProofStep(
            "S4",
            s3_rhs,
            s4_rhs,
            "replace orbit representatives: an orbit sum is unchanged by index inversion or slot rotation of its representative",
        ),
        ProofStep(
            "S5",
            s4_rhs,
            s5_rhs,
            "combine orbit pairs that differ in one slot into single representatives",
        ),
        ProofStep(
            "S6",
            s5_rhs,
            s6_rhs,
            "merge the two orbits that agree in two slots; one free orbit remains",
        ),
    )

    final = SymmetricDecomposition(
        2,
        field,
        (
            OrbitTerm(cube, StabilizerTag.FULL),
            OrbitTerm(t_final, StabilizerTag.TRIVIAL),
        ),
    )
    return Derivation(field, steps, final)


def rank7_symmetric_form(field: Field) -> SymmetricDecomposition:
    return rank7_derivation(field).final


def check_derivation(d: Derivation) -> DerivationReport:
    """Replay every step; the overall pass also requires that the final
    symmetric decomposition expands to the multiplication tensor."""
    n = d.final.n
    results = []
    chain_ok = True
    prev_rhs = None
    for step in d.steps:
        ok, bad = step.check(d.field, n)
        results.append(StepResult(step.label, ok, bad))
        if prev_rhs is not None and step.lhs.atoms != prev_rhs.atoms:
            if eval_expr(step.lhs, d.field, n) != eval_expr(prev_rhs, d.field, n):
                chain_ok = False
        prev_rhs = step.rhs
    target = matmul_tensor(n, d.field)
    final_ok = expand_symmetric(d.final) == target
    return DerivationReport(tuple(results), chain_ok, final_ok, d.final.rank_bound)
