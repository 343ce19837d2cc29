"""Single flip-graph moves on an inspectable search state.

:class:`SearchState` keeps a decomposition together with per-slot indexes
mapping factor fingerprints to the terms carrying that exact factor, so
move preconditions are lookups instead of scans.  The walk engines keep
their own compact version of this structure; this one is the reference
surface for tests and by-hand exploration, with ordinary list semantics
(removing a term shifts later indices down by one).

Every move preserves the expansion of the state exactly: a flip rewrites
two terms sharing a factor, a reduction merges two terms sharing two
factors (dropping both when the merge cancels), and a plus move splits
one factor into a sum of two.  Terms with a zero factor expand to zero
and are swept out after every move.
"""

from __future__ import annotations

from ..tensors import Decomposition, Matrix, RankOneTerm, Tensor, verify


class MoveRejected(Exception):
    """A move precondition failed; the state is unchanged."""


def _with_factor(t: RankOneTerm, slot: int, m: Matrix) -> RankOneTerm:
    f = list(t.factors)
    f[slot] = m
    return RankOneTerm(*f)


class SearchState:
    def __init__(self, dec: Decomposition, target: Tensor):
        if dec.n != target.n or dec.field != target.field:
            raise ValueError("decomposition and target have different shape or field")
        self.n = dec.n
        self.field = dec.field
        self.target = target
        self.terms: list[RankOneTerm] = [
            t for t in dec.terms if not any(m.is_zero for m in t.factors)
        ]
        self.indexes: tuple[dict, dict, dict] = ({}, {}, {})
        for i, t in enumerate(self.terms):
            self._index_add(i, t)
        self.best_rank = len(self.terms)
        self.best_terms = tuple(self.terms)
        self.check()

    # -- index maintenance ---------------------------------------------------

    def _index_add(self, i: int, t: RankOneTerm) -> None:
        for s, m in enumerate(t.factors):
            lst = self.indexes[s].setdefault(m.fingerprint(), [])
            lo = 0
            while lo < len(lst) and lst[lo] < i:
                lo += 1
            lst.insert(lo, i)

    def _index_remove(self, i: int, t: RankOneTerm) -> None:
        for s, m in enumerate(t.factors):
            fp = m.fingerprint()
            lst = self.indexes[s][fp]
            lst.remove(i)
            if not lst:
                del self.indexes[s][fp]

    def _delete_terms(self, drop: list[int]) -> None:
        """Remove the given indices; later terms shift down."""
        keep = [t for i, t in enumerate(self.terms) if i not in drop]
        self.terms = keep
        self.indexes = ({}, {}, {})
        for i, t in enumerate(self.terms):
            self._index_add(i, t)

    def _replace_term(self, i: int, new: RankOneTerm) -> None:
        self._index_remove(i, self.terms[i])
        self.terms[i] = new
        self._index_add(i, new)

    def _sweep_zeros(self) -> None:
        drop = [i for i, t in enumerate(self.terms) if any(m.is_zero for m in t.factors)]
        if drop:
            self._delete_terms(drop)

    def _note_best(self) -> None:
        if len(self.terms) < self.best_rank:
            self.best_rank = len(self.terms)
            self.best_terms = tuple(self.terms)

    # -- inspection ------------------------------------------------------------

    @property
    def rank_bound(self) -> int:
        return len(self.terms)

    def decomposition(self) -> Decomposition:
        return Decomposition(self.n, self.field, tuple(self.terms))

    def rebuilt_indexes(self) -> tuple[dict, dict, dict]:
        """From-scratch indexes, for consistency checks against maintained ones."""
        idx: tuple[dict, dict, dict] = ({}, {}, {})
        for i, t in enumerate(self.terms):
            for s, m in enumerate(t.factors):
                idx[s].setdefault(m.fingerprint(), []).append(i)
        return idx

    def check(self) -> None:
        """Assert the state still expands to the target (debug oracle)."""
        if not verify(self.decomposition(), self.target).ok:
            raise AssertionError("search state no longer expands to the target")


def flip(state: SearchState, i: int, j: int, slot: int, absorb_slot: int) -> SearchState:
    """Rewrite terms i and j sharing factor `slot` exactly.

    The absorbing slot of term i gains term j's factor; term j's other
    free slot loses term i's factor.  Term count and expansion are
    unchanged (before zero sweeping).
    """
    terms = state.terms
    if not (0 <= i < len(terms) and 0 <= j < len(terms)) or i == j:
        raise MoveRejected(f"invalid term pair ({i}, {j})")
    if slot not in (0, 1, 2) or absorb_slot not in (0, 1, 2) or absorb_slot == slot:
        raise MoveRejected(f"invalid slots ({slot}, {absorb_slot})")
    if terms[i].factors[slot] != terms[j].factors[slot]:
        raise MoveRejected(f"terms {i} and {j} do not share slot {slot}")
    other = ({0, 1, 2} - {slot, absorb_slot}).pop()
    ti, tj = terms[i], terms[j]
    new_i = _with_factor(ti, absorb_slot, ti.factors[absorb_slot] + tj.factors[absorb_slot])
    new_j = _with_factor(tj, other, tj.factors[other] - ti.factors[other])
    state._replace_term(i, new_i)
    state._replace_term(j, new_j)
    state._sweep_zeros()
    state._note_best()
    return state


def reduce(state: SearchState, i: int, j: int) -> SearchState:
    """Merge terms i and j agreeing in two slots; rank drops by 1 or 2."""
    terms = state.terms
    if not (0 <= i < len(terms) and 0 <= j < len(terms)) or i == j:
        raise MoveRejected(f"invalid term pair ({i}, {j})")
    ti, tj = terms[i], terms[j]
    shared = [s for s in range(3) if ti.factors[s] == tj.factors[s]]
    if len(shared) < 2:
        raise MoveRejected(f"terms {i} and {j} share {len(shared)} slots, need 2")
    o = 2 if len(shared) == 3 else ({0, 1, 2} - set(shared)).pop()
    merged = ti.factors[o] + tj.factors[o]
    if merged.is_zero:
        state._delete_terms([min(i, j), max(i, j)])
    else:
        state._replace_term(min(i, j), _with_factor(ti, o, merged))
        state._delete_terms([max(i, j)])
    state._note_best()
    return state


def plus_move(state: SearchState, i: int, slot: int, first: Matrix, second: Matrix) -> SearchState:
    """Split term i's factor in `slot` into first + second; rank grows by 1.

    A zero part is legal but useless: the zero term is swept immediately.
    The walk, which owns the plus budget, enforces it before calling this.
    """
    terms = state.terms
    if not 0 <= i < len(terms):
        raise MoveRejected(f"invalid term index {i}")
    if slot not in (0, 1, 2):
        raise MoveRejected(f"invalid slot {slot}")
    if first + second != terms[i].factors[slot]:
        raise MoveRejected("split parts do not sum to the factor")
    base = terms[i]
    state._replace_term(i, _with_factor(base, slot, first))
    tail = _with_factor(base, slot, second)
    state.terms.append(tail)
    state._index_add(len(state.terms) - 1, tail)
    state._sweep_zeros()
    return state


def find_reductions(state: SearchState) -> list[tuple[int, int]]:
    """All unordered pairs agreeing in at least two slots, (i, j) ascending."""
    found = set()
    for sa, sb in ((0, 1), (0, 2), (1, 2)):
        for i, t in enumerate(state.terms):
            ga = state.indexes[sa].get(t.factors[sa].fingerprint(), ())
            gb = state.indexes[sb].get(t.factors[sb].fingerprint(), ())
            common = set(ga) & set(gb)
            for j in common:
                if j > i:
                    found.add((i, j))
    return sorted(found)
