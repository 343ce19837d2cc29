"""The canonical random-walk engine for flip-graph search.

This module is the single definition of the walk; the compiled kernel in
``_walk.pyx`` is a transliteration and must follow it bit for bit.  The
walk is a pure function of (terms, target, seed, limits):

* State: an ordered list of terms, each a triple of nonzero factors.
  A term whose factor becomes zero is removed before anything else
  happens; removal moves the last term into the hole (swap-remove).

* Flip candidates: for slots 0, 1, 2 in order, group the terms by their
  exact factor in that slot; visit groups in increasing factor order
  (packed F2 factors compare as integers, generic factors compare by
  their entry sequence read from the last entry down, which matches the
  packed order on F2); inside a group of m >= 2 members, visit ordered
  index pairs (members ascending, first index major) and then the two
  orientations.  One uniform draw below the total count picks the flip.

* Flip (i, j, shared s, orientation o): the non-shared slots in
  increasing order are (s1, s2); orientation 0 adds j's s1-factor onto
  i and subtracts i's s2-factor from j, orientation 1 the reverse.
  The expansion of the state is unchanged.

* After every applied move, reductions are applied greedily: a dirty set
  of touched indices is processed smallest-first; a term's reduction
  partner is the smallest other index agreeing with it in at least two
  slots; the pair merges its remaining slot into the smaller index (both
  vanish if the merge is zero).  Pairs created by a plus split are exempt
  until either half is next modified, since the merge would undo the
  split immediately.

* When `patience` consecutive flips produce no reduction (or no flip is
  available) and budget remains, a plus move splits a uniformly chosen
  term's uniformly chosen factor into two nonzero parts, drawn by
  decoding one uniform integer (up to 100 attempts, after which plus
  moves are disabled for the rest of the walk).

* Each applied flip or plus move consumes one step; the walk stops at
  ``max_steps``, when a requested rank bound is reached, or when no move
  exists.  All randomness comes from one xoshiro256** stream.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction

from ..fields import F2, Field, PrimeField
from ..rng import Xoshiro256
from ..tensors import sparse_expansion

_OTHER_SLOTS = ((1, 2), (0, 2), (0, 1))
_SLOT_PAIRS = ((0, 1), (0, 2), (1, 2))


class PackedF2Kernel:
    """Factors are n*n-bit ints over F2; add and sub are XOR."""

    def __init__(self, n: int):
        self.n = n
        self.n2 = n * n
        self.zero = 0
        self.space = 1 << self.n2

    @staticmethod
    def add(a, b):
        return a ^ b

    sub = add

    @staticmethod
    def key(a):
        return a

    @staticmethod
    def decode_draw(x):
        return x

    def expansion_matches(self, fac, count, target) -> bool:
        return sparse_expansion(F2, self.n, zip(*(f[:count] for f in fac))) == target


class GenericKernel:
    """Factors are tuples of raw field scalars."""

    def __init__(self, field: Field, n: int):
        self.field = field
        self.n = n
        self.n2 = n * n
        self.zero = (field.zero,) * self.n2
        if isinstance(field, PrimeField):
            self.base = field.p
        else:
            self.base = 3  # digits decode to {0, 1, -1} over Q
        self.space = self.base**self.n2

    def add(self, a, b):
        f = self.field
        return tuple(f.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        f = self.field
        return tuple(f.sub(x, y) for x, y in zip(a, b))

    @staticmethod
    def key(a):
        return a[::-1]

    def decode_draw(self, x):
        f = self.field
        digits = []
        for _ in range(self.n2):
            digits.append(x % self.base)
            x //= self.base
        if isinstance(f, PrimeField):
            return tuple(digits)
        return tuple(Fraction(-1) if d == 2 else Fraction(d) for d in digits)

    def expansion_matches(self, fac, count, target) -> bool:
        return sparse_expansion(self.field, self.n, zip(*(f[:count] for f in fac))) == target


@dataclass
class WalkOutcome:
    best_terms: tuple
    best_rank: int
    steps: int
    final_terms: tuple
    trace: list | None


class SoundnessError(RuntimeError):
    """The walk state stopped matching the target; an engine bug."""


class _Walk:
    def __init__(self, kernel, start_terms, target, *, seed, max_steps,
                 plus_budget, patience, verify_every, target_rank,
                 collect_trace):
        if max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        self.k = kernel
        self.target = target
        self.rng = Xoshiro256(seed)
        self.max_steps = max_steps
        self.plus_left = plus_budget
        self.patience = patience
        self.verify_every = verify_every
        self.target_rank = target_rank
        self.trace = [] if collect_trace else None

        zero = kernel.zero
        self.fac = ([], [], [])
        for (a, b, c) in start_terms:
            if a != zero and b != zero and c != zero:
                self.fac[0].append(a)
                self.fac[1].append(b)
                self.fac[2].append(c)
        self.T = len(self.fac[0])
        # groups[s]: factor value -> ascending term indices carrying it;
        # active[s]: (sort key, value) pairs for groups of size >= 2.
        self.groups = ({}, {}, {})
        self.active = ([], [], [])
        for s in range(3):
            for t in range(self.T):
                self._ins(s, self.fac[s][t], t)
        self.dirty = set()
        self.forbidden = set()
        self.best_rank = None
        self.best_terms = None

    # -- index maintenance -------------------------------------------------

    def _ins(self, s, val, idx):
        g = self.groups[s].get(val)
        if g is None:
            self.groups[s][val] = [idx]
        else:
            insort(g, idx)
            if len(g) == 2:
                insort(self.active[s], (self.k.key(val), val))

    def _del(self, s, val, idx):
        g = self.groups[s][val]
        if len(g) == 1:
            del self.groups[s][val]
        else:
            g.remove(idx)
            if len(g) == 1:
                self.active[s].remove((self.k.key(val), val))

    def _set_factor(self, s, idx, val):
        self._del(s, self.fac[s][idx], idx)
        self.fac[s][idx] = val
        self._ins(s, val, idx)

    def _unforbid(self, idx):
        if self.forbidden:
            self.forbidden = {p for p in self.forbidden if idx not in p}

    def _swap_remove(self, x):
        last = self.T - 1
        self.dirty.discard(x)
        self._unforbid(x)
        for s in range(3):
            self._del(s, self.fac[s][x], x)
        if x != last:
            for s in range(3):
                v = self.fac[s][last]
                self._del(s, v, last)
                self.fac[s][x] = v
                self._ins(s, v, x)
            if last in self.dirty:
                self.dirty.discard(last)
                self.dirty.add(x)
            if self.forbidden:
                self.forbidden = {
                    tuple(sorted(x if a == last else a for a in p))
                    for p in self.forbidden
                }
        for s in range(3):
            self.fac[s].pop()
        self.T -= 1

    # -- flips ---------------------------------------------------------------

    def _count_candidates(self) -> int:
        total = 0
        for s in range(3):
            groups = self.groups[s]
            for _, val in self.active[s]:
                m = len(groups[val])
                total += 2 * m * (m - 1)
        return total

    def _apply_flip_at(self, k) -> bool:
        for s in range(3):
            groups = self.groups[s]
            for _, val in self.active[s]:
                g = groups[val]
                m = len(g)
                c = 2 * m * (m - 1)
                if k < c:
                    o = k & 1
                    pair = k >> 1
                    x = pair // (m - 1)
                    y = pair % (m - 1)
                    if y >= x:
                        y += 1
                    return self._apply_flip(g[x], g[y], s, o)
                k -= c
        raise AssertionError("flip candidate index out of range")

    def _apply_flip(self, i, j, s, o) -> bool:
        s1, s2 = _OTHER_SLOTS[s]
        oa, ob = (s1, s2) if o == 0 else (s2, s1)
        kern = self.k
        new_i = kern.add(self.fac[oa][i], self.fac[oa][j])
        new_j = kern.sub(self.fac[ob][j], self.fac[ob][i])
        self._set_factor(oa, i, new_i)
        self._set_factor(ob, j, new_j)
        self._unforbid(i)
        self._unforbid(j)
        if self.trace is not None:
            self.trace.append(("flip", i, j, s, o))
        removals = []
        if new_i == kern.zero:
            removals.append(i)
        if new_j == kern.zero:
            removals.append(j)
        self.dirty = {i, j} - set(removals)
        for x in sorted(removals, reverse=True):
            self._swap_remove(x)
        return self._greedy_reduce()

    # -- reductions ----------------------------------------------------------

    def _min_partner(self, t):
        best = None
        for sa, sb in _SLOT_PAIRS:
            ga = self.groups[sa].get(self.fac[sa][t])
            gb = self.groups[sb].get(self.fac[sb][t])
            if ga is None or gb is None or len(ga) < 2 or len(gb) < 2:
                continue
            ia = ib = 0
            while ia < len(ga) and ib < len(gb):
                a, b = ga[ia], gb[ib]
                if a == b:
                    if a != t and (min(a, t), max(a, t)) not in self.forbidden:
                        if best is None or a < best:
                            best = a
                        break  # members ascend; first hit is minimal for this pair
                    ia += 1
                    ib += 1
                elif a < b:
                    ia += 1
                else:
                    ib += 1
        return best

    def _greedy_reduce(self) -> bool:
        reduced = False
        kern = self.k
        while self.dirty:
            t = min(self.dirty)
            self.dirty.discard(t)
            if t >= self.T:
                continue
            j = self._min_partner(t)
            if j is None:
                continue
            a, b = (t, j) if t < j else (j, t)
            shared = [s for s in range(3) if self.fac[s][a] == self.fac[s][b]]
            o = 2 if len(shared) == 3 else ({0, 1, 2} - set(shared)).pop()
            merged = kern.add(self.fac[o][a], self.fac[o][b])
            if self.trace is not None:
                self.trace.append(("reduce", a, b, o))
            if merged == kern.zero:
                self._swap_remove(b)
                self._swap_remove(a)
            else:
                self._set_factor(o, a, merged)
                self._unforbid(a)
                self._swap_remove(b)
                self.dirty.add(a)
            reduced = True
        return reduced

    # -- plus moves ------------------------------------------------------------

    def _try_plus(self) -> bool:
        kern = self.k
        if self.T == 0:
            self.plus_left = 0
            return False
        t = self.rng.below(self.T)
        s = self.rng.below(3)
        a = self.fac[s][t]
        a1 = None
        for _ in range(100):
            cand = kern.decode_draw(self.rng.below(kern.space))
            if cand != kern.zero and cand != a:
                a1 = cand
                break
        if a1 is None:
            self.plus_left = 0
            return False
        a2 = kern.sub(a, a1)
        self._set_factor(s, t, a1)
        self._unforbid(t)
        new = self.T
        for sl in range(3):
            v = a2 if sl == s else self.fac[sl][t]
            self.fac[sl].append(v)
            self._ins(sl, v, new)
        self.T += 1
        if self.trace is not None:
            self.trace.append(("plus", t, s))
        self.forbidden.add((t, new))
        self.dirty = {t, new}
        self._greedy_reduce()
        self.plus_left -= 1
        return True

    # -- bookkeeping -------------------------------------------------------------

    def _snapshot_if_better(self):
        if self.best_rank is None or self.T < self.best_rank:
            self.best_rank = self.T
            self.best_terms = tuple(
                (self.fac[0][t], self.fac[1][t], self.fac[2][t]) for t in range(self.T)
            )

    def _verify_now(self):
        if not self.k.expansion_matches(self.fac, self.T, self.target):
            raise SoundnessError("walk state no longer expands to the target")

    def run(self) -> WalkOutcome:
        self.dirty = set(range(self.T))
        self._greedy_reduce()
        self._snapshot_if_better()
        steps = 0
        fails = 0
        while steps < self.max_steps:
            if self.target_rank is not None and self.best_rank <= self.target_rank:
                break
            n_flips = self._count_candidates()
            moved = False
            if self.plus_left > 0 and (fails >= self.patience or n_flips == 0):
                moved = self._try_plus()
                if moved:
                    fails = 0
            if not moved:
                if n_flips == 0:
                    if self.plus_left > 0:
                        continue
                    break
                if self._apply_flip_at(self.rng.below(n_flips)):
                    fails = 0
                else:
                    fails += 1
            steps += 1
            self._snapshot_if_better()
            if self.verify_every and steps % self.verify_every == 0:
                self._verify_now()
        self._verify_now()
        final = tuple(
            (self.fac[0][t], self.fac[1][t], self.fac[2][t]) for t in range(self.T)
        )
        return WalkOutcome(self.best_terms, self.best_rank, steps, final, self.trace)


def run_walk(kernel, start_terms, target, *, seed, max_steps, plus_budget=0,
             patience=1000, verify_every=0, target_rank=None,
             collect_trace=False) -> WalkOutcome:
    walk = _Walk(
        kernel, start_terms, target,
        seed=seed, max_steps=max_steps, plus_budget=plus_budget,
        patience=patience, verify_every=verify_every,
        target_rank=target_rank, collect_trace=collect_trace,
    )
    return walk.run()
