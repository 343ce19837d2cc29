"""The canonical random-walk engine for flip-graph search.

This module is the single definition of the walk; the native kernel in
``_walk.c``, which walks over F2 and F3, is a transliteration and must
follow it bit for bit.  The
walk is a pure function of (terms, target, seed, limits):

* State: an ordered list of terms, each a triple of nonzero factors.
  A term whose factor becomes zero is removed before anything else
  happens; removal moves the last term into the hole (swap-remove).

* Flip candidates: for slots 0, 1, 2 in order, group the terms by their
  exact factor in that slot; visit groups in increasing factor order
  (factors compare by their entry sequence read from the last entry
  down, which over F2 and F3 is the order of the integer sum
  x_i p**i); inside a group of m >= 2 members, visit ordered
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

This schedule is :class:`_Schedule`, run by :class:`_Walk` and by the
symmetric walk (:mod:`.symwalk`), which supply their state and moves as
hooks: ``_reduce_all``, ``_count_candidates``, ``_apply_flip_at(k)`` (True
when it reduced), ``_plus_sites``, ``_factor(t, s)``, ``_split(t, s, a1)``
(True when applied), ``_snapshot_if_better`` and ``_verify_now``.

Each move is also a :class:`_Walk` method that applies it alone, with
no reduction: ``_flip(i, j, s, o)``, ``_merge(a, b)`` for a given pair
and ``_plus(t, s, a1)`` for a given split; ``_reduce_all`` merges
through ``_merge``.

Factors are plain Python values, tuples of raw scalars in every field.
Over Q an integral scalar is an ``int`` and only a
non-integral one a ``Fraction`` (see :class:`GenericKernel`); since equal
values of the two types hash, compare and order alike, the trajectory
is the one an all-``Fraction`` state would follow.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from operator import add as _add, sub as _sub

from ..fields import Field, PrimeField
from ..rng import Xoshiro256
from ..tensors import sparse_expansion

_OTHER_SLOTS = ((1, 2), (0, 2), (0, 1))
_SLOT_PAIRS = ((0, 1), (0, 2), (1, 2))


class GenericKernel:
    """Factors are tuples of raw field scalars.

    Over a prime field they are residues.  Over Q an integral entry is an
    ``int`` and only a non-integral one a ``Fraction``: :meth:`lift` puts
    entries in that form and :meth:`add` / :meth:`sub` keep it.  An
    ``int`` and the equal ``Fraction`` hash, compare and order alike, so
    the groups, the active-key order and the trajectory are those of an
    all-``Fraction`` walk, at the cost of ``int`` hashing.  ``Matrix``
    coerces the entries back to ``Fraction`` on the way out.
    """

    def __init__(self, field: Field, n: int):
        self.field = field
        self.n = n
        self.n2 = n * n
        self.zero = (0,) * self.n2
        self.prime = isinstance(field, PrimeField)
        if self.prime:
            self.base = field.p
        else:
            self.base = 3  # digits decode to {0, 1, -1} over Q
        self.space = self.base**self.n2

    def lift(self, entries) -> tuple:
        """Kernel form of raw entries of this field."""
        if self.prime:
            return tuple(entries)
        return _integral(tuple(entries))

    def add(self, a, b):
        if self.prime:
            p = self.field.p
            return tuple((x + y) % p for x, y in zip(a, b))
        return _integral(tuple(map(_add, a, b)))

    def sub(self, a, b):
        if self.prime:
            p = self.field.p
            return tuple((x - y) % p for x, y in zip(a, b))
        return _integral(tuple(map(_sub, a, b)))

    @staticmethod
    def key(a):
        return a[::-1]

    def decode_draw(self, x):
        digits = []
        for _ in range(self.n2):
            digits.append(x % self.base)
            x //= self.base
        if self.prime:
            return tuple(digits)
        return tuple(-1 if d == 2 else d for d in digits)


def _integral(t: tuple) -> tuple:
    """``t`` with every integral ``Fraction`` replaced by its ``int``."""
    if Fraction in map(type, t):
        return tuple(x.numerator if x.denominator == 1 else x for x in t)
    return t


@dataclass
class WalkOutcome:
    best_terms: tuple
    best_rank: int
    steps: int
    final_terms: tuple
    trace: list | None


class SoundnessError(RuntimeError):
    """The walk state stopped matching the target; an engine bug."""


class _Schedule:
    """The step loop, plus draw and limits; ``target`` is in ``Tensor.sparse`` form."""

    def __init__(self, kernel, target, *, seed, max_steps, plus_budget,
                 patience, verify_every, target_rank):
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
        self.forbidden = set()
        self.best_rank = None

    def _unforbid(self, idx):
        if self.forbidden:
            self.forbidden = {p for p in self.forbidden if idx not in p}

    def _try_plus(self) -> bool:
        """Draw a site and a slot, then offer up to 100 drawn halves to ``_split``.

        With no site, or no split applied, plus moves stop for the walk.
        """
        sites = self._plus_sites()
        if sites:
            rng, kern = self.rng, self.k
            t = sites[rng.below(len(sites))]
            s = rng.below(3)
            a = self._factor(t, s)
            for _ in range(100):
                a1 = kern.decode_draw(rng.below(kern.space))
                if a1 != kern.zero and a1 != a and self._split(t, s, a1):
                    self._reduce_all()
                    self.plus_left -= 1
                    return True
        self.plus_left = 0
        return False

    def _run(self) -> int:
        """Reduce, then walk until a stop rule holds; returns the steps taken."""
        self._reduce_all()
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
        return steps


class _Walk(_Schedule):
    def __init__(self, kernel, start_terms, target, *, collect_trace, **limits):
        super().__init__(kernel, target, **limits)
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
        # active[s]: (sort key, value) pairs for groups of size >= 2;
        # cand[s]: slot s's flip candidates, 2m(m-1) summed over its groups of m.
        self.groups = ({}, {}, {})
        self.active = ([], [], [])
        self.cand = [0, 0, 0]
        for s in range(3):
            for t in range(self.T):
                self._ins(s, self.fac[s][t], t)
        self.dirty = set()
        self.best_terms = None

    # -- index maintenance -------------------------------------------------

    def _ins(self, s, val, idx):
        # joining a group of m adds 2(m+1)m - 2m(m-1) = 4m candidates
        g = self.groups[s].get(val)
        if g is None:
            self.groups[s][val] = [idx]
        else:
            self.cand[s] += 4 * len(g)
            insort(g, idx)
            if len(g) == 2:
                insort(self.active[s], (self.k.key(val), val))

    def _del(self, s, val, idx):
        # leaving a group of m removes 4(m-1) candidates
        g = self.groups[s][val]
        if len(g) == 1:
            del self.groups[s][val]
        else:
            self.cand[s] -= 4 * (len(g) - 1)
            g.remove(idx)
            if len(g) == 1:
                self.active[s].remove((self.k.key(val), val))

    def _set_factor(self, s, idx, val):
        self._del(s, self.fac[s][idx], idx)
        self.fac[s][idx] = val
        self._ins(s, val, idx)

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
        return sum(self.cand)

    def _apply_flip_at(self, k) -> bool:
        for s in range(3):
            if k >= self.cand[s]:
                k -= self.cand[s]
                continue
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
                    self._flip(g[x], g[y], s, o)
                    return self._reduce_all()
                k -= c
        raise AssertionError("flip candidate index out of range")

    def _flip(self, i, j, s, o):
        """Flip terms i and j, which share their slot-s factor; no reduction.

        A term left with a zero factor is swap-removed; the surviving
        touched terms are the dirty set for the next greedy reduction.
        """
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

    def _merge(self, a, b):
        """Merge term b into term a < b; they agree in at least two slots.

        The remaining slot (slot 2 when all three agree) becomes the sum
        in term a, which turns dirty; both terms go if the sum is zero.
        """
        kern = self.k
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

    def _reduce_all(self) -> bool:
        reduced = False
        while self.dirty:
            t = min(self.dirty)
            self.dirty.discard(t)
            if t >= self.T:
                continue
            j = self._min_partner(t)
            if j is None:
                continue
            self._merge(min(t, j), max(t, j))
            reduced = True
        return reduced

    # -- plus moves ------------------------------------------------------------

    def _plus_sites(self):
        return range(self.T)

    def _factor(self, t, s):
        return self.fac[s][t]

    def _split(self, t, s, a1) -> bool:
        self._plus(t, s, a1)
        return True

    def _plus(self, t, s, a1):
        """Split term t's slot-s factor a into a1 + (a - a1); no reduction.

        The second half becomes a new last term; the two halves are exempt
        from merging with each other and are the dirty set.
        """
        a2 = self.k.sub(self.fac[s][t], a1)
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

    # -- bookkeeping -------------------------------------------------------------

    def _snapshot_if_better(self):
        if self.best_rank is None or self.T < self.best_rank:
            self.best_rank = self.T
            self.best_terms = tuple(
                (self.fac[0][t], self.fac[1][t], self.fac[2][t]) for t in range(self.T)
            )

    def _verify_now(self):
        if sparse_expansion(self.k.field, self.k.n, zip(*self.fac)) != self.target:
            raise SoundnessError("walk state no longer expands to the target")

    def run(self) -> WalkOutcome:
        self.dirty = set(range(self.T))
        steps = self._run()
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
