"""Random walk on symmetry-constrained decompositions.

Moves act on orbit representatives, so one move rewrites a whole group
orbit in lockstep and the state stays a valid symmetric decomposition;
the rank bound moves in units of an orbit size.  Because an orbit sum is
unchanged when its representative is replaced by any group image, a flip
or a reduction pairs term i's representative with g(rep_j) for an
explicit group element g that makes factors match exactly; g is part of
the move.

Only free orbits move.  A group-fixed term cannot soundly flip against a
single member of a free orbit (the defect is not group invariant), so
fixed terms are inert; a merge whose result is itself group fixed stands
for a whole-group sum, which is 6 times one term and therefore vanishes
exactly over characteristic 2 and 3, where both participants are simply
removed.  Any move whose modified representatives end up with stabilizer
sizes 2 or 3 is rejected, matching the tag set of
:class:`~mmrank.symmetry.SymmetricDecomposition`.

Schedule, randomness and bookkeeping follow the plain walk: uniform
choice over the enumerated flip candidates, greedy reductions in scan
order after every move, a patience window before plus splits of a free
orbit's representative, and one xoshiro256** stream for everything.
Plus draws decode exactly as in the generic engine.

The state holds plain values: each representative is a triple of raw
entry tuples in :class:`~mmrank.flipgraph.engine.GenericKernel` form
(integral rationals as ``int``), stored with its six images in
``GROUP`` order, computed once when the representative is set.  On
such triples the index inversion is ``m[::-1]`` on every factor and the
rotation a slot cycle, and a stabilizer is a count of images equal to
the representative.  ``Matrix``, ``RankOneTerm`` and ``OrbitTerm``
objects are built only to check the start, for ``verify_every`` and the
final check, and for the result.  ``symmetric_search`` runs and merges
its restarts with :func:`~mmrank.flipgraph.walk.best_of_restarts`, like
``search``.
"""

from __future__ import annotations

from ..rng import Xoshiro256
from ..symmetry import (
    OrbitTerm,
    StabilizerTag,
    SymmetricDecomposition,
    expand_symmetric,
)
from ..tensors import Matrix, RankOneTerm, Tensor
from .engine import _OTHER_SLOTS, GenericKernel, SoundnessError
from .walk import MASK64, SearchConfig, best_of_restarts

_SLOTS = (0, 1, 2)


class SymmetricSearchResult:
    __slots__ = ("decomposition", "rank", "steps", "seed")

    def __init__(self, decomposition: SymmetricDecomposition, rank: int, steps: int, seed: int):
        self.decomposition = decomposition
        self.rank = rank
        self.steps = steps
        self.seed = seed


def _images(rep: tuple) -> tuple:
    """The six images of a raw (u, v, w) triple, in ``GROUP`` order.

    Index inversion reverses every entry tuple; the slot rotation maps
    (u, v, w) to (w, u, v).
    """
    u, v, w = rep
    ru, rv, rw = u[::-1], v[::-1], w[::-1]
    return (rep, (w, u, v), (v, w, u), (ru, rv, rw), (rw, ru, rv), (rv, rw, ru))


def _free_images(rep: tuple):
    """The images of ``rep`` if only the identity fixes it, else None."""
    imgs = _images(rep)
    return imgs if imgs.count(rep) == 1 else None


def _with_factor(rep: tuple, slot: int, m: tuple) -> tuple:
    f = list(rep)
    f[slot] = m
    return tuple(f)


class _SymWalk:
    def __init__(self, target: Tensor, start: SymmetricDecomposition, cfg: SearchConfig):
        if start.n != target.n or start.field != target.field:
            raise ValueError("start and target have different shape or field")
        if expand_symmetric(start) != target:
            raise ValueError("start symmetric decomposition does not expand to the target")
        self.field = start.field
        self.n = start.n
        self.k = GenericKernel(start.field, start.n)
        self.target = target
        self.cfg = cfg
        self.rng = Xoshiro256(cfg.seed & MASK64)
        # images[i]: the six images of representative i, which is images[i][0]
        lift = self.k.lift
        self.images: list[tuple] = [
            _images(tuple(lift(m.entries) for m in ot.rep.factors)) for ot in start.orbit_terms
        ]
        self.tags: list[StabilizerTag] = [ot.tag for ot in start.orbit_terms]
        self.forbidden: set[tuple[int, int]] = set()
        self.plus_left = cfg.plus_budget
        self.best_rank = None
        self.best = None
        self.char_kills_group_sum = self.field.characteristic in (2, 3)

    # -- helpers ---------------------------------------------------------------

    def _rank(self) -> int:
        # orbit sizes: 6 per TRIVIAL tag, 1 per FULL tag
        return len(self.tags) + 5 * self.tags.count(StabilizerTag.TRIVIAL)

    def _trivial_indices(self) -> list[int]:
        return [i for i, t in enumerate(self.tags) if t is StabilizerTag.TRIVIAL]

    def _snapshot_if_better(self):
        r = self._rank()
        if self.best_rank is None or r < self.best_rank:
            self.best_rank = r
            self.best = tuple((imgs[0], t) for imgs, t in zip(self.images, self.tags))

    def _delete(self, drop: list[int]) -> None:
        drop_set = set(drop)
        remap = {}
        new_images, new_tags = [], []
        for i, (imgs, t) in enumerate(zip(self.images, self.tags)):
            if i not in drop_set:
                remap[i] = len(new_images)
                new_images.append(imgs)
                new_tags.append(t)
        self.images, self.tags = new_images, new_tags
        self.forbidden = {
            (remap[a], remap[b])
            for (a, b) in self.forbidden
            if a in remap and b in remap
        }

    def _unforbid(self, idx: int) -> None:
        if self.forbidden:
            self.forbidden = {p for p in self.forbidden if idx not in p}

    def _decomposition(self, pairs) -> SymmetricDecomposition:
        field, n = self.field, self.n
        return SymmetricDecomposition(n, field, tuple(
            OrbitTerm(RankOneTerm(*(Matrix(field, n, m) for m in rep)), tag)
            for rep, tag in pairs
        ))

    # -- moves ----------------------------------------------------------------

    def _flip_candidates(self) -> list[tuple[int, int, int, int, int]]:
        cands = []
        triv = self._trivial_indices()
        for i in triv:
            ri = self.images[i][0]
            for j in triv:
                if j == i:
                    continue
                for gi, image in enumerate(self.images[j]):
                    for s in _SLOTS:
                        if ri[s] == image[s]:
                            cands.append((i, j, gi, s, 0))
                            cands.append((i, j, gi, s, 1))
        return cands

    def _apply_flip(self, i, j, gi, s, o) -> bool:
        """Returns True when applied; False when tag revalidation rejects."""
        kern = self.k
        image = self.images[j][gi]
        s1, s2 = _OTHER_SLOTS[s]
        oa, ob = (s1, s2) if o == 0 else (s2, s1)
        ri = self.images[i][0]
        new_i = _with_factor(ri, oa, kern.add(ri[oa], image[oa]))
        new_j = _with_factor(image, ob, kern.sub(image[ob], ri[ob]))
        keep_i = kern.zero not in new_i
        keep_j = kern.zero not in new_j
        imgs_i = _free_images(new_i) if keep_i else None
        if keep_i and imgs_i is None:
            return False
        imgs_j = _free_images(new_j) if keep_j else None
        if keep_j and imgs_j is None:
            return False
        self.images[i] = imgs_i
        self.images[j] = imgs_j
        self._unforbid(i)
        self._unforbid(j)
        drop = [k for k, keep in ((i, keep_i), (j, keep_j)) if not keep]
        if drop:
            self._delete(sorted(drop))
        self._reduce_all()
        return True

    def _find_reduction(self):
        """First viable reduction in scan order, or None."""
        kern = self.k
        triv = self._trivial_indices()
        for i in triv:
            ri = self.images[i][0]
            for j in triv:
                if j == i:
                    continue
                pair = (min(i, j), max(i, j))
                if pair in self.forbidden:
                    continue
                for image in self.images[j]:
                    same = [ri[s] == image[s] for s in _SLOTS]
                    if sum(same) < 2:
                        continue
                    o = same.index(False) if False in same else 2
                    merged = _with_factor(ri, o, kern.add(ri[o], image[o]))
                    if kern.zero in merged:
                        return (i, j, None)
                    imgs = _images(merged)
                    stab = imgs.count(merged)
                    if stab == 1:
                        return (i, j, imgs)
                    if stab == 6 and self.char_kills_group_sum:
                        # merged is group fixed: the pair sums to 6 * merged = 0
                        return (i, j, None)
                    # stabilizer sizes 2 and 3 (or fixed over other fields)
                    # have no representable tag; not a viable reduction
        return None

    def _reduce_all(self) -> bool:
        reduced = False
        while True:
            hit = self._find_reduction()
            if hit is None:
                return reduced
            i, j, merged = hit
            if merged is None:
                self._delete(sorted((i, j)))
            else:
                self.images[i] = merged
                self._unforbid(i)
                self._delete([j])
            reduced = True

    def _try_plus(self) -> bool:
        kern = self.k
        triv = self._trivial_indices()
        if not triv:
            self.plus_left = 0
            return False
        t = triv[self.rng.below(len(triv))]
        s = self.rng.below(3)
        rep = self.images[t][0]
        a = rep[s]
        split = None
        for _ in range(100):
            m1 = kern.decode_draw(self.rng.below(kern.space))
            if m1 == kern.zero or m1 == a:
                continue
            first = _free_images(_with_factor(rep, s, m1))
            second = None if first is None else _free_images(_with_factor(rep, s, kern.sub(a, m1)))
            if second is not None:
                split = (first, second)
                break
        if split is None:
            self.plus_left = 0
            return False
        first, second = split
        self.images[t] = first
        self._unforbid(t)
        self.images.append(second)
        self.tags.append(StabilizerTag.TRIVIAL)
        new = len(self.images) - 1
        self.forbidden.add((t, new))
        self._reduce_all()
        self.plus_left -= 1
        return True

    def _verify(self):
        sd = self._decomposition((imgs[0], t) for imgs, t in zip(self.images, self.tags))
        if expand_symmetric(sd) != self.target:
            raise SoundnessError("symmetric walk state no longer expands to the target")

    def run(self) -> SymmetricSearchResult:
        cfg = self.cfg
        self._reduce_all()
        self._snapshot_if_better()
        steps = 0
        fails = 0
        while steps < cfg.max_steps:
            if cfg.target_rank is not None and self.best_rank <= cfg.target_rank:
                break
            cands = self._flip_candidates()
            moved = False
            if self.plus_left > 0 and (fails >= cfg.patience or not cands):
                moved = self._try_plus()
                if moved:
                    fails = 0
            if not moved:
                if not cands:
                    if self.plus_left > 0:
                        continue
                    break
                before = self._rank()
                applied = self._apply_flip(*cands[self.rng.below(len(cands))])
                if applied and self._rank() < before:
                    fails = 0
                else:
                    fails += 1
            steps += 1
            self._snapshot_if_better()
            if cfg.verify_every and steps % cfg.verify_every == 0:
                self._verify()
        self._verify()
        best = self._decomposition(self.best)
        if expand_symmetric(best) != self.target:
            raise SoundnessError("symmetric walk best state fails verification")
        return SymmetricSearchResult(best, self.best_rank, steps, cfg.seed & MASK64)


def symmetric_random_walk(target: Tensor, start: SymmetricDecomposition,
                          cfg: SearchConfig) -> SymmetricSearchResult:
    """One deterministic walk over orbit representatives."""
    return _SymWalk(target, start, cfg).run()


def symmetric_search(target: Tensor, start: SymmetricDecomposition,
                     cfg: SearchConfig, workers: int = 1) -> SymmetricSearchResult:
    """Best of cfg.restarts walks, restart k seeded with seed + k.

    Restarts run and merge as in :func:`~mmrank.flipgraph.walk.search`,
    so the answer is identical for any worker count.
    """
    return best_of_restarts(symmetric_random_walk, target, start, cfg, workers)
