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

The walk runs on :class:`~mmrank.flipgraph.engine._Schedule`, the step
loop and plus draw of the plain walk, and supplies its moves as the
schedule's hooks: flips are drawn uniformly from an enumerated candidate
list, reductions are found in scan order after every move, and plus
moves split a free orbit's representative.

The state holds plain values: each representative is a triple of raw
entry tuples in :class:`~mmrank.flipgraph.engine.GenericKernel` form
(integral rationals as ``int``), stored with its six images in
``GROUP`` order, computed once when the representative is set.  On
such triples the index inversion is ``m[::-1]`` on every factor and the
rotation a slot cycle, and a stabilizer is a count of images equal to
the representative.  Soundness checks expand these triples sparsely;
``Matrix``, ``RankOneTerm`` and ``OrbitTerm`` objects are built only for
the result, a :class:`~mmrank.flipgraph.walk.SearchResult` whose
decomposition is symmetric.  ``symmetric_search`` runs and merges its
restarts with :func:`~mmrank.flipgraph.walk.best_of_restarts`, like
``search``.
"""

from __future__ import annotations

from ..symmetry import OrbitTerm, StabilizerTag, SymmetricDecomposition
from ..tensors import Matrix, RankOneTerm, Tensor, sparse_expansion
from .engine import _OTHER_SLOTS, GenericKernel, SoundnessError, _Schedule
from .walk import SearchConfig, SearchResult, best_of_restarts

_SLOTS = (0, 1, 2)


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


def _orbit_triples(pairs):
    """The plain terms of (images, tag) pairs: a fixed term once, a free orbit's six images."""
    for imgs, tag in pairs:
        if tag is StabilizerTag.TRIVIAL:
            yield from imgs
        else:
            yield imgs[0]


class _SymWalk(_Schedule):
    def __init__(self, target: Tensor, start: SymmetricDecomposition, cfg: SearchConfig):
        if start.n != target.n or start.field != target.field:
            raise ValueError("start and target have different shape or field")
        self.seed = cfg.seed
        super().__init__(
            GenericKernel(start.field, start.n), target.sparse(),
            seed=self.seed, max_steps=cfg.max_steps, plus_budget=cfg.plus_budget,
            patience=cfg.patience, verify_every=cfg.verify_every, target_rank=cfg.target_rank,
        )
        # images[i]: the six images of representative i, which is images[i][0]
        lift = self.k.lift
        self.images: list[tuple] = [
            _images(tuple(lift(m.entries) for m in ot.rep.factors)) for ot in start.orbit_terms
        ]
        self.tags: list[StabilizerTag] = [ot.tag for ot in start.orbit_terms]
        if not self._expands(zip(self.images, self.tags)):
            raise ValueError("start symmetric decomposition does not expand to the target")
        self.best = None
        self.char_kills_group_sum = start.field.characteristic in (2, 3)

    # -- helpers ---------------------------------------------------------------

    def _rank(self) -> int:
        # orbit sizes: 6 per TRIVIAL tag, 1 per FULL tag
        return len(self.tags) + 5 * self.tags.count(StabilizerTag.TRIVIAL)

    def _trivial_indices(self) -> list[int]:
        return [i for i, t in enumerate(self.tags) if t is StabilizerTag.TRIVIAL]

    def _expands(self, pairs) -> bool:
        return sparse_expansion(self.k.field, self.k.n, _orbit_triples(pairs)) == self.target

    def _snapshot_if_better(self):
        r = self._rank()
        if self.best_rank is None or r < self.best_rank:
            self.best_rank = r
            self.best = tuple(zip(self.images, self.tags))

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

    def _decomposition(self, pairs) -> SymmetricDecomposition:
        field, n = self.k.field, self.k.n
        return SymmetricDecomposition(n, field, tuple(
            OrbitTerm(RankOneTerm(*(Matrix(field, n, m) for m in imgs[0])), tag)
            for imgs, tag in pairs
        ))

    # -- moves ----------------------------------------------------------------

    def _count_candidates(self) -> int:
        """Enumerate the flip candidates; ``_apply_flip_at`` picks from them."""
        self.cands = cands = []
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
        return len(cands)

    def _apply_flip_at(self, k) -> bool:
        before = self._rank()
        return self._apply_flip(*self.cands[k]) and self._rank() < before

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

    _plus_sites = _trivial_indices

    def _factor(self, t, s):
        return self.images[t][0][s]

    def _split(self, t, s, m1) -> bool:
        """Split representative t's slot s into m1 and the rest, if both halves are free."""
        rep = self.images[t][0]
        first = _free_images(_with_factor(rep, s, m1))
        second = None if first is None else _free_images(
            _with_factor(rep, s, self.k.sub(rep[s], m1)))
        if second is None:
            return False
        self.images[t] = first
        self._unforbid(t)
        self.images.append(second)
        self.tags.append(StabilizerTag.TRIVIAL)
        self.forbidden.add((t, len(self.images) - 1))
        return True

    def _verify_now(self):
        if not self._expands(zip(self.images, self.tags)):
            raise SoundnessError("symmetric walk state no longer expands to the target")

    def run(self) -> SearchResult:
        steps = self._run()
        if not self._expands(self.best):
            raise SoundnessError("symmetric walk best state fails verification")
        return SearchResult(self._decomposition(self.best), self.best_rank, steps, self.seed)


def symmetric_random_walk(target: Tensor, start: SymmetricDecomposition,
                          cfg: SearchConfig) -> SearchResult:
    """One deterministic walk over orbit representatives."""
    return _SymWalk(target, start, cfg).run()


def symmetric_search(target: Tensor, start: SymmetricDecomposition,
                     cfg: SearchConfig, workers: int = 1) -> SearchResult:
    """Best of cfg.restarts walks, restart k seeded with seed + k.

    Restarts run and merge as in :func:`~mmrank.flipgraph.walk.search`,
    so the answer is identical for any worker count.
    """
    return best_of_restarts(symmetric_random_walk, target, start, cfg, workers)
