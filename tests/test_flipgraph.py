import random
from dataclasses import replace

import pytest

from mmrank.fields import F2, PrimeField, Q
from mmrank.flipgraph import SearchConfig, SearchResult, _native, random_walk, search, walk
from mmrank.flipgraph.engine import _OTHER_SLOTS, _Walk, run_walk
from mmrank.flipgraph.walk import _from_kernel_terms, _kernel_for, _to_kernel_terms
from mmrank.proof import rank7_symmetric_form
from mmrank.symmetry import flatten
from mmrank.tensors import (
    Decomposition,
    Matrix,
    RankOneTerm,
    expand_decomposition,
    matmul_tensor,
    standard_decomposition,
    verify,
)

F3 = PrimeField(3)


def rand_matrix(field, n, rnd):
    return Matrix(field, n, [rnd.randrange(field.characteristic) for _ in range(n * n)])


def rand_nonzero(field, n, rnd):
    while True:
        m = rand_matrix(field, n, rnd)
        if not m.is_zero:
            return m


def rand_dec(field, n, terms, rnd):
    return Decomposition(n, field, tuple(
        RankOneTerm(*(rand_nonzero(field, n, rnd) for _ in range(3))) for _ in range(terms)
    ))


def pool_dec(field, n, terms, rnd, pool=3):
    """Random terms whose factors come from a few matrices per slot, so many are shared."""
    pools = [[rand_nonzero(field, n, rnd) for _ in range(pool)] for _ in range(3)]
    return Decomposition(n, field, tuple(
        RankOneTerm(*(rnd.choice(p) for p in pools)) for _ in range(terms)
    ))


def make_walk(dec, target=None):
    """Walk state on ``dec``, its factors as entry tuples; no move made yet."""
    kernel = _kernel_for(dec.field, dec.n)
    target = expand_decomposition(dec) if target is None else target
    return _Walk(kernel, _to_kernel_terms(kernel, dec), target.sparse(), seed=0, max_steps=1,
                 plus_budget=0, patience=0, verify_every=0, target_rank=None,
                 collect_trace=False)


def terms_of(w):
    return _from_kernel_terms(w.k, list(zip(*w.fac)))


def kernel_factor(w, m):
    return w.k.lift(m.entries)


def orientation(s, absorb):
    """The flip orientation in which slot ``absorb`` of the first term gains."""
    return 0 if absorb == _OTHER_SLOTS[s][0] else 1


def shared_slot_pairs(w):
    return [(i, j, s) for i in range(w.T) for j in range(w.T) if i != j
            for s in range(3) if w.fac[s][i] == w.fac[s][j]]


def agreements(w, a, b):
    return sum(w.fac[s][a] == w.fac[s][b] for s in range(3))


# -- single moves -----------------------------------------------------------------


def test_flip_preserves_expansion_on_random_states():
    rnd = random.Random(0)
    done = 0
    while done < 80:
        w = make_walk(rand_dec((F2, F3)[done % 2], 2, 6, rnd))
        pairs = shared_slot_pairs(w)
        if not pairs:
            continue
        w._flip(*pairs[rnd.randrange(len(pairs))], rnd.randrange(2))
        w._verify_now()  # expansion unchanged
        done += 1


def test_flip_example_shapes():
    # (a,b,c) + (a,b',c') -> (a, b+b', c) + (a, b', c'-c)
    rnd = random.Random(1)
    while True:
        dec = rand_dec(F3, 2, 2, rnd)
        t0, t1 = dec.terms
        if t0.u == t1.u and not (t0.v + t1.v).is_zero and not (t1.w - t0.w).is_zero:
            break
    w = make_walk(dec)
    a, b, c = t0.factors
    _, bp, cp = t1.factors
    w._flip(0, 1, 0, orientation(0, absorb=1))
    assert terms_of(w) == (RankOneTerm(a, b + bp, c), RankOneTerm(a, bp, cp - c))
    w._verify_now()


def test_flip_zeroing_a_factor_drops_the_term():
    # equal third factors: the flipped partner ends with a zero factor
    f = Q
    a = Matrix.from_rows(f, [[1, 0], [0, 0]])
    b1 = Matrix.from_rows(f, [[0, 1], [0, 0]])
    b2 = Matrix.from_rows(f, [[0, 0], [1, 0]])
    c = Matrix.from_rows(f, [[1, 2], [3, 4]])
    w = make_walk(Decomposition(2, f, (RankOneTerm(a, b1, c), RankOneTerm(a, b2, c))))
    w._flip(0, 1, 0, orientation(0, absorb=1))
    assert w.T == 1
    assert terms_of(w) == (RankOneTerm(a, b1 + b2, c),)
    w._verify_now()


def test_flip_candidates_are_the_pairs_sharing_a_slot():
    # The walk flips only candidates it enumerates from the factor groups;
    # each is a pair of distinct terms sharing the slot, both orientations.
    rnd = random.Random(2)
    for trial in range(40):
        w = make_walk(pool_dec((F2, F3)[trial % 2], 2, 8, rnd))
        for s in range(3):
            for _key, val in w.active[s]:
                members = w.groups[s][val]
                assert len(members) >= 2 and all(w.fac[s][t] == val for t in members)
        picked = []
        w._flip = lambda i, j, s, o: picked.append((i, j, s, o))
        for k in range(w._count_candidates()):
            assert w._apply_flip_at(k) is False  # nothing dirty, nothing reduced
        expected = [(i, j, s, o) for (i, j, s) in shared_slot_pairs(w) for o in (0, 1)]
        assert expected and sorted(picked) == sorted(expected)


def test_reduce_merges_and_cancels():
    f = F3
    a = Matrix.from_rows(f, [[1, 0], [0, 0]])
    b = Matrix.from_rows(f, [[0, 1], [0, 0]])
    c1 = Matrix.from_rows(f, [[1, 1], [0, 2]])
    c2 = Matrix.from_rows(f, [[0, 1], [1, 0]])
    w = make_walk(Decomposition(2, f, (RankOneTerm(a, b, c1), RankOneTerm(a, b, c2))))
    w._merge(0, 1)
    assert w.T == 1
    assert terms_of(w) == (RankOneTerm(a, b, c1 + c2),)
    w._verify_now()

    dec2 = Decomposition(2, Q, (
        RankOneTerm(
            Matrix.from_rows(Q, [[1, 0], [0, 0]]),
            Matrix.from_rows(Q, [[0, 1], [0, 0]]),
            Matrix.from_rows(Q, [[1, 2], [3, 4]]),
        ),
        RankOneTerm(
            Matrix.from_rows(Q, [[1, 0], [0, 0]]),
            Matrix.from_rows(Q, [[0, 1], [0, 0]]),
            Matrix.from_rows(Q, [[-1, -2], [-3, -4]]),
        ),
    ))
    w2 = make_walk(dec2)
    w2._merge(0, 1)
    assert w2.T == 0
    w2._verify_now()


def test_reduce_identical_terms_over_f2_cancels():
    f = F2
    a = Matrix.from_rows(f, [[1, 0], [0, 1]])
    b = Matrix.from_rows(f, [[0, 1], [1, 0]])
    c = Matrix.from_rows(f, [[1, 1], [0, 1]])
    t = RankOneTerm(a, b, c)
    w = make_walk(Decomposition(2, f, (t, t)))
    w._merge(0, 1)
    assert w.T == 0
    w._verify_now()


def test_min_partner_is_the_first_term_agreeing_in_two_slots():
    # The walk merges only the partner _min_partner names: the smallest
    # other index agreeing in at least two slots, outside the forbidden pairs.
    rnd = random.Random(3)
    found = 0
    for trial in range(40):
        w = make_walk(pool_dec((F2, F3)[trial % 2], 2, 8, rnd))
        w.forbidden.add((0, 1))  # as if a plus move had just split them
        for t in range(w.T):
            agree = [j for j in range(w.T) if j != t and agreements(w, t, j) >= 2
                     and (min(t, j), max(t, j)) not in w.forbidden]
            assert w._min_partner(t) == (min(agree) if agree else None)
            found += bool(agree)
    assert found


def test_plus_splits_a_factor_into_one_more_term():
    rnd = random.Random(4)
    w = make_walk(rand_dec(F3, 2, 3, rnd))
    u, v, c = terms_of(w)[0].factors
    while True:
        split1 = rand_matrix(F3, 2, rnd)
        split2 = v - split1
        if not split1.is_zero and not split2.is_zero:
            break
    rank = w.T
    w._plus(0, 1, kernel_factor(w, split1))
    w._verify_now()
    assert w.T == rank + 1
    terms = terms_of(w)
    assert (terms[0], terms[-1]) == (RankOneTerm(u, split1, c), RankOneTerm(u, split2, c))
    assert (0, rank) in w.forbidden and w.dirty == {0, rank}


def test_try_plus_halves_sum_to_the_split_factor():
    # The walk draws its own splits: both halves nonzero, summing to the factor.
    rnd = random.Random(5)
    for field in (F2, F3):
        w = make_walk(rand_dec(field, 2, 4, rnd))
        w.plus_left = 30
        splits = []
        plus = w._plus

        def spy(t, s, a1):
            a = w.fac[s][t]
            plus(t, s, a1)
            new = w.T - 1
            splits.append((a, s, w.fac[s][t], w.fac[s][new],
                           [w.fac[x][t] == w.fac[x][new] for x in range(3)]))

        w._plus = spy
        while w.plus_left:
            assert w._try_plus()
            w._verify_now()
        assert len(splits) == 30
        for a, s, first, second, same in splits:
            assert w.k.add(first, second) == a
            assert w.k.zero not in (first, second)
            assert all(same[x] for x in range(3) if x != s)


def reduction_pairs(w):
    return {(min(t, p), max(t, p)) for t in range(w.T) if (p := w._min_partner(t)) is not None}


def test_min_partner_examples():
    m2q = matmul_tensor(2, Q)
    assert reduction_pairs(make_walk(flatten(rank7_symmetric_form(Q)), m2q)) == set()
    assert reduction_pairs(make_walk(standard_decomposition(2, Q), m2q)) == set()

    f = F3
    a = Matrix.from_rows(f, [[1, 0], [0, 0]])
    b = Matrix.from_rows(f, [[0, 1], [0, 0]])
    c1 = Matrix.from_rows(f, [[1, 1], [0, 2]])
    c2 = Matrix.from_rows(f, [[0, 1], [1, 0]])
    c3 = Matrix.from_rows(f, [[2, 1], [1, 0]])
    w3 = make_walk(Decomposition(2, f, (
        RankOneTerm(a, b, c1),
        RankOneTerm(c2, c3, c1),
        RankOneTerm(a, b, c2),
    )))
    assert [w3._min_partner(t) for t in range(3)] == [2, None, 0]
    assert reduction_pairs(w3) == {(0, 2)}


def rebuilt_groups(w):
    """From-scratch factor groups and active keys, to check the maintained ones."""
    groups = ({}, {}, {})
    for s in range(3):
        for t, val in enumerate(w.fac[s]):
            groups[s].setdefault(val, []).append(t)
    active = tuple(
        sorted((w.k.key(val), val) for val, g in groups[s].items() if len(g) >= 2)
        for s in range(3)
    )
    return groups, active


def test_index_consistency_after_moves():
    # the factor groups and active keys the walk maintains equal a rebuild
    for field in (F2, F3):
        check_groups_after_random_moves(field, random.Random(6))


def check_groups_after_random_moves(field, rnd):
    w = make_walk(pool_dec(field, 2, 8, rnd))
    w.dirty = set(range(w.T))
    w._reduce_all()
    kinds = []
    for _ in range(600):
        kind = rnd.randrange(3)
        if kind == 0:
            pairs = shared_slot_pairs(w)
            if not pairs:
                continue
            w._flip(*rnd.choice(pairs), rnd.randrange(2))
        elif kind == 1:
            pairs = [(a, b) for a in range(w.T) for b in range(a + 1, w.T)
                     if agreements(w, a, b) >= 2]
            if not pairs:
                continue
            w._merge(*rnd.choice(pairs))
        else:
            if w.T == 0:
                continue
            t, s = rnd.randrange(w.T), rnd.randrange(3)
            a1 = kernel_factor(w, rand_nonzero(field, 2, rnd))
            if a1 == w.fac[s][t]:
                continue
            w._plus(t, s, a1)
        w._reduce_all()
        kinds.append(kind)
        assert all(len(f) == w.T for f in w.fac)
        groups, active = rebuilt_groups(w)
        assert (w.groups, w.active) == (groups, active)
        assert w.cand == [sum(2 * len(g) * (len(g) - 1) for g in groups[s].values())
                          for s in range(3)]
        assert not w.dirty and all(max(p) < w.T for p in w.forbidden)
        # greedy reduction left no mergeable pair but the split halves
        assert all(agreements(w, a, b) < 2 or (a, b) in w.forbidden
                   for a in range(w.T) for b in range(a + 1, w.T))
        w._verify_now()
    assert all(kinds.count(k) >= 20 for k in range(3)), [kinds.count(k) for k in range(3)]


def test_rank_monotonicity_of_moves():
    rnd = random.Random(17)
    w = make_walk(pool_dec(F3, 2, 6, rnd))
    n0 = w.T
    terms = terms_of(w)
    flipped = False
    for i, j, s in shared_slot_pairs(w):
        ti, tj = terms[i].factors, terms[j].factors
        zero_risk = any((ti[o] + tj[o]).is_zero or (tj[o] - ti[o]).is_zero
                        for o in _OTHER_SLOTS[s])
        if not zero_risk:
            w._flip(i, j, s, 0)
            assert w.T == n0  # flips preserve term count
            flipped = True
            break
    assert flipped
    t = terms_of(w)[0]
    m1 = rand_nonzero(F3, 2, rnd)
    while (t.factors[0] - m1).is_zero:
        m1 = rand_nonzero(F3, 2, rnd)
    before = w.T
    w._plus(0, 0, kernel_factor(w, m1))
    assert w.T == before + 1  # plus adds exactly one term
    w._verify_now()


# -- walks ---------------------------------------------------------------------------


def test_walk_requires_verified_start():
    m2 = matmul_tensor(2, F2)
    wrong = Decomposition(2, F2, standard_decomposition(2, F2).terms[:6])
    with pytest.raises(ValueError):
        random_walk(m2, wrong, SearchConfig(seed=1, max_steps=10))


@pytest.mark.parametrize("field", ["max_steps", "restarts", "plus_budget",
                                   "verify_every", "patience", "target_rank", "seed"])
def test_search_config_rejects_out_of_range(field):
    low = {"max_steps": 1, "restarts": 1}.get(field, 0)
    high = {"restarts": 100_000, "seed": 2**64 - 1}.get(field, 2**63 - 1)
    SearchConfig(**{"seed": 1, "max_steps": 1, field: low})
    SearchConfig(**{"seed": 1, "max_steps": 1, field: high})
    with pytest.raises(ValueError, match=f"{field} must be >= {low}"):
        SearchConfig(**{"seed": 1, "max_steps": 1, field: low - 1})
    for value in (high + 1, 2**64 + 40):
        with pytest.raises(ValueError, match=f"{field} must be <= {high}"):
            SearchConfig(**{"seed": 1, "max_steps": 1, field: value})


def test_restart_seeds_wrap_at_64_bits():
    m2 = matmul_tensor(2, F2)
    start = standard_decomposition(2, F2)
    cfg = SearchConfig(seed=2**64 - 1, max_steps=50, restarts=2)
    assert [walk._one_restart((random_walk, m2, start, cfg, k)).seed for k in (0, 1)] == [
        2**64 - 1, 0]


def test_walk_m1_is_already_minimal():
    m1 = matmul_tensor(1, F2)
    res = random_walk(m1, standard_decomposition(1, F2), SearchConfig(seed=1, max_steps=100))
    assert res.rank == 1 and res.steps == 0


def test_walk_determinism():
    m2 = matmul_tensor(2, F2)
    start = standard_decomposition(2, F2)
    cfg = SearchConfig(seed=99, max_steps=5000, plus_budget=4)
    r1 = random_walk(m2, start, cfg)
    r2 = random_walk(m2, start, cfg)
    assert (r1.rank, r1.steps, r1.seed) == (r2.rank, r2.steps, r2.seed)
    assert r1.decomposition.terms == r2.decomposition.terms


def test_walk_result_always_verifies():
    for field, seed in ((F2, 3), (F3, 4), (Q, 5)):
        m2 = matmul_tensor(2, field)
        start = standard_decomposition(2, field)
        res = random_walk(m2, start, SearchConfig(seed=seed, max_steps=800, plus_budget=3))
        assert verify(res.decomposition, m2).ok
        assert res.rank == res.decomposition.rank_bound


def test_walk_reaches_rank_7_over_f2():
    m2 = matmul_tensor(2, F2)
    start = standard_decomposition(2, F2)
    res = random_walk(m2, start, SearchConfig(seed=1, max_steps=1_000_000, plus_budget=10))
    assert res.rank <= 7


def assert_backends_agree(target, start, cfg):
    """The native and pure walks give one trace, rank, step count, best and final terms.

    Both walk entry tuples; the native one passes each factor to C as its key.
    """
    n = start.n
    kernel = _kernel_for(start.field, n)
    terms = _to_kernel_terms(kernel, start)
    words = _native.target_words(kernel, target.sparse())
    walk = _native.walk_f2 if start.field == F2 else _native.walk_f3
    limits = dict(max_steps=cfg.max_steps, plus_budget=cfg.plus_budget, patience=cfg.patience,
                  verify_every=cfg.verify_every)
    best, best_rank, steps, final, trace = walk(
        n, terms, words, cfg.seed, *limits.values(),
        -1 if cfg.target_rank is None else cfg.target_rank, True)
    pure = run_walk(kernel, terms, target.sparse(), seed=cfg.seed,
                    target_rank=cfg.target_rank, collect_trace=True, **limits)
    assert trace == pure.trace
    assert (best_rank, steps) == (pure.best_rank, pure.steps)
    assert (tuple(best), tuple(final)) == (pure.best_terms, pure.final_terms)
    return pure


def test_compiled_engine_matches_pure(native):
    m2 = matmul_tensor(2, F2)
    start = standard_decomposition(2, F2)
    for seed in range(1, 9):
        cfg = SearchConfig(seed=seed, max_steps=4000, plus_budget=6)
        assert_backends_agree(m2, start, cfg)


def test_compiled_engine_matches_pure_under_frequent_splits(native):
    # plus moves every few flips: splits, forbidden pairs and removals interleave
    for n in (2, 3):
        target = matmul_tensor(n, F2)
        start = standard_decomposition(n, F2)
        for seed in range(1, 6):
            cfg = SearchConfig(seed=seed, max_steps=2000, plus_budget=2000, patience=5)
            assert assert_backends_agree(target, start, cfg).steps == 2000


def test_compiled_engine_matches_pure_on_m3(native):
    m3 = matmul_tensor(3, F2)
    start = standard_decomposition(3, F2)
    cfg = SearchConfig(seed=11, max_steps=6000, plus_budget=8, patience=300)
    assert_backends_agree(m3, start, cfg)


@pytest.mark.parametrize("n, steps", [(4, 3000), (5, 1500)])
def test_compiled_engine_matches_pure_across_words(native, n, steps):
    # targets of 64 and 245 words; at n=5 a 25-bit factor straddles words
    target = matmul_tensor(n, F2)
    start = standard_decomposition(n, F2)
    cfg = SearchConfig(seed=n, max_steps=steps, plus_budget=steps, patience=50,
                       verify_every=100)
    res = assert_backends_agree(target, start, cfg)
    assert res.steps == steps
    assert {k for (k, *_r) in res.trace} == {"flip", "reduce", "plus"}


def test_compiled_engine_matches_pure_at_side_6(native):
    # the largest F2 side with its own tensor: the largest groups, and factors
    # reaching bit 35
    target = matmul_tensor(6, F2)
    cfg = SearchConfig(seed=6, max_steps=300, plus_budget=300, patience=3)
    res = assert_backends_agree(target, standard_decomposition(6, F2), cfg)
    assert res.steps == 300
    assert {k for (k, *_r) in res.trace} == {"flip", "reduce", "plus"}


@pytest.mark.parametrize("field", [F2, F3])
@pytest.mark.parametrize("limit", ["plus_budget", "patience", "target_rank"])
def test_compiled_engine_matches_pure_at_int64_limits(native, field, limit):
    kernel = _kernel_for(field, 3)
    terms = _to_kernel_terms(kernel, standard_decomposition(3, field))
    target = matmul_tensor(3, field).sparse()
    limits = dict(seed=1, max_steps=300, plus_budget=50, patience=2, collect_trace=True)
    limits[limit] = walk.INT64_MAX
    assert _native.run_walk(kernel, terms, target, **limits) == run_walk(
        kernel, terms, target, **limits)


def test_compiled_engine_matches_pure_verifying_every_step(native):
    m3 = matmul_tensor(3, F2)
    cfg = SearchConfig(seed=3, max_steps=1500, plus_budget=100, patience=40, verify_every=1)
    assert assert_backends_agree(m3, standard_decomposition(3, F2), cfg).steps == 1500


def test_compiled_engine_matches_pure_stopping_at_target_rank(native):
    m3 = matmul_tensor(3, F2)
    cfg = SearchConfig(seed=5, max_steps=100_000, plus_budget=1000, target_rank=25)
    res = assert_backends_agree(m3, standard_decomposition(3, F2), cfg)
    assert res.best_rank <= 25 and res.steps < 100_000


def test_compiled_engine_matches_pure_running_out_of_moves(native):
    # random starts whose walk, with no plus moves, reaches a state with no flip
    for seed in (70, 100, 122):
        rnd = random.Random(seed)
        terms = [RankOneTerm(*(rand_matrix(F2, 2, rnd) for _ in range(3))) for _ in range(5)]
        terms[1] = RankOneTerm(terms[0].u, terms[1].v, terms[1].w)
        dec = Decomposition(2, F2, tuple(terms))
        cfg = SearchConfig(seed=1, max_steps=1000, plus_budget=0)
        res = assert_backends_agree(expand_decomposition(dec), dec, cfg)
        assert 0 < res.steps < 1000


def test_compiled_engine_matches_pure_from_zero_factors(native):
    std = standard_decomposition(2, F2).terms
    z = Matrix.zero(F2, 2)
    dec = Decomposition(2, F2, (RankOneTerm(z, z, z), *std[:4], RankOneTerm(std[0].u, z, std[1].w),
                                *std[4:]))
    cfg = SearchConfig(seed=9, max_steps=2000, plus_budget=5)
    res = assert_backends_agree(matmul_tensor(2, F2), dec, cfg)
    assert res.steps == 2000


@pytest.mark.parametrize("n, steps", [(2, 4000), (3, 3000), (4, 1500), (5, 600)])
def test_compiled_f3_engine_matches_pure(native, n, steps):
    target = matmul_tensor(n, F3)
    start = standard_decomposition(n, F3)
    cfg = SearchConfig(seed=n, max_steps=steps, plus_budget=steps, patience=50,
                       verify_every=100)
    res = assert_backends_agree(target, start, cfg)
    assert res.steps == steps
    assert {k for (k, *_r) in res.trace} == {"flip", "reduce", "plus"}


def test_compiled_f3_engine_matches_pure_under_frequent_splits(native):
    for n in (2, 3):
        target = matmul_tensor(n, F3)
        start = standard_decomposition(n, F3)
        for seed in range(1, 6):
            cfg = SearchConfig(seed=seed, max_steps=2000, plus_budget=2000, patience=5)
            assert assert_backends_agree(target, start, cfg).steps == 2000


def test_compiled_f3_engine_matches_pure_verifying_every_step(native):
    m3 = matmul_tensor(3, F3)
    cfg = SearchConfig(seed=3, max_steps=1000, plus_budget=100, patience=40, verify_every=1)
    assert assert_backends_agree(m3, standard_decomposition(3, F3), cfg).steps == 1000


def test_compiled_f3_engine_matches_pure_stopping_at_target_rank(native):
    m2 = matmul_tensor(2, F3)
    cfg = SearchConfig(seed=1, max_steps=20_000, plus_budget=20_000, patience=50, target_rank=7)
    res = assert_backends_agree(m2, standard_decomposition(2, F3), cfg)
    assert res.best_rank == 7 and res.steps < 20_000


def test_compiled_f3_engine_matches_pure_running_out_of_moves(native):
    # random starts whose walk, with no plus moves, reaches a state with no flip
    for seed in (14, 34, 58):
        rnd = random.Random(seed)
        terms = [RankOneTerm(*(rand_matrix(F3, 2, rnd) for _ in range(3))) for _ in range(5)]
        terms[1] = RankOneTerm(terms[0].u, terms[1].v, terms[1].w)
        dec = Decomposition(2, F3, tuple(terms))
        cfg = SearchConfig(seed=1, max_steps=1000, plus_budget=0)
        res = assert_backends_agree(expand_decomposition(dec), dec, cfg)
        assert 0 < res.steps < 1000


def test_compiled_f3_engine_matches_pure_from_zero_factors(native):
    std = standard_decomposition(2, F3).terms
    z = Matrix.zero(F3, 2)
    dec = Decomposition(2, F3, (RankOneTerm(z, z, z), *std[:4], RankOneTerm(std[0].u, z, std[1].w),
                                *std[4:]))
    cfg = SearchConfig(seed=9, max_steps=2000, plus_budget=5)
    res = assert_backends_agree(matmul_tensor(2, F3), dec, cfg)
    assert res.steps == 2000


def test_compiled_f3_engine_matches_pure_at_side_6(native):
    # factors of 36 entries: keys reach 3**35 and draws range up to 3**36
    cfg = SearchConfig(seed=6, max_steps=150, plus_budget=150, patience=3)
    res = assert_backends_agree(matmul_tensor(6, F3), standard_decomposition(6, F3), cfg)
    assert res.steps == 150
    assert any(f[35] == 2 for term in res.final_terms for f in term)


def test_move_soundness_fuzz_f2():
    # verification after every single move
    m2 = matmul_tensor(2, F2)
    start = standard_decomposition(2, F2)
    cfg = SearchConfig(seed=1234, max_steps=20_000, plus_budget=20_000,
                       patience=40, verify_every=1)
    res = random_walk(m2, start, cfg)
    assert res.steps == 20_000
    assert verify(res.decomposition, m2).ok


def test_move_soundness_fuzz_f3():
    m2 = matmul_tensor(2, F3)
    start = standard_decomposition(2, F3)
    cfg = SearchConfig(seed=77, max_steps=100_000, plus_budget=100_000,
                       patience=40, verify_every=1)
    res = random_walk(m2, start, cfg)
    assert res.steps == 100_000
    assert verify(res.decomposition, m2).ok


def test_trace_mixes_move_kinds():
    m2 = matmul_tensor(2, F2)
    start = standard_decomposition(2, F2)
    cfg = SearchConfig(seed=5, max_steps=5000, plus_budget=5000, patience=40)
    res = random_walk(m2, start, cfg, collect_trace=True)
    kinds = {k for (k, *_rest) in res.trace}
    assert kinds == {"flip", "reduce", "plus"}


def test_collected_trace_is_a_field_of_the_result():
    cfg = SearchConfig(seed=3, max_steps=300, plus_budget=5, patience=40)
    for field in (F2, F3):
        m2, start = matmul_tensor(2, field), standard_decomposition(2, field)
        traced = random_walk(m2, start, cfg, collect_trace=True)
        plain = random_walk(m2, start, cfg)
        assert type(traced) is SearchResult and type(plain) is SearchResult
        assert traced.trace and plain.trace is None
        assert (traced.rank, traced.steps, traced.decomposition) == (
            plain.rank, plain.steps, plain.decomposition)


def test_zero_factor_terms_are_swept_at_construction():
    e00 = Matrix.basis(F2, 2, 0, 0)
    e11 = Matrix.basis(F2, 2, 1, 1)
    z = Matrix.zero(F2, 2)
    live = RankOneTerm(e00, e00, e11)
    dead = RankOneTerm(e00, z, e11)
    dec = Decomposition(2, F2, (live, dead, live))
    target = expand_decomposition(dec)
    w = make_walk(dec, target)
    assert w.T == 2
    assert terms_of(w) == (live, live)
    # the walk strips them too and still verifies
    res = random_walk(target, dec, SearchConfig(seed=1, max_steps=5))
    assert verify(res.decomposition, target).ok


def test_walk_on_arbitrary_targets_stays_sound():
    rnd = random.Random(31337)
    for field in (F2, F3):
        for trial in range(5):
            dec = Decomposition(
                2,
                field,
                tuple(
                    RankOneTerm(*(rand_matrix(field, 2, rnd) for _ in range(3)))
                    for _ in range(6)
                ),
            )
            target = expand_decomposition(dec)
            cfg = SearchConfig(seed=trial, max_steps=2000, plus_budget=5,
                               patience=100, verify_every=1)
            res = random_walk(target, dec, cfg)
            assert verify(res.decomposition, target).ok


def test_plus_budget_is_respected():
    m2 = matmul_tensor(2, F2)
    start = standard_decomposition(2, F2)
    for budget in (0, 3, 17):
        cfg = SearchConfig(seed=8, max_steps=20000, plus_budget=budget, patience=25)
        trace = random_walk(m2, start, cfg, collect_trace=True).trace
        assert sum(1 for (k, *_r) in trace if k == "plus") <= budget
    # zero budget means no plus moves at all
    cfg0 = SearchConfig(seed=8, max_steps=20000, plus_budget=0, patience=25)
    trace0 = random_walk(m2, start, cfg0, collect_trace=True).trace
    assert all(k != "plus" for (k, *_r) in trace0)


def test_pool_never_exceeds_restarts_or_cpus(monkeypatch):
    pools = []

    class SerialPool:  # records the pool size and starts no process
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(walk, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(walk.os, "cpu_count", lambda: 4)
    m2 = matmul_tensor(2, F2)
    start = standard_decomposition(2, F2)
    cfg = SearchConfig(seed=50, max_steps=300, plus_budget=3, restarts=3)
    results = [search(m2, start, cfg, workers=w) for w in (1, 2, 10**6)]
    search(m2, start, replace(cfg, restarts=6), workers=10**6)
    monkeypatch.setattr(walk.os, "cpu_count", lambda: None)  # unknown: one process
    results.append(search(m2, start, cfg, workers=10**6))
    assert pools == [2, 3, 4]
    assert all(r == results[0] for r in results)


def test_search_restarts_and_worker_independence():
    m2 = matmul_tensor(2, F2)
    start = standard_decomposition(2, F2)
    cfg = SearchConfig(seed=50, max_steps=2000, plus_budget=3, restarts=4)
    seq = search(m2, start, cfg, workers=1)
    par = search(m2, start, cfg, workers=3)
    assert (seq.rank, seq.steps, seq.seed) == (par.rank, par.steps, par.seed)
    assert seq.decomposition.terms == par.decomposition.terms
    assert seq.seed in {50 + k for k in range(4)}
