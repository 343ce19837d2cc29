import random

import pytest

from mmrank.fields import F2, PrimeField, Q
from mmrank.flipgraph import (
    HAVE_COMPILED,
    MoveRejected,
    SearchConfig,
    SearchState,
    find_reductions,
    flip,
    plus_move,
    random_walk,
    reduce,
    search,
)
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


def rand_state(field, n, terms, rnd):
    dec = Decomposition(
        n,
        field,
        tuple(
            RankOneTerm(*(rand_matrix(field, n, rnd) for _ in range(3)))
            for _ in range(terms)
        ),
    )
    target = expand_decomposition(dec)
    return SearchState(dec, target)


# -- single moves -----------------------------------------------------------------


def test_flip_preserves_expansion_on_random_states():
    rnd = random.Random(0)
    done = 0
    while done < 40:
        st = rand_state(F2, 2, 6, rnd)
        pairs = [
            (i, j, s)
            for i in range(len(st.terms))
            for j in range(len(st.terms))
            if i != j
            for s in range(3)
            if st.terms[i].factors[s] == st.terms[j].factors[s]
        ]
        if not pairs:
            continue
        i, j, s = pairs[rnd.randrange(len(pairs))]
        absorb = rnd.choice([x for x in range(3) if x != s])
        flip(st, i, j, s, absorb)
        st.check()  # expansion unchanged
        done += 1


def test_flip_example_shapes():
    # (a,b,c) + (a,b',c') -> (a, b+b', c) + (a, b', c'-c)
    rnd = random.Random(1)
    st = None
    while st is None:
        cand = rand_state(F3, 2, 2, rnd)
        if len(cand.terms) != 2:
            continue
        t0, t1 = cand.terms
        if t0.u == t1.u and not (t0.v + t1.v).is_zero and not (t1.w - t0.w).is_zero:
            st = cand
    a, b, c = st.terms[0].factors
    _, bp, cp = st.terms[1].factors
    flip(st, 0, 1, 0, 1)
    assert st.terms[0] == RankOneTerm(a, b + bp, c)
    assert st.terms[1] == RankOneTerm(a, bp, cp - c)
    st.check()


def test_flip_zeroing_a_factor_drops_the_term():
    # equal third factors: the flipped partner ends with a zero factor
    f = Q
    a = Matrix.from_rows(f, [[1, 0], [0, 0]])
    b1 = Matrix.from_rows(f, [[0, 1], [0, 0]])
    b2 = Matrix.from_rows(f, [[0, 0], [1, 0]])
    c = Matrix.from_rows(f, [[1, 2], [3, 4]])
    dec = Decomposition(2, f, (RankOneTerm(a, b1, c), RankOneTerm(a, b2, c)))
    st = SearchState(dec, expand_decomposition(dec))
    flip(st, 0, 1, 0, 1)
    assert st.rank_bound == 1
    st.check()


def test_flip_rejects_bad_preconditions():
    rnd = random.Random(2)
    st = rand_state(F3, 2, 4, rnd)
    before = list(st.terms)
    with pytest.raises(MoveRejected):
        flip(st, 0, 0, 0, 1)
    with pytest.raises(MoveRejected):
        flip(st, 0, 99, 0, 1)
    with pytest.raises(MoveRejected):
        flip(st, 0, 1, 2, 2)
    # find a genuinely non-shared slot
    for i in range(len(st.terms)):
        for j in range(len(st.terms)):
            if i != j:
                for s in range(3):
                    if st.terms[i].factors[s] != st.terms[j].factors[s]:
                        with pytest.raises(MoveRejected):
                            flip(st, i, j, s, (s + 1) % 3)
                        assert st.terms == before
                        return


def test_reduce_merges_and_cancels():
    f = F3
    a = Matrix.from_rows(f, [[1, 0], [0, 0]])
    b = Matrix.from_rows(f, [[0, 1], [0, 0]])
    c1 = Matrix.from_rows(f, [[1, 1], [0, 2]])
    c2 = Matrix.from_rows(f, [[0, 1], [1, 0]])
    dec = Decomposition(2, f, (RankOneTerm(a, b, c1), RankOneTerm(a, b, c2)))
    st = SearchState(dec, expand_decomposition(dec))
    reduce(st, 0, 1)
    assert st.rank_bound == 1
    assert st.terms[0] == RankOneTerm(a, b, c1 + c2)
    st.check()

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
    st2 = SearchState(dec2, expand_decomposition(dec2))
    reduce(st2, 0, 1)
    assert st2.rank_bound == 0
    st2.check()


def test_reduce_identical_terms_over_f2_cancels():
    f = F2
    a = Matrix.from_rows(f, [[1, 0], [0, 1]])
    b = Matrix.from_rows(f, [[0, 1], [1, 0]])
    c = Matrix.from_rows(f, [[1, 1], [0, 1]])
    t = RankOneTerm(a, b, c)
    dec = Decomposition(2, f, (t, t))
    st = SearchState(dec, expand_decomposition(dec))
    reduce(st, 0, 1)
    assert st.rank_bound == 0
    st.check()


def test_reduce_rejects_single_shared_slot():
    rnd = random.Random(3)
    st = rand_state(F3, 2, 3, rnd)
    for i in range(len(st.terms)):
        for j in range(len(st.terms)):
            if i != j:
                shared = sum(
                    st.terms[i].factors[s] == st.terms[j].factors[s] for s in range(3)
                )
                if shared < 2:
                    with pytest.raises(MoveRejected):
                        reduce(st, i, j)
                    return


def test_plus_move_splits_and_sweeps_zero_parts():
    rnd = random.Random(4)
    st = rand_state(F3, 2, 3, rnd)
    t0 = st.terms[0]
    split1 = rand_matrix(F3, 2, rnd)
    split2 = t0.factors[1] - split1
    rank = st.rank_bound
    plus_move(st, 0, 1, split1, split2)
    st.check()
    if split1.is_zero or split2.is_zero:
        assert st.rank_bound == rank
    else:
        assert st.rank_bound == rank + 1

    # zero part is legal but useless
    st2 = rand_state(F3, 2, 2, rnd)
    t = st2.terms[0]
    rank2 = st2.rank_bound
    plus_move(st2, 0, 2, t.factors[2], Matrix.zero(F3, 2))
    assert st2.rank_bound == rank2
    st2.check()


def test_plus_move_rejects_bad_split():
    rnd = random.Random(5)
    st = rand_state(F3, 2, 2, rnd)
    good = st.terms[0].factors[0]
    with pytest.raises(MoveRejected):
        plus_move(st, 0, 0, good, good)  # sums to 2*good, not good (over F3)


def test_find_reductions_examples():
    m2q = matmul_tensor(2, Q)
    st = SearchState(flatten(rank7_symmetric_form(Q)), m2q)
    assert find_reductions(st) == []

    st8 = SearchState(standard_decomposition(2, Q), m2q)
    assert find_reductions(st8) == []

    f = F3
    a = Matrix.from_rows(f, [[1, 0], [0, 0]])
    b = Matrix.from_rows(f, [[0, 1], [0, 0]])
    c1 = Matrix.from_rows(f, [[1, 1], [0, 2]])
    c2 = Matrix.from_rows(f, [[0, 1], [1, 0]])
    c3 = Matrix.from_rows(f, [[2, 1], [1, 0]])
    dec = Decomposition(2, f, (
        RankOneTerm(a, b, c1),
        RankOneTerm(c2, c3, c1),
        RankOneTerm(a, b, c2),
    ))
    st3 = SearchState(dec, expand_decomposition(dec))
    assert find_reductions(st3) == [(0, 2)]


def test_index_consistency_after_moves():
    rnd = random.Random(6)
    st = rand_state(F2, 2, 8, rnd)
    ops = 0
    while ops < 60:
        kind = rnd.randrange(3)
        try:
            if kind == 0:
                i, j = rnd.randrange(st.rank_bound), rnd.randrange(st.rank_bound)
                flip(st, i, j, rnd.randrange(3), rnd.randrange(3))
            elif kind == 1:
                i, j = rnd.randrange(st.rank_bound), rnd.randrange(st.rank_bound)
                reduce(st, i, j)
            else:
                i = rnd.randrange(st.rank_bound)
                s = rnd.randrange(3)
                m1 = rand_matrix(F2, 2, rnd)
                plus_move(st, i, s, m1, st.terms[i].factors[s] - m1)
        except MoveRejected:
            continue
        ops += 1
        assert st.indexes == st.rebuilt_indexes()
        st.check()


# -- walks ---------------------------------------------------------------------------


def test_walk_requires_verified_start():
    m2 = matmul_tensor(2, F2)
    wrong = Decomposition(2, F2, standard_decomposition(2, F2).terms[:6])
    with pytest.raises(ValueError):
        random_walk(m2, wrong, SearchConfig(seed=1, max_steps=10))


@pytest.mark.parametrize("field", ["max_steps", "restarts", "plus_budget",
                                   "verify_every", "patience"])
def test_search_config_rejects_out_of_range(field):
    low = {"max_steps": 1, "restarts": 1}.get(field, 0)
    SearchConfig(**{"seed": 1, "max_steps": 1, field: low})
    with pytest.raises(ValueError, match=f"{field} must be >= {low}"):
        SearchConfig(**{"seed": 1, "max_steps": 1, field: low - 1})


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


def test_generic_engine_matches_packed_on_f2():
    m2 = matmul_tensor(2, F2)
    start = standard_decomposition(2, F2)
    for seed in (1, 2, 3):
        cfg = SearchConfig(seed=seed, max_steps=2500, plus_budget=4)
        rp, tp = random_walk(m2, start, cfg, backend="pure", collect_trace=True)
        rg, tg = random_walk(m2, start, cfg, backend="generic", collect_trace=True)
        assert tp == tg
        assert (rp.rank, rp.steps) == (rg.rank, rg.steps)
        assert rp.decomposition.terms == rg.decomposition.terms


@pytest.mark.skipif(not HAVE_COMPILED, reason="compiled kernel not built")
def test_compiled_engine_matches_pure():
    m2 = matmul_tensor(2, F2)
    start = standard_decomposition(2, F2)
    for seed in range(1, 9):
        cfg = SearchConfig(seed=seed, max_steps=4000, plus_budget=6)
        rc, tc = random_walk(m2, start, cfg, backend="compiled", collect_trace=True)
        rp, tp = random_walk(m2, start, cfg, backend="pure", collect_trace=True)
        assert tc == tp
        assert (rc.rank, rc.steps) == (rp.rank, rp.steps)
        assert rc.decomposition.terms == rp.decomposition.terms


@pytest.mark.skipif(not HAVE_COMPILED, reason="compiled kernel not built")
def test_compiled_engine_matches_pure_on_m3():
    m3 = matmul_tensor(3, F2)
    start = standard_decomposition(3, F2)
    cfg = SearchConfig(seed=11, max_steps=6000, plus_budget=8, patience=300)
    rc, tc = random_walk(m3, start, cfg, backend="compiled", collect_trace=True)
    rp, tp = random_walk(m3, start, cfg, backend="pure", collect_trace=True)
    assert tc == tp
    assert (rc.rank, rc.steps) == (rp.rank, rp.steps)


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
    _res, trace = random_walk(m2, start, cfg, collect_trace=True)
    kinds = {k for (k, *_rest) in trace}
    assert kinds == {"flip", "reduce", "plus"}


def test_zero_factor_terms_are_swept_at_construction():
    e00 = Matrix.basis(F2, 2, 0, 0)
    e11 = Matrix.basis(F2, 2, 1, 1)
    z = Matrix.zero(F2, 2)
    live = RankOneTerm(e00, e00, e11)
    dead = RankOneTerm(e00, z, e11)
    dec = Decomposition(2, F2, (live, dead, live))
    target = expand_decomposition(dec)
    st = SearchState(dec, target)
    assert st.rank_bound == 2
    assert all(not any(m.is_zero for m in t.factors) for t in st.terms)
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
        _res, trace = random_walk(m2, start, cfg, collect_trace=True)
        assert sum(1 for (k, *_r) in trace if k == "plus") <= budget
    # zero budget means no plus moves at all
    cfg0 = SearchConfig(seed=8, max_steps=20000, plus_budget=0, patience=25)
    _res0, trace0 = random_walk(m2, start, cfg0, collect_trace=True)
    assert all(k != "plus" for (k, *_r) in trace0)


def test_rank_monotonicity_of_moves():
    rnd = random.Random(17)
    st = rand_state(F3, 2, 6, rnd)
    n0 = st.rank_bound
    found = False
    for i in range(n0):
        for j in range(n0):
            if i != j:
                for s in range(3):
                    if st.terms[i].factors[s] == st.terms[j].factors[s]:
                        zero_risk = any(
                            (st.terms[i].factors[o] + st.terms[j].factors[o]).is_zero
                            or (st.terms[j].factors[o] - st.terms[i].factors[o]).is_zero
                            for o in range(3)
                        )
                        if not zero_risk:
                            flip(st, i, j, s, [x for x in range(3) if x != s][0])
                            assert st.rank_bound == n0  # flips preserve term count
                            found = True
                            break
                if found:
                    break
        if found:
            break
    t = st.terms[0]
    m1 = rand_matrix(F3, 2, rnd)
    m2 = t.factors[0] - m1
    if not m1.is_zero and not m2.is_zero:
        before = st.rank_bound
        plus_move(st, 0, 0, m1, m2)
        assert st.rank_bound == before + 1  # plus adds exactly one term
    st.check()


def test_search_restarts_and_worker_independence():
    m2 = matmul_tensor(2, F2)
    start = standard_decomposition(2, F2)
    cfg = SearchConfig(seed=50, max_steps=2000, plus_budget=3, restarts=4)
    seq = search(m2, start, cfg, workers=1)
    par = search(m2, start, cfg, workers=3)
    assert (seq.rank, seq.steps, seq.seed) == (par.rank, par.steps, par.seed)
    assert seq.decomposition.terms == par.decomposition.terms
    assert seq.seed in {50 + k for k in range(4)}
