import pytest

from mmrank.fields import F2, PrimeField, Q
from mmrank.flipgraph import SearchConfig
from mmrank.flipgraph.engine import SoundnessError
from mmrank.flipgraph.symwalk import _SymWalk, symmetric_random_walk, symmetric_search
from mmrank.proof import naive_symmetric_form, rank7_symmetric_form
from mmrank.symmetry import (
    OrbitTerm,
    StabilizerTag,
    SymmetricDecomposition,
    expand_symmetric,
    flatten,
)
from mmrank.tensors import Matrix, RankOneTerm, expand_term, matmul_tensor, verify

F3 = PrimeField(3)


def test_rejects_non_matching_start():
    m2 = matmul_tensor(2, F2)
    wrong = SymmetricDecomposition(2, F2, naive_symmetric_form(F2).orbit_terms[:1])
    with pytest.raises(ValueError):
        symmetric_random_walk(m2, wrong, SearchConfig(seed=1, max_steps=10))


def test_unsound_state_raises_soundness_error():
    walk = _SymWalk(matmul_tensor(2, F2), naive_symmetric_form(F2), SearchConfig(seed=1, max_steps=10))
    walk._verify_now()
    e00 = Matrix.basis(F2, 2, 0, 0)
    walk.target = expand_term(RankOneTerm(e00, e00, e00)).sparse()
    with pytest.raises(SoundnessError):
        walk._verify_now()


def test_rank7_form_is_a_local_minimum():
    for field in (F2, Q, F3):
        m2 = matmul_tensor(2, field)
        res = symmetric_random_walk(
            m2, rank7_symmetric_form(field), SearchConfig(seed=1, max_steps=200)
        )
        assert res.rank == 7
        assert res.steps == 0  # one free orbit, no partner: no moves at all


def test_single_fixed_term_has_no_moves():
    d = Matrix.basis(F2, 2, 0, 0) + Matrix.basis(F2, 2, 1, 1)
    cube = RankOneTerm(d, d, d)
    sd = SymmetricDecomposition(2, F2, (OrbitTerm(cube, StabilizerTag.FULL),))
    res = symmetric_random_walk(expand_term(cube), sd, SearchConfig(seed=1, max_steps=50))
    assert res.rank == 1 and res.steps == 0


def test_walk_from_thirteen_form_reaches_seven():
    m2 = matmul_tensor(2, F2)
    start = naive_symmetric_form(F2)
    hits = 0
    for seed in range(1, 9):
        res = symmetric_random_walk(
            m2, start,
            SearchConfig(seed=seed, max_steps=5000, plus_budget=5, target_rank=7),
        )
        assert expand_symmetric(res.decomposition) == m2
        if res.rank <= 7:
            hits += 1
    assert hits >= 1  # in practice every seed in this sweep reaches 7


def test_walk_over_rationals_stays_sound():
    m2 = matmul_tensor(2, Q)
    res = symmetric_random_walk(
        m2, naive_symmetric_form(Q),
        SearchConfig(seed=3, max_steps=400, plus_budget=2, verify_every=1),
    )
    assert expand_symmetric(res.decomposition) == m2
    assert verify(flatten(res.decomposition), m2).ok


def test_walk_soundness_fuzz_with_verification_each_move():
    m2 = matmul_tensor(2, F2)
    res = symmetric_random_walk(
        m2, naive_symmetric_form(F2),
        SearchConfig(seed=17, max_steps=2000, plus_budget=2000, patience=25, verify_every=1),
    )
    assert expand_symmetric(res.decomposition) == m2


def test_determinism():
    m2 = matmul_tensor(2, F2)
    cfg = SearchConfig(seed=21, max_steps=500, plus_budget=3)
    r1 = symmetric_random_walk(m2, naive_symmetric_form(F2), cfg)
    r2 = symmetric_random_walk(m2, naive_symmetric_form(F2), cfg)
    assert (r1.rank, r1.steps) == (r2.rank, r2.steps)
    assert [(ot.rep, ot.tag) for ot in r1.decomposition.orbit_terms] == [
        (ot.rep, ot.tag) for ot in r2.decomposition.orbit_terms
    ]


def test_symmetric_search_restarts():
    m2 = matmul_tensor(2, F2)
    cfg = SearchConfig(seed=1, max_steps=3000, plus_budget=5, restarts=4, target_rank=7)
    res = symmetric_search(m2, naive_symmetric_form(F2), cfg)
    assert res.rank == 7
    assert verify(flatten(res.decomposition), m2).ok
