import pickle
import random
from fractions import Fraction

import pytest

from mmrank.fields import F2, PrimeField, Q
from mmrank.tensors import (
    Decomposition,
    Matrix,
    RankOneTerm,
    Tensor,
    VerifyResult,
    expand_decomposition,
    expand_term,
    matmul_tensor,
    standard_decomposition,
    verify,
)

F3, F7, F101 = PrimeField(3), PrimeField(7), PrimeField(101)


def rand_matrix(field, n, rnd):
    if field is Q:
        ents = [Fraction(rnd.randint(-4, 4)) for _ in range(n * n)]
    else:
        ents = [rnd.randrange(field.p) for _ in range(n * n)]
    return Matrix(field, n, ents)


def test_matmul_tensor_nonzeros():
    t = matmul_tensor(2, Q)
    nz = [c for c in t.coeffs if c != 0]
    assert len(nz) == 8 and all(c == 1 for c in nz)
    t1 = matmul_tensor(1, Q)
    assert t1.coeffs == (Fraction(1),)
    assert len(matmul_tensor(3, F2).nonzero_positions()) == 27


def test_matmul_tensor_positions():
    n = 3
    t = matmul_tensor(n, Q)
    expected = {((i, j), (j, k), (k, i)) for i in range(n) for j in range(n) for k in range(n)}
    assert set(t.nonzero_positions()) == expected


def test_side_out_of_range():
    with pytest.raises(ValueError):
        matmul_tensor(0, Q)
    with pytest.raises(ValueError):
        matmul_tensor(7, Q)
    with pytest.raises(ValueError):
        standard_decomposition(7, Q)


def test_expand_term_examples():
    z = Matrix.zero(Q, 2)
    e10 = Matrix.basis(Q, 2, 1, 0)
    e01 = Matrix.basis(Q, 2, 0, 1)
    e11 = Matrix.basis(Q, 2, 1, 1)
    assert expand_term(RankOneTerm(z, e01, e11)).is_zero

    t = expand_term(RankOneTerm(e10, e01, e11))
    assert t.nonzero_positions() == [((1, 0), (0, 1), (1, 1))]
    assert t.coeff((1, 0), (0, 1), (1, 1)) == 1

    d = Matrix.basis(Q, 2, 0, 0) + e11
    cube = expand_term(RankOneTerm(d, d, d))
    pos = set(cube.nonzero_positions())
    diag = [(0, 0), (1, 1)]
    assert pos == {(a, b, c) for a in diag for b in diag for c in diag}
    assert all(cube.coeff(*p) == 1 for p in pos)


def test_standard_decomposition_counts():
    assert standard_decomposition(2, Q).rank_bound == 8
    assert standard_decomposition(1, Q).rank_bound == 1
    d3 = standard_decomposition(3, Q)
    assert d3.rank_bound == 27
    assert expand_decomposition(d3) == matmul_tensor(3, Q)


@pytest.mark.parametrize("field", [Q, F2], ids=lambda f: f.name)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_standard_expansion_matches_target(field, n):
    assert expand_decomposition(standard_decomposition(n, field)) == matmul_tensor(n, field)


def test_empty_decomposition_expands_to_zero():
    d = Decomposition(2, Q, ())
    assert expand_decomposition(d).is_zero
    assert d.rank_bound == 0


def test_tensor_ops_and_eq():
    rnd = random.Random(0)
    t = expand_term(RankOneTerm(*(rand_matrix(F7, 2, rnd) for _ in range(3))))
    assert (t - t).is_zero
    m2 = matmul_tensor(2, F7)
    assert m2 == matmul_tensor(2, F7)
    assert (m2 - m2).is_zero
    s = t + m2
    assert s - m2 == t
    assert t.scale(0).is_zero
    assert t.scale(1) == t


def test_tensor_shape_and_field_mismatch():
    with pytest.raises(ValueError):
        matmul_tensor(2, Q) + matmul_tensor(3, Q)
    with pytest.raises(ValueError):
        matmul_tensor(2, Q) + matmul_tensor(2, F2)


def test_expand_is_multilinear():
    rnd = random.Random(42)
    for field in (Q, F7):
        for _ in range(25):
            u1, u2, v, w = (rand_matrix(field, 2, rnd) for _ in range(4))
            lhs = expand_term(RankOneTerm(u1 + u2, v, w))
            rhs = expand_term(RankOneTerm(u1, v, w)) + expand_term(RankOneTerm(u2, v, w))
            assert lhs == rhs
            v1, v2 = rand_matrix(field, 2, rnd), rand_matrix(field, 2, rnd)
            assert expand_term(RankOneTerm(u1, v1 + v2, w)) == expand_term(
                RankOneTerm(u1, v1, w)
            ) + expand_term(RankOneTerm(u1, v2, w))
            w1, w2 = rand_matrix(field, 2, rnd), rand_matrix(field, 2, rnd)
            assert expand_term(RankOneTerm(u1, v, w1 + w2)) == expand_term(
                RankOneTerm(u1, v, w1)
            ) + expand_term(RankOneTerm(u1, v, w2))


def test_expand_scaling_invariance():
    rnd = random.Random(43)
    for field in (Q, F7):
        for _ in range(25):
            u, v, w = (rand_matrix(field, 2, rnd) for _ in range(3))
            alpha = rand_matrix(field, 1, rnd).entries[0]
            a = expand_term(RankOneTerm(u.scale(alpha), v, w))
            b = expand_term(RankOneTerm(u, v.scale(alpha), w))
            c = expand_term(RankOneTerm(u, v, w)).scale(alpha)
            assert a == b == c


def test_verify_ok_and_rank_bound():
    m2 = matmul_tensor(2, Q)
    res = verify(standard_decomposition(2, Q), m2)
    assert res.ok and res.rank_bound == 8 and res.mismatches == ()


def test_verify_mismatch_reports_omitted_summands():
    m2 = matmul_tensor(2, Q)
    partial = Decomposition(2, Q, standard_decomposition(2, Q).terms[:6])
    res = verify(partial, m2)
    assert not res.ok
    assert res.rank_bound == 6
    # the two omitted summands, (i,j,k) = (1,1,0) and (1,1,1)
    assert set(res.mismatches) == {
        ((1, 1), (1, 0), (0, 1)),
        ((1, 1), (1, 1), (1, 1)),
    }


def test_verify_mismatch_cap():
    zero = Decomposition(3, Q, ())
    res = verify(zero, matmul_tensor(3, Q))
    # ((i,j),(j,k),(k,i)) ascends in flat order exactly as (i, j, k) ascends
    # lexicographically; the first 16 of the 27 nonzeros are reported.
    summands = [((i, j), (j, k), (k, i)) for i in range(3) for j in range(3) for k in range(3)]
    assert res == VerifyResult(False, 0, tuple(summands[:16]))


@pytest.mark.parametrize("cap", [0, 1])
def test_verify_small_cap_reports_first_mismatch(cap):
    partial = Decomposition(2, Q, standard_decomposition(2, Q).terms[1:])
    res = verify(partial, matmul_tensor(2, Q), max_mismatches=cap)
    assert res == VerifyResult(False, 7, (((0, 0), (0, 0), (0, 0)),))


# -- oracle: a dense term-by-term expansion ---------------------------------------------


def dense_reference(d):
    """Coefficients of d by the definition: every product of every term, summed."""
    f = d.field
    total = [f.zero] * d.n**6
    for t in d.terms:
        prods = [f.mul(f.mul(a, b), c) for a in t.u.entries for b in t.v.entries for c in t.w.entries]
        total = [f.add(x, y) for x, y in zip(total, prods)]
    return total


def flat_position(n, flat):
    n2 = n * n
    return tuple(divmod(s, n) for s in (flat // n2**2, flat // n2 % n2, flat % n2))


def sparse_matrix(field, n, rnd):
    density = rnd.choice((0.2, 0.5, 1.0))
    ents = []
    for _ in range(n * n):
        if rnd.random() >= density:
            ents.append(0)
        elif field is Q:
            ents.append(Fraction(rnd.randint(-3, 3), rnd.randint(1, 3)))
        else:
            ents.append(rnd.randrange(field.p))
    return Matrix(field, n, ents)


def random_decomposition(field, n, rnd):
    """Random terms, about half of them followed later by their negation."""
    terms = []
    for _ in range(rnd.randint(1, 4)):
        t = RankOneTerm(*(sparse_matrix(field, n, rnd) for _ in range(3)))
        terms.append(t)
        if rnd.random() < 0.5:
            terms.append(RankOneTerm(-t.u, t.v, t.w))
    rnd.shuffle(terms)
    return Decomposition(n, field, tuple(terms))


@pytest.mark.parametrize("field", [F2, F3, F101, Q], ids=lambda f: f.name)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sparse_expansion_matches_dense_reference(field, n):
    rnd = random.Random(f"{field.name}/{n}")
    many = 0
    for _ in range(6):
        d = random_decomposition(field, n, rnd)
        got = dense_reference(d)
        assert expand_decomposition(d) == Tensor(field, n, got)
        # every term next to its negation sums to zero, with no mismatch left over
        pairs = Decomposition(n, field, tuple(
            s for t in d.terms for s in (t, RankOneTerm(-t.u, t.v, t.w))))
        assert expand_decomposition(pairs).is_zero
        assert verify(pairs, Tensor.zero(field, n)) == VerifyResult(True, pairs.rank_bound, ())
        # d itself, d without its first term, and m_n
        targets = [
            Tensor(field, n, got),
            Tensor(field, n, dense_reference(Decomposition(n, field, d.terms[1:]))),
            matmul_tensor(n, field),
        ]
        for target in targets:
            bad = [f for f, (x, y) in enumerate(zip(got, target.coeffs)) if x != y]
            many += len(bad) > 16
            for cap in (0, 1, 16, 10**6):
                want = tuple(flat_position(n, f) for f in bad[:max(cap, 1)])
                assert verify(d, target, cap) == VerifyResult(not bad, d.rank_bound, want)
    if n >= 3:
        assert many  # some checks really truncate the mismatch list


def dense_matmul_coeffs(field, n):
    """m_n from its definition: 1 exactly at the positions ((i, j), (j, k), (k, i))."""
    positions = (flat_position(n, f) for f in range(n**6))
    return [field.one if a[1] == b[0] and b[1] == c[0] and c[1] == a[0] else field.zero
            for a, b, c in positions]


@pytest.mark.parametrize("field", [F2, F3, Q], ids=lambda f: f.name)
def test_sparse_form_is_cached_and_equals_a_fresh_scan(field):
    # matmul_tensor and expand_decomposition hand their sparse form over
    # instead of scanning their coefficients for it
    rnd = random.Random(f"sparse/{field.name}")
    for n in range(1, 7):
        m = matmul_tensor(n, field)
        assert m == Tensor(field, n, dense_matmul_coeffs(field, n))
        tensors = [m, Tensor.zero(field, n)]
        if n <= 4:  # random terms are dense enough to be slow to expand above
            tensors.append(expand_decomposition(random_decomposition(field, n, rnd)))
        for t in tensors:
            first = t.sparse()
            assert t.sparse() is first
            rebuilt = Tensor(field, n, t.coeffs)
            assert list(map(type, t.coeffs)) == list(map(type, rebuilt.coeffs))
            fresh = rebuilt.sparse()
            assert fresh == first
            if field == F2:
                assert first == sum(1 << f for f, c in enumerate(t.coeffs) if c)
            else:
                assert dict(first) == {f: c for f, c in enumerate(t.coeffs) if c}
                with pytest.raises(TypeError):
                    first[0] = field.one  # shared, so read-only
            assert pickle.loads(pickle.dumps(t)) == t  # as sent to pool workers


def test_matrix_basics():
    m = Matrix.from_rows(Q, [[1, 2], [3, 4]])
    assert m[0, 1] == 2
    assert m.reverse_indices() == Matrix.from_rows(Q, [[4, 3], [2, 1]])
    assert (m - m).is_zero
    assert Matrix.identity(Q, 2)[1, 1] == 1
    assert m.fingerprint() != m.reverse_indices().fingerprint()
    big = Matrix(Q, 8, list(range(64)))  # sides beyond 6 allowed standalone
    assert big.n == 8
    with pytest.raises(ValueError):
        RankOneTerm(big, big, big)  # but not as tensor factors
