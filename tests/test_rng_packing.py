from mmrank.fields import F2
from mmrank.flipgraph.packing import (
    expand_mask,
    int_to_words,
    mask_to_matrix,
    matrix_to_mask,
    pack_terms,
    tensor_to_int,
    unpack_terms,
)
from mmrank.rng import Xoshiro256, splitmix64_stream
from mmrank.tensors import (
    expand_decomposition,
    matmul_tensor,
    standard_decomposition,
)


def test_rng_determinism_and_range():
    a = Xoshiro256(42)
    b = Xoshiro256(42)
    seq_a = [a.next_u64() for _ in range(1000)]
    seq_b = [b.next_u64() for _ in range(1000)]
    assert seq_a == seq_b
    assert all(0 <= x < 2**64 for x in seq_a)
    assert len(set(seq_a)) == 1000
    c = Xoshiro256(43)
    assert [c.next_u64() for _ in range(10)] != seq_a[:10]


def test_rng_below_bounds():
    r = Xoshiro256(7)
    for m in (1, 2, 3, 10, 1 << 36):
        for _ in range(200):
            assert 0 <= r.below(m) < m


def test_splitmix_stream_is_stable():
    assert splitmix64_stream(0, 2) == splitmix64_stream(0, 4)[:2]
    assert splitmix64_stream(1, 4) != splitmix64_stream(2, 4)


def test_matrix_mask_round_trip():
    for n in (1, 2, 3, 6):
        d = standard_decomposition(n, F2) if n <= 6 else None
        for t in d.terms[: min(8, len(d.terms))]:
            for m in t.factors:
                assert mask_to_matrix(n, matrix_to_mask(m)) == m


def test_pack_unpack_terms():
    d = standard_decomposition(2, F2)
    packed = pack_terms(d)
    assert unpack_terms(2, packed) == d.terms


def test_expand_mask_matches_object_expansion():
    for n in (1, 2, 3):
        d = standard_decomposition(n, F2)
        target = tensor_to_int(matmul_tensor(n, F2))
        acc = 0
        n2 = n * n
        for (u, v, w) in pack_terms(d):
            acc ^= expand_mask(u, v, w, n2)
        assert acc == target
        assert tensor_to_int(expand_decomposition(d)) == target


def test_int_to_words_round_trip():
    x = (1 << 100) | (1 << 64) | 7
    words = int_to_words(x, 101)
    assert len(words) == 2
    back = sum(w << (64 * i) for i, w in enumerate(words))
    assert back == x
