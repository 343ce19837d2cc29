"""Bit-packed representation of matrices, terms and tensors over F2.

A matrix over F2 packs into an n*n-bit integer with bit i*n+j holding
entry (i, j); with n <= 6 a factor fits in 36 bits and a full order-3
tensor in n**6 <= 46656 bits.  Addition is XOR, and the expansion of a
rank-one term is an OR-free scatter of the third factor, so the search
engines can work on plain integers.  ``expand_mask`` lives in
``tensors``, which verifies with it, and is re-exported here.
"""

from __future__ import annotations

from ..fields import F2
from ..tensors import Decomposition, Matrix, RankOneTerm, Tensor, expand_mask, pack_bits  # noqa: F401


def matrix_to_mask(m: Matrix) -> int:
    if m.field != F2:
        raise ValueError("packing requires F2 matrices")
    return pack_bits(m.entries)


def mask_to_matrix(n: int, mask: int) -> Matrix:
    return Matrix(F2, n, [(mask >> pos) & 1 for pos in range(n * n)])


def pack_terms(d: Decomposition) -> list[tuple[int, int, int]]:
    return [
        (matrix_to_mask(t.u), matrix_to_mask(t.v), matrix_to_mask(t.w))
        for t in d.terms
    ]


def unpack_terms(n: int, packed) -> tuple[RankOneTerm, ...]:
    return tuple(
        RankOneTerm(mask_to_matrix(n, u), mask_to_matrix(n, v), mask_to_matrix(n, w))
        for (u, v, w) in packed
    )


def tensor_to_int(t: Tensor) -> int:
    if t.field != F2:
        raise ValueError("packing requires an F2 tensor")
    return t.sparse()


def int_to_words(mask: int, bits: int) -> list[int]:
    """Little-endian 64-bit words; word w holds bits 64w .. 64w+63."""
    return [(mask >> (64 * w)) & 0xFFFFFFFFFFFFFFFF for w in range((bits + 63) // 64)]


def reverse_mask(mask: int, n2: int) -> int:
    """Bit i -> bit n2-1-i; the packed form of index reversal."""
    out = 0
    for pos in range(n2):
        if (mask >> pos) & 1:
            out |= 1 << (n2 - 1 - pos)
    return out
