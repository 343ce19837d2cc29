"""Golden trajectories of the exact walks.

Each case pins one walk: the SHA-256 of its trace (generic engine only;
the symmetric walk records none), its rank, its step count and the
SHA-256 of the file written from its result.  The values were recorded
with the walks that carried every scalar as a ``Fraction`` and every
orbit representative as ``Matrix`` objects (the symmetric "stop" cases
with the symmetric walk's own step loop, before it ran on the engine's
schedule); a walk on any other value representation or schedule code
must reproduce them byte for byte.
"""

import hashlib
from fractions import Fraction

import pytest

from mmrank.fields import F2, PrimeField, Q
from mmrank.fileformat import write_decomposition_file
from mmrank.flipgraph import SearchConfig, random_walk, walk
from mmrank.flipgraph.symwalk import symmetric_random_walk
from mmrank.proof import naive_symmetric_form
from mmrank.tensors import Decomposition, RankOneTerm, matmul_tensor, standard_decomposition

F3 = PrimeField(3)


def scaled_start(n):
    """The standard terms as (u * c, v, w / c) with c = 2/3, 4/3, 2, ...

    Most entries are then not integral, although the scheme expands to
    the same tensor.
    """
    terms = []
    for k, t in enumerate(standard_decomposition(n, Q).terms):
        c = Fraction(2 * (k + 1), 3)
        terms.append(RankOneTerm(t.u.scale(c), t.v, t.w.scale(1 / c)))
    return Decomposition(n, Q, tuple(terms))


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_sha(tmp_path, dec) -> str:
    path = tmp_path / "result.txt"
    write_decomposition_file(path, dec)
    return sha(path.read_bytes())


# name: (n, start, seed, max_steps, plus_budget, patience, verify_every,
#        trace sha, rank, steps, file sha)
GENERIC = {
    "q_m3_standard": (
        3, "standard", 1, 1500, 30, 100, 0,
        "4bab62fc0c4c872579f159595a60a9ee6ea6b0a47346a97f02b35880210f1899",
        27, 1500, "69a327454eda383a606cb7a54929f374bc2f839e0ada9a857f30848751f09f9f"),
    "q_m3_standard_frequent_plus": (
        3, "standard", 7, 1200, 1200, 5, 0,
        "eee89d8b1fec3a0a8ed701c2e71b35183b27fb2134c0f949efd16aa419102be6",
        27, 1200, "69a327454eda383a606cb7a54929f374bc2f839e0ada9a857f30848751f09f9f"),
    "q_m3_scaled": (
        3, "scaled", 2, 1200, 40, 50, 0,
        "bbd04d85a9eb7c19c86a1937766a41ac0ebb65f912f6d56264a337c1a8167207",
        27, 1200, "f0058295d0ae897fb809e795d2e74e229efba2320cab861e8f13379faa135aed"),
    "q_m3_scaled_verify_every_step": (
        3, "scaled", 3, 200, 10, 20, 1,
        "53efb6d55a6327c9c8dee65690e99e2ae7152c86fad8d5a0bada74d065467eb7",
        27, 200, "f0058295d0ae897fb809e795d2e74e229efba2320cab861e8f13379faa135aed"),
    "q_m2_scaled_frequent_plus": (
        2, "scaled", 5, 3000, 3000, 10, 0,
        "060757b5c54c43787afbe8d4e618f05e3d0ac5722be0164b6e7a1a13ff488516",
        8, 3000, "5ef4cd8c2282ea582941361569782d9c7680650bd8537b42de538a8a4e4045f9"),
}


@pytest.mark.parametrize("name", sorted(GENERIC))
def test_generic_q_walk_trajectory(tmp_path, name):
    n, kind, seed, steps, plus, patience, every, trace_sha, rank, n_steps, out_sha = GENERIC[name]
    start = standard_decomposition(n, Q) if kind == "standard" else scaled_start(n)
    cfg = SearchConfig(seed=seed, max_steps=steps, plus_budget=plus, patience=patience,
                       verify_every=every)
    res = random_walk(matmul_tensor(n, Q), start, cfg, collect_trace=True)
    got = (sha(repr(res.trace).encode()), res.rank, res.steps, file_sha(tmp_path, res.decomposition))
    assert got == (trace_sha, rank, n_steps, out_sha)


# name: (n, seed, max_steps, plus_budget, patience, verify_every,
#        target_rank, trace sha, rank, steps, file sha).  Recorded with the
# pure engine before the native kernel walked F3; both paths must give
# them.
GENERIC_F3 = {
    "f3_m2_standard": (
        2, 1, 3000, 20, 100, 0, None,
        "69c9a7b62080ea0ceee938023eae4de806c2191524cc13b38cb72f6c2dce26cf",
        8, 3000, "ae09196686599b9ceae090ce9f803452e12d21d68d2c8a09a18e103685e85200"),
    "f3_m2_frequent_plus": (
        2, 4, 3000, 3000, 5, 0, None,
        "26003d15fbc93b69e3eab91ab6ae98f70bd1485263e555e25ef3568f80ec36f9",
        8, 3000, "ae09196686599b9ceae090ce9f803452e12d21d68d2c8a09a18e103685e85200"),
    "f3_m2_target_rank": (
        2, 1, 20000, 20000, 50, 0, 7,
        "54ba9e70d19cf6780f6c8e54ab24ec6bd9ae56f01b345bb1a4acf3323722cd1a",
        7, 8964, "710234b74ddaea7c73f827560a9251bdec8b30b9d72151d1155c6a4b6ea1baf3"),
    "f3_m3_verify_every_step": (
        3, 3, 800, 50, 40, 1, None,
        "239cc93b00a2866449739f1d9eed7498a33673bd772915265c3e15da79b232e5",
        27, 800, "d013f05e49724d5fa1fcf61f8deb3aa2571d23983b9e292505f2dc0693e8fbfd"),
    "f3_m3_frequent_plus": (
        3, 6, 1500, 1500, 10, 0, None,
        "5b28bea4a129819fe4eaf5fa295e9ee43fe8b8aed86ef1b0cb2ab113c76191bf",
        27, 1500, "d013f05e49724d5fa1fcf61f8deb3aa2571d23983b9e292505f2dc0693e8fbfd"),
    "f3_m4_frequent_plus": (
        4, 2, 1500, 1500, 30, 0, None,
        "1565448e7cefe2522866d70068dd85b42eaf893b841a1318cf715ed764476fff",
        64, 1500, "a8f6eeeaa58e783f3e3f749007ab83418e875ea9e672095014fbd53b3bb8192e"),
}


@pytest.fixture(params=["native", "pure"])
def walk_path(request, monkeypatch):
    """Run the test on the native kernel, then on the pure engine."""
    if request.param == "native":
        request.getfixturevalue("native")
    else:
        monkeypatch.setattr(walk, "HAVE_COMPILED", False)
    return request.param


# The same layout over F2.  Recorded with the walk on bit-packed factors,
# before F2 factors became entry tuples; both paths must give them.
GENERIC_F2 = {
    "f2_m2_standard": (
        2, 1, 3000, 20, 100, 0, None,
        "814473ed6d6a8c0a0df1a1113998ce2e0dd93500ce0f34df752783c4f7431152",
        7, 1870, "bb11d853420f171e87f3d65ceb86b0216dfb0a5c12145529f6760a55f8907273"),
    "f2_m2_frequent_plus": (
        2, 4, 3000, 3000, 5, 0, None,
        "5617a6d0ba6339327906c047de46a1cd2f688040bc6eb4343d860dc727f04d36",
        7, 3000, "6dfc55394ec7e1901a5d32d949e38fc3adbd8a1881344ab95a28bf79401516c8"),
    "f2_m2_target_rank": (
        2, 1, 20000, 20000, 50, 0, 7,
        "ca9e3dce306f7cb0b15e6cce2ecebc05224dbe30aed845718d5986133c7f84a0",
        7, 1487, "265ea164590774ca54f021553c7bf5e4767ef58264fec2c7296cfc4148876b6f"),
    "f2_m3_target_rank": (
        3, 3, 20000, 20, 300, 0, 24,
        "45af6fe1563f22f12178bb416248f09dd232f8900da094534580f3b930634a91",
        24, 2108, "324c9dc685153073414b9385e0034d78e195f0f9709ade54cc02e6b734cc7551"),
    "f2_m3_verify_every_step": (
        3, 3, 300, 50, 40, 1, None,
        "fba07ccc6e237b01b09f6ad97bb009aacbdc9a84fac1f9485090ba70707d8b66",
        27, 300, "7adcc70e66d31e9b73e3e016f1b628145bfd0f164c77695fe52663a31b1eb610"),
    "f2_m3_frequent_plus": (
        3, 6, 1500, 1500, 10, 0, None,
        "24393d883d03d06273ea745e1d4c6e758c9f0d43ef37325c62794f934726d1a5",
        27, 1500, "7adcc70e66d31e9b73e3e016f1b628145bfd0f164c77695fe52663a31b1eb610"),
    "f2_m4_frequent_plus": (
        4, 2, 600, 600, 30, 0, None,
        "a3248b5d96209c15ef186ac4973628a173f9b47fee5ba34f43a9254ce3e63444",
        64, 600, "c0f9e6d0f17ae522476b9d6faa5e8646c530504b2f78e29b76a4825589708a79"),
}


def check_prime_field_walk(tmp_path, field, case):
    n, seed, steps, plus, patience, every, target, trace_sha, rank, n_steps, out_sha = case
    cfg = SearchConfig(seed=seed, max_steps=steps, plus_budget=plus, patience=patience,
                       verify_every=every, target_rank=target)
    res = random_walk(matmul_tensor(n, field), standard_decomposition(n, field), cfg,
                      collect_trace=True)
    got = (sha(repr(res.trace).encode()), res.rank, res.steps, file_sha(tmp_path, res.decomposition))
    assert got == (trace_sha, rank, n_steps, out_sha)


@pytest.mark.parametrize("name", sorted(GENERIC_F3))
def test_generic_f3_walk_trajectory(tmp_path, name, walk_path):
    check_prime_field_walk(tmp_path, F3, GENERIC_F3[name])


@pytest.mark.parametrize("name", sorted(GENERIC_F2))
def test_plain_f2_walk_trajectory(tmp_path, name, walk_path):
    check_prime_field_walk(tmp_path, F2, GENERIC_F2[name])


# name: (field, seed, max_steps, plus_budget, patience, verify_every,
#        target_rank, rank, steps, file sha).  The "seed" cases change when
# the walk skips a stabilizer rejection or enumerates the two rotated
# images of a partner in the other order.  The "stop" cases end on
# target_rank, on running out of moves with no plus budget, and on an
# exhausted plus budget above rank 7.
SYMMETRIC = {
    "F2": (F2, 1, 2000, 5, 50, 0, None, 7, 68,
          "74f11f83ab50625000054f04c58969405eade5cb2f60d1ba1a86290ee9c13887"),
    "F2_frequent_plus": (F2, 4, 1500, 1500, 10, 0, None, 7, 1500,
                        "10560e9ace56a67ea8007db76d2a05a98c10cf50d0ea2b84960ac1d7a2062253"),
    "F3": (F3, 2, 2000, 5, 50, 0, None, 7, 62,
          "51423cb57d38054466ea69ec2db637ccc8178e2bf95d70de88bae578474bb3a0"),
    "F3_frequent_plus": (F3, 6, 600, 600, 10, 0, None, 7, 600,
                        "9344d22d9b0f96882c7efef4fdcb7de696d7e18aab580a733f1914d86c4dad4a"),
    "F2_seed7_short": (F2, 7, 300, 300, 5, 0, None, 7, 300,
                      "bfb7b69abc4a333602cd77a923be4540957077b115b8c7fc2ffd980e86390351"),
    "F2_seed8_short": (F2, 8, 300, 300, 5, 0, None, 7, 300,
                      "630d5cdd4ad3f3a845e70b80647b80683439665e9fc9769369ffc0df3a37b4fc"),
    "F3_seed6_few_plus": (F3, 6, 1000, 3, 40, 0, None, 13, 136,
                         "94e5651b9dfeab696a4adf5b605eb6c96d8c0eba993d42a6aad17c1e2ffc5c46"),
    "F3_seed31_short": (F3, 31, 300, 300, 5, 0, None, 7, 300,
                       "d9d4eb9f6243ff54bdfd6d99e7386feeebef554e0b217fba18d5a863833860a3"),
    "Q": (Q, 3, 800, 5, 50, 0, None, 7, 800,
         "c36727a7ffefd5d0b5bc0dc1013f2634e83c7b7b67ea1c4c936de3cf19df810a"),
    "Q_verify_every_step": (Q, 5, 300, 20, 10, 1, None, 7, 150,
                           "88228604c5cd3d688d8518de58cba35aab66f29a548552ce8662bdcdd4624782"),
    "F2_stop_target_rank": (F2, 1, 2000, 5, 50, 0, 7, 7, 21,
                            "74f11f83ab50625000054f04c58969405eade5cb2f60d1ba1a86290ee9c13887"),
    "F3_stop_no_plus_budget": (F3, 3, 2000, 0, 10, 0, None, 7, 20,
                               "9344d22d9b0f96882c7efef4fdcb7de696d7e18aab580a733f1914d86c4dad4a"),
    "F3_stop_plus_exhausted": (F3, 11, 3000, 2, 20, 0, None, 13, 94,
                               "94e5651b9dfeab696a4adf5b605eb6c96d8c0eba993d42a6aad17c1e2ffc5c46"),
    "F3_verify_every_step": (F3, 9, 300, 20, 10, 1, None, 7, 116,
                             "0823a5d02abdeae2f9f4086f9014f5a945659b5e54096f0aca6853bfa7c48365"),
}


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_symmetric_walk_trajectory(tmp_path, name):
    field, seed, steps, plus, patience, every, target, rank, n_steps, out_sha = SYMMETRIC[name]
    cfg = SearchConfig(seed=seed, max_steps=steps, plus_budget=plus, patience=patience,
                       verify_every=every, target_rank=target)
    res = symmetric_random_walk(matmul_tensor(2, field), naive_symmetric_form(field), cfg)
    assert (res.rank, res.steps, file_sha(tmp_path, res.decomposition)) == (rank, n_steps, out_sha)
