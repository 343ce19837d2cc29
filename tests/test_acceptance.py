"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report.  Every check is exact (no tolerances anywhere); the stated time
budgets are asserted as hard bounds.
"""

import itertools
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from mmrank.bilinear import compile_program, naive_matmul
from mmrank.fields import F2, PrimeField, Q
from mmrank.fileformat import read_decomposition_file
from mmrank.flipgraph import SearchConfig, random_walk
from mmrank.proof import (
    check_derivation,
    naive_symmetric_form,
    rank7_derivation,
    rank7_symmetric_form,
)
from mmrank.symmetry import (
    GROUP,
    apply_group,
    apply_group_tensor,
    expand_symmetric,
    flatten,
    orbit_sum,
)
from mmrank.tensors import (
    Decomposition,
    Matrix,
    RankOneTerm,
    expand_term,
    matmul_tensor,
    standard_decomposition,
    verify,
)

F3 = PrimeField(3)
F101 = PrimeField(101)
TESTED_FIELDS = [Q, F2, F3, F101]


def _report(num: int, started: float, budget: float, what: str) -> None:
    elapsed = time.perf_counter() - started
    print(f"criterion {num} PASS ({elapsed:.2f}s, budget {budget:.0f}s): {what}")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_1_replay_proof_exact(tmp_path, capsys):
    t0 = time.perf_counter()
    from mmrank.cli import main

    out = tmp_path / "final.txt"
    code = main(["replay-proof", "--field", "Q", "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0
    for label in ("S1", "S2", "S3", "S4", "S5", "S6"):
        assert f"{label} PASS" in stdout
    emitted = read_decomposition_file(out)
    assert emitted.rank_bound == 7
    res = verify(flatten(emitted), matmul_tensor(2, Q))
    assert res.ok and res.mismatches == ()
    with capsys.disabled():
        _report(1, t0, 1.0, "six-step replay over Q emits a verified rank<=7 form")


def test_criterion_2_field_genericity():
    t0 = time.perf_counter()
    for field in (F2, F3, F101, Q):
        t_field = time.perf_counter()
        report = check_derivation(rank7_derivation(field))
        assert report.passed, field.name
        assert time.perf_counter() - t_field < 1.0
    _report(2, t0, 4.0, "derivation passes over F2, F3, F101 and Q (<1s each)")


def test_criterion_3_orbit_identities():
    t0 = time.perf_counter()
    for field in TESTED_FIELDS:
        e = {(i, j): Matrix.basis(field, 2, i, j) for i in (0, 1) for j in (0, 1)}
        base = RankOneTerm(e[0, 1], e[1, 1], e[0, 0])
        inverted = RankOneTerm(e[1, 0], e[0, 0], e[1, 1])
        rotated = RankOneTerm(e[0, 0], e[0, 1], e[1, 1])
        assert orbit_sum(base) == orbit_sum(inverted)
        assert orbit_sum(base) == orbit_sum(rotated)
    _report(3, t0, 1.0, "both orbit rewriting identities hold over all tested fields")


def test_criterion_4_thirteen_term_accounting():
    t0 = time.perf_counter()
    for field in TESTED_FIELDS:
        sd = naive_symmetric_form(field)
        assert sd.rank_bound == 13
        assert expand_symmetric(sd) == matmul_tensor(2, field)
        flat = flatten(sd)
        res = verify(flat, matmul_tensor(2, field))
        assert res.ok and res.rank_bound == 13
    _report(4, t0, 1.0, "the 1+6+6 symmetric form verifies with rank bound exactly 13")


def test_criterion_5_symmetry_suite():
    t0 = time.perf_counter()
    for n in (2, 3, 4):
        for field in (Q, F2):
            mn = matmul_tensor(n, field)
            for g in GROUP:
                assert apply_group_tensor(g, mn) == mn

    rnd = random.Random(20240809)

    def rand_matrix(field, n):
        if field is Q:
            return Matrix(field, n, [Fraction(rnd.randint(-3, 3)) for _ in range(n * n)])
        return Matrix(field, n, [rnd.randrange(field.p) for _ in range(n * n)])

    checked = 0
    cases = [(Q, 2), (F2, 2), (F101, 2), (F2, 3)]
    while checked < 1000:
        field, n = cases[checked % len(cases)]
        t = RankOneTerm(*(rand_matrix(field, n) for _ in range(3)))
        g = GROUP[rnd.randrange(6)]
        assert expand_term(apply_group(g, t)) == apply_group_tensor(g, expand_term(t))
        checked += 1
    _report(5, t0, 10.0, "group invariance of m2/m3/m4 and equivariance on 1000 random terms")


def test_criterion_6_move_soundness_fuzz():
    t0 = time.perf_counter()
    m2 = matmul_tensor(2, F2)
    start = standard_decomposition(2, F2)
    cfg = SearchConfig(
        seed=2024, max_steps=100_000, plus_budget=100_000, patience=40, verify_every=1
    )
    res = random_walk(m2, start, cfg, collect_trace=True)
    assert res.steps == 100_000
    kinds = {k for (k, *_r) in res.trace}
    assert kinds == {"flip", "reduce", "plus"}
    assert verify(res.decomposition, m2).ok
    _report(6, t0, 60.0, "100000 verified-after-every-move walk moves, zero violations")


def test_criterion_7_search_reproduces_rank_7(tmp_path, cli_env):
    t0 = time.perf_counter()
    out1 = tmp_path / "best1.txt"
    out2 = tmp_path / "best2.txt"
    cmd = [
        sys.executable, "-m", "mmrank", "search",
        "--n", "2", "--field", "F2", "--seed", "1",
        "--max-steps", "10000000", "--plus-budget", "10",
    ]
    p1 = subprocess.run(cmd + ["--out", str(out1)], capture_output=True, text=True, cwd=tmp_path,
                        env=cli_env)
    assert p1.returncode == 0, p1.stderr
    summary = json.loads(p1.stdout.strip().splitlines()[-1])
    assert summary["rank"] <= 7

    emitted = read_decomposition_file(out1)
    res = verify(emitted, matmul_tensor(2, F2))
    assert res.ok and res.rank_bound <= 7

    # deterministic per seed: a second run is byte-identical
    p2 = subprocess.run(cmd + ["--out", str(out2)], capture_output=True, text=True, cwd=tmp_path,
                        env=cli_env)
    assert p2.returncode == 0, p2.stderr
    assert out1.read_bytes() == out2.read_bytes()
    assert json.loads(p2.stdout.strip().splitlines()[-1]) == {**summary, "file": str(out2)}
    _report(7, t0, 300.0, f"search CLI reached verified rank {summary['rank']} (steps {summary['steps']})")


def test_criterion_8_bilinear_correctness():
    t0 = time.perf_counter()
    prog2 = compile_program(flatten(rank7_symmetric_form(F2)))
    mats = [Matrix(F2, 2, bits) for bits in itertools.product((0, 1), repeat=4)]
    for A in mats:
        for B in mats:
            assert prog2.apply(A, B) == naive_matmul(A, B)

    prog101 = compile_program(flatten(rank7_symmetric_form(F101)))
    rnd = random.Random(99)
    for _ in range(1000):
        A = Matrix(F101, 2, [rnd.randrange(101) for _ in range(4)])
        B = Matrix(F101, 2, [rnd.randrange(101) for _ in range(4)])
        assert prog101.apply(A, B) == naive_matmul(A, B)

    A = Matrix(F101, 8, [rnd.randrange(101) for _ in range(64)])
    B = Matrix(F101, 8, [rnd.randrange(101) for _ in range(64)])
    assert prog101.apply_recursive(A, B, 3) == naive_matmul(A, B)

    assert prog101.count_ops(3).multiplications == 343
    assert compile_program(standard_decomposition(2, F101)).count_ops(3).multiplications == 512
    _report(8, t0, 30.0, "7-product program exact on all F2 pairs, 1000 F101 pairs, depth 3, 343 vs 512")


def test_criterion_9_mutation_sensitivity():
    t0 = time.perf_counter()
    m2q = matmul_tensor(2, Q)
    seven = flatten(rank7_symmetric_form(Q))
    assert verify(seven, m2q).ok

    for i in range(7):
        pruned = Decomposition(2, Q, seven.terms[:i] + seven.terms[i + 1:])
        assert not verify(pruned, m2q).ok

    # deletion also breaks over F2
    m2f2 = matmul_tensor(2, F2)
    seven_f2 = flatten(rank7_symmetric_form(F2))
    for i in range(7):
        pruned = Decomposition(2, F2, seven_f2.terms[:i] + seven_f2.terms[i + 1:])
        assert not verify(pruned, m2f2).ok

    # flipping any single sign (negating one factor) breaks verification over Q
    for i in range(7):
        for slot in range(3):
            factors = list(seven.terms[i].factors)
            factors[slot] = -factors[slot]
            mutated = Decomposition(
                2, Q, seven.terms[:i] + (RankOneTerm(*factors),) + seven.terms[i + 1:]
            )
            assert not verify(mutated, m2q).ok
    _report(9, t0, 1.0, "every term deletion and every single sign flip breaks verification")
