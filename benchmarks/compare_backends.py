"""Benchmark the walk backends and the exact walks.

Over F2 and F3 the native kernel (``_native.run_walk``) and the pure
engine (``engine.run_walk`` with ``GenericKernel``, whose factors are
entry tuples in both fields) run on the same terms; they follow one
trajectory contract, so their traces, best and final terms are asserted
identical, and only the speed differs.  The other exact walks (the
generic engine over Q, the symmetric walk over F2 and F3) have one
implementation each: every one runs twice, and the two runs are asserted
identical.  Run from the repository root:

    python3 benchmarks/compare_backends.py [--steps N]

The exact walks take N // 10 steps.
"""

import argparse
import time

from mmrank.fields import F2, PrimeField, Q
from mmrank.flipgraph import HAVE_COMPILED, SearchConfig, random_walk, symmetric_random_walk
from mmrank.flipgraph import _native
from mmrank.flipgraph.engine import run_walk
from mmrank.flipgraph.walk import _kernel_for, _to_kernel_terms
from mmrank.proof import naive_symmetric_form
from mmrank.tensors import matmul_tensor, standard_decomposition


def walk_config(seed: int, steps: int) -> SearchConfig:
    # a large plus budget keeps the walk moving for the whole step budget
    return SearchConfig(seed=seed, max_steps=steps, plus_budget=steps, patience=200)


def timed(walk):
    t0 = time.perf_counter()
    res = walk()
    return res, time.perf_counter() - t0


def report(label: str, rank: int, steps: int, dt: float):
    rate = steps / dt if dt > 0 else float("inf")
    print(f"  {label:>8}: rank {rank:3d}  {steps} steps  "
          f"{dt:8.3f}s  ({rate:,.0f} steps/s)")


def run_case(field, n: int, seed: int, steps: int):
    kernel = _kernel_for(field, n)
    terms = _to_kernel_terms(kernel, standard_decomposition(n, field))
    target = matmul_tensor(n, field).sparse()
    cfg = walk_config(seed, steps)
    limits = dict(seed=seed, max_steps=cfg.max_steps, plus_budget=cfg.plus_budget,
                  patience=cfg.patience, verify_every=cfg.verify_every)

    pure, tp = timed(lambda: run_walk(kernel, terms, target, **limits))
    report("pure", pure.best_rank, pure.steps, tp)
    if not HAVE_COMPILED:
        print("  native kernel not loaded (MMRANK_NO_EXT set, or no C compiler)")
        return
    native, tc = timed(lambda: _native.run_walk(kernel, terms, target, **limits))
    report("compiled", native.best_rank, native.steps, tc)
    assert native == pure, "backend trajectories diverged"
    if tc > 0:
        print(f"  speedup: {tp / tc:.1f}x; identical trajectories confirmed")


def run_exact_case(walk):
    """Run one exact walk twice; both runs must give the same result."""
    (r1, t1), (r2, t2) = timed(walk), timed(walk)
    assert (r1.rank, r1.steps) == (r2.rank, r2.steps), "repeated walks diverged"
    assert r1.decomposition == r2.decomposition
    report("best of 2", r1.rank, r1.steps, min(t1, t2))
    print("  deterministic: both runs gave the same result")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=200_000)
    args = ap.parse_args()
    for field in (F2, PrimeField(3)):
        for n, seed in ((2, 1), (3, 5), (4, 7), (5, 9)):
            print(f"walk on the {n}x{n} multiplication tensor over {field.name}, seed {seed}:")
            run_case(field, n, seed, args.steps)

    steps = max(1, args.steps // 10)
    print("generic walk on the 3x3 multiplication tensor over Q, seed 1:")
    run_exact_case(lambda: random_walk(matmul_tensor(3, Q), standard_decomposition(3, Q),
                                       walk_config(1, steps)))
    for field in (F2, PrimeField(3)):
        print(f"symmetric walk on the 2x2 multiplication tensor over {field.name}, seed 1:")
        run_exact_case(lambda: symmetric_random_walk(
            matmul_tensor(2, field), naive_symmetric_form(field), walk_config(1, steps)))


if __name__ == "__main__":
    main()
