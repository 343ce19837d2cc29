"""Benchmark the native walk kernel against the pure-Python twin.

Both engines follow one trajectory contract, so the results are asserted
identical; only the speed differs.  Run from the repository root:

    python3 benchmarks/compare_backends.py [--steps N]
"""

import argparse
import time

from mmrank.fields import F2
from mmrank.flipgraph import HAVE_COMPILED, SearchConfig, random_walk
from mmrank.tensors import matmul_tensor, standard_decomposition


def run_case(n: int, seed: int, steps: int):
    target = matmul_tensor(n, F2)
    start = standard_decomposition(n, F2)
    # a large plus budget keeps the walk moving for the whole step budget
    cfg = SearchConfig(seed=seed, max_steps=steps, plus_budget=steps, patience=200)

    results = {}
    for backend in ("pure", "compiled") if HAVE_COMPILED else ("pure",):
        t0 = time.perf_counter()
        res = random_walk(target, start, cfg, backend=backend)
        dt = time.perf_counter() - t0
        results[backend] = (res, dt)
        rate = res.steps / dt if dt > 0 else float("inf")
        print(f"  {backend:>8}: rank {res.rank:3d}  {res.steps} steps  "
              f"{dt:8.3f}s  ({rate:,.0f} steps/s)")

    if HAVE_COMPILED:
        (rp, tp), (rc, tc) = results["pure"], results["compiled"]
        assert (rp.rank, rp.steps) == (rc.rank, rc.steps), "backend trajectories diverged"
        assert rp.decomposition.terms == rc.decomposition.terms
        if tc > 0:
            print(f"  speedup: {tp / tc:.1f}x; identical trajectories confirmed")
    else:
        print("  native kernel not loaded (MMRANK_NO_EXT set, or no C compiler)")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=200_000)
    args = ap.parse_args()
    for n, seed in ((2, 1), (3, 5), (4, 7)):
        print(f"walk on the {n}x{n} multiplication tensor over F2, seed {seed}:")
        run_case(n, seed, args.steps)


if __name__ == "__main__":
    main()
