"""The benchmark's workloads: their set-up and the operations of one round.

Every operation is one ``mmrank`` command line, checked by
:mod:`harness`.  Inputs are a function of the workload seed alone: set-up
draws from ``Random("<workload>:<seed>")`` and round ``i`` draws its
search and bench seeds from ``Random("<workload>:<seed>:<i>")``, so any
round can be replayed exactly.

Sizes were chosen on the pure-Python walk (2 cores) so that one round
takes a few seconds and a run holds enough operations for a tail
percentile with ten samples above it.  ``short`` shrinks every size for
the smoke test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

BIG_PLUS = 1_000_000  # plus moves never run out inside a step budget


@dataclass(frozen=True)
class Op:
    """One command line and what the gate expects of it.

    ``expect`` keys by kind -- search: out, n, field, max_steps,
    target_rank, symmetric; verify: rc, lines; replay-proof: out, field;
    compile and bench: products, n, field (bench also depth).
    """

    kind: str
    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict)


@dataclass
class Plan:
    """What set-up hands to the run: the round builder and check targets."""

    make_round: object  # (round index, Random) -> list[Op]
    targets: dict  # (n, field name) -> Tensor, for re-verifying outputs


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(1, 2**31))


def _search(tag, n, field_name, seed, max_steps, plus, *, target=None,
            start=None, symmetric=False) -> Op:
    argv = ["search"]
    if symmetric:
        argv.append("--symmetric")
    if start is not None:
        argv += ["--start", start]
    else:
        argv += ["--field", field_name] + ([] if symmetric else ["--n", str(n)])
    argv += ["--seed", seed, "--max-steps", str(max_steps), "--plus-budget", str(plus)]
    if target is not None:
        argv += ["--target-rank", str(target)]
    out = f"{tag}.txt"
    argv += ["--out", out]
    return Op("search", tuple(argv), {
        "out": out, "n": n, "field": field_name, "max_steps": max_steps,
        "target_rank": target, "symmetric": symmetric,
    })


def _write(mm, path, dec) -> str:
    mm.fileformat.write_decomposition_file(path, dec)
    return path.name


# -- search-f2 ------------------------------------------------------------------


def setup_search_f2(mm, workdir, rng, short):
    """Packed F2 walks: m3 to rank 23 within a step cap, m4 on a fixed budget.

    Steps to rank 23 are heavy tailed (on seeds 1..20, three walks needed
    about a million steps, two under 25k), so each m3 walk is capped and a
    walk that stops above rank 23 exits 3, a valid outcome counted in
    reach_ratio.  Sorted by cost a round is the few m3 walks that reach
    rank 23 early < the capped m3 walks < 2 m4 walks, so the median falls
    among capped m3 walks.
    """
    F2 = mm.fields.F2
    start = _write(mm, workdir / "std_m4_F2.txt", mm.tensors.standard_decomposition(4, F2))
    targets = {(n, "F2"): mm.tensors.matmul_tensor(n, F2) for n in (3, 4)}
    m3_cap, m4_steps = (4000, 2000) if short else (25_000, 20_000)

    def make_round(i, r):
        return [
            *(_search(f"r{i}_m3_{j}", 3, "F2", _seed(r), m3_cap, BIG_PLUS, target=23)
              for j in range(3)),
            *(_search(f"r{i}_m4_{j}", 4, "F2", _seed(r), m4_steps, BIG_PLUS, start=start)
              for j in range(2)),
        ]

    return Plan(make_round, targets)


# -- search-exact ---------------------------------------------------------------


def setup_search_exact(mm, workdir, rng, short):
    """Walks that bypass the packed kernel: generic F3 and Q, and symmetric.

    Sorted by cost a round is 6 capped F3 n2 walks < 5 fixed F3 n3 walks
    < 4 symmetric walks < 2 Q n3 walks, so the median is the middle F3 n3
    walk.  Q n4 walks are left out: their cost, half of it the two
    ``verify`` calls of each walk, varied by a third from seed to seed and
    ruled the spread of the whole round; ``verify`` over Q at n=4 is
    measured by verify-compile.
    """
    Q, F2, F3 = mm.fields.Q, mm.fields.F2, mm.fields.PrimeField(3)
    start = _write(mm, workdir / "std_m3_Q.txt", mm.tensors.standard_decomposition(3, Q))
    targets = {(2, "F2"): mm.tensors.matmul_tensor(2, F2), (3, "Q"): mm.tensors.matmul_tensor(3, Q)}
    for n in (2, 3):
        targets[n, "F3"] = mm.tensors.matmul_tensor(n, F3)
    if short:
        f3n2, f3n3, qn3, sym, counts = 1000, 500, 200, 300, (1, 1, 1, 1)
    else:
        f3n2, f3n3, qn3, sym, counts = 6000, 12_000, 2000, 2000, (6, 5, 2, 2)

    def make_round(i, r):
        n2_walks, n3_walks, q_walks, sym_walks = counts
        ops = [_search(f"r{i}_f3n2_{j}", 2, "F3", _seed(r), f3n2, BIG_PLUS, target=7)
               for j in range(n2_walks)]
        ops += [_search(f"r{i}_f3n3_{j}", 3, "F3", _seed(r), f3n3, 1000) for j in range(n3_walks)]
        ops += [_search(f"r{i}_qn3_{j}", 3, "Q", _seed(r), qn3, 1000, start=start)
                for j in range(q_walks)]
        for j in range(sym_walks):
            for name in ("F2", "F3"):
                ops.append(_search(f"r{i}_sym{name}_{j}", 2, name, _seed(r), sym, 1000,
                                   symmetric=True))
        return ops

    return Plan(make_round, targets)


# -- verify-compile -------------------------------------------------------------


def _unimodular(n, rng, moves):
    """A random integer matrix with determinant 1 and its integer inverse."""
    P = [[int(a == b) for b in range(n)] for a in range(n)]
    Pinv = [row[:] for row in P]
    for _ in range(moves):
        a, b = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        for row in P:  # P <- P (I + c E_ab)
            row[b] += c * row[a]
        Pinv[a] = [x - c * y for x, y in zip(Pinv[a], Pinv[b])]  # (I - c E_ab) Pinv
    return P, Pinv


def sandwich(mm, n, fld, rng):
    """A dense decomposition: the standard one under a random basis change.

    tr(XYZ) = tr(PXQ . Q^-1 Y R . R^-1 Z P^-1), so mapping each term
    (u, v, w) to (P^T u Q^T, Q^-T v R^T, R^-T w P^-T) keeps the sum equal
    to the multiplication tensor.  Unimodular P, Q, R keep every entry an
    integer, so the same construction is exact over Q and every F_p.
    """
    (P, Pi), (Q, Qi), (R, Ri) = (_unimodular(n, rng, 2 * n) for _ in range(3))
    T = mm.tensors

    def outer(x, y):  # the matrix with entries x[r] * y[s]
        return T.Matrix(fld, n, [a * b for a in x for b in y])

    def col(M, j):
        return [row[j] for row in M]

    terms = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                terms.append(T.RankOneTerm(
                    outer(P[i], col(Q, j)),
                    outer(Qi[j], col(R, k)),
                    outer(Ri[k], col(Pi, i)),
                ))
    return T.Decomposition(n, fld, tuple(terms))


def _flat(n, p):
    (a, b), (c, d), (e, f) = p
    n2 = n * n
    return ((a * n + b) * n2 + (c * n + d)) * n2 + (e * n + f)


def _mismatch_lines(n, rank, positions):
    """What ``mmrank verify`` must print for exactly these bad coordinates."""
    bad = sorted(positions, key=lambda p: _flat(n, p))[:16]
    return [f"MISMATCH rank-bound {rank}"] + [f"  at {p}" for p in bad]


def _with_basis_terms(mm, dec, rng, count, coeff):
    """Append ``count`` single-coordinate terms; each spoils one coordinate."""
    n, fld = dec.n, dec.field
    T = mm.tensors
    pairs = [(a, b) for a in range(n) for b in range(n)]
    positions = set()
    while len(positions) < count:
        positions.add(tuple(rng.choice(pairs) for _ in range(3)))
    positions = sorted(positions)
    extra = tuple(
        T.RankOneTerm(T.Matrix.basis(fld, n, *p0).scale(coeff),
                      T.Matrix.basis(fld, n, *p1), T.Matrix.basis(fld, n, *p2))
        for p0, p1, p2 in positions
    )
    bad = T.Decomposition(n, fld, dec.terms + extra)
    return bad, _mismatch_lines(n, len(bad.terms), positions)


def _without_standard_terms(mm, n, fld, rng, count):
    """Drop ``count`` summands of the standard decomposition.

    Summand (i, j, k) is e_ij (x) e_jk (x) e_ki alone, so dropping it
    spoils exactly the coordinate ((i, j), (j, k), (k, i)).
    """
    std = mm.tensors.standard_decomposition(n, fld)
    drop = set(rng.sample(range(n**3), count))
    kept = tuple(t for x, t in enumerate(std.terms) if x not in drop)
    positions = []
    for x in drop:
        i, j, k = x // (n * n), (x // n) % n, x % n
        positions.append(((i, j), (j, k), (k, i)))
    bad = mm.tensors.Decomposition(n, fld, kept)
    return bad, _mismatch_lines(n, len(kept), positions)


def _walked(mm, n, fld, rng, steps):
    cfg = mm.flipgraph.SearchConfig(seed=rng.randrange(1, 2**31), max_steps=steps,
                                    plus_budget=BIG_PLUS)
    target = mm.tensors.matmul_tensor(n, fld)
    start = mm.tensors.standard_decomposition(n, fld)
    return mm.flipgraph.random_walk(target, start, cfg).decomposition


# Seeds whose m3 walk over F2 reaches rank 23 within LOW_RANK_CAP steps
# (7k, 10k, 10k and 20k steps); fixed, so set-up costs the same for every
# workload seed.
LOW_RANK_SEEDS, LOW_RANK_CAP = (26, 28, 13, 4), 30_000


def _low_rank_m3(mm, rank):
    """A walked m3 decomposition over F2 of at most ``rank`` terms."""
    F2 = mm.fields.F2
    target = mm.tensors.matmul_tensor(3, F2)
    start = mm.tensors.standard_decomposition(3, F2)
    for seed in LOW_RANK_SEEDS:
        cfg = mm.flipgraph.SearchConfig(seed=seed, max_steps=LOW_RANK_CAP,
                                        plus_budget=BIG_PLUS, target_rank=rank)
        res = mm.flipgraph.random_walk(target, start, cfg)
        if res.rank <= rank:
            return res.decomposition
    raise RuntimeError(f"no m3 walk reached rank {rank} within {LOW_RANK_CAP} steps")


def setup_verify_compile(mm, workdir, rng, short):
    """Files to verify, the rank-7 and a walked m3 scheme to compile and bench.

    Standard files have one nonzero per factor, walked and basis-changed
    ("dense") files many; corrupted copies must print known mismatches.
    Sorted by cost a round is 9 ops under 0.03 s < 2 verifies over Q at
    n=3 < 6 verifies over F2 and F3 at n=4 < 7 ops of 0.3 s to 1.2 s, so
    the median falls among the n=4 verifies.
    """
    Q, F2, F3 = mm.fields.Q, mm.fields.F2, mm.fields.PrimeField(3)
    fields = {"Q": Q, "F2": F2, "F3": F3}
    std = mm.tensors.standard_decomposition
    verify_ops = []

    def add(name, dec, lines=None):
        path = _write(mm, workdir / f"{name}.txt", dec)
        rank = dec.rank_bound
        expect = {"rc": 1, "lines": lines} if lines else {
            "rc": 0, "lines": [f"VERIFIED rank<={rank}"]}
        verify_ops.append(Op("verify", ("verify", path), expect))

    if short:
        add("std_m3_F2", std(3, F2))
        add("walk_m3_F3", _walked(mm, 3, F3, rng, 200))
        add("dense_m3_Q", sandwich(mm, 3, Q, rng))
        add("bad_m3_F3", *_without_standard_terms(mm, 3, F3, rng, 2))
    else:
        for n, name in ((3, "F2"), (4, "F3"), (5, "F2"), (4, "Q")):
            add(f"std_m{n}_{name}", std(n, fields[name]))
        for n, name, steps in ((4, "F2", 3000), (3, "F3", 3000), (3, "Q", 400), (4, "F3", 1500)):
            add(f"walk_m{n}_{name}", _walked(mm, n, fields[name], rng, steps))
        for n, name in ((4, "Q"), (5, "F3"), (4, "F2"), (4, "F3")):
            add(f"dense_m{n}_{name}", sandwich(mm, n, fields[name], rng))
        add("bad_walk_m4_F2", *_with_basis_terms(mm, _walked(mm, 4, F2, rng, 3000), rng, 2, 1))
        add("bad_dense_m3_Q", *_with_basis_terms(mm, sandwich(mm, 3, Q, rng), rng, 1, 2))
        add("bad_std_m3_F3", *_without_standard_terms(mm, 3, F3, rng, 2))
    add("sym_rank7_Q", mm.proof.rank7_symmetric_form(Q))

    r7 = {name: _write(mm, workdir / f"rank7_{name}.txt", mm.proof.rank7_symmetric_form(fields[name]))
          for name in ("Q", "F2")}
    low_rank = 25 if short else 23
    m3 = _low_rank_m3(mm, low_rank)
    m3_file = _write(mm, workdir / "walk_m3_F2_low.txt", m3)
    m3_rank = m3.rank_bound
    targets = {(2, name): mm.tensors.matmul_tensor(2, fld) for name, fld in fields.items()}

    programs = [(r7["Q"], 7, 2, "Q"), (m3_file, m3_rank, 3, "F2")]
    if short:
        benches = [(r7["F2"], 7, 2, "F2", 2)]
        proofs = ("F2",)
    else:
        benches = [(r7["Q"], 7, 2, "Q", 5), (r7["F2"], 7, 2, "F2", 5), (m3_file, m3_rank, 3, "F2", 3)]
        proofs = ("Q", "F2", "F3")

    def make_round(i, r):
        ops = list(verify_ops)
        for name in proofs:
            out = f"proof_{name}.txt"
            ops.append(Op("replay-proof", ("replay-proof", "--field", name, "--out", out),
                          {"out": out, "field": name}))
        for path, products, n, name in programs:
            ops.append(Op("compile", ("compile", path),
                          {"products": products, "n": n, "field": name}))
        for path, products, n, name, depth in benches:
            ops.append(Op("bench", ("bench", path, "--depth", str(depth), "--seed", _seed(r)),
                          {"products": products, "n": n, "field": name, "depth": depth}))
        return ops

    return Plan(make_round, targets)


WORKLOADS = {
    "search-f2": setup_search_f2,
    "search-exact": setup_search_exact,
    "verify-compile": setup_verify_compile,
}
