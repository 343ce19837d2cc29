"""Command-line entry point.

Subcommands: verify, replay-proof, search, orbit, compile, bench.  Exit
status is 0 for success or a verified result, 1 for a verification
mismatch, 2 for usage or parse errors, and 3 when a search exhausted its
budget without reaching the requested rank.  Output files and stdout are
deterministic for fixed arguments; only bench timings (on stderr) vary.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from enum import IntEnum

from .bilinear import compile_program, naive_matmul
from .fields import Field, PrimeField, Q, parse_field
from .fileformat import (
    ParseError,
    read_decomposition_file,
    write_decomposition_file,
)
from .flipgraph import SearchConfig, search
from .flipgraph.symwalk import symmetric_search
from .proof import check_derivation, naive_symmetric_form, rank7_derivation
from .rng import Xoshiro256
from .symmetry import SymmetricDecomposition, flatten, orbit, stabilizer
from .tensors import Matrix, RankOneTerm, matmul_tensor, standard_decomposition, verify


class ExitStatus(IntEnum):
    OK = 0
    MISMATCH = 1
    USAGE = 2
    BUDGET_EXHAUSTED = 3


def _fail_usage(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return ExitStatus.USAGE


# -- term specs ----------------------------------------------------------------

_TERM_TOKEN = re.compile(r"\s*([+-]?)\s*(\d+(?:/\d+)?)?\s*e(\d)(\d)\s*")


def parse_factor(spec: str, field: Field, n: int) -> Matrix:
    """Signed sums of scaled basis entries, e.g. 'e01-e00' or '2e11'."""
    m = Matrix.zero(field, n)
    pos = 0
    first = True
    while pos < len(spec):
        tok = _TERM_TOKEN.match(spec, pos)
        if not tok or (not first and not tok.group(1)):
            raise ValueError(f"malformed factor {spec!r} at position {pos}")
        sign, coef, i, j = tok.groups()
        i, j = int(i), int(j)
        if i >= n or j >= n:
            raise ValueError(f"entry e{i}{j} out of range for n={n}")
        c = field.parse_raw(coef) if coef else field.one
        if sign == "-":
            c = field.neg(c)
        m = m + Matrix.basis(field, n, i, j).scale(c)
        pos = tok.end()
        first = False
    if first:
        raise ValueError(f"empty factor in {spec!r}")
    return m


def parse_term_spec(spec: str, field: Field, n: int) -> RankOneTerm:
    parts = spec.split(",")
    if len(parts) != 3:
        raise ValueError("term spec needs three comma-separated factors")
    return RankOneTerm(*(parse_factor(p, field, n) for p in parts))


# -- commands ------------------------------------------------------------------


def cmd_verify(args) -> int:
    try:
        dec = read_decomposition_file(args.file)
    except (OSError, ParseError, ValueError) as exc:
        return _fail_usage(str(exc))
    if args.target is not None:
        m = re.fullmatch(r"m(\d+)", args.target)
        if not m:
            return _fail_usage(f"malformed target {args.target!r}, expected mN")
        if int(m.group(1)) != dec.n:
            return _fail_usage(
                f"target m{m.group(1)} does not match file side n={dec.n}"
            )
    plain = flatten(dec) if isinstance(dec, SymmetricDecomposition) else dec
    target = matmul_tensor(dec.n, dec.field)
    res = verify(plain, target)
    if res.ok:
        print(f"VERIFIED rank<={res.rank_bound}")
        return ExitStatus.OK
    print(f"MISMATCH rank-bound {res.rank_bound}")
    for p in res.mismatches:
        print(f"  at {p}")
    return ExitStatus.MISMATCH


def cmd_replay_proof(args) -> int:
    try:
        field = parse_field(args.field)
    except ValueError as exc:
        return _fail_usage(str(exc))
    derivation = rank7_derivation(field)
    report = check_derivation(derivation)
    for step, result in zip(derivation.steps, report.steps):
        status = "PASS" if result.ok else "FAIL"
        print(f"{result.label} {status}  {step.note}")
        for p in result.mismatches:
            print(f"  mismatch at {p}")
    print(f"chain {'PASS' if report.chain_ok else 'FAIL'}")
    final = "PASS" if report.final_ok else "FAIL"
    print(f"final {final}  rank<={report.final_rank_bound} against m2")
    out = args.out or f"rank7_{field.name}.txt"
    write_decomposition_file(out, derivation.final)
    print(f"wrote {out}")
    return ExitStatus.OK if report.passed else ExitStatus.MISMATCH


def cmd_search(args) -> int:
    try:
        field = parse_field(args.field) if args.field else None
    except ValueError as exc:
        return _fail_usage(str(exc))
    start = None
    if args.start:
        try:
            start = read_decomposition_file(args.start)
        except (OSError, ParseError, ValueError) as exc:
            return _fail_usage(str(exc))
        if args.n is not None and args.n != start.n:
            return _fail_usage(f"--n {args.n} conflicts with start file n={start.n}")
        if field is not None and field != start.field:
            return _fail_usage("--field conflicts with start file field")
        n, field = start.n, start.field
        if args.symmetric != isinstance(start, SymmetricDecomposition):
            return _fail_usage(
                "start file mode does not match --symmetric"
            )
    else:
        n = args.n if args.n is not None else 2
        field = field if field is not None else parse_field("F2")
    if args.workers < 1:
        return _fail_usage(f"--workers must be >= 1, got {args.workers}")

    try:
        target = matmul_tensor(n, field)
        cfg = SearchConfig(
            seed=args.seed,
            max_steps=args.max_steps,
            plus_budget=args.plus_budget,
            restarts=args.restarts,
            patience=args.patience,
            target_rank=args.target_rank,
        )
    except ValueError as exc:
        return _fail_usage(str(exc))
    if args.symmetric:
        if start is None:
            if n != 2:
                return _fail_usage(
                    "symmetric search has a default start only for n=2; pass --start"
                )
            start = naive_symmetric_form(field)
        result = symmetric_search(target, start, cfg)
    else:
        if start is None:
            start = standard_decomposition(n, field)
        result = search(target, start, cfg, workers=args.workers)

    out = args.out or f"search_m{n}_{field.name}_seed{args.seed}.txt"
    write_decomposition_file(out, result.decomposition)
    summary = {
        "file": out,
        "rank": result.rank,
        "seed": result.seed,
        "steps": result.steps,
    }
    print(json.dumps(summary, sort_keys=True))
    if args.target_rank is not None and result.rank > args.target_rank:
        return ExitStatus.BUDGET_EXHAUSTED
    return ExitStatus.OK


def cmd_orbit(args) -> int:
    try:
        field = parse_field(args.field)
    except ValueError as exc:
        return _fail_usage(str(exc))
    if args.from_file:
        try:
            dec = read_decomposition_file(args.from_file)
        except (OSError, ParseError, ValueError) as exc:
            return _fail_usage(str(exc))
        plain = flatten(dec) if isinstance(dec, SymmetricDecomposition) else dec
        if not 0 <= args.term < len(plain.terms):
            return _fail_usage(f"--term {args.term} out of range")
        term = plain.terms[args.term]
    elif args.term_spec:
        try:
            term = parse_term_spec(args.term_spec, field, args.n)
        except ValueError as exc:
            return _fail_usage(str(exc))
    else:
        return _fail_usage("pass a term spec or --from-file")
    images = orbit(term)
    stab = stabilizer(term)
    print(f"term: {term.u} {term.v} {term.w}")
    print(f"orbit size: {len(images)}")
    for img in images:
        print(f"  {img.u} {img.v} {img.w}")
    print(f"stabilizer (order {len(stab)}): " + ", ".join(str(g) for g in stab))
    return ExitStatus.OK


def _load_verified_program(path):
    dec = read_decomposition_file(path)
    plain = flatten(dec) if isinstance(dec, SymmetricDecomposition) else dec
    target = matmul_tensor(plain.n, plain.field)
    res = verify(plain, target)
    if not res.ok:
        print(f"MISMATCH rank-bound {res.rank_bound}")
        for p in res.mismatches:
            print(f"  at {p}")
        return None, ExitStatus.MISMATCH
    return compile_program(plain), ExitStatus.OK


def cmd_compile(args) -> int:
    try:
        prog, status = _load_verified_program(args.file)
    except (OSError, ParseError, ValueError) as exc:
        return _fail_usage(str(exc))
    if prog is None:
        return status
    print(f"products: {prog.r}")
    print("oracle check: OK (all basis pairs match naive multiplication)")
    print(json.dumps({"field": prog.field.name, "n": prog.n, "products": prog.r},
                     sort_keys=True))
    return ExitStatus.OK


def _random_matrix(field: Field, side: int, rng: Xoshiro256) -> Matrix:
    if isinstance(field, PrimeField):
        ents = [rng.below(field.p) for _ in range(side * side)]
    else:
        ents = [rng.below(19) - 9 for _ in range(side * side)]
    return Matrix(field, side, ents)


def cmd_bench(args) -> int:
    if args.depth < 0:
        return _fail_usage(f"--depth must be >= 0, got {args.depth}")
    try:
        prog, status = _load_verified_program(args.file)
    except (OSError, ParseError, ValueError) as exc:
        return _fail_usage(str(exc))
    if prog is None:
        return status
    d = args.depth
    ops = prog.count_ops(d)
    naive_mults = (prog.n**3) ** d
    print(f"mults: {ops.multiplications} (naive-recursive: {naive_mults})")
    rng = Xoshiro256(args.seed)
    side = prog.n**d
    A = _random_matrix(prog.field, side, rng)
    B = _random_matrix(prog.field, side, rng)
    t0 = time.perf_counter()
    fast = prog.apply_recursive(A, B, d)
    t_fast = time.perf_counter() - t0
    t0 = time.perf_counter()
    ref = naive_matmul(A, B)
    t_naive = time.perf_counter() - t0
    if fast != ref:
        print("MISMATCH against naive multiplication on the benchmark inputs")
        return ExitStatus.MISMATCH
    print(
        f"timings (informative only): recursive {t_fast:.6f}s, naive {t_naive:.6f}s "
        f"at side {side}",
        file=sys.stderr,
    )
    print(json.dumps({
        "additions": ops.additions,
        "depth": d,
        "field": prog.field.name,
        "multiplications": ops.multiplications,
        "n": prog.n,
        "naive_multiplications": naive_mults,
        "products": prog.r,
        "scalar_multiplications": ops.scalar_multiplications,
    }, sort_keys=True))
    return ExitStatus.OK


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mmrank",
        description="Exact workbench for matrix multiplication tensor rank decompositions.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="check a decomposition file against its multiplication tensor")
    v.add_argument("file")
    v.add_argument("--target", help="target tensor, mN (must match the file's n)")
    v.set_defaults(fn=cmd_verify)

    r = sub.add_parser("replay-proof", help="replay the rank<=7 derivation for 2x2 multiplication")
    r.add_argument("--field", default="Q", help="field literal, Q or F<p> (default Q)")
    r.add_argument("--out", help="output decomposition file (default rank7_<field>.txt)")
    r.set_defaults(fn=cmd_replay_proof)

    s = sub.add_parser("search", help="flip-graph random walk from a start decomposition")
    s.add_argument("--n", type=int, default=None, help="side length (default 2)")
    s.add_argument("--field", default=None, help="field literal (default F2)")
    s.add_argument("--seed", type=int, default=1)
    s.add_argument("--max-steps", type=int, default=1_000_000)
    s.add_argument("--plus-budget", type=int, default=0)
    s.add_argument("--patience", type=int, default=1000)
    s.add_argument("--restarts", type=int, default=1)
    s.add_argument("--workers", type=int, default=1)
    s.add_argument("--symmetric", action="store_true",
                   help="walk on orbit representatives (default start exists for n=2 only)")
    s.add_argument("--start", help="start decomposition file (default: standard decomposition)")
    s.add_argument("--target-rank", type=int, default=None,
                   help="stop early at this rank; exit 3 if never reached")
    s.add_argument("--out", help="output file (default search_m<n>_<field>_seed<seed>.txt)")
    s.set_defaults(fn=cmd_search)

    o = sub.add_parser("orbit", help="orbit and stabilizer of a rank-one term")
    o.add_argument("term_spec", nargs="?",
                   help="three comma-separated factors, e.g. 'e10,e01,e11' or 'e00+e11,e00+e11,e00+e11'")
    o.add_argument("--n", type=int, default=2)
    o.add_argument("--field", default="Q")
    o.add_argument("--from-file", help="take the term from a decomposition file")
    o.add_argument("--term", type=int, default=0, help="term index within --from-file")
    o.set_defaults(fn=cmd_orbit)

    c = sub.add_parser("compile", help="compile a verified decomposition into a bilinear program")
    c.add_argument("file")
    c.set_defaults(fn=cmd_compile)

    b = sub.add_parser("bench", help="operation counts and informative timings")
    b.add_argument("file")
    b.add_argument("--depth", type=int, required=True)
    b.add_argument("--seed", type=int, default=0)
    b.set_defaults(fn=cmd_bench)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return int(args.fn(args))


if __name__ == "__main__":
    sys.exit(main())
