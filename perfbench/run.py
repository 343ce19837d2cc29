"""mmrank benchmark: closed-loop CLI workloads, with a traced per-layer run.

Run from the repository root::

    python3 perfbench/run.py --workload search-f2 --seed 1 --seconds 25 --trace 0

One client runs one ``mmrank`` command at a time in process (see
``harness.py``), in whole rounds of the workload's operations (see
``workloads.py``), until the timed operations add up to ``--seconds``.
Every operation is checked; any failure makes the exit status 1.
The run is pinned to one CPU.  End-to-end times are reference seconds:
each measured time is scaled by a fixed pure-Python loop timed right
before and after it (``harness.reference_loop``), which cancels the
drift of the host's speed; the wall-clock figures are printed beside
them under names ending in ``_wall``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
first round untraced twice (the first time to warm up), replays it with
spans around each layer's public functions (``layers.py``), which must
reproduce it byte for byte and gives the tracing overhead on identical
warm work, then keeps tracing for ``--seconds`` and reports the
per-layer metrics.  Every metric is printed
as ``name value unit``; the last line is one JSON object holding those
listed in ``BENCHMARK.json``.  The full record goes to
``perfbench/out/BENCH_<workload>_seed<seed>_trace<t>.json`` and the
spans to ``perfbench/out/SPANS_<workload>_seed<seed>.jsonl.gz``.

The package is imported from ``src`` as checked out; nothing is built.
Set-up is importing mmrank and writing every input file.  ``setup_s`` is
the median time of cold set-ups, each a fresh interpreter
(``--setup-only``), so imports and anything built on first use count in
full; there are at least five, and more until they add up to 3 s.  The
run then sets up once more in process for its own use.
``--short`` shrinks every size for the smoke test.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave no caches in the checkout

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import layers
import spans
from harness import REF_LOOP_S, Checked, Fingerprint, Gate, reference_loop, run_op
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS, SETUP_SECONDS, SETUP_MAX_REPEATS = 5, 3.0, 15  # at least 5, until 3 s
SETUP_TIMEOUT = 60
TAIL_SAMPLES = 10  # a tail percentile needs this many samples above it


class Modules:
    """The mmrank modules, imported from ``src``."""

    def __init__(self):
        import mmrank.cli  # noqa: F401  (imports every layer the CLI uses)

        mod = sys.modules
        if not Path(mod["mmrank"].__file__).resolve().is_relative_to(SRC):
            raise ImportError(f"mmrank imported from {mod['mmrank'].__file__}, not {SRC}")
        self.cli = mod["mmrank.cli"]
        self.fields = mod["mmrank.fields"]
        self.tensors = mod["mmrank.tensors"]
        self.fileformat = mod["mmrank.fileformat"]
        self.symmetry = mod["mmrank.symmetry"]
        self.proof = mod["mmrank.proof"]
        self.bilinear = mod["mmrank.bilinear"]
        self.flipgraph = mod["mmrank.flipgraph"]
        self.walk = mod["mmrank.flipgraph.walk"]
        self.engine = mod["mmrank.flipgraph.engine"]
        self.packing = mod["mmrank.flipgraph.packing"]
        self.symwalk = mod["mmrank.flipgraph.symwalk"]


def environment(mm) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    src = hashlib.sha256()
    for path in sorted((SRC / "mmrank").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "have_compiled": mm.flipgraph.HAVE_COMPILED,
        "MMRANK_NO_EXT": os.environ.get("MMRANK_NO_EXT"),
        "f2_walk_backend": "compiled" if mm.flipgraph.HAVE_COMPILED else "pure",
        "commit": commit,
        "source_sha256": src.hexdigest(),
    }


@dataclass
class Done:
    """One operation as run: its outcome, wall time and reference time."""

    kind: str
    argv: tuple
    rc: int | None
    seconds: float
    ref_seconds: float
    checked: Checked


class Run:
    """One client running rounds of operations, and what it observed."""

    def __init__(self, mm, plan, gate, workload, seed):
        self.mm, self.plan, self.gate = mm, plan, gate
        self.workload, self.seed = workload, seed
        self.tracer = None
        self.done: list[Done] = []
        self.loop_s = reference_loop()  # the host's speed just before the next op

    @property
    def failures(self):
        return [{"argv": list(d.argv), "exit": d.rc, "reason": d.checked.reason}
                for d in self.done if not d.checked.ok]

    def round(self, i, *fingerprints) -> tuple[float, float, int]:
        """Run round ``i``; returns its wall and reference seconds and first op id.

        Each op's time is scaled by the reference loop run just before
        and just after it (see ``harness.reference_loop``).
        """
        ops = self.plan.make_round(i, random.Random(f"{self.workload}:{self.seed}:{i}"))
        first, timed, ref = len(self.done), 0.0, 0.0
        for op in ops:
            if self.tracer is not None:
                self.tracer.op = len(self.done)
            res = run_op(self.mm.cli, op.argv)
            loop_s = reference_loop()
            ref_seconds = res.seconds * REF_LOOP_S / ((self.loop_s + loop_s) / 2)
            self.loop_s = loop_s
            timed += res.seconds
            ref += ref_seconds
            checked, data = self.gate.check(op, res)
            self.done.append(Done(op.kind, op.argv, res.rc, res.seconds, ref_seconds, checked))
            for fp in fingerprints:
                fp.add(op.argv, res.rc, checked, data)
        return timed, ref, first


def tail(xs) -> tuple[float | None, int | None]:
    """The highest whole percentile with TAIL_SAMPLES samples above it."""
    if len(xs) <= TAIL_SAMPLES:
        return None, None
    cuts = statistics.quantiles(xs, n=100, method="inclusive")
    for p in range(99, 0, -1):
        if sum(x > cuts[p - 1] for x in xs) >= TAIL_SAMPLES:
            return cuts[p - 1], p
    return None, None


def end_to_end(run, first_op, setups) -> tuple[dict, dict]:
    """Metrics over the ops from ``first_op`` on, and each tail's percentile.

    Times are reference seconds, except those named ``*_wall``.
    """
    timed = run.done[first_op:]
    secs = [d.ref_seconds for d in timed]
    m = {
        "setup_s": (statistics.median(ref for _, ref in setups), "s"),
        "setup_s_wall": (statistics.median(wall for wall, _ in setups), "s"),
        "ops_per_s": (len(secs) / sum(secs), "ops/s"),
        "ops_per_s_wall": (len(secs) / sum(d.seconds for d in timed), "ops/s"),
        "op_s_p50": (statistics.median(secs), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "error_rate": (sum(not d.checked.ok for d in run.done) / len(run.done), "ratio"),
    }
    tails = {}

    def add_tail(name, xs):
        value, p = tail(xs)
        m[name] = (value, "s")
        tails[name] = {"percentile": p, "samples": len(xs)}

    add_tail("op_s_tail", secs)
    for kind in ("search", "verify", "bench"):
        xs = [d.ref_seconds for d in timed if d.kind == kind]
        if xs:
            m[f"{kind}_s_p50"] = (statistics.median(xs), "s")
            if kind != "bench":
                add_tail(f"{kind}_s_tail", xs)
    searches = [d for d in timed if d.kind == "search" and d.checked.ok]
    if searches:
        m["search_steps_per_s"] = (sum(d.checked.steps for d in searches)
                                   / sum(d.ref_seconds for d in searches), "steps/s")
    return m, tails


def cold_setups(args, work) -> list[tuple[float, float]]:
    """(wall, reference) seconds of fresh interpreters that each build every input."""
    times = []
    loop_s = reference_loop()
    while len(times) < SETUP_REPEATS or (
            sum(wall for wall, _ in times) < SETUP_SECONDS and len(times) < SETUP_MAX_REPEATS):
        workdir = work / f"cold{len(times)}"
        workdir.mkdir()
        argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", "0", "--setup-only", str(workdir)] + ["--short"] * args.short
        t0 = perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=SETUP_TIMEOUT)
        wall = perf_counter() - t0
        before, loop_s = loop_s, reference_loop()
        times.append((wall, wall * REF_LOOP_S / ((before + loop_s) / 2)))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-2000:]}")
        shutil.rmtree(workdir)
    return times


def set_up(args, workdir):
    mm = Modules()
    plan = WORKLOADS[args.workload](
        mm, workdir, random.Random(f"{args.workload}:{args.seed}"), args.short)
    return mm, plan


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true", help="small sizes, for the smoke test")
    ap.add_argument("--setup-only", metavar="DIR", help="only set up, into DIR (for setup_s)")
    args = ap.parse_args(argv)

    if not (SRC / "mmrank" / "__init__.py").is_file():
        print(f"error: no mmrank package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        set_up(args, Path(args.setup_only))
        return 0
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = [m["name"] for m in listed["per_layer" if args.trace else "end_to_end"]]

    # One CPU for the whole run: the reference loop must run where the
    # measured work runs, and the cold set-ups inherit the pinning.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    cwd = os.getcwd()
    problems = []  # run-level failures besides failed ops
    try:
        setups = cold_setups(args, work)
        workdir = work / "run"
        workdir.mkdir()
        t0 = perf_counter()
        mm, plan = set_up(args, workdir)
        setup_in_process = perf_counter() - t0
        os.chdir(workdir)
        run = Run(mm, plan, Gate(mm, workdir, plan.targets), args.workload, args.seed)
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "short": args.short, "environment": environment(mm),
                  "setup_s_cold": setups, "setup_s_in_process": setup_in_process}

        fp_first = Fingerprint()
        timed, _, first_op = run.round(0, fp_first)
        if args.trace:
            warm = run.round(0)[1]
            run.tracer = spans.Tracer()
            record["traced_sites"] = spans.install(run.tracer, layers.targets(mm))
            fp_traced = Fingerprint()
            timed, traced, first_op = run.round(0, fp_traced)
            first_round = set(range(first_op, len(run.done)))
            if fp_traced.record() != fp_first.record():
                problems.append("the traced replay of round 0 differs from round 0")
            record["trace_overhead"] = traced / warm - 1
        i = 1
        while timed < args.seconds:
            timed += run.round(i)[0]
            i += 1
        record["rounds"] = i
        record["fingerprint"] = fp_first.record()

        metrics, record["tails"] = end_to_end(run, first_op, setups)
        if args.trace:
            metrics = layers.metrics(run.tracer, first_round, mm.flipgraph.HAVE_COMPILED)
            metrics["trace.overhead"] = (record["trace_overhead"], "ratio")
            run.tracer.write(OUT / f"SPANS_{args.workload}_seed{args.seed}.jsonl.gz")
        missing = [name for name in report if metrics.get(name, (None,))[0] is None]
        if missing:
            problems.append(f"metrics not measured: {missing}")
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)

    failures = run.failures
    record.update({"attempted": len(run.done), "failed": len(failures), "problems": problems,
                   "failures": failures[:20],
                   "ops": [[" ".join(d.argv), d.rc, d.seconds, d.ref_seconds]
                           for d in run.done],
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})
    (OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")

    for problem in failures[:20] + problems:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        beside = record["tails"].get(name)
        beside = f"  (p{beside['percentile']} of {beside['samples']})" if beside else ""
        print(f"{name:<40} {shown:>14} {unit}{beside}")
    correct = not failures and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(run.done),
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in report
                    if k in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
