"""Running one operation in process, and the correctness gate.

An operation is one call of ``mmrank.cli.main(argv)`` with stdout and
stderr captured; only that call is timed.  :class:`Gate` then checks the
exit code and output against what the workload expects, re-verifies every
file the operation wrote with the untraced ``tensors.verify``, and feeds
(argv, exit code, rank, steps, output-file bytes) into the workload's
trajectory fingerprint.

:func:`reference_loop` measures how fast the host runs Python right now.
On a 2-vCPU virtual machine shared with other jobs, the same operation
took anywhere from 1x to 2x its best time, in phases from seconds to
many minutes long, and every kind of operation slowed alike.  Scaling
each measured time by ``REF_LOOP_S / (time of the reference loop next
to it)`` cancels that drift: over 30-second windows the quartile spread
of fixed operations fell from about 0.28 of the median to 0.02-0.06.
Scaled times are in reference seconds, the seconds of a host that runs
the loop in ``REF_LOOP_S``.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

REF_LOOP_S = 0.025  # the reference loop's time on the reference host


def reference_loop() -> float:
    """Seconds a fixed pure-Python loop takes now; it calls no mmrank code.

    The loop mixes what mmrank's inner loops do: integer bit operations,
    list indexing, dict updates and ``Fraction`` arithmetic.
    """
    t0 = perf_counter()
    xs = list(range(1, 257))
    counts: dict[int, int] = {}
    acc, frac = 0, Fraction(0)
    for i in range(50_000):
        a, b = xs[i & 255], xs[(i * 7) & 255]
        acc ^= ((a & b) + (a | b)) >> 1
        counts[a] = counts.get(a, 0) + b
        if i & 15 == 0:
            frac += Fraction(a, b)
    return perf_counter() - t0


@dataclass
class OpResult:
    rc: int | None
    seconds: float
    stdout: str
    error: str | None = None  # traceback of an exception main() let out


def run_op(cli, argv) -> OpResult:
    out, err = io.StringIO(), io.StringIO()
    error = None
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is one failed op; the run goes on
            rc, error = None, traceback.format_exc()
        seconds = perf_counter() - t0
    return OpResult(rc, seconds, out.getvalue(), error)


@dataclass
class Checked:
    ok: bool
    reason: str | None
    rank: int | None = None
    steps: int | None = None


class Fingerprint:
    """Digest over (argv, exit code, rank, steps, output-file bytes)."""

    def __init__(self):
        self._h = hashlib.sha256()
        self.ops = 0
        self.steps = 0

    def add(self, argv, rc, checked: Checked, file_bytes: bytes | None):
        record = [list(argv), rc, checked.rank, checked.steps]
        self._h.update(json.dumps(record).encode())
        self._h.update(hashlib.sha256(file_bytes or b"").digest())
        self.ops += 1
        self.steps += checked.steps or 0

    def record(self) -> dict:
        return {"sha256": self._h.hexdigest(), "ops": self.ops, "steps": self.steps}


class Gate:
    """Checks each operation; holds untraced library functions for that."""

    def __init__(self, mm, workdir: Path, targets: dict):
        self.read = mm.fileformat.read_decomposition_file
        self.verify = mm.tensors.verify
        self.flatten = mm.symmetry.flatten
        self.symmetric_type = mm.symmetry.SymmetricDecomposition
        self.workdir = workdir
        self.targets = targets

    def _reverify(self, name, n, field):
        """Rank of a written file, or raise if it does not verify."""
        dec = self.read(self.workdir / name)
        if dec.n != n or dec.field.name != field:
            raise ValueError(f"{name}: expected m{n} over {field}")
        plain = self.flatten(dec) if isinstance(dec, self.symmetric_type) else dec
        res = self.verify(plain, self.targets[n, field])
        if not res.ok:
            raise ValueError(f"{name}: written file fails verification")
        return dec.rank_bound

    def check(self, op, res: OpResult) -> tuple[Checked, bytes | None]:
        if res.error is not None:
            return Checked(False, res.error.strip().splitlines()[-1]), None
        try:
            checked = getattr(self, "_" + op.kind.replace("-", "_"))(op.expect, res)
        except (ValueError, KeyError, IndexError, OSError) as exc:
            return Checked(False, f"{type(exc).__name__}: {exc}"), None
        out = op.expect.get("out")
        data = (self.workdir / out).read_bytes() if checked.ok and out else None
        return checked, data

    @staticmethod
    def _json_line(res):
        return json.loads(res.stdout.strip().splitlines()[-1])

    def _search(self, e, res):
        target = e["target_rank"]
        if res.rc not in ((0, 3) if target is not None else (0,)):
            return Checked(False, f"exit {res.rc}")
        summary = self._json_line(res)
        rank, steps = summary["rank"], summary["steps"]
        if summary["file"] != e["out"] or not 1 <= steps <= e["max_steps"]:
            return Checked(False, f"bad summary {summary}")
        reached = None if target is None else rank <= target
        if target is not None and reached != (res.rc == 0):
            return Checked(False, f"exit {res.rc} with rank {rank}, target {target}")
        if self._reverify(e["out"], e["n"], e["field"]) != rank:
            return Checked(False, f"file rank differs from reported rank {rank}")
        return Checked(True, None, rank, steps)

    def _verify(self, e, res):
        lines = res.stdout.splitlines()
        if res.rc != e["rc"] or lines != e["lines"]:
            return Checked(False, f"exit {res.rc}, output {lines[:3]}")
        m = re.match(r"(?:VERIFIED rank<=|MISMATCH rank-bound )(\d+)", lines[0])
        return Checked(True, None, int(m.group(1)))

    def _replay_proof(self, e, res):
        lines = res.stdout.splitlines()
        if res.rc != 0 or "chain PASS" not in lines or not any(
                ln.startswith("final PASS  rank<=7") for ln in lines):
            return Checked(False, f"exit {res.rc}, output {lines[-3:]}")
        rank = self._reverify(e["out"], 2, e["field"])
        return Checked(rank == 7, None if rank == 7 else f"rank {rank}", rank)

    def _compile(self, e, res):
        want = {"field": e["field"], "n": e["n"], "products": e["products"]}
        if res.rc != 0 or self._json_line(res) != want:
            return Checked(False, f"exit {res.rc}, output {res.stdout[-200:]!r}")
        return Checked(True, None, e["products"])

    def _bench(self, e, res):
        r, n, d = e["products"], e["n"], e["depth"]
        if res.rc != 0:
            return Checked(False, f"exit {res.rc}")
        got = self._json_line(res)
        want = {"depth": d, "field": e["field"], "n": n, "products": r,
                "multiplications": r**d, "naive_multiplications": n ** (3 * d)}
        if any(got.get(k) != v for k, v in want.items()):
            return Checked(False, f"bench output {got}")
        return Checked(True, None, r)

