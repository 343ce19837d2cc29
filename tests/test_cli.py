import json
import os
import subprocess
import sys

import pytest

from mmrank import cli
from mmrank.cli import main, parse_factor, parse_term_spec
from mmrank.fields import Q
from mmrank.fileformat import read_decomposition_file, write_decomposition_file
from mmrank.flipgraph import walk
from mmrank.proof import rank7_symmetric_form
from mmrank.symmetry import SymmetricDecomposition, flatten
from mmrank.tensors import Decomposition, Matrix


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


# -- term specs ------------------------------------------------------------------


def test_parse_factor():
    m = parse_factor("e01-e00", Q, 2)
    assert m == Matrix.from_rows(Q, [[-1, 1], [0, 0]])
    assert parse_factor("2e11", Q, 2) == Matrix.from_rows(Q, [[0, 0], [0, 2]])
    assert parse_factor("1/2e00+e11", Q, 2) == Matrix.from_rows(Q, [["1/2", 0], [0, 1]])
    with pytest.raises(ValueError):
        parse_factor("e22", Q, 2)
    with pytest.raises(ValueError):
        parse_factor("bogus", Q, 2)
    with pytest.raises(ValueError):
        parse_term_spec("e00,e01", Q, 2)


# -- replay-proof ------------------------------------------------------------------


def test_replay_proof_q(tmp_path, capsys):
    out_file = tmp_path / "final.txt"
    code, out, _ = run_cli(["replay-proof", "--field", "Q", "--out", str(out_file)], capsys)
    assert code == 0
    assert out.count("PASS") == 8  # six steps + chain + final
    assert "FAIL" not in out
    dec = read_decomposition_file(out_file)
    assert isinstance(dec, SymmetricDecomposition)
    assert dec.rank_bound == 7
    assert len(dec.orbit_terms) == 2


@pytest.mark.parametrize("field", ["F2", "F3", "F101"])
def test_replay_proof_other_fields(field, tmp_path, capsys):
    code, out, _ = run_cli(
        ["replay-proof", "--field", field, "--out", str(tmp_path / "f.txt")], capsys
    )
    assert code == 0
    assert "FAIL" not in out


def test_replay_proof_rejects_composite_field(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(["replay-proof", "--field", "F4"], capsys)
    assert code == 2
    assert "not prime" in err


# -- verify -------------------------------------------------------------------------


def test_verify_ok_and_mismatch(tmp_path, capsys):
    good = tmp_path / "good.txt"
    write_decomposition_file(good, flatten(rank7_symmetric_form(Q)))
    code, out, _ = run_cli(["verify", str(good)], capsys)
    assert code == 0 and "VERIFIED rank<=7" in out

    code, out, _ = run_cli(["verify", str(good), "--target", "m2"], capsys)
    assert code == 0

    code, _, err = run_cli(["verify", str(good), "--target", "m3"], capsys)
    assert code == 2

    dec = read_decomposition_file(good)
    bad = tmp_path / "bad.txt"
    write_decomposition_file(bad, Decomposition(dec.n, dec.field, dec.terms[:-1]))
    code, out, _ = run_cli(["verify", str(bad)], capsys)
    assert code == 1
    assert "MISMATCH" in out and "at ((" in out


def test_verify_parse_error(tmp_path, capsys):
    p = tmp_path / "junk.txt"
    p.write_text("not a decomposition\n")
    code, _, err = run_cli(["verify", str(p)], capsys)
    assert code == 2


def test_verify_symmetric_file(tmp_path, capsys):
    p = tmp_path / "sym.txt"
    write_decomposition_file(p, rank7_symmetric_form(Q))
    code, out, _ = run_cli(["verify", str(p)], capsys)
    assert code == 0 and "VERIFIED rank<=7" in out


# -- search --------------------------------------------------------------------------


def test_search_deterministic_outputs(tmp_path, capsys):
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    args = ["search", "--n", "2", "--field", "F2", "--seed", "1",
            "--max-steps", "50000", "--plus-budget", "10"]
    code1, stdout1, _ = run_cli(args + ["--out", str(out1)], capsys)
    code2, stdout2, _ = run_cli(args + ["--out", str(out2)], capsys)
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    s1 = json.loads(stdout1.strip().splitlines()[-1])
    s2 = json.loads(stdout2.strip().splitlines()[-1])
    assert {k: s1[k] for k in ("rank", "seed", "steps")} == {
        k: s2[k] for k in ("rank", "seed", "steps")
    }
    assert s1["rank"] <= 7

    code, out, _ = run_cli(["verify", str(out1)], capsys)
    assert code == 0


def test_search_n1(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(["search", "--n", "1", "--seed", "2", "--max-steps", "10"], capsys)
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1])["rank"] == 1


def test_search_target_rank_exit_codes(tmp_path, capsys):
    args = ["search", "--n", "2", "--field", "F2", "--seed", "1", "--plus-budget", "5"]
    code, _, _ = run_cli(args + ["--max-steps", "100000", "--target-rank", "7",
                                 "--out", str(tmp_path / "t7.txt")], capsys)
    assert code == 0
    code, _, _ = run_cli(args + ["--max-steps", "5", "--target-rank", "3",
                                 "--out", str(tmp_path / "t3.txt")], capsys)
    assert code == 3


def test_search_restarts_and_workers_flags(tmp_path, capsys):
    args = ["search", "--n", "2", "--field", "F2", "--seed", "30",
            "--max-steps", "1500", "--plus-budget", "3", "--restarts", "3"]
    code1, out1, _ = run_cli(args + ["--workers", "1", "--out", str(tmp_path / "w1.txt")], capsys)
    code2, out2, _ = run_cli(args + ["--workers", "3", "--out", str(tmp_path / "w3.txt")], capsys)
    assert code1 == code2 == 0
    assert (tmp_path / "w1.txt").read_bytes() == (tmp_path / "w3.txt").read_bytes()
    s1 = json.loads(out1.strip().splitlines()[-1])
    s2 = json.loads(out2.strip().splitlines()[-1])
    assert {k: s1[k] for k in ("rank", "seed", "steps")} == {
        k: s2[k] for k in ("rank", "seed", "steps")
    }


def test_symmetric_search_result_does_not_depend_on_workers(tmp_path, capsys, monkeypatch):
    pools = []

    class RecordingPool(walk.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(walk, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(walk.os, "cpu_count", lambda: 2)  # the pool never exceeds the CPUs
    # restarts 0-2 (seeds 44-46) stay at rank 13; restarts 3 and 4 reach 7,
    # and the tie goes to the earlier restart
    args = ["search", "--symmetric", "--field", "F3", "--seed", "44", "--max-steps", "30",
            "--plus-budget", "2", "--patience", "5", "--restarts", "5"]
    runs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.txt"
        code, stdout, _ = run_cli(args + ["--workers", workers, "--out", str(out)], capsys)
        assert code == 0
        summary = json.loads(stdout.strip().splitlines()[-1])
        runs.append(({k: summary[k] for k in ("rank", "seed", "steps")}, out.read_bytes()))
    assert pools == [2]  # --workers 2 ran the restarts on a pool
    assert runs[0] == runs[1]
    assert runs[0][0] == {"rank": 7, "seed": 47, "steps": 17}


def test_search_from_start_file(tmp_path, capsys):
    start = tmp_path / "start.txt"
    write_decomposition_file(start, flatten(rank7_symmetric_form(Q)))
    code, out, _ = run_cli(
        ["search", "--start", str(start), "--seed", "4", "--max-steps", "200",
         "--out", str(tmp_path / "res.txt")],
        capsys,
    )
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1])["rank"] <= 7

    # conflicting flags are usage errors
    code, _, _ = run_cli(
        ["search", "--start", str(start), "--n", "3",
         "--out", str(tmp_path / "x.txt")], capsys)
    assert code == 2
    code, _, _ = run_cli(
        ["search", "--start", str(start), "--symmetric",
         "--out", str(tmp_path / "y.txt")], capsys)
    assert code == 2


@pytest.mark.parametrize("symmetric", [False, True], ids=["plain", "symmetric"])
def test_search_start_missing_its_target_is_a_mismatch(symmetric, tmp_path, capsys, monkeypatch):
    pools = []

    class StubPool:  # records the pool size and starts no process
        def __init__(self, max_workers):
            pools.append(max_workers)

    monkeypatch.setattr(walk, "ProcessPoolExecutor", StubPool)
    monkeypatch.setattr(walk.os, "cpu_count", lambda: 2)
    monkeypatch.chdir(tmp_path)
    sym = rank7_symmetric_form(Q)
    if symmetric:
        bad = SymmetricDecomposition(sym.n, sym.field, sym.orbit_terms[:-1])
    else:
        plain = flatten(sym)
        bad = Decomposition(plain.n, plain.field, plain.terms[:-1])
    write_decomposition_file(tmp_path / "bad.txt", bad)
    _, verify_out, _ = run_cli(["verify", "bad.txt"], capsys)
    assert verify_out.startswith("MISMATCH rank-bound ")
    argv = ["search", "--start", "bad.txt", "--max-steps", "100", "--restarts", "2",
            "--workers", "2", *(["--symmetric"] if symmetric else [])]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == verify_out and err == ""
    assert pools == []  # refused before any walk or pool
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.txt"]  # no search output


def test_search_symmetric_from_start_file(tmp_path, capsys):
    from mmrank.proof import naive_symmetric_form
    from mmrank.fields import F2 as f2

    start = tmp_path / "start13.txt"
    write_decomposition_file(start, naive_symmetric_form(f2))
    code, stdout, _ = run_cli(
        ["search", "--symmetric", "--start", str(start), "--seed", "3",
         "--max-steps", "10000", "--plus-budget", "5", "--target-rank", "7",
         "--out", str(tmp_path / "out13.txt")],
        capsys,
    )
    assert code == 0
    assert json.loads(stdout.strip().splitlines()[-1])["rank"] == 7


def test_search_symmetric(tmp_path, capsys):
    out = tmp_path / "sym.txt"
    code, stdout, _ = run_cli(
        ["search", "--symmetric", "--field", "F2", "--seed", "2",
         "--max-steps", "20000", "--plus-budget", "5", "--target-rank", "7",
         "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert json.loads(stdout.strip().splitlines()[-1])["rank"] == 7
    dec = read_decomposition_file(out)
    assert isinstance(dec, SymmetricDecomposition)
    code, stdout, _ = run_cli(["verify", str(out)], capsys)
    assert code == 0

    code, _, _ = run_cli(["search", "--symmetric", "--n", "3",
                          "--out", str(tmp_path / "z.txt")], capsys)
    assert code == 2  # no default symmetric start beyond n=2


# -- orbit ----------------------------------------------------------------------------


def test_orbit_command(capsys):
    code, out, _ = run_cli(["orbit", "e10,e01,e11"], capsys)
    assert code == 0
    assert "orbit size: 6" in out
    assert "stabilizer (order 1)" in out

    code, out, _ = run_cli(["orbit", "e00+e11,e00+e11,e00+e11"], capsys)
    assert "orbit size: 1" in out and "order 6" in out

    code, out, _ = run_cli(["orbit", "e00,e00,e00"], capsys)
    assert "orbit size: 2" in out and "order 3" in out

    code, _, _ = run_cli(["orbit", "e00,e00"], capsys)
    assert code == 2


def test_orbit_from_file(tmp_path, capsys):
    p = tmp_path / "d.txt"
    write_decomposition_file(p, flatten(rank7_symmetric_form(Q)))
    code, out, _ = run_cli(["orbit", "--from-file", str(p), "--term", "0"], capsys)
    assert code == 0 and "orbit size: 1" in out
    code, _, _ = run_cli(["orbit", "--from-file", str(p), "--term", "99"], capsys)
    assert code == 2


# -- compile / bench ---------------------------------------------------------------------


def test_compile_and_bench(tmp_path, capsys):
    p = tmp_path / "seven.txt"
    write_decomposition_file(p, flatten(rank7_symmetric_form(Q)))
    code, out, _ = run_cli(["compile", str(p)], capsys)
    assert code == 0
    assert "products: 7" in out and "oracle check: OK" in out

    code, out, err = run_cli(["bench", str(p), "--depth", "3"], capsys)
    assert code == 0
    assert "mults: 343 (naive-recursive: 512)" in out
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["multiplications"] == 343
    assert summary["naive_multiplications"] == 512
    assert "timings" in err

    bad = tmp_path / "bad.txt"
    dec = read_decomposition_file(p)
    write_decomposition_file(bad, Decomposition(dec.n, dec.field, dec.terms[:-1]))
    code, _, _ = run_cli(["compile", str(bad)], capsys)
    assert code == 1
    code, _, _ = run_cli(["bench", str(bad), "--depth", "1"], capsys)
    assert code == 1


# -- out-of-range arguments ---------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["search", "--max-steps", "0"],
    ["search", "--restarts", "0"],
    ["search", "--n", "0"],
    ["search", "--n", "7"],
    ["search", "--workers", "0"],
    ["search", "--patience", "-1"],
    ["search", "--target-rank", "-1"],
    ["search", "--seed", "-1"],
    ["search", "--seed", str(2**64)],
    *(["search", f"--{flag}", str(value)]
      for flag in ("max-steps", "plus-budget", "patience", "target-rank")
      for value in (2**63, 2**64 + 40)),
    ["search", "--restarts", "100001"],
    ["bench", "SEVEN", "--depth", "-1"],
    ["bench", "SEVEN", "--depth", "9"],  # side 2**9 = 512
], ids=" ".join)
def test_out_of_range_argument_is_usage_error(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_decomposition_file(tmp_path / "seven.txt", flatten(rank7_symmetric_form(Q)))
    argv = ["seven.txt" if a == "SEVEN" else a for a in argv]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith("error: ")
    assert out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["seven.txt"]  # no search output


@pytest.mark.parametrize("side", [0, 7])
@pytest.mark.parametrize("command", [
    ["verify"], ["compile"], ["bench", "--depth", "1"], ["search", "--start"],
], ids=lambda c: c[0])
def test_header_side_out_of_range_is_usage_error(command, side, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.txt").write_text(f"version 1\nfield F2\nn {side}\nmode plain\n")
    code, out, err = run_cli([*command, "bad.txt"], capsys)
    assert code == 2
    assert err.startswith("error: line 3: ") and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["search", "--max-steps", "10"],
    ["replay-proof", "--field", "F2"],
], ids=lambda a: a[0])
def test_unwritable_out_is_usage_error(argv, tmp_path, capsys):
    missing = tmp_path / "missing" / "x.txt"
    code, _out, err = run_cli([*argv, "--out", str(missing)], capsys)
    assert code == 2
    assert err.startswith(f"error: cannot write {missing}") and "Traceback" not in err
    assert not missing.parent.exists()


def test_unwritable_out_fails_before_the_walk(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("search ran although --out cannot be written")

    monkeypatch.setattr(cli, "search", refuse)
    monkeypatch.chdir(tmp_path)
    out = "/nonexistent/dir/a.txt"
    code, _out, err = run_cli(["search", "--max-steps", "1000000000", "--out", out], capsys)
    assert code == 2
    assert err.startswith(f"error: cannot write {out}") and "Traceback" not in err
    assert not os.path.lexists(out) and list(tmp_path.iterdir()) == []


def test_writable_out_check_leaves_files_as_they_were(tmp_path):
    fresh, kept = tmp_path / "fresh.txt", tmp_path / "kept.txt"
    kept.write_text("old contents\n")
    assert cli._unwritable(str(fresh)) is None and not fresh.exists()
    assert cli._unwritable(str(kept)) is None and kept.read_text() == "old contents\n"
    assert cli._unwritable(str(tmp_path)) is not None  # a directory


def test_main_builds_its_parser_once_and_answers_as_before(tmp_path, capsys, monkeypatch):
    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    dec = flatten(rank7_symmetric_form(Q))
    write_decomposition_file(good, dec)
    write_decomposition_file(bad, Decomposition(dec.n, dec.field, dec.terms[:-1]))
    argvs = [
        ["verify", str(good)],
        ["verify", str(bad)],
        ["compile", str(bad)],
        ["search", "--n", "2", "--field", "F3", "--max-steps", "300",
         "--out", str(tmp_path / "s.txt")],
        ["search", "--symmetric", "--max-steps", "50", "--target-rank", "1",
         "--out", str(tmp_path / "sym.txt")],
        ["search", "--n", "7"],
        ["verify"],  # argparse's own usage error
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    fresh = []
    for argv in argvs:  # a new parser for every call, as main once did
        cli._parser.cache_clear()
        fresh.append(run(argv))
    assert [r[0] for r in fresh] == [0, 1, 1, 0, 3, 2, 2]
    assert "MISMATCH rank-bound 6\n  at ((" in fresh[1][1] and fresh[2][1] == fresh[1][1]
    cli._parser.cache_clear()
    built.clear()
    assert [run(argv) for argv in argvs] == fresh
    assert [run(argv) for argv in argvs] == fresh
    assert len(built) == 1


# -- process-level smoke -----------------------------------------------------------------


def test_module_entry_point(tmp_path, cli_env):
    proc = subprocess.run(
        [sys.executable, "-m", "mmrank", "replay-proof", "--field", "F2"],
        cwd=tmp_path,
        env=cli_env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "final PASS" in proc.stdout

    proc = subprocess.run(
        [sys.executable, "-m", "mmrank", "verify", str(tmp_path / "rank7_F2.txt")],
        cwd=tmp_path,
        env=cli_env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "VERIFIED rank<=7" in proc.stdout


def test_usage_error_exit_code(tmp_path, cli_env):
    proc = subprocess.run(
        [sys.executable, "-m", "mmrank", "no-such-command"],
        cwd=tmp_path,
        env=cli_env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2, proc.stderr
