"""The native kernel's loader and the benchmark script that compares backends."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mmrank.fields import F2, PrimeField, Q
from mmrank.flipgraph import HAVE_COMPILED, SearchConfig, _native, random_walk
from mmrank.flipgraph.engine import GenericKernel, SoundnessError, run_walk
from mmrank.flipgraph.walk import _to_kernel_terms
from mmrank.tensors import matmul_tensor, standard_decomposition

ROOT = Path(__file__).resolve().parent.parent
F3 = PrimeField(3)
PRINT_HAVE_COMPILED = "import mmrank.flipgraph as f; print(f.HAVE_COMPILED)"
needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no cc on PATH")


def child_env(cli_env, cache, **extra):
    env = {k: v for k, v in cli_env.items() if k != "MMRANK_NO_EXT"}
    env.update(XDG_CACHE_HOME=str(cache), **extra)
    return env


@needs_cc
def test_concurrent_first_imports_share_one_library(tmp_path, cli_env):
    env = child_env(cli_env, tmp_path / "cache")
    procs = [subprocess.Popen([sys.executable, "-c", PRINT_HAVE_COMPILED], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for _ in range(2)]
    outs = [p.communicate(timeout=300) for p in procs]
    for p, (out, err) in zip(procs, outs):
        assert p.returncode == 0, err
        assert out.strip() == "True", err
    built = sorted(p.name for p in (tmp_path / "cache" / "mmrank").iterdir())
    assert len(built) == 1 and built[0].startswith("walk-") and built[0].endswith(".so")


def test_no_ext_forces_pure_path(tmp_path, cli_env):
    env = child_env(cli_env, tmp_path / "cache", MMRANK_NO_EXT="1")
    proc = subprocess.run([sys.executable, "-c", PRINT_HAVE_COMPILED], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("compile_cmd", [
    (sys.executable, "-c", "import sys; sys.exit(1)"),  # the compiler fails
    ("/nonexistent/cc",),  # there is no compiler
], ids=["fails", "missing"])
def test_failed_build_means_pure_path(compile_cmd, tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_native, "COMPILE", compile_cmd)
    assert _native.load() is False
    assert list((tmp_path / "mmrank").iterdir()) == []  # no partial library left


def stale_libraries(cache):
    """Libraries as earlier versions of the source would have left them."""
    cache.mkdir(parents=True)
    stale = [cache / "walk-0000.so", cache / "walk-1111.so"]
    for path in stale:
        path.write_bytes(b"")
    return stale


@needs_cc
def test_build_prunes_libraries_of_earlier_sources(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    cache = tmp_path / "mmrank"
    stale = stale_libraries(cache)
    others = [cache / "walk-2222.tmp", cache / "notes.txt"]
    for path in others:
        path.write_bytes(b"")
    lib = _native._library(_native.SOURCE.read_bytes())
    assert sorted(cache.iterdir()) == sorted([lib, *others])
    # a cache hit builds nothing, so it prunes nothing
    stale[0].write_bytes(b"")
    assert _native._library(_native.SOURCE.read_bytes()) == lib
    assert sorted(cache.iterdir()) == sorted([lib, stale[0], *others])


def test_failed_build_prunes_nothing(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_native, "COMPILE", (sys.executable, "-c", "import sys; sys.exit(1)"))
    stale = stale_libraries(tmp_path / "mmrank")
    assert _native.load() is False
    assert sorted((tmp_path / "mmrank").iterdir()) == stale


SANITIZED_WALKS = """
import subprocess, sys
from mmrank.fields import F2, PrimeField
from mmrank.flipgraph import _native
from mmrank.flipgraph.walk import _kernel_for, _to_kernel_terms
from mmrank.tensors import matmul_tensor, standard_decomposition

_native.COMPILE += ("-fsanitize=undefined,bounds", "-fno-sanitize-recover=all")
try:
    _native._library(_native.SOURCE.read_bytes())
except (OSError, subprocess.SubprocessError) as exc:
    print("the sanitizer build failed:", exc, (getattr(exc, "stderr", None) or b"")[-300:])
    sys.exit(77)
if not _native.load():
    print("the sanitizer build did not load")
    sys.exit(77)
_native._first_cap = lambda n_terms: n_terms  # every walk outgrows its first state
for field in (F2, PrimeField(3)):
    for n in (3, 5):
        kernel = _kernel_for(field, n)
        terms = _to_kernel_terms(kernel, standard_decomposition(n, field))
        target = matmul_tensor(n, field).sparse()
        limits = dict(seed=n, max_steps=400, plus_budget=400, patience=3, verify_every=7,
                      collect_trace=True)
        out = _native.run_walk(kernel, terms, target, **limits)
        assert len(out.final_terms) > len(terms), "the state did not grow"
print("ok")
"""


@needs_cc
def test_kernel_runs_clean_under_ubsan(tmp_path, cli_env):
    # MMRANK_NO_EXT keeps the import from caching the plain build under the
    # same source hash; the script then builds and loads the sanitized one
    env = child_env(cli_env, tmp_path / "cache", MMRANK_NO_EXT="1")
    proc = subprocess.run([sys.executable, "-c", SANITIZED_WALKS], env=env,
                          capture_output=True, text=True, timeout=300)
    if proc.returncode == 77:
        pytest.skip(f"cc cannot build the kernel with UBSan: {proc.stdout.strip()}")
    assert "runtime error" not in proc.stderr, proc.stderr
    assert proc.returncode == 0 and proc.stdout.strip() == "ok", proc.stderr


def m3_f2():
    kernel = GenericKernel(F2, 3)
    start = _to_kernel_terms(kernel, standard_decomposition(3, F2))
    target = matmul_tensor(3, F2).sparse()
    return start, target, _native.target_words(kernel, target)


def test_traced_walk_matches_pure_engine(native):
    start, target, words = m3_f2()
    limits = dict(max_steps=3000, plus_budget=40, patience=100, verify_every=7)
    best, best_rank, steps, final, trace = _native.walk_f2(
        3, start, words, 6, *limits.values(), -1, True)
    pure = run_walk(GenericKernel(F2, 3), start, target, seed=6, collect_trace=True, **limits)
    assert trace == pure.trace
    assert all(type(rec) is tuple for rec in trace)
    assert (best_rank, steps) == (pure.best_rank, pure.steps)
    assert len(final) != best_rank  # the final state is not the best one
    assert (tuple(best), tuple(final)) == (pure.best_terms, pure.final_terms)
    assert _native.walk_f2(3, start, words, 6, *limits.values(), -1, False)[4] is None


def test_walk_outgrowing_its_first_capacity_grows_in_one_call(native, monkeypatch):
    start, target, words = m3_f2()
    limits = dict(max_steps=400, plus_budget=400, patience=0, verify_every=0)
    kernel, calls = _native._kernel, []

    def spy(*args):
        status = kernel(*args)
        calls.append((args[12], args[-1][4]))  # first capacity, final capacity
        return status

    monkeypatch.setattr(_native, "_kernel", spy)
    monkeypatch.setattr(_native, "_first_cap", lambda n_terms: n_terms)
    best, best_rank, steps, final, trace = _native.walk_f2(
        3, start, words, 2, *limits.values(), -1, True)
    assert len(calls) == 1  # one kernel call, whatever the growth
    (first_cap, final_cap), = calls
    # the kernel doubles its state only when a plus move finds all 27 slots live
    assert first_cap == 27 and final_cap >= 54
    pure = run_walk(GenericKernel(F2, 3), start, target, seed=2, collect_trace=True, **limits)
    assert trace == pure.trace
    assert (best_rank, steps, tuple(best), tuple(final)) == (
        pure.best_rank, pure.steps, pure.best_terms, pure.final_terms)


@pytest.mark.parametrize("verify_every", [0, 1])
def test_native_walk_reports_unsound_state(native, verify_every):
    start, _target, words = m3_f2()
    words[0] ^= 1  # the start no longer expands to this target
    with pytest.raises(SoundnessError):
        _native.walk_f2(3, start, words, 1, 100, 0, 10, verify_every, -1, False)


def test_native_walk_rejects_bad_arguments(native):
    start, _target, words = m3_f2()
    with pytest.raises(ValueError, match="rejected"):
        _native.walk_f2(3, start, words[:-1], 1, 100, 0, 10, 0, -1, False)
    one = (1,) + (0,) * 8
    with pytest.raises(ValueError, match="rejected"):  # an entry outside 0..1
        _native.walk_f2(3, [((2,) + (0,) * 8, one, one)] + start, words,
                        1, 100, 0, 10, 0, -1, False)
    for value in (2**63, 2**64 + 40):  # ctypes would wrap these
        for at in range(5):  # max_steps, plus_budget, patience, verify_every, target_rank
            limits = [100, 0, 10, 0, -1]
            limits[at] = value
            with pytest.raises(ValueError, match="does not fit in int64"):
                _native.walk_f2(3, start, words, 1, *limits, False)


def m2_f3():
    kernel = GenericKernel(F3, 2)
    start = _to_kernel_terms(kernel, standard_decomposition(2, F3))
    return start, _native.target_words(kernel, matmul_tensor(2, F3).sparse())


@pytest.mark.parametrize("verify_every", [0, 1])
def test_native_f3_walk_reports_unsound_state(native, verify_every):
    start, words = m2_f3()
    words[0] ^= 1  # the start no longer expands to this target
    with pytest.raises(SoundnessError):
        _native.walk_f3(2, start, words, 1, 100, 0, 10, verify_every, -1, False)


def test_native_f3_walk_rejects_bad_arguments(native):
    start, words = m2_f3()
    with pytest.raises(ValueError, match="rejected"):  # one plane short
        _native.walk_f3(2, start, words[:-1], 1, 100, 0, 10, 0, -1, False)
    with pytest.raises(ValueError, match="rejected"):  # an entry outside 0..2
        _native.walk_f3(2, [((3, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0))] + start, words,
                        1, 100, 0, 10, 0, -1, False)
    with pytest.raises(ValueError, match="rejected"):  # a key of 3**36 would not fit
        _native.walk_f3(7, [], [0] * (2 * ((7**6 + 63) // 64)), 1, 100, 0, 10, 0, -1, False)


def spy_kernel(monkeypatch):
    calls = []
    kernel = _native._kernel

    def spy(*args):
        calls.append(args[0])  # the field's p
        return kernel(*args)

    monkeypatch.setattr(_native, "_kernel", spy)
    return calls


def test_f3_walks_up_to_side_6_run_on_the_kernel(native, monkeypatch):
    calls = spy_kernel(monkeypatch)
    cfg = SearchConfig(seed=1, max_steps=50, plus_budget=5)
    for n in (2, 3):
        random_walk(matmul_tensor(n, F3), standard_decomposition(n, F3), cfg)
    random_walk(matmul_tensor(2, F2), standard_decomposition(2, F2), cfg)
    assert calls == [3, 3, 2]
    assert _native.handles(GenericKernel(F3, 6))


def test_other_fields_and_sides_keep_the_pure_engine(native, monkeypatch):
    calls = spy_kernel(monkeypatch)
    cfg = SearchConfig(seed=1, max_steps=50, plus_budget=5)
    for field in (PrimeField(5), Q):
        random_walk(matmul_tensor(2, field), standard_decomposition(2, field), cfg)
    assert calls == []
    # tensors stop at side 6, so only the kernel choice can be asked about side 7
    assert not _native.handles(GenericKernel(F3, 7))
    assert not _native.handles(GenericKernel(PrimeField(5), 2))
    assert _native.handles(GenericKernel(F2, 2))  # F2 walks on the kernel


def test_no_ext_walks_f3_without_the_kernel(tmp_path, cli_env):
    script = (
        "from mmrank.fields import PrimeField\n"
        "from mmrank.flipgraph import SearchConfig, _native, random_walk\n"
        "from mmrank.tensors import matmul_tensor, standard_decomposition\n"
        "def refuse(*args):\n"
        "    raise AssertionError('the native kernel was called')\n"
        "_native._kernel = refuse\n"
        "F3 = PrimeField(3)\n"
        "res = random_walk(matmul_tensor(2, F3), standard_decomposition(2, F3),\n"
        "                  SearchConfig(seed=1, max_steps=50, plus_budget=5))\n"
        "print(res.steps)\n")
    env = child_env(cli_env, tmp_path / "cache", MMRANK_NO_EXT="1")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "50"


def test_compare_backends_script_runs(cli_env):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "compare_backends.py"), "--steps", "2000"],
        env=cli_env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    for field in ("F2", "F3"):
        for n in (2, 3, 4, 5):
            assert f"walk on the {n}x{n} multiplication tensor over {field}" in proc.stdout
    confirmed = proc.stdout.count("identical trajectories confirmed")
    assert confirmed == (8 if HAVE_COMPILED else 0), proc.stdout
    assert proc.stdout.count("deterministic: both runs gave the same result") == 3, proc.stdout
