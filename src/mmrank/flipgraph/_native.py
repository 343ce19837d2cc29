"""Loader of the native packed-F2 walk kernel in ``_walk.c``.

:func:`load` builds the kernel with the system ``cc`` on a cache miss and
binds it with ``ctypes``.  The library is cached per user as
``$XDG_CACHE_HOME/mmrank/walk-<sha256 of the source>.so`` (default
``~/.cache/mmrank``), outside any checkout.  A build goes to a temporary
file in that directory and is renamed into place, so concurrent processes
and pool workers never load a partial library; a successful build then
deletes the libraries built from other versions of the source.  Any
failure leaves the kernel unloaded and the pure engine in charge.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

from .engine import SoundnessError

SOURCE = Path(__file__).with_name("_walk.c")
COMPILE = ("cc", "-O2", "-std=c99", "-shared", "-fPIC")
_TRACE_KINDS = (("flip", 4), ("reduce", 3), ("plus", 2))  # name, fields after it
_OK, _UNSOUND, _NO_MEMORY, _FULL = 0, 1, 3, 4  # mmrank_walk_f2 status codes
_U64, _I64 = ctypes.c_uint64, ctypes.c_int64
_U64P = ctypes.POINTER(_U64)

_kernel = None  # mmrank_walk_f2, once load() succeeded


def _library(source: bytes) -> Path:
    """The cached library built from ``source``, compiling it on a miss."""
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    lib = Path(cache) / "mmrank" / f"walk-{hashlib.sha256(source).hexdigest()}.so"
    if lib.exists():
        return lib
    lib.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix="walk-", suffix=".tmp", dir=lib.parent)
    os.close(fd)
    try:
        subprocess.run([*COMPILE, "-x", "c", "-", "-o", tmp], input=source,
                       capture_output=True, check=True, timeout=300)
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    for stale in lib.parent.glob("walk-*.so"):  # built from earlier sources
        if stale != lib:
            stale.unlink(missing_ok=True)
    return lib


def load() -> bool:
    """Build if needed and bind the kernel; False, never an exception, on failure."""
    global _kernel
    try:
        fn = ctypes.CDLL(str(_library(SOURCE.read_bytes()))).mmrank_walk_f2
    except (OSError, AttributeError, subprocess.SubprocessError):
        return False
    fn.argtypes = [ctypes.c_int32, _U64P, _I64, _U64P, _I64, _U64, _I64, _I64, _I64, _I64,
                   _I64, _I64, _U64P, _U64P, ctypes.POINTER(ctypes.c_int32), _I64,
                   ctypes.POINTER(_I64)]
    fn.restype = ctypes.c_int
    _kernel = fn
    return True


def _first_cap(n_terms):
    """Term capacity of a walk's first run: the live terms stay near the start rank."""
    return 2 * n_terms + 64


def _triples(buf, count):
    flat = buf[:3 * count]
    return list(zip(flat[0::3], flat[1::3], flat[2::3]))


def walk_f2(n, terms, target_words, seed, max_steps, plus_budget, patience,
            verify_every, target_rank, collect_trace):
    """Packed-F2 walk; see mmrank.flipgraph.engine for the contract.

    Returns ``(best, best_rank, steps, final, trace)`` with terms as
    ``(u, v, w)`` mask triples.  ``target_rank`` -1 means none; ``trace``
    is None unless ``collect_trace``.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    flat = (_U64 * (3 * len(terms)))(*(f for term in terms for f in term))
    target = (_U64 * len(target_words))(*target_words)
    # Only a plus move adds a term, and it costs a step, so the live terms
    # never exceed `bound`; each reduction removes a term, so a trace holds
    # at most max_steps + bound records.  The term buffers start smaller
    # and grow when a walk reports them full; a rerun repeats the same
    # trajectory.  Sized from `bound` alone, they would take gigabytes at
    # budgets of 10**9.
    bound = len(terms) + min(plus_budget, max_steps)
    cap = min(bound, _first_cap(len(terms)))
    trace_cap = max_steps + bound if collect_trace else 0
    trace = (ctypes.c_int32 * (5 * trace_cap))() if collect_trace else None
    best, counts = (_U64 * (3 * len(terms)))(), (_I64 * 4)()
    while True:
        final = (_U64 * (3 * cap))()
        status = _kernel(n, flat, len(terms), target, len(target_words), seed, max_steps,
                         plus_budget, patience, verify_every, target_rank, cap,
                         best, final, trace, trace_cap, counts)
        if status != _FULL or cap == bound:
            break
        cap = min(bound, 2 * cap)
    if status == _UNSOUND:
        raise SoundnessError("walk state no longer expands to the target")
    if status == _NO_MEMORY:
        raise MemoryError("native walk could not allocate its state")
    if status != _OK:
        raise ValueError("native walk rejected its arguments")
    best_rank, steps, final_count, trace_len = counts
    records = None
    if collect_trace:
        rows = trace[:5 * trace_len]
        records = []
        for r in range(0, len(rows), 5):
            name, width = _TRACE_KINDS[rows[r]]
            records.append((name, *rows[r + 1:r + 1 + width]))
    return _triples(best, best_rank), best_rank, steps, _triples(final, final_count), records
