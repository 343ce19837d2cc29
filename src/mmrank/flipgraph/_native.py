"""Loader and caller of the native walk kernel in ``_walk.c``, over F2 and F3.

:func:`run_walk` is :func:`engine.run_walk` on the kernel, for the
engine kernels :func:`handles` accepts (F2 and F3 up to side 6);
:func:`walk_f2` and :func:`walk_f3` take the target as words.  A factor
over F_p crosses into C as its key sum x_i p**i.

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
from functools import partial
from pathlib import Path

from ..fields import F2, PrimeField
from ..tensors import pack_bits
from . import packing
from .engine import GenericKernel, SoundnessError, WalkOutcome

SOURCE = Path(__file__).with_name("_walk.c")
COMPILE = ("cc", "-O2", "-std=c99", "-shared", "-fPIC")
_TRACE_KINDS = (("flip", 4), ("reduce", 3), ("plus", 2))  # name, fields after it
_OK, _UNSOUND, _NO_MEMORY = 0, 1, 3  # mmrank_walk status codes
_U64, _I64 = ctypes.c_uint64, ctypes.c_int64
_U64P = ctypes.POINTER(_U64)

F3 = PrimeField(3)
_DIGITS = b"012".ljust(256, b"x")  # entry byte -> digit; "x" is no digit in base 2 or 3

_kernel = _free = None  # mmrank_walk and mmrank_free, once load() succeeded


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
    global _kernel, _free
    try:
        lib = ctypes.CDLL(str(_library(SOURCE.read_bytes())))
        fn, free = lib.mmrank_walk, lib.mmrank_free
    except (OSError, AttributeError, subprocess.SubprocessError):
        return False
    fn.argtypes = [ctypes.c_int32, ctypes.c_int32, _U64P, _I64, _U64P, _I64, _U64, _I64, _I64,
                   _I64, _I64, _I64, _I64, _U64P, ctypes.POINTER(_U64P),
                   ctypes.POINTER(ctypes.c_int32), _I64, ctypes.POINTER(_I64)]
    fn.restype = ctypes.c_int
    free.argtypes, free.restype = [_U64P], None
    _kernel, _free = fn, free
    return True


def handles(kernel) -> bool:
    """Whether the kernel walks for this engine kernel: F2 or F3, up to side 6.

    A factor's key sum x_i p**i is below 3**36 < 2**63 only while n <= 6.
    """
    return kernel.field in (F2, F3) and kernel.n <= 6


def _first_cap(n_terms):
    """Term capacity a walk starts with: the live terms stay near the start rank."""
    return 2 * n_terms + 64


def _triples(flat):
    return list(zip(flat[0::3], flat[1::3], flat[2::3]))


def walk(p, n, terms, target_words, seed, max_steps, plus_budget, patience,
         verify_every, target_rank, collect_trace):
    """One walk over F_p, p = 2 or 3; see mmrank.flipgraph.engine for the contract.

    Terms are ``(u, v, w)`` triples of entry tuples, the factors of
    ``GenericKernel``.  ``target_words`` is the target tensor as
    little-endian words of ``packing.int_to_words``: over F2 one plane, over
    F3 the plane of coefficients equal to 1 and then the plane of those
    equal to 2 (see :func:`target_words`).  Returns ``(best, best_rank,
    steps, final, trace)``; ``target_rank`` -1 means none; ``trace`` is None
    unless ``collect_trace``.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    for limit in (max_steps, plus_budget, patience, verify_every, target_rank):
        if not -1 << 63 <= limit < 1 << 63:  # ctypes would wrap it modulo 2**64
            raise ValueError(f"native walk limit {limit} does not fit in int64")
    try:  # the key sum x_i p**i; int() rejects an entry outside 0..p-1
        keys = [int(bytes(reversed(f)).translate(_DIGITS), p) for term in terms for f in term]
    except ValueError:
        raise ValueError(f"native walk rejected its arguments: entry outside 0..{p - 1}") from None
    flat = (_U64 * len(keys))(*keys)
    target = (_U64 * len(target_words))(*target_words)
    # Only a plus move adds a term, and it costs a step, so the live terms
    # never exceed `bound`; each reduction removes a term, so a trace holds
    # at most max_steps + bound records.  The state starts smaller and the
    # kernel grows it: sized from `bound` alone, it would take gigabytes at
    # budgets of 10**9.
    bound = len(terms) + min(plus_budget, max_steps)
    trace_cap = max_steps + bound if collect_trace else 0
    trace = (ctypes.c_int32 * (5 * trace_cap))() if collect_trace else None
    best, final, counts = (_U64 * len(keys))(), _U64P(), (_I64 * 5)()
    status = _kernel(p, n, flat, len(terms), target, len(target_words), seed, max_steps,
                     plus_budget, patience, verify_every, target_rank, _first_cap(len(terms)),
                     best, ctypes.byref(final), trace, trace_cap, counts)
    if status == _UNSOUND:
        raise SoundnessError("walk state no longer expands to the target")
    if status == _NO_MEMORY:
        raise MemoryError("native walk could not allocate its state")
    if status != _OK:
        raise ValueError("native walk rejected its arguments")
    best_rank, steps, final_count, trace_len = counts[:4]
    try:
        final_keys = final[:3 * final_count]
    finally:
        _free(final)
    best_keys = best[:3 * best_rank]
    decode = GenericKernel(PrimeField(p), n).decode_draw  # a key's base-p digits
    factor = {x: decode(x) for x in {*best_keys, *final_keys}}  # terms share factors
    best_terms, final_terms = (
        _triples([factor[x] for x in keys]) for keys in (best_keys, final_keys))
    records = None
    if collect_trace:
        rows = trace[:5 * trace_len]
        records = []
        for r in range(0, len(rows), 5):
            name, width = _TRACE_KINDS[rows[r]]
            records.append((name, *rows[r + 1:r + 1 + width]))
    return best_terms, best_rank, steps, final_terms, records


walk_f2 = partial(walk, 2)
walk_f3 = partial(walk, 3)


def target_words(kernel, target) -> list[int]:
    """``target``, as ``target.sparse()`` gives it, in the layout :func:`walk` takes."""
    bits = kernel.n ** 6
    if kernel.field == F2:  # an F2 tensor's sparse form is already its one plane
        return packing.int_to_words(target, bits)
    planes = (bytearray(bits), bytearray(bits))
    for flat, c in target.items():
        planes[c - 1][flat] = 1
    return [w for plane in planes for w in packing.int_to_words(pack_bits(plane), bits)]


def run_walk(kernel, start_terms, target, *, seed, max_steps, plus_budget=0,
             patience=1000, verify_every=0, target_rank=None,
             collect_trace=False) -> WalkOutcome:
    """:func:`engine.run_walk` on the native kernel, for a kernel it :func:`handles`."""
    walk_fp = walk_f2 if kernel.field == F2 else walk_f3
    best, best_rank, steps, final, trace = walk_fp(
        kernel.n, start_terms, target_words(kernel, target), seed, max_steps, plus_budget,
        patience, verify_every, -1 if target_rank is None else target_rank, collect_trace)
    return WalkOutcome(tuple(best), best_rank, steps, tuple(final), trace)
