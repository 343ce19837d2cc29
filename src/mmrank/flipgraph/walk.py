"""Random-walk search over exact decompositions of a target tensor.

``random_walk`` runs one trajectory; ``search`` runs ``cfg.restarts``
trajectories with seeds ``cfg.seed + k`` (optionally on worker processes;
the merged answer never depends on the worker count); its restart
merging, :func:`best_of_restarts`, serves the symmetric walk too.  In
every field the walk runs on tuples of raw scalars (see :mod:`engine`).
Over F2 and F3 the native kernel (``_walk.c``,
built with the system C compiler) walks when it loaded, the pure engine
otherwise; Q and other primes always use the pure engine.  Trajectories
are a pure function of (target, start, config).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from ..fields import Field
from ..symmetry import SymmetricDecomposition
from ..tensors import Decomposition, Matrix, RankOneTerm, Tensor, verify
from . import _native
from .engine import GenericKernel, run_walk

# The native kernel over F2 and F3, built with the system cc on first import
# (see _native); optional by design, and MMRANK_NO_EXT=1 forces the pure path.
_walk_ext = None if os.environ.get("MMRANK_NO_EXT") or not _native.load() else _native

HAVE_COMPILED = _walk_ext is not None

MASK64 = (1 << 64) - 1
INT64_MAX = (1 << 63) - 1  # walk limits cross into the native kernel as int64
MAX_RESTARTS = 100_000  # restart jobs are built up front


@dataclass(frozen=True)
class SearchConfig:
    """Walk limits; identical config and seed give identical trajectories.

    ``patience`` is the number of consecutive reduction-free flips before
    a plus move is attempted; ``verify_every`` of 0 checks expansion only
    at the end; ``target_rank`` stops a walk early once its best rank
    bound is that low (the merged search reports budget exhaustion if it
    was never reached).  ``seed`` lies in 0..``MASK64``, every limit is at
    most ``INT64_MAX`` and ``restarts`` at most ``MAX_RESTARTS``.
    """

    seed: int
    max_steps: int
    plus_budget: int = 0
    restarts: int = 1
    verify_every: int = 0
    patience: int = 1000
    target_rank: int | None = None

    def __post_init__(self):
        for name, low, high in (("seed", 0, MASK64),
                                ("max_steps", 1, INT64_MAX), ("restarts", 1, MAX_RESTARTS),
                                ("plus_budget", 0, INT64_MAX), ("verify_every", 0, INT64_MAX),
                                ("patience", 0, INT64_MAX), ("target_rank", 0, INT64_MAX)):
            value = getattr(self, name)
            if value is None:  # target_rank: no early stop
                continue
            if value < low:
                raise ValueError(f"{name} must be >= {low}")
            if value > high:
                raise ValueError(f"{name} must be <= {high}")


@dataclass(frozen=True)
class SearchResult:
    """The best state of a walk, plain or symmetric.

    ``trace`` holds the walk's move records when it was collected.
    """

    decomposition: Decomposition | SymmetricDecomposition
    rank: int
    steps: int
    seed: int
    trace: list | None = None


def _kernel_for(field: Field, n: int):
    return GenericKernel(field, n)


def _to_kernel_terms(kernel, dec: Decomposition):
    lift = kernel.lift
    return [(lift(t.u.entries), lift(t.v.entries), lift(t.w.entries)) for t in dec.terms]


def _from_kernel_terms(kernel, terms) -> tuple[RankOneTerm, ...]:
    field, n = kernel.field, kernel.n
    return tuple(
        RankOneTerm(Matrix(field, n, u), Matrix(field, n, v), Matrix(field, n, w))
        for (u, v, w) in terms
    )


def random_walk(target: Tensor, start: Decomposition, cfg: SearchConfig,
                collect_trace: bool = False) -> SearchResult:
    """One deterministic walk; the returned best state always verifies.

    With ``collect_trace`` the result's ``trace`` lists the moves made.
    """
    if start.n != target.n or start.field != target.field:
        raise ValueError("start decomposition and target have different shape or field")
    pre = verify(start, target)
    if not pre.ok:
        raise ValueError("start decomposition does not expand to the target")

    kernel = _kernel_for(start.field, start.n)
    run = _walk_ext.run_walk if HAVE_COMPILED and _native.handles(kernel) else run_walk
    outcome = run(
        kernel,
        _to_kernel_terms(kernel, start),
        target.sparse(),
        seed=cfg.seed,
        max_steps=cfg.max_steps,
        plus_budget=cfg.plus_budget,
        patience=cfg.patience,
        verify_every=cfg.verify_every,
        target_rank=cfg.target_rank,
        collect_trace=collect_trace,
    )
    best = Decomposition(start.n, start.field, _from_kernel_terms(kernel, outcome.best_terms))
    post = verify(best, target)
    if not post.ok:
        raise AssertionError("search returned a decomposition that fails verification")
    return SearchResult(best, outcome.best_rank, outcome.steps, cfg.seed, outcome.trace)


def _one_restart(args):
    walk, target, start, cfg, k = args
    sub = replace(cfg, seed=(cfg.seed + k) & MASK64, restarts=1)
    return walk(target, start, sub)


def best_of_restarts(walk, target, start, cfg: SearchConfig, workers: int = 1):
    """Best of cfg.restarts runs of ``walk``; restart k uses seed + k.

    ``walk(target, start, cfg)`` must be a module-level
    function (pool workers receive it by name) returning a result with a
    ``rank``.  Results merge by (rank, restart index), so the answer is
    identical for any worker count; the pool never exceeds the restarts
    or the CPUs.
    """
    jobs = [(walk, target, start, cfg, k) for k in range(cfg.restarts)]
    workers = min(workers, cfg.restarts, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_one_restart, jobs))
    else:
        results = [_one_restart(j) for j in jobs]
    return min(enumerate(results), key=lambda kv: (kv[1].rank, kv[0]))[1]


def search(target: Tensor, start: Decomposition, cfg: SearchConfig,
           workers: int = 1) -> SearchResult:
    """Best result over cfg.restarts walks (see :func:`best_of_restarts`)."""
    return best_of_restarts(random_walk, target, start, cfg, workers)
