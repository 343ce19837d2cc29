"""Random-walk search over exact decompositions of a target tensor.

``random_walk`` runs one trajectory; ``search`` runs ``cfg.restarts``
trajectories with seeds ``cfg.seed + k`` (optionally on worker processes;
the merged answer never depends on the worker count).  Over F2 the walk
runs on bit-packed terms, using the compiled kernel when it is built and
an identical pure-Python twin otherwise; other fields use the generic
engine.  Trajectories are a pure function of (target, start, config).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from ..fields import F2, Field
from ..tensors import Decomposition, Matrix, RankOneTerm, Tensor, verify
from . import packing
from .engine import GenericKernel, PackedF2Kernel, run_walk

try:  # compiled kernel, built by setup.py; optional by design
    if os.environ.get("MMRANK_NO_EXT"):
        _walk_ext = None
    else:
        from . import _walk as _walk_ext
except ImportError:
    _walk_ext = None

HAVE_COMPILED = _walk_ext is not None

MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SearchConfig:
    """Walk limits; identical config and seed give identical trajectories.

    ``patience`` is the number of consecutive reduction-free flips before
    a plus move is attempted; ``verify_every`` of 0 checks expansion only
    at the end; ``target_rank`` stops a walk early once its best rank
    bound is that low (the merged search reports budget exhaustion if it
    was never reached).
    """

    seed: int
    max_steps: int
    plus_budget: int = 0
    restarts: int = 1
    verify_every: int = 0
    patience: int = 1000
    target_rank: int | None = None

    def __post_init__(self):
        for name, low in (("max_steps", 1), ("restarts", 1), ("plus_budget", 0),
                          ("verify_every", 0), ("patience", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")


@dataclass(frozen=True)
class SearchResult:
    decomposition: Decomposition
    rank: int
    steps: int
    seed: int


def _kernel_for(field: Field, n: int, backend: str):
    if field == F2 and backend != "generic":
        return PackedF2Kernel(n)
    return GenericKernel(field, n)


def _to_kernel_terms(kernel, dec: Decomposition):
    if isinstance(kernel, PackedF2Kernel):
        return packing.pack_terms(dec)
    return [
        (t.u.entries, t.v.entries, t.w.entries)
        for t in dec.terms
    ]


def _from_kernel_terms(kernel, field: Field, n: int, terms) -> tuple[RankOneTerm, ...]:
    if isinstance(kernel, PackedF2Kernel):
        return packing.unpack_terms(n, terms)
    return tuple(
        RankOneTerm(Matrix(field, n, u), Matrix(field, n, v), Matrix(field, n, w))
        for (u, v, w) in terms
    )


def random_walk(target: Tensor, start: Decomposition, cfg: SearchConfig,
                backend: str = "auto", collect_trace: bool = False) -> SearchResult:
    """One deterministic walk; the returned best state always verifies.

    ``backend`` is a diagnostic knob ("auto", "compiled", "pure",
    "generic"); every backend follows the same trajectory contract, so it
    never changes the result, only the speed.
    """
    if start.n != target.n or start.field != target.field:
        raise ValueError("start decomposition and target have different shape or field")
    pre = verify(start, target)
    if not pre.ok:
        raise ValueError("start decomposition does not expand to the target")
    if backend not in ("auto", "compiled", "pure", "generic"):
        raise ValueError(f"unknown backend {backend!r}")
    if backend == "compiled" and not HAVE_COMPILED:
        raise RuntimeError("compiled kernel is not available")

    field, n = start.field, start.n
    seed = cfg.seed & MASK64
    use_compiled = (
        field == F2
        and backend in ("auto", "compiled")
        and HAVE_COMPILED
    )
    if use_compiled:
        packed = packing.pack_terms(start)
        target_words = packing.int_to_words(packing.tensor_to_int(target), n**6)
        best_terms, best_rank, steps, _final, _trace = _walk_ext.walk_f2(
            n, packed, target_words, seed, cfg.max_steps, cfg.plus_budget,
            cfg.patience, cfg.verify_every,
            -1 if cfg.target_rank is None else cfg.target_rank,
            collect_trace,
        )
        terms = packing.unpack_terms(n, best_terms)
        outcome_trace = _trace
    else:
        kernel = _kernel_for(field, n, backend)
        outcome = run_walk(
            kernel,
            _to_kernel_terms(kernel, start),
            target.sparse(),
            seed=seed,
            max_steps=cfg.max_steps,
            plus_budget=cfg.plus_budget,
            patience=cfg.patience,
            verify_every=cfg.verify_every,
            target_rank=cfg.target_rank,
            collect_trace=collect_trace,
        )
        best_terms, best_rank, steps = outcome.best_terms, outcome.best_rank, outcome.steps
        terms = _from_kernel_terms(kernel, field, n, best_terms)
        outcome_trace = outcome.trace

    best = Decomposition(n, field, terms)
    post = verify(best, target)
    if not post.ok:
        raise AssertionError("search returned a decomposition that fails verification")
    result = SearchResult(best, best_rank, steps, seed)
    if collect_trace:
        return result, outcome_trace
    return result


def _one_restart(args):
    target, start, cfg, k, backend = args
    sub = replace(cfg, seed=(cfg.seed + k) & MASK64, restarts=1)
    return random_walk(target, start, sub, backend=backend)


def search(target: Tensor, start: Decomposition, cfg: SearchConfig,
           workers: int = 1, backend: str = "auto") -> SearchResult:
    """Best result over cfg.restarts walks; restart k uses seed + k.

    Results merge by (rank, restart index), so the answer is identical
    for any worker count.
    """
    jobs = [(target, start, cfg, k, backend) for k in range(cfg.restarts)]
    if workers > 1 and cfg.restarts > 1:
        with ProcessPoolExecutor(max_workers=min(workers, cfg.restarts)) as pool:
            results = list(pool.map(_one_restart, jobs))
    else:
        results = [_one_restart(j) for j in jobs]
    best = min(enumerate(results), key=lambda kv: (kv[1].rank, kv[0]))[1]
    return best
