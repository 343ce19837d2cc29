"""Flip-graph local search over exact decompositions.

The hot kernel (the packed walk over F2) has a native implementation in
plain C (``_walk.c``), built with the system ``cc`` on first import,
cached per user and selected whenever it loads; the pure-Python twin in
:mod:`mmrank.flipgraph.engine` follows the identical trajectory contract,
so results never depend on which one ran.  Set ``MMRANK_NO_EXT=1`` to
force the pure path.
"""

from .state import MoveRejected, SearchState, find_reductions, flip, plus_move, reduce
from .symwalk import SymmetricSearchResult, symmetric_random_walk
from .walk import (
    HAVE_COMPILED,
    SearchConfig,
    SearchResult,
    random_walk,
    search,
)

__all__ = [
    "HAVE_COMPILED",
    "MoveRejected",
    "SearchConfig",
    "SearchResult",
    "SearchState",
    "SymmetricSearchResult",
    "find_reductions",
    "flip",
    "plus_move",
    "random_walk",
    "reduce",
    "search",
    "symmetric_random_walk",
]
