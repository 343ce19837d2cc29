"""Flip-graph local search over exact decompositions.

The moves are defined once, in :mod:`mmrank.flipgraph.engine`, whose
walk state ``_Walk`` applies a single flip (``_flip``), reduction of a
given pair (``_merge``) or plus move with a given split (``_plus``) as
well as whole walks.  The walks over F2 and F3 (sides up to 6) have one
native implementation in plain C (``_walk.c``), built with the system
``cc`` on first import, cached per user and selected whenever it loads
(``HAVE_COMPILED`` then holds, for both fields); the pure-Python engine
follows the identical trajectory contract, so results never depend on
which one ran.  Set ``MMRANK_NO_EXT=1`` to force the pure path.
"""

from .symwalk import symmetric_random_walk
from .walk import (
    HAVE_COMPILED,
    SearchConfig,
    SearchResult,
    random_walk,
    search,
)

__all__ = [
    "HAVE_COMPILED",
    "SearchConfig",
    "SearchResult",
    "random_walk",
    "search",
    "symmetric_random_walk",
]
