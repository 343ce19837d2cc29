"""Spans recorded around mmrank's public functions, from outside the package.

A :class:`Tracer` wraps a function so that every call appends one span
``[name, start, end, parent, op, attrs]`` to an in-memory list.  ``parent``
is the index of the enclosing span (``-1`` at top level) and ``op`` the id
of the benchmark operation that was running.  ``attrs`` holds what an
optional observer extracted from the call (a step count, a field, a byte
count).

:func:`install` replaces a function at every site that binds it: each
``mmrank`` module whose globals hold the same object gets the wrapper, so
``from .tensors import verify`` in ``cli``, ``flipgraph.walk`` and
``bilinear`` is traced as well as ``tensors.verify`` itself.  Methods are
patched on their class.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from time import perf_counter

NAME, START, END, PARENT, OP, ATTRS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name, fn, observe=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if observe is not None:
                rec[ATTRS] = observe(args, result)
            return result

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.

        The benchmark runs one operation at a time in one thread, so
        children of one span never overlap and their durations add up.
        """
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, separators=(",", ":")) + "\n")


def _mmrank_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "mmrank" or name.startswith("mmrank.")) and m is not None]


def install(tracer: Tracer, targets) -> list:
    """Wrap every ``(owner, attribute, span name, observer)`` in ``targets``.

    ``owner`` is a module or a class.  A module-level function is replaced
    in every loaded ``mmrank`` module (the compiled kernel included) that
    binds it by any name; a method is replaced on its class.  Returns the
    patched sites as ``owner.name`` strings.
    """
    sites = []
    modules = _mmrank_modules()
    for owner, attr, name, observe in targets:
        fn = getattr(owner, attr)
        wrapped = tracer.wrap(name, fn, observe)
        for site in [owner] if isinstance(owner, type) else modules:
            for key, value in list(vars(site).items()):
                if value is fn:
                    sites.append(f"{site.__name__}.{key}")
                    setattr(site, key, wrapped)
    return sites
