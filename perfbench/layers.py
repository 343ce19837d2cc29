"""Which mmrank functions the traced run wraps, and the per-layer metrics.

Layers are named after the modules.  ``fields`` and ``rng`` sit in inner
loops and are measured through the layers that call them.  Unless named
otherwise, a ``*_s`` metric is the mean seconds per call of that span;
``self_s`` subtracts the time of traced callees.  Counts marked exact
(``.calls``, ``.steps``, ``multiplications``) cover the first round only,
which is a function of the workload seed alone, so two commits can be
compared exactly.  Rates are sums over the whole traced run.
"""

from __future__ import annotations

import os
from collections import defaultdict

from spans import ATTRS, END, NAME, OP, START

PACKING = ("pack_terms", "unpack_terms", "tensor_to_int", "int_to_words")
ENGINE_KEYS = ("F2.n3", "F2.n4", "F3.n2", "F3.n3", "Q.n3")
KERNEL_KEYS = ("F2.n3", "F2.n4")


def _key(field, n):
    return f"{field.name}.n{n}"


def _file_bytes(args, _res):
    return {"bytes": os.path.getsize(args[0])}


def _verify_attrs(args, _res):
    d = args[0]
    return {"key": _key(d.field, d.n), "coeffs": d.n**6}


def _search_attrs(args, res):
    return {"target": args[2].target_rank, "rank": res.rank}


def _walk_attrs(args, res):
    res = res[0] if isinstance(res, tuple) else res  # collect_trace=True
    start = args[1]
    return {"key": _key(start.field, start.n), "start": start.rank_bound,
            "rank": res.rank, "steps": res.steps}


def _engine_attrs(args, res):
    kernel = args[0]
    field = getattr(kernel, "field", None)
    return {"key": f"{field.name if field else 'F2'}.n{kernel.n}", "steps": res.steps}


def _symwalk_attrs(args, res):
    return {"key": args[0].field.name, "steps": res.steps}


def targets(mm):
    """(owner, attribute, span name, observer) for :func:`spans.install`."""
    program = mm.bilinear.BilinearProgram
    out = [
        (mm.cli, "main", "cli", None),
        (mm.fileformat, "read_decomposition_file", "fileformat.read", _file_bytes),
        (mm.fileformat, "write_decomposition_file", "fileformat.write", _file_bytes),
        (mm.tensors, "verify", "tensors.verify", _verify_attrs),
        (mm.tensors, "matmul_tensor", "tensors.build", None),
        (mm.walk, "search", "flipgraph.search", _search_attrs),
        (mm.walk, "random_walk", "flipgraph.walk", _walk_attrs),
        (mm.engine, "run_walk", "flipgraph.engine", _engine_attrs),
        *[(mm.packing, f, "flipgraph.packing", None) for f in PACKING],
        (mm.symwalk, "symmetric_search", "flipgraph.symwalk", _symwalk_attrs),
        (mm.symmetry, "stabilizer", "symmetry.stabilizer", None),
        (mm.symmetry, "apply_group", "symmetry.apply_group", None),
        (mm.symmetry, "expand_symmetric", "symmetry.expand_symmetric", None),
        (mm.proof, "rank7_derivation", "proof.derivation", None),
        (mm.proof, "check_derivation", "proof.derivation", None),
        (mm.bilinear, "compile_program", "bilinear.compile", None),
        (program, "apply_recursive", "bilinear.apply_recursive", None),
        (mm.bilinear, "naive_matmul", "bilinear.naive", None),
        (program, "count_ops", "bilinear.count_ops",
         lambda _args, res: {"mults": res.multiplications}),
    ]
    if mm.walk._walk_ext is not None:
        out.append((mm.walk._walk_ext, "walk_f2", "flipgraph._walk",
                    lambda args, res: {"key": f"F2.n{args[0]}", "steps": res[2]}))
    return out


def _ratio(a, b):
    return a / b if b else None


def metrics(tracer, first_round: set, compiled: bool) -> dict:
    """Per-layer metrics: name -> (value or None when not exercised, unit)."""
    own = tracer.self_times()
    by = defaultdict(list)  # span name -> [(duration, self time, attrs, op)]
    for s, self_s in zip(tracer.spans, own):
        by[s[NAME]].append((s[END] - s[START], self_s, s[ATTRS] or {}, s[OP]))

    def mean(name, col=0):
        xs = [x[col] for x in by[name]]
        return _ratio(sum(xs), len(xs))

    def first(name, attr=None):
        xs = [x for x in by[name] if x[3] in first_round]
        return len(xs) if attr is None else sum(x[2][attr] for x in xs)

    def rate(name, attr, key=None):
        xs = [x for x in by[name] if key is None or x[2]["key"] == key]
        return _ratio(sum(x[2][attr] for x in xs), sum(x[0] for x in xs))

    def keys(name):
        return sorted({x[2]["key"] for x in by[name]})

    def per_op(name):
        ops = {x[3] for x in by[name]}
        return _ratio(sum(x[0] for x in by[name]), len(ops))

    m = {
        "cli.self_s": (mean("cli", 1), "s"),
        "fileformat.read_s": (mean("fileformat.read"), "s"),
        "fileformat.read_bytes_per_s": (rate("fileformat.read", "bytes"), "bytes/s"),
        "fileformat.write_s": (mean("fileformat.write"), "s"),
        "fileformat.write_bytes_per_s": (rate("fileformat.write", "bytes"), "bytes/s"),
        "tensors.verify.calls": (first("tensors.verify"), "count"),
        "tensors.verify_s": (mean("tensors.verify"), "s"),
        "tensors.verify.coeffs_per_s": (rate("tensors.verify", "coeffs"), "coeffs/s"),
        "tensors.build_s": (mean("tensors.build"), "s"),
    }
    for k in keys("tensors.verify"):
        xs = [x[0] for x in by["tensors.verify"] if x[2]["key"] == k]
        m[f"tensors.verify_s.{k}"] = (sum(xs) / len(xs), "s")

    walks = by["flipgraph.walk"]
    targeted = [x[2] for x in by["flipgraph.search"] if x[2]["target"] is not None]
    m.update({
        "flipgraph.walk.self_s": (mean("flipgraph.walk", 1), "s"),
        "flipgraph.walk.steps": (first("flipgraph.walk", "steps") if walks else None, "steps"),
        "flipgraph.walk.reach_ratio": (
            _ratio(sum(a["rank"] <= a["target"] for a in targeted), len(targeted)), "ratio"),
        "flipgraph.walk.rank_drop_per_kstep": (
            _ratio(1000 * sum(x[2]["start"] - x[2]["rank"] for x in walks),
                   sum(x[2]["steps"] for x in walks)), "rank/kstep"),
    })
    for k in sorted(set(ENGINE_KEYS) | set(keys("flipgraph.engine"))):
        m[f"flipgraph.engine.steps_per_s.{k}"] = (rate("flipgraph.engine", "steps", k), "steps/s")
    # never time the pure path under the compiled kernel's name
    for k in sorted(set(KERNEL_KEYS) | set(keys("flipgraph._walk"))):
        m[f"flipgraph._walk.steps_per_s.{k}"] = (
            rate("flipgraph._walk", "steps", k) if compiled else None, "steps/s")
    f2_walks = sum(x[2]["key"].startswith("F2.") for x in walks)
    m["flipgraph.packing_s"] = (
        _ratio(sum(x[0] for x in by["flipgraph.packing"]), f2_walks), "s/walk")
    for k in sorted({"F2", "F3"} | set(keys("flipgraph.symwalk"))):
        m[f"flipgraph.symwalk.steps_per_s.{k}"] = (rate("flipgraph.symwalk", "steps", k), "steps/s")
    m["flipgraph.symwalk.self_s"] = (mean("flipgraph.symwalk", 1), "s")

    for name in ("stabilizer", "apply_group"):
        span = f"symmetry.{name}"
        m[f"{span}.calls"] = (first(span) if by[span] else None, "count")
        m[f"{span}_s"] = (mean(span), "s")
    m["symmetry.expand_symmetric_s"] = (mean("symmetry.expand_symmetric"), "s")
    m["proof.derivation_s"] = (per_op("proof.derivation"), "s/op")

    apply_s, naive_s = mean("bilinear.apply_recursive"), mean("bilinear.naive")
    m.update({
        "bilinear.compile_s": (mean("bilinear.compile"), "s"),
        "bilinear.apply_recursive_s": (apply_s, "s"),
        "bilinear.naive_s": (naive_s, "s"),
        # base: bilinear.naive_s, the naive product of the same inputs
        "bilinear.recursive_over_naive": (
            _ratio(apply_s, naive_s) if apply_s is not None else None, "ratio"),
        "bilinear.multiplications": (
            first("bilinear.count_ops", "mults") if by["bilinear.count_ops"] else None, "count"),
    })
    return m
