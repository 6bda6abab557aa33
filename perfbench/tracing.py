"""Span tracing of the engine's layers, installed from outside the engine.

Every public function of each layer module is replaced, in every k3walls
module namespace that binds it, by a wrapper that records one span
``(name, start, end, parent, op)``.  Replacing the module globals means
calls inside one module (``flop_cells`` -> ``effective_decompositions``)
are seen too.  ``AlignmentFunctional.phi`` is wrapped on its class.  The
leaf modules ``lattice`` and ``intmath`` are not wrapped: their time is
self time of the caller.
"""
from __future__ import annotations

import importlib
import sys
import types
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "report", "analysis", "classify", "walls", "nsgeom", "stability", "solvers")
ROOT = "harness.op"
PHI = "stability.AlignmentFunctional.phi"


def _count_returns(counts: Counter, name: str, result) -> None:
    """Counters read off return values at the wrapped boundaries."""
    if name == "solvers.solve_square_with_pairing":
        counts["walls.candidates"] += len(result)
    elif name == "solvers.decomposition_solutions":
        counts["solvers.decomp_solutions"] += len(result)
    elif name == "walls.enumerate_result":
        counts["walls.kept"] += len(result.walls)
    elif name == "classify.classify":
        counts["classify.flopping_walls"] += result.kind == "flopping"
    elif name == "classify.effective_decompositions":
        counts["classify.decompositions"] += len(result)
    elif name == "stability.alignment_candidates":
        counts["stability.arcs_sampled"] += len(result)
    elif name == "stability.holes":
        counts["stability.holes_found"] += len(result)
    elif name.startswith("report.render_"):
        counts["report.bytes_out"] += len(result.encode())


class Tracer:
    """Spans and counters of one process, kept in memory until written out."""

    def __init__(self):
        self.spans: list = []
        self.stack = [-1]
        self.op = -1
        self.counts: Counter = Counter()
        self._saved: list = []

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self.stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{name}!{type(exc).__name__}"] += 1
                raise
            finally:
                spans[idx] = (name, start, perf_counter(), parent, self.op)
                stack.pop()
            _count_returns(counts, name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def run_op(self, op_id: int, fn, *args):
        """Run one operation under a root span; exceptions propagate."""
        self.op = op_id
        return self.wrap(ROOT, fn)(*args)

    def install(self) -> None:
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"k3walls.{layer}")
            for attr, obj in vars(mod).items():
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    originals[obj] = self.wrap(f"{layer}.{attr}", obj)
        namespaces = [m for n, m in sys.modules.items() if n == "k3walls" or n.startswith("k3walls.")]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in originals:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, originals[obj])
        cls = sys.modules["k3walls.stability"].AlignmentFunctional
        self._saved.append((cls, "phi", cls.phi))
        cls.phi = self.wrap(PHI, cls.phi)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        self._saved.clear()

    def export(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def merge(into: dict, part: dict, op_id: int) -> None:
    """Append the spans of one child process, renumbered, to ``into``."""
    base = len(into["spans"])
    for name, start, end, parent, _ in part["spans"]:
        into["spans"].append((name, start, end, parent + base if parent >= 0 else -1, op_id))
    for key, val in part["counts"].items():
        into["counts"][key] = into["counts"].get(key, 0) + val


def layer_metrics(trace: dict) -> dict:
    """Per-layer self times, call counts and the counters of one traced pass.

    A span's self time is its duration minus the durations of its direct
    children; summing self times per layer attributes every traced second
    exactly once.
    """
    spans = trace["spans"]
    counts = Counter(trace["counts"])
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = Counter()
    calls = Counter()
    inclusive = Counter()
    for i, (name, start, end, parent, _) in enumerate(spans):
        layer = name.split(".")[0]
        self_s[layer] += end - start - child[i]
        calls[name] += 1
        inclusive[name] += end - start
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.calls"] = sum(n for name, n in calls.items() if name.startswith(layer + "."))
    builds = calls["walls.build_wall"]
    enums = calls["walls.enumerate_result"]
    flops = counts["classify.flopping_walls"]
    out.update({
        "solvers.candidate_solve_s": inclusive["solvers.solve_square_with_pairing"],
        "solvers.decomp_solutions": counts["solvers.decomp_solutions"],
        "walls.candidates": counts["walls.candidates"],
        "walls.build_wall_calls": builds,
        "walls.kept": counts["walls.kept"],
        "walls.kept_per_built": counts["walls.kept"] / builds if builds else 0.0,
        "walls.enumerations": enums,
        "walls.cone_passes": calls["walls.movable_cone"] / enums if enums else 0.0,
        "walls.sector_errors": counts["walls.enumerate_result!SectorError"],
        "classify.classify_s": inclusive["classify.classify"],
        "classify.decomp_s": inclusive["classify.effective_decompositions"],
        "classify.decompositions": counts["classify.decompositions"],
        "classify.flopping_walls": flops,
        "classify.decomp_calls_per_flop": calls["classify.effective_decompositions"] / flops if flops else 0.0,
        "stability.phi_calls": calls[PHI],
        "stability.phi_s": inclusive[PHI],
        "stability.arcs_sampled": counts["stability.arcs_sampled"],
        "stability.holes_found": counts["stability.holes_found"],
        "report.bytes_out": counts["report.bytes_out"],
        "trace.op_s": inclusive[ROOT],
        "trace.ops": calls[ROOT],
        "harness.self_s": self_s["harness"],
    })
    return out
