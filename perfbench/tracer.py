"""Spans around the calls into exactsdp's modules, recorded from outside.

The tracer replaces each traced function by a wrapper in every exactsdp
namespace that binds it (modules import each other's functions by name), so
a call is recorded whichever namespace it is looked up in.  A span holds a
name, a start, an end, its parent's index and an optional quantity taken
from the return value.  Spans are kept in memory; self time is a span's
duration minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# module -> {function: None, or a map from the return value to named counts}
TARGETS = {
    "symmat": {"lambda_min": None, "eig_sym": None},
    "sdp": {"solve": lambda sol: {"sdp.solve.iterations": sol.iterations},
            "solve_slater": None, "solve_ab_certificate": None},
    "certify": {
        "certify": lambda rep: {
            "certify.pairs": len(rep.condition_b.pairs),
            "certify.pairs_certified": sum(v.status == "certified"
                                           for v in rep.condition_b.pairs)},
        "check_condition_B": None, "check_pair_B": None, "check_structural": None,
        "inclusion_status": None, "check_Bprime_Cprime": None, "classify": None},
    "reduction": {
        "facial_reduce": lambda rr: {"reduction.facial_reduce.rounds": rr.rounds},
        "remove_redundant": lambda out: {"reduction.remove_redundant.pruned": len(out[1])}},
    "pipeline": {
        "run_pipeline": None,
        "extract_rank_one": lambda r1: {"pipeline.extract_rank_one.retries": int(r1.retried)}},
    "model": {"normalize": None, "quadform_packed": None},
    "docio": {"parse_problem": None, "verdict_doc": None, "sdp_doc": None,
              "serialize": None},
}

# the per-layer metrics: (name, unit); counts are per operation, times are
# seconds per operation
LAYER_METRICS = (
    ("symmat.lambda_min.calls", "count"), ("symmat.lambda_min.self_s", "s"),
    ("symmat.eig_sym.calls", "count"), ("symmat.eig_sym.self_s", "s"),
    ("sdp.solve.calls", "count"), ("sdp.solve.self_s", "s"),
    ("sdp.solve.iterations", "count"), ("sdp.solve.self_s_per_iter", "s"),
    ("sdp.solve_slater.calls", "count"), ("sdp.solve_slater.self_s", "s"),
    ("sdp.solve_ab_certificate.calls", "count"), ("sdp.solve_ab_certificate.self_s", "s"),
    ("certify.check_condition_B.self_s", "s"), ("certify.check_pair_B.calls", "count"),
    ("certify.pairs", "count"), ("certify.pairs_certified", "count"),
    ("certify.check_structural.self_s", "s"), ("certify.inclusion_status.calls", "count"),
    ("certify.check_Bprime_Cprime.self_s", "s"), ("certify.classify.self_s", "s"),
    ("reduction.facial_reduce.self_s", "s"), ("reduction.facial_reduce.rounds", "count"),
    ("reduction.remove_redundant.self_s", "s"), ("reduction.remove_redundant.pruned", "count"),
    ("pipeline.run_pipeline.self_s", "s"), ("pipeline.extract_rank_one.self_s", "s"),
    ("pipeline.extract_rank_one.retries", "count"),
    ("model.normalize.self_s", "s"), ("model.quadform_packed.calls", "count"),
    ("model.quadform_packed.self_s", "s"),
    ("docio.parse_problem.self_s", "s"), ("docio.verdict_doc.self_s", "s"),
    ("docio.sdp_doc.self_s", "s"), ("docio.serialize.self_s", "s"),
)


class Tracer:
    def __init__(self):
        self.spans = []       # [name, start, end, parent, quantities] of the current op
        self.finished = []    # (op index, spans) of every traced op
        self._stack = []
        self._patches = []    # (namespace, attribute, original)

    # ---- installation ---------------------------------------------------

    def _wrap(self, name, fn, quantity):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if quantity is not None:
                span[4] = quantity(out)
            return out

        return traced

    def install(self):
        """Wrap every target in every exactsdp namespace that binds it.

        Submodules are taken from sys.modules: the package attribute
        `exactsdp.certify` is the function certify(), not the module.
        """
        namespaces = [m for k, m in sys.modules.items()
                      if k == "exactsdp" or k.startswith("exactsdp.")]
        for mod, funcs in TARGETS.items():
            module = sys.modules["exactsdp." + mod]
            for fname, quantity in funcs.items():
                original = getattr(module, fname)
                wrapper = self._wrap("%s.%s" % (mod, fname), original, quantity)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._patches.append((ns, attr, original))
                            setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    # ---- per-operation bookkeeping ----------------------------------------

    def end_op(self, index: int):
        if self._stack:
            raise RuntimeError("operation ended inside a span")
        self.finished.append((index, list(self.spans)))
        self.spans.clear()

    def write(self, path: str):
        """One JSON line per span: op, id, parent, name, start, end, quantities."""
        with open(path, "w") as fh:
            for op, spans in self.finished:
                for i, (name, t0, t1, parent, qty) in enumerate(spans):
                    fh.write(json.dumps([op, i, parent, name, t0, t1, qty]) + "\n")


def op_totals(spans) -> dict:
    """Calls, self seconds and counts per name, summed over one operation;
    key "self_s" holds the self seconds of all spans together."""
    child = [0.0] * len(spans)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = defaultdict(float)
    for k, (name, t0, t1, _, counts) in enumerate(spans):
        self_s = (t1 - t0) - child[k]
        out[name + ".calls"] += 1
        out[name + ".self_s"] += self_s
        out["self_s"] += self_s
        for key, v in (counts or {}).items():
            out[key] += v
    return out


def exact_counts(totals: dict) -> dict:
    """The integer counts of op_totals, which repeat exactly on equal inputs."""
    return {k: int(v) for k, v in totals.items() if not k.endswith("self_s")}


def layer_metrics(totals: dict, ops: int) -> dict:
    """Per-operation values of every per-layer metric from summed op_totals."""
    out = {}
    for name, unit in LAYER_METRICS:
        if name == "sdp.solve.self_s_per_iter":
            iters = totals.get("sdp.solve.iterations", 0)
            value = totals.get("sdp.solve.self_s", 0.0) / iters if iters else 0.0
        else:
            value = totals.get(name, 0) / ops
        out[name] = {"value": value, "unit": unit}
    return out
