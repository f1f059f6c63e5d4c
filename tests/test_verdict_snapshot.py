"""Verdict-level fields of `exactsdp pipeline` on docs/examples, pinned.

The snapshot holds what a run decides (statuses, structural flags, the
reduction's shape, the value to 1e-9 and the signs of the lifted point), so
a refactor that drifts a verdict fails.  It also holds every condition (B)
pair's certificate (alpha, beta) and margin as exact floats: the pair layer
is meant to return bitwise what the one-pair search returns, and a change of
operation order shows up there first.  Regenerate it only when a verdict or
pair-certificate change is intended:

    PYTHONPATH=src python tests/test_verdict_snapshot.py > tests/verdict_snapshot.json
"""
import json
import math
import os
import sys

import pytest

from exactsdp import docio
from exactsdp.pipeline import PipelineConfig, run_pipeline

HERE = os.path.dirname(os.path.abspath(__file__))
EXAMPLES = os.path.join(HERE, os.pardir, "docs", "examples")
SNAPSHOT = os.path.join(HERE, "verdict_snapshot.json")
NAMES = ("ball-grid.json", "worked-example.json")


def _statuses(items):
    return [item["status"] for item in items]


def _sign(values):
    """Signs of a vector, with roundoff-sized entries counted as zero."""
    top = max((abs(v) for v in values), default=0.0)
    return [0 if abs(v) <= 1e-9 * top else (1 if v > 0 else -1) for v in values]


def verdict_fields(doc: dict) -> dict:
    """The verdict-level fields of one pipeline result document."""
    red = doc["reduction"]
    out = {
        "exactness": doc["exactness"],
        "value": doc["value"],
        "reduced_n": red["reduced_n"],
        "rounds": red["rounds"],
        "pruned_indices": red["pruned_indices"],
        "lifted_x_signs": _sign([float(v) for v in doc["lifted_x"]])
        if "lifted_x" in doc else None,
    }
    cert = doc.get("certification")
    if cert is not None:
        st = cert["structural"]
        out["overall"] = cert["overall"]
        out.update({k: st[k] for k in ("a1", "a2", "a3", "a4", "a5")})
        out["condition_b"] = cert["condition_b"]["status"]
        pairs = cert["condition_b"]["pairs"]
        out["condition_b_pairs"] = _statuses(pairs)
        out["condition_b_certificates"] = [
            [float(p["alpha"]), float(p["beta"])] if "alpha" in p else None for p in pairs]
        out["condition_b_margins"] = [float(p["margin"]) for p in pairs]
        sc = cert.get("slice_conditions")
        if sc is not None:
            out["b_prime"] = sc["b_prime"]
            out["c_prime"] = sc["c_prime"]
            out["b_prime_pairs"] = _statuses(sc["b_prime_pairs"])
            out["c_prime_members"] = _statuses(sc["c_prime_members"])
        cl = cert.get("classification")
        if cl is not None:
            out["case"] = cl["case"]
            out["exposing_index"] = cl["exposing_index"]
    return out


def run_example(name: str) -> dict:
    """`exactsdp pipeline --input docs/examples/<name>` as a document."""
    with open(os.path.join(EXAMPLES, name), "rb") as fh:
        problem, opts = docio.parse_problem(fh.read())
    cfg = PipelineConfig(tol=opts["tol"], cert_tol=opts["tol"], seed=opts["seed"])
    return docio.verdict_doc(run_pipeline(problem, cfg))


@pytest.mark.parametrize("name", NAMES)
def test_pipeline_verdicts_match_snapshot(name):
    with open(SNAPSHOT) as fh:
        expected = json.load(fh)[name]
    got = verdict_fields(run_example(name))
    value, want = float(got.pop("value")), float(expected.pop("value"))
    assert math.isfinite(value) == math.isfinite(want)
    if math.isfinite(want):
        assert abs(value - want) <= 1e-9
    # repr tells -0.0 from 0.0 and matches nan to nan
    for key in ("condition_b_certificates", "condition_b_margins"):
        assert repr(got.pop(key)) == repr(expected.pop(key)), key
    assert got == expected


if __name__ == "__main__":
    # one field per line keeps the snapshot short and its diffs readable
    blocks = []
    for name in NAMES:
        fields = verdict_fields(run_example(name))
        rows = ",\n".join("  %s: %s" % (json.dumps(k), json.dumps(fields[k]))
                          for k in sorted(fields))
        blocks.append(" %s: {\n%s\n }" % (json.dumps(name), rows))
    sys.stdout.write("{\n" + ",\n".join(blocks) + "\n}\n")
