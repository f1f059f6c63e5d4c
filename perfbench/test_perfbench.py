"""Tests of the benchmark itself: the checks reject tampered documents, the
traced run repeats its exact counts, and a checkout without the program
gives no result.

    python3 -m pytest perfbench
"""
import copy
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import exactsdp  # noqa: E402,F401  (the operations look its modules up)
import workloads  # noqa: E402


def _solve(kind, raw):
    path = workloads.solve_path if kind == "dense" else workloads.pipeline_path
    return json.loads(path(raw))


@pytest.fixture(scope="module")
def results():
    """One genuine (kind, problem, result) of each kind, on small inputs."""
    rng = np.random.default_rng(7)
    docs = {
        "ball": workloads.ball_document(7, ((-1, 1), (-1, 1))),
        "dense": workloads.relax_document(7, 0),
        "ex61": workloads.ex61_document(rng),
        "disks": workloads.disks_document(rng),
    }
    return {kind: (raw, _solve(kind, raw)) for kind, raw in docs.items()}


def _failures(kind, raw, out):
    return checks.check(kind, raw, json.dumps(out))


@pytest.mark.parametrize("kind", ["ball", "dense", "ex61", "disks"])
def test_genuine_documents_pass(results, kind):
    raw, out = results[kind]
    assert _failures(kind, raw, out) == []


def _tightest_pair(out):
    pairs = out["certification"]["condition_b"]["pairs"]
    return min(pairs, key=lambda pv: float(pv["margin"]))


def test_flipped_certificate_is_rejected(results):
    raw, out = results["ball"]
    bad = copy.deepcopy(out)
    pv = _tightest_pair(bad)
    pv["beta"] = repr(-float(pv["beta"]))
    assert any("pair" in f for f in _failures("ball", raw, bad))


def test_stretched_certificate_is_rejected(results):
    raw, out = results["ball"]
    bad = copy.deepcopy(out)
    pv = _tightest_pair(bad)
    pv["beta"] = repr(4.0 * float(pv["beta"]))
    assert any("lambda_min(alpha A + beta B)" in f for f in _failures("ball", raw, bad))


def test_missing_pair_is_rejected(results):
    raw, out = results["ball"]
    bad = copy.deepcopy(out)
    bad["certification"]["condition_b"]["pairs"].pop()
    assert any("pairs listed" in f for f in _failures("ball", raw, bad))


@pytest.mark.parametrize("kind", ["ball", "ex61"])
def test_shifted_value_is_rejected(results, kind):
    raw, out = results[kind]
    bad = copy.deepcopy(out)
    bad["value"] = repr(float(out["value"]) + 1e-3)
    assert _failures(kind, raw, bad)


def test_shifted_solve_value_is_rejected(results):
    raw, out = results["dense"]
    bad = copy.deepcopy(out)
    bad["sdp"]["value"] = repr(float(out["sdp"]["value"]) + 1e-3)
    assert _failures("dense", raw, bad)


def test_non_psd_solution_is_rejected(results):
    raw, out = results["dense"]
    bad = copy.deepcopy(out)
    bad["sdp"]["X"]["upper"][0] = repr(float(bad["sdp"]["X"]["upper"][0]) - 1e-2)
    assert any("X lambda_min" in f for f in _failures("dense", raw, bad))


def test_negative_multiplier_is_rejected(results):
    raw, out = results["dense"]
    bad = copy.deepcopy(out)
    bad["sdp"]["dual_ineq"][0] = "-0.01"
    assert any("negative multiplier" in f for f in _failures("dense", raw, bad))


def test_non_psd_witness_is_rejected(results):
    raw, out = results["disks"]
    bad = copy.deepcopy(out)
    pv = next(p for p in bad["certification"]["condition_b"]["pairs"] if "witness" in p)
    pv["witness"]["upper"] = [repr(-float(v)) for v in pv["witness"]["upper"]]
    assert any("witness X not psd" in f for f in _failures("disks", raw, bad))


def test_moved_witness_point_is_rejected(results):
    raw, out = results["disks"]
    bad = copy.deepcopy(out)
    pv = next(p for p in bad["certification"]["slice_conditions"]["b_prime_pairs"]
              if "witness_point" in p)
    pv["witness_point"] = [repr(float(v) + 10.0) for v in pv["witness_point"]]
    assert any("witness point" in f for f in _failures("disks", raw, bad))


def test_certified_overlap_is_rejected(results):
    raw, out = results["disks"]
    bad = copy.deepcopy(out)
    bad["certification"]["overall"] = "certified"
    assert _failures("disks", raw, bad)


def test_wrong_reduced_member_is_rejected(results):
    raw, out = results["ex61"]
    bad = copy.deepcopy(out)
    member = bad["reduction"]["reduced"]["constraints"][1]["matrix"]
    member["upper"][0] = repr(float(member["upper"][0]) + 0.1)
    assert any("matches no projected" in f for f in _failures("ex61", raw, bad))


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_traced_runs_repeat_their_counts():
    reports = []
    for _ in range(2):
        proc = _run(["--workload", "reduce-refute", "--seed", "5", "--seconds", "1",
                     "--trace", "1"], ROOT)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in _benchmark()["per_layer"]}
        assert result["metrics"]["trace.counts_repeat"]["value"] == 1
        with open(os.path.join(BENCH_DIR, "out", "reduce-refute-seed5.trace.json")) as fh:
            reports.append(json.load(fh)["counts_per_round"])
    assert reports[0] == reports[1]
    assert reports[0]["sdp.solve_slater.calls"] > 0


def test_untraced_run_prints_every_end_to_end_metric():
    proc = _run(["--workload", "reduce-refute", "--seed", "5", "--seconds", "1",
                 "--trace", "0"], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in _benchmark()["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_checkout_without_program_gives_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = _run(["--workload", "ball-family", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
