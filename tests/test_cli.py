import dataclasses
import json
import os

import numpy as np
import pytest

from exactsdp import cli, docio
from exactsdp import sdp as sdpmod
from exactsdp.gallery import build_case, overlap_disks
from exactsdp.model import GeoCop, constraint_set
from exactsdp.symmat import SymMat
from test_reduction import three_member_face


# the worked example in R^3, restricted to the plane x3 = 0 (Q33 = -5)
RESTRICTED = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "examples",
                          "restricted.json")


def write_problem(tmp_path, problem, name="prob.json", options=None):
    path = tmp_path / name
    path.write_text(docio.serialize(docio.problem_doc(problem, options)))
    return str(path)


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_pipeline_certified_exit_zero(tmp_path, capsys):
    path = write_problem(tmp_path, build_case("ex6.1").problem)
    code, out, _ = run(["pipeline", "--input", path, "--tol", "1e-9"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["exactness"] == "certified_exact"
    assert abs(float(doc["value"]) + 0.8660254037844386) <= 1e-6


def test_certify_not_certified_exit_two(tmp_path, capsys):
    prob = GeoCop(n=3, Q=SymMat.diag([1.0, -1.0, 0.0]), H=SymMat.identity(3),
                  bset=overlap_disks())
    path = write_problem(tmp_path, prob)
    code, out, _ = run(["certify", "--input", path], capsys)
    assert code == 2
    doc = json.loads(out)
    assert doc["certification"]["overall"] == "not_certified"


def test_certify_inconclusive_exit_three(tmp_path, capsys):
    # engineered pair whose best certificate margin falls in the open band
    # between the certify and refute thresholds
    a = SymMat.diag([1.0, -1.0, 0.0])
    b = SymMat.diag([-1.0, 1.0 - 2e-7, 1.0])
    prob = GeoCop(n=3, Q=SymMat.identity(3), H=SymMat.identity(3),
                  bset=__import__("exactsdp").constraint_set(3, [a, b]))
    path = write_problem(tmp_path, prob)
    code, out, _ = run(["certify", "--input", path], capsys)
    assert code == 3


def test_infeasible_relaxation_reports_inf_exit_two(tmp_path, capsys):
    # <H, X> = 1 with H = -I has no psd solution: the problem is infeasible
    p = build_case("ex6.1").problem
    prob = GeoCop(n=p.n, Q=p.Q, H=SymMat.identity(p.n).scale(-1.0), bset=p.bset)
    path = write_problem(tmp_path, prob)
    code, out, _ = run(["pipeline", "--input", path], capsys)
    doc = json.loads(out)
    assert doc["sdp"]["status"] == "infeasible"
    assert doc["value"] == "inf"
    assert code == 2


def test_zero_H_exit_one(tmp_path, capsys):
    # <H, xx^T> = 1 has no solution when H = O: an error, not a verdict
    prob = GeoCop(n=3, Q=SymMat.identity(3), H=SymMat.zeros(3), bset=overlap_disks())
    path = write_problem(tmp_path, prob)
    code, out, err = run(["pipeline", "--input", path], capsys)
    assert code == 1
    assert out == ""
    assert "$.H" in err


def test_missing_field_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "Q": {"upper": ["1","0","1"]}}')
    code, _, err = run(["certify", "--input", str(bad)], capsys)
    assert code == 1
    assert "$.H" in err


_GOOD = {"n": 3, "Q": {"upper": ["1", "0", "0", "-1", "0", "0"]},
         "H": {"upper": ["1", "0", "0", "1", "0", "1"]},
         "constraints": [{"matrix": {"upper": ["1", "0", "0", "1", "0", "-0.25"]}}]}

_MALFORMED = {
    "boolean_n": ({"n": True}, "$.n"),
    "lift_matrix": ({"lift_matrix": [1, 2, 3]}, "$.lift_matrix"),
    "restrict_matrix": ({"restrict_matrix": "L"}, "$.restrict_matrix"),
    "family": ({"constraints": [{"family": 5}]}, "$.constraints[0].family"),
    "centers": ({"constraints": [{"family": {"kind": "ball_grid", "centers": [3],
                                             "radius": "0.5"}}]},
                "$.constraints[0].family.centers[0]"),
    "zero_tol": ({"options": {"tol": "0"}}, "$.options.tol"),
    "negative_tol": ({"options": {"tol": "-1"}}, "$.options.tol"),
    "tol_below_floor": ({"options": {"tol": "1e-15"}}, "$.options.tol"),
    # refused before any center is built: the product would fill memory
    "center_box_over_cap": ({"constraints": [{"family": {
        "kind": "ball_grid", "center_box": [[0, 1e18], [0, 1]], "radius": "0.5"}}]},
        "$.constraints[0].family.center_box"),
    "fractional_seed": ({"options": {"seed": 1.5}}, "$.options.seed"),
    "negative_seed": ({"options": {"seed": -1}}, "$.options.seed"),
    "zero_samples": ({"options": {"samples": 0}}, "$.options.samples"),
    "negative_samples": ({"options": {"samples": -5}}, "$.options.samples"),
    # json reads it as an int that float() cannot take
    "huge_integer": ({"Q": {"upper": [10 ** 400, "0", "0", "-1", "0", "0"]}}, "$.Q.upper[0]"),
    "boolean_sign": ({"constraints": [{"family": {"kind": "parabola_set", "members": [
        {"lambdas": ["1", "1"], "sign": True}]}}]},
        "$.constraints[0].family.members[0].sign"),
}


@pytest.mark.parametrize("command", ["certify", "reduce", "solve", "oracle", "pipeline"])
@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_document_exit_one(tmp_path, capsys, command, case):
    # every subcommand reports the JSON path of a malformed node, never a traceback
    patch, path = _MALFORMED[case]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**_GOOD, **patch}))
    code, out, err = run([command, "--input", str(bad)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: %s:" % path)


@pytest.mark.parametrize("command,flags", [
    ("oracle", ["--samples", "0"]),
    ("oracle", ["--samples", "-5"]),
    ("oracle", ["--seed", "-1"]),
    ("pipeline", ["--seed", "-1"]),
])
def test_bad_samples_or_seed_flag_exit_one(tmp_path, capsys, command, flags):
    # a flag that overrides an option gets the option's check, under its own name
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_GOOD))
    code, out, err = run([command, "--input", str(good)] + flags, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: %s:" % flags[0])


@pytest.mark.parametrize("command,tol", [
    ("pipeline", "0"),
    ("pipeline", "-1"),
    ("pipeline", "nan"),
    ("pipeline", "inf"),
    ("reduce", "nan"),
    ("certify", "nan"),
])
def test_bad_tol_flag_exit_one(tmp_path, capsys, command, tol):
    # --tol gets the check $.options.tol has; --tol inf once gave a
    # certified verdict and exit 0
    path = write_problem(tmp_path, build_case("ex6.1").problem)
    code, out, err = run([command, "--input", path, "--tol", tol], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: --tol:")


def _usage_exit_code(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert "usage:" in capsys.readouterr().err
    return exc.value.code


def test_missing_input_is_a_usage_error_exit_one(capsys):
    # argparse's own exit code 2 would read as "not certified"
    assert _usage_exit_code(["pipeline"], capsys) == 1


@pytest.mark.parametrize("command,flag", [
    ("certify", "--seed"), ("reduce", "--seed"), ("solve", "--seed"),
    ("gallery", "--seed"), ("plot", "--seed"), ("oracle", "--tol"), ("plot", "--tol"),
])
def test_flag_the_command_does_not_read_exit_one(tmp_path, capsys, command, flag):
    argv = [command, flag, "1"]
    if command != "gallery":
        good = tmp_path / "good.json"
        good.write_text(json.dumps(_GOOD))
        argv += ["--input", str(good)]
    if command == "plot":
        argv += ["--out-base", str(tmp_path / "region")]
    assert _usage_exit_code(argv, capsys) == 1


def test_reduce_document_exposing_matrix_certifies_the_face(tmp_path, capsys):
    # numpy only: the reported exposing matrix E is psd and vanishes on the
    # face the basis spans, both within tol * ||E||
    tol = 1e-8
    p = build_case("ex6.1").problem
    u, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((p.n, p.n)))
    turned = GeoCop(n=p.n, Q=SymMat.from_dense(u.T @ p.Q.to_dense() @ u), H=p.H,
                    bset=constraint_set(p.n, [SymMat.from_dense(u.T @ m.to_dense() @ u)
                                              for m in p.bset.members]))
    for prob in (p, turned):
        path = write_problem(tmp_path, prob)
        code, out, _ = run(["reduce", "--input", path], capsys)
        assert code == 0
        red = json.loads(out)["reduction"]
        n = red["original_n"]
        e = np.zeros((n, n))
        e[np.triu_indices(n)] = [float(v) for v in red["exposing"]["upper"]]
        e = e + np.triu(e, 1).T
        basis = np.array([[float(v) for v in col] for col in red["basis"]]).T
        assert basis.shape == (n, red["reduced_n"]) and red["reduced_n"] < n
        norm = np.linalg.norm(e)
        assert np.linalg.eigvalsh(e)[0] >= -tol * norm
        assert np.linalg.norm(basis.T @ e @ basis) <= tol * norm


def test_solve_and_out_file(tmp_path, capsys):
    path = write_problem(tmp_path, build_case("ex6.1-reduced").problem)
    out_path = tmp_path / "result.json"
    code, out, _ = run(["solve", "--input", path, "--tol", "1e-9",
                        "--out", str(out_path)], capsys)
    assert code == 0 and out == ""
    doc = json.loads(out_path.read_text())
    assert doc["sdp"]["status"] == "optimal"
    assert abs(float(doc["sdp"]["value"]) + 0.8660254037844386) <= 1e-6


def test_oracle_command(tmp_path, capsys):
    path = write_problem(tmp_path, build_case("ex6.1-reduced").problem)
    code, out, _ = run(["oracle", "--input", path, "--samples", "40000",
                        "--seed", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert abs(float(doc["oracle"]["value"]) + 0.8660254037844386) <= 1e-6


def test_reduce_command(tmp_path, capsys):
    path = write_problem(tmp_path, build_case("ex6.1").problem)
    code, out, _ = run(["reduce", "--input", path], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["reduction"]["reduced_n"] == 2


def test_gallery_single_case(tmp_path, capsys):
    code, out, _ = run(["gallery", "--id", "ex6.1-reduced"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["cases"][0]["passed"]


def test_plot_command_writes_files(tmp_path, capsys):
    prob = GeoCop(n=3, Q=SymMat.diag([1.0, -1.0, 0.0]), H=SymMat.identity(3),
                  bset=build_case("fig2").problem.bset)
    path = write_problem(tmp_path, prob)
    base = str(tmp_path / "fig2")
    code, out, _ = run(["plot", "--input", path, "--out-base", base,
                        "--resolution", "160", "--box=-2.5,2.5,-2.5,2.5"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert (tmp_path / "fig2.ppm").exists() and (tmp_path / "fig2.svg").exists()
    frac = float(doc["plot"]["area_fraction"])
    assert abs(frac - np.pi / 25.0) <= 0.05


@pytest.mark.parametrize("flags,path", [
    (["--resolution", "0"], "--resolution"),
    (["--box=1,1,-2.5,2.5"], "--box"),
    (["--box=-2.5,2.5,2,-2"], "--box"),
    (["--box=-2.5,2.5,-2.5"], "--box"),
])
def test_plot_degenerate_grid_exit_one(tmp_path, capsys, flags, path):
    # a bad grid is refused before any file is written
    prob = GeoCop(n=3, Q=SymMat.diag([1.0, -1.0, 0.0]), H=SymMat.identity(3),
                  bset=build_case("fig2").problem.bset)
    doc = write_problem(tmp_path, prob)
    base = str(tmp_path / "fig2")
    code, out, err = run(["plot", "--input", doc, "--out-base", base] + flags, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: %s:" % path)
    assert not (tmp_path / "fig2.ppm").exists() and not (tmp_path / "fig2.svg").exists()


def test_restriction_is_applied_by_reduce_and_pipeline(capsys):
    code, out, _ = run(["reduce", "--input", RESTRICTED], capsys)
    assert code == 0
    assert json.loads(out)["reduction"]["reduced_n"] == 2
    code, out, _ = run(["pipeline", "--input", RESTRICTED], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["exactness"] == "certified_exact"
    assert abs(float(doc["value"]) + 0.8660254037844386) <= 1e-6


@pytest.mark.parametrize("command", ["solve", "certify", "oracle", "plot"])
def test_restriction_is_refused_where_not_applied(tmp_path, capsys, command):
    # these commands would answer the unrestricted problem (solve: value -5)
    argv = [command, "--input", RESTRICTED]
    if command == "plot":
        argv += ["--out-base", str(tmp_path / "region"), "--resolution", "8"]
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: $.restrict_matrix:")
    assert "pipeline" in err and "reduce" in err
    assert not list(tmp_path.iterdir())


# member 0 has x'B0x = -1 at x = (0, 1), but <B0,B0> overflows: its norm was
# inf, normalize scaled it to zero and pruning dropped it, so pipeline
# certified (0, 1) with exit 0
_OVERFLOWING = {"n": 2, "Q": {"upper": ["1", "0", "-1"]}, "H": {"upper": ["1", "0", "1"]},
                "constraints": [{"matrix": {"upper": ["1e200", "2", "-1"]}},
                                {"matrix": {"upper": ["-1", "0", "1"]}}]}


@pytest.mark.parametrize("command", ["pipeline", "certify"])
def test_overflowing_matrix_exit_one(tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_OVERFLOWING))
    code, out, err = run([command, "--input", str(bad)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: $.constraints[0].matrix:")


@pytest.mark.parametrize("command", ["pipeline", "reduce", "certify"])
def test_unreachable_tol_exit_one_without_traceback(capsys, command):
    # below the tolerance floor the solver's status would be set by roundoff
    path = os.path.join(os.path.dirname(RESTRICTED), "worked-example.json")
    code, out, err = run([command, "--input", path, "--tol", "1e-16"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: --tol: need a finite tolerance >= 1e-14\n"


@pytest.mark.parametrize("command", ["pipeline", "reduce", "certify"])
def test_numerical_slater_solve_exit_one_without_traceback(monkeypatch, tmp_path, capsys,
                                                          command):
    # the Slater solve comes first: facial reduction's for pipeline and
    # reduce, certify's own for certify.  No member or pair of this set
    # exposes its face, so facial reduction asks the interior-point core
    solve = sdpmod._conic_solve
    monkeypatch.setattr(sdpmod, "_conic_solve",
                        lambda *a, **k: dataclasses.replace(solve(*a, **k), status="numerical"))
    path = write_problem(tmp_path, three_member_face())
    code, out, err = run([command, "--input", path], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: max-rank detection failed with solver status 'numerical'\n"


def test_rank_zero_restriction_is_infeasible(tmp_path, capsys):
    # x in range(0) = {0} cannot meet x'Hx = 1: the problem is infeasible
    doc = dict(_GOOD, restrict_matrix={"cols": 1, "entries": ["0", "0", "0"]})
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(["pipeline", "--input", str(path)], capsys)
    assert code == 2
    doc = json.loads(out)
    assert doc["value"] == "inf" and doc["reduction"]["reduced_n"] == 0
    code, out, _ = run(["reduce", "--input", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["reduction"]["reduced_n"] == 0
