import json
import math
import os
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from exactsdp import docio, gallery
from exactsdp.model import GeoCop, constraint_set
from exactsdp.pipeline import PipelineConfig, run_pipeline
from exactsdp.symmat import SymMat
from exactsdp.gallery import build_case

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
EXAMPLES = os.path.join(ROOT, "docs", "examples")

MINIMAL = {
    "schema_version": 1,
    "n": 2,
    "Q": {"upper": ["1", "0", "-1"]},
    "H": {"upper": ["1", "0", "1"]},
    "constraints": [{"matrix": {"upper": ["-1", "-2", "-1"]}}],
}


def test_parse_minimal_document():
    p, opts = docio.parse_problem(json.dumps(MINIMAL))
    assert p.n == 2
    assert p.Q.to_dense().tolist() == [[1.0, 0.0], [0.0, -1.0]]
    assert p.bset.members[0].to_dense().tolist() == [[-1.0, -2.0], [-2.0, -1.0]]
    assert opts["tol"] == 1e-8 and opts["seed"] == 0


def test_parse_accepts_bytes_and_numbers():
    doc = dict(MINIMAL)
    doc["Q"] = {"upper": [1, 0, -1]}
    p, _ = docio.parse_problem(json.dumps(doc).encode())
    assert p.Q.to_dense()[1, 1] == -1.0


def test_missing_h_reports_path():
    doc = {k: v for k, v in MINIMAL.items() if k != "H"}
    with pytest.raises(docio.DocError) as err:
        docio.parse_problem(json.dumps(doc))
    assert err.value.path == "$.H"


def test_bad_entry_reports_indexed_path():
    doc = json.loads(json.dumps(MINIMAL))
    doc["Q"]["upper"][2] = "zz"
    with pytest.raises(docio.DocError) as err:
        docio.parse_problem(json.dumps(doc))
    assert err.value.path == "$.Q.upper[2]"


@pytest.mark.parametrize("where", ["Q", "H", "constraints"])
def test_overflowing_matrix_reports_path(where):
    # finite entries whose <M,M> overflows: normalize cannot scale them
    doc = json.loads(json.dumps(MINIMAL))
    node = doc["constraints"][0]["matrix"] if where == "constraints" else doc[where]
    node["upper"][1] = "1e160"
    with pytest.raises(docio.DocError) as err:
        docio.parse_problem(json.dumps(doc))
    assert err.value.path == {"Q": "$.Q", "H": "$.H",
                              "constraints": "$.constraints[0].matrix"}[where]


@pytest.mark.parametrize("family,message", [
    ({"centers": [[0, 0], [1e160, 0]], "radius": "0.5"}, "member 1: entries too large"),
    ({"centers": [[0, 0]], "radius": "1e200"}, "entries too large"),
    ({"center_box": [[0, 1e300], [0, 1]], "radius": "0.5"}, "center box too wide"),
])
def test_overflowing_family_member_reports_path(family, message):
    # the realized member overflows (numpy), its r^2 does (Python float), or
    # the box holds more centers than the cap (reported at the box)
    doc = dict(MINIMAL, n=3, Q={"upper": ["1", "0", "0", "-1", "0", "0"]},
               H={"upper": ["1", "0", "0", "1", "0", "1"]},
               constraints=[{"family": dict(family, kind="ball_grid")}])
    with pytest.raises(docio.DocError) as err:
        docio.parse_problem(json.dumps(doc))
    box = ".center_box" if "center_box" in family else ""
    assert err.value.path == "$.constraints[0].family" + box
    assert message in str(err.value)


def test_center_box_cap():
    # the centers are counted before any is built: 21 x 21 = 441 disks parse,
    # 23 x 23 = 529 are refused at the box
    def box_doc(side):
        return json.dumps(dict(MINIMAL, n=3, Q={"upper": ["1", "0", "0", "-1", "0", "0"]},
                               H={"upper": ["1", "0", "0", "1", "0", "1"]},
                               constraints=[{"family": {
                                   "kind": "ball_grid", "radius": "0.5",
                                   "center_box": [[-side, side], [-side, side]]}}]))
    assert len(docio.parse_problem(box_doc(10))[0].bset.members) == 441
    with pytest.raises(docio.DocError) as err:
        docio.parse_problem(box_doc(11))
    assert err.value.path == "$.constraints[0].family.center_box"
    assert str(err.value).endswith("center box too wide: more than 500 centers")


def test_ball_family_document_realizes_members():
    doc = {
        "n": 3,
        "Q": {"upper": ["1", "0", "0", "-1", "0", "0"]},
        "H": {"upper": ["1", "0", "0", "1", "0", "1"]},
        "constraints": [{"family": {"kind": "ball_grid",
                                    "center_box": [[-2, 2], [-2, 2]],
                                    "radius": "0.5"}}],
    }
    p, _ = docio.parse_problem(json.dumps(doc))
    assert len(p.bset.members) == 25


def test_unknown_family_kind_reports_path():
    doc = json.loads(json.dumps(MINIMAL))
    doc["constraints"] = [{"family": {"kind": "spiral"}}]
    with pytest.raises(docio.DocError) as err:
        docio.parse_problem(json.dumps(doc))
    assert err.value.path.endswith("family.kind")


def test_roundtrip_is_identity():
    p0, _ = docio.parse_problem(json.dumps(MINIMAL))
    text1 = docio.serialize(docio.problem_doc(p0))
    p1, _ = docio.parse_problem(text1)
    assert p1.Q.data == p0.Q.data and p1.H.data == p0.H.data
    assert [m.data for m in p1.bset.members] == [m.data for m in p0.bset.members]
    text2 = docio.serialize(docio.problem_doc(p1))
    assert text1 == text2  # canonical re-serialization is byte-identical


def test_verdict_document_is_json_serializable():
    v = run_pipeline(build_case("ex6.1-reduced").problem, PipelineConfig(tol=1e-9))
    doc = docio.verdict_doc(v)
    text = docio.serialize(doc)
    parsed = json.loads(text)
    assert parsed["exactness"] == "certified_exact"
    assert float(parsed["value"]) == v.value
    pair = parsed["certification"]["condition_b"]["pairs"][0]
    assert (float(pair["alpha"]), float(pair["beta"])) == (1.0, 1.0)


def test_lift_and_restriction_matrices_roundtrip():
    L = (3, 4, tuple(float(v) for v in np.arange(12)))
    R = (4, 2, tuple(float(v) for v in np.arange(8)))
    p = GeoCop(n=4, Q=SymMat.identity(4), H=SymMat.identity(4),
               bset=constraint_set(4, [SymMat.zeros(4)]), lift=L, restrict_to=R)
    text = docio.serialize(docio.problem_doc(p))
    p2, _ = docio.parse_problem(text)
    assert p2.lift == L
    assert p2.restrict_to == R


# --------------------------------------------------------------------------
# the document writer: json.dumps(indent=2, sort_keys=True), byte for byte
# --------------------------------------------------------------------------

def _json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


_STRINGS = st.text(alphabet=st.one_of(st.characters(), st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f')))
_FLOATS = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0]))
_LEAVES = st.one_of(_STRINGS, st.integers(), st.booleans(), st.none(), _FLOATS,
                    _FLOATS.map(np.float64))
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=10), st.tuples(inner, inner),
                            st.dictionaries(_STRINGS, inner, max_size=4),
                            st.dictionaries(st.integers(), inner, max_size=3)),
    max_leaves=25)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.dictionaries(_STRINGS, _VALUES, max_size=5))
def test_serialize_writes_json_indented_text(doc):
    assert docio.serialize(doc) == _json_text(doc)


@pytest.mark.parametrize("value", [object(), np.int64(1), np.bool_(True), {1j: 1},
                                   [1, {"a": {b"bytes": 1}}], {"a": {"b": set()}}])
def test_serialize_refuses_what_json_refuses(value):
    with pytest.raises(TypeError):
        json.dumps({"k": value}, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        docio.serialize({"k": value})


def _corpus_documents():
    """Every docs/examples pipeline result, the gallery report and both
    benchmark workloads' pipeline results at seeds 1-5."""
    docs = []
    for name in sorted(os.listdir(EXAMPLES)):
        with open(os.path.join(EXAMPLES, name), "rb") as fh:
            problem, opts = docio.parse_problem(fh.read())
        cfg = PipelineConfig(tol=opts["tol"], cert_tol=opts["tol"], seed=opts["seed"])
        docs.append(docio.verdict_doc(run_pipeline(problem, cfg)))
    docs.append({"schema_version": docio.SCHEMA_VERSION, "command": "gallery",
                 "cases": gallery.run_acceptance()})
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    for name in ("ball-family", "reduce-refute"):
        for seed in range(1, 6):
            for op in workloads.build(name, seed).ops:
                for item in op:
                    problem, opts = docio.parse_problem(item.doc)
                    cfg = PipelineConfig(tol=opts["tol"], cert_tol=opts["tol"], seed=opts["seed"])
                    docs.append(docio.verdict_doc(run_pipeline(problem, cfg)))
    return docs


def test_serialize_matches_json_on_every_corpus_document():
    docs = _corpus_documents()
    assert len(docs) >= 4 + 1 + 5 * 2
    for doc in docs:
        assert docio.serialize(doc) == _json_text(doc)
