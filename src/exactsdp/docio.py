"""JSON problem and result documents.

Numbers travel as decimal strings so the worked examples' rationals stay
exact (-0.5 stays "-0.5"); parsing uses Python's correctly-rounded float
conversion, and serialization uses repr, so parse -> serialize -> parse is
the identity on the realized problem.
"""
from __future__ import annotations

import json
import math
from typing import Optional

import numpy as np

from .model import (BallGrid, GeneralizedHyperbola, GeoCop,
                    HyperbolaSeq, ParabolaMember, ParabolaSet, build_family,
                    constraint_set, integer_grid)
from .symmat import SymMat, packed_len

SCHEMA_VERSION = 1


class DocError(ValueError):
    """Schema violation, carrying the JSON path of the offending node."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__("%s: %s" % (path, message))


def _num(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise DocError(path, "expected a number or decimal string")
    try:
        out = float(value)
    except ValueError:
        raise DocError(path, "bad decimal string %r" % (value,))
    except OverflowError:  # an integer beyond the float range
        raise DocError(path, "non-finite value")
    if not math.isfinite(out):
        raise DocError(path, "non-finite value")
    return out


def _int(value, path: str) -> int:
    # int() would truncate 1.5 to 1 and read true as 1
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise DocError(path, "expected an integer")
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise DocError(path, "expected an integer")


_OPTION_FLOOR = {"seed": 0, "samples": 1}
# below it, whether a solve's residuals reach tol is decided by roundoff
TOL_FLOOR = 1e-14


def check_option(name: str, value, path: str):
    """The option `name`, or a DocError at path when it is out of range: tol
    must be finite and at least TOL_FLOOR, an integer option at least its
    floor.  The CLI checks the flags that override options with it too."""
    if name == "tol":
        if not TOL_FLOOR <= value < math.inf:
            raise DocError(path, "need a finite tolerance >= %g" % TOL_FLOOR)
    elif value < _OPTION_FLOOR[name]:
        raise DocError(path, "need an integer >= %d" % _OPTION_FLOOR[name])
    return value


def _object(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise DocError(path, "expected an object")
    return node


def _list(node, path: str) -> list:
    if not isinstance(node, list):
        raise DocError(path, "expected a list")
    return node


def _nums(node, path: str) -> tuple:
    return tuple(_num(v, "%s[%d]" % (path, i)) for i, v in enumerate(_list(node, path)))


def _matrix(node, n: int, path: str) -> SymMat:
    if not isinstance(node, dict) or "upper" not in node:
        raise DocError(path, "expected {\"upper\": [...]} with the row-major upper triangle")
    upper = node["upper"]
    if not isinstance(upper, list) or len(upper) != packed_len(n):
        raise DocError(path + ".upper", "need %d entries for n=%d" % (packed_len(n), n))
    return _sized(SymMat.from_upper(
        n, [_num(v, "%s.upper[%d]" % (path, i)) for i, v in enumerate(upper)]), path)


def _sized(m: SymMat, path: str, prefix: str = "") -> SymMat:
    """m, or a DocError at path when <m,m> overflows: its norm would be inf,
    and normalize could not scale it."""
    if not math.isfinite(m.norm()):
        raise DocError(path, prefix + "entries too large: <M,M> overflows")
    return m


def _family(node, n: int, path: str):
    node = _object(node, path)
    kind = node.get("kind")
    if kind == "ball_grid":
        if "centers" in node:
            cp = path + ".centers"
            centers = tuple(_nums(c, "%s[%d]" % (cp, i))
                            for i, c in enumerate(_list(node["centers"], cp)))
        elif "center_box" in node:
            box = []
            for i, pair in enumerate(_list(node["center_box"], path + ".center_box")):
                bp = "%s.center_box[%d]" % (path, i)
                if not isinstance(pair, list) or len(pair) != 2:
                    raise DocError(bp, "expected [lo, hi]")
                box.append(_nums(pair, bp))
            try:
                centers = tuple(integer_grid(box))
            except ValueError as exc:
                raise DocError(path + ".center_box", str(exc))
        else:
            raise DocError(path, "ball_grid needs centers or center_box")
        return BallGrid(centers=centers, radius=_num(node.get("radius"), path + ".radius"))
    if kind == "hyperbola_seq":
        return HyperbolaSeq(breakpoints=_nums(node.get("breakpoints", []), path + ".breakpoints"),
                            r2=_num(node.get("r2"), path + ".r2"))
    if kind == "parabola_set":
        members = []
        for i, m in enumerate(_list(node.get("members", []), path + ".members")):
            mp = "%s.members[%d]" % (path, i)
            m = _object(m, mp)
            transform = None
            if m.get("transform") is not None:
                transform = _nums(m["transform"], mp + ".transform")
            members.append(ParabolaMember(lambdas=_nums(m.get("lambdas", []), mp + ".lambdas"),
                                          sign=_int(m.get("sign", 1), mp + ".sign"),
                                          transform=transform))
        return ParabolaSet(members=tuple(members))
    if kind == "generalized_hyperbola":
        return GeneralizedHyperbola(
            lambdas=_nums(node.get("lambdas", []), path + ".lambdas"),
            sigmas=_nums(node.get("sigmas", []), path + ".sigmas"),
            split=_int(node.get("split", 1), path + ".split"),
        )
    raise DocError(path + ".kind", "unknown family kind %r" % (kind,))


def parse_problem(data) -> tuple:
    """bytes/str/dict -> (GeoCop, options dict)."""
    if isinstance(data, (bytes, bytearray)):
        data = data.decode("utf-8")
    if isinstance(data, str):
        try:
            doc = json.loads(data)
        except json.JSONDecodeError as exc:
            raise DocError("$", "invalid JSON: %s" % exc)
    else:
        doc = data
    if not isinstance(doc, dict):
        raise DocError("$", "expected an object")
    if "n" not in doc:
        raise DocError("$.n", "missing dimension")
    n = doc["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise DocError("$.n", "need a positive integer")
    if "Q" not in doc:
        raise DocError("$.Q", "missing objective matrix")
    if "H" not in doc:
        raise DocError("$.H", "missing normalization matrix")
    q = _matrix(doc["Q"], n, "$.Q")
    h = _matrix(doc["H"], n, "$.H")
    if all(v == 0.0 for v in h.data):
        raise DocError("$.H", "all-zero matrix: <H, xx^T> = 1 has no solution")
    members = []
    for i, c in enumerate(_list(doc.get("constraints", []), "$.constraints")):
        path = "$.constraints[%d]" % i
        c = _object(c, path)
        if "matrix" in c:
            members.append(_matrix(c["matrix"], n, path + ".matrix"))
        elif "family" in c:
            try:
                fam = _family(c["family"], n, path + ".family")
                # a member that overflows is refused here, not warned about
                with np.errstate(over="ignore", invalid="ignore"):
                    members.extend(_sized(m, path + ".family", "member %d: " % k)
                                   for k, m in enumerate(build_family(fam, n).members))
            except DocError:
                raise
            except ValueError as exc:
                raise DocError(path + ".family", str(exc))
        else:
            raise DocError(path, "need matrix or family")
    if not members:
        members = [SymMat.zeros(n)]
    lift = None
    if doc.get("lift_matrix") is not None:
        lm = _object(doc["lift_matrix"], "$.lift_matrix")
        rows = _int(lm.get("rows", 0), "$.lift_matrix.rows")
        entries = _nums(lm.get("entries", []), "$.lift_matrix.entries")
        if rows <= 0 or len(entries) != rows * n:
            raise DocError("$.lift_matrix", "need rows x n entries")
        lift = (rows, n, entries)
    restrict = None
    if doc.get("restrict_matrix") is not None:
        rm = _object(doc["restrict_matrix"], "$.restrict_matrix")
        cols = _int(rm.get("cols", 0), "$.restrict_matrix.cols")
        entries = _nums(rm.get("entries", []), "$.restrict_matrix.entries")
        if cols <= 0 or len(entries) != n * cols:
            raise DocError("$.restrict_matrix", "need n x cols entries")
        restrict = (n, cols, entries)
    options = _object(doc.get("options", {}), "$.options")
    opts = {
        "tol": _num(options.get("tol", "1e-8"), "$.options.tol"),
        "seed": _int(options.get("seed", 0), "$.options.seed"),
        "samples": _int(options.get("samples", 200_000), "$.options.samples"),
    }
    for name in opts:
        check_option(name, opts[name], "$.options." + name)
    problem = GeoCop(n=n, Q=q, H=h, bset=constraint_set(n, members), lift=lift,
                     restrict_to=restrict)
    return problem, opts


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def _dec(x) -> str:
    return repr(float(x))


def matrix_doc(m: SymMat) -> dict:
    return {"upper": [_dec(v) for v in m.data]}


def problem_doc(p: GeoCop, options: Optional[dict] = None) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "n": p.n,
        "Q": matrix_doc(p.Q),
        "H": matrix_doc(p.H),
        "constraints": [{"matrix": matrix_doc(m)} for m in p.bset.members],
    }
    if p.lift is not None:
        rows, cols, entries = p.lift
        doc["lift_matrix"] = {"rows": rows, "entries": [_dec(v) for v in entries]}
    if p.restrict_to is not None:
        _, cols, entries = p.restrict_to
        doc["restrict_matrix"] = {"cols": cols, "entries": [_dec(v) for v in entries]}
    if options:
        doc["options"] = {"tol": _dec(options.get("tol", 1e-8)),
                          "seed": int(options.get("seed", 0)),
                          "samples": int(options.get("samples", 200_000))}
    return doc


# json's string escaper: its C accelerator where the interpreter has one
_escape = json.encoder.encode_basestring_ascii


def _float(o) -> str:
    if o != o:
        return "NaN"
    if o in (math.inf, -math.inf):
        return "Infinity" if o > 0 else "-Infinity"
    return float.__repr__(o)


def _scalar(o) -> str:
    """json's text for None, a bool, an int or a float, subclasses read
    through int.__repr__ and float.__repr__ as json reads them."""
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float(o)
    raise TypeError("Object of type %s is not JSON serializable" % type(o).__name__)


# the writer of each exact leaf type, looked up before any isinstance test
_LEAF = {str: _escape, int: int.__repr__, float: _float, bool: _scalar, type(None): _scalar}


def _key(k) -> str:
    """A dict key as the JSON string json writes for it."""
    if isinstance(k, str):
        return _escape(k)
    if k is None or isinstance(k, (int, float)):
        return _escape(_scalar(k))
    raise TypeError("keys must be str, int, float, bool or None, not %s" % type(k).__name__)


def _text(o, indent: str) -> str:
    """o as json.dumps(o, indent=2, sort_keys=True) writes it at indent."""
    if isinstance(o, str):
        return _escape(o)
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = indent + "  "
        items = [leaf(v) if (leaf := _LEAF.get(type(v))) else _text(v, inner) for v in o]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = indent + "  "
        items = [(_escape(k) if type(k) is str else _key(k)) + ": "
                 + (leaf(v) if (leaf := _LEAF.get(type(v))) else _text(v, inner))
                 for k, v in sorted(o.items())]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    return _scalar(o)


def serialize(doc: dict) -> str:
    """The document as json.dumps(doc, indent=2, sort_keys=True) + newline,
    byte for byte, without the pure-Python indenting encoder."""
    return _text(doc, "") + "\n"


def _vec(v) -> list:
    return [_dec(x) for x in np.asarray(v, dtype=float).ravel()]


def pair_verdict_doc(v) -> dict:
    out = {"pair": list(v.pair), "status": v.status, "margin": _dec(v.margin)}
    if v.certificate is not None:
        out["alpha"] = _dec(v.certificate[0])
        out["beta"] = _dec(v.certificate[1])
    if v.witness is not None:
        out["witness"] = matrix_doc(v.witness)
    if v.witness_point is not None:
        out["witness_point"] = _vec(v.witness_point)
    return out


def cert_doc(rep) -> dict:
    out = {
        "overall": rep.overall,
        "structural": {
            "a1": bool(rep.structural.a1),
            "a2": rep.structural.a2 if rep.structural.a2 is None else bool(rep.structural.a2),
            "a3": bool(rep.structural.a3),
            "a4": bool(rep.structural.a4),
            "a5": bool(rep.structural.a5),
            "slater_margin": _dec(rep.structural.slater_margin),
        },
        "condition_b": {
            "status": rep.condition_b.status,
            "pairs": [pair_verdict_doc(v) for v in rep.condition_b.pairs],
        },
    }
    if rep.slice_conditions is not None:
        sc = rep.slice_conditions
        out["slice_conditions"] = {
            "b_prime": sc.b_prime_status,
            "c_prime": sc.c_prime_status,
            "b_prime_pairs": [pair_verdict_doc(v) for v in sc.b_prime_pairs],
            "c_prime_members": [
                {"index": m.index, "status": m.status, "value": _dec(m.value),
                 **({"witness_point": _vec(m.witness_point)} if m.witness_point else {})}
                for m in sc.c_prime_members
            ],
        }
    if rep.classification is not None:
        out["classification"] = {
            "case": rep.classification.case,
            "exposing_index": rep.classification.exposing_index,
        }
    return out


def sdp_doc(sol) -> dict:
    out = {
        "status": sol.status,
        "value": _dec(sol.value),
        "dual_value": _dec(sol.dual_value),
        "iterations": sol.iterations,
        "residuals": [_dec(r) for r in sol.residuals],
        "dual_eq": _vec(sol.dual_eq),
        "dual_ineq": _vec(sol.dual_ineq),
    }
    if sol.X is not None:
        out["X"] = matrix_doc(sol.X)
    return out


def reduction_doc(rr) -> dict:
    out = {
        "original_n": rr.original_n,
        "reduced_n": rr.reduced_n,
        "slater_margin": _dec(rr.slater_margin),
        "rounds": rr.rounds,
        "pruned_indices": list(rr.pruned_indices),
        "basis": [_vec(rr.basis[:, j]) for j in range(rr.basis.shape[1])],
    }
    if rr.exposing is not None:
        out["exposing"] = matrix_doc(rr.exposing)
    if rr.reduced is not None:
        out["reduced"] = {
            "Q": matrix_doc(rr.reduced.Q),
            "H": matrix_doc(rr.reduced.H),
            "constraints": [{"matrix": matrix_doc(m)} for m in rr.reduced.bset.members],
        }
    return out


def verdict_doc(v) -> dict:
    out = {
        "schema_version": SCHEMA_VERSION,
        "exactness": v.exactness,
        "value": _dec(v.value),
        "reduction": reduction_doc(v.reduction),
        "stage_notes": list(v.stage_notes),
    }
    if v.cert is not None:
        out["certification"] = cert_doc(v.cert)
    if v.sdp is not None:
        out["sdp"] = sdp_doc(v.sdp)
    if v.rank_one is not None:
        out["rank_one"] = {
            "eigenratio": _dec(v.rank_one.eigenratio),
            "feas_residual": _dec(v.rank_one.feas_residual),
            "obj_gap": _dec(v.rank_one.obj_gap),
            "confident": bool(v.rank_one.confident),
            "retried": bool(v.rank_one.retried),
        }
        if v.rank_one.x is not None:
            out["rank_one"]["x"] = _vec(v.rank_one.x)
    if v.lifted_x is not None:
        out["lifted_x"] = _vec(v.lifted_x)
    return out


def oracle_doc(res) -> dict:
    out = {
        "value": _dec(res.value),
        "samples_used": res.samples_used,
        "refined": bool(res.refined),
        "feasible_found": bool(res.feasible_found),
    }
    if res.argmin is not None:
        out["argmin"] = _vec(res.argmin)
    return out
