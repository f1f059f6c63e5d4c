"""Checks of result documents, made apart from exactsdp.

A check reads only the problem document and the result document.  It uses
numpy's eigvalsh and direct quadratic forms, never exactsdp's eigensolver,
and rebuilds every constraint member from the problem document itself.
Each check returns a list of failures; an empty list means the document
passed.
"""
from __future__ import annotations

import itertools
import json
import math

import numpy as np

# the pipeline's own bounds for a confident rank-one point (feasibility and
# objective gap), used here for lifted points
POINT_TOL = 1e-6
# slack for dual slack matrices, primal residuals and PSD tests of solver
# output, relative to the data scale; the solver stops at 1e-8 to 1e-9
SOLVER_TOL = 1e-6
# acceptance gate of Example 6.1: value within 1e-6 of -sqrt(3)/2
EX61_VALUE = -math.sqrt(3.0) / 2.0
EX61_VALUE_TOL = 1e-6


class Failures(list):
    def need(self, ok, message):
        if not ok:
            self.append(message)
        return bool(ok)


# --------------------------------------------------------------------------
# reading documents
# --------------------------------------------------------------------------

def dense(n: int, node) -> np.ndarray:
    vals = [float(v) for v in node["upper"]]
    if len(vals) != n * (n + 1) // 2:
        raise ValueError("need %d upper-triangle entries" % (n * (n + 1) // 2))
    a = np.zeros((n, n))
    a[np.triu_indices(n)] = vals
    return a + np.triu(a, 1).T


def vector(node) -> np.ndarray:
    return np.array([float(v) for v in node], dtype=float)


def lambda_min(a) -> float:
    return float(np.linalg.eigvalsh((a + a.T) / 2.0)[0])


def fro(a) -> float:
    return float(np.linalg.norm(a))


def _grid(box):
    axes = [range(math.ceil(float(lo)), math.floor(float(hi)) + 1) for lo, hi in box]
    return [np.array(p, dtype=float) for p in itertools.product(*axes)]


def _disk(center, radius):
    n = center.size + 1
    a = np.eye(n)
    a[:-1, -1] = -center
    a[-1, :-1] = -center
    a[-1, -1] = float(center @ center) - radius * radius
    return a


class Problem:
    """The problem document, realized into dense numpy matrices."""

    def __init__(self, raw):
        doc = json.loads(raw)
        n = self.n = int(doc["n"])
        self.Q = dense(n, doc["Q"])
        self.H = dense(n, doc["H"])
        self.tol = float(doc.get("options", {}).get("tol", "1e-8"))
        self.members = []
        for c in doc["constraints"]:
            if "matrix" in c:
                self.members.append(dense(n, c["matrix"]))
                continue
            fam = c["family"]
            if fam["kind"] != "ball_grid" or "center_box" not in fam:
                raise ValueError("only ball_grid families with a center_box are checked")
            r = float(fam["radius"])
            self.members.extend(_disk(t, r) for t in _grid(fam["center_box"]))
        self.restrict = None
        if "restrict_matrix" in doc:
            rm = doc["restrict_matrix"]
            self.restrict = vector(rm["entries"]).reshape(n, int(rm["cols"]))


class Reduced:
    """The reduced and pruned problem that a pipeline document lists."""

    def __init__(self, out: dict):
        red = out["reduction"]
        self.n = int(red["reduced_n"])
        self.basis = np.array([vector(col) for col in red["basis"]]).T.reshape(-1, self.n)
        self.pruned_indices = tuple(int(i) for i in red["pruned_indices"])
        body = red["reduced"]
        self.Q = dense(self.n, body["Q"])
        self.H = dense(self.n, body["H"])
        self.members = [dense(self.n, c["matrix"]) for c in body["constraints"]]
        self.kept = [m for i, m in enumerate(self.members) if i not in self.pruned_indices]


def _direction(a):
    nrm = fro(a)
    return a / nrm if nrm > 0.0 else a


# --------------------------------------------------------------------------
# shared pieces
# --------------------------------------------------------------------------

def check_reduction(f: Failures, prob: Problem, red: Reduced):
    """The reduced data is the original data on the face that the basis spans.

    Each reduced member must be a positive multiple of P^T B P for a distinct
    original member B (the pipeline normalizes, so only directions compare),
    and only members that project to zero may be missing.  Pruned members
    must be psd on the face, so their inequalities hold everywhere.
    """
    p = red.basis
    f.need(p.shape == (prob.n, red.n), "basis shape %s" % (p.shape,))
    f.need(fro(p.T @ p - np.eye(red.n)) <= 1e-9, "basis columns are not orthonormal")
    scale_q = max(fro(p.T @ prob.Q @ p), fro(red.Q), 1e-300)
    f.need(fro(p.T @ prob.Q @ p - red.Q) <= 1e-9 * scale_q, "reduced Q is not P'QP")
    f.need(fro(p.T @ prob.H @ p - red.H) <= 1e-9 * max(1.0, fro(red.H)),
           "reduced H is not P'HP")
    projected = [_direction(p.T @ b @ p) for b in prob.members]
    unused = [i for i, m in enumerate(projected) if fro(m) > 0.0]
    for k, m in enumerate(red.members):
        d = _direction(m)
        match = [i for i in unused if fro(projected[i] - d) <= 1e-7]
        if f.need(match, "reduced member %d matches no projected original member" % k):
            unused.remove(match[0])
    for i in unused:
        f.need(fro(p.T @ prob.members[i] @ p) <= 1e-9 * max(1.0, fro(prob.members[i])),
               "original member %d is missing from the reduced problem" % i)
    for i in red.pruned_indices:
        m = red.members[i]
        f.need(lambda_min(m) >= -prob.tol * max(1.0, fro(m)),
               "pruned member %d is not psd on the face" % i)


def check_pair_certificates(f: Failures, members, pairs, tol: float):
    """Every unordered pair carries alpha, beta > 0 with alpha A + beta B psd."""
    want = {(i, j) for i in range(len(members)) for j in range(i + 1, len(members))}
    seen = set()
    for pv in pairs:
        i, j = (int(v) for v in pv["pair"])
        seen.add((i, j))
        if not f.need(pv["status"] == "certified", "pair %s is %s" % ((i, j), pv["status"])):
            continue
        alpha, beta = float(pv["alpha"]), float(pv["beta"])
        a, b = members[i], members[j]
        f.need(alpha > 0.0 and beta > 0.0, "pair %s: alpha, beta not positive" % ((i, j),))
        lam = lambda_min(alpha * a + beta * b)
        f.need(lam >= -tol * (fro(a) + fro(b)),
               "pair %s: lambda_min(alpha A + beta B) = %.3g" % ((i, j), lam))
    f.need(seen == want, "pairs listed %d, pairs of members %d" % (len(seen), len(want)))


def check_optimal_dual(f: Failures, q, h, members, sdp: dict, value: float):
    """Q - y0 H - sum y_i B_i psd with y >= 0 proves the value y0 is optimal."""
    y0 = vector(sdp["dual_eq"])
    y = vector(sdp["dual_ineq"])
    if not f.need(y0.size == 1 and y.size == len(members), "dual vector sizes"):
        return
    scale = fro(q) + abs(y0[0]) * fro(h) + sum(abs(v) * fro(m) for v, m in zip(y, members))
    f.need(y.min(initial=0.0) >= -SOLVER_TOL * max(1.0, np.abs(y).max(initial=0.0)),
           "negative multiplier %.3g" % y.min(initial=0.0))
    slack = q - y0[0] * h - sum((v * m for v, m in zip(y, members)), np.zeros_like(q))
    lam = lambda_min(slack)
    f.need(lam >= -SOLVER_TOL * scale, "dual slack lambda_min %.3g" % lam)
    f.need(abs(y0[0] - value) <= SOLVER_TOL * (1.0 + abs(value)),
           "dual value %.12g against value %.12g" % (y0[0], value))


def check_point(f: Failures, prob: Problem, x, value: float):
    """x'Hx = 1, x'Bx >= 0 for every original member, x'Qx = value."""
    if not f.need(x is not None and x.size == prob.n, "lifted_x missing or misshapen"):
        return
    f.need(abs(float(x @ prob.H @ x) - 1.0) <= POINT_TOL, "x'Hx = %.12g" % float(x @ prob.H @ x))
    for i, b in enumerate(prob.members):
        qb = float(x @ b @ x)
        f.need(qb >= -POINT_TOL * max(1.0, fro(b)), "x'B_%d x = %.3g" % (i, qb))
    qx = float(x @ prob.Q @ x)
    f.need(abs(qx - value) <= POINT_TOL * (1.0 + abs(value)),
           "x'Qx = %.12g against value %.12g" % (qx, value))
    if prob.restrict is not None:
        lmat = prob.restrict
        resid = x - lmat @ np.linalg.lstsq(lmat, x, rcond=None)[0]
        f.need(fro(resid) <= POINT_TOL, "lifted_x leaves range(L) by %.3g" % fro(resid))


def _q_slice(b, u) -> float:
    x = np.append(np.asarray(u, dtype=float), 1.0)
    return float(x @ b @ x)


# --------------------------------------------------------------------------
# per-kind checks
# --------------------------------------------------------------------------

def check_ball(prob: Problem, out: dict) -> Failures:
    f = Failures()
    f.need(out.get("exactness") == "certified_exact", "exactness %r" % out.get("exactness"))
    cert = out.get("certification", {})
    f.need(cert.get("overall") == "certified", "overall %r" % cert.get("overall"))
    red = Reduced(out)
    check_reduction(f, prob, red)
    # distinct disks of one radius never contain each other's outsides
    f.need(not red.pruned_indices, "disks pruned: %s" % (red.pruned_indices,))
    check_pair_certificates(f, red.kept, cert["condition_b"]["pairs"], prob.tol)
    value = float(out["value"])
    check_point(f, prob, vector(out["lifted_x"]) if "lifted_x" in out else None, value)
    check_optimal_dual(f, red.Q, red.H, red.kept, out["sdp"], value)
    return f


def check_dense(prob: Problem, out: dict) -> Failures:
    f = Failures()
    sdp = out["sdp"]
    if not f.need(sdp["status"] == "optimal" and "X" in sdp, "status %r" % sdp["status"]):
        return f
    x = dense(prob.n, sdp["X"])
    scale_x = max(1.0, fro(x))
    f.need(lambda_min(x) >= -SOLVER_TOL * scale_x, "X lambda_min %.3g" % lambda_min(x))
    f.need(abs(float((prob.H * x).sum()) - 1.0) <= SOLVER_TOL, "<H,X> != 1")
    worst = min(float((b * x).sum()) / max(1.0, fro(b)) for b in prob.members)
    f.need(worst >= -SOLVER_TOL * scale_x, "<B,X> = %.3g" % worst)
    primal = float((prob.Q * x).sum())
    value = float(sdp["value"])
    f.need(abs(primal - value) <= SOLVER_TOL * (1.0 + abs(value)),
           "<Q,X> = %.12g against value %.12g" % (primal, value))
    f.need(abs(float(sdp["dual_value"]) - value) <= SOLVER_TOL * (1.0 + abs(value)),
           "primal and dual values differ")
    check_optimal_dual(f, prob.Q, prob.H, prob.members, sdp, primal)
    return f


def check_ex61(prob: Problem, out: dict) -> Failures:
    f = Failures()
    f.need(out.get("exactness") == "certified_exact", "exactness %r" % out.get("exactness"))
    value = float(out["value"])
    f.need(abs(value - EX61_VALUE) <= EX61_VALUE_TOL,
           "value %.12g, -sqrt(3)/2 %.12g" % (value, EX61_VALUE))
    red = Reduced(out)
    f.need(red.n == 2, "reduced to S^%d, not S^2" % red.n)
    check_reduction(f, prob, red)
    f.need(len(red.pruned_indices) == 1, "pruned %s" % (red.pruned_indices,))
    cert = out.get("certification", {})
    f.need(cert.get("classification", {}).get("case") == "a", "classification is not case (a)")
    check_pair_certificates(f, red.kept, cert["condition_b"]["pairs"], prob.tol)
    check_point(f, prob, vector(out["lifted_x"]) if "lifted_x" in out else None, value)
    check_optimal_dual(f, red.Q, red.H, red.kept, out["sdp"], value)
    return f


def check_disks(prob: Problem, out: dict) -> Failures:
    """Overlapping disks: not certified, with witnesses that hold up."""
    f = Failures()
    cert = out.get("certification", {})
    f.need(cert.get("overall") == "not_certified", "overall %r" % cert.get("overall"))
    red = Reduced(out)
    check_reduction(f, prob, red)
    if prob.restrict is not None:
        lmat = prob.restrict
        span = red.basis @ red.basis.T
        f.need(fro(span @ lmat - lmat) <= 1e-7 * fro(lmat), "face is not range(L)")
    members = red.kept
    tol = prob.tol
    pairs = cert["condition_b"]["pairs"]
    f.need(cert["condition_b"]["status"] == "not_certified", "condition (B) not refuted")
    for pv in pairs:
        if pv["status"] != "refuted":
            continue
        i, j = (int(v) for v in pv["pair"])
        a, b = members[i], members[j]
        if not f.need("witness" in pv, "refuted pair %s without witness" % ((i, j),)):
            continue
        x = dense(red.n, pv["witness"])
        sx = max(1.0, fro(x))
        f.need(lambda_min(x) >= -tol * sx, "witness X not psd: %.3g" % lambda_min(x))
        f.need(float((b * x).sum()) <= tol * fro(b) * sx, "<B,X> = %.3g" % float((b * x).sum()))
        f.need(float((a * x).sum()) < -tol * fro(a) * sx, "<A,X> = %.3g" % float((a * x).sum()))
    f.need(any(pv["status"] == "refuted" for pv in pairs), "no refuted pair")
    sc = cert.get("slice_conditions", {})
    f.need(sc.get("b_prime") == "not_certified", "(B)' is %r" % sc.get("b_prime"))
    pointed = 0
    for pv in sc.get("b_prime_pairs", ()):
        if pv["status"] != "refuted":
            continue
        i, j = (int(v) for v in pv["pair"])
        if not f.need("witness_point" in pv, "refuted slice pair without witness point"):
            continue
        pointed += 1
        u = vector(pv["witness_point"])
        ok = any(_q_slice(b, u) <= tol and _q_slice(a, u) < -tol
                 for a, b in ((members[i], members[j]), (members[j], members[i])))
        f.need(ok, "witness point %s fails q(u,1,B) <= tol, q(u,1,A) < -tol" % (u,))
    f.need(pointed > 0, "no witness point")
    return f


CHECKS = {"ball": check_ball, "dense": check_dense, "ex61": check_ex61, "disks": check_disks}


def check(kind: str, problem_doc: bytes, result_doc: str) -> list:
    """Failures of one result document (empty when it passes)."""
    try:
        return list(CHECKS[kind](Problem(problem_doc), json.loads(result_doc)))
    except (KeyError, ValueError, TypeError, IndexError, np.linalg.LinAlgError) as exc:
        return ["malformed document: %s: %s" % (type(exc).__name__, exc)]
