"""Executable fixtures for the worked examples and figures, plus a replay
harness that runs the named, tagged checks of each case.

Case ids are stable public strings (used by the CLI):
  ex6.1, ex6.1-reduced, fig1-b1b2b3, fig1-b1b6, fig1-b1b6-r1, fig1-b1b3b5,
  fig1-b2b4, fig2, ex6.2-ball, ex6.3, ex6.3-congruence, ex6.4,
  ex6.5-fig6b, ex6.5-fig6c, overlap-disks
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certify import (CERTIFIED, check_Bprime_Cprime, check_condition_B,
                      check_pair_B, classify)
from .model import (BallGrid, GeoCop, GeneralizedHyperbola, HyperbolaSeq,
                    ParabolaMember, ParabolaSet, build_family, constraint_set,
                    integer_grid, normalize)
from .pipeline import PipelineConfig, run_pipeline
from .reduction import facial_reduce, remove_redundant
from .symmat import SymMat, inner, lambda_min
from . import sdp as sdpmod

SQRT3_OVER_2 = math.sqrt(3.0) / 2.0


@dataclass
class GalleryCase:
    id: str
    problem: object            # GeoCop or ConstraintSet


# --------------------------------------------------------------------------
# fixture builders
# --------------------------------------------------------------------------

def ex61_matrices():
    a = SymMat.from_dense([[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
    b = SymMat.from_dense([[-1, -2, 0, -1], [-2, -1, 0, 0], [0, 0, 1, -1], [-1, 0, -1, -1]])
    c = SymMat.from_dense([[1, 2, 0, 1], [2, 1, 0, 0], [0, 0, -3, 2], [1, 0, 2, -1]])
    return a, b, c


def ex61_reduced_matrices():
    b = SymMat.from_dense([[-1, -2], [-2, -1]])
    return b, b.scale(-1.0)


def fig1_member(k: int, r: float = 0.5) -> SymMat:
    """The six slice constraints of the first figure (r parametrizes the disk).

    The fifth one is the half-plane u2 <= -1 (q = u2 z + z^2): the printed
    form u1 z + z^2 contradicts the listed valid combinations, see the
    project notes.
    """
    if k == 1:
        return SymMat.diag([1.0, 1.0, -r])
    if k == 2:
        return SymMat.diag([-1.0, 1.0, 1.0])
    if k == 3:
        return SymMat.from_dense([[1, 0, 0], [0, 0, -0.5], [0, -0.5, 1]])
    if k == 4:
        return SymMat.diag([1.0, -1.0, 0.0])
    if k == 5:
        return SymMat.from_dense([[0, 0, 0], [0, 0, 0.5], [0, 0.5, 1]])
    if k == 6:
        return SymMat.diag([-1.0, -1.0, 1.0])
    raise ValueError("unknown member index %d" % k)


FIG1_COMBOS = {
    "fig1-b1b2b3": (1, 2, 3),
    "fig1-b1b6": (1, 6),
    "fig1-b1b3b5": (1, 3, 5),
    "fig1-b2b4": (2, 4),
}


def disk_member(center, radius: float) -> SymMat:
    """Complement-of-disk slice constraint ||u - t||^2 - r^2 >= 0."""
    return BallGrid(centers=(center,), radius=radius).member(center, len(center) + 1)


def fig2_members():
    """Ten members: eight radius-1/2 disks on the radius-3/2 ring, the unit
    disk, and the complement of the radius-2 disk."""
    members = []
    for k in range(8):
        t = 1.5 * np.array([math.cos(k * math.pi / 4), math.sin(k * math.pi / 4)])
        members.append(disk_member(t, 0.5))
    members.append(disk_member((0.0, 0.0), 1.0))
    members.append(SymMat.from_dense([[-1, 0, 0], [0, -1, 0], [0, 0, 4]]))
    return members


def ball_family(box=((-2, 2), (-2, 2)), radius: float = 0.5) -> BallGrid:
    return BallGrid(centers=tuple(integer_grid(box)), radius=radius)


def hyperbola_family(breakpoints=(0.0, 1.0, 2.0, 4.0), r2: float = 0.5) -> HyperbolaSeq:
    return HyperbolaSeq(breakpoints=tuple(float(a) for a in breakpoints), r2=r2)


def ex63_congruence():
    """The 3-d hyperbola problem pushed through x = L y with L of full row
    rank built from two linearly independent direction vectors."""
    fam = hyperbola_family()
    base = build_family(fam, 3)
    bvec = np.array([1.0, 0.0, 1.0])
    cvec = np.array([0.0, 1.0, 1.0])
    L = np.zeros((3, 4))
    L[0, :3] = bvec
    L[1, :3] = cvec
    L[2, 3] = 1.0
    members = [SymMat.from_dense(L.T @ m.to_dense() @ L) for m in base.members]
    q3 = SymMat.diag([1.0, -1.0, 0.0])
    h3 = SymMat.identity(3)
    q4 = SymMat.from_dense(L.T @ q3.to_dense() @ L)
    h4 = SymMat.from_dense(L.T @ h3.to_dense() @ L)
    prob = GeoCop(n=4, Q=q4, H=h4, bset=constraint_set(4, members),
                  lift=(3, 4, tuple(L.ravel())))
    ref = GeoCop(n=3, Q=q3, H=h3, bset=base)
    return prob, ref


def fig6b_members():
    """Three congruence-transformed parabolas with disjoint strict regions."""
    fam = ParabolaSet(members=(
        ParabolaMember(lambdas=(16.0, 1.0)),
        ParabolaMember(lambdas=(16.0, 1.0),
                       transform=(-1.0, 0, 0, 0, 1.0, 0, 0, 0, 1.0)),
        ParabolaMember(lambdas=(16.0, 1.0),
                       transform=(0, 1.0, 0, 1.0, 0, 0, 0, 0, 1.0)),
    ))
    return build_family(fam, 3)


def fig6c_members():
    """Band between two nested parabolas: f-(1,B1) = {-u1 + 16 u2^2 + 3 <= 0}
    inside, f+(1,B2) = {-u1 + 16 u2^2 + 1 <= 0} through the flipped sign."""
    fam = ParabolaSet(members=(
        ParabolaMember(lambdas=(16.0, 3.0)),
        ParabolaMember(lambdas=(16.0, 1.0), sign=-1),
    ))
    return build_family(fam, 3)


def ex64_family(sigmas=(0.0,)) -> GeneralizedHyperbola:
    return GeneralizedHyperbola(lambdas=(1.0, 1.0, 1.0), sigmas=tuple(sigmas), split=1)


def ex64_tau_search(tol: float = 1e-8):
    """Smallest tau among 1, 2, 4, ..., 2**23 whose pair with sigma = 0
    carries a certificate; None when none does."""
    fam0 = ex64_family()
    base = fam0.member(0.0, 3)
    tau = 1.0
    for _ in range(24):
        other = fam0.member(tau, 3)
        if check_pair_B(base, other, tol).status == CERTIFIED:
            return tau
        tau *= 2.0
    return None


def overlap_disks():
    return build_family(BallGrid(centers=((0.0, 0.0), (0.5, 0.0)), radius=0.5), 3)


# --------------------------------------------------------------------------
# case registry
# --------------------------------------------------------------------------

def list_cases():
    return ("ex6.1", "ex6.1-reduced", "fig1-b1b2b3", "fig1-b1b6", "fig1-b1b6-r1",
            "fig1-b1b3b5", "fig1-b2b4", "fig2", "ex6.2-ball", "ex6.3",
            "ex6.3-congruence", "ex6.4", "ex6.5-fig6b", "ex6.5-fig6c",
            "overlap-disks")


def build_case(case_id: str) -> GalleryCase:
    if case_id == "ex6.1":
        a, b, c = ex61_matrices()
        return GalleryCase(case_id, GeoCop(n=4, Q=SymMat.diag([1.0, -1.0, 0.0, 0.0]),
                                           H=SymMat.identity(4),
                                           bset=constraint_set(4, [a, b, c])))
    if case_id == "ex6.1-reduced":
        b, c = ex61_reduced_matrices()
        return GalleryCase(case_id, GeoCop(n=2, Q=SymMat.diag([1.0, -1.0]),
                                           H=SymMat.identity(2),
                                           bset=constraint_set(2, [b, c])))
    if case_id in FIG1_COMBOS:
        return GalleryCase(case_id,
                           constraint_set(3, [fig1_member(k) for k in FIG1_COMBOS[case_id]]))
    if case_id == "fig1-b1b6-r1":
        return GalleryCase(case_id, constraint_set(3, [fig1_member(1, r=1.0), fig1_member(6)]))
    if case_id == "fig2":
        return GalleryCase(case_id, GeoCop(n=3, Q=SymMat.diag([1.0, -1.0, 0.0]),
                                           H=SymMat.identity(3),
                                           bset=constraint_set(3, fig2_members())))
    if case_id == "ex6.2-ball":
        return GalleryCase(case_id, GeoCop(n=3, Q=SymMat.diag([1.0, -1.0, 0.0]),
                                           H=SymMat.identity(3),
                                           bset=build_family(ball_family(), 3)))
    if case_id == "ex6.3":
        return GalleryCase(case_id, build_family(hyperbola_family(), 3))
    if case_id == "ex6.3-congruence":
        return GalleryCase(case_id, ex63_congruence()[0])
    if case_id == "ex6.4":
        return GalleryCase(case_id, build_family(ex64_family(), 3))
    if case_id == "ex6.5-fig6b":
        return GalleryCase(case_id, fig6b_members())
    if case_id == "ex6.5-fig6c":
        return GalleryCase(case_id, fig6c_members())
    if case_id == "overlap-disks":
        return GalleryCase(case_id, overlap_disks())
    raise KeyError("unknown gallery id %r" % case_id)


# --------------------------------------------------------------------------
# replay harness
# --------------------------------------------------------------------------

def _check(name, ok, detail, tag):
    return {"check": name, "passed": bool(ok), "detail": detail, "tag": tag}


def run_case(case_id: str, tol: float = 1e-8) -> dict:
    case = build_case(case_id)
    checks = []
    if case_id == "ex6.1":
        a, b, c = ex61_matrices()
        xt = SymMat.diag([0.0, 0.0, 1.0, 1.0])
        checks.append(_check("witness_products",
                             inner(b, xt) == 0.0 and inner(a, xt) == -2.0,
                             "<B',Xt> = %g, <A',Xt> = %g" % (inner(b, xt), inner(a, xt)),
                             "published"))
        cert_ab = sdpmod.solve_ab_certificate(a, b, tol)
        pv = check_pair_B(a, b, tol)
        checks.append(_check("pair_AB_refuted",
                             cert_ab is None and pv.status == "refuted",
                             "status=%s margin=%.3g" % (pv.status, pv.margin), "published"))
        rr = facial_reduce(case.problem, tol)
        ok_n = rr.reduced_n == 2
        checks.append(_check("reduced_n", ok_n, "reduced_n=%d" % rr.reduced_n, "published"))
        proj_ok = False
        if ok_n:
            pa, pb, pc = [m.to_dense() for m in rr.reduced.bset.members]
            proj_ok = (np.array_equal(pa, [[2, 1], [1, 1]])
                       and np.array_equal(pb, [[-1, -2], [-2, -1]])
                       and np.array_equal(pc, [[1, 2], [2, 1]]))
        checks.append(_check("projections", proj_ok, "entrywise match", "published"))
        pruned, removed, _ = remove_redundant(rr.reduced.bset, tol)
        checks.append(_check("pruned", removed == (0,) and len(pruned.members) == 2,
                             "removed=%s" % (removed,), "published"))
        rep = check_condition_B(pruned, tol)
        pair = rep.pairs[0]
        checks.append(_check("condition_B",
                             rep.status == CERTIFIED and pair.certificate == (1.0, 1.0)
                             and pair.margin == 0.0,
                             "cert=%s margin=%s" % (pair.certificate, pair.margin), "published"))
        cl = classify(pruned, tol)
        checks.append(_check("classification", cl.case == "a" and cl.exposing_index is not None,
                             "case %s, exposing %s" % (cl.case, cl.exposing_index), "published"))
        verdict = run_pipeline(case.problem, PipelineConfig(tol=min(tol, 1e-9)))
        checks.append(_check("value", abs(verdict.value + SQRT3_OVER_2) <= 1e-6,
                             "value=%.12f" % verdict.value, "derived"))
        r1 = verdict.rank_one
        ok_r1 = (r1 is not None and r1.confident and r1.eigenratio >= 1e6
                 and abs(verdict.lifted_x[0] * verdict.lifted_x[1] + 0.25) <= 1e-6)
        checks.append(_check("rank_one", ok_r1,
                             "x1*x2=%.9f" % (verdict.lifted_x[0] * verdict.lifted_x[1]), "derived"))
    elif case_id == "ex6.1-reduced":
        verdict = run_pipeline(case.problem, PipelineConfig(tol=min(tol, 1e-9)))
        checks.append(_check("value", abs(verdict.value + SQRT3_OVER_2) <= 1e-6,
                             "value=%.12f" % verdict.value, "derived"))
        checks.append(_check("condition_B", verdict.cert.overall == CERTIFIED,
                             verdict.cert.overall, "published"))
    elif case_id in FIG1_COMBOS or case_id == "fig1-b1b6-r1":
        rep = check_Bprime_Cprime(case.problem, tol)
        checks.append(_check("slice_conditions",
                             rep.b_prime_status == CERTIFIED and rep.c_prime_status == CERTIFIED,
                             "(B)'=%s (C)'=%s" % (rep.b_prime_status, rep.c_prime_status),
                             "published"))
    elif case_id == "fig2":
        s = normalize(case.problem.bset)
        rep = check_Bprime_Cprime(s, tol)
        checks.append(_check("slice_conditions",
                             rep.b_prime_status == CERTIFIED and rep.c_prime_status == CERTIFIED,
                             "(B)'=%s (C)'=%s" % (rep.b_prime_status, rep.c_prime_status),
                             "published"))
        cl = classify(s, tol)
        checks.append(_check("classification", cl.case == "b", "case %s" % cl.case, "derived"))
        verdict = run_pipeline(case.problem, PipelineConfig(tol=min(tol, 1e-9)))
        checks.append(_check("pipeline",
                             verdict.exactness == "certified_exact"
                             and verdict.rank_one is not None and verdict.rank_one.confident,
                             "exactness=%s" % verdict.exactness, "derived"))
    elif case_id == "ex6.2-ball":
        pairs = check_condition_B(case.problem.bset, tol).pairs
        checks.append(_check("pair_count", len(pairs) == 300, "pairs=%d" % len(pairs),
                             "trivial"))
        bad = sum(v.certificate is None for v in pairs)
        checks.append(_check("pairs_certified", bad == 0, "failed pairs=%d" % bad, "published"))
    elif case_id == "ex6.3":
        pairs = check_condition_B(case.problem, tol).pairs
        bad = sum(v.status != CERTIFIED for v in pairs)
        checks.append(_check("pairs_certified", bad == 0, "failed pairs=%d" % bad, "published"))
        fam = hyperbola_family()
        bbar = fam.limit_member(abar=fam.breakpoints[-1])
        lmin = lambda_min(bbar)
        checks.append(_check("limit_psd", lmin >= -1e-10, "lambda_min=%.3g" % lmin, "published"))
    elif case_id == "ex6.3-congruence":
        prob, ref = ex63_congruence()
        v4 = run_pipeline(prob, PipelineConfig(tol=min(tol, 1e-9)))
        v3 = run_pipeline(ref, PipelineConfig(tol=min(tol, 1e-9)))
        checks.append(_check("value_matches_base",
                             abs(v4.value - v3.value) <= 1e-6 * (1 + abs(v3.value)),
                             "v4=%.9f v3=%.9f" % (v4.value, v3.value), "derived"))
        checks.append(_check("condition_B", v4.cert.overall == CERTIFIED,
                             v4.cert.overall, "published"))
    elif case_id == "ex6.4":
        tau = ex64_tau_search(tol)
        ok = tau is not None
        detail = "tau=%s" % tau
        if ok:
            fam = ex64_family(sigmas=(0.0, tau))
            rep = check_Bprime_Cprime(build_family(fam, 3), tol)
            ok = rep.b_prime_status == CERTIFIED and rep.c_prime_status == CERTIFIED
            detail += " (B)'=%s (C)'=%s" % (rep.b_prime_status, rep.c_prime_status)
        checks.append(_check("tau_search", ok, detail, "derived"))
    elif case_id in ("ex6.5-fig6b", "ex6.5-fig6c"):
        rep = check_Bprime_Cprime(case.problem, tol)
        checks.append(_check("slice_conditions",
                             rep.b_prime_status == CERTIFIED and rep.c_prime_status == CERTIFIED,
                             "(B)'=%s (C)'=%s" % (rep.b_prime_status, rep.c_prime_status),
                             "published"))
    elif case_id == "overlap-disks":
        rep = check_Bprime_Cprime(case.problem, tol)
        pair = rep.b_prime_pairs[0]
        ok = rep.b_prime_status == "not_certified" and pair.witness_point is not None
        checks.append(_check("not_certified", ok,
                             "status=%s witness=%s" % (pair.status, pair.witness_point),
                             "derived"))
    else:
        raise KeyError(case_id)
    return {
        "id": case_id,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }


def run_acceptance(ids=None, tol: float = 1e-8) -> list:
    """Replay gallery cases; failures become report entries, not errors."""
    report = []
    for cid in (ids or list_cases()):
        try:
            report.append(run_case(cid, tol))
        except Exception as exc:  # stage errors are reported, never raised
            report.append({"id": cid, "passed": False,
                           "checks": [_check("stage", False, repr(exc), "error")]})
    return report
