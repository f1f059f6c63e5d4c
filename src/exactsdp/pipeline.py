"""End-to-end pipeline: normalize, facially reduce, prune, certify, solve the
relaxation, extract a rank-one solution, and lift it back to the original
coordinates.  Certification failures never abort solving; the relaxation
value is still reported (as a lower bound only, with no exactness claim)."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .certify import CERTIFIED, CertReport, certify
from .model import GeoCop, normalize
from .reduction import ReductionResult, facial_reduce, remove_redundant
from .symmat import SymMat, canonical_sign, eig_sym, gram, inner
from . import sdp as sdpmod

CERTIFIED_EXACT = "certified_exact"
RANK_ONE_UNCERTIFIED = "solved_rank_one_uncertified"
RELAXATION_ONLY = "relaxation_only"

_EIGENRATIO_CONFIDENT = 1e6


@dataclass(frozen=True)
class PipelineConfig:
    tol: float = sdpmod.DEFAULT_TOL
    cert_tol: float = sdpmod.DEFAULT_TOL
    seed: int = 0


@dataclass
class RankOneResult:
    x: Optional[np.ndarray]
    eigenratio: float
    feas_residual: float
    obj_gap: float
    confident: bool
    retried: bool = False


@dataclass
class PipelineVerdict:
    cert: Optional[CertReport]
    reduction: ReductionResult
    sdp: Optional[sdpmod.SdpSolution]
    rank_one: Optional[RankOneResult]
    exactness: str
    lifted_x: Optional[np.ndarray]
    value: float = math.nan
    stage_notes: tuple = ()


def _residuals_of_point(x: np.ndarray, p: GeoCop) -> float:
    g = gram(x)
    res = abs(inner(p.H, g) - 1.0)
    for m in p.bset.members:
        res = max(res, max(0.0, -inner(m, g)))
    return res


def top_eigenvector(x_sdp: SymMat, p: GeoCop, eta: Optional[float] = None) -> RankOneResult:
    """One-shot extraction: the top eigenvector of x_sdp, scaled so
    <H, x x^T> = 1, keeping the sign eig_sym gives it (first significant
    coordinate positive).  It is confident when the top eigenvalue is
    separated (ratio at least 1e6), x is feasible within 1e-6 and x^T Q x is
    within 1e-6 relative of eta, which defaults to <Q, x_sdp>.
    """
    ed = eig_sym(x_sdp)
    lam1 = float(ed.values[0])
    lam2 = float(ed.values[1]) if x_sdp.n > 1 else 0.0
    ratio = math.inf if lam2 <= 1e-14 * max(lam1, 0.0) else lam1 / lam2
    v = ed.vectors[:, 0]
    vhv = float(v @ p.H.to_dense() @ v)
    if vhv <= 0.0 or lam1 <= 0.0:
        # the top eigenvector cannot be scaled onto <H,X> = 1
        return RankOneResult(x=None, eigenratio=ratio, feas_residual=math.inf,
                             obj_gap=math.inf, confident=False)
    x = v / math.sqrt(vhv)
    if eta is None:
        eta = inner(p.Q, x_sdp)
    feas = _residuals_of_point(x, p)
    gap = abs(float(x @ p.Q.to_dense() @ x) - eta)
    confident = (ratio >= _EIGENRATIO_CONFIDENT and feas <= 1e-6
                 and gap <= 1e-6 * (1.0 + abs(eta)))
    return RankOneResult(x=x, eigenratio=ratio, feas_residual=feas,
                         obj_gap=gap, confident=confident)


def extract_rank_one(x_sdp: SymMat, p: GeoCop, cfg: PipelineConfig = PipelineConfig()) -> RankOneResult:
    """top_eigenvector, retried at most once: when the extraction yields a
    vector but is not confident, the SDP is re-solved with the objective
    perturbed by eps * g g^T (seeded random unit g, eps = 1e-4 max(1, ||Q||_F))
    to break optimal-face ties, and the new optimum's top eigenvector is
    judged against the unperturbed optimum <Q, x_sdp>.
    """
    result = top_eigenvector(x_sdp, p)
    if result.confident or result.x is None:
        return result
    # tie-break: interior-point optima sit in the relative interior of the
    # optimal face; a psd perturbation selects one of its extreme points.
    # The perturbation must dominate the solver's termination gap or the tie
    # is never resolved; 1e-4 relative leaves the vertex itself unmoved while
    # the approach error shrinks with the solve accuracy.
    rng = np.random.default_rng(cfg.seed)
    g = rng.standard_normal(p.n)
    g /= np.linalg.norm(g)
    eps = 1e-4 * max(p.Q.norm(), 1.0)
    q_pert = p.Q.add(gram(g), eps)
    sol = sdpmod.solve(sdpmod.relaxation_problem(
        GeoCop(n=p.n, Q=q_pert, H=p.H, bset=p.bset)), tol=min(cfg.tol, 1e-10))
    if sol.status != "optimal" or sol.X is None:
        return result
    retried = top_eigenvector(sol.X, p, eta=inner(p.Q, x_sdp))
    retried.retried = True
    return retried


def run_pipeline(p: GeoCop, cfg: PipelineConfig = PipelineConfig()) -> PipelineVerdict:
    """normalize -> facially reduce -> prune -> certify -> solve -> extract -> lift."""
    notes = []
    normalized = GeoCop(n=p.n, Q=p.Q, H=p.H, bset=normalize(p.bset),
                        restrict_to=p.restrict_to)
    rr = facial_reduce(normalized, cfg.tol)

    if rr.reduced_n == 0:
        notes.append("feasible cone is {O}; problem is infeasible unless <H,O> = 1")
        return PipelineVerdict(cert=None, reduction=rr, sdp=None, rank_one=None,
                               exactness=RELAXATION_ONLY, lifted_x=None,
                               value=math.inf, stage_notes=tuple(notes))

    pruned, removed, inclusions = remove_redundant(rr.reduced.bset, cfg.cert_tol)
    rr.pruned_indices = removed
    problem = GeoCop(n=rr.reduced_n, Q=rr.reduced.Q, H=rr.reduced.H, bset=pruned)

    # pruning keeps the feasible slice, so facial reduction's last Slater
    # solve answers (A-3) for the pruned set too
    cert = certify(pruned, cfg.cert_tol, slater=rr.slater, inclusions=inclusions)
    sol = sdpmod.solve(sdpmod.relaxation_problem(problem), tol=cfg.tol)

    rank_one = None
    lifted = None
    # an infeasible relaxation means an infeasible problem, whose infimum is +inf
    value = {"optimal": sol.value, "infeasible": math.inf}.get(sol.status, math.nan)
    if sol.status == "optimal" and sol.X is not None:
        rank_one = extract_rank_one(sol.X, problem, cfg)
        if rank_one.x is not None:
            lifted = rr.lift_vector(rank_one.x)
            lift_extra = p.lift_matrix()
            if lift_extra is not None:
                lifted = lift_extra @ lifted
            lifted = canonical_sign(lifted)
    elif sol.status in ("infeasible", "unbounded"):
        notes.append("relaxation reported %s; no exactness claim is made" % sol.status)

    if cert.overall == CERTIFIED and sol.status == "optimal":
        exactness = CERTIFIED_EXACT
    elif rank_one is not None and rank_one.confident:
        exactness = RANK_ONE_UNCERTIFIED
    else:
        exactness = RELAXATION_ONLY
    return PipelineVerdict(cert=cert, reduction=rr, sdp=sol, rank_one=rank_one,
                           exactness=exactness, lifted_x=lifted, value=value,
                           stage_notes=tuple(notes))
