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
    max_iter: int = sdpmod.DEFAULT_MAX_ITER
    seed: int = 0
    retry_rank_one: bool = True
    slice_conditions: bool = True


@dataclass
class RankOneResult:
    x: Optional[np.ndarray]
    eigenratio: float
    feas_residual: float
    obj_gap: float
    confident: bool
    retried: bool = False
    note: str = ""


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


def extract_rank_one(x_sdp: SymMat, p: GeoCop, cfg: PipelineConfig = PipelineConfig()) -> RankOneResult:
    """Top-eigenvector extraction from an SDP optimum.

    The vector is scaled so <H, x x^T> = 1 and keeps the sign eig_sym gives
    it (first significant coordinate positive).  When the top eigenvalue is not
    separated (ratio below 1e6), the SDP is re-solved once with the objective
    perturbed by eps * g g^T (seeded random unit g, eps = 1e-7 ||Q||_F) to
    break optimal-face ties, and the extraction retried.
    """
    ed = eig_sym(x_sdp)
    lam1 = float(ed.values[0])
    lam2 = float(ed.values[1]) if x_sdp.n > 1 else 0.0
    ratio = math.inf if lam2 <= 1e-14 * max(lam1, 0.0) else lam1 / lam2
    v = ed.vectors[:, 0]
    vhv = float(v @ p.H.to_dense() @ v)
    if vhv <= 0.0 or lam1 <= 0.0:
        return RankOneResult(x=None, eigenratio=ratio, feas_residual=math.inf,
                             obj_gap=math.inf, confident=False,
                             note="top eigenvector cannot be scaled onto <H,X>=1")
    x = v / math.sqrt(vhv)
    eta = inner(p.Q, x_sdp)
    feas = _residuals_of_point(x, p)
    gap = abs(float(x @ p.Q.to_dense() @ x) - eta)
    confident = (ratio >= _EIGENRATIO_CONFIDENT and feas <= 1e-6
                 and gap <= 1e-6 * (1.0 + abs(eta)))
    result = RankOneResult(x=x, eigenratio=ratio, feas_residual=feas,
                           obj_gap=gap, confident=confident)
    if confident or not cfg.retry_rank_one:
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
        GeoCop(n=p.n, Q=q_pert, H=p.H, bset=p.bset)),
        tol=min(cfg.tol, 1e-10), max_iter=cfg.max_iter)
    if sol.status != "optimal" or sol.X is None:
        result.note = "perturbation retry failed: %s" % sol.status
        return result
    retried = extract_rank_one(sol.X, p, cfg=PipelineConfig(
        tol=cfg.tol, cert_tol=cfg.cert_tol, max_iter=cfg.max_iter,
        seed=cfg.seed, retry_rank_one=False))
    retried.retried = True
    # confidence gap is judged against the unperturbed optimum
    retried.obj_gap = abs(float(retried.x @ p.Q.to_dense() @ retried.x) - eta) \
        if retried.x is not None else math.inf
    retried.confident = (retried.eigenratio >= _EIGENRATIO_CONFIDENT
                         and retried.feas_residual <= 1e-6
                         and retried.obj_gap <= 1e-6 * (1.0 + abs(eta)))
    return retried


def _apply_range_restriction(p: GeoCop, notes: list) -> GeoCop:
    """Realize x in range(L) by appending the kernel-penalty member -N N^T."""
    L = p.restriction_matrix()
    if L is None:
        return p
    vals, vecs = np.linalg.eigh(L @ L.T)
    scale = max(float(vals.max()), 1.0)
    null = vecs[:, vals <= 1e-12 * scale]
    if null.shape[1] == 0:
        return GeoCop(n=p.n, Q=p.Q, H=p.H, bset=p.bset, lift=p.lift)
    penalty = SymMat.from_dense(-(null @ null.T))
    members = list(p.bset.members) + [penalty]
    notes.append("range restriction realized by a rank-%d kernel-penalty member"
                 % null.shape[1])
    return GeoCop(n=p.n, Q=p.Q, H=p.H,
                  bset=p.bset.__class__(n=p.n, members=tuple(members),
                                        provenance=p.bset.provenance),
                  lift=p.lift)


def run_pipeline(p: GeoCop, cfg: PipelineConfig = PipelineConfig()) -> PipelineVerdict:
    """normalize -> facially reduce -> prune -> certify -> solve -> extract -> lift."""
    notes = []
    p = _apply_range_restriction(p, notes)
    normalized = GeoCop(n=p.n, Q=p.Q, H=p.H, bset=normalize(p.bset), lift=p.lift)
    rr = facial_reduce(normalized, cfg.tol)

    if rr.reduced_n == 0:
        notes.append("feasible cone is {O}; problem is infeasible unless <H,O> = 1")
        return PipelineVerdict(cert=None, reduction=rr, sdp=None, rank_one=None,
                               exactness=RELAXATION_ONLY, lifted_x=None,
                               value=math.inf, stage_notes=tuple(notes))

    pruned, removed = remove_redundant(rr.reduced.bset, cfg.cert_tol)
    rr.pruned_indices = removed
    problem = GeoCop(n=rr.reduced_n, Q=rr.reduced.Q, H=rr.reduced.H, bset=pruned,
                     lift=p.lift)

    cert = certify(pruned, cfg.cert_tol, slice_conditions=cfg.slice_conditions and problem.n >= 2)
    sol = sdpmod.solve(sdpmod.relaxation_problem(problem), tol=cfg.tol, max_iter=cfg.max_iter)

    rank_one = None
    lifted = None
    value = sol.value if sol.status == "optimal" else math.nan
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
