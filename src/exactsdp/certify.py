"""Exactness-condition checkers.

Structural conditions (A-1)..(A-5), the pairwise condition (B) through
(alpha, beta) certificates with SDP refutation fallback, the slice
conditions (B)'/(C)' on the z = 1 sections, and the boundary-member
classification.  Every check is a pure per-pair / per-member computation, so
callers may evaluate pairs in parallel and aggregate deterministically.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import ConstraintSet, quadform_packed
from .symmat import SymMat, combine, gram, inner, is_psd, lambda_min
from . import sdp as sdpmod

CERTIFIED = "certified"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"
NOT_CERTIFIED = "not_certified"

_REFUTE_FACTOR = 10.0


@dataclass
class PairVerdict:
    pair: tuple
    status: str
    certificate: Optional[tuple] = None   # (alpha, beta), both positive
    witness: Optional[SymMat] = None      # psd X with <B,X> <= 0, <A,X> < 0
    margin: float = math.nan
    witness_point: Optional[tuple] = None  # u with q(u,1,B) <= 0, q(u,1,A) < 0


@dataclass
class ConditionBReport:
    status: str
    pairs: tuple  # of PairVerdict over unordered pairs i < j


@dataclass
class MemberVerdict:
    index: int
    status: str
    value: float = math.nan
    witness_point: Optional[tuple] = None


@dataclass
class SliceReport:
    """Conditions (B)' (per pair) and (C)' (per member) on the z = 1 slice."""

    b_prime_status: str
    c_prime_status: str
    b_prime_pairs: tuple
    c_prime_members: tuple


@dataclass
class StructuralReport:
    a1: bool
    a2: Optional[bool]       # deliberately unchecked
    a3: bool
    a4: bool
    a5: bool
    slater_margin: float = math.nan
    slater_point: Optional[SymMat] = None  # optimal X of the Slater SDP
    a4_psd_members: tuple = ()
    a5_violations: tuple = ()
    a5_undecided: tuple = ()


@dataclass
class Classification:
    case: str                 # "a" or "b"
    exposing_index: Optional[int] = None
    values: tuple = ()        # max <B,X> over the feasible slice, per member


@dataclass
class CertReport:
    structural: StructuralReport
    condition_b: ConditionBReport
    slice_conditions: Optional[SliceReport]
    classification: Optional[Classification]
    overall: str


# --------------------------------------------------------------------------
# deterministic PSD probes (cheap disprovers for inclusion-type questions)
# --------------------------------------------------------------------------

def psd_probes(n: int, members, seed: int = 12345, count: int = 32):
    probes = [SymMat.identity(n).scale(1.0 / n)]
    eye = np.eye(n)
    for i in range(n):
        probes.append(gram(eye[i]))
    for m in members:
        _, vecs = np.linalg.eigh(m.to_dense())
        probes.append(gram(vecs[:, -1]))  # top eigvec: makes <m, probe> = lambda_max
        probes.append(gram(vecs[:, 0]))
    rng = np.random.default_rng(seed)
    for _ in range(count):
        g = rng.standard_normal(n)
        probes.append(gram(g / np.linalg.norm(g)))
    return probes


def inclusion_status(a: SymMat, b: SymMat, tol: float, probes=None) -> str:
    """Is J+(B) a subset of J+(A)?  'certified' / 'refuted' / 'inconclusive'.

    Probes can only disprove; confirmation runs the trace-normalized SDP
    min <A,X> s.t. <B,X> >= 0 (nonnegative value means inclusion).
    """
    scale_a = max(1.0, a.norm())
    if is_psd(a.add(b, -1.0), tol):  # A - B psd is sufficient
        return CERTIFIED
    if probes is None:
        probes = psd_probes(a.n, (a, b))
    for x in probes:
        if inner(b, x) >= 0.0 and inner(a, x) < -_REFUTE_FACTOR * tol * scale_a * max(1.0, x.norm()):
            return REFUTED
    sol = sdpmod.solve(sdpmod.inclusion_problem(a, b), tol=min(tol, 1e-9))
    if sol.status != "optimal":
        return INCONCLUSIVE
    if sol.value >= -tol * scale_a:
        return CERTIFIED
    if sol.value <= -_REFUTE_FACTOR * tol * scale_a:
        return REFUTED
    return INCONCLUSIVE


def _fold_status(verdicts) -> str:
    """certified when every verdict is, not_certified when any is refuted,
    inconclusive otherwise."""
    if all(v.status == CERTIFIED for v in verdicts):
        return CERTIFIED
    if any(v.status == REFUTED for v in verdicts):
        return NOT_CERTIFIED
    return INCONCLUSIVE


# --------------------------------------------------------------------------
# condition (B)
# --------------------------------------------------------------------------

def _canonical_witness(x: SymMat) -> SymMat:
    top = max(abs(v) for v in x.data)
    if top == 0.0:
        return x
    cleaned = tuple(0.0 if abs(v) < 1e-9 * top else v for v in x.data)
    return SymMat(x.n, cleaned)


def check_pair_B(a: SymMat, b: SymMat, tol: float = sdpmod.DEFAULT_TOL) -> PairVerdict:
    """Decide J_0(B) subset of J_+(A) for one pair.

    Tries the (alpha, beta) psd-combination certificate first; on failure
    solves the trace-normalized refutation SDP min <A,X> s.t. <B,X> <= 0 and
    reports its minimizer as a witness when the value is clearly negative.
    """
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    scale = a.norm() + b.norm()
    cert = sdpmod.solve_ab_certificate(a, b, tol)
    if cert is not None:
        alpha, beta = cert
        margin = lambda_min(combine(alpha, a, beta, b)) / max(scale, 1.0)
        return PairVerdict(pair=(0, 1), status=CERTIFIED, certificate=(alpha, beta), margin=margin)
    sol = sdpmod.solve(sdpmod.eq10_problem(a, b), tol=min(tol, 1e-9))
    scale_a = max(1.0, a.norm())
    if sol.status == "optimal" and sol.value <= -_REFUTE_FACTOR * tol * scale_a:
        return PairVerdict(
            pair=(0, 1),
            status=REFUTED,
            witness=_canonical_witness(sol.X),
            margin=sol.value / scale_a,
        )
    margin = sol.value / scale_a if sol.status == "optimal" else math.nan
    return PairVerdict(pair=(0, 1), status=INCONCLUSIVE, margin=margin)


def check_condition_B(s: ConstraintSet, tol: float = sdpmod.DEFAULT_TOL) -> ConditionBReport:
    """All unordered distinct pairs; the (alpha,beta) certificate is symmetric
    in the pair, so one certificate settles both orientations."""
    if len(s.members) == 0:
        raise ValueError("empty constraint set")
    verdicts = []
    for i in range(len(s.members)):
        for j in range(i + 1, len(s.members)):
            v = check_pair_B(s.members[i], s.members[j], tol)
            v.pair = (i, j)
            verdicts.append(v)
    return ConditionBReport(status=_fold_status(verdicts), pairs=tuple(verdicts))


# --------------------------------------------------------------------------
# slice conditions (B)' and (C)'
# --------------------------------------------------------------------------

def _grid_candidates(d: int, half: float, per_axis: int):
    axes = [np.linspace(-half, half, per_axis)] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _slice_values(b: SymMat, pts: np.ndarray) -> np.ndarray:
    coords = np.concatenate([pts, np.ones((pts.shape[0], 1))], axis=1)
    return quadform_packed(b, coords)


def find_negative_point(b: SymMat, tol: float):
    """Numeric witness u with q(u, 1, B) < 0, or None.  Grid plus descent."""
    d = b.n - 1
    per_axis = 41 if d <= 2 else 13
    best = None
    for half in (1.0, 2.0, 4.0, 8.0, 16.0, 64.0):
        pts = _grid_candidates(d, half, per_axis)
        vals = _slice_values(b, pts)
        k = int(np.argmin(vals))
        if vals[k] < -tol:
            best = pts[k]
            break
    if best is None:
        return None
    u = _polish_point(best, lambda x: float(_slice_values(b, x[None, :])[0]))
    return tuple(float(v) for v in u)


def _polish_point(u0, f, steps: int = 60):
    u = np.array(u0, dtype=float)
    fu = f(u)
    h = 1e-5
    step = 0.25 * max(1.0, float(np.linalg.norm(u)))
    for _ in range(steps):
        g = np.zeros_like(u)
        for i in range(u.size):
            e = np.zeros_like(u)
            e[i] = h
            g[i] = (f(u + e) - f(u - e)) / (2 * h)
        gn = float(np.linalg.norm(g))
        if gn == 0.0:
            break
        cand = u - step * g / gn
        fc = f(cand)
        if fc < fu:
            u, fu = cand, fc
            step *= 1.3
        else:
            step *= 0.5
            if step < 1e-12:
                break
    return u


def _pair_slice_witness(a: SymMat, b: SymMat, tol: float):
    """u with q(u,1,B) <= 0 and q(u,1,A) < 0, or None."""
    d = a.n - 1
    if d > 3:
        return None
    per_axis = 41 if d <= 2 else 13
    for half in (1.0, 2.0, 4.0, 8.0, 16.0):
        pts = _grid_candidates(d, half, per_axis)
        qb = _slice_values(b, pts)
        qa = _slice_values(a, pts)
        mask = (qb <= 0.0) & (qa < 0.0)
        if mask.any():
            cand = pts[mask]
            u0 = cand[int(np.argmin(qa[mask]))]
            # descend on max(q_b, q_a + margin) to push q_a well negative
            def fobj(x):
                row = x[None, :]
                return max(float(_slice_values(b, row)[0]), float(_slice_values(a, row)[0]))
            u = _polish_point(u0, fobj, steps=40)
            row = u[None, :]
            if float(_slice_values(b, row)[0]) <= tol and float(_slice_values(a, row)[0]) < -tol:
                return tuple(float(v) for v in u)
            return tuple(float(v) for v in u0)
    return None


def check_Bprime_Cprime(s: ConstraintSet, tol: float = sdpmod.DEFAULT_TOL,
                        pair_verdicts: Optional[dict] = None) -> SliceReport:
    """(C)' per member through the corner SDP min <B,X> s.t. X_nn = 1 (the
    single-constraint relaxation is exact); (B)' per pair through the
    sufficient conic route J_-(B) subset of J_+(A), with slice witness points
    reported for refutations when n-1 <= 3.

    A conic refutation alone does not disprove the slice condition (the two
    are equivalent only under lower semicontinuity of the slice map), so a
    pair without a certificate is refuted only when a witness point is found
    and stays inconclusive otherwise.
    """
    if len(s.members) == 0:
        raise ValueError("empty constraint set")
    if s.n < 2:
        raise ValueError("slice conditions need n >= 2")
    c_members = []
    for idx, m in enumerate(s.members):
        scale = max(1.0, m.norm())
        sol = sdpmod.solve(sdpmod.corner_problem(m), tol=min(tol, 1e-9))
        if sol.status == "unbounded" or (
                sol.status == "optimal" and sol.value <= -_REFUTE_FACTOR * tol * scale):
            point = find_negative_point(m, tol)
            value = -math.inf if sol.status == "unbounded" else sol.value
            c_members.append(MemberVerdict(index=idx, status=CERTIFIED, value=value,
                                           witness_point=point))
        elif sol.status == "optimal" and sol.value >= -tol * scale:
            c_members.append(MemberVerdict(index=idx, status=REFUTED, value=sol.value))
        else:
            # stalled or borderline solve: a numeric point with a clearly
            # negative slice value is decisive evidence on its own (the solver
            # cannot certify unboundedness when no improving ray exists)
            point = find_negative_point(m, tol)
            if point is not None:
                q = float(_slice_values(m, np.asarray(point)[None, :])[0])
                if q <= -_REFUTE_FACTOR * tol * scale:
                    c_members.append(MemberVerdict(index=idx, status=CERTIFIED, value=q,
                                                   witness_point=point))
                    continue
            c_members.append(MemberVerdict(index=idx, status=INCONCLUSIVE,
                                           value=sol.value if sol.status == "optimal" else math.nan))

    b_pairs = []
    for i in range(len(s.members)):
        for j in range(i + 1, len(s.members)):
            base = None
            if pair_verdicts is not None:
                base = pair_verdicts.get((i, j))
            if base is None:
                base = check_pair_B(s.members[i], s.members[j], tol)
            if base.status == CERTIFIED:
                v = PairVerdict(pair=(i, j), status=CERTIFIED,
                                certificate=base.certificate, margin=base.margin)
            else:
                point = _pair_slice_witness(s.members[i], s.members[j], tol)
                if point is None:
                    point = _pair_slice_witness(s.members[j], s.members[i], tol)
                v = PairVerdict(pair=(i, j),
                                status=REFUTED if point is not None else INCONCLUSIVE,
                                witness=base.witness, margin=base.margin,
                                witness_point=point)
            b_pairs.append(v)
    return SliceReport(b_prime_status=_fold_status(b_pairs),
                       c_prime_status=_fold_status(c_members),
                       b_prime_pairs=tuple(b_pairs), c_prime_members=tuple(c_members))


# --------------------------------------------------------------------------
# structural conditions
# --------------------------------------------------------------------------

def _is_trivial_zero_set(s: ConstraintSet) -> bool:
    return len(s.members) == 1 and all(v == 0.0 for v in s.members[0].data)


def check_structural(s: ConstraintSet, tol: float = sdpmod.DEFAULT_TOL) -> StructuralReport:
    a1 = all(m.is_finite() for m in s.members)
    # (A-3): Slater point via max t s.t. X >= tI over the feasible slice
    status, xstar, tstar = sdpmod.solve_slater(s.members, s.n, tol=min(tol, 1e-9))
    a3 = status == "optimal" and tstar > tol
    # (A-4)
    psd_members = tuple(i for i, m in enumerate(s.members) if is_psd(m, tol))
    a4 = _is_trivial_zero_set(s) or not psd_members
    # (A-5)
    violations = []
    undecided = []
    probes = psd_probes(s.n, s.members)
    for i in range(len(s.members)):
        for j in range(len(s.members)):
            if i == j:
                continue
            st = inclusion_status(s.members[i], s.members[j], tol, probes=probes)
            if st == CERTIFIED:
                violations.append((i, j))
            elif st == INCONCLUSIVE:
                undecided.append((i, j))
    a5 = len(s.members) <= 1 or not violations
    return StructuralReport(
        a1=a1, a2=None, a3=a3, a4=a4, a5=a5,
        slater_margin=tstar if status == "optimal" else -math.inf,
        slater_point=xstar if status == "optimal" else None,
        a4_psd_members=psd_members,
        a5_violations=tuple(violations),
        a5_undecided=tuple(undecided),
    )


# --------------------------------------------------------------------------
# classification (cases (a)/(b) for sets satisfying (A-5) and (B))
# --------------------------------------------------------------------------

def classify(s: ConstraintSet, tol: float = sdpmod.DEFAULT_TOL,
             slater_point: Optional[SymMat] = None) -> Classification:
    """For each member, max <B,X> over the trace-one feasible slice; a value
    within tol of zero puts B in the boundary set and yields case (a)."""
    if slater_point is None:
        status, x, _ = sdpmod.solve_slater(s.members, s.n, tol=min(tol, 1e-9))
        slater_point = x if status == "optimal" else None
    values = []
    exposing = None
    for idx, m in enumerate(s.members):
        scale = max(1.0, m.norm())
        if slater_point is not None:
            quick = inner(m, slater_point)
            if quick > _REFUTE_FACTOR * tol * scale:
                values.append(quick)
                continue
        prob = sdpmod.SdpProblem(
            n=s.n,
            objective=m.scale(-1.0),
            eq_constraints=((SymMat.identity(s.n), 1.0),),
            ineq_constraints=tuple((mm, ">=", 0.0) for mm in s.members),
        )
        sol = sdpmod.solve(prob, tol=min(tol, 1e-9))
        val = -sol.value if sol.status == "optimal" else math.inf
        values.append(val)
        if exposing is None and sol.status == "optimal" and val <= tol * scale:
            exposing = idx
    if exposing is not None:
        return Classification(case="a", exposing_index=exposing, values=tuple(values))
    return Classification(case="b", exposing_index=None, values=tuple(values))


# --------------------------------------------------------------------------
# aggregate report
# --------------------------------------------------------------------------

def certify(s: ConstraintSet, tol: float = sdpmod.DEFAULT_TOL,
            slice_conditions: bool = True) -> CertReport:
    structural = check_structural(s, tol)
    cond_b = check_condition_B(s, tol)
    slice_rep = None
    if slice_conditions and s.n >= 2:
        cache = {v.pair: v for v in cond_b.pairs}
        slice_rep = check_Bprime_Cprime(s, tol, pair_verdicts=cache)
    classification = None
    if cond_b.status == CERTIFIED:
        classification = classify(s, tol, slater_point=structural.slater_point)
    geometric_path = cond_b.status == CERTIFIED
    slice_path = (slice_rep is not None
                  and slice_rep.b_prime_status == CERTIFIED
                  and slice_rep.c_prime_status == CERTIFIED)
    if geometric_path or slice_path:
        overall = CERTIFIED
    elif cond_b.status == NOT_CERTIFIED or (
            slice_rep is not None and slice_rep.b_prime_status == NOT_CERTIFIED):
        overall = NOT_CERTIFIED
    else:
        overall = INCONCLUSIVE
    return CertReport(
        structural=structural,
        condition_b=cond_b,
        slice_conditions=slice_rep,
        classification=classification,
        overall=overall,
    )
