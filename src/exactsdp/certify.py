"""Exactness-condition checkers.

Structural conditions (A-1)..(A-5), the pairwise condition (B), the slice
conditions (B)'/(C)' on the z = 1 sections ((C)' in closed form, through
the Schur complement of each member), and the boundary-member
classification.  The pair layer (condition (B)) and the inclusion layer
((A-5) and pruning) run over all pairs at once on dense stacks.  Both end
in one stacked pencil search (sdp.pencil_bounds, the two-constraint
S-lemma) of a trace-one SDP with one member row, which returns a dual
lower bound and the value of a feasible X.  A condition-(B) pair asks the
pencil of its refutation problem min <A,X> s.t. <B,X> <= 0, trace X = 1
once: its dual end gives the (alpha, beta) certificate when some A + yB is
psd, and otherwise its feasible X refutes the pair or leaves it open.  An
inclusion the covariant probes leave open asks its own pencil.  The
band reads the lower bound at its nonnegative end and the value of X at its
negative end, so both rest on checked numbers, not on a solve within
tolerance.  classify asks the pencil too, with A = -B, for a set of at most
two members.  Only classify on a larger set, or on a member whose pencil
has no answer, solves an interior-point SDP here, besides the Slater point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .model import ConstraintSet, quadform_packed
from .symmat import SymMat, dense_stack, inner, is_psd, packed_stack
from . import sdp as sdpmod

CERTIFIED = "certified"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"
NOT_CERTIFIED = "not_certified"

_REFUTE_FACTOR = 10.0


def _band(lower: float, tol: float, scale: float, upper: Optional[float] = None) -> Optional[bool]:
    """Is a value >= 0 at scale s = max(1, ||A||)?  True when its lower bound
    is >= -tol s, False when its upper bound (lower when not given) is
    <= -10 tol s, None in between and for NaN (no answer)."""
    if lower >= -tol * scale:
        return True
    if (lower if upper is None else upper) <= -_REFUTE_FACTOR * tol * scale:
        return False
    return None


@dataclass
class PairVerdict:
    pair: tuple
    status: str
    certificate: Optional[tuple] = None   # (alpha, beta), both positive
    witness: Optional[SymMat] = None      # psd X with <B,X> <= 0, <A,X> < 0
    margin: float = math.nan
    witness_point: Optional[tuple] = None  # u with q(u,1,B) <= 0, q(u,1,A) < 0
    # the unrounded dense X of the refutation pencil, for the (B)' witness
    # search; not part of the verdict
    optimizer: Optional[np.ndarray] = field(default=None, repr=False, compare=False)


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
    """Conditions (B)' and (C)' on the z = 1 slice.  b_prime_pairs holds the
    pairs without a condition-(B) certificate, each with its (B)' status and
    witness point; every other pair meets (B)' through that certificate."""

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
    a4_psd_members: tuple = ()
    a5_violations: tuple = ()
    a5_undecided: tuple = ()


@dataclass
class Classification:
    """Case "a" names its first boundary member (max <B,X> = 0 over the
    feasible slice) as exposing_index; case "b" has none."""

    case: str                 # "a" or "b"
    exposing_index: Optional[int] = None


@dataclass
class CertReport:
    structural: StructuralReport
    condition_b: ConditionBReport
    slice_conditions: Optional[SliceReport]
    classification: Optional[Classification]
    overall: str


# --------------------------------------------------------------------------
# inclusion between members ((A-5) and pruning)
# --------------------------------------------------------------------------

def _inclusion_statuses(members, pairs, tol: float) -> list:
    """Is J+(members[j]) a subset of J+(members[i])?  One status per ordered
    pair (i, j): 'certified' / 'refuted' / 'inconclusive'.

    The probes, I/n and each member's top and bottom eigenvector v from one
    stacked eigh, follow a congruence of the members; a probe with
    <B,X> >= 0 and <A,X> (trace A / n or v'Av) clearly negative refutes.
    The pairs they leave open go, together, to the pencil of
    min <A,X> s.t. <B,X> >= 0, trace X = 1 (sdp.pencil_bounds), whose first
    call reads y = 1, lambda_min(A - B): a nonnegative value means
    inclusion, read through the band from its dual lower bound, and a
    clearly negative one refutes it, read from the feasible X's value.
    Each question stops as soon as the band is decided.
    """
    if tol < 0.0:
        raise ValueError("tol must be nonnegative")
    n = members[0].n
    dense = dense_stack(packed_stack(members, n), n)
    scale = np.maximum(1.0, [m.norm() for m in members])
    ia, ib = np.array(pairs, dtype=int).reshape(-1, 2).T
    vecs = np.linalg.eigh(dense)[1][:, :, [-1, 0]].transpose(0, 2, 1).reshape(-1, n)
    vals = np.concatenate((np.trace(dense, axis1=1, axis2=2)[:, None] / n,
                           np.einsum("pi,mij,pj->mp", vecs, dense, vecs)), axis=1)
    probed_out = ((vals >= 0.0)[ib]
                  & (vals < -_REFUTE_FACTOR * tol * scale[:, None])[ia]).any(axis=1)
    out = [REFUTED] * len(pairs)
    open_ = np.flatnonzero(~probed_out)
    if open_.size:
        s = scale[ia[open_]]
        r = sdpmod.pencil_bounds(dense[ia[open_]], dense[ib[open_]],
                                 (-tol * s, -_REFUTE_FACTOR * tol * s))
        statuses = {True: CERTIFIED, False: REFUTED, None: INCONCLUSIVE}
        for k, lo, up, sk in zip(open_.tolist(), r.lower.tolist(), r.upper.tolist(), s.tolist()):
            out[k] = statuses[_band(lo, tol, sk, up)]
    return out


def inclusion_status(a: SymMat, b: SymMat, tol: float) -> str:
    """Is J+(B) a subset of J+(A)?  The one-pair call of the batched
    inclusion layer, with the probes of (A, B)."""
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    return _inclusion_statuses((a, b), [(0, 1)], tol)[0]


def inclusion_table(members, tol: float) -> dict:
    """Inclusion status of every ordered pair of members, with one probe
    set: entry (i, j) says whether J+(members[j]) lies in J+(members[i])."""
    pairs = [(i, j) for i in range(len(members)) for j in range(len(members)) if i != j]
    if not pairs:
        return {}
    return dict(zip(pairs, _inclusion_statuses(members, pairs, tol)))


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


def _pair_verdicts(members, pairs, tol: float) -> list:
    """Decide J_0(B) subset of J_+(A) for each pair (i, j), A = members[i].

    One stacked pencil search (sdp.ab_certificates) covers every pair: it
    certifies a pair with (1, y) when A + yB is psd to the tolerance, and
    otherwise returns its bounds on the refutation problem
    min <A,X> s.t. <B,X> <= 0, trace X = 1.  Its feasible X is reported as a
    witness when the value of X is clearly negative, and it rides along
    unrounded, so check_Bprime_Cprime can split it into (B)' witness points
    without another solve.  A pencil without an answer (NaN) leaves the pair
    inconclusive.
    """
    n = members[0].n
    dense = dense_stack(packed_stack(members, n), n)
    norms = [m.norm() for m in members]
    scales = [norms[i] + norms[j] for i, j in pairs]
    ys, lams, r = sdpmod.ab_certificates(dense[[i for i, _ in pairs]],
                                         dense[[j for _, j in pairs]], np.array(scales), tol)
    verdicts = []
    for p, ((i, j), scale, y, lam, lo, up) in enumerate(zip(
            pairs, scales, ys.tolist(), lams.tolist(), r.lower.tolist(), r.upper.tolist())):
        if not math.isnan(y):
            verdicts.append(PairVerdict(pair=(i, j), status=CERTIFIED, certificate=(1.0, y),
                                        margin=lam / max(scale, 1.0)))
            continue
        scale_a = max(1.0, norms[i])
        refuted = _band(lo, tol, scale_a, up) is False
        verdicts.append(PairVerdict(
            pair=(i, j), status=REFUTED if refuted else INCONCLUSIVE,
            witness=_canonical_witness(SymMat.from_dense(r.X[p])) if refuted else None,
            margin=up / scale_a, optimizer=r.X[p]))
    return verdicts


def check_pair_B(a: SymMat, b: SymMat, tol: float = sdpmod.DEFAULT_TOL) -> PairVerdict:
    """Decide J_0(B) subset of J_+(A) for one pair: the one-pair call of
    check_condition_B's batched search and refutation."""
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    return _pair_verdicts((a, b), [(0, 1)], tol)[0]


def check_condition_B(s: ConstraintSet, tol: float = sdpmod.DEFAULT_TOL) -> ConditionBReport:
    """All unordered distinct pairs; the (alpha,beta) certificate is symmetric
    in the pair, so one certificate settles both orientations."""
    if len(s.members) == 0:
        raise ValueError("empty constraint set")
    k = len(s.members)
    verdicts = _pair_verdicts(s.members, [(i, j) for i in range(k) for j in range(i + 1, k)], tol)
    return ConditionBReport(status=_fold_status(verdicts), pairs=tuple(verdicts))


# --------------------------------------------------------------------------
# slice conditions (B)' and (C)'
# --------------------------------------------------------------------------

def _slice_values(b: SymMat, pts: np.ndarray) -> np.ndarray:
    coords = np.concatenate([pts, np.ones((pts.shape[0], 1))], axis=1)
    return quadform_packed(b, coords)


def _rank_one_pieces(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Rows x_i with sum x_i x_i' = X and every x_i' G x_i = <G,X> / r, for psd X
    of rank r (Sturm & Zhang 2003, Prop. 3).  While two pieces straddle the
    mean, rotate them in their plane until the first meets it; set it aside."""
    lam, vecs = np.linalg.eigh(x)
    keep = lam > 0.0
    p = (vecs[:, keep] * np.sqrt(lam[keep])).T
    mean = float(np.sum(g * x)) / len(p)
    done = []
    while len(p) > 1:
        dev = np.einsum("ij,jk,ik->i", p, g, p) - mean
        hi, lo = int(np.argmax(dev)), int(np.argmin(dev))
        if not dev[hi] > 0.0 > dev[lo]:
            break
        # the root of (p_hi + a p_lo)' G (p_hi + a p_lo) = mean (1 + a^2)
        # without cancellation
        g12 = float(p[hi] @ g @ p[lo])
        root = math.sqrt(g12 * g12 - dev[hi] * dev[lo])
        a = -dev[hi] / (g12 + math.copysign(root, g12))
        c = 1.0 / math.sqrt(1.0 + a * a)
        done.append(c * (p[hi] + a * p[lo]))
        p[lo] = c * (p[lo] - a * p[hi])
        p = np.delete(p, hi, axis=0)
    return np.array(done + list(p))


def _slice_witness(a: SymMat, b: SymMat, x: Optional[np.ndarray], g: np.ndarray, tol: float):
    """u with q(u,1,B) <= tol and q(u,1,A) < -tol, or None: splits the dense
    psd x (None or NaN, from a pencil without an answer, gives None) into
    rank-one pieces of equal <G,.> and reports, among the pieces off the
    plane at infinity, the point deepest in A that passes that test."""
    if x is None or not np.isfinite(x).all():
        return None
    pieces = _rank_one_pieces(x, g)
    # below |x_n| = sqrt(eps / tol) |x| rounding in q at u = x[:-1] / x_n reaches tol
    finite = (np.abs(pieces[:, -1])
              > math.sqrt(np.finfo(float).eps / tol) * np.linalg.norm(pieces, axis=1))
    pts = pieces[finite, :-1] / pieces[finite, -1:]
    qa = _slice_values(a, pts)
    ok = (_slice_values(b, pts) <= tol) & (qa < -tol)
    if not ok.any():
        return None
    return tuple(float(v) for v in pts[ok][int(np.argmin(qa[ok]))])


_SHIFT_MARGIN = 1e-6


def _pair_slice_witness(a: SymMat, b: SymMat, tol: float):
    """u with q(u,1,B) <= tol and q(u,1,A) < -tol, or None, from a pencil of
    its own: min <A,X> s.t. <B',X> <= 0, trace X = 1 with
    B' = B - tol (1 - delta) e_n e_n', delta = _SHIFT_MARGIN = 1e-6, split
    against B'.  The fallback of check_Bprime_Cprime when the refutation X
    gives no point.

    The pencil's X is feasible up to roundoff, so the shift can come within
    delta tol of tol; delta keeps the rounding of q(u, 1, B) under tol.  On
    1,800 pairs of radius-1/2 disks (centre distance 0.90-1.02, angle
    0-pi/2) at tol 1e-2, 1e-8 and 1e-9, and on 250 pairs per tol within tol
    of the reach, every delta from 1e-12 to 1e-4 found a witness in both
    orientations wherever one exists, and every point passed a recheck;
    1e-6 stays six orders of magnitude above the roundoff."""
    g = b.to_dense()
    g[-1, -1] -= (1.0 - _SHIFT_MARGIN) * tol
    return _slice_witness(a, b, sdpmod.pencil_bounds(a.to_dense()[None], -g[None]).X[0], g, tol)


def slice_infimum(b: SymMat, tol: float) -> tuple:
    """inf over u of q(u, 1, B) in closed form, with a witness point.

    With B = [[P, c], [c', s]], q(u, 1, B) = u'Pu + 2c'u + s.  Its infimum is
    -inf when P has a negative eigenvalue or c has a component in ker P, and
    s - c' P^+ c otherwise (the Schur complement; the single-constraint case
    of the S-lemma).  Eigenvalues and components within tol * max(1, ||B||)
    of zero count as zero.

    Returns (infimum, u).  For a finite infimum u is the minimizer -P^+ c.
    For -inf it is a step along a descent ray: the eigenvector of the most
    negative eigenvalue, or else the flat eigenvector carrying the largest
    component of c, taken against the sign of that component and long
    enough to pass below zero.  u is None unless q(u, 1, B) < -tol.
    """
    if b.n < 2:
        raise ValueError("the slice infimum needs n >= 2")
    a = b.to_dense()
    cut = tol * max(1.0, b.norm())
    lam, vecs = np.linalg.eigh(a[:-1, :-1])
    w = vecs.T @ a[:-1, -1]
    s = a[-1, -1]
    flat = np.abs(lam) <= cut
    loose = np.where(flat, np.abs(w), 0.0)
    if lam[0] < -cut:  # eigh sorts ascending
        value, i = -math.inf, 0
        t = 2.0 * math.sqrt(max(s, 0.0) / -lam[0]) + 1.0
    elif loose.max() > cut:
        value, i = -math.inf, int(np.argmax(loose))
        t = (max(s, 0.0) + 1.0) / loose[i]
        if lam[i] > 0.0:
            t = min(t, loose[i] / lam[i])
    else:
        keep = ~flat
        value = float(s - np.sum(w[keep] ** 2 / lam[keep]))
        u = -vecs[:, keep] @ (w[keep] / lam[keep])
    if value == -math.inf:
        u = (-t if w[i] > 0.0 else t) * vecs[:, i]
    if float(_slice_values(b, u[None, :])[0]) < -tol:
        return value, tuple(float(v) for v in u)
    return value, None


def check_Bprime_Cprime(s: ConstraintSet, tol: float = sdpmod.DEFAULT_TOL,
                        condition_b: Optional[ConditionBReport] = None) -> SliceReport:
    """(C)' per member through the closed-form slice infimum (slice_infimum):
    certified when it is at most -10 tol * max(1, ||B||), with the witness
    point slice_infimum gives (the minimizer -P^+ c, or a point on a descent
    ray when the infimum is -inf), refuted when it is at least
    -tol * max(1, ||B||), and inconclusive in between.  (B)' per pair
    through the sufficient conic route J_-(B) subset of J_+(A), with slice
    witness points reported for refutations.

    The pairs are the verdicts of `condition_b`, check_condition_B on s
    (run here when not given).  A pair with a certificate meets (B)' through
    it and is not listed again: b_prime_pairs holds only the other pairs, in
    condition_b order.  Each takes its witness point from the X of its
    condition-(B) refutation pencil (min <A,X> s.t. <B,X> <= 0, trace X = 1),
    split into rank-one pieces against B (Sturm & Zhang 2003): a piece u
    with q(u,1,B) <= tol and q(u,1,A) < -tol is a witness.  Only when no
    piece passes does it ask the pencil again with B shifted by
    tol (1 - _SHIFT_MARGIN) (_pair_slice_witness), in the pair's
    orientation and then the other.

    A conic refutation alone does not disprove the slice condition (the two
    are equivalent only under lower semicontinuity of the slice map), so a
    pair without a certificate is refuted only when a witness point is found
    and stays inconclusive otherwise.
    """
    if len(s.members) == 0:
        raise ValueError("empty constraint set")
    if s.n < 2:
        raise ValueError("slice conditions need n >= 2")
    statuses = {False: CERTIFIED, True: REFUTED, None: INCONCLUSIVE}
    c_members = []
    for idx, m in enumerate(s.members):
        value, point = slice_infimum(m, tol)
        status = statuses[_band(value, tol, max(1.0, m.norm()))]
        c_members.append(MemberVerdict(index=idx, status=status, value=value,
                                       witness_point=point if status == CERTIFIED else None))

    if condition_b is None:
        condition_b = check_condition_B(s, tol)
    b_pairs = []
    for base in condition_b.pairs:
        if base.status == CERTIFIED:
            continue
        a, b = (s.members[k] for k in base.pair)
        point = (_slice_witness(a, b, base.optimizer, b.to_dense(), tol)
                 or _pair_slice_witness(a, b, tol) or _pair_slice_witness(b, a, tol))
        b_pairs.append(replace(base, status=REFUTED if point is not None else INCONCLUSIVE,
                               witness_point=point))
    return SliceReport(b_prime_status=_fold_status(b_pairs),
                       c_prime_status=_fold_status(c_members),
                       b_prime_pairs=tuple(b_pairs), c_prime_members=tuple(c_members))


# --------------------------------------------------------------------------
# structural conditions
# --------------------------------------------------------------------------

def _is_trivial_zero_set(s: ConstraintSet) -> bool:
    return len(s.members) == 1 and all(v == 0.0 for v in s.members[0].data)


def check_structural(s: ConstraintSet, tol: float = sdpmod.DEFAULT_TOL,
                     slater: Optional[tuple] = None,
                     inclusions: Optional[dict] = None) -> StructuralReport:
    """(A-1), (A-3)..(A-5); (A-2) is deliberately unchecked.

    `slater` is a (status, X, t, E) result of sdp.solve_slater on a set with the
    same feasible slice, and `inclusions` an inclusion_table of s.members;
    each is computed here when not given.
    """
    a1 = all(m.is_finite() for m in s.members)
    # (A-3): Slater point via max t s.t. X >= tI over the feasible slice
    if slater is None:
        slater = sdpmod.solve_slater(s.members, s.n, tol=tol)
    status, _, tstar, _ = slater
    a3 = status == "optimal" and tstar > tol
    # (A-4)
    psd_members = tuple(i for i, m in enumerate(s.members) if is_psd(m, tol))
    a4 = _is_trivial_zero_set(s) or not psd_members
    # (A-5)
    if inclusions is None:
        inclusions = inclusion_table(s.members, tol)
    violations = [ij for ij in sorted(inclusions) if inclusions[ij] == CERTIFIED]
    undecided = [ij for ij in sorted(inclusions) if inclusions[ij] == INCONCLUSIVE]
    a5 = len(s.members) <= 1 or not violations
    return StructuralReport(
        a1=a1, a2=None, a3=a3, a4=a4, a5=a5,
        slater_margin=tstar if status == "optimal" else -math.inf,
        a4_psd_members=psd_members,
        a5_violations=tuple(violations),
        a5_undecided=tuple(undecided),
    )


# --------------------------------------------------------------------------
# classification (cases (a)/(b) for sets satisfying (A-5) and (B))
# --------------------------------------------------------------------------

def classify(s: ConstraintSet, tol: float = sdpmod.DEFAULT_TOL,
             slater: Optional[tuple] = None) -> Classification:
    """Case (a) at the first member B with max <B,X> within tol * max(1, ||B||)
    of zero over the trace-one feasible slice (a boundary member), case (b)
    when no member is one.  A member positive at an optimal Slater point
    (`slater`, as in check_structural) is clearly interior and needs no SDP.

    A set of at most two members asks the pencil (sdp.pencil_bounds) of
    min <-B,X> s.t. <B',X> >= 0, trace X = 1 for the others, all at once,
    with B' the other member (B itself when it is alone).  B's own row is
    implied whenever the slice is nonempty: the minimum over the larger set
    is at most -max <B,X> <= 0, so a minimizer meets it.  The pencil runs to
    convergence, and a member is a boundary member when the dual lower bound
    is >= -tol s and the feasible value is <= tol s.

    A member of a larger set, or one whose pencil has no answer (as when
    lambda_max(B') <= 0 and the supremum is not attained), solves the
    trace-one SDP with every member row at min(tol / 10, 1e-9): a solve at t
    can leave its value a few t times the scale above the optimum, and the
    band reads a boundary member at -tol times the scale."""
    if slater is None:
        slater = sdpmod.solve_slater(s.members, s.n, tol=tol)
    status, x, _, _ = slater
    k = len(s.members)
    scales = [max(1.0, m.norm()) for m in s.members]
    open_ = [idx for idx, (m, scale) in enumerate(zip(s.members, scales))
             if not (status == "optimal" and inner(m, x) > _REFUTE_FACTOR * tol * scale)]
    lower = upper = [math.nan] * len(open_)
    if k <= 2:
        dense = dense_stack(packed_stack(s.members, s.n), s.n)
        r = sdpmod.pencil_bounds(-dense[open_], dense[[k - 1 - idx for idx in open_]])
        lower, upper = r.lower.tolist(), r.upper.tolist()
    for idx, lo, up in zip(open_, lower, upper):
        scale = scales[idx]
        if math.isnan(lo):
            sol = sdpmod.solve(sdpmod.SdpProblem(s.members[idx].scale(-1.0),
                                                 SymMat.identity(s.n), s.members),
                               tol=min(tol / 10.0, 1e-9))
            boundary = _band(sol.value if sol.status == "optimal" else math.nan, tol, scale)
        else:
            boundary = lo >= -tol * scale and up <= tol * scale
        if boundary:
            return Classification(case="a", exposing_index=idx)
    return Classification(case="b")


# --------------------------------------------------------------------------
# aggregate report
# --------------------------------------------------------------------------

def certify(s: ConstraintSet, tol: float = sdpmod.DEFAULT_TOL,
            slater: Optional[tuple] = None, inclusions: Optional[dict] = None) -> CertReport:
    """All checks on s; `slater`, solved here once when not given, goes to
    check_structural and classify, and `inclusions` to check_structural.
    The slice conditions are checked when n >= 2; (B)' holds only through
    the certificates of (B), so `overall` is certified exactly when (B) is."""
    if slater is None:
        slater = sdpmod.solve_slater(s.members, s.n, tol=tol)
    structural = check_structural(s, tol, slater=slater, inclusions=inclusions)
    cond_b = check_condition_B(s, tol)
    slice_rep = check_Bprime_Cprime(s, tol, condition_b=cond_b) if s.n >= 2 else None
    classification = None
    if cond_b.status == CERTIFIED:
        classification = classify(s, tol, slater=slater)
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
