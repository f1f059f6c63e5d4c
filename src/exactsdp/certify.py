"""Exactness-condition checkers.

Structural conditions (A-1)..(A-5), the pairwise condition (B), the slice
conditions (B)'/(C)' on the z = 1 sections ((C)' in closed form, through
the Schur complement of each member, from one stacked eigh of the members'
quadratic blocks), and the boundary-member classification.  The pair layer
(condition (B)) and the inclusion layer ((A-5) and pruning) run over all
pairs at once on dense stacks.  Both end in one stacked pencil search
(sdp.pencil_bounds, the two-constraint S-lemma) of a trace-one SDP with one
member row, which returns a dual lower bound and the value of a feasible X.
A condition-(B) pair asks the pencil of its refutation problem
min <A,X> s.t. <B,X> <= 0, trace X = 1 once: its dual end gives the
(alpha, beta) certificate when some A + yB is psd, and otherwise its
feasible X refutes the pair or leaves it open.  Pairs that are translates
of one another up to positive scaling (a lattice family) form a class that
asks once; every other pair of a certified class checks the mapped
certificate on its own matrices.  An inclusion the covariant probes leave
open asks its own pencil.  The band reads the lower bound at its
nonnegative end and the value of X at its negative end, so both rest on
checked numbers, not on a solve within tolerance.  classify asks the pencil
too, with A = -B, for a set of at most two members.  Only classify on a
larger set, or on a member whose pencil has no answer, solves an
interior-point SDP here, besides the Slater point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .model import ConstraintSet, quadform_packed
from .symmat import (SymMat, dense_stack, inner, is_psd_stack, lambda_min_stack,
                     packed_stack)
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


# pairs share a search when their keys agree to this many decimals; the
# check of each pair on its own matrices, not the key, decides its status
_KEY_DECIMALS = 9
# a block whose smallest |eigenvalue| is below this fraction of its largest
# counts as singular: its member has no centre to key on
_KEY_CONDITION = 1e-8


def _translation_classes(dense, ia, ib):
    """Classes of the pairs (A, B) = (dense[i], dense[j]) that are one pair up
    to a translation and a positive scaling of each member.

    With A = [[P, c], [c', s]] and P nonsingular, T = [[I, t], [0, 1]] at the
    centre t = -P^-1 c is a congruence, so alpha A + beta B is psd exactly
    when T'(alpha A + beta B)T is, and T'AT has no linear part.  The key of
    (A, B) is T'AT and T'BT, each over the Frobenius norm of its quadratic
    block, rounded to _KEY_DECIMALS with -0.0 folded to 0.0, and one void
    view of the key rows takes np.unique (np.unique(axis=0) is several times
    slower).  A pair takes no key, and class -1, when a member is not
    finite, when A has no centre (a singular block), or when A == B.

    Returns (cls, first, ratio): the class of every pair, the index of the
    first pair of every class, and ||P_A|| / ||P_B|| for every pair.
    """
    n = dense.shape[1]
    finite = np.isfinite(dense).all(axis=(1, 2))
    safe = np.where(finite[:, None, None], dense, 0.0)
    block, c, s = safe[:, :-1, :-1], safe[:, :-1, -1], safe[:, -1, -1]
    lam, vecs = np.linalg.eigh(block)
    mag = np.abs(lam)
    centred = finite & (mag.min(axis=1) > _KEY_CONDITION * mag.max(axis=1))
    # t = -P^-1 c through the eigenpairs, on the centred members only
    t = -np.einsum("kij,kj->ki", vecs, np.einsum("kji,kj->ki", vecs, c)
                   / np.where(centred[:, None], lam, 1.0))
    bnorm = np.sqrt(np.einsum("kij,kij->k", block, block))
    bnorm = np.where(bnorm > 0.0, bnorm, 1.0)
    cls = np.full(len(ia), -1)
    keyed = np.flatnonzero(centred[ia] & finite[ib] & (dense[ia] != dense[ib]).any(axis=(1, 2)))
    iu = np.triu_indices(n - 1)
    ka, kb, tp = ia[keyed], ib[keyed], t[ia[keyed]]
    # a key or a ratio that overflows only groups pairs: the check on each
    # pair's own matrices decides
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = bnorm[ia] / bnorm[ib]
        upper = block[:, iu[0], iu[1]] / bnorm[:, None]
        # each first member at its own centre: the block and the corner
        # t'Pt + 2c't + s = c't + s; the linear part P t + c is zero
        own = np.concatenate((upper, ((np.einsum("ki,ki->k", t, c) + s) / bnorm)[:, None]),
                             axis=1)
        pt = np.einsum("pij,pj->pi", block[kb], tp)
        keys = np.concatenate((own[ka], upper[kb], (pt + c[kb]) / bnorm[kb, None],
                               ((np.einsum("pi,pi->p", tp, pt + 2.0 * c[kb]) + s[kb])
                                / bnorm[kb])[:, None]), axis=1)
        keys = np.round(keys, _KEY_DECIMALS) + 0.0
    if not keyed.size:
        return cls, keyed, ratio
    rows = np.ascontiguousarray(keys).view(np.dtype((np.void, keys.itemsize * keys.shape[1])))
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    cls[keyed] = inverse.ravel()
    return cls, keyed[first], ratio


def _pair_verdicts(members, pairs, tol: float) -> list:
    """Decide J_0(B) subset of J_+(A) for each pair (i, j), A = members[i].

    Translates of one pair share a search (_translation_classes).  A stacked
    pencil search (sdp.ab_certificates) runs once on the first pair of every
    class and on every pair without a class; it certifies a pair with (1, y)
    when A + yB is psd to the tolerance, and otherwise returns its bounds on
    the refutation problem min <A,X> s.t. <B,X> <= 0, trace X = 1.  Every
    other pair of a certified class maps the first pair's y by the ratio of
    the block norms and is checked on its own matrices by the unchanged rule
    (sdp.certificate_holds), all in one stacked lambda_min, which also gives
    its margin.  The pairs that fail the check, and those of a class whose
    first pair has no certificate, take the full search, so a refutation
    always comes from a pair's own pencil.  Sets of one pair build no keys.

    A refuted pair reports the pencil's feasible X as a witness when the
    value of X is clearly negative, and X rides along unrounded, so
    check_Bprime_Cprime can split it into (B)' witness points without
    another solve.  A pencil without an answer (NaN) leaves the pair
    inconclusive.
    """
    n = members[0].n
    dense = dense_stack(packed_stack(members, n), n)
    norms = [m.norm() for m in members]
    ia, ib = np.array(pairs, dtype=int).reshape(-1, 2).T
    scales = np.take(norms, ia) + np.take(norms, ib)
    # the certificate of each pair, and the refutation bounds and X of each
    # pair that ran its own search
    y, lam, lower, upper = np.full((4, len(pairs)), np.nan)
    X = np.empty((len(pairs), n, n))

    def search(idx):
        ys, lams, r = sdpmod.ab_certificates(dense[ia[idx]], dense[ib[idx]], scales[idx], tol)
        y[idx], lam[idx], lower[idx], upper[idx], X[idx] = ys, lams, r.lower, r.upper, r.X

    cls, first = np.full(len(pairs), -1), np.zeros(0, dtype=int)
    if len(pairs) > 1 and n > 1:
        cls, first, ratio = _translation_classes(dense, ia, ib)
    lead = cls < 0
    lead[first] = True
    search(np.flatnonzero(lead))
    if first.size:
        share = np.flatnonzero(~lead)
        head = first[cls[share]]
        # NaN where the class has no certificate; a y or a sum that
        # overflows takes the full search too
        with np.errstate(over="ignore", invalid="ignore"):
            ys = y[head] * (ratio[share] / ratio[head])
            sums = dense[ia[share]] + ys[:, None, None] * dense[ib[share]]
        ok = np.isfinite(sums).all(axis=(1, 2))
        take, ys = share[ok], ys[ok]
        if take.size:
            lams = lambda_min_stack(sums[ok])
            held = sdpmod.certificate_holds(ys, lams, scales[take], tol)
            y[take[held]], lam[take[held]] = ys[held], lams[held]
        rest = share[np.isnan(y[share])]
        if rest.size:
            search(rest)

    # the certified pairs first, then each other pair from its own search
    margins = (lam / np.maximum(scales, 1.0)).tolist()
    # positional: (pair, status, certificate, witness, margin)
    verdicts = [PairVerdict(pair, CERTIFIED, (1.0, yp), None, mp) if yp == yp else None
                for pair, yp, mp in zip(pairs, y.tolist(), margins)]
    for p in np.flatnonzero(np.isnan(y)).tolist():
        up, scale_a = float(upper[p]), max(1.0, norms[pairs[p][0]])
        refuted = _band(float(lower[p]), tol, scale_a, up) is False
        verdicts[p] = PairVerdict(
            pair=pairs[p], status=REFUTED if refuted else INCONCLUSIVE,
            witness=_canonical_witness(SymMat.from_dense(X[p])) if refuted else None,
            margin=up / scale_a, optimizer=X[p])
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


def _slice_infima(dense: np.ndarray, norms: np.ndarray, tol: float) -> tuple:
    """slice_infimum of every member of a (k, n, n) stack, with norms[m] =
    ||B_m||, from one stacked eigh of the quadratic blocks: (values, points),
    the infima as a (k,) array and the witness points as a list of tuples or
    None.  A finite infimum sums over the eigenvalues that are not flat, a
    suffix of the ascending eigenvalues, taken per count of flat ones."""
    k = len(dense)
    cut = tol * np.maximum(1.0, norms)
    lam, vecs = np.linalg.eigh(dense[:, :-1, :-1])
    w = (vecs.transpose(0, 2, 1) @ dense[:, :-1, -1:])[..., 0]
    s = dense[:, -1, -1]
    flat = np.abs(lam) <= cut[:, None]
    loose = np.where(flat, np.abs(w), 0.0)
    ray = lam[:, 0] < -cut  # eigh sorts ascending
    i = np.where(ray, 0, np.argmax(loose, axis=1))
    rows = np.arange(k)
    down = ray | (loose[rows, i] > cut)
    values, u, t = np.where(down, -np.inf, 0.0), np.zeros(w.shape), np.zeros(k)
    d = np.flatnonzero(ray)
    t[d] = 2.0 * np.sqrt(np.maximum(s[d], 0.0) / -lam[d, 0]) + 1.0
    d = np.flatnonzero(down & ~ray)
    li, lami = loose[d, i[d]], lam[d, i[d]]
    t[d] = (np.maximum(s[d], 0.0) + 1.0) / li
    pos = lami > 0.0
    t[d[pos]] = np.minimum(t[d[pos]], li[pos] / lami[pos])
    d = np.flatnonzero(down)
    u[d] = np.where(w[d, i[d]] > 0.0, -t[d], t[d])[:, None] * vecs[d, :, i[d]]
    finite = np.flatnonzero(~down)
    nflat = flat[finite].sum(axis=1)
    for f in sorted(set(nflat.tolist())):
        g, keep = finite[nflat == f], np.arange(f, w.shape[1])
        lk, wk = lam[g, f:], w[g, f:]
        values[g] = s[g] - np.sum(wk ** 2 / lk, axis=1)
        # an index array on the last axis copies the columns in the layout
        # that sets the matrix-vector product's summation order
        u[g] = (-vecs[g][:, :, keep] @ (wk / lk)[..., None])[..., 0]
    x = np.concatenate((u, np.ones((k, 1))), axis=1)
    passed = np.einsum("ki,kij,kj->k", x, dense, x) < -tol
    return values, [tuple(p) if ok else None for p, ok in zip(u.tolist(), passed.tolist())]


def slice_infimum(b: SymMat, tol: float) -> tuple:
    """inf over u of q(u, 1, B) in closed form, with a witness point: the
    one-member call of the stacked (C)' layer.

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
    values, points = _slice_infima(b.to_dense()[None], np.array([b.norm()]), tol)
    return float(values[0]), points[0]


def check_Bprime_Cprime(s: ConstraintSet, tol: float = sdpmod.DEFAULT_TOL,
                        condition_b: Optional[ConditionBReport] = None) -> SliceReport:
    """(C)' per member through the closed-form slice infimum (slice_infimum,
    here for all members from one stacked eigh of their quadratic blocks):
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
    norms = [m.norm() for m in s.members]
    values, points = _slice_infima(dense_stack(packed_stack(s.members, s.n), s.n),
                                   np.array(norms), tol)
    c_members = []
    for idx, (value, point, norm) in enumerate(zip(values.tolist(), points, norms)):
        status = statuses[_band(value, tol, max(1.0, norm))]
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
    psd_members = tuple(np.flatnonzero(is_psd_stack(s.members, s.n, tol)).tolist())
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
    band reads a boundary member at -tol times the scale.  A solve that ends
    "numerical" or "max_iter" is read at its best iterate when that
    iterate's residuals are within tol, and as no answer otherwise."""
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
            # a solve that stalled ("numerical", "max_iter") reports its best
            # iterate, which is read when its residuals are within tol
            settled = sol.status == "optimal" or (
                sol.status in ("numerical", "max_iter") and max(sol.residuals) <= tol)
            boundary = _band(sol.value if settled else math.nan, tol, scale)
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
