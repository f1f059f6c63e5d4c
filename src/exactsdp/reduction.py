"""Facial-reduction preprocessing.

Finds the minimal face of the PSD cone containing the feasible cone from
exposing matrices (each is psd, and its kernel holds the face): -M / tau for
a member or a pair of members with a negative semidefinite combination M,
found with no SDP, and otherwise the dual certificate of a Slater solve.  It
projects the problem data onto that face, removes redundant members under
the inclusion partial order, and carries the basis needed to lift solutions
back to the original coordinates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .certify import CERTIFIED, inclusion_table
from .model import ConstraintSet, GeoCop, constraint_set
from .symmat import SymMat, canonical_sign, dense_stack, is_psd, is_psd_stack, packed_stack
from . import sdp as sdpmod

_RANK_TOL = 1e-7

# a member whose |eigenvalues| spread beyond 1 / _EXPOSE_RCOND is not
# inverted for the roots of det(B_j + y B_k)
_EXPOSE_RCOND = 1e-8
# a root mu with |Im mu| up to this fraction of |mu| counts as real: the
# eigvalsh check decides
_EXPOSE_IMAG = 1e-4


@dataclass
class ReductionResult:
    original_n: int
    reduced_n: int
    # the exposing matrices of the rounds (N N^T for a restriction, -M / tau
    # from one member or a pair, the dual certificate of a Slater round),
    # lifted and summed: psd, zero on the feasible cone, kernel = the final
    # face plus the directions every data matrix annihilates; None if no
    # round reduced by any of them
    exposing: Optional[SymMat]
    basis: np.ndarray                # original_n x reduced_n, orthonormal columns
    reduced: Optional[GeoCop]
    slater_margin: float
    pruned_indices: tuple = ()
    rounds: int = 0
    # (status, X, t, E) of the last sdp.solve_slater call, made on exactly
    # reduced.bset; None when the feasible cone collapsed to {O}
    slater: Optional[tuple] = None

    def lift_vector(self, v) -> np.ndarray:
        return self.basis @ np.asarray(v, dtype=float)


def _kernel_split(K: np.ndarray, cut: float):
    """Orthonormal bases (kernel, range) of the psd matrix K, whose
    eigenvalues at or below cut * max(lambda_max, 1) count as zero.

    When the rows of K that are zero to the same cut are as many as the
    kernel's dimension, they span it, and the bases are those coordinates and
    the rest, so projections keep exact entries.  Otherwise the bases are
    eigenvectors, each oriented as a function of its subspace alone: the
    eigenvectors of the compression of diag(n, ..., 1) to the subspace,
    largest first, signed by canonical_sign.
    """
    n = K.shape[0]
    vals, vecs = np.linalg.eigh(K)
    cut = cut * max(float(vals[-1]), 1.0)
    null = vals <= cut
    zero_rows = np.abs(K).max(axis=1) <= cut
    if zero_rows.sum() == null.sum():
        eye = np.eye(n)
        return eye[:, zero_rows], eye[:, ~zero_rows]
    weight = np.arange(n, 0, -1.0)

    def orient(v):
        rot = np.linalg.eigh((v.T * weight) @ v)[1]
        return canonical_sign(v @ rot[:, ::-1])

    return orient(vecs[:, null]), orient(vecs[:, ~null])


def exposing_matrix(dense: np.ndarray, tol: float = sdpmod.DEFAULT_TOL) -> Optional[SymMat]:
    """An exposing matrix of the feasible cone {X psd : <B_j,X> >= 0} of the
    (k, n, n) member stack `dense`, from one member or a pair and with no
    SDP (partial facial reduction; Permenter & Parrilo 2018), or None.  None
    at once when every member has trace >= 0: then I/n is a Slater point.

    A candidate is M = B_j, or M = B_j + y B_k with y > 0, with
    tau = -tr M > 8 n^2 eps (||B_j|| + y ||B_k||), so M is not a
    cancellation, and delta = max(0, lambda_max(M)).  Every feasible X with
    trace 1 and X >= tI has <M,X> >= 0 from its rows and
    <M,X> <= delta - t(tau + n delta) from -M + delta I psd, so
    t <= delta / (tau + n delta).  A candidate is accepted when that bound
    is <= tol, the test facial reduction applies to the Slater margin, and
    E = -M / tau (trace 1) is returned: psd to delta / tau and zero on the
    feasible cone to the same order, so the face lies in its kernel.  Of
    the accepted candidates the one whose E has the most eigenvalues above
    tol (the smallest kernel) wins, then a midpoint between two roots, then
    the smallest bound: a double root whose kernel is smaller than its
    multiplicity is computed as two roots about sqrt(eps) apart, whose
    midpoint is the root to roundoff while either of them leaves the kernel
    of E off by about sqrt(eps).  A set that solve_slater answers in closed
    form with a margin t_j above tol has no accepted candidate beyond the
    rows' roundoff: its one-row point X_j meets every row, so
    t_j <= bound + (the rows' lean) / tau.

    lambda_max(M) is at least M's largest diagonal entry and the bound grows
    with delta, so that entry screens the single candidates, the members of
    negative trace; one stacked eigh gives the rest their lambda_max and
    their top eigenvectors.  Those eigenvectors and the coordinate vectors
    are probes: a pair is checked when one of its members has negative
    trace, when no probe v gives both v'B_j v and v'B_k v above their lean
    8 n^2 eps ||B|| (then v'Mv > 0 for every y), and when B_k is not -c B_j
    (whose only nonpositive combination is 0).  At the face M(y) is
    singular, so y is a root of det(B_j + y B_k): y = -mu for the
    eigenvalues mu of B_k^-1 B_j, or y = -1/nu for those of B_j^-1 B_k when
    B_j is the better conditioned (none when both are ill-conditioned), from
    one stacked eigvals.  The real positive roots and the midpoints between
    consecutive ones, where M(y) may be nonpositive on an interval, are
    checked in one stacked eigvalsh.
    """
    trace = np.trace(dense, axis1=1, axis2=2)
    if (trace >= 0.0).all() or not np.isfinite(dense).all():
        return None
    k_all, n = dense.shape[:2]
    # the roundoff lean 8 n^2 eps ||B|| per unit of norm
    lean_unit = 8.0 * n * n * np.finfo(float).eps
    norms = np.sqrt(np.einsum("kij,kij->k", dense, dense))
    lean = lean_unit * norms[:, None]
    diag = np.einsum("kii->ki", dense)
    top = np.maximum(diag.max(axis=1), 0.0)
    single = np.flatnonzero((trace < 0.0) & (top <= tol * (n * top - trace)))
    lam, vec = np.linalg.eigh(dense[single])
    V = vec[:, :, -1].T
    pos = np.concatenate((diag > lean, ((dense @ V) * V).sum(axis=1) > lean), axis=1)
    j, k = _exposing_pairs(dense, trace, norms, pos, lean_unit)
    M, ev, scale, mid = dense[single], lam, norms[single], np.zeros(len(single), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        if j.size:
            # the conditioning of the pairs' members, from the eigenvalues
            # at hand and one eigvalsh of the others
            mag = np.zeros((k_all, n))
            rest = np.zeros(k_all, dtype=bool)
            rest[j] = rest[k] = True
            rest[single] = False
            mag[single] = lam
            mag[rest] = np.linalg.eigvalsh(dense[rest])
            mag = np.abs(mag)
            rcond = mag.min(axis=1) / mag.max(axis=1)
            flip = rcond[j] > rcond[k]
            live = np.flatnonzero(np.maximum(rcond[j], rcond[k]) >= _EXPOSE_RCOND)
            inv, other = np.where(flip, j, k)[live], np.where(flip, k, j)[live]
            mu = np.linalg.eigvals(np.linalg.solve(dense[inv], dense[other]))
            roots = np.where(flip[live, None], -1.0 / mu.real, -mu.real)
            real = (np.abs(mu.imag) <= _EXPOSE_IMAG * np.abs(mu)) & (roots > 0.0)
            y = np.sort(np.where(real & np.isfinite(roots), roots, np.nan), axis=1)
            y = np.concatenate((y, (y[:, :-1] + y[:, 1:]) / 2.0), axis=1)
            p, c = np.nonzero(np.isfinite(y))
            mid = np.concatenate((mid, c >= n))
            yv, jp, kp = y[p, c], j[live[p]], k[live[p]]
            pairs = dense[jp] + yv[:, None, None] * dense[kp]
            M = np.concatenate((M, pairs))
            ev = np.concatenate((ev, np.linalg.eigvalsh(pairs)))
            scale = np.concatenate((scale, norms[jp] + yv * norms[kp]))
        tau = -np.trace(M, axis1=1, axis2=2)
        delta = np.maximum(ev[:, -1], 0.0)
        bound = delta / (tau + n * delta)
    ok = np.flatnonzero((tau > lean_unit * scale) & (bound <= tol))
    if not ok.size:
        return None
    rank = (-ev > tol * tau[:, None]).sum(axis=1)
    best = min(ok.tolist(), key=lambda i: (-rank[i], not mid[i], bound[i]))
    e = -M[best] / tau[best]
    return SymMat.from_dense((e + e.T) / 2.0)


def _exposing_pairs(dense, trace, norms, pos, lean_unit):
    """The pairs (j, k), j < k, that exposing_matrix checks: a member of
    negative trace, no probe i with pos[j, i] and pos[k, i] (both rows
    above their lean), and B_k not -c B_j (||B_j / ||B_j|| + B_k / ||B_k|| ||
    above lean_unit)."""
    neg, hit = trace < 0.0, pos.astype(float)
    j, k = np.nonzero(np.triu((neg[:, None] | neg) & ~(hit @ hit.T > 0.0), 1))
    unit = dense / np.where(norms > 0.0, norms, 1.0)[:, None, None]
    apart = unit[j] + unit[k]
    keep = np.sqrt(np.einsum("pij,pij->p", apart, apart)) > lean_unit
    return j[keep], k[keep]


def facial_reduce(p: GeoCop, tol: float = sdpmod.DEFAULT_TOL) -> ReductionResult:
    """Iterate face detection and projection until Slater's condition holds.

    A restriction x in range L (p.restrict_to) is projected onto first.
    Each later round projects onto the range of the data when every data
    matrix annihilates some direction.  Otherwise it asks for an exposing
    matrix from one member or a pair (exposing_matrix), which needs no
    SDP, and projects onto its kernel, or collapses the cone to {O} when the
    kernel is empty; only when none is found, or it is not psd to the cut,
    does it solve the Slater problem and project onto the kernel of its dual
    certificate.  Objective values are preserved at every
    round: the feasible cone lives inside the detected face, and the face is
    isomorphic to a smaller PSD cone via the orthonormal basis of its range.
    """
    n0 = p.n
    basis_total = np.eye(n0)
    exposing = None
    cur_Q, cur_H = p.Q, p.H
    cur_members = list(p.bset.members)
    cur_n = n0
    rounds = 0
    face = None
    L = p.restriction_matrix()
    if L is not None:
        N, P = _kernel_split(L @ L.T, 1e-12)
        if N.shape[1]:
            # x in range L confines X to the face {P Y P^T}, which N N^T
            # exposes: the first pass projects onto it with no SDP
            exposing = N @ N.T
            face = N, P

    # every pass that does not break shrinks cur_n, so the loop ends with a
    # Slater solve on the final members or with cur_n == 0
    while True:
        # directions annihilated by every data matrix carry no information
        dense = dense_stack(packed_stack([cur_Q, cur_H] + cur_members, cur_n), cur_n)
        kernel, P = face or _kernel_split(sum(d @ d for d in dense), 1e-18)
        face = None
        if not kernel.shape[1]:
            # an exposing matrix from one member or a pair needs no SDP
            E = exposing_matrix(dense[2:], tol) if cur_members else None
            exposed = E is not None and is_psd(E, _RANK_TOL)
            if not exposed:
                # max t s.t. X >= tI, <B,X> >= 0, trace X = 1; with no margin
                # its dual certificate E is psd and zero on the feasible cone,
                # so the face lies in ker E (E is an exposing matrix)
                slater = sdpmod.solve_slater(cur_members or [SymMat.zeros(cur_n)], cur_n,
                                             tol=tol)
                status, _, tstar, E = slater
                if status == "infeasible":
                    # feasible cone is {O}
                    cur_n = 0
                    rounds += 1
                    break
                if tstar > tol:
                    break
            e = E.to_dense()
            P, _ = _kernel_split(e, _RANK_TOL)
            if exposed and not P.shape[1]:
                # E is definite on S^cur_n: the feasible cone is {O}
                cur_n = 0
                rounds += 1
                break
            if not is_psd(E, _RANK_TOL) or P.shape[1] in (0, cur_n):
                break  # E exposes no proper face: not psd to the cut, or full rank
            lifted = basis_total @ e @ basis_total.T
            exposing = lifted if exposing is None else exposing + lifted
        rounds += 1
        basis_total = basis_total @ P
        cur_n = P.shape[1]
        if cur_n == 0:
            break  # no x in range(0) = {0} meets x'Hx = 1
        cur_Q = SymMat.from_dense(P.T @ dense[0] @ P)
        cur_H = SymMat.from_dense(P.T @ dense[1] @ P)
        new_members = []
        for m, d in zip(cur_members, dense[2:]):
            pm = P.T @ d @ P
            if float(np.abs(pm).max(initial=0.0)) < 1e-14 * max(1.0, m.norm()):
                continue  # a zero projection constrains nothing on the face
            new_members.append(SymMat.from_dense(pm))
        cur_members = new_members

    if exposing is not None:
        exposing = SymMat.from_dense((exposing + exposing.T) / 2.0)
    if cur_n == 0:
        return ReductionResult(
            original_n=n0, reduced_n=0, exposing=exposing,
            basis=np.zeros((n0, 0)), reduced=None,
            slater_margin=-math.inf, rounds=rounds)

    members = cur_members if cur_members else [SymMat.zeros(cur_n)]
    reduced = GeoCop(n=cur_n, Q=cur_Q, H=cur_H, bset=constraint_set(cur_n, members))
    return ReductionResult(
        original_n=n0,
        reduced_n=cur_n,
        exposing=exposing,
        basis=basis_total,
        reduced=reduced,
        slater_margin=tstar,
        rounds=rounds,
        slater=slater,
    )


def remove_redundant(s: ConstraintSet, tol: float = sdpmod.DEFAULT_TOL):
    """Drop members made redundant under the inclusion partial order.

    A member A is redundant when some distinct surviving B has its feasible
    cone inside A's (then A's inequality adds nothing), and when A is psd
    (its inequality holds on the whole PSD cone).  Within an equivalence
    class (mutual inclusion) the lexicographically smallest packed
    representation is kept.  Returns (pruned_set, removed_indices,
    inclusions), where inclusions is the inclusion table of the non-psd
    members re-indexed to the pruned set (see certify.inclusion_table).
    """
    members = list(s.members)
    zero_set = constraint_set(s.n, [SymMat.zeros(s.n)])
    if _all_zero(members):
        return zero_set, tuple(), {}
    removed = set(np.flatnonzero(is_psd_stack(members, s.n, tol)).tolist())
    if len(removed) == len(members):
        # every inequality holds on all of S^n_+: canonical trivial set {O}
        return zero_set, tuple(sorted(removed)), {}

    alive = [i for i in range(len(members)) if i not in removed]
    table = inclusion_table([members[i] for i in alive], tol)
    # included[a, b]: J+(members[b]) subset of J+(members[a]) ?
    included = {(alive[i], alive[j]): st for (i, j), st in table.items()}
    order = sorted(alive, key=lambda i: members[i].data)

    for a in order:
        if a in removed:
            continue
        for b in order:
            if a == b or b in removed or a in removed:
                continue
            if included[a, b] != CERTIFIED:
                continue
            if included[b, a] == CERTIFIED:
                # equivalence class: keep the lexicographically smaller packed rep
                keep, drop = (a, b) if members[a].data <= members[b].data else (b, a)
                removed.add(drop)
            else:
                removed.add(a)
            if a in removed:
                break
    kept = [i for i in range(len(members)) if i not in removed]
    position = {i: k for k, i in enumerate(kept)}
    survivors = {(position[a], position[b]): st for (a, b), st in included.items()
                 if a in position and b in position}
    return (constraint_set(s.n, [members[i] for i in kept]),
            tuple(sorted(removed)), survivors)


def _all_zero(members) -> bool:
    return all(all(v == 0.0 for v in m.data) for m in members)
