"""Facial-reduction preprocessing.

Finds the minimal face of the PSD cone containing the feasible cone through
max-rank relative-interior points, projects the problem data onto that face,
removes redundant members under the inclusion partial order, and carries the
basis needed to lift solutions back to the original coordinates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .certify import CERTIFIED, inclusion_status, psd_probes
from .model import ConstraintSet, GeoCop, constraint_set
from .symmat import SymMat, canonical_sign, eig_sym, inner, is_psd
from . import sdp as sdpmod

_RANK_TOL = 1e-7
# psd-ness lets an interior-point iterate leak sqrt(mu)-sized mass into the
# off-block entries, so coordinate alignment is detected loosely and then
# validated exactly by an SDP before any snapping happens
_COORD_SUBSPACE_TOL = 1e-3


@dataclass
class ReductionResult:
    original_n: int
    reduced_n: int
    exposing: Optional[SymMat]       # psd, zero on the feasible cone; None if identity
    basis: np.ndarray                # original_n x reduced_n, orthonormal columns
    reduced: Optional[GeoCop]
    slater_margin: float
    pruned_indices: tuple = ()
    dropped_zero_members: tuple = ()
    rounds: int = 0

    def lift_matrix(self, x: SymMat) -> SymMat:
        xd = self.basis @ x.to_dense() @ self.basis.T
        return SymMat.from_dense((xd + xd.T) / 2.0)

    def lift_vector(self, v) -> np.ndarray:
        return self.basis @ np.asarray(v, dtype=float)


def find_max_rank_point(s: ConstraintSet, tol: float = sdpmod.DEFAULT_TOL):
    """Max-rank point of the trace-one feasible slice and its Slater margin.

    Solves max t s.t. X >= tI, <B,X> >= 0, trace X = 1.  Interior-point
    iterates approach the relative interior of the optimal face, so the
    returned X* has maximal rank among optimizers; face(X*) is the minimal
    face of the PSD cone containing the feasible cone.
    """
    status, x, t = sdpmod.solve_slater(s.members, s.n, tol=min(tol, 1e-9))
    if status == "infeasible":
        return None, -math.inf
    if status not in ("optimal", "max_iter") or x is None:
        raise RuntimeError("max-rank detection failed with solver status %r" % status)
    return x, t


def _coordinate_candidate(vectors: np.ndarray):
    """Indices of a coordinate subspace the range looks aligned with, or None."""
    if vectors.size == 0:
        return None
    proj = vectors @ vectors.T
    diag = np.diag(proj)
    off = proj - np.diag(diag)
    coords = np.where(diag > 0.5)[0]
    if (np.abs(off).max(initial=0.0) < _COORD_SUBSPACE_TOL
            and np.all((diag < _COORD_SUBSPACE_TOL) | (np.abs(diag - 1.0) < _COORD_SUBSPACE_TOL))
            and len(coords) == vectors.shape[1]):
        return tuple(int(i) for i in sorted(coords))
    return None


def _canonical_basis(vectors: np.ndarray) -> np.ndarray:
    """Coordinate 0/1 basis when aligned, else sign-fixed columns (no validation)."""
    coords = _coordinate_candidate(vectors)
    if coords is not None:
        basis = np.zeros_like(vectors)
        for k, i in enumerate(coords):
            basis[i, k] = 1.0
        return basis
    return canonical_sign(vectors)


def _validated_face_basis(vectors: np.ndarray, members, n: int, tol: float):
    """Basis of the detected face plus its exposing matrix.

    A coordinate-aligned candidate is accepted only after the SDP check
    max <F,X> over the feasible slice stays at zero (F = sum of e_i e_i^T
    over the complementary coordinates); then projections reproduce exact
    entries.  Otherwise the raw eigenvector basis is kept.
    """
    coords = _coordinate_candidate(vectors)
    if coords is not None and len(coords) < n:
        comp = [i for i in range(n) if i not in coords]
        f = np.zeros((n, n))
        for i in comp:
            f[i, i] = 1.0
        fsym = SymMat.from_dense(f)
        prob = sdpmod.SdpProblem(
            n=n,
            objective=fsym.scale(-1.0),
            eq_constraints=((SymMat.identity(n), 1.0),),
            ineq_constraints=tuple((m, ">=", 0.0) for m in members),
        )
        sol = sdpmod.solve(prob, tol=min(tol, 1e-9))
        if sol.status == "optimal" and -sol.value <= 10.0 * tol:
            basis = np.zeros((n, len(coords)))
            for k, i in enumerate(coords):
                basis[i, k] = 1.0
            return basis, fsym
    null = np.eye(n) - vectors @ vectors.T
    return vectors, SymMat.from_dense((null + null.T) / 2.0)


def _common_kernel_basis(mats, n: int) -> Optional[np.ndarray]:
    """Orthonormal basis of the joint kernel of all data matrices, or None."""
    acc = np.zeros((n, n))
    for m in mats:
        d = m.to_dense()
        acc += d @ d
    vals, vecs = np.linalg.eigh((acc + acc.T) / 2.0)
    scale = max(float(vals.max()), 1.0)
    keep = vals > 1e-18 * scale
    if keep.all():
        return None
    # directions every data matrix annihilates are invisible to the problem
    return vecs[:, keep]


def facial_reduce(p: GeoCop, tol: float = sdpmod.DEFAULT_TOL) -> ReductionResult:
    """Iterate max-rank detection and projection until Slater's condition holds.

    Objective values are preserved at every round: the feasible cone lives
    inside the detected face, and the face is isomorphic to a smaller PSD
    cone via the orthonormal basis of its range.
    """
    n0 = p.n
    basis_total = np.eye(n0)
    exposing_total = np.zeros((n0, n0))
    has_exposing = False
    cur_Q, cur_H = p.Q, p.H
    cur_members = list(p.bset.members)
    cur_n = n0
    dropped = []
    tstar = math.nan
    rounds = 0

    for _ in range(n0 + 1):
        # directions annihilated by every data matrix carry no information
        kb = _common_kernel_basis([cur_Q, cur_H] + cur_members, cur_n)
        if kb is not None and kb.shape[1] < cur_n:
            kb = _canonical_basis(kb)
            cur_Q = SymMat.from_dense(kb.T @ cur_Q.to_dense() @ kb)
            cur_H = SymMat.from_dense(kb.T @ cur_H.to_dense() @ kb)
            cur_members = [SymMat.from_dense(kb.T @ m.to_dense() @ kb) for m in cur_members]
            basis_total = basis_total @ kb
            cur_n = kb.shape[1]
            rounds += 1
            if cur_n == 0:
                break

        sset = constraint_set(cur_n, cur_members) if cur_members else constraint_set(
            cur_n, [SymMat.zeros(cur_n)])
        xstar, tstar = find_max_rank_point(sset, tol)
        if xstar is None:
            # feasible cone is {O}
            cur_n = 0
            rounds += 1
            break
        if tstar > tol:
            break
        ed = eig_sym(xstar)
        lmax = max(float(ed.values[0]), 0.0)
        keep = ed.values > _RANK_TOL * max(lmax, 1e-300)
        r = int(keep.sum())
        if r >= cur_n or r == 0:
            break  # numerically full rank at a boundary margin; stop reducing
        rounds += 1
        P, f_local = _validated_face_basis(ed.vectors[:, keep], cur_members, cur_n, tol)
        exposing_total += basis_total @ f_local.to_dense() @ basis_total.T
        has_exposing = True
        cur_Q = SymMat.from_dense(P.T @ cur_Q.to_dense() @ P)
        cur_H = SymMat.from_dense(P.T @ cur_H.to_dense() @ P)
        new_members = []
        for idx, m in enumerate(cur_members):
            pm = P.T @ m.to_dense() @ P
            if float(np.abs(pm).max()) < 1e-14 * max(1.0, m.norm()):
                dropped.append(idx)
                continue
            new_members.append(SymMat.from_dense(pm))
        cur_members = new_members
        basis_total = basis_total @ P
        cur_n = P.shape[1]
        if cur_n == 0:
            break

    if cur_n == 0:
        return ReductionResult(
            original_n=n0, reduced_n=0,
            exposing=SymMat.from_dense((exposing_total + exposing_total.T) / 2.0)
            if has_exposing else None,
            basis=np.zeros((n0, 0)), reduced=None,
            slater_margin=-math.inf, dropped_zero_members=tuple(dropped), rounds=rounds)

    members = cur_members if cur_members else [SymMat.zeros(cur_n)]
    reduced = GeoCop(n=cur_n, Q=cur_Q, H=cur_H, bset=constraint_set(cur_n, members),
                     lift=p.lift)
    return ReductionResult(
        original_n=n0,
        reduced_n=cur_n,
        exposing=SymMat.from_dense((exposing_total + exposing_total.T) / 2.0)
        if has_exposing else None,
        basis=basis_total,
        reduced=reduced,
        slater_margin=tstar,
        dropped_zero_members=tuple(dropped),
        rounds=rounds,
    )


def remove_redundant(s: ConstraintSet, tol: float = sdpmod.DEFAULT_TOL):
    """Drop members made redundant under the inclusion partial order.

    A member A is redundant when some distinct surviving B has its feasible
    cone inside A's (then A's inequality adds nothing), and when A is psd
    (its inequality holds on the whole PSD cone).  Within an equivalence
    class (mutual inclusion) the lexicographically smallest packed
    representation is kept.  Returns (pruned_set, removed_indices).
    """
    members = list(s.members)
    if _all_zero(members):
        return constraint_set(s.n, [SymMat.zeros(s.n)], provenance=s.provenance), tuple()
    removed = set()
    psd_mask = [is_psd(m, tol) for m in members]
    for i, flag in enumerate(psd_mask):
        if flag:
            removed.add(i)
    if len(removed) == len(members):
        # every inequality holds on all of S^n_+: canonical trivial set {O}
        return constraint_set(s.n, [SymMat.zeros(s.n)], provenance=s.provenance), tuple(
            sorted(removed))

    alive = [i for i in range(len(members)) if i not in removed]
    probes = psd_probes(s.n, [members[i] for i in alive])
    order = sorted(alive, key=lambda i: members[i].data)

    def included(inner_idx, outer_idx):
        # J+(members[inner_idx]) subset of J+(members[outer_idx]) ?
        return inclusion_status(members[outer_idx], members[inner_idx], tol, probes=probes)

    for a in order:
        if a in removed:
            continue
        for b in order:
            if a == b or b in removed or a in removed:
                continue
            st = included(b, a)
            if st != CERTIFIED:
                continue
            back = included(a, b)
            if back == CERTIFIED:
                # equivalence class: keep the lexicographically smaller packed rep
                keep, drop = (a, b) if members[a].data <= members[b].data else (b, a)
                removed.add(drop)
            else:
                removed.add(a)
            if a in removed:
                break
    kept = [m for i, m in enumerate(members) if i not in removed]
    if not kept:
        kept = [SymMat.zeros(s.n)]
    return constraint_set(s.n, kept, provenance=s.provenance), tuple(sorted(removed))


def _all_zero(members) -> bool:
    return all(all(v == 0.0 for v in m.data) for m in members)
