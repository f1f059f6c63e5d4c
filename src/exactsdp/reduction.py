"""Facial-reduction preprocessing.

Finds the minimal face of the PSD cone containing the feasible cone from the
dual certificates of Slater solves (each is psd, and its kernel holds the
face), projects the problem data onto that face, removes redundant members
under the inclusion partial order, and carries the basis needed to lift
solutions back to the original coordinates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .certify import CERTIFIED, inclusion_table
from .model import ConstraintSet, GeoCop, constraint_set
from .symmat import SymMat, canonical_sign, is_psd, is_psd_stack
from . import sdp as sdpmod

_RANK_TOL = 1e-7


@dataclass
class ReductionResult:
    original_n: int
    reduced_n: int
    # the exposing matrices of the rounds (N N^T for a restriction, the dual
    # certificate of a Slater round), lifted and summed: psd, zero on the
    # feasible cone, kernel = the final face plus the directions every data
    # matrix annihilates; None if no round reduced by either
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


def facial_reduce(p: GeoCop, tol: float = sdpmod.DEFAULT_TOL) -> ReductionResult:
    """Iterate face detection and projection until Slater's condition holds.

    A restriction x in range L (p.restrict_to) is projected onto first.
    Each later round projects onto the range of the data when every data
    matrix annihilates some direction, and otherwise onto the kernel of the
    Slater solve's dual certificate.  Objective values are preserved at every
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
        dense = [m.to_dense() for m in [cur_Q, cur_H] + cur_members]
        kernel, P = face or _kernel_split(sum(d @ d for d in dense), 1e-18)
        face = None
        if not kernel.shape[1]:
            # max t s.t. X >= tI, <B,X> >= 0, trace X = 1; with no margin its
            # dual certificate E is psd and zero on the feasible cone, so the
            # face lies in ker E (E is an exposing matrix)
            slater = sdpmod.solve_slater(cur_members or [SymMat.zeros(cur_n)], cur_n, tol=tol)
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
