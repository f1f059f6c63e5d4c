"""Brute-force reference solvers for the original QCQPs at desk scale.

Sphere sampling with feasibility restoration and tangent-space polish for
the geometric form (H positive definite).  Values are upper bounds on the true
infimum; returned minimizers carry constraint violations at roundoff level
(<= ~1e-12 relative), so the bound never undershoots the optimum by more
than multiplier * roundoff.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import GeoCop, quadform_packed
from .symmat import SymMat, eig_sym

_CHUNK = 20_000
_POLISH_PER_CHUNK = 4
_POLISH_STEPS = 50
_FILTER_SLACK = 1e-10


@dataclass
class OracleResult:
    value: float
    argmin: Optional[np.ndarray]
    samples_used: int
    refined: bool
    feasible_found: bool = True
    max_violation: float = 0.0


def _h_factor(h: SymMat):
    ed = eig_sym(h)
    if ed.values[-1] <= 0.0:
        raise ValueError("H must be positive definite for the sphere oracle")
    # H = R^T R; x = R^{-1} s maps the unit sphere onto x^T H x = 1
    return ed.vectors @ np.diag(1.0 / np.sqrt(np.asarray(ed.values)))


class _SphereWork:
    """Shared pieces of one sphere-oracle run."""

    def __init__(self, p: GeoCop, accept_tol: float):
        self.q = p.Q.to_dense()
        self.h = p.H.to_dense()
        self.members = [m.to_dense() for m in p.bset.members]
        self.accept_tol = accept_tol

    def renorm(self, x):
        r = float(x @ self.h @ x)
        return x / math.sqrt(r) if r > 0 else x

    def cvals(self, x):
        return np.array([float(x @ m @ x) for m in self.members])

    def worst(self, x):
        if not self.members:
            return 0.0
        return float(self.cvals(x).min())

    def feasible(self, x):
        return self.worst(x) >= -self.accept_tol

    def obj(self, x):
        return float(x @ self.q @ x)

    def restore(self, x, iters=60):
        """Round-robin Newton steps on violated constraints, on the sphere."""
        x = self.renorm(x)
        for _ in range(iters):
            if not self.members:
                return x, True
            vals = self.cvals(x)
            k = int(np.argmin(vals))
            v = vals[k]
            if v >= -self.accept_tol:
                return x, True
            g = 2.0 * (self.members[k] @ x)
            gg = float(g @ g)
            if gg < 1e-300:
                return x, False
            x = self.renorm(x - (v / gg) * g)
        return x, self.worst(x) >= -self.accept_tol

    def tangent_grad(self, x, act_tol):
        """Objective gradient projected against the sphere normal and the
        gradients of active constraints."""
        g = 2.0 * (self.q @ x)
        normals = [2.0 * (self.h @ x)]
        if self.members:
            vals = self.cvals(x)
            for k, v in enumerate(vals):
                if abs(v) <= act_tol:
                    normals.append(2.0 * (self.members[k] @ x))
        for nvec in normals:
            nn = float(nvec @ nvec)
            if nn > 1e-300:
                g = g - (float(g @ nvec) / nn) * nvec
        return g

    def polish(self, x0, steps=_POLISH_STEPS):
        x, ok = self.restore(np.array(x0, dtype=float))
        if not ok:
            return None, math.inf
        fx = self.obj(x)
        scale = max(1.0, float(np.abs(self.q).max()))
        step = 0.3
        for _ in range(steps):
            g = self.tangent_grad(x, act_tol=1e-8 * scale)
            gn = float(np.linalg.norm(g))
            if gn < 1e-14:
                break
            cand, ok = self.restore(self.renorm(x - step * (g / gn)), iters=30)
            if ok:
                fc = self.obj(cand)
                if fc < fx - 1e-16:
                    x, fx = cand, fc
                    step = min(step * 1.4, 1.0)
                    continue
            step *= 0.5
            if step < 1e-13:
                break
        return x, fx


def solve_sphere(p: GeoCop, samples: int = 200_000, seed: int = 0) -> OracleResult:
    """Sample the H-sphere, filter by the quadratic constraints, polish.

    Chunked with per-chunk child seeds: a longer run only appends candidates,
    so the value is non-increasing in `samples` for a fixed seed.  Chunks with
    no feasible raw sample (thin feasible sets) fall back to restoring their
    least-violating points onto the feasible set before polishing.  The
    default budget stays under a few seconds per instance at n <= 4.
    """
    if p.n > 6:
        raise ValueError("sphere oracle is desk scale (n <= 6)")
    rinv = _h_factor(p.H)
    member_scale = max([m.norm() for m in p.bset.members] + [1.0])
    work = _SphereWork(p, accept_tol=1e-12 * member_scale)
    best_val = math.inf
    best_x = None
    used = 0
    refined = False
    chunk_idx = 0
    while used < samples:
        take = min(_CHUNK, samples - used)
        rng = np.random.default_rng((seed, chunk_idx))
        s = rng.standard_normal((take, p.n))
        s /= np.linalg.norm(s, axis=1, keepdims=True)
        pts = s @ rinv.T
        used += take
        chunk_idx += 1
        if work.members:
            cons = np.array([quadform_packed(m, pts) for m in p.bset.members])
            mask = (cons >= -_FILTER_SLACK).all(axis=0)
        else:
            mask = np.ones(take, dtype=bool)
        if mask.any():
            feas = pts[mask]
            obj = quadform_packed(p.Q, feas)
            cand = feas[np.argsort(obj, kind="stable")[:_POLISH_PER_CHUNK]]
        else:
            viol = np.where(cons < 0.0, -cons, 0.0).sum(axis=0)
            cand = pts[np.argsort(viol, kind="stable")[:_POLISH_PER_CHUNK]]
        for x0 in cand:
            x, fx = work.polish(x0)
            if x is None:
                continue
            refined = True
            if fx < best_val:
                best_val, best_x = fx, x
    if best_x is None:
        return OracleResult(value=math.inf, argmin=None, samples_used=used,
                            refined=refined, feasible_found=False)
    return OracleResult(value=best_val, argmin=best_x, samples_used=used,
                        refined=refined,
                        max_violation=max(0.0, -work.worst(best_x)))
