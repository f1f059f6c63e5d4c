"""Problem data model.

Constraint sets (explicit matrices and the parametric ball / hyperbola /
parabola families), the geometric conic-program instance, quadratic-form
evaluation and normalization.  A semi-infinite family enters only through
the finite truncation a problem lists (for the ball family, its centers or
center box).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .symmat import SymMat


# --------------------------------------------------------------------------
# quadratic-form evaluation
#
# The packed-order accumulation below is the single definition of q(u,z,B)
# in this package: the scalar path, the oracle rasters and the plot rasters
# all run the same multiply/add sequence, so their signs agree bitwise.
# --------------------------------------------------------------------------

def quadform_packed(b: SymMat, coords) -> np.ndarray:
    """q(x) = x^T B x evaluated for every row of `coords` (shape (..., n)).

    Accumulates term by term in packed upper-triangle order.
    """
    coords = np.asarray(coords, dtype=float)
    cols = [coords[..., i] for i in range(b.n)]
    acc = np.zeros(coords.shape[:-1])
    k = 0
    for i in range(b.n):
        for j in range(i, b.n):
            v = b.data[k]
            if v != 0.0:
                if i == j:
                    acc = acc + v * (cols[i] * cols[i])
                else:
                    acc = acc + (2.0 * v) * (cols[i] * cols[j])
            k += 1
    return acc


def eval_quadratic(u, z: float, b: SymMat) -> float:
    """q(u, z, B) = (u; z)^T B (u; z)."""
    u = np.asarray(u, dtype=float).reshape(-1)
    if u.size != b.n - 1:
        raise ValueError("len(u)=%d does not match n-1=%d" % (u.size, b.n - 1))
    x = np.append(u, float(z))
    return float(quadform_packed(b, x))


# --------------------------------------------------------------------------
# parametric constraint families
# --------------------------------------------------------------------------

# memory grows with the k^2 member pairs: 441 disks peak near 400 MB
MAX_GRID_POINTS = 500


def integer_grid(box: Sequence[Sequence[float]]):
    """Integer vectors inside a per-coordinate [lo, hi] box, lexicographic.
    A box of more than MAX_GRID_POINTS vectors is a ValueError, raised before
    any is built."""
    ranges = [range(math.ceil(lo), math.floor(hi) + 1) for lo, hi in box]
    if math.prod(max(r.stop - r.start, 0) for r in ranges) > MAX_GRID_POINTS:
        raise ValueError("center box too wide: more than %d centers" % MAX_GRID_POINTS)
    return list(itertools.product(*ranges))


@dataclass(frozen=True)
class BallGrid:
    """Complement-of-disk constraints q(u,z) = ||u - t z||^2 - r^2 z^2, t in T."""

    centers: tuple  # tuple of (n-1)-dim integer/real vectors
    radius: float

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError("radius must be positive")
        if not math.isfinite(self.radius * self.radius):
            raise ValueError("entries too large: the squared radius overflows")
        if not self.centers:
            raise ValueError("empty center list")

    def member(self, t, n: int) -> SymMat:
        t = np.asarray(t, dtype=float)
        if t.size != n - 1:
            raise ValueError("center dimension %d, expected %d" % (t.size, n - 1))
        a = np.eye(n)
        a[:-1, -1] = -t
        a[-1, :-1] = -t
        a[-1, -1] = float(t @ t) - self.radius ** 2
        return SymMat.from_dense(a)

    def realize(self, n: int):
        return [self.member(t, n) for t in self.centers]


@dataclass(frozen=True)
class HyperbolaSeq:
    """q(u,z) = (u2 - a_{k-1} u1)(u2 - a_k u1) + r^2 z^2 for consecutive breakpoints."""

    breakpoints: tuple  # a_0 < a_1 < ... < a_m, all >= 0
    r2: float

    def __post_init__(self):
        a = self.breakpoints
        if len(a) < 2:
            raise ValueError("need at least two breakpoints")
        if any(a[k] >= a[k + 1] for k in range(len(a) - 1)):
            raise ValueError("breakpoints must be strictly increasing")
        if a[0] < 0.0:
            raise ValueError("breakpoints must be nonnegative")
        if not self.r2 > 0.0:
            raise ValueError("r^2 must be positive")

    def member(self, k: int, n: int) -> SymMat:
        # k is 1-based like the subscript on B_k
        if n != 3:
            raise ValueError("hyperbola family lives in S^3")
        lo, hi = self.breakpoints[k - 1], self.breakpoints[k]
        a = np.zeros((3, 3))
        a[0, 0] = lo * hi
        a[0, 1] = a[1, 0] = -(lo + hi) / 2.0
        a[1, 1] = 1.0
        a[2, 2] = self.r2
        return SymMat.from_dense(a)

    def realize(self, n: int):
        return [self.member(k, n) for k in range(1, len(self.breakpoints))]

    def limit_member(self, abar: float) -> SymMat:
        """cl-B diagnostic: the PSD limit matrix at a_k -> abar."""
        a = np.zeros((3, 3))
        a[0, 0] = abar * abar
        a[0, 1] = a[1, 0] = -abar
        a[1, 1] = 1.0
        a[2, 2] = self.r2
        return SymMat.from_dense(a)


@dataclass(frozen=True)
class ParabolaMember:
    lambdas: tuple          # (lambda_2, ..., lambda_n), all > 0
    sign: int = 1           # -1 flips the feasible side
    transform: Optional[tuple] = None  # optional nonsingular congruence, row-major n x n


@dataclass(frozen=True)
class ParabolaSet:
    """q(u,z) = -u1 z + sum_i lambda_i u_i^2 + lambda_n z^2 (up to sign/congruence)."""

    members: tuple  # of ParabolaMember

    def member(self, pm: ParabolaMember, n: int) -> SymMat:
        lam = [float(v) for v in pm.lambdas]
        if len(lam) != n - 1:
            raise ValueError("need lambda_2..lambda_n (%d values), got %d" % (n - 1, len(lam)))
        if any(v <= 0.0 for v in lam):
            raise ValueError("lambdas must be positive")
        a = np.zeros((n, n))
        for i in range(1, n):
            a[i, i] = lam[i - 1]
        a[0, n - 1] = a[n - 1, 0] = -0.5
        if pm.sign == -1:
            a = -a
        elif pm.sign != 1:
            raise ValueError("sign must be +1 or -1")
        if pm.transform is not None:
            L = np.asarray(pm.transform, dtype=float).reshape(n, n)
            a = L.T @ a @ L
        return SymMat.from_dense(a)

    def realize(self, n: int):
        return [self.member(pm, n) for pm in self.members]


@dataclass(frozen=True)
class GeneralizedHyperbola:
    """q(u,z) = -sum_{i<=l} lam_i u_i^2 + sum_{j>l} sum_{i<=l} lam_j (u_j - s u_i)^2 + lam_n z^2."""

    lambdas: tuple   # lambda_1..lambda_n, all > 0
    sigmas: tuple    # one member per sigma value
    split: int       # l, 1 <= l <= n-2

    def __post_init__(self):
        n = len(self.lambdas)
        if n < 3:
            raise ValueError("need n >= 3")
        if not (1 <= self.split <= n - 2):
            raise ValueError("split index out of range")
        if any(v <= 0.0 for v in self.lambdas):
            raise ValueError("lambdas must be positive")

    def member(self, sigma: float, n: int) -> SymMat:
        lam = [float(v) for v in self.lambdas]
        if len(lam) != n:
            raise ValueError("len(lambdas)=%d, expected n=%d" % (len(lam), n))
        ell = self.split
        a = np.zeros((n, n))
        tail = sum(lam[j] for j in range(ell, n - 1))
        for i in range(ell):
            a[i, i] = -lam[i] + sigma * sigma * tail
        for j in range(ell, n - 1):
            a[j, j] = ell * lam[j]
            for i in range(ell):
                a[i, j] = a[j, i] = -sigma * lam[j]
        a[n - 1, n - 1] = lam[n - 1]
        return SymMat.from_dense(a)

    def realize(self, n: int):
        return [self.member(s, n) for s in self.sigmas]


# --------------------------------------------------------------------------
# constraint sets and problem instances
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstraintSet:
    n: int
    members: tuple

    def __post_init__(self):
        for m in self.members:
            if m.n != self.n:
                raise ValueError("member dimension %d, expected %d" % (m.n, self.n))

    def __len__(self):
        return len(self.members)


def constraint_set(n: int, members) -> ConstraintSet:
    return ConstraintSet(n=n, members=tuple(members))


@dataclass(frozen=True)
class GeoCop:
    """A COP instance: minimize <Q,X> over X in Gamma^n cap J_+(bset), <H,X> = 1.

    `lift` optionally carries a congruence: solutions x get reported as
    lift @ x in the caller's original coordinates.  `restrict_to` optionally
    confines x to the range of a (possibly rank-deficient) n x k matrix L;
    facial reduction projects onto that face before its first Slater solve.
    """

    n: int
    Q: SymMat
    H: SymMat
    bset: ConstraintSet
    lift: Optional[tuple] = None          # row-major (rows, cols, entries)
    restrict_to: Optional[tuple] = None   # row-major (rows=n, cols, entries)

    def __post_init__(self):
        if not (self.Q.n == self.H.n == self.bset.n == self.n):
            raise ValueError("dimension mismatch in problem data")

    def lift_matrix(self) -> Optional[np.ndarray]:
        if self.lift is None:
            return None
        rows, cols, entries = self.lift
        if cols != self.n:
            raise ValueError("lift matrix must have n columns")
        return np.asarray(entries, dtype=float).reshape(rows, cols)

    def restriction_matrix(self) -> Optional[np.ndarray]:
        if self.restrict_to is None:
            return None
        rows, cols, entries = self.restrict_to
        if rows != self.n:
            raise ValueError("restriction matrix must have n rows")
        return np.asarray(entries, dtype=float).reshape(rows, cols)


def build_family(f, n: int) -> ConstraintSet:
    """Realize a parametric family into explicit matrices in S^n."""
    return constraint_set(n, f.realize(n))


# --------------------------------------------------------------------------
# normalization
# --------------------------------------------------------------------------

_DEDUP_DECIMALS = 12


def normalize(s: ConstraintSet) -> ConstraintSet:
    """Unit Frobenius norm for every member; exact duplicates dropped.

    Zero matrices are dropped unless the set is exactly {O}; J_+ is unchanged
    because membership is scale invariant.  Raises ValueError for a member
    whose norm overflows.
    """
    kept = []
    seen = set()
    for m in s.members:
        nrm = m.norm()
        if not math.isfinite(nrm):
            raise ValueError("a member's norm overflows")
        if nrm == 0.0:
            continue
        unit = m.scale(1.0 / nrm)
        key = tuple(round(v, _DEDUP_DECIMALS) for v in unit.data)
        if key in seen:
            continue
        seen.add(key)
        kept.append(unit)
    if not kept:
        kept = [SymMat.zeros(s.n)]
    return constraint_set(s.n, kept)
