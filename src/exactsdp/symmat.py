"""Dense symmetric-matrix kernel.

Packed upper-triangular storage, trace inner products, eigendecompositions
through numpy's LAPACK (``eigh``/``eigvalsh``) with one sign rule for
eigenvectors, PSD membership tests and rank-one builders.  Everything here is
a pure function of its inputs; SymMat values are immutable and hashable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_PSD_TOL = 1e-9

# canonical_sign treats entries at or below this fraction of a vector's
# largest magnitude as roundoff
_SIGN_REL_TOL = 1e-9


def packed_len(n: int) -> int:
    return n * (n + 1) // 2


def _packed_indices(n: int):
    """(i, j) pairs, i <= j, in row-major packed order."""
    return [(i, j) for i in range(n) for j in range(i, n)]


@dataclass(frozen=True)
class SymMat:
    """Element of S^n stored as the upper triangle, row-major.

    Only one triangle is stored, so symmetry is structural and the
    packed <-> dense round trip is bitwise exact.
    """

    n: int
    data: tuple

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError("dimension must be positive")
        if len(self.data) != packed_len(self.n):
            raise ValueError("packed length %d does not match n=%d" % (len(self.data), self.n))

    @staticmethod
    def from_dense(a) -> "SymMat":
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("expected a square matrix")
        n = a.shape[0]
        return SymMat(n, tuple(a[i, j] for i, j in _packed_indices(n)))

    @staticmethod
    def from_upper(n: int, entries) -> "SymMat":
        return SymMat(n, tuple(float(v) for v in entries))

    @staticmethod
    def zeros(n: int) -> "SymMat":
        return SymMat(n, (0.0,) * packed_len(n))

    @staticmethod
    def identity(n: int) -> "SymMat":
        return SymMat.diag([1.0] * n)

    @staticmethod
    def diag(values) -> "SymMat":
        values = list(values)
        n = len(values)
        data = [0.0] * packed_len(n)
        k = 0
        for i in range(n):
            data[k] = float(values[i])
            k += n - i
        return SymMat(n, tuple(data))

    def to_dense(self) -> np.ndarray:
        a = np.empty((self.n, self.n))
        k = 0
        for i in range(self.n):
            for j in range(i, self.n):
                a[i, j] = self.data[k]
                a[j, i] = self.data[k]
                k += 1
        return a

    def entry(self, i: int, j: int) -> float:
        if i > j:
            i, j = j, i
        k = i * self.n - i * (i - 1) // 2 + (j - i)
        return self.data[k]

    def norm(self) -> float:
        """Frobenius norm (off-diagonal entries count twice)."""
        s = 0.0
        k = 0
        for i in range(self.n):
            for j in range(i, self.n):
                v = self.data[k]
                s += v * v if i == j else 2.0 * v * v
                k += 1
        return math.sqrt(s)

    def scale(self, c: float) -> "SymMat":
        return SymMat(self.n, tuple(c * v for v in self.data))

    def add(self, other: "SymMat", c: float = 1.0) -> "SymMat":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return SymMat(self.n, tuple(a + c * b for a, b in zip(self.data, other.data)))

    def is_finite(self) -> bool:
        return all(math.isfinite(v) for v in self.data)


@dataclass(frozen=True)
class EigDecomp:
    """Eigenvalues sorted descending with an orthonormal column basis."""

    values: np.ndarray
    vectors: np.ndarray


def inner(a: SymMat, b: SymMat) -> float:
    """Trace inner product <A,B> = trace AB; symmetric in its arguments."""
    if a.n != b.n:
        raise ValueError("dimension mismatch: %d vs %d" % (a.n, b.n))
    s = 0.0
    k = 0
    n = a.n
    for i in range(n):
        for j in range(i, n):
            v = a.data[k] * b.data[k]
            s += v if i == j else 2.0 * v
            k += 1
    return s


def canonical_sign(v) -> np.ndarray:
    """Flip a vector, or each column of a matrix, so that its first entry
    above 1e-9 * max|entry| is positive.

    Eigenvectors are defined up to sign; this rule makes every basis reported
    by the package a deterministic function of its input.  Zero vectors are
    left as they are.
    """
    v = np.asarray(v, dtype=float)
    cols = v if v.ndim == 2 else v.reshape(-1, 1)
    mags = np.abs(cols)
    significant = mags > _SIGN_REL_TOL * np.maximum(mags.max(axis=0), 1e-300)
    lead = cols[np.argmax(significant, axis=0), np.arange(cols.shape[1])]
    out = cols * np.where(lead < 0.0, -1.0, 1.0)
    return out if v.ndim == 2 else out.reshape(v.shape)


def eig_sym(x: SymMat) -> EigDecomp:
    """Full eigendecomposition of a SymMat (LAPACK through numpy.linalg.eigh).

    Eigenvalues come back sorted descending; eigenvector columns follow
    canonical_sign, so the result is a deterministic function of the input.
    """
    if not x.is_finite():
        raise ValueError("non-finite entries")
    values, vectors = np.linalg.eigh(x.to_dense())
    return EigDecomp(values=values[::-1], vectors=canonical_sign(vectors[:, ::-1]))


def eigvals_sym(x: SymMat) -> np.ndarray:
    """Eigenvalues only, sorted descending."""
    if not x.is_finite():
        raise ValueError("non-finite entries")
    return np.linalg.eigvalsh(x.to_dense())[::-1]


def lambda_min(x: SymMat) -> float:
    return float(eigvals_sym(x)[-1])


def is_psd(x: SymMat, tol: float = DEFAULT_PSD_TOL) -> bool:
    """Membership in S^n_+ up to a relative slack of tol * max(1, ||x||_F)."""
    if tol < 0.0:
        raise ValueError("tol must be nonnegative")
    return lambda_min(x) >= -tol * max(1.0, x.norm())


def gram(x) -> SymMat:
    """Rank-one PSD matrix x x^T."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("expected a non-empty vector")
    n = x.size
    data = []
    for i in range(n):
        for j in range(i, n):
            data.append(x[i] * x[j])
    return SymMat(n, tuple(data))


def combine(alpha: float, a: SymMat, beta: float, b: SymMat) -> SymMat:
    """alpha*A + beta*B."""
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    return SymMat(a.n, tuple(alpha * u + beta * v for u, v in zip(a.data, b.data)))
