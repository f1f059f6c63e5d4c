import math

import numpy as np
import pytest

from exactsdp.symmat import (SymMat, canonical_sign, combine, eig_sym, eigvals_sym,
                             gram, inner, is_psd, lambda_min)
from exactsdp.model import quadform_packed
from exactsdp.gallery import ex61_matrices


def random_sym(rng, n):
    a = rng.standard_normal((n, n))
    return SymMat.from_dense((a + a.T) / 2.0)


def assert_first_significant_positive(vectors):
    """Each column's first entry above 1e-9 * max|entry| is positive."""
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        top = float(np.abs(col).max())
        lead = next(v for v in col if abs(v) > 1e-9 * top)
        assert lead > 0.0, (j, col)


# top eigenvector +-(1, -1)/sqrt(2) with roundoff tilting either entry ahead
TIED_MAGNITUDE = (
    [[1.0, -1.0], [-1.0, 1.0]],
    [[1.0, -1.0], [-1.0, 1.0 + 4e-16]],
    [[1.0 + 4e-16, -1.0], [-1.0, 1.0]],
    [[1.0, -1.0 + 2e-16], [-1.0 + 2e-16, 1.0]],
)


def test_packed_dense_roundtrip_bitwise():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        x = random_sym(rng, n)
        y = SymMat.from_dense(x.to_dense())
        assert x.data == y.data  # exact, not approx
    special = SymMat.from_dense([[0.1, -0.3], [-0.3, 1e-300]])
    assert SymMat.from_dense(special.to_dense()).data == special.data


def test_inner_identity():
    assert inner(SymMat.identity(2), SymMat.identity(2)) == 2.0


def test_inner_worked_example_products():
    a, b, _ = ex61_matrices()
    xt = SymMat.diag([0.0, 0.0, 1.0, 1.0])
    assert inner(b, xt) == 0.0
    assert inner(a, xt) == -2.0


def test_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        inner(SymMat.identity(2), SymMat.identity(3))


def test_eig_already_diagonal():
    ed = eig_sym(SymMat.diag([3.0, 1.0]))
    assert tuple(ed.values) == (3.0, 1.0)
    assert np.array_equal(ed.vectors, np.eye(2))


def test_eig_offdiagonal_2x2():
    ed = eig_sym(SymMat.from_dense([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(ed.values, [1.0, -1.0], atol=1e-14)
    assert_first_significant_positive(ed.vectors)
    for dense in TIED_MAGNITUDE:
        ed = eig_sym(SymMat.from_dense(dense))
        assert abs(ed.values[0] - 2.0) <= 1e-14
        top = ed.vectors[:, 0]
        assert top[0] > 0.0 and top[1] < 0.0
        assert np.allclose(top, [1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)], atol=1e-14)
        assert_first_significant_positive(ed.vectors)


def test_eig_random_reconstruction():
    rng = np.random.default_rng(3)
    for _ in range(120):
        n = int(rng.integers(2, 9))
        x = random_sym(rng, n)
        d = x.to_dense()
        scale = max(1.0, x.norm())
        ed = eig_sym(x)
        recon = ed.vectors @ np.diag(ed.values) @ ed.vectors.T
        assert np.linalg.norm(recon - d) <= 1e-10 * scale
        assert np.linalg.norm(ed.vectors.T @ ed.vectors - np.eye(n)) <= 1e-10
        assert all(ed.values[i] >= ed.values[i + 1] for i in range(n - 1))
        assert_first_significant_positive(ed.vectors)


def test_canonical_sign_vector_and_columns():
    # a leading entry at roundoff level does not decide the sign
    v = np.array([1e-12, -2.0, 1.0])
    assert canonical_sign(v).tolist() == [-1e-12, 2.0, -1.0]
    assert canonical_sign(np.zeros(3)).tolist() == [0.0, 0.0, 0.0]
    cols = np.array([[0.0, -1.0], [-3.0, 2.0]])
    assert canonical_sign(cols).tolist() == [[-0.0, 1.0], [3.0, -2.0]]
    assert np.array_equal(canonical_sign(canonical_sign(cols)), canonical_sign(cols))


def test_eig_deterministic():
    x = random_sym(np.random.default_rng(4), 5)
    e1, e2 = eig_sym(x), eig_sym(x)
    assert np.array_equal(e1.values, e2.values)
    assert np.array_equal(e1.vectors, e2.vectors)


def test_eig_rejects_nonfinite():
    bad = SymMat.from_upper(2, [1.0, math.nan, 1.0])
    with pytest.raises(ValueError):
        eig_sym(bad)
    with pytest.raises(ValueError):
        eigvals_sym(bad)


def test_lambda_min_examples():
    assert lambda_min(SymMat.diag([1.0, 2.0])) == 1.0
    # closed form: eigenvalues -1 +- 2
    assert abs(lambda_min(SymMat.from_dense([[-1, -2], [-2, -1]])) + 3.0) <= 1e-12
    assert lambda_min(SymMat.zeros(3)) == 0.0


def test_is_psd_examples():
    assert is_psd(SymMat.from_dense([[2, 1], [1, 1]]))
    assert not is_psd(SymMat.from_dense([[-1, -2], [-2, -1]]))
    assert is_psd(SymMat.zeros(2))
    with pytest.raises(ValueError):
        is_psd(SymMat.zeros(2), tol=-1.0)


def test_gram_examples():
    assert gram([1.0, 0.0]).to_dense().tolist() == [[1.0, 0.0], [0.0, 0.0]]
    g = gram(np.array([1.0, 1.0]) / math.sqrt(2.0))
    assert abs(g.entry(0, 0) - 0.5) <= 1e-15
    assert abs(g.entry(0, 0) + g.entry(1, 1) - 1.0) <= 1e-15


def test_gram_properties():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        x = rng.standard_normal(n)
        g = gram(x)
        assert is_psd(g)
        vals = eigvals_sym(g)
        if n > 1 and vals[0] > 0:
            assert abs(vals[1]) / vals[0] <= 1e-12
        b = random_sym(rng, n)
        ref = float(x @ b.to_dense() @ x)
        assert abs(inner(g, b) - ref) <= 1e-12 * max(1.0, abs(ref))


def test_combine():
    a = SymMat.diag([1.0, 0.0])
    b = SymMat.diag([0.0, 2.0])
    assert combine(2.0, a, 0.5, b).data == (2.0, 0.0, 1.0)


def test_quadform_matches_entry_accumulation():
    rng = np.random.default_rng(6)
    b = random_sym(rng, 4)
    pts = rng.standard_normal((10, 4))
    vals = quadform_packed(b, pts)
    for k in range(10):
        assert vals[k] == quadform_packed(b, pts[k])
