import math

import numpy as np
import pytest

from exactsdp.model import (BallGrid, GeneralizedHyperbola, HyperbolaSeq,
                            ParabolaMember, ParabolaSet, build_family,
                            constraint_set, eval_quadratic, integer_grid,
                            normalize)
from exactsdp.symmat import SymMat, gram, inner


def test_eval_quadratic_ball_center():
    fam = BallGrid(centers=((0.0, 0.0),), radius=0.5)
    b = fam.member((0.0, 0.0), 3)
    assert eval_quadratic([0.0, 0.0], 1.0, b) == -0.25


def test_eval_quadratic_hyperbola_origin():
    fam = HyperbolaSeq(breakpoints=(0.0, 1.0, 2.0, 4.0), r2=0.5)
    b1 = fam.member(1, 3)
    assert eval_quadratic([0.0, 0.0], 1.0, b1) == 0.5


def test_eval_quadratic_zero_at_origin():
    rng = np.random.default_rng(0)
    for _ in range(5):
        a = rng.standard_normal((3, 3))
        b = SymMat.from_dense((a + a.T) / 2)
        assert eval_quadratic([0.0, 0.0], 0.0, b) == 0.0


def test_eval_quadratic_dim_mismatch():
    with pytest.raises(ValueError):
        eval_quadratic([1.0], 1.0, SymMat.identity(3))


def test_eval_quadratic_matches_gram_inner():
    rng = np.random.default_rng(1)
    for _ in range(60):
        n = int(rng.integers(2, 6))
        a = rng.standard_normal((n, n))
        b = SymMat.from_dense((a + a.T) / 2)
        u = rng.standard_normal(n - 1)
        z = float(rng.standard_normal())
        lhs = eval_quadratic(u, z, b)
        ref = inner(gram(np.append(u, z)), b)
        assert abs(lhs - ref) <= 1e-12 * max(1.0, abs(ref))


def test_build_family_ball_entries():
    fam = BallGrid(centers=((0.0, 0.0),), radius=0.5)
    s = build_family(fam, 3)
    assert s.members[0].to_dense().tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, -0.25]]


def test_build_family_hyperbola_entries():
    fam = HyperbolaSeq(breakpoints=(0.0, 1.0, 2.0, 4.0), r2=0.5)
    s = build_family(fam, 3)
    c1 = s.members[0].to_dense()
    assert c1.tolist() == [[0.0, -0.5, 0.0], [-0.5, 1.0, 0.0], [0.0, 0.0, 0.5]]


def test_build_family_parabola_formula():
    fam = ParabolaSet(members=(ParabolaMember(lambdas=(16.0, 3.0)),))
    b = build_family(fam, 3).members[0]
    rng = np.random.default_rng(2)
    for _ in range(20):
        u = rng.standard_normal(2)
        ref = -u[0] + 16.0 * u[1] ** 2 + 3.0
        assert abs(eval_quadratic(u, 1.0, b) - ref) <= 1e-12 * max(1.0, abs(ref))


def test_ball_scalar_formula_agreement():
    fam = BallGrid(centers=((1.0, -2.0),), radius=0.5)
    b = build_family(fam, 3).members[0]
    rng = np.random.default_rng(3)
    t = np.array([1.0, -2.0])
    for _ in range(50):
        u = rng.standard_normal(2)
        z = float(rng.standard_normal())
        ref = float((u - t * z) @ (u - t * z)) - 0.25 * z * z
        assert abs(eval_quadratic(u, z, b) - ref) <= 1e-12 * max(1.0, abs(ref))


def test_hyperbola_scalar_formula_agreement():
    fam = HyperbolaSeq(breakpoints=(0.0, 1.0, 2.0, 4.0), r2=0.5)
    rng = np.random.default_rng(4)
    for k in (1, 2, 3):
        b = fam.member(k, 3)
        lo, hi = fam.breakpoints[k - 1], fam.breakpoints[k]
        for _ in range(50):
            u = rng.standard_normal(2)
            z = float(rng.standard_normal())
            ref = (u[1] - lo * u[0]) * (u[1] - hi * u[0]) + 0.5 * z * z
            assert abs(eval_quadratic(u, z, b) - ref) <= 1e-12 * max(1.0, abs(ref))


def test_generalized_hyperbola_formula():
    fam = GeneralizedHyperbola(lambdas=(1.0, 2.0, 3.0, 4.0), sigmas=(0.7,), split=2)
    b = fam.member(0.7, 4)
    rng = np.random.default_rng(5)
    for _ in range(50):
        u = rng.standard_normal(3)
        z = float(rng.standard_normal())
        lam = (1.0, 2.0, 3.0, 4.0)
        ref = -sum(lam[i] * u[i] ** 2 for i in range(2))
        ref += sum(lam[2] * (u[2] - 0.7 * u[i]) ** 2 for i in range(2))
        ref += lam[3] * z * z
        assert abs(eval_quadratic(u, z, b) - ref) <= 1e-12 * max(1.0, abs(ref))


def test_normalize_scaling():
    s = normalize(constraint_set(2, [SymMat.identity(2).scale(2.0)]))
    assert len(s.members) == 1
    assert abs(s.members[0].to_dense()[0, 0] - 1.0 / math.sqrt(2.0)) <= 1e-15
    assert abs(s.members[0].norm() - 1.0) <= 1e-15


def test_normalize_zero_set():
    s = normalize(constraint_set(2, [SymMat.zeros(2)]))
    assert len(s.members) == 1 and s.members[0].data == (0.0, 0.0, 0.0)


def test_normalize_refuses_an_overflowing_norm():
    # scaling by 1 / inf would turn the member into the zero matrix
    with pytest.raises(ValueError, match="overflows"):
        normalize(constraint_set(2, [SymMat.diag([1e200, -1.0]), SymMat.identity(2)]))


def test_normalize_drops_duplicates_and_preserves_signs():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((3, 3))
    b = SymMat.from_dense((a + a.T) / 2)
    s = normalize(constraint_set(3, [b, b.scale(2.0), b.scale(0.5)]))
    assert len(s.members) == 1
    unit = s.members[0]
    for _ in range(50):
        x = rng.standard_normal(3)
        before = float(x @ b.to_dense() @ x)
        after = float(x @ unit.to_dense() @ x)
        assert before == 0.0 or math.copysign(1, before) == math.copysign(1, after)
    for m in s.members:
        assert abs(m.norm() - 1.0) <= 1e-14


def test_integer_grid_counting():
    assert len(integer_grid([(-2, 2), (-2, 2)])) == 25


def test_overflowing_family_parameters_are_value_errors():
    # Python float arithmetic raises OverflowError where numpy gives inf (the
    # squared radius), and a box too long for a list must not reach one
    with pytest.raises(ValueError, match="squared radius overflows"):
        build_family(BallGrid(centers=((0.0, 0.0),), radius=1e200), 3)
    with pytest.raises(ValueError, match="too wide"):
        integer_grid([(0, 1e300), (0, 1)])


def test_integer_grid_cap_counts_before_building():
    assert len(integer_grid([(0, 499), (0, 0)])) == 500
    with pytest.raises(ValueError, match="more than 500 centers"):
        integer_grid([(0, 500), (0, 0)])
    # reversed coordinates count zero integers each, not a positive product
    assert integer_grid([(10, -20), (10, -20)]) == []


def test_family_validation():
    with pytest.raises(ValueError):
        HyperbolaSeq(breakpoints=(1.0, 1.0), r2=0.5)
    with pytest.raises(ValueError):
        HyperbolaSeq(breakpoints=(0.0, 1.0), r2=0.0)
    with pytest.raises(ValueError):
        BallGrid(centers=((0, 0),), radius=0.0)
    with pytest.raises(ValueError):
        GeneralizedHyperbola(lambdas=(1.0, 1.0, 1.0), sigmas=(0.0,), split=2)
