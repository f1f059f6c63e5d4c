import math

import numpy as np
import pytest

from exactsdp.model import GeoCop, constraint_set
from exactsdp.oracle import solve_sphere
from exactsdp.symmat import SymMat
from exactsdp.gallery import ex61_reduced_matrices

SQRT3_OVER_2 = math.sqrt(3.0) / 2.0


def unconstrained(n, q, h=None):
    return GeoCop(n=n, Q=q, H=h or SymMat.identity(n),
                  bset=constraint_set(n, [SymMat.zeros(n)]))


def test_rayleigh_quotient():
    res = solve_sphere(unconstrained(2, SymMat.diag([2.0, 5.0])), samples=50_000, seed=0)
    assert abs(res.value - 2.0) <= 1e-9
    assert abs(abs(res.argmin[0]) - 1.0) <= 1e-6 and abs(res.argmin[1]) <= 1e-5


def test_reduced_worked_example():
    b, c = ex61_reduced_matrices()
    p = GeoCop(n=2, Q=SymMat.diag([1.0, -1.0]), H=SymMat.identity(2),
               bset=constraint_set(2, [b, c]))
    res = solve_sphere(p, samples=100_000, seed=0)
    assert abs(res.value + SQRT3_OVER_2) <= 1e-9
    assert res.max_violation <= 1e-8
    # argmin satisfies the constraint manifold and the objective matches value
    x = res.argmin
    assert abs(float(x @ p.Q.to_dense() @ x) - res.value) <= 1e-10


def test_infeasible_flag():
    p = GeoCop(n=2, Q=SymMat.identity(2), H=SymMat.identity(2),
               bset=constraint_set(2, [SymMat.identity(2).scale(-1.0)]))
    res = solve_sphere(p, samples=20_000, seed=0)
    assert not res.feasible_found


def test_h_not_positive_definite_rejected():
    p = GeoCop(n=2, Q=SymMat.identity(2), H=SymMat.diag([1.0, 0.0]),
               bset=constraint_set(2, [SymMat.zeros(2)]))
    with pytest.raises(ValueError):
        solve_sphere(p, samples=1000, seed=0)


def test_dimension_cap():
    p = unconstrained(7, SymMat.identity(7))
    with pytest.raises(ValueError):
        solve_sphere(p, samples=1000, seed=0)


def test_determinism_and_monotonicity():
    b, c = ex61_reduced_matrices()
    p = GeoCop(n=2, Q=SymMat.diag([1.0, -1.0]), H=SymMat.identity(2),
               bset=constraint_set(2, [b, c]))
    r1 = solve_sphere(p, samples=60_000, seed=3)
    r2 = solve_sphere(p, samples=60_000, seed=3)
    r3 = solve_sphere(p, samples=120_000, seed=3)
    assert r1.value == r2.value
    assert np.array_equal(r1.argmin, r2.argmin)
    assert r3.value <= r1.value
