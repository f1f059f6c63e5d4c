import math

import numpy as np
import pytest

from exactsdp.model import GeoCop, constraint_set
from exactsdp.sdp import (SdpProblem, _assemble, eq10_problem, relaxation_problem,
                          solve, solve_ab_certificate, solve_slater)
from exactsdp.symmat import SymMat, combine, eigvals_sym, lambda_min
from exactsdp.gallery import ex61_matrices, ex61_reduced_matrices

SQRT3_OVER_2 = math.sqrt(3.0) / 2.0


def random_sym(rng, n):
    a = rng.standard_normal((n, n))
    return SymMat.from_dense((a + a.T) / 2.0)


def trace_one_min(q, tol=1e-9):
    return solve(SdpProblem(n=q.n, objective=q,
                            eq_constraints=((SymMat.identity(q.n), 1.0),)), tol=tol)


def test_trace_one_gives_lambda_min():
    sol = trace_one_min(SymMat.diag([2.0, 5.0]))
    assert sol.status == "optimal"
    assert abs(sol.value - 2.0) <= 1e-8


def test_trace_one_random_battery():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        q = random_sym(rng, n)
        sol = trace_one_min(q)
        lam = float(eigvals_sym(q)[-1])
        assert sol.status == "optimal"
        assert abs(sol.value - lam) <= 1e-8 * (1.0 + abs(lam))
        assert max(sol.residuals) <= 1e-8


def test_reduced_worked_example_value():
    b, c = ex61_reduced_matrices()
    prob = SdpProblem(n=2, objective=SymMat.diag([1.0, -1.0]),
                      eq_constraints=((SymMat.identity(2), 1.0),),
                      ineq_constraints=((b, ">=", 0.0), (c, ">=", 0.0)))
    sol = solve(prob, tol=1e-9)
    assert sol.status == "optimal"
    # independent oracle: x = (cos t, sin t), constraint sin 2t = -1/2,
    # objective cos 2t; minimum is -sqrt(3)/2
    ts = np.linspace(0.0, 2.0 * math.pi, 2_000_001)
    mask = np.abs(np.sin(2 * ts) + 0.5) <= 2e-6
    grid_min = float(np.cos(2 * ts[mask]).min())
    assert abs(grid_min + SQRT3_OVER_2) <= 1e-5
    assert abs(sol.value + SQRT3_OVER_2) <= 1e-6


def test_infeasible_detection():
    prob = SdpProblem(n=2, objective=SymMat.identity(2),
                      eq_constraints=((SymMat.identity(2).scale(-1.0), 1.0),))
    sol = solve(prob)
    assert sol.status == "infeasible"
    assert sol.certificate is not None and sol.certificate["kind"] == "primal_infeasible"


def test_unbounded_detection():
    e11 = SymMat.from_dense([[1.0, 0.0], [0.0, 0.0]])
    prob = SdpProblem(n=2, objective=SymMat.diag([1.0, -1.0]),
                      eq_constraints=((e11, 1.0),))
    sol = solve(prob)
    assert sol.status == "unbounded"


def test_mixed_senses_and_weak_duality():
    # min X11 + X22 s.t. trace X = 2, X11 >= 1, X12 <= 0.25
    e11 = SymMat.from_dense([[1.0, 0.0], [0.0, 0.0]])
    e12 = SymMat.from_dense([[0.0, 0.5], [0.5, 0.0]])
    prob = SdpProblem(n=2, objective=SymMat.identity(2),
                      eq_constraints=((SymMat.identity(2), 2.0),),
                      ineq_constraints=((e11, ">=", 1.0), (e12, "<=", 0.25)))
    sol = solve(prob, tol=1e-9)
    assert sol.status == "optimal"
    assert abs(sol.value - 2.0) <= 1e-7
    assert sol.value >= sol.dual_value - 1e-6
    assert (sol.dual_ineq >= -1e-9).all()


def test_rejects_bad_inputs():
    trace_one = ((SymMat.identity(2), 1.0),)
    with pytest.raises(ValueError):
        SdpProblem(n=2, objective=SymMat.identity(3), eq_constraints=trace_one)
    prob = SdpProblem(n=2, objective=SymMat.identity(2), eq_constraints=trace_one)
    with pytest.raises(ValueError, match="tol"):
        solve(prob, tol=0.0)
    with pytest.raises(ValueError):
        SdpProblem(n=2, objective=SymMat.identity(2),
                   ineq_constraints=((SymMat.identity(2), ">", 0.0),))
    with pytest.raises(ValueError):
        SdpProblem(n=2, objective=SymMat.identity(2),
                   ineq_constraints=((SymMat.identity(2), "==", 1.0),))


def test_rejects_problem_without_rows():
    # every SDP has at least one row; the interior-point core relies on it
    with pytest.raises(ValueError, match="row"):
        SdpProblem(n=2, objective=SymMat.identity(2))


def test_equality_rows_come_first_in_conic_data():
    # ">=" rows subtract a slack, "<=" rows are negated first; equality rows
    # carry no slack: the w block of the conic data is [0; -I]
    e11 = SymMat.from_dense([[1.0, 0.0], [0.0, 0.0]])
    prob = SdpProblem(n=2, objective=SymMat.identity(2),
                      eq_constraints=((SymMat.identity(2), 2.0),),
                      ineq_constraints=((e11, ">=", 1.0), (e11, "<=", 3.0)))
    d, n_eq = _assemble(prob)
    assert n_eq == 1 and d.p == 2
    assert np.array_equal(d.Aw, [[0.0, 0.0], [-1.0, 0.0], [0.0, -1.0]])
    assert np.array_equal(d.b, [2.0, 1.0, -3.0])
    assert np.array_equal(d.Am[2], -e11.to_dense())


def test_ab_certificate_opposite_pair():
    b, c = ex61_reduced_matrices()
    assert solve_ab_certificate(b, c) == (1.0, 1.0)


def test_ab_certificate_refused_on_worked_example():
    a, b, _ = ex61_matrices()
    assert solve_ab_certificate(a, b) is None


def test_ab_certificate_disk_pair():
    b1 = SymMat.diag([1.0, 1.0, -0.5])
    b6 = SymMat.diag([-1.0, -1.0, 1.0])
    cert = solve_ab_certificate(b1, b6)
    assert cert == (1.0, 0.75)
    assert lambda_min(combine(cert[0], b1, cert[1], b6)) >= -1e-12


def test_ab_certificate_scale_invariance():
    rng = np.random.default_rng(1)
    b1 = SymMat.diag([1.0, 1.0, -0.5])
    b6 = SymMat.diag([-1.0, -1.0, 1.0])
    a4, b4, _ = ex61_matrices()
    for a, b in ((b1, b6), (a4, b4)):
        base = solve_ab_certificate(a, b) is not None
        for _ in range(5):
            ca, cb = float(rng.uniform(0.1, 10)), float(rng.uniform(0.1, 10))
            scaled = solve_ab_certificate(a.scale(ca), b.scale(cb)) is not None
            assert scaled == base


def test_lambda_min_concave_along_segment():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        a, b = random_sym(rng, n), random_sym(rng, n)
        mus = rng.uniform(0.0, 1.0, size=3)
        m0, m1 = float(mus.min()), float(mus.max())
        mid = (m0 + m1) / 2.0
        f = lambda m: lambda_min(combine(m, a, 1.0 - m, b))
        assert f(mid) >= 0.5 * (f(m0) + f(m1)) - 1e-10


def test_gap_monotone_near_convergence():
    # strictly feasible primal and dual: gap shrinks monotonically at the end
    rng = np.random.default_rng(3)
    q = random_sym(rng, 4)
    g = random_sym(rng, 4)
    prob = SdpProblem(n=4, objective=q,
                      eq_constraints=((SymMat.identity(4), 1.0),),
                      ineq_constraints=((g, ">=", -10.0),))
    sol = solve(prob, tol=1e-10)
    assert sol.status == "optimal"
    tail = sol.mu_history[-5:]
    assert all(tail[i + 1] < tail[i] for i in range(len(tail) - 1))


def test_slater_trivial_cone():
    status, x, t = solve_slater([SymMat.zeros(3)], 3)
    assert status == "optimal"
    assert abs(t - 1.0 / 3.0) <= 1e-7
    assert np.allclose(x.to_dense(), np.eye(3) / 3.0, atol=1e-7)


def test_relaxation_problem_shape():
    b, c = ex61_reduced_matrices()
    p = GeoCop(n=2, Q=SymMat.diag([1.0, -1.0]), H=SymMat.identity(2),
               bset=constraint_set(2, [b, c]))
    prob = relaxation_problem(p)
    assert len(prob.eq_constraints) == 1 and len(prob.ineq_constraints) == 2


def test_eq10_problem_is_bounded_refuter():
    a, b, _ = ex61_matrices()
    sol = solve(eq10_problem(a, b), tol=1e-9)
    assert sol.status == "optimal"
    assert sol.value <= -0.5  # clearly negative: the pair is refuted


def test_kkt_conditions_on_random_feasible_instances():
    # independent optimality check: feasibility, dual psd-ness, complementarity
    rng = np.random.default_rng(42)
    from exactsdp.symmat import inner
    for _ in range(25):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(0, 5))
        q = random_sym(rng, n)
        mats = []
        for _ in range(k):
            bmat = random_sym(rng, n).to_dense()
            bmat = bmat - (np.trace(bmat) / n - 0.3) * np.eye(n)  # Slater at I/n
            mats.append(SymMat.from_dense(bmat))
        prob = SdpProblem(n=n, objective=q,
                          eq_constraints=((SymMat.identity(n), 1.0),),
                          ineq_constraints=tuple((m, ">=", 0.0) for m in mats))
        sol = solve(prob, tol=1e-9)
        assert sol.status == "optimal"
        x = sol.X
        assert abs(inner(SymMat.identity(n), x) - 1.0) <= 1e-7
        assert lambda_min(x) >= -1e-7
        s_dual = q.to_dense() - sol.dual_eq[0] * np.eye(n)
        for m, yb in zip(mats, sol.dual_ineq):
            assert inner(m, x) >= -1e-7
            assert yb >= -1e-8
            assert abs(yb * inner(m, x)) <= 1e-6
            s_dual = s_dual - yb * m.to_dense()
        assert np.linalg.eigvalsh(s_dual).min() >= -1e-6
        assert abs(float((x.to_dense() * s_dual).sum())) <= 1e-6
