import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import exactsdp.sdp as sdp_module
from exactsdp.model import ConstraintSet, GeoCop, constraint_set
from exactsdp.model import normalize
from exactsdp.sdp import (SdpProblem, _assemble, _conic_solve, _ConicData, _eigen_answer,
                          _schur_complement, relaxation_problem, slater_data, solve,
                          solve_ab_certificate, solve_slater)
from exactsdp.symmat import SymMat, dense_stack, eigvals_sym, lambda_min, packed_stack
from exactsdp.gallery import build_case, ex61_matrices, ex61_reduced_matrices, list_cases
from test_acceptance import _certified_instances

SQRT3_OVER_2 = math.sqrt(3.0) / 2.0


def random_sym(rng, n):
    a = rng.standard_normal((n, n))
    return SymMat.from_dense((a + a.T) / 2.0)


def core_solve(p, tol=sdp_module.DEFAULT_TOL):
    """The interior-point core on p, past the closed form that solve tries
    first."""
    return _conic_solve(_assemble(p), tol=tol)


def trace_one_min(q, tol=1e-9):
    return core_solve(SdpProblem(q, SymMat.identity(q.n)), tol=tol)


# a relaxation whose bottom eigenvector (e1) violates its member row, and a
# Slater set whose member has a negative trace (I/n violates it): each has
# one active member row, which solve and solve_slater answer without the core
ACTIVE_ROW = SdpProblem(SymMat.diag([-1.0, 1.0]), SymMat.identity(2),
                        (SymMat.diag([-1.0, 0.5]),))
ACTIVE_SLATER = [SymMat.diag([1.0, -2.0])]
# X11 <= X33 and X22 <= X33: the bottom eigenvector e1 violates the first
# row, the pencil's answer e2 e2' the second, and the optimum diag(1, 1, 1)/3
# makes both active.  The Slater set X11 >= 2 X22, X22 >= 2 X33 has each
# one-row answer violate the other row (t* = 1/7 at diag(4, 2, 1)/7).  solve
# and solve_slater hand both to the interior-point core
TWO_ROWS = SdpProblem(SymMat.diag([-2.0, -1.0, 1.0]), SymMat.identity(3),
                      (SymMat.diag([-1.0, 0.0, 1.0]), SymMat.diag([0.0, -1.0, 1.0])))
TWO_ROW_SLATER = [SymMat.diag([1.0, -2.0, 0.0]), SymMat.diag([0.0, 1.0, -2.0])]


def test_trace_one_gives_lambda_min():
    sol = trace_one_min(SymMat.diag([2.0, 5.0]))
    assert sol.status == "optimal" and sol.iterations > 0
    assert abs(sol.value - 2.0) <= 1e-8


def test_trace_one_random_battery():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        q = random_sym(rng, n)
        sol = trace_one_min(q)
        lam = float(eigvals_sym(q)[-1])
        assert sol.status == "optimal" and sol.iterations > 0
        assert abs(sol.value - lam) <= 1e-8 * (1.0 + abs(lam))
        assert max(sol.residuals) <= 1e-8


def test_reduced_worked_example_value():
    b, c = ex61_reduced_matrices()
    prob = SdpProblem(SymMat.diag([1.0, -1.0]), SymMat.identity(2), (b, c))
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
    prob = SdpProblem(SymMat.identity(2), SymMat.identity(2).scale(-1.0))
    sol = solve(prob)
    assert sol.status == "infeasible"
    assert sol.certificate is not None and sol.certificate["kind"] == "primal_infeasible"


def test_unbounded_detection():
    e11 = SymMat.from_dense([[1.0, 0.0], [0.0, 0.0]])
    prob = SdpProblem(SymMat.diag([1.0, -1.0]), e11)
    sol = solve(prob)
    assert sol.status == "unbounded"


def test_rejects_bad_inputs():
    i2 = SymMat.identity(2)
    with pytest.raises(ValueError, match="dimension"):
        SdpProblem(SymMat.identity(3), i2)
    with pytest.raises(ValueError, match="dimension"):
        SdpProblem(i2, i2, (i2, SymMat.identity(3)))
    with pytest.raises(ValueError, match="tol"):
        solve(SdpProblem(i2, i2), tol=0.0)


def test_run_cut_after_default_max_iter(monkeypatch):
    # the iteration cap is read when a solve starts; a run cut after one
    # iteration reports the one iterate it has
    monkeypatch.setattr(sdp_module, "DEFAULT_MAX_ITER", 1)
    sol = solve(TWO_ROWS)
    assert sol.status == "max_iter" and sol.iterations == 1
    assert len(sol.mu_history) == 1 and sol.X is not None
    status, x, _, _ = solve_slater(TWO_ROW_SLATER, 3)
    assert status == "max_iter" and x is not None


@pytest.mark.parametrize("max_iter", [0, -1])
def test_rejects_max_iter_below_one(monkeypatch, max_iter):
    # a run needs one iteration to have metrics and a best iterate to report;
    # a cap below one is refused before any work, by both entry points
    monkeypatch.setattr(sdp_module, "DEFAULT_MAX_ITER", max_iter)
    with pytest.raises(ValueError, match="MAX_ITER"):
        solve(TWO_ROWS)
    with pytest.raises(ValueError, match="MAX_ITER"):
        solve_slater(TWO_ROW_SLATER, 3)
    # the closed-form answers run no iteration and need none
    assert solve(ACTIVE_ROW).iterations == 0
    assert solve_slater(ACTIVE_SLATER, 2)[0] == "optimal"


def test_equality_rows_come_first_in_conic_data():
    # the H row comes first and carries no slack; each member row subtracts
    # its own: the w block of the conic data is [0; -I], b = (1, 0, ..., 0)
    e11 = SymMat.from_dense([[1.0, 0.0], [0.0, 0.0]])
    e12 = SymMat.from_dense([[0.0, 0.5], [0.5, 0.0]])
    h = SymMat.diag([2.0, 3.0])
    d = _assemble(SdpProblem(SymMat.identity(2), h, (e11, e12)))
    assert d.n == 2 and d.p == 2
    assert np.array_equal(d.Aw, [[0.0, 0.0], [-1.0, 0.0], [0.0, -1.0]])
    assert np.array_equal(d.b, [1.0, 0.0, 0.0])
    assert np.array_equal(d.Am, [h.to_dense(), e11.to_dense(), e12.to_dense()])
    d = _assemble(SdpProblem(SymMat.identity(2), h))
    assert d.p == 0 and d.Aw.shape == (1, 0) and d.cw.shape == (0,)


def _passes_rule(a, b, cert, tol=sdp_module.DEFAULT_TOL):
    """numpy's eigvalsh recheck of the acceptance rule for a certificate
    (1, tau): tau > 0 and lambda_min(A + tau B) >= -tol min(1, tau) scale."""
    alpha, tau = cert
    lam = np.linalg.eigvalsh(a.to_dense() + tau * b.to_dense())[0]
    return alpha == 1.0 and tau > 0.0 and lam >= -tol * min(1.0, tau) * (a.norm() + b.norm())


def test_ab_certificate_opposite_pair():
    # C = -B: only B + C = 0 is psd, at the kink of the pencil
    b, c = ex61_reduced_matrices()
    cert = solve_ab_certificate(b, c)
    assert cert is not None and _passes_rule(b, c, cert)


def test_ab_certificate_refused_on_worked_example():
    a, b, _ = ex61_matrices()
    assert solve_ab_certificate(a, b) is None


def test_ab_certificate_disk_pair():
    b1 = SymMat.diag([1.0, 1.0, -0.5])
    b6 = SymMat.diag([-1.0, -1.0, 1.0])
    cert = solve_ab_certificate(b1, b6)
    # b1 + tau b6 = diag(1 - tau, 1 - tau, tau - 1/2) is psd for tau in [1/2, 1]
    assert cert is not None and _passes_rule(b1, b6, cert)
    assert 0.5 <= cert[1] <= 1.0


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
        f = lambda m: lambda_min(a.scale(m).add(b, 1.0 - m))
        assert f(mid) >= 0.5 * (f(m0) + f(m1)) - 1e-10


def test_gap_monotone_near_convergence():
    # strictly feasible primal and dual: gap shrinks monotonically at the end
    rng = np.random.default_rng(3)
    q = random_sym(rng, 4)
    g = random_sym(rng, 4)
    # <G + 10 I, X> >= 0 is <G,X> >= -10 on trace X = 1
    prob = SdpProblem(q, SymMat.identity(4), (g.add(SymMat.identity(4), 10.0),))
    sol = core_solve(prob, tol=1e-10)
    assert sol.status == "optimal" and sol.iterations > 5
    tail = sol.mu_history[-5:]
    assert all(tail[i + 1] < tail[i] for i in range(len(tail) - 1))


def test_slater_trivial_cone():
    status, x, t, _ = solve_slater([SymMat.zeros(3)], 3)
    assert status == "optimal"
    assert abs(t - 1.0 / 3.0) <= 1e-7
    assert np.allclose(x.to_dense(), np.eye(3) / 3.0, atol=1e-7)


def test_relaxation_problem_shape():
    b, c = ex61_reduced_matrices()
    p = GeoCop(n=2, Q=SymMat.diag([1.0, -1.0]), H=SymMat.identity(2),
               bset=constraint_set(2, [b, c]))
    prob = relaxation_problem(p)
    assert prob == SdpProblem(p.Q, p.H, (b, c))


def test_eq10_problem_is_bounded_refuter():
    # min <A,X> s.t. <B,X> <= 0, trace X = 1, posed with the member -B
    a, b, _ = ex61_matrices()
    sol = solve(SdpProblem(a, SymMat.identity(4), (b.scale(-1.0),)), tol=1e-9)
    assert sol.status == "optimal"
    assert sol.value <= -0.5  # clearly negative: the pair is refuted


# the builders of the general form (equality rows with right-hand sides,
# ">=" and "<=" rows) that SdpProblem(objective, H, members) replaced, as
# they were
def _ref_slack_block(n_eq, k):
    return np.vstack([np.zeros((n_eq, k)), np.diag(np.full(k, -1.0))])


def _ref_assemble(n, objective, eq_constraints, ineq_constraints):
    mats = [mat for mat, _ in eq_constraints] + [mat for mat, _, _ in ineq_constraints]
    n_eq, k = len(eq_constraints), len(ineq_constraints)
    sign = np.array([1.0] * n_eq + [1.0 if sense == ">=" else -1.0
                                    for _, sense, _ in ineq_constraints])
    rhs = np.array([r for _, r in eq_constraints] + [r for _, _, r in ineq_constraints],
                   dtype=float)
    return _ConicData(
        n=n,
        p=k,
        Cm=objective.to_dense(),
        cw=np.zeros(k),
        Am=dense_stack(packed_stack(mats, n), n) * sign[:, None, None],
        Aw=_ref_slack_block(n_eq, k),
        b=rhs * sign,
    )


def _ref_slater_data(members, n):
    mats = dense_stack(packed_stack(members, n), n)
    k = len(mats)
    p = 1 + k
    t_col = np.concatenate([[float(n)], np.trace(mats, axis1=1, axis2=2)])
    cw = np.zeros(p)
    cw[0] = -1.0
    return _ConicData(
        n=n,
        p=p,
        Cm=np.zeros((n, n)),
        cw=cw,
        Am=np.concatenate([np.eye(n)[None], mats]),
        Aw=np.column_stack([t_col, _ref_slack_block(1, k)]),
        b=np.concatenate([[1.0], np.zeros(k)]),
    )


def _assert_same_data(ref, new):
    assert (ref.n, ref.p) == (new.n, new.p)
    for name in ("Cm", "cw", "Am", "Aw", "b"):
        a, b = getattr(ref, name), getattr(new, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def _conic_data_sets():
    """(Q, H, members) of every gallery case, raw and normalized, and of
    seeded random sets with n = 8 and 12."""
    sets = []
    for case_id in list_cases():
        prob = build_case(case_id).problem
        if isinstance(prob, ConstraintSet):
            prob = GeoCop(n=prob.n, Q=SymMat.diag(np.arange(prob.n) - 1.0),
                          H=SymMat.identity(prob.n), bset=prob)
        for s in (prob.bset, normalize(prob.bset)):
            sets.append((prob.Q, prob.H, s.members))
    rng = np.random.default_rng(23)
    for n in (8, 12):
        sets.append((random_sym(rng, n), random_sym(rng, n),
                     tuple(random_sym(rng, n) for _ in range(5))))
    return sets


def test_conic_data_matches_the_general_form_builders():
    # the relaxation, classify's trace-one SDP and the Slater SDP give the
    # interior-point core the very bytes the general-form builders gave it
    sets = _conic_data_sets()
    assert len(sets) == 2 * len(list_cases()) + 2
    for q, h, members in sets:
        n = q.n
        geq = tuple((m, ">=", 0.0) for m in members)
        _assert_same_data(_ref_assemble(n, q, ((h, 1.0),), geq),
                          _assemble(relaxation_problem(
                              GeoCop(n=n, Q=q, H=h, bset=constraint_set(n, members)))))
        for m in members:
            _assert_same_data(
                _ref_assemble(n, m.scale(-1.0), ((SymMat.identity(n), 1.0),), geq),
                _assemble(SdpProblem(m.scale(-1.0), SymMat.identity(n), members)))
        _assert_same_data(_ref_slater_data(members, n), slater_data(members, n))


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
        prob = SdpProblem(q, SymMat.identity(n), tuple(mats))
        sol = core_solve(prob, tol=1e-9)
        assert sol.status == "optimal" and sol.iterations > 0
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


def _schur_reference(W, Am, Aw, D):
    # the two einsum calls the interior-point core used before the GEMM
    WAW = np.einsum("ab,ibc,cd->iad", W, Am, W)
    return np.einsum("iab,jab->ij", WAW, Am) + (Aw * D[None, :]) @ Aw.T


def test_schur_complement_matches_einsum_reference():
    rng = np.random.default_rng(11)
    shapes = [(1, 1), (2, 3), (3, 25), (4, 7), (10, 60), (30, 60)]
    shapes += [(int(rng.integers(1, 31)), int(rng.integers(1, 61))) for _ in range(10)]
    for n, m in shapes:
        p = int(rng.integers(0, m + 1))
        Am = rng.standard_normal((m, n, n))
        Am = (Am + Am.transpose(0, 2, 1)) / 2.0
        Aw = rng.standard_normal((m, p))
        G = rng.standard_normal((n, n))
        W = G @ G.T + 1e-3 * np.eye(n)
        D = rng.uniform(1e-6, 1e6, p)
        ref = _schur_reference(W, Am, Aw, D)
        got = _schur_complement(W, Am, Aw, D)
        assert got.shape == (m, m)
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref), (n, m)


def _corrupt_third_direction(monkeypatch, value):
    """Make the third step-length query see a non-finite X direction."""
    calls = []
    real = sdp_module._step_to_boundary

    def patched(T, *rest):
        calls.append(1)
        if len(calls) == 3:
            T = T.copy()
            T[0] = value  # the scaled X block
        return real(T, *rest)

    monkeypatch.setattr(sdp_module, "_step_to_boundary", patched)
    return calls


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_direction_ends_numerical_with_best_iterate(monkeypatch, value):
    q = random_sym(np.random.default_rng(5), 4)
    calls = _corrupt_third_direction(monkeypatch, value)
    sol = trace_one_min(q)
    # the third query is the predictor of iteration 2: the solve stops there
    assert len(calls) == 3
    assert sol.status == "numerical" and sol.iterations == 2
    assert math.isfinite(sol.value) and np.isfinite(sol.X.to_dense()).all()
    # it reports the best of the iterates seen, as a run cut after two
    # iterations does
    monkeypatch.undo()
    monkeypatch.setattr(sdp_module, "DEFAULT_MAX_ITER", 2)
    ref = trace_one_min(q)
    assert ref.status == "max_iter"
    assert sol.value == ref.value and sol.residuals == ref.residuals
    assert sol.X == ref.X


def test_failed_cholesky_ends_numerical_with_best_iterate(monkeypatch):
    # one Cholesky factorization per iteration, in the NT scaling
    q = random_sym(np.random.default_rng(5), 4)
    calls = []
    real = np.linalg.cholesky

    def failing_third(a):
        calls.append(1)
        if len(calls) == 3:
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        return real(a)

    monkeypatch.setattr(sdp_module.np.linalg, "cholesky", failing_third)
    sol = trace_one_min(q)
    assert len(calls) == 3
    assert sol.status == "numerical" and sol.iterations == 3
    # the third iterate was measured before its scaling failed: the solve
    # reports the best of three iterates, as a run cut after three does
    monkeypatch.undo()
    monkeypatch.setattr(sdp_module, "DEFAULT_MAX_ITER", 3)
    ref = trace_one_min(q)
    assert ref.status == "max_iter"
    assert sol.value == ref.value and sol.residuals == ref.residuals
    assert sol.X == ref.X


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_step_to_boundary_is_nan_for_non_finite_direction(value):
    # sigma = 1 (scale2 all ones); the nonnegative blocks w, z (two each),
    # tau and kappa sit at 1 with a zero direction
    scale2 = np.ones((3, 3))
    good = -np.eye(3)
    bad = np.full((3, 3), value)
    zero, ones = np.zeros(6), np.ones(6)
    assert sdp_module._step_to_boundary(np.stack((good, good)), scale2, zero, ones) == 1.0
    assert math.isnan(sdp_module._step_to_boundary(np.stack((bad, good)), scale2, zero, ones))
    assert math.isnan(sdp_module._step_to_boundary(np.stack((good, bad)), scale2, zero, ones))


def test_step_to_boundary_is_nan_when_lapack_refuses(monkeypatch):
    # some LAPACK builds raise on a non-finite matrix instead of returning NaN
    def refuse(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(sdp_module.np.linalg, "eigvalsh", refuse)
    d = np.full((2, 2), math.nan)
    assert math.isnan(sdp_module._step_to_boundary(np.stack((d, d)), np.ones((2, 2)),
                                                   np.zeros(2), np.ones(2)))


def test_certified_relaxations_solve_to_1e9():
    # 60 seeded objectives on each certified set of the acceptance gate: every
    # relaxation reaches tol 1e-9.  At 1e-9 the end-game used to hinge on
    # roundoff in the tau pivot (t1 - q_cc, negative in exact arithmetic)
    rng = np.random.default_rng(2024)
    failed = []
    for name, s, _ in _certified_instances():
        for k in range(60):
            q = random_sym(rng, s.n)
            prob = GeoCop(n=s.n, Q=q, H=SymMat.identity(s.n), bset=s)
            sol = core_solve(relaxation_problem(prob), tol=1e-9)
            if sol.status != "optimal" or sol.iterations == 0:
                failed.append((name, k, sol.status))
    assert not failed


def test_scaled_schur_solve_finishes_a_stalled_relaxation():
    # ball relaxation #40 of the seed-0 sample (drawn as in
    # test_certified_relaxations_solve_to_1e9): with eigh of the unscaled
    # Schur complement, whose diagonal spans about 1e10 late in the run, its
    # primal residual stalled at 6.5e-8 and it ended numerical at 1e-9
    rng = np.random.default_rng(0)
    (_, reduced, _), (_, fig2, _), (_, ball, _) = _certified_instances()
    for _ in range(60):
        random_sym(rng, reduced.n)
    for _ in range(60):
        random_sym(rng, fig2.n)
    for _ in range(40):
        random_sym(rng, ball.n)
    prob = GeoCop(n=ball.n, Q=random_sym(rng, ball.n), H=SymMat.identity(ball.n), bset=ball)
    sol = core_solve(relaxation_problem(prob), tol=1e-9)
    assert sol.status == "optimal" and sol.iterations > 0


def test_nt_scaling_refuses_an_iterate_outside_the_interior():
    # X^1/2 S X^1/2 = diag(1, 0): no NT scaling exists; flooring the zero
    # eigenvalue used to return a G of size 1e75
    with pytest.raises(np.linalg.LinAlgError):
        sdp_module._nt_scaling(np.eye(2), np.diag([1.0, 0.0]))
    G, Ginv, sigma = sdp_module._nt_scaling(np.eye(2), np.diag([1.0, 4.0]))
    assert np.allclose(G @ np.diag(sigma) @ G.T, np.eye(2))
    assert np.allclose(Ginv @ G, np.eye(2))


def test_end_game_breakdown_ends_without_overflow():
    # fig2 relaxation #38 of the seed-2 sample (drawn as in
    # test_certified_relaxations_solve_to_1e9) can lose the interior in
    # floating point late in its run; scaling by a floored eigenvalue then
    # overflowed (RuntimeWarning) before the solve ended
    rng = np.random.default_rng(2)
    sets = _certified_instances()
    for _ in range(60):
        random_sym(rng, 2)
    for _ in range(38):
        random_sym(rng, 3)
    s = sets[1][1]
    prob = GeoCop(n=3, Q=random_sym(rng, 3), H=SymMat.identity(3), bset=s)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sol = core_solve(relaxation_problem(prob), tol=1e-9)
    assert sol.status in ("optimal", "numerical") and sol.iterations > 0
    assert math.isfinite(sol.value) and max(sol.residuals) <= 1e-7


# --------------------------------------------------------------------------
# the pencil of the one-member trace-one SDP
# --------------------------------------------------------------------------

def _pencil_pairs():
    """300 seeded random symmetric pairs with n = 2-6, then Example 6.1's
    ordered pairs with G = B and G = -B."""
    rng = np.random.default_rng(2026)
    pairs = []
    for _ in range(300):
        n = int(rng.integers(2, 7))
        pairs.append(tuple(random_sym(rng, n).to_dense() for _ in range(2)))
    ms = [m.to_dense() for m in ex61_matrices()]
    pairs += [(ms[i], sign * ms[j]) for i in range(3) for j in range(3) if i != j
              for sign in (1.0, -1.0)]
    return pairs


def _pencil(a, g):
    """The answer to one question: lower, y, upper and X, NaN without one."""
    return sdp_module.PencilBounds(*(f[0] for f in sdp_module.pencil_bounds(a[None], g[None])))


def test_pencil_brackets_the_sdp_and_is_checked_by_numpy():
    # the interior-point reference runs at 1e-10: at 1e-9 its own value sits
    # up to 3e-9 s above the optimum on a few of these pairs
    nones = 0
    for a, g in _pencil_pairs():
        s = max(1.0, float(np.linalg.norm(a)))
        r = _pencil(a, g)
        sol = solve(SdpProblem(SymMat.from_dense(a), SymMat.identity(a.shape[0]),
                               (SymMat.from_dense(g),)), tol=1e-10)
        assert math.isnan(r.lower) == (sol.status == "infeasible"), sol.status
        if math.isnan(r.lower):
            nones += 1
            assert math.isnan(r.y) and math.isnan(r.upper) and np.isnan(r.X).all()
            assert np.linalg.eigvalsh(g)[-1] <= 0.0
            continue
        if sol.status == "optimal":
            assert r.lower <= sol.value + 2e-9 * s and r.upper >= sol.value - 2e-9 * s
        assert r.upper - r.lower <= 1e-12 * s
        # the witness: psd, trace one, feasible, with the value reported
        x = r.X
        assert np.linalg.eigvalsh(x)[0] >= -1e-15
        assert abs(np.trace(x) - 1.0) <= 1e-14
        assert np.sum(g * x) >= 0.0
        assert abs(np.sum(a * x) - r.upper) <= 1e-14 * s
        # the dual certificate: lambda_min(A - yG) at its y >= 0
        assert r.y >= 0.0 and abs(np.linalg.eigvalsh(a - r.y * g)[0] - r.lower) <= 1e-14 * s
    assert nones > 0


def test_pencil_value_invariant_under_congruence():
    rng = np.random.default_rng(7)
    for a, g in _pencil_pairs():
        u, _ = np.linalg.qr(rng.standard_normal(a.shape))
        r, rot = _pencil(a, g), _pencil(u.T @ a @ u, u.T @ g @ u)
        assert math.isnan(r.lower) == math.isnan(rot.lower)
        if not math.isnan(r.lower):
            s = max(1.0, float(np.linalg.norm(a)))
            assert abs(rot.lower - r.lower) <= 1e-12 * s
            assert abs(rot.upper - r.upper) <= 1e-12 * s


def test_pencil_answers_a_stack_as_one_question_each():
    pairs = _pencil_pairs()
    for n in range(2, 7):
        same = [(a, g) for a, g in pairs if a.shape[0] == n]
        stacked = sdp_module.pencil_bounds(np.array([a for a, _ in same]),
                                           np.array([g for _, g in same]))
        for p, (a, g) in enumerate(same):
            for field, alone in zip(stacked, _pencil(a, g)):
                assert np.array_equal(field[p], alone, equal_nan=True)
    empty = sdp_module.pencil_bounds(np.zeros((0, 3, 3)), np.zeros((0, 3, 3)))
    assert [f.shape for f in empty] == [(0,), (0,), (0,), (0, 3, 3)]


def test_pencil_at_y_zero_and_at_a_kink():
    # the bottom eigenvector of A is feasible: y = 0 and X = vv'
    r = _pencil(np.diag([-1.0, 2.0]), np.diag([1.0, -1.0]))
    assert r.y == 0.0 and r.lower == r.upper == -1.0
    assert np.array_equal(r.X, np.diag([1.0, 0.0]))
    # two eigenvalue branches cross at the maximum: X mixes both eigenvectors
    a, g = np.diag([1.0, -1.0]), np.diag([1.0, -(1.0 - 2e-7)])
    r = _pencil(a, g)
    assert r.upper - r.lower <= 1e-12 and abs(r.lower + 1e-7 / (1.0 - 1e-7)) <= 1e-15
    assert np.linalg.matrix_rank(r.X, tol=1e-6) == 2


# --------------------------------------------------------------------------
# the answers without member rows, in closed form
# --------------------------------------------------------------------------

def test_solve_answers_the_bottom_eigenvector_exactly():
    # no member row: X = e1 e1' at lambda = 2, proved by y0 = 2
    sol = solve(SdpProblem(SymMat.diag([2.0, 5.0]), SymMat.identity(2)))
    assert sol.status == "optimal" and sol.iterations == 0 and sol.mu_history == ()
    assert sol.X == SymMat.diag([1.0, 0.0]) and sol.value == sol.dual_value == 2.0
    assert sol.dual_eq.tolist() == [2.0] and sol.residuals == (0.0, 0.0, 0.0)
    # a member row the bottom eigenvector meets: multiplier 0, slack <B,X>
    sol = solve(SdpProblem(SymMat.diag([2.0, 5.0]), SymMat.diag([4.0, 1.0]),
                           (SymMat.diag([1.0, -3.0]),)))
    assert sol.iterations == 0 and sol.X == SymMat.diag([0.25, 0.0])
    assert sol.value == 0.5 and sol.dual_ineq.tolist() == [0.0] and sol.slack.tolist() == [0.25]


def test_solve_hands_other_problems_to_the_core():
    # two active member rows, a double bottom eigenvalue (no unique optimum)
    # and an H that is not positive definite take interior-point iterations
    i2 = SymMat.identity(2)
    for p in (TWO_ROWS, SdpProblem(i2, i2), SdpProblem(SymMat.diag([1.0, 1.0 + 1e-9]), i2),
              SdpProblem(SymMat.diag([2.0, 5.0]), SymMat.diag([1.0, 0.0]))):
        assert _eigen_answer(p, sdp_module.DEFAULT_TOL) is None
        assert solve(p).iterations > 0
    # nor does a non-finite H
    assert _eigen_answer(SdpProblem(i2, SymMat.diag([1.0, math.nan])), 1e-8) is None


def test_slater_answers_trace_nonnegative_sets_exactly():
    # I/n meets every member with trace B >= 0 and attains t = 1/n, the
    # largest lambda_min(X) on trace X = 1
    for members, n in (([SymMat.zeros(3)], 3), ([SymMat.diag([1.0, -1.0])], 2),
                       ([SymMat.diag([2.0, -1.0, 0.0]), SymMat.identity(3)], 3)):
        status, x, t, e = solve_slater(members, n)
        assert status == "optimal" and t == 1.0 / n
        assert x == SymMat.identity(n).scale(1.0 / n) and e == SymMat.zeros(n)
    # a negative trace puts t below 1/2: one active row, in closed form
    status, _, t, _ = solve_slater(ACTIVE_SLATER, 2)
    assert status == "optimal" and abs(t - 1.0 / 3.0) <= 1e-8


def _same_solution(a, b):
    assert (a.status, a.value, a.dual_value, a.residuals, a.iterations, a.mu_history) == (
        b.status, b.value, b.dual_value, b.residuals, b.iterations, b.mu_history)
    assert a.X == b.X and a.certificate is None and b.certificate is None
    for name in ("dual_eq", "dual_ineq", "slack"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


def test_conic_solve_reads_the_numbers_not_the_memory_layout():
    # _assemble's row stack is a strided view; a Fortran-ordered copy of the
    # same numbers gives the bitwise-same solution
    sets = _conic_data_sets()
    for q, h, members in sets[::3] + [sets[-1]]:
        for d in (_assemble(SdpProblem(q, SymMat.identity(q.n), members)),
                  slater_data(members, q.n)):
            assert not d.Am.flags.c_contiguous
            ref = _conic_solve(d)
            assert ref.iterations > 0
            moved = _ConicData(d.n, d.p, np.asfortranarray(d.Cm), d.cw,
                               np.asfortranarray(d.Am), np.asfortranarray(d.Aw), d.b)
            _same_solution(ref, _conic_solve(moved))


_ENTRY = st.floats(-2.0, 2.0, allow_subnormal=False)


def _sym_matrix(n):
    return arrays(np.float64, (n, n), elements=_ENTRY).map(lambda a: (a + a.T) / 2.0)


@st.composite
def _eigen_problems(draw):
    """C, a positive definite H (I or G G' + I/2) and zero to three members:
    random ones shifted up by 0 to 3 times I, zero and rank-one negative
    semidefinite ones."""
    n = draw(st.integers(1, 4))
    c = draw(_sym_matrix(n))
    if draw(st.booleans()):
        h = np.eye(n)
    else:
        g = draw(arrays(np.float64, (n, n), elements=_ENTRY))
        h = g @ g.T + 0.5 * np.eye(n)
    members = []
    for kind in draw(st.lists(st.sampled_from(("shifted", "zero", "rank_one")), max_size=3)):
        if kind == "shifted":
            members.append(draw(_sym_matrix(n)) + draw(st.floats(0.0, 3.0)) * np.eye(n))
        elif kind == "zero":
            members.append(np.zeros((n, n)))
        else:
            w = draw(arrays(np.float64, (n,), elements=_ENTRY))
            members.append(-np.outer(w, w))
    return SdpProblem(SymMat.from_dense(c), SymMat.from_dense(h),
                      tuple(SymMat.from_dense(m) for m in members))


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(_eigen_problems())
def test_closed_form_agrees_with_the_core_and_is_checked_by_numpy(p):
    tol = sdp_module.DEFAULT_TOL
    ans = _eigen_answer(p, tol)
    assume(ans is not None)
    if ans.dual_ineq.any():
        # vv' violates one row: the pencil's answer, checked below
        _check_one_row_answer(p, ans, tol)
        return
    c, h = p.objective.to_dense(), p.H.to_dense()
    x, y0 = ans.X.to_dense(), float(ans.dual_eq[0])
    scale = max(1.0, p.objective.norm())
    assert ans.status == "optimal" and ans.iterations == 0
    assert ans.dual_ineq.tolist() == [0.0] * len(p.members)
    # the certificate: X psd of rank one with <H,X> = 1 and every row met,
    # C - y0 H psd, and <C,X> = y0
    assert np.linalg.matrix_rank(x) == 1 and abs(np.sum(h * x) - 1.0) <= 1e-12
    assert all(np.sum(m.to_dense() * x) >= 0.0 for m in p.members)
    assert np.linalg.eigvalsh(c - y0 * h)[0] >= -1e-13 * (scale + abs(y0) * np.linalg.norm(h))
    assert abs(np.sum(c * x) - y0) <= 1e-13 * scale * max(1.0, np.linalg.norm(x))
    # the core stops within tol on its scaled data, which leaves its value
    # up to about 2.6 tol max(1, ||C||) from the optimum
    ref = core_solve(p, tol)
    if ref.status == "optimal":
        assert abs(ref.value - ans.value) <= 3.0 * tol * scale * (1.0 + abs(ans.value))


@st.composite
def _slater_sets(draw):
    """One to three members of trace n s, s in [0, 2]."""
    n = draw(st.integers(1, 4))
    members = []
    for _ in range(draw(st.integers(1, 3))):
        a = draw(_sym_matrix(n))
        members.append(a + (draw(st.floats(0.0, 2.0)) - np.trace(a) / n) * np.eye(n))
    return n, [SymMat.from_dense(m) for m in members]


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(_slater_sets())
def test_slater_closed_form_agrees_with_the_core(case):
    n, members = case
    data = slater_data(members, n)
    assume((np.trace(data.Am[1:], axis1=1, axis2=2) >= 0.0).all())
    status, x, t, e = solve_slater(members, n)
    assert status == "optimal" and t == 1.0 / n and e == SymMat.zeros(n)
    xd = x.to_dense()
    assert np.array_equal(xd, np.eye(n) / n)
    assert all(np.sum(m.to_dense() * xd) >= 0.0 for m in members)
    # the core's margin, at the tolerance solve_slater gives it
    ref = _conic_solve(data, tol=1e-9)
    assert ref.status == "optimal" and ref.iterations > 0
    assert abs(float(ref.slack[0]) - t) <= 1e-9 * (1.0 + t)


def _unit_member(draw, n, shifts):
    """A random member shifted by a multiple of I, of unit Frobenius norm as
    normalize gives them: the core floors a row's norm at 1e-12 when it
    scales its data, so it reads a row of norm 1e-100 as met."""
    b = draw(_sym_matrix(n)) + draw(shifts) * np.eye(n)
    norm = np.linalg.norm(b)
    assume(norm > 0.0)
    return b / norm


@st.composite
def _one_row_slater_sets(draw):
    """One to four members in S^n, n = 2-5: random ones shifted by -2 to 1
    times I (unit norm), and equality pairs (B, -cB)."""
    n = draw(st.integers(2, 5))
    members = []
    while len(members) < draw(st.integers(1, 4)):
        b = _unit_member(draw, n, st.floats(-2.0, 1.0))
        members.append(b)
        if draw(st.booleans()):
            members.append(-draw(st.floats(0.1, 10.0)) * b)
    return n, [SymMat.from_dense(m) for m in members]


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(_one_row_slater_sets())
def test_slater_one_row_answer_agrees_with_the_core(case):
    # X_j = t_j I + (1 - n t_j) vv' from one member's row, with its dual
    # S = E + t I psd of trace 1; the core on the same data agrees
    n, members = case
    dense = np.array([m.to_dense() for m in members])
    trace = np.trace(dense, axis1=1, axis2=2)
    ans = sdp_module._slater_answer(dense, trace)
    assume(ans is not None and (trace < 0.0).any())
    status, x, t, e = ans
    assert solve_slater(members, n) == ans
    xd, s = x.to_dense(), e.to_dense() + t * np.eye(n)
    assert status == "optimal" and 0.0 < t <= 1.0 / n
    assert abs(np.trace(xd) - 1.0) <= 1e-14 and abs(np.linalg.eigvalsh(xd)[0] - t) <= 1e-14
    norms = np.linalg.norm(dense, axis=(1, 2))
    assert (np.einsum("kij,ij->k", dense, xd) >= -1e-14 * np.maximum(1.0, norms)).all()
    assert np.linalg.eigvalsh(s)[0] >= -1e-14 and abs(np.trace(s) - 1.0) <= 1e-14
    ref = _conic_solve(slater_data(members, n), tol=1e-9)
    assert ref.status == status and ref.iterations > 0
    assert abs(float(ref.slack[0]) - t) <= 1e-8


@st.composite
def _one_row_problems(draw):
    """C, a random positive definite H = G G' + I/2 and one to four members
    in S^n, n = 2-5: random ones shifted by -1 to 2 times I (unit norm), and
    equality pairs (B, -cB)."""
    n = draw(st.integers(2, 5))
    c = draw(_sym_matrix(n))
    g = draw(arrays(np.float64, (n, n), elements=_ENTRY))
    members = []
    while len(members) < draw(st.integers(1, 4)):
        b = _unit_member(draw, n, st.floats(-1.0, 2.0))
        members.append(b)
        if draw(st.booleans()):
            members.append(-draw(st.floats(0.1, 10.0)) * b)
    return SdpProblem(SymMat.from_dense(c), SymMat.from_dense(g @ g.T + 0.5 * np.eye(n)),
                      tuple(SymMat.from_dense(m) for m in members))


def _check_one_row_answer(p, ans, tol):
    """The pencil's answer to p: y >= 0 on one row j and 0 on the others,
    X psd with <H,X> = 1 meeting every row within tol, C - y0 H - y B_j psd
    within roundoff, and the value of the core where the core ends optimal."""
    c, h = p.objective.to_dense(), p.H.to_dense()
    dense = np.array([m.to_dense() for m in p.members])
    x, y0 = ans.X.to_dense(), float(ans.dual_eq[0])
    (j,) = np.flatnonzero(ans.dual_ineq)
    y = float(ans.dual_ineq[j])
    assert ans.status == "optimal" and ans.iterations == 0 and y > 0.0
    assert ans.value >= y0 and max(ans.residuals) <= tol
    scale = max(1.0, p.objective.norm())
    assert np.linalg.eigvalsh(x)[0] >= -1e-14 * np.linalg.norm(x)
    assert abs(np.sum(h * x) - 1.0) <= tol
    norms = np.linalg.norm(dense, axis=(1, 2))
    assert (np.einsum("kij,ij->k", dense, x) >= -tol * np.maximum(1.0, norms)).all()
    assert abs(np.sum(c * x) - ans.value) <= 1e-12 * scale * max(1.0, np.linalg.norm(x))
    z = c - y0 * h - y * dense[j]
    assert np.linalg.eigvalsh(z)[0] >= -1e-12 * (scale + abs(y0) * np.linalg.norm(h)
                                                 + y * norms[j])
    ref = core_solve(p, tol / 100.0)
    if ref.status == "optimal":
        assert abs(ref.value - ans.value) <= tol * max(1.0, abs(ans.value))


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(_one_row_problems())
def test_one_row_answer_agrees_with_the_core(p):
    tol = sdp_module.DEFAULT_TOL
    ans = _eigen_answer(p, tol)
    assume(ans is not None and ans.dual_ineq.any())
    sol = solve(p, tol)
    assert sol.iterations == 0 and sol.X == ans.X and sol.value == ans.value
    _check_one_row_answer(p, ans, tol)
