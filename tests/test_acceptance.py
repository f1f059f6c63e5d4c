"""Acceptance gate.

One test per criterion.  The conftest hook prints a single
"ACCEPTANCE k: PASS/FAIL - <name>" line per criterion on the terminal
(outside pytest capture).  Tolerances are pinned here, not configurable.
"""
import math

import numpy as np

from exactsdp.certify import (CERTIFIED, certify, check_Bprime_Cprime,
                              check_condition_B, check_pair_B, classify)
from exactsdp.model import (GeoCop, build_family, constraint_set, eval_quadratic,
                            normalize)
from exactsdp.oracle import solve_sphere
from exactsdp.pipeline import PipelineConfig, run_pipeline
from exactsdp.plotting import area_fraction, feasibility_mask, pixel_centers
from exactsdp.reduction import facial_reduce, remove_redundant
from exactsdp.sdp import (SdpProblem, relaxation_problem, solve,
                          solve_ab_certificate)
from exactsdp.symmat import SymMat, eigvals_sym, inner, lambda_min
from exactsdp.gallery import (FIG1_COMBOS, ball_family, build_case,
                              ex61_matrices, ex61_reduced_matrices,
                              fig1_member, fig2_members, fig6b_members,
                              fig6c_members, hyperbola_family, overlap_disks)

SQRT3_OVER_2 = math.sqrt(3.0) / 2.0


def random_sym(rng, n):
    a = rng.standard_normal((n, n))
    return SymMat.from_dense((a + a.T) / 2.0)


def test_criterion_1_worked_example_end_to_end():
    """four-dimensional worked example, exact values"""
    a, b, c = ex61_matrices()
    # canonical witness reproduces the stated inner products exactly
    xt = SymMat.diag([0.0, 0.0, 1.0, 1.0])
    assert inner(b, xt) == 0.0
    assert inner(a, xt) == -2.0
    # the psd-combination criterion is refuted for the pair (A', B')
    assert solve_ab_certificate(a, b, 1e-8) is None
    assert check_pair_B(a, b, 1e-8).status == "refuted"
    # facial reduction: dimension 2 with entrywise-exact projections
    prob = build_case("ex6.1").problem
    rr = facial_reduce(prob, 1e-8)
    assert rr.reduced_n == 2
    pa, pb, pc = [m.to_dense() for m in rr.reduced.bset.members]
    assert np.array_equal(pa, [[2, 1], [1, 1]])
    assert np.array_equal(pb, [[-1, -2], [-2, -1]])
    assert np.array_equal(pc, [[1, 2], [2, 1]])
    # pruning keeps exactly {B, C}
    pruned, removed, _ = remove_redundant(rr.reduced.bset, 1e-8)
    assert removed == (0,) and len(pruned.members) == 2
    # pairwise condition certified with (1, 1) at margin zero
    rep = check_condition_B(pruned, 1e-8)
    assert rep.status == CERTIFIED
    assert rep.pairs[0].certificate == (1.0, 1.0)
    assert rep.pairs[0].margin == 0.0
    # classification lands in the boundary case with an exposing member
    cl = classify(pruned, 1e-8)
    assert cl.case == "a" and cl.exposing_index is not None


def test_criterion_2_figure1_combinations():
    """figure-1 combinations pass; overlap refuted with witness"""
    for ks in FIG1_COMBOS.values():
        s = constraint_set(3, [fig1_member(k) for k in ks])
        rep = check_Bprime_Cprime(s, 1e-8)
        assert rep.b_prime_status == CERTIFIED, ks
        assert rep.c_prime_status == CERTIFIED, ks
    over = overlap_disks()
    rep = check_Bprime_Cprime(over, 1e-8)
    assert rep.b_prime_status == "not_certified"
    pair = rep.b_prime_pairs[0]
    u = pair.witness_point
    assert u is not None
    vals = sorted(eval_quadratic(u, 1.0, m) for m in over.members)
    assert vals[0] < -1e-8       # strictly infeasible for one member
    assert vals[1] <= 1e-8       # within feasibility residual for the other


def _certified_instances():
    b, c = ex61_reduced_matrices()
    reduced = constraint_set(2, [b, c])
    fig2 = normalize(constraint_set(3, fig2_members()))
    ball = normalize(build_case("ex6.2-ball").problem.bset)
    sets = [("reduced", reduced, 8), ("fig2", fig2, 6), ("ball", ball, 6)]
    for name, s, count in sets:
        rep = certify(s, 1e-8)
        assert rep.overall == CERTIFIED, name
    return sets


def test_criterion_3_empirical_exactness():
    """sdp equals oracle on certified instances; bound always"""
    rng = np.random.default_rng(2024)
    sets = _certified_instances()
    checked = 0
    for name, s, count in sets:
        for _ in range(count):
            q = random_sym(rng, s.n)
            prob = GeoCop(n=s.n, Q=q, H=SymMat.identity(s.n), bset=s)
            sol = solve(relaxation_problem(prob), tol=1e-10)
            assert sol.status == "optimal", name
            orc = solve_sphere(prob, samples=60_000, seed=7)
            assert orc.feasible_found
            assert abs(sol.value - orc.value) <= 1e-3 * (1.0 + abs(orc.value))
            assert sol.value <= orc.value + 1e-9
            checked += 1
    assert checked >= 20
    # the relaxation bound holds on uncertified instances too
    over = normalize(overlap_disks())
    for _ in range(2):
        q = random_sym(rng, 3)
        prob = GeoCop(n=3, Q=q, H=SymMat.identity(3), bset=over)
        sol = solve(relaxation_problem(prob), tol=1e-10)
        orc = solve_sphere(prob, samples=60_000, seed=7)
        assert sol.value <= orc.value + 1e-9


def test_criterion_4_known_value_solve():
    """known-value solve and rank-one extraction"""
    prob = build_case("ex6.1-reduced").problem
    v = run_pipeline(prob, PipelineConfig(tol=1e-9))
    assert abs(v.value + SQRT3_OVER_2) <= 1e-6
    x = v.rank_one.x
    assert v.rank_one.confident
    assert abs(x[0] * x[1] + 0.25) <= 1e-6
    assert v.rank_one.eigenratio >= 1e6


def test_criterion_5_ball_family():
    """integer-grid ball family: pairs, pipeline, monotonicity"""
    case = build_case("ex6.2-ball")
    members = case.problem.bset.members
    assert len(members) == 25
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            assert solve_ab_certificate(members[i], members[j], 1e-8) is not None
    # pipeline on a sample objective: rank-one within residual 1e-5
    rng = np.random.default_rng(7)
    q = random_sym(rng, 3)
    prob = GeoCop(n=3, Q=q, H=SymMat.identity(3), bset=case.problem.bset)
    v = run_pipeline(prob, PipelineConfig(tol=1e-9))
    assert v.exactness == "certified_exact"
    assert v.rank_one.confident and v.rank_one.feas_residual <= 1e-5
    # growing truncation boxes only add constraints: values non-decreasing
    values = []
    for k in (1, 2, 3):
        sk = build_family(ball_family(box=((-k, k), (-k, k))), 3)
        pk = GeoCop(n=3, Q=q, H=SymMat.identity(3), bset=sk)
        sol = solve(relaxation_problem(pk), tol=1e-9)
        assert sol.status == "optimal"
        values.append(sol.value)
    assert values[0] <= values[1] + 1e-7
    assert values[1] <= values[2] + 1e-7


def test_criterion_6_hyperbola_family():
    """hyperbola family pairs certified; limit matrix psd"""
    fam = hyperbola_family(breakpoints=(0.0, 1.0, 2.0, 4.0), r2=0.5)
    s = constraint_set(3, fam.realize(3))
    rep = check_Bprime_Cprime(s, 1e-8)
    assert rep.b_prime_status == CERTIFIED
    assert rep.c_prime_status == CERTIFIED
    bbar = fam.limit_member(abar=4.0)
    assert lambda_min(bbar) >= -1e-10
    slice_rep = check_Bprime_Cprime(constraint_set(3, [bbar]), 1e-8)
    assert slice_rep.c_prime_status == "not_certified"
    # adjoining the limit matrix breaks the no-psd-member condition
    from exactsdp.certify import check_structural
    closure = constraint_set(3, list(fam.realize(3)) + [bbar])
    assert not check_structural(closure, 1e-8).a4


def test_criterion_7_parabolas_and_plots():
    """parabola certification; raster signs; analytic area"""
    for s in (fig6b_members(), fig6c_members()):
        rep = check_Bprime_Cprime(s, 1e-8)
        assert rep.b_prime_status == CERTIFIED
        assert rep.c_prime_status == CERTIFIED
    # raster sign agreement at 100% of pixel centers
    s = fig6b_members()
    box = ((-6.0, 6.0), (-2.0, 2.0))
    res = 200
    mask = feasibility_mask(s, box, res)
    xs, ys = pixel_centers(box, res)
    for i in range(res):
        for j in range(res):
            direct = all(eval_quadratic([xs[i], ys[j]], 1.0, m) >= 0.0
                         for m in s.members)
            assert direct == bool(mask[i, j])
    # ten-disk gray fraction against the closed-form area
    fig2 = constraint_set(3, fig2_members())
    m2 = feasibility_mask(fig2, ((-2.5, 2.5), (-2.5, 2.5)), 1000)
    analytic = math.pi / 25.0  # (pi 2^2 - pi 1^2 - 8 pi (1/2)^2) / 5^2
    assert abs(area_fraction(m2) - analytic) <= 0.01 * analytic


def test_criterion_8_solver_unit_and_certificate_soundness():
    """solver eigenvalue battery; certificate sampling"""
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        q = random_sym(rng, n)
        sol = solve(SdpProblem(q, SymMat.identity(n)), tol=1e-9)
        lam = float(eigvals_sym(q)[-1])
        assert sol.status == "optimal"
        assert abs(sol.value - lam) <= 1e-8
    # soundness of certified pairs under random psd sampling
    pairs = [(fig1_member(i), fig1_member(j))
             for combo in FIG1_COMBOS.values()
             for i in combo for j in combo if i < j]
    ball = build_case("ex6.2-ball").problem.bset.members
    pairs += [(ball[i], ball[i + 1]) for i in range(0, 20)]
    violations = 0
    for a, b in pairs:
        cert = solve_ab_certificate(a, b, 1e-8)
        assert cert is not None
        drawn = 0
        while drawn < 200:
            g = rng.standard_normal((3, int(rng.integers(1, 4))))
            x = SymMat.from_dense(g @ g.T)
            if inner(b, x) > 0.0:
                continue
            drawn += 1
            if inner(a, x) < -1e-6 * max(1.0, x.norm()):
                violations += 1
    assert violations == 0
