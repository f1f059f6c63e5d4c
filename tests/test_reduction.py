import math

import numpy as np

from exactsdp.certify import check_structural, inclusion_status
from exactsdp.model import GeoCop, constraint_set, normalize
from exactsdp import sdp as sdpmod
from exactsdp.reduction import facial_reduce, remove_redundant
from exactsdp.sdp import relaxation_problem, solve, solve_slater
from exactsdp.symmat import SymMat, eig_sym, gram, inner, is_psd
from exactsdp.gallery import disk_member, ex61_matrices, ex61_reduced_matrices, fig2_members

TOL = 1e-8
SQRT3_OVER_2 = math.sqrt(3.0) / 2.0


def ex61_problem():
    a, b, c = ex61_matrices()
    return GeoCop(n=4, Q=SymMat.diag([1.0, -1.0, 0.0, 0.0]), H=SymMat.identity(4),
                  bset=constraint_set(4, [a, b, c]))


def test_max_rank_trivial_cone():
    _, x, t, _ = solve_slater([SymMat.zeros(3)], 3, tol=1e-9)
    assert abs(t - 1.0 / 3.0) <= 1e-6
    assert np.allclose(x.to_dense(), np.eye(3) / 3.0, atol=1e-6)


def test_max_rank_on_flat_cone():
    a, b, c = ex61_matrices()
    _, x, t, _ = solve_slater([a, b, c], 4, tol=1e-9)
    assert t <= TOL
    ed = eig_sym(x)
    keep = ed.values > 1e-7 * ed.values[0]
    assert int(keep.sum()) == 2
    # the detected range must be the first two coordinates
    v = ed.vectors[:, keep]
    proj = v @ v.T
    assert np.allclose(proj, np.diag([1.0, 1.0, 0.0, 0.0]), atol=1e-3)


def test_max_rank_infeasible():
    status, x, t, _ = solve_slater([SymMat.identity(2).scale(-1.0)], 2, tol=1e-9)
    assert status == "infeasible"
    assert x is None and t == -math.inf


def test_facial_reduce_worked_example_exact():
    rr = facial_reduce(ex61_problem(), TOL)
    assert rr.reduced_n == 2
    assert rr.rounds == 1
    pa, pb, pc = [m.to_dense() for m in rr.reduced.bset.members]
    assert np.array_equal(pa, [[2, 1], [1, 1]])
    assert np.array_equal(pb, [[-1, -2], [-2, -1]])
    assert np.array_equal(pc, [[1, 2], [2, 1]])
    assert np.array_equal(rr.reduced.Q.to_dense(), [[1, 0], [0, -1]])
    assert np.array_equal(rr.basis, np.eye(4)[:, :2])
    assert rr.slater_margin > TOL


def test_facial_reduce_exposing_matches_displayed_combination():
    # the displayed nonnegative combination B' + C' exposes the same face
    rr = facial_reduce(ex61_problem(), TOL)
    f = rr.exposing
    assert f is not None and is_psd(f, TOL)
    _, b, c = ex61_matrices()
    disp = b.add(c).scale(-1.0)  # -(B'+C') is psd and exposes the face
    assert is_psd(disp, TOL)
    ed_f = eig_sym(f)
    ed_d = eig_sym(disp)
    rf = ed_f.vectors[:, ed_f.values > 1e-9]
    rd = ed_d.vectors[:, ed_d.values > 1e-9]
    # equal ranges: projectors agree
    assert np.allclose(rf @ rf.T, rd @ rd.T, atol=1e-8)


def test_facial_reduce_identity_when_slater_holds():
    prob = GeoCop(n=3, Q=SymMat.diag([1.0, -1.0, 0.0]), H=SymMat.identity(3),
                  bset=normalize(constraint_set(3, fig2_members())))
    rr = facial_reduce(prob, TOL)
    assert rr.reduced_n == 3
    assert rr.exposing is None
    assert rr.slater_margin > TOL


def test_facial_reduce_collapse_to_zero():
    prob = GeoCop(n=2, Q=SymMat.identity(2), H=SymMat.identity(2),
                  bset=constraint_set(2, [SymMat.identity(2).scale(-1.0)]))
    rr = facial_reduce(prob, TOL)
    assert rr.reduced_n == 0 and rr.reduced is None


def test_facial_reduce_rank_zero_restriction_collapses_to_zero():
    # a zero restriction matrix confines x to {0}, where x'Hx = 1 fails
    a, b, c = ex61_matrices()
    prob = GeoCop(n=4, Q=SymMat.identity(4), H=SymMat.identity(4),
                  bset=constraint_set(4, [a, b, c]), restrict_to=(4, 2, (0.0,) * 8))
    rr = facial_reduce(prob, TOL)
    assert rr.reduced_n == 0 and rr.reduced is None and rr.rounds == 1
    assert rr.basis.shape == (4, 0) and rr.slater_margin == -math.inf


def test_value_preserved_by_reduction():
    prob = ex61_problem()
    # the unreduced problem has no Slater point: 1e-8 is its attainable accuracy
    direct = solve(relaxation_problem(prob), tol=1e-8)
    rr = facial_reduce(prob, TOL)
    red = solve(relaxation_problem(rr.reduced), tol=1e-9)
    assert direct.status == "optimal" and red.status == "optimal"
    assert abs(direct.value - red.value) <= 1e-6 * (1.0 + abs(red.value))
    assert abs(red.value + SQRT3_OVER_2) <= 1e-6


def test_feasibility_transport_and_lifting():
    rr = facial_reduce(ex61_problem(), TOL)
    a, b, c = ex61_matrices()
    # rank-one feasible points of the original cone: x = (cos t, sin t, 0, 0)
    # with sin 2t = -1/2
    base = math.asin(-0.5) / 2.0
    angles = [base, base + math.pi / 2.0 + math.pi / 4.0 - base / 1.0]
    angles = [base, math.pi / 2 - base + math.pi / 2, base + math.pi, 3 * math.pi / 2 - base + math.pi / 2]
    rng = np.random.default_rng(0)
    count = 0
    for _ in range(200):
        t = float(rng.choice(angles)) if angles else 0.0
        r = float(rng.uniform(0.2, 2.0))
        x = r * np.array([math.cos(t), math.sin(t), 0.0, 0.0])
        g = gram(x)
        if not (inner(a, g) >= -1e-9 and inner(b, g) >= -1e-9 and inner(c, g) >= -1e-9):
            continue
        count += 1
        xr = rr.basis.T @ x
        gr = gram(xr)
        for m in rr.reduced.bset.members:
            assert inner(m, gr) >= -1e-8
        lifted = rr.lift_vector(xr)
        gl = gram(lifted)
        for m in (a, b, c):
            assert inner(m, gl) >= -1e-8
    assert count >= 100  # plenty of transported samples actually checked


def test_post_reduction_structure():
    rr = facial_reduce(ex61_problem(), TOL)
    pruned, _, _ = remove_redundant(rr.reduced.bset, TOL)
    rep = check_structural(pruned, TOL)
    assert rep.a3 and rep.a4 and rep.a5


def test_remove_redundant_drops_psd_member():
    rr = facial_reduce(ex61_problem(), TOL)
    pruned, removed, _ = remove_redundant(rr.reduced.bset, TOL)
    assert removed == (0,)
    kept = [m.to_dense().tolist() for m in pruned.members]
    assert [[-1, -2], [-2, -1]] in kept and [[1, 2], [2, 1]] in kept


def test_remove_redundant_scale_class():
    b, _ = ex61_reduced_matrices()
    s, removed, _ = remove_redundant(constraint_set(2, [b, b.scale(2.0)]), TOL)
    assert len(s.members) == 1 and len(removed) == 1


def test_remove_redundant_zero_set():
    s, removed, inclusions = remove_redundant(constraint_set(2, [SymMat.zeros(2)]), TOL)
    assert len(s.members) == 1 and s.members[0].data == (0.0, 0.0, 0.0)
    assert inclusions == {}


def test_remove_redundant_drops_strictly_including_member():
    # outside the radius-1 disk lies strictly inside outside the radius-0.5
    # disk on the same centre, so the radius-0.5 member adds nothing
    members = [disk_member((0.0, 0.0), 0.5), disk_member((0.0, 0.0), 1.0),
               disk_member((3.0, 0.0), 1.0)]
    s = constraint_set(3, members)
    pruned, removed, inclusions = remove_redundant(s, TOL)
    assert removed == (0,)
    assert pruned.members == (members[1], members[2])
    # the survivors' table is re-indexed to the pruned set
    assert sorted(inclusions) == [(0, 1), (1, 0)]
    for (i, j), st in inclusions.items():
        assert st == inclusion_status(pruned.members[i], pruned.members[j], TOL)


def test_pruning_preserves_relaxation_value():
    prob = ex61_problem()
    rr = facial_reduce(prob, TOL)
    pruned, _, _ = remove_redundant(rr.reduced.bset, TOL)
    full = solve(relaxation_problem(rr.reduced), tol=1e-9)
    less = solve(relaxation_problem(
        GeoCop(n=rr.reduced_n, Q=rr.reduced.Q, H=rr.reduced.H, bset=pruned)), tol=1e-9)
    assert abs(full.value - less.value) <= 1e-6 * (1.0 + abs(full.value))


def test_remove_redundant_returns_survivor_inclusions():
    # every ordered pair of survivors, with the status inclusion_status gives
    prob = GeoCop(n=3, Q=SymMat.diag([1.0, -1.0, 0.0]), H=SymMat.identity(3),
                  bset=normalize(constraint_set(3, fig2_members())))
    pruned, _, inclusions = remove_redundant(prob.bset, TOL)
    k = len(pruned.members)
    assert sorted(inclusions) == [(i, j) for i in range(k) for j in range(k) if i != j]
    for (i, j), st in inclusions.items():
        assert st == inclusion_status(pruned.members[i], pruned.members[j], TOL)


def test_facial_reduce_keeps_final_slater_solve():
    rr = facial_reduce(ex61_problem(), TOL)
    status, x, t, _ = rr.slater
    assert status == "optimal" and t == rr.slater_margin
    # it is the Slater solve on exactly the reduced members
    again = solve_slater(rr.reduced.bset.members, rr.reduced_n, tol=1e-9)
    assert again[0] == status and again[2] == t
    assert again[1].data == x.data


def test_indefinite_certificate_leaves_problem_unreduced(monkeypatch):
    # a dual certificate with a negative eigenvalue beyond the cut exposes
    # nothing, and there is no primal fallback: reduction stops
    original = sdpmod.solve_slater

    def indefinite(members, n, **kwargs):
        status, x, t, _ = original(members, n, **kwargs)
        return status, x, t, SymMat.diag([0.0, 0.0, 1.0, -1.0])

    monkeypatch.setattr(sdpmod, "solve_slater", indefinite)
    rr = facial_reduce(ex61_problem(), TOL)
    assert rr.reduced_n == 4 and rr.rounds == 0
    assert rr.exposing is None
    assert np.array_equal(rr.basis, np.eye(4))
