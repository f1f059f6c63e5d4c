import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from exactsdp.certify import check_structural, inclusion_status
from exactsdp.model import GeoCop, constraint_set, normalize
from exactsdp import sdp as sdpmod
from exactsdp import reduction
from exactsdp.reduction import exposing_matrix, facial_reduce, remove_redundant
from exactsdp.sdp import relaxation_problem, solve, solve_slater
from exactsdp.symmat import SymMat, eig_sym, gram, inner, is_psd, lambda_min
from exactsdp.gallery import disk_member, ex61_matrices, ex61_reduced_matrices, fig2_members

TOL = 1e-8
SQRT3_OVER_2 = math.sqrt(3.0) / 2.0


def ex61_problem():
    a, b, c = ex61_matrices()
    return GeoCop(n=4, Q=SymMat.diag([1.0, -1.0, 0.0, 0.0]), H=SymMat.identity(4),
                  bset=constraint_set(4, [a, b, c]))


def three_member_face():
    """Three members in S^3 whose sum -diag(0, 3, 3) exposes the face of
    e1 e1', while no member and no pair has a nonzero nonpositive
    combination: each combination keeps a zero (1, 1) entry and a nonzero
    rest of its first row.  So facial reduction needs the interior-point
    Slater solve."""
    rows = ((3.0, 0.0), (0.0, 3.0), (-3.0, -3.0))
    members = [SymMat.from_dense([[0.0, b1, b2], [b1, -1.0, 0.0], [b2, 0.0, -1.0]])
               for b1, b2 in rows]
    return GeoCop(n=3, Q=SymMat.diag([1.0, -1.0, 0.0]), H=SymMat.identity(3),
                  bset=constraint_set(3, members))


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
    # nothing, and there is no primal fallback: reduction stops.  No member
    # or pair of this set exposes its face, so the certificate is the
    # Slater solve's
    prob = three_member_face()
    assert exposing_matrix(np.array([m.to_dense() for m in prob.bset.members]), TOL) is None
    rr = facial_reduce(prob, TOL)
    assert rr.reduced_n == 1 and rr.rounds == 1
    original = sdpmod.solve_slater

    def indefinite(members, n, **kwargs):
        status, x, t, _ = original(members, n, **kwargs)
        return status, x, t, SymMat.diag([0.0, 1.0, -1.0])

    monkeypatch.setattr(sdpmod, "solve_slater", indefinite)
    rr = facial_reduce(prob, TOL)
    assert rr.reduced_n == 3 and rr.rounds == 0
    assert rr.exposing is None
    assert np.array_equal(rr.basis, np.eye(3))


def _planted_set(kind, n, r, extra, seed):
    """A member set in S^n of one kind, with X0 = U G U' feasible, where U
    (n x r) spans a face F and its complement W the rest, and G is a random
    positive definite r x r matrix of trace 1:
      - "member": -W D W' (nsd, kernel F) and random members;
      - "pair": (B_j, B_k) with B_j + y0 B_k = -W D W', each indefinite,
        whose blocks on F are P and -P / y0 with <P, G> = 0, so <P,X> = 0 is
        an equality on F (P = 0 when r = 1: the pair vanishes on F), and
        random members;
      - "equality": B with <B, X0> = 0 (indefinite) and -c B, and random
        members;
      - "slater": random members, r = n.
    The random members meet X0 with a margin, so F is the minimal face.
    Returns the problem and U."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    u, w = q[:, :r], q[:, r:]
    g = rng.standard_normal((r, r))
    g = g @ g.T + 0.5 * np.eye(r)
    g /= np.trace(g)
    x0 = u @ g @ u.T

    def sym(m):
        a = rng.standard_normal((m, m))
        return (a + a.T) / 2.0

    def shifted(b, row=0.1):
        # <b, X0> = row, by a shift in F, so F stays the minimal face
        return b + (row - np.sum(b * x0)) / np.sum(x0 * x0) * x0

    members = [shifted(sym(n)) for _ in range(extra)]
    if kind == "member":
        members.append(-w @ np.diag(rng.uniform(0.5, 2.0, n - r)) @ w.T)
    elif kind == "pair":
        y0, c = rng.uniform(0.2, 5.0), rng.standard_normal((n - r, r))
        p = sym(r)
        p -= np.sum(p * g) * np.eye(r)
        s = sym(n - r)
        bj = q @ np.block([[p, c.T], [c, s]]) @ q.T
        nsd = -w @ np.diag(rng.uniform(0.5, 2.0, n - r)) @ w.T
        members += [bj, (nsd - bj) / y0]
    elif kind == "equality":
        b = shifted(sym(n), 0.0)
        members += [b, -rng.uniform(0.1, 10.0) * b]
    members = [SymMat.from_dense((m + m.T) / 2.0) for m in members]
    return GeoCop(n=n, Q=SymMat.from_dense(sym(n)), H=SymMat.identity(n),
                  bset=normalize(constraint_set(n, members))), u


def test_pair_vanishing_on_a_line_exposes_it():
    # both members of the pair are zero on the line F, so det(B_j + y B_k)
    # has a double root at y0 with a one-dimensional kernel; it is computed
    # as two roots about 1e-8 apart, whose midpoint is y0 to roundoff and
    # exposes F itself.  The interior-point Slater solve does not reach F:
    # over seeds 0-39 and n = 2-4 it ends "numerical" on 49 of the 120 sets,
    # and on the rest it leaves the pair as members of order 1e-9 on its
    # face, which the next round reads as negative and collapses to {O}
    for seed in range(10):
        for n in (2, 3, 4, 5):
            prob, u = _planted_set("pair", n, 1, 0, seed)
            rr = facial_reduce(prob, TOL)
            assert (rr.reduced_n, rr.rounds) == (1, 1)
            assert abs(abs(float(rr.basis[:, 0] @ u[:, 0])) - 1.0) <= 1e-12


@st.composite
def _planted_cases(draw):
    kind = draw(st.sampled_from(["member", "pair", "equality", "slater"]))
    n = draw(st.integers(4 if kind == "pair" else 2, 6))
    r = n
    if kind == "member":
        r = draw(st.integers(1, n - 1))
    elif kind == "pair":
        # a pair that vanishes on F (r = 1) has its own test: the core,
        # the reference here, does not reach F
        r = draw(st.integers(2, n // 2))
    extra = draw(st.integers(1 if kind in ("equality", "slater") else 0, 3))
    return (kind, *_planted_set(kind, n, r, extra, draw(st.integers(0, 2 ** 32 - 1))))


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_planted_cases())
def test_exposure_reduces_as_the_slater_solve_does(case):
    # the exposing matrices from one member or a pair reach the face that
    # the interior-point Slater solve reaches, in as many rounds, and the
    # relaxation on it has the value of the relaxation on the planted face
    kind, prob, u = case
    found = []
    original = reduction.exposing_matrix

    def recording(dense, tol):
        e = original(dense, tol)
        found.append(e)
        return e

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reduction, "exposing_matrix", recording)
        fast = facial_reduce(prob, TOL)
        mp.setattr(reduction, "exposing_matrix", lambda dense, tol: None)
        core = facial_reduce(prob, TOL)
    accepted = [e for e in found if e is not None]
    assert bool(accepted) == (kind in ("member", "pair"))
    for e in accepted:
        # t <= d / (1 + n d), d = max(0, -lambda_min(E)), for E of trace 1
        d = max(0.0, -lambda_min(e))
        assert abs(np.trace(e.to_dense()) - 1.0) <= 1e-12 and d / (1.0 + e.n * d) <= TOL
    assert (fast.reduced_n, fast.rounds) == (core.reduced_n, core.rounds)
    assert np.abs(fast.basis @ fast.basis.T - core.basis @ core.basis.T).max() <= 1e-7
    # both relaxations solved well below tol, so that the faces make the
    # gap.  The value is compared with the planted face's, not the core's:
    # the core's face is accurate to its solve, and on some planted pairs its
    # relaxation value is off by more than 1e-7 (up to 7.8e-6)
    r = u.shape[1]
    planted = GeoCop(n=r, Q=SymMat.from_dense(u.T @ prob.Q.to_dense() @ u),
                     H=SymMat.identity(r), bset=constraint_set(
                         r, [SymMat.from_dense(u.T @ m.to_dense() @ u) for m in prob.bset.members]))
    value, ref = (solve(relaxation_problem(p), tol=1e-10).value for p in (fast.reduced, planted))
    assert abs(value - ref) <= TOL * max(1.0, abs(ref))
