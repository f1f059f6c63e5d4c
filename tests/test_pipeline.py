import math
import os
import sys

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

import exactsdp.certify as certmod
from exactsdp import sdp as sdpmod
from exactsdp.docio import parse_problem, verdict_doc
from exactsdp.model import BallGrid, GeoCop, build_family, constraint_set, integer_grid
from exactsdp.oracle import solve_sphere
from exactsdp.pipeline import PipelineConfig, run_pipeline, top_eigenvector
from exactsdp.symmat import SymMat, gram, inner, is_psd
from exactsdp.gallery import (build_case, disk_member, ex61_matrices,
                              ex63_congruence, overlap_disks)

SQRT3_OVER_2 = math.sqrt(3.0) / 2.0
CFG = PipelineConfig(tol=1e-9)


def test_worked_example_end_to_end():
    prob = build_case("ex6.1").problem
    v = run_pipeline(prob, CFG)
    assert v.exactness == "certified_exact"
    assert v.reduction.reduced_n == 2
    assert v.reduction.pruned_indices == (0,)
    assert v.cert.overall == "certified"
    assert v.cert.classification is not None and v.cert.classification.case == "a"
    assert abs(v.value + SQRT3_OVER_2) <= 1e-6
    assert v.rank_one.confident and v.rank_one.eigenratio >= 1e6
    x = v.lifted_x
    assert abs(x[0] * x[1] + 0.25) <= 1e-6
    g = gram(x)
    for m in ex61_matrices():
        assert inner(m, g) >= -1e-6
    assert abs(inner(prob.H, g) - 1.0) <= 1e-6


def test_extract_rank_one_pure():
    x = np.array([3.0, 4.0]) / 5.0
    p = GeoCop(n=2, Q=SymMat.zeros(2), H=SymMat.identity(2),
               bset=constraint_set(2, [SymMat.zeros(2)]))
    r = top_eigenvector(gram(x), p)
    assert r.eigenratio == math.inf
    assert np.allclose(np.abs(r.x), x)


def test_extract_tied_spectrum_not_confident_without_retry():
    p = GeoCop(n=2, Q=SymMat.zeros(2), H=SymMat.identity(2),
               bset=constraint_set(2, [SymMat.zeros(2)]))
    r = top_eigenvector(SymMat.identity(2).scale(0.5), p)
    assert not r.confident and r.eigenratio == 1.0


def test_retry_breaks_degenerate_face():
    # the ten-disk instance has a two-point optimal face; the perturbation
    # retry must land on one of its rank-one vertices
    prob = build_case("fig2").problem
    v = run_pipeline(prob, CFG)
    assert v.rank_one.retried
    assert v.rank_one.confident
    assert v.exactness == "certified_exact"
    orc = solve_sphere(prob, samples=60_000, seed=0)
    assert abs(v.value - orc.value) <= 1e-3 * (1.0 + abs(orc.value))
    assert v.value <= orc.value + 1e-9


def test_uncertified_problem_still_reports_bound():
    prob = GeoCop(n=3, Q=SymMat.diag([1.0, -1.0, 0.0]), H=SymMat.identity(3),
                  bset=overlap_disks())
    v = run_pipeline(prob, CFG)
    assert v.cert.overall == "not_certified"
    assert v.exactness != "certified_exact"
    assert v.sdp.status == "optimal"
    orc = solve_sphere(prob, samples=60_000, seed=0)
    assert v.value <= orc.value + 1e-9


def test_pipeline_deterministic():
    prob = build_case("fig2").problem
    d1 = verdict_doc(run_pipeline(prob, CFG))
    d2 = verdict_doc(run_pipeline(prob, CFG))
    assert d1 == d2


def test_congruence_metadata_lifts_solution():
    prob, ref = ex63_congruence()
    v = run_pipeline(prob, CFG)
    vr = run_pipeline(ref, CFG)
    assert abs(v.value - vr.value) <= 1e-6 * (1.0 + abs(vr.value))
    assert v.lifted_x is not None and v.lifted_x.shape == (3,)
    # the lifted point is feasible for the 3-d reference problem
    g = gram(v.lifted_x)
    assert abs(inner(ref.H, g) - 1.0) <= 1e-5
    for m in ref.bset.members:
        assert inner(m, g) >= -1e-5


def test_rank_deficient_restriction_appends_kernel_penalty(monkeypatch):
    # embed the 2-d worked example in R^3, restricted to the plane x3 = 0;
    # without the restriction the spurious coordinate would win (Q33 = -5)
    b, c = (SymMat.from_dense([[-1, -2, 0], [-2, -1, 0], [0, 0, 0]]),
            SymMat.from_dense([[1, 2, 0], [2, 1, 0], [0, 0, 0]]))
    L = (3, 2, (1.0, 0.0, 0.0, 1.0, 0.0, 0.0))
    prob = GeoCop(n=3, Q=SymMat.diag([1.0, -1.0, -5.0]), H=SymMat.identity(3),
                  bset=constraint_set(3, [b, c]), restrict_to=L)
    # facial reduction projects onto the named face with no SDP, no note,
    # and N N^T (N = e3) is the exposing matrix.  The same face written as
    # the member -N N^T is exposed by that member, with no SDP either: both
    # make only the final Slater solve
    penalty = GeoCop(n=3, Q=prob.Q, H=prob.H, bset=constraint_set(
        3, [b, c, SymMat.diag([0.0, 0.0, -1.0])]))
    calls = _count_calls(monkeypatch, sdpmod, "solve_slater")
    run_pipeline(penalty, CFG)
    penalty_calls = len(calls)
    del calls[:]
    v = run_pipeline(prob, CFG)
    assert len(calls) == penalty_calls == 1
    assert not v.stage_notes
    assert np.array_equal(v.reduction.exposing.to_dense(), np.diag([0.0, 0.0, 1.0]))
    assert v.reduction.reduced_n == 2
    assert abs(v.value + SQRT3_OVER_2) <= 1e-6
    assert abs(v.lifted_x[2]) <= 1e-7  # solution stays in the restricted plane
    # sanity: without the restriction the value is the spurious -5
    free = GeoCop(n=3, Q=SymMat.diag([1.0, -1.0, -5.0]), H=SymMat.identity(3),
                  bset=constraint_set(3, [b, c]))
    vf = run_pipeline(free, CFG)
    assert vf.value < -4.9


def test_collapsed_cone_reports_infeasible_path():
    prob = GeoCop(n=2, Q=SymMat.identity(2), H=SymMat.identity(2),
                  bset=constraint_set(2, [SymMat.identity(2).scale(-1.0)]))
    v = run_pipeline(prob, CFG)
    assert v.reduction.reduced_n == 0
    assert v.exactness == "relaxation_only"
    assert v.value == math.inf


def _count_calls(monkeypatch, module, name):
    """Count calls of module.name, wherever an exactsdp module binds it."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if key.startswith("exactsdp") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


def test_pipeline_solves_slater_only_in_facial_reduction(monkeypatch):
    calls = _count_calls(monkeypatch, sdpmod, "solve_slater")
    v = run_pipeline(build_case("ex6.1").problem, CFG)
    assert v.cert.structural.a3
    # the reduction round is exposed by -(B + C) with no SDP, so the one
    # Slater solve is the final one on the reduced members, which the
    # structural checks reuse
    assert v.reduction.rounds == 1
    assert len(calls) == 1
    assert v.cert.structural.slater_margin == v.reduction.slater_margin


def test_pipeline_tests_inclusion_only_in_pruning(monkeypatch):
    calls = _count_calls(monkeypatch, certmod, "inclusion_table")
    v = run_pipeline(build_case("fig2").problem, CFG)
    assert v.cert.structural.a5
    k = sum(not is_psd(m, CFG.cert_tol) for m in v.reduction.reduced.bset.members)
    assert k >= 2
    # one table over the non-psd members, built by pruning and reused by (A-5)
    assert len(calls) == 1
    assert len(calls[0][0]) == k


def _embedded_disk_pair():
    """Two overlapping radius-1/2 disks in S^3, embedded in S^4 through the
    range of a 4 x 3 matrix L with orthonormal columns and restricted to it,
    as the reduce-refute benchmark batches them."""
    q, r = np.linalg.qr(np.random.default_rng(4).standard_normal((4, 4)))
    lmat = (q * np.sign(np.diag(r)))[:, :3]
    members = [SymMat.from_dense(lmat @ d.to_dense() @ lmat.T)
               for d in (disk_member((0.1, -0.2), 0.5), disk_member((0.6, 0.1), 0.5))]
    q = lmat @ np.diag([1.0, -1.0, 0.0]) @ lmat.T
    return GeoCop(n=4, Q=SymMat.from_dense(q), H=SymMat.identity(4),
                  bset=constraint_set(4, members), restrict_to=(4, 3, tuple(lmat.ravel())))


def test_refuted_pair_takes_its_witness_from_the_refutation_sdp(monkeypatch):
    solves = _count_calls(monkeypatch, sdpmod, "solve")
    shifted = _count_calls(monkeypatch, certmod, "_pair_slice_witness")
    v = run_pipeline(_embedded_disk_pair(), PipelineConfig(tol=1e-8, cert_tol=1e-8))
    assert v.reduction.reduced_n == 3 and v.reduction.pruned_indices == ()
    assert v.cert.condition_b.pairs[0].status == "refuted"
    pair = v.cert.slice_conditions.b_prime_pairs[0]
    assert pair.status == "refuted"
    # the refutation SDP is answered by its pencil, not by an interior-point
    # solve: the pencil's X, split against B, gives the (B)' witness, and no
    # shifted pencil is needed.  The relaxation is the one interior-point solve
    assert len(solves) == 1 and len(shifted) == 0
    x = np.append(pair.witness_point, 1.0)
    qa, qb = (float(x @ m.to_dense() @ x) for m in v.reduction.reduced.bset.members)
    assert qb <= 1e-8 and qa < -1e-8


def test_overlapping_disks_solve_only_the_relaxation(monkeypatch):
    # 25 disks of radius 0.6 on the integer grid: the 40 pairs at distance 1
    # overlap, the diagonal ones (distance sqrt 2 > 1.2) do not.  The
    # overlapping pairs are refuted by the pencil of their refutation SDP, so
    # the relaxation is the one interior-point solve
    solves = _count_calls(monkeypatch, sdpmod, "solve")
    fam = BallGrid(centers=tuple(integer_grid(((-2, 2), (-2, 2)))), radius=0.6)
    prob = GeoCop(n=3, Q=SymMat.diag([1.0, -1.0, 0.0]), H=SymMat.identity(3),
                  bset=build_family(fam, 3))
    v = run_pipeline(prob, PipelineConfig(tol=1e-8, cert_tol=1e-8))
    assert len(solves) == 1
    assert v.reduction.pruned_indices == ()
    members = v.reduction.reduced.bset.members
    b_pairs, slice_pairs = v.cert.condition_b.pairs, v.cert.slice_conditions.b_prime_pairs
    assert len(b_pairs) == 300
    for bv in b_pairs:
        overlap = math.dist(*(fam.centers[k] for k in bv.pair)) < 1.2
        assert bv.status == ("refuted" if overlap else "certified")
    # the slice report lists exactly the pairs without a (B) certificate
    assert [sv.pair for sv in slice_pairs] == [bv.pair for bv in b_pairs
                                               if bv.status == "refuted"]
    assert len(slice_pairs) == 40
    for sv in slice_pairs:
        i, j = sv.pair
        assert sv.status == "refuted"
        x = np.append(sv.witness_point, 1.0)
        qa, qb = (float(x @ members[k].to_dense() @ x) for k in (i, j))
        assert qb <= 1e-8 and qa < -1e-8


def _rotated_ex61(seed, scale=1.0):
    """Example 6.1 under a seeded random orthogonal congruence x = U y, with
    every member multiplied by scale."""
    u, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((4, 4)))
    u = u * np.sign(np.diag(r))
    members = [SymMat.from_dense(u.T @ (scale * m.to_dense()) @ u) for m in ex61_matrices()]
    q = u.T @ np.diag([1.0, -1.0, 0.0, 0.0]) @ u
    return GeoCop(n=4, Q=SymMat.from_dense(q), H=SymMat.identity(4),
                  bset=constraint_set(4, members))


ROTATED_CFG = PipelineConfig(tol=1e-9, cert_tol=1e-9)


def test_rotated_worked_example_reaches_the_value_to_tol():
    # the face is the kernel of the Slater solve's dual certificate, which is
    # as accurate as the solve; primal eigenvectors of the Slater iterate left
    # rotated instances up to 2e-7 off
    for seed in range(20):
        v = run_pipeline(_rotated_ex61(seed), ROTATED_CFG)
        assert v.exactness == "certified_exact"
        assert abs(v.value + SQRT3_OVER_2) <= 1e-9


def test_one_active_row_needs_no_interior_point_solve(monkeypatch):
    # the worked example reduces to S^2, where C' = -c B' leaves one
    # equality: the reduced Slater margin is 1/4 in closed form and the
    # relaxation comes from the pencil, with no interior-point iteration
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    with open(os.path.join(root, "docs", "examples", "worked-example.json"), "rb") as fh:
        problem, _ = parse_problem(fh.read())
    v = run_pipeline(problem, PipelineConfig(tol=1e-9, cert_tol=1e-9))
    assert v.sdp.status == "optimal" and v.sdp.iterations == 0
    assert abs(v.value + SQRT3_OVER_2) <= 1e-11
    assert v.reduction.slater_margin == 0.25
    # one reduce-refute batch of the benchmark (seed 1): the faces of the
    # rotated examples at n = 4, which need two rows, are exposed by the
    # pair (B, C) with no SDP, so nothing reaches the core
    calls = []
    core = sdpmod._conic_solve

    def counting(d, tol=sdpmod.DEFAULT_TOL):
        calls.append(d.n)
        return core(d, tol=tol)

    monkeypatch.setattr(sdpmod, "_conic_solve", counting)
    sys.path.insert(0, os.path.join(root, "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    for op in workloads.build("reduce-refute", 1).ops:
        for item in op:
            problem, opts = parse_problem(item.doc)
            run_pipeline(problem, PipelineConfig(tol=opts["tol"], cert_tol=opts["tol"],
                                                 seed=opts["seed"]))
    assert calls == []


def test_face_moves_at_roundoff_under_roundoff_rescaling():
    # members scaled by 1 + 1e-13 k: the face basis and the (C)' values move
    # by roundoff, not by the solve's accuracy
    for seed in range(3):
        base = run_pipeline(_rotated_ex61(seed), ROTATED_CFG)
        base_values = [m.value for m in base.cert.slice_conditions.c_prime_members]
        for k in (1, 2, 3):
            v = run_pipeline(_rotated_ex61(seed, 1.0 + 1e-13 * k), ROTATED_CFG)
            values = [m.value for m in v.cert.slice_conditions.c_prime_members]
            assert np.abs(v.reduction.basis - base.reduction.basis).max() <= 1e-12
            np.testing.assert_allclose(values, base_values, rtol=0.0, atol=1e-12)


# --------------------------------------------------------------------------
# properties: a restriction is its face, and member order does not matter
# --------------------------------------------------------------------------

PROPERTY_SETTINGS = settings(max_examples=12, deadline=None, derandomize=True,
                             suppress_health_check=[HealthCheck.too_slow])


@st.composite
def _slice_sets(draw):
    """Disks of radius 0.3 or 0.8 at integer centres, or a ball grid of
    radius 0.5 on a box of integer centres, with a seeded objective."""
    if draw(st.booleans()):
        centers = draw(st.lists(st.tuples(st.integers(-1, 2), st.integers(-1, 1)),
                                min_size=2, max_size=5, unique=True))
        members = [disk_member(c, draw(st.sampled_from([0.3, 0.8]))) for c in centers]
    else:
        x0, y0 = draw(st.integers(-2, 1)), draw(st.integers(-2, 1))
        box = ((x0, x0 + draw(st.integers(0, 2))), (y0, y0 + draw(st.integers(1, 2))))
        members = list(build_family(BallGrid(centers=tuple(integer_grid(box)),
                                             radius=0.5), 3).members)
    g = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).standard_normal((3, 3))
    return members, SymMat.from_dense((g + g.T) / 2.0)


def _statuses(v):
    sc = v.cert.slice_conditions
    return (sorted(p.status for p in v.cert.condition_b.pairs),
            sorted(p.status for p in sc.b_prime_pairs) if sc is not None else [])


@PROPERTY_SETTINGS
@given(_slice_sets(), st.integers(0, 2 ** 32 - 1))
def test_restriction_matches_the_problem_on_its_range(case, seed):
    # the slice set and objective embedded in R^5 through a rank-3 L with
    # four columns; data off range L (cross terms included) is arbitrary
    members, q = case
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    lmat = u[:, :3] @ rng.standard_normal((3, 4))

    def embed(m):
        g = rng.standard_normal((5, 5))
        off = g + g.T
        off[:3, :3] = 0.0
        return SymMat.from_dense(u @ (off + np.pad(m.to_dense(), (0, 2))) @ u.T)

    prob = GeoCop(n=5, Q=embed(q), H=SymMat.identity(5),
                  bset=constraint_set(5, [embed(m) for m in members]),
                  restrict_to=(5, 4, tuple(lmat.ravel())))
    basis = np.linalg.svd(lmat)[0][:, :3]

    def on_range(m):
        return SymMat.from_dense(basis.T @ m.to_dense() @ basis)

    ref = GeoCop(n=3, Q=on_range(prob.Q), H=on_range(prob.H),
                 bset=constraint_set(3, [on_range(m) for m in prob.bset.members]))
    # the two reduced problems differ by a rotation and roundoff, so their
    # values agree to the solve's accuracy: solved to 1e-10 to compare at 1e-9
    cfg = PipelineConfig(tol=1e-10, cert_tol=CFG.cert_tol)
    v, vr = run_pipeline(prob, cfg), run_pipeline(ref, cfg)
    assert (v.exactness, v.cert.overall) == (vr.exactness, vr.cert.overall)
    assert abs(v.value - vr.value) <= 1e-9
    if v.lifted_x is not None:
        x = v.lifted_x
        assert np.linalg.norm(x - basis @ (basis.T @ x)) <= 1e-9 * np.linalg.norm(x)


@PROPERTY_SETTINGS
@given(_slice_sets(), st.randoms(use_true_random=False))
def test_pipeline_verdict_invariant_under_member_order(case, rnd):
    members, q = case
    order = list(range(len(members)))
    rnd.shuffle(order)
    v, vp = [run_pipeline(GeoCop(n=3, Q=q, H=SymMat.identity(3),
                                 bset=constraint_set(3, ms)), CFG)
             for ms in (members, [members[i] for i in order])]
    assert (v.exactness, v.cert.overall) == (vp.exactness, vp.cert.overall)
    assert _statuses(v) == _statuses(vp)
    assert abs(v.value - vp.value) <= 1e-9
