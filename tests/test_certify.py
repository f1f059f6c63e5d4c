import math
import sys
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from exactsdp import sdp as sdpmod
from exactsdp.certify import (CERTIFIED, Classification, ConditionBReport, INCONCLUSIVE,
                              REFUTED, PairVerdict, _band, _pair_slice_witness,
                              _rank_one_pieces, certify, check_Bprime_Cprime,
                              check_condition_B, check_pair_B, check_structural, classify,
                              inclusion_status)
from exactsdp.model import GeoCop, constraint_set, eval_quadratic, normalize
from exactsdp.reduction import facial_reduce, remove_redundant
from exactsdp.sdp import SdpProblem, solve, solve_ab_certificate
from exactsdp.symmat import SymMat, inner, is_psd, lambda_min
from exactsdp.gallery import (FIG1_COMBOS, build_case, disk_member, ex61_matrices,
                              ex61_reduced_matrices, fig1_member, fig2_members,
                              hyperbola_family, list_cases, overlap_disks)

TOL = 1e-8


def test_pair_certified_opposite_members():
    b, c = ex61_reduced_matrices()
    v = check_pair_B(b, c, TOL)
    assert v.status == CERTIFIED
    assert v.certificate == (1.0, 1.0)
    assert v.margin == 0.0


def test_pair_refuted_with_witness_invariants():
    a, b, _ = ex61_matrices()
    v = check_pair_B(a, b, TOL)
    assert v.status == REFUTED
    w = v.witness
    assert w is not None
    assert lambda_min(w) >= -TOL
    assert inner(b, w) <= TOL
    assert inner(a, w) <= -10.0 * TOL


def test_pair_certified_disk_pair():
    a, b = fig1_member(1), fig1_member(6)
    v = check_pair_B(a, b, TOL)
    assert v.status == CERTIFIED and v.certificate[0] == 1.0
    # A + tau B = diag(1 - tau, 1 - tau, tau - 1/2) is psd for tau in [1/2, 1];
    # numpy's eigvalsh rechecks the acceptance rule and the reported margin
    tau = v.certificate[1]
    assert 0.5 <= tau <= 1.0
    lam = np.linalg.eigvalsh(a.to_dense() + tau * b.to_dense())[0]
    assert lam >= -TOL * min(1.0, tau) * (a.norm() + b.norm())
    assert abs(v.margin - lam / max(1.0, a.norm() + b.norm())) <= 1e-15


def test_pair_status_symmetric():
    cases = [ex61_reduced_matrices(), ex61_matrices()[:2],
             (fig1_member(1), fig1_member(6))]
    for a, b in cases:
        assert check_pair_B(a, b, TOL).status == check_pair_B(b, a, TOL).status


def test_pair_status_scale_invariant():
    rng = np.random.default_rng(0)
    for a, b in (ex61_reduced_matrices(), ex61_matrices()[:2]):
        base = check_pair_B(a, b, TOL).status
        for _ in range(3):
            ca, cb = float(rng.uniform(0.2, 5.0)), float(rng.uniform(0.2, 5.0))
            assert check_pair_B(a.scale(ca), b.scale(cb), TOL).status == base


def test_far_apart_member_norms_keep_the_certificate():
    # a member 1e-150 times the other's size: the pencil searches the pair
    # at unit norms and maps y back, so y = 2**40 is no limit
    a = disk_member((0.0, 0.0), 0.5)
    for s in (1e-14, 1e-16, 1e-150, 1e150):
        b = disk_member((2.0, 0.0), 0.5).scale(s)
        for pair in ((a, b), (b, a)):
            v = check_pair_B(*pair, TOL)
            assert v.status == CERTIFIED
            alpha, beta = v.certificate
            assert lambda_min(pair[0].scale(alpha).add(pair[1], beta)) >= 0.0


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.booleans(), st.integers(0, 2 ** 32 - 1), st.integers(-400, 400), st.booleans())
def test_pair_status_invariant_under_power_of_two_scaling(disks, seed, k, first):
    # unit-norm members, as normalize gives them, one scaled by 2**k
    rng = np.random.default_rng(seed)
    if disks:
        a, b = (disk_member(tuple(rng.uniform(-2.0, 2.0, 2)), float(rng.uniform(0.2, 1.0)))
                for _ in range(2))
    else:
        n = int(rng.integers(2, 5))
        a, b = (SymMat.from_dense(g + g.T + rng.uniform(-2.0, 2.0) * np.eye(n))
                for g in rng.standard_normal((2, n, n)))
    a, b = normalize(constraint_set(a.n, [a, b])).members
    base = check_pair_B(a, b, TOL).status
    scaled = check_pair_B(a.scale(2.0 ** k), b, TOL) if first else check_pair_B(
        a, b.scale(2.0 ** k), TOL)
    if base == REFUTED and first and k < 0:
        # a refutation reads min <A,X> against tol max(1, ||A||): below
        # norm 1 the floor is absolute, and a shrunk A may read inconclusive
        assert scaled.status in (REFUTED, INCONCLUSIVE)
    else:
        assert scaled.status == base


def test_pair_inconclusive_band():
    # engineered so the best certificate margin sits between -10*tol and -tol
    a = SymMat.diag([1.0, -1.0])
    b = SymMat.diag([-1.0, 1.0 - 2e-7])
    v = check_pair_B(a, b, TOL)
    assert v.status == INCONCLUSIVE


def test_band_edges():
    for scale in (1.0, 4.0):
        assert _band(-TOL * scale, TOL, scale) is True
        assert _band(-10.0 * TOL * scale, TOL, scale) is False
        assert _band(-5.0 * TOL * scale, TOL, scale) is None
    assert _band(math.nan, TOL, 1.0) is None
    assert _band(-math.inf, TOL, 1.0) is False


def test_inclusion_sdp_between_the_edges_is_inconclusive(monkeypatch):
    # X11 >= X22 over the trace-one slice: min <A,X> = -delta at e1 e1'.  A - B
    # is not psd and no probe is clearly negative, so the pencil of the
    # inclusion SDP decides, with no interior-point solve
    b = SymMat.diag([1.0, -1.0])
    calls = _count_calls(monkeypatch, "pencil_bounds")
    solves = _count_calls(monkeypatch, "solve")
    assert inclusion_status(SymMat.diag([-2e-9, 1.0]), b, TOL) == CERTIFIED
    assert inclusion_status(SymMat.diag([-5e-8, 1.0]), b, TOL) == INCONCLUSIVE
    assert len(calls) == 2 and not solves
    # B = diag(0, -1): <B,X> >= 0 leaves only X = e1 e1', so the supremum of
    # lambda_min(A - yB) is not attained; its value -5e-8 lies between the
    # edges, and the pencil gives no X to refute with
    assert inclusion_status(SymMat.diag([-5e-8, 1.0]), SymMat.diag([0.0, -1.0]),
                            TOL) == INCONCLUSIVE
    assert len(calls) == 3 and all(np.isnan(f).all() for f in sdpmod.pencil_bounds(*calls[2]))
    # B negative definite: J+(B) = {0}, and A - 4B psd is a dual certificate
    # of the inclusion, though no trace-one X has <B,X> >= 0
    assert inclusion_status(SymMat.diag([-2.0, 1.0]), SymMat.diag([-1.0, -1.0]),
                            TOL) == CERTIFIED


def test_condition_B_aggregates():
    b, c = ex61_reduced_matrices()
    assert check_condition_B(constraint_set(2, [b, c]), TOL).status == CERTIFIED
    a4, b4, c4 = ex61_matrices()
    assert check_condition_B(constraint_set(4, [a4, b4, c4]), TOL).status == "not_certified"
    assert check_condition_B(constraint_set(2, [b]), TOL).status == CERTIFIED  # vacuous


def _psd_samples_in_Jminus(b, rng, count=200):
    """Random psd samples with <B, X> <= 0."""
    out = []
    n = b.n
    while len(out) < count:
        g = rng.standard_normal((n, rng.integers(1, n + 1)))
        x = SymMat.from_dense(g @ g.T)
        if inner(b, x) <= 0.0:
            out.append(x)
    return out


def test_certificate_soundness_by_sampling():
    rng = np.random.default_rng(1)
    pairs = [(fig1_member(i), fig1_member(j))
             for combo in FIG1_COMBOS.values()
             for i in combo for j in combo if i < j]
    for a, b in pairs:
        v = check_pair_B(a, b, TOL)
        assert v.status == CERTIFIED
        for x in _psd_samples_in_Jminus(b, rng, count=200):
            assert inner(a, x) >= -1e-6 * max(1.0, x.norm())


def test_fig1_combos_pass_slice_conditions():
    for ks in FIG1_COMBOS.values():
        s = constraint_set(3, [fig1_member(k) for k in ks])
        rep = check_Bprime_Cprime(s, TOL)
        assert rep.b_prime_status == CERTIFIED
        assert rep.c_prime_status == CERTIFIED


def test_fig2_passes_slice_conditions():
    rep = check_Bprime_Cprime(constraint_set(3, fig2_members()), TOL)
    assert rep.b_prime_status == CERTIFIED and rep.c_prime_status == CERTIFIED


def test_limit_matrix_fails_c_prime():
    fam = hyperbola_family()
    bbar = fam.limit_member(abar=4.0)
    assert is_psd(bbar, 1e-10)
    rep = check_Bprime_Cprime(constraint_set(3, [bbar]), TOL)
    assert rep.c_prime_status == "not_certified"
    assert rep.c_prime_members[0].status == REFUTED


def test_overlap_disks_refuted_with_point():
    rep = check_Bprime_Cprime(overlap_disks(), TOL)
    assert rep.b_prime_status == "not_certified"
    pair = rep.b_prime_pairs[0]
    assert pair.status == REFUTED
    u = pair.witness_point
    s = overlap_disks()
    vals = sorted(eval_quadratic(u, 1.0, m) for m in s.members)
    assert vals[0] < -TOL          # strictly inside one disk
    assert vals[1] <= TOL          # inside or on the other


def test_pair_slice_witness_reports_only_checked_points():
    # two radius-1/2 disks whose lens is 0.025 wide: points of the lens near
    # its rim are less than tol = 0.01 deep in A and must not be reported
    t = 0.975 * np.array([math.cos(0.3), math.sin(0.3)])
    first, second = disk_member((0.0, 0.0), 0.5), disk_member(tuple(t), 0.5)
    tol = 0.01
    found = 0
    for a, b in ((first, second), (second, first)):
        u = _pair_slice_witness(a, b, tol)
        if u is not None:
            found += 1
            assert eval_quadratic(u, 1.0, b) <= tol
            assert eval_quadratic(u, 1.0, a) < -tol
    assert found >= 1


def test_pair_slice_witness_needs_an_attained_supremum(monkeypatch):
    first, second = disk_member((0.0, 0.0), 0.5), disk_member((0.5, 0.0), 0.5)
    assert _pair_slice_witness(first, second, TOL) is not None
    monkeypatch.setattr(sdpmod, "pencil_bounds", lambda a, g, band=None: sdpmod.PencilBounds(
        *(np.full(a.shape[:k], np.nan) for k in (1, 1, 1, 3))))
    assert _pair_slice_witness(first, second, TOL) is None


def test_rank_one_pieces_split_x_evenly_in_g():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        r = int(rng.integers(1, n + 1))
        f = rng.standard_normal((n, r))
        x = f @ f.T
        g = rng.standard_normal((n, n))
        g = g + g.T
        pieces = _rank_one_pieces(x, g)
        # roundoff can leave eigenvalues of a rank-deficient X just above 0,
        # and each positive one makes a piece
        assert r <= len(pieces) <= n
        assert np.abs(pieces.T @ pieces - x).max() <= 1e-12 * np.abs(x).max()
        vals = np.einsum("ij,jk,ik->i", pieces, g, pieces)
        mean = np.sum(g * x) / len(pieces)
        assert np.abs(vals - mean).max() <= 1e-12 * np.abs(g).max() * np.trace(x)


def test_thin_lens_witness_found_where_the_shifted_sdp_sees_one():
    # radius-1/2 disks at distance d: a point at most tol outside one disk and
    # more than tol inside the other exists iff d < sqrt(1/4 + tol) +
    # sqrt(1/4 - tol) (0.99979 at tol = 0.01).  The shifted problem sees the
    # points at most tol (1 - 1e-6) outside, so it finds one wherever one
    # exists, up to a band of width about 1e-8 below that limit
    tol = 0.01
    exists = math.sqrt(0.25 + tol) + math.sqrt(0.25 - tol)
    for distance in (0.90, 0.94, 0.97, 0.99, 0.994, 0.997, 0.9995, 1.0, 1.02):
        for angle in (0.0, 0.2, 0.7, 1.3):
            t = distance * np.array([math.cos(angle), math.sin(angle)])
            first, second = disk_member((0.0, 0.0), 0.5), disk_member(tuple(t), 0.5)
            found = 0
            for a, b in ((first, second), (second, first)):
                u = _pair_slice_witness(a, b, tol)
                if u is not None:
                    found += 1
                    x = np.append(u, 1.0)
                    assert x @ b.to_dense() @ x <= tol and x @ a.to_dense() @ x < -tol
            if distance < exists:
                assert found == 2, (distance, angle)
            else:
                assert found == 0, (distance, angle)


def test_thin_lens_pair_inside_the_old_band_is_refuted():
    # d = 0.997 lies between sqrt(1/4 + tol/2) + sqrt(1/4 - tol) = 0.99488 and
    # the existence limit 0.99979: its witnesses need q(u,1,B) in (tol/2, tol],
    # which a solve of B shifted by tol/2 could not reach, so the pair stayed
    # inconclusive
    tol = 0.01
    t = 0.997 * np.array([math.cos(0.2), math.sin(0.2)])
    members = [disk_member((0.0, 0.0), 0.5), disk_member(tuple(t), 0.5)]
    assert _checked_bprime(members, tol) == REFUTED
    assert _checked_bprime(members[::-1], tol) == REFUTED


def test_slice_witness_without_dimension_cap():
    # two overlapping radius-1/2 balls in R^4 (n - 1 = 4)
    s = constraint_set(5, [disk_member((0.0, 0.0, 0.0, 0.0), 0.5),
                           disk_member((0.9, 0.0, 0.0, 0.0), 0.5)])
    rep = check_Bprime_Cprime(s, TOL)
    pair = rep.b_prime_pairs[0]
    assert rep.b_prime_status == "not_certified" and pair.status == REFUTED
    u = np.append(pair.witness_point, 1.0)
    qa, qb = sorted(float(u @ m.to_dense() @ u) for m in s.members)
    assert qa < -TOL and qb <= TOL


@st.composite
def _ball_pairs(draw):
    d = draw(st.sampled_from((2, 3)))
    coord = st.floats(-1.0, 1.0, allow_nan=False)
    centers = [tuple(draw(coord) for _ in range(d)) for _ in range(2)]
    radii = [draw(st.floats(0.2, 1.0)) for _ in range(2)]
    assume(centers[0] != centers[1] or radii[0] != radii[1])
    return [disk_member(c, r) for c, r in zip(centers, radii)]


def _checked_bprime(members, tol):
    """(B)' status of the pair by the slice-witness route; each reported
    witness point must pass the test in one of the two orientations,
    evaluated as x' M x in numpy.  The pair enters without a condition (B)
    certificate, so that every pair takes the slice-witness route."""
    open_pair = ConditionBReport(INCONCLUSIVE, (PairVerdict((0, 1), INCONCLUSIVE),))
    s = constraint_set(members[0].n, members)
    pair = check_Bprime_Cprime(s, tol, condition_b=open_pair).b_prime_pairs[0]
    if pair.witness_point is not None:
        x = np.append(pair.witness_point, 1.0)
        q = [float(x @ m.to_dense() @ x) for m in members]
        assert (q[1] <= tol and q[0] < -tol) or (q[0] <= tol and q[1] < -tol)
    return pair.status


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_ball_pairs(), st.sampled_from((TOL, 0.01)))
def test_bprime_symmetric_in_the_pair(members, tol):
    assert _checked_bprime(members, tol) == _checked_bprime(members[::-1], tol)


def test_pair_status_independent_of_order_at_large_tol():
    # the radius-1/4 disk centred on the unit circle: the pair was certified
    # as (small, unit) with (1, 0.000504) while the certificate test did not
    # scale with the smaller coefficient
    unit, small = disk_member((0.0, 0.0), 1.0), disk_member((0.0, 1.0), 0.25)
    assert check_pair_B(unit, small, 0.01).status == REFUTED
    assert check_pair_B(small, unit, 0.01).status == INCONCLUSIVE


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_ball_pairs(), st.sampled_from((TOL, 0.01)))
def test_pair_never_certified_in_one_order_and_refuted_in_the_other(members, tol):
    a, b = members
    assert {check_pair_B(a, b, tol).status,
            check_pair_B(b, a, tol).status} != {CERTIFIED, REFUTED}


def _check_pairs_recorded_once(s, tol=TOL):
    """certify(s) is certified exactly when condition (B) is, and the slice
    report lists the pairs (B) leaves without a certificate, in order."""
    rep = certify(s, tol)
    assert (rep.overall == CERTIFIED) == (rep.condition_b.status == CERTIFIED)
    if rep.slice_conditions is not None:
        assert ([v.pair for v in rep.slice_conditions.b_prime_pairs]
                == [v.pair for v in rep.condition_b.pairs if v.status != CERTIFIED])


@pytest.mark.parametrize("normalized", [False, True])
@pytest.mark.parametrize("case_id", list_cases())
def test_gallery_pairs_recorded_once(case_id, normalized):
    p = build_case(case_id).problem
    s = p.bset if isinstance(p, GeoCop) else p
    _check_pairs_recorded_once(normalize(s) if normalized else s)


@st.composite
def _disk_sets(draw):
    """Two to six disks of radius 0.3, 0.5 or 0.8 at half-integer centres:
    pairs that lie apart, touch or overlap."""
    centers = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                            min_size=2, max_size=6, unique=True))
    return constraint_set(3, [disk_member((x / 2.0, y / 2.0),
                                           draw(st.sampled_from([0.3, 0.5, 0.8])))
                              for x, y in centers])


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_disk_sets())
def test_disk_family_pairs_recorded_once(s):
    _check_pairs_recorded_once(s)


def test_structural_on_reduced_example():
    b, c = ex61_reduced_matrices()
    rep = check_structural(constraint_set(2, [b, c]), TOL)
    assert rep.a1 and rep.a3 and rep.a4 and rep.a5
    assert rep.a2 is None
    assert abs(rep.slater_margin - 0.25) <= 1e-6


def test_structural_trivial_zero_set():
    rep = check_structural(constraint_set(2, [SymMat.zeros(2)]), TOL)
    assert rep.a4


def test_structural_a3_fails_on_collapsed_cone():
    s = constraint_set(2, [SymMat.identity(2).scale(-1.0), SymMat.diag([1.0, -1.0])])
    rep = check_structural(s, TOL)
    assert not rep.a3


def test_structural_a4_flags_psd_member():
    a, b, c = ex61_matrices()
    a2 = SymMat.from_dense([[2, 1], [1, 1]])
    b2, c2 = ex61_reduced_matrices()
    rep = check_structural(constraint_set(2, [a2, b2, c2]), TOL)
    assert not rep.a4 and rep.a4_psd_members == (0,)


def test_inclusion_with_psd_difference_certified_by_the_pencil(monkeypatch):
    # A - B psd gives <A,X> >= <B,X> >= 0 for every X: the pencil's first
    # call reads lambda_min(A - B) at y = 1 and certifies, with no
    # interior-point solve
    rng = np.random.default_rng(11)
    g, v = rng.standard_normal((3, 3)), rng.standard_normal(3)
    b = SymMat.from_dense((g + g.T) / 2.0)
    pairs = [(disk_member((0.0, 0.0), 0.5), disk_member((0.0, 0.0), 1.0)),
             (b.add(SymMat.from_dense(np.outer(v, v))), b)]
    calls = _count_calls(monkeypatch, "pencil_bounds")
    solves = _count_calls(monkeypatch, "solve")
    for a, b in pairs:
        assert is_psd(a.add(b, -1.0), TOL)
        assert inclusion_status(a, b, TOL) == CERTIFIED
    assert len(calls) == 2 and not solves


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(sdpmod, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(sdpmod, name, counting)
    return calls


def test_classify_cases(monkeypatch):
    b, c = ex61_reduced_matrices()
    calls = _count_calls(monkeypatch, "solve")
    cl = classify(constraint_set(2, [b, c]), TOL)
    # both members are boundary members (the slice is <B,X> = 0); the first
    # settles case (a) through the pencil, with no interior-point SDP
    assert cl == Classification(case="a", exposing_index=0)
    assert not calls
    cl2 = classify(normalize(constraint_set(3, fig2_members())), TOL)
    assert cl2.case == "b"
    cl3 = classify(constraint_set(2, [SymMat.zeros(2)]), TOL)
    assert cl3.case == "a"


def test_classify_solves_below_the_band_at_small_tol(monkeypatch):
    # a solve at tol t can leave its value about 2.6 t max(1, ||A||) above the
    # optimum, and the band reads a boundary member at -tol; so at
    # tol = 1e-9 the SDP is solved at 1e-10, and at the default 1e-8 at 1e-9.
    # The third member, I, keeps the set on the interior-point route and is
    # clearly interior at the Slater point
    b, c = ex61_reduced_matrices()
    members = [b, c, SymMat.identity(2)]
    tols = []
    original = sdpmod.solve

    def recording(p, tol=sdpmod.DEFAULT_TOL, **kwargs):
        tols.append(tol)
        return original(p, tol=tol, **kwargs)

    monkeypatch.setattr(sdpmod, "solve", recording)
    assert classify(constraint_set(2, members), 1e-9) == Classification("a", 0)
    assert tols == [1e-10]
    del tols[:]
    classify(constraint_set(2, members), TOL)
    assert tols == [1e-9]


def test_classify_checks_every_member_before_case_b(monkeypatch):
    # X11 >= X22 >= X33, and the implied X11 >= X33: the Slater point I/3 is
    # zero on every member, so none is clearly interior, and none is a
    # boundary member.  Three members take one interior-point SDP each
    members = [SymMat.diag([1.0, -1.0, 0.0]), SymMat.diag([0.0, 1.0, -1.0]),
               SymMat.diag([1.0, 0.0, -1.0])]
    calls = _count_calls(monkeypatch, "solve")
    assert classify(constraint_set(3, members), TOL) == Classification(case="b")
    assert len(calls) == 3
    # the first two alone ask one stacked pencil for both, with no SDP
    pencils = _count_calls(monkeypatch, "pencil_bounds")
    assert classify(constraint_set(3, members[:2]), TOL) == Classification(case="b")
    assert len(calls) == 3 and len(pencils) == 1 and len(pencils[0][0]) == 2


def test_classify_reads_a_stalled_solve_at_its_best_iterate(monkeypatch):
    # [-ww', two random members] in S^3 from seed 76: -ww' is a boundary
    # member wherever the slice is not empty, and the trace-one solve of
    # min <ww',X> over the three rows stalls ("numerical") with its best
    # iterate's residuals within tol; that iterate reads case (a) at index 0.
    # ww' has a double bottom eigenvalue (0), so no closed-form answer
    # applies and the solve reaches the interior-point core
    rng = np.random.default_rng(76)
    n = int(rng.integers(2, 5))
    w = rng.standard_normal(n)
    g = rng.standard_normal((2, n, n))
    s = constraint_set(n, [SymMat.from_dense(m)
                           for m in [-np.outer(w, w)] + [(x + x.T) / 2.0 for x in g]])
    slater = sdpmod.solve_slater(s.members, n, tol=TOL)
    assert n == 3 and slater[0] == "optimal"
    solves = []
    original = sdpmod.solve

    def recording(p, tol=sdpmod.DEFAULT_TOL):
        solves.append(original(p, tol=tol))
        return solves[-1]

    monkeypatch.setattr(sdpmod, "solve", recording)
    assert classify(s, TOL, slater=slater) == Classification(case="a", exposing_index=0)
    assert solves[0].status == "numerical" and max(solves[0].residuals) <= TOL
    assert solves[0].iterations > 0


def _classify_by_solves(s, tol, slater):
    """classify's interior-point route on a set of any size: one core solve
    of the trace-one SDP per member not clearly interior, at
    min(tol / 10, 1e-9).  Returns (Classification, every solve optimal)."""
    _, x, _, _ = slater
    optimal = True
    for idx, m in enumerate(s.members):
        scale = max(1.0, m.norm())
        if inner(m, x) > 10.0 * tol * scale:
            continue
        p = SdpProblem(m.scale(-1.0), SymMat.identity(s.n), s.members)
        sol = sdpmod._conic_solve(sdpmod._assemble(p), tol=min(tol / 10.0, 1e-9))
        optimal = optimal and sol.status == "optimal"
        if _band(sol.value if sol.status == "optimal" else math.nan, tol, scale):
            return Classification(case="a", exposing_index=idx), optimal
    return Classification(case="b"), optimal


_ENTRY = st.floats(-2.0, 2.0, allow_subnormal=False)


@st.composite
def _member_pairs(draw):
    """Two members in S^n, n = 2-4: random, B = -A, and rank-one negative
    semidefinite ones (-ww', a boundary member wherever the slice is not
    empty)."""
    n = draw(st.integers(2, 4))

    def member(kind, other=None):
        if kind == "opposite":
            return -other
        if kind == "rank_one":
            w = np.array(draw(st.lists(_ENTRY, min_size=n, max_size=n)))
            return -np.outer(w, w)
        a = np.array(draw(st.lists(_ENTRY, min_size=n * n, max_size=n * n))).reshape(n, n)
        return (a + a.T) / 2.0

    kinds = draw(st.tuples(st.sampled_from(("random", "rank_one")),
                           st.sampled_from(("random", "rank_one", "opposite"))))
    first = member(kinds[0])
    members = [first, member(kinds[1], first)]
    if draw(st.booleans()):
        members.reverse()
    return constraint_set(n, [SymMat.from_dense(m) for m in members])


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(_member_pairs())
def test_classify_pencil_route_matches_the_interior_point_route(s):
    # wherever the Slater solve and every trace-one solve end optimal, the
    # pencil's case and exposing index are those of the interior-point route
    slater = sdpmod.solve_slater(s.members, s.n, tol=TOL)
    assume(slater[0] == "optimal")
    by_solves, optimal = _classify_by_solves(s, TOL, slater)
    assume(optimal)
    assert classify(s, TOL, slater=slater) == by_solves


def test_certificate_and_sdp_paths_agree_under_structure():
    # where (A-3), (A-4), (A-5) hold the two decision routes must not disagree
    sets = [constraint_set(2, list(ex61_reduced_matrices())),
            normalize(constraint_set(3, fig2_members())),
            normalize(overlap_disks())]
    for s in sets:
        rep = check_structural(s, TOL)
        if not (rep.a3 and rep.a4 and rep.a5):
            continue
        for i in range(len(s.members)):
            for j in range(len(s.members)):
                if i == j:
                    continue
                a, b = s.members[i], s.members[j]
                cert = solve_ab_certificate(a, b, TOL)
                zeta = solve(SdpProblem(a, SymMat.identity(a.n), (b.scale(-1.0),)),
                             tol=1e-9).value
                scale = max(1.0, a.norm())
                if cert is not None:
                    assert zeta >= -10.0 * TOL * scale
                else:
                    assert zeta <= -TOL * scale


def test_certify_solves_slater_once(monkeypatch):
    s = normalize(constraint_set(3, fig2_members()))
    calls = _count_calls(monkeypatch, "solve_slater")
    rep = certify(s, TOL)
    assert rep.condition_b.status == CERTIFIED
    assert len(calls) == 1
    # the shared Slater point gives what classify finds on its own
    assert rep.classification == classify(s, TOL)
    assert len(calls) == 2


def test_certify_solves_slater_once_when_it_ends_max_iter(monkeypatch):
    s = normalize(constraint_set(3, fig2_members()))
    real = sdpmod.solve_slater
    calls = []

    def cut_short(*args, **kwargs):
        calls.append(args)
        return ("max_iter",) + real(*args, **kwargs)[1:]

    monkeypatch.setattr(sdpmod, "solve_slater", cut_short)
    rep = certify(s, TOL)
    assert not rep.structural.a3 and rep.condition_b.status == CERTIFIED
    # classify reuses that solve: with no optimal point it skips no member
    # and reaches the verdict an optimal Slater point gives
    assert len(calls) == 1
    assert rep.classification == classify(s, TOL, slater=real(s.members, s.n, tol=1e-9))


def test_package_certify_is_the_submodule():
    import exactsdp
    assert isinstance(exactsdp.certify, types.ModuleType)
    assert exactsdp.certify is sys.modules["exactsdp.certify"]
    assert exactsdp.certify.certify is certify


def _verdicts(rep):
    st = rep.structural
    out = [rep.overall, st.a1, st.a2, st.a3, st.a4, st.a5, st.a4_psd_members,
           st.a5_violations, st.a5_undecided, rep.condition_b.status,
           [(v.pair, v.status) for v in rep.condition_b.pairs]]
    if rep.slice_conditions is not None:
        sc = rep.slice_conditions
        out += [sc.b_prime_status, sc.c_prime_status,
                [(v.pair, v.status) for v in sc.b_prime_pairs],
                [(m.index, m.status) for m in sc.c_prime_members]]
    if rep.classification is not None:
        out += [rep.classification.case, rep.classification.exposing_index]
    return out


def test_certify_with_reduction_answers_matches_own_answers():
    # the Slater point of facial reduction and pruning's inclusion table give
    # the verdicts certify() reaches when it answers both questions itself
    bsets = [build_case("ex6.1-reduced").problem.bset,
             constraint_set(3, fig2_members()), overlap_disks()]
    for bset in bsets:
        n = bset.n
        prob = GeoCop(n=n, Q=SymMat.identity(n), H=SymMat.identity(n), bset=normalize(bset))
        rr = facial_reduce(prob, TOL)
        pruned, _, inclusions = remove_redundant(rr.reduced.bset, TOL)
        reused = certify(pruned, TOL, slater=rr.slater, inclusions=inclusions)
        own = certify(pruned, TOL)
        assert _verdicts(reused) == _verdicts(own)
        assert abs(reused.structural.slater_margin - own.structural.slater_margin) <= 1e-6
        assert reused.structural.slater_margin == rr.slater_margin
