import sys
import types

import numpy as np

from exactsdp import sdp as sdpmod
from exactsdp.certify import (CERTIFIED, INCONCLUSIVE, REFUTED, certify,
                              check_Bprime_Cprime, check_condition_B,
                              check_pair_B, check_structural, classify)
from exactsdp.model import constraint_set, eval_quadratic, normalize
from exactsdp.sdp import eq10_problem, solve, solve_ab_certificate
from exactsdp.symmat import SymMat, inner, is_psd, lambda_min
from exactsdp.gallery import (FIG1_COMBOS, ex61_matrices, ex61_reduced_matrices,
                              fig1_member, fig2_members, hyperbola_family,
                              overlap_disks)

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
    v = check_pair_B(fig1_member(1), fig1_member(6), TOL)
    assert v.status == CERTIFIED and v.certificate == (1.0, 0.75)


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


def test_pair_inconclusive_band():
    # engineered so the best certificate margin sits between -10*tol and -tol
    a = SymMat.diag([1.0, -1.0])
    b = SymMat.diag([-1.0, 1.0 - 2e-7])
    v = check_pair_B(a, b, TOL)
    assert v.status == INCONCLUSIVE


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


def test_classify_cases():
    b, c = ex61_reduced_matrices()
    cl = classify(constraint_set(2, [b, c]), TOL)
    assert cl.case == "a" and cl.exposing_index in (0, 1)
    cl2 = classify(normalize(constraint_set(3, fig2_members())), TOL)
    assert cl2.case == "b"
    cl3 = classify(constraint_set(2, [SymMat.zeros(2)]), TOL)
    assert cl3.case == "a"


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
                zeta = solve(eq10_problem(a, b), tol=1e-9).value
                scale = max(1.0, a.norm())
                if cert is not None:
                    assert zeta >= -10.0 * TOL * scale
                else:
                    assert zeta <= -TOL * scale


def test_certify_solves_slater_once(monkeypatch):
    s = normalize(constraint_set(3, fig2_members()))
    calls = []
    original = sdpmod.solve_slater

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(sdpmod, "solve_slater", counting)
    rep = certify(s, TOL, slice_conditions=False)
    assert rep.condition_b.status == CERTIFIED
    assert len(calls) == 1
    # the shared Slater point gives what classify finds on its own
    assert rep.classification == classify(s, TOL)
    assert len(calls) == 2


def test_package_certify_is_the_submodule():
    import exactsdp
    assert isinstance(exactsdp.certify, types.ModuleType)
    assert exactsdp.certify is sys.modules["exactsdp.certify"]
    assert exactsdp.certify.certify is certify
