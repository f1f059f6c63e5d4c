"""The batched pair and inclusion layers against independent scalar code.

The reference functions below are scalar loops: a golden section per pair
over lambda_min(mu A + (1 - mu) B) with one lambda_min per step, and for
inclusion one inner product per probe followed by the interior-point
inclusion SDP, whose statuses the inclusion layer matches exactly.  The pair
layer reads its certificates from the pencil A + yB instead, so the golden
section is its oracle for the status only, and every certificate is
rechecked against the acceptance rule with numpy's eigvalsh.  A stacked
pair layer still returns bitwise what one-pair calls return (repr tells
-0.0 from 0.0).
"""
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from exactsdp import sdp as sdpmod
from exactsdp.certify import (CERTIFIED, INCONCLUSIVE, REFUTED, check_condition_B,
                              check_pair_B, inclusion_status, inclusion_table)
from exactsdp.gallery import ball_family, disk_member, ex61_matrices, fig2_members
from exactsdp.model import build_family, constraint_set, normalize
from exactsdp.sdp import solve_ab_certificate
from exactsdp.symmat import (SymMat, dense_stack, inner, is_psd, is_psd_stack, lambda_min,
                             lambda_min_stack, packed_stack)

TOL = 1e-8

# --------------------------------------------------------------------------
# reference implementations: the scalar loops before batching
# --------------------------------------------------------------------------

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _ref_norm(x):
    s = 0.0
    k = 0
    for i in range(x.n):
        for j in range(i, x.n):
            v = x.data[k]
            s += v * v if i == j else 2.0 * v * v
            k += 1
    return math.sqrt(s)


def _snap_candidates(mu):
    mu = min(max(mu, 1e-12), 1.0 - 1e-12)
    tau = (1.0 - mu) / mu
    candidates = []
    for t in (float(round(tau)), round(tau, 1), round(tau, 3), round(tau, 6),
              round(tau, 9), round(tau, 12), tau):
        if t > 0.0 and t not in candidates:
            candidates.append(t)
    return candidates


def _ref_ab_search(a, b, tol):
    """Scalar golden section that a pair leaves at its first positive-definite
    probe when a snap candidate there is positive definite; returns
    (tau, margin) for the certificate (1, tau), or None."""
    scale = _ref_norm(a) + _ref_norm(b)

    def phi(mu):
        return lambda_min(a.scale(mu).add(b, 1.0 - mu))

    def exit_check(mu):
        return next(((t, lam) for t in _snap_candidates(mu)
                     for lam in [lambda_min(a.add(b, t))] if lam > 0.0), None)

    lo, hi = 0.0, 1.0
    c = hi - _INVPHI * (hi - lo)
    e = lo + _INVPHI * (hi - lo)
    fc, fe = phi(c), phi(e)
    x, fx = (c, fc) if fc >= fe else (e, fe)
    checked = False
    for step in range(121):
        if fx > 0.0 and not checked:
            checked = True
            cert = exit_check(x)
            if cert is not None:
                return cert[0], cert[1] / max(scale, 1.0)
        if step == 120:
            break
        if fc >= fe:
            hi, e, fe = e, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = phi(c)
            x, fx = c, fc
        else:
            lo, c, fc = c, e, fe
            e = lo + _INVPHI * (hi - lo)
            fe = phi(e)
            x, fx = e, fe
    evaluated = [(t, lambda_min(a.add(b, t)) / (1.0 + t))
                 for t in _snap_candidates((lo + hi) / 2.0)]
    best_val = max(v for _, v in evaluated)
    tau = next(t for t, v in evaluated if v >= best_val - 1e-12 * scale)
    if lambda_min(a.add(b, tau)) >= -tol * min(1.0, tau) * scale:
        return tau, lambda_min(a.add(b, tau)) / max(scale, 1.0)
    return None


def _passes_rule(a, b, tau, tol):
    """numpy's eigvalsh recheck of the acceptance rule for (1, tau) on dense
    a and b: tau > 0 and lambda_min(A + tau B) >= -tol min(1, tau) scale."""
    scale = np.linalg.norm(a) + np.linalg.norm(b)
    return tau > 0.0 and np.linalg.eigvalsh(a + tau * b)[0] >= -tol * min(1.0, tau) * scale


def _ref_probes(members):
    """I / n and the rank-ones of each member's top and bottom eigenvector."""
    n = members[0].n
    probes = [SymMat.identity(n).scale(1.0 / n)]
    for m in members:
        _, vecs = np.linalg.eigh(m.to_dense())
        probes += [SymMat.from_dense(np.outer(v, v)) for v in (vecs[:, -1], vecs[:, 0])]
    return probes


def _ref_inclusion_status(a, b, tol, probes):
    """Scalar probe loop, then the inclusion SDP."""
    scale_a = max(1.0, _ref_norm(a))
    for x in probes:
        if inner(b, x) >= 0.0 and inner(a, x) < -10.0 * tol * scale_a:
            return REFUTED
    sol = sdpmod.solve(sdpmod.SdpProblem(a, SymMat.identity(a.n), (b,)), tol=min(tol, 1e-9))
    if sol.status != "optimal":
        return INCONCLUSIVE
    if sol.value >= -tol * scale_a:
        return CERTIFIED
    if sol.value <= -10.0 * tol * scale_a:
        return REFUTED
    return INCONCLUSIVE


# --------------------------------------------------------------------------
# bitwise agreement on the paper's sets
# --------------------------------------------------------------------------

SETS = {
    "ball25": lambda: normalize(build_family(ball_family(), 3)),
    "fig2": lambda: constraint_set(3, fig2_members()),
    "ex6.1": lambda: constraint_set(4, ex61_matrices()),
}


@pytest.mark.parametrize("name", sorted(SETS))
def test_pair_layer_matches_scalar_search(name):
    s = SETS[name]()
    rep = check_condition_B(s, TOL)
    k = len(s.members)
    assert [v.pair for v in rep.pairs] == [(i, j) for i in range(k) for j in range(i + 1, k)]
    for v in rep.pairs:
        a, b = (s.members[i] for i in v.pair)
        ref = _ref_ab_search(a, b, TOL)
        assert (v.status == CERTIFIED) == (ref is not None), v.pair
        if ref is None:
            assert v.certificate is None
        else:
            alpha, tau = v.certificate
            assert alpha == 1.0 and _passes_rule(a.to_dense(), b.to_dense(), tau, TOL)
            lam = np.linalg.eigvalsh(a.to_dense() + tau * b.to_dense())[0]
            assert abs(v.margin - lam / max(1.0, a.norm() + b.norm())) <= 1e-12


@pytest.mark.parametrize("name", sorted(SETS))
def test_inclusion_table_matches_scalar_probe_loop(name):
    s = SETS[name]()
    table = inclusion_table(s.members, TOL)
    probes = _ref_probes(s.members)
    k = len(s.members)
    assert sorted(table) == [(i, j) for i in range(k) for j in range(k) if i != j]
    for (i, j), st_ in table.items():
        assert st_ == _ref_inclusion_status(s.members[i], s.members[j], TOL, probes), (i, j)


def test_one_pair_calls_match_scalar_code():
    s = SETS["ex6.1"]()
    a, b, c = s.members
    for x, y in ((a, b), (b, c), (a, c), (c, a)):
        ref = _ref_ab_search(x, y, TOL)
        got = solve_ab_certificate(x, y, TOL)
        assert (got is None) == (ref is None)
        assert got is None or _passes_rule(x.to_dense(), y.to_dense(), got[1], TOL)
        assert inclusion_status(x, y, TOL) == _ref_inclusion_status(
            x, y, TOL, _ref_probes((x, y)))


@st.composite
def _disk_pair_stacks(draw):
    """Stacks of disk pairs that lie apart, touch or overlap: the gap is the
    centre distance over the sum of the radii."""
    pairs = []
    for _ in range(draw(st.integers(1, 8))):
        r1, r2 = (draw(st.sampled_from([0.25, 0.5, 0.75, 1.0])) for _ in range(2))
        gap = draw(st.sampled_from([0.3, 0.9, 1.0, 1.5, 3.0]))
        dx, dy = draw(st.sampled_from([(1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (-0.8, 0.6)]))
        x, y = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        d = gap * (r1 + r2)
        pairs.append((disk_member((x, y), r1), disk_member((x + d * dx, y + d * dy), r2)))
    return pairs


def _row(result, p):
    """Pair p of an ab_certificates result: the certificate's y and lam, then
    the pencil's lower, y, upper and X."""
    y, lam, bounds = result
    return (y[p], lam[p]) + tuple(field[p] for field in bounds)


def _same(x, y):
    """Bitwise equality of two pair rows of ab_certificates results."""
    return all(u.tobytes() == v.tobytes() for u, v in zip(x, y))


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_disk_pair_stacks(), st.sampled_from([TOL, 0.01]))
def test_stacked_pairs_match_one_pair_calls(pairs, tol):
    A = np.array([a.to_dense() for a, _ in pairs])
    B = np.array([b.to_dense() for _, b in pairs])
    scale = np.array([a.norm() + b.norm() for a, b in pairs])
    got = sdpmod.ab_certificates(A, B, scale, tol)
    for p, (a, b) in enumerate(pairs):
        alone = sdpmod.ab_certificates(A[p:p + 1], B[p:p + 1], scale[p:p + 1], tol)
        assert _same(_row(got, p), _row(alone, 0))
        y, lower = got[0][p], got[2].lower[p]
        assert math.isnan(y) or _passes_rule(A[p], B[p], y, tol)
        # the two searches read different points of the pencil, so where its
        # best margin lies in the tolerance band [-tol scale, 0) each may
        # certify a pair the other leaves open; outside it they agree
        if not -tol * scale[p] <= lower < 0.0:
            assert math.isnan(y) == (_ref_ab_search(a, b, tol) is None)


def _seeded_pairs():
    """Disk pairs (overlapping, tangent, separate) and random indefinite pairs."""
    rng = np.random.default_rng(29)
    pairs = []
    for k in range(60):
        c = rng.uniform(-1.0, 1.0, 2)
        d = (rng.uniform(0.2, 0.9), 1.0, rng.uniform(1.1, 2.0))[k % 3]
        theta = rng.uniform(0.0, 2.0 * math.pi)
        t = c + d * np.array([math.cos(theta), math.sin(theta)])
        pairs.append((disk_member(tuple(c), 0.5).to_dense(), disk_member(tuple(t), 0.5).to_dense()))
    for _ in range(60):
        n = int(rng.integers(2, 6))
        g, h = rng.standard_normal((2, n, n))
        pairs.append(((g + g.T) / 2.0, (h + h.T) / 2.0))
    return pairs


@pytest.mark.parametrize("tol", [TOL, 1e-3])
def test_uncertified_pairs_have_no_passing_grid_point(tol):
    # every certificate passes the rule, and a pair left without one has no
    # tau = (1 - mu) / mu on 2001 points of (0, 1) that would pass it
    mu = np.linspace(0.0, 1.0, 2001)[1:-1]
    tau = (1.0 - mu) / mu
    certified = 0
    for a, b in _seeded_pairs():
        s = float(np.linalg.norm(a) + np.linalg.norm(b))
        y = sdpmod.ab_certificates(a[None], b[None], np.array([s]), tol)[0][0]
        if not math.isnan(y):
            certified += 1
            assert _passes_rule(a, b, y, tol)
        else:
            lam = np.linalg.eigvalsh(a + tau[:, None, None] * b)[:, 0]
            assert (lam < -tol * np.minimum(1.0, tau) * s).all()
    assert 20 <= certified <= 100


def test_pair_layer_rejects_duplicates_and_keeps_vacuous_sets():
    a, b, _ = ex61_matrices()
    with pytest.raises(ValueError):
        check_condition_B(constraint_set(4, [a, b, a]), TOL)
    assert check_condition_B(constraint_set(4, [a]), TOL).pairs == ()
    assert inclusion_table([a], TOL) == {}


def test_stack_helpers_match_scalar_kernels():
    rng = np.random.default_rng(3)
    for n in (1, 3, 5):
        mats = [SymMat.from_dense((g + g.T) / 2.0)
                for g in rng.standard_normal((4, n, n))]
        packed = packed_stack(mats, n)
        dense = dense_stack(packed, n)
        lmins = lambda_min_stack(dense)
        for i, m in enumerate(mats):
            assert np.array_equal(dense[i], m.to_dense())
            assert repr(float(lmins[i])) == repr(lambda_min(m))
            assert repr(m.norm()) == repr(_ref_norm(m))
    with pytest.raises(ValueError):
        lambda_min_stack(np.full((1, 2, 2), np.nan))


def _psd_border_members(rng, n, tol):
    """Rotated diagonal matrices whose smallest eigenvalue sits within a few
    roundoff steps of is_psd's border -tol max(1, ||x||), on both sides,
    with exact psd, rank-one and negative semidefinite ones."""
    mats = [SymMat.zeros(n), SymMat.identity(n), SymMat.diag([1.0] + [0.0] * (n - 1))]
    w = rng.standard_normal(n)
    mats += [SymMat.from_dense(np.outer(w, w)), SymMat.from_dense(-np.outer(w, w))]
    for k in range(-6, 7):
        u, _ = np.linalg.qr(rng.standard_normal((n, n)))
        d = np.concatenate((rng.uniform(0.5, 3.0, n - 1), [0.0]))
        # the border of this spectrum, the last eigenvalue moving it little
        border = -tol * max(1.0, float(np.linalg.norm(d)))
        d[-1] = border * (1.0 + k * 1e-12)
        mats.append(SymMat.from_dense(u @ np.diag(d) @ u.T))
    return mats


def test_psd_stack_decides_as_scalar_is_psd():
    # one lambda_min_stack call with is_psd's own rule and SymMat.norm: the
    # same decision on every member, borders included
    rng = np.random.default_rng(11)
    seen = set()
    for n in (1, 2, 3, 5):
        for tol in (0.0, 1e-9, 1e-8, 1e-3):
            mats = _psd_border_members(rng, n, tol) if n > 1 else [
                SymMat.diag([v]) for v in (0.0, 1.0, -tol, -tol * (1.0 + 1e-15), -1.0)]
            flags = is_psd_stack(mats, n, tol)
            assert flags.tolist() == [is_psd(m, tol) for m in mats]
            seen.update(flags.tolist())
    assert seen == {True, False}
    with pytest.raises(ValueError):
        is_psd_stack([SymMat.identity(2)], 2, -1.0)
    with pytest.raises(ValueError):
        is_psd_stack([SymMat.diag([1.0, math.nan])], 2, 1e-8)


# --------------------------------------------------------------------------
# properties: member order and positive scaling
# --------------------------------------------------------------------------

def _disk_family(draw):
    centers = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                            min_size=2, max_size=5, unique=True))
    # radii 0.3 and 0.8 keep every pair of integer-centred disks clear of
    # tangency (|t_i - t_j| is never 0.6, 1.1 or 1.6, nor 0.5 for nesting)
    radii = draw(st.lists(st.sampled_from([0.3, 0.8]), min_size=len(centers),
                          max_size=len(centers)))
    return [disk_member(c, r) for c, r in zip(centers, radii)]


def _indefinite_family(draw):
    k = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    members = []
    for _ in range(k):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        d = rng.uniform(0.5, 2.0, 3) * np.array([1.0, -1.0, rng.choice([-1.0, 1.0])])
        members.append(SymMat.from_dense(q @ np.diag(d) @ q.T))
    return members


@st.composite
def _families(draw, build):
    members = build(draw)
    perm = draw(st.permutations(range(len(members))))
    idx = draw(st.integers(0, len(members) - 1))
    factor = draw(st.sampled_from([0.2, 0.5, 3.0, 7.0]))
    return members, perm, idx, factor


def _verdicts(members):
    s = constraint_set(members[0].n, members)
    return ({v.pair: v.status for v in check_condition_B(s, TOL).pairs},
            inclusion_table(s.members, TOL))


def _check_invariance(members, perm, idx, factor):
    pairs, table = _verdicts(members)
    assert not any(is_psd(m, TOL) for m in members)

    permuted_pairs, permuted_table = _verdicts([members[p] for p in perm])
    for (a, b), status in permuted_pairs.items():
        assert status == pairs[tuple(sorted((perm[a], perm[b])))]
    for (a, b), status in permuted_table.items():
        assert status == table[perm[a], perm[b]]

    scaled = list(members)
    scaled[idx] = members[idx].scale(factor)
    assert _verdicts(scaled) == (pairs, table)


PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True,
                             suppress_health_check=[HealthCheck.too_slow])


@PROPERTY_SETTINGS
@given(_families(_disk_family))
def test_disk_families_invariant_under_order_and_scaling(case):
    _check_invariance(*case)


@PROPERTY_SETTINGS
@given(_families(_indefinite_family))
def test_indefinite_families_invariant_under_order_and_scaling(case):
    _check_invariance(*case)


# --------------------------------------------------------------------------
# property: simultaneous orthogonal congruence
# --------------------------------------------------------------------------

def _turn(draw, members):
    """The members under one orthogonal congruence Q' M Q drawn from a seed."""
    n = members[0].n
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return [SymMat.from_dense(q.T @ m.to_dense() @ q) for m in members]


@st.composite
def _turned_disk_pairs(draw):
    pairs = draw(_disk_pair_stacks())
    return [(pair, _turn(draw, pair)) for pair in pairs]


@st.composite
def _turned_families(draw):
    members = _indefinite_family(draw)
    return members, _turn(draw, members)


@PROPERTY_SETTINGS
@given(_turned_disk_pairs())
def test_disk_pair_statuses_invariant_under_congruence(cases):
    # apart, tangent and overlapping disks, each pair under its own rotation
    for (a, b), (ta, tb) in cases:
        assert check_pair_B(a, b, TOL).status == check_pair_B(ta, tb, TOL).status


@PROPERTY_SETTINGS
@given(_turned_families())
def test_indefinite_pair_statuses_invariant_under_congruence(case):
    members, turned = case
    assert _verdicts(members)[0] == _verdicts(turned)[0]


@st.composite
def _turned_disk_families(draw):
    members = _disk_family(draw)
    return members, _turn(draw, members)


@PROPERTY_SETTINGS
@given(st.one_of(_turned_disk_families(), _turned_families()))
def test_inclusion_statuses_invariant_under_congruence(case):
    # the probes (I/n and each member's extreme eigenvectors) and the pencil
    # follow a simultaneous orthogonal congruence of the members
    members, turned = case
    assert inclusion_table(members, TOL) == inclusion_table(turned, TOL)
