"""The closed-form slice infimum behind condition (C)'.

The reference below is the corner SDP min <B,X> s.t. X_nn = 1, X psd that
(C)' used to solve per member, together with the rule that turned its
status into a verdict, including the grid-search fallback for stalled
solves (grid_negative_point, the numeric witness search (C)' used before
the witness came in closed form).  It is kept here only to check
slice_infimum against it.
"""
import math
import os
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from exactsdp import docio
from exactsdp.certify import (CERTIFIED, INCONCLUSIVE, REFUTED, ConditionBReport,
                              _slice_values, check_Bprime_Cprime, slice_infimum)
from exactsdp.gallery import build_case, list_cases
from exactsdp.model import GeoCop, constraint_set, normalize
from exactsdp.sdp import SdpProblem, solve
from exactsdp.symmat import SymMat

TOL = 1e-8
EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "examples")


def corner_solve(b: SymMat):
    """min <B,X> s.t. X_nn = 1, X psd: an SDP with no inequality rows."""
    e = np.zeros((b.n, b.n))
    e[-1, -1] = 1.0
    return solve(SdpProblem(b, SymMat.from_dense(e)), tol=min(TOL, 1e-9))


def grid_candidates(d: int, half: float, per_axis: int):
    axes = [np.linspace(-half, half, per_axis)] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def polish_point(u0, f, steps: int = 60):
    """Descend on f from u0 by central-difference gradient steps; f maps an
    (m, d) stack of points to their m values."""
    u = np.array(u0, dtype=float)
    fu = f(u[None, :])[0]
    h = 1e-5
    d = u.size
    stencil = h * np.eye(d)
    step = 0.25 * max(1.0, float(np.linalg.norm(u)))
    for _ in range(steps):
        fs = f(np.concatenate([u + stencil, u - stencil]))
        g = (fs[:d] - fs[d:]) / (2 * h)
        gn = float(np.linalg.norm(g))
        if gn == 0.0:
            break
        cand = u - step * g / gn
        fc = f(cand[None, :])[0]
        if fc < fu:
            u, fu = cand, fc
            step *= 1.3
        else:
            step *= 0.5
            if step < 1e-12:
                break
    return u


def grid_negative_point(b: SymMat, tol: float):
    """Numeric u with q(u, 1, B) < -tol, or None: grid, then descent.  The
    grid has per_axis ** (n - 1) points, so keep n small."""
    d = b.n - 1
    per_axis = 41 if d <= 2 else 13
    for half in (1.0, 2.0, 4.0, 8.0, 16.0, 64.0):
        pts = grid_candidates(d, half, per_axis)
        vals = _slice_values(b, pts)
        k = int(np.argmin(vals))
        if vals[k] < -tol:
            u = polish_point(pts[k], lambda x: _slice_values(b, x))
            return tuple(float(v) for v in u)
    return None


def corner_status(b: SymMat, sol) -> str:
    scale = max(1.0, b.norm())
    if sol.status == "unbounded" or (sol.status == "optimal" and sol.value <= -10 * TOL * scale):
        return CERTIFIED
    if sol.status == "optimal" and sol.value >= -TOL * scale:
        return REFUTED
    point = grid_negative_point(b, TOL)
    if point is not None:
        q = float(_slice_values(b, np.asarray(point)[None, :])[0])
        if q <= -10 * TOL * scale:
            return CERTIFIED
    return INCONCLUSIVE


def fixture_members():
    sets = []
    for case_id in list_cases():
        case = build_case(case_id)
        for prob in (case.problem, getattr(case, "reference", None)):
            if prob is not None:
                sets.append(prob.bset if isinstance(prob, GeoCop) else prob)
    for name in sorted(os.listdir(EXAMPLES)):
        with open(os.path.join(EXAMPLES, name), "rb") as fh:
            sets.append(docio.parse_problem(fh.read())[0].bset)
    members = []
    for s in sets:
        members += list(s.members) + list(normalize(s).members)
    return [m for m in members if m.n >= 2]


def test_matches_corner_sdp_on_every_fixture_member():
    members = fixture_members()
    assert len(members) >= 100
    seen = set()
    for b in members:
        sol = corner_solve(b)
        seen.add(sol.status)
        value, _ = slice_infimum(b, TOL)
        scale = max(1.0, b.norm())
        verdict = check_Bprime_Cprime(constraint_set(b.n, [b]), TOL).c_prime_members[0]
        assert verdict.status == corner_status(b, sol)
        assert verdict.value == value
        if sol.status == "optimal":
            assert abs(value - sol.value) <= 1e-7 * scale
        elif sol.status == "unbounded":
            assert value == -math.inf
    assert {"optimal", "unbounded"} <= seen


def test_certified_members_get_closed_form_witness():
    certified = 0
    for b in fixture_members():
        verdict = check_Bprime_Cprime(constraint_set(b.n, [b]), TOL).c_prime_members[0]
        if verdict.status != CERTIFIED:
            assert verdict.witness_point is None
            continue
        certified += 1
        assert verdict.witness_point is not None
        x = np.append(np.asarray(verdict.witness_point), 1.0)
        q = float(x @ b.to_dense() @ x)
        assert q < -TOL
        if math.isfinite(verdict.value):
            assert abs(q - verdict.value) <= 1e-9 * max(1.0, b.norm())
    assert certified >= 100


def test_witness_in_twelve_dimensions_needs_no_grid():
    # a grid search over the 11-dimensional slice would need 13**11 points
    b = SymMat.from_dense(np.diag([-1.0] + [1.0] * 11))
    start = time.perf_counter()
    verdict = check_Bprime_Cprime(constraint_set(12, [b]), TOL).c_prime_members[0]
    assert time.perf_counter() - start < 1.0
    assert verdict.status == CERTIFIED and verdict.value == -math.inf
    x = np.append(np.asarray(verdict.witness_point), 1.0)
    assert float(x @ b.to_dense() @ x) < -TOL


def test_parabola_member_is_unbounded_below():
    # q(u, 1) = u2^2 - u1: P = diag(0, 1) is singular and c leaves its range
    b = SymMat.from_dense([[0.0, 0.0, -0.5], [0.0, 1.0, 0.0], [-0.5, 0.0, 0.0]])
    assert slice_infimum(b, TOL)[0] == -math.inf
    verdict = check_Bprime_Cprime(constraint_set(3, [b]), TOL).c_prime_members[0]
    assert verdict.status == CERTIFIED and verdict.value == -math.inf
    u = np.asarray(verdict.witness_point)
    assert float(_slice_values(b, u[None, :])[0]) < 0.0


def test_singular_psd_block_with_c_in_range_is_finite():
    # P = R diag(2, 0) R^T, c = P v, s = v'Pv + 1: the infimum is exactly 1
    t = 0.3
    rot = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    p = rot @ np.diag([2.0, 0.0]) @ rot.T
    v = np.array([0.7, -1.1])
    c = p @ v
    a = np.zeros((3, 3))
    a[:2, :2] = p
    a[:2, 2] = a[2, :2] = c
    a[2, 2] = float(v @ p @ v) + 1.0
    b = SymMat.from_dense(a)
    assert abs(slice_infimum(b, TOL)[0] - 1.0) <= 1e-12
    assert check_Bprime_Cprime(constraint_set(3, [b]), TOL).c_prime_members[0].status == REFUTED


def test_identity_is_refuted():
    b = SymMat.identity(3)
    assert slice_infimum(b, TOL)[0] == 1.0
    assert check_Bprime_Cprime(constraint_set(3, [b]), TOL).c_prime_members[0].status == REFUTED


def _seeded_members():
    """Random members of S^2..S^8, with psd, singular and zero blocks among
    them, so every branch of the closed form and flat eigenvalues occur."""
    rng = np.random.default_rng(11)
    members = []
    for k in range(240):
        n = int(rng.integers(2, 9))
        g = rng.standard_normal((n, n))
        a = (g + g.T) / 2.0
        kind = k % 5
        if kind in (1, 2):
            r = n - 1 if kind == 1 else int(rng.integers(1, n))
            f = rng.standard_normal((n - 1, r))
            a[:-1, :-1] = f @ f.T
            if kind == 2 and k % 2:
                a[:-1, -1] = a[-1, :-1] = f @ rng.standard_normal(r)
        elif kind == 3:
            a[:-1, :-1] = 0.0
        members.append(SymMat.from_dense(a))
    return members


@pytest.mark.parametrize("tol", [TOL, 1e-3])
def test_stacked_c_prime_is_bitwise_the_one_member_call(tol):
    # the (C)' layer takes one stacked eigh over a set's members; each value
    # and witness point is bitwise what slice_infimum gives for its member
    # alone (repr tells -0.0 from 0.0)
    by_n = {}
    for b in fixture_members() + _seeded_members():
        by_n.setdefault(b.n, []).append(b)
    nothing = ConditionBReport(status=CERTIFIED, pairs=())
    for n, members in by_n.items():
        rep = check_Bprime_Cprime(constraint_set(n, members), tol, condition_b=nothing)
        for b, verdict in zip(members, rep.c_prime_members):
            value, point = slice_infimum(b, tol)
            assert repr(verdict.value) == repr(value)
            assert repr(verdict.witness_point) == repr(point if verdict.status == CERTIFIED
                                                       else None)


def test_rejects_dimension_one():
    with pytest.raises(ValueError):
        slice_infimum(SymMat.identity(1), TOL)


# --------------------------------------------------------------------------
# invariance properties
# --------------------------------------------------------------------------

_entry = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


@st.composite
def _member(draw):
    """A member whose P block is well away from singular."""
    n = draw(st.integers(2, 4))
    a = np.array(draw(st.lists(_entry, min_size=n * n, max_size=n * n))).reshape(n, n)
    a = (a + a.T) / 2.0
    assume(np.abs(np.linalg.eigvalsh(a[:-1, :-1])).min() >= 0.05)
    return SymMat.from_dense(a)


@st.composite
def _affine(draw, n):
    """M = [[L, t], [0, 1]] with the singular values of L at least 0.2."""
    d = n - 1
    lmat = np.array(draw(st.lists(_entry, min_size=d * d, max_size=d * d))).reshape(d, d)
    assume(np.linalg.svd(lmat, compute_uv=False).min() >= 0.2)
    m = np.eye(n)
    m[:d, :d] = lmat
    m[:d, d] = draw(st.lists(_entry, min_size=d, max_size=d))
    return m


PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                             suppress_health_check=[HealthCheck.filter_too_much])


def _close(x, y, scale):
    if math.isinf(x) or math.isinf(y):
        return x == y
    return abs(x - y) <= 1e-7 * scale


@PROPERTY_SETTINGS
@given(st.data())
def test_invariant_under_affine_change_of_slice_variable(data):
    # q(u, 1, M'BM) = q(Lu + t, 1, B), so both have the same infimum
    b = data.draw(_member())
    m = data.draw(_affine(b.n))
    moved = SymMat.from_dense(m.T @ b.to_dense() @ m)
    v, w = slice_infimum(b, TOL)[0], slice_infimum(moved, TOL)[0]
    assert _close(v, w, max(1.0, b.norm(), moved.norm(), abs(v)))


@PROPERTY_SETTINGS
@given(_member(), st.floats(0.01, 100.0))
def test_scales_with_positive_factor(b, kappa):
    v, w = slice_infimum(b, TOL)[0], slice_infimum(b.scale(kappa), TOL)[0]
    assert _close(kappa * v, w, kappa * max(1.0, b.norm(), abs(v)))
