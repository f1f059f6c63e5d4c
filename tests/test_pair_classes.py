"""Pair classes of the condition-(B) layer: translates share one search.

check_condition_B keys each pair by both members translated to the first
member's centre and scaled by their block norms, searches one pair per
class, and checks every other pair on its own matrices.  The properties
below draw lattice families (disks and balls with equal and mixed radii,
tangent and overlapping pairs, hyperbola members, a parabola member with a
singular block, a half-space with none, scaled copies of a member) and
compare every verdict with the one-pair search of check_pair_B.
"""
import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from exactsdp import certify
from exactsdp import sdp as sdpmod
from exactsdp.certify import CERTIFIED, check_condition_B, check_pair_B
from exactsdp.gallery import ball_family, disk_member, ex61_matrices
from exactsdp.model import build_family, constraint_set, normalize
from exactsdp.symmat import SymMat

TOL = 1e-8


def _moved(m: np.ndarray, t) -> np.ndarray:
    """The member q(u - t z, z): the congruence S'MS, S = [[I, -t], [0, 1]]."""
    s = np.eye(len(m))
    s[:-1, -1] = -np.asarray(t, dtype=float)
    return s.T @ m @ s


def _hyperbola(a0: float, a1: float, r2: float) -> np.ndarray:
    """(u2 - a0 u1)(u2 - a1 u1) + r2 z^2: an indefinite, nonsingular block."""
    return np.array([[a0 * a1, -(a0 + a1) / 2.0, 0.0],
                     [-(a0 + a1) / 2.0, 1.0, 0.0],
                     [0.0, 0.0, r2]])


def _parabola(n: int) -> np.ndarray:
    """-u1 z + sum_{i > 1} u_i^2 + z^2: the block has no u1 u1 entry."""
    m = np.diag([0.0] + [1.0] * (n - 2) + [1.0])
    m[0, -1] = m[-1, 0] = -0.5
    return m


def _half_space(n: int) -> np.ndarray:
    """u1 z - z^2: no quadratic block at all."""
    m = np.zeros((n, n))
    m[0, -1] = m[-1, 0] = 0.5
    m[-1, -1] = -1.0
    return m


@st.composite
def lattice_families(draw):
    """Members placed on integer lattice points: disks (n = 3) or balls
    (n = 4) of radius 1/2 (tangent neighbours) or 0.6 (overlapping ones),
    hyperbolas (n = 3), and optionally a parabola, a scaled copy and a
    half-space."""
    n = draw(st.sampled_from([3, 4]))
    box = st.tuples(*[st.integers(-2, 2)] * (n - 1))
    centres = draw(st.lists(box, min_size=2, max_size=9, unique=True))
    shapes = [disk_member((0.0,) * (n - 1), r).to_dense() for r in (0.5, 0.6)]
    if n == 3:
        shapes.append(_hyperbola(0.0, 1.0, 0.5))
    mixed = draw(st.booleans())
    members = [_moved(shapes[draw(st.integers(0, len(shapes) - 1)) if mixed else 0], t)
               for t in centres]
    if draw(st.booleans()):
        members.insert(draw(st.integers(0, len(members))),
                       _moved(_parabola(n), draw(box)))
    if draw(st.booleans()):
        members.append(draw(st.sampled_from([0.5, 3.0])) * members[0])
    if draw(st.booleans()):
        members.append(_moved(_half_space(n), draw(box)))
    return n, members


def _set(n, members):
    return constraint_set(n, [SymMat.from_dense(m) for m in members])


def _passes_rule(a, b, y, tol):
    """numpy's eigvalsh recheck of lambda_min(A + yB) >= -tol min(1, y) scale."""
    scale = np.linalg.norm(a) + np.linalg.norm(b)
    return y > 0.0 and np.linalg.eigvalsh(a + y * b)[0] >= -tol * min(1.0, y) * scale


PROPERTY = settings(max_examples=30, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


@PROPERTY
@given(lattice_families())
def test_class_verdicts_match_one_pair_searches(family):
    n, members = family
    s = _set(n, members)
    rep = check_condition_B(s, TOL)
    for v in rep.pairs:
        a, b = (s.members[k] for k in v.pair)
        alone = check_pair_B(a, b, TOL)
        assert v.status == alone.status, v.pair
        if v.certificate is None:
            # an uncertified pair took its own search: the same bounds
            assert repr(v.margin) == repr(alone.margin)
        else:
            alpha, y = v.certificate
            ad, bd = a.to_dense(), b.to_dense()
            assert alpha == 1.0 and _passes_rule(ad, bd, y, TOL), v.pair
            lam = np.linalg.eigvalsh(ad + y * bd)[0]
            assert abs(v.margin - lam / max(1.0, a.norm() + b.norm())) <= 1e-12


@PROPERTY
@given(lattice_families(), st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)),
       st.sampled_from([0.25, 2.0, 5.0]))
def test_class_statuses_invariant_under_translation_and_scaling(family, shift, factor):
    n, members = family
    t = np.array(shift[:n - 1]) / 2.0
    statuses = [v.status for v in check_condition_B(_set(n, members), TOL).pairs]
    moved = [factor * _moved(m, t) for m in members]
    assert [v.status for v in check_condition_B(_set(n, moved), TOL).pairs] == statuses


def _count_questions(monkeypatch):
    asked = []
    original = sdpmod.ab_certificates

    def counting(A, B, scale, tol=sdpmod.DEFAULT_TOL):
        asked.append(len(A))
        return original(A, B, scale, tol)

    monkeypatch.setattr(sdpmod, "ab_certificates", counting)
    return asked


def test_disk_grid_asks_one_question_per_class(monkeypatch):
    # the 25 disks of Example 6.2: 300 pairs in 40 translation classes, all
    # certified, so the first pair of each class is the only question
    s = normalize(build_family(ball_family(), 3))
    asked = _count_questions(monkeypatch)
    rep = check_condition_B(s, TOL)
    assert len(rep.pairs) == 300 and rep.status == CERTIFIED
    assert asked == [40]


def test_one_pair_set_builds_no_keys(monkeypatch):
    def refuse(*args):
        raise AssertionError("a set with one pair has nothing to share")

    monkeypatch.setattr(certify, "_translation_classes", refuse)
    a, b, _ = ex61_matrices()
    assert check_condition_B(constraint_set(4, [a, b]), TOL).pairs[0].status == \
        check_pair_B(a, b, TOL).status


def test_refuted_class_takes_the_full_search(monkeypatch):
    # nine overlapping disks: every class whose first pair is refuted sends
    # its other pairs to their own searches, whose witnesses they report
    s = normalize(build_family(ball_family(box=((-1, 1), (-1, 1)), radius=0.6), 3))
    asked = _count_questions(monkeypatch)
    rep = check_condition_B(s, TOL)
    assert len(asked) == 2 and sum(asked) <= len(rep.pairs)
    for v in rep.pairs:
        alone = check_pair_B(*(s.members[k] for k in v.pair), TOL)
        assert v.status == alone.status
        if v.witness is not None:
            assert v.witness == alone.witness


def test_the_check_decides_when_a_class_holds_unlike_pairs(monkeypatch):
    # put every pair in the class of the first, a certified pair: its y
    # passes on some pairs and fails on the overlapping ones, which must
    # take their own search and stay refuted
    def one_class(dense, ia, ib):
        return np.zeros(len(ia), dtype=int), np.array([0]), np.ones(len(ia))

    centres = [(0, 0), (3, 0), (1, 0), (1, 1), (0, 2), (2, 2)]
    s = _set(3, [_moved(disk_member((0.0, 0.0), 0.6).to_dense(), t) for t in centres]
             + [_moved(_hyperbola(0.0, 1.0, 0.5), (1, -1))])
    expected = check_condition_B(s, TOL)
    monkeypatch.setattr(certify, "_translation_classes", one_class)
    rep = check_condition_B(s, TOL)
    assert expected.pairs[0].status == CERTIFIED
    assert {v.status for v in expected.pairs} >= {CERTIFIED, "refuted"}
    for v, want in zip(rep.pairs, expected.pairs):
        assert v.status == want.status, v.pair
        if v.certificate is not None:
            a, b = (s.members[k].to_dense() for k in v.pair)
            assert _passes_rule(a, b, v.certificate[1], TOL)
