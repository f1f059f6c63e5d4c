"""Dense primal-dual interior-point SDP solver.

Solves min <C,X> + c.w  s.t.  linear rows on (X, w),  X psd,  w >= 0
through a homogeneous self-dual embedding with Nesterov-Todd scaling and a
Mehrotra predictor-corrector, which yields infeasibility/unboundedness
certificates as a by-product.  Also hosts the (alpha, beta) pair-certificate
search, a golden section over the concave 1-D function that runs for a whole
stack of pairs at once, and the small auxiliary SDP formulations used by the
certification and reduction stages.

Every SDP is solved densely.  It has n >= 1 and at least one row
(SdpProblem refuses a problem without rows); the w block may be empty, and
numpy's zero-size arrays carry that case through the same code path as
every other, with no branch on a dimension.

The rows are flattened to an (m, n*n) matrix and scaled once per solve,
with the objective stacked below them, so one matrix-vector product gives
A(X,w) and <C,X> + c.w together.  Each iteration applies A, A^T and b once
to the iterate and derives the optimality metrics, the Farkas tests and the
embedding residuals from those products.  The Schur complement
M_ij = <A_i, W A_j W> is one batched W A_j W and one GEMM over the
flattened rows (the dense formula of Fujisawa, Kojima & Nakata 1997), so
its cost is BLAS time, not Python calls, and n = 30 with m = 60 takes a few
milliseconds per iteration.

The tau pivot.  Eliminating dy from the Newton system leaves one scalar
equation for dtau, with pivot t1 - q_cc - kappa/tau where
t1 - q_cc = (k_c - b)' M^-1 (k_c + b) - q_cc
          = -(q_cc - k_c' M^-1 k_c) - b' M^-1 b.
The first term is minus a squared distance (of the scaled C from the span of
the scaled rows) and the second is minus a norm in M^-1, so t1 - q_cc <= 0
in exact arithmetic.  Late in a run t1 and q_cc both grow to 1e9-1e12, and
their computed difference can come out >= 0 from roundoff alone; dividing
by it throws tau far off its path.  A computed t1 - q_cc >= 0 therefore
holds tau for that step (dtau = 0, the fixed-tau infeasible direction),
which needs no threshold.  A direction that is not finite ends the solve as
"numerical" with the best iterate.

The pair search takes one stacked eigenvalue call per golden-section step
for all pairs together, so its per-call overhead grows with the number of
steps, not with the number of pairs times steps.  A pair leaves the search
at its first positive-definite probe when a snapped certificate there is
positive definite, and the stacks shrink to the pairs still searching, so a
family whose pairs are clearly certified pays a few calls, not 77.  The
margin reported with a certificate is that certificate's, not the best one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import GeoCop
from .symmat import SymMat, dense_stack, lambda_min_stack, packed_stack

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 200
_INF_CERT_TOL = 1e-6
_STEP_FRACTION = 0.99


@dataclass(frozen=True)
class SdpProblem:
    n: int
    objective: SymMat
    eq_constraints: tuple = ()    # of (SymMat, rhs)
    ineq_constraints: tuple = ()  # of (SymMat, sense in {">=", "<="}, rhs)

    def __post_init__(self):
        if self.objective.n != self.n:
            raise ValueError("objective dimension mismatch")
        if not self.eq_constraints and not self.ineq_constraints:
            raise ValueError("an SDP needs at least one constraint row")
        for m, rhs in self.eq_constraints:
            if m.n != self.n or not math.isfinite(rhs):
                raise ValueError("bad equality constraint")
        for m, sense, rhs in self.ineq_constraints:
            if m.n != self.n or sense not in (">=", "<=") or not math.isfinite(rhs):
                raise ValueError("bad inequality constraint")


@dataclass
class SdpSolution:
    status: str                      # optimal | infeasible | unbounded | max_iter | numerical
    X: Optional[SymMat]
    dual_eq: np.ndarray
    dual_ineq: np.ndarray
    value: float
    residuals: tuple                 # (primal, dual, gap)
    dual_value: float = math.nan
    iterations: int = 0
    certificate: Optional[dict] = None
    mu_history: tuple = ()
    slack: Optional[np.ndarray] = None  # the w >= 0 block (slacks of ">=" rows)


# --------------------------------------------------------------------------
# homogeneous self-dual conic core
# --------------------------------------------------------------------------

@dataclass
class _ConicData:
    """min <Cm,X> + cw.w over rows <Am_i,X> + aw_i.w = b_i, X psd(n), w >= 0."""

    n: int
    p: int
    Cm: np.ndarray          # (n, n) dense symmetric
    cw: np.ndarray          # (p,)
    Am: np.ndarray          # (m, n, n)
    Aw: np.ndarray          # (m, p)
    b: np.ndarray           # (m,)


def _sym(a):
    return (a + a.T) / 2.0


class _Point:
    __slots__ = ("X", "w", "y", "S", "z", "tau", "kappa")

    def __init__(self, n, p, m):
        self.X = np.eye(n)
        self.w = np.ones(p)
        self.y = np.zeros(m)
        self.S = np.eye(n)
        self.z = np.ones(p)
        self.tau = 1.0
        self.kappa = 1.0


def _pair_norm(mat, vec):
    flat = mat.ravel()
    return math.sqrt(float(flat @ flat) + float(vec @ vec))


def _chol_or_sqrt(X):
    try:
        return np.linalg.cholesky(X)
    except np.linalg.LinAlgError:
        d, V = np.linalg.eigh(_sym(X))
        floor = max(float(d.max()), 1.0) * 1e-14
        return V * np.sqrt(np.maximum(d, floor))


def _nt_scaling(X, S):
    """Factor G with G^-1 X G^-T = G^T S G = diag(sigma).

    Raises LinAlgError when L1' S L1 (L1 L1' = X) has a computed eigenvalue
    <= 0: the iterate has left the interior in floating point, and G, which
    scales by its eigenvalues ** -1/4, would overflow the next direction."""
    L1 = _chol_or_sqrt(X)
    Msym = _sym(L1.T @ S @ L1)
    d, V = np.linalg.eigh(Msym)
    if not d[0] > 0.0:
        raise np.linalg.LinAlgError("NT scaling of an iterate outside the interior")
    G = (L1 @ V) * d ** -0.25
    Ginv = (d ** 0.25)[:, None] * (V.T @ np.linalg.inv(L1))
    sigma = np.sqrt(d)
    return G, Ginv, sigma


def _step_to_boundary(pt, sigma, dXs, dw, dSs, dz, dtau, dkappa):
    """Largest step along the direction that keeps every cone block closed;
    NaN when the direction is not finite.

    dXs = G^-1 dX G^-T and dSs = G^T dS G are the psd blocks in the scaled
    space, where the iterate is diag(sigma) in both, so one stacked eigvalsh
    prices both.  Every block v + a dv stays in its cone up to a = 1 / r,
    with r = -lambda_min(sigma^-1/2 dv sigma^-1/2) for a psd block and
    r = max(-dv / v) for the nonnegative ones (v > 0 in the interior)."""
    scale = 1.0 / np.sqrt(sigma)
    E = np.stack((dXs, dSs)) * (scale[:, None] * scale[None, :])
    try:
        lmin = np.linalg.eigvalsh((E + E.transpose(0, 2, 1)) / 2.0)[:, 0]
    except np.linalg.LinAlgError:  # LAPACK may refuse a non-finite matrix
        return math.nan
    rate = float(np.concatenate((-lmin, -dw / pt.w, -dz / pt.z,
                                 (-dtau / pt.tau, -dkappa / pt.kappa))).max())
    if not math.isfinite(rate):
        return math.nan
    return math.inf if rate <= 0.0 else 1.0 / rate


def _schur_complement(W, Am, Aw, D):
    """M_ij = <A_i, W A_j W> + sum_k Aw_ik D_k Aw_jk for a (m, n, n) row stack:
    one batched W A_j W and one GEMM over the flattened rows."""
    A2 = Am.reshape(len(Am), -1)
    return (W @ Am @ W).reshape(A2.shape) @ A2.T + (Aw * D) @ Aw.T


def _conic_solve(d: _ConicData, n_eq: int, tol: float = DEFAULT_TOL,
                 max_iter: int = DEFAULT_MAX_ITER) -> SdpSolution:
    """Solve the conic data; multipliers of the first n_eq rows are reported
    as dual_eq and the rest as dual_ineq.  n >= 1 and at least one row; the
    w block may be empty (p = 0).

    A run cut by max_iter or ended as "numerical" reports the best iterate
    seen, the one with the smallest max(pres, dres, gap); an iterate within
    tol ends the run as "optimal" where it is reached.  "infeasible" and
    "unbounded" report the current iterate, whose products are the
    certificate.  Raises ValueError for max_iter < 1."""
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    n, p, m = d.n, d.p, len(d.b)
    nu = n + p

    # row/objective scaling for conditioning, on the flattened rows; undone
    # on exit
    A2 = d.Am.reshape(m, n * n)
    rho = np.maximum(np.sqrt((A2 * A2).sum(axis=1) + (d.Aw * d.Aw).sum(axis=1)), 1e-12)
    A2 = A2 / rho[:, None]
    Aw = d.Aw / rho[:, None]
    b = d.b / rho
    rho_c = max(1.0, _pair_norm(d.Cm, d.cw))
    Cm = d.Cm / rho_c
    cw = d.cw / rho_c
    Am = A2.reshape(m, n, n)
    # the objective rides below the rows: one product gives A(X,w) and
    # <C,X> + c.w together
    AC = np.vstack([A2, Cm.reshape(1, n * n)])
    AwC = np.vstack([Aw, cw[None, :]])

    def apply_AC(X, w):
        r = AC @ X.ravel() + AwC @ w
        return r[:m], float(r[m])

    pt = _Point(n, p, m)
    norm_b = float(np.linalg.norm(b))
    norm_c = _pair_norm(Cm, cw)
    mu0 = (n + p + 1.0) / (nu + 1.0)
    mu_hist = []
    # the best iterate: its metrics and references to its blocks, which every
    # step rebinds and none changes in place
    best = None
    best_metric = math.inf
    since_best = 0
    status = "max_iter"

    def state():
        """The metrics (pres, dres, gap, pobj, dobj) of the iterate divided by
        tau, the products A(X,w), <C,X> + c.w, A^T y and b.y, and the
        embedding residuals (Rp, Rd_m, Rd_w, Rg): each operator applied once."""
        AX, cx = apply_AC(pt.X, pt.w)
        Aty_m, Aty_w, by = (pt.y @ A2).reshape(n, n), pt.y @ Aw, float(b @ pt.y)
        Rp = AX - b * pt.tau
        Rd_m = Aty_m + pt.S - Cm * pt.tau
        Rd_w = Aty_w + pt.z - cw * pt.tau
        pres = math.sqrt(float(Rp @ Rp)) / pt.tau / (1.0 + norm_b)
        dres = _pair_norm(Rd_m, Rd_w) / pt.tau / (1.0 + norm_c)
        pobj, dobj = cx / pt.tau, by / pt.tau
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        return ((pres, dres, gap, pobj, dobj), (AX, cx, Aty_m, Aty_w, by),
                (Rp, Rd_m, Rd_w, cx - by + pt.kappa))

    for it in range(1, max_iter + 1):
        comp = float(pt.X.ravel() @ pt.S.ravel()) + float(pt.w @ pt.z) + pt.tau * pt.kappa
        mu = comp / (nu + 1.0)
        mu_hist.append(mu)

        metrics, (AX, cx, Aty_m, Aty_w, by), (Rp, Rd_m, Rd_w, Rg) = state()
        pres, dresr, gap = metrics[:3]
        metric = max(pres, dresr, gap)
        if metric < best_metric:
            best_metric = metric
            best = (metrics, pt.X, pt.w, pt.y, pt.S, pt.z, pt.tau, pt.kappa)
            since_best = 0
        else:
            since_best += 1
        if pres <= tol and dresr <= tol and gap <= tol:
            status = "optimal"
            break

        # Farkas-type certificate checks (homogeneous embedding by-product);
        # these must run before stall detection: on infeasible or unbounded
        # instances the optimality metrics never improve
        if by > 1e-10 and _pair_norm(Aty_m + pt.S, Aty_w + pt.z) <= _INF_CERT_TOL * by:
            status = "infeasible"
            break
        if cx < -1e-10 and math.sqrt(float(AX @ AX)) <= _INF_CERT_TOL * (-cx):
            status = "unbounded"
            break

        if comp <= 0.0 or mu <= 1e-17 * max(mu0, 1.0) or since_best >= 12:
            # past the attainable accuracy for this instance; best iterate wins
            status = "numerical"
            break

        try:
            G, Ginv, sigma = _nt_scaling(pt.X, pt.S)
        except np.linalg.LinAlgError:
            status = "numerical"
            break
        W = G @ G.T
        D = pt.w / pt.z

        M = _schur_complement(W, Am, Aw, D)  # shared by predictor and corrector
        # eigh of M scaled to unit diagonal (a zero diagonal entry has a zero
        # row): late in a run diag M spans about 1e10, and a cut relative to
        # lambda_max(M) would drop the small rows
        dm = np.diag(M)
        ds = np.where(dm > 0.0, dm, 1.0) ** -0.5
        Ms = _sym(M * np.outer(ds, ds))
        try:
            evals, evecs = np.linalg.eigh(Ms)
        except np.linalg.LinAlgError:
            status = "numerical"
            break
        cut = float(evals.max()) * 1e-14 + 1e-300
        inv_e = np.where(evals > cut, 1.0 / np.maximum(evals, cut), 0.0)

        def msolve(r):
            rs = ds * r
            sol = evecs @ (inv_e * (evecs.T @ rs))
            sol = sol + evecs @ (inv_e * (evecs.T @ (rs - Ms @ sol)))
            return ds * sol

        k_c, q_cc = apply_AC(W @ Cm @ W, D * cw)
        g2, q2 = apply_AC(W @ Rd_m @ W, D * Rd_w)
        u2 = msolve(k_c + b)
        kb = k_c - b
        # the tau pivot t1 - q_cc equals -(q_cc - k_c'M^-1 k_c) - b'M^-1 b,
        # negative in exact arithmetic; late in a run both terms are large
        # and a computed pivot >= 0 is roundoff, so tau is held for the step
        pivot = float(kb @ u2) - q_cc
        hold_tau = pivot >= 0.0
        denom = pivot - pt.kappa / pt.tau
        # Psi = 2 Rc / (sigma_i + sigma_j): Rc is per direction, the divisor is not
        psi_scale = 2.0 / (sigma[:, None] + sigma[None, :])
        sigma_sq = sigma * sigma
        wz = pt.w * pt.z
        tk = pt.tau * pt.kappa

        def direction(sig_c, corr):
            """corr = None (predictor) or scaled affine products (corrector)."""
            one_ms = 1.0 - sig_c
            Rc = np.diag(sig_c * mu - sigma_sq)
            rc_w = sig_c * mu - wz
            rc_tau = sig_c * mu - tk
            if corr is not None:
                Rc = Rc - corr[0]
                rc_w = rc_w - corr[1]
                rc_tau = rc_tau - corr[2]
            GPsiG = G @ (Rc * psi_scale) @ G.T
            gw = rc_w / pt.z

            g1, q1 = apply_AC(GPsiG, gw)
            u1 = msolve(-g1 - one_ms * (g2 + Rp))
            dtau = 0.0 if hold_tau else (
                (-one_ms * Rg - q1 - one_ms * q2 - rc_tau / pt.tau - float(kb @ u1)) / denom)
            dy = u1 + dtau * u2
            dS = _sym(-one_ms * Rd_m + Cm * dtau - (dy @ A2).reshape(n, n))
            dX = _sym(GPsiG - W @ dS @ W)
            dz = -one_ms * Rd_w + cw * dtau - dy @ Aw
            dw = gw - D * dz
            dkappa = (rc_tau - pt.kappa * dtau) / pt.tau
            return dX, dw, dy, dS, dz, dtau, dkappa

        # predictor
        dXa, dwa, _, dSa, dza, dta, dka = direction(0.0, None)
        dXs, dSs = Ginv @ dXa @ Ginv.T, G.T @ dSa @ G
        alpha_aff = _step_to_boundary(pt, sigma, dXs, dwa, dSs, dza, dta, dka)
        if math.isnan(alpha_aff):
            status = "numerical"
            break
        alpha_aff = min(alpha_aff, 1.0)
        comp_aff = (float((pt.X + alpha_aff * dXa).ravel() @ (pt.S + alpha_aff * dSa).ravel())
                    + float((pt.w + alpha_aff * dwa) @ (pt.z + alpha_aff * dza))
                    + (pt.tau + alpha_aff * dta) * (pt.kappa + alpha_aff * dka))
        sig_c = min(max((max(comp_aff, 0.0) / comp) ** 3, 1e-12), 0.999)

        # corrector
        dX, dw, dy, dS, dz, dtau, dkappa = direction(
            sig_c, (_sym(dXs @ dSs), dwa * dza, dta * dka))
        alpha = _step_to_boundary(pt, sigma, Ginv @ dX @ Ginv.T, dw, G.T @ dS @ G, dz,
                                  dtau, dkappa)
        alpha = min(_STEP_FRACTION * alpha, 1.0)
        if not math.isfinite(alpha) or alpha <= 1e-10:
            status = "numerical"
            break

        pt.X = _sym(pt.X + alpha * dX)
        pt.S = _sym(pt.S + alpha * dS)
        pt.w = pt.w + alpha * dw
        pt.z = pt.z + alpha * dz
        pt.y = pt.y + alpha * dy
        pt.tau += alpha * dtau
        pt.kappa += alpha * dkappa
        if not (pt.tau > 0 and pt.kappa > 0):
            status = "numerical"
            break

    if status in ("max_iter", "numerical") and best is not None:
        metrics, pt.X, pt.w, pt.y, pt.S, pt.z, pt.tau, pt.kappa = best
    pres, dresr, gap, pobj, dobj = metrics

    # undo scaling; duals of ">="-form rows are the nonnegative slack
    # multipliers ("<=" rows were negated on entry, so theirs stay nonnegative)
    y = pt.y / pt.tau * rho_c / rho
    X = SymMat.from_dense(_sym(pt.X / pt.tau))
    certificate = None
    if status == "infeasible":
        certificate = {"kind": "primal_infeasible", "y": pt.y * rho_c / rho}
        X = None
    elif status == "unbounded":
        certificate = {"kind": "dual_infeasible", "X": pt.X, "w": pt.w}
        X = None
    return SdpSolution(
        status=status,
        X=X,
        dual_eq=y[:n_eq],
        dual_ineq=y[n_eq:],
        value=pobj * rho_c,
        dual_value=dobj * rho_c,
        residuals=(pres, dresr, gap),
        iterations=it,
        certificate=certificate,
        mu_history=tuple(mu_hist),
        slack=pt.w / pt.tau,
    )


# --------------------------------------------------------------------------
# public SdpProblem interface
# --------------------------------------------------------------------------

def _slack_block(n_eq: int, k: int) -> np.ndarray:
    """[0; -I]: rows after the first n_eq subtract their own slack."""
    return np.vstack([np.zeros((n_eq, k)), np.diag(np.full(k, -1.0))])


def _assemble(p: SdpProblem):
    mats = [mat for mat, _ in p.eq_constraints] + [mat for mat, _, _ in p.ineq_constraints]
    n_eq, k = len(p.eq_constraints), len(p.ineq_constraints)
    # "<=" rows are negated into ">=" form
    sign = np.array([1.0] * n_eq + [1.0 if sense == ">=" else -1.0
                                    for _, sense, _ in p.ineq_constraints])
    rhs = np.array([r for _, r in p.eq_constraints] + [r for _, _, r in p.ineq_constraints],
                   dtype=float)
    d = _ConicData(
        n=p.n,
        p=k,
        Cm=p.objective.to_dense(),
        cw=np.zeros(k),
        Am=dense_stack(packed_stack(mats, p.n), p.n) * sign[:, None, None],
        Aw=_slack_block(n_eq, k),
        b=rhs * sign,
    )
    return d, n_eq


def solve(p: SdpProblem, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> SdpSolution:
    """Solve the SDP; optimal solutions come with primal/dual residuals, and
    infeasibility / unboundedness are reported through Farkas-type certificates."""
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if not p.objective.is_finite():
        raise ValueError("non-finite objective")
    d, n_eq = _assemble(p)
    return _conic_solve(d, n_eq, tol=tol, max_iter=max_iter)


# --------------------------------------------------------------------------
# auxiliary SDP formulations used by certify / reduce
# --------------------------------------------------------------------------

def relaxation_problem(p: GeoCop) -> SdpProblem:
    """min <Q,X> s.t. <H,X> = 1, <B,X> >= 0 for all members, X psd."""
    return SdpProblem(
        n=p.n,
        objective=p.Q,
        eq_constraints=((p.H, 1.0),),
        ineq_constraints=tuple((m, ">=", 0.0) for m in p.bset.members),
    )


def trace_one_problem(objective: SymMat, members) -> SdpProblem:
    """min <C,X> s.t. trace X = 1, <B,X> >= 0 for all members, X psd.

    The trace-one SDPs of certify and reduction are all of this form: the
    refutation SDP min <A,X> s.t. <B,X> <= 0 takes the member -B, the
    inclusion SDP (value >= 0 iff J+(B) is included in J+(A)) takes B, and
    max <F,X> over the trace-one feasible slice takes the objective -F.
    """
    return SdpProblem(
        n=objective.n,
        objective=objective,
        eq_constraints=((SymMat.identity(objective.n), 1.0),),
        ineq_constraints=tuple((m, ">=", 0.0) for m in members),
    )


def slater_data(members, n: int) -> _ConicData:
    """max t s.t. X >= t I, <B,X> >= 0, trace X = 1  via  Z = X - t I psd.

    Variables: Z (psd block), w = (t, slacks).  Objective: min -t.
    """
    mats = dense_stack(packed_stack(members, n), n)
    k = len(mats)
    p = 1 + k
    # trace Z + n t = 1;  <B_j,Z> + t tr(B_j) - s_j = 0
    t_col = np.concatenate([[float(n)], np.trace(mats, axis1=1, axis2=2)])
    cw = np.zeros(p)
    cw[0] = -1.0
    return _ConicData(
        n=n,
        p=p,
        Cm=np.zeros((n, n)),
        cw=cw,
        Am=np.concatenate([np.eye(n)[None], mats]),
        Aw=np.column_stack([t_col, _slack_block(1, k)]),
        b=np.concatenate([[1.0], np.zeros(k)]),
    )


def solve_slater(members, n: int, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER):
    """Returns (status, X_star, t_star, E): a max-rank feasible point, its
    margin, and the dual certificate E = -sum_j y_j B_j of the member rows.

    Dual feasibility reads E = S + y0 I with S psd and y_j >= 0, and
    tr E >= 1 + n y0, where y0 = -t_star at the optimum.  So when t_star is
    zero, E is psd within the solve's accuracy and nonzero, and on the
    feasible cone <E, X> = -sum_j y_j <B_j, X> is both <= 0 and >= 0: the
    minimal face lies in the kernel of E.  X_star and E are None unless the
    status is optimal or max_iter.
    """
    data = slater_data(members, n)
    sol = _conic_solve(data, 1, tol=tol, max_iter=max_iter)
    if sol.status not in ("optimal", "max_iter"):
        return sol.status, None, -math.inf, None
    t = float(sol.slack[0])
    X = _sym(sol.X.to_dense() + t * np.eye(n))
    E = -np.tensordot(sol.dual_ineq, data.Am[1:], axes=1)
    return sol.status, SymMat.from_dense(X), t, SymMat.from_dense(_sym(E))


# --------------------------------------------------------------------------
# pairwise (alpha, beta) certificate
# --------------------------------------------------------------------------

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# fewest steps that shrink the bracket [0, 1] below the float spacing 2**-52
# near 1: further steps cannot move mu
_GOLDEN_ITERS = math.ceil(math.log(2.0 ** -52) / math.log(_INVPHI))


def _snaps(A: np.ndarray, B: np.ndarray, pairs, mu: np.ndarray, scales: list) -> list:
    """For each pair p in pairs, its snap candidates t, simplest first, each
    with lambda_min(A[p] + t B[p]), from one stacked eigvalsh.  The
    candidates are tau = (1-mu)/mu rounded to 0, 1, 3, 6, 9 and 12 decimals,
    then tau itself."""
    mu = np.minimum(np.maximum(mu, 1e-12), 1.0 - 1e-12)
    owner, cands, spans = [], [], []
    for p, tau in zip(pairs, ((1.0 - mu) / mu).tolist()):
        if scales[p] == 0.0:
            tried = [1.0]  # O + O is psd
        else:
            tried = []
            for t in (float(round(tau)), round(tau, 1), round(tau, 3), round(tau, 6),
                      round(tau, 9), round(tau, 12), tau):
                if t > 0.0 and t not in tried:
                    tried.append(t)
        spans.append(slice(len(cands), len(cands) + len(tried)))
        owner += [p] * len(tried)
        cands += tried
    t = np.array(cands)
    combos = B[owner]
    combos *= t[:, None, None]
    combos += A[owner]  # A + t B, in place: one (candidates, n, n) temporary less
    lams = lambda_min_stack(combos).tolist()
    return [list(zip(cands[span], lams[span])) for span in spans]


def ab_certificates(A: np.ndarray, B: np.ndarray, scale: np.ndarray, tol: float = DEFAULT_TOL):
    """Search, for every pair p, for alpha, beta > 0 with alpha*A[p] + beta*B[p] psd.

    A and B are (P, n, n) dense stacks and scale[p] = ||A[p]|| + ||B[p]||.
    lambda_min(A + tau B)/(1 + tau) equals lambda_min(mu A + (1-mu) B) at
    mu = 1/(1+tau), which is concave in mu (a min of linear functionals), so
    a golden-section search over mu in (0,1) finds the global maximum.  It
    runs at most _GOLDEN_ITERS steps, the fewest that shrink the bracket to
    _INVPHI ** steps <= 2**-52, the float resolution of mu: 75 steps, so 77
    stacked eigvalsh calls with the two initial points.  All pairs step
    together: each step is one stacked eigvalsh, and np.where applies the
    scalar branch rule per pair.  tau = (1-mu)/mu is then snapped to a
    simple decimal (see _snaps).

    Any positive-definite combination certifies a pair, so the search need
    not reach the maximum.  At its first probe with lambda_min > 0 (the
    better of the two initial points, c on a tie as the branch rule keeps
    it, then each step's new point) a pair evaluates that probe's snap
    candidates, and it leaves the search with the first candidate t that has
    lambda_min(A + t B) > 0.  If none has, it searches on and is not checked
    again.  Whenever a pair leaves, the stacks shrink to the pairs still
    searching, and later steps run eigvalsh on those only.  A pair that does
    not leave runs every step with the arithmetic it would have alone (the
    rows of a stacked eigvalsh are independent), then takes the first snap
    candidate within 1e-12 * scale of the best one.

    (1, tau) is accepted when lambda_min(A + tau B) >= -tol * min(1, tau) *
    scale.  That is the test lambda_min >= -tol * scale applied to the
    certificate scaled so that its smaller coefficient is 1, so it reads the
    same for the swapped pair and its certificate (1, 1/tau).  A pair that
    left early passes it with no slack.

    Returns one entry per pair: (tau, lambda_min(A + tau B)) for the
    certificate (1, tau), or None.  The margin is that of the reported
    certificate; for a pair that left early it is not the best margin.
    """
    if A.shape != B.shape:
        raise ValueError("dimension mismatch")
    if np.all(A == B, axis=(1, 2)).any():
        raise ValueError("the pair certificate needs two distinct matrices")
    P = A.shape[0]
    if P == 0:
        return []
    scales = [float(v) for v in scale]
    out = [None] * P

    def phi(mu, a, b):
        return lambda_min_stack(mu[:, None, None] * a + (1.0 - mu)[:, None, None] * b)

    live, a, b = np.arange(P), A, B
    bar = np.zeros(P)  # a probe above it triggers the exit check; inf once checked
    lo, hi = np.zeros(P), np.ones(P)
    c = hi - _INVPHI * (hi - lo)
    e = lo + _INVPHI * (hi - lo)
    fc, fe = phi(c, a, b), phi(e, a, b)
    probe, found = np.where(fc >= fe, c, e), np.maximum(fc, fe) > bar
    steps = 0
    while live.size:
        if found.any():
            hits = np.flatnonzero(found)
            for k, snaps in zip(hits, _snaps(A, B, live[hits], probe[hits], scales)):
                out[live[k]] = next(((t, lam) for t, lam in snaps if lam > 0.0), None)
                found[k] = out[live[k]] is not None
            bar[hits] = np.inf
            if found.any():
                keep = ~found
                live, a, b, bar, lo, hi, c, e, fc, fe = (
                    v[keep] for v in (live, a, b, bar, lo, hi, c, e, fc, fe))
        if steps == _GOLDEN_ITERS:
            break
        left = fc >= fe  # keep [lo, e]; otherwise keep [c, hi]
        hi = np.where(left, e, hi)
        lo = np.where(left, lo, c)
        step = _INVPHI * (hi - lo)
        probe = np.where(left, hi - step, lo + step)
        fx = phi(probe, a, b)
        c, e = np.where(left, probe, e), np.where(left, c, probe)
        fc, fe = np.where(left, fx, fe), np.where(left, fc, fx)
        found = fx > bar
        steps += 1

    if live.size:
        for p, snaps in zip(live.tolist(), _snaps(A, B, live, (lo + hi) / 2.0, scales)):
            s = scales[p]
            best_val = max(lam / (1.0 + t) for t, lam in snaps)
            # earliest = simplest within snapping slack
            tau, lam = next((t, lam) for t, lam in snaps
                            if lam / (1.0 + t) >= best_val - 1e-12 * s)
            ok = s == 0.0 or lam >= -tol * min(1.0, tau) * s
            out[p] = (tau, lam) if ok else None
    return out


def solve_ab_certificate(a: SymMat, b: SymMat, tol: float = DEFAULT_TOL):
    """The pair certificate of one pair (see ab_certificates): (1.0, tau) with
    A + tau B psd within tol * min(1, tau) * (||A|| + ||B||), or None."""
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    cert = ab_certificates(a.to_dense()[None], b.to_dense()[None],
                           np.array([a.norm() + b.norm()]), tol)[0]
    return None if cert is None else (1.0, cert[0])
