"""Dense primal-dual interior-point SDP solver.

Solves min <C,X> + c.w  s.t.  linear rows on (X, w),  X psd,  w >= 0
through a homogeneous self-dual embedding with Nesterov-Todd scaling and a
Mehrotra predictor-corrector, which yields infeasibility/unboundedness
certificates as a by-product.  Also hosts the (alpha, beta) pair-certificate
search, a golden section over the concave 1-D function that runs for a whole
stack of pairs at once, and the small auxiliary SDP formulations used by the
certification and reduction stages.

Each SDP here is small (n <= ~10, <= ~60 rows) and is solved densely.  It
has n >= 1 and at least one row (SdpProblem refuses a problem without
rows); the w block may be empty, and numpy's zero-size arrays carry that
case through the same code path as every other, with no branch on a
dimension.  The pair search takes one stacked eigenvalue call per
golden-section step for all pairs together, so its per-call overhead grows
with the number of steps, not with the number of pairs times steps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import GeoCop
from .symmat import SymMat, lambda_min_stack

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


def _apply_A(d: _ConicData, X, w):
    return np.einsum("iab,ab->i", d.Am, X) + d.Aw @ w


def _apply_At(d: _ConicData, y):
    return np.einsum("i,iab->ab", y, d.Am), d.Aw.T @ y


def _objective(d: _ConicData, X, w) -> float:
    """<Cm,X> + cw.w"""
    return float((d.Cm * X).sum()) + float(d.cw @ w)


def _pair_norm(mat, vec):
    return math.sqrt(float((mat * mat).sum()) + float(vec @ vec))


def _chol_or_sqrt(X):
    try:
        return np.linalg.cholesky(X)
    except np.linalg.LinAlgError:
        d, V = np.linalg.eigh(_sym(X))
        floor = max(float(d.max()), 1.0) * 1e-14
        return V @ np.diag(np.sqrt(np.maximum(d, floor)))


def _nt_scaling(X, S):
    """Factor G with G^-1 X G^-T = G^T S G = diag(sigma)."""
    L1 = _chol_or_sqrt(X)
    Msym = _sym(L1.T @ S @ L1)
    d, V = np.linalg.eigh(Msym)
    d = np.maximum(d, 1e-300)
    G = L1 @ V @ np.diag(d ** -0.25)
    Ginv = np.diag(d ** 0.25) @ V.T @ np.linalg.inv(L1)
    sigma = np.sqrt(d)
    return G, Ginv, sigma


def _step_to_boundary_psd(sigma, dmat):
    scale = 1.0 / np.sqrt(sigma)
    E = _sym(dmat * scale[:, None] * scale[None, :])
    lmin = float(np.linalg.eigvalsh(E)[0])
    return math.inf if lmin >= 0.0 else 1.0 / (-lmin)


def _step_to_boundary_vec(v, dv):
    neg = dv < 0.0
    if not neg.any():
        return math.inf
    return float(np.min(-v[neg] / dv[neg]))


def _step_to_boundary(pt, sigma, G, Ginv, dX, dw, dS, dz, dtau, dkappa):
    """Largest step along the direction that keeps every cone block closed."""
    return min(
        _step_to_boundary_psd(sigma, Ginv @ dX @ Ginv.T),
        _step_to_boundary_psd(sigma, G.T @ dS @ G),
        _step_to_boundary_vec(pt.w, dw),
        _step_to_boundary_vec(pt.z, dz),
        -pt.tau / dtau if dtau < 0 else math.inf,
        -pt.kappa / dkappa if dkappa < 0 else math.inf,
    )


def _conic_solve(d: _ConicData, n_eq: int, tol: float = DEFAULT_TOL,
                 max_iter: int = DEFAULT_MAX_ITER) -> SdpSolution:
    """Solve the conic data; multipliers of the first n_eq rows are reported
    as dual_eq and the rest as dual_ineq.  n >= 1 and at least one row; the
    w block may be empty (p = 0)."""
    n, p, m = d.n, d.p, len(d.b)
    nu = n + p

    # row/objective scaling for conditioning; undone on exit
    rho = np.array([max(_pair_norm(d.Am[i], d.Aw[i]), 1e-12) for i in range(m)])
    Am = d.Am / rho[:, None, None]
    Aw = d.Aw / rho[:, None]
    b = d.b / rho
    rho_c = max(1.0, _pair_norm(d.Cm, d.cw))
    Cm = d.Cm / rho_c
    cw = d.cw / rho_c
    ds = _ConicData(n=n, p=p, Cm=Cm, cw=cw, Am=Am, Aw=Aw, b=b)

    pt = _Point(n, p, m)
    norm_b = float(np.linalg.norm(b))
    norm_c = _pair_norm(Cm, cw)
    mu0 = (n + p + 1.0) / (nu + 1.0)
    mu_hist = []
    best = None
    best_metric = math.inf
    best_snap = None
    since_best = 0
    status = "max_iter"
    it = 0

    def snapshot():
        return (pt.X.copy(), pt.w.copy(), pt.y.copy(), pt.S.copy(), pt.z.copy(),
                pt.tau, pt.kappa)

    def restore(snap):
        pt.X, pt.w, pt.y, pt.S, pt.z, pt.tau, pt.kappa = (
            snap[0].copy(), snap[1].copy(), snap[2].copy(), snap[3].copy(),
            snap[4].copy(), snap[5], snap[6])

    def current_metrics():
        xhat_m = pt.X / pt.tau
        xhat_w = pt.w / pt.tau
        yhat = pt.y / pt.tau
        sm = pt.S / pt.tau
        sw = pt.z / pt.tau
        pres_v = _apply_A(ds, xhat_m, xhat_w) - b
        atm, atw = _apply_At(ds, yhat)
        dres = _pair_norm(atm + sm - Cm, atw + sw - cw)
        pobj = _objective(ds, xhat_m, xhat_w)
        dobj = float(b @ yhat)
        pres = float(np.linalg.norm(pres_v)) / (1.0 + norm_b)
        dresr = dres / (1.0 + norm_c)
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        return pres, dresr, gap, pobj, dobj

    for it in range(1, max_iter + 1):
        comp = float((pt.X * pt.S).sum()) + float(pt.w @ pt.z) + pt.tau * pt.kappa
        mu = comp / (nu + 1.0)
        mu_hist.append(mu)

        pres, dresr, gap, pobj, dobj = current_metrics()
        best = (pres, dresr, gap, pobj, dobj)
        metric = max(pres, dresr, gap)
        if metric < best_metric:
            best_metric = metric
            best_snap = snapshot()
            since_best = 0
        else:
            since_best += 1
        if pres <= tol and dresr <= tol and gap <= tol:
            status = "optimal"
            break

        # Farkas-type certificate checks (homogeneous embedding by-product);
        # these must run before stall detection: on infeasible or unbounded
        # instances the optimality metrics never improve
        by = float(b @ pt.y)
        if by > 1e-10:
            atm, atw = _apply_At(ds, pt.y)
            res = _pair_norm(atm + pt.S, atw + pt.z)
            if res <= _INF_CERT_TOL * by:
                status = "infeasible"
                break
        cx = _objective(ds, pt.X, pt.w)
        if cx < -1e-10:
            res = float(np.linalg.norm(_apply_A(ds, pt.X, pt.w)))
            if res <= _INF_CERT_TOL * (-cx):
                status = "unbounded"
                break

        if comp <= 0.0 or mu <= 1e-17 * max(mu0, 1.0) or since_best >= 12:
            # past the attainable accuracy for this instance; best iterate wins
            status = "numerical"
            break

        # residual vectors of the embedding
        Rp = _apply_A(ds, pt.X, pt.w) - b * pt.tau
        Rd_m, Rd_w = _apply_At(ds, pt.y)
        Rd_m = Rd_m + pt.S - Cm * pt.tau
        Rd_w = Rd_w + pt.z - cw * pt.tau
        Rg = _objective(ds, pt.X, pt.w) - float(b @ pt.y) + pt.kappa

        try:
            G, Ginv, sigma = _nt_scaling(pt.X, pt.S)
        except np.linalg.LinAlgError:
            status = "numerical"
            break
        W = G @ G.T
        D = pt.w / pt.z

        # Schur complement, shared by predictor and corrector
        WAW = np.einsum("ab,ibc,cd->iad", W, Am, W)
        M = np.einsum("iab,jab->ij", WAW, Am)
        M = M + (Aw * D[None, :]) @ Aw.T
        try:
            evals, evecs = np.linalg.eigh(_sym(M))
        except np.linalg.LinAlgError:
            status = "numerical"
            break
        cut = float(evals.max()) * 1e-14 + 1e-300
        inv_e = np.where(evals > cut, 1.0 / np.maximum(evals, cut), 0.0)

        def msolve(r):
            sol = evecs @ (inv_e * (evecs.T @ r))
            sol = sol + evecs @ (inv_e * (evecs.T @ (r - M @ sol)))
            return sol

        WCW = W @ Cm @ W
        k_c = _apply_A(ds, WCW, D * cw)
        q_cc = _objective(ds, WCW, D * cw)
        WRdW = W @ Rd_m @ W
        g2 = _apply_A(ds, WRdW, D * Rd_w)
        q2 = _objective(ds, WRdW, D * Rd_w)
        u2 = msolve(k_c + b)

        def direction(sig_c, corr):
            """corr = None (predictor) or scaled affine products (corrector)."""
            one_ms = 1.0 - sig_c
            Rc = -np.diag(sigma * sigma)
            rc_w = sig_c * mu - pt.w * pt.z
            rc_tau = sig_c * mu - pt.tau * pt.kappa
            if corr is not None:
                Rc = Rc - corr[0]
                rc_w = rc_w - corr[1]
                rc_tau = rc_tau - corr[2]
            if sig_c:
                Rc = Rc + sig_c * mu * np.eye(n)
            Psi = 2.0 * Rc / (sigma[:, None] + sigma[None, :])
            GPsiG = G @ Psi @ G.T
            gw = rc_w / pt.z

            g1 = _apply_A(ds, GPsiG, gw)
            q1 = _objective(ds, GPsiG, gw)
            u1 = msolve(-g1 - one_ms * g2 - one_ms * Rp)

            denom = float((k_c - b) @ u2) - q_cc - pt.kappa / pt.tau
            numer = (-one_ms * Rg - q1 - one_ms * q2 - rc_tau / pt.tau
                     - float((k_c - b) @ u1))
            dtau = numer / denom
            dy = u1 + dtau * u2
            atm, atw = _apply_At(ds, dy)
            dS = _sym(-one_ms * Rd_m + Cm * dtau - atm)
            dX = _sym(GPsiG - W @ dS @ W)
            dz = -one_ms * Rd_w + cw * dtau - atw
            dw = gw - D * dz
            dkappa = (rc_tau - pt.kappa * dtau) / pt.tau
            return dX, dw, dy, dS, dz, dtau, dkappa

        # predictor
        dXa, dwa, _, dSa, dza, dta, dka = direction(0.0, None)
        alpha_aff = min(_step_to_boundary(pt, sigma, G, Ginv, dXa, dwa, dSa, dza, dta, dka),
                        1.0)
        comp_aff = (float(((pt.X + alpha_aff * dXa) * (pt.S + alpha_aff * dSa)).sum())
                    + float((pt.w + alpha_aff * dwa) @ (pt.z + alpha_aff * dza))
                    + (pt.tau + alpha_aff * dta) * (pt.kappa + alpha_aff * dka))
        sig_c = min(max((max(comp_aff, 0.0) / comp) ** 3, 1e-12), 0.999)

        # corrector
        corr = (_sym((Ginv @ dXa @ Ginv.T) @ (G.T @ dSa @ G)), dwa * dza, dta * dka)
        dX, dw, dy, dS, dz, dtau, dkappa = direction(sig_c, corr)
        alpha = _step_to_boundary(pt, sigma, G, Ginv, dX, dw, dS, dz, dtau, dkappa)
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

    if status in ("max_iter", "numerical") and best_snap is not None:
        restore(best_snap)
        pres, dresr, gap, pobj, dobj = current_metrics()
        if max(pres, dresr, gap) <= tol:
            status = "optimal"
        best = (pres, dresr, gap, pobj, dobj)
    pres, dresr, gap, pobj, dobj = best if best is not None else current_metrics()

    # undo scaling; duals of ">="-form rows are the nonnegative slack
    # multipliers ("<=" rows were negated on entry, so theirs stay nonnegative)
    y = pt.y / pt.tau * rho_c / rho
    X = SymMat.from_dense(_sym(pt.X / pt.tau))
    certificate = None
    if status == "infeasible":
        certificate = {"kind": "primal_infeasible", "y": pt.y * rho_c / rho}
        X = None
    elif status == "unbounded":
        certificate = {"kind": "dual_infeasible", "X": pt.X.copy(), "w": pt.w.copy()}
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
    ineqs = [(mat, r) if sense == ">=" else (mat.scale(-1.0), -r)
             for mat, sense, r in p.ineq_constraints]
    rows = list(p.eq_constraints) + ineqs
    n_eq, k = len(p.eq_constraints), len(ineqs)
    d = _ConicData(
        n=p.n,
        p=k,
        Cm=p.objective.to_dense(),
        cw=np.zeros(k),
        Am=np.array([mat.to_dense() for mat, _ in rows]),
        Aw=_slack_block(n_eq, k),
        b=np.array([r for _, r in rows], dtype=float),
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


def eq10_problem(a: SymMat, b: SymMat) -> SdpProblem:
    """Normalized refutation SDP: min <A,X> s.t. <B,X> <= 0, trace X = 1."""
    return SdpProblem(
        n=a.n,
        objective=a,
        eq_constraints=((SymMat.identity(a.n), 1.0),),
        ineq_constraints=((b, "<=", 0.0),),
    )


def inclusion_problem(a: SymMat, b: SymMat) -> SdpProblem:
    """min <A,X> s.t. <B,X> >= 0, trace X = 1; value >= 0 iff J+(B) included in J+(A)."""
    return SdpProblem(
        n=a.n,
        objective=a,
        eq_constraints=((SymMat.identity(a.n), 1.0),),
        ineq_constraints=((b, ">=", 0.0),),
    )


def slice_max_problem(f: SymMat, members) -> SdpProblem:
    """max <F,X> over the trace-one feasible slice, posed as
    min <-F,X> s.t. trace X = 1, <B,X> >= 0 for all members."""
    return SdpProblem(
        n=f.n,
        objective=f.scale(-1.0),
        eq_constraints=((SymMat.identity(f.n), 1.0),),
        ineq_constraints=tuple((m, ">=", 0.0) for m in members),
    )


def slater_data(members, n: int) -> _ConicData:
    """max t s.t. X >= t I, <B,X> >= 0, trace X = 1  via  Z = X - t I psd.

    Variables: Z (psd block), w = (t, slacks).  Objective: min -t.
    """
    mats = [m.to_dense() for m in members]
    k = len(mats)
    p = 1 + k
    # trace Z + n t = 1;  <B_j,Z> + t tr(B_j) - s_j = 0
    t_col = np.array([float(n)] + [float(np.trace(m)) for m in mats])
    cw = np.zeros(p)
    cw[0] = -1.0
    return _ConicData(
        n=n,
        p=p,
        Cm=np.zeros((n, n)),
        cw=cw,
        Am=np.array([np.eye(n)] + mats),
        Aw=np.column_stack([t_col, _slack_block(1, k)]),
        b=np.array([1.0] + [0.0] * k),
    )


def solve_slater(members, n: int, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER):
    """Returns (status, X_star, t_star): max-rank feasible point and its margin."""
    sol = _conic_solve(slater_data(members, n), 1, tol=tol, max_iter=max_iter)
    if sol.status not in ("optimal", "max_iter"):
        return sol.status, None, -math.inf
    t = float(sol.slack[0])
    X = _sym(sol.X.to_dense() + t * np.eye(n))
    return sol.status, SymMat.from_dense(X), t


# --------------------------------------------------------------------------
# pairwise (alpha, beta) certificate
# --------------------------------------------------------------------------

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# fewest steps that shrink the bracket [0, 1] below the float spacing 2**-52
# near 1: further steps cannot move mu
_GOLDEN_ITERS = math.ceil(math.log(2.0 ** -52) / math.log(_INVPHI))


def ab_certificates(A: np.ndarray, B: np.ndarray, scale: np.ndarray, tol: float = DEFAULT_TOL):
    """Search, for every pair p, for alpha, beta > 0 with alpha*A[p] + beta*B[p] psd.

    A and B are (P, n, n) dense stacks and scale[p] = ||A[p]|| + ||B[p]||.
    lambda_min(A + tau B)/(1 + tau) equals lambda_min(mu A + (1-mu) B) at
    mu = 1/(1+tau), which is concave in mu (a min of linear functionals), so
    a golden-section search over mu in (0,1) finds the global maximum.  It
    stops after _GOLDEN_ITERS steps, the fewest that shrink the bracket to
    _INVPHI ** steps <= 2**-52, the float resolution of mu: 75 steps, so 77
    stacked eigvalsh calls with the two initial points.  All pairs step
    together: each step is one stacked eigvalsh, and np.where applies the
    scalar branch rule per pair.  tau is then snapped to a nearby simple
    decimal when that does not hurt the certificate.

    Returns one entry per pair: (tau, lambda_min(A + tau B)) for the
    certificate (1, tau), or None when the global maximum is certifiably
    below -tol * scale.
    """
    if A.shape != B.shape:
        raise ValueError("dimension mismatch")
    if np.all(A == B, axis=(1, 2)).any():
        raise ValueError("the pair certificate needs two distinct matrices")
    P = A.shape[0]
    if P == 0:
        return []

    def phi(mu):
        return lambda_min_stack(mu[:, None, None] * A + (1.0 - mu)[:, None, None] * B)

    lo, hi = np.zeros(P), np.ones(P)
    c = hi - _INVPHI * (hi - lo)
    e = lo + _INVPHI * (hi - lo)
    fc, fe = phi(c), phi(e)
    for _ in range(_GOLDEN_ITERS):
        left = fc >= fe  # keep [lo, e]; otherwise keep [c, hi]
        hi = np.where(left, e, hi)
        lo = np.where(left, lo, c)
        step = _INVPHI * (hi - lo)
        x = np.where(left, hi - step, lo + step)
        fx = phi(x)
        c, e = np.where(left, x, e), np.where(left, c, x)
        fc, fe = np.where(left, fx, fe), np.where(left, fc, fx)
    mu = np.minimum(np.maximum((lo + hi) / 2.0, 1e-12), 1.0 - 1e-12)
    taus = ((1.0 - mu) / mu).tolist()
    scales = [float(v) for v in scale]

    owner, cands, spans = [], [], []
    for p, tau in enumerate(taus):
        if scales[p] == 0.0:
            tried = [1.0]  # O + O is psd
        else:
            tried = []
            for t in (float(round(tau)), round(tau, 1), round(tau, 3), round(tau, 6),
                      round(tau, 9), round(tau, 12), tau):
                if t > 0.0 and t not in tried:
                    tried.append(t)
        spans.append(range(len(cands), len(cands) + len(tried)))
        owner += [p] * len(tried)
        cands += tried
    t = np.array(cands)
    combos = B[owner]
    combos *= t[:, None, None]
    combos += A[owner]  # A + t B, in place: one (candidates, n, n) temporary less
    lam = lambda_min_stack(combos)
    lams, vals = lam.tolist(), (lam / (1.0 + t)).tolist()

    out = []
    for rows, s in zip(spans, scales):
        best_val = max(vals[r] for r in rows)
        # earliest = simplest within snapping slack
        r = next(r for r in rows if vals[r] >= best_val - 1e-12 * s)
        tau = cands[r]
        ok = s == 0.0 or vals[r] * (1.0 + tau) >= -tol * s
        out.append((tau, lams[r]) if ok else None)
    return out


def solve_ab_certificate(a: SymMat, b: SymMat, tol: float = DEFAULT_TOL):
    """The pair certificate of one pair (see ab_certificates): (1.0, tau) with
    A + tau B psd within tol * (||A|| + ||B||), or None."""
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    cert = ab_certificates(a.to_dense()[None], b.to_dense()[None],
                           np.array([a.norm() + b.norm()]), tol)[0]
    return None if cert is None else (1.0, cert[0])
