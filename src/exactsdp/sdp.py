"""Dense primal-dual interior-point SDP solver.

Every interior-point SDP of the package has one form (SdpProblem):
min <C,X> s.t. <H,X> = 1, <B_j,X> >= 0 for every member, X psd.  The
relaxation takes C = Q, and classify's trace-one SDP takes C = -B and
H = I.  The member rows carry slacks w >= 0, and the Slater solve poses the
same rows on Z = X - tI with t as one more entry of w.

solve and solve_slater first solve their problem without the member rows,
an eigenvalue problem: the bottom eigenvector of the pencil (C, H) for an
SdpProblem with H positive definite and a simple bottom eigenvalue, and
X = I/n with t = 1/n for the Slater SDP.  That answer is exact, with
multipliers 0 on the member rows and iterations = 0, and it is returned
whenever it meets every member row.  Otherwise they solve it with one
active member row, again with iterations = 0: the SdpProblem with the one
row that its bottom eigenvector violates through the pencil
(pencil_bounds), and the Slater SDP with each row of negative trace in
closed form.  Either answer is returned when it meets every other row, since
a problem with one row relaxes the whole.  The interior-point core answers
the rest.  The core solves
min <C,X> + c.w  s.t.  linear rows on (X, w),  X psd,  w >= 0
through a homogeneous self-dual embedding with Nesterov-Todd scaling and a
Mehrotra predictor-corrector, which yields infeasibility/unboundedness
certificates as a by-product.  Also hosts the pencil search (pencil_bounds)
that answers every trace-one SDP with one member row,
min <A,X> s.t. <G,X> >= 0, trace X = 1, through the concave dual
max over y >= 0 of lambda_min(A - yG), with no interior-point solve; and the
(alpha, beta) pair certificate (ab_certificates), read from the same pencil
with G = -B, so one search per pair gives the certificate or the refutation.

Every SDP is solved densely.  It has n >= 1 and the H row; the w block is
empty when there are no members, and numpy's zero-size arrays carry that
case through the same code path as every other, with no branch on a
dimension.

The iterate is carried flat: (vec X, w) and (vec S, z) are the two rows of
one array, and the rows of the problem are one operator [A2 | Aw] of shape
(m, n*n + p), scaled once per solve, with the objective row below it.  So
one matrix-vector product gives A(X,w) and <C,X> + c.w together, each
residual, norm and inner product is one call, and one update moves both
blocks.  Each iteration applies A, A^T and b once to the iterate and
derives the optimality metrics, the Farkas tests and the embedding
residuals from those products; W C W, W Rd W and the predictor's
complementarity block go through the rows in one product, and the tau
column k_c + b and the predictor right-hand side are one two-column solve.
The step lengths price both psd blocks with one stacked congruence and one
stacked eigvalsh.  The Schur complement M_ij = <A_i, W A_j W> is one batched
W A_j W and one GEMM over the flattened rows (the dense formula of
Fujisawa, Kojima & Nakata 1997), so its cost is BLAS time, not Python
calls, and n = 30 with m = 60 takes a few milliseconds per iteration.

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
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .model import GeoCop
from .symmat import SymMat, dense_stack, lambda_min_stack, packed_stack

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 200
_INF_CERT_TOL = 1e-6
_STEP_FRACTION = 0.99


@dataclass(frozen=True)
class SdpProblem:
    """min <C,X> s.t. <H,X> = 1, <B,X> >= 0 for every member B, X psd, in
    the dimension of the objective C."""

    objective: SymMat
    H: SymMat
    members: tuple = ()

    def __post_init__(self):
        if any(m.n != self.objective.n for m in (self.H, *self.members)):
            raise ValueError("dimension mismatch")


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
    slack: Optional[np.ndarray] = None  # the w >= 0 block (slacks of the member rows)


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


def _nt_scaling(X, S):
    """Factor G with G^-1 X G^-T = G^T S G = diag(sigma).

    Raises LinAlgError when X has no Cholesky factor L1 or L1' S L1 has a
    computed eigenvalue <= 0: the iterate has left the interior in floating
    point, and G, which scales by its eigenvalues ** -1/4, would overflow the
    next direction."""
    L1 = np.linalg.cholesky(X)
    Msym = _sym(L1.T @ S @ L1)
    d, V = np.linalg.eigh(Msym)
    if not d[0] > 0.0:
        raise np.linalg.LinAlgError("NT scaling of an iterate outside the interior")
    G = (L1 @ V) * d ** -0.25
    Ginv = (d ** 0.25)[:, None] * (V.T @ np.linalg.inv(L1))
    sigma = np.sqrt(d)
    return G, Ginv, sigma


def _step_to_boundary(T, scale2, dv, v):
    """Largest step along the direction that keeps every cone block closed;
    NaN when the direction is not finite.

    T stacks the psd blocks in the scaled space, G^-1 dX G^-T and G^T dS G,
    where the iterate is diag(sigma) in both, and scale2 is the outer product
    of sigma^-1/2 with itself, so one stacked eigvalsh prices both.  dv and v
    are the nonnegative blocks (w, z, tau, kappa) of the direction and of
    the iterate.  Every block v + a dv stays in its cone up to a = 1 / r,
    with r = -lambda_min(sigma^-1/2 dv sigma^-1/2) for a psd block and
    r = max(-dv / v) for the nonnegative ones (v > 0 in the interior)."""
    E = T * scale2
    try:
        lmin = np.linalg.eigvalsh((E + E.transpose(0, 2, 1)) / 2.0)[:, 0]
    except np.linalg.LinAlgError:  # LAPACK may refuse a non-finite matrix
        return math.nan
    rate = -float(np.concatenate((lmin, dv / v)).min())
    if not math.isfinite(rate):
        return math.nan
    return math.inf if rate <= 0.0 else 1.0 / rate


def _schur_complement(W, Am, Aw, D):
    """M_ij = <A_i, W A_j W> + sum_k Aw_ik D_k Aw_jk for a (m, n, n) row stack:
    one batched W A_j W and one GEMM over the flattened rows."""
    A2 = Am.reshape(len(Am), -1)
    return (W @ Am @ W).reshape(A2.shape) @ A2.T + (Aw * D) @ Aw.T


def _conic_solve(d: _ConicData, tol: float = DEFAULT_TOL) -> SdpSolution:
    """Solve the conic data; the multiplier of the first row (the H row) is
    reported as dual_eq and the rest as dual_ineq.  n >= 1 and at least one
    row; the w block may be empty (p = 0).

    The iterate is carried flat: xs[0] = (vec X, w) and xs[1] = (vec S, z),
    with the rows as one operator [A2 | Aw] and the objective row below it,
    so each residual, norm and product is one call, and one update moves
    both.

    A run cut after DEFAULT_MAX_ITER iterations (read at call time) or
    ended as "numerical" reports the best iterate seen, the one with the
    smallest max(pres, dres, gap); an iterate within tol ends the run as
    "optimal" where it is reached.  "infeasible" and "unbounded" report the
    current iterate, whose products are the certificate.  Raises ValueError
    for DEFAULT_MAX_ITER < 1: a run needs one iterate to report."""
    if DEFAULT_MAX_ITER < 1:
        raise ValueError("DEFAULT_MAX_ITER must be at least 1")
    n, p, m = d.n, d.p, len(d.b)
    N = n * n
    nu = n + p

    # row/objective scaling for conditioning, on C-ordered copies of the
    # rows: the row sums below follow the memory layout, and the solve must
    # depend on the numbers alone; undone on exit
    A2 = np.ascontiguousarray(d.Am).reshape(m, N)
    Aw = np.ascontiguousarray(d.Aw)
    rho = np.maximum(np.sqrt((A2 * A2).sum(axis=1) + (Aw * Aw).sum(axis=1)), 1e-12)
    AA = np.hstack([A2, Aw]) / rho[:, None]
    b = d.b / rho
    cc = np.concatenate([d.Cm.ravel(), d.cw])
    rho_c = max(1.0, math.sqrt(float(cc @ cc)))
    cc = cc / rho_c
    norm_c = math.sqrt(float(cc @ cc))
    # the objective rides below the rows: one product gives A(X,w) and
    # <C,X> + c.w together
    AC = np.vstack([AA, cc])
    Am, Aw = np.ascontiguousarray(AA[:, :N]).reshape(m, n, n), AA[:, N:]

    xs = np.tile(np.concatenate([np.eye(n).ravel(), np.ones(p)]), (2, 1))
    y = np.zeros(m)
    tau = kappa = 1.0
    norm_b = float(np.linalg.norm(b))
    mu0 = (n + p + 1.0) / (nu + 1.0)
    mu_hist = []
    # the best iterate: its metrics and references to its blocks, which every
    # step rebinds and none changes in place
    best = None
    best_metric = math.inf
    since_best = 0
    status = "max_iter"

    for it in range(1, DEFAULT_MAX_ITER + 1):
        x, s = xs
        comp = float(x @ s) + tau * kappa
        mu = comp / (nu + 1.0)
        mu_hist.append(mu)

        # A(X,w) with <C,X> + c.w, A^T y and b.y, each operator once; the
        # metrics, the Farkas tests and the embedding residuals
        # (Rp, Rd, Rg) derive from these products
        r = AC @ x
        AX, cx = r[:m], float(r[m])
        Aty_s = y @ AA + s
        by = float(b @ y)
        Rp = AX - b * tau
        Rd = Aty_s - cc * tau
        Rg = cx - by + kappa
        pres = math.sqrt(float(Rp @ Rp)) / tau / (1.0 + norm_b)
        dresr = math.sqrt(float(Rd @ Rd)) / tau / (1.0 + norm_c)
        pobj, dobj = cx / tau, by / tau
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        metrics = (pres, dresr, gap, pobj, dobj)
        metric = max(pres, dresr, gap)
        if metric < best_metric:
            best_metric = metric
            best = (metrics, xs, y, tau, kappa)
            since_best = 0
        else:
            since_best += 1
        if pres <= tol and dresr <= tol and gap <= tol:
            status = "optimal"
            break

        # Farkas-type certificate checks (homogeneous embedding by-product);
        # these must run before stall detection: on infeasible or unbounded
        # instances the optimality metrics never improve
        if by > 1e-10 and math.sqrt(float(Aty_s @ Aty_s)) <= _INF_CERT_TOL * by:
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
            G, Ginv, sigma = _nt_scaling(x[:N].reshape(n, n), s[:N].reshape(n, n))
        except np.linalg.LinAlgError:
            status = "numerical"
            break
        W = G @ G.T
        w, z = x[N:], s[N:]
        D = w / z

        M = _schur_complement(W, Am, Aw, D)  # shared by predictor and corrector
        # eigh of M scaled to unit diagonal (a zero diagonal entry has a zero
        # row): late in a run diag M spans about 1e10, and a cut relative to
        # lambda_max(M) would drop the small rows
        dm = M.diagonal()
        ds = np.where(dm > 0.0, dm, 1.0) ** -0.5
        Ms = _sym(M * (ds[:, None] * ds))
        try:
            evals, evecs = np.linalg.eigh(Ms)
        except np.linalg.LinAlgError:
            status = "numerical"
            break
        cut = float(evals.max()) * 1e-14 + 1e-300
        # msolve takes its right-hand sides as columns
        inv_e = np.where(evals > cut, 1.0 / np.maximum(evals, cut), 0.0)[:, None]
        ds = ds[:, None]

        def msolve(R):
            """M^-1 applied to each column of R, with one refinement step."""
            rs = ds * R
            sol = evecs @ (inv_e * (evecs.T @ rs))
            sol = sol + evecs @ (inv_e * (evecs.T @ (rs - Ms @ sol)))
            return ds * sol

        # per iteration: the congruences into the scaled space, sigma^-1/2 on
        # both sides, the nonnegative blocks (w, z, tau, kappa), the Psi
        # divisor sigma_i + sigma_j, w o z and tau kappa
        cong = np.array((Ginv, G.T))
        cong_t = cong.transpose(0, 2, 1)
        scale = 1.0 / np.sqrt(sigma)
        scale2 = scale[:, None] * scale[None, :]
        v = np.concatenate((xs[:, N:].ravel(), (tau, kappa)))
        psi_scale = 2.0 / (sigma[:, None] + sigma[None, :])
        sigma_sq = sigma * sigma
        wz = w * z
        tk = tau * kappa

        def complementarity(sig_c, corr):
            """(vec G Psi G', rc_w / z) and rc_tau; corr = None (predictor) or
            the scaled affine products (corrector)."""
            Rc = np.zeros((n, n)) if corr is None else -corr[0]
            Rc.reshape(-1)[::n + 1] += sig_c * mu - sigma_sq
            rc_w = sig_c * mu - wz
            rc_tau = sig_c * mu - tk
            if corr is not None:
                rc_w = rc_w - corr[1]
                rc_tau = rc_tau - corr[2]
            return np.concatenate(((G @ (Rc * psi_scale) @ G.T).ravel(), rc_w / z)), rc_tau

        # (W C W, D c) and (W Rd W, D Rd_w) and the predictor's complementarity
        # block through the rows in one product; then the tau column k_c + b
        # and the predictor right-hand side in one two-column solve
        g_pred, rc_pred = complementarity(0.0, None)
        CR = np.array((cc, Rd))
        F = np.concatenate(((W @ CR[:, :N].reshape(2, n, n) @ W).reshape(2, N),
                            CR[:, N:] * D), axis=1)
        P = np.concatenate((F, g_pred[None])) @ AC.T
        k_c, g2, g1 = P[:, :m]
        q_cc, q2, q1 = P[:, m].tolist()
        g2_rp = g2 + Rp
        u2, u1_pred = msolve(np.array((k_c + b, -g1 - g2_rp)).T).T
        kb = k_c - b
        # the tau pivot t1 - q_cc equals -(q_cc - k_c'M^-1 k_c) - b'M^-1 b,
        # negative in exact arithmetic; late in a run both terms are large
        # and a computed pivot >= 0 is roundoff, so tau is held for the step
        pivot = float(kb @ u2) - q_cc
        hold_tau = pivot >= 0.0
        denom = pivot - kappa / tau

        def direction(one_ms, g, rc_tau, q1, u1):
            """(dxs, dy, dtau, dkappa) from the complementarity block g, its
            objective product q1 and u1 = M^-1 (-g1 - one_ms (g2 + Rp))."""
            dtau = 0.0 if hold_tau else (
                (-one_ms * Rg - q1 - one_ms * q2 - rc_tau / tau - float(kb @ u1)) / denom)
            dy = u1 + dtau * u2
            dsz = -one_ms * Rd + cc * dtau - dy @ AA
            dS = dsz[:N].reshape(n, n)
            dS += dS.T
            dS *= 0.5
            dxw = g - np.concatenate(((W @ dS @ W).ravel(), D * dsz[N:]))
            dX = dxw[:N].reshape(n, n)
            dX += dX.T
            dX *= 0.5
            return np.array((dxw, dsz)), dy, dtau, (rc_tau - kappa * dtau) / tau

        def step(dxs, dtau, dkappa):
            """The scaled psd blocks of a direction and its step to the boundary."""
            T = cong @ dxs[:, :N].reshape(2, n, n) @ cong_t
            dv = np.concatenate((dxs[:, N:].ravel(), (dtau, dkappa)))
            return T, _step_to_boundary(T, scale2, dv, v)

        # predictor
        dxs_a, _, dta, dka = direction(1.0, g_pred, rc_pred, q1, u1_pred)
        T_a, alpha_aff = step(dxs_a, dta, dka)
        if math.isnan(alpha_aff):
            status = "numerical"
            break
        alpha_aff = min(alpha_aff, 1.0)
        x_aff, s_aff = xs + alpha_aff * dxs_a
        comp_aff = float(x_aff @ s_aff) + (tau + alpha_aff * dta) * (kappa + alpha_aff * dka)
        sig_c = min(max((max(comp_aff, 0.0) / comp) ** 3, 1e-12), 0.999)

        # corrector
        one_ms = 1.0 - sig_c
        g, rc_tau = complementarity(
            sig_c, (_sym(T_a[0] @ T_a[1]), dxs_a[0, N:] * dxs_a[1, N:], dta * dka))
        r = AC @ g
        dxs, dy, dtau, dkappa = direction(one_ms, g, rc_tau, float(r[m]),
                                          msolve((-r[:m] - one_ms * g2_rp)[:, None])[:, 0])
        _, alpha = step(dxs, dtau, dkappa)
        alpha = min(_STEP_FRACTION * alpha, 1.0)
        if not math.isfinite(alpha) or alpha <= 1e-10:
            status = "numerical"
            break

        xs = xs + alpha * dxs
        y = y + alpha * dy
        tau += alpha * dtau
        kappa += alpha * dkappa
        if not (tau > 0 and kappa > 0):
            status = "numerical"
            break

    if status in ("max_iter", "numerical") and best is not None:
        metrics, xs, y, tau, kappa = best
    pres, dresr, gap, pobj, dobj = metrics

    # undo scaling; the multipliers of the member rows are those of their
    # nonnegative slacks
    X, w = xs[0, :N].reshape(n, n), xs[0, N:]
    yy = y / tau * rho_c / rho
    certificate = None
    X_out = SymMat.from_dense(_sym(X / tau))
    if status == "infeasible":
        certificate = {"kind": "primal_infeasible", "y": y * rho_c / rho}
        X_out = None
    elif status == "unbounded":
        certificate = {"kind": "dual_infeasible", "X": X, "w": w}
        X_out = None
    return SdpSolution(
        status=status,
        X=X_out,
        dual_eq=yy[:1],
        dual_ineq=yy[1:],
        value=pobj * rho_c,
        dual_value=dobj * rho_c,
        residuals=(pres, dresr, gap),
        iterations=it,
        certificate=certificate,
        mu_history=tuple(mu_hist),
        slack=w / tau,
    )


# --------------------------------------------------------------------------
# public SdpProblem interface
# --------------------------------------------------------------------------

def _assemble(p: SdpProblem) -> _ConicData:
    """The H row, then one row <B_j,X> - w_j = 0 per member."""
    n, k = p.objective.n, len(p.members)
    return _ConicData(
        n=n,
        p=k,
        Cm=p.objective.to_dense(),
        cw=np.zeros(k),
        Am=dense_stack(packed_stack([p.H, *p.members], n), n),
        Aw=np.vstack([np.zeros((1, k)), np.diag(np.full(k, -1.0))]),
        b=np.concatenate([[1.0], np.zeros(k)]),
    )


def _eigen_answer(p: SdpProblem, tol: float) -> Optional[SdpSolution]:
    """The optimum of p without its member rows, or with the one member row
    that this optimum violates, when it meets every other row; None
    otherwise.

    Without the member rows, min <C,X> s.t. <H,X> = 1, X psd is an
    eigenvalue problem.  With H = V diag(d) V' positive definite (d > 0),
    W = V diag(d)^-1/2 has W'HW = I, and its value is the bottom eigenvalue
    lambda of the pencil (C, H): the bottom eigenvalue of W'CW = U diag(lam)
    U', with eigenvector u, attained by X = vv' with v = Wu.  y0 = lambda
    proves the value, since C - lambda H is psd exactly when W'CW - lambda I
    is.  When the next eigenvalue lies more than tol * max(1, ||C||) above
    lambda, vv' is the only optimum, and when <B_j, vv'> >= 0 for every
    member it is the only optimum of p too, with multipliers 0 on the member
    rows.  The answer reports iterations = 0, residuals (|<H,X> - 1|, 0,
    relative gap of <C,X> and lambda) and the values <B_j, X> as its slacks.

    When vv' violates exactly one row j, the problem with that row alone is
    a trace-one SDP in the basis WU, min <diag(lam), Y> s.t.
    <(WU)'B_j(WU), Y> >= 0, trace Y = 1, which pencil_bounds answers with
    lower <= value <= upper, a feasible Y and the multiplier y of its lower
    bound: C - lower H - y B_j is psd.  X = (WU) Y (WU)' solves p too when
    it meets every row within tol * max(1, ||B_i||) and the gap
    upper - lower is within tol relative to 1 + |upper| + |lower|.  That
    answer reports value upper, dual_eq [lower], y on row j and 0 on the
    others, iterations = 0 and residuals (the largest row violation, 0, the
    relative gap).
    """
    n = p.objective.n
    C, H = p.objective.to_dense(), p.H.to_dense()
    if not np.isfinite(H).all():
        return None
    d, V = np.linalg.eigh(H)
    if not d[0] > 0.0:
        return None
    W = V / np.sqrt(d)
    lam, U = np.linalg.eigh(_sym(W.T @ C @ W))
    if not (lam[1:2] - lam[0] > tol * max(1.0, p.objective.norm())).all():
        return None
    v = W @ U[:, 0]
    B = dense_stack(packed_stack(p.members, n), n)
    rows = B @ v @ v
    violated = np.flatnonzero(~(rows >= 0.0))
    if not violated.size:
        value, y0 = float(v @ C @ v), float(lam[0])
        return SdpSolution(
            status="optimal", X=SymMat.from_dense(np.outer(v, v)),
            dual_eq=np.array([y0]), dual_ineq=np.zeros(len(p.members)),
            value=value, dual_value=y0,
            residuals=(abs(float(v @ H @ v) - 1.0), 0.0,
                       abs(value - y0) / (1.0 + abs(value) + abs(y0))),
            slack=rows)
    if violated.size > 1 or not np.isfinite(B).all():
        return None
    j, WU = violated[0], W @ U
    r = pencil_bounds(np.diag(lam)[None], _sym(WU.T @ B[j] @ WU)[None])
    lower, y, upper = float(r.lower[0]), float(r.y[0]), float(r.upper[0])
    if math.isnan(lower):
        return None
    X = _sym(WU @ r.X[0] @ WU.T)
    rows = np.einsum("kij,ij->k", B, X)
    gap = (upper - lower) / (1.0 + abs(upper) + abs(lower))
    if not ((rows >= -tol * np.maximum(1.0, np.sqrt(np.einsum("kij,kij->k", B, B)))).all()
            and gap <= tol):
        return None
    dual_ineq = np.zeros(len(p.members))
    dual_ineq[j] = y
    pres = max(abs(float(np.sum(H * X)) - 1.0), float(np.max(-rows, initial=0.0)))
    return SdpSolution(
        status="optimal", X=SymMat.from_dense(X), dual_eq=np.array([lower]),
        dual_ineq=dual_ineq, value=upper, dual_value=lower, residuals=(pres, 0.0, gap),
        slack=rows)


def solve(p: SdpProblem, tol: float = DEFAULT_TOL) -> SdpSolution:
    """Solve the SDP; optimal solutions come with primal/dual residuals, and
    infeasibility / unboundedness are reported through Farkas-type
    certificates.  The optimum without the member rows (_eigen_answer)
    answers exactly, with iterations = 0, when it is unique and meets every
    member row, and so does the pencil's optimum with the one row it
    violates, when that optimum meets the others within tol; the
    interior-point core answers otherwise."""
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if not p.objective.is_finite():
        raise ValueError("non-finite objective")
    return _eigen_answer(p, tol) or _conic_solve(_assemble(p), tol=tol)


def relaxation_problem(p: GeoCop) -> SdpProblem:
    """min <Q,X> s.t. <H,X> = 1, <B,X> >= 0 for all members, X psd."""
    return SdpProblem(p.Q, p.H, p.bset.members)


def slater_data(members, n: int) -> _ConicData:
    """max t s.t. X >= t I, <B,X> >= 0, trace X = 1  via  Z = X - t I psd.

    The rows of the trace-one SDP on X = Z + tI: each row matrix A takes
    the column tr A for t, the first entry of w, and the objective is -t.
    """
    d = _assemble(SdpProblem(SymMat.zeros(n), SymMat.identity(n), tuple(members)))
    return replace(d, p=d.p + 1, cw=np.concatenate([[-1.0], d.cw]),
                   Aw=np.column_stack([np.trace(d.Am, axis1=1, axis2=2), d.Aw]))


def _slater_answer(dense: np.ndarray, trace: np.ndarray) -> Optional[tuple]:
    """The Slater SDP with one active member row, in closed form; None when
    no one-row answer meets every row.

    With member j's row alone, X = tI + Z, Z psd, trace Z = 1 - nt, and the
    row reads t tr B_j + <B_j, Z> >= 0, whose largest left side is
    t tr B_j + (1 - nt) lambda with lambda = lambda_max(B_j) and top
    eigenvector v.  For tr B_j < 0 < lambda the largest t is
    t_j = lambda / (n lambda - tr B_j), attained by
    X_j = t_j I + (1 - n t_j) vv', and proved by the dual
    S = (lambda I - B_j) / (n lambda - tr B_j), psd with trace 1, and
    E = -B_j / (n lambda - tr B_j).  Each one-row problem relaxes the whole,
    so t* <= t_j for every j, and t* = t_j for any X_j that meets every row:
    the smallest t_j whose X_j meets every row within the pencil's roundoff
    lean 8 n^2 eps ||B_i|| is the answer, ("optimal", X_j, t_j, E)."""
    if not np.isfinite(dense).all():
        return None
    n = dense.shape[1]
    cand = np.flatnonzero(trace < 0.0)
    lam, vec = np.linalg.eigh(dense[cand])
    top, v = lam[:, -1], vec[:, :, -1]
    # tr B <= n lambda_max(B), so the denominator is positive where top > 0
    ok = top > 0.0
    denom = np.where(ok, n * top - trace[cand], 1.0)
    t = np.where(ok, top / denom, 0.0)[:, None, None]
    X = t * np.eye(n) + (1.0 - n * t) * (v[:, :, None] * v[:, None, :])
    lean = 8.0 * n * n * np.finfo(float).eps * np.sqrt(np.einsum("kij,kij->k", dense, dense))
    met = (np.einsum("kij,cij->ck", dense, X) >= -lean).all(axis=1) & ok
    if not met.any():
        return None
    c = int(np.argmin(np.where(met, t[:, 0, 0], np.inf)))
    return ("optimal", SymMat.from_dense(X[c]), float(t[c, 0, 0]),
            SymMat.from_dense(-dense[cand[c]] / denom[c]))


def solve_slater(members, n: int, tol: float = DEFAULT_TOL):
    """Returns (status, X_star, t_star, E): a max-rank feasible point, its
    margin, and the dual certificate E = -sum_j y_j B_j of the member rows.

    Without the member rows the optimum is X = I/n with t = 1/n, since
    lambda_min(X) <= trace X / n.  When every member has trace B >= 0, I/n
    meets every row, and the answer is exact: ("optimal", I/n, 1/n, 0), with
    multipliers 0 on the member rows.  Otherwise a member row of negative
    trace may be the only active one (_slater_answer), and its closed form
    answers with no interior-point solve.  The core solves the rest at
    min(tol, 1e-9): facial reduction and (A-3) compare t_star with tol
    itself, so the solve is held below it.

    Dual feasibility reads E = S + y0 I with S psd and y_j >= 0, and
    tr E >= 1 + n y0, where y0 = -t_star at the optimum.  So when t_star is
    zero, E is psd within the solve's accuracy and nonzero, and on the
    feasible cone <E, X> = -sum_j y_j <B_j, X> is both <= 0 and >= 0: the
    minimal face lies in the kernel of E.  An infeasible slice gives
    (infeasible, None, -inf, None); a status other than optimal, max_iter
    or infeasible raises ValueError, since no caller can read a margin from
    a failed solve.
    """
    dense = dense_stack(packed_stack(members, n), n)
    trace = np.trace(dense, axis1=1, axis2=2)
    if (trace >= 0.0).all():
        return "optimal", SymMat.identity(n).scale(1.0 / n), 1.0 / n, SymMat.zeros(n)
    answer = _slater_answer(dense, trace)
    if answer is not None:
        return answer
    data = slater_data(members, n)
    sol = _conic_solve(data, tol=min(tol, 1e-9))
    if sol.status == "infeasible":
        return sol.status, None, -math.inf, None
    if sol.status not in ("optimal", "max_iter"):
        raise ValueError("max-rank detection failed with solver status %r" % sol.status)
    t = float(sol.slack[0])
    X = _sym(sol.X.to_dense() + t * np.eye(n))
    E = -np.tensordot(sol.dual_ineq, data.Am[1:], axes=1)
    return sol.status, SymMat.from_dense(X), t, SymMat.from_dense(_sym(E))


# --------------------------------------------------------------------------
# one-member trace-one questions through the pencil A - yG
# --------------------------------------------------------------------------

# stop once upper - lower <= _PENCIL_GAP * max(1, ||A||)
_PENCIL_GAP = 1e-12
# the bracket search gives up past y = 2 ** _PENCIL_DOUBLINGS
_PENCIL_DOUBLINGS = 40
# stacked eigh calls in all; the gap or the float resolution of the bracket
# ends a search long before
_PENCIL_CALLS = 100
# the probes of the first call, and the factors on the low end of an open
# bracket that give the probes of the next
_PENCIL_FIRST = (0.0, 1.0, 2.0)
_PENCIL_GROWTH = (2.0, 4.0, 8.0)


class PencilBounds(NamedTuple):
    """Both ends of min <A,X> s.t. <G,X> >= 0, trace X = 1, X psd for each
    question of a stack, NaN throughout where a question has no answer."""

    lower: np.ndarray   # (P,) lambda_min(A - yG): no feasible X goes below it
    y: np.ndarray       # (P,) the multiplier y >= 0 of lower, its dual certificate
    upper: np.ndarray   # (P,) <A,X> of X
    X: np.ndarray       # (P, n, n) feasible: psd, trace 1, <G,X> >= 0, rank <= 2


def pencil_bounds(A: np.ndarray, G: np.ndarray, band: Optional[tuple] = None) -> PencilBounds:
    """Solve min <A,X> s.t. <G,X> >= 0, trace X = 1, X psd for (P, n, n)
    stacks A and G through its dual, max over y >= 0 of
    phi(y) = lambda_min(A - yG), a concave function of one variable (the
    two-constraint S-lemma; Polik & Terlaky 2007, "A survey of the S-lemma").

    With (lambda_j, v_j) the eigenpairs of A - yG, v = v_0, g(y) = v'Gv is
    nondecreasing, -g is a supergradient of phi (Overton 1992), and where
    lambda_0 is simple g' = 2 sum_{j>0} (v_j'Gv)^2 / (lambda_j - lambda_0).
    Every phi(y) bounds the value below, and
    X = theta v_lo v_lo' + (1 - theta) v_hi v_hi', from two points with
    g(y_lo) < 0 <= g(y_hi), is feasible and bounds it above.  Each stacked
    eigh call probes three points per question:
      - first y = 0, 1 and 2.  When v'Gv >= 0 at y = 0, X = vv' and the two
        ends meet (the constraint is inactive);
      - then, while g < 0 at every point so far, 2, 4 and 8 times the
        largest y.  Past y = 2 ** _PENCIL_DOUBLINGS the question has no
        answer: the supremum is not attained, as when lambda_max(G) <= 0;
      - then a Newton step on g from each end of the bracket, exact where g
        is linear and quadratic near a smooth maximum, and the point where
        the supporting lines of phi at the two ends cross, exact where phi
        is the minimum of two eigenvalue branches (a kink).  A point outside
        the bracket is replaced by its midpoint.
    A question stops once upper - lower <= _PENCIL_GAP * max(1, ||A||), when
    its bracket reaches float resolution, after _PENCIL_CALLS calls, or,
    given `band` = (nonnegative_at, negative_at) as two (P,) arrays, as soon
    as lower >= nonnegative_at or upper <= negative_at.  The stacks shrink to
    the questions still open.

    "g >= 0" reads g >= 8 n^2 eps ||G||, a lean that keeps the computed
    <G,X> nonnegative through roundoff however its sum is taken; theta puts
    <G,X> on the lean.

    Returns PencilBounds: per question, lower the better phi of the two
    bracket ends, y its multiplier, upper = <A,X> and X.  A question has no
    answer, and NaN in all four, when the supremum is not attained or when
    it is still open after _PENCIL_CALLS calls.
    """
    if A.shape != G.shape:
        raise ValueError("dimension mismatch")
    if not (np.isfinite(A).all() and np.isfinite(G).all()):
        raise ValueError("non-finite entries")
    P, n = A.shape[:2]
    eps = np.finfo(float).eps
    out = PencilBounds(np.full(P, np.nan), np.full(P, np.nan), np.full(P, np.nan),
                       np.full((P, n, n), np.nan))
    if P == 0:
        return out
    scale = np.maximum(1.0, np.sqrt(np.einsum("pij,pij->p", A, A)))
    lean = 8.0 * n * n * eps * np.sqrt(np.einsum("pij,pij->p", G, G))
    cut_lo, cut_hi = (np.full(P, np.inf), np.full(P, -np.inf)) if band is None else band
    live, rows, ag = np.arange(P), np.arange(P)[:, None], np.stack((A, G), axis=1)
    # ends[:, 0] is the low end (g < lean) and ends[:, 1] the high end, each
    # as (y, <A,vv'>, g, phi, g', v); a missing end has y = -inf (low) or inf
    # (high), g = y and phi = -inf, so an open bracket keeps growing
    ends = np.zeros((P, 2, 5 + n))
    ends[:, :, :4] = [[-np.inf, 0.0, -np.inf, -np.inf], [np.inf, 0.0, np.inf, -np.inf]]
    ys = np.tile(_PENCIL_FIRST, (P, 1))
    with np.errstate(invalid="ignore", divide="ignore"):  # open brackets compute NaN
        for _ in range(_PENCIL_CALLS):
            lam, vec = np.linalg.eigh(ag[:, None, 0] - ys[:, :, None, None] * ag[:, None, 1])
            v = vec[..., 0]
            agv = np.einsum("pmij,pkj->pkmi", ag, v)
            w = np.einsum("pkji,pkj->pki", vec, agv[:, :, 1])
            slope = 2.0 * np.sum(w[..., 1:] ** 2 / (lam[..., 1:] - lam[..., :1]), axis=2)
            probes = np.concatenate((ys[..., None], np.einsum("pkmi,pki->pkm", agv, v),
                                     lam[..., :1], slope[..., None], v), axis=2)
            # the probes lie inside the bracket, in ascending order: the low end
            # becomes the last low probe, or stays, and the high end the first
            # high one, or stays; indices into (low end, high end, probes)
            high = probes[:, :, 2] >= lean[:, None]
            last_low = 1 + high.shape[1] - np.argmax(~high[:, ::-1], axis=1)
            pick = np.stack((np.where(high.all(axis=1), 0, last_low),
                             np.where(high.any(axis=1), 2 + np.argmax(high, axis=1), 1)), axis=1)
            ends = np.concatenate((ends, probes), axis=1)[rows, pick]
            (yl, al, gl, fl, sl), (yh, ah, gh, fh, sh) = ends[:, 0, :5].T, ends[:, 1, :5].T
            theta = (gh - lean) / (gh - gl)
            upper = theta * al + (1.0 - theta) * ah
            lower = np.maximum(fl, fh)
            done = ((upper - lower <= _PENCIL_GAP * scale) | (yl >= (1.0 - 4.0 * eps) * yh)
                    | (lower >= cut_lo) | (upper <= cut_hi))
            lost = yl >= 2.0 ** _PENCIL_DOUBLINGS
            keep = ~(done | lost)
            if not keep.all():
                # the answers of the questions done, X built for all of them at once
                i, k = np.flatnonzero(done), live[done]
                vl, vh, t = ends[i, 0, 5:], ends[i, 1, 5:], theta[i, None, None]
                out.X[k] = (t * (vl[:, :, None] * vl[:, None, :])
                            + (1.0 - t) * (vh[:, :, None] * vh[:, None, :]))
                out.lower[k], out.upper[k] = lower[i], upper[i]
                out.y[k] = np.where(fl[i] >= fh[i], yl[i], yh[i])
                if not keep.any():
                    break
                live, ag, ends, scale, lean, cut_lo, cut_hi, yl, gl, al, sl, yh, gh, ah, sh = (
                    t[keep] for t in (live, ag, ends, scale, lean, cut_lo, cut_hi,
                                      yl, gl, al, sl, yh, gh, ah, sh))
                rows = rows[:live.size]
            ys = np.stack((yl + (lean - gl) / sl, yh - (gh - lean) / sh,
                           (ah - al) / (gh - gl)), axis=1)
            ys = np.where((ys > yl[:, None]) & (ys < yh[:, None]), ys, ((yl + yh) / 2.0)[:, None])
            ys.sort(axis=1)
            ys = np.where(yh[:, None] < np.inf, ys, yl[:, None] * _PENCIL_GROWTH)
    return out


# --------------------------------------------------------------------------
# pairwise (alpha, beta) certificate, read from the pencil A + yB
# --------------------------------------------------------------------------

def ab_certificates(A: np.ndarray, B: np.ndarray, scale: np.ndarray, tol: float = DEFAULT_TOL):
    """For every pair p, alpha, beta > 0 with alpha*A[p] + beta*B[p] psd.

    A and B are (P, n, n) dense stacks and scale[p] = ||A[p]|| + ||B[p]||.
    A certificate is a y > 0 with lambda_min(A + yB) >= 0, and the maximum
    over y >= 0 of lambda_min(A + yB) is the dual of the refutation problem
    min <A,X> s.t. <B,X> <= 0, trace X = 1 (the two-constraint S-lemma).
    So one pencil_bounds(A, -B) call answers the certificate and the
    refutation together.  Its band stops a pair at its first bracket end
    with lambda_min(A + yB) >= 0; a pair that reaches none runs to
    convergence, as the refutation needs.

    (1, y) is accepted when y > 0 and lambda_min(A + yB) >=
    -tol * min(1, y) * scale.  That is the test lambda_min >= -tol * scale
    applied to the certificate scaled so that its smaller coefficient is 1,
    so it reads the same for the swapped pair and its certificate (1, 1/y).
    A pencil that ends at y = 0 has lambda_min(A) there; when that is
    positive, y = lambda_min(A) / max(2 ||B||_F, lambda_min(A)) keeps
    lambda_min(A + yB) >= lambda_min(A) / 2 (Weyl), and lambda_min(A + yB) is
    evaluated once more for it.

    The search runs on A 2^-a and B 2^-b, each scaled by a power of two to
    a norm in [1/2, 2) (_pow2_exponents), so a pair whose members differ in
    norm by many orders needs no y beyond the pencil's bracket; y, lam and
    the bounds map back exactly (y by 2^(a-b), lam, lower and upper by
    2^a).  A member whose norm is already in [1/2, 2), as normalize and the
    projections of facial reduction leave them, keeps factor 1.

    Returns (y, lam, bounds): the certificate (1, y[p]) of pair p with
    lam[p] = lambda_min(A + y[p] B), both NaN for a pair without one, and
    the PencilBounds of every pair.  Raises ValueError for a pair of
    identical matrices.
    """
    if A.shape != B.shape:
        raise ValueError("dimension mismatch")
    if np.all(A == B, axis=(1, 2)).any():
        raise ValueError("the pair certificate needs two distinct matrices")
    ea, eb = _pow2_exponents(A), _pow2_exponents(B)
    A, B = np.ldexp(A, -ea[:, None, None]), np.ldexp(B, -eb[:, None, None])
    bounds = pencil_bounds(A, -B, (np.zeros(len(A)), np.full(len(A), -np.inf)))
    y, lam = bounds.y.copy(), bounds.lower.copy()
    inside = np.flatnonzero((y == 0.0) & (lam > 0.0))
    if inside.size:
        b = B[inside]
        y[inside] = lam[inside] / np.maximum(2.0 * np.sqrt(np.einsum("pij,pij->p", b, b)),
                                             lam[inside])
        lam[inside] = lambda_min_stack(A[inside] + y[inside, None, None] * b)
    # a y beyond the float range (members some 2^1000 apart in norm) is no
    # certificate
    with np.errstate(over="ignore"):
        y, lam = np.ldexp(y, ea - eb), np.ldexp(lam, ea)
        bounds = bounds._replace(lower=np.ldexp(bounds.lower, ea), y=np.ldexp(bounds.y, ea - eb),
                                 upper=np.ldexp(bounds.upper, ea))
    ok = certificate_holds(y, lam, scale, tol) & np.isfinite(y)
    return np.where(ok, y, np.nan), np.where(ok, lam, np.nan), bounds


def _pow2_exponents(M: np.ndarray) -> np.ndarray:
    """k with ||M[p]|| 2^-k in [1/2, 2) for every matrix of a (P, n, n)
    stack: 0 for a norm already there, and 0 where the norm is 0 or not
    finite.  Scaling by 2^-k is exact."""
    m, k = np.frexp(np.sqrt(np.einsum("pij,pij->p", M, M)))
    return np.where(np.isfinite(m) & (m > 0.0) & ((k < 0) | (k > 1)), k, 0)


def certificate_holds(y, lam, scale, tol: float):
    """The acceptance rule of the pair certificate (1, y), elementwise, with
    lam = lambda_min(A + yB) and scale = ||A|| + ||B||: y > 0 and
    lam >= -tol * min(1, y) * scale."""
    return (y > 0.0) & (lam >= -tol * np.minimum(1.0, y) * scale)


def solve_ab_certificate(a: SymMat, b: SymMat, tol: float = DEFAULT_TOL):
    """The pair certificate of one pair (see ab_certificates): (1.0, tau) with
    A + tau B psd within tol * min(1, tau) * (||A|| + ||B||), or None."""
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    y, _, _ = ab_certificates(a.to_dense()[None], b.to_dense()[None],
                              np.array([a.norm() + b.norm()]), tol)
    return None if math.isnan(y[0]) else (1.0, float(y[0]))
