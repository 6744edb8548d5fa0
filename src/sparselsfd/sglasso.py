"""Sparse-group-lasso design of the decoding weights.

The decoding MSE a^H A a - 2 Re(a^H b) + const is penalized with a group
l2 term (gamma, one group per AP, across UEs) and an elementwise l1 term
(lambda) to switch whole APs off and prune per-UE coefficients.  With
per-UE Cholesky factors A_k = Abar_k^H Abar_k the problem becomes a
penalized least squares ||bbar - Abar a||^2 + Omega(a), solved by cyclic
block-coordinate descent over AP groups.  Every group Gram matrix is
diagonal, so each group subproblem is solved exactly: a soft threshold,
a group-zero test, and one scalar secular equation solved by Newton's
method.

All norms are taken in the real embedding [Re; Im] of the coefficients
(an exact isometry for the fit and the group l2 term; the l1 term is the
real-form |Re| + |Im| penalty, which upper-bounds the complex modulus
l1).  A coefficient is zero iff both parts are exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .linalg import NotPositiveDefiniteError

ZERO_SNAP = 1e-12       # coefficients below this modulus snap to exact zero
_RESID_REFRESH = 64     # sweeps between exact residual recomputations
_NEWTON_MAX = 64        # secular-equation Newton steps before giving up


@dataclass(frozen=True)
class SparseProblem:
    """Whitened penalized least squares for all UEs.

    chol[k] is the upper-triangular factor with A_k = chol[k]^H chol[k];
    target[k] solves chol[k]^H target[k] = sqrt(p_k) b_k.  gram[k, l] is
    the squared norm of column l of chol[k]; the group Gram matrices are
    exactly diagonal because the per-UE blocks are decoupled.
    """

    chol: np.ndarray     # (K, L, L) complex, upper triangular
    target: np.ndarray   # (K, L) complex
    p: np.ndarray        # (K,) transmit powers
    gram: np.ndarray     # (K, L) real

    def __post_init__(self):
        for arr in (self.chol, self.target, self.p, self.gram):
            arr.flags.writeable = False

    @property
    def shape(self):
        return self.target.shape

    def target_sq(self):
        """||bbar||^2, the constant between the factored and quadratic forms."""
        return float(np.sum(np.abs(self.target) ** 2))


@dataclass(frozen=True)
class SolverOptions:
    gamma: float = 0.0
    lam: float = 0.0
    max_sweeps: int = 10_000
    tol_rel: float = 1e-8

    def __post_init__(self):
        if self.gamma < 0 or self.lam < 0:
            raise ValueError("penalties must be nonnegative")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be at least 1")
        if self.tol_rel < 0:
            raise ValueError("tol_rel must be nonnegative")


@dataclass
class SolverResult:
    a: np.ndarray               # (K, L) weights; row k = UE k
    objective: float            # a^H A a - 2 Re(a^H b) + penalties (real-form l1)
    sweeps: int
    kkt_residual: float
    converged: bool
    objective_trace: np.ndarray = field(repr=False, default=None)


def build_problem(stats):
    """Factor per-UE statistics into the whitened least-squares form."""
    big_a = np.asarray(stats.A)
    b = np.asarray(stats.b)
    p = np.asarray(stats.p, dtype=float)
    n_ue, n_ap = b.shape
    chol = np.empty_like(big_a)
    target = np.empty_like(b)
    for k in range(n_ue):
        try:
            lower = np.linalg.cholesky(big_a[k])
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(
                f"statistics matrix of UE {k} is not positive definite"
            ) from exc
        chol[k] = lower.conj().T
        target[k] = scipy.linalg.solve_triangular(
            lower, np.sqrt(p[k]) * b[k], lower=True
        )
    gram = np.sum(np.abs(chol) ** 2, axis=1)
    return SparseProblem(chol=chol, target=target, p=p.copy(), gram=gram)


def prox_l1(x, mu):
    """Soft threshold: sign(x) * max(|x| - mu, 0), elementwise (real input)."""
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    x = np.asarray(x)
    return np.sign(x) * np.maximum(np.abs(x) - mu, 0.0)


def prox_l2(x, mu):
    """Block shrinkage: scale x to norm (||x|| - mu)+, zero inside the ball."""
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    x = np.asarray(x, dtype=float)
    nrm = np.linalg.norm(x)
    if nrm <= mu:
        return np.zeros_like(x)
    return x * (1.0 - mu / nrm)


def prox_composite(x, mu, gamma, lam):
    """Prox of mu*(gamma ||.||_2 + lam ||.||_1): l2 shrinkage after soft threshold."""
    return prox_l2(prox_l1(x, mu * lam), mu * gamma)


def _l1_realform(a):
    return float(np.sum(np.abs(a.real)) + np.sum(np.abs(a.imag)))


def _group_core(g, c, gamma, lam):
    """Exact minimizer of one group subproblem.

    Minimizes sum_k g_k |alpha_k|^2 - 2 Re(c^H alpha) + gamma ||alpha|| +
    lam * l1(real form), where g > 0 is the (diagonal) group Gram and c the
    group correlation with the partial residual.  With u = soft(2c, lam)
    on both parts, the group is zero iff ||u|| <= gamma; otherwise
    alpha = u t / (2 g t + gamma) with t = ||alpha|| the root of
    ||u / (2 g t + gamma)|| = 1.
    """
    u = prox_l1(2.0 * c.real, lam) + 1j * prox_l1(2.0 * c.imag, lam)
    usq = u.real ** 2 + u.imag ** 2
    if float(np.sum(usq)) <= gamma * gamma:
        return np.zeros_like(c)
    if gamma == 0.0:
        return u / (2.0 * g)
    # Newton on 1/||w(t)|| - 1, concave and increasing in t: from t = 0 the
    # iterates rise monotonically to the root, in one step for constant g.
    # Early steps can grow by orders of magnitude when gamma << ||u||, so
    # stop at the root's sign change or once a step no longer moves t.
    t = 0.0
    for _ in range(_NEWTON_MAX):
        d = 2.0 * g * t + gamma
        h = float(np.sum(usq / d ** 2))  # ||w(t)||^2
        root = np.sqrt(h)
        if root <= 1.0:
            break
        step = h * (root - 1.0) / (2.0 * float(np.sum(g * usq / d ** 3)))
        if t + step == t:
            break
        t += step
    else:
        raise FloatingPointError("group secular equation did not converge")
    return u * (t / (2.0 * g * t + gamma))


def _apply_factors(chol, a):
    """Abar a per UE: (K, L) rows of chol[k] @ a[k]."""
    return np.einsum("krl,kl->kr", chol, a)


def _penalty(a, gamma, lam):
    return gamma * float(np.sum(np.linalg.norm(a, axis=0))) + lam * _l1_realform(a)


def bcd_solve(problem, options=SolverOptions()):
    """Cyclic block-coordinate descent over AP groups.

    Sweeps stop when the relative decrease of the factored objective
    ||target - Abar a||^2 + Omega(a) falls below tol_rel, or max_sweeps is
    reached (converged=False).  The reported objective and trace are in
    the quadratic form a^H A a - 2 Re(a^H b) + Omega(a).
    """
    n_ue, n_ap = problem.shape
    a = np.zeros((n_ue, n_ap), dtype=complex)
    resid = problem.target.copy()
    const = problem.target_sq()
    f_prev = const  # factored objective at a = 0
    trace = [f_prev - const]
    converged = False
    sweeps = 0
    # overflow in a group solve must fail the cell, not return garbage
    with np.errstate(over="raise", invalid="raise"):
        for sweep in range(1, options.max_sweeps + 1):
            sweeps = sweep
            for l in range(n_ap):
                cols = problem.chol[:, :, l]
                al = a[:, l]
                # c = cols^H r_l with r_l = resid + cols * al; diagonal Gram
                c = np.einsum("kr,kr->k", cols.conj(), resid) + problem.gram[:, l] * al
                new = _group_core(problem.gram[:, l], c, options.gamma, options.lam)
                delta = new - al
                if np.any(delta):
                    a[:, l] = new
                    resid -= cols * delta[:, None]
            if sweep % _RESID_REFRESH == 0:
                resid = problem.target - _apply_factors(problem.chol, a)
            f_cur = float(np.sum(np.abs(resid) ** 2)) + _penalty(
                a, options.gamma, options.lam
            )
            trace.append(f_cur - const)
            rel = (f_prev - f_cur) / max(abs(f_prev), 1e-30)
            f_prev = f_cur
            if rel < options.tol_rel:
                converged = True
                break
    resid = problem.target - _apply_factors(problem.chol, a)
    objective = float(np.sum(np.abs(resid) ** 2)) - const + _penalty(
        a, options.gamma, options.lam
    )
    return SolverResult(
        a=a,
        objective=objective,
        sweeps=sweeps,
        kkt_residual=kkt_residual(a, problem, options.gamma, options.lam),
        converged=converged,
        objective_trace=np.asarray(trace),
    )


def kkt_residual(a, problem, gamma, lam):
    """Max group violation of the first-order optimality conditions.

    Zero groups: (||soft(-g_l, lam)||_2 - gamma)+.  Nonzero groups: the
    smallest attainable inf-norm of g_l + gamma u + lam s over valid
    subgradients u, s of the penalties at the current point.
    """
    a = np.asarray(a)
    n_ap = a.shape[1]
    resid = problem.target - _apply_factors(problem.chol, a)
    worst = 0.0
    for l in range(n_ap):
        cols = problem.chol[:, :, l]
        grad = -2.0 * np.einsum("kr,kr->k", cols.conj(), resid)
        grad_r = np.concatenate([grad.real, grad.imag])
        al_r = np.concatenate([a[:, l].real, a[:, l].imag])
        if not np.any(al_r):
            viol = max(np.linalg.norm(prox_l1(-grad_r, lam)) - gamma, 0.0)
        else:
            u = al_r / np.linalg.norm(al_r)
            w = grad_r + gamma * u
            on = al_r != 0
            per_coord = np.where(
                on,
                np.abs(w + lam * np.sign(al_r)),
                np.maximum(np.abs(w) - lam, 0.0),
            )
            viol = float(per_coord.max())
        worst = max(worst, viol)
    return float(worst)


def _power_lmax(chol, iters=500, rtol=1e-10):
    """Largest eigenvalue of A = Abar^H Abar by power iteration (inflated 2%)."""
    n_ue, n_ap = chol.shape[0], chol.shape[2]
    rng = np.random.default_rng(np.random.SeedSequence([0x1A57]))
    x = rng.standard_normal((n_ue, n_ap)) + 1j * rng.standard_normal((n_ue, n_ap))
    x /= np.linalg.norm(x)
    est = 0.0
    for _ in range(iters):
        y = np.einsum("krl,kl->kr", chol, x)
        z = np.einsum("krl,kr->kl", chol.conj(), y)
        new = float(np.real(np.vdot(x, z)))
        nz = np.linalg.norm(z)
        if nz == 0.0:
            return 1e-30
        x = z / nz
        if abs(new - est) <= rtol * max(new, 1e-30):
            est = new
            break
        est = new
    return est * 1.02


def reference_solve(problem, gamma, lam, tol, max_iter=500_000):
    """Plain full-vector proximal gradient with a fixed safe step.

    Independent cross-check for bcd_solve: step 1/(2 lmax(A)), prox of the
    full penalty applied groupwise plus elementwise, stopping when the
    relative objective decrease drops below tol/100.  Simple on purpose;
    slow on badly conditioned problems.
    """
    if gamma < 0 or lam < 0 or tol <= 0:
        raise ValueError("penalties must be nonnegative and tol positive")
    n_ue, n_ap = problem.shape
    step = 1.0 / (2.0 * _power_lmax(problem.chol))
    a = np.zeros((n_ue, n_ap), dtype=complex)
    resid = problem.target.copy()
    const = problem.target_sq()
    f_prev = const
    trace = [f_prev - const]
    converged = False
    iters = 0
    threshold = tol / 100.0
    for it in range(1, max_iter + 1):
        iters = it
        grad = -2.0 * np.einsum("krl,kr->kl", problem.chol.conj(), resid)
        z = a - step * grad
        re = np.sign(z.real) * np.maximum(np.abs(z.real) - step * lam, 0.0)
        im = np.sign(z.imag) * np.maximum(np.abs(z.imag) - step * lam, 0.0)
        y = re + 1j * im
        nrm = np.sqrt(np.sum(re * re + im * im, axis=0))
        scale = np.where(nrm > step * gamma, 1.0 - step * gamma / np.maximum(nrm, 1e-300), 0.0)
        a = y * scale
        resid = problem.target - _apply_factors(problem.chol, a)
        f_cur = float(np.sum(np.abs(resid) ** 2)) + _penalty(a, gamma, lam)
        trace.append(f_cur - const)
        rel = (f_prev - f_cur) / max(abs(f_prev), 1e-30)
        f_prev = f_cur
        if rel < threshold:
            converged = True
            break
    objective = f_prev - const
    return SolverResult(
        a=a,
        objective=objective,
        sweeps=iters,
        kkt_residual=kkt_residual(a, problem, gamma, lam),
        converged=converged,
        objective_trace=np.asarray(trace),
    )


def snap_zeros(a, tol=ZERO_SNAP):
    """Set coefficients with modulus below tol to exact zero (copy)."""
    out = np.array(a)
    out[np.abs(out) < tol] = 0.0
    return out
