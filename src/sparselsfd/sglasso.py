"""Sparse-group-lasso design of the decoding weights.

The decoding MSE sum_k a_k^H A_k a_k - 2 Re(a_k^H bbar_k) + const, with
bbar_k = sqrt(p_k) b_k, is penalized with a group l2 term (gamma, one
group per AP, across UEs) and an elementwise l1 term (lambda) to switch
whole APs off and prune per-UE coefficients.  It is solved on the
statistics themselves by cyclic block-coordinate descent over AP groups,
keeping q = A a (one row per UE) as the state: the gradient 2 (q - bbar)
is always at hand, and a group update costs one column of A per UE.
Coefficient l of UE k couples to no other UE, so every group Gram matrix
is diagonal, diag(A[:, l, l]), and each group subproblem is solved
exactly: a soft threshold, a group-zero test, and one scalar secular
equation solved by Newton's method.

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
_Q_REFRESH = 64         # sweeps between exact recomputations of q = A a
_NEWTON_MAX = 64        # secular-equation Newton steps before giving up


@dataclass(frozen=True)
class SparseProblem:
    """Quadratic decoding statistics for all UEs.

    A is the (K, L, L) statistics array, bbar[k] = sqrt(p_k) b_k, and
    const = sum_k bbar_k^H A_k^-1 bbar_k is minus the unpenalized minimum,
    so objective + const >= 0.
    """

    A: np.ndarray        # (K, L, L) complex Hermitian positive definite
    bbar: np.ndarray     # (K, L) complex
    const: float

    def __post_init__(self):
        for arr in (self.A, self.bbar):
            arr.flags.writeable = False

    @property
    def shape(self):
        return self.bbar.shape


@dataclass(frozen=True)
class SolverOptions:
    gamma: float = 0.0
    lam: float = 0.0
    max_sweeps: int = 10_000
    tol_rel: float = 1e-8

    def __post_init__(self):
        if not np.all(np.isfinite((self.gamma, self.lam, self.tol_rel))):
            raise ValueError("gamma, lam and tol_rel must be finite")
        if self.gamma < 0 or self.lam < 0:
            raise ValueError("penalties must be nonnegative")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be at least 1")
        if self.tol_rel < 0:
            raise ValueError("tol_rel must be nonnegative")


@dataclass
class SolverResult:
    a: np.ndarray               # (K, L) weights; row k = UE k
    objective: float            # a^H A a - 2 Re(a^H bbar) + penalties (real-form l1)
    sweeps: int
    kkt_residual: float
    converged: bool
    objective_trace: np.ndarray = field(repr=False, default=None)


def build_problem(stats):
    """Check each A_k is positive definite and form the scaled linear term."""
    big_a = np.asarray(stats.A)
    bbar = np.sqrt(np.asarray(stats.p, dtype=float))[:, None] * np.asarray(stats.b)
    white = np.empty_like(bbar)
    for k in range(bbar.shape[0]):
        try:
            lower = np.linalg.cholesky(big_a[k])
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(
                f"statistics matrix of UE {k} is not positive definite"
            ) from exc
        white[k] = scipy.linalg.solve_triangular(lower, bbar[k], lower=True)
    # bbar_k^H A_k^-1 bbar_k = ||L_k^-1 bbar_k||^2 with A_k = L_k L_k^H
    const = float(np.sum(np.abs(white) ** 2))
    return SparseProblem(A=big_a, bbar=bbar, const=const)


def prox_l1(x, mu):
    """Soft threshold: sign(x) * max(|x| - mu, 0), elementwise (real input)."""
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    x = np.asarray(x)
    return np.sign(x) * np.maximum(np.abs(x) - mu, 0.0)


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
    usum = float(np.sum(usq))
    if usum <= gamma * gamma:
        return np.zeros_like(c)
    if gamma == 0.0:
        return u / (2.0 * g)
    # Newton on 1/||w(t)|| - 1, concave and increasing in t: from t = 0 the
    # iterates rise monotonically to the root, in one step for constant g.
    # The first step is taken in closed form, with gamma cancelled, since
    # ||w(0)|| = ||u|| / gamma overflows when gamma << ||u||.  Early steps
    # can grow by orders of magnitude then, so stop at the root's sign
    # change or once a step no longer moves t.
    t = usum * (np.sqrt(usum) - gamma) / (2.0 * float(np.sum(g * usq)))
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


def _times_a(big_a, a):
    """A a per UE: (K, L) rows of A[k] @ a[k]."""
    return np.einsum("krl,kl->kr", big_a, a)


def _penalty(a, gamma, lam):
    l1 = float(np.sum(np.abs(a.real)) + np.sum(np.abs(a.imag)))  # real form
    return gamma * float(np.sum(np.linalg.norm(a, axis=0))) + lam * l1


def _objective(a, q, bbar, gamma, lam):
    """Re a^H q - 2 Re a^H bbar + Omega(a), with q = A a."""
    return (float(np.vdot(a, q).real) - 2.0 * float(np.vdot(a, bbar).real)
            + _penalty(a, gamma, lam))


def bcd_solve(problem, options=SolverOptions()):
    """Cyclic block-coordinate descent over AP groups.

    Sweeps stop when the relative decrease of objective + const (zero at
    the unpenalized optimum) falls below tol_rel, or max_sweeps is reached
    (converged=False).  The reported objective and trace are
    a^H A a - 2 Re(a^H bbar) + Omega(a).
    """
    big_a, bbar = problem.A, problem.bbar
    n_ue, n_ap = problem.shape
    a = np.zeros((n_ue, n_ap), dtype=complex)
    q = np.zeros((n_ue, n_ap), dtype=complex)   # A a
    diag = np.real(np.diagonal(big_a, axis1=1, axis2=2))
    f_prev = problem.const  # objective + const at a = 0
    trace = [0.0]
    converged = False
    sweeps = 0
    # overflow in a group solve must fail the cell, not return garbage
    with np.errstate(over="raise", invalid="raise"):
        for sweep in range(1, options.max_sweeps + 1):
            sweeps = sweep
            for l in range(n_ap):
                g = diag[:, l]
                al = a[:, l]
                # correlation with the partial residual: group l's own term
                # taken back out of q
                c = bbar[:, l] - q[:, l] + g * al
                new = _group_core(g, c, options.gamma, options.lam)
                delta = new - al
                if np.any(delta):
                    a[:, l] = new
                    q += big_a[:, :, l] * delta[:, None]
            if sweep % _Q_REFRESH == 0:
                q = _times_a(big_a, a)
            obj = _objective(a, q, bbar, options.gamma, options.lam)
            trace.append(obj)
            f_cur = obj + problem.const
            rel = (f_prev - f_cur) / max(abs(f_prev), 1e-30)
            f_prev = f_cur
            if rel < options.tol_rel:
                converged = True
                break
    objective = _objective(a, _times_a(big_a, a), bbar, options.gamma, options.lam)
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

    With the gradient g_l = 2 (A a - bbar)[:, l] of group l: zero groups
    violate by (||soft(-g_l, lam)||_2 - gamma)+; nonzero groups by the
    smallest attainable inf-norm of g_l + gamma u + lam s over valid
    subgradients u, s of the penalties at the current point.  All groups
    are checked at once in the real embedding, one (2K,) column per group.
    """
    a = np.asarray(a)
    grad = 2.0 * (_times_a(problem.A, a) - problem.bbar)
    grad_r = np.concatenate([grad.real, grad.imag])
    a_r = np.concatenate([a.real, a.imag])
    norm = np.linalg.norm(a_r, axis=0)
    zero = norm == 0.0
    w = grad_r + gamma * (a_r / np.where(zero, 1.0, norm))
    per_coord = np.where(
        a_r != 0, np.abs(w + lam * np.sign(a_r)), np.maximum(np.abs(w) - lam, 0.0)
    )
    shrunk = np.linalg.norm(np.maximum(np.abs(grad_r) - lam, 0.0), axis=0)
    viol = np.where(zero, np.maximum(shrunk - gamma, 0.0), per_coord.max(axis=0))
    return float(viol.max())


def reference_solve(problem, gamma, lam, tol, max_iter=500_000):
    """Plain full-vector proximal gradient with a fixed safe step.

    Independent cross-check for bcd_solve: step 1/(2 lmax(A)), prox of the
    full penalty applied groupwise plus elementwise, stopping when the
    relative decrease of objective + const drops below tol/100.  Simple on
    purpose; slow on badly conditioned problems.
    """
    if gamma < 0 or lam < 0 or tol <= 0:
        raise ValueError("penalties must be nonnegative and tol positive")
    big_a, bbar = problem.A, problem.bbar
    step = 1.0 / (2.0 * np.linalg.eigvalsh(big_a)[:, -1].max())
    a = np.zeros(problem.shape, dtype=complex)
    q = np.zeros(problem.shape, dtype=complex)   # A a
    f_prev = problem.const
    trace = [0.0]
    converged = False
    iters = 0
    threshold = tol / 100.0
    for it in range(1, max_iter + 1):
        iters = it
        grad = 2.0 * (q - bbar)
        z = a - step * grad
        re, im = prox_l1(z.real, step * lam), prox_l1(z.imag, step * lam)
        nrm = np.sqrt(np.sum(re * re + im * im, axis=0))
        scale = np.where(nrm > step * gamma, 1.0 - step * gamma / np.maximum(nrm, 1e-300), 0.0)
        a = (re + 1j * im) * scale
        q = _times_a(big_a, a)
        obj = _objective(a, q, bbar, gamma, lam)
        trace.append(obj)
        f_cur = obj + problem.const
        rel = (f_prev - f_cur) / max(abs(f_prev), 1e-30)
        f_prev = f_cur
        if rel < threshold:
            converged = True
            break
    return SolverResult(
        a=a,
        objective=trace[-1],
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
