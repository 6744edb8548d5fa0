"""Correctness checks on a sparselsfd run, computed apart from the program.

Each check takes plain arrays or the parsed diagnostics and returns a list
of failure messages (empty when the check passes).  The quantities the
program reports are recomputed here with numpy directly from the decoding
statistics (A_k, b_k), never through the program's own solvers, or are
tested against a property the method must have.
"""

from __future__ import annotations

import numpy as np

# relative slack for identities that hold exactly in exact arithmetic
REL_TOL = 1e-8
# Monte Carlo mean test: |b_kl - sqrt(p_k) tr(B_kl)| <= MC_SIGMAS * stderr
MC_SIGMAS = 6.0


def _se_from_sinr(sinr, tau_p, tau_c):
    return (1.0 - tau_p / tau_c) * np.log2(1.0 + sinr)


def se_below_optimal(diag):
    """Every design's per-UE SE is at most the optimal decoder's SE.

    Checks each sparse cell and the partial decoder against the optimal
    (OLSFD) per-UE SE of the same drop, setup and combiner.
    """
    failures = []
    optimal = {
        (b["setup"], b["combiner"], b["drop"]): np.asarray(b["olsfd"]["per_ue_se"])
        for b in diag["baselines"]
    }
    designs = [
        ((b["setup"], b["combiner"], b["drop"]), "partial decoder", b["plsfd"]["per_ue_se"])
        for b in diag["baselines"]
    ]
    designs += [
        ((c["setup"], c["combiner"], c["drop"]),
         f"cell lambda={c['lambda']:g} gamma={c['gamma']:g}", c["per_ue_se"])
        for c in diag["cells"]
        if c["per_ue_se"] is not None
    ]
    for key, label, per_ue in designs:
        best = optimal[key]
        excess = np.asarray(per_ue) - best
        worst = int(np.argmax(excess))
        if excess[worst] > REL_TOL * (1.0 + best[worst]):
            failures.append(
                f"{key} {label}: UE {worst} SE {per_ue[worst]:.12g} exceeds "
                f"optimal {best[worst]:.12g}"
            )
    return failures


def residual_covariance_pd(big_a, b):
    """A_k - b_k b_k^H is positive definite for every UE k.

    The diagonal of A_k spans many orders of magnitude (far APs contribute
    almost nothing), so the test is made on the matrix scaled to unit
    diagonal, whose eigenvalues do not depend on those scales.
    """
    failures = []
    for k in range(b.shape[0]):
        m = big_a[k] - np.outer(b[k], b[k].conj())
        diag = np.real(np.diag(m))
        if diag.min() <= 0.0:
            failures.append(f"UE {k}: A - b b^H has diagonal entry {diag.min():.3e}")
            continue
        scale = 1.0 / np.sqrt(diag)
        m = m * scale[:, None] * scale[None, :]
        eig = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
        if eig[0] <= 1e-12:
            failures.append(
                f"UE {k}: A - b b^H scaled to unit diagonal has eigenvalue {eig[0]:.3e}"
            )
    return failures


def optimal_se_matches(big_a, b, reported_se, tau_p, tau_c):
    """Optimal SE equals log2(1 + beta/(1 - beta)), beta = b^H A^-1 b."""
    failures = []
    for k in range(b.shape[0]):
        beta = float(np.real(np.vdot(b[k], np.linalg.solve(big_a[k], b[k]))))
        if not 0.0 <= beta < 1.0:
            failures.append(f"UE {k}: b^H A^-1 b = {beta:.6g} outside [0, 1)")
            continue
        expected = _se_from_sinr(beta / (1.0 - beta), tau_p, tau_c)
        if abs(reported_se[k] - expected) > 1e-6 * (1.0 + expected):
            failures.append(
                f"UE {k}: optimal SE {reported_se[k]:.12g}, recomputed {expected:.12g}"
            )
    return failures


def mr_mean_within_stderr(b, p, big_b, big_r, n_blocks, sigmas=MC_SIGMAS):
    """MR: b_kl is within `sigmas` Monte Carlo standard errors of its mean.

    With MR combining E{v_kl^H h_kl} = tr(B_kl), and the per-block variance
    of hhat^H h is tr(B_kl R_kl), so the sample mean over n_blocks has
    standard error sqrt(p_k) sqrt(tr(B_kl R_kl) / n_blocks).
    """
    failures = []
    root_p = np.sqrt(np.asarray(p, dtype=float))[:, None]
    mean = root_p * np.real(np.trace(big_b, axis1=-2, axis2=-1))
    var = np.real(np.einsum("klij,klji->kl", big_b, big_r))
    stderr = root_p * np.sqrt(np.maximum(var, 0.0) / n_blocks)
    dev = np.abs(b - mean)
    bad = dev > sigmas * stderr + 1e-12 * np.abs(mean).max()
    for k, l in zip(*np.nonzero(bad)):
        failures.append(
            f"b[{k},{l}] = {b[k, l]:.6g}: {dev[k, l] / stderr[k, l]:.1f} standard "
            f"errors from sqrt(p) tr(B) = {mean[k, l]:.6g}"
        )
    return failures


def unpenalized_minimum(big_a, b, p):
    """-sum_k bbar_k^H A_k^-1 bbar_k with bbar_k = sqrt(p_k) b_k."""
    total = 0.0
    for k in range(b.shape[0]):
        bbar = np.sqrt(p[k]) * b[k]
        total += float(np.real(np.vdot(bbar, np.linalg.solve(big_a[k], bbar))))
    return -total


def objective_in_range(objective, lower):
    """A cell's objective lies between the unpenalized minimum and 0."""
    slack = REL_TOL * (1.0 + abs(lower))
    if not lower - slack <= objective <= slack:
        return [f"objective {objective:.12g} outside [{lower:.12g}, 0]"]
    return []


def kkt_violation(a, big_a, b, p, gamma, lam):
    """Largest violation of the sparse-group-lasso optimality conditions.

    The smooth part sum_k a_k^H A_k a_k - 2 Re(a_k^H bbar_k) has gradient
    2 (A_k a_k - bbar_k); coordinates are taken in the real embedding
    [Re; Im] of each AP group (one column of a across UEs).  A zero group
    violates by (||soft(-g, lam)|| - gamma)+; on a nonzero group each
    coordinate must be cancelled by gamma a/||a|| + lam sign(a), or, where
    the coordinate is zero, by lam times a subgradient in [-1, 1].
    """
    a = np.asarray(a)
    bbar = np.sqrt(np.asarray(p))[:, None] * b
    grad = 2.0 * (np.einsum("kij,kj->ki", big_a, a) - bbar)
    worst = 0.0
    for l in range(a.shape[1]):
        g = np.concatenate([grad[:, l].real, grad[:, l].imag])
        x = np.concatenate([a[:, l].real, a[:, l].imag])
        norm = np.linalg.norm(x)
        if norm == 0.0:
            soft = np.maximum(np.abs(g) - lam, 0.0)
            viol = max(np.linalg.norm(soft) - gamma, 0.0)
        else:
            w = g + gamma * x / norm
            viol = np.max(np.where(
                x != 0.0,
                np.abs(w + lam * np.sign(x)),
                np.maximum(np.abs(w) - lam, 0.0),
            ))
        worst = max(worst, float(viol))
    return worst


def kkt_matches(a, big_a, b, p, gamma, lam, reported):
    """The recomputed KKT violation agrees with the program's kkt_residual."""
    mine = kkt_violation(a, big_a, b, p, gamma, lam)
    scale = 1.0 + float(np.linalg.norm(np.sqrt(p)[:, None] * b))
    if abs(mine - reported) > 1e-6 * (scale + reported):
        return [f"KKT residual {reported:.9g}, recomputed {mine:.9g}"]
    return []


def same_bytes(first, second, label):
    """Two output files are byte-identical."""
    if first != second:
        return [f"{label} differs ({len(first)} vs {len(second)} bytes)"]
    return []
