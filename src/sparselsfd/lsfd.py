"""Large-scale fading decoding: weights and achievable-rate metrics.

The central unit fuses per-AP soft estimates with a weight vector a_k
that depends only on the statistics (A_k, b_k).  The hardening-bound
SINR is |a^H b|^2 / (a^H A a - |a^H b|^2); the SINR-optimal weights are
(A - b b^H)^-1 b, colinear with A^-1 b by the matrix inversion lemma.
"""

from __future__ import annotations

import numpy as np

from .linalg import solve_hermitian_pd


def sinr(a, big_a, b):
    """Hardening-bound SINR of weight vector a for statistics (A, b)."""
    a = np.asarray(a)
    if not np.any(a):
        raise ValueError("weight vector must be nonzero")
    signal = np.abs(np.vdot(a, b)) ** 2
    quad = np.real(np.vdot(a, big_a @ a))
    denom = quad - signal
    if denom <= 0:
        raise ValueError("non-positive SINR denominator; statistics invalid")
    return signal / denom


def se(sinr_value, tau_p, tau_c):
    """Spectral efficiency in bit/s/Hz with the pilot-overhead prelog."""
    if not 0 <= tau_p < tau_c:
        raise ValueError("need 0 <= tau_p < tau_c")
    if sinr_value < 0:
        raise ValueError("SINR must be nonnegative")
    return (1.0 - tau_p / tau_c) * np.log2(1.0 + sinr_value)


def olsfd_weights(big_a, b):
    """SINR-optimal weights (A - b b^H)^-1 b."""
    b = np.asarray(b)
    return solve_hermitian_pd(big_a - np.outer(b, b.conj()), b)


def plsfd_weights(big_a, b, subset):
    """Optimal weights restricted to the APs of an (L,) mask, zero elsewhere."""
    b = np.asarray(b)
    subset = np.asarray(subset)
    if subset.dtype != bool or subset.shape != b.shape:
        raise ValueError("AP subset must be a boolean mask of the length of b")
    if not subset.any():
        raise ValueError("AP subset must select at least one AP")
    a = np.zeros_like(b)
    a[subset] = olsfd_weights(big_a[np.ix_(subset, subset)], b[subset])
    return a


def baseline_association(beta, plan):
    """Heuristic AP-UE association mask used by the partial decoder.

    Every UE is served by its strongest-gain AP; additionally every AP
    serves, for each pilot in use, the strongest-gain UE among that
    pilot's co-pilot set (first maximum on ties).
    """
    beta = np.asarray(beta)
    n_ue, n_ap = beta.shape
    assoc = np.zeros((n_ue, n_ap), dtype=bool)
    assoc[np.arange(n_ue), np.argmax(beta, axis=1)] = True
    for users in plan.copilot:
        if users:
            users = np.asarray(users)
            assoc[users[np.argmax(beta[users], axis=0)], np.arange(n_ap)] = True
    return assoc
