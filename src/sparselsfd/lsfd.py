"""Large-scale fading decoding: weights and achievable-rate metrics.

The central unit fuses per-AP soft estimates with a weight vector a_k
that depends only on the statistics (A_k, b_k).  The hardening-bound
SINR is |a^H b|^2 / (a^H A a - |a^H b|^2); the SINR-optimal weights are
(A - b b^H)^-1 b, colinear with A^-1 b by the matrix inversion lemma.
"""

from __future__ import annotations

import numpy as np

from .linalg import solve_hermitian_pd
from .power_energy import Association


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
    """Optimal weights restricted to an AP subset, zero elsewhere."""
    subset = np.asarray(subset, dtype=int)
    if subset.size == 0:
        raise ValueError("AP subset must be nonempty")
    if subset.size != np.unique(subset).size:
        raise ValueError("AP subset must not repeat indices")
    b = np.asarray(b)
    if np.any(subset < 0) or np.any(subset >= b.size):
        raise ValueError("AP subset out of range")
    a = np.zeros_like(b)
    sub = np.ix_(subset, subset)
    a[subset] = solve_hermitian_pd(
        big_a[sub] - np.outer(b[subset], b[subset].conj()), b[subset]
    )
    return a


def baseline_association(beta, plan):
    """Heuristic AP-UE association used by the partial decoder.

    Every UE is served by its strongest-gain AP; additionally every AP
    serves, for each pilot in use, the strongest-gain UE among that
    pilot's co-pilot set.
    """
    beta = np.asarray(beta)
    n_ue, n_ap = beta.shape
    serving = [set() for _ in range(n_ue)]
    for k in range(n_ue):
        serving[k].add(int(np.argmax(beta[k])))
    for l in range(n_ap):
        for users in plan.copilot:
            if not users:
                continue
            users = list(users)
            k = int(users[np.argmax(beta[users, l])])
            serving[k].add(l)
    return Association.from_serving(
        [np.array(sorted(m), dtype=int) for m in serving], n_ap
    )
