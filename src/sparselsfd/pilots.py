"""Pilot assignment and MMSE channel estimation.

Pilots are orthogonal sequences of length tau_p reused across UEs when
K > tau_p.  Estimation follows the linear MMSE rule for correlated
Rayleigh fading: co-pilot UEs contaminate each other's observation, and
the estimate and estimation error are independent with covariances B and
C = R - B.

Randomness contract: channel and pilot-noise realizations are drawn from
substreams keyed by (seed, tag, link, chunk) with a fixed block chunk
size, so any evaluation order reproduces identical blocks, and block b
of a given link never depends on how many blocks are requested.  This
module alone owns the contract: `draw_blocks` is the one loop over block
chunks, and every Monte Carlo consumer (`estimate_channels`, the local
MMSE statistics in `uplink`) iterates over it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import herm, hermitian_sqrt

# number of coherence blocks drawn per RNG substream; fixed so that block b
# of a link is the same whatever the number of blocks requested
BLOCK_CHUNK = 256

_TAG_CHANNEL = 1
_TAG_PILOT_NOISE = 2


@dataclass(frozen=True)
class PilotPlan:
    """Pilot assignment plus the pilot length and power it was built for."""

    tau_p: int
    rho_p: float
    assignment: np.ndarray       # (K,) pilot index of each UE
    copilot: tuple               # per pilot, sorted array of UEs using it

    def __post_init__(self):
        self.assignment.flags.writeable = False


@dataclass(frozen=True)
class EstimationStats:
    """Per-link MMSE estimation statistics.

    Psi[k, l] is the pilot-observation covariance for UE k's pilot at AP l,
    B[k, l] the estimate covariance, C[k, l] = R[k, l] - B[k, l] the error
    covariance.
    """

    Psi: np.ndarray  # (K, L, N, N)
    B: np.ndarray    # (K, L, N, N)
    C: np.ndarray    # (K, L, N, N)

    def __post_init__(self):
        for arr in (self.Psi, self.B, self.C):
            arr.flags.writeable = False


def assign_pilots(beta, tau_p, rho_p=0.1, tau_c=200):
    """Assign pilots: orthogonal when K <= tau_p, else interference-greedy.

    The first tau_p UEs get distinct pilots; each remaining UE picks the
    pilot with the least co-pilot gain sum at its strongest AP (ties to
    the lowest pilot index).
    """
    beta = np.asarray(beta)
    n_ue = beta.shape[0]
    if tau_p <= 0:
        raise ValueError("tau_p must be positive")
    if not 0 < tau_p < tau_c:
        raise ValueError("need 0 < tau_p < tau_c")
    if rho_p <= 0:
        raise ValueError("rho_p must be positive")
    assignment = np.empty(n_ue, dtype=int)
    first = min(tau_p, n_ue)
    assignment[:first] = np.arange(first)
    for k in range(first, n_ue):
        strongest = int(np.argmax(beta[k]))
        load = np.zeros(tau_p)
        for t in range(tau_p):
            users = np.flatnonzero(assignment[:k] == t)
            load[t] = beta[users, strongest].sum()
        assignment[k] = int(np.argmin(load))
    copilot = tuple(
        tuple(int(k) for k in np.flatnonzero(assignment == t))
        for t in range(tau_p)
    )
    return PilotPlan(
        tau_p=tau_p, rho_p=rho_p, assignment=assignment, copilot=copilot,
    )


def estimation_stats(instance, plan):
    """MMSE estimation covariances for every UE-AP link.

    Psi_tl = sum_{i in S_t} tau_p rho_p R_il + noise_var I,
    B_kl = tau_p rho_p R_kl Psi^-1 R_kl, C_kl = R_kl - B_kl.
    """
    cfg = instance.cfg
    scale = plan.tau_p * plan.rho_p
    eye = cfg.noise_var * np.eye(cfg.N)
    # Psi depends only on (pilot, AP); computed once per pilot then spread
    psi = np.stack([
        scale * instance.R[list(users)].sum(axis=0) + eye for users in plan.copilot
    ])[plan.assignment]
    big_b = scale * instance.R @ np.linalg.solve(psi, instance.R)
    big_b = 0.5 * (big_b + herm(big_b))
    return EstimationStats(Psi=psi, B=big_b, C=instance.R - big_b)


def _complex_normal(rng, shape):
    """CN(0, 1) iid samples, interleaved so leading blocks are prefix-stable."""
    return rng.standard_normal(shape + (2,)).view(complex)[..., 0] / np.sqrt(2.0)


def _substream(seed, tag, i, j, chunk):
    return np.random.default_rng(np.random.SeedSequence([seed, tag, i, j, chunk]))


def draw_blocks(instance, plan, stats, seed, n_blocks):
    """Iterate over channel draws and their MMSE estimates, one AP at a time.

    Yields (rows, l, h, h_hat) chunk by chunk, and AP by AP within a chunk:
    rows is the slice of block indices of the chunk, and h, h_hat are the
    (rows, K, N) channels and estimates at AP l.  This is the only loop
    over block chunks, so every consumer sees the same blocks.
    """
    if n_blocks <= 0:
        raise ValueError("n_blocks must be positive")
    cfg = instance.cfg
    amp = np.sqrt(plan.tau_p * plan.rho_p)
    sqrt_r = hermitian_sqrt(instance.R)
    # sqrt(tau_p rho_p) R Psi^-1 per link
    est = amp * instance.R @ np.linalg.inv(stats.Psi)
    for chunk, start in enumerate(range(0, n_blocks, BLOCK_CHUNK)):
        rows = slice(start, min(start + BLOCK_CHUNK, n_blocks))
        n_in_chunk = rows.stop - start
        for l in range(cfg.L):
            h = np.empty((n_in_chunk, cfg.K, cfg.N), dtype=complex)
            for k in range(cfg.K):
                rng = _substream(seed, _TAG_CHANNEL, k, l, chunk)
                z = _complex_normal(rng, (n_in_chunk, cfg.N))
                h[:, k] = z @ sqrt_r[k, l].T
            h_hat = np.empty_like(h)
            for t, users in enumerate(plan.copilot):
                if not users:
                    continue
                rng = _substream(seed, _TAG_PILOT_NOISE, t, l, chunk)
                noise = _complex_normal(rng, (n_in_chunk, cfg.N))
                y = amp * h[:, list(users)].sum(axis=1) + np.sqrt(cfg.noise_var) * noise
                for k in users:
                    h_hat[:, k] = y @ est[k, l].T
            yield rows, l, h, h_hat


def estimate_channels(instance, plan, stats, seed, n_blocks=1):
    """Draw channel realizations and their MMSE estimates for n_blocks blocks.

    Returns (h, h_hat), each (n_blocks, K, L, N) complex.  Block b is
    reproducible for a given seed regardless of n_blocks >= b.
    """
    if n_blocks <= 0:
        raise ValueError("n_blocks must be positive")
    cfg = instance.cfg
    h = np.empty((n_blocks, cfg.K, cfg.L, cfg.N), dtype=complex)
    h_hat = np.empty_like(h)
    for rows, l, h_l, h_hat_l in draw_blocks(instance, plan, stats, seed, n_blocks):
        h[rows, :, l] = h_l
        h_hat[rows, :, l] = h_hat_l
    return h, h_hat
