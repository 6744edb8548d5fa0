"""Pilot assignment and MMSE channel estimation.

Pilots are orthogonal sequences of length tau_p reused across UEs when
K > tau_p.  Estimation follows the linear MMSE rule for correlated
Rayleigh fading: co-pilot UEs contaminate each other's observation, and
the estimate and estimation error are independent with covariances B and
C = R - B.

Randomness contract: each AP's channel and pilot-noise realizations are
drawn from one substream keyed by (seed, draw tag, AP, block chunk), with
a fixed block chunk size.  The tag keeps these keys apart from the
geometry stream (seed, 0) of `network`: SeedSequence pads its entropy
with zeros, so an untagged (seed, 0, 0) would be that very stream.  A
chunk's draw is a (blocks, K + tau_p, N) array of CN(0, 1) values,
block-major: rows :K are the UEs' channel innovations and rows K: the
noise of each pilot's observation, unused pilots included, so the layout
depends only on K and tau_p.  Any evaluation order therefore reproduces
identical blocks; block b of an AP never depends on how many blocks are
requested, and AP l's blocks never depend on how many APs there are.
This module alone owns the contract: `draw_blocks` is the one loop over
block chunks, and every Monte Carlo consumer (`estimate_channels`, the
local MMSE statistics in `uplink`) iterates over it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import herm, hermitian_sqrt

# number of coherence blocks drawn per RNG substream; fixed so that block b
# of an AP is the same whatever the number of blocks requested
BLOCK_CHUNK = 256

_TAG_BLOCKS = 1


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
    z = rng.standard_normal(shape + (2,))
    z /= np.sqrt(2.0)
    return z.view(complex)[..., 0]


def _substream(seed, l, chunk):
    key = np.random.SeedSequence([seed, _TAG_BLOCKS, l, chunk])
    return np.random.default_rng(key)


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
    # per-link factors indexed [l, k] and transposed, so that row vectors
    # map as z @ sqrt(R)^T and y @ est^T; sqrt(R) is Hermitian, so its
    # transpose is its conjugate
    sqrt_r_t = np.swapaxes(hermitian_sqrt(instance.R).conj(), 0, 1)
    # sqrt(tau_p rho_p) R Psi^-1 per link
    est_t = np.transpose(amp * instance.R @ np.linalg.inv(stats.Psi), (1, 0, 3, 2))
    # pilot observation y = mix @ h: UE k adds amp h_k to its pilot's row
    mix = np.zeros((plan.tau_p, cfg.K))
    mix[plan.assignment, np.arange(cfg.K)] = amp
    noise_amp = np.sqrt(cfg.noise_var)
    for chunk, start in enumerate(range(0, n_blocks, BLOCK_CHUNK)):
        rows = slice(start, min(start + BLOCK_CHUNK, n_blocks))
        n_in_chunk = rows.stop - start
        for l in range(cfg.L):
            # K-major: UE or pilot first, then blocks and antennas
            z = _complex_normal(
                _substream(seed, l, chunk), (n_in_chunk, cfg.K + plan.tau_p, cfg.N)
            ).swapaxes(0, 1)
            h = z[:cfg.K] @ sqrt_r_t[l]
            y = (mix @ h.reshape(cfg.K, -1)).reshape(plan.tau_p, n_in_chunk, cfg.N)
            noise = z[cfg.K:]
            noise *= noise_amp  # in place: z is this draw's own buffer
            y += noise
            h_hat = y[plan.assignment] @ est_t[l]
            yield rows, l, h.swapaxes(0, 1), h_hat.swapaxes(0, 1)


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
