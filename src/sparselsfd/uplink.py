"""Uplink combining and the decoding statistics.

Each AP combines locally (MR or local MMSE) and forwards per-UE soft
estimates; the central unit fuses them with weights based only on
statistics.  This module computes those statistics: for UE k,
A_k = sum_i p_i E{g_ki g_ki^H} + noise_var diag(E||v_k1||^2, ...),
b_k = sqrt(p_k) E{g_kk}, with g_ki the vector of g_kil = v_kl^H h_il
across APs.

Channels of different APs are independent, and a local combiner v_kl
depends only on what AP l observes, so g_kil and g_kil' are independent
for l != l'.  E{g_ki g_ki^H} is therefore the outer product of the
per-AP means E{g_kil} off the diagonal and holds the per-AP second
moments E|g_kil|^2 on it.  The two combiners differ only in how the
per-AP moments E{g_kil}, E|g_kil|^2 and E||v_kl||^2 are obtained.

MR (v_kl = hhat_kl, the MMSE estimate under correlated Rayleigh fading)
has them in closed form.  With s = tau_p rho_p and Psi_kl the covariance
of UE k's pilot observation at AP l:
  E{g_kil}    = s tr(Psi_kl^-1 R_kl R_il) if UE i shares UE k's pilot
                (tr(B_kl) for i = k), else 0;
  E|g_kil|^2  = tr(R_il B_kl) + |E{g_kil}|^2;
  E||v_kl||^2 = tr(B_kl).
The second follows from E|x^H Q x|^2 = |tr Q S|^2 + tr(Q S Q^H S) for a
circular Gaussian x with covariance S.  MR draws no random numbers.

Local MMSE has no closed form, so its moments are Monte Carlo sample
means over coherence blocks, drawn one AP at a time under the randomness
contract of `pilots` (never an L x L sample outer product).  Per-chunk
partial sums are added in chunk order, so a given seed and block count
always give bit-identical results.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .linalg import herm
from .pilots import BLOCK_CHUNK, _DrawWork, _draw_ap


class Combiner(enum.Enum):
    MR = "mr"
    LMMSE = "lmmse"


@dataclass(frozen=True)
class LsfdStatistics:
    """Decoding statistics per UE: A (K, L, L), b (K, L), powers p (K,)."""

    A: np.ndarray
    b: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        for arr in (self.A, self.b, self.p):
            arr.flags.writeable = False


def lmmse_combiner(h_hats, error_covs, p, noise_var):
    """Local MMSE combiners for all UEs at one AP, one shared inverse.

    h_hats is (..., K, N) estimates (leading axes index blocks),
    error_covs (K, N, N), p (K,) transmit powers.  Returns (..., K, N):
    v_k = p_k (sum_i p_i (hhat_i hhat_i^H + C_i) + noise_var I)^-1 hhat_k.
    """
    ht = np.swapaxes(np.asarray(h_hats), -1, -2)  # (..., N, K)
    m = (ht * p) @ herm(ht)
    m += np.tensordot(p, error_covs, axes=1)
    m += noise_var * np.eye(ht.shape[-2])
    return np.swapaxes(np.linalg.solve(m, ht) * p, -1, -2)


def _chunk_moments(work, p, err_covs, seed, chunk, n_in_chunk):
    """Local MMSE per-AP partial sums over one chunk, one AP at a time.

    Returns (sum_g, sum_g2, sum_vnorm): sums over blocks of g[l, k, i] =
    v_kl^H h_il and of |g[l, k, i]|^2, each (L, K, K), and of ||v_kl||^2
    as (L, K).
    """
    cfg = work.cfg
    sum_g = np.empty((cfg.L, cfg.K, cfg.K), dtype=complex)
    sum_g2 = np.empty((cfg.L, cfg.K, cfg.K))
    sum_vnorm = np.empty((cfg.L, cfg.K))
    for l in range(cfg.L):
        h, h_hat = _draw_ap(work, seed, chunk, l, n_in_chunk)  # (blocks, K, N)
        v = lmmse_combiner(h_hat, err_covs[:, l], p, cfg.noise_var)
        g = v.conj() @ np.swapaxes(h, 1, 2)  # (blocks, K, K)
        sum_g[l] = g.sum(axis=0)
        sum_g2[l] = (g.real**2 + g.imag**2).sum(axis=0)
        sum_vnorm[l] = (v.real**2 + v.imag**2).sum(axis=(0, 2))
    return sum_g, sum_g2, sum_vnorm


def _lmmse_moments(instance, plan, stats, p, n_blocks, seed):
    """Monte Carlo per-AP moments of local MMSE over n_blocks blocks."""
    work = _DrawWork(instance, plan, stats)
    parts = [
        _chunk_moments(work, p, stats.C, seed, chunk,
                       min(start + BLOCK_CHUNK, n_blocks) - start)
        for chunk, start in enumerate(range(0, n_blocks, BLOCK_CHUNK))
    ]
    return tuple(sum(part[i] for part in parts) / n_blocks for i in range(3))


def _mr_moments(instance, plan, stats):
    """Exact per-AP moments of MR: E g (L, K, K), E|g|^2 (L, K, K), E||v||^2 (L, K).

    g[l, k, i] = hhat_kl^H h_il; see the module docstring for the formulas.
    """
    big_r = instance.R
    copilot = plan.assignment[:, None] == plan.assignment[None, :]
    psi_inv_r = np.linalg.solve(stats.Psi, big_r)  # Psi_kl^-1 R_kl
    scale = plan.tau_p * plan.rho_p
    mean_g = scale * np.einsum("klab,ilba->lki", psi_inv_r, big_r) * copilot
    mean_g2 = np.einsum("ilab,klba->lki", big_r, stats.B).real
    mean_g2 += mean_g.real**2 + mean_g.imag**2
    mean_vnorm = np.trace(stats.B, axis1=-2, axis2=-1).real.T
    return mean_g, mean_g2, mean_vnorm


@np.errstate(over="raise", invalid="raise")
def estimate_lsfd_statistics(instance, plan, stats, combiner, p, n_blocks, seed):
    """Decoding statistics (A_k, b_k) of one combiner.

    MR statistics are exact expectations: n_blocks and seed are validated
    and otherwise unused, and no random numbers are drawn.  Local MMSE
    statistics are Monte Carlo estimates over n_blocks coherence blocks of
    the given seed.  Raises FloatingPointError if any step overflows or
    the statistics are not finite.
    """
    if n_blocks <= 0:
        raise ValueError("n_blocks must be positive")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    p = np.asarray(p, dtype=float)
    if p.shape != (instance.cfg.K,) or np.any(p < 0):
        raise ValueError("p must hold one nonnegative power per UE")
    cfg = instance.cfg
    if Combiner(combiner) is Combiner.MR:
        mean_g, mean_g2, mean_vnorm = _mr_moments(instance, plan, stats)
    else:
        mean_g, mean_g2, mean_vnorm = _lmmse_moments(
            instance, plan, stats, p, n_blocks, seed
        )
    # per-AP independence: E{g_kil g_kil'^*} = E{g_kil} E{g_kil'}^* for
    # l != l'; the diagonal keeps the second moments
    m = np.swapaxes(mean_g, 0, 1)  # (K, L, K): m[k, l, i] = E g_kil
    big_a = (m * p) @ herm(m)
    diag = mean_g2 @ p + cfg.noise_var * mean_vnorm  # (L, K)
    big_a[:, np.arange(cfg.L), np.arange(cfg.L)] = diag.T
    big_a = 0.5 * (big_a + herm(big_a))
    b = np.sqrt(p)[:, None] * np.diagonal(mean_g, axis1=1, axis2=2).T
    if not (np.all(np.isfinite(big_a)) and np.all(np.isfinite(b))):
        raise FloatingPointError("LSFD statistics are not finite")
    return LsfdStatistics(A=big_a, b=b, p=p.copy())
