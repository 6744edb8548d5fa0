"""Uplink combining and Monte Carlo decoding statistics.

Each AP combines locally (MR or local MMSE) and forwards per-UE soft
estimates; the central unit fuses them with weights based only on
statistics.  This module estimates those statistics: for UE k,
A_k = sum_i p_i E{g_ki g_ki^H} + noise_var diag(E||v_k1||^2, ...),
b_k = sqrt(p_k) E{g_kk}, with g_ki the vector of g_kil = v_kl^H h_il
across APs.

Channels of different APs are independent, and a local combiner v_kl
depends only on what AP l observes, so g_kil and g_kil' are independent
for l != l'.  E{g_ki g_ki^H} is therefore the outer product of the
per-AP means E{g_kil} off the diagonal and holds the per-AP second
moments E|g_kil|^2 on it.  The estimator draws one AP at a time and
keeps only sample means of g_kil, |g_kil|^2 and ||v_kl||^2, never an
L x L sample outer product.

Sums are accumulated in fixed chunk order so results are bit-identical
for any worker count.
"""

from __future__ import annotations

import enum
from concurrent.futures import ThreadPoolExecutor
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


def mr_combiner(h_hat):
    """Maximum-ratio combining: the channel estimate itself."""
    return np.asarray(h_hat)


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


@np.errstate(over="raise", invalid="raise")  # per call, so also in workers
def _chunk_moments(work, combiner, p, err_covs, seed, chunk, n_in_chunk):
    """Per-AP partial sums over one chunk, one AP at a time.

    Returns (sum_g, sum_g2, sum_vnorm): sums over blocks of g[l, k, i] =
    v_kl^H h_il and of |g[l, k, i]|^2, each (L, K, K), and of ||v_kl||^2
    as (L, K).
    """
    cfg = work.cfg
    sum_g = np.empty((cfg.L, cfg.K, cfg.K), dtype=complex)
    sum_g2 = np.empty((cfg.L, cfg.K, cfg.K))
    sum_vnorm = np.empty((cfg.L, cfg.K))
    for l in range(cfg.L):
        h, v = _draw_ap(work, seed, chunk, l, n_in_chunk)  # (blocks, K, N)
        if combiner is Combiner.LMMSE:
            v = lmmse_combiner(v, err_covs[:, l], p, cfg.noise_var)
        g = v.conj() @ np.swapaxes(h, 1, 2)  # (blocks, K, K)
        sum_g[l] = g.sum(axis=0)
        sum_g2[l] = (g.real**2 + g.imag**2).sum(axis=0)
        sum_vnorm[l] = (v.real**2 + v.imag**2).sum(axis=(0, 2))
    return sum_g, sum_g2, sum_vnorm


@np.errstate(over="raise", invalid="raise")
def estimate_lsfd_statistics(
    instance, plan, stats, combiner, p, n_blocks, seed, n_workers=1
):
    """Monte Carlo estimate of (A_k, b_k) over n_blocks coherence blocks.

    Chunks may be evaluated concurrently (n_workers threads); partial sums
    are reduced in fixed chunk order, so the result does not depend on
    n_workers.  Raises FloatingPointError if any step overflows or yields
    an invalid value.
    """
    if n_blocks <= 0:
        raise ValueError("n_blocks must be positive")
    p = np.asarray(p, dtype=float)
    if p.shape != (instance.cfg.K,) or np.any(p < 0):
        raise ValueError("p must hold one nonnegative power per UE")
    cfg = instance.cfg
    work = _DrawWork(instance, plan, stats)
    spans = [
        (chunk, min(start + BLOCK_CHUNK, n_blocks) - start)
        for chunk, start in enumerate(range(0, n_blocks, BLOCK_CHUNK))
    ]

    def run(span):
        chunk, size = span
        return _chunk_moments(work, combiner, p, stats.C, seed, chunk, size)

    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            parts = list(pool.map(run, spans))
    else:
        parts = [run(s) for s in spans]
    mean_g, mean_g2, mean_vnorm = (
        sum(part[i] for part in parts) / n_blocks for i in range(3)
    )
    # per-AP independence: E{g_kil g_kil'^*} = E{g_kil} E{g_kil'}^* for
    # l != l'; the diagonal keeps the second moments
    m = np.swapaxes(mean_g, 0, 1)  # (K, L, K): m[k, l, i] = E g_kil
    big_a = (m * p) @ herm(m)
    diag = mean_g2 @ p + cfg.noise_var * mean_vnorm  # (L, K)
    big_a[:, np.arange(cfg.L), np.arange(cfg.L)] = diag.T
    big_a = 0.5 * (big_a + herm(big_a))
    b = np.sqrt(p)[:, None] * np.diagonal(mean_g, axis1=1, axis2=2).T
    return LsfdStatistics(A=big_a, b=b, p=p.copy())
