"""Shared builders for the test suite.

The compact network is small enough that the fixed-step reference solver
converges quickly (condition numbers of a few hundred), while still
exercising the full pipeline.  Random statistics mimic Monte Carlo
moment estimates: sample-covariance PD blocks plus a mean vector.  The
MR Monte Carlo oracle averages per-block quantities of the public channel
draws, as a check on the closed-form MR statistics.
"""

import numpy as np

from sparselsfd import (
    Combiner,
    NetworkConfig,
    assign_pilots,
    estimate_lsfd_statistics,
    estimation_stats,
    fractional_power,
    generate_network,
)
from sparselsfd.pilots import estimate_channels
from sparselsfd.uplink import LsfdStatistics

COMPACT_NET = dict(
    L=10, N=2, K=4, side_m=60.0, shadow_std_db=3.0,
    noise_var=1.0, gain_offset_db=95.0,
)
COMPACT_SEED = 11
COMPACT_TAU_P = 5


def compact_pipeline(combiner=Combiner.LMMSE, n_blocks=400, seed=COMPACT_SEED):
    """Generate the compact test network and its estimated statistics."""
    cfg = NetworkConfig(**COMPACT_NET)
    inst = generate_network(cfg, seed=seed)
    plan = assign_pilots(inst.beta, COMPACT_TAU_P)
    est = estimation_stats(inst, plan)
    full = np.ones((cfg.K, cfg.L), dtype=bool)
    p = fractional_power(inst.beta, full, 0.1, 1.0)
    stats = estimate_lsfd_statistics(inst, plan, est, combiner, p, n_blocks,
                                     seed=seed)
    return inst, plan, est, stats


def complex_normal(rng, shape):
    z = rng.standard_normal(shape + (2,))
    return (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)


def random_pd(rng, n, ridge=0.1):
    g = complex_normal(rng, (n, 4 * n))
    return g @ g.conj().T / (4 * n) + ridge * np.eye(n)


def random_statistics(rng, n_ue=4, n_ap=10, n_samp=160):
    """Sample-covariance statistics blocks with a controlled eigen-spread."""
    big_a = np.empty((n_ue, n_ap, n_ap), complex)
    b = np.empty((n_ue, n_ap), complex)
    p = rng.uniform(0.02, 0.1, n_ue)
    for k in range(n_ue):
        spread = 10.0 ** rng.uniform(-0.4, 0.4, n_ap)
        g = spread[:, None] * complex_normal(rng, (n_ap, n_samp))
        mean = g.mean(axis=1) * rng.uniform(1.0, 3.0)
        big_a[k] = (g @ g.conj().T / n_samp + np.outer(mean, mean.conj())
                    + 0.05 * np.eye(n_ap))
        b[k] = mean
    return LsfdStatistics(A=big_a, b=b, p=p)


def mr_monte_carlo(inst, plan, est, p, n_blocks, seed, chunk=1000):
    """Sample means and per-entry standard errors of MR statistics.

    Per block, with g[k, l, i] = hhat_kl^H h_il from `estimate_channels`:
    b_k = sqrt(p_k) g[k, :, k], A_k = sum_i p_i g[k, :, i] g[k, :, i]^H
    + noise_var diag(||hhat_kl||^2) (the full L x L outer product), and
    the per-AP g itself.  Returns {"b": (mean, stderr), "A": ..., "g": ...}
    where stderr = sqrt(sample variance / n_blocks) of each complex entry.
    """
    h, h_hat = estimate_channels(inst, plan, est, seed=seed, n_blocks=n_blocks)
    noise = inst.cfg.noise_var * np.eye(inst.cfg.L)
    sums = {}
    for start in range(0, n_blocks, chunk):
        v, hb = h_hat[start:start + chunk], h[start:start + chunk]
        g = np.einsum("bkln,biln->bkli", v.conj(), hb)
        vnorm = np.sum(np.abs(v) ** 2, axis=3)
        samples = {
            "b": np.sqrt(p)[:, None] * np.einsum("bklk->bkl", g),
            "A": (np.einsum("bkli,i,bkmi->bklm", g, p, g.conj())
                  + vnorm[..., None] * noise),
            "g": g,
        }
        for name, x in samples.items():
            s1, s2 = sums.get(name, (0.0, 0.0))
            sums[name] = (s1 + x.sum(axis=0), s2 + (np.abs(x) ** 2).sum(axis=0))
    out = {}
    for name, (s1, s2) in sums.items():
        mean = s1 / n_blocks
        var = np.maximum(s2 / n_blocks - np.abs(mean) ** 2, 0.0)
        out[name] = (mean, np.sqrt(var / n_blocks))
    return out
