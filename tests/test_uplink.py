from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from helpers import complex_normal, compact_pipeline, mr_monte_carlo, random_pd

from sparselsfd import NetworkConfig, generate_network, pilots
from sparselsfd.pilots import assign_pilots, estimate_channels, estimation_stats
from sparselsfd.uplink import (
    Combiner,
    _mr_moments,
    estimate_lsfd_statistics,
    lmmse_combiner,
)


def small_pipeline(seed=20, n_ue=3, n_ap=4, n_ant=2):
    cfg = NetworkConfig(L=n_ap, N=n_ant, K=n_ue, side_m=150.0,
                        gain_offset_db=80.0)
    inst = generate_network(cfg, seed=seed)
    plan = assign_pilots(inst.beta, 2)
    est = estimation_stats(inst, plan)
    return inst, plan, est


def test_lmmse_scalar_case():
    v = lmmse_combiner(np.array([[1.0 + 0.0j]]), np.zeros((1, 1, 1)),
                       np.array([1.0]), 1.0)
    npt.assert_allclose(v, [[0.5]])


def test_lmmse_mr_limit():
    rng = np.random.default_rng(1)
    h_hats = complex_normal(rng, (3, 4))
    covs = np.stack([random_pd(rng, 4) for _ in range(3)])
    v = lmmse_combiner(h_hats, covs, np.full(3, 0.1), 1e9)
    for k in range(3):
        direction = v[k] / np.linalg.norm(v[k])
        ref = h_hats[k] / np.linalg.norm(h_hats[k])
        # directions match up to a real positive scale at huge noise
        npt.assert_allclose(direction, ref, atol=1e-6)


def test_lmmse_minimizes_conditional_mse():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n_ue, n_ant = 3, 4
        h_hats = complex_normal(rng, (n_ue, n_ant))
        covs = np.stack([random_pd(rng, n_ant) for _ in range(n_ue)])
        p = rng.uniform(0.02, 0.1, n_ue)
        noise = rng.uniform(0.5, 2.0)
        v = lmmse_combiner(h_hats, covs, p, noise)
        m = noise * np.eye(n_ant, dtype=complex)
        for i in range(n_ue):
            m = m + p[i] * (np.outer(h_hats[i], h_hats[i].conj()) + covs[i])

        def cond_mse(w, k):
            return (p[k] - 2.0 * p[k] * np.real(np.vdot(w, h_hats[k]))
                    + np.real(np.vdot(w, m @ w)))

        for k in range(n_ue):
            base = cond_mse(v[k], k)
            for i in range(n_ant):
                for delta in (0.05, 0.05j, -0.05, -0.05j):
                    w = v[k].copy()
                    w[i] += delta
                    assert cond_mse(w, k) >= base - 1e-12


def test_lmmse_combiner_stacks_blocks():
    # leading axes are blocks: each block gets its own shared inverse
    rng = np.random.default_rng(3)
    h_hats = complex_normal(rng, (5, 3, 4))
    covs = np.stack([random_pd(rng, 4) for _ in range(3)])
    p = np.array([0.03, 0.1, 0.06])
    v = lmmse_combiner(h_hats, covs, p, 0.7)
    for blk in range(5):
        npt.assert_allclose(v[blk], lmmse_combiner(h_hats[blk], covs, p, 0.7),
                            rtol=1e-12)


def test_statistics_no_signal_case():
    inst, plan, est = small_pipeline()
    p = np.zeros(3)
    stats = estimate_lsfd_statistics(inst, plan, est, Combiner.MR, p, 50, seed=3)
    npt.assert_array_equal(stats.b, 0.0)
    # A reduces to the noise diagonal, which is real positive
    for k in range(3):
        off_diag = stats.A[k] - np.diag(np.diagonal(stats.A[k]))
        npt.assert_allclose(off_diag, 0.0, atol=1e-15)
        assert np.all(np.diagonal(stats.A[k]).real > 0)
        npt.assert_allclose(np.diagonal(stats.A[k]).imag, 0.0, atol=1e-15)


def test_statistics_linear_in_powers_mr():
    # signal part of A is linear in the p_i when combiners don't depend on p
    inst, plan, est = small_pipeline()
    p = np.array([0.1, 0.05, 0.02])
    s1 = estimate_lsfd_statistics(inst, plan, est, Combiner.MR, p, 60, seed=4)
    s2 = estimate_lsfd_statistics(inst, plan, est, Combiner.MR, 2 * p, 60, seed=4)
    s4 = estimate_lsfd_statistics(inst, plan, est, Combiner.MR, 4 * p, 60, seed=4)
    npt.assert_allclose(s4.A - s2.A, 2.0 * (s2.A - s1.A), rtol=1e-10, atol=1e-18)
    npt.assert_allclose(s2.b, np.sqrt(2.0) * s1.b, rtol=1e-12)


def lmmse_draws(inst, plan, est, p, n_blocks, seed):
    """Public per-block draws h and their local MMSE combiners v, (blocks, K, L, N)."""
    h, h_hat = estimate_channels(inst, plan, est, seed=seed, n_blocks=n_blocks)
    v = np.stack([
        lmmse_combiner(h_hat[:, :, l], est.C[:, l], p, inst.cfg.noise_var)
        for l in range(inst.cfg.L)
    ], axis=2)
    return h, v


@pytest.mark.parametrize("n_ant", [1, 2])
def test_statistics_match_manual_accumulation(n_ant):
    # rebuild A_k, b_k and the standard error of b by hand from per-AP
    # means and second moments of the public per-block draws with local
    # MMSE combining; 300 blocks span two chunks
    inst, plan, est = small_pipeline(seed=21, n_ant=n_ant)
    p = np.array([0.08, 0.03, 0.1])
    n_blocks = 300
    stats = estimate_lsfd_statistics(inst, plan, est, Combiner.LMMSE, p,
                                     n_blocks, seed=5)
    h, v_all = lmmse_draws(inst, plan, est, p, n_blocks, seed=5)
    n_ue, n_ap = 3, 4
    mean_g = np.zeros((n_ue, n_ap, n_ue), complex)  # E v_kl^H h_il
    mean_g2 = np.zeros((n_ue, n_ap, n_ue))          # E |v_kl^H h_il|^2
    vnorm = np.zeros((n_ue, n_ap))                  # E ||v_kl||^2
    for blk in range(n_blocks):
        for k in range(n_ue):
            for l in range(n_ap):
                v = v_all[blk, k, l]
                vnorm[k, l] += np.real(np.vdot(v, v)) / n_blocks
                for i in range(n_ue):
                    g = np.vdot(v, h[blk, i, l])
                    mean_g[k, l, i] += g / n_blocks
                    mean_g2[k, l, i] += abs(g) ** 2 / n_blocks
    a_manual = np.zeros((n_ue, n_ap, n_ap), complex)
    for k in range(n_ue):
        for l in range(n_ap):
            for m in range(n_ap):
                if l == m:
                    a_manual[k, l, l] = (np.dot(p, mean_g2[k, l])
                                         + inst.cfg.noise_var * vnorm[k, l])
                else:
                    a_manual[k, l, m] = np.sum(
                        p * mean_g[k, l] * mean_g[k, m].conj())
    b_manual = np.sqrt(p)[:, None] * mean_g[np.arange(n_ue), :, np.arange(n_ue)]
    own = np.arange(n_ue)
    var = mean_g2[own, :, own] - np.abs(mean_g[own, :, own]) ** 2
    stderr_manual = np.sqrt(p[:, None] * var / n_blocks)
    npt.assert_allclose(stats.A, a_manual, rtol=1e-10, atol=1e-20)
    npt.assert_allclose(stats.b, b_manual, rtol=1e-10)
    npt.assert_allclose(stats.b_stderr, stderr_manual, rtol=1e-8)


def full_outer_product_statistics(inst, plan, est, p, n_blocks, seed):
    """Local MMSE statistics as the sample mean of sum_i p_i g_ki g_ki^H."""
    h, v = lmmse_draws(inst, plan, est, p, n_blocks, seed)
    g = np.einsum("bkln,biln->bkli", v.conj(), h)  # v_kl^H h_il
    big_a = np.einsum("bkli,i,bkmi->klm", g, p, g.conj()) / n_blocks
    vnorm = np.sum(np.abs(v) ** 2, axis=(0, 3)) / n_blocks
    big_a += inst.cfg.noise_var * vnorm[:, :, None] * np.eye(inst.cfg.L)
    b = np.sqrt(p)[:, None] * np.einsum("bklk->kl", g) / n_blocks
    return big_a, b


@pytest.mark.parametrize("n_ant", [1, 2])
def test_statistics_agree_with_full_outer_product(n_ant):
    # the per-AP estimator matches the L x L sample estimator on b and
    # diag(A); off the diagonal the two differ by Monte Carlo noise only
    inst, plan, est = small_pipeline(seed=24, n_ant=n_ant)
    p = np.array([0.05, 0.1, 0.07])
    eye = np.eye(inst.cfg.L, dtype=bool)
    gaps = []
    for n_blocks in (200, 20000):
        stats = estimate_lsfd_statistics(inst, plan, est, Combiner.LMMSE, p,
                                         n_blocks, seed=9)
        big_a, b = full_outer_product_statistics(inst, plan, est, p,
                                                 n_blocks, seed=9)
        npt.assert_allclose(stats.b, b, rtol=1e-12)
        npt.assert_allclose(stats.A[:, eye], big_a[:, eye], rtol=1e-12)
        off = ~eye
        gaps.append(np.abs(stats.A[:, off] - big_a[:, off]).max()
                    / np.abs(big_a[:, off]).max())
    # O(1/sqrt(n_blocks)): 100x the blocks shrinks the gap about 10x
    assert gaps[1] < 0.3 * gaps[0]


def contaminated_pipeline():
    """6 UEs on 2 pilots with 3 antennas per AP, so co-pilot UEs contaminate.

    Every link has the same gain (pilot SNR 10 dB) and a random correlation
    matrix, so the contamination is strong and its means are complex: the
    Toeplitz correlation of a linear array would make them all real.
    """
    inst, plan, _ = small_pipeline(seed=25, n_ue=6, n_ap=5, n_ant=3)
    assert plan.tau_p < inst.cfg.K
    g = complex_normal(np.random.default_rng(25), inst.beta.shape + (3, 3))
    big_r = g @ np.swapaxes(g.conj(), -1, -2)
    gain = 10.0 / (plan.tau_p * plan.rho_p)
    big_r *= 3.0 * gain / np.trace(big_r, axis1=-2, axis2=-1).real[..., None, None]
    inst = replace(inst, R=big_r)
    return inst, plan, estimation_stats(inst, plan), np.linspace(0.02, 0.1, 6)


def test_mr_statistics_match_monte_carlo_oracle():
    # b, A (diagonal and off-diagonal) and the per-AP means E{g_kil},
    # co-pilot terms included, lie within 6 per-entry standard errors of
    # the closed form
    inst, plan, est, p = contaminated_pipeline()
    stats = estimate_lsfd_statistics(inst, plan, est, Combiner.MR, p, 1, seed=0)
    mean_g = np.swapaxes(_mr_moments(inst, plan, est)[0], 0, 1)  # (K, L, K)
    oracle = mr_monte_carlo(inst, plan, est, p, n_blocks=4000, seed=12)
    for name, exact in (("b", stats.b), ("A", stats.A), ("g", mean_g)):
        mean, stderr = oracle[name]
        bound = 6.0 * stderr + 1e-12 * np.abs(exact).max()
        assert np.all(np.abs(mean - exact) <= bound), name
    # the co-pilot means lie well away from zero, with clearly complex ones
    # among them, so the check above bites on them; other pairs have mean 0
    same = plan.assignment[:, None] == plan.assignment[None, :]
    copilot = same & ~np.eye(6, dtype=bool)
    stderr = np.swapaxes(oracle["g"][1], 1, 2)[copilot]  # (pairs, L)
    copilot_g = np.swapaxes(mean_g, 1, 2)[copilot]
    assert np.all((np.abs(copilot_g) / stderr).max(axis=1) > 6.0)
    assert (np.abs(copilot_g.imag) / stderr).max() > 6.0
    npt.assert_array_equal(np.swapaxes(mean_g, 1, 2)[~same], 0.0)


def test_mr_monte_carlo_gap_shrinks():
    # O(1/sqrt(n_blocks)): 100x the blocks shrinks the oracle's gap to the
    # closed form about 10x
    inst, plan, est, p = contaminated_pipeline()
    stats = estimate_lsfd_statistics(inst, plan, est, Combiner.MR, p, 1, seed=0)
    gaps = []
    for n_blocks in (200, 20000):
        oracle = mr_monte_carlo(inst, plan, est, p, n_blocks, seed=13)
        gaps.append(max(
            np.abs(oracle[name][0] - exact).max() / np.abs(exact).max()
            for name, exact in (("b", stats.b), ("A", stats.A))
        ))
    assert gaps[1] < gaps[0] / 3.0


def test_mr_statistics_draw_no_random_numbers(monkeypatch):
    inst, plan, est, p = contaminated_pipeline()
    ref = estimate_lsfd_statistics(inst, plan, est, Combiner.MR, p, 500, seed=3)

    def no_draws(*args):
        raise AssertionError("MR statistics drew random numbers")

    monkeypatch.setattr(pilots, "_substream", no_draws)
    stats = estimate_lsfd_statistics(inst, plan, est, Combiner.MR, p, 500, seed=4)
    npt.assert_array_equal(stats.A, ref.A)
    npt.assert_array_equal(stats.b, ref.b)
    with pytest.raises(AssertionError, match="drew random numbers"):
        estimate_lsfd_statistics(inst, plan, est, Combiner.LMMSE, p, 500, seed=4)


def test_mr_per_block_term_inclusion():
    # own-signal term never exceeds the full interference sum on the diagonal
    inst, plan, est = small_pipeline(seed=22)
    p = np.array([0.06, 0.09, 0.04])
    h, h_hat = estimate_channels(inst, plan, est, seed=6, n_blocks=30)
    for blk in range(30):
        for k in range(3):
            for l in range(4):
                v = h_hat[blk, k, l]
                own = p[k] * np.abs(np.vdot(v, h[blk, k, l])) ** 2
                total = sum(p[i] * np.abs(np.vdot(v, h[blk, i, l])) ** 2
                            for i in range(3))
                assert own <= total + 1e-18


def contaminated_mr_statistics():
    """MR statistics with 6 UEs on 2 pilots, so co-pilot UEs contaminate."""
    inst, plan, est, p = contaminated_pipeline()
    return estimate_lsfd_statistics(inst, plan, est, Combiner.MR, p, 60, seed=8)


def test_statistics_invariants():
    for stats in (
        compact_pipeline(n_blocks=300)[3],
        compact_pipeline(Combiner.MR, n_blocks=300)[3],
        contaminated_mr_statistics(),
    ):
        for k in range(stats.A.shape[0]):
            a_k, b_k = stats.A[k], stats.b[k]
            npt.assert_allclose(a_k, a_k.conj().T, rtol=1e-12, atol=1e-20)
            assert np.all(np.diagonal(a_k).real > 0)
            assert np.linalg.eigvalsh(a_k - np.outer(b_k, b_k.conj())).min() > 0
            quad = np.vdot(b_k, np.linalg.solve(a_k, b_k))
            assert abs(quad.imag) <= 1e-10 * abs(quad.real)


def test_statistics_a_is_hermitian_and_c_contiguous():
    # A is exactly Hermitian with a real diagonal and C-ordered for both
    # combiners, also at sizes (K L^2 complex >= 256 KiB) where numpy
    # reuses temporaries
    for n_ap, combiner in ((4, Combiner.LMMSE), (4, Combiner.MR), (80, Combiner.MR)):
        inst, plan, est = small_pipeline(seed=26, n_ap=n_ap)
        stats = estimate_lsfd_statistics(inst, plan, est, combiner,
                                         np.full(3, 0.1), 40, seed=2)
        assert stats.A.flags.c_contiguous
        npt.assert_array_equal(stats.A, np.swapaxes(stats.A, 1, 2).conj())
        assert (stats.b_stderr is None) == (combiner is Combiner.MR)


def test_statistics_validation():
    inst, plan, est = small_pipeline()
    with pytest.raises(ValueError):
        estimate_lsfd_statistics(inst, plan, est, Combiner.MR,
                                 np.array([-0.1, 0.1, 0.1]), 10, seed=1)
    # MR uses neither n_blocks nor seed, but still checks them
    for combiner in (Combiner.MR, Combiner.LMMSE):
        for n_blocks, seed in ((0, 1), (10, -1)):
            with pytest.raises(ValueError):
                estimate_lsfd_statistics(inst, plan, est, combiner,
                                         np.full(3, 0.1), n_blocks, seed)
    with pytest.raises(ValueError):
        estimate_lsfd_statistics(inst, plan, est, "zf", np.full(3, 0.1), 10, 1)


def test_statistics_overflow_raises():
    cfg = NetworkConfig(L=4, N=2, K=3, side_m=150.0, gain_offset_db=2000.0)
    inst = generate_network(cfg, seed=20)
    plan = assign_pilots(inst.beta, 2)
    est = estimation_stats(inst, plan)
    with pytest.raises(FloatingPointError):
        estimate_lsfd_statistics(inst, plan, est, Combiner.MR,
                                 np.full(3, 0.1), 300, seed=1)
    # local MMSE is scale-free in the gains, so huge powers make its Monte
    # Carlo chunks overflow, under the errstate of the calling thread
    with pytest.raises(FloatingPointError, match="overflow"):
        estimate_lsfd_statistics(inst, plan, est, Combiner.LMMSE,
                                 np.full(3, 1e200), 300, seed=1)
