import numpy as np
import numpy.testing as npt
import pytest

from helpers import complex_normal, compact_pipeline, random_pd

from sparselsfd import NetworkConfig, generate_network
from sparselsfd.pilots import assign_pilots, estimate_channels, estimation_stats
from sparselsfd.uplink import (
    Combiner,
    estimate_lsfd_statistics,
    lmmse_combiner,
    mr_combiner,
)


def small_pipeline(seed=20, n_ue=3, n_ap=4, n_ant=2):
    cfg = NetworkConfig(L=n_ap, N=n_ant, K=n_ue, side_m=150.0,
                        gain_offset_db=80.0)
    inst = generate_network(cfg, seed=seed)
    plan = assign_pilots(inst.beta, 2)
    est = estimation_stats(inst, plan)
    return inst, plan, est


def test_mr_is_identity():
    v = mr_combiner(np.array([1.0 + 1.0j, 0.0]))
    npt.assert_array_equal(v, [1.0 + 1.0j, 0.0])
    npt.assert_array_equal(mr_combiner(np.zeros(3, complex)), np.zeros(3))
    h = complex_normal(np.random.default_rng(0), (5,))
    npt.assert_allclose(np.linalg.norm(mr_combiner(h)), np.linalg.norm(h))


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


def test_statistics_match_manual_accumulation():
    # rebuild A_k, b_k by hand from per-AP means and second moments of the
    # public per-block draws with MR combining; 300 blocks span two chunks
    inst, plan, est = small_pipeline(seed=21)
    p = np.array([0.08, 0.03, 0.1])
    n_blocks = 300
    stats = estimate_lsfd_statistics(inst, plan, est, Combiner.MR, p,
                                     n_blocks, seed=5)
    h, h_hat = estimate_channels(inst, plan, est, seed=5, n_blocks=n_blocks)
    n_ue, n_ap = 3, 4
    mean_g = np.zeros((n_ue, n_ap, n_ue), complex)  # E v_kl^H h_il
    mean_g2 = np.zeros((n_ue, n_ap, n_ue))          # E |v_kl^H h_il|^2
    vnorm = np.zeros((n_ue, n_ap))                  # E ||v_kl||^2
    for blk in range(n_blocks):
        for k in range(n_ue):
            for l in range(n_ap):
                v = h_hat[blk, k, l]
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
    npt.assert_allclose(stats.A, a_manual, rtol=1e-10, atol=1e-20)
    npt.assert_allclose(stats.b, b_manual, rtol=1e-10)


def full_outer_product_statistics(inst, plan, est, p, n_blocks, seed):
    """MR statistics as the sample mean of sum_i p_i g_ki g_ki^H over blocks."""
    h, h_hat = estimate_channels(inst, plan, est, seed=seed, n_blocks=n_blocks)
    g = np.einsum("bkln,biln->bkli", h_hat.conj(), h)  # v_kl^H h_il
    big_a = np.einsum("bkli,i,bkmi->klm", g, p, g.conj()) / n_blocks
    vnorm = np.sum(np.abs(h_hat) ** 2, axis=(0, 3)) / n_blocks
    big_a += inst.cfg.noise_var * vnorm[:, :, None] * np.eye(inst.cfg.L)
    b = np.sqrt(p)[:, None] * np.einsum("bklk->kl", g) / n_blocks
    return big_a, b


def test_statistics_agree_with_full_outer_product():
    # the per-AP estimator matches the L x L sample estimator on b and
    # diag(A); off the diagonal the two differ by Monte Carlo noise only
    inst, plan, est = small_pipeline(seed=24)
    p = np.array([0.05, 0.1, 0.07])
    eye = np.eye(inst.cfg.L, dtype=bool)
    gaps = []
    for n_blocks in (200, 20000):
        stats = estimate_lsfd_statistics(inst, plan, est, Combiner.MR, p,
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


def test_statistics_worker_count_invariance():
    # 900 blocks: four chunks, the last one partial
    inst, plan, est = small_pipeline(seed=23)
    p = np.array([0.1, 0.02, 0.07])
    for combiner in (Combiner.MR, Combiner.LMMSE):
        ref = estimate_lsfd_statistics(inst, plan, est, combiner, p, 900,
                                       seed=7, n_workers=1)
        for workers in (1, 2, 3):
            alt = estimate_lsfd_statistics(inst, plan, est, combiner, p, 900,
                                           seed=7, n_workers=workers)
            npt.assert_array_equal(ref.A, alt.A)
            npt.assert_array_equal(ref.b, alt.b)


def contaminated_mr_statistics():
    """MR statistics with 6 UEs on 2 pilots, so co-pilot UEs contaminate."""
    inst, plan, est = small_pipeline(seed=25, n_ue=6, n_ap=5)
    assert plan.tau_p < inst.cfg.K
    p = np.linspace(0.02, 0.1, 6)
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


def test_statistics_validation():
    inst, plan, est = small_pipeline()
    with pytest.raises(ValueError):
        estimate_lsfd_statistics(inst, plan, est, Combiner.MR,
                                 np.array([-0.1, 0.1, 0.1]), 10, seed=1)
    with pytest.raises(ValueError):
        estimate_lsfd_statistics(inst, plan, est, Combiner.MR,
                                 np.full(3, 0.1), 0, seed=1)


def test_statistics_overflow_raises():
    cfg = NetworkConfig(L=4, N=2, K=3, side_m=150.0, gain_offset_db=2000.0)
    inst = generate_network(cfg, seed=20)
    plan = assign_pilots(inst.beta, 2)
    est = estimation_stats(inst, plan)
    for workers in (1, 2):
        with pytest.raises(FloatingPointError):
            estimate_lsfd_statistics(inst, plan, est, Combiner.MR,
                                     np.full(3, 0.1), 300, seed=1,
                                     n_workers=workers)
