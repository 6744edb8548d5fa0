from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from sparselsfd import NetworkConfig, generate_network
from sparselsfd.linalg import hermitian_sqrt
from sparselsfd.network import _TAG_GEOMETRY, correlation_matrix
from sparselsfd.pilots import (
    _TAG_BLOCKS,
    BLOCK_CHUNK,
    EstimationStats,
    PilotPlan,
    _substream,
    assign_pilots,
    draw_blocks,
    estimate_channels,
    estimation_stats,
)


def scalar_instance(betas, rho_p=0.1, tau_p=1, assignment=None):
    """Hand-built N=1 instance bypassing geometry: R_kl = beta_kl."""
    betas = np.asarray(betas, dtype=float)
    n_ue, n_ap = betas.shape

    class Inst:
        cfg = NetworkConfig(L=n_ap, N=1, K=n_ue, noise_var=1.0)
        beta = betas
        R = betas[:, :, None, None].astype(complex)

    if assignment is None:
        assignment = np.zeros(n_ue, dtype=int)
    copilot = tuple(
        tuple(np.flatnonzero(assignment == t)) for t in range(tau_p)
    )
    plan = PilotPlan(tau_p=tau_p, rho_p=rho_p,
                     assignment=np.asarray(assignment), copilot=copilot)
    return Inst(), plan


def test_assign_orthogonal_when_enough_pilots():
    beta = np.random.default_rng(0).uniform(0.1, 1.0, (4, 6))
    plan = assign_pilots(beta, 10)
    assert len(set(plan.assignment.tolist())) == 4
    assert all(len(s) <= 1 for s in plan.copilot)


def test_assign_partitions_all_ues():
    cfg = NetworkConfig(L=40, N=1, K=20, side_m=500.0)
    inst = generate_network(cfg, seed=2)
    plan = assign_pilots(inst.beta, 10)
    sizes = [len(s) for s in plan.copilot]
    assert sum(sizes) == 20
    # greedy interference balancing reuses every pilot at K = 2 tau_p
    assert min(sizes) >= 1
    flat = sorted(k for s in plan.copilot for k in s)
    assert flat == list(range(20))


def test_assign_forced_sharing():
    beta = np.array([[1.0, 0.5], [0.3, 0.8]])
    plan = assign_pilots(beta, 1)
    assert plan.copilot == ((0, 1),)
    npt.assert_array_equal(plan.assignment, [0, 0])


def test_estimation_scalar_closed_form():
    # tau_p rho_p = 1, beta = 1, noise 1: Psi = 2, B = 1/2
    inst, plan = scalar_instance([[1.0]], rho_p=1.0, tau_p=1)
    stats = estimation_stats(inst, plan)
    npt.assert_allclose(stats.Psi[0, 0], [[2.0]], rtol=1e-12)
    npt.assert_allclose(stats.B[0, 0], [[0.5]], rtol=1e-12)
    npt.assert_allclose(stats.C[0, 0], [[0.5]], rtol=1e-12)


def test_estimation_scalar_closed_form_random():
    rng = np.random.default_rng(3)
    for _ in range(20):
        beta = rng.uniform(0.01, 50.0)
        rho = rng.uniform(0.01, 1.0)
        inst, plan = scalar_instance([[beta]], rho_p=rho, tau_p=2)
        stats = estimation_stats(inst, plan)
        scale = 2 * rho
        npt.assert_allclose(stats.B[0, 0, 0, 0].real,
                            scale * beta**2 / (scale * beta + 1.0), rtol=1e-12)


def test_estimation_high_power_limit():
    cfg = NetworkConfig(L=2, N=3, K=1, side_m=100.0, gain_offset_db=80.0)
    inst = generate_network(cfg, seed=4)
    plan = assign_pilots(inst.beta, 2, rho_p=1e6)
    stats = estimation_stats(inst, plan)
    for l in range(2):
        gap = np.linalg.norm(stats.B[0, l] - inst.R[0, l])
        assert gap <= 1e-3 * np.linalg.norm(inst.R[0, l])


def test_copilot_interferer_shrinks_estimate():
    inst1, plan1 = scalar_instance([[2.0]])
    solo = estimation_stats(inst1, plan1).B[0, 0, 0, 0].real
    inst2, plan2 = scalar_instance([[2.0], [1.5]])
    shared = estimation_stats(inst2, plan2).B[0, 0, 0, 0].real
    assert shared < solo


def test_error_covariance_psd_order():
    cfg = NetworkConfig(L=4, N=3, K=6, side_m=300.0)
    inst = generate_network(cfg, seed=5)
    plan = assign_pilots(inst.beta, 3)
    stats = estimation_stats(inst, plan)
    for k in range(6):
        for l in range(4):
            gap = inst.R[k, l] - stats.B[k, l]
            assert np.linalg.eigvalsh(gap).min() >= -1e-10 * inst.beta[k, l]
            assert np.linalg.eigvalsh(stats.B[k, l]).min() >= -1e-10 * inst.beta[k, l]


def test_estimation_stack_matches_per_link_formula():
    # several UEs per pilot, so Psi mixes co-pilot correlations
    cfg = NetworkConfig(L=5, N=3, K=7, side_m=300.0, gain_offset_db=90.0)
    inst = generate_network(cfg, seed=6)
    plan = assign_pilots(inst.beta, 3)
    stats = estimation_stats(inst, plan)
    scale = plan.tau_p * plan.rho_p
    for k in range(7):
        for l in range(5):
            r = inst.R[k, l]
            psi = scale * sum(inst.R[i, l] for i in plan.copilot[plan.assignment[k]])
            psi = psi + cfg.noise_var * np.eye(3)
            npt.assert_allclose(stats.Psi[k, l], psi, rtol=1e-15)
            b = scale * r @ np.linalg.solve(stats.Psi[k, l], r)
            npt.assert_array_equal(stats.B[k, l], 0.5 * (b + b.conj().T))
            npt.assert_array_equal(stats.C[k, l], r - stats.B[k, l])


def test_estimate_channels_zero_correlation():
    inst, plan = scalar_instance([[1.0, 0.0001]])
    inst.R[0, 1] = 0.0
    stats = estimation_stats(inst, plan)
    h, h_hat = estimate_channels(inst, plan, stats, seed=6, n_blocks=50)
    npt.assert_array_equal(h[:, 0, 1], 0.0)
    npt.assert_array_equal(h_hat[:, 0, 1], 0.0)


def test_estimate_channels_covariances():
    # sample covariance of h_hat approaches B, of h approaches R
    cfg = NetworkConfig(L=2, N=2, K=1, side_m=150.0, gain_offset_db=60.0)
    inst = generate_network(cfg, seed=7)
    plan = assign_pilots(inst.beta, 1)
    stats = estimation_stats(inst, plan)
    h, h_hat = estimate_channels(inst, plan, stats, seed=8, n_blocks=100000)
    for l in range(2):
        sample_b = np.einsum("bn,bm->nm", h_hat[:, 0, l],
                             h_hat[:, 0, l].conj()) / h.shape[0]
        err = np.linalg.norm(sample_b - stats.B[0, l])
        assert err <= 0.02 * np.linalg.norm(stats.B[0, l])
        sample_r = np.einsum("bn,bm->nm", h[:, 0, l],
                             h[:, 0, l].conj()) / h.shape[0]
        assert np.linalg.norm(sample_r - inst.R[0, l]) <= 0.02 * np.linalg.norm(inst.R[0, l])


def test_copilot_estimates_share_observation():
    # co-pilot estimates are deterministic linear maps of the same pilot
    # observation: h_hat_j = Est_j Est_i^-1 h_hat_i exactly
    cfg = NetworkConfig(L=1, N=2, K=2, side_m=100.0)
    inst = generate_network(cfg, seed=9)
    plan = assign_pilots(inst.beta, 1)
    stats = estimation_stats(inst, plan)
    _, h_hat = estimate_channels(inst, plan, stats, seed=10, n_blocks=64)
    scale = np.sqrt(plan.tau_p * plan.rho_p)
    est = [scale * inst.R[k, 0] @ np.linalg.inv(stats.Psi[k, 0]) for k in range(2)]
    t_mat = est[1] @ np.linalg.inv(est[0])
    npt.assert_allclose(h_hat[:, 1, 0], h_hat[:, 0, 0] @ t_mat.T, rtol=1e-10)


def test_estimate_channels_prefix_stable():
    cfg = NetworkConfig(L=2, N=2, K=2, side_m=100.0)
    inst = generate_network(cfg, seed=11)
    plan = assign_pilots(inst.beta, 2)
    stats = estimation_stats(inst, plan)
    h_a, hh_a = estimate_channels(inst, plan, stats, seed=12, n_blocks=100)
    h_b, hh_b = estimate_channels(inst, plan, stats, seed=12, n_blocks=230)
    npt.assert_array_equal(h_a, h_b[:100])
    npt.assert_array_equal(hh_a, hh_b[:100])


def contaminated_setup():
    cfg = NetworkConfig(L=3, N=2, K=4, side_m=150.0, gain_offset_db=80.0)
    inst = generate_network(cfg, seed=13)
    plan = assign_pilots(inst.beta, 2)
    return inst, plan, estimation_stats(inst, plan)


def test_estimate_channels_follow_substreams():
    # the randomness contract, rebuilt AP by AP: one substream per (seed,
    # draw tag, AP, chunk) draws a block-major (blocks, K + tau_p, N) array,
    # rows :K the channel innovations and rows K: the pilot noise,
    # BLOCK_CHUNK blocks per chunk
    inst, plan, stats = contaminated_setup()
    cfg = inst.cfg
    seed, n_blocks = 14, BLOCK_CHUNK + 40
    h, h_hat = estimate_channels(inst, plan, stats, seed, n_blocks=n_blocks)
    amp = np.sqrt(plan.tau_p * plan.rho_p)

    for chunk, start in enumerate(range(0, n_blocks, BLOCK_CHUNK)):
        size = min(BLOCK_CHUNK, n_blocks - start)
        rows = slice(start, start + size)
        for l in range(cfg.L):
            shape = (size, cfg.K + plan.tau_p, cfg.N, 2)
            key = np.random.SeedSequence([seed, _TAG_BLOCKS, l, chunk])
            z = np.random.default_rng(key).standard_normal(shape)
            z = (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)
            h_ref = [z[:, k] @ hermitian_sqrt(inst.R[k, l]).T for k in range(cfg.K)]
            for k in range(cfg.K):
                npt.assert_allclose(h[rows, k, l], h_ref[k], rtol=1e-12)
            for t, users in enumerate(plan.copilot):
                noise = z[:, cfg.K + t]
                y = amp * sum(h_ref[k] for k in users) + np.sqrt(cfg.noise_var) * noise
                for k in users:
                    est = amp * inst.R[k, l] @ np.linalg.inv(stats.Psi[k, l])
                    npt.assert_allclose(h_hat[rows, k, l], y @ est.T, rtol=1e-12)


def test_ap_draws_do_not_depend_on_the_ap_count():
    # an instance cut to its first APs gives those APs identical blocks
    inst, plan, stats = contaminated_setup()
    n_ap = 2
    cut = replace(inst, cfg=replace(inst.cfg, L=n_ap), beta=inst.beta[:, :n_ap],
                  R=inst.R[:, :n_ap])
    cut_stats = EstimationStats(Psi=stats.Psi[:, :n_ap], B=stats.B[:, :n_ap],
                                C=stats.C[:, :n_ap])
    n_blocks = BLOCK_CHUNK + 40
    h, h_hat = estimate_channels(inst, plan, stats, seed=16, n_blocks=n_blocks)
    h_cut, h_hat_cut = estimate_channels(cut, plan, cut_stats, seed=16,
                                         n_blocks=n_blocks)
    npt.assert_array_equal(h_cut, h[:, :, :n_ap])
    npt.assert_array_equal(h_hat_cut, h_hat[:, :, :n_ap])


def test_block_draws_do_not_reuse_the_geometry_stream():
    # SeedSequence pads its entropy with zeros, so without the draw tag the
    # key (seed, 0, 0) of AP 0's first chunk would be the geometry key
    # (seed, 0) of generate_network, which the harness calls with the same
    # seed
    seed = 5
    geometry = np.random.default_rng(np.random.SeedSequence([seed, _TAG_GEOMETRY]))
    assert not np.array_equal(_substream(seed, 0, 0).random(8), geometry.random(8))


def test_draw_blocks_chunk_then_ap_order():
    inst, plan, stats = contaminated_setup()
    n_blocks = BLOCK_CHUNK + 40
    h, h_hat = estimate_channels(inst, plan, stats, seed=15, n_blocks=n_blocks)
    order = []
    for rows, l, h_l, h_hat_l in draw_blocks(inst, plan, stats, 15, n_blocks):
        order.append((rows.start, rows.stop, l))
        npt.assert_array_equal(h_l, h[rows, :, l])
        npt.assert_array_equal(h_hat_l, h_hat[rows, :, l])
    assert order == [(start, stop, l)
                     for start, stop in ((0, BLOCK_CHUNK), (BLOCK_CHUNK, n_blocks))
                     for l in range(inst.cfg.L)]


@pytest.mark.parametrize("n_blocks", [0, -1])
def test_draws_need_a_positive_block_count(n_blocks):
    inst, plan, stats = contaminated_setup()
    with pytest.raises(ValueError, match="n_blocks must be positive"):
        estimate_channels(inst, plan, stats, seed=1, n_blocks=n_blocks)
    with pytest.raises(ValueError, match="n_blocks must be positive"):
        next(draw_blocks(inst, plan, stats, 1, n_blocks))


def test_plan_validation():
    with pytest.raises(ValueError):
        assign_pilots(np.ones((2, 3)), 0)
    with pytest.raises(ValueError):
        assign_pilots(np.ones((2, 3)), 10, tau_c=5)
