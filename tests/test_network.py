import numpy as np
import numpy.testing as npt
import pytest

from sparselsfd import network
from sparselsfd.network import (
    NetworkConfig,
    _psd_repair,
    channel_statistics,
    correlation_matrix,
    generate_network,
    pathloss_db,
    wrap_distance,
)


def test_wrap_distance_identity():
    assert wrap_distance(np.zeros(2), np.zeros(2), 500.0, 0.0) == 0.0


def test_wrap_distance_min_image():
    d = wrap_distance(np.array([0.0, 0.0]), np.array([490.0, 0.0]), 500.0, 0.0)
    npt.assert_allclose(d, 10.0)


def test_wrap_distance_direct():
    d = wrap_distance(np.array([0.0, 0.0]), np.array([250.0, 250.0]), 500.0, 10.0)
    npt.assert_allclose(d, np.sqrt(250.0**2 + 250.0**2 + 10.0**2))


def test_wrap_distance_symmetric_and_bounded():
    rng = np.random.default_rng(0)
    for _ in range(200):
        p, q = rng.uniform(0, 500, (2, 2))
        d_pq = wrap_distance(p, q, 500.0, 10.0)
        d_qp = wrap_distance(q, p, 500.0, 10.0)
        npt.assert_allclose(d_pq, d_qp)
        unwrapped = np.sqrt(np.sum((p - q) ** 2) + 100.0)
        assert d_pq <= unwrapped + 1e-12


def test_pathloss_examples():
    npt.assert_allclose(pathloss_db(100.0), -103.9)
    npt.assert_allclose(pathloss_db(1.0), -30.5)
    npt.assert_allclose(pathloss_db(1000.0), -140.6)


def test_pathloss_rejects_nonpositive():
    with pytest.raises(ValueError):
        pathloss_db(0.0)


def test_correlation_scalar_case():
    r = correlation_matrix(0.3, 0.7, np.deg2rad(15.0), 1, 0.5)
    assert r.shape == (1, 1)
    npt.assert_allclose(r, [[0.3]])


def test_correlation_trace_is_n_beta():
    rng = np.random.default_rng(1)
    for _ in range(50):
        beta = rng.uniform(0.01, 10.0)
        phi = rng.uniform(-np.pi, np.pi)
        n = rng.integers(1, 6)
        r = correlation_matrix(beta, phi, np.deg2rad(15.0), n, 0.5)
        npt.assert_allclose(np.trace(r).real, n * beta, rtol=1e-12)
        npt.assert_allclose(r, r.conj().T, atol=1e-14 * beta)


def test_correlation_zero_spread_is_rank_one():
    beta, phi = 2.0, 0.4
    r = correlation_matrix(beta, phi, 0.0, 2, 0.5)
    arg = 2.0 * np.pi * 0.5 * np.sin(phi)
    steer = np.exp(1j * arg * np.arange(2))
    npt.assert_allclose(r, beta * np.outer(steer, steer.conj()), atol=1e-12)
    eigs = np.linalg.eigvalsh(r)
    npt.assert_allclose(eigs[0], 0.0, atol=1e-12)


def test_correlation_psd():
    rng = np.random.default_rng(2)
    for _ in range(100):
        beta = rng.uniform(0.01, 100.0)
        r = correlation_matrix(beta, rng.uniform(-np.pi, np.pi),
                               np.deg2rad(rng.uniform(1.0, 40.0)), 4, 0.5)
        assert np.linalg.eigvalsh(r).min() >= -1e-10 * beta


def test_correlation_stack_matches_scalar_calls():
    rng = np.random.default_rng(3)
    for n in (1, 2, 4):
        for asd in (0.0, np.deg2rad(15.0)):
            beta = 10.0 ** rng.uniform(-12.0, 2.0, (3, 5))
            phi = rng.uniform(-np.pi, np.pi, (3, 5))
            stack = correlation_matrix(beta, phi, asd, n, 0.5)
            assert stack.shape == (3, 5, n, n)
            for k in range(3):
                for l in range(5):
                    npt.assert_array_equal(
                        stack[k, l], correlation_matrix(beta[k, l], phi[k, l], asd, n, 0.5)
                    )


def test_correlation_stack_partial_repair(monkeypatch):
    # a tolerance of -1e-6 repairs the matrices whose smallest eigenvalue is
    # below 1e-6 beta: at the endfire angles phi = +-pi/2 the spread term
    # vanishes and the matrix has rank one
    monkeypatch.setattr(network, "PSD_EIG_RTOL", -1e-6)
    beta = np.array([1.0, 2.0, 3.0, 4.0])
    phi = np.array([0.3, np.pi / 2, 1.2, -np.pi / 2])
    asd = np.deg2rad(15.0)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or eigh(m))
    stack = correlation_matrix(beta, phi, asd, 4, 0.5)
    assert calls == [(2, 4, 4)]
    for i in range(4):
        npt.assert_array_equal(stack[i], correlation_matrix(beta[i], phi[i], asd, 4, 0.5))
    assert len(calls) == 3  # one per scalar call that needed the repair


def test_psd_repair_touches_only_indefinite_matrices():
    good = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
    bad = np.array([[1.0, 1.5j], [-1.5j, 1.0]])  # eigenvalues -0.5 and 2.5
    stack = np.stack([good, bad, good])
    fixed = _psd_repair(stack.copy(), np.ones(3))
    npt.assert_array_equal(fixed[0], good)
    npt.assert_array_equal(fixed[2], good)
    w, v = np.linalg.eigh(bad)
    npt.assert_allclose(fixed[1], 2.5 * np.outer(v[:, 1], v[:, 1].conj()), atol=1e-14)
    npt.assert_array_equal(fixed[1], _psd_repair(bad.copy(), 1.0))
    assert np.linalg.eigvalsh(fixed[1]).min() >= -1e-14


def test_generate_deterministic():
    cfg = NetworkConfig(L=8, N=2, K=5, side_m=300.0)
    a = generate_network(cfg, seed=7)
    b = generate_network(cfg, seed=7)
    npt.assert_array_equal(a.ap_pos, b.ap_pos)
    npt.assert_array_equal(a.ue_pos, b.ue_pos)
    npt.assert_array_equal(a.beta, b.beta)
    npt.assert_array_equal(a.R, b.R)


def test_zero_shadow_is_pure_pathloss():
    cfg = NetworkConfig(L=3, N=1, K=2, side_m=400.0, shadow_std_db=0.0)
    inst = generate_network(cfg, seed=3)
    for k in range(2):
        for l in range(3):
            d = wrap_distance(inst.ue_pos[k], inst.ap_pos[l], 400.0,
                              cfg.ap_height_m)
            npt.assert_allclose(10.0 * np.log10(inst.beta[k, l]),
                                pathloss_db(d), rtol=1e-12)


def test_positions_inside_square():
    cfg = NetworkConfig(L=40, N=1, K=20, side_m=500.0)
    inst = generate_network(cfg, seed=5)
    assert np.all(inst.ue_pos >= 0.0) and np.all(inst.ue_pos < 500.0)
    assert np.all(inst.ap_pos >= 0.0) and np.all(inst.ap_pos < 500.0)
    assert inst.ue_pos.shape == (20, 2)


def test_instance_correlation_psd_and_trace():
    cfg = NetworkConfig(L=5, N=4, K=3, side_m=200.0)
    inst = generate_network(cfg, seed=9)
    for k in range(3):
        for l in range(5):
            r = inst.R[k, l]
            npt.assert_allclose(np.trace(r).real, 4 * inst.beta[k, l],
                                rtol=1e-12)
            assert np.linalg.eigvalsh(r).min() >= -1e-10 * inst.beta[k, l]


def test_translation_invariance_of_beta():
    # wrap-around consistency: shifting the whole layout modulo the side
    # leaves distances, hence gains, unchanged (shadow realization fixed)
    cfg = NetworkConfig(L=6, N=1, K=4, side_m=300.0)
    inst = generate_network(cfg, seed=13)
    rng = np.random.default_rng(13)
    shadow = rng.standard_normal((4, 6)) * cfg.shadow_std_db
    beta0, _ = channel_statistics(cfg, inst.ap_pos, inst.ue_pos, shadow)
    offset = np.array([123.4, 77.7])
    beta1, _ = channel_statistics(cfg, (inst.ap_pos + offset) % 300.0,
                                  (inst.ue_pos + offset) % 300.0, shadow)
    npt.assert_allclose(beta1, beta0, rtol=1e-10)


def test_config_validation():
    with pytest.raises(ValueError):
        NetworkConfig(L=0, N=1, K=1)
    with pytest.raises(ValueError):
        NetworkConfig(L=1, N=1, K=1, side_m=-5.0)
    with pytest.raises(ValueError):
        NetworkConfig(L=1, N=1, K=1, noise_var=0.0)
    for name in ("side_m", "ap_height_m", "shadow_std_db", "asd_deg",
                 "antenna_spacing_wl", "noise_var", "gain_offset_db"):
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                NetworkConfig(L=1, N=1, K=1, **{name: value})
