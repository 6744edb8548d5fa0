"""Tests for the association mask, power control, and the energy model."""

from dataclasses import fields

import numpy as np
import numpy.testing as npt
import pytest

from sparselsfd import (
    PowerModel,
    energy_efficiency,
    extract_association,
    fractional_power,
    total_power,
)


# ---------------------------------------------------------------- association

def test_extract_association_dense():
    a = np.ones((3, 5), dtype=complex)
    assoc = extract_association(a)
    assert assoc.dtype == bool
    npt.assert_array_equal(assoc, np.ones((3, 5), dtype=bool))
    npt.assert_array_equal(assoc.sum(axis=1), [5, 5, 5])
    npt.assert_array_equal(assoc.sum(axis=0), [3] * 5)


def test_extract_association_zero_row():
    a = np.zeros((2, 4), dtype=complex)
    a[1, [0, 3]] = 1.0 + 1.0j
    assoc = extract_association(a)
    assert not assoc[0].any()
    npt.assert_array_equal(np.flatnonzero(assoc[1]), [0, 3])
    npt.assert_array_equal(np.flatnonzero(assoc[:, 0]), [1])
    assert not assoc[:, 1].any()
    assert not assoc[:, 2].any()
    npt.assert_array_equal(np.flatnonzero(assoc[:, 3]), [1])


def test_extract_association_pattern():
    a = np.array([[0.0, 1.0j, 0.0], [2.0, 0.0, -1.0]])
    assoc = extract_association(a)
    npt.assert_array_equal(np.flatnonzero(assoc[0]), [1])
    npt.assert_array_equal(np.flatnonzero(assoc[1]), [0, 2])
    assert assoc.sum(axis=1).mean() == 1.5
    assert assoc.sum(axis=0).mean() == 1.0


def test_association_bidirectional_consistency():
    # serving sets are the rows of the mask, served sets its columns
    rng = np.random.default_rng(30)
    for _ in range(50):
        n_ue, n_ap = rng.integers(1, 6), rng.integers(1, 8)
        mask = rng.random((n_ue, n_ap)) < 0.4
        assoc = extract_association(mask.astype(float))
        npt.assert_array_equal(assoc, mask)
        assert np.isclose(
            assoc.sum(axis=1).mean() * n_ue, assoc.sum(axis=0).mean() * n_ap
        )


# -------------------------------------------------------------- power control

def test_fractional_power_theta_zero_is_pmax():
    beta = np.array([[1.0, 2.0], [0.1, 0.3]])
    assoc = np.ones((2, 2), dtype=bool)
    p = fractional_power(beta, assoc, p_max=0.1, theta=0.0)
    npt.assert_allclose(p, [0.1, 0.1])


def test_fractional_power_two_user_example():
    # serving-set gains sum to 0.1 and 0.2: weaker UE transmits at p_max
    beta = np.array([[0.1], [0.2]])
    assoc = np.ones((2, 1), dtype=bool)
    p = fractional_power(beta, assoc, p_max=0.1, theta=1.0)
    npt.assert_allclose(p, [0.1, 0.05])


def test_fractional_power_properties():
    rng = np.random.default_rng(31)
    for _ in range(40):
        n_ue, n_ap = int(rng.integers(2, 7)), int(rng.integers(2, 9))
        beta = 10.0 ** rng.uniform(-8, -4, size=(n_ue, n_ap))
        assoc = np.zeros((n_ue, n_ap), dtype=bool)
        for k in range(n_ue):
            size = int(rng.integers(1, n_ap + 1))
            assoc[k, rng.choice(n_ap, size=size, replace=False)] = True
        theta = float(rng.uniform(0.0, 1.0))
        p = fractional_power(beta, assoc, p_max=0.1, theta=theta)
        assert np.all(p > 0)
        assert np.all(p <= 0.1 + 1e-15)
        sums = np.array([beta[k, np.flatnonzero(m)].sum() for k, m in enumerate(assoc)])
        assert p[np.argmin(sums)] == pytest.approx(0.1)


def test_fractional_power_rejects_empty_set():
    beta = np.ones((2, 3))
    assoc = np.array([[True, False, False], [False, False, False]])
    with pytest.raises(ValueError, match="UE 1 has an empty serving set"):
        fractional_power(beta, assoc, 0.1, 1.0)
    # the first empty row is named
    with pytest.raises(ValueError, match="UE 0 has"):
        fractional_power(beta, np.zeros((2, 3), dtype=bool), 0.1, 1.0)
    with pytest.raises(ValueError):
        fractional_power(beta, np.eye(2, 3, dtype=bool), 0.0, 1.0)


@pytest.mark.parametrize("gain", [np.inf, np.nan, 0.0])
def test_fractional_power_rejects_bad_gains(gain):
    # checked before the ratio of gain sums, which would be nan or inf
    beta = np.array([[1.0, 2.0], [gain, gain]])
    with pytest.raises(ValueError, match="finite and positive"):
        fractional_power(beta, np.ones((2, 2), dtype=bool), 0.1, 1.0)


# --------------------------------------------------------------- energy model

def test_total_power_single_link_sum():
    # one UE at full power served by one single-antenna AP, SE = 0.95:
    # UE 0.1 + 0.1/0.4, AP 0.2 + 0.8, fronthaul 0.825 + 0.01,
    # CPU 5 + 1 + 20e6 * 0.95 * 1e-9
    model = PowerModel()
    assoc = np.ones((1, 1), dtype=bool)
    pw = total_power(assoc, np.array([0.1]), np.array([0.95]), model, n_antennas=1)
    assert pw == pytest.approx(8.204, abs=1e-12)
    ee = energy_efficiency(np.array([0.95]), pw, model.bandwidth_hz)
    assert ee == pytest.approx(19e6 / 8.204, rel=1e-12)


def test_total_power_empty_association_floor():
    model = PowerModel()
    assoc = np.zeros((4, 6), dtype=bool)
    pw = total_power(assoc, np.zeros(4), np.zeros(4), model, n_antennas=2)
    floor = (
        4 * model.p_circuit_ue_w
        + 6 * 2 * model.p_circuit_ap_w
        + 6 * model.p_fix_fh_w
        + model.p_fix_cpu_w
    )
    assert pw == pytest.approx(floor, rel=1e-12)


def test_total_power_per_link_increment():
    rng = np.random.default_rng(32)
    model = PowerModel()
    for _ in range(20):
        n_ue, n_ap, n_ant = 3, 5, int(rng.integers(1, 5))
        mask = rng.random((n_ue, n_ap)) < 0.5
        base = extract_association(mask.astype(float))
        p = rng.uniform(0, 0.1, n_ue)
        se = rng.uniform(0, 4, n_ue)
        pw = total_power(base, p, se, model, n_ant)
        # adding one serving link costs exactly N*P_proc + P_sig + P_lsfd
        zeros = np.argwhere(~mask)
        if zeros.size == 0:
            continue
        k, l = zeros[rng.integers(len(zeros))]
        mask2 = mask.copy()
        mask2[k, l] = True
        pw2 = total_power(extract_association(mask2.astype(float)), p, se, model, n_ant)
        inc = n_ant * model.p_proc_w + model.p_sig_w + model.p_lsfd_w
        assert pw2 - pw == pytest.approx(inc, rel=1e-12)
        assert pw2 > pw


def test_total_power_validation():
    model = PowerModel()
    assoc = np.ones((2, 2), dtype=bool)
    with pytest.raises(ValueError):
        total_power(assoc, np.array([-0.1, 0.1]), np.zeros(2), model, 1)
    with pytest.raises(ValueError):
        total_power(assoc, np.zeros(2), np.array([1.0, -1.0]), model, 1)


def test_energy_efficiency_values():
    assert energy_efficiency(np.zeros(3), 10.0, 20e6) == 0.0
    assert energy_efficiency(np.array([1.0, 1.0]), 4.0, 20e6) == pytest.approx(1e7)
    lo = energy_efficiency(np.array([2.0]), 9.0, 20e6)
    hi = energy_efficiency(np.array([2.0]), 8.0, 20e6)
    assert hi > lo
    with pytest.raises(ValueError):
        energy_efficiency(np.array([1.0]), 0.0, 20e6)
    with pytest.raises(ValueError):
        energy_efficiency(np.array([1.0]), -2.0, 20e6)


def test_power_model_validation():
    with pytest.raises(ValueError):
        PowerModel(pa_efficiency=0.0)
    with pytest.raises(ValueError):
        PowerModel(bandwidth_hz=-1.0)
    with pytest.raises(ValueError):
        PowerModel(p_max_w=0.0)
    for name in (f.name for f in fields(PowerModel)):
        for value in (np.inf, np.nan, -5.0):
            with pytest.raises(ValueError, match=name):
                PowerModel(**{name: value})
    PowerModel(theta=0.0, p_circuit_ue_w=0.0, p_deco_w_per_bps=0.0)
