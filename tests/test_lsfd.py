import numpy as np
import numpy.testing as npt
import pytest
from itertools import chain, combinations

from helpers import complex_normal, random_pd

from sparselsfd import NetworkConfig, generate_network
from sparselsfd.lsfd import (
    baseline_association,
    olsfd_weights,
    plsfd_weights,
    se,
    sinr,
)
from sparselsfd.pilots import PilotPlan, assign_pilots
from sparselsfd.sglasso import bcd_solve, build_problem
from sparselsfd.uplink import LsfdStatistics


def random_instance(rng, n=8):
    # A - b b^H kept PD by scaling b inside the unit quadratic ball
    big_a = random_pd(rng, n, ridge=0.5)
    b = complex_normal(rng, (n,))
    quad = np.real(np.vdot(b, np.linalg.solve(big_a, b)))
    b *= np.sqrt(rng.uniform(0.1, 0.9) / quad)
    return big_a, b


def test_sinr_direct():
    npt.assert_allclose(
        sinr(np.array([1.0, 0.0]), 2.0 * np.eye(2), np.array([1.0, 0.0])), 1.0
    )


def test_sinr_scale_invariant():
    rng = np.random.default_rng(0)
    for _ in range(50):
        big_a, b = random_instance(rng)
        a = complex_normal(rng, (8,))
        base = sinr(a, big_a, b)
        c = complex_normal(rng, ())
        npt.assert_allclose(sinr(c * a, big_a, b), base, rtol=1e-12)


def test_sinr_rejects_degenerate():
    with pytest.raises(ValueError):
        sinr(np.zeros(2), np.eye(2), np.ones(2))
    with pytest.raises(ValueError):
        # A = b b^H makes the denominator exactly zero
        b = np.array([1.0, 0.0])
        sinr(b, np.outer(b, b.conj()), b)


def test_olsfd_is_global_maximum():
    rng = np.random.default_rng(1)
    for _ in range(10):
        big_a, b = random_instance(rng)
        best = sinr(olsfd_weights(big_a, b), big_a, b)
        npt.assert_allclose(best, np.real(np.vdot(b, np.linalg.solve(
            big_a - np.outer(b, b.conj()), b))), rtol=1e-10)
        for _ in range(1000):
            a = complex_normal(rng, (8,))
            assert sinr(a, big_a, b) <= best * (1.0 + 1e-10)


def test_olsfd_identity_case():
    rng = np.random.default_rng(2)
    b = complex_normal(rng, (5,))
    a = olsfd_weights(np.eye(5) + np.outer(b, b.conj()), b)
    npt.assert_allclose(a, b, rtol=1e-12)


def test_olsfd_sherman_morrison_colinear():
    rng = np.random.default_rng(3)
    for _ in range(100):
        big_a, b = random_instance(rng)
        a = olsfd_weights(big_a, b)
        quad = np.vdot(b, np.linalg.solve(big_a, b)).real
        expected = np.linalg.solve(big_a, b) / (1.0 - quad)
        npt.assert_allclose(a, expected, rtol=1e-10)


def one_ue_problem(big_a, b, p_k):
    return build_problem(LsfdStatistics(A=big_a[None], b=b[None], p=np.array([p_k])))


def decoding_mse(a, big_a, b_scaled, p_k):
    """a^H A a - 2 Re(a^H b_scaled) + p_k, b_scaled = sqrt(p_k) b."""
    return (np.real(np.vdot(a, big_a @ a))
            - 2.0 * np.real(np.vdot(a, b_scaled)) + p_k)


def test_mse_examples():
    # the sparse design's objective is the MSE minus p_k; unpenalized, its
    # minimum is -const, reached at a = sqrt(p_k) A^-1 b
    rng = np.random.default_rng(4)
    big_a, b = random_instance(rng)
    p_k = 0.1
    b_scaled = np.sqrt(p_k) * b
    problem = one_ue_problem(big_a, b, p_k)
    npt.assert_allclose(problem.bbar[0], b_scaled, rtol=1e-15)
    quad = np.vdot(b_scaled, np.linalg.solve(big_a, b_scaled)).real
    npt.assert_allclose(problem.const, quad, rtol=1e-12)
    res = bcd_solve(problem)
    npt.assert_allclose(res.a[0], np.sqrt(p_k) * np.linalg.solve(big_a, b),
                        rtol=1e-8)
    npt.assert_allclose(res.objective + p_k, p_k - quad, rtol=1e-10)


def test_mse_minimum_and_stationarity():
    rng = np.random.default_rng(5)
    for _ in range(10):
        big_a, b = random_instance(rng)
        p_k = rng.uniform(0.02, 0.1)
        b_scaled = np.sqrt(p_k) * b
        problem = one_ue_problem(big_a, b, p_k)
        floor = p_k - problem.const
        a_opt = bcd_solve(problem).a[0]
        npt.assert_allclose(decoding_mse(a_opt, big_a, b_scaled, p_k), floor,
                            rtol=1e-10)
        for _ in range(20):
            a = a_opt + 0.1 * complex_normal(rng, (8,))
            assert decoding_mse(a, big_a, b_scaled, p_k) >= floor - 1e-12
        for i in range(8):
            for delta in (1e-4, 1e-4j, -1e-4, -1e-4j):
                a = a_opt.copy()
                a[i] += delta
                assert decoding_mse(a, big_a, b_scaled, p_k) >= floor - 1e-14


def test_olsfd_mse_scaling_consistency():
    # with c_k = sqrt(p)(1 - b^H A^-1 b) scaling, the O-LSFD direction
    # attains the MSE minimum p(1 - b^H A^-1 b) = p - const
    rng = np.random.default_rng(6)
    for _ in range(20):
        big_a, b = random_instance(rng)
        p_k = rng.uniform(0.02, 0.1)
        quad = np.vdot(b, np.linalg.solve(big_a, b)).real
        a = olsfd_weights(big_a, b) * np.sqrt(p_k) * (1.0 - quad)
        achieved = decoding_mse(a, big_a, np.sqrt(p_k) * b, p_k)
        npt.assert_allclose(achieved, p_k * (1.0 - quad), rtol=1e-10)
        npt.assert_allclose(achieved, p_k - one_ue_problem(big_a, b, p_k).const,
                            rtol=1e-10)


def test_se_values():
    npt.assert_allclose(se(1.0, 10, 200), 0.95)
    assert se(1.0, 10, 200) == 0.95
    assert se(0.0, 10, 200) == 0.0
    npt.assert_allclose(se(3.0, 0, 200), 2.0)
    with pytest.raises(ValueError):
        se(1.0, 200, 200)
    with pytest.raises(ValueError):
        se(-0.5, 10, 200)


def test_se_increasing_in_sinr():
    grid = np.linspace(0.0, 50.0, 200)
    values = [se(x, 10, 200) for x in grid]
    assert np.all(np.diff(values) > 0)


def test_plsfd_full_subset_is_olsfd():
    rng = np.random.default_rng(7)
    big_a, b = random_instance(rng)
    npt.assert_allclose(plsfd_weights(big_a, b, np.ones(8, dtype=bool)),
                        olsfd_weights(big_a, b), rtol=1e-10)


def test_plsfd_singleton():
    rng = np.random.default_rng(8)
    big_a, b = random_instance(rng)
    a = plsfd_weights(big_a, b, np.arange(8) == 3)
    assert np.count_nonzero(a) == 1
    expected = np.abs(b[3]) ** 2 / (big_a[3, 3].real - np.abs(b[3]) ** 2)
    npt.assert_allclose(sinr(a, big_a, b), expected, rtol=1e-10)


def test_plsfd_monotone_under_inclusion():
    rng = np.random.default_rng(9)
    for _ in range(5):
        big_a, b = random_instance(rng, n=4)
        full = sinr(olsfd_weights(big_a, b), big_a, b)
        subsets = chain.from_iterable(
            combinations(range(4), r) for r in range(1, 5)
        )
        values = {}
        for sub in subsets:
            values[sub] = sinr(plsfd_weights(big_a, b, np.isin(np.arange(4), sub)),
                               big_a, b)
            assert values[sub] <= full * (1.0 + 1e-10)
        for sub, v in values.items():
            for sup in values:
                if set(sub) <= set(sup):
                    assert v <= values[sup] * (1.0 + 1e-10)


def test_plsfd_validation():
    rng = np.random.default_rng(10)
    big_a, b = random_instance(rng)
    with pytest.raises(ValueError, match="at least one AP"):
        plsfd_weights(big_a, b, np.zeros(8, dtype=bool))
    for size in (7, 9):
        with pytest.raises(ValueError, match="length of b"):
            plsfd_weights(big_a, b, np.ones(size, dtype=bool))
    # AP indices are not a mask
    with pytest.raises(ValueError, match="boolean mask"):
        plsfd_weights(big_a, b, np.arange(8))


def test_baseline_association_structure():
    cfg = NetworkConfig(L=6, N=1, K=8, side_m=400.0)
    inst = generate_network(cfg, seed=11)
    plan = assign_pilots(inst.beta, 3)
    assoc = baseline_association(inst.beta, plan)
    assert assoc.shape == (8, 6) and assoc.dtype == bool
    # every UE keeps its strongest AP
    for k in range(8):
        assert assoc[k, int(np.argmax(inst.beta[k]))]
    # every AP serves its strongest co-pilot UE per pilot
    for l in range(6):
        for users in plan.copilot:
            if not users:
                continue
            users = list(users)
            k = users[int(np.argmax(inst.beta[users, l]))]
            assert assoc[k, l]


def loop_baseline_association(beta, plan):
    """The baseline rule read literally: one argmax per UE, per AP and pilot."""
    n_ue, n_ap = beta.shape
    assoc = np.zeros((n_ue, n_ap), dtype=bool)
    for k in range(n_ue):
        assoc[k, int(np.argmax(beta[k]))] = True
    for l in range(n_ap):
        for users in plan.copilot:
            if not users:
                continue
            users = list(users)
            assoc[users[int(np.argmax(beta[users, l]))], l] = True
    return assoc


def test_baseline_association_matches_per_ap_loop():
    rng = np.random.default_rng(12)
    for trial in range(60):
        n_ue, n_ap = int(rng.integers(1, 12)), int(rng.integers(1, 9))
        tau_p = int(rng.integers(1, 6))
        if trial % 2:
            beta = 10.0 ** rng.uniform(-9, -5, (n_ue, n_ap))
        else:
            # few distinct gains: ties, broken towards the first maximum
            beta = rng.integers(1, 4, (n_ue, n_ap)).astype(float)
        # greedy plans (K > tau_p shares pilots, K < tau_p leaves some
        # unused) and random plans that can leave any pilot unused
        assignment = rng.integers(0, tau_p, n_ue)
        copilot = tuple(tuple(np.flatnonzero(assignment == t)) for t in range(tau_p))
        for plan in (assign_pilots(beta, tau_p),
                     PilotPlan(tau_p=tau_p, rho_p=0.1, assignment=assignment,
                               copilot=copilot)):
            npt.assert_array_equal(baseline_association(beta, plan),
                                   loop_baseline_association(beta, plan))
