import numpy as np
import numpy.testing as npt
import pytest

from helpers import complex_normal, random_statistics

from sparselsfd.linalg import NotPositiveDefiniteError
from sparselsfd.sglasso import (
    SolverOptions,
    SparseProblem,
    bcd_solve,
    _group_core,
    build_problem,
    kkt_residual,
    prox_l1,
    reference_solve,
    snap_zeros,
)
from sparselsfd.uplink import LsfdStatistics


def tiny_problem(big_a, bbar):
    big_a = np.asarray(big_a, dtype=complex)
    bbar = np.asarray(bbar, dtype=complex)
    const = sum(np.real(np.vdot(bbar[k], np.linalg.solve(big_a[k], bbar[k])))
                for k in range(bbar.shape[0]))
    return SparseProblem(A=big_a, bbar=bbar, const=float(const))


def objective(problem, a, gamma, lam):
    quad = sum(
        np.real(np.vdot(a[k], problem.A[k] @ a[k]))
        - 2.0 * np.real(np.vdot(a[k], problem.bbar[k]))
        for k in range(problem.shape[0])
    )
    pen = gamma * np.sum(np.linalg.norm(a, axis=0))
    pen += lam * float(np.sum(np.abs(a.real)) + np.sum(np.abs(a.imag)))
    return quad + pen


# ------------------------------------------------------------ prox operators

def test_prox_l1_direct():
    npt.assert_allclose(prox_l1(np.array([3.0, -1.0, 0.5]), 1.0),
                        [2.0, 0.0, 0.0], atol=1e-12)


def test_prox_l1_zero_threshold_is_identity():
    x = np.array([0.3, -2.0, 0.0, 7.5])
    npt.assert_array_equal(prox_l1(x, 0.0), x)


def test_prox_l1_full_shrinkage():
    x = np.array([0.3, -2.0, 1.5])
    npt.assert_array_equal(prox_l1(x, 2.0), np.zeros(3))


def prox(x, gamma, lam):
    """Prox of gamma ||.||_2 + lam ||.||_1 at real x, by the exact group solve.

    With g = 1/2 and c = x/2 the group subproblem is ||u - x||^2/2 plus the
    penalty, up to a constant.
    """
    return _group_core(0.5, np.asarray(x, dtype=float) / 2.0, gamma, lam).real


def test_prox_l2_zero_input():
    npt.assert_array_equal(prox(np.zeros(4), 1.0, 0.0), np.zeros(4))


def test_prox_l2_direct():
    npt.assert_allclose(prox(np.array([3.0, 4.0]), 1.0, 0.0), [2.4, 3.2],
                        atol=1e-12)


def test_prox_l2_full_shrinkage():
    npt.assert_array_equal(prox(np.array([0.6, 0.8]), 1.0, 0.0), np.zeros(2))


def test_prox_composite_degenerate_penalties():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(6)
    npt.assert_allclose(prox(x, 0.7, 0.0),
                        x * (1.0 - 0.7 / np.linalg.norm(x)), rtol=1e-14)
    npt.assert_array_equal(prox(x, 0.0, 0.3), prox_l1(x, 0.3))


def test_prox_composite_direct():
    out = prox(np.array([3.0, 4.0]), 1.0, 1.0)
    scale = (np.sqrt(13.0) - 1.0) / np.sqrt(13.0)
    npt.assert_allclose(out, scale * np.array([2.0, 3.0]), atol=1e-12)
    npt.assert_allclose(out, [1.44530, 2.16795], atol=1e-5)


def test_prox_rejects_negative_threshold():
    with pytest.raises(ValueError):
        prox_l1(np.ones(2), -0.1)
    with pytest.raises(ValueError):
        SolverOptions(gamma=-0.1)


def test_prox_composite_is_lemma_fixed_point():
    # the group solve at g = 1/2 solves
    # min_u ||u - x||^2/2 + mu(gamma ||u|| + lam |u|_1): compare against a
    # dense grid scan in 2D
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.uniform(-2, 2, 2)
        mu, gamma, lam = rng.uniform(0.1, 1.0, 3)
        u_star = prox(x, mu * gamma, mu * lam)

        def val(u):
            return (0.5 * np.sum((u - x) ** 2)
                    + mu * (gamma * np.linalg.norm(u) + lam * np.abs(u).sum()))

        best = val(u_star)
        grid = np.linspace(-2.5, 2.5, 81)
        for u0 in grid:
            for u1 in grid:
                assert val(np.array([u0, u1])) >= best - 1e-9


# --------------------------------------------------------------- build/problem

def test_build_problem_identity_blocks():
    n_ue, n_ap = 2, 3
    big_a = np.broadcast_to(np.eye(n_ap, dtype=complex),
                            (n_ue, n_ap, n_ap)).copy()
    b = complex_normal(np.random.default_rng(2), (n_ue, n_ap))
    stats = LsfdStatistics(A=big_a, b=b, p=np.ones(n_ue))
    problem = build_problem(stats)
    assert np.shares_memory(problem.A, stats.A)
    npt.assert_array_equal(problem.bbar, b)
    npt.assert_allclose(problem.const, np.sum(np.abs(b) ** 2), rtol=1e-14)


def test_build_problem_const_is_unpenalized_minimum():
    rng = np.random.default_rng(4)
    stats = random_statistics(rng, n_ue=3, n_ap=5)
    problem = build_problem(stats)
    b_scaled = np.sqrt(stats.p)[:, None] * stats.b
    npt.assert_allclose(problem.bbar, b_scaled, rtol=1e-15)
    const = sum(
        np.real(np.vdot(b_scaled[k], np.linalg.solve(stats.A[k], b_scaled[k])))
        for k in range(3)
    )
    npt.assert_allclose(problem.const, const, rtol=1e-12)
    res = bcd_solve(problem, SolverOptions(gamma=0.0, lam=0.0, tol_rel=1e-14))
    npt.assert_allclose(res.objective, -problem.const, rtol=1e-10)
    npt.assert_allclose(objective(problem, res.a, 0.0, 0.0), -const, rtol=1e-10)


def test_build_problem_rejects_indefinite():
    big_a = np.stack([np.eye(3, dtype=complex),
                      np.diag([1.0, -1.0, 1.0]).astype(complex)])
    stats = LsfdStatistics(A=big_a, b=np.zeros((2, 3), complex),
                           p=np.ones(2))
    with pytest.raises(NotPositiveDefiniteError) as err:
        build_problem(stats)
    assert "1" in str(err.value)


# ----------------------------------------------------------------- group solve

def group_corr(problem, a, l):
    """Group l's correlation with the partial residual: bbar - A a + A_ll a."""
    q = np.einsum("krm,km->kr", problem.A, a)
    return problem.bbar[:, l] - q[:, l] + problem.A[:, l, l].real * a[:, l]


def test_group_core_unpenalized_identity_gram():
    rng = np.random.default_rng(7)
    big_a = np.broadcast_to(np.eye(4, dtype=complex), (3, 4, 4)).copy()
    bbar = complex_normal(rng, (3, 4))
    problem = tiny_problem(big_a, bbar)
    a = np.zeros((3, 4), complex)
    for l in range(4):
        out = _group_core(np.ones(3), group_corr(problem, a, l), 0.0, 0.0)
        npt.assert_allclose(out, bbar[:, l], atol=1e-8)


def test_group_core_zero_threshold():
    # if ||prox_l1(2 c, lam)|| <= gamma the minimizer is the zero group
    rng = np.random.default_rng(8)
    for _ in range(20):
        scale = rng.uniform(0.5, 2.0, 2)
        bbar = scale[:, None] * complex_normal(rng, (2, 1)) * 0.1
        problem = tiny_problem((scale ** 2)[:, None, None], bbar)
        c2 = 2.0 * bbar[:, 0]
        c2_real = np.concatenate([c2.real, c2.imag])
        lam = rng.uniform(0.0, 0.3)
        gamma = np.linalg.norm(prox_l1(c2_real, lam)) * 1.001
        out = _group_core(scale ** 2,
                          group_corr(problem, np.zeros((2, 1), complex), 0),
                          gamma, lam)
        npt.assert_array_equal(out, np.zeros(2, complex))


def test_group_core_scalar_soft_threshold():
    # minimize a^2 - 4a + |a|: optimum (4 - 1)/2 = 1.5
    problem = tiny_problem([[[1.0]]], [[2.0]])
    out = _group_core(np.ones(1),
                      group_corr(problem, np.zeros((1, 1), complex), 0),
                      0.0, 1.0)
    npt.assert_allclose(out, [1.5 + 0.0j], rtol=1e-8)


def test_group_core_is_exact_minimizer():
    # optimality in the real embedding, for Gram entries across 12 decades
    # and gamma / ||u|| from 1e-12 to 1:
    # 2 g x - 2 c + gamma x / ||x|| + lam sign(x) = 0 where x != 0, and
    # |2 c| <= lam where x = 0
    rng = np.random.default_rng(22)
    for _ in range(1000):
        n = int(rng.integers(1, 21))
        g = 10.0 ** rng.uniform(-6.0, 6.0, n)
        c = complex_normal(rng, (n,)) * 10.0 ** rng.uniform(-3.0, 3.0)
        c_r = np.concatenate([c.real, c.imag])
        lam = rng.uniform(0.0, 1.0) * np.abs(2.0 * c_r).max()
        u = prox_l1(2.0 * c.real, lam) + 1j * prox_l1(2.0 * c.imag, lam)
        gamma = np.linalg.norm(u) * 10.0 ** rng.uniform(-12.0, 0.0)
        out = _group_core(g, c, gamma, lam)
        x = np.concatenate([out.real, out.imag])
        g_r = np.concatenate([g, g])
        assert np.linalg.norm(x) > 0
        on = x != 0
        grad = 2.0 * g_r * x - 2.0 * c_r + gamma * x / np.linalg.norm(x)
        viol = np.where(on, np.abs(grad + lam * np.sign(x)),
                        np.maximum(np.abs(2.0 * c_r) - lam, 0.0))
        assert np.all(viol <= 1e-9 * (np.abs(2.0 * c_r) + lam + gamma))
        # closed forms: no penalty on the group norm, and a constant Gram
        npt.assert_allclose(_group_core(g, c, 0.0, lam), u / (2.0 * g),
                            rtol=1e-14)
        shrink = 1.0 - gamma / np.linalg.norm(u)
        npt.assert_allclose(_group_core(np.full(n, g[0]), c, gamma, lam),
                            u * shrink / (2.0 * g[0]),
                            rtol=1e-12, atol=1e-14 * np.abs(u).max() / g[0])


def test_group_core_tiny_gamma():
    # gamma so small that ||u|| / gamma overflows: the minimizer is the
    # gamma = 0 one to rounding, with no overflow or division by zero
    g = np.array([0.5, 2.0, 7.0])
    c = np.array([-0.03 + 0.01j, 0.2 - 0.1j, 1e-3j])
    for gamma in (1e-150, 1e-200, 1e-272, 5e-324):
        with np.errstate(all="raise"):
            out = _group_core(g, c, gamma, 0.0)
        npt.assert_allclose(out, c / g, rtol=1e-14)


# ------------------------------------------------------------------ bcd_solve

def test_bcd_unpenalized_matches_direct_solve():
    rng = np.random.default_rng(9)
    stats = random_statistics(rng, n_ue=3, n_ap=6)
    problem = build_problem(stats)
    result = bcd_solve(problem, SolverOptions(gamma=0.0, lam=0.0))
    for k in range(3):
        direct = np.linalg.solve(stats.A[k], np.sqrt(stats.p[k]) * stats.b[k])
        npt.assert_allclose(result.a[k], direct,
                            atol=1e-6 * np.linalg.norm(direct))


def test_bcd_zero_point_threshold():
    rng = np.random.default_rng(10)
    stats = random_statistics(rng, n_ue=3, n_ap=4)
    problem = build_problem(stats)
    b_scaled = np.sqrt(stats.p)[:, None] * stats.b
    lam0 = 2.0 * max(np.abs(b_scaled.real).max(), np.abs(b_scaled.imag).max())
    result = bcd_solve(problem, SolverOptions(gamma=0.0, lam=lam0 * 1.0001))
    assert np.all(result.a == 0)
    assert result.kkt_residual == 0.0


def test_bcd_matches_reference_small():
    rng = np.random.default_rng(11)
    stats = random_statistics(rng, n_ue=3, n_ap=4)
    problem = build_problem(stats)
    res = bcd_solve(problem, SolverOptions(gamma=1e-2, lam=1e-2))
    ref = reference_solve(problem, 1e-2, 1e-2, tol=1e-8)
    assert abs(res.objective - ref.objective) <= 1e-4 * abs(ref.objective)


def test_bcd_trace_monotone():
    rng = np.random.default_rng(12)
    stats = random_statistics(rng, n_ue=4, n_ap=8)
    problem = build_problem(stats)
    res = bcd_solve(problem, SolverOptions(gamma=1e-3, lam=1e-3))
    trace = res.objective_trace
    assert np.all(np.diff(trace) <= 1e-12)


def test_bcd_objective_consistent_with_direct_evaluation():
    rng = np.random.default_rng(13)
    stats = random_statistics(rng, n_ue=2, n_ap=5)
    problem = build_problem(stats)
    res = bcd_solve(problem, SolverOptions(gamma=1e-3, lam=1e-4))
    npt.assert_allclose(res.objective,
                        objective(problem, res.a, 1e-3, 1e-4), rtol=1e-8)


def test_penalized_objective_monotone_in_lambda():
    rng = np.random.default_rng(14)
    stats = random_statistics(rng, n_ue=2, n_ap=4)
    problem = build_problem(stats)
    previous = -np.inf
    for lam in (0.0, 1e-3, 1e-2, 1e-1):
        ref = reference_solve(problem, 1e-3, lam, tol=1e-8)
        assert ref.objective >= previous - 1e-10
        previous = ref.objective


def test_zero_pattern_is_exact_after_snap():
    rng = np.random.default_rng(15)
    stats = random_statistics(rng, n_ue=3, n_ap=6)
    problem = build_problem(stats)
    res = bcd_solve(problem, SolverOptions(gamma=1e-2, lam=1e-2))
    a = snap_zeros(res.a)
    tiny = np.abs(a) < 1e-12
    assert np.all(a[tiny] == 0)
    nonzero = a[~tiny]
    assert np.all((nonzero.real != 0) | (nonzero.imag != 0))


def test_snap_zeros_handles_half_zero_coordinates():
    a = np.array([[1e-13 + 1.0j, 1e-13 + 1e-13j, 0.5 + 0.0j]])
    out = snap_zeros(a)
    assert out[0, 0] == 1e-13 + 1.0j  # modulus above threshold, kept whole
    assert out[0, 1] == 0
    assert out[0, 2] == 0.5


# -------------------------------------------------------------- kkt / oracle

def test_kkt_residual_of_reference_output():
    rng = np.random.default_rng(16)
    stats = random_statistics(rng, n_ue=2, n_ap=4)
    problem = build_problem(stats)
    ref = reference_solve(problem, 1e-2, 1e-3, tol=1e-9)
    assert kkt_residual(ref.a, problem, 1e-2, 1e-3) < 1e-6


def test_kkt_residual_stationary_quadratic():
    rng = np.random.default_rng(17)
    stats = random_statistics(rng, n_ue=2, n_ap=4)
    problem = build_problem(stats)
    a = np.stack([
        np.linalg.solve(stats.A[k], np.sqrt(stats.p[k]) * stats.b[k])
        for k in range(2)
    ])
    assert kkt_residual(a, problem, 0.0, 0.0) < 1e-8


def test_kkt_residual_grows_under_perturbation():
    rng = np.random.default_rng(18)
    for _ in range(5):
        stats = random_statistics(rng, n_ue=2, n_ap=4)
        problem = build_problem(stats)
        res = bcd_solve(problem, SolverOptions(gamma=1e-3, lam=1e-3,
                                               tol_rel=1e-12))
        base = kkt_residual(res.a, problem, 1e-3, 1e-3)
        a = res.a.copy()
        a[0, 0] += 0.1
        assert kkt_residual(a, problem, 1e-3, 1e-3) > base


def kkt_per_group(a, problem, gamma, lam):
    """The KKT residual one group at a time, straight from its definition."""
    grad = 2.0 * np.einsum("krl,kl->kr", problem.A, a) - 2.0 * problem.bbar
    worst = 0.0
    for l in range(a.shape[1]):
        g = np.concatenate([grad[:, l].real, grad[:, l].imag])
        x = np.concatenate([a[:, l].real, a[:, l].imag])
        if not np.any(x):
            viol = max(np.linalg.norm(prox_l1(-g, lam)) - gamma, 0.0)
        else:
            w = g + gamma * x / np.linalg.norm(x)
            viol = max(
                abs(w[i] + lam * np.sign(x[i])) if x[i] != 0
                else max(abs(w[i]) - lam, 0.0)
                for i in range(x.size)
            )
        worst = max(worst, viol)
    return worst


def test_kkt_residual_matches_per_group_definition():
    # zero groups, full groups and half-zero coordinates, at all penalty mixes
    rng = np.random.default_rng(21)
    for _ in range(30):
        stats = random_statistics(rng, n_ue=3, n_ap=6)
        problem = build_problem(stats)
        for gamma, lam in ((0.0, 0.0), (1e-2, 0.0), (0.0, 1e-2), (5e-2, 1e-2)):
            a = bcd_solve(problem, SolverOptions(gamma=gamma, lam=lam,
                                                 max_sweeps=3)).a
            a[:, 0] = 0.0
            a[1, 1] = a[1, 1].real
            scale = np.abs(2.0 * problem.bbar).max()
            npt.assert_allclose(kkt_residual(a, problem, gamma, lam),
                                kkt_per_group(a, problem, gamma, lam),
                                rtol=1e-12, atol=1e-14 * scale)


def test_reference_solve_quadratic_case():
    rng = np.random.default_rng(19)
    stats = random_statistics(rng, n_ue=2, n_ap=5)
    problem = build_problem(stats)
    ref = reference_solve(problem, 0.0, 0.0, tol=1e-6)
    for k in range(2):
        direct = np.linalg.solve(stats.A[k], np.sqrt(stats.p[k]) * stats.b[k])
        npt.assert_allclose(ref.a[k], direct,
                            atol=1e-4 * np.linalg.norm(direct))


def test_reference_solve_monotone_descent():
    rng = np.random.default_rng(20)
    stats = random_statistics(rng, n_ue=2, n_ap=4)
    problem = build_problem(stats)
    ref = reference_solve(problem, 1e-3, 1e-3, tol=1e-6)
    assert np.all(np.diff(ref.objective_trace) <= 1e-12)


def test_cross_agreement_both_directions():
    rng = np.random.default_rng(21)
    for _ in range(10):
        stats = random_statistics(rng, n_ue=2, n_ap=4)
        problem = build_problem(stats)
        res = bcd_solve(problem, SolverOptions(gamma=1e-2, lam=1e-2))
        ref = reference_solve(problem, 1e-2, 1e-2, tol=1e-6)
        gap = abs(res.objective - ref.objective)
        assert gap <= 1e-4 * max(abs(ref.objective), abs(res.objective))


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(gamma=-1.0)
    with pytest.raises(ValueError):
        SolverOptions(lam=-0.5)
    with pytest.raises(ValueError):
        SolverOptions(tol_rel=-1e-9)
    for name in ("gamma", "lam", "tol_rel"):
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                SolverOptions(**{name: value})
