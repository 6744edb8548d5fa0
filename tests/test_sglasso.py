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
    prox_composite,
    prox_l1,
    prox_l2,
    reference_solve,
    snap_zeros,
)
from sparselsfd.uplink import LsfdStatistics


def tiny_problem(chol, target, p=None):
    chol = np.asarray(chol, dtype=complex)
    target = np.asarray(target, dtype=complex)
    if p is None:
        p = np.ones(chol.shape[0])
    gram = np.sum(np.abs(chol) ** 2, axis=1)
    return SparseProblem(chol=chol, target=target, p=np.asarray(p, float),
                         gram=gram)


def objective(problem, a, gamma, lam):
    fit = 0.0
    quad = 0.0
    for k in range(problem.shape[0]):
        r = problem.target[k] - problem.chol[k] @ a[k]
        fit += np.real(np.vdot(r, r))
        quad += np.real(np.vdot(problem.target[k], problem.target[k]))
    pen = gamma * np.sum(np.linalg.norm(a, axis=0))
    pen += lam * float(np.sum(np.abs(a.real)) + np.sum(np.abs(a.imag)))
    return fit - quad + pen


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


def test_prox_l2_zero_input():
    npt.assert_array_equal(prox_l2(np.zeros(4), 1.0), np.zeros(4))


def test_prox_l2_direct():
    npt.assert_allclose(prox_l2(np.array([3.0, 4.0]), 1.0), [2.4, 3.2],
                        atol=1e-12)


def test_prox_l2_full_shrinkage():
    npt.assert_array_equal(prox_l2(np.array([0.6, 0.8]), 1.0), np.zeros(2))


def test_prox_composite_degenerate_penalties():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(6)
    npt.assert_array_equal(prox_composite(x, 1.0, 0.7, 0.0),
                           prox_l2(x, 0.7))
    npt.assert_array_equal(prox_composite(x, 1.0, 0.0, 0.3),
                           prox_l1(x, 0.3))


def test_prox_composite_direct():
    out = prox_composite(np.array([3.0, 4.0]), 1.0, 1.0, 1.0)
    scale = (np.sqrt(13.0) - 1.0) / np.sqrt(13.0)
    npt.assert_allclose(out, scale * np.array([2.0, 3.0]), atol=1e-12)
    npt.assert_allclose(out, [1.44530, 2.16795], atol=1e-5)


def test_prox_rejects_negative_threshold():
    with pytest.raises(ValueError):
        prox_l1(np.ones(2), -0.1)
    with pytest.raises(ValueError):
        prox_l2(np.ones(2), -0.1)


def test_prox_composite_is_lemma_fixed_point():
    # the composite map solves min_u ||u - x||^2/2 + mu(gamma ||u|| + lam |u|_1):
    # compare against a dense grid scan in 2D
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.uniform(-2, 2, 2)
        mu, gamma, lam = rng.uniform(0.1, 1.0, 3)
        u_star = prox_composite(x, mu, gamma, lam)

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
    npt.assert_allclose(problem.chol, big_a, atol=1e-14)
    npt.assert_allclose(problem.target, b, rtol=1e-14)
    npt.assert_allclose(problem.gram, np.ones((n_ue, n_ap)))


def test_build_problem_factor_identity():
    rng = np.random.default_rng(3)
    stats = random_statistics(rng, n_ue=3, n_ap=5)
    problem = build_problem(stats)
    for k in range(3):
        f = problem.chol[k]
        assert np.allclose(np.tril(f, -1), 0.0)
        npt.assert_allclose(f.conj().T @ f, stats.A[k], rtol=1e-10)
        # Abar^H bbar recovers the sqrt(p)-scaled linear term
        npt.assert_allclose(f.conj().T @ problem.target[k],
                            np.sqrt(stats.p[k]) * stats.b[k], rtol=1e-10)


def test_build_problem_objective_identity():
    rng = np.random.default_rng(4)
    stats = random_statistics(rng, n_ue=2, n_ap=4)
    problem = build_problem(stats)
    b_scaled = np.sqrt(stats.p)[:, None] * stats.b
    const = sum(
        np.real(np.vdot(b_scaled[k], np.linalg.solve(stats.A[k], b_scaled[k])))
        for k in range(2)
    )
    for _ in range(100):
        a = complex_normal(rng, (2, 4))
        lhs = sum(
            np.real(np.vdot(problem.target[k] - problem.chol[k] @ a[k],
                            problem.target[k] - problem.chol[k] @ a[k]))
            for k in range(2)
        ) - const
        rhs = sum(
            np.real(np.vdot(a[k], stats.A[k] @ a[k]))
            - 2.0 * np.real(np.vdot(a[k], b_scaled[k]))
            for k in range(2)
        )
        npt.assert_allclose(lhs, rhs, rtol=1e-8, atol=1e-10)


def test_build_problem_group_layout():
    # group l gathers coefficient l of every UE block: per-UE factors are
    # block diagonal, so the group Gram is the per-column squared norms
    rng = np.random.default_rng(5)
    stats = random_statistics(rng, n_ue=2, n_ap=3)
    problem = build_problem(stats)
    for l in range(3):
        npt.assert_allclose(problem.gram[:, l],
                            np.sum(np.abs(problem.chol[:, :, l]) ** 2, axis=1))


def test_build_problem_rejects_indefinite():
    big_a = np.stack([np.eye(3, dtype=complex),
                      np.diag([1.0, -1.0, 1.0]).astype(complex)])
    stats = LsfdStatistics(A=big_a, b=np.zeros((2, 3), complex),
                           p=np.ones(2))
    with pytest.raises(NotPositiveDefiniteError) as err:
        build_problem(stats)
    assert "1" in str(err.value)


# ----------------------------------------------------------------- group solve

def group_corr(problem, l, resid_l):
    """Correlation of group l's columns with the partial residual."""
    return np.einsum("kr,kr->k", problem.chol[:, :, l].conj(), resid_l)


def test_group_core_unpenalized_identity_gram():
    rng = np.random.default_rng(7)
    chol = np.broadcast_to(np.eye(4, dtype=complex), (3, 4, 4)).copy()
    target = complex_normal(rng, (3, 4))
    problem = tiny_problem(chol, target)
    for l in range(4):
        out = _group_core(problem.gram[:, l], group_corr(problem, l, target),
                          0.0, 0.0)
        expected = np.einsum("kr,kr->k", chol[:, :, l].conj(), target)
        npt.assert_allclose(out, expected, atol=1e-8)


def test_group_core_zero_threshold():
    # if ||prox_l1(2 Abar^T r, lam)|| <= gamma the minimizer is the zero group
    rng = np.random.default_rng(8)
    for _ in range(20):
        chol = np.zeros((2, 1, 1), complex)
        chol[:, 0, 0] = rng.uniform(0.5, 2.0, 2)
        target = complex_normal(rng, (2, 1)) * 0.1
        problem = tiny_problem(chol, target)
        c2 = 2.0 * np.einsum("kr,kr->k", chol[:, :, 0].conj(), target)
        c2_real = np.concatenate([c2.real, c2.imag])
        lam = rng.uniform(0.0, 0.3)
        gamma = np.linalg.norm(prox_l1(c2_real, lam)) * 1.001
        out = _group_core(problem.gram[:, 0], group_corr(problem, 0, target),
                          gamma, lam)
        npt.assert_array_equal(out, np.zeros(2, complex))


def test_group_core_scalar_soft_threshold():
    # minimize a^2 - 4a + |a|: optimum (4 - 1)/2 = 1.5
    problem = tiny_problem([[[1.0]]], [[2.0]])
    out = _group_core(problem.gram[:, 0],
                      group_corr(problem, 0, problem.target), 0.0, 1.0)
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
