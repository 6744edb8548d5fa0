"""Property tests of the sparse-group-lasso solver on random statistics."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from helpers import random_statistics  # noqa: E402

from sparselsfd.sglasso import (  # noqa: E402
    SolverOptions,
    bcd_solve,
    build_problem,
    kkt_residual,
    prox_l1,
)

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=100)


@st.composite
def problems(draw):
    seed = draw(st.integers(0, 2 ** 32 - 1))
    n_ue = draw(st.integers(1, 4))
    n_ap = draw(st.integers(1, 8))
    return build_problem(random_statistics(np.random.default_rng(seed), n_ue, n_ap))


def soft_group_norms(bbar, lam):
    """||soft(2 bbar[:, l], lam)|| per group, in the real embedding."""
    u_re = prox_l1(2.0 * bbar.real, lam)
    u_im = prox_l1(2.0 * bbar.imag, lam)
    return np.sqrt(np.sum(u_re ** 2 + u_im ** 2, axis=0))


def penalties(problem, lam_frac, gam_frac):
    """Penalties as fractions of the smallest ones that zero every group."""
    two_b = 2.0 * problem.bbar
    lam_max = max(np.abs(two_b.real).max(), np.abs(two_b.imag).max())
    gam_max = soft_group_norms(problem.bbar, 0.0).max()
    return lam_frac * lam_max, gam_frac * gam_max


def quadratic_objective(problem, a, gamma, lam):
    quad = sum(
        np.real(np.vdot(a[k], problem.A[k] @ a[k]))
        - 2.0 * np.real(np.vdot(a[k], problem.bbar[k]))
        for k in range(problem.shape[0])
    )
    pen = gamma * np.sum(np.linalg.norm(a, axis=0))
    pen += lam * float(np.sum(np.abs(a.real)) + np.sum(np.abs(a.imag)))
    return quad + pen


@SETTINGS
@given(problems(), st.floats(0.0, 1.5), st.floats(1e-6, 1.0))
def test_group_zero_threshold_is_exact(problem, lam_frac, margin):
    lam, _ = penalties(problem, lam_frac, 0.0)
    gamma = soft_group_norms(problem.bbar, lam).max() * (1.0 + margin)
    res = bcd_solve(problem, SolverOptions(gamma=gamma, lam=lam))
    assert np.all(res.a == 0)
    assert res.kkt_residual == 0.0
    assert kkt_residual(res.a, problem, gamma, lam) == 0.0


@SETTINGS
@given(problems(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_penalized_solve_bounds_and_certificate(problem, lam_frac, gam_frac):
    assume(lam_frac > 1e-3 or gam_frac > 1e-3)
    lam, gamma = penalties(problem, lam_frac, gam_frac)
    res = bcd_solve(problem, SolverOptions(gamma=gamma, lam=lam))
    slack = 1e-12 * problem.const
    assert -problem.const - slack <= res.objective <= slack
    assert res.kkt_residual <= 1e-4 * (1.0 + np.linalg.norm(problem.bbar))


@SETTINGS
@given(problems(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_reported_objective_is_quadratic_form(problem, lam_frac, gam_frac):
    lam, gamma = penalties(problem, lam_frac, gam_frac)
    res = bcd_solve(problem, SolverOptions(gamma=gamma, lam=lam))
    expected = quadratic_objective(problem, res.a, gamma, lam)
    assert abs(res.objective - expected) <= 1e-10 * problem.const


@SETTINGS
@given(problems(), st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
def test_optimal_objective_nondecreasing_in_penalties(problem, fracs):
    # raising lambda or gamma raises the penalty of every point, so the
    # optimal objective cannot fall; zero patterns need not be monotone
    lam_lo, lam_hi = sorted(fracs[:2])
    gam_lo, gam_hi = sorted(fracs[2:])
    lam_lo, gam_lo = penalties(problem, lam_lo, gam_lo)
    lam_hi, gam_hi = penalties(problem, lam_hi, gam_hi)

    def optimum(gamma, lam):
        options = SolverOptions(gamma=gamma, lam=lam, tol_rel=1e-13)
        return bcd_solve(problem, options).objective

    base = optimum(gam_lo, lam_lo)
    slack = 1e-9 * problem.const
    assert base <= optimum(gam_lo, lam_hi) + slack
    assert base <= optimum(gam_hi, lam_lo) + slack
