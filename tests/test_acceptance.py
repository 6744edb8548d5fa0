"""Acceptance gates for the package, one test per numbered criterion.

Each test prints a single summary line (visible with pytest -s) and then
asserts it.  Solver outputs feeding several criteria are computed once in
module-scoped fixtures and reused.
"""

import json
import time
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from sparselsfd import (
    Combiner,
    NetworkConfig,
    PowerModel,
    SolverOptions,
    assign_pilots,
    bcd_solve,
    build_problem,
    desk_config,
    estimate_lsfd_statistics,
    estimation_stats,
    generate_network,
    olsfd_weights,
    reference_solve,
    run_experiment,
    se,
    sinr,
)
from sparselsfd.harness import CSV_HEADER, main
from sparselsfd.power_energy import energy_efficiency, total_power
from sparselsfd.sglasso import _group_core, prox_l1
from sparselsfd.uplink import LsfdStatistics

from helpers import (
    compact_pipeline,
    complex_normal,
    mr_monte_carlo,
    random_pd,
    random_statistics,
)

PAIRS = ((1e-4, 1e-4), (1e-4, 1e-2), (1e-2, 1e-4), (1e-2, 1e-2))


def _gate(num, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {detail}: {verdict}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def solve_cache():
    """bcd and reference solves on 50 random problems plus one simulated
    network instance, at every (lambda, gamma) pair; feeds criteria 1, 2, 5."""
    t0 = time.perf_counter()
    entries = []
    rng = np.random.default_rng(50)
    stats_list = [random_statistics(rng) for _ in range(50)]
    compact_stats = compact_pipeline()[3]
    stats_list.append(compact_stats)
    for stats in stats_list:
        problem = build_problem(stats)
        b_norm = float(np.linalg.norm(np.sqrt(stats.p)[:, None] * stats.b))
        cells = {}
        for lam, gam in PAIRS:
            res = bcd_solve(problem, SolverOptions(gamma=gam, lam=lam))
            ref = reference_solve(problem, gam, lam, tol=1e-6)
            cells[(lam, gam)] = (res, ref.objective)
        entries.append(dict(stats=stats, problem=problem, b_norm=b_norm,
                            cells=cells))
    return dict(entries=entries, elapsed=time.perf_counter() - t0)


@pytest.fixture(scope="module")
def desk_report():
    """Maximum-ratio desk-scale sweep (3 drops, full penalty grid)."""
    cfg = replace(desk_config(), combiners=(Combiner.MR,), record_timing=False)
    t0 = time.perf_counter()
    report = run_experiment(cfg)
    return dict(report=report, elapsed=time.perf_counter() - t0)


def test_criterion_1_solver_matches_reference(solve_cache):
    worst = 0.0
    n = 0
    for entry in solve_cache["entries"]:
        for res, f_ref in entry["cells"].values():
            worst = max(worst, abs(res.objective - f_ref) / abs(f_ref))
            n += 1
    dt = solve_cache["elapsed"]
    ok = worst <= 1e-4 and dt < 60.0
    _gate(1, ok, f"max relative objective gap {worst:.3e} (limit 1e-4) "
                 f"over {n} solves, {dt:.1f}s (limit 60s)")


def test_criterion_2_unpenalized_equals_olsfd(solve_cache):
    t0 = time.perf_counter()
    entry = solve_cache["entries"][-1]  # the simulated network instance
    stats = entry["stats"]
    res = bcd_solve(entry["problem"], SolverOptions())
    worst = 0.0
    for k in range(stats.b.shape[0]):
        s_opt = sinr(olsfd_weights(stats.A[k], stats.b[k]), stats.A[k], stats.b[k])
        s_bcd = sinr(res.a[k], stats.A[k], stats.b[k])
        worst = max(worst, abs(s_bcd - s_opt) / s_opt)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-4 and dt < 10.0
    _gate(2, ok, f"max relative SINR gap to the optimal decoder {worst:.3e} "
                 f"(limit 1e-4), {dt:.1f}s (limit 10s)")


def test_criterion_3_closed_form_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(60)
    worst_sm = 0.0
    worst_mse = 0.0
    for _ in range(100):
        big_a = random_pd(rng, 8, ridge=0.3)
        b = complex_normal(rng, (8,))
        q = float(np.real(np.vdot(b, np.linalg.solve(big_a, b))))
        b *= np.sqrt(rng.uniform(0.1, 0.9) / q)
        q = float(np.real(np.vdot(b, np.linalg.solve(big_a, b))))
        direct = np.linalg.solve(big_a, b)
        gap = np.abs(olsfd_weights(big_a, b) - direct / (1.0 - q))
        worst_sm = max(worst_sm, float(gap.max() / np.abs(direct).max()))
        # the MSE minimum p_k - b_s^H A^-1 b_s, as the problem's constant and
        # as the unpenalized solve's objective
        p_k = float(rng.uniform(0.02, 0.1))
        b_s = np.sqrt(p_k) * b
        problem = build_problem(LsfdStatistics(A=big_a[None], b=b[None],
                                               p=np.array([p_k])))
        expect = p_k - float(np.real(np.vdot(b_s, np.linalg.solve(big_a, b_s))))
        for val in (p_k - problem.const, p_k + bcd_solve(problem).objective):
            worst_mse = max(worst_mse, abs(val - expect) / abs(expect))
    dt = time.perf_counter() - t0
    ok = worst_sm <= 1e-10 and worst_mse <= 1e-10 and dt < 1.0
    _gate(3, ok, f"Sherman-Morrison gap {worst_sm:.2e}, MSE-minimum gap "
                 f"{worst_mse:.2e} (limits 1e-10), {dt:.2f}s (limit 1s)")


def test_criterion_4_prox_unit_examples():
    t0 = time.perf_counter()
    tol = dict(rtol=0.0, atol=1e-12)
    npt.assert_allclose(prox_l1(np.array([3.0, -1.0, 0.5]), 1.0),
                        [2.0, 0.0, 0.0], **tol)
    x = np.array([0.7, -2.0, 0.1])
    npt.assert_allclose(prox_l1(x, 0.0), x, **tol)
    npt.assert_allclose(prox_l1(x, 2.0), [0.0, 0.0, 0.0], **tol)

    # the prox of gamma ||.||_2 + lam ||.||_1 is the group solve at g = 1/2
    def prox(y, gamma, lam):
        return _group_core(0.5, y / 2.0, gamma, lam)

    npt.assert_allclose(prox(np.zeros(3), 1.0, 0.0), np.zeros(3), **tol)
    npt.assert_allclose(prox(np.array([3.0, 4.0]), 1.0, 0.0), [2.4, 3.2], **tol)
    npt.assert_allclose(prox(np.array([3.0, 4.0]), 5.0, 0.0), [0.0, 0.0], **tol)
    y = np.array([3.0, 4.0])
    npt.assert_allclose(prox(y, 1.0, 0.0), [2.4, 3.2], **tol)
    npt.assert_allclose(prox(y, 0.0, 1.0), prox_l1(y, 1.0), **tol)
    scale = (np.sqrt(13.0) - 1.0) / np.sqrt(13.0)
    npt.assert_allclose(prox(y, 1.0, 1.0), scale * np.array([2.0, 3.0]), **tol)
    dt = time.perf_counter() - t0
    _gate(4, dt < 1.0, f"thresholding examples exact at 1e-12, "
                       f"{dt:.2f}s (limit 1s)")


def test_criterion_5_kkt_certification(solve_cache):
    t0 = time.perf_counter()
    worst_ratio = 0.0
    for entry in solve_cache["entries"]:
        bound = 1e-4 * (1.0 + entry["b_norm"])
        for res, _ in entry["cells"].values():
            worst_ratio = max(worst_ratio, res.kkt_residual / bound)
    rng = np.random.default_rng(70)
    zero_ok = True
    for _ in range(20):
        stats = random_statistics(rng)
        problem = build_problem(stats)
        b_s = np.sqrt(stats.p)[:, None] * stats.b
        lam = 1.0001 * 2.0 * max(np.abs(b_s.real).max(), np.abs(b_s.imag).max())
        res = bcd_solve(problem, SolverOptions(gamma=0.0, lam=lam))
        zero_ok = zero_ok and not np.any(res.a)
    dt = time.perf_counter() - t0
    ok = worst_ratio <= 1.0 and zero_ok and dt < 30.0
    _gate(5, ok, f"max KKT residual at {worst_ratio:.3f} of the 1e-4(1+||b||) "
                 f"bound, zero-threshold exact on 20 instances, "
                 f"{dt:.1f}s (limit 30s)")


def test_criterion_6_statistics_convergence():
    # scalar links (N = 1, one UE): B = s beta^2 / (s beta + noise) with
    # s = tau_p rho_p, and MR gives b_l = sqrt(p) B_l and
    # A_ll = p (beta_l B_l + B_l^2) + noise B_l; the Monte Carlo oracle
    # converges to both
    t0 = time.perf_counter()
    cfg = NetworkConfig(L=3, N=1, K=1, side_m=100.0, shadow_std_db=4.0,
                        noise_var=1.0, gain_offset_db=95.0)
    inst = generate_network(cfg, seed=21)
    plan = assign_pilots(inst.beta, 1)
    est = estimation_stats(inst, plan)
    s = plan.tau_p * plan.rho_p
    beta = inst.beta[0]
    closed_b = s * beta ** 2 / (s * beta + cfg.noise_var)
    worst_cf = np.max(np.abs(est.B[0, :, 0, 0] - closed_b) / closed_b)
    p = np.array([0.1])
    analytic = {
        "b": np.sqrt(p[0]) * closed_b,
        "diag(A)": p[0] * (beta * closed_b + closed_b ** 2)
        + cfg.noise_var * closed_b,
    }
    stats = estimate_lsfd_statistics(inst, plan, est, Combiner.MR, p,
                                     n_blocks=1, seed=21)
    exact = {"b": stats.b[0], "diag(A)": np.diagonal(stats.A[0])}
    oracle = mr_monte_carlo(inst, plan, est, p, n_blocks=100_000, seed=21)
    sampled = {"b": oracle["b"][0][0], "diag(A)": np.diagonal(oracle["A"][0][0])}
    worst_exact = max(np.max(np.abs(exact[k] - analytic[k]) / analytic[k])
                      for k in analytic)
    worst_mc = max(np.max(np.abs(sampled[k] - analytic[k]) / analytic[k])
                   for k in analytic)
    dt = time.perf_counter() - t0
    ok = (worst_cf <= 1e-12 and worst_exact <= 1e-12 and worst_mc <= 0.02
          and dt < 30.0)
    _gate(6, ok, f"scalar closed-form gap {worst_cf:.2e} for B and "
                 f"{worst_exact:.2e} for MR b, diag(A) (limit 1e-12), "
                 f"Monte Carlo gap {worst_mc:.4f} at 1e5 blocks (limit 0.02), "
                 f"{dt:.1f}s (limit 30s)")


def test_criterion_7_ordering_properties(desk_report):
    report = desk_report["report"]
    dt = desk_report["elapsed"]
    cfg = report.config
    base = {b.drop: b for b in report.baselines}
    bounded = all(
        np.all(rec.per_ue_se <= base[rec.drop].olsfd_se + 1e-9)
        for rec in report.records
    )

    def drop_mean(attr, lam, gam):
        vals = [getattr(r, attr) for r in report.records
                if r.lam == lam and r.gamma == gam]
        return float(np.mean(vals))

    se_mono = all(
        drop_mean("avg_se", 1e-1, gam) <= drop_mean("avg_se", 1e-4, gam)
        for gam in cfg.gamma_grid
    )
    serving_mono = all(
        drop_mean("mean_serving", 1e-1, gam)
        <= drop_mean("mean_serving", 1e-4, gam)
        for gam in cfg.gamma_grid
    )
    ee_ok = True
    margins = []
    for drop in range(cfg.n_drops):
        recs = [r for r in report.records if r.drop == drop]
        sparsest = min(recs, key=lambda r: r.mean_serving)
        margins.append(sparsest.ee / base[drop].olsfd_ee)
        ee_ok = ee_ok and sparsest.ee >= base[drop].olsfd_ee
    ok = (report.failures == 0 and bounded and se_mono and serving_mono
          and ee_ok and dt < 300.0)
    _gate(7, ok, f"per-UE SE bounded by optimal decoder: {bounded}; SE and "
                 f"serving-set size non-increasing in lambda: {se_mono}, "
                 f"{serving_mono}; sparsest-solution EE over optimal-decoder "
                 f"EE per drop {['%.2f' % m for m in margins]} (need >= 1); "
                 f"{dt:.1f}s (limit 300s)")


def test_criterion_8_energy_model_oracle():
    model = PowerModel()
    assoc = np.ones((1, 1), dtype=bool)
    power = total_power(assoc, np.array([0.1]), np.array([0.95]), model,
                        n_antennas=1)
    ee = energy_efficiency(np.array([0.95]), power, model.bandwidth_hz)
    power_ok = abs(power - 8.204) <= 1e-9 * 8.204
    ee_ok = abs(ee - 19e6 / 8.204) <= 1e-9 * (19e6 / 8.204)
    prelog = float(se(3.0, 10, 200) / np.log2(4.0))
    prelog_ok = prelog == 0.95
    ok = power_ok and ee_ok and prelog_ok
    _gate(8, ok, f"single-link power {power!r} W (want 8.204), "
                 f"EE {ee!r} bit/J (want 19e6/8.204), prelog {prelog!r} "
                 f"(want exactly 0.95)")


def test_criterion_9_csv_determinism(tmp_path):
    t0 = time.perf_counter()
    outputs = []
    for workers in (1, 3):
        cfg_path = tmp_path / f"w{workers}.cfg"
        cfg_path.write_text(f"record_timing = false\nn_workers = {workers}\n")
        out = tmp_path / f"out{workers}"
        code = main(["run", "--config", str(cfg_path), "--desk-scale",
                     "--out", str(out)])
        assert code == 0
        outputs.append((out / "summary.csv").read_bytes())
    dt = time.perf_counter() - t0
    identical = outputs[0] == outputs[1]
    header_ok = outputs[0].decode().splitlines()[0] == CSV_HEADER
    ok = identical and header_ok
    _gate(9, ok, f"desk-scale CSVs byte-identical across 1 and 3 workers "
                 f"({len(outputs[0])} bytes), {dt:.1f}s")
