"""Tests of the benchmark itself: each check passes on real outputs and
fails on a deliberately corrupted copy.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import copy
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from sparselsfd import harness  # noqa: E402
from sparselsfd.sglasso import SolverOptions, bcd_solve, build_problem  # noqa: E402
from sparselsfd.uplink import Combiner  # noqa: E402


@pytest.fixture(scope="module")
def drop():
    """One small desk-scale MR drop: statistics, a solved cell, diagnostics."""
    cfg = replace(
        harness.desk_config(), seed=11, n_drops=1, n_blocks=256,
        combiners=(Combiner.MR,), lambda_grid=(1e-2,), gamma_grid=(1e-2,),
        record_timing=False,
    )
    net_cfg = replace(cfg.network, L=10, N=2)
    inst = harness.generate_network(net_cfg, cfg.seed)
    plan = harness.assign_pilots(inst.beta, cfg.tau_p, rho_p=cfg.rho_p_w, tau_c=cfg.tau_c)
    est = harness.estimation_stats(inst, plan)
    p = harness.fractional_power(inst.beta, [np.arange(10)] * 4, 0.1, 1.0)
    stats = harness.estimate_lsfd_statistics(
        inst, plan, est, Combiner.MR, p, cfg.n_blocks, cfg.seed
    )
    result = bcd_solve(build_problem(stats), SolverOptions(gamma=1e-2, lam=1e-2))
    diag = json.loads(json.dumps(harness.diagnostics(harness.run_experiment(cfg))))
    return {
        "cfg": cfg, "inst": inst, "est": est, "stats": stats, "result": result,
        "diag": diag, "A": np.array(stats.A), "b": np.array(stats.b),
        "p": np.array(stats.p),
    }


def test_se_below_optimal(drop):
    diag = drop["diag"]
    assert checks.se_below_optimal(diag) == []
    raised = copy.deepcopy(diag)
    cell = raised["cells"][0]
    opt = raised["baselines"][0]["olsfd"]["per_ue_se"]
    cell["per_ue_se"][1] = opt[1] * 1.001
    assert checks.se_below_optimal(raised)
    partial = copy.deepcopy(diag)
    partial["baselines"][0]["plsfd"]["per_ue_se"][0] = opt[0] + 1e-3
    assert checks.se_below_optimal(partial)


def test_residual_covariance_pd(drop):
    big_a, b = drop["A"], drop["b"]
    assert checks.residual_covariance_pd(big_a, b) == []
    indefinite = big_a.copy()
    indefinite[2, 0, 0] = -1.0
    assert checks.residual_covariance_pd(indefinite, b)
    # positive diagonal, but b b^H pushed past A in one direction
    rank_deficient = big_a.copy()
    rank_deficient[1] = np.outer(b[1], b[1].conj()) + 1e-9 * np.eye(b.shape[1])
    rank_deficient[1] -= 2e-9 * np.outer(b[1], b[1].conj()) / np.vdot(b[1], b[1]).real
    assert checks.residual_covariance_pd(rank_deficient, b)
    # badly scaled but positive definite: unit diagonal scaling keeps it passing
    scales = np.logspace(0, -10, b.shape[1])
    scaled_a = big_a * scales[None, :, None] * scales[None, None, :]
    assert checks.residual_covariance_pd(scaled_a, b * scales[None, :]) == []


def test_optimal_se_matches(drop):
    cfg, big_a, b = drop["cfg"], drop["A"], drop["b"]
    reported = drop["diag"]["baselines"][0]["olsfd"]["per_ue_se"]
    assert checks.optimal_se_matches(big_a, b, reported, cfg.tau_p, cfg.tau_c) == []
    off = list(reported)
    off[3] *= 1.0 + 1e-4
    assert checks.optimal_se_matches(big_a, b, off, cfg.tau_p, cfg.tau_c)


def test_mr_mean_within_stderr(drop):
    est, inst, b, p = drop["est"], drop["inst"], drop["b"], drop["p"]
    n = drop["cfg"].n_blocks
    big_b, big_r = np.asarray(est.B), np.asarray(inst.R)
    assert checks.mr_mean_within_stderr(b, p, big_b, big_r, n) == []
    var = np.real(np.einsum("ij,ji->", big_b[1, 4], big_r[1, 4]))
    shifted = b.copy()
    shifted[1, 4] += 10.0 * np.sqrt(p[1]) * np.sqrt(var / n)
    assert checks.mr_mean_within_stderr(shifted, p, big_b, big_r, n)


def test_objective_in_range(drop):
    big_a, b, p, result = drop["A"], drop["b"], drop["p"], drop["result"]
    lower = checks.unpenalized_minimum(big_a, b, p)
    assert lower < result.objective < 0
    assert checks.objective_in_range(result.objective, lower) == []
    assert checks.objective_in_range(lower * 1.01, lower)
    assert checks.objective_in_range(1e-3, lower)


def test_kkt_matches(drop):
    big_a, b, p, result = drop["A"], drop["b"], drop["p"], drop["result"]
    assert checks.kkt_matches(result.a, big_a, b, p, 1e-2, 1e-2, result.kkt_residual) == []
    perturbed = result.a.copy()
    perturbed[0, int(np.argmax(np.abs(perturbed[0])))] *= 1.05
    assert checks.kkt_matches(perturbed, big_a, b, p, 1e-2, 1e-2, result.kkt_residual)


def test_same_bytes():
    assert checks.same_bytes(b"a,b\n1,2\n", b"a,b\n1,2\n", "csv") == []
    assert checks.same_bytes(b"a,b\n1,2\n", b"a,b\n1,3\n", "csv")


def test_benchmark_json_matches_run():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
