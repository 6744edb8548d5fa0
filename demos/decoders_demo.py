"""Compare the three large-scale decoders on one network drop: optimal
(all APs), partial (heuristic association), and sparse (penalized fit).

Run:  python3 demos/decoders_demo.py
"""

import numpy as np

from sparselsfd import (
    Combiner,
    NetworkConfig,
    PowerModel,
    SolverOptions,
    assign_pilots,
    baseline_association,
    bcd_solve,
    build_problem,
    energy_efficiency,
    estimate_lsfd_statistics,
    estimation_stats,
    extract_association,
    fractional_power,
    generate_network,
    olsfd_weights,
    plsfd_weights,
    se,
    sinr,
    snap_zeros,
    total_power,
)

TAU_P, TAU_C = 3, 200


def per_ue_se(weights, stats):
    out = np.zeros(weights.shape[0])
    for k, row in enumerate(weights):
        if np.any(row):
            out[k] = se(sinr(row, stats.A[k], stats.b[k]), TAU_P, TAU_C)
    return out


def main():
    # K > tau_p forces pilot reuse, so the partial heuristic has teeth
    cfg = NetworkConfig(L=10, N=2, K=6, side_m=1000.0, shadow_std_db=4.0,
                        noise_var=1.0, gain_offset_db=124.0)
    inst = generate_network(cfg, seed=3)
    plan = assign_pilots(inst.beta, TAU_P)
    est = estimation_stats(inst, plan)
    model = PowerModel()
    # association masks: assoc[k, l] says that AP l serves UE k
    full = np.ones((cfg.K, cfg.L), dtype=bool)
    p = fractional_power(inst.beta, full, model.p_max_w, model.theta)
    stats = estimate_lsfd_statistics(inst, plan, est, Combiner.MR, p,
                                     n_blocks=1000, seed=3)

    # Optimal: every AP serves every UE
    a_opt = np.stack([olsfd_weights(stats.A[k], stats.b[k])
                      for k in range(cfg.K)])
    opt_assoc = full

    # Partial: strongest-AP heuristic fixes the association up front
    p_assoc = baseline_association(inst.beta, plan)
    a_part = np.zeros_like(a_opt)
    for k in range(cfg.K):
        a_part[k] = plsfd_weights(stats.A[k], stats.b[k], p_assoc[k])

    # Sparse: the penalties decide the association
    problem = build_problem(stats)
    result = bcd_solve(problem, SolverOptions(gamma=1e-2, lam=1e-2))
    a_sparse = snap_zeros(result.a)
    s_assoc = extract_association(a_sparse)

    print("decoder    mean |M_k|   per-UE SE (bit/s/Hz)           EE (Mbit/J)")
    for name, weights, assoc in [
        ("optimal", a_opt, opt_assoc),
        ("partial", a_part, p_assoc),
        ("sparse ", a_sparse, s_assoc),
    ]:
        se_k = per_ue_se(weights, stats)
        power = total_power(assoc, p, se_k, model, cfg.N)
        ee = energy_efficiency(se_k, power, model.bandwidth_hz)
        ses = " ".join(f"{v:6.3f}" for v in se_k)
        print(f"{name}    {assoc.sum(1).mean():6.1f}      [{ses}]   "
              f"{ee / 1e6:8.3f}")

    print("\nsparse serving sets (solver chose these, no heuristic):")
    for k in range(cfg.K):
        print(f"UE {k}: APs {np.flatnonzero(s_assoc[k])}")
    print(f"\nsolver: {result.sweeps} sweeps, KKT residual "
          f"{result.kkt_residual:.2e}, converged={result.converged}")


if __name__ == "__main__":
    main()
