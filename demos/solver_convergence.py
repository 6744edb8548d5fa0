"""Watch the block-coordinate solver converge and cross-check it against
the plain proximal-gradient reference on one set of decoding statistics.

Run:  python3 demos/solver_convergence.py
"""

import numpy as np

from sparselsfd import (
    Combiner,
    NetworkConfig,
    SolverOptions,
    assign_pilots,
    bcd_solve,
    build_problem,
    estimate_lsfd_statistics,
    estimation_stats,
    fractional_power,
    generate_network,
    kkt_residual,
    reference_solve,
    snap_zeros,
)

TAU_P = 5


def main():
    # small dense deployment keeps the quadratic well conditioned, so the
    # fixed-step reference stays cheap enough for a cross-check
    cfg = NetworkConfig(L=10, N=2, K=4, side_m=100.0, shadow_std_db=3.0,
                        noise_var=1.0, gain_offset_db=95.0)
    inst = generate_network(cfg, seed=9)
    plan = assign_pilots(inst.beta, TAU_P)
    est = estimation_stats(inst, plan)
    p = fractional_power(inst.beta, np.ones((cfg.K, cfg.L), dtype=bool),
                         0.1, 1.0)
    stats = estimate_lsfd_statistics(inst, plan, est, Combiner.LMMSE, p,
                                     n_blocks=1000, seed=9)
    problem = build_problem(stats)

    print("lambda   gamma    sweeps  conv  KKT resid   groups  obj gap vs check")
    for lam, gam in [(0.0, 0.0), (1e-4, 1e-4), (1e-2, 1e-2), (1e-1, 1e-1)]:
        # cap keeps the unpenalized tail short; the row reports conv=False
        res = bcd_solve(problem, SolverOptions(gamma=gam, lam=lam,
                                               max_sweeps=300))
        if lam == 0.0 and gam == 0.0:
            # unpenalized optimum is -sum_k bbar_k^H A_k^-1 bbar_k
            best = -problem.const
        else:
            best = reference_solve(problem, gam, lam, tol=1e-6).objective
        groups = int(np.count_nonzero(np.linalg.norm(snap_zeros(res.a), axis=0)))
        rel = abs(res.objective - best) / max(1.0, abs(res.objective))
        print(f"{lam:7.0e} {gam:7.0e}  {res.sweeps:5d}  {res.converged!s:5}"
              f"  {res.kkt_residual:.2e}  {groups:3d}/10   {rel:.2e}")

    # per-sweep trace at the middle penalty: monotone, then flat
    res = bcd_solve(problem, SolverOptions(gamma=1e-2, lam=1e-2))
    trace = res.objective_trace
    print(f"\nobjective trace at lambda=gamma=1e-2 ({trace.size} sweeps):")
    for i, val in enumerate(trace):
        drop = "" if i == 0 else f"   (decrease {trace[i - 1] - val:.3e})"
        print(f"sweep {i + 1:2d}: {val:.12f}{drop}")
    diffs = np.diff(trace)
    print(f"monotone decrease: {bool(np.all(diffs <= 1e-15))}")

    # certificate is checkable after the fact, independent of the run
    frozen = kkt_residual(res.a, problem, 1e-2, 1e-2)
    print(f"recomputed KKT residual of returned point: {frozen:.3e}")


if __name__ == "__main__":
    main()
