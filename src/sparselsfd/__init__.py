"""Uplink cell-free network simulator with sparse LSFD weight design.

Pipeline: generate_network -> assign_pilots -> estimation_stats ->
estimate_lsfd_statistics -> (olsfd_weights | plsfd_weights | bcd_solve)
-> spectral efficiency and energy efficiency.  The harness module wires
the pipeline into configurable sweeps and the `sparselsfd` CLI.
"""

from .harness import (
    ConfigError,
    ExperimentConfig,
    desk_config,
    diagnostics,
    load_config,
    paper_config,
    run_experiment,
    sweep_summary,
    write_outputs,
)
from .linalg import NotPositiveDefiniteError, solve_hermitian_pd
from .lsfd import (
    baseline_association,
    mmse_weights,
    mse,
    olsfd_weights,
    plsfd_weights,
    se,
    sinr,
)
from .network import NetworkConfig, NetworkInstance, generate_network
from .pilots import PilotPlan, assign_pilots, estimate_channels, estimation_stats
from .power_energy import (
    Association,
    PowerModel,
    energy_efficiency,
    extract_association,
    fractional_power,
    total_power,
)
from .sglasso import (
    SolverOptions,
    SolverResult,
    SparseProblem,
    bcd_solve,
    build_problem,
    kkt_residual,
    reference_solve,
    snap_zeros,
)
from .uplink import (
    Combiner,
    LsfdStatistics,
    estimate_lsfd_statistics,
    lmmse_combiner,
    mr_combiner,
)

__version__ = "0.1.0"

__all__ = [
    "Association",
    "Combiner",
    "ConfigError",
    "ExperimentConfig",
    "LsfdStatistics",
    "NetworkConfig",
    "NetworkInstance",
    "NotPositiveDefiniteError",
    "PilotPlan",
    "PowerModel",
    "SolverOptions",
    "SolverResult",
    "SparseProblem",
    "assign_pilots",
    "baseline_association",
    "bcd_solve",
    "build_problem",
    "desk_config",
    "diagnostics",
    "energy_efficiency",
    "estimate_channels",
    "estimate_lsfd_statistics",
    "estimation_stats",
    "extract_association",
    "fractional_power",
    "generate_network",
    "kkt_residual",
    "lmmse_combiner",
    "load_config",
    "mmse_weights",
    "mr_combiner",
    "mse",
    "olsfd_weights",
    "paper_config",
    "plsfd_weights",
    "reference_solve",
    "run_experiment",
    "se",
    "sinr",
    "snap_zeros",
    "solve_hermitian_pd",
    "sweep_summary",
    "total_power",
    "write_outputs",
]
