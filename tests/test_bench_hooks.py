"""The benchmark's hooks into the harness still see what they expect.

bench/tracing.py replaces the layer functions in the `sparselsfd.harness`
namespace by name, and bench/run.py's checks read the positional
arguments of the captured statistics and solver calls.  A harness that
renames a layer function or changes those call shapes breaks them.
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import run  # noqa: E402
import tracing  # noqa: E402

from sparselsfd import SolverOptions, harness  # noqa: E402


def test_benchmark_hooks_cover_the_harness():
    cfg = replace(
        harness.desk_config(), seed=5, n_drops=2, n_blocks=256,
        lambda_grid=(1e-2,), gamma_grid=(1e-2,), record_timing=False,
        solver=SolverOptions(max_sweeps=2),
    )
    tracer = tracing.Tracer()
    capture = tracing.Capture()
    captured = ("estimate_lsfd_statistics", "build_problem", "bcd_solve")
    diags = []
    with tracer.instrument(harness), capture.instrument(harness, captured):
        for drop in run.drops_of(cfg):
            report = harness.run_experiment(drop)
            assert report.failures == 0
            diags.append(json.loads(json.dumps(harness.diagnostics(report))))
    assert {span[0] for span in tracer.spans} == set(tracing.LAYER_FUNCTIONS)
    assert run.run_checks(cfg, diags, capture) == []
