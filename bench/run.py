"""Benchmark for sparselsfd: one named workload per process.

    python3 bench/run.py --workload desk-sweep --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload desk-sweep --seed 1 --seconds 40 --repeat 10

A run loads the workload's config file through the program's own config
loader and runs it through `run_experiment` + `write_outputs`, one drop
per call, in passes over all of the workload's drops (identical inputs,
identical work) until --seconds are used up, with at least MIN_PASSES
passes.  run_s is the sum over drops of each drop's fastest time.  The
outputs are checked against quantities recomputed here (checks.py).  The
last line of standard output is one JSON object with the cells attempted
and failed and the metrics: end-to-end ones with --trace 0, per-layer
ones with --trace 1, which adds one pass with a span around every
harness call into a layer and writes the spans to trace.json.

--repeat N runs the workload N times in fresh processes, seeds
seed .. seed+N-1, and prints each metric's median and quartiles.
"""

from __future__ import annotations

import os
import sys
import time

# fixed BLAS thread count, set before numpy is imported; at most nproc
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".bench_out"

# workload -> (config file under workloads/, start from the desk preset)
WORKLOADS = {
    "desk-sweep": ("desk-sweep.cfg", True),
    "paper-40x4-mr": ("paper-40x4-mr.cfg", False),
    "paper-160x1-lmmse": ("paper-160x1-lmmse.cfg", False),
}
# drop d of a run with seed s uses program seed SEED_STRIDE*s + d, so the
# drops of different benchmark seeds never overlap
SEED_STRIDE = 1000
MIN_PASSES = 2
OUTPUT_FILES = ("summary.csv", "diagnostics.json")

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "sglasso.solve_s": "s",
    "sglasso.sweeps": "count",
    "sglasso.ms_per_sweep": "ms",
    "sglasso.build_s": "s",
    "sglasso.kkt_max": "1",
    "sglasso.capped_cells": "count",
    "sglasso.se_vs_optimal_pct": "%",
    "sglasso.ee_vs_optimal": "x",
    "sglasso.serving_aps_per_ue": "APs",
    "uplink.stats_s": "s",
    "uplink.blocks_per_s": "blocks/s",
    "pilots.estimation_stats_s": "s",
    "network.generate_s": "s",
    "lsfd.decoders_s": "s",
    "power_energy.model_s": "s",
    "harness.write_s": "s",
    "harness.output_kb": "kB",
    "harness.self_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def since_process_start():
    """Seconds since this process started (kernel start time, 10 ms ticks)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


def calibrate():
    """Time a fixed pure-Python and numpy loop: a machine-speed diagnostic."""
    import numpy as np

    m = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
    start = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i % 7
    for _ in range(2_000):
        m = np.tanh(m @ m.T / 64.0)
    return time.perf_counter() - start


def machine_info():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "n_workers": 1,
    }


def import_program():
    """Import sparselsfd from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "sparselsfd" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no sparselsfd sources under {src}")
    sys.path.insert(0, str(src))
    import sparselsfd.harness as harness

    if Path(harness.__file__).resolve().parents[1] != src.resolve():
        raise SystemExit(f"benchmark: imported sparselsfd from {harness.__file__}")
    return harness


def run_dir(workload, seed, trace):
    return OUT_ROOT / workload / f"seed{seed}-trace{trace}"


def load_workload(harness, name, seed):
    filename, desk = WORKLOADS[name]
    cfg = harness.load_config(HERE / "workloads" / filename, desk_scale=desk)
    return replace(cfg, seed=SEED_STRIDE * seed, n_workers=1, record_timing=False)


def drops_of(cfg):
    """The workload's drops as one-drop configs.

    run_experiment runs drop d of cfg with seed cfg.seed + d, one drop after
    another, so running these configs in turn does exactly the work of cfg.
    """
    return [replace(cfg, seed=cfg.seed + d, n_drops=1) for d in range(cfg.n_drops)]


def run_drop(harness, cfg, out_dir, tracer=None):
    """One drop: the sweep plus its outputs.  Returns (seconds, report)."""
    start = time.perf_counter()
    if tracer is None:
        report = harness.run_experiment(cfg)
        harness.write_outputs(report, out_dir)
    else:
        with tracer.span("run_experiment", "harness"):
            report = harness.run_experiment(cfg)
        with tracer.span("write_outputs", "harness"):
            harness.write_outputs(report, out_dir)
    return time.perf_counter() - start, report


def run_checks(cfg, diags, capture):
    """Every correctness check on the first pass's outputs and statistics."""
    import numpy as np

    import checks

    failures = []
    for diag in diags:
        failures += checks.se_below_optimal(diag)
    diag = merged(diags)
    stats_calls = capture.calls["estimate_lsfd_statistics"]
    if len(stats_calls) != len(diag["baselines"]):
        return failures + ["statistics calls do not match the baseline records"]
    stats_of_problem = {
        id(result): args[0] for args, _, result in capture.calls.get("build_problem", [])
    }
    for (args, _, stats), base in zip(stats_calls, diag["baselines"]):
        where = f"{base['setup']} {base['combiner']} drop {base['drop']}: "
        big_a, b = np.asarray(stats.A), np.asarray(stats.b)
        found = checks.residual_covariance_pd(big_a, b)
        found += checks.optimal_se_matches(
            big_a, b, base["olsfd"]["per_ue_se"], cfg.tau_p, cfg.tau_c
        )
        instance, _, est, combiner, _, n_blocks = args[:6]
        if combiner.value == "mr":
            found += checks.mr_mean_within_stderr(
                b, stats.p, np.asarray(est.B), np.asarray(instance.R), n_blocks
            )
        failures += [where + msg for msg in found]
    solves = capture.calls.get("bcd_solve", [])
    cells = [c for c in diag["cells"] if c["error"] is None]
    if len(solves) != len(cells):
        return failures + ["solver calls do not match the recorded cells"]
    lower_of = {}
    for (args, _, result), cell in zip(solves, cells):
        problem, options = args[0], args[1]
        stats = stats_of_problem[id(problem)]
        big_a, b, p = np.asarray(stats.A), np.asarray(stats.b), np.asarray(stats.p)
        if id(stats) not in lower_of:
            lower_of[id(stats)] = checks.unpenalized_minimum(big_a, b, p)
        where = (f"{cell['setup']} {cell['combiner']} drop {cell['drop']} "
                 f"lambda={cell['lambda']:g} gamma={cell['gamma']:g}: ")
        found = checks.objective_in_range(cell["objective"], lower_of[id(stats)])
        found += checks.kkt_matches(
            result.a, big_a, b, p, options.gamma, options.lam, cell["kkt_residual"]
        )
        failures += [where + msg for msg in found]
    return failures


def merged(diags):
    """One diagnostics dict for all drops, each labelled with its index."""
    out = {"baselines": [], "cells": [], "config": diags[0]["config"]}
    for d, diag in enumerate(diags):
        for key in ("baselines", "cells"):
            out[key] += [dict(rec, drop=d) for rec in diag[key]]
    return out


def design_metrics(diag):
    """Sparse-design quality against the optimal decoder of the same drop."""
    import numpy as np

    optimal = {(b["setup"], b["combiner"], b["drop"]): b["olsfd"] for b in diag["baselines"]}
    se_sparse = se_opt = 0.0
    ee_gain = []
    serving = []
    for cell in diag["cells"]:
        if cell["error"] is not None:
            continue
        best = optimal[(cell["setup"], cell["combiner"], cell["drop"])]
        se_sparse += float(np.sum(cell["per_ue_se"]))
        se_opt += float(np.sum(best["per_ue_se"]))
        ee_gain.append(cell["ee_bit_per_joule"] / best["ee"])
        serving.append(cell["mean_serving_aps"])
    return {
        "sglasso.se_vs_optimal_pct": 100.0 * se_sparse / se_opt,
        "sglasso.ee_vs_optimal": float(np.mean(ee_gain)),
        "sglasso.serving_aps_per_ue": float(np.mean(serving)),
    }


def layer_metrics(tracer, diag, out_dir, traced_s, untraced_s):
    cells = [c for c in diag["cells"] if c["error"] is None]
    sweeps = sum(c["sweeps"] for c in cells)
    solve_s = tracer.total(name="bcd_solve")
    stats_s = tracer.total(name="estimate_lsfd_statistics")
    blocks = tracer.count("estimate_lsfd_statistics") * diag["config"]["n_blocks"]
    return {
        "sglasso.solve_s": solve_s,
        "sglasso.sweeps": sweeps,
        "sglasso.ms_per_sweep": 1e3 * solve_s / sweeps,
        "sglasso.build_s": tracer.total(name="build_problem"),
        "sglasso.kkt_max": max(c["kkt_residual"] for c in cells),
        "sglasso.capped_cells": sum(1 for c in cells if not c["converged"]),
        "uplink.stats_s": stats_s,
        "uplink.blocks_per_s": blocks / stats_s,
        "pilots.estimation_stats_s": tracer.total(layer="pilots"),
        "network.generate_s": tracer.total(layer="network"),
        "lsfd.decoders_s": tracer.total(layer="lsfd"),
        "power_energy.model_s": tracer.total(layer="power_energy"),
        "harness.write_s": tracer.total(name="write_outputs"),
        "harness.output_kb": sum(f.stat().st_size for f in out_dir.glob("*/*")) / 1e3,
        "harness.self_s": tracer.self_time("run_experiment"),
        "trace.overhead_s": traced_s - untraced_s,
        "trace.spans": len(tracer.spans),
    }


def measure(args):
    import checks
    import tracing

    harness = import_program()
    cfg = load_workload(harness, args.workload, args.seed)
    setup_s = since_process_start()

    out = run_dir(args.workload, args.seed, args.trace)
    drops = drops_of(cfg)
    calibration = [calibrate()]
    capture = tracing.Capture()
    times = [[] for _ in drops]
    first = [None] * len(drops)
    attempted = failed = 0
    failures = []
    start = time.perf_counter()
    for n_pass in itertools.count(1):
        for d, drop in enumerate(drops):
            drop_out = out / "untraced" / f"drop{d}"
            if n_pass == 1:
                names = ("estimate_lsfd_statistics", "build_problem", "bcd_solve")
                with capture.instrument(harness, names):
                    seconds, report = run_drop(harness, drop, drop_out)
            else:
                seconds, report = run_drop(harness, drop, drop_out)
            times[d].append(seconds)
            attempted += len(report.records)
            failed += report.failures
            files = {n: (drop_out / n).read_bytes() for n in OUTPUT_FILES}
            first[d] = first[d] or files
            for name, data in files.items():
                failures += checks.same_bytes(
                    first[d][name], data, f"pass {n_pass} drop {d} {name}"
                )
        run_s = sum(min(t) for t in times)
        if n_pass >= MIN_PASSES and time.perf_counter() - start + run_s > args.seconds:
            break
    calibration.append(calibrate())
    diags = [json.loads(f["diagnostics.json"]) for f in first]
    failures += run_checks(cfg, diags, capture)
    del capture
    diag = merged(diags)

    metrics = {"setup_s": setup_s, "run_s": run_s}
    if args.trace:
        tracer = tracing.Tracer()
        traced_s = 0.0
        with tracer.instrument(harness):
            for d, drop in enumerate(drops):
                seconds, report = run_drop(harness, drop, out / "traced" / f"drop{d}", tracer)
                traced_s += seconds
                attempted += len(report.records)
                failed += report.failures
                failures += checks.same_bytes(
                    first[d]["summary.csv"],
                    (out / "traced" / f"drop{d}" / "summary.csv").read_bytes(),
                    f"traced drop {d} summary.csv",
                )
        untraced_s = statistics.median(sum(t[i] for t in times) for i in range(n_pass))
        metrics = layer_metrics(tracer, diag, out / "traced", traced_s, untraced_s)
        metrics.update(design_metrics(diag))
        (out / "trace.json").write_text(json.dumps(tracer.as_json()))
        units = PER_LAYER
    else:
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  program_seed=cfg.seed, trace=args.trace, drop_times_s=times,
                  calibration_s=calibration, machine=machine_info(),
                  check_failures=failures)
    (out / "run.json").write_text(json.dumps(record, indent=1) + "\n")
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {n_pass} passes over {len(drops)} "
          f"drop(s); calibration "
          f"{calibration[0]:.3f} -> {calibration[1]:.3f} s", file=sys.stderr)
    for name, entry in result["metrics"].items():
        print(f"  {name:28s} {entry['value']:14.6g} {entry['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(args):
    """Run the workload N times in fresh processes and summarise the metrics."""
    results = []
    calibrations = []
    for i in range(args.repeat):
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed + i),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"run {i} (seed {args.seed + i}) exited {proc.returncode}",
                  file=sys.stderr)
            return 1
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        record = json.loads(
            (run_dir(args.workload, args.seed + i, args.trace) / "run.json").read_text()
        )
        calibrations.append(record["calibration_s"])
        print(f"seed {args.seed + i}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in results[-1]["metrics"].items())
            + " calibration_s=" + "/".join(f"{c:.3f}" for c in calibrations[-1]),
            file=sys.stderr, flush=True)
    summary = {"workload": args.workload, "trace": args.trace,
               "seeds": [args.seed, args.seed + args.repeat - 1],
               "seconds": args.seconds, "runs": results,
               "calibration_s": calibrations, "metrics": {}}
    print(f"{args.workload}: {args.repeat} runs, all correct: "
          f"{all(r['correct'] for r in results)}, failed/attempted: "
          f"{sum(r['failed'] for r in results)}/{sum(r['attempted'] for r in results)}")
    print(f"  {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for name, entry in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med if med else float("nan")
        summary["metrics"][name] = {"unit": entry["unit"], "median": med, "q1": q1,
                                    "q3": q3, "spread": spread, "values": values}
        print(f"  {name:28s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f}"
              f"  {entry['unit']}")
    out = OUT_ROOT / "repeat"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-n{args.repeat}-trace{args.trace}.json"
     ).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if all(r["correct"] for r in results) else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run N times in fresh processes and summarise")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, str(HERE))
    return repeat(args) if args.repeat else measure(args)


if __name__ == "__main__":
    sys.exit(main())
