"""Experiment harness: sweeps, reporting, and the command-line entry point.

A run crosses setups x drops x combiners x (lambda, gamma) grid points.
Per drop: generate a network, assign pilots, estimate statistics under
full-association fractional powers, evaluate the closed-form decoders,
then solve the sparse design at every grid point.  Results land in a CSV
summary (one drop-averaged row per setup/combiner/grid point) and a strict
JSON diagnostics file (schema 2) with objective traces and per-UE SE arrays.

Exit codes: 0 success, 2 configuration error, 3 failure in any cell
(failed drops and cells are recorded and the sweep continues).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .lsfd import baseline_association, olsfd_weights, plsfd_weights, se, sinr
from .network import NetworkConfig, generate_network
from .pilots import assign_pilots, estimation_stats
from .power_energy import (
    Association,
    PowerModel,
    energy_efficiency,
    extract_association,
    fractional_power,
    total_power,
)
from .sglasso import SolverOptions, bcd_solve, build_problem, snap_zeros
from .uplink import Combiner, estimate_lsfd_statistics

# pathloss offset expressing link gains over a -124 dBW noise floor
# (-174 dBm/Hz + 10 log10(20 MHz) + 7 dB noise figure), with noise_var = 1
NOISE_FLOOR_OFFSET_DB = 124.0

CSV_HEADER = (
    "setup,combiner,lambda,gamma,drop,avg_se_bps_hz,ee_bit_per_joule,"
    "mean_serving_aps,mean_served_ues,solver_sweeps,kkt_residual,wall_ms"
)

# what a drop or a cell records as its failure instead of raising: numpy
# overflow, non-finite or invalid statistics, and failed factorizations
_FAILURES = (FloatingPointError, ValueError, np.linalg.LinAlgError)


class ConfigError(ValueError):
    """Invalid experiment configuration or config file."""


@dataclass(frozen=True)
class ExperimentConfig:
    network: NetworkConfig
    setups: tuple  # ((L, N), ...)
    tau_c: int = 200
    tau_p: int = 10
    rho_p_w: float = 0.1
    power: PowerModel = PowerModel()
    combiners: tuple = (Combiner.MR, Combiner.LMMSE)
    lambda_grid: tuple = (1e-4, 1e-3, 1e-2, 1e-1)
    gamma_grid: tuple = (1e-4, 1e-2)
    n_blocks: int = 5000
    n_drops: int = 1
    seed: int = 1
    n_workers: int = 1
    record_timing: bool = True
    solver: SolverOptions = SolverOptions()

    def __post_init__(self):
        if self.n_blocks < 1 or self.n_drops < 1 or self.n_workers < 1:
            raise ConfigError("n_blocks, n_drops, n_workers must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if not self.setups or not self.combiners:
            raise ConfigError("need at least one setup and one combiner")
        if not self.lambda_grid or not self.gamma_grid:
            raise ConfigError("penalty grids must be nonempty")
        if not 0 < self.tau_p < self.tau_c:
            raise ConfigError("need 0 < tau_p < tau_c")


def paper_config():
    """Full-scale preset: two setups, 20 UEs on a 500 m square."""
    return ExperimentConfig(
        network=NetworkConfig(
            L=40, N=4, K=20, side_m=500.0,
            noise_var=1.0, gain_offset_db=NOISE_FLOOR_OFFSET_DB,
        ),
        setups=((40, 4), (160, 1)),
    )


def desk_config():
    """Small preset for quick runs and CI: 10 APs, 4 UEs, 500 blocks."""
    return ExperimentConfig(
        network=NetworkConfig(
            L=10, N=2, K=4, side_m=1000.0,
            noise_var=1.0, gain_offset_db=NOISE_FLOOR_OFFSET_DB,
        ),
        setups=((10, 2),),
        tau_p=5,
        n_blocks=500,
        n_drops=3,
    )


@dataclass
class BaselineRecord:
    setup: str
    combiner: str
    drop: int
    powers: np.ndarray
    olsfd_se: np.ndarray = None
    olsfd_ee: float = np.nan
    plsfd_se: np.ndarray = None
    plsfd_ee: float = np.nan
    plsfd_mean_serving: float = np.nan
    error: str = None


@dataclass
class RunRecord:
    setup: str
    combiner: str
    lam: float
    gamma: float
    drop: int
    avg_se: float = np.nan
    ee: float = np.nan
    mean_serving: float = np.nan
    mean_served: float = np.nan
    sweeps: float = np.nan
    kkt_residual: float = np.nan
    wall_ms: float = 0.0
    objective: float = np.nan
    converged: bool = False
    per_ue_se: np.ndarray = field(default=None, repr=False)
    post_powers: np.ndarray = field(default=None, repr=False)
    objective_trace: np.ndarray = field(default=None, repr=False)
    error: str = None


@dataclass
class RunReport:
    config: ExperimentConfig
    records: list
    baselines: list
    failures: int = 0


def _describe(exc):
    return f"{type(exc).__name__}: {exc}"


def _per_ue_se(a, stats, tau_p, tau_c):
    """SE per UE for weight rows a; all-zero rows contribute zero SE."""
    out = np.zeros(a.shape[0])
    for k, row in enumerate(a):
        if np.any(row):
            out[k] = se(sinr(row, stats.A[k], stats.b[k]), tau_p, tau_c)
    return out


def _run_cell(cfg, setup_name, comb, problem, stats, beta, n_antennas, drop, lam, gam):
    rec = RunRecord(
        setup=setup_name, combiner=comb.value, lam=lam, gamma=gam, drop=drop
    )
    start = time.perf_counter()
    try:
        result = bcd_solve(problem, replace(cfg.solver, gamma=gam, lam=lam))
        a = snap_zeros(result.a)
        assoc = extract_association(a)
        se_k = _per_ue_se(a, stats, cfg.tau_p, cfg.tau_c)
        power = total_power(assoc, stats.p, se_k, cfg.power, n_antennas)
        rec.avg_se = float(se_k.mean())
        rec.ee = energy_efficiency(se_k, power, cfg.power.bandwidth_hz)
        rec.mean_serving = assoc.mean_serving()
        rec.mean_served = assoc.mean_served()
        rec.sweeps = result.sweeps
        rec.kkt_residual = result.kkt_residual
        rec.objective = result.objective
        rec.converged = result.converged
        rec.per_ue_se = se_k
        rec.objective_trace = result.objective_trace
        if all(m.size for m in assoc.serving):
            rec.post_powers = fractional_power(
                beta, assoc.serving, cfg.power.p_max_w, cfg.power.theta
            )
    except _FAILURES as exc:
        rec.error = _describe(exc)
    if cfg.record_timing:
        rec.wall_ms = (time.perf_counter() - start) * 1e3
    return rec


def _baseline_record(cfg, setup_name, comb, drop, inst, plan, stats, p, n_antennas):
    """SE and EE of the optimal (all-serve) and partial decoders."""
    n_ue, n_ap = stats.b.shape
    o_se = np.array([
        se(
            sinr(olsfd_weights(stats.A[k], stats.b[k]), stats.A[k], stats.b[k]),
            cfg.tau_p, cfg.tau_c,
        )
        for k in range(n_ue)
    ])
    o_assoc = Association.full(n_ue, n_ap)
    o_ee = energy_efficiency(
        o_se,
        total_power(o_assoc, p, o_se, cfg.power, n_antennas),
        cfg.power.bandwidth_hz,
    )
    p_assoc = baseline_association(inst.beta, plan)
    p_se = np.array([
        se(
            sinr(
                plsfd_weights(stats.A[k], stats.b[k], p_assoc.serving[k]),
                stats.A[k], stats.b[k],
            ),
            cfg.tau_p, cfg.tau_c,
        )
        for k in range(n_ue)
    ])
    p_ee = energy_efficiency(
        p_se,
        total_power(p_assoc, p, p_se, cfg.power, n_antennas),
        cfg.power.bandwidth_hz,
    )
    return BaselineRecord(
        setup=setup_name, combiner=comb.value, drop=drop, powers=p,
        olsfd_se=o_se, olsfd_ee=o_ee,
        plsfd_se=p_se, plsfd_ee=p_ee,
        plsfd_mean_serving=p_assoc.mean_serving(),
    )


def _run_drop(cfg, setup, drop, stats_workers):
    n_ap, n_antennas = setup
    setup_name = f"L{n_ap}N{n_antennas}"
    net_cfg = replace(cfg.network, L=n_ap, N=n_antennas)
    inst = generate_network(net_cfg, cfg.seed + drop)
    plan = assign_pilots(inst.beta, cfg.tau_p, rho_p=cfg.rho_p_w, tau_c=cfg.tau_c)
    est = estimation_stats(inst, plan)
    full = [np.arange(n_ap)] * net_cfg.K
    p = fractional_power(inst.beta, full, cfg.power.p_max_w, cfg.power.theta)
    baselines = []
    records = []
    for comb in cfg.combiners:
        try:
            stats = estimate_lsfd_statistics(
                inst, plan, est, comb, p, cfg.n_blocks, cfg.seed + drop,
                n_workers=stats_workers,
            )
            if not (np.all(np.isfinite(stats.A)) and np.all(np.isfinite(stats.b))):
                raise FloatingPointError("LSFD statistics are not finite")
            base = _baseline_record(
                cfg, setup_name, comb, drop, inst, plan, stats, p, n_antennas,
            )
        except _FAILURES as exc:
            base = BaselineRecord(setup=setup_name, combiner=comb.value,
                                  drop=drop, powers=p, error=_describe(exc))
        baselines.append(base)
        error = base.error
        if error is None:
            try:
                problem = build_problem(stats)
            except _FAILURES as exc:
                error = _describe(exc)
        if error is not None:
            # statistics unusable: mark every grid cell failed, keep going
            for lam in cfg.lambda_grid:
                for gam in cfg.gamma_grid:
                    records.append(RunRecord(
                        setup=setup_name, combiner=comb.value, lam=lam,
                        gamma=gam, drop=drop, error=error,
                    ))
            continue
        for lam in cfg.lambda_grid:
            for gam in cfg.gamma_grid:
                records.append(_run_cell(
                    cfg, setup_name, comb, problem, stats, inst.beta,
                    n_antennas, drop, lam, gam,
                ))
    return baselines, records


def run_experiment(cfg):
    """Run the full sweep; cell failures are recorded, not raised."""
    jobs = [(setup, drop) for setup in cfg.setups for drop in range(cfg.n_drops)]
    # one pool only: drops in parallel, or the statistics chunks of each drop
    if cfg.n_workers > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=cfg.n_workers) as pool:
            outputs = list(pool.map(lambda j: _run_drop(cfg, *j, 1), jobs))
    else:
        outputs = [_run_drop(cfg, *job, cfg.n_workers) for job in jobs]
    baselines = []
    records = []
    for base, recs in outputs:
        baselines.extend(base)
        records.extend(recs)
    failures = sum(1 for r in records if r.error is not None)
    return RunReport(config=cfg, records=records, baselines=baselines,
                     failures=failures)


def _fmt(x):
    return format(float(x), ".9g")


def sweep_summary(report):
    """Drop-averaged CSV rows, one per (setup, combiner, lambda, gamma).

    The drop column holds the number of drops averaged.  Returns a list of
    strings starting with the header.
    """
    cfg = report.config
    groups = {}
    for rec in report.records:
        groups.setdefault((rec.setup, rec.combiner, rec.lam, rec.gamma), []).append(rec)
    rows = [CSV_HEADER]
    for n_ap, n_antennas in cfg.setups:
        setup_name = f"L{n_ap}N{n_antennas}"
        for comb in cfg.combiners:
            for lam in cfg.lambda_grid:
                for gam in cfg.gamma_grid:
                    recs = groups.get((setup_name, comb.value, lam, gam), [])
                    if not recs:
                        continue
                    mean = lambda attr: np.mean([getattr(r, attr) for r in recs])
                    rows.append(",".join([
                        setup_name,
                        comb.value,
                        _fmt(lam),
                        _fmt(gam),
                        str(len(recs)),
                        _fmt(mean("avg_se")),
                        _fmt(mean("ee")),
                        _fmt(mean("mean_serving")),
                        _fmt(mean("mean_served")),
                        _fmt(mean("sweeps")),
                        _fmt(mean("kkt_residual")),
                        _fmt(mean("wall_ms")),
                    ]))
    return rows


def _tolist(x):
    return None if x is None else np.asarray(x).tolist()


def _strict(obj):
    """Copy of a JSON-like tree with non-finite floats replaced by None."""
    if isinstance(obj, dict):
        return {key: _strict(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_strict(value) for value in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def diagnostics(report):
    """Strict-JSON-serializable diagnostics dictionary (schema 2).

    Non-finite numbers, such as the fields of a failed cell, are None.
    """
    cfg = report.config
    return _strict({
        "schema": 2,
        "config": {
            "seed": cfg.seed,
            "setups": [list(s) for s in cfg.setups],
            "combiners": [c.value for c in cfg.combiners],
            "lambda_grid": list(cfg.lambda_grid),
            "gamma_grid": list(cfg.gamma_grid),
            "n_blocks": cfg.n_blocks,
            "n_drops": cfg.n_drops,
            "K": cfg.network.K,
            "tau_p": cfg.tau_p,
            "tau_c": cfg.tau_c,
        },
        "baselines": [
            {
                "setup": b.setup,
                "combiner": b.combiner,
                "drop": b.drop,
                "error": b.error,
                "powers_w": _tolist(b.powers),
                "olsfd": {"per_ue_se": _tolist(b.olsfd_se), "ee": b.olsfd_ee},
                "plsfd": {
                    "per_ue_se": _tolist(b.plsfd_se),
                    "ee": b.plsfd_ee,
                    "mean_serving_aps": b.plsfd_mean_serving,
                },
            }
            for b in report.baselines
        ],
        "cells": [
            {
                "setup": r.setup,
                "combiner": r.combiner,
                "lambda": r.lam,
                "gamma": r.gamma,
                "drop": r.drop,
                "error": r.error,
                "converged": r.converged,
                "sweeps": None if np.isnan(r.sweeps) else int(r.sweeps),
                "kkt_residual": r.kkt_residual,
                "objective": r.objective,
                "avg_se_bps_hz": r.avg_se,
                "ee_bit_per_joule": r.ee,
                "mean_serving_aps": r.mean_serving,
                "mean_served_ues": r.mean_served,
                "per_ue_se": _tolist(r.per_ue_se),
                "post_assoc_powers_w": _tolist(r.post_powers),
                "objective_trace": _tolist(r.objective_trace),
                "wall_ms": r.wall_ms,
            }
            for r in report.records
        ],
        "failures": report.failures,
    })


def write_outputs(report, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "summary.csv").write_text("\n".join(sweep_summary(report)) + "\n")
    with open(out / "diagnostics.json", "w") as fh:
        json.dump(diagnostics(report), fh, indent=1, allow_nan=False)
        fh.write("\n")


# ---------------------------------------------------------------- config file

_TRUE = {"true", "yes", "on", "1"}
_FALSE = {"false", "no", "off", "0"}


def _parse_bool(text):
    low = text.lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_setups(text):
    setups = []
    for part in text.split(","):
        part = part.strip().lower()
        if "x" not in part:
            raise ConfigError(f"setup {part!r} is not of the form LxN")
        l_str, n_str = part.split("x", 1)
        setups.append((int(l_str), int(n_str)))
    return tuple(setups)


def _parse_combiners(text):
    names = [part.strip().lower() for part in text.split(",")]
    if names == ["all"]:
        return (Combiner.MR, Combiner.LMMSE)
    try:
        return tuple(Combiner(name) for name in names)
    except ValueError as exc:
        raise ConfigError(f"unknown combiner in {text!r}") from exc


def _float_list(text):
    return tuple(float(part) for part in text.split(","))


# dotted config key -> (section, field name, parser)
_KEY_MAP = {
    "seed": ("", "seed", int),
    "n_drops": ("", "n_drops", int),
    "n_blocks": ("", "n_blocks", int),
    "n_workers": ("", "n_workers", int),
    "record_timing": ("", "record_timing", _parse_bool),
    "lambda_grid": ("", "lambda_grid", _float_list),
    "gamma_grid": ("", "gamma_grid", _float_list),
    "setups": ("", "setups", _parse_setups),
    "combiner": ("", "combiners", _parse_combiners),
    "network.k": ("network", "K", int),
    "network.side_m": ("network", "side_m", float),
    "network.ap_height_m": ("network", "ap_height_m", float),
    "network.shadow_std_db": ("network", "shadow_std_db", float),
    "network.asd_deg": ("network", "asd_deg", float),
    "network.antenna_spacing_wl": ("network", "antenna_spacing_wl", float),
    "network.noise_var": ("network", "noise_var", float),
    "network.gain_offset_db": ("network", "gain_offset_db", float),
    "pilot.tau_p": ("", "tau_p", int),
    "pilot.tau_c": ("", "tau_c", int),
    "pilot.rho_p": ("", "rho_p_w", float),
    "power.bandwidth_hz": ("power", "bandwidth_hz", float),
    "power.p_max": ("power", "p_max_w", float),
    "power.theta": ("power", "theta", float),
    "power.eta": ("power", "pa_efficiency", float),
    "power.p_c_ue": ("power", "p_circuit_ue_w", float),
    "power.p_c_ap": ("power", "p_circuit_ap_w", float),
    "power.p_proc": ("power", "p_proc_w", float),
    "power.p_fix_fh": ("power", "p_fix_fh_w", float),
    "power.p_sig": ("power", "p_sig_w", float),
    "power.p_fix_cpu": ("power", "p_fix_cpu_w", float),
    "power.p_lsfd": ("power", "p_lsfd_w", float),
    "power.p_deco": ("power", "p_deco_w_per_bps", float),
    "solver.max_sweeps": ("solver", "max_sweeps", int),
    "solver.tol_rel": ("solver", "tol_rel", float),
}


def parse_config_text(text):
    """Parse flat `key = value` lines (# comments) into a key-value dict."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        values[key] = value
    return values


def apply_config(base, values):
    """Apply parsed key-value pairs onto a base ExperimentConfig."""
    top = {}
    sections = {"network": {}, "power": {}, "solver": {}}
    for key, raw in values.items():
        if key not in _KEY_MAP:
            raise ConfigError(f"unknown config key {key!r}")
        section, name, parser = _KEY_MAP[key]
        try:
            parsed = parser(raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from exc
        if section:
            sections[section][name] = parsed
        else:
            top[name] = parsed
    try:
        network = replace(base.network, **sections["network"])
        power = replace(base.power, **sections["power"])
        solver = replace(base.solver, **sections["solver"])
        return replace(base, network=network, power=power, solver=solver, **top)
    except (ValueError, ConfigError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path, desk_scale=False):
    base = desk_config() if desk_scale else paper_config()
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return apply_config(base, parse_config_text(text))


# ------------------------------------------------------------------------ CLI

def _select_setup(cfg, choice):
    if choice == "all":
        return cfg
    index = {"a": 0, "b": 1}[choice]
    if index >= len(cfg.setups):
        raise ConfigError(f"setup {choice!r} requested but only "
                          f"{len(cfg.setups)} setup(s) configured")
    return replace(cfg, setups=(cfg.setups[index],))


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="sparselsfd",
        description="Cell-free uplink sweeps with sparse decoding weights",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="run a configured sweep")
    run_parser.add_argument("--config", required=True, help="flat key=value file")
    run_parser.add_argument("--seed", type=int, default=None)
    run_parser.add_argument("--out", default=None, help="output directory")
    run_parser.add_argument("--setup", choices=["a", "b", "all"], default="all")
    run_parser.add_argument("--combiner", choices=["mr", "lmmse", "all"],
                            default=None)
    run_parser.add_argument("--desk-scale", action="store_true",
                            help="start from the small CI preset")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, desk_scale=args.desk_scale)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if args.combiner is not None:
            cfg = replace(cfg, combiners=_parse_combiners(args.combiner))
        cfg = _select_setup(cfg, args.setup)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    report = run_experiment(cfg)
    if args.out:
        write_outputs(report, args.out)
    else:
        print("\n".join(sweep_summary(report)))
    if report.failures:
        print(f"{report.failures} cell(s) failed", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
