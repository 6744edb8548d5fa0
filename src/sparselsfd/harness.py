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
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .lsfd import baseline_association, olsfd_weights, plsfd_weights, se, sinr
from .network import NetworkConfig, generate_network
from .pilots import assign_pilots, estimation_stats
from .power_energy import (
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

# what a drop or a cell records as its failure instead of raising: float
# overflow, non-finite or invalid statistics, and failed factorizations
_FAILURES = (FloatingPointError, OverflowError, ValueError, np.linalg.LinAlgError)


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
        if not self.rho_p_w > 0:
            raise ConfigError("pilot power rho_p must be positive")
        if any(n_ap < 1 or n_antennas < 1 for n_ap, n_antennas in self.setups):
            raise ConfigError("every setup needs L >= 1 and N >= 1")
        for name in ("lambda_grid", "gamma_grid"):
            if not all(math.isfinite(v) and v >= 0 for v in getattr(self, name)):
                raise ConfigError(f"{name} values must be finite and nonnegative")
        for name in ("setups", "combiners", "lambda_grid", "gamma_grid"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ConfigError(f"{name} has repeated entries")


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


def _evaluate(cfg, weights, assoc, stats, n_antennas):
    """Per-UE SE and the EE of decoding weights (K, L) under an association mask.

    All-zero weight rows contribute zero SE.
    """
    se_k = np.zeros(weights.shape[0])
    for k, row in enumerate(weights):
        if np.any(row):
            se_k[k] = se(sinr(row, stats.A[k], stats.b[k]), cfg.tau_p, cfg.tau_c)
    power = total_power(assoc, stats.p, se_k, cfg.power, n_antennas)
    return se_k, energy_efficiency(se_k, power, cfg.power.bandwidth_hz)


def _run_cell(cfg, setup_name, comb, problem, stats, beta, n_antennas, drop, lam, gam):
    rec = RunRecord(
        setup=setup_name, combiner=comb.value, lam=lam, gamma=gam, drop=drop
    )
    start = time.perf_counter()
    try:
        result = bcd_solve(problem, replace(cfg.solver, gamma=gam, lam=lam))
        a = snap_zeros(result.a)
        assoc = extract_association(a)
        se_k, rec.ee = _evaluate(cfg, a, assoc, stats, n_antennas)
        rec.avg_se = float(se_k.mean())
        rec.mean_serving = float(assoc.sum(axis=1).mean())
        rec.mean_served = float(assoc.sum(axis=0).mean())
        rec.sweeps = result.sweeps
        rec.kkt_residual = result.kkt_residual
        rec.objective = result.objective
        rec.converged = result.converged
        rec.per_ue_se = se_k
        rec.objective_trace = result.objective_trace
        if assoc.any(axis=1).all():
            rec.post_powers = fractional_power(
                beta, assoc, cfg.power.p_max_w, cfg.power.theta
            )
    except _FAILURES as exc:
        rec.error = _describe(exc)
    if cfg.record_timing:
        rec.wall_ms = (time.perf_counter() - start) * 1e3
    return rec


def _baseline_record(cfg, setup_name, comb, drop, inst, plan, stats, p, n_antennas):
    """SE and EE of the optimal (all-serve) and partial decoders."""
    n_ue = len(stats.b)
    o_weights = np.array([olsfd_weights(stats.A[k], stats.b[k]) for k in range(n_ue)])
    o_se, o_ee = _evaluate(cfg, o_weights, np.ones(stats.b.shape, dtype=bool), stats,
                           n_antennas)
    p_assoc = baseline_association(inst.beta, plan)
    p_weights = np.array([
        plsfd_weights(stats.A[k], stats.b[k], p_assoc[k]) for k in range(n_ue)
    ])
    p_se, p_ee = _evaluate(cfg, p_weights, p_assoc, stats, n_antennas)
    return BaselineRecord(
        setup=setup_name, combiner=comb.value, drop=drop, powers=p,
        olsfd_se=o_se, olsfd_ee=o_ee,
        plsfd_se=p_se, plsfd_ee=p_ee,
        plsfd_mean_serving=float(p_assoc.sum(axis=1).mean()),
    )


def _run_drop(cfg, setup, drop):
    n_ap, n_antennas = setup
    setup_name = f"L{n_ap}N{n_antennas}"
    net_cfg = replace(cfg.network, L=n_ap, N=n_antennas)
    p = drop_error = None
    try:
        inst = generate_network(net_cfg, cfg.seed + drop)
        plan = assign_pilots(inst.beta, cfg.tau_p, rho_p=cfg.rho_p_w, tau_c=cfg.tau_c)
        est = estimation_stats(inst, plan)
        full = np.ones((net_cfg.K, n_ap), dtype=bool)
        p = fractional_power(inst.beta, full, cfg.power.p_max_w, cfg.power.theta)
    except _FAILURES as exc:
        drop_error = _describe(exc)
    baselines = []
    records = []
    for comb in cfg.combiners:
        base = BaselineRecord(setup=setup_name, combiner=comb.value, drop=drop,
                              powers=p, error=drop_error)
        if drop_error is None:
            try:
                stats = estimate_lsfd_statistics(
                    inst, plan, est, comb, p, cfg.n_blocks, cfg.seed + drop
                )
                base = _baseline_record(
                    cfg, setup_name, comb, drop, inst, plan, stats, p, n_antennas,
                )
            except _FAILURES as exc:
                base.error = _describe(exc)
        baselines.append(base)
        error = base.error
        if error is None:
            try:
                problem = build_problem(stats)
            except _FAILURES as exc:
                error = _describe(exc)
        for lam in cfg.lambda_grid:
            for gam in cfg.gamma_grid:
                if error is None:
                    records.append(_run_cell(
                        cfg, setup_name, comb, problem, stats, inst.beta,
                        n_antennas, drop, lam, gam,
                    ))
                else:
                    # drop or statistics unusable: the cell fails, the sweep goes on
                    records.append(RunRecord(
                        setup=setup_name, combiner=comb.value, lam=lam,
                        gamma=gam, drop=drop, error=error,
                    ))
    return baselines, records


def run_experiment(cfg):
    """Run the full sweep; cell failures are recorded, not raised."""
    jobs = [(setup, drop) for setup in cfg.setups for drop in range(cfg.n_drops)]
    if cfg.n_workers > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=cfg.n_workers) as pool:
            outputs = list(pool.map(lambda j: _run_drop(cfg, *j), jobs))
    else:
        outputs = [_run_drop(cfg, *job) for job in jobs]
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


# documented config keys whose field has another name: key -> dotted field
_ALIASES = {
    "combiner": "combiners",
    "pilot.tau_p": "tau_p",
    "pilot.tau_c": "tau_c",
    "pilot.rho_p": "rho_p_w",
    "power.p_max": "power.p_max_w",
    "power.eta": "power.pa_efficiency",
    "power.p_c_ue": "power.p_circuit_ue_w",
    "power.p_c_ap": "power.p_circuit_ap_w",
    "power.p_proc": "power.p_proc_w",
    "power.p_fix_fh": "power.p_fix_fh_w",
    "power.p_sig": "power.p_sig_w",
    "power.p_fix_cpu": "power.p_fix_cpu_w",
    "power.p_lsfd": "power.p_lsfd_w",
    "power.p_deco": "power.p_deco_w_per_bps",
}
# fields no key sets: the sections themselves, L and N (set per setup)
# and the penalties (set per grid cell)
_NOT_KEYS = {"network", "power", "solver", "network.L", "network.N",
             "solver.gamma", "solver.lam"}
_FIELD_PARSERS = {
    "setups": _parse_setups,
    "combiners": _parse_combiners,
    "lambda_grid": _float_list,
    "gamma_grid": _float_list,
}
_TYPE_PARSERS = {"int": int, "float": float, "bool": _parse_bool}


def _key_map():
    """Dotted config key -> (section, field name, parser), one per field."""
    renamed = {field_: key for key, field_ in _ALIASES.items()}
    key_map = {}
    for section, cls in (("", ExperimentConfig), ("network", NetworkConfig),
                         ("power", PowerModel), ("solver", SolverOptions)):
        for f in fields(cls):
            dotted = f"{section}.{f.name}" if section else f.name
            if dotted in _NOT_KEYS:
                continue
            parser = _FIELD_PARSERS.get(f.name) or _TYPE_PARSERS[f.type]
            key_map[renamed.get(dotted, dotted).lower()] = (section, f.name, parser)
    return key_map


_KEY_MAP = _key_map()


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
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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


def _make_dir(path):
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from exc


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
        if args.out:
            # made before the sweep, so an unusable path fails in seconds
            _make_dir(args.out)
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
