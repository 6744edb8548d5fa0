"""Tests for experiment orchestration, config parsing, and CSV/JSON output."""

import json
from dataclasses import replace

import sparselsfd

import numpy as np
import numpy.testing as npt
import pytest

from sparselsfd import (
    Combiner,
    ConfigError,
    SolverOptions,
    desk_config,
    diagnostics,
    load_config,
    paper_config,
    run_experiment,
    sweep_summary,
    write_outputs,
)
from sparselsfd.harness import (
    CSV_HEADER,
    RunReport,
    _select_setup,
    apply_config,
    main,
    parse_config_text,
)


def test_star_import_exports_all_names():
    namespace = {}
    exec("from sparselsfd import *", namespace)
    assert set(sparselsfd.__all__) <= set(namespace)
    assert "estimation_stats" in namespace


# --------------------------------------------------------------- config files

def test_parse_config_text_basic():
    text = """
    # comment line
    seed = 9

    n_drops = 2  # trailing comment
    network.k = 6
    """
    values = parse_config_text(text)
    assert values == {"seed": "9", "n_drops": "2", "network.k": "6"}


def test_parse_config_text_errors():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("seed = 1\nseed = 2\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("just some words\n")
    with pytest.raises(ConfigError, match="empty value"):
        parse_config_text("seed =\n")


def test_apply_config_overrides():
    cfg = apply_config(paper_config(), {
        "seed": "42",
        "n_blocks": "100",
        "network.k": "8",
        "network.side_m": "250",
        "pilot.tau_p": "5",
        "power.p_max": "0.2",
        "solver.max_sweeps": "77",
        "lambda_grid": "0.0, 0.5",
        "gamma_grid": "1e-3",
        "setups": "12x2, 24x1",
        "combiner": "mr",
        "record_timing": "false",
    })
    assert cfg.seed == 42
    assert cfg.n_blocks == 100
    assert cfg.network.K == 8
    assert cfg.network.side_m == 250.0
    assert cfg.tau_p == 5
    assert cfg.power.p_max_w == 0.2
    assert cfg.solver.max_sweeps == 77
    assert cfg.lambda_grid == (0.0, 0.5)
    assert cfg.gamma_grid == (1e-3,)
    assert cfg.setups == ((12, 2), (24, 1))
    assert cfg.combiners == (Combiner.MR,)
    assert cfg.record_timing is False


def test_apply_config_rejects_bad_input():
    with pytest.raises(ConfigError, match="unknown config key"):
        apply_config(paper_config(), {"network.frequency": "3.5"})
    with pytest.raises(ConfigError, match="bad value"):
        apply_config(paper_config(), {"n_blocks": "many"})
    with pytest.raises(ConfigError, match="combiner"):
        apply_config(paper_config(), {"combiner": "zf"})
    with pytest.raises(ConfigError, match="LxN"):
        apply_config(paper_config(), {"setups": "40,4"})
    with pytest.raises(ConfigError):
        apply_config(paper_config(), {"n_blocks": "0"})


def test_experiment_config_validation():
    assert issubclass(ConfigError, ValueError)
    with pytest.raises(ConfigError):
        replace(paper_config(), n_drops=0)
    with pytest.raises(ConfigError):
        replace(paper_config(), lambda_grid=())
    with pytest.raises(ConfigError):
        replace(paper_config(), tau_p=0)
    with pytest.raises(ConfigError):
        replace(paper_config(), tau_p=200, tau_c=200)
    with pytest.raises(ConfigError):
        replace(paper_config(), seed=-1)


def test_presets():
    cfg = paper_config()
    assert cfg.setups == ((40, 4), (160, 1))
    assert cfg.network.K == 20
    assert cfg.network.side_m == 500.0
    assert (cfg.tau_c, cfg.tau_p) == (200, 10)
    assert cfg.rho_p_w == 0.1
    assert cfg.lambda_grid == (1e-4, 1e-3, 1e-2, 1e-1)
    assert cfg.gamma_grid == (1e-4, 1e-2)
    desk = desk_config()
    assert desk.setups == ((10, 2),)
    assert desk.network.K == 4
    assert desk.n_blocks == 500
    assert desk.n_drops == 3


def test_select_setup():
    cfg = paper_config()
    assert _select_setup(cfg, "all") is cfg
    assert _select_setup(cfg, "a").setups == ((40, 4),)
    assert _select_setup(cfg, "b").setups == ((160, 1),)
    with pytest.raises(ConfigError):
        _select_setup(desk_config(), "b")


def test_load_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 3\nnetwork.k = 2\n")
    cfg = load_config(path, desk_scale=True)
    assert cfg.seed == 3
    assert cfg.network.K == 2
    assert cfg.setups == ((10, 2),)
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.cfg")


# ----------------------------------------------------------------- experiment

def mini_config(**overrides):
    base = replace(
        desk_config(),
        n_blocks=150,
        n_drops=2,
        combiners=(Combiner.MR,),
        lambda_grid=(0.0, 1e-4, 1e-1),
        gamma_grid=(0.0,),
        record_timing=False,
        seed=7,
        solver=SolverOptions(max_sweeps=4000),
    )
    return replace(base, **overrides)


@pytest.fixture(scope="module")
def mini_report():
    return run_experiment(mini_config())


@pytest.fixture(scope="module")
def light_summary():
    return sweep_summary(run_experiment(mini_config(lambda_grid=(1e-4, 1e-1))))


def test_run_experiment_shape(mini_report):
    assert mini_report.failures == 0
    assert len(mini_report.baselines) == 2
    assert len(mini_report.records) == 2 * 3 * 1
    for rec in mini_report.records:
        assert rec.error is None
        assert rec.avg_se >= 0
        assert rec.ee >= 0
        assert rec.wall_ms == 0.0


def test_unpenalized_cell_matches_olsfd(mini_report):
    base = {(b.drop): b for b in mini_report.baselines}
    seen = 0
    for rec in mini_report.records:
        if rec.lam == 0.0 and rec.gamma == 0.0:
            o_se = base[rec.drop].olsfd_se
            npt.assert_allclose(rec.per_ue_se, o_se, rtol=1e-4)
            seen += 1
    assert seen == 2


def test_sparse_cells_bounded_by_olsfd(mini_report):
    base = {(b.drop): b for b in mini_report.baselines}
    for rec in mini_report.records:
        assert np.all(rec.per_ue_se <= base[rec.drop].olsfd_se + 1e-9)


def test_mean_serving_monotone_in_lambda(mini_report):
    by_lam = {}
    for rec in mini_report.records:
        by_lam.setdefault(rec.lam, []).append(rec.mean_serving)
    assert np.mean(by_lam[1e-1]) <= np.mean(by_lam[0.0])


def test_sweep_summary_row_count(mini_report):
    rows = sweep_summary(mini_report)
    assert rows[0] == CSV_HEADER
    assert len(rows) == 1 + 1 * 1 * 3 * 1
    for row in rows[1:]:
        fields = row.split(",")
        assert len(fields) == 12
        assert fields[4] == "2"  # drops averaged


def test_sweep_summary_float_format(mini_report):
    for row in sweep_summary(mini_report)[1:]:
        for field in row.split(",")[2:4] + row.split(",")[5:]:
            assert field == format(float(field), ".9g")


def test_sweep_summary_empty_records():
    report = RunReport(config=mini_config(), records=[], baselines=[])
    assert sweep_summary(report) == [CSV_HEADER]


def test_sweep_summary_deterministic(light_summary):
    again = run_experiment(mini_config(lambda_grid=(1e-4, 1e-1)))
    assert sweep_summary(again) == light_summary


def test_worker_count_invariance(light_summary):
    threaded = run_experiment(mini_config(lambda_grid=(1e-4, 1e-1), n_workers=3))
    assert sweep_summary(threaded) == light_summary


def test_thread_pools_not_nested(monkeypatch):
    # drops in a pool run their statistics serially; a lone drop gets the pool
    seen = []
    estimate = sparselsfd.harness.estimate_lsfd_statistics

    def recording(*args, n_workers=1, **kwargs):
        seen.append(n_workers)
        return estimate(*args, n_workers=n_workers, **kwargs)

    monkeypatch.setattr(sparselsfd.harness, "estimate_lsfd_statistics", recording)
    run_experiment(mini_config(lambda_grid=(1e-1,), n_workers=3))
    assert seen == [1, 1]
    seen.clear()
    run_experiment(mini_config(lambda_grid=(1e-1,), n_workers=3, n_drops=1))
    assert seen == [3]


def test_paper_setup_a_completes():
    # loose solver settings: the claim is completion, not convergence depth
    cfg = replace(
        paper_config(),
        setups=((40, 4),),
        combiners=(Combiner.MR,),
        lambda_grid=(1e-4, 1e-2),
        gamma_grid=(1e-4, 1e-2),
        n_blocks=80,
        record_timing=False,
        solver=SolverOptions(max_sweeps=60, tol_rel=1e-4),
    )
    report = run_experiment(cfg)
    assert report.failures == 0
    assert len(report.records) == 4
    assert all(rec.avg_se > 0 for rec in report.records)
    rows = sweep_summary(report)
    assert len(rows) == 5
    assert all(row.startswith("L40N4,mr,") for row in rows[1:])


# -------------------------------------------------------------------- outputs

def test_diagnostics_schema(mini_report):
    diag = diagnostics(mini_report)
    assert diag["schema"] == 2
    assert diag["failures"] == 0
    assert diag["config"]["seed"] == 7
    assert len(diag["cells"]) == len(mini_report.records)
    assert len(diag["baselines"]) == 2
    for cell in diag["cells"]:
        assert cell["error"] is None
        assert len(cell["per_ue_se"]) == 4
        assert len(cell["objective_trace"]) >= 1
    for base in diag["baselines"]:
        assert len(base["olsfd"]["per_ue_se"]) == 4
        assert base["plsfd"]["ee"] > 0
    json.dumps(diag)


def test_write_outputs(tmp_path, mini_report):
    write_outputs(mini_report, tmp_path / "out")
    csv_bytes = (tmp_path / "out" / "summary.csv").read_bytes()
    assert b"\r" not in csv_bytes
    assert csv_bytes.endswith(b"\n")
    lines = csv_bytes.decode().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    with open(tmp_path / "out" / "diagnostics.json") as fh:
        diag = json.load(fh)
    assert diag["schema"] == 2


# ------------------------------------------------------------------------ CLI

MINI_CFG_TEXT = """
# quick run
seed = 7
n_drops = 1
n_blocks = 100
combiner = mr
lambda_grid = 1e-4, 1e-1
gamma_grid = 1e-2
record_timing = false
"""


def test_cli_run_writes_outputs(tmp_path):
    cfg_path = tmp_path / "mini.cfg"
    cfg_path.write_text(MINI_CFG_TEXT)
    out = tmp_path / "results"
    code = main([
        "run", "--config", str(cfg_path), "--desk-scale", "--out", str(out),
    ])
    assert code == 0
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3


def test_cli_stdout_and_seed_override(tmp_path, capsys):
    cfg_path = tmp_path / "mini.cfg"
    cfg_path.write_text(MINI_CFG_TEXT)
    code = main([
        "run", "--config", str(cfg_path), "--desk-scale", "--seed", "12",
    ])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3


def test_cli_config_error_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("network.bandwidth = 10\n")
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2
    capsys.readouterr()


def run_cli_with_gain(tmp_path, gain_offset_db):
    cfg_path = tmp_path / "fail.cfg"
    cfg_path.write_text(MINI_CFG_TEXT + f"network.gain_offset_db = {gain_offset_db}\n")
    out = tmp_path / "results"
    code = main([
        "run", "--config", str(cfg_path), "--desk-scale", "--out", str(out),
    ])
    return code, out


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_cli_solver_failure_exit_3(tmp_path, capsys):
    # absurd gain scale overflows the group solves: every cell is recorded
    # as a failure
    code, out = run_cli_with_gain(tmp_path, 1500)
    assert code == 3
    assert "failed" in capsys.readouterr().err
    with open(out / "diagnostics.json") as fh:
        diag = json.load(fh)
    assert diag["failures"] == len(diag["cells"]) > 0
    assert all("FloatingPointError" in cell["error"] for cell in diag["cells"])


def test_cli_failed_cells_write_strict_json(tmp_path, capsys):
    code, out = run_cli_with_gain(tmp_path, 1500)
    assert code == 3
    capsys.readouterr()
    with open(out / "diagnostics.json") as fh:
        diag = json.load(fh, parse_constant=reject_constant)
    assert all(cell["avg_se_bps_hz"] is None for cell in diag["cells"])


def test_cli_bad_drop_exit_3(tmp_path, capsys):
    # statistics overflow to inf: the drop's baselines and cells are
    # recorded as failed and the outputs are still written
    code, out = run_cli_with_gain(tmp_path, 2000)
    assert code == 3
    assert "failed" in capsys.readouterr().err
    assert (out / "summary.csv").read_text().startswith(CSV_HEADER)
    with open(out / "diagnostics.json") as fh:
        diag = json.load(fh, parse_constant=reject_constant)
    assert diag["failures"] == len(diag["cells"]) > 0
    assert all(base["error"] for base in diag["baselines"])
    assert all(base["error"] == cell["error"]
               for base in diag["baselines"] for cell in diag["cells"])
