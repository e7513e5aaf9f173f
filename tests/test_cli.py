"""End-to-end command-line runs: reports, error codes, reproducibility."""

import json
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from dosesens.cli import main
from dosesens.pairs import write_csv


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "dosesens.cli", *args],
        capture_output=True,
        text=True,
    )


@pytest.fixture(scope="module")
def schema():
    text = resources.files("dosesens").joinpath("schema/report.schema.json").read_text()
    return json.loads(text)


@pytest.fixture
def pairs_csv(tmp_path, three_pairs):
    path = tmp_path / "pairs.csv"
    write_csv(three_pairs, path)
    return str(path)


def check(proc, schema):
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    jsonschema.validate(payload, schema)
    return payload


def test_analyze_fixture_pvalue(pairs_csv, schema):
    proc = run_cli("analyze", pairs_csv, "--gamma-bar", "1.0", "--method", "exact")
    payload = check(proc, schema)
    assert payload["command"] == "analyze"
    assert payload["report"]["p_greater"] == 0.125
    assert payload["report"]["t_obs"] == 6.0
    assert len(payload["report"]["schedule"]["per_pair"]) == 3


def test_analyze_dose_weighted_alias(pairs_csv, schema):
    proc = run_cli("analyze", pairs_csv, "--gamma-bar", "1.0", "--test", "dose-weighted")
    payload = check(proc, schema)
    assert payload["report"]["score_kind"] == "dose-weighted-abs"


def test_analyze_expression_test(pairs_csv, schema):
    proc = run_cli(
        "analyze", pairs_csv, "--gamma-bar", "1.0", "--test", "r_z * r_y",
        "--method", "exact",
    )
    payload = check(proc, schema)
    assert payload["report"]["score_kind"] == "general"


def test_exactly_one_bias_parameter(pairs_csv):
    proc = run_cli("analyze", pairs_csv)
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert err["error"]["code"] == "config-error"
    assert "exactly one bias parameter" in err["error"]["message"]

    proc = run_cli("analyze", pairs_csv, "--gamma-bar", "1.2", "--gamma", "0.3")
    assert proc.returncode == 2


def test_missing_file_is_data_error():
    proc = run_cli("analyze", "does-not-exist.csv", "--gamma-bar", "1.0")
    assert proc.returncode == 3
    assert json.loads(proc.stderr)["error"]["code"] == "data-error"


def test_config_file_merging(pairs_csv, tmp_path, schema):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"gamma_bar": 2.0, "test": "double-rank"}))
    payload = check(run_cli("analyze", pairs_csv, "--config", str(config)), schema)
    assert payload["report"]["gamma_bar"] == pytest.approx(2.0, rel=1e-9)
    assert payload["report"]["score_kind"] == "double-rank"

    # explicit flags beat the config file
    proc = run_cli(
        "analyze", pairs_csv, "--config", str(config), "--test", "wilcoxon"
    )
    assert check(proc, schema)["report"]["score_kind"] == "wilcoxon"

    config.write_text(json.dumps({"no_such_option": 1}))
    proc = run_cli("analyze", pairs_csv, "--config", str(config), "--gamma-bar", "1")
    assert proc.returncode == 2
    assert "no_such_option" in json.loads(proc.stderr)["error"]["message"]


@pytest.mark.parametrize(
    "command,config",
    [
        ("ci", {"alpha": "oops"}),
        ("analyze", {"reps": "many"}),
        ("power-sim", {"workers": "two"}),
        ("analyze", {"method": "bogus"}),
    ],
)
def test_bad_config_values_are_config_errors(pairs_csv, tmp_path, capsys, command, config):
    # each value goes through its flag's converter and choices
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(config))
    head = ["power-sim", "--seed", "1"] if command == "power-sim" else [
        command, pairs_csv, "--gamma-bar", "1.5"]
    assert main([*head, "--config", str(path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["code"] == "config-error"
    assert next(iter(config)) in error["message"]


def test_config_values_convert_like_flags(pairs_csv, tmp_path, schema):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"gamma_bar": "1.5", "method": "normal", "reps": 5000}))
    from_config = check(run_cli("analyze", pairs_csv, "--config", str(config)), schema)
    from_flags = check(
        run_cli("analyze", pairs_csv, "--gamma-bar", "1.5", "--method", "normal"), schema
    )
    assert from_config == from_flags


def test_ci_command(pairs_csv, schema):
    proc = run_cli(
        "ci", pairs_csv, "--gamma-bar", "1.0", "--beta-grid", "0:2:1",
        "--method", "exact",
    )
    payload = check(proc, schema)
    assert payload["report"]["model"] == "constant"
    assert len(payload["report"]["accepted"]) == 3


def test_malformed_grid_is_a_config_error(pairs_csv):
    proc = run_cli(
        "ci", pairs_csv, "--gamma-bar", "1.0", "--beta-grid", "0::5",
        "--method", "normal",
    )
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["error"]["code"] == "config-error"


def test_design_sens_requires_seed():
    proc = run_cli("design-sens", "--dgp", "paired-normal")
    assert proc.returncode == 2
    assert "--seed" in json.loads(proc.stderr)["error"]["message"]


def test_design_sens_runs(schema):
    proc = run_cli(
        "design-sens", "--dgp", "paired-normal", "--param", "effect=0.6",
        "--draws", "20000", "--seed", "4",
    )
    payload = check(proc, schema)
    assert payload["report"]["gamma_bar_star"] > 1.0
    assert payload["seed"] == 4


def test_bahadur_runs(schema):
    proc = run_cli(
        "bahadur", "--dgp", "paired-normal", "--param", "effect=0.6",
        "--draws", "20000", "--gamma-bar", "1.1", "--seed", "4",
    )
    payload = check(proc, schema)
    assert payload["report"]["slope"] > 0.0


def test_weak_null_point_and_ci(pairs_csv, schema):
    proc = run_cli("weak-null", pairs_csv, "--gamma-bar", "1.5", "--lambda0", "1.0")
    payload = check(proc, schema)
    report = payload["report"]
    assert report["status"] == "optimal"
    assert len(report["w"]) == 3
    assert report["objective"] == "printed"

    proc = run_cli(
        "weak-null", pairs_csv, "--gamma-bar", "1.5", "--ci", "--grid", "0:3:0.5"
    )
    payload = check(proc, schema)
    assert payload["report"]["objective"] == "expectation"
    assert len(payload["report"]["lambda_grid"]) == 7

    proc = run_cli(
        "weak-null", pairs_csv, "--gamma-bar", "1.5",
        "--lambda0", "1.0", "--ci", "--grid", "0:3:1",
    )
    assert proc.returncode == 2

    proc = run_cli("weak-null", pairs_csv, "--gamma-bar", "1.5")
    assert proc.returncode == 2


def test_power_sim_outputs(tmp_path, schema):
    out = tmp_path / "power.json"
    csv_out = tmp_path / "power.csv"
    proc = run_cli(
        "power-sim", "--dgp", "paired-normal", "--param", "effect=0.7",
        "--n-pairs", "60", "--gamma-bar-grid", "1.0,1.5", "--reps", "200",
        "--seed", "6", "--output", str(out), "--csv-out", str(csv_out),
    )
    assert proc.returncode == 0, proc.stderr
    assert "power" in proc.stdout  # summary line, not the report
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, schema)
    assert len(payload["report"]["estimates"]) == 2
    assert csv_out.read_text().startswith("gamma_bar")
    # the population score and draw count are not options of power-sim
    assert set(payload["report"]["dgp"]) == {"sampler", "params", "link", "seed"}
    for flag in (["--phi", "mcnemar"], ["--draws", "20000"]):
        assert run_cli("power-sim", "--seed", "6", *flag).returncode == 2


def test_reports_are_byte_identical_across_reruns(tmp_path):
    args = (
        "power-sim", "--dgp", "paired-normal", "--param", "effect=0.5",
        "--n-pairs", "40", "--gamma-bar-grid", "1.0:2.0:0.5", "--reps", "200",
        "--seed", "12",
    )
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout

    third = run_cli(*args, "--workers", "2")
    assert third.stdout == first.stdout


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert "dosesens" in proc.stdout


def _loaded_by_cli_import(module):
    code = f"import sys, dosesens.cli; print({module!r} in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_leaves_scipy_stats_unloaded():
    assert _loaded_by_cli_import("scipy.stats") == "False"


def test_cli_import_leaves_scipy_optimize_unloaded():
    assert _loaded_by_cli_import("scipy.optimize") == "False"
