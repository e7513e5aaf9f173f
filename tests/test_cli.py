"""End-to-end command-line runs: reports, error codes, reproducibility."""

import json
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from dosesens.cli import main
from dosesens.dgps import DgpSpec
from dosesens.pairs import sample_from_arrays, write_csv


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


PAIRS_60 = str(Path(__file__).parent / "golden" / "pairs_60.csv")


def test_huge_phi_exponent_is_a_config_error_before_evaluation():
    # evaluating 9 ** 9 ** 9 would not finish; the timeout fails the test
    proc = subprocess.run(
        [sys.executable, "-m", "dosesens.cli", "analyze", PAIRS_60, "--gamma-bar", "1.5",
         "--method", "exact", "--test", "r_y ** (9**9**9)"],
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 2
    error = json.loads(proc.stderr)["error"]
    assert error["code"] == "config-error"
    assert "exponents" in error["message"]


@pytest.mark.parametrize(
    "expr",
    [
        "(-8)**0.5 + r_y",  # complex: its real part would be the score
        "exp(99999999999999999999999) * r_y",  # an int NumPy cannot hold
    ],
    ids=["complex", "huge-int"],
)
def test_phi_expressions_numpy_rejects_are_config_errors(expr):
    proc = run_cli("analyze", PAIRS_60, "--gamma-bar", "1.5", "--method", "normal",
                   f"--test={expr}")
    assert proc.returncode == 2
    (line,) = proc.stderr.splitlines()
    error = json.loads(line)["error"]
    assert error["code"] == "config-error"
    assert "phi expression cannot be evaluated" in error["message"]


@pytest.mark.parametrize("expr", ["sqrt(r_y - 100)", "log(r_y - r_y)"])
def test_phi_expressions_with_nan_or_infinite_scores_print_one_line(expr):
    # NumPy's "invalid value" and "divide by zero" warnings used to come
    # first on stderr
    proc = run_cli("analyze", PAIRS_60, "--gamma-bar", "1.5", "--method", "normal",
                   f"--test={expr}")
    assert proc.returncode == 3
    (line,) = proc.stderr.splitlines()
    error = json.loads(line)["error"]
    assert error["code"] == "data-error"
    assert error["message"] == "scores must be finite"


def test_node_limit_above_the_cap_is_a_config_error():
    # 10**20 nodes used to be accepted, and the solve ran for minutes
    proc = subprocess.run(
        [sys.executable, "-m", "dosesens.cli", "weak-null", PAIRS_60, "--gamma-bar", "1.5",
         "--lambda0", "0.5", "--node-limit", "99999999999999999999"],
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 2
    (line,) = proc.stderr.splitlines()
    error = json.loads(line)["error"]
    assert error["code"] == "config-error"
    assert "1000000" in error["message"]


def test_exact_support_past_the_cap_fails_fast(tmp_path):
    # 1,500 Wilcoxon pairs with outcomes on a 0.1 grid: midrank halves span
    # a lattice over the cap, and the merge loop took minutes to reach it
    rng = np.random.default_rng(4)
    z = rng.uniform(0.5, 3.0, (1500, 2))
    y = np.round(0.8 * z + rng.normal(0.0, 1.0, z.shape), 1)
    path = tmp_path / "pairs.csv"
    write_csv(sample_from_arrays(z[:, 0], z[:, 1], y[:, 0], y[:, 1]), path)
    proc = subprocess.run(
        [sys.executable, "-m", "dosesens.cli", "analyze", str(path), "--gamma-bar", "1.5",
         "--method", "exact"],
        capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == 3
    (line,) = proc.stderr.splitlines()
    error = json.loads(line)["error"]
    assert error["code"] == "data-error"
    assert "exact tail support exceeds" in error["message"]


@pytest.mark.parametrize("expr", ["r_y ** 2", "sqrt(r_z * r_y)"])
def test_bounded_phi_expressions_still_run(expr, schema):
    proc = run_cli("analyze", PAIRS_60, "--gamma-bar", "1.5", "--method", "normal",
                   "--test", expr)
    assert check(proc, schema)["report"]["score_kind"] == "general"


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


@pytest.mark.parametrize("command", ["design-sens", "bahadur"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_draws_above_the_cap_are_a_config_error(command, source, tmp_path, capsys, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("the draw was attempted")

    monkeypatch.setattr(DgpSpec, "draw", no_draw)
    argv = [command, "--dgp", "paired-normal", "--seed", "4"]
    if command == "bahadur":
        argv += ["--gamma-bar", "1.1"]
    if source == "flag":
        argv += ["--draws", "20000001"]
    else:
        path = tmp_path / "conf.json"
        path.write_text(json.dumps({"draws": 20_000_001}))
        argv += ["--config", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["code"] == "config-error"
    assert "mc_draws must be at most 20000000" in error["message"]
    DgpSpec(mc_draws=20_000_000)  # the cap itself is allowed


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


def test_cli_import_leaves_scipy_unloaded():
    assert _loaded_by_cli_import("scipy") == "False"


def test_cli_import_leaves_the_process_pool_unloaded():
    # only power-sim and the slope estimate with --workers > 1 open a pool
    assert _loaded_by_cli_import("concurrent.futures.process") == "False"


def test_small_power_sim_with_two_workers_opens_no_pool():
    # below the break-even work a pool costs more than it saves
    code = (
        "import sys; from dosesens.cli import main; "
        "rc = main(['power-sim', '--n-pairs', '30', '--reps', '200', '--gamma-bar-grid', "
        "'1.0,1.5', '--seed', '4', '--workers', '2']); "
        "print(rc, 'concurrent.futures.process' in sys.modules, file=sys.stderr)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.stderr.splitlines()[-1] == "0 False", proc.stderr


_HEADS = {
    "--gamma-bar-grid": ["power-sim", "--n-pairs", "30", "--reps", "200", "--seed", "1"],
    "--beta-grid": ["ci", "tests/golden/pairs_60.csv", "--gamma-bar", "1.5"],
    "--grid": ["weak-null", "tests/golden/pairs_x1.csv", "--gamma-bar", "1.5", "--ci"],
}


@pytest.mark.parametrize("flag", sorted(_HEADS))
@pytest.mark.parametrize(
    "grid,message",
    [
        ("0:inf:1", "finite"),
        ("0:nan:1", "finite"),
        ("nan:1:0.5", "finite"),
        ("0:1:nan", "finite"),
        ("0:1e12:1", "more than 100000 points"),
        ("-1e308:1e308:1e-300", "more than 100000 points"),
    ],
)
def test_non_finite_or_huge_grids_are_config_errors(flag, grid, message, capsys):
    # each is rejected before any grid point is made
    root = Path(__file__).parent.parent
    head = [str(root / a) if a.endswith(".csv") else a for a in _HEADS[flag]]
    assert main([*head, f"{flag}={grid}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["code"] == "config-error"
    assert message in error["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "tests/golden/pairs_60.csv", "--method", "exact", "--gamma-bar", "nan"),
        ("weak-null", "tests/golden/pairs_x1.csv", "--gamma-bar", "nan", "--lambda0", "0.5"),
        ("power-sim", "--gamma-bar-grid", "nan,1.5", "--n-pairs", "30", "--reps", "200",
         "--seed", "1"),
        ("bahadur", "--draws", "10000", "--gamma-bar", "nan", "--seed", "2"),
    ],
    ids=lambda argv: argv[0],
)
def test_nan_mean_bound_is_a_config_error(argv, capsys):
    # NaN fails every comparison, so a "< 1" check once let it through to a
    # bisection that drifted to gamma = 0
    root = Path(__file__).parent.parent
    argv = [str(root / a) if a.endswith(".csv") else a for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error == {"code": "config-error", "message": "gamma_bar must be >= 1"}
