"""Golden outputs: every CLI command's report, byte for byte.

Each case runs ``dosesens.cli.main(argv)`` in-process on the fixture files in
``tests/golden/`` and compares stdout, stderr and the exit status with the
files under ``tests/golden/expected/``.  A change that alters a report on
purpose regenerates them with

    PYTHONPATH=src python tests/test_golden.py --regenerate

and names every changed field in CHANGES.md.  ``--fixtures`` rewrites the
fixture CSVs from their seed first (only needed if the fixtures change).

    PYTHONPATH=src python tests/test_golden.py --compare

reruns every case and prints, for each output that differs, every changed
JSON field with its old and new value and their relative difference; it
writes nothing, and exits with status 1 when any output differs, so a script
can gate on it.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from dosesens.cli import main

GOLDEN = Path(__file__).parent / "golden"
EXPECTED = GOLDEN / "expected"


def _f(name):
    return str(GOLDEN / name)


_SCORES = {
    "mcnemar": "mcnemar",
    "wilcoxon": "wilcoxon",
    "dose-weighted": "dose-weighted",
    "double-rank": "double-rank",
    "expr": "sqrt(r_z * r_y) + r_y",
}
_ROUTES = {
    "exact": ("--method", "exact"),
    "mc": ("--method", "mc", "--seed", "11", "--reps", "20000"),
    "normal": ("--method", "normal"),
}
_DGP = ("--dgp", "paired-normal", "--param", "effect=0.5", "--draws", "10000", "--seed", "2")
_POWER = (
    "power-sim", "--dgp", "paired-normal", "--param", "effect=0.5", "--n-pairs", "30",
    "--reps", "200", "--gamma-bar-grid", "1.0,1.5", "--seed", "3",
)

CASES = {
    **{
        f"analyze-{score}-{route}": (
            "analyze", _f("pairs_x2.csv"), "--gamma-bar", "1.3", "--test", test, *flags,
        )
        for score, test in _SCORES.items()
        for route, flags in _ROUTES.items()
    },
    "analyze-auto-gamma-normalized": (
        "analyze", _f("pairs_x1.csv"), "--gamma", "0.4", "--test", "double-rank",
        "--normalize-ranks",
    ),
    "ci-bisect": ("ci", _f("pairs_x2.csv"), "--gamma-bar", "1.2"),
    "ci-beta-grid": (
        "ci", _f("pairs_x2.csv"), "--gamma-bar", "1.2", "--beta-grid=-1:4:0.5",
    ),
    "ci-effect-modification": (
        "ci", _f("pairs_x2.csv"), "--gamma", "0.3", "--model", "effect-modification",
        "--modifier-index", "1", "--beta-grid-file", _f("grid_effect_modification.json"),
    ),
    "ci-kink": (
        "ci", _f("pairs_x2.csv"), "--gamma-bar", "1.1", "--model", "kink",
        "--beta-grid-file", _f("grid_kink.json"),
    ),
    "weak-null-lambda0": ("weak-null", _f("pairs_x1.csv"), "--gamma-bar", "1.2", "--lambda0", "0.5"),
    "weak-null-lambda0-expectation": (
        "weak-null", _f("pairs_x1.csv"), "--gamma-bar", "1.2", "--lambda0", "0.5",
        "--objective", "expectation",
    ),
    "weak-null-ci": ("weak-null", _f("pairs_x1.csv"), "--gamma-bar", "1.2", "--ci", "--grid=-4:6:2"),
    # 14 pairs: NumPy sums 8 or more elements pairwise, so these pin the
    # summation order of the node solves; both stop "bounded" at the limit
    **{
        f"weak-null-x2-bounded-{objective}": (
            "weak-null", _f("pairs_x2.csv"), "--gamma-bar", "1.5", "--lambda0", "0.5",
            "--node-limit", "300", "--objective", objective,
        )
        for objective in ("expectation", "printed")
    },
    "design-sens": ("design-sens", *_DGP),
    "design-sens-double-rank": ("design-sens", *_DGP, "--phi", "double-rank"),
    "bahadur": ("bahadur", *_DGP, "--gamma-bar", "1.2"),
    # McNemar reads neither rank of the population draw
    "design-sens-constant-gap-mcnemar": (
        "design-sens", "--dgp", "constant-gap", "--param", "effect=0.5",
        "--param", "gap=1.0", "--phi", "mcnemar", "--draws", "10000", "--seed", "2",
    ),
    "bahadur-fixed-concordance-mcnemar": (
        "bahadur", "--dgp", "fixed-concordance", "--param", "theta=0.7",
        "--phi", "mcnemar", "--draws", "10000", "--gamma-bar", "1.2", "--seed", "2",
    ),
    "power-sim-workers-1": (*_POWER, "--workers", "1"),
    "power-sim-workers-2": (*_POWER, "--workers", "2"),
    "power-sim-monte-carlo": (
        *_POWER, "--method", "monte-carlo", "--mc-reps", "1000", "--test", "double-rank",
    ),
    # Larger fixtures: midrank halves (Wilcoxon) and quarters (double-rank) on
    # the exact route, and a Monte Carlo tail that spans two chunks.
    "analyze-wilcoxon-exact-250": (
        "analyze", _f("pairs_250.csv"), "--gamma-bar", "1.5", "--method", "exact",
    ),
    "analyze-double-rank-exact-60": (
        "analyze", _f("pairs_60.csv"), "--gamma-bar", "1.3", "--test", "double-rank",
        "--method", "exact",
    ),
    "ci-exact-80": ("ci", _f("pairs_80.csv"), "--gamma-bar", "1.25", "--method", "exact"),
    "analyze-monte-carlo-100k": (
        "analyze", _f("pairs_60.csv"), "--gamma-bar", "5", "--method", "monte-carlo",
        "--seed", "5", "--reps", "100000",
    ),
    "error-ties-strict": (
        "analyze", _f("pairs_x2.csv"), "--gamma-bar", "1.3", "--ties", "strict",
    ),
    **{
        f"error-{name}": ("analyze", _f(f"bad_{name}.csv"), "--gamma-bar", "1.0")
        for name in (
            "nan_y", "inf_z", "tied_doses", "duplicate_unit", "three_rows",
            "non_numeric_x", "missing_column", "first_fault_wins",
        )
    },
}


def run_case(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(list(argv))
    return status, out.getvalue().encode(), err.getvalue().encode()


@pytest.fixture(scope="module")
def statuses():
    return json.loads((EXPECTED / "exit_status.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_is_byte_identical(name, statuses):
    status, out, err = run_case(CASES[name])
    assert status == statuses[name]
    assert out == (EXPECTED / f"{name}.stdout").read_bytes()
    assert err == (EXPECTED / f"{name}.stderr").read_bytes()


# ------------------------------------------------------------ regeneration --


def _write_pairs(path, rng, n, n_cov):
    """Two rows per pair, doses and outcomes on a 0.1 grid so ranks tie."""
    header = ["pair_id", "unit_id", "z", "y"] + [f"x_{k + 1}" for k in range(n_cov)]
    lines = [",".join(header)]
    for i in range(n):
        z = np.round(rng.uniform(0.5, 3.0, 2), 1)
        while z[0] == z[1]:
            z = np.round(rng.uniform(0.5, 3.0, 2), 1)
        y = np.round(0.8 * z + rng.normal(0.0, 1.0, 2), 1)
        x = np.round(rng.normal(0.0, 1.0, (2, n_cov)), 2)
        for u in range(2):
            row = [f"p{i + 1}", f"u{2 * i + u + 1}", repr(float(z[u])), repr(float(y[u]))]
            lines.append(",".join(row + [repr(float(v)) for v in x[u]]))
    path.write_text("\n".join(lines) + "\n")


_BAD = {
    "nan_y": "pair_id,unit_id,z,y\n1,a,1.0,2.0\n1,b,2.0,nan\n",
    "inf_z": "pair_id,unit_id,z,y\n1,a,1.0,2.0\n1,b,2.0,3.0\n2,c,inf,1.0\n2,d,1.0,0.5\n",
    "tied_doses": "pair_id,unit_id,z,y\n1,a,1.0,2.0\n1,b,2.0,3.0\n2,c,1.5,1.0\n2,d,1.5,0.5\n",
    "duplicate_unit": "pair_id,unit_id,z,y\n1,a,1.0,2.0\n1,a,2.0,3.0\n",
    "three_rows": "pair_id,unit_id,z,y\n1,a,1.0,2.0\n1,b,2.0,3.0\n1,c,3.0,4.0\n",
    "non_numeric_x": "pair_id,unit_id,z,y,x_1\n1,a,1.0,2.0,0.5\n1,b,2.0,3.0,high\n",
    "missing_column": "pair_id,unit_id,y\n1,a,2.0\n1,b,3.0\n",
    # pair 2's own fault is reported before pair 3's and pair 4's
    "first_fault_wins": (
        "pair_id,unit_id,z,y\n1,a,1.0,2.0\n1,b,2.0,3.0\n2,c,1.0,-inf\n2,d,2.0,3.0\n"
        "3,e,1.0,1.0\n3,e,2.0,1.0\n4,f,1.0,1.0\n4,g,2.0,1.0\n4,h,3.0,1.0\n"
    ),
}


def write_fixtures():
    rng = np.random.default_rng(20240314)
    _write_pairs(GOLDEN / "pairs_x1.csv", rng, 6, 1)
    _write_pairs(GOLDEN / "pairs_x2.csv", rng, 14, 2)
    for n in (60, 80, 250):
        _write_pairs(GOLDEN / f"pairs_{n}.csv", rng, n, 0)
    (GOLDEN / "grid_effect_modification.json").write_text(
        json.dumps([[b0, b1] for b0 in (-2.0, 1.0, 4.0) for b1 in (-2.0, 0.0, 2.0)]) + "\n"
    )
    (GOLDEN / "grid_kink.json").write_text(
        json.dumps([[0.5, b2, 1.0] for b2 in (0.0, 0.5, 1.0, 1.5)]) + "\n"
    )
    for name, text in _BAD.items():
        (GOLDEN / f"bad_{name}.csv").write_text(text)


def regenerate():
    EXPECTED.mkdir(parents=True, exist_ok=True)
    statuses = {}
    for name, argv in sorted(CASES.items()):
        statuses[name], out, err = run_case(argv)
        (EXPECTED / f"{name}.stdout").write_bytes(out)
        (EXPECTED / f"{name}.stderr").write_bytes(err)
    (EXPECTED / "exit_status.json").write_text(json.dumps(statuses, indent=1, sort_keys=True) + "\n")


class _Absent:
    def __repr__(self):
        return "<absent>"


_ABSENT = _Absent()


def _field_diffs(old, new, path=""):
    """(path, old, new, relative difference or None) for each changed leaf;
    a field only one side has shows as <absent> on the other."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            yield from _field_diffs(
                old.get(key, _ABSENT), new.get(key, _ABSENT), f"{path}.{key}"
            )
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _field_diffs(a, b, f"{path}[{i}]")
    elif old != new or type(old) is not type(new):
        numbers = all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new)
        )
        rel = abs(new - old) / max(abs(old), abs(new)) if numbers and old != new else None
        yield path or ".", old, new, rel


def compare() -> int:
    """Print every field that a rerun changes against the goldens; returns
    the number of outputs that differ."""
    statuses = json.loads((EXPECTED / "exit_status.json").read_text())
    differing = 0
    for name, argv in sorted(CASES.items()):
        status, out, err = run_case(argv)
        if status != statuses[name]:
            differing += 1
            print(f"{name}: exit status {statuses[name]} -> {status}")
        for stream, new in (("stdout", out), ("stderr", err)):
            old = (EXPECTED / f"{name}.{stream}").read_bytes()
            if new == old:
                continue
            differing += 1
            print(f"{name}.{stream}:")
            try:
                diffs = _field_diffs(json.loads(old), json.loads(new))
                for path, a, b, rel in diffs:
                    shown = "" if rel is None else f"  rel {rel:.3g}"
                    print(f"  {path}: {a!r} -> {b!r}{shown}")
            except json.JSONDecodeError:
                print("  not JSON; the bytes differ")
    print(f"{differing} of {3 * len(CASES)} outputs differ")
    return differing


def main_status(argv) -> int:
    differing = compare() if "--compare" in argv else 0
    if "--fixtures" in argv:
        write_fixtures()
    if "--regenerate" in argv:
        regenerate()
    return 1 if differing else 0


def test_compare_exit_status_gates_on_any_difference(tmp_path, monkeypatch, capsys):
    name = "error-nan_y"
    for suffix in ("stdout", "stderr"):
        (tmp_path / f"{name}.{suffix}").write_bytes((EXPECTED / f"{name}.{suffix}").read_bytes())
    monkeypatch.setattr(sys.modules[__name__], "CASES", {name: CASES[name]})
    monkeypatch.setattr(sys.modules[__name__], "EXPECTED", tmp_path)
    (tmp_path / "exit_status.json").write_text(json.dumps({name: 3}))
    assert main_status(["--compare"]) == 0
    (tmp_path / f"{name}.stderr").write_bytes(b"{}\n")
    assert main_status(["--compare"]) == 1
    assert "1 of 3 outputs differ" in capsys.readouterr().out


if __name__ == "__main__":
    sys.exit(main_status(sys.argv))
