"""Command-line interface for dose-matched sensitivity analysis.

Subcommands
-----------
analyze      worst-case p-values for a matched CSV at a chosen bias level
ci           confidence region for a sharp effect model by test inversion
design-sens  limiting bias a test can discriminate under a population model
bahadur      Bahadur efficiency slope of the worst-case test at a bias level
weak-null    worst-case z-statistic for the average-slope null / its CI
power-sim    rejection rates of the worst-case test across bias levels

Every option may also be supplied through ``--config FILE`` (a flat JSON
object keyed by option name with dashes replaced by underscores); explicit
flags win over the config file, which wins over built-in defaults.  Reports
are JSON with sorted keys so identical inputs give byte-identical output.
With ``--output`` the full report goes to the file and a one-line summary to
stdout; otherwise the report itself is printed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .asymptotics import bahadur_slope, design_sensitivity
from .dgps import DgpSpec
from .errors import ConfigError, DataError, DoseSensError
from .gammas import build_schedule
from .pairs import DoseLink, read_csv
from .scores import KINDS, ScoreSpec, parse_phi_expression, score
from .sharp import confidence_region, worst_case_pvalue
from .simulate import json_text, power_curve, write_json, write_power_csv
from .weaknull import SolverConfig, WeakNullProblem, weak_null_ci, worst_case_zscore

# CLI spelling of the dose-weighted score; the library name is explicit
# about taking absolute dose gaps.
_TEST_ALIASES = {"dose-weighted": "dose-weighted-abs"}


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path} is not valid JSON: {err}") from err


def _score_spec(args) -> ScoreSpec:
    name = _TEST_ALIASES.get(args.test, args.test)
    ties = args.ties
    normalize = bool(args.normalize_ranks)
    if name in KINDS and name != "general":
        return ScoreSpec(kind=name, ties=ties, normalize_ranks=normalize)
    # Anything else is read as a rank-score expression over r_z and r_y.
    try:
        phi = parse_phi_expression(args.test)
    except ConfigError as err:
        raise ConfigError(
            f"--test must be one of {', '.join(sorted(set(KINDS) - {'general'}))}, "
            f"dose-weighted, or a score expression in r_z and r_y ({err})"
        ) from err
    return ScoreSpec(kind="general", phi=phi, ties=ties, normalize_ranks=normalize)


def _dose_link(spec: str) -> DoseLink:
    if spec in ("identity", "log"):
        return DoseLink(kind=spec)
    rows = _load_json(spec)
    if not isinstance(rows, list):
        raise ConfigError(f"link table {spec} must be a JSON array of [dose, value] pairs")
    try:
        table = tuple((float(r[0]), float(r[1])) for r in rows)
    except (TypeError, ValueError, IndexError) as err:
        raise ConfigError(f"link table {spec} must hold [dose, value] pairs") from err
    return DoseLink(kind="table", table=table)


GRID_MAX_POINTS = 100_000


def _parse_grid(text: str):
    """Parse ``lo:hi:step`` or a comma-separated list into floats."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid {text!r} must look like lo:hi:step")
        try:
            lo, hi, step = (float(p) for p in parts)
        except ValueError as err:
            raise ConfigError(f"could not parse grid {text!r}: {err}") from err
        if not all(map(math.isfinite, (lo, hi, step))):
            raise ConfigError(f"grid {text!r} needs finite lo, hi and step")
        if step <= 0 or hi < lo:
            raise ConfigError("grid needs step > 0 and hi >= lo")
        span = (hi - lo) / step + 1e-9  # inf when hi - lo overflows
        if not span < GRID_MAX_POINTS:
            raise ConfigError(f"grid {text!r} has more than {GRID_MAX_POINTS} points")
        count = math.floor(span) + 1
        return [lo + k * step for k in range(count)]
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as err:
        raise ConfigError(f"could not parse grid {text!r}: {err}") from err


def _parse_params(items):
    """Parse repeated ``key=value`` DGP parameters; values read as JSON."""
    params = {}
    for item in items or []:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"--param expects key=value, got {item!r}")
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def _bias_kwargs(args) -> dict:
    """Resolve --gamma-bar / --gamma / --gamma-i-file into schedule kwargs."""
    gamma_i = None
    if args.gamma_i_file is not None:
        values = _load_json(args.gamma_i_file)
        if not isinstance(values, list):
            raise ConfigError("--gamma-i-file must hold a JSON array of bounds")
        gamma_i = np.asarray(values, dtype=float)
    supplied = [
        args.gamma_bar is not None,
        args.gamma is not None,
        gamma_i is not None,
    ]
    if sum(supplied) != 1:
        raise ConfigError(
            "exactly one bias parameter: --gamma-bar, --gamma, or --gamma-i-file"
        )
    return {"gamma_bar": args.gamma_bar, "gamma": args.gamma, "gamma_i": gamma_i}


def _schedule(args, sample, link):
    kw = _bias_kwargs(args)
    return build_schedule(sample, link=link, **kw)


def _dgp(args, **population) -> DgpSpec:
    return DgpSpec(
        sampler=args.dgp,
        params=_parse_params(args.param),
        link=_dose_link(args.link),
        seed=args.seed,
        **population,
    )


def _workers(args) -> int:
    if getattr(args, "workers", None) is not None:
        return int(args.workers)
    env = os.environ.get("DOSESENS_WORKERS", "").strip()
    if env:
        try:
            return int(env)
        except ValueError as err:
            raise ConfigError(f"DOSESENS_WORKERS must be an integer, got {env!r}") from err
    return 1


def _wrap(command: str, report: dict, seed=None, reps=None) -> dict:
    return {
        "command": command,
        "version": __version__,
        "seed": None if seed is None else int(seed),
        "reps": None if reps is None else int(reps),
        "report": report,
    }


def _emit(args, payload: dict, summary: str) -> None:
    if args.output:
        write_json(payload, args.output)
        print(summary)
    else:
        sys.stdout.write(json_text(payload))


def _fmt(x) -> str:
    if x is None:
        return "none"
    return f"{x:.6g}"


# ---------------------------------------------------------------------------
# subcommand runners


def _run_analyze(args):
    sample = read_csv(args.csv)
    link = _dose_link(args.link)
    spec = _score_spec(args)
    schedule = _schedule(args, sample, link)
    scored = score(sample, spec)
    report = worst_case_pvalue(
        scored, schedule, method=args.method, reps=args.reps, seed=args.seed
    )
    body = report.to_json_dict()
    body["schedule"] = schedule.to_json_dict()
    payload = _wrap("analyze", body, seed=report.seed, reps=report.mc_reps)
    summary = (
        f"p_greater={_fmt(report.p_one_sided_greater)} "
        f"p_less={_fmt(report.p_one_sided_less)} "
        f"p_two_sided={_fmt(report.p_two_sided)} "
        f"method={report.method} gamma_bar={_fmt(schedule.gamma_bar)}"
    )
    return payload, summary


def _run_ci(args):
    sample = read_csv(args.csv)
    link = _dose_link(args.link)
    spec = _score_spec(args)
    bias = _bias_kwargs(args)
    grid = None
    if args.beta_grid is not None and args.beta_grid_file is not None:
        raise ConfigError("pass --beta-grid or --beta-grid-file, not both")
    if args.beta_grid is not None:
        grid = _parse_grid(args.beta_grid)
    elif args.beta_grid_file is not None:
        rows = _load_json(args.beta_grid_file)
        if not isinstance(rows, list) or not rows:
            raise ConfigError("--beta-grid-file must hold a nonempty JSON array")
        grid = [tuple(r) if isinstance(r, list) else (float(r),) for r in rows]
    region = confidence_region(
        sample,
        spec,
        alpha=args.alpha,
        model_kind=args.model,
        link=link,
        grid=grid,
        modifier_index=args.modifier_index,
        z0=args.z0,
        method=args.method,
        reps=args.reps,
        seed=args.seed,
        **bias,
    )
    payload = _wrap("ci", region.to_json_dict(), seed=args.seed, reps=args.reps)
    if region.interval is not None:
        summary = (
            f"interval=[{_fmt(region.interval[0])}, {_fmt(region.interval[1])}] "
            f"alpha={_fmt(region.alpha)} gamma_bar={_fmt(region.gamma_bar)}"
        )
    elif region.non_contiguous:
        summary = f"accepted region is non-contiguous ({sum(region.accepted)} grid points)"
    else:
        summary = f"accepted {sum(region.accepted)}/{len(region.accepted)} grid points"
    return payload, summary


def _run_design_sens(args):
    dgp = _dgp(args, phi=args.phi, mc_draws=args.draws)
    result = design_sensitivity(dgp, tol=args.tol)
    body = result.to_json_dict()
    body["dgp"] = dgp.to_json_dict()
    payload = _wrap("design-sens", body, seed=args.seed, reps=dgp.mc_draws)
    summary = (
        f"gamma_bar_star={_fmt(result.gamma_bar_star)} "
        f"gamma_star={_fmt(result.gamma_star)}"
        + (" (null case)" if result.null_case else "")
    )
    return payload, summary


def _run_bahadur(args):
    dgp = _dgp(args, phi=args.phi, mc_draws=args.draws)
    result = bahadur_slope(dgp, gamma_bar=args.gamma_bar, tol=args.tol)
    body = result.to_json_dict()
    body["dgp"] = dgp.to_json_dict()
    payload = _wrap("bahadur", body, seed=args.seed, reps=dgp.mc_draws)
    summary = f"slope={_fmt(result.slope)} at gamma_bar={_fmt(args.gamma_bar)}"
    return payload, summary


def _run_weak_null(args):
    sample = read_csv(args.csv)
    link = _dose_link(args.link)
    schedule = _schedule(args, sample, link)
    if (args.lambda0 is None) == (not args.ci):
        raise ConfigError("pass exactly one of --lambda0 or --ci")
    if args.ci:
        if args.grid is None:
            raise ConfigError("--ci needs --grid lo:hi:step for hypothesised slopes")
        objective = args.objective or "expectation"
        config = SolverConfig(objective=objective, node_limit=args.node_limit)
        region = weak_null_ci(
            sample,
            schedule,
            alpha=args.alpha,
            lambda_grid=_parse_grid(args.grid),
            objective=objective,
            config=config,
        )
        payload = _wrap("weak-null", region.to_json_dict())
        if region.interval is not None:
            summary = (
                f"interval=[{_fmt(region.interval[0])}, {_fmt(region.interval[1])}] "
                f"alpha={_fmt(args.alpha)}"
            )
        else:
            summary = f"accepted {sum(region.accepted)}/{len(region.accepted)} grid points"
        return payload, summary
    objective = args.objective or "printed"
    config = SolverConfig(objective=objective, node_limit=args.node_limit)
    problem = WeakNullProblem.from_sample(sample, schedule, args.lambda0)
    solution = worst_case_zscore(problem, config)
    payload = _wrap("weak-null", solution.to_json_dict())
    summary = (
        f"optimum={_fmt(solution.optimum)} bound={_fmt(solution.bound)} "
        f"p_upper={_fmt(solution.p_value_upper)} status={solution.status} "
        f"nodes={solution.node_count}"
    )
    return payload, summary


def _run_power_sim(args):
    dgp = _dgp(args)
    spec = _score_spec(args)
    grid = _parse_grid(args.gamma_bar_grid)
    curve = power_curve(
        dgp,
        args.n_pairs,
        grid,
        spec,
        alpha=args.alpha,
        reps=args.reps,
        seed=args.seed,
        method=args.method,
        mc_reps=args.mc_reps,
        workers=_workers(args),
    )
    if args.csv_out:
        write_power_csv(curve, args.csv_out)
    body = curve.to_json_dict()
    value, reason = curve.crossing(0.5)
    body["crossing_half_power"] = {
        "gamma_bar": None if value is None else float(value),
        "reason": reason,
    }
    payload = _wrap("power-sim", body, seed=args.seed, reps=args.reps)
    powers = " ".join(_fmt(p) for p in curve.powers)
    summary = f"power over gamma_bar grid: {powers}"
    return payload, summary


# ---------------------------------------------------------------------------
# parser assembly


def _add_common(sub):
    sub.add_argument("--config", help="JSON file of option defaults")
    sub.add_argument("--output", help="write the full report here instead of stdout")


_TEST_DEFAULTS = {"test": "wilcoxon", "ties": "midrank", "normalize_ranks": False}


def _add_test_options(sub):
    sub.add_argument(
        "--test",
        help="mcnemar | wilcoxon | dose-weighted | double-rank, or a score "
        "expression in r_z and r_y",
    )
    sub.add_argument("--ties", choices=("midrank", "strict"))
    sub.add_argument(
        "--normalize-ranks",
        action="store_const",
        const=True,
        help="use ranks divided by the pair count",
    )


def _add_bias_options(sub):
    sub.add_argument("--gamma-bar", type=float, help="mean of the per-pair odds bounds")
    sub.add_argument("--gamma", type=float, help="log-odds rate per unit dose gap")
    sub.add_argument("--gamma-i-file", help="JSON array of per-pair odds bounds")


def _add_dgp_options(sub):
    sub.add_argument("--dgp", help="paired-normal | null | fixed-concordance | constant-gap")
    sub.add_argument(
        "--param",
        action="append",
        metavar="KEY=VALUE",
        help="DGP parameter, repeatable",
    )


def _add_population_options(sub):
    sub.add_argument("--phi", help="rank-score name or expression for the test under study")
    sub.add_argument("--draws", type=int, help="population draws for the functionals")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dosesens",
        description="Sensitivity analysis for dose-matched observational pairs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser(
        "analyze", help="worst-case p-values for a matched CSV"
    )
    analyze.add_argument("csv", help="matched pairs CSV (pair_id,z1,z2,y1,y2)")
    _add_test_options(analyze)
    _add_bias_options(analyze)
    analyze.add_argument("--link", help="identity | log | table JSON file")
    analyze.add_argument("--method", choices=("auto", "exact", "normal", "monte-carlo", "mc"))
    analyze.add_argument("--reps", type=int, help="Monte Carlo replicates")
    analyze.add_argument("--seed", type=int, help="Monte Carlo seed")
    _add_common(analyze)
    analyze.set_defaults(
        _run=_run_analyze,
        _needs_seed=False,
        _defaults={
            **_TEST_DEFAULTS,
            "link": "identity",
            "method": "auto",
            "reps": 100_000,
        },
    )

    ci = commands.add_parser("ci", help="confidence region by test inversion")
    ci.add_argument("csv")
    _add_test_options(ci)
    _add_bias_options(ci)
    ci.add_argument("--link")
    ci.add_argument("--model", choices=("constant", "effect-modification", "kink"))
    ci.add_argument("--alpha", type=float)
    ci.add_argument("--beta-grid", help="lo:hi:step or comma list of effect values")
    ci.add_argument("--beta-grid-file", help="JSON array of coefficient tuples")
    ci.add_argument("--modifier-index", type=int, help="covariate column for effect modification")
    ci.add_argument("--z0", type=float, help="kink location on the transformed dose axis")
    ci.add_argument("--method", choices=("auto", "exact", "normal", "monte-carlo", "mc"))
    ci.add_argument("--reps", type=int)
    ci.add_argument("--seed", type=int)
    _add_common(ci)
    ci.set_defaults(
        _run=_run_ci,
        _needs_seed=False,
        _defaults={
            **_TEST_DEFAULTS,
            "link": "identity",
            "model": "constant",
            "alpha": 0.05,
            "method": "auto",
            "reps": 100_000,
        },
    )

    design = commands.add_parser(
        "design-sens", help="limiting discriminable bias under a population model"
    )
    _add_dgp_options(design)
    _add_population_options(design)
    design.add_argument("--link")
    design.add_argument(
        "--tol", type=float, help="root-solve tolerance on the residual, relative to mean phi"
    )
    design.add_argument("--seed", type=int, help="seed for the population draw")
    _add_common(design)
    design.set_defaults(
        _run=_run_design_sens,
        _needs_seed=True,
        _defaults={
            "dgp": "paired-normal",
            "phi": "wilcoxon",
            "link": "identity",
            "draws": 1_000_000,
            "tol": 1e-6,
        },
    )

    bahadur = commands.add_parser(
        "bahadur", help="Bahadur efficiency slope at a bias level"
    )
    _add_dgp_options(bahadur)
    _add_population_options(bahadur)
    bahadur.add_argument("--link")
    bahadur.add_argument("--gamma-bar", type=float, help="mean odds bound under test")
    bahadur.add_argument("--tol", type=float)
    bahadur.add_argument("--seed", type=int)
    _add_common(bahadur)
    bahadur.set_defaults(
        _run=_run_bahadur,
        _needs_seed=True,
        _defaults={
            "dgp": "paired-normal",
            "phi": "wilcoxon",
            "link": "identity",
            "draws": 100_000,
            "gamma_bar": 1.0,
            "tol": 1e-6,
        },
    )

    weak = commands.add_parser(
        "weak-null", help="worst-case z-statistic for the average-slope null"
    )
    weak.add_argument("csv")
    _add_bias_options(weak)
    weak.add_argument("--link")
    weak.add_argument("--lambda0", type=float, help="hypothesised average slope")
    weak.add_argument("--ci", action="store_const", const=True, help="invert over --grid")
    weak.add_argument(
        "--grid",
        help="lo:hi:step grid of hypothesised slopes (write --grid=-1:2:0.1 "
        "when lo is negative)",
    )
    weak.add_argument("--alpha", type=float)
    weak.add_argument("--objective", choices=("printed", "expectation"))
    weak.add_argument("--node-limit", type=int)
    _add_common(weak)
    weak.set_defaults(
        _run=_run_weak_null,
        _needs_seed=False,
        _defaults={
            "link": "identity",
            "ci": False,
            "alpha": 0.05,
            "objective": None,
            "node_limit": 100_000,
        },
    )

    power = commands.add_parser(
        "power-sim", help="rejection rates across bias levels by simulation"
    )
    _add_dgp_options(power)
    _add_test_options(power)
    power.add_argument("--link")
    power.add_argument("--n-pairs", type=int, help="pairs per simulated study")
    power.add_argument("--gamma-bar-grid", help="lo:hi:step or comma list of mean bounds")
    power.add_argument("--alpha", type=float)
    power.add_argument("--reps", type=int, help="simulation replicates")
    power.add_argument("--method", choices=("auto", "exact", "normal", "monte-carlo", "mc"))
    power.add_argument("--mc-reps", type=int, help="tail replicates when method is monte-carlo")
    power.add_argument("--workers", type=int, help="processes (default $DOSESENS_WORKERS or 1)")
    power.add_argument("--seed", type=int)
    power.add_argument("--csv-out", help="also write the curve as CSV")
    _add_common(power)
    power.set_defaults(
        _run=_run_power_sim,
        _needs_seed=True,
        _defaults={
            "dgp": "paired-normal",
            **_TEST_DEFAULTS,
            "link": "identity",
            "n_pairs": 500,
            "gamma_bar_grid": "1.0",
            "alpha": 0.05,
            "reps": 1000,
            "method": "normal",
            "mc_reps": 10_000,
        },
    )

    for sub in commands.choices.values():
        sub.set_defaults(_actions={action.dest: action for action in sub._actions})
    return parser


def _config_value(action, key: str, value):
    """A --config value put through its option's converter and choices, as
    the same text given as a flag would be."""
    if action.nargs == 0:  # on/off flags take the JSON value as it is
        return value
    if isinstance(action, argparse._AppendAction):
        items = value if isinstance(value, list) else [value]
        return [_config_item(action, key, item) for item in items]
    return _config_item(action, key, value)


def _config_item(action, key: str, item):
    if isinstance(item, bool) or not isinstance(item, (str, int, float)):
        raise ConfigError(f"config key {key}: expected one value, got {item!r}")
    convert = action.type or str
    try:
        value = convert(str(item))
    except (TypeError, ValueError) as err:
        raise ConfigError(f"config key {key}: invalid {convert.__name__} value {item!r}") from err
    if action.choices is not None and value not in action.choices:
        raise ConfigError(
            f"config key {key}: {item!r} is not one of {', '.join(action.choices)}"
        )
    return value


def _apply_config(args) -> None:
    """Fill unset options from --config, then from built-in defaults."""
    defaults = dict(args._defaults)
    if args.config:
        cfg = _load_json(args.config)
        if not isinstance(cfg, dict):
            raise ConfigError("--config must hold a JSON object")
        known = set(defaults) | {
            k for k in vars(args) if not k.startswith("_") and k != "config"
        }
        unknown = sorted(set(cfg) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        for key, value in cfg.items():
            if getattr(args, key, None) is None and value is not None:
                if key in args._actions:
                    value = _config_value(args._actions[key], key, value)
                setattr(args, key, value)
    for key, value in defaults.items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
        if args._needs_seed and args.seed is None:
            raise ConfigError(f"--seed is required for {args.command}")
        payload, summary = args._run(args)
        _emit(args, payload, summary)
    except DoseSensError as err:
        report = {"error": {"code": err.code, "message": str(err)}}
        sys.stderr.write(json.dumps(report, sort_keys=True) + "\n")
        return err.exit_status
    except OSError as err:
        report = {"error": {"code": DataError.code, "message": str(err)}}
        sys.stderr.write(json.dumps(report, sort_keys=True) + "\n")
        return DataError.exit_status
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
