"""Judge every operation's output against the references in ``oracles.py``.

Each check takes the recorded operation (argv, meta, captured stdout) and
raises ``Mismatch`` on the first disagreement.  Group checks compare
operations of one round with each other: p-values along a bias ladder,
nested intervals, identical power curves for 1 and 2 workers, and the
Bahadur slope at the design sensitivity computed in the same round.
"""

from __future__ import annotations

import json
import math

import numpy as np

import oracles


class Mismatch(Exception):
    pass


def _expect(ok, message):
    if not ok:
        raise Mismatch(message)


def _close(got, want, rel, what, floor=0.0):
    _expect(
        got is not None and abs(got - want) <= rel * max(abs(want), floor),
        f"{what}: got {got!r}, reference {want!r}",
    )


def _probability(p, what):
    _expect(p is not None and 0.0 <= p <= 1.0, f"{what} = {p!r} is outside [0, 1]")


def _two_sided(upper, lower):
    return min(1.0, 2.0 * min(upper, lower))


def _check_schedule(gamma_i, gaps, gamma_bar):
    """Gamma_i = exp(gamma * gap_i) for one gamma, with mean gamma_bar."""
    _close(float(np.mean(gamma_i)), gamma_bar, 1e-9, "mean of Gamma_i")
    if gamma_bar == 1.0:
        _expect(np.all(gamma_i == 1.0), "Gamma_i differ from 1 at gamma_bar = 1")
        return
    rates = np.log(gamma_i) / gaps
    _expect(np.ptp(rates) <= 1e-9 * np.median(rates),
            "Gamma_i do not follow exp(gamma * gap) for a single gamma")


def _exact_reference(oracle, q, t, gamma_i, p_plus, p_minus):
    if oracle == "binomial":
        _expect(np.all(gamma_i == gamma_i[0]), "binomial oracle needs equal bounds")
        return oracles.binomial_tails(q.size, t, float(gamma_i[0]))
    if oracle == "enumeration":
        _expect(np.all(p_plus == 0.5), "enumeration oracle runs at gamma_bar = 1")
        return oracles.enumerated_tails(q, t)
    return oracles.lattice_tails(q, t, p_plus, p_minus)


# ---------------------------------------------------------------- sharp --


def check_pvalue(rec, payload):
    meta = rec["meta"]
    body = payload["report"]
    ids, z_lo, z_hi, y_lo, y_hi = oracles.read_pairs(meta["csv"])
    q, t = oracles.scored(z_lo, z_hi, y_lo, y_hi, meta["test"])
    _expect(body["n_pairs"] == meta["n"], "n_pairs differs from the fixture")
    _close(body["t_obs"], t, 1e-12, "t_obs", floor=1.0)

    per_pair = body["schedule"]["per_pair"]
    _expect([p["pair_id"] for p in per_pair] == ids, "schedule pair ids differ")
    gaps = z_hi - z_lo
    _expect(np.allclose([p["gap"] for p in per_pair], gaps, rtol=1e-15, atol=0.0),
            "schedule gaps differ from the fixture's dose gaps")
    gamma_i = np.array([p["Gamma_i"] for p in per_pair])
    _check_schedule(gamma_i, gaps, meta["gamma_bar"])
    p_plus = gamma_i / (1.0 + gamma_i)
    p_minus = 1.0 / (1.0 + gamma_i)

    upper, lower = body["p_greater"], body["p_less"]
    for name in ("p_greater", "p_less", "p_two_sided"):
        _probability(body[name], name)
    _close(body["p_two_sided"], _two_sided(upper, lower), 1e-15, "p_two_sided")

    method = body["method"]
    if method == "exact":
        ref = _exact_reference(meta["oracle"], q, t, gamma_i, p_plus, p_minus)
        for got, want, side in zip((upper, lower), ref, ("greater", "less")):
            _expect(abs(got - want) <= 1e-12,
                    f"exact p_{side} {got!r} differs from {meta['oracle']} {want!r}")
    elif method == "monte-carlo":
        ref = oracles.lattice_tails(q, t, p_plus, p_minus)
        reps = body["mc_reps"]
        for got, want, side in zip((upper, lower), ref, ("greater", "less")):
            se = math.sqrt(want * (1.0 - want) / reps)
            _expect(abs(got - want) <= 4.0 * se,
                    f"Monte Carlo p_{side} {got!r} is more than 4 SE ({se:.3g}) "
                    f"from the lattice value {want!r}")
    elif method == "normal":
        ref = oracles.normal_tails(q, t, p_plus, p_minus)
        for got, want, side in zip((upper, lower), ref, ("greater", "less")):
            _close(got, want, 1e-9, f"normal p_{side}", floor=1e-300)
    else:
        raise Mismatch(f"no reference for method {method!r}")


def _p_at(meta, beta):
    """Two-sided p-value at effect beta, recomputed from the fixture."""
    _, z_lo, z_hi, y_lo, y_hi = oracles.read_pairs(meta["csv"])
    gaps = z_hi - z_lo
    q, t = oracles.scored(z_lo, z_hi, y_lo, y_hi - beta * gaps, meta["test"])
    gamma_i = np.exp(oracles.gamma_for_mean(meta["gamma_bar"], gaps) * gaps)
    p_plus, p_minus = gamma_i / (1.0 + gamma_i), 1.0 / (1.0 + gamma_i)
    tails = oracles.lattice_tails if meta["oracle"] == "lattice" else oracles.normal_tails
    return _two_sided(*tails(q, t, p_plus, p_minus))


def check_interval(rec, payload):
    meta = rec["meta"]
    body = payload["report"]
    for p in body["p_values"]:
        _probability(p, "p_value")
    _expect(body["interval"] is not None,
            f"no interval (non_contiguous={body['non_contiguous']})")
    lo, hi = body["interval"]
    _expect(lo <= hi, f"interval [{lo}, {hi}] is reversed")
    _expect(body["beta_grid"] == [[lo], [hi]], "endpoint p-values are not at the endpoints")
    for beta, p in zip((lo, hi), body["p_values"]):
        _expect(p > meta["alpha"], f"endpoint {beta} has p {p} <= alpha")
        _close(p, _p_at(meta, beta), 1e-6, f"p-value at endpoint {beta}", floor=1e-300)


def check_grid(rec, payload):
    body = payload["report"]
    alpha = rec["meta"]["alpha"]
    for p, acc in zip(body["p_values"], body["accepted"]):
        _probability(p, "p_value")
        _expect(acc == (p > alpha), "accepted flags disagree with p > alpha")


# ------------------------------------------------------------- weak null --


def check_weak(rec, payload):
    meta = rec["meta"]
    body = payload["report"]
    _, z_lo, z_hi, y_lo, y_hi = oracles.read_pairs(meta["csv"])
    gaps = z_hi - z_lo
    tau1 = (y_hi - y_lo) - meta["lambda0"] * gaps
    _expect(np.allclose(body["tau1"], tau1, rtol=1e-12, atol=1e-15),
            "tau1 differs from the fixture's adjusted responses")
    gamma_i = np.array(body["Gamma_i"])
    _check_schedule(gamma_i, gaps, meta["gamma_bar"])
    denom = math.sqrt(float(np.sum(2.0 * gamma_i / (1.0 + gamma_i) * tau1**2)))
    _close(body["denom"], denom, 1e-12, "denom")
    _expect(body["objective"] == meta["objective"], "objective differs")

    status = body["status"]
    if "node_limit" in meta:
        _expect(status == "bounded" and body["node_count"] >= meta["node_limit"],
                f"expected a bounded stop at the node limit, got {status}")
    else:
        _expect(status == "optimal", f"expected a certified optimum, got {status}")
        _expect(body["gap"] <= 1e-8, f"gap {body['gap']} above the solver tolerance")

    w = np.array(body["w"])
    tau2 = np.array(body["tau2"])
    eps = 1e-9 * denom
    big_m = (1.0 + gamma_i) / np.sqrt(gamma_i) * denom
    weights = gamma_i / (1.0 + gamma_i) ** 2
    on = w == 1
    _expect(np.all((w == 0) | on), "indicators are not binary")
    _expect(abs(np.sum(tau1 + tau2)) <= 1e-8 * denom, "plane constraint violated")
    _expect(np.sum(weights * (tau1 - tau2) ** 2) <= denom**2 * (1.0 + 1e-8),
            "ball constraint violated")
    _expect(np.all(tau2[on] >= tau1[on] - 1e-9 * denom), "sign constraint (w=1) violated")
    _expect(np.all(tau2[~on] <= tau1[~on] - eps + 1e-12 * denom),
            "sign constraint (w=0) violated")
    _expect(np.all(np.abs(tau2 - tau1) <= big_m + 1e-9 * denom), "big-M constraint violated")

    value = oracles.weak_objective(meta["objective"], w, tau1, tau2, gamma_i, denom)
    optimum, bound = body["optimum"], body["bound"]
    _close(optimum, value, 1e-9, "optimum vs objective at (w, tau2)", floor=1.0)
    _expect(bound <= optimum + 1e-12, f"bound {bound} exceeds optimum {optimum}")
    _close(body["p_value_upper"], 0.5 * math.erfc(bound / math.sqrt(2.0)), 1e-12,
           "p_value_upper", floor=1e-300)
    if meta.get("enumerate"):
        ref = oracles.weak_enumerated_optimum(meta["objective"], tau1, gamma_i)
        _expect(ref is not None and abs(optimum - ref) <= 1e-6,
                f"optimum {optimum} differs from SLSQP enumeration {ref}")


def check_weak_grid(rec, payload):
    meta = rec["meta"]
    body = payload["report"]
    _expect(np.allclose(body["lambda_grid"], meta["grid"], rtol=0, atol=1e-12),
            "lambda grid differs")
    _expect(all(s == "optimal" for s in body["statuses"]), "a grid point is not certified")
    check_grid(rec, payload)
    runs = [i for i, a in enumerate(body["accepted"]) if a]
    if runs and runs == list(range(runs[0], runs[-1] + 1)):
        grid = body["lambda_grid"]
        _expect(body["interval"] == [grid[runs[0]], grid[runs[-1]]],
                "interval disagrees with the accepted grid points")


# -------------------------------------------------------------- planning --


def check_design_closed(rec, payload):
    meta = rec["meta"]
    body = payload["report"]
    theta = oracles.normal_cdf(meta["effect"] * meta["gap"] / (math.sqrt(2.0) * meta["noise_sd"]))
    want = theta / (1.0 - theta)
    se = math.sqrt(theta * (1.0 - theta) / meta["draws"]) / (1.0 - theta) ** 2
    _expect(not body["null_case"], "constant-gap design flagged as null")
    _expect(abs(body["gamma_bar_star"] - want) <= 5.0 * se,
            f"gamma_bar_star {body['gamma_bar_star']} is more than 5 SE ({se:.3g}) "
            f"from theta/(1-theta) = {want}")


def check_design(rec, payload):
    body = payload["report"]
    _expect(not body["null_case"] and body["gamma_bar_star"] > 1.0,
            "design sensitivity should exceed 1 for a positive effect")
    _expect(abs(body["lhs_rhs_residual"]) <= 1e-6, "design equation residual above tol")


def check_bahadur_closed(rec, payload):
    meta = rec["meta"]
    body = payload["report"]
    theta, mu = meta["theta"], body["mu"]
    se = math.sqrt(theta * (1.0 - theta) / meta["draws"])
    _expect(abs(mu - theta) <= 5.0 * se, f"mu {mu} is more than 5 SE from theta {theta}")
    _close(body["slope"], oracles.kl_slope(mu), 1e-8, "slope at the drawn concordance")
    slope_se = abs(2.0 * math.log(theta / (1.0 - theta))) * se
    _expect(abs(body["slope"] - oracles.kl_slope(theta)) <= 5.0 * slope_se,
            "slope is more than 5 SE from 2 KL(theta || 1/2)")


def check_bahadur_zero(rec, payload):
    body = payload["report"]
    _expect(body["slope"] == 0.0 and body["t_tilde"] == 0.0,
            f"slope {body['slope']} at gamma_bar_star is not 0")


def check_bahadur_positive(rec, payload):
    _expect(payload["report"]["slope"] > 0.0, "slope below gamma_bar_star is not positive")


def check_power(rec, payload):
    meta = rec["meta"]
    estimates = payload["report"]["estimates"]
    _expect([e["gamma_bar"] for e in estimates] == meta["grid"], "gamma_bar grid differs")
    powers = [e["power"] for e in estimates]
    for e in estimates:
        _expect(e["reps"] == meta["reps"] and 0 <= e["rejections"] <= e["reps"],
                "rejection count out of range")
        _expect(e["power"] == e["rejections"] / e["reps"], "power != rejections / reps")
    _expect(all(a >= b for a, b in zip(powers, powers[1:])),
            f"power increases along the gamma_bar grid: {powers}")


CHECKS = {
    "pvalue": check_pvalue,
    "interval": check_interval,
    "grid": check_grid,
    "weak": check_weak,
    "weak_grid": check_weak_grid,
    "design_closed": check_design_closed,
    "design": check_design,
    "bahadur_closed": check_bahadur_closed,
    "bahadur_zero": check_bahadur_zero,
    "bahadur_positive": check_bahadur_positive,
    "power": check_power,
}


# ---------------------------------------------------------------- groups --


def _check_group(name, members):
    if name.startswith("ladder"):
        members = sorted(members, key=lambda m: m[0]["meta"]["gamma_bar"])
        ps = [body["report"]["p_greater"] for _, body in members]
        _expect(all(a <= b for a, b in zip(ps, ps[1:])),
                f"{name}: p_greater decreases as gamma_bar grows: {ps}")
    elif name.startswith("nested"):
        members = sorted(members, key=lambda m: m[0]["meta"]["gamma_bar"])
        spans = [body["report"]["interval"] for _, body in members]
        for (lo_a, hi_a), (lo_b, hi_b) in zip(spans, spans[1:]):
            slack = 4e-6 * max(1.0, hi_b - lo_b)
            _expect(lo_b <= lo_a + slack and hi_a <= hi_b + slack,
                    f"{name}: intervals are not nested as gamma_bar grows: {spans}")
    elif name.startswith("power"):
        outputs = {rec["stdout"] for rec, _ in members}
        _expect(len(outputs) == 1, f"{name}: outputs differ between worker counts")


def _known_fault(rec) -> bool:
    if not rec["expect_fault"] or rec["rc"] != 2:
        return False
    try:
        error = json.loads(rec["stderr"])["error"]
    except (ValueError, KeyError, TypeError):
        return False
    return error["code"] == "config-error" and "needs a seed" in error["message"]


def check_pass(records) -> tuple:
    """Check one pass over a round; returns ``(failed, problems)``."""
    failed, problems = 0, []
    groups: dict = {}
    derived = {}
    for rec in records:
        label = rec["name"]
        if rec["rc"] != 0:
            failed += 1
            if not _known_fault(rec):
                problems.append(f"{label}: failed with {rec['rc']}: {rec['stderr'][-300:]}")
            continue
        try:
            payload = json.loads(rec["stdout"])
            derived[label] = payload
            CHECKS[rec["check"]](rec, payload)
            if rec["group"]:
                groups.setdefault(rec["group"], []).append((rec, payload))
        except Mismatch as exc:
            problems.append(f"{label}: {exc}")
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            # a report whose shape the check cannot read is a failed check
            problems.append(f"{label}: unreadable report ({type(exc).__name__}: {exc})")
    for name, members in groups.items():
        try:
            _check_group(name, members)
        except Mismatch as exc:
            problems.append(str(exc))
    for rec in records:
        # the zero-slope op must run at the design sensitivity of its round
        design = derived.get(rec["meta"].get("design"))
        if rec["check"] == "bahadur_zero" and design and rec["rc"] == 0:
            wanted = repr(design["report"]["gamma_bar_star"])
            if rec["argv"][-1] != wanted:
                problems.append(f"{rec['name']}: ran at {rec['argv'][-1]}, not {wanted}")
    return failed, problems
