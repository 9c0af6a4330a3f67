"""Batch command-line front end.

One job per invocation; parameters come from a JSON job file (--job) and/or
command-line flags, results go to stdout and optionally to --out as a JSON
document.  Output is deterministic: keys are sorted, rationals are serialized
as num/den string pairs, and the only non-reproducible field is
elapsed_seconds, which sits at the top level so tools can drop it before
diffing.  Exit status is nonzero only for errors; negative mathematical
findings (a failed certificate, say) still exit 0.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
import time
from fractions import Fraction as Q
from typing import Any, Callable, Mapping, Sequence

from .exactalg import DPoly, HD_CTX, JetresError, MultiPoly, VarContext
from .ggl import (
    GGLConfig,
    ample_condition,
    canonical_config,
    estimate_checks,
    euler_characteristic,
    euler_payload,
    ggl_threshold_check,
    intersection_payload,
)
from .localization import fibre_integral_fixed_points, payload_integral_fixed_points
from .polyparse import parse_poly, parse_residue_form
from .residue import (
    DEFAULT_TERM_CAP,
    ResidueForm,
    fibre_residue_integrand,
    integral_over_tower,
    residue_expand,
    residue_stepwise,
    tower_context,
)
from .tower import DEFAULT_POINT_CAP, _check_cap, enumerate_fixed_points

SCHEMA_VERSION = 1

# A command handler reads the job parameters and the budgets (max_terms,
# max_points), records any further budget it used, and returns its result
# document plus, if the command has a second route, one check: (verify method,
# mismatch message, value, second).  The value is the first route's result;
# the second route is a thunk, so only run_job runs it, and only under --verify.
Check = tuple[str, str, Any, Callable[[], Any]]
Outcome = tuple[dict[str, Any], Check | None]


class VerifyMismatchError(JetresError):
    code = "verify-mismatch"


def _q_doc(q: Q) -> dict[str, str]:
    return {"num": str(q.numerator), "den": str(q.denominator)}


def _dpoly_doc(p: DPoly) -> dict[str, Any]:
    coefficients = [_q_doc(c) for c in p.coeffs]
    return {"type": "dpoly", "variable": "d", "coefficients": coefficients, "text": p.to_text()}


def _poly_doc(p: MultiPoly) -> dict[str, Any]:
    terms = []
    for e, c in p.sorted_terms():
        mono = {name: exp for name, exp in zip(p.ctx.names, e) if exp}
        terms.append({"monomial": mono, "coeff": _q_doc(c)})
    return {"type": "poly", "text": p.to_text(), "terms": terms}


def _items(params: Mapping[str, Any], name: str) -> list[Any]:
    value = params[name]
    if not isinstance(value, list):
        raise ValueError(f"parameter {name} must be a list")
    return value


def _scalar(value: Any, name: str, kind: Callable[[Any], Any] = int) -> Any:
    """kind(value) for one JSON integer or string; lists, objects, booleans,
    floats and strings that do not convert are rejected."""
    if value is None or isinstance(value, (bool, list, dict)):
        raise ValueError(f"parameter {name} must be a single number")
    if isinstance(value, float):
        # int() would truncate it and Fraction() would take its binary value
        raise ValueError(f"parameter {name} must be an integer or a string such as \"3/2\", "
                         f"not the float {value!r}")
    try:
        return kind(value)
    except (ValueError, ZeroDivisionError) as exc:
        what = "an integer" if kind is int else "a rational such as 3/2"
        raise ValueError(f"parameter {name} must be {what}, not {value!r}") from exc


def _ints(params: Mapping[str, Any], name: str) -> tuple[int, ...]:
    return tuple(_scalar(x, name) for x in _items(params, name))


def _text(params: Mapping[str, Any], name: str) -> str:
    if not isinstance(params[name], str):
        raise ValueError(f"parameter {name} must be a string")
    return params[name]


def _lambda_values(params: Mapping[str, Any], n: int) -> list[Q]:
    if params.get("lambdas") is not None:
        vals = [_scalar(v, "lambdas", Q) for v in _items(params, "lambdas")]
        if len(vals) != n:
            raise ValueError(f"need {n} lambda values")
        return vals
    rng = random.Random(_scalar(params.get("lambda_seed", 1), "lambda_seed"))
    while True:
        vals = [Q(rng.randint(-60, 60), rng.randint(1, 13)) for _ in range(n)]
        if len(set(vals)) == n and all(vals):
            return vals


def _positive(params: Mapping[str, Any], name: str, default: int | None = None) -> int:
    """A parameter that must be at least 1: a resource cap (the default when
    absent or null) or the n or k of a tower command."""
    value = default if params.get(name) is None else _scalar(params[name], name)
    if value < 1:
        raise ValueError(f"parameter {name} must be at least 1")
    return value


def _require(params: Mapping[str, Any], *names: str) -> None:
    missing = [x for x in names if params.get(x) is None]
    if missing:
        raise ValueError(f"missing parameters: {', '.join(missing)}")


def _fibre_integral(params: Mapping[str, Any], budgets: dict[str, Any]) -> Outcome:
    _require(params, "n", "k", "polynomial")
    n, k = _positive(params, "n"), _positive(params, "k")
    method = params.get("method", "fixed-point")
    P = parse_poly(_text(params, "polynomial"), tower_context(k), budgets["max_terms"])
    lams = _lambda_values(params, n)
    budgets["lambdas"] = [_q_doc(v) for v in lams]
    routes = (
        lambda: fibre_integral_fixed_points(n, k, P, lams, budgets["max_points"]),
        lambda: residue_expand(fibre_residue_integrand(n, k, P, lams, budgets["max_terms"]),
                               budgets["max_terms"]),
    )
    if method not in ("fixed-point", "residue"):
        raise ValueError(f"unknown method {method!r}")
    first, second = routes if method == "fixed-point" else routes[::-1]
    value = first()
    check = ("dual-route", "fixed-point and residue methods disagree", value, second)
    return {"value": _poly_doc(value)}, check


def _integral(params: Mapping[str, Any], budgets: dict[str, Any]) -> Outcome:
    _require(params, "n", "k", "polynomial")
    n, k = _positive(params, "n"), _positive(params, "k")
    P = parse_poly(_text(params, "polynomial"), tower_context(k), budgets["max_terms"])
    value = integral_over_tower(n, k, P, budgets["max_terms"])
    # every term of P has (z_1..z_k, h)-degree n + k(n-1), the tower's dimension
    degree_matched = all(sum(e[:k + 1]) == n + k * (n - 1) for e in P.num)
    check = ("expand-vs-localization", "residue expansion and localization disagree",
             value, lambda: payload_integral_fixed_points(n, k, P, budgets["max_points"]))
    return {"value": _dpoly_doc(value), "degree_matched": degree_matched}, check


def _residue(params: Mapping[str, Any], budgets: dict[str, Any]) -> Outcome:
    _require(params, "form")
    zvars = params.get("zvars")
    if zvars is None:
        # infer z1..zk from the variables appearing in the form text
        found = {int(m) for m in re.findall(r"[uz](\d+)", _text(params, "form"))}
        zvars = [f"z{i}" for i in range(1, max(found, default=1) + 1)]
    elif (not isinstance(zvars, list) or not zvars or not all(isinstance(z, str) for z in zvars)
          or len(set(zvars)) < len(zvars) or {"h", "d"} & set(zvars)):
        raise ValueError(
            "parameter zvars must be a non-empty list of distinct names other than h and d"
        )
    ctx = VarContext(tuple(zvars) + ("h", "d"))
    form = ResidueForm(*parse_residue_form(_text(params, "form"), ctx, budgets["max_terms"]),
                       zvars)
    value = residue_expand(form, budgets["max_terms"])
    check = ("expand-vs-stepwise", "expansion and stepwise residues disagree",
             value, lambda: residue_stepwise(form, budgets["max_terms"]))
    return {"value": _poly_doc(value.recast(HD_CTX))}, check


def _fixed_points(params: Mapping[str, Any], budgets: dict[str, Any]) -> Outcome:
    _require(params, "n", "k")
    n, k = _positive(params, "n"), _positive(params, "k")
    points = enumerate_fixed_points(n, k, budgets["max_points"])
    return {
        "count": len(points),
        "points": [[list(w.coeffs) for w in fp.weights] for fp in points],
    }, None


def _ggl(params: Mapping[str, Any], budgets: dict[str, Any]) -> Outcome:
    _require(params, "n")
    n, custom = _scalar(params["n"], "n"), params.get("a") is not None
    if custom:
        a = _ints(params, "a")
        delta = _scalar(params.get("delta", 0), "delta", Q)
        cfg = GGLConfig(n=n, k=_scalar(params.get("k", len(a)), "k"), a=a, delta=delta)
    elif unused := [x for x in ("bound", "delta", "k") if params.get(x) is not None]:
        raise ValueError(f"parameters {', '.join(unused)} need the weights a")
    else:
        _check_cap(n, n, budgets["max_points"])  # before canonical_config, which grows with n
        cfg = canonical_config(n)
    bound = None if params.get("bound") is None else _scalar(params["bound"], "bound", Q)
    rep = ggl_threshold_check(cfg, bound, budgets["max_points"])
    spots = [{"d": dv, "positive": ok} for dv, ok in rep.spot_checks]
    result = {"p": _dpoly_doc(rep.p), "bound": _q_doc(Q(rep.bound)),
              "certificate": rep.certificate}
    if custom:
        result.update(intersection=_dpoly_doc(rep.intersection), spot_checks=spots[:1])
    else:
        result.update(config={"a": list(cfg.a), "delta": _q_doc(cfg.delta), "k": cfg.k},
                      positivity_threshold=2 * rep.bound, spot_checks=spots)
    check = ("localization-vs-residue", "localization and residue routes disagree",
             rep.intersection,
             lambda: integral_over_tower(cfg.n, cfg.k,
                                         intersection_payload(cfg, budgets["max_terms"]),
                                         budgets["max_terms"]))
    return result, check


def _diagnostics(params: Mapping[str, Any], budgets: dict[str, Any]) -> Outcome:
    _require(params, "n")
    n, defect_cap = _scalar(params["n"], "n"), _scalar(params.get("defect_cap", 4), "defect_cap")
    checks = estimate_checks(n, defect_cap, budgets["max_terms"], budgets["max_points"])
    all_passed = all(ok for _, ok, required, _ in checks if required)
    return {"all_passed": all_passed, "checks": [
        {"name": name, "passed": ok, "required": req, "details": details}
        for name, ok, req, details in checks
    ]}, None


def _euler_char(params: Mapping[str, Any], budgets: dict[str, Any]) -> Outcome:
    _require(params, "n", "k", "a")
    n, k = _positive(params, "n"), _positive(params, "k")
    a = _ints(params, "a")
    # the series are truncated at the tower dimension: a budget can only refuse
    budget = _scalar(params["budget"], "budget") if params.get("budget") is not None else None
    budgets["budget"] = budget
    if budget is not None and budget < n + k * (n - 1):
        raise ValueError("budget below the tower dimension cannot be exact")
    value = euler_characteristic(n, k, a, budgets["max_terms"])
    check = ("expand-vs-localization", "residue expansion and localization disagree",
             value, lambda: payload_integral_fixed_points(
                 n, k, euler_payload(n, k, a), budgets["max_points"]))
    return {"value": _dpoly_doc(value)}, check


def _ample_check(params: Mapping[str, Any], budgets: dict[str, Any]) -> Outcome:
    _require(params, "a")
    return {"classification": ample_condition(_ints(params, "a"))}, None


HANDLERS: dict[str, Callable[[Mapping[str, Any], dict[str, Any]], Outcome]] = {
    "fibre-integral": _fibre_integral,
    "integral": _integral,
    "ggl": _ggl,
    "diagnostics": _diagnostics,
    "euler-char": _euler_char,
    "ample-check": _ample_check,
    "residue": _residue,
    "fixed-points": _fixed_points,
}


def run_job(command: str, params: Mapping[str, Any]) -> dict[str, Any]:
    """Execute one job, returning the result document (without timing).

    Under the verify parameter the command's second route runs too; a
    mismatch raises VerifyMismatchError, a match adds the verify block.
    """
    budgets: dict[str, Any] = {
        "max_terms": _positive(params, "max_terms", DEFAULT_TERM_CAP),
        "max_points": _positive(params, "max_points", DEFAULT_POINT_CAP),
    }
    if command not in HANDLERS:
        raise JetresError(f"unknown command {command!r}")
    result, check = HANDLERS[command](params, budgets)
    doc: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "parameters": {k: v for k, v in sorted(params.items()) if v is not None and k != "out"},
        "result": result,
        "budgets": budgets,
    }
    if params.get("verify") and check is not None:
        method, message, value, second = check
        if value != second():
            raise VerifyMismatchError(message)
        doc["verify"] = {"method": method, "match": True}
    return doc


def _int_list(text: str) -> list[int]:
    return [int(s) for s in text.split(",")]


def _build_argparser() -> argparse.ArgumentParser:
    # flags that are not given stay out of the namespace, so they never
    # override a job file's parameters
    ap = argparse.ArgumentParser(
        prog="jetres",
        description="Exact tautological intersection numbers on jet towers.",
        argument_default=argparse.SUPPRESS,
    )
    ap.add_argument("command", choices=HANDLERS)
    ap.add_argument("--job", help="JSON job file with parameters")
    ap.add_argument("--verify", action="store_true", help="run the dual method and compare")
    ap.add_argument("--max-points", type=int,
                    help="fixed-point enumeration cap; in integral it bounds the --verify check")
    ap.add_argument("--max-terms", type=int,
                    help="sparse-term cap: parsing, payload, integrands, residues, diagnostics")
    ap.add_argument("--budget", type=int,
                    help="euler-char: refuse the job if below the tower dimension n + k(n-1), "
                         "where the series are truncated")
    ap.add_argument("--out", help="write the result document to this file")
    ap.add_argument("-n", type=int, dest="n")
    ap.add_argument("-k", type=int, dest="k")
    ap.add_argument("--polynomial", "-P", help="payload polynomial (u1..uk, h)")
    ap.add_argument("--form", help="residue form numerator/(factors)")
    ap.add_argument("--method", choices=("fixed-point", "residue"))
    ap.add_argument("--lambdas", help="comma-separated rational weight values",
                    type=lambda text: [s.strip() for s in text.split(",")])
    ap.add_argument("--lambda-seed", type=int, dest="lambda_seed")
    ap.add_argument("--a", type=_int_list, help="comma-separated weight vector")
    ap.add_argument("--delta", help="twist parameter (rational)")
    ap.add_argument("--bound", help="certificate bound (rational)")
    ap.add_argument("--defect-cap", type=int, dest="defect_cap")
    return ap


def _load_job(path: str, command: str) -> dict[str, Any]:
    """The parameters of a job file; ValueError if the file is unusable."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            job = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read job file: {exc}") from exc
    if not isinstance(job, dict) or not isinstance(job.get("parameters", {}), dict):
        raise ValueError("a job file must be an object whose parameters are an object")
    if job.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ValueError("unsupported schema_version")
    if "command" in job and job["command"] != command:
        raise ValueError("job command does not match CLI command")
    return job.get("parameters", {})


def main(argv: Sequence[str] | None = None) -> int:
    flags = vars(_build_argparser().parse_args(argv))
    command, out = flags.pop("command"), flags.pop("out", None)
    try:
        if out:  # refused before the job runs; append mode leaves a job file at that path intact
            try:
                open(out, "a", encoding="utf-8").close()
            except OSError as exc:
                bad, out = out, None
                raise ValueError(f"cannot write --out {bad}: {exc.strerror}") from exc
        params = _load_job(flags.pop("job"), command) if "job" in flags else {}
        params.update(flags)
        start = time.monotonic()
        doc = run_job(command, params)
        doc["elapsed_seconds"] = round(time.monotonic() - start, 6)
        status = 0
    except JetresError as exc:
        doc, status = _error_doc(getattr(exc, "code", "internal"), str(exc)), 3
    except RecursionError:
        doc, status = _error_doc("resource", "input nests deeper than Python's recursion limit"), 3
    except (ValueError, ZeroDivisionError) as exc:
        doc, status = _error_doc("validation", str(exc)), 2
    text = json.dumps(doc, indent=2, sort_keys=True)
    stream = sys.stderr if status else sys.stdout
    try:
        print(text, file=stream)
        stream.flush()
    except BrokenPipeError:
        # the reader left early (`jetres ... | head`): send what is still
        # buffered, and the interpreter's flush at exit, to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return status


def _error_doc(code: str, message: str) -> dict[str, Any]:
    return {"schema_version": SCHEMA_VERSION, "error": {"code": code, "message": message}}


if __name__ == "__main__":
    sys.exit(main())
