"""Output checks that decide which operations failed.

An operation is one CSV row (a `sweep` lambda, a `solve` level, a `certify`
lambda) or one public oracle call.  It fails if it raised, if `cli.run`
returned a nonzero exit code or let an exception escape, or if its output
fails a check here.  `check_cli` and `check_oracles` run in the child, after
the timed part; `compare_reference` and the byte comparison run in the parent.
"""

from __future__ import annotations

import csv
import io
import json
import math

SWEEP_RESIDUAL_MAX = 1e-8
SHARP_RTOL = 1e-8
MC_SIGMAS = 5.0
NORMALIZATION_RTOL = 1e-3
REFERENCE_RTOL = 1e-8
# compared exactly against the reference; other numeric fields to REFERENCE_RTOL
EXACT_FIELDS = {"verdict", "iterations", "witness_id", "certified_nonexistence"}
# rounding-level residuals: their digits depend on the BLAS build, so only
# their presence is compared (their size is checked against SWEEP_RESIDUAL_MAX)
ROUNDOFF_FIELDS = {"final_residual"}


def _op(op_id: str, why: str | None, check: bool) -> dict:
    """check: the failure comes from an output check, not from a raised error."""
    return {"id": op_id, "ok": why is None, "why": why, "check": check and why is not None}


def parse_csv(text: str) -> tuple[str, list[str], list[list[str]]]:
    """(comment line, header, rows) of a fraclab CSV."""
    first, _, body = text.partition("\n")
    rows = list(csv.reader(io.StringIO(body)))
    return first, rows[0], rows[1:]


def _row_problem(subcommand: str, row: dict) -> str | None:
    if subcommand == "sweep":
        if row["verdict"] not in ("converged", "diverged", "max_iter"):
            return f"unknown verdict {row['verdict']!r}"
        if row["verdict"] == "converged" and not float(row["final_residual"]) <= SWEEP_RESIDUAL_MAX:
            return f"converged with final_residual {row['final_residual']} > {SWEEP_RESIDUAL_MAX}"
    elif subcommand == "certify":
        expected = float(row["lambda"]) > float(row["min_lambda_star_star"])
        if (row["certified_nonexistence"] == "true") != expected:
            return "certified_nonexistence disagrees with lambda > min_lambda_star_star"
    elif subcommand == "solve":
        if not all(math.isfinite(float(row[k])) for k in ("h", "l2_error_vs_finest")):
            return "non-finite solve row"
    return None


def check_cli(spec: dict, errors: list[str | None]) -> list[dict]:
    ops = []
    for task, err in zip(spec["tasks"], errors):
        ids = [f"{task['name']}:{i}" for i in range(task["rows"])]
        if err is None:
            try:
                with open(f"{task['out']}/{task['csv']}") as fh:
                    _, header, rows = parse_csv(fh.read())
                if len(rows) != task["rows"]:
                    err = f"expected {task['rows']} rows, got {len(rows)}"
            except (OSError, ValueError, IndexError) as exc:
                err = f"unreadable output: {exc}"
        if err is not None:
            ops.extend(_op(i, err, False) for i in ids)
            continue
        for op_id, row in zip(ids, rows):
            try:
                why = _row_problem(task["subcommand"], dict(zip(header, row)))
            except (KeyError, ValueError) as exc:
                why = f"malformed row: {exc}"
            ops.append(_op(op_id, why, True))
    return ops


def sharp_hardy_p2(fraclab, N: int, s: float) -> float:
    """Closed-form sharp Hardy constant at p = 2 (the form the unit tests use)."""
    ch = 2.0 ** (2 * s) * math.gamma((N + 2 * s) / 4.0) ** 2 / math.gamma((N - 2 * s) / 4.0) ** 2
    return 2.0 * ch / fraclab.normalization_constant(N, s)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b != 0 else abs(a)


def check_oracles(fraclab, calls: list[dict], outcomes: list[dict]) -> list[dict]:
    ops = []
    quad: dict[tuple, float] = {}
    for i, (call, out) in enumerate(zip(calls, outcomes)):
        op_id = f"{call['fn']}:{i}"
        if "error" in out:
            ops.append(_op(op_id, out["error"], False))
            continue
        value = out["value"]
        why = None
        if not math.isfinite(value) or value <= 0.0:
            why = f"non-positive or non-finite value {value!r}"
        elif call["fn"] == "hardy_constant":
            N, s, p = call["args"]
            quad[(N, s, p)] = value
            if p == 2.0 and _rel(value, sharp_hardy_p2(fraclab, N, s)) > SHARP_RTOL:
                why = "differs from the closed-form sharp constant at p = 2"
        elif call["fn"] == "hardy_constant_mc":
            q = quad.get(tuple(call["args"]))
            if q is not None and abs(q - value) > MC_SIGMAS * out["stderr"]:
                why = f"|quad - mc| = {abs(q - value):.3e} > {MC_SIGMAS} * stderr"
        elif call["fn"] == "normalization_constant_quadrature":
            exact = fraclab.normalization_constant(*call["args"])
            if _rel(value, exact) > NORMALIZATION_RTOL:
                why = f"relative error {_rel(value, exact):.3e} vs the Gamma formula"
        ops.append(_op(op_id, why, True))
    return ops


def _fields_differ(field: str, got: str, ref: str) -> bool:
    if field in ROUNDOFF_FIELDS:
        return (got == "") != (ref == "")
    if field in EXACT_FIELDS:
        return got != ref
    try:
        g, r = float(got), float(ref)
    except ValueError:
        return got != ref
    if not (math.isfinite(g) and math.isfinite(r)):
        return got != ref
    return _rel(g, r) > REFERENCE_RTOL


def compare_reference(name: str, got: str, ref: str) -> dict[str, str]:
    """Op ids of output `name` that disagree with the committed reference, with why."""
    bad: dict[str, str] = {}
    if name == "oracles":
        for i, (g, r) in enumerate(zip(json.loads(got), json.loads(ref))):
            op_id = f"{g['fn']}:{i}"
            if g["args"] != r["args"] or g["fn"] != r["fn"]:
                bad[op_id] = "inputs differ from the reference"
            elif "value" in r and "value" in g:
                for k in ("value", "stderr", "error_estimate"):
                    if k in r and _rel(g[k], r[k]) > REFERENCE_RTOL:
                        bad[op_id] = f"{k} differs from the reference"
        return bad
    g_first, g_header, g_rows = parse_csv(got)
    r_first, r_header, r_rows = parse_csv(ref)
    same_input = g_first == r_first and g_header == r_header and len(g_rows) == len(r_rows)
    for i, g_row in enumerate(g_rows):
        op_id = f"{name}:{i}"
        if not same_input:
            bad[op_id] = "config hash, header or row count differs from the reference"
            continue
        fields = [f for f, g, r in zip(g_header, g_row, r_rows[i]) if _fields_differ(f, g, r)]
        if fields:
            bad[op_id] = f"differs from the reference in {', '.join(fields)}"
    return bad
