"""Batch front door: INI configs in, deterministic CSV tables out.

Usage:
    fraclab <subcommand> --config <path> [--out <dir>]

Subcommands: solve, iterate, sweep, hardy, exponents, certify, probe, limits.
Every CSV starts with a comment line carrying the sha256 of the fully
resolved configuration, so re-running a config reproduces its outputs
bit for bit.  Exit codes: 0 success, 2 validation error, 3 numerical failure.

The [domain] cutoff_factor sets the kernel cutoff radius of the domain in
bounding-box diameters; every subcommand that builds a domain honours it.
Kernel tables come from kernels.get_table, which builds each one in the
process that uses it.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import hashlib
import itertools
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import (
    ConfigurationError,
    FraclabError,
    HypothesisViolation,
    ParameterError,
    check_range,
)
from .fixedpoint import IterationConfig, ProblemSpec, picard_iterate
from .grids import DEFAULT_CUTOFF_FACTOR, Annulus, Ball, Box, GridDomain, GridFunction, build_domain, centered_ball_domain, check_dimension, node_radii, sample
from .nonexistence import bump_family, lambda_star_star, radial_bump
from .operators import apply_D_s2, apply_frac_laplacian, central_gradient
from .poisson import solve_poisson
from .regularity import PROPOSITIONS, PROPOSITIONS_WITH_T, _frac, exponent_range, regularity_probe
from .seminorms import check_hardy_mc_args, hardy_constant, hardy_constant_mc

__all__ = ["main", "run", "ExperimentConfig"]

REQ = object()  # sentinel: key is required


def _bool(v: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[v.strip().lower()]
    except KeyError:
        raise ConfigurationError(f"expected a boolean, got {v!r}") from None


def _finite_float(v: str) -> float:
    x = float(v)
    if not math.isfinite(x):
        raise ConfigurationError(f"must be finite, got {x}")
    return x


def _list_of(parse, allow_empty: bool = False):
    """Parser of a comma-separated list: parse applied to each non-blank entry; no entry at all is refused."""

    def parse_list(v: str) -> list:
        xs = [parse(x) for x in v.split(",") if x.strip()]
        if not xs and not allow_empty:
            raise ConfigurationError("the list needs at least one entry")
        return xs

    return parse_list


_floats = _list_of(_finite_float)
_strs = _list_of(str.strip)


def _levels(v: str) -> list[int]:
    # both readers, solve and probe, compare one level with another
    xs = _list_of(int, allow_empty=True)(v)
    if len(xs) < 2:
        raise ConfigurationError(f"levels needs at least two entries, got {len(xs)}")
    for a, b in zip(xs, xs[1:]):
        if not a < b:
            raise ConfigurationError(f"levels must be strictly increasing, got {a} then {b}")
    return xs


def _positive_float(v: str) -> float:
    x = float(v)
    if not 0.0 < x < math.inf:
        raise ConfigurationError(f"must be positive and finite, got {x}")
    return x


def _in_range(name: str, lo: float, hi: float = math.inf, *, closed: bool = False):
    """Parser of a finite float that the library's check_range admits for the argument name."""
    return lambda v: check_range(name, _finite_float(v), lo, hi, closed=closed)


# every subcommand that reads an order s passes it where (0,1) is checked
_order = _in_range("s", 0.0, 1.0)


def _dimension(v: str) -> int:
    return check_dimension(int(v))


_positive_floats = _list_of(_positive_float)


def _precision(v: str) -> int:
    # 17 significant digits round-trip every float64
    digits = int(v)
    if not 1 <= digits <= 17:
        raise ConfigurationError(f"precision must lie in 1..17 significant digits, got {digits}")
    return digits


def _field_spec(spec: str) -> tuple[str, float]:
    """Kind and number of a field spec const:<v>|power:<beta>|bump:<rho>."""
    kind, _, arg = spec.partition(":")
    if kind not in ("const", "power", "bump"):
        raise ConfigurationError(f"unknown field spec {spec!r}; use const:<v>|power:<beta>|bump:<rho>")
    if kind == "const" and not arg:
        return kind, 1.0
    try:
        v = float(arg)
    except ValueError:
        raise ConfigurationError(f"field spec {spec!r} needs a number after {kind}:") from None
    if kind == "bump" and not v > 0.0:
        raise ConfigurationError(f"bump radius must be positive, got {spec!r}")
    if not math.isfinite(v):
        raise ConfigurationError(f"field spec {spec!r} needs a finite number after {kind}:")
    return kind, v


def _field_str(v: str) -> str:
    # checked at load; the config keeps the spec text, so its hash is unchanged
    _field_spec(v)
    return v


def _rational_str(v: str) -> str:
    # checked at load, as _field_str is; the config keeps the text, so its hash is unchanged
    v = v.strip()
    _frac(v)
    return v


_DOMAIN_SCHEMA = {
    "shape": (str, "ball"),
    "dimension": (_dimension, 1),
    "nodes_per_axis": (int, REQ),
    "margin_cells": (int, 2),
    "origin_offset": (_bool, False),
    "radius": (_positive_float, 1.0),
    "r_inner": (_finite_float, 0.5),
    "r_outer": (_finite_float, 1.0),
    "lo": (_floats, [-1.0]),
    "hi": (_floats, [1.0]),
    "center": (_floats, None),
    "cutoff_factor": (_positive_float, DEFAULT_CUTOFF_FACTOR),
}

_PROBLEM_SCHEMA = {
    "s": (_order, REQ),
    "rhs_kind": (str, "D_s2"),
    "lambda": (_positive_float, 0.1),
    "mu": (_field_str, "const:1.0"),
    "f": (_field_str, "const:1.0"),
    "m": (_finite_float, None),
    "t": (_finite_float, None),
    "q": (_finite_float, None),
    "alpha": (_finite_float, None),
}

_OUTPUT_SCHEMA = {"precision": (_precision, 17)}

SCHEMAS: dict[str, dict[str, dict]] = {
    "solve": {
        "domain": _DOMAIN_SCHEMA,
        "problem": {"s": (_order, REQ), "f": (_field_str, "const:1.0")},
        "run": {"levels": (_levels, REQ)},
        "output": _OUTPUT_SCHEMA,
    },
    "iterate": {
        "domain": _DOMAIN_SCHEMA,
        "problem": _PROBLEM_SCHEMA,
        "run": {
            "tolerance": (_positive_float, 1e-9),
            "max_iter": (int, 200),
            "divergence_norm": (_positive_float, None),
        },
        "output": _OUTPUT_SCHEMA,
    },
    "sweep": {
        "domain": _DOMAIN_SCHEMA,
        "problem": _PROBLEM_SCHEMA,
        "run": {
            "tolerance": (_positive_float, 1e-9),
            "max_iter": (int, 200),
            "lambda_sweep": (_positive_floats, REQ),
        },
        "output": _OUTPUT_SCHEMA,
    },
    "hardy": {
        "run": {
            "triples": (_strs, REQ),  # entries N:s:p
            "tol": (_positive_float, 1e-6),
            "mc_samples": (int, 2_000_000),
            "seed": (int, 20240801),
        },
        "output": _OUTPUT_SCHEMA,
    },
    "exponents": {
        "run": {
            "propositions": (_strs, ["all"]),
            "dimension": (int, 2),
            "s": (_rational_str, REQ),  # exact rational, e.g. 3/4
            "t_values": (_list_of(_rational_str, allow_empty=True), [""]),  # empty: no t
            "m_values": (_list_of(_rational_str), REQ),
        },
        "output": _OUTPUT_SCHEMA,
    },
    "certify": {
        "domain": _DOMAIN_SCHEMA,
        "problem": {"s": (_order, REQ), "f": (_field_str, "const:1.0"), "mu1": (_positive_float, 1.0)},
        "run": {
            "lambda_values": (_positive_floats, REQ),
            "bump_centers": (int, 3),
            "bump_rhos": (_positive_floats, [0.3, 0.5, 0.7]),
        },
        "output": _OUTPUT_SCHEMA,
    },
    "probe": {
        "domain": {"dimension": (_dimension, 1), "radius": (_positive_float, 1.0)},
        "run": {
            "beta": (_finite_float, REQ),
            "s": (_order, REQ),
            "t": (_in_range("t", 0.0, 1.0), REQ),
            "p": (_in_range("p", 1.0, closed=True), REQ),
            "m": (_in_range("m", 1.0, closed=True), 1.0),
            "levels": (_levels, REQ),
        },
        "output": _OUTPUT_SCHEMA,
    },
    "limits": {
        "run": {
            "s_values": (_list_of(_order), [0.8, 0.9, 0.95]),
            "nodes_per_axis": (int, 3000),
            "radius": (_positive_float, 5.0),
        },
        "output": _OUTPUT_SCHEMA,
    },
}


class ExperimentConfig:
    """Validated, fully resolved configuration for one subcommand."""

    def __init__(self, subcommand: str, values: dict[str, dict[str, object]]):
        self.subcommand = subcommand
        self.values = values

    def __getitem__(self, section: str) -> dict:
        return self.values[section]

    def resolved_hash(self) -> str:
        lines = [f"subcommand={self.subcommand}"]
        for section in sorted(self.values):
            for key in sorted(self.values[section]):
                lines.append(f"{section}.{key}={self.values[section][key]!r}")
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    @classmethod
    def load(cls, subcommand: str, path) -> "ExperimentConfig":
        if subcommand not in SCHEMAS:
            raise ConfigurationError(f"unknown subcommand {subcommand!r}")
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        read = parser.read(path)
        if not read:
            raise ConfigurationError(f"config file {path} is missing or unreadable")
        schema = SCHEMAS[subcommand]
        for section in parser.sections():
            if section not in schema:
                raise ConfigurationError(
                    f"unknown section [{section}] for subcommand {subcommand}"
                )
            for key in parser[section]:
                if key not in schema[section]:
                    raise ConfigurationError(f"unknown key {key!r} in section [{section}]")
        values: dict[str, dict[str, object]] = {}
        for section, keys in schema.items():
            values[section] = {}
            for key, (parse, default) in keys.items():
                if parser.has_option(section, key):
                    raw = parser.get(section, key)
                    try:
                        values[section][key] = parse(raw)
                    except (ValueError, ConfigurationError) as exc:
                        raise ConfigurationError(
                            f"invalid value for [{section}] {key}: {raw!r} ({exc})"
                        ) from exc
                elif default is REQ:
                    raise ConfigurationError(f"missing required key [{section}] {key}")
                else:
                    values[section][key] = default
        return cls(subcommand, values)


# ---------------------------------------------------------------------------
# shared builders
# ---------------------------------------------------------------------------


def _build_domain(dcfg: dict) -> GridDomain:
    N = dcfg["dimension"]
    shape_name = dcfg["shape"]
    center = dcfg["center"] if dcfg["center"] is not None else [0.0] * N
    if len(center) != N:
        raise ConfigurationError(f"center must have {N} components")
    if shape_name == "ball":
        shape = Ball(center=tuple(center), radius=dcfg["radius"])
    elif shape_name == "annulus":
        shape = Annulus(r_inner=dcfg["r_inner"], r_outer=dcfg["r_outer"], center=tuple(center))
    elif shape_name == "box":
        lo, hi = dcfg["lo"], dcfg["hi"]
        if len(lo) != N or len(hi) != N:
            raise ConfigurationError(f"box lo/hi must have {N} components")
        shape = Box(lo=tuple(lo), hi=tuple(hi))
    else:
        raise ConfigurationError(f"unknown shape {shape_name!r}; use ball|box|annulus")
    return build_domain(
        shape,
        dcfg["nodes_per_axis"],
        margin_cells=dcfg["margin_cells"],
        origin_offset=dcfg["origin_offset"],
        cutoff_factor=dcfg["cutoff_factor"],
    )


def _field(spec: str, domain: GridDomain) -> GridFunction:
    kind, v = _field_spec(spec)
    if kind == "const":
        return sample(lambda *cs: np.full_like(cs[0], v), domain)
    if kind == "power":
        return domain.from_interior(node_radii(domain) ** (-v))
    return radial_bump(domain, np.zeros(domain.dimension), v)


def _fmt(x, precision: int) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.{precision}g}"
    return str(x)


def _write_csv(path: Path, header: list[str], rows: list[list], cfg_hash: str, precision: int) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# config_sha256={cfg_hash}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v, precision) for v in row])


def _interp_to(x: np.ndarray, fine_u: GridFunction) -> np.ndarray:
    """Multilinear interpolation of a fine-grid function at the points x, shape (m, N).

    A point outside the fine grid's node span on any axis gets 0.  The cell
    search, the corner order and the summation are those of scipy's
    RegularGridInterpolator (method "linear", fill_value 0.0), so the values
    agree with it to the bit.
    """
    lower, frac = [], []
    outside = np.zeros(len(x), dtype=bool)
    for g, xk in zip(fine_u.domain.axis_centers, x.T):
        i = np.clip(np.searchsorted(g, xk, side="right") - 1, 0, len(g) - 2)
        lower.append(i)
        frac.append((xk - g[i]) / (g[i + 1] - g[i]))
        outside |= (xk < g[0]) | (xk > g[-1])
    value = np.array([0.0])
    for corner in itertools.product((0, 1), repeat=len(lower)):
        weight = math.prod(y if c else 1 - y for c, y in zip(corner, frac))
        value = value + fine_u.values[tuple(i + c for i, c in zip(lower, corner))] * weight
    value[outside] = 0.0
    return value


def _problem_from_config(cfg: ExperimentConfig, domain: GridDomain) -> ProblemSpec:
    p = cfg["problem"]
    return ProblemSpec(
        rhs_kind=p["rhs_kind"],
        s=p["s"],
        lam=p["lambda"],
        mu=_field(p["mu"], domain),
        f=_field(p["f"], domain),
        m=p["m"],
        t=p["t"],
        q=p["q"],
        alpha=p["alpha"],
    )


# ---------------------------------------------------------------------------
# subcommand drivers
# ---------------------------------------------------------------------------


def _run_solve(cfg: ExperimentConfig) -> tuple[list[str], list[list]]:
    dcfg = dict(cfg["domain"])
    levels = cfg["run"]["levels"]
    s = cfg["problem"]["s"]
    # a coarser level keeps only its h, interior nodes and interior values, so
    # its domain and kernel tables are freed before the next level builds
    coarse = []
    for n in levels:
        dcfg["nodes_per_axis"] = n
        dom = _build_domain(dcfg)
        u = solve_poisson(_field(cfg["problem"]["f"], dom), s)
        if n != levels[-1]:
            coarse.append((n, dom.h, dom.interior_coords, u.interior))
            del dom, u
    rows = []
    prev_err = None
    for n, h, x, u_c in coarse:
        err = float(np.sqrt(((u_c - _interp_to(x, u)) ** 2).sum() * h ** x.shape[1]))
        ratio = None if prev_err is None else prev_err / err
        rows.append([n, h, err, ratio])
        prev_err = err
    rows.append([levels[-1], dom.h, 0.0, None])
    return ["level", "h", "l2_error_vs_finest", "ratio"], rows


def _run_iterate(cfg: ExperimentConfig) -> tuple[list[str], list[list]]:
    it = IterationConfig(
        tolerance=cfg["run"]["tolerance"],
        max_iter=cfg["run"]["max_iter"],
        divergence_norm=cfg["run"]["divergence_norm"],
    )
    dom = _build_domain(cfg["domain"])
    rep = picard_iterate(_problem_from_config(cfg, dom), it)
    rows = []
    n_hist = len(rep.history["sup_norm"])
    for k in range(n_hist):
        last = k == n_hist - 1
        rows.append(
            [
                k + 1,
                rep.history["sup_norm"][k],
                rep.history["energy_norm"][k],
                rep.history["frac_half_norm"][k],
                rep.history["successive_diff"][k],
                rep.verdict if last else "",
                rep.final_residual if last else None,
            ]
        )
    if not rows:  # converged at iteration 0
        rows.append([0, 0.0, 0.0, 0.0, 0.0, rep.verdict, rep.final_residual])
    header = ["iteration", "sup_norm", "energy_norm", "frac_half_norm", "successive_diff", "verdict", "final_residual"]
    return header, rows


def _run_sweep(cfg: ExperimentConfig) -> tuple[list[str], list[list]]:
    it = IterationConfig(tolerance=cfg["run"]["tolerance"], max_iter=cfg["run"]["max_iter"])
    spec = _problem_from_config(cfg, _build_domain(cfg["domain"]))
    rows = []
    for lam in cfg["run"]["lambda_sweep"]:
        rep = picard_iterate(dataclasses.replace(spec, lam=lam), it)
        rows.append([lam, rep.verdict, rep.iterations, rep.final_residual])
    return ["lambda", "verdict", "iterations", "final_residual"], rows


def _run_hardy(cfg: ExperimentConfig) -> tuple[list[str], list[list]]:
    # every triple is parsed and checked before the first quadrature runs
    samples = cfg["run"]["mc_samples"]
    triples = []
    for entry in cfg["run"]["triples"]:
        try:
            n_str, s_str, p_str = entry.split(":")  # a wrong count is a ValueError too
            N, s, p = int(n_str), float(s_str), float(p_str)
        except ValueError:
            raise ConfigurationError(f"hardy triple must be N:s:p, got {entry!r}") from None
        check_hardy_mc_args(N, s, p, samples, cfg["run"]["seed"])
        triples.append((N, s, p))
    rows = []
    for N, s, p in triples:
        res = hardy_constant(N, s, p, tol=cfg["run"]["tol"])
        mc, mc_err = hardy_constant_mc(N, s, p, samples=samples, seed=cfg["run"]["seed"])
        rows.append(
            [N, s, p, res.value, res.error_estimate, mc, mc_err, abs(res.value - mc) / res.value]
        )
    return ["N", "s", "p", "lambda_quad", "error_estimate", "lambda_mc", "mc_stderr", "rel_diff"], rows


def _run_exponents(cfg: ExperimentConfig) -> tuple[list[str], list[list]]:
    run = cfg["run"]
    props = run["propositions"]
    if props == ["all"]:
        props = list(PROPOSITIONS)
    for prop in props:
        if prop not in PROPOSITIONS:
            raise ConfigurationError(f"unknown proposition {prop!r}")
    N = run["dimension"]
    s = Fraction(run["s"])
    t_values = [(Fraction(t) if t else None) for t in run["t_values"]] or [None]
    m_values = [Fraction(m) for m in run["m_values"]]
    rows = []
    for prop in props:
        for t in t_values if prop in PROPOSITIONS_WITH_T else [None]:
            for m in m_values:
                try:
                    r = exponent_range(prop, N, s, t, m)
                    upper = "inf" if r.upper == math.inf else str(r.upper)
                    rows.append(
                        [prop, r.case_index, N, str(s), "" if t is None else str(t), str(m),
                         str(r.lower), upper, r.upper_inclusive, "ok"]
                    )
                except HypothesisViolation as exc:
                    rows.append(
                        [prop, "", N, str(s), "" if t is None else str(t), str(m),
                         "", "", "", f"rejected:{exc.condition}"]
                    )
    return ["proposition", "case", "N", "s", "t", "m", "lower", "upper", "upper_inclusive", "status"], rows


def _run_certify(cfg: ExperimentConfig) -> tuple[list[str], list[list]]:
    dom = _build_domain(cfg["domain"])
    s = cfg["problem"]["s"]
    mu1 = cfg["problem"]["mu1"]
    f = _field(cfg["problem"]["f"], dom)
    n_c = cfg["run"]["bump_centers"]
    if n_c < 1:
        raise ConfigurationError(f"bump_centers must be at least 1, got {n_c}")
    lo, hi = dom.lo.min(), dom.hi.max()
    span = 0.4 * (hi - lo)
    # one centre per axis sits at the origin, not at the corner of the span
    axis = np.linspace(-span / 2, span / 2, n_c) if n_c != 1 else np.zeros(1)
    family = []
    built = set()
    dropped = 0
    for c in itertools.product(axis, repeat=dom.dimension):
        for rho in cfg["run"]["bump_rhos"]:
            if isinstance(dom.shape, Ball):
                # keep the support inside the ball so bumps are not truncated
                room = dom.shape.radius - float(
                    np.linalg.norm(np.asarray(c) - np.asarray(dom.shape.center))
                )
                rho = min(rho, 0.95 * room)
                if rho <= dom.h:
                    dropped += 1
                    continue
            # clipping can map two radii to one bump: build it once, at its first
            # occurrence, the member lambda_star_star keeps among equal values
            if (c, rho) in built:
                continue
            built.add((c, rho))
            family.extend(bump_family(dom, [c], [rho]))
    if dropped and not family:
        raise ConfigurationError(
            f"all {dropped} bumps dropped: each radius, clipped to fit inside the ball, "
            f"is at most h = {dom.h:.4g}; raise nodes_per_axis"
        )
    best = lambda_star_star(f, mu1, s, family)
    rows = [[lam, lam > best.value, best.value, best.phi_id] for lam in cfg["run"]["lambda_values"]]
    return ["lambda", "certified_nonexistence", "min_lambda_star_star", "witness_id"], rows


def _run_probe(cfg: ExperimentConfig) -> tuple[list[str], list[list]]:
    run = cfg["run"]
    rep = regularity_probe(
        beta=run["beta"],
        s=run["s"],
        t=run["t"],
        p=run["p"],
        node_counts=run["levels"],
        m=run["m"],
        N=cfg["domain"]["dimension"],
        radius=cfg["domain"]["radius"],
    )
    rows = []
    for i, (n, v) in enumerate(zip(rep.node_counts, rep.values)):
        growth = rep.growth_factors[i - 1] if i > 0 else None
        rows.append([n, v, growth, rep.route, rep.classification if i == len(rep.values) - 1 else ""])
    return ["level", "measured", "growth_factor", "route", "classification"], rows


def _run_limits(cfg: ExperimentConfig) -> tuple[list[str], list[list]]:
    run = cfg["run"]
    radius = run["radius"]
    n = run["nodes_per_axis"]
    dom = centered_ball_domain(1, n, radius)
    half = radius / 2.0
    u = sample(lambda x: np.maximum(1.0 - (x / half) ** 2, 0.0) ** 3, dom)
    h = dom.h
    full = u.values
    lap = np.zeros_like(full)
    lap[1:-1] = (2.0 * full[1:-1] - full[2:] - full[:-2]) / h**2  # 5-point -Laplacian
    lap_i = lap[dom.interior_mask]
    g2 = (central_gradient(u) ** 2).sum(axis=1)
    rows = []
    for s in run["s_values"]:
        Au = apply_frac_laplacian(u, s).interior
        D = apply_D_s2(u, s).interior
        err_a = float(np.abs(Au - lap_i).max() / np.abs(lap_i).max())
        err_d = float(np.abs(D - g2).max() / np.abs(g2).max())
        rows.append([s, err_a, err_d])
    return ["s", "frac_laplacian_rel_err", "grad_sq_rel_err"], rows


# each driver returns the header and rows of its subcommand's CSV
_DRIVERS = {
    "solve": _run_solve,
    "iterate": _run_iterate,
    "sweep": _run_sweep,
    "hardy": _run_hardy,
    "exponents": _run_exponents,
    "certify": _run_certify,
    "probe": _run_probe,
    "limits": _run_limits,
}


def run(subcommand: str, config_path, out_dir=".") -> int:
    """Execute one subcommand; returns the process exit code."""
    try:
        cfg = ExperimentConfig.load(subcommand, config_path)
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        header, rows = _DRIVERS[subcommand](cfg)
        precision = cfg["output"]["precision"]
        _write_csv(out / f"{subcommand}.csv", header, rows, cfg.resolved_hash(), precision)
        return 0
    except (ConfigurationError, ParameterError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FraclabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fraclab", description=__doc__)
    parser.add_argument("subcommand", choices=_DRIVERS)
    parser.add_argument("--config", required=True, help="path to an INI config file")
    parser.add_argument("--out", default=".", help="output directory for CSV files")
    args = parser.parse_args(argv)
    return run(args.subcommand, args.config, args.out)


if __name__ == "__main__":
    sys.exit(main())
