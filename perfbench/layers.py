"""Per-layer trace: spans around the public functions of each fraclab module.

The traced run wraps the functions below from outside the package; nothing
under `src/` changes.  A function is replaced at every place it is bound:
modules import with `from .x import y`, so `picard_iterate` lives in both
`fraclab.fixedpoint` and `fraclab.cli`, and `apply_D_s2` in `operators`,
`fixedpoint` and `cli`.  Methods are replaced on their class.

Spans (name, start, end, parent span, ru_maxrss at both ends) are kept in
memory and written out once, when the traced run ends.  A layer's self time
is its span time minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import resource
import statistics
import sys
import time

# (module, attribute or Class.method, layer name, records ru_maxrss growth)
TARGETS = (
    ("kernels", "build_kernel_table", "kernels.build_kernel_table", True),
    ("kernels", "cell_kernel_integrals", "kernels.cell_kernel_integrals", False),
    ("kernels", "KernelTable.pair_matrix", "kernels.pair_matrix", True),
    ("kernels", "load_kernel_table", "kernels.load_kernel_table", False),
    ("kernels", "save_kernel_table", "kernels.save_kernel_table", False),
    ("kernels", "normalization_constant_quadrature", "kernels.normalization_constant_quadrature", False),
    ("operators", "apply_D_s2", "operators.apply_D_s2", False),
    ("operators", "apply_frac_power", "operators.apply_frac_power", False),
    ("operators", "apply_riesz_gradient", "operators.apply_riesz_gradient", False),
    ("operators", "apply_B_sq", "operators.apply_B_sq", False),
    ("operators", "pair_power_sum", "operators.pair_power_sum", False),
    ("poisson", "assemble", "poisson.assemble", True),
    ("poisson", "FactorizedSolver.__init__", "poisson.factorize", True),
    ("poisson", "FactorizedSolver.solve_vector", "poisson.solve_vector", False),
    ("poisson", "StiffnessOperator.energy", "poisson.energy", False),
    ("fixedpoint", "picard_iterate", "fixedpoint.picard_iterate", False),
    ("seminorms", "gagliardo_double_sum", "seminorms.gagliardo_double_sum", False),
    ("nonexistence", "lambda_star_star", "nonexistence.lambda_star_star", False),
    ("seminorms", "hardy_constant", "seminorms.hardy_constant", False),
    ("seminorms", "hardy_constant_mc", "seminorms.hardy_constant_mc", False),
    ("cli", "run", "cli.run", False),
)

# operator applications counted per Picard iteration (pair_power_sum is inside apply_B_sq)
OPERATORS = (
    "operators.apply_D_s2",
    "operators.apply_frac_power",
    "operators.apply_riesz_gradient",
    "operators.apply_B_sq",
)

IMPORT_MODULES = (
    "fraclab",
    "fraclab.errors",
    "fraclab.grids",
    "fraclab.kernels",
    "fraclab.operators",
    "fraclab.seminorms",
    "fraclab.poisson",
    "fraclab.fixedpoint",
    "fraclab.regularity",
    "fraclab.nonexistence",
    "fraclab.cli",
)

DERIVED = (
    ("kernels.weights_mb", "MB", "lower"),
    ("kernels.lattice_used_ratio", "ratio", "higher"),
    ("kernels.cache_hit_ratio", "ratio", "higher"),
    ("kernels.cache_written_mb", "MB", "lower"),
    ("poisson.solves_per_factorization", "ratio", "higher"),
    ("fixedpoint.iterations", "count", "lower"),
    ("fixedpoint.operator_calls_per_iteration", "ratio", "lower"),
)

MB = 1024.0 * 1024.0


def import_metric(module: str) -> str:
    return f"setup.import.{module.rpartition('.')[2]}_s"


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for _, _, layer, rss in TARGETS:
        out.append((f"{layer}.calls", "count", "lower"))
        out.append((f"{layer}.self_s", "s", "lower"))
        if rss:
            out.append((f"{layer}.rss_growth_mb", "MB", "lower"))
    out.extend(DERIVED)
    out.extend((import_metric(m), "s", "lower") for m in IMPORT_MODULES)
    out.append(("trace.overhead_s", "s", "lower"))
    return out


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _table_attrs(args: dict, table) -> dict:
    dom = table.domain
    return {
        "N": dom.dimension,
        "n": dom.nodes_per_axis,
        "I": dom.interior_count,
        "M": table.lattice_radius,
        "sigma": table.sigma,
        "weights_bytes": table.weights.nbytes,
    }


def _save_attrs(args: dict, _result) -> dict:
    return {"bytes": os.path.getsize(args["path"])}


def _size_attrs(args: dict, _result) -> dict:
    first = next(iter(args.values()))
    dom = getattr(first, "domain", None)
    return {"I": dom.interior_count, "N": dom.dimension} if dom is not None else {}


def _picard_attrs(args: dict, report) -> dict:
    spec = args["spec"]
    return {"iterations": report.iterations, "kind": spec.rhs_kind,
            "I": spec.domain.interior_count, "N": spec.domain.dimension}


ATTRS = {
    "kernels.build_kernel_table": _table_attrs,
    "kernels.load_kernel_table": _table_attrs,
    "kernels.save_kernel_table": _save_attrs,
    "poisson.factorize": _size_attrs,
    "operators.apply_riesz_gradient": _size_attrs,
    "fixedpoint.picard_iterate": _picard_attrs,
}


class Recorder:
    """In-memory span recorder; `install` wraps every target it finds."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._t0 = time.perf_counter()
        self.missing: list[str] = []

    def _wrap(self, layer: str, fn):
        hook = ATTRS.get(layer)
        sig = inspect.signature(fn) if hook else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1] if stack else None
            rec = {"name": layer, "parent": parent, "start": time.perf_counter(),
                   "child_s": 0.0, "rss0": _maxrss_mb(), "ok": False}
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                rec["ok"] = True
            finally:
                rec["end"] = time.perf_counter()
                rec["rss1"] = _maxrss_mb()
                stack.pop()
                if parent is not None:
                    spans[parent]["child_s"] += rec["end"] - rec["start"]
            if hook is not None:
                try:
                    rec["attrs"] = hook(sig.bind(*args, **kwargs).arguments, result)
                except Exception as exc:  # a hook must never change the traced program
                    rec["attrs"] = {"hook_error": repr(exc)}
            return result

        return span

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "fraclab" or name.startswith("fraclab."))}
        for mod_name, attr, layer, _ in TARGETS:
            mod = modules.get(f"fraclab.{mod_name}")
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = getattr(owner, method, None) if owner is not None else None
            if orig is None:
                self.missing.append(layer)
                continue
            wrapped = self._wrap(layer, orig)
            if owner_name:
                setattr(owner, method, wrapped)
                continue
            for m in modules.values():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)

    def _under(self, idx: int, names) -> str | None:
        """Name of the nearest ancestor of span idx whose name is in names."""
        parent = self.spans[idx]["parent"]
        while parent is not None:
            if self.spans[parent]["name"] in names:
                return self.spans[parent]["name"]
            parent = self.spans[parent]["parent"]
        return None

    def summary(self) -> dict:
        stats: dict[str, dict] = {}
        for s in self.spans:
            st = stats.setdefault(s["name"], {"calls": 0, "self_s": 0.0, "rss_growth_mb": 0.0})
            st["calls"] += 1
            st["self_s"] += s["end"] - s["start"] - s["child_s"]
            st["rss_growth_mb"] += s["rss1"] - s["rss0"]

        def done(name):
            return [s for s in self.spans if s["name"] == name and s["ok"] and "hook_error" not in s.get("attrs", {})]

        builds = done("kernels.build_kernel_table")
        loads = done("kernels.load_kernel_table")
        lookups = len(loads) + stats.get("kernels.build_kernel_table", {}).get("calls", 0)
        built = sum((2 * b["attrs"]["M"] + 1) ** b["attrs"]["N"] for b in builds)
        factorizations = stats.get("poisson.factorize", {}).get("calls", 0)
        iterations = sum(s["attrs"]["iterations"] for s in done("fixedpoint.picard_iterate"))
        op_calls = sum(
            1 for i, s in enumerate(self.spans)
            if s["name"] in OPERATORS
            and self._under(i, OPERATORS + ("fixedpoint.picard_iterate",)) == "fixedpoint.picard_iterate"
        )
        derived = {
            "kernels.weights_mb": sum(b["attrs"]["weights_bytes"] for b in builds) / MB,
            "kernels.lattice_used_ratio": (
                sum((2 * b["attrs"]["n"] - 1) ** b["attrs"]["N"] for b in builds) / built if built else 0.0
            ),
            "kernels.cache_hit_ratio": len(loads) / lookups if lookups else 0.0,
            "kernels.cache_written_mb": sum(s["attrs"]["bytes"] for s in done("kernels.save_kernel_table")) / MB,
            "poisson.solves_per_factorization": (
                stats.get("poisson.solve_vector", {}).get("calls", 0) / factorizations if factorizations else 0.0
            ),
            "fixedpoint.iterations": iterations,
            "fixedpoint.operator_calls_per_iteration": op_calls / iterations if iterations else 0.0,
        }
        return {"stats": stats, "derived": derived, "missing": self.missing, "roadmap": self._roadmap()}

    def _roadmap(self) -> list[dict]:
        """Per-size figures at the layers of the ROADMAP baseline table."""
        groups: dict[tuple, list[dict]] = {}
        for s in self.spans:
            a = s.get("attrs", {})
            if not s["ok"] or "I" not in a:
                continue
            if s["name"] == "fixedpoint.picard_iterate" and a["kind"] != "D_s2":
                continue
            if s["name"] == "kernels.load_kernel_table":
                continue
            key = (s["name"], a["N"], a["I"], a.get("sigma"))
            groups.setdefault(key, []).append(s)
        rows = []
        for (name, N, I, sigma), group in sorted(groups.items(), key=lambda kv: tuple(map(str, kv[0]))):
            row = {
                "layer": name, "N": N, "I": I, "calls": len(group),
                "median_s": statistics.median(g["end"] - g["start"] for g in group),
                "max_s": max(g["end"] - g["start"] for g in group),
                "max_rss_growth_mb": max(g["rss1"] - g["rss0"] for g in group),
                "peak_rss_mb": max(g["rss1"] for g in group),
            }
            if sigma is not None:
                row["sigma"] = sigma
            if name == "fixedpoint.picard_iterate":
                row["median_iterations"] = statistics.median(g["attrs"]["iterations"] for g in group)
            rows.append(row)
        return rows

    def dump(self, path: str) -> dict:
        """Write the raw spans to path and return the aggregate summary."""
        with open(path, "w") as fh:
            json.dump({"t0": self._t0, "spans": self.spans}, fh)
        return self.summary()


def layer_metrics(summary: dict, import_s: dict[str, float], overhead_s: float) -> dict:
    """Assemble every per-layer metric from a traced run's summary."""
    metrics = {}
    for name, unit, _ in per_layer_metrics():
        layer, _, stat = name.rpartition(".")
        if name in summary["derived"]:
            value = summary["derived"][name]
        elif name.startswith("setup.import."):
            value = import_s.get(name, 0.0)
        elif name == "trace.overhead_s":
            value = overhead_s
        else:
            value = summary["stats"].get(layer, {}).get(stat, 0)
        metrics[name] = {"value": value, "unit": unit}
    return metrics
