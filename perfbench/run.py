"""fraclab benchmark runner.

Run from the repository root:

    python3 perfbench/run.py --workload picard2d --seed 1 --seconds 40 --trace 0

`--workload all` runs picard2d, ladder and oracles in turn.  Every run of a
workload is a fresh process (child.py).  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; with
`--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
per-layer ones of a separately traced run.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import env_stamp
import layers
import workloads

BENCH = Path(__file__).resolve().parent
STATE_DIR = ".perfbench"
DEFAULT_SEED = 1
SETUP_PROBES = 4
IMPORT_PROBES = 3
RUN_LIMIT_S = 165.0  # a run must end within 180 s

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The benchmark cannot measure; no result line is printed."""


class Runner:
    def __init__(self, root: Path, workload: str, seed: int, seconds: float, trace: bool):
        self.root = root
        self.name = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.t_start = time.monotonic()
        self.state = root / STATE_DIR
        self.host = env_stamp.host_env(root)
        self.spec = workloads.make(workload, seed)
        key = json.dumps(self.spec, sort_keys=True) + self.host["src_sha256"]
        self.spec_hash = hashlib.sha256(key.encode()).hexdigest()[:16]
        self.work = self.state / "work" / f"{workload}-{seed}-{os.getpid()}"
        self.iteration = 0

    # -- child processes ---------------------------------------------------

    def _env(self, cache_dir: Path | None) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["PYTHONHASHSEED"] = "0"
        threads = str(env_stamp.blas_threads())
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        env.pop("FRACLAB_CACHE_DIR", None)
        if cache_dir is not None:
            env["FRACLAB_CACHE_DIR"] = str(cache_dir)
        return env

    def _timeout(self) -> float:
        left = RUN_LIMIT_S - (time.monotonic() - self.t_start)
        if left <= 1.0:
            raise BenchError("out of time before the run could finish")
        return left

    def _spawn(self, mode: str, tasks: list[dict] | None = None, cache_dir: Path | None = None) -> dict:
        self.iteration += 1
        out = self.work / f"{self.iteration:03d}-{mode}"
        out.mkdir(parents=True)
        traces = self.state / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        spec = {"out": str(out), "trace_path": str(traces / f"{self.name}-seed{self.seed}.json")}
        if "calls" in self.spec:
            spec["calls"] = self.spec["calls"]
        else:
            spec["tasks"] = [
                {**t, "config_path": str(self.work / f"{t['name']}.ini"), "out": str(out / t["name"])}
                for t in (self.spec["tasks"] if tasks is None else tasks)
            ]
        spec_path = out / "spec.json"
        spec_path.write_text(json.dumps(spec))
        result_path = out / "result.json"
        cmd = [sys.executable, str(BENCH / "child.py"), str(spec_path), str(result_path), mode]
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self._env(cache_dir),
                                  capture_output=True, text=True, timeout=self._timeout())
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} child of {self.name} did not finish in time") from exc
        if proc.returncode != 0 or not result_path.exists():
            raise BenchError(f"{mode} child of {self.name} exited with {proc.returncode}:\n"
                             + proc.stderr[-4000:])
        res = json.loads(result_path.read_text())
        res["setup_s"] = res["t_setup"] - t_spawn
        res["elapsed_s"] = time.monotonic() - t_spawn
        res["out"] = out
        return res

    def _cache_dir(self) -> Path | None:
        if self.spec["cache"] == "warm":
            return self.state / "kernel-cache" / self.name
        if self.spec["cache"] == "fresh":
            return Path(tempfile.mkdtemp(prefix="cache-", dir=self.work))
        return None

    def _fill_warm_cache(self) -> None:
        """Untimed, once per checkout and source version: timed runs only read the cache."""
        cache = self._cache_dir()
        marker = cache / "warm.done"
        if marker.exists() and marker.read_text() == self.host["src_sha256"]:
            return
        shutil.rmtree(cache, ignore_errors=True)
        cache.mkdir(parents=True)
        res = self._spawn("run", [self.spec["warmup"]], cache)
        if not all(op["ok"] for op in res["ops"]):
            raise BenchError(f"kernel-cache warm-up failed: {res['ops']}")
        marker.write_text(self.host["src_sha256"])

    def _iterate(self, mode: str) -> dict:
        res = self._spawn(mode, cache_dir=self._cache_dir())
        res["outputs"] = self._outputs(res["out"])
        return res

    # -- outputs -----------------------------------------------------------

    def _outputs(self, out: Path) -> dict[str, str]:
        if "calls" in self.spec:
            return {"oracles": (out / "oracles.json").read_text()}
        found = {}
        for t in self.spec["tasks"]:
            path = out / t["name"] / t["csv"]
            if path.exists():
                found[t["name"]] = path.read_text()
        return found

    def _check_outputs(self, runs: list[dict]) -> None:
        """Byte-identical reruns and, for the default seed, the committed reference."""
        stored = self.state / "outputs" / self.name / f"seed-{self.seed}-{self.spec_hash}"
        first = {}
        if stored.is_dir():
            first = {p.stem: p.read_text() for p in stored.iterdir()}
        ref_dir = BENCH / "reference" / self.name
        for res in runs:
            bad: dict[str, str] = {}
            for name, text in res["outputs"].items():
                if name not in first:
                    first[name] = text
                    stored.mkdir(parents=True, exist_ok=True)
                    (stored / f"{name}.out").write_text(text)
                elif text != first[name]:
                    for op in res["ops"]:
                        if op["id"].split(":")[0] == name or name == "oracles":
                            bad[op["id"]] = "output bytes differ from the first run of this seed"
                ref = ref_dir / f"{name}.out"
                if self.seed == DEFAULT_SEED and ref.exists():
                    for op_id, why in checks.compare_reference(name, text, ref.read_text()).items():
                        bad.setdefault(op_id, why)
            for op in res["ops"]:
                if op["ok"] and op["id"] in bad:
                    op.update(ok=False, check=True, why=bad[op["id"]])

    # -- the run -----------------------------------------------------------

    def run(self) -> tuple[dict, dict]:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        try:
            for task in self.spec.get("tasks", []) + [self.spec.get("warmup")]:
                if task is not None:
                    (self.work / f"{task['name']}.ini").write_text(task["config"])
            # untimed: compiles bytecode and takes the environment stamp
            env = self._spawn("setup")["env"]
            if self.spec["cache"] == "warm":
                self._fill_warm_cache()
            t_measure = time.monotonic()
            budget = min(self.seconds, RUN_LIMIT_S - 20.0 - (t_measure - self.t_start))
            setups = [] if self.trace else [self._spawn("setup")["setup_s"] for _ in range(SETUP_PROBES)]
            slots = 2 if self.trace else 1  # the traced run needs a slot of its own
            runs: list[dict] = []
            while True:
                runs.append(self._iterate("run"))
                per = statistics.median(r["elapsed_s"] for r in runs)
                if time.monotonic() - t_measure + slots * per > budget:
                    break
            traced = [self._iterate("trace")] if self.trace else []
            import_s = self._import_times() if self.trace else {}
            self._check_outputs(runs + traced)
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        return self._report(env, setups + [r["setup_s"] for r in runs], runs, traced, import_s)

    def _import_times(self) -> dict[str, float]:
        """Median cumulative import time per fraclab module, from -X importtime."""
        samples: dict[str, list[float]] = {}
        for _ in range(IMPORT_PROBES):
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import fraclab.cli"],
                                  cwd=self.root, env=self._env(None), capture_output=True,
                                  text=True, timeout=self._timeout())
            if proc.returncode != 0:
                raise BenchError(f"import probe failed:\n{proc.stderr[-4000:]}")
            for line in proc.stderr.splitlines():
                _, sep, rest = line.partition("import time:")
                fields = rest.split("|")
                if not sep or len(fields) != 3 or not fields[1].strip().isdigit():
                    continue
                module = fields[2].strip()
                if module in layers.IMPORT_MODULES:
                    samples.setdefault(layers.import_metric(module), []).append(int(fields[1]) / 1e6)
        return {k: statistics.median(v) for k, v in samples.items()}

    def _report(self, env, setups, runs, traced, import_s) -> tuple[dict, dict]:
        all_runs = runs + traced
        ops = [op for r in all_runs for op in r["ops"]]
        failed = [op for op in ops if not op["ok"]]
        values = {
            "setup_s": setups,
            "wall_s": [r["wall_s"] for r in runs],
            "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        }
        record = {
            "workload": self.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "host": self.host,
            "env": env,
            "samples": values,
            "attempted": len(ops),
            "failed": len(failed),
            "fail_ratio": len(failed) / len(ops),
            "failures": sorted({(op["id"], op["why"]) for op in failed}),
        }
        if self.trace:
            summary = traced[0]["trace"]
            overhead = traced[0]["wall_s"] - statistics.median(values["wall_s"])
            metrics = layers.layer_metrics(summary, import_s, overhead)
            record["roadmap"] = summary["roadmap"]
            record["untraced_layers"] = summary["missing"]
        else:
            metrics = {m: {"value": statistics.median(values[m]), "unit": u} for m, u in END_TO_END}
        record["metrics"] = metrics
        result = {
            "correct": not any(op.get("check") for op in failed),
            "attempted": len(ops),
            "failed": len(failed),
            "metrics": metrics,
        }
        return record, result


def tail(values: list[float]) -> tuple[str, float]:
    """Highest percentile with at least ten samples beyond it, else the maximum."""
    n = len(values)
    if n >= 20:
        q = math.floor(100 * (1 - 10 / n))
        return f"p{q}", statistics.quantiles(values, n=100)[q - 1]
    return "max", max(values)


def print_summary(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  trace {int(record['trace'])}")
    for name, unit in END_TO_END:
        vals = record["samples"][name]
        if not vals:
            continue
        label, top = tail(vals)
        print(f"  {name:<12} {statistics.median(vals):12.4f} {unit:<3} median  "
              f"{top:.4f} {label}  n={len(vals)}")
    print(f"  {'fail_ratio':<12} {record['fail_ratio']:12.4f} 1   "
          f"{record['failed']}/{record['attempted']} operations failed")
    for op_id, why in record["failures"]:
        print(f"    failed {op_id}: {why}")
    for row in record.get("roadmap", []):
        print("  roadmap " + json.dumps(row))


def check_metric_names(root: Path, metrics: dict, trace: bool) -> None:
    bench = root / "BENCHMARK.json"
    if not bench.exists():
        return
    listed = {m["name"] for m in json.loads(bench.read_text())["per_layer" if trace else "end_to_end"]}
    if listed != set(metrics):
        raise BenchError(f"metrics do not match BENCHMARK.json: {sorted(listed ^ set(metrics))}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        if not (root / "src" / "fraclab" / "__init__.py").is_file():
            raise BenchError(f"no fraclab sources under {root / 'src'}; run from the repository root")
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            record, result = Runner(root, name, args.seed, args.seconds, bool(args.trace)).run()
            check_metric_names(root, result["metrics"], bool(args.trace))
            results[name] = result
            out = root / STATE_DIR / "results"
            out.mkdir(parents=True, exist_ok=True)
            stamp = time.strftime("%Y%m%dT%H%M%S")
            (out / f"{name}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
                json.dumps(record, indent=1))
            print_summary(record)
            print("record " + json.dumps(record))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
