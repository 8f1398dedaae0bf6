"""One run of one workload, in a fresh process.

Usage: python3 child.py SPEC_JSON RESULT_JSON MODE
where MODE is `setup` (import and load configs only), `run` or `trace`.

Set-up ends when `import fraclab.cli` and `ExperimentConfig.load` of every
config of the run have returned; the parent measures it from the moment it
spawned this process, on the shared monotonic clock.  `wall_s` runs from the
end of set-up until the last subcommand or oracle call returns.  Output
checks run after that and are not timed.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_cli(cli, spec: dict) -> list[str | None]:
    errors = []
    for task in spec["tasks"]:
        try:
            rc = cli.run(task["subcommand"], task["config_path"], task["out"])
            errors.append(None if rc == 0 else f"exit code {rc}")
        except Exception as exc:  # an exception escaping cli.run is a failed operation
            errors.append(f"{type(exc).__name__}: {exc}")
    return errors


def _run_oracles(fraclab, spec: dict) -> list[dict]:
    outcomes = []
    for call in spec["calls"]:
        fn = getattr(fraclab, call["fn"])
        try:
            res = fn(*call["args"], **call["kwargs"])
        except Exception as exc:  # recorded as a failed operation, never aborts the run
            outcomes.append({"error": f"{type(exc).__name__}: {exc}"})
            continue
        if call["fn"] == "hardy_constant":
            outcomes.append({"value": res.value, "error_estimate": res.error_estimate})
        elif call["fn"] == "hardy_constant_mc":
            outcomes.append({"value": res[0], "stderr": res[1]})
        else:
            outcomes.append({"value": res})
    return outcomes


def main(argv: list[str]) -> int:
    spec_path, result_path, mode = argv
    spec = json.loads(Path(spec_path).read_text())

    import fraclab.cli as cli

    for task in spec.get("tasks", []):
        cli.ExperimentConfig.load(task["subcommand"], task["config_path"])
    t_setup = time.monotonic()
    result: dict = {"t_setup": t_setup}
    if mode == "setup":
        from env_stamp import program_env

        result["env"] = program_env()
        Path(result_path).write_text(json.dumps(result))
        return 0

    import fraclab

    recorder = None
    if mode == "trace":
        import layers

        recorder = layers.Recorder()
        recorder.install()
    t0 = time.monotonic()
    if "tasks" in spec:
        errors = _run_cli(cli, spec)
    else:
        outcomes = _run_oracles(fraclab, spec)
    result["wall_s"] = time.monotonic() - t0
    result["peak_rss_mb"] = _maxrss_mb()

    import checks

    if "tasks" in spec:
        result["ops"] = checks.check_cli(spec, errors)
    else:
        out = Path(spec["out"]) / "oracles.json"
        out.write_text(json.dumps([{**c, **o} for c, o in zip(spec["calls"], outcomes)], indent=1))
        result["ops"] = checks.check_oracles(fraclab, spec["calls"], outcomes)
    if recorder is not None:
        result["trace"] = recorder.dump(spec["trace_path"])
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
