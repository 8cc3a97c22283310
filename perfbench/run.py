"""The repository benchmark: one command, one workload, every metric checked.

Usage, from the repository root::

    python3 perfbench/run.py --workload {large-states,classify-survey,twin-batch}
        --seed N --seconds S --trace {0,1}

Each measurement runs in a fresh interpreter (``worker.py``) started with
the ``REPRO_*`` variables cleared, so the engine runs its defaults apart
from each workload's size limits; engine workers are capped at the number
of usable CPUs.  The workload is a closed loop from a single caller: the
next op starts when the previous one returned.  A run times as many whole
units (see ``workloads.py``) as fit in ``--seconds`` at their nominal cost,
at least one; short-op workloads first run a few ops untimed to warm up.

``--trace 0`` prints the end-to-end metrics: throughput and latency are
medians over the units, set-up time is the median of several fresh
interpreters brought to "first op ready".
``--trace 1`` then replays the same ops in another interpreter with spans
at every layer entry point (``spans.py``) and prints the per-layer
metrics; ``trace.overhead_ratio`` compares the traced and untraced walls.

The last line of standard output is the result object; the line before it
records the environment.  Both, with the op errors, are also written to
``perfbench/results/``.  The exit code is 0 only when every op succeeded
and every output matched.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 9
# Whole run, children included, must end within the 180 s a run may take.
RUN_BUDGET_S = 170.0

sys.path.insert(0, str(HERE))
import metrics  # noqa: E402


def _environment(seed: int) -> dict[str, str]:
    # Bytecode caching stays on, as for an installed package: the first
    # interpreter in a checkout compiles and the rest reuse the cache, so
    # set-up time does not depend on the caller's environment.
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_") and key != "PYTHONDONTWRITEBYTECODE"
    }
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part
    )
    # Set iteration order follows the hash seed; derive it from the run's
    # seed so a run is reproducible and different seeds still vary it.
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def _child(args: list[str], env: dict[str, str], deadline: float) -> dict:
    command = [sys.executable, str(HERE / "worker.py"), *args]
    completed = subprocess.run(
        [*command, "--spawned-at", repr(time.monotonic())],
        env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"benchmark worker failed with exit code {completed.returncode}")
    return json.loads(completed.stdout.splitlines()[-1])


def _source_lines() -> int:
    return sum(
        len(path.read_text().splitlines()) for path in (ROOT / "src" / "repro").rglob("*.py")
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no engine source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    env = _environment(args.seed)
    nproc = len(os.sched_getaffinity(0))
    common = ["--workload", args.workload, "--seed", str(args.seed), "--workers", str(nproc)]
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    run = _child([*common, "--seconds", str(args.seconds)], env, deadline)
    errors = list(run["errors"])
    if args.trace:
        # The traced run replays exactly the units the untraced run timed.
        traced = _child(
            [*common, "--units", str(run["units"]),
             "--trace", str(results_dir / f"{stem}-spans.jsonl")],
            env, deadline,
        )
        errors += traced["errors"]
        values = metrics.per_layer(
            traced["trace"]["table"], traced["trace"]["counters"],
            traced["timed_s"], run["timed_s"],
        )
        missing = metrics.missing_layers(args.workload, values)
        errors += [f"traced run recorded no {name}" for name in missing]
        units = dict(metrics.per_layer_names())
        outcomes = traced["outcomes"]
    else:
        setups = [run["setup_s"]] + [
            _child([*common, "--setup-only"], env, deadline)["setup_s"]
            for _ in range(SETUP_PROBES)
        ]
        values = metrics.end_to_end(
            setups, run["outcomes"], run["latencies"], run["unit_walls"], run["peak_rss_mb"]
        )
        units = dict(metrics.END_TO_END)
        outcomes = run["outcomes"]

    baseline = json.loads((HERE / "baseline_env.json").read_text())
    env_record = {
        **run["env"],
        "nproc": nproc,
        "seed": args.seed,
        "workload": args.workload,
        "src_repro_lines": _source_lines(),
        "limit_ratio": outcomes.count("limit") / len(outcomes),
        "error_ratio": outcomes.count("error") / len(outcomes),
        "comparable": all(run["env"][key] == baseline[key] for key in baseline),
    }
    if run["env"]["workers"] > nproc:
        errors.append(f"engine ran {run['env']['workers']} workers on {nproc} CPUs")
    if not env_record["comparable"]:
        print(
            f"warning: kernel/executor {run['env']['kernel']}/{run['env']['executor']} "
            f"differ from the baseline {baseline}; do not compare these figures",
            file=sys.stderr,
        )
    failed = outcomes.count("error")
    correct = not errors
    result = metrics.result_line(correct, len(outcomes), failed, values, units)
    (results_dir / f"{stem}.json").write_text(
        json.dumps({"env": env_record, "result": result, "errors": errors}, indent=1) + "\n"
    )
    for error in errors[:20]:
        print(f"error: {error}", file=sys.stderr)
    print(json.dumps({"env": env_record}))
    print(json.dumps(result))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
