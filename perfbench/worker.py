"""One benchmark process: set up the engine, run a workload, check its outputs.

``run.py`` starts this script in a fresh interpreter for every measurement
and reads the JSON object it prints last.  Set-up time runs from the
moment the parent started this process to the first op being ready:
interpreter start, ``import repro``, engine construction and the first-use
numpy import.  Input generation and output checks stay outside all timings.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import threading
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--units", type=int, help="run this many units (default: from --seconds)")
    parser.add_argument("--trace", metavar="FILE", help="trace the run; write spans to FILE")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import workloads
    from repro.core.vectorkernel import get_numpy

    engine = workloads.make_engine(args.workload, args.workers)
    numpy = get_numpy()
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    return measure(args, engine, setup_s, numpy)


def measure(args: argparse.Namespace, engine, setup_s: float, numpy) -> int:
    import metrics
    import spans
    import workloads
    from repro.core.vectorkernel import resolve_kernel

    reference = json.loads((Path(__file__).parent / "reference.json").read_text())
    tracer = None
    if args.trace:
        tracer = spans.Tracer(metrics.BATCH_LAYER)
        spans.install(
            tracer, metrics.LAYERS, metrics.DERIVATION_TARGETS, ("repro", "workloads")
        )

    def set_op(index: int) -> None:
        if tracer is not None:
            tracer.op = index

    stream = workloads.units(args.workload, args.seed)
    workloads.warm_up(args.workload, engine, stream)
    records: list = []
    latencies: list[list[float]] = []
    unit_walls: list[float] = []
    counters = {"cache_hits": 0, "cache_misses": 0, "memo_hits": 0, "memo_misses": 0}
    if args.units is None:
        args.units = workloads.unit_count(args.workload, args.seconds)
    for _unit in range(args.units):
        unit = next(stream)
        # Also zeroes the hit/miss counters read after the unit.
        engine.clear_cache()
        if tracer is not None:
            tracer.enabled = True
        start = time.perf_counter()
        unit_records = workloads.run_unit(args.workload, engine, unit, set_op, len(records))
        unit_walls.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.enabled = False
        for name, stats in (("cache", engine.cache_stats()), ("memo", engine.zero_round_stats())):
            counters[f"{name}_hits"] += stats["hits"]
            counters[f"{name}_misses"] += stats["misses"]
        for record in unit_records:
            problem = workloads.check_record(args.workload, record, reference)
            if problem is not None:
                record.outcome, record.detail = workloads.ERROR, problem
            record.output = None
        records.extend(unit_records)
        latencies.append([record.latency_s for record in unit_records])

    timed_s = sum(unit_walls)
    report = {
        "setup_s": setup_s,
        "timed_s": timed_s,
        "units": args.units,
        "unit_walls": unit_walls,
        "outcomes": [record.outcome for record in records],
        "latencies": latencies,
        "errors": [f"{r.key}: {r.detail}" for r in records if r.outcome == workloads.ERROR],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": {
            "kernel": resolve_kernel(engine.config.kernel),
            "executor": engine.config.executor,
            "workers": engine.config.max_workers,
            "python": sys.version.split()[0],
            "numpy": None if numpy is None else numpy.__version__,
        },
    }
    if tracer is not None:
        table = spans.summarise(
            tracer.spans, (layer for layer, _ in metrics.LAYERS),
            threading.get_ident(), timed_s,
        )
        report["trace"] = {
            "table": table,
            "counters": {
                **counters,
                "derivations": tracer.derivations,
                "limit_trips": tracer.limit_trips,
                "limit_trip_s": tracer.limit_trip_s,
            },
        }
        with open(args.trace, "w") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(dataclasses.asdict(span)) + "\n")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
