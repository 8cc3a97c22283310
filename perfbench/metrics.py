"""Metric definitions: the traced layers and how run records become metrics.

Pure Python with no engine import, so the result assembly is testable on
synthetic records.
"""

from __future__ import annotations

import statistics
from collections.abc import Mapping, Sequence
from typing import Any

WORKLOADS = ("large-states", "classify-survey", "twin-batch")

# (layer, entry points) -- ``module:function`` or ``module:Class.method``.
# ``workloads:serialise`` is the benchmark's own JSON encoding call.
LAYERS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("engine.speedup", ("repro.engine.engine:Engine.speedup",)),
    ("engine.cache", (
        "repro.engine.cache:SpeedupCache.acquire",
        "repro.engine.cache:SpeedupCache.store",
    )),
    ("core.canonical", (
        "repro.core.canonical:canonical_form",
        "repro.core.canonical:canonical_hash",
    )),
    ("core.speedup.half_step", ("repro.core.speedup:half_step",)),
    ("core.galois.closed_sets", (
        "repro.core.galois:Compatibility.closed_masks",
        "repro.core.galois:Compatibility.usable_closed_masks",
    )),
    ("core.speedup.full_step", ("repro.core.speedup:full_step",)),
    ("core.zero_round.decide", (
        "repro.engine.engine:Engine.zero_round_solvable",
        "repro.core.zero_round:ZeroRoundMemo.check",
        "repro.core.zero_round:ZeroRoundMemo.lookup",
        "repro.core.zero_round:is_zero_round_solvable",
    )),
    ("core.zero_round.witness", (
        "repro.core.zero_round:zero_round_with_orientations",
        "repro.core.zero_round:zero_round_no_input",
    )),
    ("search.moves", ("repro.search.moves:generate_moves",)),
    ("search.hardenings", ("repro.search.moves:generate_hardenings",)),
    ("core.relaxation.certify", (
        "repro.core.relaxation:certify_relaxation",
        "repro.core.relaxation:certify_hardening",
    )),
    ("core.certificate.verify", (
        "repro.core.certificate:LowerBoundCertificate.verify",
        "repro.core.certificate:UpperBoundCertificate.verify",
        "repro.search.classify:ComplexityBracket.verify",
    )),
    ("core.isomorphism", ("repro.core.isomorphism:find_isomorphism",)),
    ("core.problem.serialise", (
        "repro.core.problem:Problem.to_dict",
        "repro.core.speedup:SpeedupResult.to_dict",
        "workloads:serialise",
    )),
    ("engine.executor.batch", (
        "repro.engine.executor:run_task_batch",
        "repro.engine.executor:speedup_batch",
        "repro.engine.executor:run_batch",
    )),
    ("engine.executor.task", ("repro.engine.executor:_timed_execute",)),
)
BATCH_LAYER = "engine.executor.batch"
TASK_LAYER = "engine.executor.task"
# Every derivation, timed to charge the ones that end in a limit trip.
DERIVATION_TARGETS = ("repro.core.speedup:compute_speedup",)

# Layers each workload exists to exercise: a traced run in which one of them
# records no call fails, so a missed patch cannot read as zero.
EXERCISED: Mapping[str, tuple[str, ...]] = {
    "large-states": (
        "engine.speedup", "engine.cache", "core.canonical",
        "core.speedup.half_step", "core.galois.closed_sets",
        "core.speedup.full_step", "core.problem.serialise",
    ),
    "classify-survey": (
        "engine.speedup", "core.speedup.full_step", "core.zero_round.decide",
        "search.moves", "search.hardenings", "core.relaxation.certify",
        "core.certificate.verify", "engine.executor.batch",
        "engine.executor.task",
    ),
    "twin-batch": (
        "engine.speedup", "engine.cache", "core.canonical",
        "core.galois.closed_sets", "core.zero_round.witness",
        "core.isomorphism", "engine.executor.batch", "engine.executor.task",
    ),
}
# Workloads whose runs must include limit trips.
TRIPS_EXPECTED = ("large-states", "twin-batch")

END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("peak_rss_mb", "MB"),
    ("completed_ratio", "ratio"),
)

PER_LAYER_EXTRA: tuple[tuple[str, str], ...] = (
    ("engine.cache.hit_ratio", "ratio"),
    ("core.speedup.limit_trip_s", "s"),
    ("core.speedup.limit_trips", "count"),
    ("core.speedup.useful_ratio", "ratio"),
    ("core.zero_round.memo_hit_ratio", "ratio"),
    ("engine.executor.task_s", "s"),
    ("engine.executor.concurrency", "ratio"),
    ("unattributed_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def per_layer_names() -> list[tuple[str, str]]:
    names: list[tuple[str, str]] = []
    for layer, _targets in LAYERS:
        names.append((f"{layer}.calls", "count"))
        names.append((f"{layer}.self_s", "s"))
    return names + list(PER_LAYER_EXTRA)


def percentile(values: Sequence[float], fraction: float) -> float:
    """Inclusive-method percentile (stays within the observed range)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(
    setup_samples: Sequence[float],
    outcomes: Sequence[str],
    unit_latencies: Sequence[Sequence[float]],
    unit_walls: Sequence[float],
    peak_rss_mb: float,
) -> dict[str, float]:
    """The user-visible metrics of one untraced run.

    Every attempted op contributes one latency sample, whatever its outcome.
    Throughput and latency are medians over the run's units (each a whole
    pass of the workload), so a burst of load on the machine that slows one
    unit does not move them.
    """
    return {
        "setup_s": statistics.median(setup_samples),
        "throughput_ops_s": statistics.median(
            len(samples) / wall for samples, wall in zip(unit_latencies, unit_walls)
        ),
        "latency_p50_s": statistics.median(percentile(samples, 0.5) for samples in unit_latencies),
        "latency_p90_s": statistics.median(percentile(samples, 0.9) for samples in unit_latencies),
        "peak_rss_mb": peak_rss_mb,
        "completed_ratio": outcomes.count("ok") / len(outcomes),
    }


def per_layer(
    table: Mapping[str, Mapping[str, float]],
    counters: Mapping[str, float],
    traced_s: float,
    untraced_s: float,
) -> dict[str, float]:
    """The per-layer metrics of one traced run.

    ``table`` is :func:`spans.summarise` output; ``counters`` carries the
    derivation and cache/memo counts of the traced run.
    """
    values: dict[str, float] = {}
    for layer, _targets in LAYERS:
        row = table.get(layer, {"calls": 0, "self_s": 0.0})
        values[f"{layer}.calls"] = row["calls"]
        values[f"{layer}.self_s"] = row["self_s"]
    task_s = table.get(TASK_LAYER, {}).get("total_s", 0.0)
    batch_s = table.get(BATCH_LAYER, {}).get("total_s", 0.0)
    values.update({
        "engine.cache.hit_ratio": _ratio(
            counters["cache_hits"], counters["cache_hits"] + counters["cache_misses"]
        ),
        "core.speedup.limit_trip_s": counters["limit_trip_s"],
        "core.speedup.limit_trips": counters["limit_trips"],
        "core.speedup.useful_ratio": _ratio(
            counters["derivations"] - counters["limit_trips"], counters["derivations"]
        ),
        "core.zero_round.memo_hit_ratio": _ratio(
            counters["memo_hits"], counters["memo_hits"] + counters["memo_misses"]
        ),
        "engine.executor.task_s": task_s,
        "engine.executor.concurrency": _ratio(task_s, batch_s),
        "unattributed_s": table["unattributed"]["self_s"],
        "trace.overhead_ratio": traced_s / untraced_s - 1.0,
    })
    return values


def missing_layers(workload: str, values: Mapping[str, float]) -> list[str]:
    """Exercised layers (and limit trips) the traced run never recorded."""
    missing = [layer for layer in EXERCISED[workload] if not values[f"{layer}.calls"]]
    if workload in TRIPS_EXPECTED and not values["core.speedup.limit_trips"]:
        missing.append("core.speedup.limit_trips")
    return missing


def result_line(
    correct: bool, attempted: int, failed: int, values: Mapping[str, float],
    units: Mapping[str, str],
) -> dict[str, Any]:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    }
