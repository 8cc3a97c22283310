"""The benchmark's workloads: seeded inputs, the timed operations, the checks.

Every input is built from the run's seed: the seed picks label renamings,
the order of operations and (for ``classify-survey``) which problems of a
fixed random pool are classified.  The engine only ever sees the generated
problems.  Outputs are checked against answers written by hand and against
``reference.json`` (see ``record_reference.py``), keyed so that the check
holds for every seed: derived problems are compared through renaming-
invariant fingerprints.

Why these three workloads (see also ``BENCHMARK.json``):

* ``large-states`` -- the 976-label derived states, where materialisation,
  canonical hashing, serialisation and the closed-set fold dominate, and
  where a derivation that trips ``max_derived_labels`` is the main cost.
  It bypasses the executor, relaxation moves and the 0-round decision.
* ``classify-survey`` -- hundreds of tiny problems through the two-sided
  classifier: per-call overhead (0-round memo, moves, hardenings,
  certificate verification, beam dispatch) dominates; canonical hashing of
  big states and serialisation barely run.
* ``twin-batch`` -- one ``run_many`` batch where each catalog problem comes
  three times under different renamings: the first twin stores in the
  cache, the others hit and translate, limit trips are paid by every twin,
  and isomorphism checks and 0-round witnesses on 46-220-label states show.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from hashlib import sha256
from time import perf_counter
from typing import Any

from repro import Engine, EngineConfig
from repro.core.canonical import canonical_hash
from repro.core.limits import EngineLimitError
from repro.core.problem import Problem
from repro.engine.resilience import TaskFailure
from repro.problems.catalog import get_problem

from metrics import WORKLOADS

# (max_derived_labels, max_candidate_configs) per workload.
LIMITS = {
    "large-states": (20_000, 500_000),
    "classify-survey": (500, 10_000),
    "twin-batch": (2_000, 50_000),
}

# (family, delta, derived labels of Pi_1) -- the label counts are the
# hand-checked known answers.
LARGE_STATES = (
    ("4-coloring", 2, 164),
    ("weak-3-coloring", 2, 976),
    ("superweak-3-coloring", 2, 976),
)

# The fast catalog families; each appears TWINS times per batch.
TWIN_FAMILIES = (
    ("mis", 2), ("mis", 3),
    ("3-coloring", 2), ("3-coloring", 3),
    ("maximal-matching", 2), ("maximal-matching", 3),
    ("sinkless-coloring", 3), ("sinkless-coloring", 4),
    ("sinkless-orientation", 3), ("sinkless-orientation", 4),
    ("weak-2-coloring", 3), ("weak-2-coloring", 4),
)
TWINS = 3
TWIN_STEPS = 3

SURVEY_CATALOG = (
    ("indegree-handshake", 2),
    ("sinkless-orientation", 3),
    ("mis", 2),
    ("3-coloring", 2),
    ("maximal-matching", 3),
)
# Hand-written answers: (verdict, min_rounds, max_rounds, unbounded).
SURVEY_KNOWN = {
    "indegree-handshake/2": ["tight", 1, 1, False],
    "sinkless-orientation/3": ["tight", None, None, True],
}
SURVEY_STEPS = 2
# The random problems are fixed (their own seed): every problem then has a
# recorded answer, and every run carries the same mix of op costs, which is
# heavy-tailed (a few problems take seconds, most a few milliseconds), so
# sampling a different subset per seed would swamp any engine change.  The
# run's seed renames the problems and orders the survey.
POOL_SEED = 1_000_003
POOL_SIZE = 400

OK, LIMIT, ERROR = "ok", "limit", "error"

# The wall of one unit on a 2-CPU machine.  A run times as many whole units
# as fit in its ``--seconds`` at these costs, and at least one, so the work
# a run measures follows from its arguments alone, never from how fast the
# machine happened to be while it ran.
UNIT_SECONDS = {"large-states": 18.0, "classify-survey": 7.0, "twin-batch": 22.0}
# classify-survey's ops are short, so first-use costs (lazy imports, the
# first numpy calls, allocator growth) would show in its first unit: this
# many ops of an extra survey run untimed before it.
WARMUP_OPS = {"classify-survey": 40}

# Every unit starts from an empty cache and 0-round memo: both are blind to
# renamings, so a second pass, survey or batch would otherwise be all hits.


@dataclass
class OpRecord:
    """One operation as the caller saw it, plus what the check needs."""

    key: str
    latency_s: float
    outcome: str
    detail: str = ""
    output: Any = field(default=None, repr=False)


def make_engine(workload: str, workers: int) -> Engine:
    labels, configs = LIMITS[workload]
    return Engine(
        EngineConfig(
            max_derived_labels=labels,
            max_candidate_configs=configs,
            max_workers=workers,
        )
    )


def family_key(name: str, delta: int) -> str:
    return f"{name}/{delta}"


def renamed_by(problem: Problem, permutation: Sequence[int]) -> Problem:
    """``problem`` with its ``i``-th label (in sorted order) renamed ``q<permutation[i]>``."""
    labels = sorted(problem.labels)
    return problem.renamed({label: f"q{image}" for label, image in zip(labels, permutation)})


def random_permutation(rng: random.Random, size: int) -> list[int]:
    permutation = list(range(size))
    rng.shuffle(permutation)
    return permutation


def renamed(problem: Problem, rng: random.Random) -> Problem:
    """``problem`` under a random renaming of its labels."""
    return renamed_by(problem, random_permutation(rng, len(problem.labels)))


def permutation_key(permutation: Sequence[int]) -> str:
    return ".".join(map(str, permutation))


def random_problem(rng: random.Random, index: int) -> Problem:
    """Delta 2 or 3, 2-4 labels, 1-5 edge and 1-5 node configurations."""
    delta = rng.choice((2, 3))
    alphabet = [f"a{j}" for j in range(rng.randint(2, 4))]
    edges = {tuple(sorted(rng.choices(alphabet, k=2))) for _ in range(rng.randint(1, 5))}
    nodes = {tuple(sorted(rng.choices(alphabet, k=delta))) for _ in range(rng.randint(1, 5))}
    return Problem.make(
        name=f"pool-{index}", delta=delta, edge_configs=edges,
        node_configs=nodes, labels=alphabet,
    )


def random_pool() -> list[Problem]:
    rng = random.Random(POOL_SEED)
    return [random_problem(rng, index) for index in range(POOL_SIZE)]


def fingerprint(problem: Problem) -> str:
    """A renaming-invariant identity of a problem.

    The canonical hash when it is renaming-invariant (``canon:``).  Highly
    symmetric problems hash by their label names (``exact:``); for them,
    a digest of the colour-refined quotient (labels coloured by iterated
    edge and node-configuration neighbourhoods) stands in.
    """
    key = canonical_hash(problem)
    if key.startswith("canon:"):
        return key
    labels = sorted(problem.labels)
    index = {label: position for position, label in enumerate(labels)}
    edges = [(index[a], index[b]) for a, b in problem.edge_constraint]
    nodes = [tuple(index[label] for label in config) for config in problem.node_constraint]
    colour = [0] * len(labels)
    for _round in labels:
        partners: list[list[int]] = [[] for _ in labels]
        for a, b in edges:
            partners[a].append(colour[b])
            partners[b].append(colour[a])
        profiles = [tuple(sorted(colour[i] for i in config)) for config in nodes]
        rank = {profile: r for r, profile in enumerate(sorted(set(profiles)))}
        occurrences: list[list[tuple[int, int]]] = [[] for _ in labels]
        for config, profile in zip(nodes, profiles):
            for i in set(config):
                occurrences[i].append((config.count(i), rank[profile]))
        keyed = [
            (colour[i], tuple(sorted(partners[i])), tuple(sorted(occurrences[i])))
            for i in range(len(labels))
        ]
        palette = {key: r for r, key in enumerate(sorted(set(keyed)))}
        stable = len(palette) == len(set(colour))
        colour = [palette[key] for key in keyed]
        if stable:
            break
    quotient = (
        problem.delta,
        sorted(Counter(colour).items()),
        sorted(Counter(
            (colour[a], colour[b]) if colour[a] <= colour[b] else (colour[b], colour[a])
            for a, b in edges
        ).items()),
        sorted(Counter(tuple(sorted(colour[i] for i in config)) for config in nodes).items()),
    )
    return "refined:" + sha256(repr(quotient).encode()).hexdigest()


def serialise(result: Any) -> str:
    """The JSON wire form of a derivation (part of a large-states op)."""
    return json.dumps(result.to_dict(), sort_keys=True)


# -- seeded inputs ---------------------------------------------------------------
#
# Each workload yields *units*: the smallest piece the timed loop runs whole.
# A large-states unit is one pass (three problems, two ops each), a
# classify-survey unit is one survey (every catalog row and pool problem
# once), a twin-batch unit is one batch.


def units(workload: str, seed: int) -> Iterator[list[tuple[str, Problem]]]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "large-states":
        while True:
            unit = [
                (family_key(name, delta), renamed(get_problem(name, delta), rng))
                for name, delta, _labels in LARGE_STATES
            ]
            rng.shuffle(unit)
            yield unit
    elif workload == "twin-batch":
        while True:
            batch = [
                (family_key(name, delta), renamed(get_problem(name, delta), rng))
                for name, delta in TWIN_FAMILIES
                for _twin in range(TWINS)
            ]
            rng.shuffle(batch)
            yield batch
    elif workload == "classify-survey":
        pool = random_pool()
        rows = [(family_key(name, delta), get_problem(name, delta)) for name, delta in SURVEY_CATALOG]
        while True:
            survey = [(key, renamed(problem, rng)) for key, problem in rows]
            # The classifier's search is not renaming-invariant (a renamed
            # twin can get another valid bracket), so the reference holds an
            # answer per renaming of each pool problem; the key names it.
            for index, problem in enumerate(pool):
                permutation = random_permutation(rng, len(problem.labels))
                survey.append((
                    f"pool/{index}/{permutation_key(permutation)}",
                    renamed_by(problem, permutation),
                ))
            rng.shuffle(survey)
            yield survey
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def unit_count(workload: str, seconds: float) -> int:
    """How many whole units a run of ``seconds`` times."""
    return max(1, int(seconds // UNIT_SECONDS[workload]))


def describe_units(workload: str, seed: int, count: int) -> str:
    """The first ``count`` units as canonical JSON (for determinism tests)."""
    stream = units(workload, seed)
    return json.dumps(
        [[[key, problem.to_dict()] for key, problem in next(stream)] for _ in range(count)],
        sort_keys=True,
    )


# -- timed operations --------------------------------------------------------------


def run_unit(
    workload: str,
    engine: Engine,
    unit: list[tuple[str, Problem]],
    set_op: Callable[[int], None],
    first_op: int,
) -> list[OpRecord]:
    """Run one unit as a closed loop; every op gets exactly one record.

    ``set_op`` is told the index of each op as it starts (the tracer tags
    spans with it).
    """
    run = {"large-states": _large_states, "classify-survey": _classify}.get(workload, _twin_batch)
    return run(engine, unit, set_op, first_op)


def warm_up(workload: str, engine: Engine, stream: Iterator[list[tuple[str, Problem]]]) -> None:
    """Run the untimed warm-up ops of ``workload`` (the start of a unit)."""
    ops = WARMUP_OPS.get(workload, 0)
    if ops:
        run_unit(workload, engine, next(stream)[:ops], lambda _index: None, 0)


def _failure(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _large_states(engine, unit, set_op, first_op):
    records: list[OpRecord] = []
    for key, problem in unit:
        set_op(first_op + len(records))
        start = perf_counter()
        try:
            result = engine.speedup(problem)
            payload = serialise(result)
        except Exception as exc:  # every failure is counted, never raised
            outcome = LIMIT if isinstance(exc, EngineLimitError) else ERROR
            records.append(OpRecord(f"{key}:A", perf_counter() - start, outcome, _failure(exc)))
            records.append(OpRecord(f"{key}:B", 0.0, ERROR, "op A did not derive Pi_1"))
            continue
        latency = perf_counter() - start
        records.append(OpRecord(f"{key}:A", latency, OK, output=(result.full, payload)))
        set_op(first_op + len(records))
        start = perf_counter()
        try:
            engine.speedup(result.full)
        except EngineLimitError as exc:
            records.append(OpRecord(f"{key}:B", perf_counter() - start, LIMIT, exc.limit_name))
        except Exception as exc:
            records.append(OpRecord(f"{key}:B", perf_counter() - start, ERROR, _failure(exc)))
        else:
            records.append(OpRecord(f"{key}:B", perf_counter() - start, OK))
    return records


def _classify(engine, unit, set_op, first_op):
    records = []
    for key, problem in unit:
        set_op(first_op + len(records))
        records.append(_classify_one(engine, key, problem))
    return records


def _classify_one(engine, key, problem):
    start = perf_counter()
    try:
        result = engine.classify(problem, max_steps=SURVEY_STEPS)
        check = result.bracket.verify()
    except Exception as exc:
        return OpRecord(key, perf_counter() - start, ERROR, _failure(exc))
    latency = perf_counter() - start
    stats = [result.lower_result.stats]
    if result.upper_result is not None:
        stats.append(result.upper_result.stats)
    bracket = result.bracket
    answer = [bracket.verdict, bracket.min_rounds, bracket.max_rounds, bracket.unbounded]
    if not check.valid:
        return OpRecord(key, latency, ERROR, "; ".join(check.failures))
    if any(s.task_failures for s in stats):
        return OpRecord(key, latency, ERROR, "search reported task failures")
    outcome = LIMIT if any(s.limit_hits for s in stats) else OK
    return OpRecord(key, latency, outcome, output=(problem, answer))


def _twin_batch(engine, unit, set_op, first_op):
    set_op(first_op)
    start = perf_counter()
    try:
        results = engine.run_many([problem for _key, problem in unit], max_steps=TWIN_STEPS)
    except Exception as exc:
        latency = perf_counter() - start
        return [OpRecord(key, latency, ERROR, _failure(exc)) for key, _problem in unit]
    # Every item reaches the caller when the batch returns.
    latency = perf_counter() - start
    records = []
    for (key, _problem), result in zip(unit, results):
        if isinstance(result, TaskFailure):
            records.append(OpRecord(key, latency, ERROR, f"task failure: {result.message}"))
        else:
            outcome = LIMIT if result.stopped_by_limit else OK
            records.append(OpRecord(key, latency, outcome, output=result))
    return records


# -- output checks ---------------------------------------------------------------


def twin_summary(result: Any) -> dict[str, Any]:
    """The renaming-invariant content of one elimination run."""
    return {
        "stopped_by_limit": result.stopped_by_limit,
        "labels": [len(step.problem.labels) for step in result.steps],
        "fingerprints": [fingerprint(step.problem) for step in result.steps],
        "zero_round": [step.zero_round_solvable for step in result.steps],
        "isomorphic_to": [step.isomorphic_to_step for step in result.steps],
    }


# Hand-written answers for the large states.
DERIVED_LABELS = {family_key(name, delta): labels for name, delta, labels in LARGE_STATES}
OP_B_LIMIT = "max_derived_labels"


def check_record(workload: str, record: OpRecord, reference: dict[str, Any]) -> str | None:
    """Why ``record``'s output is wrong, or None when it is right."""
    if record.outcome == ERROR:
        return None
    check = {
        "large-states": _check_large_state,
        "classify-survey": _check_classification,
        "twin-batch": _check_twin,
    }[workload]
    try:
        return check(record, reference[workload])
    except (KeyError, IndexError) as exc:
        return f"no reference answer for {record.key}: {exc!r}"


def _check_large_state(record: OpRecord, ref: dict[str, Any]) -> str | None:
    family, op = record.key.rsplit(":", 1)
    if op == "B":
        if record.outcome != LIMIT or record.detail != OP_B_LIMIT:
            return f"op B should trip {OP_B_LIMIT}, got {record.outcome} {record.detail}"
        return None
    if record.outcome != OK:
        return f"op A should derive Pi_1, got {record.outcome} {record.detail}"
    full, payload = record.output
    expected = DERIVED_LABELS[family]
    if len(full.labels) != expected:
        return f"derived {len(full.labels)} labels, expected {expected}"
    if len(json.loads(payload)["full"]["labels"]) != expected:
        return "serialised result disagrees with the derived problem"
    if fingerprint(full) != ref[family]["fingerprint"]:
        return "derived problem differs from the reference"
    return None


def _check_classification(record: OpRecord, ref: dict[str, Any]) -> str | None:
    problem, answer = record.output
    if record.key.startswith("pool/"):
        _pool, index, permutation = record.key.split("/")
        expected_hash, answers = ref["pool"][int(index)]
        if not canonical_hash(problem).endswith(expected_hash):
            return "pool problem differs from the recorded one"
        expected = answers.get(permutation, answers.get("*"))
    else:
        expected = ref["catalog"][record.key]
        known = SURVEY_KNOWN.get(record.key)
        if known is not None and answer != known:
            return f"bracket {answer} contradicts the known answer {known}"
    if answer != expected:
        return f"bracket {answer} differs from the reference {expected}"
    return None


def _check_twin(record: OpRecord, ref: dict[str, Any]) -> str | None:
    summary = twin_summary(record.output)
    if summary != ref[record.key]:
        return f"elimination run differs from the reference: {summary}"
    return None
