"""Record ``reference.json``, the answers the benchmark checks outputs against.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/record_reference.py [WORKLOAD ...]

Naming workloads re-records only those and keeps the others' answers (the
``classify-survey`` pool takes about twenty minutes).

Each answer is computed on the engine twice -- once on the problem as
generated and once under a random renaming, on a fresh engine -- and the
two must agree.  Where the frozen pre-kernel path (``repro.core._legacy``)
completes, it is cross-checked too: derived problems must match the legacy
derivation and 0-round verdicts the legacy decision.  The script refuses to
write the file when any of these checks fails.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re
import sys
import time
from pathlib import Path
from typing import NoReturn

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from repro.core import _legacy  # noqa: E402
from repro.core.limits import EngineLimitError  # noqa: E402
from repro.problems.catalog import get_problem  # noqa: E402

# The legacy derivation is attempted only within these sizes: beyond them
# it runs for minutes (mis's 19 -> 220-label step) or days (the 976-label
# states).  Inside them it may still refuse with its a-priori grid guard.
LEGACY_MAX_INPUT_LABELS = 12
LEGACY_MAX_DERIVED_LABELS = 200


def _engine(workload: str):
    return workloads.make_engine(workload, workers=len(os.sched_getaffinity(0)))


def _fail(message: str) -> NoReturn:
    raise SystemExit(f"reference not written: {message}")


def _legacy_agrees(workload: str, problem, derived) -> bool | None:
    """Does the legacy derivation of ``problem`` match ``derived``?

    None when the legacy path is not attempted or refuses the derivation.
    """
    if (
        len(problem.labels) > LEGACY_MAX_INPUT_LABELS
        or len(derived.labels) > LEGACY_MAX_DERIVED_LABELS
    ):
        return None
    labels_limit, configs_limit = workloads.LIMITS[workload]
    try:
        legacy = _legacy.compute_speedup(
            problem, max_derived_labels=labels_limit, max_candidate_configs=configs_limit
        ).full
    except EngineLimitError:
        return None
    return workloads.fingerprint(legacy) == workloads.fingerprint(derived)


def record_large_states(rng: random.Random, legacy_checked: list[str]) -> dict:
    entries = {}
    for name, delta, derived_labels in workloads.LARGE_STATES:
        key = workloads.family_key(name, delta)
        problem = get_problem(name, delta)
        full = _engine("large-states").speedup(problem).full
        if len(full.labels) != derived_labels:
            _fail(f"{key} derives {len(full.labels)} labels, not {derived_labels}")
        twin = _engine("large-states").speedup(workloads.renamed(problem, rng)).full
        if workloads.fingerprint(twin) != workloads.fingerprint(full):
            _fail(f"{key}: a renamed twin derives a different problem")
        try:
            _engine("large-states").speedup(full)
        except EngineLimitError as exc:
            if exc.limit_name != workloads.OP_B_LIMIT:
                _fail(f"{key}: speedup of Pi_1 tripped {exc.limit_name}")
        else:
            _fail(f"{key}: speedup of Pi_1 did not trip a limit")
        agrees = _legacy_agrees("large-states", problem, full)
        if agrees is False:
            _fail(f"{key}: legacy derivation differs")
        if agrees:
            legacy_checked.append(f"large-states {key} Pi_1")
        entries[key] = {"fingerprint": workloads.fingerprint(full)}
    return entries


def record_twin_batch(rng: random.Random, legacy_checked: list[str]) -> dict:
    entries = {}
    for name, delta in workloads.TWIN_FAMILIES:
        key = workloads.family_key(name, delta)
        problem = get_problem(name, delta)
        run = _engine("twin-batch").run(problem, workloads.TWIN_STEPS)
        summary = workloads.twin_summary(run)
        twin = _engine("twin-batch").run(workloads.renamed(problem, rng), workloads.TWIN_STEPS)
        if workloads.twin_summary(twin) != summary:
            _fail(f"{key}: a renamed twin runs differently")
        for previous, step in zip(run.steps, run.steps[1:]):
            agrees = _legacy_agrees("twin-batch", previous.problem, step.problem)
            if agrees is False:
                _fail(f"{key}: step {step.index} differs from the legacy derivation")
            if agrees:
                legacy_checked.append(f"twin-batch {key} step {step.index}")
        for step in run.steps:
            legacy_solvable = _legacy.zero_round_with_orientations(step.problem) is not None
            if legacy_solvable != step.zero_round_solvable:
                _fail(f"{key}: step {step.index} 0-round verdict differs from legacy")
        legacy_checked.append(f"twin-batch {key} 0-round verdicts")
        entries[key] = summary
    return entries


def _answer(engine, problem) -> list:
    result = engine.classify(problem, max_steps=workloads.SURVEY_STEPS)
    if not result.bracket.verify().valid:
        _fail(f"bracket of {problem.name} does not verify")
    bracket = result.bracket
    return [bracket.verdict, bracket.min_rounds, bracket.max_rounds, bracket.unbounded]


def record_classify(rng: random.Random, legacy_checked: list[str]) -> dict:
    catalog = {}
    for name, delta in workloads.SURVEY_CATALOG:
        key = workloads.family_key(name, delta)
        problem = get_problem(name, delta)
        answer = _answer(_engine("classify-survey"), problem)
        for permutation in _renamings(problem, rng):
            renamed = workloads.renamed_by(problem, permutation)
            if _answer(_engine("classify-survey"), renamed) != answer:
                _fail(f"{key}: a renamed twin classifies differently")
        known = workloads.SURVEY_KNOWN.get(key)
        if known is not None and answer != known:
            _fail(f"{key}: {answer} contradicts the known answer {known}")
        catalog[key] = answer
    pool = workloads.random_pool()
    rows = []
    for index, problem in enumerate(pool):
        # Every renaming a run can draw, each on a fresh engine.
        answers = {
            workloads.permutation_key(permutation): _answer(
                _engine("classify-survey"), workloads.renamed_by(problem, permutation)
            )
            for permutation in itertools.permutations(range(len(problem.labels)))
        }
        legacy_trivial = _legacy.is_zero_round_solvable(problem, orientations=True)
        if any(legacy_trivial != (answer[1] == 0) for answer in answers.values()):
            _fail(f"pool/{index}: 0-round verdict differs from legacy")
        if len({json.dumps(answer) for answer in answers.values()}) == 1:
            answers = {"*": next(iter(answers.values()))}
        rows.append([workloads.canonical_hash(problem)[-16:], answers])
        if index % 200 == 0:
            print(f"pool/{index}", file=sys.stderr, flush=True)
    legacy_checked.append("classify-survey pool 0-round verdicts")
    # Runs share one engine across ops in a seeded order: answers must not
    # depend on what the engine classified before.
    shared = _engine("classify-survey")
    for index in rng.sample(range(len(pool)), len(pool)):
        permutation = workloads.random_permutation(rng, len(pool[index].labels))
        answers = rows[index][1]
        expected = answers.get(workloads.permutation_key(permutation), answers.get("*"))
        if _answer(shared, workloads.renamed_by(pool[index], permutation)) != expected:
            _fail(f"pool/{index}: the answer depends on the engine's history")
    return {"catalog": catalog, "pool": rows}


def _renamings(problem, rng: random.Random, sample: int = 30):
    """All renamings of a small alphabet, else ``sample`` random ones."""
    size = len(problem.labels)
    if size <= 4:
        return list(itertools.permutations(range(size)))
    return [workloads.random_permutation(rng, size) for _ in range(sample)]


def main(argv: list[str]) -> int:
    recorders = {
        "large-states": record_large_states,
        "twin-batch": record_twin_batch,
        "classify-survey": record_classify,
    }
    path = Path(__file__).resolve().parent / "reference.json"
    chosen = argv or list(recorders)
    if not set(chosen) <= set(recorders):
        _fail(f"unknown workloads {sorted(set(chosen) - set(recorders))}")
    # Recording a subset keeps the other workloads' answers.
    reference = json.loads(path.read_text()) if argv and path.exists() else {}
    checked = [
        entry for entry in reference.get("legacy_cross_checked", [])
        if entry.split()[0] not in chosen
    ]
    rng = random.Random(0)
    for workload in chosen:
        start = time.perf_counter()
        reference[workload] = recorders[workload](rng, checked)
        print(f"{workload}: recorded in {time.perf_counter() - start:.1f}s", file=sys.stderr)
    reference["legacy_cross_checked"] = checked
    path.write_text(dump(reference))
    print(f"wrote {path}", file=sys.stderr)
    return 0


def dump(reference: dict) -> str:
    """Indented JSON with one line per pool row and per list of scalars."""
    survey = dict(reference["classify-survey"])
    rows = survey.pop("pool")
    text = json.dumps({**reference, "classify-survey": survey}, indent=1, sort_keys=True)
    text = re.sub(
        r"\[\s+([^\[\]{}]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text
    )
    pool = ",\n".join("   " + json.dumps(row, sort_keys=True) for row in rows)
    return text.replace(
        '"classify-survey": {', '"classify-survey": {\n  "pool": [\n' + pool + "\n  ],", 1
    ) + "\n"


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
