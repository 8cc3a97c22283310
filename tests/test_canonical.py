"""Regression tests for the renaming-invariant canonical form.

The canonical key addresses the engine's caches, including on-disk ones,
so it must not drift: neither with the order in which a problem's
constraints were listed nor with changes to how the key is computed.
"""

import random

import pytest

from repro.core.canonical import canonical_form, canonical_hash
from repro.core.problem import Problem
from repro.core.speedup import compute_speedup
from repro.problems.catalog import catalog, get_problem


def _shuffled(problem: Problem, seed: int) -> Problem:
    """The same problem rebuilt from shuffled, pair-swapped constraint lists."""
    rng = random.Random(seed)
    edges = [pair[::-1] if rng.random() < 0.5 else pair for pair in problem.edge_constraint]
    nodes = [tuple(rng.sample(config, len(config))) for config in problem.node_constraint]
    labels = list(problem.labels)
    for items in (edges, nodes, labels):
        rng.shuffle(items)
    return Problem.make(problem.name, problem.delta, edges, nodes, labels=labels)


@pytest.fixture(scope="module")
def four_coloring_pi1() -> Problem:
    return compute_speedup(get_problem("4-coloring", 2), kernel="mask").full


@pytest.mark.parametrize(
    "name,delta", [("sinkless-coloring", 3), ("mis", 3), ("3-coloring", 2), ("weak-2-coloring", 3)]
)
def test_shuffled_construction_keeps_key_and_ordering(name, delta):
    problem = get_problem(name, delta)
    form = canonical_form(problem)
    for seed in range(5):
        assert canonical_form(_shuffled(problem, seed)) == form


def test_shuffled_construction_keeps_exact_fallback(four_coloring_pi1):
    form = canonical_form(four_coloring_pi1)
    assert form.key.startswith("exact:")
    for seed in range(3):
        assert canonical_form(_shuffled(four_coloring_pi1, seed)) == form


PINNED_EXACT_KEY = "exact:279470677e41f43e0a5efe37f25907734913c8dd078db10cad031368b2469e89"


def test_exact_fallback_key_is_pinned(four_coloring_pi1):
    """A symmetric 164-label problem takes the name-keyed fallback; its key
    is pinned so that a change to the encoding cannot silently invalidate
    existing caches."""
    assert len(four_coloring_pi1.labels) == 164
    form = canonical_form(four_coloring_pi1)
    assert form.key == PINNED_EXACT_KEY
    assert form.ordering == tuple(sorted(four_coloring_pi1.labels))


# -- the per-problem memo ------------------------------------------------------


def _fresh_form(problem: Problem):
    """The form computed from scratch on an equal, never-hashed copy."""
    return canonical_form(Problem.from_dict(problem.to_dict()))


def _random_problem(seed: int) -> Problem:
    rng = random.Random(seed)
    delta = rng.choice([1, 2, 2, 3])
    labels = [f"x{i}" for i in range(rng.randint(2, 3 if delta == 3 else 4))]
    edges = [(a, b) for a in labels for b in labels if a <= b and rng.random() < 0.6]
    nodes = [tuple(sorted(rng.choices(labels, k=delta))) for _ in range(rng.randint(1, 6))]
    return Problem.make(f"rnd{seed}", delta, edges or [(labels[0], labels[0])], nodes)


def _catalog_rows():
    for name, family in sorted(catalog().items()):
        for delta in (2, 3):
            try:
                yield family(delta)
            except ValueError:
                continue  # family rejects this degree


def test_repeated_canonical_form_returns_the_memoised_object():
    problem = get_problem("mis", 3)
    form = canonical_form(problem)
    assert canonical_form(problem) is form
    assert canonical_hash(problem) == form.key


def test_memoised_form_matches_fresh_computation(four_coloring_pi1):
    problems = [*_catalog_rows(), *map(_random_problem, range(200)), four_coloring_pi1]
    for problem in problems:
        canonical_form(problem)
        assert canonical_form(problem) == _fresh_form(problem), problem.name
    assert canonical_form(four_coloring_pi1).key == PINNED_EXACT_KEY


def test_compressed_is_self_when_nothing_drops():
    problem = get_problem("sinkless-coloring", 3)
    form = canonical_form(problem)
    assert problem.compressed() is problem
    assert problem.compressed(name=problem.name) is problem
    other = problem.compressed(name="other")
    assert other.name == "other" and other.labels == problem.labels
    assert canonical_form(other) is form


def test_compressed_with_dropped_labels_gets_its_own_form():
    # B occurs in no node configuration and C in nothing at all.
    problem = Problem.make(
        "lossy", 2, [("A", "A"), ("A", "B")], [("A", "A")], labels=["A", "B", "C"]
    )
    canonical_form(problem)
    compressed = problem.compressed()
    assert compressed is not problem
    assert compressed.labels == {"A"}
    assert canonical_form(compressed) == _fresh_form(compressed)
    assert canonical_form(compressed) != canonical_form(problem)


def test_named_copy_keeps_the_form_only_when_memoised():
    problem = get_problem("weak-2-coloring", 3)
    cold = problem.named("cold")
    assert "_canonical" not in cold.__dict__
    form = canonical_form(problem)
    warm = problem.named("warm")
    assert warm.name == "warm" and warm == problem.named("warm")
    assert canonical_form(warm) is form
    assert canonical_form(cold) == form
