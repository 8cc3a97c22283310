"""Regression tests for the renaming-invariant canonical form.

The canonical key addresses the engine's caches, including on-disk ones,
so it must not drift: neither with the order in which a problem's
constraints were listed nor with changes to how the key is computed.
"""

import random

import pytest

from repro.core.canonical import canonical_form
from repro.core.problem import Problem
from repro.core.speedup import compute_speedup
from repro.problems.catalog import get_problem


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


def test_exact_fallback_key_is_pinned(four_coloring_pi1):
    """A symmetric 164-label problem takes the name-keyed fallback; its key
    is pinned so that a change to the encoding cannot silently invalidate
    existing caches."""
    assert len(four_coloring_pi1.labels) == 164
    form = canonical_form(four_coloring_pi1)
    assert form.key == (
        "exact:279470677e41f43e0a5efe37f25907734913c8dd078db10cad031368b2469e89"
    )
    assert form.ordering == tuple(sorted(four_coloring_pi1.labels))
