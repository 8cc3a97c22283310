"""Tests for the compatibility Galois connection."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.alphabet import intern
from repro.core.galois import Compatibility
from repro.core.limits import EngineLimitError
from repro.core.problem import Problem
from repro.problems.catalog import catalog
from repro.problems.coloring import coloring
from repro.utils.multiset import multisets_of_size


def test_polar_of_singleton(sc3):
    comp = Compatibility(sc3)
    # 0 is compatible with both labels; 1 only with 0.
    assert comp.polar(frozenset({"0"})) == frozenset({"0", "1"})
    assert comp.polar(frozenset({"1"})) == frozenset({"0"})


def test_polar_is_antitone(sc3):
    comp = Compatibility(sc3)
    small = frozenset({"0"})
    large = frozenset({"0", "1"})
    assert comp.polar(large) <= comp.polar(small)


def test_closure_is_idempotent_and_extensive(sc3):
    comp = Compatibility(sc3)
    for subset in (frozenset(), frozenset({"0"}), frozenset({"1"}), frozenset({"0", "1"})):
        closure = comp.closure(subset)
        assert subset <= closure
        assert comp.closure(closure) == closure


def test_closed_sets_sinkless(sc3):
    comp = Compatibility(sc3)
    closed = comp.closed_sets()
    # For sinkless coloring: comp({0}) = {0,1}, comp({1}) = {0}, comp({0,1}) = {0}.
    assert frozenset({"0"}) in closed
    assert frozenset({"0", "1"}) in closed


def test_usable_closed_sets_sinkless(sc3):
    comp = Compatibility(sc3)
    usable = comp.usable_closed_sets()
    assert usable == frozenset({frozenset({"0"}), frozenset({"0", "1"})})


def test_coloring_closed_sets_are_all_proper_subsets():
    # For k-coloring the polar is the complement, so every nonempty proper
    # subset is closed and usable (Section 4.5: 14 sets for k = 4).
    problem = coloring(4, 2)
    comp = Compatibility(problem)
    usable = comp.usable_closed_sets()
    assert len(usable) == 14
    for subset in usable:
        assert comp.polar(subset) == problem.labels - subset


def test_polar_pair_is_closed(col4_ring):
    comp = Compatibility(col4_ring)
    for subset in comp.usable_closed_sets():
        assert comp.is_closed(comp.polar(subset))


@st.composite
def small_problems(draw):
    labels = ["a", "b", "c"]
    all_edges = list(multisets_of_size(labels, 2))
    edges = draw(st.lists(st.sampled_from(all_edges), max_size=6))
    return Problem.make("rand", 2, edges, [("a", "a")], labels=labels)


@given(small_problems())
def test_galois_connection_laws(problem):
    comp = Compatibility(problem)
    subsets = [frozenset(), frozenset({"a"}), frozenset({"a", "b"}), frozenset({"a", "b", "c"})]
    for x in subsets:
        for y in subsets:
            # Galois: x <= polar(y)  <=>  y <= polar(x).
            assert (x <= comp.polar(y)) == (y <= comp.polar(x))


@given(small_problems())
def test_closed_sets_are_exactly_polars(problem):
    comp = Compatibility(problem)
    closed = comp.closed_sets()
    for candidate in closed:
        assert comp.is_closed(candidate)
    # Every polar of anything is closed and must appear in the enumeration.
    for subset in [frozenset({"a"}), frozenset({"b", "c"})]:
        assert comp.polar(subset) in closed


# -- closed-form usability (X is contained in comp(comp(X))) ------------------

KERNELS = ("mask", "vector")


def _random_problem(seed: int) -> Problem:
    """Seeded small problem: 1-6 labels, random edge density."""
    rng = random.Random(seed)
    labels = [f"x{i}" for i in range(rng.randint(1, 6))]
    pairs = list(multisets_of_size(labels, 2))
    density = rng.choice([0.2, 0.5, 0.8])
    edges = [pair for pair in pairs if rng.random() < density] or [rng.choice(pairs)]
    return Problem.make(f"rand-{seed}", 2, edges, [(labels[0], labels[0])], labels=labels)


def _catalog_rows():
    for name, family in sorted(catalog().items()):
        for delta in (2, 3):
            try:
                yield pytest.param(family(delta), id=f"{name}-d{delta}")
            except ValueError:
                continue


def _polar_usable(comp: Compatibility, masks) -> frozenset:
    """The definition: non-empty with a non-empty polar."""
    return frozenset(mask for mask in masks if mask and comp.polar_mask(mask))


def _initial_usable(comp: Compatibility) -> int:
    generators = set(intern(comp.problem).adjacency) | {comp.alphabet.full_mask}
    return len(_polar_usable(comp, generators))


def _assert_usable_by_definition(problem: Problem) -> None:
    for kernel in KERNELS:
        comp = Compatibility(problem)
        closed = comp.closed_masks(kernel=kernel)
        assert comp.usable_closed_masks(kernel=kernel) == _polar_usable(comp, closed)


@pytest.mark.parametrize("problem", list(_catalog_rows()))
def test_usable_closed_masks_match_polar_definition_on_catalog(problem):
    _assert_usable_by_definition(problem)


@pytest.mark.parametrize("seed", range(200))
def test_usable_closed_masks_match_polar_definition_on_random(seed):
    _assert_usable_by_definition(_random_problem(seed))


def test_full_set_with_empty_polar_is_excluded():
    # Proper coloring: no label is compatible with itself, so comp(full) = {}.
    problem = coloring(3, 2)
    for kernel in KERNELS:
        comp = Compatibility(problem)
        full = comp.alphabet.full_mask
        assert comp.polar_mask(full) == 0
        assert full in comp.closed_masks(kernel=kernel)
        assert full not in comp.usable_closed_masks(kernel=kernel)


def test_full_set_equal_to_a_generator_is_included(sc3):
    # Label 0 of sinkless coloring is compatible with every label, so
    # comp({0}) is the full set and its polar contains 0.
    for kernel in KERNELS:
        comp = Compatibility(sc3)
        full = comp.alphabet.full_mask
        assert full in intern(sc3).adjacency
        assert comp.polar_mask(full)
        assert full in comp.usable_closed_masks(kernel=kernel)


def _trip_problems():
    # 4-coloring: 4 usable generators, 14 usable closed sets, so its
    # "usable - 1" limit trips during frontier expansion.
    yield coloring(4, 2)
    yield from (_random_problem(seed) for seed in range(60))


@pytest.mark.parametrize("case", ["usable-minus-one", "below-generators"])
def test_limit_trips_match_polar_definition_on_both_tiers(case):
    tripped = 0
    for problem in _trip_problems():
        reference = Compatibility(problem)
        usable = len(_polar_usable(reference, reference.closed_masks()))
        initial = _initial_usable(reference)
        limit = usable - 1 if case == "usable-minus-one" else initial - 1
        if limit < 0:
            continue
        # The polar-based fold: an initial overflow reports the whole
        # initial count; a frontier overflow stops at limit + 1.
        expected = initial if initial > limit else limit + 1
        for kernel in KERNELS:
            with pytest.raises(EngineLimitError) as trip:
                Compatibility(problem).usable_closed_masks(limit=limit, kernel=kernel)
            assert trip.value.limit_name == "max_derived_labels"
            assert trip.value.limit == limit
            assert trip.value.observed == expected
        tripped += 1
    assert tripped > 20
