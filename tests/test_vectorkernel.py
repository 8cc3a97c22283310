"""Differential tests: the vector kernel tier against the scalar mask path.

``repro.core.vectorkernel`` batch-evaluates the hot folds over bit-packed
``uint64`` rows; the contract (module docstring there) is *exact*
equivalence with the scalar mask kernel -- byte-identical
``SpeedupResult.to_dict()`` payloads, identical ``EngineLimitError`` trip
points with identical ``observed`` counts, for every chunk size and for
alphabets past the 64-bit single-word boundary.  These tests enforce that
contract over the fast catalog, hundreds of seeded random problems, and
targeted unit probes of each batched fold, so the kernel choice stays a
pure performance knob.

Everything numpy-dependent is skipped when the vector tier is unavailable
(no numpy, numpy < 2, or ``REPRO_NO_NUMPY``): the CI numpy-absent leg then
still proves the mask fallback resolves and computes.
"""

import json
import random

import pytest

from repro.core import vectorkernel as vk
from repro.core.problem import Problem
from repro.core.speedup import (
    EngineLimitError,
    _config_dominates,
    _discard_dominated,
    _enumerate_filters,
    _MaskFrontier,
    compute_speedup,
)
from repro.problems.catalog import catalog
from repro.utils.multiset import multisets_of_size

needs_numpy = pytest.mark.skipif(
    not vk.vector_ready(),
    reason="vector tier unavailable (numpy >= 2 missing or REPRO_NO_NUMPY)",
)

SEED_COUNT = 200

#: Catalog instances whose *mask-side* derivation is too slow to run twice
#: in tier-1 (weak/superweak stream millions of completions; 5/6-coloring
#: are minute-scale on any kernel).  The benchmark suite covers them.
HEAVY = {"5-coloring", "6-coloring", "weak-3-coloring", "superweak-3-coloring"}


def random_problem(seed: int) -> Problem:
    """Same generator as ``test_differential_kernel.random_problem``."""
    rng = random.Random(seed)
    delta = rng.choice([1, 2, 2, 3])
    k = rng.randint(2, 3 if delta == 3 else 4)
    labels = [f"x{i}" for i in range(k)]
    pairs = list(multisets_of_size(labels, 2))
    nodes = list(multisets_of_size(labels, delta))
    edge = [p for p in pairs if rng.random() < 0.6] or [rng.choice(pairs)]
    node = [c for c in nodes if rng.random() < 0.5] or [rng.choice(nodes)]
    return Problem.make(f"rnd{seed}", delta, edge, node, labels=labels)


def result_json(problem: Problem, kernel: str, **limits) -> str:
    result = compute_speedup(problem, kernel=kernel, **limits)
    assert result.kernel_stats is not None
    assert result.kernel_stats.kernel == vk.resolve_kernel(kernel)
    payload = result.to_dict()
    assert "kernel" not in payload  # stats stay out of the result payload
    return json.dumps(payload, sort_keys=True)


def assert_kernels_agree(problem: Problem, **limits) -> None:
    """Mask and vector agree byte-for-byte -- on results *and* on trips."""
    try:
        mask_json = result_json(problem, "mask", **limits)
    except EngineLimitError as mask_error:
        with pytest.raises(EngineLimitError) as vector_error:
            result_json(problem, "vector", **limits)
        assert vector_error.value.limit_name == mask_error.limit_name
        assert vector_error.value.limit == mask_error.limit
        assert vector_error.value.observed == mask_error.observed
        assert str(vector_error.value) == str(mask_error)
    else:
        assert result_json(problem, "vector", **limits) == mask_json


# -- kernel selection ---------------------------------------------------------


def test_resolve_kernel_names_and_degradation(monkeypatch):
    assert vk.resolve_kernel("mask") == "mask"
    assert vk.resolve_kernel("auto") in ("mask", "vector")
    assert vk.resolve_kernel("vector") in ("mask", "vector")
    with pytest.raises(ValueError):
        vk.resolve_kernel("gpu")
    # REPRO_NO_NUMPY disables the vector tier without erroring anywhere.
    monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    assert not vk.vector_ready()
    assert vk.resolve_kernel("auto") == "mask"
    assert vk.resolve_kernel("vector") == "mask"


def test_vector_request_computes_identically_without_numpy(monkeypatch):
    """An explicit ``kernel="vector"`` must degrade, not fail, sans numpy."""
    problem = random_problem(7)
    expected = compute_speedup(problem, kernel="mask").to_dict()
    monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    degraded = compute_speedup(problem, kernel="vector")
    assert degraded.kernel_stats is not None
    assert degraded.kernel_stats.kernel == "mask"
    assert degraded.to_dict() == expected


# -- packing ------------------------------------------------------------------


@needs_numpy
@pytest.mark.parametrize("bit_count", [1, 7, 63, 64, 65, 128, 130, 200])
def test_pack_unpack_roundtrip(bit_count):
    rng = random.Random(bit_count)
    masks = [rng.getrandbits(bit_count) for _ in range(50)] + [
        0,
        1,
        (1 << bit_count) - 1,
    ]
    rows = vk.pack_masks(masks, bit_count)
    assert rows.shape == (len(masks), vk.words_for(bit_count))
    assert vk.unpack_masks(rows) == masks


def test_words_for_boundaries():
    assert vk.words_for(0) == 1
    assert vk.words_for(1) == 1
    assert vk.words_for(64) == 1
    assert vk.words_for(65) == 2
    assert vk.words_for(128) == 2
    assert vk.words_for(129) == 3


# -- filter enumeration -------------------------------------------------------


def random_poset(seed: int) -> tuple[int, list[int], list[int]]:
    """A random partial order as (count, up-masks, comparability masks).

    Elements are ordered so that ``i < j`` can only relate ``i`` below
    ``j``; transitivity is closed off by propagating up-sets.
    """
    rng = random.Random(seed)
    count = rng.randint(1, 11)
    up = [1 << i for i in range(count)]
    for i in range(count - 1, -1, -1):
        for j in range(i + 1, count):
            if rng.random() < 0.3:
                up[i] |= up[j]
    comparable = list(up)
    for i in range(count):
        for j in range(count):
            if up[j] >> i & 1:
                comparable[i] |= 1 << j
    return count, up, comparable


@needs_numpy
@pytest.mark.parametrize("seed", range(40))
def test_enumerate_filters_vector_matches_scalar(seed):
    count, up, comparable = random_poset(seed)
    scalar = _enumerate_filters(count, up, comparable, 1 << 20)
    batched = vk.enumerate_filters_vector(count, up, comparable, 1 << 20)
    assert sorted(batched) == sorted(scalar)
    assert len(batched) == len(scalar)  # no duplicates on either side


@needs_numpy
def test_enumerate_filters_vector_multi_word_chain():
    """A 70-element chain packs antichains/filters into two-word rows."""
    count = 70
    up = [0] * count
    for i in range(count - 1, -1, -1):
        up[i] = (1 << i) | (up[i + 1] if i + 1 < count else 0)
    comparable = [(1 << count) - 1] * count
    batched = vk.enumerate_filters_vector(count, up, comparable, 1 << 20)
    assert sorted(batched) == sorted(up)  # chain: filters are the up-sets


@needs_numpy
def test_enumerate_filters_vector_trips_like_scalar():
    count, up, comparable = random_poset(3)
    total = len(_enumerate_filters(count, up, comparable, 1 << 20))
    limit = total - 1
    with pytest.raises(EngineLimitError) as scalar_trip:
        _enumerate_filters(count, up, comparable, limit)
    with pytest.raises(EngineLimitError) as vector_trip:
        vk.enumerate_filters_vector(count, up, comparable, limit)
    assert vector_trip.value.limit_name == scalar_trip.value.limit_name
    assert vector_trip.value.observed == scalar_trip.value.observed == limit + 1


# -- streaming domination frontier --------------------------------------------


def random_configs(seed: int, bit_count: int) -> tuple[int, list[tuple[int, ...]]]:
    rng = random.Random(seed)
    delta = rng.randint(1, 3)
    configs = set()
    for _ in range(rng.randint(1, 60)):
        config = tuple(
            sorted(rng.getrandbits(bit_count) | 1 for _ in range(delta))
        )
        configs.add(config)
    return delta, sorted(configs)


@needs_numpy
@pytest.mark.parametrize("bit_count", [10, 70])
@pytest.mark.parametrize("seed", range(15))
def test_vector_frontier_matches_reference_filter(seed, bit_count):
    """Frontier survivors == the one-shot reference filter == the scalar
    frontier, independent of insertion order (unique maximal antichain)."""
    delta, configs = random_configs(seed, bit_count)
    reference = sorted(_discard_dominated(list(configs)))

    np_ = vk.get_numpy()
    for order in (configs, list(reversed(configs))):
        vector = vk.VectorFrontier(np_, bit_count, delta, 1 << 20, _config_dominates)
        vector.insert_chunk(order)
        assert vector.survivors() == reference
        scalar = _MaskFrontier(1 << 20)
        scalar.insert_chunk(order)
        assert scalar.survivors() == reference


@needs_numpy
def test_frontier_live_cap_trips_identically():
    # An antichain of singletons: nothing dominates anything, so the live
    # frontier grows one per insertion and the cap fires on insertion 4.
    configs = [(1 << i,) for i in range(8)]
    np_ = vk.get_numpy()
    vector = vk.VectorFrontier(np_, 8, 1, 3, _config_dominates)
    with pytest.raises(EngineLimitError) as vector_trip:
        vector.insert_chunk(configs)
    scalar = _MaskFrontier(3)
    with pytest.raises(EngineLimitError) as scalar_trip:
        scalar.insert_chunk(configs)
    for trip in (vector_trip.value, scalar_trip.value):
        assert trip.limit_name == "max_live_configs"
        assert trip.limit == 3
        assert trip.observed == 4
    assert str(vector_trip.value) == str(scalar_trip.value)


# -- end-to-end differential --------------------------------------------------


def _catalog_instances():
    for name, family in sorted(catalog().items()):
        if name in HEAVY:
            continue
        for delta in (2, 3):
            try:
                yield name, family(delta)
            except ValueError:
                continue


@needs_numpy
@pytest.mark.parametrize(
    "name,problem",
    [pytest.param(name, problem, id=f"{name}-d{problem.delta}")
     for name, problem in _catalog_instances()],
)
def test_vector_matches_mask_on_catalog(name, problem):
    assert_kernels_agree(problem)


@needs_numpy
@pytest.mark.parametrize("seed", range(SEED_COUNT))
def test_vector_matches_mask_on_random_problem(seed):
    assert_kernels_agree(random_problem(seed))


@needs_numpy
def test_vector_matches_mask_under_tight_limits():
    """Guard-trip parity: whichever limit fires, it fires identically."""
    problem = catalog()["4-coloring"](2)
    assert_kernels_agree(problem, max_derived_labels=10)
    assert_kernels_agree(problem, max_candidate_configs=3)
    assert_kernels_agree(problem, max_live_configs=1)
    for seed in range(0, SEED_COUNT, 10):
        assert_kernels_agree(random_problem(seed), max_derived_labels=6)
        assert_kernels_agree(random_problem(seed), max_candidate_configs=2)


@needs_numpy
def test_vector_matches_mask_past_the_word_boundary():
    """Multi-word rows: a 70-label alphabet end to end, and the 164-label
    closure of 4-coloring's derived problem (trip parity under a tight
    limit keeps the second derivation tier-1 cheap)."""
    labels = [f"y{i:02d}" for i in range(70)]
    pairs = list(multisets_of_size(labels, 2))
    wide = Problem.make("wide70", 1, pairs, [(label,) for label in labels],
                        labels=labels)
    assert_kernels_agree(wide)

    derived = compute_speedup(catalog()["4-coloring"](2), kernel="mask").full
    assert len(derived.labels) == 164  # past two words of packed closure
    assert_kernels_agree(derived, max_derived_labels=300)


@needs_numpy
@pytest.mark.parametrize("chunk", [1, 3, 64, 1 << 20])
def test_stream_chunk_never_changes_results(chunk):
    """Chunking batches packing, never semantics: byte-identical JSON."""
    for problem in (catalog()["4-coloring"](2), random_problem(11)):
        expected = result_json(problem, "vector")
        assert result_json(problem, "vector", stream_chunk=chunk) == expected


def _reference_closure(generators, full_mask):
    closed = set(generators) | {full_mask}
    frontier = list(closed)
    while frontier:
        current = frontier.pop()
        for generator in generators:
            candidate = current & generator
            if candidate not in closed:
                closed.add(candidate)
                frontier.append(candidate)
    return frozenset(closed)


@needs_numpy
@pytest.mark.parametrize("bit_count", [63, 64, 65, 130])
def test_closed_masks_vector_chunking_and_word_boundaries(bit_count):
    """The byte-row dedupe sees whole rows: masks that differ only across a
    word boundary stay distinct, and chunking never changes the closure."""
    rng = random.Random(bit_count)
    full = (1 << bit_count) - 1
    generators = [full ^ (rng.getrandbits(bit_count) & rng.getrandbits(bit_count))
                  for _ in range(7)]
    # Twins differing only in the top bit or only in bit 63 / bit 64.
    for bit in {bit_count - 1, 63, 64} & set(range(bit_count)):
        generators.append(generators[0] ^ (1 << bit))
    expected = _reference_closure(generators, full)
    assert len(expected) > 64
    for chunk in (1, 7, 256):
        assert vk.closed_masks_vector(
            generators, full, bit_count, None, False, chunk=chunk
        ) == expected
