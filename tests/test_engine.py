"""Tests for the unified Engine API: config, cache, batch, streaming."""

import json
import random

import pytest

import repro.core.canonical as canonical_module
import repro.engine.cache as cache_module
import repro.engine.engine as engine_module
from repro.core.isomorphism import are_isomorphic
from repro.core.speedup import EngineLimitError, compute_speedup
from repro.engine import Engine, EngineConfig, SpeedupCache, canonical_hash
from repro.problems.catalog import catalog, get_problem
from repro.problems.handshake import indegree_handshake
from repro.problems.misc import mis
from repro.problems.sinkless import sinkless_coloring, sinkless_orientation
from repro.search import search_lower_bound
from repro.search.classify import classify


@pytest.fixture()
def engine():
    return Engine()


def _renamed(problem, prefix="z", name=None):
    mapping = {label: f"{prefix}{i}" for i, label in enumerate(sorted(problem.labels))}
    return problem.renamed(mapping, name=name or f"{problem.name}-renamed")


# -- configuration ------------------------------------------------------------


def test_config_defaults_match_legacy_constants():
    from repro.core.speedup import MAX_CANDIDATE_CONFIGS, MAX_DERIVED_LABELS

    config = EngineConfig()
    assert config.max_derived_labels == MAX_DERIVED_LABELS
    assert config.max_candidate_configs == MAX_CANDIDATE_CONFIGS


def test_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(max_derived_labels=0)
    with pytest.raises(ValueError):
        EngineConfig(cache_size=0)
    with pytest.raises(ValueError):
        EngineConfig(max_workers=0)


def test_tight_limits_raise(sc3):
    tight = Engine(EngineConfig(max_candidate_configs=1))
    with pytest.raises(EngineLimitError) as excinfo:
        tight.speedup(sc3)
    error = excinfo.value
    assert error.limit_name == "max_candidate_configs"
    assert error.limit == 1
    assert error.observed > error.limit


def test_derived_label_limit_reports_observed_count(mis_d3):
    tight = Engine(EngineConfig(max_derived_labels=1))
    with pytest.raises(EngineLimitError) as excinfo:
        tight.speedup(mis_d3)
    error = excinfo.value
    assert error.limit_name == "max_derived_labels"
    assert error.limit == 1
    # The earliest derived-label guard is now the incremental closed-set
    # abort in the half step; only *usable* closed sets count against the
    # limit (mis has 3 usable sets among its initial generators).
    assert error.observed == 3
    assert "usable Galois-closed" in str(error)


def test_filter_enumeration_guard_still_fires(mis_d3):
    # With the usable closed-set count inside the limit (mis has 4), the
    # full step's filter enumeration guard keeps its legacy trip point and
    # observed count.
    tight = Engine(EngineConfig(max_derived_labels=4))
    with pytest.raises(EngineLimitError) as excinfo:
        tight.speedup(mis_d3)
    error = excinfo.value
    assert error.limit_name == "max_derived_labels"
    assert error.limit == 4
    assert error.observed == 5  # the guard fires on the fifth filter
    assert "filters" in str(error)


def test_with_config_shares_cache(engine):
    raw = engine.with_config(simplify=False)
    assert raw.cache is engine.cache
    assert raw.config.simplify is False
    assert engine.config.simplify is True


def test_with_config_new_cache_policy_allocates_fresh_cache(engine, tmp_path):
    other = engine.with_config(cache_dir=tmp_path)
    assert other.cache is not engine.cache


def test_with_config_cache_knob_keeps_zero_round_memo(engine):
    # Regression: overriding a speedup-cache knob used to rebuild the engine
    # wholesale, silently discarding the warm 0-round memo with it.
    assert engine.zero_round_memo is not None
    other = engine.with_config(cache_size=64)
    assert other.cache is not engine.cache
    assert other.zero_round_memo is engine.zero_round_memo


def test_with_config_memo_knob_keeps_speedup_cache(engine):
    other = engine.with_config(zero_round_memo_size=16)
    assert other.zero_round_memo is not engine.zero_round_memo
    assert other.cache is engine.cache


def test_with_config_restated_knob_shares_everything(engine):
    # An override restating the current value changes nothing, so both
    # caches stay shared.
    other = engine.with_config(cache_size=engine.config.cache_size)
    assert other.cache is engine.cache
    assert other.zero_round_memo is engine.zero_round_memo


def test_with_config_cache_dir_rebuilds_both(engine, tmp_path):
    # cache_dir governs both stores (the memo's directory nests under it).
    other = engine.with_config(cache_dir=tmp_path)
    assert other.cache is not engine.cache
    assert other.zero_round_memo is not engine.zero_round_memo


def test_with_config_warm_memo_survives_cache_override(engine, sc3):
    engine.zero_round_solvable(sc3)
    warm = engine.zero_round_stats()["entries"]
    assert warm == 1
    other = engine.with_config(cache_max_weight=123_456)
    assert other.zero_round_stats()["entries"] == warm


# -- the content-addressed cache ----------------------------------------------


def test_cache_hit_returns_same_result(engine, sc3):
    first = engine.speedup(sc3)
    second = engine.speedup(sc3)
    assert second is first
    stats = engine.cache_stats()
    assert stats["hits"] == 1 and stats["misses"] == 1


def test_cache_miss_for_different_problems(engine, sc3, mis_d3):
    engine.speedup(sc3)
    engine.speedup(mis_d3)
    assert engine.cache_stats()["misses"] == 2


def test_cache_miss_across_simplify_modes(engine, sc3):
    engine.speedup(sc3, simplify=True)
    engine.speedup(sc3, simplify=False)
    assert engine.cache_stats() == {"hits": 0, "misses": 2, "entries": 2, "store_failures": 0}


def test_renamed_problem_hits_via_canonical_hash(engine, sc3):
    base = engine.speedup(sc3)
    renamed = _renamed(sc3)
    assert canonical_hash(renamed) == canonical_hash(sc3)
    hit = engine.speedup(renamed)
    assert engine.cache_stats()["hits"] == 1
    # The translated result is a genuine derivation of the renamed problem.
    assert hit.original == renamed
    fresh = compute_speedup(renamed)
    assert hit.half == fresh.half
    assert hit.half_meaning == fresh.half_meaning
    assert are_isomorphic(hit.full.compressed(), base.full.compressed())
    assert hit.full.name == f"{renamed.name}+1"


def test_cache_disabled(sc3):
    engine = Engine(EngineConfig(cache=False))
    first = engine.speedup(sc3)
    second = engine.speedup(sc3)
    assert first == second
    assert first is not second
    assert engine.cache_stats() == {"hits": 0, "misses": 0, "entries": 0, "store_failures": 0}


def test_clear_cache(engine, sc3):
    engine.speedup(sc3)
    engine.clear_cache()
    assert engine.cache_stats() == {"hits": 0, "misses": 0, "entries": 0, "store_failures": 0}
    engine.speedup(sc3)
    assert engine.cache_stats()["misses"] == 1


def test_cache_lru_eviction(sc3, mis_d3):
    engine = Engine(EngineConfig(cache_size=1))
    engine.speedup(sc3)
    engine.speedup(mis_d3)  # evicts sc3
    assert engine.cache_stats()["entries"] == 1
    engine.speedup(sc3)
    assert engine.cache_stats()["misses"] == 3


def test_cache_weight_bound_evicts(sc3, mis_d3):
    # A bound smaller than any entry still keeps the newest entry alive.
    engine = Engine(EngineConfig(cache_max_weight=1))
    engine.speedup(sc3)
    engine.speedup(mis_d3)
    assert engine.cache_stats()["entries"] == 1
    engine.speedup(mis_d3)
    assert engine.cache_stats()["hits"] == 1


def test_cached_result_meanings_are_read_only(engine, sc3):
    result = engine.speedup(sc3)
    with pytest.raises(TypeError):
        result.full_meaning["X"] = frozenset()
    # The cache entry stays intact for later hits.
    assert engine.speedup(sc3) is result


def test_disk_cache_survives_processes(tmp_path, sc3):
    warm = Engine(EngineConfig(cache_dir=tmp_path))
    first = warm.speedup(sc3)
    assert list(tmp_path.glob("*.json"))

    # A fresh engine (fresh memory cache) sharing the directory hits.
    cold = Engine(EngineConfig(cache_dir=tmp_path))
    second = cold.speedup(sc3)
    assert cold.cache_stats()["hits"] == 1
    assert cold.cache_stats()["misses"] == 0
    assert second == first


def test_disk_cache_tolerates_corruption(tmp_path, sc3):
    engine = Engine(EngineConfig(cache_dir=tmp_path))
    engine.speedup(sc3)
    for path in tmp_path.glob("*.json"):
        path.write_text("not json at all {")
    fresh = Engine(EngineConfig(cache_dir=tmp_path))
    result = fresh.speedup(sc3)  # falls back to recomputing
    assert result.original == sc3
    assert fresh.cache_stats()["misses"] == 1


def test_shared_cache_object_between_engines(sc3):
    cache = SpeedupCache(maxsize=8)
    a = Engine(cache=cache)
    b = Engine(cache=cache)
    a.speedup(sc3)
    b.speedup(sc3)
    assert cache.stats()["hits"] == 1


# -- limit-trip memoisation ---------------------------------------------------

# The twin-batch benchmark's limits; every pipeline below runs at most
# TRIP_STEPS speedups, like that workload.
TWIN_LIMITS = {"max_derived_labels": 2000, "max_candidate_configs": 50000}
TRIP_STEPS = 3

# Catalog rows on which the renaming-invariance sweep below takes more than
# ~0.3 s (deriving or canonicalising the mid-size states); they run under
# -m slow.
_SLOW_TRIP_ROWS = {
    ("3-coloring", 2), ("3-coloring", 3), ("3-coloring", 4), ("4-coloring", 2),
    ("4-coloring", 3), ("4-coloring", 4), ("4-edge-coloring", 2),
    ("4-edge-coloring", 3), ("5-coloring", 4), ("6-coloring", 3),
    ("maximal-matching", 3), ("maximal-matching", 4), ("mis", 2), ("mis", 3),
    ("mis", 4), ("superweak-2-coloring", 2), ("superweak-2-coloring", 3),
    ("superweak-2-coloring", 4), ("superweak-3-coloring", 2),
    ("superweak-3-coloring", 3), ("superweak-3-coloring", 4),
    ("weak-2-coloring", 2), ("weak-2-coloring", 3), ("weak-3-coloring", 2),
    ("weak-3-coloring", 3), ("weak-3-coloring", 4),
}


def _catalog_rows():
    rows = []
    for name in sorted(catalog()):
        for delta in (2, 3, 4):
            try:
                get_problem(name, delta)
            except ValueError:
                continue  # e.g. 3-edge-coloring needs delta <= 3
            marks = [pytest.mark.slow] if (name, delta) in _SLOW_TRIP_ROWS else []
            rows.append(pytest.param(name, delta, marks=marks, id=f"{name}-{delta}"))
    return rows


def _shuffled_twin(problem, seed):
    """``problem`` with its labels renamed by a seeded random permutation."""
    labels = sorted(problem.labels)
    images = list(range(len(labels)))
    random.Random(seed).shuffle(images)
    mapping = {label: f"q{image}" for label, image in zip(labels, images)}
    return problem.renamed(mapping, name=f"{problem.name}~{seed}")


def _trip_of(engine, problem):
    """The limit error ending ``problem``'s pipeline, or None if it never trips."""
    current = problem
    for _ in range(TRIP_STEPS):
        try:
            current = engine.speedup(current).full
        except EngineLimitError as error:
            return error
    return None


def _trip_dict(error):
    return None if error is None else error.to_dict()


@pytest.fixture()
def derivations(monkeypatch):
    """The problems the engine actually derives, in call order."""
    calls = []
    real_compute = engine_module.compute_speedup

    def counting_compute(problem, **kwargs):
        calls.append(problem)
        return real_compute(problem, **kwargs)

    monkeypatch.setattr(engine_module, "compute_speedup", counting_compute)
    return calls


@pytest.mark.parametrize(("name", "delta"), _catalog_rows())
def test_limit_trip_replay_is_renaming_invariant(name, delta, derivations):
    # Replaying a trip to a renamed twin is only sound if the trip itself
    # (message, limit_name, limit, observed) does not depend on label
    # names or their order, on either kernel tier -- the cache keys trips
    # on the problem up to renaming and the limits, not on the kernel.
    problem = get_problem(name, delta)
    twins = [_shuffled_twin(problem, seed) for seed in range(3)]
    expected = None
    for kernel in ("mask", "vector"):
        uncached = Engine(EngineConfig(cache=False, kernel=kernel, **TWIN_LIMITS))
        fresh = [_trip_dict(_trip_of(uncached, twin)) for twin in twins]
        if expected is None:
            expected = fresh[0]
        assert fresh == [expected] * 3, kernel

        engine = Engine(EngineConfig(kernel=kernel, **TWIN_LIMITS))
        del derivations[:]
        leader = _trip_dict(_trip_of(engine, twins[0]))
        led = len(derivations)
        replayed = [_trip_dict(_trip_of(engine, twin)) for twin in twins[1:]]
        assert [leader, *replayed] == [expected] * 3, kernel
        # Where the twins share a key (everything but the exact fallback
        # keys of very symmetric alphabets), the later twins derive
        # nothing: every step hits or replays.
        if len({canonical_hash(twin) for twin in twins}) == 1:
            assert len(derivations) == led, kernel


def test_limit_trip_replays_to_renamed_twin(mis_d3, derivations):
    engine = Engine(EngineConfig(max_derived_labels=4))
    with pytest.raises(EngineLimitError) as first:
        engine.speedup(mis_d3)
    with pytest.raises(EngineLimitError) as replay:
        engine.speedup(_shuffled_twin(mis_d3, 7))
    assert replay.value is not first.value
    assert replay.value.to_dict() == first.value.to_dict()
    assert len(derivations) == 1
    # A replay is a hit, so hits + misses still counts the requests.
    assert engine.cache_stats() == {"hits": 1, "misses": 1, "entries": 0, "store_failures": 0}


def test_limit_trip_keyed_by_limits(mis_d3, derivations):
    small = Engine(EngineConfig(max_derived_labels=4))
    with pytest.raises(EngineLimitError):
        small.speedup(mis_d3)
    # Same shared cache, same limits: replayed, not derived.
    with pytest.raises(EngineLimitError):
        small.speedup(_shuffled_twin(mis_d3, 1))
    assert len(derivations) == 1
    # Another limit value that also trips is derived once, then replayed.
    tighter = small.with_config(max_derived_labels=3)
    for seed in (4, 5):
        with pytest.raises(EngineLimitError) as excinfo:
            tighter.speedup(_shuffled_twin(mis_d3, seed))
        assert excinfo.value.limit == 3
    assert len(derivations) == 2
    # Larger limits on the shared cache: derived, not replayed.
    larger = small.with_config(max_derived_labels=2000)
    assert larger.cache is small.cache
    result = larger.speedup(_shuffled_twin(mis_d3, 2))
    assert len(derivations) == 3
    # A stored result wins over the trip, as it did before trips were
    # memoised: the small engine now hits the larger one's derivation.
    twin = _shuffled_twin(mis_d3, 3)
    hit = small.speedup(twin)
    assert hit.original == twin
    assert canonical_hash(hit.full) == canonical_hash(result.full)
    assert len(derivations) == 3


def test_clear_cache_drops_limit_trips(mis_d3, derivations):
    engine = Engine(EngineConfig(max_derived_labels=4))
    for _ in range(2):
        with pytest.raises(EngineLimitError):
            engine.speedup(mis_d3)
        engine.clear_cache()
    assert len(derivations) == 2


def test_uncached_engine_never_replays_limit_trips(mis_d3, derivations):
    engine = Engine(EngineConfig(cache=False, max_derived_labels=4))
    errors = []
    for _ in range(2):
        with pytest.raises(EngineLimitError) as excinfo:
            engine.speedup(mis_d3)
        errors.append(excinfo.value.to_dict())
    assert len(derivations) == 2
    assert errors[0] == errors[1]


def test_limit_trip_table_is_lru_bounded(mis_d3, sc3, derivations):
    engine = Engine(EngineConfig(cache_size=1, max_derived_labels=1))
    for problem in (mis_d3, sc3, mis_d3):
        with pytest.raises(EngineLimitError):
            engine.speedup(problem)
    # sc3's trip evicted mis_d3's, so mis_d3 was derived twice.
    assert len(derivations) == 3


def test_thread_run_many_derives_a_tripping_step_once(derivations):
    # Three renamed twins of weak-2-coloring at delta 3 trip
    # max_candidate_configs at step 2 under the twin-batch limits.  The
    # twins race on the thread backend; the single-flight leader derives
    # and records the trip, everyone else replays it.
    problem = get_problem("weak-2-coloring", 3)
    twins = [_shuffled_twin(problem, seed) for seed in range(3)]
    runs = {}
    for backend in ("serial", "thread"):
        del derivations[:]
        engine = Engine(EngineConfig(executor=backend, max_workers=3, **TWIN_LIMITS))
        results = engine.run_many(twins, max_steps=3)
        assert all(result.stopped_by_limit for result in results)
        # One derivation per step: step 1's twins coalesce or hit, and
        # step 2 trips once.
        assert len(derivations) == 2, backend
        stats = engine.last_batch_stats()
        runs[backend] = ([result.to_dict() for result in results], stats)
    serial_results, serial_stats = runs["serial"]
    thread_results, thread_stats = runs["thread"]
    assert thread_results == serial_results
    assert (thread_stats.cache_hits, thread_stats.cache_misses) == (
        serial_stats.cache_hits,
        serial_stats.cache_misses,
    ) == (4, 2)
    # Coalescing is timing-dependent on threads (a waiter is also counted
    # as a hit once it wakes); the serial loop never coalesces.
    assert serial_stats.coalesced == 0
    assert 0 <= thread_stats.coalesced <= thread_stats.cache_hits


# -- batch fan-out ------------------------------------------------------------


def test_speedup_many_matches_sequential(sc3, mis_d3):
    problems = [sc3, mis_d3, _renamed(sc3), sc3]
    parallel = Engine(EngineConfig(max_workers=4)).speedup_many(problems)
    sequential = Engine(EngineConfig(max_workers=1)).speedup_many(problems)
    assert len(parallel) == len(problems)
    for par, seq in zip(parallel, sequential):
        assert par.original == seq.original
        assert are_isomorphic(par.full.compressed(), seq.full.compressed())


def test_run_many_matches_sequential(sc3, mis_d3):
    problems = [sc3, mis_d3]
    parallel = Engine(EngineConfig(max_workers=2)).run_many(problems, max_steps=2)
    sequential = Engine(EngineConfig(max_workers=1)).run_many(problems, max_steps=2)
    assert parallel == sequential
    assert parallel[0].unbounded  # sinkless coloring's fixed point


# -- streaming pipeline -------------------------------------------------------


def test_iter_elimination_is_lazy(engine, sc3):
    stream = engine.iter_elimination(sc3, max_steps=5)
    first = next(stream)
    assert first.index == 0
    # No derivation has run yet: only step 0 (the input) was produced.
    assert engine.cache_stats()["misses"] == 0
    second = next(stream)
    assert second.index == 1
    assert engine.cache_stats()["misses"] == 1


def test_iter_elimination_progress_callback(engine, sc3):
    seen = []
    result = engine.run(sc3, max_steps=3, progress=lambda step: seen.append(step.index))
    assert seen == [step.index for step in result.steps]


def test_run_matches_legacy_run_round_elimination(sc3):
    from repro.core.sequence import run_round_elimination
    from repro.engine import get_default_engine, set_default_engine

    # Isolate the default engine: a pre-warmed cache may serve label-renamed
    # translations, which are correct but not bit-identical to a cold run.
    original = get_default_engine()
    set_default_engine(Engine())
    try:
        legacy = run_round_elimination(sc3, max_steps=3)
    finally:
        set_default_engine(original)
    modern = Engine().run(sc3, max_steps=3)
    assert modern == legacy
    assert modern.fixed_point_index == 1
    assert modern.unbounded


def test_run_reports_limit_stop(sc3):
    tiny = Engine(EngineConfig(max_candidate_configs=1))
    result = tiny.run(sc3, max_steps=3)
    assert result.stopped_by_limit
    assert len(result.steps) == 1


def test_run_honours_pipeline_policy(sc3):
    no_detect = Engine(EngineConfig(detect_fixed_points=False))
    result = no_detect.run(sc3, max_steps=3)
    assert len(result.steps) == 4
    assert result.fixed_point_index is None


# -- shims --------------------------------------------------------------------


def test_speedup_shim_uses_default_engine(sc3):
    from repro.core.speedup import speedup
    from repro.engine import get_default_engine, set_default_engine

    original = get_default_engine()
    set_default_engine(Engine())
    try:
        first = speedup(sc3)
        second = speedup(sc3)
        assert second is first
        assert get_default_engine().cache_stats() == {
            "hits": 1,
            "misses": 1,
            "entries": 1,
            "store_failures": 0,
        }
    finally:
        set_default_engine(original)


def test_set_default_engine_roundtrip():
    from repro.engine import get_default_engine, set_default_engine

    original = get_default_engine()
    replacement = Engine(EngineConfig(cache=False))
    set_default_engine(replacement)
    try:
        assert get_default_engine() is replacement
    finally:
        set_default_engine(original)


def test_iterate_speedup_shim_matches_engine(sc3):
    from repro.core.speedup import iterate_speedup

    results = iterate_speedup(sc3, 2)
    assert len(results) == 2
    assert results[1].original == results[0].full


# -- canonical hashing --------------------------------------------------------


def test_canonical_hash_ignores_name_and_renaming(sc3):
    renamed = _renamed(sc3, prefix="q", name="totally-different")
    assert canonical_hash(sc3) == canonical_hash(renamed)


def test_canonical_hash_separates_structures(sc3, so3):
    assert canonical_hash(sc3) != canonical_hash(so3)


def test_canonical_hash_on_symmetric_alphabet():
    # Fully symmetric labels (3-coloring on rings) exercise the tie-break
    # enumeration: all renamings must agree.
    from repro.problems.coloring import coloring

    problem = coloring(3, 2)
    renamed = _renamed(problem)
    assert canonical_hash(problem) == canonical_hash(renamed)
    assert canonical_hash(problem) != canonical_hash(coloring(4, 2))


def test_engine_half_step_respects_limits(sc3):
    tight = Engine(EngineConfig(max_candidate_configs=1))
    with pytest.raises(EngineLimitError) as excinfo:
        tight.half_step(sc3)
    assert excinfo.value.limit_name == "max_candidate_configs"
    assert excinfo.value.observed > 1
    assert Engine().half_step(sc3).problem.labels


# -- canonical-form memo --------------------------------------------------------

_compute_form = canonical_module._compute_form


@pytest.fixture()
def form_computations(monkeypatch):
    """How often the canonical form of each problem instance is computed."""
    counts = {}
    alive = []  # pins every counted instance, so no id is reused

    def counting(problem):
        alive.append(problem)
        counts[id(problem)] = counts.get(id(problem), 0) + 1
        return _compute_form(problem)

    monkeypatch.setattr(canonical_module, "_compute_form", counting)
    return counts


def _search_and_classify_json():
    lower = search_lower_bound(sinkless_orientation(3), engine=Engine(), max_steps=2)
    bracket = classify(indegree_handshake(2), engine=Engine())
    return [json.dumps(result.to_dict(), sort_keys=True) for result in (lower, bracket)]


def test_search_and_classify_compute_each_form_once(form_computations, monkeypatch):
    memoised = _search_and_classify_json()
    assert form_computations and max(form_computations.values()) == 1
    computed = sum(form_computations.values())

    # Without the memo every call recomputes: the same JSON, more work.
    form_computations.clear()
    uncached = canonical_module._compute_form
    monkeypatch.setattr(canonical_module, "canonical_form", uncached)
    monkeypatch.setattr(cache_module, "canonical_form", uncached)
    assert _search_and_classify_json() == memoised
    assert sum(form_computations.values()) > computed


def test_translated_hit_keeps_the_stored_full_form(mis_d3, form_computations):
    engine = Engine()
    twin_a = mis_d3
    twin_b = _shuffled_twin(twin_a, 1)
    result_a = engine.speedup(twin_a)
    engine.speedup(result_a.full)  # twin_a's next step hashes the stored full
    result_b = engine.speedup(twin_b)
    assert engine.cache_stats()["hits"] == 1
    assert result_b.full is not result_a.full
    assert result_b.full.name == f"{twin_b.name}+1"
    engine.speedup(result_b.full)
    assert engine.cache_stats()["hits"] == 2
    assert id(result_b.full) not in form_computations
    assert canonical_hash(result_b.full) == canonical_hash(result_a.full)
