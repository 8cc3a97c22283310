"""The beam-search driver behind ``Engine.search_lower_bound``.

A search *state* is a partial certificate: the chain of problems reached so
far (none of them 0-round solvable) together with the alternating
speedup/relaxation steps that produced it.  Each round of the search expands
every beam state by one speedup step (fanned out over the engine's worker
pool and memoised through its content-addressed cache), then considers the
derived problem itself plus every certified relaxation move of it
(:mod:`repro.search.moves`):

* a candidate isomorphic to an earlier problem *of its own chain* is a
  pumpable fixed point -- the search stops and returns the unbounded
  certificate immediately;
* a candidate that is 0-round solvable is discarded (relaxing that far
  destroys the lower bound); the verdicts are memoised cross-branch through
  the engine's :class:`~repro.core.zero_round.ZeroRoundMemo`, keyed on the
  canonical hashes the dedup already computes, so renamed twins reached by
  different branches decide once;
* surviving candidates are deduplicated by canonical hash and scored by
  description size (small problems are exactly what Section 2.1's relaxation
  technique exists to reach), and the best ``beam_width`` become the next
  beam.

The search is budgeted: at most ``budget`` speedup derivations are
attempted, and states whose derivation trips the engine's size guards
(:class:`~repro.core.speedup.EngineLimitError`) are dropped rather than
pursued.  Since the streaming full step retired the a-priori candidate-grid
refusal, those trips report real enumeration work (``max_candidate_configs``)
or a genuinely oversized surviving frontier (``max_live_configs``), so the
search prunes on actual blow-ups rather than pessimistic grid predictions --
and the engine's ``kernel`` tier (scalar big-int or vectorized numpy) only
changes how fast candidates are decided, never which ones survive.  If no
fixed point appears within ``max_steps`` rounds, the deepest surviving chain
is returned as a concrete ``k``-round certificate.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.engine.engine import Engine

from repro.core.canonical import canonical_hash
from repro.core.certificate import (
    RELAXATION,
    SPEEDUP,
    TERMINAL_FIXED_POINT,
    TERMINAL_UNSOLVABLE,
    CertificateStep,
    LowerBoundCertificate,
)
from repro.core.isomorphism import find_isomorphism
from repro.core.problem import Problem
from repro.core.speedup import EngineLimitError
from repro.core.zero_round import ZeroRoundMemo, is_zero_round_solvable
from repro.engine.executor import ExpandOption, ExpandPayload, ExpandTask, Task
from repro.engine.resilience import TaskFailure
from repro.search.moves import RelaxationMove, generate_moves
from repro.utils.jsonio import atomic_write_json, load_json, sweep_stale_tmp_files

KIND_TRIVIAL = "trivial"
KIND_CHAIN = "chain"
KIND_FIXED_POINT = "fixed-point"

# Above this description size, every surviving move still costs a compressed
# canonical hash (move generation skips hashing such targets) plus a 0-round
# decision; on huge derived problems those dominate the wall clock, and the
# beam keeps only ``beam_width`` states anyway, so the per-state move budget
# shrinks to just past the beam width instead of the configured cap.
_LARGE_STATE_SIZE = 100_000


@dataclass(frozen=True)
class SearchStats:
    """Bookkeeping of one search run (for reports and budget tuning)."""

    speedup_calls: int = 0
    states_expanded: int = 0
    candidates_generated: int = 0
    duplicates_pruned: int = 0
    zero_round_pruned: int = 0
    limit_hits: int = 0
    zero_round_checks: int = 0
    zero_round_memo_hits: int = 0
    task_failures: int = 0

    def to_dict(self) -> dict[str, object]:
        return {
            "speedup_calls": self.speedup_calls,
            "states_expanded": self.states_expanded,
            "candidates_generated": self.candidates_generated,
            "duplicates_pruned": self.duplicates_pruned,
            "zero_round_pruned": self.zero_round_pruned,
            "limit_hits": self.limit_hits,
            "zero_round_checks": self.zero_round_checks,
            "zero_round_memo_hits": self.zero_round_memo_hits,
            "task_failures": self.task_failures,
        }


@dataclass(frozen=True)
class SearchResult:
    """Outcome of an automated lower-bound search.

    ``kind`` is ``"fixed-point"`` (unbounded certificate found), ``"chain"``
    (the deepest chain certificate within budget), or ``"trivial"`` (the
    input problem is already 0-round solvable, so no lower bound exists and
    ``certificate`` is None).
    """

    problem: Problem
    kind: str
    certificate: LowerBoundCertificate | None
    stats: SearchStats

    @property
    def unbounded(self) -> bool:
        return self.kind == KIND_FIXED_POINT

    @property
    def bound(self) -> int | None:
        """Rounds the problem is certified unsolvable in (None when trivial)."""
        if self.certificate is None:
            return None
        return self.certificate.claimed_bound

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form -- the payload of ``python -m repro search --json``."""
        return {
            "problem": self.problem.to_dict(),
            "kind": self.kind,
            "bound": self.bound,
            "unbounded": self.unbounded,
            "certificate": (
                None if self.certificate is None else self.certificate.to_dict()
            ),
            "stats": self.stats.to_dict(),
        }

    def summary(self) -> str:
        lines = [f"search over {self.problem.name}: {self.kind}"]
        if self.kind == KIND_TRIVIAL:
            lines.append("problem is 0-round solvable; no lower bound exists")
        elif self.certificate is not None:
            if self.unbounded:
                lines.append(
                    "pumpable fixed point: Omega(log n) on bounded-degree "
                    "high-girth classes"
                )
            lines.append(
                f"certified: not solvable in {self.certificate.claimed_bound} "
                f"round(s) ({len(self.certificate.steps)} chain step(s))"
            )
        stats = self.stats
        lines.append(
            f"explored: {stats.speedup_calls} speedup(s), "
            f"{stats.candidates_generated} candidate(s), "
            f"{stats.duplicates_pruned} duplicate(s) pruned, "
            f"{stats.zero_round_pruned} 0-round prune(s), "
            f"{stats.limit_hits} size-limit hit(s)"
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class _State:
    """A partial certificate: current problem plus the chain that reached it."""

    problem: Problem
    steps: tuple[CertificateStep, ...]
    chain_keys: tuple[str, ...]
    chain_compressed: tuple[Problem, ...]

    @property
    def score(self) -> tuple[int, int]:
        return (self.problem.description_size, len(self.problem.labels))


def execute_expand_task(engine: Engine, task: ExpandTask) -> ExpandPayload:
    """Run one beam expansion: speedup, moves, candidate evaluation.

    This is the backend-side half of the search's expansion
    (:class:`~repro.engine.executor.ExpandTask`): it performs every
    CPU-heavy part -- the speedup derivation, move generation, and each
    candidate's compression, canonical hashing, and memoised 0-round
    decision -- and returns an :class:`~repro.engine.executor.ExpandPayload`
    the driver's consumption loop turns into beam states with exactly the
    sequential loop's counter semantics.  Runs in the parent under the
    serial/thread backends and inside pool workers under ``process``.

    A derived problem that is itself 0-round solvable short-circuits move
    evaluation (all its relaxations are solvable too; the driver prunes the
    branch), mirroring the lazy sequential order.  Size-guard trips come
    back as ``limit_hit`` payloads rather than exceptions so a process
    worker's batch neighbours are unaffected.
    """
    try:
        result = engine.speedup(task.problem)
    except EngineLimitError:
        return ExpandPayload(result=None, limit_hit=True, options=(), moves_generated=0)
    moves_cap = task.max_moves
    if result.full.description_size > _LARGE_STATE_SIZE:
        moves_cap = min(task.max_moves, task.beam_width + 1)
    moves = tuple(generate_moves(result.full, max_moves=moves_cap))
    orientations = engine.config.orientations
    memo = engine.zero_round_memo

    def evaluate(target: Problem, move: RelaxationMove | None) -> ExpandOption:
        # 0-round solvability is invariant under compression (every witness
        # uses only usable labels), so the verdict runs on the compressed
        # form whose canonical hash doubles as the driver's dedup key (when
        # nothing drops it is the target, whose hash is already memoised).
        compressed = target.compressed()
        key = canonical_hash(compressed)
        if memo is None:
            solvable = is_zero_round_solvable(compressed, orientations=orientations)
            return ExpandOption(
                move=move, compressed=compressed, key=key,
                solvable=solvable, memo_hit=False,
            )
        memo_key = ZeroRoundMemo.key_from_hash(key, orientations)
        verdict = memo.lookup(memo_key)
        if verdict is not None:
            return ExpandOption(
                move=move, compressed=compressed, key=key,
                solvable=verdict, memo_hit=True,
            )
        verdict = is_zero_round_solvable(compressed, orientations=orientations)
        memo.store(memo_key, verdict)
        return ExpandOption(
            move=move, compressed=compressed, key=key,
            solvable=verdict, memo_hit=False,
        )

    options = [evaluate(result.full, None)]
    if not options[0].solvable:
        for move in moves:
            options.append(evaluate(move.target, move))
    return ExpandPayload(
        result=result,
        limit_hit=False,
        options=tuple(options),
        moves_generated=len(moves),
    )


class _Counters:
    __slots__ = (
        "speedup_calls",
        "states_expanded",
        "candidates_generated",
        "duplicates_pruned",
        "zero_round_pruned",
        "limit_hits",
        "zero_round_checks",
        "zero_round_memo_hits",
        "task_failures",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def snapshot(self) -> SearchStats:
        return SearchStats(**{name: getattr(self, name) for name in self.__slots__})

    def restore(self, data: dict[str, Any]) -> None:
        for name in self.__slots__:
            setattr(self, name, int(data.get(name, 0)))


# -- checkpoint / resume -------------------------------------------------------

#: Schema version of the search checkpoint files under
#: ``cache_dir/checkpoints/``.  A checkpoint stores everything the beam loop
#: holds between depths -- the beam states (each a partial certificate:
#: problem, steps, dedup chain), the counters, and the parameter fingerprint
#: -- so a resumed run replays the remaining depths exactly and emits a
#: byte-identical certificate.
CHECKPOINT_VERSION = 1


def _state_to_dict(state: _State) -> dict[str, object]:
    return {
        "problem": state.problem.to_dict(),
        "steps": [step.to_dict() for step in state.steps],
        "chain_keys": list(state.chain_keys),
        "chain_compressed": [p.to_dict() for p in state.chain_compressed],
    }


def _state_from_dict(data: dict[str, Any]) -> _State:
    return _State(
        problem=Problem.from_dict(data["problem"]),
        steps=tuple(CertificateStep.from_dict(step) for step in data["steps"]),
        chain_keys=tuple(str(key) for key in data["chain_keys"]),
        chain_compressed=tuple(
            Problem.from_dict(p) for p in data["chain_compressed"]
        ),
    )


def _checkpoint_path(cache_dir: str | Path, root_key: str) -> Path:
    # Root keys carry a "canon:" scheme prefix; keep filenames portable.
    slug = root_key.replace(":", "_")
    return Path(cache_dir) / "checkpoints" / f"search_{slug}.json"


def _write_checkpoint(
    path: Path,
    fingerprint: dict[str, object],
    depth: int,
    beam: list[_State],
    counters: _Counters,
) -> None:
    """Persist the beam loop's state after one completed depth, best effort.

    ``deepest`` needs no slot of its own: the loop maintains ``deepest ==
    beam[0]`` at every checkpoint site, so resume re-derives it.  A failed
    write (full disk) leaves the previous checkpoint intact -- resuming
    then redoes more depths but still converges on the identical result.
    """
    atomic_write_json(
        path,
        {
            "version": CHECKPOINT_VERSION,
            "fingerprint": fingerprint,
            "depth": depth,
            "beam": [_state_to_dict(state) for state in beam],
            "counters": counters.snapshot().to_dict(),
        },
    )


def _load_checkpoint(
    path: Path, fingerprint: dict[str, object]
) -> tuple[list[_State], dict[str, Any], int] | None:
    """Reconstruct ``(beam, counters, completed_depth)`` from a checkpoint.

    Any corruption, schema mismatch, or *parameter* mismatch (a checkpoint
    from a run with different beam width, budget, or root problem must
    never seed this one) reads as "no checkpoint": the search starts fresh,
    which is always correct, just slower.
    """
    payload = load_json(path)
    if not isinstance(payload, dict):
        return None
    if payload.get("version") != CHECKPOINT_VERSION:
        return None
    if payload.get("fingerprint") != fingerprint:
        return None
    try:
        beam = [_state_from_dict(state) for state in payload["beam"]]
        depth = int(payload["depth"])
        counters = dict(payload["counters"])
    except (KeyError, TypeError, ValueError, AttributeError):
        return None
    if not beam or depth < 1:
        return None
    return beam, counters, depth


def search_lower_bound(
    problem: Problem,
    *,
    engine: Engine | None = None,
    max_steps: int = 8,
    beam_width: int | None = None,
    max_moves: int | None = None,
    budget: int | None = None,
    checkpoint: bool = False,
    resume: bool = False,
) -> SearchResult:
    """Automatically search for a lower-bound certificate for ``problem``.

    ``beam_width`` / ``max_moves`` / ``budget`` default to the engine's
    ``search_beam_width`` / ``search_max_moves`` / ``search_budget``
    configuration; the engine also supplies the derivation size guards, the
    memo cache, the worker pool, and the 0-round input setting
    (``orientations``).  See the module docstring for the algorithm.

    With ``checkpoint=True`` and an engine ``cache_dir``, the full beam
    state is serialized to ``cache_dir/checkpoints/`` after every completed
    depth; a later call with ``resume=True`` (same problem, same
    parameters) reconstructs that state and continues, producing the
    certificate an uninterrupted run would have -- byte-identical JSON.
    The checkpoint is deleted once the search returns normally.  A resume
    finding no usable checkpoint (absent, corrupt, or written under
    different parameters) silently starts fresh.
    """
    if engine is None:
        from repro.engine import get_default_engine

        engine = get_default_engine()
    config = engine.config
    beam_width = config.search_beam_width if beam_width is None else beam_width
    max_moves = config.search_max_moves if max_moves is None else max_moves
    budget = config.search_budget if budget is None else budget
    if max_steps < 1:
        raise ValueError("max_steps must be positive")
    if beam_width < 1 or max_moves < 0 or budget < 1:
        raise ValueError("beam_width and budget must be positive, max_moves >= 0")
    orientations = config.orientations

    counters = _Counters()
    memo = engine.zero_round_memo

    def zero_round(candidate: Problem, problem_hash: str) -> bool:
        """Memoised 0-round check, with hits counted locally.

        The memo is shared engine-wide, so its global hit counter would
        attribute concurrent workloads to this search; looking it up here
        keeps the stats exact.  ``problem_hash`` is the candidate's already
        computed canonical hash (the dedup needs it anyway).
        """
        counters.zero_round_checks += 1
        if memo is None:
            return engine.zero_round_solvable(candidate)
        key = ZeroRoundMemo.key_from_hash(problem_hash, orientations)
        verdict = memo.lookup(key)
        if verdict is not None:
            counters.zero_round_memo_hits += 1
            return verdict
        verdict = is_zero_round_solvable(candidate, orientations=orientations)
        memo.store(key, verdict)
        return verdict

    def finish_stats() -> SearchStats:
        return counters.snapshot()

    # The root is checked and memoised on its compressed form like every
    # other candidate (0-round solvability is compression-invariant), and
    # its canonical hash doubles as the chain's first dedup key.
    root_compressed = problem.compressed()
    root_key = canonical_hash(root_compressed)

    checkpointing = checkpoint or resume
    checkpoint_file: Path | None = None
    if checkpointing and config.cache_dir is not None:
        checkpoint_file = _checkpoint_path(config.cache_dir, root_key)
        checkpoint_file.parent.mkdir(parents=True, exist_ok=True)
        # Reclaim temp files that interrupted runs (search or chase; the
        # directory is shared) abandoned next to the checkpoints: the
        # cache-wide sweep covers only the cache root and the 0-round memo
        # directory, so without this the checkpoint directory would collect
        # them forever.
        sweep_stale_tmp_files(checkpoint_file.parent)
    fingerprint: dict[str, object] = {
        "root_key": root_key,
        "max_steps": max_steps,
        "beam_width": beam_width,
        "max_moves": max_moves,
        "budget": budget,
        "orientations": orientations,
    }

    def discard_checkpoint() -> None:
        # A completed search owes no resume state; a stale checkpoint would
        # only cost the fingerprint comparison, but deleting it keeps the
        # directory an honest list of interrupted runs.
        if checkpoint_file is not None:
            with contextlib.suppress(OSError):
                checkpoint_file.unlink(missing_ok=True)

    if zero_round(root_compressed, root_key):
        discard_checkpoint()
        return SearchResult(
            problem=problem,
            kind=KIND_TRIVIAL,
            certificate=None,
            stats=finish_stats(),
        )

    root = _State(
        problem=problem,
        steps=(),
        chain_keys=(root_key,),
        chain_compressed=(root_compressed,),
    )
    beam = [root]
    deepest = root
    start_depth = 1
    if resume and checkpoint_file is not None:
        restored = _load_checkpoint(checkpoint_file, fingerprint)
        if restored is not None:
            beam, saved_counters, completed_depth = restored
            # The saved counters already include this run's root 0-round
            # check (the original run performed it too), so restoring
            # wholesale keeps the final stats identical to an
            # uninterrupted run.
            counters.restore(saved_counters)
            deepest = beam[0]
            start_depth = completed_depth + 1

    plan = engine.fault_plan

    for depth in range(start_depth, max_steps + 1):
        to_expand = beam[: max(0, budget - counters.speedup_calls)]
        if not to_expand:
            break
        counters.speedup_calls += len(to_expand)
        counters.states_expanded += len(to_expand)
        # The CPU-heavy work (derivation, moves, per-candidate hashing and
        # 0-round decisions) runs backend-side through the engine's
        # configured executor; this loop only consumes the evaluated
        # payloads, so the counters and beam construction stay sequential
        # and deterministic whatever the backend.
        tasks: list[Task] = [
            ExpandTask(
                problem=state.problem, max_moves=max_moves, beam_width=beam_width
            )
            for state in to_expand
        ]
        payloads = engine.execute_batch(tasks)

        candidates: list[_State] = []
        frontier_keys: dict[str, int] = {}
        for state, payload in zip(to_expand, payloads):
            if isinstance(payload, TaskFailure):
                # The expansion was quarantined by the retry policy (its
                # worker kept crashing or hanging); drop the state like a
                # limit hit -- its beam siblings carry on.
                counters.task_failures += 1
                continue
            assert isinstance(payload, ExpandPayload)
            if payload.limit_hit or payload.result is None:
                counters.limit_hits += 1
                continue
            derived = payload.result.full
            derived_option = payload.options[0]
            derived_compressed = derived_option.compressed
            derived_key = derived_option.key
            speedup_step = CertificateStep(
                kind=SPEEDUP, problem=derived, speedup=payload.result
            )
            for option in payload.options:
                counters.candidates_generated += 1
                move = option.move
                compressed, key = option.compressed, option.key
                # The candidate's certificate chain is the state's chain plus
                # the derived problem (and, for move options, the relaxation
                # target as the final position); the revisit scan covers every
                # position strictly before the candidate's own, so the index
                # it yields is exactly verify()'s chain position.
                if move is None:
                    steps = state.steps + (speedup_step,)
                    scan_keys = state.chain_keys
                    scan_compressed = state.chain_compressed
                else:
                    steps = state.steps + (
                        speedup_step,
                        CertificateStep(
                            kind=RELAXATION,
                            problem=move.target,
                            relaxation=move.certificate(),
                        ),
                    )
                    scan_keys = state.chain_keys + (derived_key,)
                    scan_compressed = state.chain_compressed + (derived_compressed,)
                revisit = _chain_revisit(scan_keys, scan_compressed, key, compressed)
                if revisit is not None:
                    certificate = LowerBoundCertificate(
                        initial=problem,
                        steps=steps,
                        terminal=TERMINAL_FIXED_POINT,
                        fixed_point_of=revisit,
                        orientations=orientations,
                    )
                    discard_checkpoint()
                    return SearchResult(
                        problem=problem,
                        kind=KIND_FIXED_POINT,
                        certificate=certificate,
                        stats=finish_stats(),
                    )
                counters.zero_round_checks += 1
                if option.memo_hit:
                    counters.zero_round_memo_hits += 1
                if option.solvable:
                    counters.zero_round_pruned += 1
                    if move is None:
                        # Relaxations of a 0-round solvable problem are all
                        # 0-round solvable too; the whole branch is dead
                        # (the payload carried no move options -- see
                        # execute_expand_task -- but they count as pruned).
                        counters.zero_round_pruned += payload.moves_generated
                        break
                    continue
                candidate = _State(
                    problem=derived if move is None else move.target,
                    steps=steps,
                    chain_keys=scan_keys + (key,),
                    chain_compressed=scan_compressed + (compressed,),
                )
                earlier = frontier_keys.get(key)
                if earlier is not None:
                    counters.duplicates_pruned += 1
                    if candidate.score < candidates[earlier].score:
                        candidates[earlier] = candidate
                    continue
                frontier_keys[key] = len(candidates)
                candidates.append(candidate)

        if not candidates:
            break
        candidates.sort(key=lambda state: (state.score, state.chain_keys[-1]))
        beam = candidates[:beam_width]
        deepest = beam[0]
        if checkpointing and checkpoint_file is not None:
            _write_checkpoint(checkpoint_file, fingerprint, depth, beam, counters)
        if plan is not None and plan.should_abort_search(depth):
            # The deterministic stand-in for kill -9 in checkpoint/resume
            # tests: die right after the depth's state is durable.
            raise KeyboardInterrupt(f"injected search abort after depth {depth}")

    certificate = LowerBoundCertificate(
        initial=problem,
        steps=deepest.steps,
        terminal=TERMINAL_UNSOLVABLE,
        orientations=orientations,
    )
    discard_checkpoint()
    return SearchResult(
        problem=problem,
        kind=KIND_CHAIN,
        certificate=certificate,
        stats=finish_stats(),
    )


def _chain_revisit(
    chain_keys: tuple[str, ...],
    chain_compressed: tuple[Problem, ...],
    key: str,
    compressed: Problem,
) -> int | None:
    """Earliest chain position the candidate problem revisits, if any.

    Canonical hashes screen cheaply; the isomorphism test confirms (the
    hash's symmetric-alphabet fallback is rename-sensitive, so hash
    inequality does not disprove isomorphism -- but a missed revisit only
    delays the fixed point, never unsoundly certifies one).
    """
    for position, earlier_key in enumerate(chain_keys):
        if earlier_key != key:
            continue
        if find_isomorphism(compressed, chain_compressed[position]) is not None:
            return position
    return None
