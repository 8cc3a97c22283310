"""The compatibility operator and its Galois connection.

For a problem with edge constraint ``g``, define for a set ``Y`` of labels

    comp(Y) = { z : for all y in Y, {y, z} in g }.

``comp`` is antitone and ``comp(comp(.))`` is a closure operator, so the pair
``(comp, comp)`` is a Galois connection on the subset lattice.  Property 5 of
the maximality simplification (Theorem 2) says exactly that the usable
half-step labels are the *closed* sets ``Y = comp(comp(Y))`` and that the
simplified edge constraint is ``{ {Y, comp(Y)} : Y closed }`` -- each closed
set paired with its polar.

Closed sets are intersections of the polars of singletons, so they can be
enumerated by closing ``{comp({y})} U {full set}`` under pairwise
intersection, without touching the exponential subset lattice.

Since PR 3 the computation runs on the bitmask kernel
(:mod:`repro.core.alphabet`): label sets are interned into Python ints, the
polar of a singleton is one precomputed adjacency mask, and ``comp`` of any
set is a fold of ``&`` over those masks.  The ``*_mask`` methods expose that
integer surface to the other hot paths (speedup, zero-round, diagram); the
frozenset methods remain the public string-level API and simply translate at
the boundary.
"""

from __future__ import annotations

from repro.core.alphabet import Alphabet, LabelMask, intern
from repro.core.limits import EngineLimitError
from repro.core.problem import Label, Problem
from repro.core.vectorkernel import closed_masks_vector, get_numpy, resolve_kernel


class Compatibility:
    """Compatibility queries against a fixed problem's edge constraint."""

    def __init__(self, problem: Problem):
        self._problem = problem
        interned = intern(problem)
        self._alphabet: Alphabet = interned.alphabet
        self._adjacency = interned.adjacency
        self._full_mask = interned.alphabet.full_mask
        self._polar_cache: dict[LabelMask, LabelMask] = {}

    @property
    def problem(self) -> Problem:
        return self._problem

    @property
    def alphabet(self) -> Alphabet:
        """The label<->bit interning this instance computes over."""
        return self._alphabet

    # -- mask surface (the kernel API) ---------------------------------------

    def polar_mask(self, mask: LabelMask) -> LabelMask:
        """``comp`` on bitmasks: labels compatible with *every* bit of ``mask``."""
        cached = self._polar_cache.get(mask)
        if cached is not None:
            return cached
        result = int(self._full_mask)
        adjacency = self._adjacency
        remaining = int(mask)
        while remaining and result:
            low = remaining & -remaining
            result &= adjacency[low.bit_length() - 1]
            remaining ^= low
        polar = LabelMask(result)
        self._polar_cache[mask] = polar
        return polar

    def closure_mask(self, mask: LabelMask) -> LabelMask:
        """The Galois closure ``comp(comp(mask))`` on bitmasks."""
        return self.polar_mask(self.polar_mask(mask))

    def closed_masks(
        self, limit: int | None = None, *, kernel: str = "mask"
    ) -> frozenset[LabelMask]:
        """All Galois-closed sets, as bitmasks.

        Every closed set is ``comp(X)`` for some ``X`` and
        ``comp(X) = intersection of comp({x}) over x in X``, so the closed
        sets are exactly the intersection-closure of the singleton polars
        together with ``comp(empty) = all labels``.

        The closure can be exponential in the alphabet; with ``limit`` the
        enumeration aborts with :class:`~repro.core.limits.EngineLimitError`
        as soon as more than ``limit`` *usable* closed sets (non-empty with
        non-empty polar -- exactly the ones the half step materialises as
        labels) have been discovered, so the limit keeps its derived-label
        semantics: derivations whose usable count fits the limit are never
        refused, no matter how many unusable intersections exist.  Unlike
        the a-priori grid guards this one is incremental -- the true count
        is unknowable without doing the work -- so ``observed`` reports the
        count at abort, a lower bound on the total.  (The frozen legacy
        path has no such guard; it cannot reach this regime in feasible
        time, which is exactly why the search needs the abort.)

        Usability needs no polar per candidate: every member other than the
        full set is ``comp(X)`` for a non-empty ``X``, and ``X`` is contained
        in ``comp(comp(X))``, so its polar is non-empty and it is usable iff
        it is non-empty.  Only the full set needs one polar test.

        ``kernel`` selects the evaluation tier: ``"vector"`` (or ``"auto"``
        with numpy usable) batches the pairwise intersections of a whole
        frontier per vector op (:func:`repro.core.vectorkernel.
        closed_masks_vector`); the result, including every limit trip point,
        is identical to the scalar fold.
        """
        full = self._full_mask
        full_usable = self._full_set_usable()
        if resolve_kernel(kernel) == "vector" and get_numpy() is not None:
            return frozenset(
                LabelMask(mask)
                for mask in closed_masks_vector(
                    [int(mask) for mask in self._adjacency],
                    int(full),
                    self._alphabet.size,
                    limit,
                    full_usable,
                )
            )

        def abort(count: int) -> None:
            raise EngineLimitError(
                f"half step enumerated more than {limit} usable "
                f"Galois-closed sets",
                limit_name="max_derived_labels",
                limit=limit,
                observed=count,
            )

        generators: set[LabelMask] = set(self._adjacency)
        generators.add(full)
        closed: set[LabelMask] = set(generators)
        usable = 0
        if limit is not None:
            usable = sum(1 for mask in closed if mask and (mask != full or full_usable))
            if usable > limit:
                abort(usable)
        frontier = list(generators)
        while frontier:
            current = frontier.pop()
            for generator in generators:
                candidate = LabelMask(current & generator)
                if candidate not in closed:
                    closed.add(candidate)
                    frontier.append(candidate)
                    # A fresh candidate is never the full set (a generator).
                    if limit is not None and candidate:
                        usable += 1
                        if usable > limit:
                            abort(usable)
        return frozenset(closed)

    def usable_closed_masks(
        self, limit: int | None = None, *, kernel: str = "mask"
    ) -> frozenset[LabelMask]:
        """Closed masks usable as half-step labels (self and polar non-empty).

        ``limit`` bounds the underlying closed-set enumeration and ``kernel``
        selects its evaluation tier; usability is decided in closed form
        (see :meth:`closed_masks`).
        """
        unusable = {LabelMask(0)}
        if not self._full_set_usable():
            unusable.add(self._full_mask)
        return self.closed_masks(limit=limit, kernel=kernel) - unusable

    def _full_set_usable(self) -> bool:
        """Whether the full label set is non-empty with a non-empty polar."""
        return bool(self._full_mask) and bool(self.polar_mask(self._full_mask))

    # -- frozenset surface (the public string-level API) ---------------------

    def polar(self, subset: frozenset[Label]) -> frozenset[Label]:
        """Return ``comp(subset)``: labels compatible with *every* element."""
        return self._alphabet.label_set(self.polar_mask(self._alphabet.mask(subset)))

    def closure(self, subset: frozenset[Label]) -> frozenset[Label]:
        """Return the Galois closure ``comp(comp(subset))``."""
        return self._alphabet.label_set(self.closure_mask(self._alphabet.mask(subset)))

    def is_closed(self, subset: frozenset[Label]) -> bool:
        """Return True iff ``subset`` equals its own closure."""
        mask = self._alphabet.mask(subset)
        return self.closure_mask(mask) == mask

    def closed_sets(self) -> frozenset[frozenset[Label]]:
        """Enumerate all Galois-closed sets (see :meth:`closed_masks`)."""
        label_set = self._alphabet.label_set
        return frozenset(label_set(mask) for mask in self.closed_masks())

    def usable_closed_sets(self) -> frozenset[frozenset[Label]]:
        """Closed sets usable as half-step labels.

        A half-step label ``Y`` appears on one side of an edge whose other
        side carries ``comp(Y)``; if either is empty the label can never be
        part of a correct solution (``h_{1/2}`` requires a choice from every
        set), so both must be non-empty.
        """
        label_set = self._alphabet.label_set
        return frozenset(label_set(mask) for mask in self.usable_closed_masks())
