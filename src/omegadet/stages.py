"""The staged reference: one macrostate transition as four stages on ranked slices.

A transition from one ranked slice to the next runs four stages:

* ``step`` computes restricted successors per set and splits accepting states
  (left child, fresh rank) from non-accepting ones (right child, inherited
  rank).  Fresh ranks are pairwise distinct, assigned left to right.
* ``prune`` drops empty sets, relocating each surviving position's rank to the
  minimum over its block of trailing empties; ranks stranded before the first
  non-empty set die.  Surviving ranks that marked an empty set are green,
  ranks that did not survive are red.
* ``merge`` may union adjacent sets, constrained by the dominating rank: sets
  ranked below it stay singletons and the set holding it ends its interval.
  The choice of interval partition is the pluggable merge strategy.
* ``normalize`` compacts the distinct surviving ranks onto ``1..n`` while
  preserving their order.

The edge priority is ``2k`` when the dominating rank ``k`` (the minimum green
or red rank) is green and ``2k - 1`` otherwise; when no rank is active it is
``2(|Q|+1) - 1``.  If every set dies the successor is the unique empty sink
slice, entered and left with priority 1.

Each public stage function states its stage on slices, frozensets of state
ids and tuples of ranks, so its memory grows with the slice and not with its
largest state id or rank.  ``_choose``, which ``choose_partition`` wraps,
picks the partition; only its adaptive branch encodes the pruned sets as
bitmasks, for the lookup it shares with the fused kernel of
:mod:`omegadet.determinize`.  Its adaptive branch scans every set count with
no probe, so the tests' replay checks the kernel's probe against an
independent lookup.  ``_stages`` runs the stages in turn into one
:class:`TransitionTrace`, for ``transition`` and so ``omegadet trace``.  The
tests replay every explored edge through ``_stages`` with the adaptive index
that exploration held and require the fused kernel's successor and priority,
so the set arithmetic checks the mask arithmetic instead of sharing it, and
``dominating_rank`` is the one set-based statement of the priority rule.
``_key`` encodes a slice into the kernel's ``(masks, ranks)`` macrostate and
``_slice`` decodes it back.

The kernel imports nothing from this module, so ``determinize``, ``check``
and ``stats`` run without it.  ``omegadet trace`` loads it on first use, as
does asking the package or :mod:`omegadet.determinize` for a public name of it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .determinize import (
    InternalInvariantError,
    Macrostate,
    MergeStrategy,
    UnionIndex,
    _remember,
    _reuse,
    _union,
    as_strategy,
)
from .nba import BuchiAutomaton, check_symbols, from_mask, successors, to_mask
from .safra import unflatten
from .slices import PreSlice, RankedSlice

Interval = tuple[int, int]
IntervalPartition = tuple[Interval, ...]


@dataclass(frozen=True)
class TransitionTrace:
    """Every intermediate stage of one transition, for diagnostics and checks."""

    source: RankedSlice
    symbol: str
    stepped: PreSlice
    pruned: PreSlice
    green: frozenset[int]
    red: frozenset[int]
    dominating: int
    priority: int
    partition: IntervalPartition
    merged: PreSlice
    successor: RankedSlice


def step(aut: BuchiAutomaton, slice_: RankedSlice, symbol: str) -> PreSlice:
    """Advance one split-tree level: per position, accepting then non-accepting successors."""
    if not slice_.sets:
        # The sink steps to itself, but only on a symbol of the alphabet.
        check_symbols(aut, (symbol,))
    claimed: set[int] = set()
    out_sets: list[frozenset[int]] = []
    out_ranks: list[int] = []
    fresh = len(slice_) + 1
    for block, rank in zip(slice_.sets, slice_.ranks):
        image = successors(aut, block, symbol)
        restricted = image - claimed
        claimed |= image
        out_sets += (restricted & aut.accepting, restricted - aut.accepting)
        out_ranks += (fresh, rank)
        fresh += 1
    return PreSlice(tuple(out_sets), tuple(out_ranks))


def prune(pre: PreSlice) -> tuple[PreSlice, frozenset[int], frozenset[int]]:
    """Drop empty sets; relocate ranks leftward by block minimum.

    Returns the pruned pre-slice together with the green ranks (survivors
    that marked an empty set) and the red ranks (non-survivors).
    """
    out_sets: list[frozenset[int]] = []
    out_ranks: list[int] = []
    marks: set[int] = set()
    for block, rank in zip(pre.sets, pre.ranks):
        if block:
            out_sets.append(block)
            out_ranks.append(rank)
        else:
            marks.add(rank)
            if out_ranks and rank < out_ranks[-1]:
                out_ranks[-1] = rank
    surviving = frozenset(out_ranks)
    return PreSlice(tuple(out_sets), tuple(out_ranks)), surviving & marks, frozenset(pre.ranks) - surviving


def dominating_rank(green: frozenset[int], red: frozenset[int], num_states: int) -> tuple[int, int]:
    """Minimum active rank and the edge priority it induces.

    With no active ranks the dominating rank defaults to ``num_states + 1``
    and the priority is odd.
    """
    overlap = green & red
    if overlap:
        raise InternalInvariantError(f"green and red overlap: {sorted(overlap)}")
    active = green | red
    k = min(active) if active else num_states + 1
    return k, 2 * k if k in green else 2 * k - 1


def _forced_cuts(ranks: tuple[int, ...], k: int) -> set[int]:
    """Mandatory interval boundaries: around every rank below ``k``, after the rank-``k`` set."""
    n = len(ranks)
    cuts: set[int] = set()
    for pos, rank in enumerate(ranks, start=1):
        if rank < k:
            if pos < n:
                cuts.add(pos)
            if pos > 1:
                cuts.add(pos - 1)
        elif rank == k and pos < n:
            cuts.add(pos)
    return cuts


def _partition_from_cuts(n: int, cuts: Iterable[int]) -> IntervalPartition:
    intervals: list[Interval] = []
    lo = 1
    for cut in sorted(cuts):
        intervals.append((lo, cut))
        lo = cut + 1
    if n:
        intervals.append((lo, n))
    return tuple(intervals)


def _choose(
    pre: PreSlice, k: int, green: frozenset[int], strategy: MergeStrategy, explored: UnionIndex
) -> IntervalPartition:
    n = len(pre)
    if strategy.kind == "adaptive":
        # The adaptive index is keyed by bitmasks (see _remember).
        masks = tuple([to_mask(block) for block in pre.sets])
        found = _reuse(masks, pre.ranks, k, _union(masks), explored, 1)
        if found is not None:
            return _partition_from_cuts(n, found[0])
    if strategy.kind == "ms":
        cuts: Iterable[int] = range(1, n)
    elif strategy.kind == "safra":
        shape = unflatten(pre.ranks)
        cuts = set(range(1, n))
        for pos, rank in enumerate(pre.ranks, start=1):
            if rank in green:
                cuts.difference_update(range(shape.left_boundary_of[pos - 1] + 1, pos))
    else:
        # ``max``, and an adaptive miss.
        cuts = _forced_cuts(pre.ranks, k)
    return _partition_from_cuts(n, cuts)


def merge(pre: PreSlice, partition: IntervalPartition) -> PreSlice:
    """Union the sets and keep the minimum rank within each interval."""
    n = len(pre)
    out_sets: list[frozenset[int]] = []
    out_ranks: list[int] = []
    covered = 0
    for lo, hi in partition:
        if lo != covered + 1 or hi < lo or hi > n:
            raise InternalInvariantError(f"partition {partition} does not tile 1..{n}")
        covered = hi
        out_sets.append(frozenset().union(*pre.sets[lo - 1 : hi]))
        out_ranks.append(min(pre.ranks[lo - 1 : hi]))
    if covered != n:
        raise InternalInvariantError(f"partition {partition} does not cover 1..{n}")
    return PreSlice(tuple(out_sets), tuple(out_ranks))


def normalize(pre: PreSlice) -> RankedSlice:
    """Compact pairwise distinct ranks onto ``1..n`` preserving their order.

    Checks that the sets are non-empty and the ranks distinct.  The
    ``PreSlice`` constructor checked disjointness and positive ranks, and the
    ``RankedSlice`` constructor rejects the result unless the rightmost rank
    was the least.
    """
    if not pre.sets:
        return RankedSlice(pre.sets, pre.ranks)
    if not all(pre.sets):
        raise InternalInvariantError("normalize requires a pre-slice without empty sets")
    order = sorted(pre.ranks)
    if len(set(order)) != len(order):
        raise InternalInvariantError(f"normalize requires pairwise distinct ranks, got {pre.ranks}")
    dense = {rank: i for i, rank in enumerate(order, start=1)}
    return RankedSlice(pre.sets, tuple([dense[rank] for rank in pre.ranks]))


def _stages(
    aut: BuchiAutomaton, source: RankedSlice, symbol: str, strategy: MergeStrategy, explored: UnionIndex
) -> TransitionTrace:
    """Every stage of one transition from ``source``, by the staged reference."""
    stepped = step(aut, source, symbol)
    if source.sets:
        pruned, green, red = prune(stepped)
        k, priority = dominating_rank(green, red, aut.num_states)
        partition = _choose(pruned, k, green, strategy, explored)
        merged = merge(pruned, partition)
    else:
        # Sink self-loop: rank 1 stays dead, so the edge keeps priority 1.
        pruned = merged = stepped
        green, red, k, priority, partition = frozenset(), frozenset({1}), 1, 1, ()
    return TransitionTrace(
        source=source,
        symbol=symbol,
        stepped=stepped,
        pruned=pruned,
        green=green,
        red=red,
        dominating=k,
        priority=priority,
        partition=partition,
        merged=merged,
        successor=normalize(merged),
    )


# --- Conversion between slices and macrostates -------------------------------


def _key(slice_: RankedSlice) -> Macrostate:
    return tuple([to_mask(block) for block in slice_.sets]), slice_.ranks


def _slice(macrostate: Macrostate) -> RankedSlice:
    """The ranked slice of a macrostate, the inverse of :func:`_key`."""
    return RankedSlice(tuple([from_mask(mask) for mask in macrostate[0]]), macrostate[1])


def _explored(strategy: MergeStrategy, context: Iterable[RankedSlice]) -> UnionIndex:
    index: UnionIndex = {}
    if strategy.kind == "adaptive":
        for key in map(_key, context):
            _remember(index, key)
    return index


def choose_partition(
    pre: PreSlice,
    k: int,
    green: frozenset[int],
    strategy: MergeStrategy | str,
    context: Iterable[RankedSlice] = (),
) -> IntervalPartition:
    """Pick the merge partition according to the strategy.

    ``ms`` keeps every position separate, ``max`` applies only the mandatory
    boundaries, ``safra`` additionally fuses the complete subtree of every
    green rank, and ``adaptive`` picks a permitted partition whose successor
    is already in ``context`` before falling back.  It looks the successor up
    among the context slices with the same state union; among several, the
    partition with the fewest intervals wins, then the one whose cuts come
    first in lexicographic order.
    """
    strategy = as_strategy(strategy)
    return _choose(pre, k, green, strategy, _explored(strategy, context))


def transition(
    aut: BuchiAutomaton,
    slice_: RankedSlice,
    symbol: str,
    strategy: MergeStrategy | str,
    context: Iterable[RankedSlice] = (),
) -> TransitionTrace:
    """One transition of the constructed parity automaton, keeping every intermediate stage.

    Under ``adaptive`` the successor depends on ``context``, the macrostates
    already explored.  Passing a DPA edge's target alone as ``context``
    reproduces that edge: the target fixes the one permitted partition that
    reaches it.
    """
    strategy = as_strategy(strategy)
    return _stages(aut, slice_, symbol, strategy, _explored(strategy, context))


def initial_slice(aut: BuchiAutomaton) -> RankedSlice:
    """The starting macrostate: one set holding all initial states, rank 1."""
    return RankedSlice(sets=(frozenset(aut.initial),), ranks=(1,))
