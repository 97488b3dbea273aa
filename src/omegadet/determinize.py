"""The macrostate transition pipeline and parity automaton construction.

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

Exploration keeps a macrostate as a pair ``(masks, ranks)`` of int tuples:
one state-set bitmask (see :mod:`omegadet.nba`) and one rank per position.
``_explore`` interns the pairs, sharing one int per distinct mask, and hands
them in id order to :func:`determinize` and ``omegadet trace``.  The fused
kernel and the adaptive index work on that bit layout; ``_key`` encodes a
slice into it, ``_slice`` decodes it back and ``_labels`` into label text.

Exploration runs one fused kernel per edge, ``_successor``: a single loop
steps and prunes without building the stepped macrostate, and only the
normalized successor and the priority are returned.  The loop keeps the
states that no earlier position claimed as one complement mask.  A position
whose image is already claimed dies in one branch, which marks its rank and
relocates it onto the last survivor when lower, and an all-accepting image
is appended once, with the source rank that its empty sibling hands it.
Under ``ms`` (whose merge is the identity) the kernel builds no partition.
Under ``safra``, ``max`` and ``adaptive``, one right-to-left pass over the
pruned sets merges them into runs, and the two strategies differ only in
when a set stops the run to its left: ``safra`` runs each green rank's
complete subtree, ``max`` the coarsest permitted intervals.  Either way the
kernel compacts the ranks itself, one popcount over their bitmask per rank.
It checks nothing: its source is always normalized, so every invariant holds
by construction.

``adaptive`` keeps the explored macrostates in sets keyed by their state
union and number of sets.  It builds the ``max`` successor first and returns
it when its key's set holds it, since it has the fewest sets of any permitted
merge; :func:`determinize` then finds its id.  Only then does it scan the
finer set counts, stopping at the first with a match, and on a miss it
returns the ``max`` successor.  The staged ``_choose`` scans every count with
no probe, so the tests' replay checks the probe against an independent lookup.

The public stage functions ``step``, ``prune``, ``dominating_rank``,
``merge`` and ``normalize`` are the staged reference.  Each states its stage
on slices, frozensets of state ids and tuples of ranks, so its memory grows
with the slice and not with its largest state id or rank.  ``_choose``, which
``choose_partition`` wraps, picks the partition; only its adaptive branch
encodes the pruned sets as bitmasks, for the lookup it shares with the fused
kernel.  ``_stages`` runs them in turn into one :class:`TransitionTrace`, for
``transition`` and so ``omegadet trace``.  The tests replay every explored
edge through ``_stages`` with the adaptive index that exploration held and
require the fused kernel's successor and priority, so the set arithmetic
checks the mask arithmetic instead of sharing it, and ``dominating_rank``
is the one set-based statement of the priority rule.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .nba import BuchiAutomaton, SuccessorMasks, check_symbols, from_mask, successors, to_mask
from .parity import ParityAutomaton, Rows, _built
from .slices import PreSlice, RankedSlice
from .safra import unflatten


class CapacityError(RuntimeError):
    """The configured macrostate cap was exceeded during exploration."""


class InternalInvariantError(RuntimeError):
    """A pipeline-internal invariant failed; indicates a bug or bad input."""


# The merge strategy kinds, which are also their CLI tokens.
_KINDS = ("ms", "safra", "max", "adaptive")


@dataclass(frozen=True)
class MergeStrategy:
    """Merge-stage policy: identity, green-subtree collapse, coarsest, or successor reuse.

    An adaptive strategy merges as ``max`` when no permitted partition leads
    to an already explored successor.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")


# The strategy of each kind, by CLI token.
STRATEGIES = {kind: MergeStrategy(kind) for kind in _KINDS}
MULLER_SCHUPP, SAFRA, MAX_COLLAPSE, ADAPTIVE = STRATEGIES.values()


def as_strategy(value: MergeStrategy | str) -> MergeStrategy:
    """Coerce a CLI token (``ms``/``safra``/``max``/``adaptive``) to a strategy."""
    return value if isinstance(value, MergeStrategy) else MergeStrategy(value)


Interval = tuple[int, int]
IntervalPartition = tuple[Interval, ...]
Macrostate = tuple[tuple[int, ...], tuple[int, ...]]
# The set of explored macrostates with each state union and number of sets.
# Fill it through _remember only.
UnionIndex = dict[tuple[int, int], set[Macrostate]]


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


# --- Interval partitions and the adaptive index ------------------------------


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


def _union(masks: tuple[int, ...]) -> int:
    union = 0
    for mask in masks:
        union |= mask
    return union


def _induced_cuts(
    masks: tuple[int, ...], ranks: tuple[int, ...], k: int, target: Macrostate
) -> tuple[int, ...] | None:
    """Cuts of the permitted partition whose merge normalizes to ``target``, or None.

    ``target`` must have between one and ``len(masks)`` sets and the union of
    ``masks`` as its state union, as every target that :func:`_reuse` hands
    over does, so the pruned sets never run out before a target set is covered.
    One pass checks that every target set is a run of consecutive pruned sets,
    that the runs keep the forced cuts (a rank below ``k`` only alone, rank
    ``k`` only at the end of its run), and that the run minima are ordered as
    the target ranks, which form a bijection onto ``1..m``.
    """
    target_masks, target_ranks = target
    n = len(masks)
    # The first and last runs start and end the pruned slice: a cheap rejection first.
    if masks[0] & ~target_masks[0] or masks[-1] & ~target_masks[-1]:
        return None
    minima = [0] * (len(target_masks) + 1)
    cuts: list[int] = []
    pos = 0
    for block, rank in zip(target_masks, target_ranks):
        start = pos
        covered = 0
        low = 0
        while covered != block:
            if masks[pos] & ~block or (pos > start and low <= k):
                return None
            covered |= masks[pos]
            if pos == start or ranks[pos] < low:
                low = ranks[pos]
            pos += 1
        if pos - start > 1 and low < k:
            return None
        minima[rank] = low
        cuts.append(pos)
    if pos != n:
        return None
    for i in range(2, len(minima)):
        if minima[i - 1] >= minima[i]:
            return None
    return tuple(cuts[:-1])


def _remember(explored: UnionIndex, macrostate: Macrostate) -> None:
    """Add an explored macrostate to the adaptive lookup index."""
    masks = macrostate[0]
    explored.setdefault((_union(masks), len(masks)), set()).add(macrostate)


def _reuse(
    masks: tuple[int, ...], ranks: tuple[int, ...], k: int, union: int, explored: UnionIndex, fewest: int
) -> tuple[tuple[int, ...], Macrostate] | None:
    """The cuts of the adaptive partition and the explored macrostate it reaches, or None.

    Merge keeps the state union, and a partition into ``m`` intervals gives
    ``m`` sets, so only explored macrostates keyed ``(union, m)`` can be
    reached, for ``m`` from ``fewest`` up to the number of pruned sets.  The
    first match in the order of the permitted partitions wins: fewest cuts, so
    the scan stops at the first count with a match, then the lexicographic
    order of cuts within that count.  Equal cuts reach equal targets, so the
    pick does not depend on the order in which a set yields them.
    """
    for count in range(fewest, len(masks) + 1):
        best: tuple[tuple[int, ...], Macrostate] | None = None
        for target in explored.get((union, count), ()):
            cuts = _induced_cuts(masks, ranks, k, target)
            if cuts is not None and (best is None or cuts < best[0]):
                best = cuts, target
        if best is not None:
            return best
    return None


# --- The staged reference on slices ------------------------------------------


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


# --- The fused kernel on (masks, ranks) macrostates --------------------------


_SINK: Macrostate = ((), ())


def _successor(
    post: SuccessorMasks,
    accepting: int,
    num_states: int,
    source: Macrostate,
    strategy: MergeStrategy,
    explored: UnionIndex,
) -> tuple[Macrostate, int]:
    """The successor and priority of :func:`_stages`, with step and prune in one loop.

    ``source`` must be normalized, as every explored macrostate is: with ranks
    ``1..n`` the fresh ranks ``n+1..2n`` exceed every rank before them, and
    the stepped ranks are exactly ``1..2n``.  Hence an empty accepting child
    never relocates a rank and its fresh rank dies red, never green, so only
    source ranks need marking; and an accepting child whose sibling is empty
    always takes the source rank.

    The successor comes out normalized, and each merge rule runs in one place:
    under ``ms`` the pruned sets are the merged ones, under ``safra`` and
    ``max`` :func:`_runs` merges them.  ``adaptive`` first probes the ``max``
    runs, the permitted partition with the fewest sets, so when the index
    holds them they are the first match in the order of :func:`_reuse` and
    the successor.  Then :func:`_reuse` scans the finer set counts, and on a
    miss the probe's runs are the successor.  ``_induced_cuts`` accepts an
    explored macrostate only if merging and normalizing give exactly it.
    """
    masks, ranks = source
    if not masks:
        return _SINK, 1
    # ``free`` holds the states no earlier position claimed, as a complement
    # mask, and ``last`` the rank of the last surviving set (0 before it).
    free = -1
    out_masks: list[int] = []
    out_ranks: list[int] = []
    surviving = 0
    marks = 0
    last = 0
    fresh = len(masks) + 1
    for mask, rank in zip(masks, ranks):
        restricted = post[mask] & free
        if not restricted:
            # Both children are empty: the source rank marks, and relocates
            # onto the last survivor if it is below its rank.
            marks |= 1 << rank
            if rank < last:
                surviving ^= 1 << last | 1 << rank
                out_ranks[-1] = last = rank
        else:
            free ^= restricted
            left = restricted & accepting
            if left == restricted:
                # Only the accepting child survives, and it takes the source
                # rank, which the empty right child marks.
                marks |= 1 << rank
            elif left:
                out_masks.append(left)
                out_ranks.append(fresh)
                surviving |= 1 << fresh
                restricted ^= left
            out_masks.append(restricted)
            out_ranks.append(rank)
            surviving |= 1 << rank
            last = rank
        fresh += 1
    green = surviving & marks
    # The dominating rank is the least green or red rank; the red ones are
    # the stepped ranks ``1..2n`` that did not survive.
    red = ((1 << fresh) - 2) & ~surviving
    active = green | red
    k = (active & -active).bit_length() - 1 if active else num_states + 1
    priority = 2 * k if green >> k & 1 else 2 * k - 1
    if not out_masks:
        return _SINK, priority
    kind = strategy.kind
    if kind == "adaptive":
        # The max successor has the fewest sets of any permitted merge, so if it
        # is explored the scan would pick it first.  Every claimed state lands in
        # exactly one pruned set, so ``claimed`` is their union.
        claimed = ~free
        coarsest = _runs(out_masks, out_ranks, k, green, False)
        fewest = len(coarsest[0])
        if coarsest in explored.get((claimed, fewest), ()):
            return coarsest, priority
        found = _reuse(tuple(out_masks), tuple(out_ranks), k, claimed, explored, fewest + 1)
        return (coarsest if found is None else found[1]), priority
    if kind == "ms":
        return _compact(tuple(out_masks), out_ranks, surviving), priority
    return _runs(out_masks, out_ranks, k, green, kind == "safra"), priority


def _runs(masks: list[int], ranks: list[int], k: int, green: int, safra: bool) -> Macrostate:
    """The pruned sets merged into runs under the ``safra`` or the ``max`` rule, compacted.

    One right-to-left pass: a set joins the run to its right when ``low`` is
    non-zero and below its rank, and each run keeps its minimum rank.  After
    a set that starts a run, ``safra`` lets the sets ranked above it join
    when its rank is green, so each green rank's subtree is one run; ``max``
    lets the sets ranked above ``k`` join when its rank is at least ``k``, so
    every set ranked below ``k`` stays alone and the rank-``k`` set ends its
    run.  The run minima are distinct ranks of the pruned sets and the last
    run holds the least, so ``_compact`` maps them onto ``1..m`` unchecked.
    """
    run_masks: list[int] = []
    run_ranks: list[int] = []
    low = 0
    for mask, rank in zip(reversed(masks), reversed(ranks)):
        if 0 < low < rank:
            run_masks[-1] |= mask
            if rank < run_ranks[-1]:
                run_ranks[-1] = rank
            continue
        run_masks.append(mask)
        run_ranks.append(rank)
        if safra:
            # A green rank's subtree is the run ending at it of ranks at or above it.
            low = rank if green >> rank & 1 else 0
        else:
            # Sets ranked below ``k`` stay alone, and the rank-``k`` set ends its run.
            low = k if rank >= k else 0
    run_masks.reverse()
    run_ranks.reverse()
    minima = 0
    for rank in run_ranks:
        minima |= 1 << rank
    return _compact(tuple(run_masks), run_ranks, minima)


def _compact(masks: tuple[int, ...], ranks: list[int], present: int) -> Macrostate:
    """``masks`` with ``ranks`` compacted onto ``1..n``; ``present`` is the bitmask of ``ranks``.

    Each rank ``r`` becomes the number of ranks up to ``r``, one popcount.
    The caller guarantees the ranked-slice invariants: non-empty, pairwise
    disjoint sets and pairwise distinct positive ranks, the last the least.
    """
    return masks, tuple([(present & ((2 << rank) - 1)).bit_count() for rank in ranks])


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


def determinize(
    aut: BuchiAutomaton,
    strategy: MergeStrategy | str = MULLER_SCHUPP,
    *,
    cap: int = 1_000_000,
    labels: bool = True,
) -> ParityAutomaton:
    """Breadth-first exploration of the macrostate graph into a parity automaton.

    Macrostates are deduplicated by structural slice equality and numbered in
    discovery order by :func:`_explore`, so the output is a deterministic
    function of the input automaton and strategy, and the explored rows
    become the automaton's without a copy or a check.  ``labels`` annotates
    every state with its canonical slice string, from which :func:`transition`
    recomputes an edge with the staged reference.  Exceeding ``cap``
    macrostates raises :class:`CapacityError`; ``cap`` must be at least 1,
    for the initial macrostate, or :class:`ValueError` is raised.
    """
    if cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    order, rows = _explore(aut, strategy, cap)
    # Every state has one edge per symbol, so the rows are complete lists.
    return _built(len(order), aut.alphabet, 0, rows, _labels(order) if labels else {})


def _explore(aut: BuchiAutomaton, strategy: MergeStrategy | str, cap: int) -> tuple[list[Macrostate], Rows]:
    """The explored macrostates in id order and each symbol's rows of targets and priorities.

    The initial macrostate has id 0, and a source's position in the walked
    list is its id.  Each successor is one call of the fused kernel, which
    checks nothing, and one dict lookup; a new one first takes the int
    objects of equal masks already explored.
    """
    strategy = as_strategy(strategy)
    # Each symbol's rows of targets and priorities, indexed by source id.
    rows = {symbol: ([], []) for symbol in aut.alphabet}
    posts = [(aut.post(symbol), *rows[symbol]) for symbol in aut.alphabet]
    accepting: int = aut.accepting_mask  # type: ignore[attr-defined]
    start = _key(initial_slice(aut))
    ids: dict[Macrostate, int] = {start: 0}
    # The macrostates in discovery order, which is id order.
    order: list[Macrostate] = [start]
    # One int object per distinct mask value, shared by every macrostate that holds it.
    canon: dict[int, int] = {}
    adaptive = strategy.kind == "adaptive"
    index: UnionIndex = {}
    if adaptive:
        _remember(index, start)
    for current in order:
        for post, targets, priorities in posts:
            succ, priority = _successor(post, accepting, aut.num_states, current, strategy, index)
            dst = ids.get(succ)
            if dst is None:
                dst = len(ids)
                if dst >= cap:
                    raise CapacityError(f"macrostate cap of {cap} exceeded")
                succ = tuple([canon.setdefault(mask, mask) for mask in succ[0]]), succ[1]
                ids[succ] = dst
                order.append(succ)
                if adaptive:
                    _remember(index, succ)
            targets.append(dst)
            priorities.append(priority)
    return order, rows


def _labels(order: list[Macrostate]) -> dict[int, str]:
    """Canonical slice text of every macrostate by id, formatting each distinct set, state id and rank once."""
    id_texts: dict[int, str] = {}
    rank_texts: dict[int, str] = {}
    set_texts: dict[int, str] = {}
    out: dict[int, str] = {}
    for i, (masks, ranks) in enumerate(order):
        for mask in masks:
            if mask not in set_texts:
                # Ids in ascending order, as format_set sorts them.
                digits, rest = [], mask
                while rest:
                    low = rest & -rest
                    q = low.bit_length() - 1
                    text = id_texts.get(q)
                    if text is None:
                        text = id_texts[q] = str(q)
                    digits.append(text)
                    rest ^= low
                set_texts[mask] = "{" + ",".join(digits) + "}:"
        for rank in ranks:
            if rank not in rank_texts:
                rank_texts[rank] = str(rank)
        out[i] = "(" + ",".join([set_texts[mask] + rank_texts[rank] for mask, rank in zip(masks, ranks)]) + ")"
    return out
