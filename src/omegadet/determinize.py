"""The fused exploration kernel and the parity automaton construction.

One macrostate transition runs step, prune, merge and normalize; the staged
reference in :mod:`omegadet.stages` states each stage, and the priority rule,
on ranked slices.  This module runs the same transition on bitmasks.  It
imports neither ``slices``, ``safra`` nor ``stages``, so ``determinize``,
``check`` and ``stats`` load none of them; the staged public names resolve
here too, loading :mod:`omegadet.stages` on first use.

Exploration keeps a macrostate as a pair ``(masks, ranks)`` of int tuples:
one state-set bitmask (see :mod:`omegadet.nba`) and one rank per position.
The start macrostate is one set holding the initial states, rank 1.
``_explore`` interns the pairs, sharing one int per distinct mask, and hands
them in id order to :func:`determinize` and ``omegadet trace``.  The fused
kernel and the adaptive index work on that bit layout, and ``_labels``
formats it into label text.

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
returns the ``max`` successor.  The staged reference shares this index and
its lookup, ``_reuse``.
"""
from __future__ import annotations

from dataclasses import dataclass

from .nba import BuchiAutomaton, SuccessorMasks, to_mask
from .parity import ParityAutomaton, Rows, _built


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


Macrostate = tuple[tuple[int, ...], tuple[int, ...]]
# The set of explored macrostates with each state union and number of sets.
# Fill it through _remember only.
UnionIndex = dict[tuple[int, int], set[Macrostate]]


# --- The adaptive index -----------------------------------------------------


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
    """The successor and priority of the staged reference's ``_stages``, with step and prune in one loop.

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
    every state with its canonical slice string, from which
    :func:`omegadet.stages.transition` recomputes an edge with the staged
    reference.  Exceeding ``cap`` macrostates raises :class:`CapacityError`;
    ``cap`` must be at least 1, for the initial macrostate, or
    :class:`ValueError` is raised.
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
    start: Macrostate = ((to_mask(aut.initial),), (1,))
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


# The public names of the staged reference, which resolve on this module too.
_STAGED = frozenset(
    "TransitionTrace choose_partition dominating_rank initial_slice merge normalize prune step transition".split()
)


def __getattr__(name: str):
    """A staged public name, from :mod:`omegadet.stages`, loaded on first use; nothing else."""
    if name not in _STAGED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import stages

    return getattr(stages, name)
