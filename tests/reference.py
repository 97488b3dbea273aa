"""The paper's definitions that the program does not run, as the tests' independent side.

Each is the direct definitional statement, kept apart from the program's
kernels so that a test comparing the two does not compare a kernel with
itself.  Nothing here may import :mod:`omegadet.determinize`
(``test_reference_is_independent`` checks it).

Tuple positions are 1-based throughout, matching the rank-tree view: the
parent of a position is the closest position to its right with a smaller
rank, and the left subtree boundary is the closest position to its left with
a smaller rank (0 when none exists).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Union

from omegadet.nba import BuchiAutomaton, successors
from omegadet.oracle import LassoVerdict
from omegadet.parity import ParityAutomaton
from omegadet.safra import SafraNode
from omegadet.slices import InvalidSliceError, PreSlice, RankedSlice


class StateNotPresentError(LookupError):
    """The queried state is not contained in any set of the slice."""


SliceLike = Union[RankedSlice, PreSlice]
# Closed 1-based position intervals ``(lo, hi)`` that tile ``1..n``.
Partition = tuple[tuple[int, int], ...]


# --- The rank-tree relations and rank profiles -------------------------------


def index_of(slice_: SliceLike, q: int) -> int:
    """1-based tuple position of the set containing ``q``."""
    for pos, block in enumerate(slice_.sets, start=1):
        if q in block:
            return pos
    raise StateNotPresentError(f"state {q} not present in slice")


def rank_of(slice_: SliceLike, q: int) -> int:
    """Rank of the set containing ``q``."""
    return slice_.ranks[index_of(slice_, q) - 1]


def parent(slice_: SliceLike, i: int) -> int | None:
    """Closest position right of ``i`` with a smaller rank; None for the root.

    Defined on ranked slices and on pre-slices with pairwise distinct ranks.
    This is the direct definitional scan; see ``safra.unflatten`` for the
    linear-time computation of the whole relation.
    """
    _check_position(slice_, i)
    ranks = slice_.ranks
    for k in range(i + 1, len(ranks) + 1):
        if ranks[k - 1] < ranks[i - 1]:
            return k
    return None


def left_boundary(slice_: SliceLike, i: int) -> int:
    """Closest position left of ``i`` with a smaller rank, or 0 when none exists."""
    _check_position(slice_, i)
    ranks = slice_.ranks
    for k in range(i - 1, 0, -1):
        if ranks[k - 1] < ranks[i - 1]:
            return k
    return 0


def subtree_set(slice_: SliceLike, i: int) -> frozenset[int]:
    """Union of the sets at positions ``left_boundary(i)+1 .. i`` (the subtree of ``i``)."""
    lo = left_boundary(slice_, i)
    out: set[int] = set()
    for block in slice_.sets[lo:i]:
        out |= block
    return frozenset(out)


def rank_profile(slice_: SliceLike, q: int) -> tuple[int, ...]:
    """Ascending rank sequence from the root down to the set hosting ``q``."""
    pos: int | None = index_of(slice_, q)
    chain: list[int] = []
    while pos is not None:
        chain.append(slice_.ranks[pos - 1])
        pos = parent(slice_, pos)
    return tuple(reversed(chain))


def compare_profiles(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Three-way profile order: -1 if ``a`` is better, 0 if equal, +1 if ``b`` is better.

    Lexicographic on the common-length prefixes; on equal prefixes the longer
    profile is the better one, so a strict prefix compares as worse.
    """
    m = min(len(a), len(b))
    if a[:m] != b[:m]:
        return -1 if a[:m] < b[:m] else 1
    if len(a) == len(b):
        return 0
    return -1 if len(a) > len(b) else 1


def k_cut(profile: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Prefix holding all ranks below ``k`` plus at most one first rank >= ``k``."""
    for i, r in enumerate(profile, start=1):
        if r >= k:
            return profile[:i]
    return profile


def compare_profiles_cut(a: tuple[int, ...], b: tuple[int, ...], k: int) -> int:
    """Three-way order of the ``k``-cuts; strict-prefix cuts compare as worse."""
    return compare_profiles(k_cut(a, k), k_cut(b, k))


def _check_position(slice_: SliceLike, i: int) -> None:
    if not 1 <= i <= len(slice_.sets):
        raise InvalidSliceError(f"position {i} out of range 1..{len(slice_.sets)}")


# --- Permitted merge partitions ---------------------------------------------


def is_valid_partition(pre: PreSlice, k: int, partition: Partition) -> bool:
    """Check contiguity, coverage, and the two dominating-rank constraints."""
    n = len(pre)
    if n == 0:
        return partition == ()
    expected_lo = 1
    for lo, hi in partition:
        if lo != expected_lo or hi < lo or hi > n:
            return False
        expected_lo = hi + 1
        for pos in range(lo, hi + 1):
            rank = pre.ranks[pos - 1]
            if rank < k and lo != hi:
                return False
            if rank == k and hi != pos:
                return False
    return expected_lo == n + 1


def iter_valid_partitions(pre: PreSlice, k: int) -> Iterator[Partition]:
    """All interval partitions permitted for the merge stage, coarsest first.

    Every set of cuts in ``1..n-1`` is tried, by size and then in
    lexicographic order, and kept when :func:`is_valid_partition` holds.  The
    all-singleton partition is always last and always present.
    """
    n = len(pre)
    if n == 0:
        yield ()
        return
    for size in range(n):
        for cuts in combinations(range(1, n), size):
            bounds = (0, *cuts, n)
            partition = tuple((lo + 1, hi) for lo, hi in zip(bounds, bounds[1:]))
            if is_valid_partition(pre, k, partition):
                yield partition


# --- Split trees, restricted successors, witnesses and priorities -------------


def split_tree_levels(
    aut: BuchiAutomaton, prefix: tuple[str, ...]
) -> tuple[tuple[frozenset[int], ...], ...]:
    """Levels of the reduced split tree along a finite prefix.

    Level 0 holds the initial set; each later level splits every set into its
    accepting successors followed by the non-accepting ones, keeps only the
    leftmost occurrence of each state, and drops empty sets.
    """
    level: tuple[frozenset[int], ...] = (frozenset(aut.initial),)
    levels = [level]
    for symbol in prefix:
        raw: list[frozenset[int]] = []
        for block in level:
            block_successors = successors(aut, block, symbol)
            raw.append(block_successors & aut.accepting)
            raw.append(block_successors - aut.accepting)
        claimed: set[int] = set()
        next_level: list[frozenset[int]] = []
        for block in raw:
            kept = block - claimed
            claimed |= block
            if kept:
                next_level.append(kept)
        level = tuple(next_level)
        levels.append(level)
    return tuple(levels)


def restricted_successors(aut: BuchiAutomaton, slice_: RankedSlice, q: int, symbol: str) -> frozenset[int]:
    """Successors of ``q`` minus successors of all states in strictly earlier positions."""
    pos = index_of(slice_, q)
    stolen: set[int] = set()
    for block in slice_.sets[: pos - 1]:
        stolen |= successors(aut, block, symbol)
    return successors(aut, {q}, symbol) - stolen


def run_prefix(verdict: LassoVerdict, n: int) -> tuple[int, ...]:
    """First ``n`` states of the witness run."""
    if not verdict.accepted or verdict.prefix_states is None or verdict.loop_states is None:
        raise ValueError("no witness run on a rejecting verdict")
    states = list(verdict.prefix_states)
    while len(states) < n:
        states.extend(verdict.loop_states[1:])
    return tuple(states[:n])


def compact_priorities(dpa: ParityAutomaton) -> ParityAutomaton:
    """Optional post-pass: remap priorities onto small consecutive values.

    The mapping is strictly increasing and parity-preserving, so the minimum
    parity over any cycle is unchanged.  Off the main pipeline by default.
    """
    used = sorted({priority for _, priority in dpa.edges.values()})
    mapping: dict[int, int] = {}
    previous = 0
    for priority in used:
        candidate = previous + 1
        if candidate % 2 != priority % 2:
            candidate += 1
        mapping[priority] = candidate
        previous = candidate
    edges = {key: (dst, mapping[priority]) for key, (dst, priority) in dpa.edges.items()}
    return ParityAutomaton(
        num_states=dpa.num_states,
        alphabet=dpa.alphabet,
        initial=dpa.initial,
        edges=edges,
        labels=dict(dpa.labels),
    )


# --- Safra's tree update -----------------------------------------------------


@dataclass
class _Node:
    """A node during the update: its name, its full label (descendants' states included), its children."""

    name: int
    label: set[int]
    children: list[_Node]


def safra_tree_update(aut: BuchiAutomaton, root: SafraNode, symbol: str) -> tuple[SafraNode | None, int]:
    """Safra's tree update on ``symbol``: the successor tree, None when every node dies, and the priority.

    The textbook steps (Safra, FOCS 1988; Piterman, LMCS 2007), on names
    where the slices speak of ranks:

    1. Each node's full label goes to its successor set.
    2. Each node gets a youngest child labelled with the accepting part of
       that set, named ``n`` plus the node's post-order position among the
       ``n`` nodes.
    3. Horizontal merge: a state stays only in its oldest branch.
    4. Nodes whose label is empty are removed, and their names are red.
    5. Vertical merge: a node whose label equals the union of its children's
       labels loses its descendants, and its name is green.
    6. Names are compacted onto ``1..m`` in order.  The priority is ``2k``
       or ``2k - 1`` for the least green or red name ``k``, and
       ``2(|Q|+1) - 1`` when there is none.

    Step 4 also removes a new child of step 2 that is empty, so its name
    counts as red.  The nodes hold reduced labels (their own states only);
    the update works on full labels and reduces them again at the end.
    """
    nodes: list[_Node] = []  # in post-order

    def expand(node: SafraNode) -> _Node:
        children = [expand(child) for child in node.children]
        out = _Node(node.rank, set(node.label).union(*(child.label for child in children)), children)
        nodes.append(out)
        return out

    tree = expand(root)
    for pos, node in enumerate(nodes, start=1):
        node.label = set(successors(aut, node.label, symbol))
        node.children.append(_Node(len(nodes) + pos, node.label & aut.accepting, []))
    # A parent above the root, so that the steps below treat the root as any other child.
    top = _Node(0, set(), [tree])

    def names(node: _Node) -> set[int]:
        return {node.name}.union(*(names(child) for child in node.children))

    def drop(node: _Node, states: set[int]) -> None:
        node.label -= states
        for child in node.children:
            drop(child, states)

    def horizontal(node: _Node) -> None:
        older: set[int] = set()
        for child in node.children:
            drop(child, older)
            older |= child.label
            horizontal(child)

    def remove_empty(node: _Node) -> None:
        # A child's label is a subset of its parent's, so an empty node has an empty subtree.
        node.children = [child for child in node.children if child.label]
        for child in node.children:
            remove_empty(child)

    green: set[int] = set()

    def vertical(node: _Node) -> None:
        for child in node.children:
            if child.children and child.label == set().union(*(grandchild.label for grandchild in child.children)):
                green.add(child.name)
                child.children = []
            vertical(child)

    horizontal(top)
    named = names(top)
    remove_empty(top)
    red = named - names(top)
    vertical(top)
    k = min(green | red, default=aut.num_states + 1)
    priority = 2 * k if k in green else 2 * k - 1
    if not top.children:
        return None, priority
    dense = {name: i for i, name in enumerate(sorted(names(tree)), start=1)}

    def reduce(node: _Node) -> SafraNode:
        own = node.label.difference(*(child.label for child in node.children))
        return SafraNode(frozenset(own), dense[node.name], tuple(reduce(child) for child in node.children))

    return reduce(tree), priority
