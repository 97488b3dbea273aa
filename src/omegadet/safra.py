"""Ranked Safra trees and their bijection with ranked slices.

A ranked Safra tree is an ordered tree with pairwise disjoint, non-empty
state-set labels in which every parent outranks none of its children and
sibling ranks increase left to right; the root always holds rank 1.  Listing
the node labels in depth-first post-order recovers a ranked slice, and the
inverse direction rebuilds the tree from the parent relation induced by the
ranks.  ``unflatten`` computes that relation in linear time with a stack.
A tree is valid exactly when its post-order listing is a ranked slice that
rebuilds to the tree itself, which is how :func:`safra_to_slice` checks it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .slices import InvalidSliceError, RankedSlice, _parse_entry, format_set


class InvalidTreeError(ValueError):
    """A ranked Safra tree invariant is violated."""


class TreeFormatError(ValueError):
    """Tree text cannot be parsed."""


@dataclass(frozen=True, eq=False, repr=False)
class SafraNode:
    """One tree node: reduced (non-redundant) label, rank, ordered children.

    The label is kept as a frozenset and the children as a tuple, whatever
    containers are passed in.  Equality is structural.  Comparing, hashing
    and printing walk the tree without recursion, so they work on trees of
    any depth.
    """

    label: frozenset[int]
    rank: int
    children: tuple["SafraNode", ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "label", frozenset(self.label))
        object.__setattr__(self, "children", tuple(self.children))

    def _preorder(self) -> list[tuple[frozenset[int], int, int]]:
        """Label, rank and child count of each node in pre-order, which determine the tree."""
        out = []
        stack = [self]
        while stack:
            node = stack.pop()
            out.append((node.label, node.rank, len(node.children)))
            stack.extend(reversed(node.children))
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SafraNode):
            return NotImplemented
        return self is other or self._preorder() == other._preorder()

    def __hash__(self) -> int:
        return hash(tuple(self._preorder()))

    def __repr__(self) -> str:
        return f"SafraNode({format_tree(self)!r})"


@dataclass(frozen=True)
class TreeShape:
    """Parent and left-subtree-boundary arrays of a rank tree.

    Entry ``i-1`` describes 1-based position ``i``; parents are positions or
    None for the root, boundaries are positions or 0 when none exists.
    ``work`` counts main-loop iterations plus stack pops and witnesses the
    linear running time (always at most ``3n``).
    """

    parent_of: tuple[int | None, ...]
    left_boundary_of: tuple[int, ...]
    work: int


def unflatten(ranks: Sequence[int]) -> TreeShape:
    """Recover parent and left-boundary relations from a ranking in one stack pass.

    Accepts any sequence of pairwise distinct positive ranks whose minimum
    sits at the last position (bijective rankings of ranked slices and the
    distinct-rank pre-slices that occur mid-pipeline).
    """
    n = len(ranks)
    if len(set(ranks)) != n:
        raise InvalidTreeError("ranks must be pairwise distinct")
    if n and ranks[-1] != min(ranks):
        raise InvalidTreeError("the minimum rank must sit at the last position")
    parent: list[int | None] = [None] * n
    boundary: list[int] = [0] * n
    stack: list[int] = []
    work = 0
    for i in range(n, 0, -1):
        work += 1
        while stack and ranks[i - 1] < ranks[stack[-1] - 1]:
            boundary[stack[-1] - 1] = i
            stack.pop()
            work += 1
        if stack:
            parent[i - 1] = stack[-1]
        stack.append(i)
    while stack:
        boundary[stack[-1] - 1] = 0
        stack.pop()
        work += 1
    return TreeShape(parent_of=tuple(parent), left_boundary_of=tuple(boundary), work=work)


def validate_tree(root: SafraNode) -> int:
    """Check all ranked Safra tree invariants (see :func:`safra_to_slice`); returns the node count."""
    return len(safra_to_slice(root))


def safra_to_slice(root: SafraNode) -> RankedSlice:
    """List node labels and ranks in depth-first post-order.

    The tree is valid exactly when that listing is a ranked slice and the
    tree rebuilt from it is the tree itself.  The slice checks the labels,
    state ids and ranks, and puts rank 1 at the root, the last position.
    The rebuild is always a valid tree, so comparing it with the tree
    checks the rest: children outrank their parent and sibling ranks
    increase left to right.
    """
    # Node before children, children right to left: the reverse is post-order.
    order: list[SafraNode] = []
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(node.children)
    order.reverse()
    try:
        slice_ = RankedSlice(sets=tuple([node.label for node in order]), ranks=tuple([node.rank for node in order]))
    except InvalidSliceError as exc:
        raise InvalidTreeError(f"the post-order listing is not a ranked slice: {exc}") from None
    if slice_to_safra(slice_) != root:
        raise InvalidTreeError("children must outrank their parent and sibling ranks must increase left to right")
    return slice_


def slice_to_safra(slice_: RankedSlice) -> SafraNode:
    """Rebuild the ranked Safra tree from the rank-tree relation of a slice."""
    n = len(slice_)
    if n == 0:
        raise InvalidTreeError("the empty slice has no tree form")
    shape = unflatten(slice_.ranks)
    children: list[list[SafraNode]] = [[] for _ in range(n + 1)]
    # Children occupy lower positions than their parent, so one ascending pass
    # suffices.  Every position has a parent except the root, which is last.
    for i in range(1, n):
        node = SafraNode(label=slice_.sets[i - 1], rank=slice_.ranks[i - 1], children=children[i])
        children[shape.parent_of[i - 1]].append(node)  # type: ignore[index]
    return SafraNode(label=slice_.sets[-1], rank=slice_.ranks[-1], children=children[n])


def format_tree(root: SafraNode) -> str:
    """Nested ``{ids}:rank(child,...)`` rendering; round-trips with :func:`parse_tree`."""
    parts: list[str] = []
    stack: list[SafraNode | str] = [root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        parts.append(f"{format_set(item.label)}:{item.rank}")
        children = item.children
        if children:
            stack.append(")")
            for i in range(len(children) - 1, -1, -1):
                stack.append(children[i])
                if i:
                    stack.append(",")
            stack.append("(")
    return "".join(parts)


def parse_tree(text: str) -> SafraNode:
    """Parse the nested tree rendering produced by :func:`format_tree`."""
    # Nodes whose child list is still open, outermost first.
    open_nodes: list[tuple[frozenset[int], int, list[SafraNode]]] = []
    pos = 0
    while True:
        label, rank, pos = _parse_entry(text, pos, "(,)", TreeFormatError, "label")
        if pos < len(text) and text[pos] == "(":
            open_nodes.append((label, rank, []))
            pos += 1
            continue
        node = SafraNode(label=label, rank=rank)
        while open_nodes:
            open_nodes[-1][2].append(node)
            if pos < len(text) and text[pos] == ",":
                pos += 1
                break
            if pos < len(text) and text[pos] == ")":
                pos += 1
                label, rank, children = open_nodes.pop()
                node = SafraNode(label=label, rank=rank, children=children)
                continue
            raise TreeFormatError(f"expected ',' or ')' at offset {pos + 1}")
        if not open_nodes:
            if pos != len(text):
                raise TreeFormatError(f"trailing input at offset {pos + 1}")
            return node
