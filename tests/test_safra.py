import random

import pytest
from hypothesis import given

from omegadet.safra import (
    InvalidTreeError,
    SafraNode,
    TreeFormatError,
    format_tree,
    parse_tree,
    safra_to_slice,
    slice_to_safra,
    unflatten,
    validate_tree,
)
from omegadet.slices import PreSlice, RankedSlice, parse_slice

from .reference import left_boundary, parent
from .test_slices import ranked_slices


def brute_force_shape(ranks):
    """Quadratic definitional computation of the parent and boundary arrays."""
    holder = PreSlice(
        sets=tuple(frozenset({i}) for i in range(len(ranks))),
        ranks=tuple(ranks),
    )
    n = len(ranks)
    return (
        tuple(parent(holder, i) for i in range(1, n + 1)),
        tuple(left_boundary(holder, i) for i in range(1, n + 1)),
    )


def test_unflatten_demo():
    shape = unflatten((4, 2, 3, 1))
    assert shape.parent_of == (2, 4, 4, None)
    assert shape.left_boundary_of == (0, 0, 2, 0)


def test_unflatten_single():
    shape = unflatten((1,))
    assert shape.parent_of == (None,)
    assert shape.left_boundary_of == (0,)


def test_unflatten_descending_chain():
    for n in range(2, 9):
        shape = unflatten(tuple(range(n, 0, -1)))
        assert shape.parent_of == tuple(range(2, n + 1)) + (None,)
        assert shape.left_boundary_of == (0,) * n


def test_unflatten_accepts_rank_gaps():
    # Distinct non-contiguous ranks, as they occur on pruned pre-slices.
    shape = unflatten((7, 3, 2, 6, 4, 1))
    assert brute_force_shape((7, 3, 2, 6, 4, 1)) == (shape.parent_of, shape.left_boundary_of)


def test_unflatten_rejects_bad_input():
    with pytest.raises(InvalidTreeError):
        unflatten((2, 2, 1))
    with pytest.raises(InvalidTreeError):
        unflatten((1, 2))


def test_unflatten_matches_brute_force_random():
    rng = random.Random(4242)
    for _ in range(500):
        n = rng.randint(1, 12)
        body = list(range(2, n + 1))
        rng.shuffle(body)
        ranks = tuple(body) + (1,)
        shape = unflatten(ranks)
        assert (shape.parent_of, shape.left_boundary_of) == brute_force_shape(ranks)
        assert shape.work <= 3 * n


LEAF2 = SafraNode(label=frozenset({1}), rank=2)
LEAF3 = SafraNode(label=frozenset({2}), rank=3)
BRANCH_TREE = SafraNode(label=frozenset({0}), rank=1, children=(LEAF2, LEAF3))


def test_safra_to_slice_branch_tree():
    assert safra_to_slice(BRANCH_TREE) == parse_slice("({1}:2,{2}:3,{0}:1)")


def test_safra_to_slice_single_node():
    assert safra_to_slice(SafraNode(label=frozenset({0}), rank=1)) == parse_slice("({0}:1)")


def test_slice_to_safra_branch_tree():
    assert slice_to_safra(parse_slice("({1}:2,{2}:3,{0}:1)")) == BRANCH_TREE


def test_slice_to_safra_single():
    assert slice_to_safra(parse_slice("({0}:1)")) == SafraNode(label=frozenset({0}), rank=1)


def test_slice_to_safra_demo():
    # ({3}:4,{1}:2,{2}:3,{0}:1): root holds 0; children host 1 then 2; 3 hangs below 1.
    tree = slice_to_safra(parse_slice("({3}:4,{1}:2,{2}:3,{0}:1)"))
    expected = SafraNode(
        label=frozenset({0}),
        rank=1,
        children=(
            SafraNode(
                label=frozenset({1}),
                rank=2,
                children=(SafraNode(label=frozenset({3}), rank=4),),
            ),
            SafraNode(label=frozenset({2}), rank=3),
        ),
    )
    assert tree == expected


def test_slice_to_safra_rejects_empty():
    with pytest.raises(InvalidTreeError):
        slice_to_safra(RankedSlice(sets=(), ranks=()))


def test_validate_tree_errors():
    with pytest.raises(InvalidTreeError):
        validate_tree(SafraNode(label=frozenset(), rank=1))
    with pytest.raises(InvalidTreeError):
        validate_tree(SafraNode(label=frozenset({0}), rank=2))
    shared = SafraNode(label=frozenset({0}), rank=2)
    with pytest.raises(InvalidTreeError):
        validate_tree(SafraNode(label=frozenset({0}), rank=1, children=(shared,)))
    backwards = (
        SafraNode(label=frozenset({1}), rank=3),
        SafraNode(label=frozenset({2}), rank=2),
    )
    with pytest.raises(InvalidTreeError):
        validate_tree(SafraNode(label=frozenset({0}), rank=1, children=backwards))


def test_nodes_keep_no_container_of_the_caller():
    label, children = {0}, [SafraNode(label={1}, rank=2)]  # type: ignore[arg-type]
    node = SafraNode(label=label, rank=1, children=children)  # type: ignore[arg-type]
    label.add(7)
    children.clear()
    same = parse_tree("{0}:1({1}:2)")
    assert node == same and hash(node) == hash(same)
    assert validate_tree(node) == 2


@pytest.mark.parametrize(
    "tree",
    [
        SafraNode(label=frozenset({-2}), rank=1),
        SafraNode(label=frozenset({True}), rank=1),
        SafraNode(label=frozenset({0}), rank=True),
        SafraNode(label=frozenset({0}), rank=1.0),
        SafraNode(label=frozenset({0}), rank=1, children=(SafraNode(label=frozenset({1}), rank="2"),)),
    ],
)
def test_validate_tree_rejects_ids_and_ranks_that_do_not_format_to_tree_text(tree):
    with pytest.raises(InvalidTreeError):
        validate_tree(tree)
    with pytest.raises(InvalidTreeError):
        safra_to_slice(tree)


@given(ranked_slices())
def test_round_trip_from_slices(slice_):
    assert safra_to_slice(slice_to_safra(slice_)) == slice_


def random_tree(rng: random.Random, pool: int = 8, max_nodes: int = 6):
    """Independent random ranked Safra tree generator."""
    states = list(range(pool))
    rng.shuffle(states)
    n = rng.randint(1, min(pool, max_nodes))
    # Random ordered tree shape as a parent assignment on node ids 0..n-1.
    parents: list[int | None] = [None] + [rng.randint(0, i - 1) for i in range(1, n)]
    children: list[list[int]] = [[] for _ in range(n)]
    for node, par in enumerate(parents):
        if par is not None:
            children[par].append(node)
    # Rank constraints as a DAG: parent before child, left sibling before right.
    unblocks: list[list[int]] = [[] for _ in range(n)]
    indegree = [0] * n
    for par in range(n):
        for at, node in enumerate(children[par]):
            preds = [par] if at == 0 else [par, children[par][at - 1]]
            indegree[node] = len(preds)
            for pred in preds:
                unblocks[pred].append(node)
    rank_of: dict[int, int] = {}
    ready = [node for node in range(n) if indegree[node] == 0]
    for next_rank in range(1, n + 1):
        node = ready.pop(rng.randrange(len(ready)))
        rank_of[node] = next_rank
        for succ in unblocks[node]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
    labels = [frozenset({states[i]}) for i in range(n)]
    for state in states[n:]:
        if rng.random() < 0.4:
            at = rng.randrange(n)
            labels[at] = labels[at] | {state}

    def build(node: int) -> SafraNode:
        return SafraNode(
            label=labels[node],
            rank=rank_of[node],
            children=tuple(build(c) for c in children[node]),
        )

    return build(0)


def test_round_trip_from_random_trees():
    rng = random.Random(777)
    for _ in range(400):
        tree = random_tree(rng)
        validate_tree(tree)
        assert slice_to_safra(safra_to_slice(tree)) == tree


def test_format_tree_branch():
    assert format_tree(BRANCH_TREE) == "{0}:1({1}:2,{2}:3)"


def test_parse_tree_round_trip():
    rng = random.Random(123)
    for _ in range(100):
        tree = random_tree(rng)
        assert parse_tree(format_tree(tree)) == tree


def test_parse_tree_errors():
    for text in ("", "{0}:1(", "{0}:x", "0:1", "{0}:1({1}:2", "{1,1}:1"):
        with pytest.raises(TreeFormatError):
            parse_tree(text)


@pytest.mark.parametrize(
    "text, offset",
    [("{0}:1({1}:2))", 13), ("{0}:1({1}:2){2}:1", 13)],
)
def test_boundary_errors(text, offset):
    with pytest.raises(TreeFormatError, match=rf"^trailing input at offset {offset}$"):
        parse_tree(text)
