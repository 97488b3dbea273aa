import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from omegadet.slices import (
    InvalidSliceError,
    PreSlice,
    RankedSlice,
    SliceFormatError,
    format_slice,
    parse_preslice,
    parse_slice,
)

from .reference import (
    StateNotPresentError,
    compare_profiles,
    compare_profiles_cut,
    index_of,
    k_cut,
    left_boundary,
    parent,
    rank_of,
    rank_profile,
    subtree_set,
)

# Running example: four singleton sets ranked 4, 2, 3, 1.
DEMO = parse_slice("({3}:4,{1}:2,{2}:3,{0}:1)")


@st.composite
def ranked_slices(draw, max_states: int = 6):
    pool = draw(st.integers(min_value=1, max_value=max_states))
    states = list(range(pool))
    n = draw(st.integers(min_value=1, max_value=pool))
    # Ordered partition of a subset of the pool into n non-empty blocks.
    chosen = draw(st.lists(st.sampled_from(states), unique=True, min_size=n, max_size=pool))
    assignment = [i % n for i in range(len(chosen))]
    assignment = draw(st.permutations(assignment))
    blocks = [set() for _ in range(n)]
    for state, block in zip(chosen, assignment):
        blocks[block].add(state)
    tail = draw(st.permutations(list(range(2, n + 1))))
    ranks = tuple(tail) + (1,)
    return RankedSlice(sets=tuple(frozenset(b) for b in blocks), ranks=ranks)


def test_invariants_rejected():
    with pytest.raises(InvalidSliceError):
        RankedSlice(sets=(frozenset({0}),), ranks=(2,))
    with pytest.raises(InvalidSliceError):
        RankedSlice(sets=(frozenset(), frozenset({0})), ranks=(2, 1))
    with pytest.raises(InvalidSliceError):
        RankedSlice(sets=(frozenset({0}), frozenset({0})), ranks=(2, 1))
    with pytest.raises(InvalidSliceError):
        RankedSlice(sets=(frozenset({0}), frozenset({1})), ranks=(1, 2))


def test_empty_slice_allowed():
    empty = RankedSlice(sets=(), ranks=())
    assert len(empty) == 0 and empty.state_set == frozenset()


def test_preslice_allows_empties_and_repeats():
    pre = PreSlice(sets=(frozenset(), frozenset({0})), ranks=(3, 3))
    assert len(pre) == 2


def test_index_of_demo():
    assert index_of(DEMO, 2) == 3
    assert index_of(parse_slice("({0}:1)"), 0) == 1
    with pytest.raises(StateNotPresentError):
        index_of(DEMO, 9)


def test_rank_of_demo():
    assert rank_of(DEMO, 3) == 4
    assert rank_of(DEMO, 0) == 1


def test_parent_demo():
    assert parent(DEMO, 2) == 4
    assert parent(DEMO, 3) == 4
    assert parent(DEMO, 1) == 2
    assert parent(DEMO, 4) is None


def test_parent_single_position():
    assert parent(parse_slice("({0}:1)"), 1) is None


def test_parent_descending_ranks():
    # Strictly decreasing ranks chain every position to its right neighbour.
    for n in range(2, 8):
        chain = RankedSlice(
            sets=tuple(frozenset({i}) for i in range(n)),
            ranks=tuple(range(n, 0, -1)),
        )
        for i in range(1, n):
            assert parent(chain, i) == i + 1
        assert parent(chain, n) is None


def test_left_boundary_demo():
    assert left_boundary(DEMO, 3) == 2
    assert left_boundary(DEMO, 1) == 0
    assert left_boundary(DEMO, 4) == 0


def test_subtree_set_demo():
    assert subtree_set(DEMO, 3) == frozenset({2})
    assert subtree_set(DEMO, 4) == frozenset({0, 1, 2, 3})
    assert subtree_set(DEMO, 1) == frozenset({3})


def test_rank_profile_demo():
    assert rank_profile(DEMO, 3) == (1, 2, 4)
    assert rank_profile(DEMO, 2) == (1, 3)
    assert rank_profile(DEMO, 0) == (1,)


def test_compare_profiles():
    assert compare_profiles((1, 2, 4), (1, 3)) == -1
    assert compare_profiles((1, 2), (1, 2, 4)) == 1
    assert compare_profiles((1, 2, 4), (1, 2, 4)) == 0


def test_k_cut():
    assert k_cut((1, 2, 4), 3) == (1, 2, 4)
    assert k_cut((1, 2, 4), 2) == (1, 2)
    assert k_cut((1, 2, 4), 1) == (1,)


def test_k_cut_extremes():
    profile = (1, 3, 5, 6)
    assert k_cut(profile, 7) == profile
    assert k_cut(profile, 1) == (1,)


def test_compare_profiles_cut():
    # Equal 2-cuts, strictly ordered 3-cuts.
    assert compare_profiles_cut((1, 2, 4), (1, 2, 5), 2) == 0
    assert compare_profiles_cut((1, 2, 4), (1, 2, 5), 3) == -1


@given(ranked_slices())
def test_profile_order_matches_tuple_order(slice_):
    states = sorted(slice_.state_set)
    for p in states:
        for q in states:
            cmp = compare_profiles(rank_profile(slice_, p), rank_profile(slice_, q))
            lower, higher = index_of(slice_, p), index_of(slice_, q)
            assert (lower < higher) == (cmp == -1)
            assert (lower == higher) == (cmp == 0)


@given(ranked_slices())
def test_parent_is_rooted_forest(slice_):
    n = len(slice_)
    for i in range(1, n + 1):
        steps = 0
        pos = i
        while pos is not None:
            last = pos
            pos = parent(slice_, pos)
            steps += 1
            assert steps <= n
        assert last == n
    assert subtree_set(slice_, n) == slice_.state_set


@given(ranked_slices())
def test_sibling_subtrees_disjoint(slice_):
    n = len(slice_)
    by_parent: dict = {}
    for i in range(1, n + 1):
        by_parent.setdefault(parent(slice_, i), []).append(i)
    for siblings in by_parent.values():
        for a, b in itertools.combinations(siblings, 2):
            assert not (subtree_set(slice_, a) & subtree_set(slice_, b))


def test_format_parse_round_trip():
    for text in ("({3}:4,{1}:2,{2}:3,{0}:1)", "({0}:1)", "({0,2}:2,{1}:1)", "()"):
        assert format_slice(parse_slice(text)) == text


def test_slices_keep_no_container_of_the_caller():
    first, last, ranks = {1}, {0}, [2, 1]
    slice_ = RankedSlice(sets=[first, last], ranks=ranks)  # type: ignore[arg-type]
    pre = PreSlice(sets=[set(), first], ranks=ranks)  # type: ignore[arg-type]
    first.add(5)
    ranks.reverse()
    same = parse_slice("({1}:2,{0}:1)")
    assert slice_ == same and hash(slice_) == hash(same)
    assert pre == parse_preslice("({}:2,{1}:1)") and hash(pre) == hash(parse_preslice("({}:2,{1}:1)"))


@pytest.mark.parametrize(
    "sets, ranks",
    [
        ((frozenset({-1}),), (1,)),
        ((frozenset({True}),), (1,)),
        ((frozenset({"0"}),), (1,)),
        ((frozenset({0}),), (True,)),
        ((frozenset({0}),), (1.0,)),
    ],
)
def test_slices_reject_ids_and_ranks_that_do_not_format_to_slice_text(sets, ranks):
    for kind in (RankedSlice, PreSlice):
        with pytest.raises(InvalidSliceError):
            kind(sets=sets, ranks=ranks)


def test_parse_preslice_with_empty_sets():
    pre = parse_preslice("({}:4,{}:2,{2}:5,{}:3,{3}:6,{0}:1)")
    assert pre.sets[0] == frozenset()
    assert format_slice(pre) == "({}:4,{}:2,{2}:5,{}:3,{3}:6,{0}:1)"


def test_parse_slice_errors():
    for text in (
        "",
        "({0}:1",
        "[{0}:1]",
        "({0})",
        "({0}:x)",
        "({0,0}:1)",
        "({ 0}:1)",
        "({0}: 1)",
        "({0}:+1)",
        "({0}:1_0)",
        "({-1}:1)",
    ):
        with pytest.raises(SliceFormatError):
            parse_slice(text)
    with pytest.raises(InvalidSliceError):
        parse_slice("({0}:1,{1}:2)")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: PreSlice(sets=(frozenset({0}),), ranks=(1, 2)), r"^sets and ranks must have equal length$"),
        (lambda: PreSlice(sets=(frozenset({0}), frozenset()), ranks=(1, 0)), r"^ranks must be positive$"),
    ],
)
def test_boundary_errors(build, message):
    with pytest.raises(InvalidSliceError, match=message):
        build()
