import hashlib
import math
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omegadet.determinize import (
    ADAPTIVE,
    MAX_COLLAPSE,
    MULLER_SCHUPP,
    SAFRA,
    CapacityError,
    InternalInvariantError,
    MergeStrategy,
    as_strategy,
    choose_partition,
    determinize,
    dominating_rank,
    initial_slice,
    merge,
    normalize,
    prune,
    step,
    transition,
)
from omegadet.nba import BuchiAutomaton, InvalidAutomatonError, UnknownSymbolError, from_mask, parse_nba, to_mask
from omegadet.oracle import random_nba
from omegadet.parity import serialize_dpa
from omegadet.slices import InvalidSliceError, PreSlice, RankedSlice, format_slice, parse_preslice, parse_slice

from .conftest import build_corpus, check_transition_invariants, pipeline, replay, run_fresh
from .reference import is_valid_partition, iter_valid_partitions, restricted_successors

# The pruned six-set scenario used across the merge tests: distinct surviving
# ranks with gaps, green ranks 2 and 6, dominating rank 2.
WIDE_PRUNED = PreSlice(
    sets=tuple(frozenset({q}) for q in (2, 1, 3, 5, 4, 0)),
    ranks=(7, 3, 2, 6, 4, 1),
)
WIDE_GREEN = frozenset({2, 6})


def ranked(masks, ranks):
    return RankedSlice(sets=tuple(map(from_mask, masks)), ranks=ranks)


def walk(aut, symbols, strategy="ms"):
    current = initial_slice(aut)
    for symbol in symbols:
        current = transition(aut, current, symbol, strategy).successor
    return current


def test_restricted_successors_small(small_nba):
    slice_ = parse_slice("({1}:2,{0}:1)")
    assert restricted_successors(small_nba, slice_, 0, "a") == frozenset({0})
    # Position 1 keeps its full successor set.
    assert restricted_successors(small_nba, slice_, 1, "a") == frozenset({1, 2})


def test_restricted_successors_medium(medium_nba):
    slice_ = parse_slice("({1}:2,{2}:3,{0}:1)")
    assert restricted_successors(medium_nba, slice_, 0, "a") == frozenset({0, 3})


def test_step_small(small_nba):
    assert step(small_nba, parse_slice("({0}:1)"), "a") == parse_preslice("({1}:2,{0}:1)")


def test_step_medium(medium_nba):
    stepped = step(medium_nba, parse_slice("({1}:2,{2}:3,{0}:1)"), "a")
    assert stepped == parse_preslice("({}:4,{}:2,{2}:5,{}:3,{3}:6,{0}:1)")


def test_step_dead_slice(medium_nba):
    stepped = step(medium_nba, RankedSlice(sets=(frozenset({1}),), ranks=(1,)), "a")
    assert all(not block for block in stepped.sets)


def test_prune_medium(medium_nba):
    stepped = parse_preslice("({}:4,{}:2,{2}:5,{}:3,{3}:6,{0}:1)")
    pruned, green, red = prune(stepped)
    assert pruned == parse_preslice("({2}:3,{3}:6,{0}:1)")
    assert green == frozenset({3})
    assert red == frozenset({2, 4, 5})


def test_prune_without_empties_is_identity():
    pre = parse_preslice("({1}:2,{0}:1)")
    pruned, green, red = prune(pre)
    assert pruned == pre and green == frozenset() and red == frozenset()


def test_prune_wide(wide_staged_nba):
    source = parse_slice("({2}:3,{3}:5,{1}:2,{5}:6,{4}:4,{0}:1)")
    pruned, green, red = prune(step(wide_staged_nba, source, "a"))
    assert pruned == WIDE_PRUNED
    assert green == WIDE_GREEN
    # Rank 5 dies along with the fresh ranks of this transition.
    assert 5 in red and red.issuperset({8, 9, 10, 11, 12})
    assert dominating_rank(green, red, wide_staged_nba.num_states) == (2, 4)


def test_prune_total_death():
    pruned, green, red = prune(parse_preslice("({}:2,{}:1)"))
    assert pruned == PreSlice(sets=(), ranks=())
    assert green == frozenset() and red == frozenset({1, 2})


def test_dominating_rank():
    assert dominating_rank(frozenset({2, 6}), frozenset({5}), 6) == (2, 4)
    assert dominating_rank(frozenset({3}), frozenset({2, 4, 5}), 4) == (2, 3)
    assert dominating_rank(frozenset(), frozenset(), 3) == (4, 7)


def test_dominating_rank_rejects_overlap():
    with pytest.raises(InternalInvariantError):
        dominating_rank(frozenset({2}), frozenset({2}), 3)
    with pytest.raises(InternalInvariantError, match=r"^green and red overlap: \[2\]$"):
        dominating_rank(frozenset({2, 3}), frozenset({1, 2}), 3)


def test_valid_partitions_wide():
    partitions = list(iter_valid_partitions(WIDE_PRUNED, 2))
    assert len(partitions) == 8
    assert len(set(partitions)) == 8
    assert all(is_valid_partition(WIDE_PRUNED, 2, p) for p in partitions)
    singletons = tuple((i, i) for i in range(1, 7))
    assert singletons in partitions


def test_valid_partitions_single_set():
    pre = parse_preslice("({0}:1)")
    assert list(iter_valid_partitions(pre, 2)) == [((1, 1),)]


def test_valid_partitions_rank_one_dominating():
    # Nothing sits right of the rank-1 set, so it may also absorb its left
    # neighbour: both partitions pass the constraints.
    pre = parse_preslice("({1}:2,{0}:1)")
    assert list(iter_valid_partitions(pre, 1)) == [((1, 2),), ((1, 1), (2, 2))]


def test_is_valid_partition_rejects_an_interval_past_the_last_set():
    pre = parse_preslice("({0}:2,{1}:1)")
    assert not is_valid_partition(pre, 1, ((1, 2), (3, 3)))
    assert not is_valid_partition(pre, 1, ((1, 3),))
    assert is_valid_partition(pre, 1, ((1, 2),))


def test_choose_partition_strategies_wide():
    cases = {
        "ms": "({2}:6,{1}:3,{3}:2,{5}:5,{4}:4,{0}:1)",
        "safra": "({1,2,3}:2,{5}:4,{4}:3,{0}:1)",
        "max": "({1,2,3}:2,{4,5}:3,{0}:1)",
    }
    for token, expected in cases.items():
        partition = choose_partition(WIDE_PRUNED, 2, WIDE_GREEN, token)
        assert is_valid_partition(WIDE_PRUNED, 2, partition)
        assert format_slice(normalize(merge(WIDE_PRUNED, partition))) == expected


def test_choose_partition_adaptive_reuses_context():
    known = normalize(merge(WIDE_PRUNED, tuple((i, i) for i in range(1, 7))))
    partition = choose_partition(WIDE_PRUNED, 2, WIDE_GREEN, ADAPTIVE, context={known})
    assert normalize(merge(WIDE_PRUNED, partition)) == known


def test_choose_partition_adaptive_falls_back():
    partition = choose_partition(WIDE_PRUNED, 2, WIDE_GREEN, ADAPTIVE, context=set())
    assert partition == choose_partition(WIDE_PRUNED, 2, WIDE_GREEN, MAX_COLLAPSE)


def test_choose_partition_adaptive_rejects_a_target_that_leaves_a_set_uncovered():
    # The context slice covers the first set alone; merging the trailing empty
    # set into it would give ((1, 2),), but the rank-1 set must end its interval.
    pre = parse_preslice("({0}:1,{}:2)")
    partition = choose_partition(pre, 1, frozenset(), ADAPTIVE, [parse_slice("({0}:1)")])
    assert partition == ((1, 1), (2, 2))


def _ranked_with_order(sets, order):
    # Ranks follow ``order`` (distinct values, minimum last), compacted onto 1..n.
    dense = {rank: i for i, rank in enumerate(sorted(order), start=1)}
    return RankedSlice(sets=tuple(sets), ranks=tuple(dense[r] for r in order))


@st.composite
def adaptive_scenarios(draw):
    """A pruned slice, a dominating rank, and a context of reusable successors and decoys."""
    n = draw(st.integers(1, 8))
    sizes = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
    states = draw(st.permutations(range(sum(sizes))))
    sets, start = [], 0
    for size in sizes:
        sets.append(frozenset(states[start : start + size]))
        start += size
    ranks = draw(st.lists(st.integers(1, 2 * n + 2), min_size=n, max_size=n, unique=True))
    low = ranks.index(min(ranks))
    ranks[low], ranks[-1] = ranks[-1], ranks[low]
    pre = PreSlice(sets=tuple(sets), ranks=tuple(ranks))
    # Often one of the two lowest ranks, so that the rank-k cut matters.
    k = draw(st.sampled_from(sorted(ranks)[:2]) | st.integers(1, max(ranks) + 1))
    valid = list(iter_valid_partitions(pre, k))
    context = [normalize(merge(pre, p)) for p in draw(st.lists(st.sampled_from(valid), max_size=3))]
    # Decoys share the state union: merges under arbitrary interval partitions,
    # which may break the forced cuts, with their own or shuffled ranks, and
    # arbitrary regroupings of the states.
    for _ in range(draw(st.integers(0, 4))):
        cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
        merged = merge(pre, tuple(zip([1] + [c + 1 for c in cuts], cuts + [n])))
        if draw(st.booleans()):
            context.append(normalize(merged))
        else:
            order = draw(st.permutations(range(2, len(merged) + 1))) + [1]
            context.append(_ranked_with_order(merged.sets, order))
    if draw(st.booleans()):
        shuffled = draw(st.permutations(states))
        cut = draw(st.integers(1, len(shuffled)))
        groups = [frozenset(shuffled[:cut]), frozenset(shuffled[cut:])]
        groups = [g for g in groups if g]
        context.append(_ranked_with_order(groups, list(range(len(groups), 0, -1))))
    return pre, k, context


# Rank k = 2 sits at position 1, so the decoy, which merges positions 1 and
# 2, lacks the forced cut after the rank-k set and must not be reused.
RANK_K_DECOY = PreSlice(sets=tuple(frozenset({q}) for q in range(4)), ranks=(2, 4, 3, 1))


@settings(max_examples=300)
@given(adaptive_scenarios())
@example((RANK_K_DECOY, 2, [normalize(merge(RANK_K_DECOY, ((1, 2), (3, 3), (4, 4))))]))
def test_adaptive_lookup_matches_uncapped_enumeration(scenario):
    pre, k, context = scenario
    known = set(context)
    expected = next(
        (p for p in iter_valid_partitions(pre, k) if normalize(merge(pre, p)) in known),
        choose_partition(pre, k, frozenset(), MAX_COLLAPSE),
    )
    assert choose_partition(pre, k, frozenset(), ADAPTIVE, context) == expected


def test_adaptive_probe_hits_need_no_scan(monkeypatch):
    # Under max a one-state self-loop steps only to its initial macrostate, so
    # each adaptive edge finds its max successor explored and never scans.
    scans = []
    real_reuse = pipeline._reuse

    def reuse(*args):
        scans.append(args)
        return real_reuse(*args)

    monkeypatch.setattr(pipeline, "_reuse", reuse)
    loop = parse_nba(b"nba\nstates 1\nalphabet a\ninit 0\naccept 0\n0 a 0\n")
    assert determinize(loop, ADAPTIVE).edges == determinize(loop, MAX_COLLAPSE).edges == {(0, "a"): (0, 2)}
    assert scans == []


def test_adaptive_reuse_beyond_the_old_candidate_cap():
    # Fifteen sets with rank 1 last and k = 1: no forced cuts, so 14 free cuts
    # and 2**14 permitted partitions, the all-singleton one last.
    pre = PreSlice(sets=tuple(frozenset({q}) for q in range(15)), ranks=tuple(range(15, 0, -1)))
    singletons = tuple((i, i) for i in range(1, 16))
    partitions = list(iter_valid_partitions(pre, 1))
    assert len(partitions) == 16384 and partitions[-1] == singletons
    context = [normalize(pre)]
    assert choose_partition(pre, 1, frozenset(), ADAPTIVE, context) == singletons
    assert choose_partition(pre, 1, frozenset(), ADAPTIVE, ()) == ((1, 15),)


# With k = 3 the permitted partitions are [1,3][4], then [1][2,3][4] and
# [1,2][3][4] with three intervals each, then the singletons.
TIE_PRUNED = PreSlice(sets=tuple(frozenset({q}) for q in range(4)), ranks=(5, 4, 3, 1))
TIE_FIRST = normalize(merge(TIE_PRUNED, ((1, 1), (2, 3), (4, 4))))
TIE_SECOND = normalize(merge(TIE_PRUNED, ((1, 2), (3, 3), (4, 4))))
# Stepping ({4}:5,{5}:4,{6}:3,{7}:2,{8}:1) on a prunes to ({0}:5,{1}:4,{2}:2,{3}:1):
# state 7 dies, so rank 3 is red and rank 2 moves onto {2} as the green k = 2.
# The permitted partitions and their merges are those of TIE_PRUNED.
TIE_NBA = parse_nba(b"nba\nstates 9\nalphabet a\ninit 4\naccept\n4 a 0\n5 a 1\n6 a 2\n8 a 3\n")
TIE_SOURCE = parse_slice("({4}:5,{5}:4,{6}:3,{7}:2,{8}:1)")


@pytest.mark.parametrize("context", [[TIE_FIRST, TIE_SECOND], [TIE_SECOND, TIE_FIRST]])
def test_adaptive_ties_at_one_set_count_go_to_the_first_cuts(context):
    # Both explored successors are reachable with three sets; the cuts (1, 3)
    # come before (2, 3) whatever order the context holds them in.
    assert choose_partition(TIE_PRUNED, 3, frozenset(), ADAPTIVE, context) == ((1, 1), (2, 3), (4, 4))
    trace = transition(TIE_NBA, TIE_SOURCE, "a", ADAPTIVE, context)
    assert (trace.pruned.ranks, trace.dominating, trace.partition) == ((5, 4, 2, 1), 2, ((1, 1), (2, 3), (4, 4)))
    assert trace.successor == TIE_FIRST
    index = {}
    for key in map(pipeline._key, context):
        pipeline._remember(index, key)
    aut, source = TIE_NBA, pipeline._key(TIE_SOURCE)
    fused, _ = pipeline._successor(aut.post("a"), aut.accepting_mask, aut.num_states, source, ADAPTIVE, index)
    assert fused == pipeline._key(TIE_FIRST)


@st.composite
def merge_scenarios(draw):
    """A pre-slice of distinct ranks, a dominating rank ``k`` and green ranks of at least ``k``.

    Pruned slices have their least rank last; half the draws move it there,
    the others keep any order, as ``choose_partition`` accepts any pre-slice.
    """
    n = draw(st.integers(1, 8))
    ranks = draw(st.lists(st.integers(1, 2 * n + 2), min_size=n, max_size=n, unique=True))
    if draw(st.booleans()):
        low = ranks.index(min(ranks))
        ranks[low], ranks[-1] = ranks[-1], ranks[low]
    pre = PreSlice(sets=tuple(frozenset({q}) for q in range(n)), ranks=tuple(ranks))
    k = draw(st.sampled_from(sorted(ranks)[:2]) | st.integers(1, max(ranks) + 1))
    above = [rank for rank in ranks if rank >= k]
    green = draw(st.frozensets(st.sampled_from(above))) if above else frozenset()
    return pre, k, green


@settings(max_examples=300)
@given(merge_scenarios())
@example((WIDE_PRUNED, 2, WIDE_GREEN))
# The least rank k = 1 sits at position n - 1, and max must still cut after it.
@example((PreSlice(sets=tuple(frozenset({q}) for q in range(3)), ranks=(3, 1, 5)), 1, frozenset()))
def test_fixed_strategies_pick_from_the_reference_enumeration(scenario):
    # The reference enumerates every cut set and keeps the permitted ones, so
    # it shares no code with the forced cuts of max or the subtrees of safra.
    pre, k, green = scenario
    permitted = list(iter_valid_partitions(pre, k))
    assert choose_partition(pre, k, green, MAX_COLLAPSE) == permitted[0]
    singletons = tuple((i, i) for i in range(1, len(pre) + 1))
    assert choose_partition(pre, k, green, MULLER_SCHUPP) == permitted[-1] == singletons
    # safra reads the rank tree, which ``unflatten`` builds only with the least rank last.
    if pre.ranks[-1] == min(pre.ranks):
        assert choose_partition(pre, k, green, SAFRA) in permitted


def test_merge_wide_coarsest():
    merged = merge(WIDE_PRUNED, ((1, 3), (4, 5), (6, 6)))
    assert merged == parse_preslice("({1,2,3}:2,{4,5}:4,{0}:1)")


def test_merge_singletons_is_identity():
    partition = tuple((i, i) for i in range(1, 7))
    assert merge(WIDE_PRUNED, partition) == WIDE_PRUNED


def test_merge_single_interval():
    pre = parse_preslice("({1}:2,{0}:1)")
    assert merge(pre, ((1, 2),)) == parse_preslice("({0,1}:1)")


def test_merge_rejects_bad_partition():
    with pytest.raises(InternalInvariantError):
        merge(WIDE_PRUNED, ((1, 2),))


@pytest.mark.parametrize("partition", [((1, 1), (3, 3)), ((1, 1), (2, 1), (2, 3)), ((1, 4),)])
def test_merge_rejects_a_partition_that_does_not_tile(partition):
    pre = parse_preslice("({0}:1,{1}:2,{2}:3)")
    with pytest.raises(InternalInvariantError, match=r"^partition .* does not tile 1\.\.3$"):
        merge(pre, partition)


def test_normalize():
    assert normalize(parse_preslice("({2}:3,{3}:6,{0}:1)")) == parse_slice("({2}:2,{3}:3,{0}:1)")
    already = parse_preslice("({1}:2,{0}:1)")
    assert normalize(already) == parse_slice("({1}:2,{0}:1)")
    assert normalize(parse_preslice("({2}:7,{1}:3,{3}:2,{5}:6,{4}:4,{0}:1)")) == parse_slice(
        "({2}:6,{1}:3,{3}:2,{5}:5,{4}:4,{0}:1)"
    )


def test_normalize_never_raises_ranks():
    pre = parse_preslice("({2}:7,{1}:3,{3}:2,{5}:6,{4}:4,{0}:1)")
    compacted = normalize(pre)
    assert all(new <= old for new, old in zip(compacted.ranks, pre.ranks))


def test_normalize_rejects_duplicates():
    with pytest.raises(InternalInvariantError):
        normalize(parse_preslice("({0}:2,{1}:2,{2}:1)"))


def test_normalize_rejects_empty_sets_and_misplaced_minimum():
    with pytest.raises(InternalInvariantError):
        normalize(parse_preslice("({}:2,{1}:1)"))
    with pytest.raises(InvalidSliceError):
        normalize(parse_preslice("({0}:1,{1}:2)"))


def test_step_rejects_states_outside_the_automaton(small_nba):
    with pytest.raises(InvalidAutomatonError):
        step(small_nba, parse_slice("({5}:1)"), "a")
    # A negative id cannot reach step: the slice constructor rejects it, as parse_slice does.
    with pytest.raises(InvalidSliceError):
        RankedSlice(sets=(frozenset({-1}),), ranks=(1,))


def test_transition_medium_safra(medium_nba):
    out = transition(medium_nba, parse_slice("({1}:2,{2}:3,{0}:1)"), "a", SAFRA)
    assert format_slice(out.successor) == "({2}:2,{3}:3,{0}:1)"
    assert out.priority == 3
    assert 3 in out.green and 2 in out.red
    assert out.dominating == 2


def test_transition_small_self_loop(small_nba):
    slice_ = parse_slice("({1}:3,{2}:2,{0}:1)")
    out = transition(small_nba, slice_, "a", MULLER_SCHUPP)
    assert out.successor == slice_
    assert out.priority == 4 and out.dominating == 2 and 2 in out.green


def test_transition_into_sink(medium_nba):
    out = transition(medium_nba, RankedSlice(sets=(frozenset({1}),), ranks=(1,)), "a", MULLER_SCHUPP)
    assert len(out.successor) == 0
    assert out.priority == 1 and out.dominating == 1 and 1 in out.red


def test_transition_inside_sink(medium_nba):
    sink = RankedSlice(sets=(), ranks=())
    out = transition(medium_nba, sink, "a", MULLER_SCHUPP)
    assert out.successor == sink
    assert out.priority == 1 and out.dominating == 1


def test_stage_functions_reject_a_foreign_symbol_on_the_sink(medium_nba):
    sink = RankedSlice(sets=(), ranks=())
    with pytest.raises(UnknownSymbolError):
        step(medium_nba, sink, "z")
    for strategy in ("ms", "safra", "max", "adaptive"):
        with pytest.raises(UnknownSymbolError):
            transition(medium_nba, sink, "z", strategy)


def test_stage_functions_use_memory_by_slice_size_not_by_the_largest_id_or_rank():
    # One bit per state id or rank would take 12.5 MB for the id and 125 MB
    # for the rank.
    big_id, big_rank = 10**8, 10**9
    aut = BuchiAutomaton(
        num_states=big_id + 1, alphabet=("a",), transitions={(big_id, "a", 0)}, initial={0}, accepting=()
    )
    source = RankedSlice(sets=(frozenset({big_id}), frozenset({0})), ranks=(2, 1))
    pre = PreSlice(sets=(frozenset({big_id}), frozenset({0})), ranks=(big_rank, 1))
    stepped = PreSlice(sets=(frozenset({big_id}), frozenset(), frozenset({0})), ranks=(2, big_rank, 1))
    green = frozenset({big_rank})
    calls = {
        "normalize": lambda: normalize(pre),
        "merge": lambda: merge(pre, ((1, 2),)),
        "prune": lambda: prune(stepped),
        "dominating_rank": lambda: dominating_rank(green, frozenset({1}), 3),
        "step": lambda: step(aut, source, "a"),
    }
    for strategy in ("ms", "safra", "max"):
        calls[f"choose_partition {strategy}"] = lambda s=strategy: choose_partition(pre, 1, green, s)
        calls[f"transition {strategy}"] = lambda s=strategy: transition(aut, source, "a", s)
    tracemalloc.start()
    try:
        for name, call in calls.items():
            tracemalloc.reset_peak()
            call()
            assert tracemalloc.get_traced_memory()[1] < 2**20, name
    finally:
        tracemalloc.stop()


def test_determinize_memory_per_macrostate():
    # 22878 macrostates and 45756 edges: about 1.4 KB per macrostate when each
    # edge was a dict entry of two tuples and each macrostate held its own mask
    # ints (31 MB over the child's base), about 0.5 KB with per-symbol rows and
    # shared masks (12 MB).
    result = run_fresh(
        "from omegadet.determinize import determinize\n"
        "from omegadet.oracle import random_nba\n"
        "aut = random_nba(40, ('a', 'b'), 1.8 / 40, 0.5, seed=9100 * 40)\n"
        "before = hwm_kb()\n"
        "dpa = determinize(aut, 'ms', labels=False)\n"
        "print(dpa.num_states, hwm_kb() - before)\n"
    )
    assert result.returncode == 0, result.stderr
    states, growth_kb = map(int, result.stdout.split())
    assert states == 22878
    assert growth_kb < 20 * 1024, growth_kb


# SHA-256 over every field of the staged traces of the replayed corpus edges
# below, recorded before the staged kernels built the public trace themselves.
GOLDEN_TRACE_SHA256 = {
    "ms": "8430350303ca2636155737da192df8bfd8166549d2d104204c9bb8af40e365c0",
    "safra": "0cba1dd7bce4c55bc508a6adf7b4fba1e1afcca6c7db6d1377d9e2e0aad23bc5",
    "max": "eaf1eea18cfd9548efe5f8a0a4a985ede2aeebf373672b28d4d6319acff06d51",
    "adaptive": "2956d2dab95d43412076e9427b88ccdd9b8bc3424edbe6389f27e3ae9d21342d",
}


def _trace_text(trace) -> str:
    fields = (
        format_slice(trace.source),
        trace.symbol,
        format_slice(trace.stepped),
        format_slice(trace.pruned),
        sorted(trace.green),
        sorted(trace.red),
        trace.dominating,
        trace.priority,
        trace.partition,
        format_slice(trace.merged),
        format_slice(trace.successor),
    )
    return " ".join(map(str, fields)) + "\n"


@pytest.mark.parametrize("strategy", ["ms", "safra", "max", "adaptive"])
def test_explored_edges_replay_with_the_target_as_context(golden_automata, strategy):
    # Exploration runs the fused kernel, transition the staged kernels.  Every
    # DPA edge, recomputed from its source label with its target as the only
    # context, is the same edge.  Under adaptive the context matters: the
    # first 60 corpus automata alone include eight on which an exploration
    # along one lasso reaches adaptive successors that the DPA does not take.
    digest = hashlib.sha256()
    for aut in golden_automata["corpus"]:
        dpa = determinize(aut, strategy, labels=True)
        slices = {state: parse_slice(text) for state, text in dpa.labels.items()}
        for (state, symbol), (target, priority) in dpa.edges.items():
            trace = transition(aut, slices[state], symbol, strategy, (slices[target],))
            assert (trace.successor, trace.priority) == (slices[target], priority)
            digest.update(_trace_text(trace).encode())
    assert digest.hexdigest() == GOLDEN_TRACE_SHA256[strategy]


@pytest.mark.parametrize("strategy", ["ms", "safra", "max", "adaptive"])
def test_validate_rejects_a_fused_result_the_staged_kernels_disagree_with(
    medium_staged_nba, monkeypatch, strategy
):
    real = pipeline._successor

    def off_by_two(*args):
        successor, priority = real(*args)
        return successor, priority + 2

    monkeypatch.setattr(pipeline, "_successor", off_by_two)
    determinize(medium_staged_nba, strategy)
    with pytest.raises(InternalInvariantError, match="the fused kernel gives"):
        replay(medium_staged_nba, strategy)


def test_exploration_builds_no_stage_records(medium_staged_nba, monkeypatch):
    def no_stages(*args):
        raise AssertionError("exploration ran the staged kernels")

    monkeypatch.setattr(pipeline, "_stages", no_stages)
    with pytest.raises(TypeError):
        determinize(medium_staged_nba, validate=True)
    for strategy in ("ms", "safra", "max", "adaptive"):
        assert determinize(medium_staged_nba, strategy).num_states > 1
        with pytest.raises(AssertionError, match="staged kernels"):
            replay(medium_staged_nba, strategy)


@st.composite
def successor_scenarios(draw):
    """A random NBA, a normalized macrostate over it, a symbol, a strategy and explored macrostates.

    The macrostate need not be reachable: random disjoint masks, with a random
    rank order that puts rank 1 last.  Under ``adaptive`` the explored
    macrostates are decoys with the same union and, when ``hit`` is drawn,
    the staged successor, which forces a hit; without it most lookups miss
    and merge as ``max``.
    """
    num_states = draw(st.integers(1, 80))
    alphabet = ("a", "b")[: draw(st.integers(1, 2))]
    density = draw(st.sampled_from((0.5, 2.0, 4.0))) / num_states
    aut = random_nba(num_states, alphabet, min(density, 1.0), draw(st.floats(0, 1)), draw(st.integers(0, 2**16)))
    states = draw(st.lists(st.integers(0, num_states - 1), min_size=1, max_size=10, unique=True))
    cuts = sorted(draw(st.sets(st.integers(1, len(states) - 1)))) if len(states) > 1 else []
    bounds = [0, *cuts, len(states)]
    masks = tuple(to_mask(states[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))
    ranks = tuple(draw(st.permutations(range(2, len(masks) + 1))) + [1])
    symbol = draw(st.sampled_from(alphabet))
    strategy = draw(st.sampled_from((MULLER_SCHUPP, SAFRA, MAX_COLLAPSE, ADAPTIVE)))
    context = []
    adaptive = strategy.kind == "adaptive"
    hit = adaptive and draw(st.booleans())
    if adaptive:
        stages = pipeline._stages(aut, ranked(masks, ranks), symbol, strategy, {})
        hit = hit and bool(stages.pruned.sets)
        if hit:
            context.append(pipeline._key(stages.successor))
        n = len(stages.pruned)
        for _ in range(draw(st.integers(0, 4)) if n else 0):
            # Merges under arbitrary interval partitions, which may break the
            # forced cuts, with their own or with shuffled ranks.
            decoy_cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
            partition = tuple(zip([1] + [c + 1 for c in decoy_cuts], decoy_cuts + [n]))
            merged = merge(stages.pruned, partition)
            merged_masks = tuple(to_mask(block) for block in merged.sets)
            if draw(st.booleans()):
                context.append(pipeline._key(normalize(merged)))
            else:
                order = tuple(draw(st.permutations(range(2, len(merged_masks) + 1))) + [1])
                context.append((merged_masks, order))
        context = draw(st.permutations(context))
    return aut, (masks, ranks), symbol, strategy, context, hit


# Green ranks 3 and 5, red ranks 6 and 8-14, dominating rank k = 3.  The
# pruned slice is ({15}:7,{10}:4,{11}:2,{12}:5,{13}:3,{14}:1): the subtree of
# green 3 holds green 5 and the dead set {5} with red rank 6, and ends at the
# non-green rank 2, to whose left the set ranked 4 stays apart under safra but
# opens a run under max.
NESTED_GREEN_NBA = parse_nba(
    b"""nba
states 16
alphabet a
init 0
accept 12 13
6 a 15
0 a 10
1 a 11
2 a 12
3 a 13
4 a 14
"""
)
NESTED_GREEN_SLICE = parse_slice("({6}:7,{0}:4,{1}:2,{2}:5,{5}:6,{3}:3,{4}:1)")


def _nested_green_successor(strategy):
    return pipeline._key(transition(NESTED_GREEN_NBA, NESTED_GREEN_SLICE, "a", strategy).successor)


def _probe_example(other):
    # The max successor is explored next to another strategy's successor, so
    # the adaptive result must be the max successor, found by the probe.
    context = [_nested_green_successor(other), _nested_green_successor("max")]
    return NESTED_GREEN_NBA, pipeline._key(NESTED_GREEN_SLICE), "a", ADAPTIVE, context, True


# The pruned slice is ({4}:4,{5}:2,{6}:3,{7}:1) with green rank 3 only: the
# green subtree {6} is closed by the non-green set ranked 2, and further left
# the set ranked 4 must start a run of its own under safra.
CLOSED_SUBTREE_NBA = parse_nba(b"nba\nstates 8\nalphabet a\ninit 0\naccept 6\n0 a 4\n1 a 5\n2 a 6\n3 a 7\n")
CLOSED_SUBTREE_SOURCE = pipeline._key(parse_slice("({0}:4,{1}:2,{2}:3,{3}:1)"))


@settings(max_examples=400)
@given(successor_scenarios())
@example(_probe_example("ms"))
@example(_probe_example("safra"))
@example((CLOSED_SUBTREE_NBA, CLOSED_SUBTREE_SOURCE, "a", SAFRA, [], False))
@example((CLOSED_SUBTREE_NBA, CLOSED_SUBTREE_SOURCE, "a", ADAPTIVE, [], False))
def test_fused_successor_matches_the_staged_kernels(scenario):
    aut, source, symbol, strategy, context, hit = scenario
    index = {}
    for key in context:
        pipeline._remember(index, key)
    post = aut.post(symbol)
    stages = pipeline._stages(aut, ranked(*source), symbol, strategy, index)
    fused = pipeline._successor(post, aut.accepting_mask, aut.num_states, source, strategy, index)
    assert fused == (pipeline._key(stages.successor), stages.priority)
    if hit:
        # The lookup found an explored macrostate: the successor is one of them.
        assert fused[0] in context


@pytest.mark.parametrize(
    "strategy, expected",
    [
        ("safra", "({15}:5,{10}:4,{11}:2,{12,13}:3,{14}:1)"),
        ("max", "({10,15}:4,{11}:2,{12,13}:3,{14}:1)"),
    ],
)
def test_fused_runs_on_a_green_subtree_with_nested_green_and_red_ranks(strategy, expected):
    aut = NESTED_GREEN_NBA
    trace = transition(aut, NESTED_GREEN_SLICE, "a", strategy)
    assert (trace.green, trace.dominating, trace.priority) == ({3, 5}, 3, 6)
    assert 6 in trace.red and format_slice(trace.successor) == expected
    source = pipeline._key(NESTED_GREEN_SLICE)
    fused = pipeline._successor(aut.post("a"), aut.accepting_mask, aut.num_states, source, as_strategy(strategy), {})
    assert fused == (pipeline._key(trace.successor), trace.priority)


@pytest.mark.parametrize(
    "nba_text, source, expected, green, priority",
    [
        # The dead position ranked 2 relocates its rank onto the survivor
        # ranked 3 before it, so rank 2 survives green: without the relocation
        # the priority would be 3.
        (
            b"nba\nstates 5\nalphabet a\ninit 0\naccept\n0 a 3\n1 a 3\n2 a 4\n",
            "({0}:3,{1}:2,{2}:1)",
            "({3}:2,{4}:1)",
            {2},
            4,
        ),
        # An all-accepting image keeps the source rank, which its empty
        # non-accepting child marks green; the fresh rank 2 dies red.
        (b"nba\nstates 2\nalphabet a\ninit 0\naccept 1\n0 a 1\n", "({0}:1)", "({1}:1)", {1}, 2),
        # Ids beyond 64 bits, so the mask of unclaimed states is a negative
        # int of more than one digit; state 150 is claimed by the first
        # position, so the second dies.
        (
            b"nba\nstates 200\nalphabet a\ninit 0\naccept 150\n0 a 150\n0 a 70\n199 a 150\n5 a 199\n",
            "({0}:2,{199}:3,{5}:1)",
            "({150}:3,{70}:2,{199}:1)",
            set(),
            5,
        ),
        # Two dead positions in a row relocate twice onto the survivor ranked
        # 4, which ends ranked 2; a rank left over from the first relocation
        # would lift the fresh rank 5 of {6} above 3 in the compaction.
        (
            b"nba\nstates 7\nalphabet a\ninit 0\naccept 6\n0 a 4\n0 a 6\n1 a 4\n2 a 4\n3 a 5\n",
            "({0}:4,{1}:3,{2}:2,{3}:1)",
            "({6}:3,{4}:2,{5}:1)",
            {2},
            4,
        ),
    ],
    ids=["relocation", "all-accepting", "wide-ids", "double-relocation"],
)
def test_fused_successor_on_hand_built_ms_edges(nba_text, source, expected, green, priority):
    aut = parse_nba(nba_text)
    trace = transition(aut, parse_slice(source), "a", MULLER_SCHUPP)
    assert (format_slice(trace.successor), trace.green, trace.priority) == (expected, green, priority)
    key = pipeline._key(parse_slice(source))
    fused = pipeline._successor(aut.post("a"), aut.accepting_mask, aut.num_states, key, MULLER_SCHUPP, {})
    assert fused == (pipeline._key(trace.successor), priority)


@pytest.mark.parametrize("strategy", ["ms", "safra", "max", "adaptive"])
def test_cap_boundary_and_discovery_order(golden_automata, strategy):
    aut = golden_automata["grid"][0]
    dpa = determinize(aut, strategy, labels=False)
    assert dpa.num_states > 1
    assert determinize(aut, strategy, cap=dpa.num_states, labels=False) == dpa
    with pytest.raises(CapacityError, match=f"macrostate cap of {dpa.num_states - 1} exceeded"):
        determinize(aut, strategy, cap=dpa.num_states - 1, labels=False)
    # Ids are discovery order: walking the edges by source, then symbol, each
    # target is an id already seen or the next one, as ``replay`` assumes.
    newest = 0
    for source in range(dpa.num_states):
        for symbol in aut.alphabet:
            target = dpa.edges[source, symbol][0]
            assert target <= newest + 1, (source, symbol, target, newest)
            newest = max(newest, target)
    assert newest == dpa.num_states - 1


@pytest.mark.parametrize("strategy", ["ms", "safra", "max", "adaptive"])
def test_validated_determinize_on_the_golden_grid(golden_automata, strategy):
    # Wider slices than the corpus, with the rank gaps that the fused kernel compacts.
    for aut in golden_automata["grid"]:
        replay(aut, strategy)


@pytest.mark.parametrize("strategy", ["ms", "safra", "max", "adaptive"])
def test_exploration_neither_merges_nor_normalizes(golden_automata, monkeypatch, strategy):
    # Every strategy merges and compacts inside the fused kernel, adaptive
    # hits and misses alike.  An adaptive edge that is not the sink is a probe
    # hit (the max successor is explored, and no scan runs), a scan hit or a
    # miss.
    lookups = {"probe": 0, "scan": 0, "miss": 0}
    scans = []
    remembered = set()
    real_reuse, real_remember, real_successor = pipeline._reuse, pipeline._remember, pipeline._successor

    def reuse(*args):
        found = real_reuse(*args)
        scans.append(found)
        return found

    def remember(index, macrostate):
        remembered.add(macrostate)
        real_remember(index, macrostate)

    def successor(*args):
        scans.clear()
        succ, priority = real_successor(*args)
        if scans:
            assert len(scans) == 1
            lookups["miss" if scans[0] is None else "scan"] += 1
        elif succ[0] and args[4].kind == "adaptive":
            assert succ in remembered
            lookups["probe"] += 1
        return succ, priority

    def forbidden(name):
        def stage(*args):
            raise AssertionError(f"exploration ran {name}")

        return stage

    monkeypatch.setattr(pipeline, "_reuse", reuse)
    monkeypatch.setattr(pipeline, "_remember", remember)
    monkeypatch.setattr(pipeline, "_successor", successor)
    for name in ("_choose", "step", "prune", "merge", "normalize", "unflatten"):
        monkeypatch.setattr(pipeline, name, forbidden(name))
    for aut in golden_automata["grid"]:
        assert determinize(aut, strategy).num_states > 1
    if as_strategy(strategy).kind == "adaptive":
        assert min(lookups.values()) > 0, lookups
    else:
        assert lookups == {"probe": 0, "scan": 0, "miss": 0}
    with pytest.raises(AssertionError, match="exploration ran"):
        replay(golden_automata["grid"][0], strategy)


def test_priority_parity_rule(small_nba, medium_nba, wide_staged_nba):
    for aut in (small_nba, medium_nba, wide_staged_nba):
        dpa = replay(aut, MULLER_SCHUPP)
        for _, priority in dpa.edges.values():
            assert priority >= 1


def test_determinize_small(small_nba):
    dpa = replay(small_nba, MULLER_SCHUPP)
    assert dpa.num_states == 3
    assert dpa.labels == {0: "({0}:1)", 1: "({1}:2,{0}:1)", 2: "({1}:3,{2}:2,{0}:1)"}
    assert dpa.edges == {(0, "a"): (1, 7), (1, "a"): (2, 7), (2, "a"): (2, 4)}


def test_determinize_trivially_accepting():
    aut = parse_nba(b"nba\nstates 1\nalphabet a b\ninit 0\naccept 0\n0 a 0\n0 b 0\n")
    dpa = replay(aut, MULLER_SCHUPP)
    assert dpa.num_states == 1
    assert all(priority % 2 == 0 for _, priority in dpa.edges.values())


def test_determinize_strategies_agree_until_merges(medium_nba):
    by_ms = replay(medium_nba, MULLER_SCHUPP)
    by_safra = replay(medium_nba, SAFRA)
    # This automaton only produces trivial green subtrees, so the reachable
    # macrostates coincide.
    assert set(by_ms.labels.values()) == set(by_safra.labels.values())


def test_determinize_without_labels(small_nba):
    labelled = determinize(small_nba, MULLER_SCHUPP)
    bare = determinize(small_nba, MULLER_SCHUPP, labels=False)
    assert bare.labels == {}
    assert bare.edges == labelled.edges and bare.num_states == labelled.num_states


def test_determinize_cap(small_nba):
    with pytest.raises(CapacityError):
        determinize(small_nba, MULLER_SCHUPP, cap=1)
    # The initial macrostate alone exceeds a cap below 1, even on one state.
    one_state = parse_nba(b"nba\nstates 1\nalphabet a\ninit 0\naccept 0\n0 a 0\n")
    assert determinize(one_state, MULLER_SCHUPP, cap=1).num_states == 1
    for cap in (0, -1):
        with pytest.raises(ValueError, match="cap must be at least 1"):
            determinize(one_state, MULLER_SCHUPP, cap=cap)


def test_staged_fixture_reaches_prepared_slices(medium_staged_nba, wide_staged_nba):
    assert walk(medium_staged_nba, "bc") == parse_slice("({1}:2,{2}:3,{0}:1)")
    assert walk(wide_staged_nba, "bcde") == parse_slice("({2}:3,{3}:5,{1}:2,{5}:6,{4}:4,{0}:1)")


def test_wide_staged_transition_events(wide_staged_nba):
    source = walk(wide_staged_nba, "bcde")
    trace = transition(wide_staged_nba, source, "a", MULLER_SCHUPP)
    assert trace.green == WIDE_GREEN
    assert trace.dominating == 2 and trace.priority == 4
    assert trace.pruned == WIDE_PRUNED
    check_transition_invariants(wide_staged_nba, trace)


def test_validated_determinize_on_random_automata():
    for seed in range(40):
        aut = random_nba(1 + seed % 5, ("a", "b")[: 1 + seed % 2], 0.4, 0.4, 9000 + seed)
        for strategy in (MULLER_SCHUPP, SAFRA, MAX_COLLAPSE, ADAPTIVE):
            replay(aut, strategy)


def test_language_equivalence_staged(medium_staged_nba, wide_staged_nba):
    from omegadet.oracle import enumerate_lassos, nba_accepts_lasso
    from omegadet.parity import run_lasso

    for aut in (medium_staged_nba, wide_staged_nba):
        dpas = [
            replay(aut, strategy)
            for strategy in (MULLER_SCHUPP, SAFRA, MAX_COLLAPSE, ADAPTIVE)
        ]
        for lasso in enumerate_lassos(aut.alphabet, 2, 2):
            expected = nba_accepts_lasso(aut, lasso).accepted
            for dpa in dpas:
                assert run_lasso(dpa, lasso).accepted == expected, (aut.alphabet, lasso)


def count_ranked_slices(num_states: int) -> int:
    """All ranked slices over a state pool, by direct combinatorics."""

    def surjections(j: int, n: int) -> int:
        # Ordered set partitions of j labelled items into n non-empty blocks.
        return sum((-1) ** i * math.comb(n, i) * (n - i) ** j for i in range(n + 1))

    total = 1  # the empty sink slice
    for n in range(1, num_states + 1):
        tuples = sum(
            math.comb(num_states, j) * surjections(j, n) for j in range(n, num_states + 1)
        )
        total += tuples * math.factorial(n - 1)
    return total


def test_reachable_states_bounded_by_slice_count():
    for seed in range(12):
        aut = random_nba(1 + seed % 4, ("a", "b"), 0.5, 0.4, 333 + seed)
        for strategy in (MULLER_SCHUPP, SAFRA, MAX_COLLAPSE):
            dpa = determinize(aut, strategy)
            assert dpa.num_states <= count_ranked_slices(aut.num_states)


def test_strategy_validation():
    # Each kind names one merge rule: an adaptive miss always merges as ``max``.
    assert MergeStrategy("adaptive") == ADAPTIVE == as_strategy("adaptive")
    with pytest.raises(TypeError):
        MergeStrategy("adaptive", fallback="max")
    with pytest.raises(ValueError, match="unknown strategy kind 'bogus'") as direct:
        MergeStrategy("bogus")
    with pytest.raises(ValueError) as coerced:
        as_strategy("bogus")
    assert str(coerced.value) == str(direct.value)


# SHA-256 over the concatenated labelled .dpa bytes of each automaton set,
# recorded with the frozenset-based pipeline that the bitmask kernels
# replaced: the output must stay byte-identical.
GOLDEN_DPA_SHA256 = {
    ("corpus", "ms"): "4a66402e76b99c46f215753a0e5b1dcb861815eb4badb8d87097a701ffa4c3aa",
    ("corpus", "safra"): "68cd4de9b865997252cf6a4243c4f534b2164cc4f43579749eeb934c03171d0c",
    ("corpus", "max"): "3a7b6a2b468927bf4dcd05e2fc03cc04f785b016265c37adc863ab5b8b042790",
    ("corpus", "adaptive"): "48ea0737fee3b68a35eb1f0675ad52156ddeee8ed7796d19b994474fad38eb76",
    ("grid", "ms"): "50a524161fc97ccf12d665d41ebd2137297cc37f29707ca3e71dc0544f328802",
    ("grid", "safra"): "41a8a7ff6af7c5e8250a6a7f32da6c0bb0670e792db3c11b9ecd9e8ee01304a9",
    ("grid", "max"): "6ed59599c855141e573084d878151f6c74305e16f364871c4b278c20ba7a0fb7",
    ("grid", "adaptive"): "8a2283fc5ccd8da01c2ec1cea3c9042758bb50cf99eeb641103d30937df13390",
    # The merge-adaptive benchmark workload: six n=24 automata, 3580 states.
    ("wide", "adaptive"): "ab3c1865abd069ccaa9cb79e59685d819ecbeccf88a03f29a606db0a60bc91b3",
    # The explore-ms benchmark workload, unlabelled: 24 automata at n=12..18, 17307 states.
    ("explore", "ms"): "01c9a85aa7fff0990e08ffcb63d375ebcf18045ce69d48b86fb3e4163d6e10a7",
}


@pytest.fixture(scope="module")
def golden_automata():
    # The 300-automaton corpus plus three Tabakov-Vardi automata (n=12, density 1.8/n).
    grid = [random_nba(12, ("a", "b"), 1.8 / 12, 0.5, seed=9100 * 12 + i) for i in range(3)]
    return {"corpus": build_corpus(), "grid": grid}


@pytest.mark.parametrize("strategy", ["ms", "safra", "max", "adaptive"])
def test_golden_dpa_bytes(golden_automata, strategy):
    for name, automata in golden_automata.items():
        digest = hashlib.sha256()
        for aut in automata:
            digest.update(serialize_dpa(determinize(aut, strategy)))
        assert digest.hexdigest() == GOLDEN_DPA_SHA256[(name, strategy)], name


def test_golden_dpa_bytes_of_the_merge_adaptive_workload():
    digest = hashlib.sha256()
    for i in range(6):
        aut = random_nba(24, ("a", "b"), 1.8 / 24, 0.5, seed=9100 * 24 + i)
        digest.update(serialize_dpa(determinize(aut, ADAPTIVE, labels=True)))
    assert digest.hexdigest() == GOLDEN_DPA_SHA256[("wide", "adaptive")]


def test_golden_dpa_bytes_of_the_explore_ms_workload():
    digest = hashlib.sha256()
    for n in (12, 14, 16, 18):
        for i in range(6):
            aut = random_nba(n, ("a", "b"), 1.8 / n, 0.5, seed=9100 * n + i)
            digest.update(serialize_dpa(determinize(aut, MULLER_SCHUPP, labels=False)))
    assert digest.hexdigest() == GOLDEN_DPA_SHA256[("explore", "ms")]


@pytest.mark.parametrize("strategy", ["ms", "safra", "max", "adaptive"])
def test_explored_macrostates_decode_to_their_labels(strategy):
    # On the explore-ms grid, _slice inverts _key on every explored macrostate,
    # and the cached label formatter writes what format_slice writes for it.
    for n in (12, 14, 16, 18):
        for i in range(6):
            aut = random_nba(n, ("a", "b"), 1.8 / n, 0.5, seed=9100 * n + i)
            order, _ = pipeline._explore(aut, strategy, 1_000_000)
            labels = pipeline._labels(order)
            assert len(labels) == len(order) > 1
            for state, macrostate in enumerate(order):
                slice_ = pipeline._slice(macrostate)
                assert pipeline._key(slice_) == macrostate
                assert format_slice(slice_) == labels[state]
