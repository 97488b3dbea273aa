import hashlib
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegadet.determinize import MULLER_SCHUPP
from omegadet.nba import BuchiAutomaton, Lasso, UnknownSymbolError, parse_nba, successors, to_mask
from omegadet import oracle
from omegadet.oracle import enumerate_lassos, nba_accepts_lasso, random_nba, sample_lassos
from omegadet.stages import initial_slice, transition

from .conftest import assert_valid_witness, build_corpus
from .reference import split_tree_levels


def test_accepts_small(small_nba):
    lasso = Lasso(stem=(), cycle=("a",))
    verdict = nba_accepts_lasso(small_nba, lasso)
    assert verdict.accepted
    assert verdict.prefix_states == (0, 1) and verdict.loop_states == (1, 1)
    assert_valid_witness(small_nba, lasso, verdict)


def test_rejects_without_accepting_states():
    aut = parse_nba(b"nba\nstates 2\nalphabet a b\ninit 0\naccept\n0 a 1\n1 a 0\n0 b 0\n")
    for lasso in enumerate_lassos(aut.alphabet, 2, 2):
        assert not nba_accepts_lasso(aut, lasso).accepted


@pytest.mark.parametrize("stem, cycle", [(("a",), ("z",)), ((), ("z",)), (("z",), ("a",)), (("a", "a"), ("a", "z"))])
def test_unknown_symbol_raises_also_after_a_stem_that_empties_the_set(stem, cycle):
    # State 0 has no successor, so the stem "a" leaves no state to read "z" with.
    aut = BuchiAutomaton(1, ("a",), frozenset(), frozenset({0}), frozenset({0}))
    with pytest.raises(UnknownSymbolError, match="symbol 'z' not in alphabet"):
        nba_accepts_lasso(aut, Lasso(stem, cycle))


def test_accepts_medium(medium_nba):
    lasso = Lasso(stem=(), cycle=("a",))
    verdict = nba_accepts_lasso(medium_nba, lasso)
    assert verdict.accepted
    # State 2 loops on a and is accepting.
    assert verdict.prefix_states == (0, 2) and verdict.loop_states == (2, 2)
    assert_valid_witness(medium_nba, lasso, verdict)


def test_witnesses_are_valid_runs():
    for seed in range(30):
        aut = random_nba(1 + seed % 5, ("a", "b"), 0.4, 0.4, 2100 + seed)
        for lasso in enumerate_lassos(aut.alphabet, 2, 2):
            verdict = nba_accepts_lasso(aut, lasso)
            if verdict.accepted:
                assert_valid_witness(aut, lasso, verdict)


def test_long_witnesses_are_valid_runs():
    # Hundreds of times longer than any corpus witness: a 20000-symbol stem,
    # and a 2000-state product path and cycle.
    loop = BuchiAutomaton(1, ("a",), {(0, "a", 0)}, {0}, {0})
    lasso = Lasso(("a",) * 20000, ("a",))
    verdict = nba_accepts_lasso(loop, lasso)
    assert len(verdict.prefix_states) == 20001 and len(verdict.loop_states) == 2
    assert_valid_witness(loop, lasso, verdict)

    ring = BuchiAutomaton(2000, ("a",), {(q, "a", (q + 1) % 2000) for q in range(2000)}, {0}, {1999})
    lasso = Lasso((), ("a",))
    verdict = nba_accepts_lasso(ring, lasso)
    assert len(verdict.prefix_states) == 2000 and len(verdict.loop_states) == 2001
    assert_valid_witness(ring, lasso, verdict)


def test_a_rejected_lasso_takes_no_search_and_an_accepted_one_two(monkeypatch):
    # States 0 .. n-1 are accepting and lie on no cycle; the chain ends in the
    # non-accepting a-loop n.  One cycle search per accepting node would be
    # quadratic in n, and a rejected lasso builds no witness.
    n = 2000
    transitions = {(q, "a", q + 1) for q in range(n)} | {(n, "a", n)}
    chain = BuchiAutomaton(n + 1, ("a",), transitions, {0}, set(range(n)))
    searches = []
    search = oracle._search

    def counted(*args, **kwargs):
        searches.append(args[1])
        return search(*args, **kwargs)

    monkeypatch.setattr(oracle, "_search", counted)
    assert not nba_accepts_lasso(chain, Lasso((), ("a",))).accepted
    assert searches == []

    # Accepted once the loop state accepts too: the reachability search and one cycle search.
    searches.clear()
    looping = BuchiAutomaton(n + 1, ("a",), transitions, {0}, set(range(n + 1)))
    verdict = nba_accepts_lasso(looping, Lasso((), ("a",)))
    assert verdict.loop_states == (n, n) and len(verdict.prefix_states) == n + 1
    assert len(searches) == 2


def test_a_product_of_over_100000_nodes_is_decided_without_recursion():
    # A 1000-state ring read with a cycle of 101 symbols: since 1000 and 101 are
    # coprime, all 101000 product nodes form one component, and a depth-first
    # search goes 101000 nodes deep.
    ring = BuchiAutomaton(1000, ("a",), {(q, "a", (q + 1) % 1000) for q in range(1000)}, {0}, {999})
    cycle = ("a",) * 101
    decision = oracle._CycleDecision(ring, cycle)
    assert decision.accepts(to_mask({0}))
    assert len(decision._index) == 101000
    assert nba_accepts_lasso(ring, Lasso((), cycle)).accepted


def test_a_decision_visits_only_the_nodes_reachable_from_its_roots():
    # One million states, two of them with a transition: nothing may walk them all.
    aut = BuchiAutomaton(10**6, ("a", "b"), {(0, "a", 1), (1, "a", 0)}, {0}, {1, 999_999})
    for cycle in [("a",), ("a", "a", "a"), ("a", "b")]:
        decision = oracle._CycleDecision(aut, cycle)
        assert decision.accepts(to_mask({0})) == ("b" not in cycle)
        assert len(decision._index) <= 2 * len(cycle)
        # New roots continue the same pass; decided roots cost nothing.
        assert not decision.accepts(to_mask({999_999}))
        assert decision.accepts(to_mask({0, 999_999})) == ("b" not in cycle)
        assert len(decision._index) <= 2 * len(cycle) + 1


def test_a_decision_asked_about_a_decided_layer_runs_no_second_pass(monkeypatch):
    passes = []
    components = oracle.components

    def counted(*args):
        passes.append(args[1])
        return components(*args)

    monkeypatch.setattr(oracle, "components", counted)
    ring = BuchiAutomaton(3, ("a",), {(q, "a", (q + 1) % 3) for q in range(3)}, {0}, {2})
    decision = oracle._CycleDecision(ring, ("a",))
    assert decision.accepts(to_mask({0, 1})) and decision.accepts(to_mask({0, 1}))
    assert passes == [[(0, 0), (1, 0)]]


def nba_accepts_lasso_by_powers(aut: BuchiAutomaton, lasso: Lasso) -> bool:
    """Reference decision procedure, coded apart from the oracle: powers of the one-cycle boundary relation.

    Builds the relation "some run over one full cycle goes from p to q,
    visiting an accepting state or not", composes it up to the pigeonhole
    bound, and looks for an accepting self-loop reachable from the post-stem
    states.  Successors come from ``aut.transitions``, not from the
    automaton's transition table.
    """
    delta: dict[tuple[int, str], set[int]] = {}
    for p, symbol, q in aut.transitions:
        delta.setdefault((p, symbol), set()).add(q)
    start_states = set(aut.initial)
    for symbol in lasso.stem:
        start_states = {q for p in start_states for q in delta.get((p, symbol), ())}
    base: dict[int, dict[int, bool]] = {p: {} for p in range(aut.num_states)}
    for p in range(aut.num_states):
        # Pairs (state, accepting seen at segment times 0..t-1) after t symbols.
        current = {(p, False)}
        for symbol in lasso.cycle:
            current = {
                (target, flag or q in aut.accepting)
                for q, flag in current
                for target in delta.get((q, symbol), ())
            }
        for q, flag in current:
            base[p][q] = base[p].get(q, False) or flag

    reach = set(start_states)
    frontier = set(start_states)
    while frontier:
        frontier = {q for p in frontier for q in base[p]} - reach
        reach |= frontier

    # A flagged self-loop, if any exists, shows up within 2 * num_states powers.
    power = base
    for _ in range(2 * aut.num_states):
        if any(power[q].get(q, False) for q in reach):
            return True
        power = _compose(base, power)
    return False


def _compose(
    left: dict[int, dict[int, bool]], right: dict[int, dict[int, bool]]
) -> dict[int, dict[int, bool]]:
    out: dict[int, dict[int, bool]] = {p: {} for p in left}
    for p, mids in left.items():
        row = out[p]
        for mid, flag1 in mids.items():
            for q, flag2 in right[mid].items():
                row[q] = row.get(q, False) or flag1 or flag2
    return out




# SHA-256 over repr((accepted, prefix_states, loop_states)) of every verdict on
# the corpus, recorded with the oracle that walked frozenset state sets: moving
# it onto successor masks must not change a verdict or a witness.
GOLDEN_VERDICTS_SHA256 = "c8bbab69cf1f123637afdc3bb1203ecfd5695850339275f74938296482bb08e5"


def test_golden_verdicts_and_witnesses_on_the_corpus():
    digest = hashlib.sha256()
    count = 0
    for aut in build_corpus():
        for lasso in enumerate_lassos(aut.alphabet, 3, 2):
            verdict = nba_accepts_lasso(aut, lasso)
            digest.update(repr((verdict.accepted, verdict.prefix_states, verdict.loop_states)).encode())
            count += 1
    assert count == 14700
    assert digest.hexdigest() == GOLDEN_VERDICTS_SHA256


def test_implementations_agree():
    for seed in range(60):
        aut = random_nba(1 + seed % 5, ("a", "b")[: 1 + seed % 2], 0.4, 0.4, 3100 + seed)
        for lasso in enumerate_lassos(aut.alphabet, 2, 2):
            assert nba_accepts_lasso(aut, lasso).accepted == nba_accepts_lasso_by_powers(aut, lasso)


def test_decision_on_the_post_stem_mask_matches_the_oracle_on_the_corpus():
    # What check decides from the mask it holds, against the witness-building
    # oracle, which runs the same decision, and the independent boundary powers.
    count = 0
    for aut in build_corpus():
        layers = {(): aut.initial}
        for lasso in enumerate_lassos(aut.alphabet, 3, 3):
            stem = lasso.stem
            if stem not in layers:
                layers[stem] = successors(aut, layers[stem[:-1]], stem[-1])
            decision = oracle._CycleDecision(aut, lasso.cycle).accepts(to_mask(layers[stem]))
            assert decision == nba_accepts_lasso(aut, lasso).accepted, lasso
            assert decision == nba_accepts_lasso_by_powers(aut, lasso), lasso
            count += 1
    assert count == 33300


def test_a_shared_decision_asked_from_a_rotation_offset_matches_a_fresh_one_on_the_corpus():
    # check keeps one decision per least rotation c of a cycle's primitive
    # root w and asks it from the offset r with c[r:] + c[:r] == w.  The
    # cycles take turns, so each shared decision is asked from every offset.
    count = 0
    for aut in build_corpus():
        layers: dict[int, tuple[str, ...]] = {}  # each post-stem mask, with a stem that reaches it
        for length in range(4):
            for stem in product(aut.alphabet, repeat=length):
                layer = aut.initial
                for symbol in stem:
                    layer = successors(aut, layer, symbol)
                layers.setdefault(to_mask(layer), stem)
        shared: dict[tuple[str, ...], oracle._CycleDecision] = {}
        for length in range(1, 5):
            for cycle in product(aut.alphabet, repeat=length):
                root, canonical, offset = oracle._rotation_class(cycle)
                assert root * (length // len(root)) == cycle and canonical[offset:] + canonical[:offset] == root
                if canonical not in shared:
                    shared[canonical] = oracle._CycleDecision(aut, canonical)
                decision = shared[canonical]
                for mask, stem in layers.items():
                    verdict = decision.accepts(mask, offset)
                    assert verdict == oracle._CycleDecision(aut, cycle).accepts(mask), (stem, cycle)
                    assert verdict == nba_accepts_lasso_by_powers(aut, Lasso(stem, cycle)), (stem, cycle)
                    count += 1
    assert count == 22110


def test_a_rotation_is_read_from_its_offset():
    # From state 0, (ab)^ω runs 0 1 0 1 ... through the accepting state 0, and
    # (ba)^ω dies at once: state 0 has no b edge.
    aut = BuchiAutomaton(2, ("a", "b"), {(0, "a", 1), (1, "b", 0)}, {0}, {0})
    start = to_mask({0})
    assert oracle._rotation_class(("a", "b")) == (("a", "b"), ("a", "b"), 0)
    assert oracle._rotation_class(("b", "a", "b", "a")) == (("b", "a"), ("a", "b"), 1)
    decision = oracle._CycleDecision(aut, ("a", "b"))
    assert not decision.accepts(start, 1)
    assert decision.accepts(start, 0)
    assert not decision.accepts(start, 1)
    assert nba_accepts_lasso(aut, Lasso((), ("a", "b"))).accepted
    assert not nba_accepts_lasso(aut, Lasso((), ("b", "a"))).accepted


@st.composite
def sparse_nbas(draw):
    """Automata of 1 to 70 states with one or two edges per active state and symbol, so masks cross 64 bits.

    Only the last ``size`` states have edges or are initial or accepting,
    so a small automaton can still sit above bit 63.
    """
    num_states = draw(st.integers(1, 70) | st.integers(65, 70))
    size = draw(st.integers(1, min(num_states, 8)) | st.integers(1, num_states))
    offset = num_states - size
    state = st.integers(offset, num_states - 1)
    alphabet = ("a", "b")
    transitions = {
        (src, symbol, dst)
        for src in range(offset, num_states)
        for symbol in alphabet
        for dst in draw(st.lists(state, min_size=1, max_size=2))
    }
    initial = draw(st.frozensets(state, min_size=1, max_size=3))
    flags = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    accepting = frozenset(q for q, flag in zip(range(offset, num_states), flags) if flag)
    return BuchiAutomaton(num_states, alphabet, frozenset(transitions), initial, accepting)


@settings(max_examples=100)
@given(
    aut=sparse_nbas(),
    stem=st.lists(st.sampled_from("ab"), max_size=3).map(tuple),
    cycle=st.lists(st.sampled_from("ab"), min_size=1, max_size=3).map(tuple),
)
def test_decision_on_the_post_stem_mask_matches_boundary_powers(aut, stem, cycle):
    layer = aut.initial
    for symbol in stem:
        layer = successors(aut, layer, symbol)
    lasso = Lasso(stem, cycle)
    assert oracle._CycleDecision(aut, cycle).accepts(to_mask(layer)) == nba_accepts_lasso_by_powers(aut, lasso)


def test_enumerate_lassos_tiny():
    got = list(enumerate_lassos(("a",), 1, 1))
    assert got == [Lasso((), ("a",)), Lasso(("a",), ("a",))]


def test_enumerate_lassos_cycles_only():
    got = list(enumerate_lassos(("a", "b"), 0, 2))
    cycles = [lasso.cycle for lasso in got]
    assert cycles == [("a",), ("b",), ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]
    assert all(lasso.stem == () for lasso in got)


def test_enumerate_lassos_count():
    got = list(enumerate_lassos(("a", "b"), 2, 2))
    assert len(got) == 42
    assert len(set(got)) == 42


def test_enumerate_lassos_count_formula():
    for size, max_stem, max_cycle in ((1, 3, 2), (2, 3, 3), (3, 1, 2)):
        alphabet = ("a", "b", "c")[:size]
        stems = sum(size**i for i in range(max_stem + 1))
        cycles = sum(size**j for j in range(1, max_cycle + 1))
        assert len(list(enumerate_lassos(alphabet, max_stem, max_cycle))) == stems * cycles


def test_sample_lassos_reproducible():
    first = list(sample_lassos(("a", "b"), 50, 3, 3, seed=7))
    second = list(sample_lassos(("a", "b"), 50, 3, 3, seed=7))
    assert first == second
    assert len(first) == 50


def test_split_tree_levels_small(small_nba):
    levels = split_tree_levels(small_nba, ("a", "a", "a"))
    f = frozenset
    assert levels == (
        (f({0}),),
        (f({1}), f({0})),
        (f({1}), f({2}), f({0})),
        (f({1}), f({2}), f({0})),
    )


def test_split_tree_levels_empty_prefix(small_nba):
    assert split_tree_levels(small_nba, ()) == ((frozenset({0}),),)


def test_split_tree_levels_match_macrostates():
    # With the identity merge, the macrostate tuples are exactly the levels
    # with ranks erased.
    for aut in build_corpus(count=25, master_seed=515151):
        for lasso in enumerate_lassos(aut.alphabet, 1, 2):
            word = lasso.stem + lasso.cycle + lasso.cycle
            levels = split_tree_levels(aut, word)
            current = initial_slice(aut)
            for depth, symbol in enumerate(word):
                assert current.sets == levels[depth]
                current = transition(aut, current, symbol, MULLER_SCHUPP).successor
            assert current.sets == levels[len(word)]


def test_split_tree_levels_disjoint_and_bounded(small_nba, wide_nba):
    for aut in (small_nba, wide_nba):
        for levels in (split_tree_levels(aut, ("a",) * 6),):
            for level in levels:
                union: set[int] = set()
                for block in level:
                    assert block and not (block & union)
                    union |= block
                assert len(level) <= aut.num_states


def test_random_nba_reproducible():
    first = random_nba(5, ("a", "b"), 0.4, 0.4, 99)
    second = random_nba(5, ("a", "b"), 0.4, 0.4, 99)
    assert first == second


@pytest.mark.parametrize(
    "lassos",
    [
        lambda: enumerate_lassos(("a",), 1, 0),
        lambda: sample_lassos(("a",), 1, 1, 0, seed=0),
    ],
)
def test_boundary_errors(lassos):
    with pytest.raises(ValueError, match=r"^max_cycle must be at least 1$"):
        next(lassos())
