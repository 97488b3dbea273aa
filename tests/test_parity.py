import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from omegadet.determinize import MULLER_SCHUPP, determinize
from omegadet.nba import Lasso, UnknownSymbolError, parse_nba
from omegadet.oracle import enumerate_lassos, random_nba, sample_lassos
from omegadet.parity import (
    DpaFormatError,
    MissingEdgeError,
    ParityAutomaton,
    parse_dpa,
    run_lasso,
    serialize_dpa,
)

from .conftest import TOKEN_TEXT, run_fresh
from .reference import compact_priorities

GOLDEN_SMALL_DPA = b"""dpa
states 3
alphabet a
init 0
label 0 ({0}:1)
label 1 ({1}:2,{0}:1)
label 2 ({1}:3,{2}:2,{0}:1)
0 a 1 7
1 a 2 7
2 a 2 4
"""


def sink_only_dpa() -> ParityAutomaton:
    return ParityAutomaton(
        num_states=1,
        alphabet=("a", "b"),
        initial=0,
        edges={(0, "a"): (0, 1), (0, "b"): (0, 1)},
    )


def test_follow_errors():
    dpa = ParityAutomaton(num_states=2, alphabet=("a", "b"), initial=0, edges={(0, "a"): (1, 2)})
    assert dpa.follow(0, "a") == (1, 2)
    # State 0 has an edge and state 1 has none; a foreign symbol is unknown from both.
    for state in (0, 1):
        with pytest.raises(UnknownSymbolError, match="^symbol 'c' not in alphabet$"):
            dpa.follow(state, "c")
    with pytest.raises(MissingEdgeError, match="^no edge from state 0 on 'b'$"):
        dpa.follow(0, "b")
    with pytest.raises(MissingEdgeError, match="^no edge from state 1 on 'a'$"):
        dpa.follow(1, "a")


def test_run_lasso_small(small_nba):
    dpa = determinize(small_nba, MULLER_SCHUPP)
    run = run_lasso(dpa, Lasso(stem=(), cycle=("a",)))
    assert run.accepted and run.min_priority == 4
    assert run.loop_states == (2,)


def test_run_lasso_sink_only():
    run = run_lasso(sink_only_dpa(), Lasso(stem=("a",), cycle=("b", "a")))
    assert not run.accepted and run.min_priority == 1


def test_run_lasso_no_accepting_states():
    aut = parse_nba(b"nba\nstates 2\nalphabet a\ninit 0\naccept\n0 a 1\n1 a 0\n")
    dpa = determinize(aut, MULLER_SCHUPP)
    for lasso in enumerate_lassos(("a",), 2, 3):
        assert not run_lasso(dpa, lasso).accepted


def test_run_lasso_missing_edge():
    dpa = ParityAutomaton(num_states=1, alphabet=("a",), initial=0, edges={})
    with pytest.raises(MissingEdgeError):
        run_lasso(dpa, Lasso(stem=(), cycle=("a",)))


@st.composite
def dpa_and_lasso(draw):
    aut = random_nba(
        draw(st.integers(1, 4)),
        ("a", "b")[: draw(st.integers(1, 2))],
        0.45,
        0.4,
        draw(st.integers(0, 2**16)),
    )
    dpa = determinize(aut, MULLER_SCHUPP)
    stem = tuple(draw(st.lists(st.sampled_from(aut.alphabet), max_size=3)))
    cycle = tuple(draw(st.lists(st.sampled_from(aut.alphabet), min_size=1, max_size=3)))
    return dpa, Lasso(stem=stem, cycle=cycle)


@given(dpa_and_lasso())
def test_run_lasso_unrolling_invariance(case):
    dpa, lasso = case
    plain = run_lasso(dpa, lasso)
    unrolled = run_lasso(dpa, Lasso(stem=lasso.stem + lasso.cycle, cycle=lasso.cycle))
    assert plain.accepted == unrolled.accepted


@given(dpa_and_lasso())
def test_run_lasso_period_doubling_invariance(case):
    dpa, lasso = case
    plain = run_lasso(dpa, lasso)
    doubled = run_lasso(dpa, Lasso(stem=lasso.stem, cycle=lasso.cycle + lasso.cycle))
    assert plain.accepted == doubled.accepted


def test_serialize_small_golden(small_nba):
    dpa = determinize(small_nba, MULLER_SCHUPP)
    assert serialize_dpa(dpa) == GOLDEN_SMALL_DPA


def test_serialize_one_state_six_lines():
    dpa = ParityAutomaton(
        num_states=1,
        alphabet=("a", "b"),
        initial=0,
        edges={(0, "a"): (0, 2), (0, "b"): (0, 2)},
    )
    data = serialize_dpa(dpa)
    assert data == b"dpa\nstates 1\nalphabet a b\ninit 0\n0 a 0 2\n0 b 0 2\n"
    assert len(data.splitlines()) == 6


def test_serialize_dpa_writes_labels_by_state_and_edges_by_state_then_alphabet_position():
    # The alphabet is not in text order, one edge is missing, and both
    # mappings are filled in reverse of the canonical order.
    dpa = ParityAutomaton(
        num_states=2,
        alphabet=("b", "a"),
        initial=0,
        edges={(1, "a"): (0, 3), (1, "b"): (1, 2), (0, "a"): (1, 1)},
        labels={1: "({1}:1)", 0: "({0}:1)"},
    )
    assert serialize_dpa(dpa) == (
        b"dpa\nstates 2\nalphabet b a\ninit 0\nlabel 0 ({0}:1)\nlabel 1 ({1}:1)\n0 a 1 1\n1 b 1 2\n1 a 0 3\n"
    )


def test_parse_serialize_round_trip_random():
    for seed in range(60):
        aut = random_nba(1 + seed % 5, ("a", "b")[: 1 + seed % 2], 0.4, 0.4, 500 + seed)
        dpa = determinize(aut, MULLER_SCHUPP)
        assert parse_dpa(serialize_dpa(dpa)) == dpa


def test_parse_dpa_golden():
    dpa = parse_dpa(GOLDEN_SMALL_DPA)
    assert dpa.num_states == 3 and dpa.initial == 0
    assert dpa.labels[2] == "({1}:3,{2}:2,{0}:1)"
    assert dpa.edges[(2, "a")] == (2, 4)


def test_parity_automaton_is_read_only():
    edges = {(0, "a"): (0, 2)}
    dpa = ParityAutomaton(num_states=1, alphabet=("a",), initial=0, edges=edges, labels={0: "({0}:1)"})
    with pytest.raises(TypeError):
        dpa.edges[(0, "a")] = (0, 1)  # type: ignore[index]
    with pytest.raises(TypeError):
        dpa.labels[0] = "()"  # type: ignore[index]
    edges[(0, "a")] = (0, 1)
    assert dpa.edges[(0, "a")] == (0, 2)


def test_parity_automaton_keeps_no_alphabet_of_the_caller():
    alphabet = ["a"]
    dpa = ParityAutomaton(num_states=1, alphabet=alphabet, initial=0, edges={(0, "a"): (0, 2)})  # type: ignore[arg-type]
    alphabet.append("b")
    assert dpa.alphabet == ("a",)
    assert serialize_dpa(dpa) == b"dpa\nstates 1\nalphabet a\ninit 0\n0 a 0 2\n"


@pytest.mark.parametrize(
    "alphabet, labels",
    [
        (("a", "a"), {}),
        (("a b",), {}),
        (("a#b",), {}),
        (("",), {}),
        (("a",), {0: "x y"}),
        (("a",), {0: ""}),
        (("a",), {0: "({0}:1)#"}),
        (("a",), {1: "x\ty"}),
        (("a|b",), {}),
        (("\ud800",), {}),
        (("a",), {0: "({0}:1)|"}),
        (("a",), {0: 5}),
        (("a",), {0: b"x"}),
        ((1,), {}),
    ],
)
def test_parity_automaton_rejects_text_it_could_not_read_back(alphabet, labels):
    with pytest.raises(DpaFormatError):
        ParityAutomaton(num_states=2, alphabet=alphabet, initial=0, edges={}, labels=labels)


@pytest.mark.parametrize(
    "num_states, initial, edge",
    [
        (2, 0, (1, 2.5)),
        (2, True, (1, 2)),
        (2, 0, (True, 2)),
        (2.0, 0, (1, 2)),
    ],
)
def test_parity_automaton_rejects_ids_counts_and_priorities_that_are_not_ints(num_states, initial, edge):
    # A bool is written as True and a float as 2.5 or 2.0, which parse_dpa rejects.
    with pytest.raises(DpaFormatError):
        ParityAutomaton(num_states=num_states, alphabet=("a",), initial=initial, edges={(0, "a"): edge})


@given(st.lists(TOKEN_TEXT, max_size=3), st.lists(TOKEN_TEXT, max_size=2))
def test_every_constructible_parity_automaton_reads_back(alphabet, label_texts):
    try:
        dpa = ParityAutomaton(
            num_states=2,
            alphabet=tuple(alphabet),
            initial=0,
            edges={(0, a): (1, 2) for a in alphabet},
            labels=dict(enumerate(label_texts)),
        )
    except DpaFormatError:
        return
    assert parse_dpa(serialize_dpa(dpa)) == dpa


@pytest.mark.parametrize("symbol", ["a|b", "\ud800"])
def test_parse_dpa_names_the_alphabet_line_of_a_symbol_the_text_cannot_carry(symbol):
    with pytest.raises(DpaFormatError, match="bad symbol token") as err:
        parse_dpa(f"dpa\nstates 1\nalphabet {symbol}\ninit 0\n")
    assert err.value.line == 3


def test_parse_dpa_names_the_line_of_a_label_the_text_cannot_carry():
    with pytest.raises(DpaFormatError, match="bad label") as err:
        parse_dpa("dpa\nstates 2\nalphabet a\ninit 0\nlabel 0 ({0}:1)\nlabel 1 x|y\n")
    assert err.value.line == 6


def test_parse_dpa_errors():
    with pytest.raises(DpaFormatError):
        parse_dpa(b"nope\n")
    with pytest.raises(DpaFormatError) as err:
        parse_dpa(b"dpa\nstates 1\nalphabet a\ninit 0\n0 a 0 0\n")
    assert err.value.line == 5
    with pytest.raises(DpaFormatError) as err:
        parse_dpa(b"dpa\nstates 1\nalphabet a\ninit 0\n0 a 0 1\n0 a 0 2\n")
    assert err.value.line == 6
    with pytest.raises(DpaFormatError):
        parse_dpa(b"dpa\nstates 1\nalphabet a\ninit 2\n")
    with pytest.raises(DpaFormatError) as err:
        parse_dpa(b"dpa\nstates 1\nalphabet a\ninit 0\nlabel 0 caf\xe9\n")
    assert err.value.line == 5
    # After the first edge line, a label line is a malformed edge line.
    with pytest.raises(DpaFormatError, match="edge line must be") as err:
        parse_dpa("dpa\nstates 1\nalphabet a\ninit 0\n0 a 0 1\nlabel 0 ({0}:1)\n")
    assert err.value.line == 6


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("dpa\n", None, "missing 'states' line"),
        ("dpa\nstates 1\n", None, "missing 'alphabet' line"),
        ("dpa\nstates 1\nalphabet a\n", None, "missing 'init' line"),
        ("dpa\nstates 1\ninit 0\n", 3, "expected 'alphabet' line, found 'init'"),
        ("dpa\nstates 1\nalphabet a\n0 a 0 1\n", 4, "expected 'init' line, found '0'"),
        ("dpa\nstates\nalphabet a\ninit 0\n", 2, "'states' needs at least 1 argument"),
        ("dpa\nstates 1\nalphabet a\ninit\n", 4, "'init' needs at least 1 argument"),
    ],
)
def test_parse_dpa_names_a_missing_or_misplaced_header_line(text, line, message):
    # The .nba reader's messages and line numbers: a missing line has none.
    with pytest.raises(DpaFormatError, match=message) as err:
        parse_dpa(text)
    assert err.value.line == line


def test_equal_parity_automata_hash_equal():
    def dpa(priority):
        return ParityAutomaton(1, ("a",), 0, {(0, "a"): (0, priority)}, {0: "({0}:1)"})

    assert dpa(2) == dpa(2) and hash(dpa(2)) == hash(dpa(2))
    assert dpa(2) != dpa(1)
    assert len({dpa(2), dpa(2), dpa(1)}) == 2


def test_compact_priorities_preserves_decisions():
    rng = random.Random(99)
    for seed in range(25):
        aut = random_nba(1 + seed % 5, ("a", "b"), 0.4, 0.4, 800 + seed)
        dpa = determinize(aut, MULLER_SCHUPP)
        compacted = compact_priorities(dpa)
        used = sorted({p for _, p in compacted.edges.values()})
        assert used == sorted(set(used)) and all(p <= 2 * aut.num_states + 2 for p in used)
        for key, (dst, priority) in dpa.edges.items():
            new_dst, new_priority = compacted.edges[key]
            assert new_dst == dst and new_priority % 2 == priority % 2
        for lasso in sample_lassos(aut.alphabet, 30, 3, 3, rng.randrange(2**16)):
            assert run_lasso(dpa, lasso).accepted == run_lasso(compacted, lasso).accepted


# --- The edge view over per-symbol rows --------------------------------------


# One edge, on "a" from the last of 10**9 states.
SPARSE_DPA = b"dpa\nstates 1000000000\nalphabet a b\ninit 0\n999999999 a 0 1\n"


def partial_dpa() -> ParityAutomaton:
    # Every state has an edge on "a"; state 1 has none on "b".
    return ParityAutomaton(
        num_states=2,
        alphabet=("a", "b"),
        initial=0,
        edges={(1, "a"): (0, 3), (0, "b"): (1, 2), (0, "a"): (1, 1)},
    )


def view_cases(small_nba) -> list[ParityAutomaton]:
    # A complete automaton with list rows, and the same one read back with dict rows.
    built = determinize(small_nba, MULLER_SCHUPP)
    return [built, parse_dpa(serialize_dpa(built)), sink_only_dpa(), partial_dpa(), parse_dpa(SPARSE_DPA)]


def test_edges_equal_a_plain_dict_both_ways(small_nba):
    for dpa in view_cases(small_nba):
        plain = dict(dpa.edges.items())
        assert dpa.edges == plain and plain == dpa.edges
        assert not (dpa.edges != plain or plain != dpa.edges)
        key = next(iter(plain))
        for other in ({**plain, key: (0, 99)}, {k: v for k, v in plain.items() if k != key}, {**plain, (0, "c"): (0, 1)}):
            assert dpa.edges != other and other != dpa.edges


def test_edges_of_automata_that_differ_elsewhere_compare_as_mappings():
    # The same edges over more states or a larger alphabet: the automata differ, their edges do not.
    edges = {(0, "a"): (1, 2), (1, "a"): (0, 2)}
    complete = ParityAutomaton(2, ("a",), 0, edges)
    for wider in (ParityAutomaton(3, ("a",), 0, edges), ParityAutomaton(2, ("a", "b"), 0, edges)):
        assert wider != complete
        assert wider.edges == complete.edges and complete.edges == wider.edges
    assert complete.edges != ParityAutomaton(2, ("a",), 0, {**edges, (1, "a"): (1, 2)}).edges


def test_determinized_and_reparsed_automata_are_equal_and_hash_equal():
    for seed in range(20):
        aut = random_nba(1 + seed % 5, ("a", "b")[: 1 + seed % 2], 0.4, 0.4, 700 + seed)
        for labels in (True, False):
            dpa = determinize(aut, MULLER_SCHUPP, labels=labels)
            back = parse_dpa(serialize_dpa(dpa))
            assert back == dpa and dpa == back and hash(back) == hash(dpa)
            assert len({dpa, back}) == 1


def test_edges_iterate_in_serialize_order(small_nba):
    assert list(partial_dpa().edges) == [(0, "a"), (0, "b"), (1, "a")]
    for dpa in view_cases(small_nba):
        lines = serialize_dpa(dpa).decode().splitlines()[4 + len(dpa.labels) :]
        assert [f"{src} {sym} {dst} {p}" for (src, sym), (dst, p) in dpa.edges.items()] == lines
        assert len(dpa.edges) == len(lines) == len(list(dpa.edges)) == len(set(dpa.edges))


def test_edges_print_as_a_dict_in_serialize_order(small_nba):
    assert repr(partial_dpa().edges) == "_Edges({(0, 'a'): (1, 1), (0, 'b'): (1, 2), (1, 'a'): (0, 3)})"
    for dpa in view_cases(small_nba):
        assert repr(dpa.edges) == f"_Edges({dict(dpa.edges.items())!r})"


def test_a_missing_edge_is_a_key_error_and_a_missing_edge_error():
    dpa = partial_dpa()
    with pytest.raises(KeyError):
        dpa.edges[(1, "b")]
    assert (1, "b") not in dpa.edges and dpa.edges.get((1, "b")) is None
    with pytest.raises(MissingEdgeError, match="^no edge from state 1 on 'b'$"):
        dpa.follow(1, "b")
    for key in ((0,), (0, "a", 1), "0a", 0, (None, "a"), ("0", "a")):
        assert key not in dpa.edges


def test_states_outside_the_automaton_have_no_edges(small_nba):
    # A list row indexed naively would give state -1 the last state's edge.
    for dpa in view_cases(small_nba):
        for state in (-1, dpa.num_states, 2 * dpa.num_states):
            for symbol in dpa.alphabet:
                with pytest.raises(MissingEdgeError):
                    dpa.follow(state, symbol)
                with pytest.raises(KeyError):
                    dpa.edges[state, symbol]


def test_an_unknown_symbol_is_reported_from_every_state(small_nba):
    for dpa in view_cases(small_nba):
        for state in (-1, 0, dpa.num_states - 1, dpa.num_states):
            with pytest.raises(UnknownSymbolError, match="^symbol 'c' not in alphabet$"):
                dpa.follow(state, "c")
            assert (state, "c") not in dpa.edges


@pytest.mark.parametrize(
    "build",
    [
        f"parse_dpa({SPARSE_DPA!r})",
        "ParityAutomaton(num_states=10**9, alphabet=('a', 'b'), initial=0, edges={(999999999, 'a'): (0, 1)})",
    ],
)
def test_an_automaton_with_many_states_and_few_edges_stays_small(build):
    # Rows sized by the state count would take gigabytes, over the child's 1 GiB limit.
    result = run_fresh(
        "from omegadet.parity import ParityAutomaton, parse_dpa, serialize_dpa\n"
        "before = hwm_kb()\n"
        f"dpa = {build}\n"
        "assert dpa.follow(999999999, 'a') == (0, 1) and dict(dpa.edges) == {(999999999, 'a'): (0, 1)}\n"
        f"assert serialize_dpa(dpa) == {SPARSE_DPA!r}\n"
        "print(hwm_kb() - before)\n"
    )
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) < 10 * 1024


def test_parsing_a_large_dpa_holds_no_copy_of_its_lines_or_rows(tmp_path):
    # The n=40 ms DPA without labels: 22878 states, 0.7 MB of text.  Splitting
    # every line before reading the first, and copying every complete row into
    # a list, grew the peak by 26 MB; splitting as lines are read and keeping
    # the rows parse_dpa filled, by 12 MB.  The text is read before the first
    # reading of the peak, so only parsing counts.
    aut = random_nba(40, ("a", "b"), 1.8 / 40, 0.5, seed=9100 * 40)
    path = tmp_path / "n40.dpa"
    path.write_bytes(serialize_dpa(determinize(aut, MULLER_SCHUPP, labels=False)))
    result = run_fresh(
        "from pathlib import Path\n"
        "from omegadet.parity import parse_dpa\n"
        f"data = Path({str(path)!r}).read_bytes()\n"
        "before = hwm_kb()\n"
        "dpa = parse_dpa(data)\n"
        "print(dpa.num_states, hwm_kb() - before)\n"
    )
    assert result.returncode == 0, result.stderr
    states, growth_kb = map(int, result.stdout.split())
    assert states == 22878
    assert growth_kb < 18 * 1024, growth_kb


def test_parsed_rows_keep_one_int_object_per_state_id():
    # Each edge line reads its source and target ids as fresh ints, so a state
    # id above 256 (the ints Python caches) existed once per symbol as a source
    # key and once per incoming edge as a target: 17377 objects for these 4609
    # states.  Interning them per parse keeps one per state.
    aut = random_nba(24, ("a", "b"), 1.8 / 24, 0.5, seed=9100 * 24)
    dpa = parse_dpa(serialize_dpa(determinize(aut, MULLER_SCHUPP, labels=False)))
    ids = set()
    for targets, priorities in dpa.edges._rows.values():
        for row in (targets.keys(), targets.values(), priorities.keys()):
            ids.update(id(state) for state in row if state > 256)
    assert dpa.num_states == 4609
    assert 0 < len(ids) <= dpa.num_states


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: ParityAutomaton(num_states=1, alphabet=("a",), initial=0, edges={(0, "b"): (0, 1)}),
            r"^edge \(0,b\) uses an unknown symbol$",
        ),
        (
            lambda: ParityAutomaton(num_states=1, alphabet=("a",), initial=0, edges={}, labels={1: "x"}),
            r"^label for invalid state 1$",
        ),
        (
            lambda: parse_dpa("dpa\nstates 0\nalphabet a\ninit 0\n"),
            r"^line 2: a parity automaton needs at least one state$",
        ),
        (
            lambda: parse_dpa("dpa\nstates 1\nalphabet a\ninit 0\nlabel 0 x\nlabel 0 y\n0 a 0 1\n"),
            r"^line 6: duplicate label for state 0$",
        ),
    ],
)
def test_boundary_errors(build, message):
    with pytest.raises(DpaFormatError, match=message):
        build()
