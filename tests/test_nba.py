import pytest
from hypothesis import given
from hypothesis import strategies as st

from omegadet.nba import (
    BuchiAutomaton,
    InvalidAutomatonError,
    Lasso,
    LassoFormatError,
    NbaFormatError,
    UnknownSymbolError,
    _check_tokens,
    format_lasso,
    parse_lasso,
    parse_nba,
    serialize_nba,
    successors,
    to_mask,
)
from omegadet.oracle import random_nba

from .conftest import SMALL_NBA, TOKEN_TEXT, run_fresh


def test_successors_small(small_nba):
    assert successors(small_nba, {0}, "a") == frozenset({0, 1})


def test_successors_empty_source(small_nba):
    assert successors(small_nba, frozenset(), "a") == frozenset()


def test_successors_medium(medium_nba):
    assert successors(medium_nba, {0}, "a") == frozenset({0, 2, 3})


def test_successors_unknown_symbol(small_nba):
    with pytest.raises(UnknownSymbolError):
        successors(small_nba, {0}, "z")


@st.composite
def nba_and_sets(draw):
    num_states = draw(st.integers(min_value=1, max_value=6))
    alphabet = ("a", "b")[: draw(st.integers(min_value=1, max_value=2))]
    aut = random_nba(num_states, alphabet, 0.4, 0.4, draw(st.integers(0, 2**16)))
    states = st.sets(st.integers(0, num_states - 1))
    return aut, frozenset(draw(states)), frozenset(draw(states)), draw(st.sampled_from(alphabet))


@given(nba_and_sets())
def test_successors_monotone_and_distributes(case):
    aut, left, right, symbol = case
    small_side = successors(aut, left, symbol)
    assert small_side <= successors(aut, left | right, symbol)
    assert successors(aut, left | right, symbol) == small_side | successors(aut, right, symbol)


@st.composite
def nba_with_transitions(draw):
    num_states = draw(st.integers(1, 8) | st.integers(65, 200))
    alphabet = ("a", "b", "c")[: draw(st.integers(1, 3))]
    states = st.integers(0, num_states - 1)
    transitions = draw(st.frozensets(st.tuples(states, st.sampled_from(alphabet), states), max_size=60))
    return BuchiAutomaton(num_states, alphabet, transitions, frozenset({0}), frozenset())


@given(nba_with_transitions())
def test_successor_table_matches_the_transitions(aut):
    for symbol in aut.alphabet:
        post = aut.post(symbol)
        for q in range(aut.num_states):
            expected = frozenset(dst for src, sym, dst in aut.transitions if (src, sym) == (q, symbol))
            assert successors(aut, {q}, symbol) == expected
            assert post[1 << q] == to_mask(expected)
        sources = {src for src, _, _ in aut.transitions}
        assert successors(aut, sources, symbol) == {dst for src, sym, dst in aut.transitions if sym == symbol}


def test_automaton_and_lasso_keep_no_container_of_the_caller():
    alphabet, transitions, initial, accepting = ["a"], {(0, "a", 1)}, {0}, {1}
    aut = BuchiAutomaton(2, alphabet, transitions, initial, accepting)  # type: ignore[arg-type]
    alphabet.append("b")
    transitions.add((1, "a", 0))
    initial.add(1)
    accepting.clear()
    same = BuchiAutomaton(2, ("a",), frozenset({(0, "a", 1)}), frozenset({0}), frozenset({1}))
    assert aut == same and hash(aut) == hash(same)
    assert aut.accepting == frozenset({1}) and aut.accepting_mask == 2
    assert successors(aut, {1}, "a") == frozenset() and isinstance(aut.alphabet, tuple)
    stem, cycle = ["a"], ["a", "a"]
    lasso = Lasso(stem, cycle)  # type: ignore[arg-type]
    stem.clear()
    cycle.append("b")
    assert lasso == Lasso(("a",), ("a", "a")) and hash(lasso) == hash(Lasso(("a",), ("a", "a")))


def test_successor_memo_exposes_no_table_of_the_automaton(small_nba):
    before = [successors(small_nba, {q}, "a") for q in range(small_nba.num_states)]
    memo = small_nba.post("a")
    assert not hasattr(memo, "table")
    with pytest.raises(AttributeError):
        memo.table = {}  # type: ignore[attr-defined]
    assert memo[0b111] == to_mask({0, 1, 2})
    memo[0b1] = 0
    assert [successors(small_nba, {q}, "a") for q in range(small_nba.num_states)] == before
    assert small_nba.post("a")[0b1] == to_mask(before[0])


def test_parse_small_file(small_nba):
    assert small_nba.num_states == 3
    assert small_nba.alphabet == ("a",)
    assert small_nba.initial == frozenset({0})
    assert small_nba.accepting == frozenset({1})
    assert len(small_nba.transitions) == 5


def test_parse_header_only():
    aut = parse_nba(b"nba\nstates 2\nalphabet a b\ninit 0 1\naccept\n")
    assert aut.transitions == frozenset()
    assert aut.accepting == frozenset()
    assert aut.initial == frozenset({0, 1})


def test_parse_comments_and_blank_lines():
    text = b"# heading\nnba\n\nstates 1\nalphabet a  # letters\ninit 0\naccept 0\n0 a 0\n"
    aut = parse_nba(text)
    assert aut.num_states == 1 and (0, "a", 0) in aut.transitions


def test_parse_dangling_state_names_line():
    text = b"nba\nstates 3\nalphabet a\ninit 0\naccept 1\n0 a 7\n"
    with pytest.raises(NbaFormatError) as err:
        parse_nba(text)
    assert err.value.line == 6
    assert "7" in str(err.value)


def test_parse_duplicate_alphabet_token():
    with pytest.raises(NbaFormatError, match="duplicate"):
        parse_nba(b"nba\nstates 1\nalphabet a a\ninit 0\naccept\n")


def test_parse_missing_header():
    with pytest.raises(NbaFormatError, match="nba"):
        parse_nba(b"states 1\nalphabet a\ninit 0\naccept\n")


@pytest.mark.parametrize(
    "text, line",
    [
        (b"nba\nstates +1\nalphabet a\ninit 0\naccept\n", 2),
        (b"nba\nstates 2\nalphabet a\ninit \xd9\xa1\naccept\n", 4),
        (b"nba\nstates 1_0\nalphabet a\ninit 0\naccept\n", 2),
        (b"nba\nstates 1\nalphabet a\ninit 0\naccept\n0 a 0 # caf\xe9\n", 6),
        (b"nba\r\nstates 1\r\n\xff", 3),
    ],
)
def test_parse_rejects_lax_integers_and_non_utf8(text, line):
    with pytest.raises(NbaFormatError) as err:
        parse_nba(text)
    assert err.value.line == line


@pytest.mark.parametrize(
    "text, line, message",
    [
        (b"nba\nstates 2\nalphabet a\ninit 0 0\naccept\n", 4, "duplicate state 0 in 'init'"),
        (b"nba\nstates 2\nalphabet a\ninit 0\naccept 1 0 1\n", 5, "duplicate state 1 in 'accept'"),
        (b"nba\nstates 2\nalphabet a\ninit 0\naccept\n0 a 1\n1 a 1\n0 a 1\n", 8, "duplicate transition 0 a 1"),
    ],
)
def test_parse_rejects_repeated_states_and_transitions(text, line, message):
    with pytest.raises(NbaFormatError, match=message) as err:
        parse_nba(text)
    assert err.value.line == line


def peak_rss_kb_of_parse(num_states: int) -> int:
    """Peak RSS of a fresh process that parses a one-transition NBA with ``num_states`` states.

    A table sized by ``num_states`` would fail there, under :func:`run_fresh`'s
    address-space cap, instead of exhausting memory.
    """
    result = run_fresh(
        "from omegadet.nba import parse_nba\n"
        f"parse_nba(b'nba\\nstates {num_states}\\nalphabet a\\ninit 0\\naccept\\n0 a 0\\n')\n"
        "print(hwm_kb())\n"
    )
    assert result.returncode == 0, result.stderr
    return int(result.stdout)


def test_parse_memory_does_not_grow_with_the_state_count():
    # VmHWM is in kB.
    assert abs(peak_rss_kb_of_parse(1_000_000_000) - peak_rss_kb_of_parse(10)) <= 10 * 1024


def test_parse_unknown_transition_symbol():
    with pytest.raises(NbaFormatError) as err:
        parse_nba(b"nba\nstates 1\nalphabet a\ninit 0\naccept\n0 b 0\n")
    assert err.value.line == 6


def test_serialize_small_is_canonical(small_nba):
    assert serialize_nba(small_nba) == SMALL_NBA


def test_serialize_header_only():
    aut = BuchiAutomaton(2, ("a",), frozenset(), frozenset({0}), frozenset())
    assert serialize_nba(aut) == b"nba\nstates 2\nalphabet a\ninit 0\naccept\n"


def test_round_trip_random_automata():
    for seed in range(200):
        aut = random_nba(1 + seed % 7, ("a", "b", "c")[: 1 + seed % 3], 0.3, 0.5, seed)
        assert parse_nba(serialize_nba(aut)) == aut


@pytest.mark.parametrize("symbol", ["", "a b", "b\n", "a#b", "#", "a|b", "|", "\ud800", "a\udfffb", 1, None, b"a"])
def test_automaton_rejects_a_symbol_the_text_cannot_carry(symbol):
    with pytest.raises(InvalidAutomatonError, match="bad symbol token"):
        BuchiAutomaton(1, ("a", symbol), frozenset({(0, symbol, 0)}), frozenset({0}), frozenset())
    with pytest.raises(LassoFormatError, match="bad lasso token"):
        Lasso(stem=("a",), cycle=(symbol,))


def test_token_rule_on_every_code_point_of_the_bmp():
    # A token is rejected exactly when it is empty or holds whitespace, '#',
    # '|' or a lone surrogate.
    def rejects(token):
        try:
            _check_tokens([token], "token", ValueError)
        except ValueError:
            return True
        return False

    assert rejects("")
    bad = [code for code in range(0x10000) if rejects("a" + chr(code) + "b")]
    assert bad == [
        code for code in range(0x10000) if chr(code).isspace() or chr(code) in "#|" or 0xD800 <= code <= 0xDFFF
    ]


@pytest.mark.parametrize("symbol", ["a|b", "\ud800"])
def test_parse_names_the_alphabet_line_of_a_symbol_the_text_cannot_carry(symbol):
    with pytest.raises(NbaFormatError, match="bad symbol token") as err:
        parse_nba(f"nba\nstates 1\nalphabet a {symbol}\ninit 0\naccept\n")
    assert err.value.line == 3


@given(st.lists(TOKEN_TEXT, max_size=3))
def test_every_constructible_automaton_reads_back(alphabet):
    try:
        aut = BuchiAutomaton(1, tuple(alphabet), frozenset((0, a, 0) for a in alphabet), frozenset({0}), frozenset())
    except InvalidAutomatonError:
        return
    assert parse_nba(serialize_nba(aut)) == aut


@pytest.mark.parametrize(
    "num_states, transitions, initial, accepting",
    [
        (2, {(0, "a", True)}, {0}, set()),
        (2, set(), {True}, set()),
        (True, set(), {0}, set()),
        (2, {(0, "a", 1.0)}, {0}, set()),
        (2, set(), {0}, {1.0}),
    ],
)
def test_automaton_rejects_ids_and_counts_that_are_not_ints(num_states, transitions, initial, accepting):
    # A bool is written as True and a float as 1.0, which parse_nba rejects.
    with pytest.raises(InvalidAutomatonError):
        BuchiAutomaton(num_states, ("a",), transitions, initial, accepting)


def test_initial_must_be_non_empty():
    with pytest.raises(InvalidAutomatonError):
        BuchiAutomaton(1, ("a",), frozenset(), frozenset(), frozenset())


def test_lasso_requires_cycle():
    with pytest.raises(LassoFormatError):
        Lasso(stem=("a",), cycle=())


def test_lasso_text_round_trip():
    lasso = parse_lasso("a a | b a")
    assert lasso == Lasso(stem=("a", "a"), cycle=("b", "a"))
    assert format_lasso(lasso) == "a a | b a"
    empty_stem = parse_lasso("| a")
    assert empty_stem == Lasso(stem=(), cycle=("a",))
    assert format_lasso(empty_stem) == "| a"


@given(st.lists(TOKEN_TEXT, max_size=2), st.lists(TOKEN_TEXT, min_size=1, max_size=2))
def test_every_constructible_lasso_reads_back(stem, cycle):
    try:
        lasso = Lasso(stem=tuple(stem), cycle=tuple(cycle))
    except LassoFormatError:
        return
    assert parse_lasso(format_lasso(lasso)) == lasso


def test_lasso_symbol_at():
    lasso = Lasso(stem=("a",), cycle=("b", "c"))
    assert [lasso.symbol_at(i) for i in range(6)] == ["a", "b", "c", "b", "c", "b"]


@pytest.mark.parametrize(
    "build, error, message",
    [
        (
            lambda: BuchiAutomaton(1, ("a",), {(0, "b", 0)}, {0}, set()),
            InvalidAutomatonError,
            r"^transition \(0,b,0\) uses an unknown symbol$",
        ),
        (lambda: to_mask([0, -1]), ValueError, r"^state id -1 is negative$"),
        (
            lambda: parse_nba("nba\nstates -1\nalphabet a\ninit 0\n"),
            NbaFormatError,
            r"^line 2: 'states' takes one non-negative count$",
        ),
        (
            lambda: parse_nba("nba\nstates 1 2\nalphabet a\ninit 0\n"),
            NbaFormatError,
            r"^line 2: 'states' takes one non-negative count$",
        ),
    ],
)
def test_boundary_errors(build, error, message):
    with pytest.raises(error, match=message):
        build()
