import argparse
import contextlib
import io
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from omegadet import cli
from omegadet.cli import cmd_check
from omegadet.determinize import ADAPTIVE, STRATEGIES, as_strategy, determinize
from omegadet.nba import (
    BuchiAutomaton,
    format_lasso,
    parse_lasso,
    parse_nba,
    serialize_nba,
)
from omegadet.oracle import enumerate_lassos, nba_accepts_lasso, sample_lassos
from omegadet.parity import ParityAutomaton, _run_lasso, parse_dpa, run_lasso, serialize_dpa
from omegadet.safra import slice_to_safra
from omegadet.slices import parse_slice

from .conftest import MEDIUM_STAGED_NBA, SMALL_NBA, WIDE_STAGED_NBA, build_corpus, pipeline, run_fresh


def run_cli(*args: str, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "omegadet.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture
def small_file(tmp_path):
    path = tmp_path / "small.nba"
    path.write_bytes(SMALL_NBA)
    return path


@pytest.fixture
def medium_staged_file(tmp_path):
    path = tmp_path / "medium.nba"
    path.write_bytes(MEDIUM_STAGED_NBA)
    return path


@pytest.fixture
def wide_staged_file(tmp_path):
    path = tmp_path / "wide.nba"
    path.write_bytes(WIDE_STAGED_NBA)
    return path


def test_determinize_writes_dpa(small_file, tmp_path):
    out = tmp_path / "small.dpa"
    result = run_cli("determinize", "-i", str(small_file), "-o", str(out), "--strategy", "ms", "--labels")
    assert result.returncode == 0, result.stderr
    text = out.read_text()
    assert "states 3" in text
    assert "label 2 ({1}:3,{2}:2,{0}:1)" in text
    assert "2 a 2 4" in text


def test_determinize_without_labels(small_file):
    result = run_cli("determinize", "-i", str(small_file))
    assert result.returncode == 0
    assert "label" not in result.stdout


def test_determinize_priority_three_edge(medium_staged_file):
    result = run_cli("determinize", "-i", str(medium_staged_file), "--strategy", "safra", "--labels")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    state = next(
        line.split()[1]
        for line in lines
        if line.startswith("label") and line.endswith("({1}:2,{2}:3,{0}:1)")
    )
    edge = next(line for line in lines if line.startswith(f"{state} a "))
    assert edge.split()[3] == "3"


def test_determinize_unknown_strategy(small_file):
    result = run_cli("determinize", "-i", str(small_file), "--strategy", "bogus")
    assert result.returncode == 2


def test_determinize_cap_exceeded(small_file):
    result = run_cli("determinize", "-i", str(small_file), "--cap", "1")
    assert result.returncode == 1
    assert "cap" in result.stderr


def test_determinize_parse_error(tmp_path):
    bad = tmp_path / "bad.nba"
    bad.write_text("nba\nstates 1\nalphabet a\ninit 0\naccept\n0 a 7\n")
    result = run_cli("determinize", "-i", str(bad))
    assert result.returncode == 2
    assert "line 6" in result.stderr


def test_check_agreement(small_file):
    result = run_cli("check", "-i", str(small_file), "--strategy", "ms", "--max-u", "3", "--max-v", "3")
    assert result.returncode == 0
    assert "agreement" in result.stdout


def test_check_all_strategies(medium_staged_file):
    for strategy in ("ms", "safra", "max", "adaptive"):
        result = run_cli("check", "-i", str(medium_staged_file), "--strategy", strategy, "--max-u", "2", "--max-v", "2")
        assert result.returncode == 0, result.stdout + result.stderr


@pytest.mark.parametrize("flags", [("--max-u", "-1"), ("--max-v", "0"), ("--random", "0"), ("--random", "-4")])
def test_check_rejects_vacuous_bounds(small_file, flags):
    result = run_cli("check", "-i", str(small_file), *flags)
    assert result.returncode == 2
    assert "must be at least" in result.stderr
    assert "Traceback" not in result.stderr and result.stdout == ""


@pytest.mark.parametrize("cap", ["0", "-3"])
@pytest.mark.parametrize("command", [("determinize",), ("check",), ("stats",), ("trace", "| a")])
def test_rejects_vacuous_cap(small_file, command, cap):
    result = run_cli(command[0], "-i", str(small_file), "--cap", cap, *command[1:])
    assert result.returncode == 2
    assert "must be at least 1" in result.stderr
    assert "Traceback" not in result.stderr and result.stdout == ""


@pytest.mark.parametrize(
    "args",
    [
        ("determinize", "-i", "{tmp}/missing.nba"),
        ("stats", "-i", "{tmp}"),
        ("check", "-i", "{small}", "--dpa", "{tmp}/missing.dpa"),
        ("determinize", "-i", "{small}", "-o", "{tmp}/missing/out.dpa"),
        ("trace", "-i", "{tmp}/latin1.nba", "| a"),
        ("check", "-i", "{small}", "--dpa", "{tmp}/latin1.dpa"),
    ],
)
def test_unreadable_files_exit_2(small_file, tmp_path, args):
    (tmp_path / "latin1.nba").write_bytes(SMALL_NBA + "# caf\xe9\n".encode("latin-1"))
    (tmp_path / "latin1.dpa").write_bytes("dpa\nstates 1\nalphabet \xe9\n".encode("latin-1"))
    result = run_cli(*(arg.format(small=small_file, tmp=tmp_path) for arg in args))
    assert result.returncode == 2
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr and result.stdout == ""


def test_check_smallest_bounds(small_file):
    result = run_cli("check", "-i", str(small_file), "--max-u", "0", "--max-v", "1")
    assert result.returncode == 0
    assert result.stdout == "checked 1 lassos: agreement\n"


def wide_ids_nba() -> BuchiAutomaton:
    """The wide staged automaton with its six states renamed to ids around bit 63 of 72 states."""
    aut = parse_nba(WIDE_STAGED_NBA)
    rename = (70, 63, 64, 1, 65, 62)
    return BuchiAutomaton(
        num_states=72,
        alphabet=aut.alphabet,
        transitions=frozenset((rename[src], sym, rename[dst]) for src, sym, dst in aut.transitions),
        initial=frozenset(rename[q] for q in aut.initial),
        accepting=frozenset(rename[q] for q in aut.accepting),
    )


def test_check_agrees_on_state_ids_beyond_64_bits(tmp_path):
    aut = wide_ids_nba()
    reached = set()
    for label in determinize(aut, "ms").labels.values():
        reached |= parse_slice(label).state_set
    assert reached == {1, 62, 63, 64, 65, 70}
    path = tmp_path / "wide72.nba"
    path.write_bytes(serialize_nba(aut))
    for strategy in ("ms", "safra", "max", "adaptive"):
        result = run_cli("check", "-i", str(path), "--strategy", strategy, "--max-u", "3", "--max-v", "2")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "agreement" in result.stdout


def test_check_corrupted_priority(small_file, tmp_path):
    produced = run_cli("determinize", "-i", str(small_file)).stdout
    corrupted = produced.replace("2 a 2 4", "2 a 2 3")
    assert corrupted != produced
    dpa_file = tmp_path / "broken.dpa"
    dpa_file.write_text(corrupted)
    result = run_cli("check", "-i", str(small_file), "--dpa", str(dpa_file))
    assert result.returncode == 1
    assert "disagreement on lasso: | a" in result.stdout


def unmemoised_check(args) -> int:
    """The reference ``check``: both deciders run on every lasso, one after another."""
    aut = cli._load_nba(args.input)
    if args.dpa is not None:
        dpa = parse_dpa(Path(args.dpa).read_bytes())
        if dpa.alphabet != aut.alphabet:
            raise cli.AlphabetMismatchError(f"alphabet mismatch: nba {aut.alphabet} vs dpa {dpa.alphabet}")
    else:
        dpa = determinize(aut, as_strategy(args.strategy), cap=args.cap, labels=False)
    if args.random is not None:
        lassos = sample_lassos(aut.alphabet, args.random, args.max_u, args.max_v, args.seed)
    else:
        lassos = enumerate_lassos(aut.alphabet, args.max_u, args.max_v)
    checked = 0
    for lasso in lassos:
        verdict = nba_accepts_lasso(aut, lasso)
        run = run_lasso(dpa, lasso)
        checked += 1
        if verdict.accepted != run.accepted:
            print(f"disagreement on lasso: {format_lasso(lasso)}")
            if verdict.accepted:
                print(f"  nba accepts, witness prefix {verdict.prefix_states} loop {verdict.loop_states}")
            else:
                print("  nba rejects (no accepting run)")
            word = "accepts" if run.accepted else "rejects"
            print(f"  dpa {word}, recurring states {run.loop_states}, min priority {run.min_priority}")
            return 1
    print(f"checked {checked} lassos: agreement")
    return 0


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("corpus")
    paths = []
    for index, aut in enumerate(build_corpus()):
        path = folder / f"c{index}.nba"
        path.write_bytes(serialize_nba(aut))
        paths.append(path)
    return paths


@pytest.fixture(scope="module")
def corpus_dpas(corpus_files, tmp_path_factory):
    """The DPA of every corpus NBA under every strategy, determinized once and written to a file."""
    folder = tmp_path_factory.mktemp("corpus_dpas")
    dpas = {}
    for index, path in enumerate(corpus_files):
        aut = parse_nba(path.read_bytes())
        for strategy in STRATEGIES:
            dpa = determinize(aut, as_strategy(strategy), labels=False)
            dpa_path = folder / f"c{index}.{strategy}.dpa"
            dpa_path.write_bytes(serialize_dpa(dpa))
            dpas[path, strategy] = dpa, dpa_path
    return dpas


def check_both_ways(monkeypatch, capsys, argv) -> tuple[int, str, str]:
    """Exit status, stdout and stderr of ``check``, asserted equal to the unmemoised reference's."""
    outcomes = []
    for handler in (cmd_check, unmemoised_check):
        monkeypatch.setattr(cli, "cmd_check", handler)
        status = cli.main(["check", *argv])
        outcomes.append((status, *capsys.readouterr()))
    assert outcomes[0] == outcomes[1], argv
    return outcomes[0]


def dpa_or_strategy(corpus_dpas, index, path, strategy) -> list[str]:
    """``--dpa`` with the prepared DPA, except on every 25th automaton, which determinizes in-process."""
    if index % 25 == 0:
        return ["--strategy", strategy]
    return ["--dpa", str(corpus_dpas[path, strategy][1])]


def test_check_matches_the_unmemoised_loop_on_the_corpus(corpus_files, corpus_dpas, monkeypatch, capsys):
    for index, path in enumerate(corpus_files):
        for strategy in STRATEGIES:
            argv = ["-i", str(path), *dpa_or_strategy(corpus_dpas, index, path, strategy), "--max-u", "3", "--max-v", "3"]
            status, out, _ = check_both_ways(monkeypatch, capsys, argv)
            assert status == 0 and out.endswith(" lassos: agreement\n")


def test_check_matches_the_unmemoised_loop_on_random_lassos(corpus_files, corpus_dpas, monkeypatch, capsys):
    # Automaton i runs under strategy i % 4 and seed i % 3, so every pairing occurs.
    strategies = list(STRATEGIES)
    for index, path in enumerate(corpus_files):
        source = dpa_or_strategy(corpus_dpas, index, path, strategies[index % 4])
        argv = ["-i", str(path), *source, "--random", "200", "--seed", str(index % 3)]
        assert check_both_ways(monkeypatch, capsys, argv)[:2] == (0, "checked 200 lassos: agreement\n")


def test_check_matches_the_unmemoised_loop_on_mutated_dpas(corpus_files, corpus_dpas, monkeypatch, capsys, tmp_path):
    strategies = list(STRATEGIES)
    outcomes = {"agreement": 0, "disagreement": 0, "missing edge": 0}
    for index, path in enumerate(corpus_files):
        dpa = corpus_dpas[path, strategies[index % 4]][0]
        edges = sorted(dpa.edges.items())
        key, (target, priority) = edges[index % len(edges)]
        flipped = {**dpa.edges, key: (target, priority + 1)}
        deleted = {k: v for k, v in dpa.edges.items() if k != key}
        # Both faults at once: which one is reported depends on the order the lassos are checked in.
        other = edges[(index + 1) % len(edges)][0]
        both = {k: v for k, v in flipped.items() if k != other}
        for mutated in (flipped, deleted, both):
            dpa_path = tmp_path / "mutated.dpa"
            dpa_path.write_bytes(
                serialize_dpa(ParityAutomaton(dpa.num_states, dpa.alphabet, dpa.initial, mutated))
            )
            status, out, err = check_both_ways(
                monkeypatch, capsys, ["-i", str(path), "--dpa", str(dpa_path), "--max-u", "3", "--max-v", "3"]
            )
            if status == 0:
                outcomes["agreement"] += 1
            elif out.startswith("disagreement on lasso: "):
                outcomes["disagreement"] += 1
            else:
                assert status == 1 and err.startswith("error: no edge from state ")
                outcomes["missing edge"] += 1
    assert min(outcomes.values()) >= 30, outcomes


def test_check_builds_one_nba_decision_per_cycle(corpus_files, monkeypatch, capsys, tmp_path):
    paths = [p for p in corpus_files if len(parse_nba(p.read_bytes()).alphabet) == 2][:5]
    decisions = []
    witnesses = []

    class Counted(cli._CycleDecision):
        def __init__(self, aut, cycle):
            decisions.append(cycle)
            super().__init__(aut, cycle)

    def witnessed(aut, lasso):
        witnesses.append(lasso)
        return nba_accepts_lasso(aut, lasso)

    monkeypatch.setattr(cli, "_CycleDecision", Counted)
    monkeypatch.setattr(cli, "nba_accepts_lasso", witnessed)
    for path in paths:
        aut = parse_nba(path.read_bytes())
        dpa = determinize(aut, "ms")
        lassos = list(enumerate_lassos(aut.alphabet, 3, 3))
        cycles = list(dict.fromkeys(lasso.cycle for lasso in lassos))
        decisions.clear()
        witnesses.clear()
        assert cli.main(["check", "-i", str(path), "--max-u", "3", "--max-v", "3"]) == 0
        assert capsys.readouterr().out == f"checked {len(lassos)} lassos: agreement\n"
        # One decision per cycle, made when the cycle first occurs, however many stems end in it.
        assert decisions == cycles
        assert len(cycles) < len(lassos)
        assert witnesses == []

        # Every priority raised by one flips every DPA verdict, so the first lasso disagrees.
        flipped = {key: (target, priority + 1) for key, (target, priority) in dpa.edges.items()}
        dpa_path = tmp_path / "flipped.dpa"
        dpa_path.write_bytes(serialize_dpa(ParityAutomaton(dpa.num_states, dpa.alphabet, dpa.initial, flipped)))
        decisions.clear()
        assert cli.main(["check", "-i", str(path), "--dpa", str(dpa_path), "--max-u", "3", "--max-v", "3"]) == 1
        assert capsys.readouterr().out.startswith(f"disagreement on lasso: {format_lasso(lassos[0])}\n")
        assert decisions == [lassos[0].cycle]
        assert witnesses == [lassos[0]]


def test_check_follows_each_edge_of_a_chain_dpa_a_bounded_number_of_times(tmp_path, monkeypatch, capsys):
    # State i moves to i + 1 with priority 1, and the last state loops with priority 2.
    # Deciding every stem end afresh would follow about n²/2 edges for each cycle.
    n = 300
    nba_file = tmp_path / "loop.nba"
    nba_file.write_text("nba\nstates 1\nalphabet a\ninit 0\naccept 0\n0 a 0\n")
    edges = "".join(f"{i} a {i + 1} 1\n" for i in range(n - 1))
    dpa_file = tmp_path / "chain.dpa"
    dpa_file.write_text(f"dpa\nstates {n}\nalphabet a\ninit 0\n{edges}{n - 1} a {n - 1} 2\n")
    follows = []
    follow = ParityAutomaton.follow

    def counted(self, state, symbol):
        follows.append(state)
        return follow(self, state, symbol)

    monkeypatch.setattr(ParityAutomaton, "follow", counted)
    argv = ["check", "-i", str(nba_file), "--dpa", str(dpa_file), "--max-u", str(n), "--max-v", "2"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == f"checked {2 * (n + 1)} lassos: agreement\n"
    # n to walk the stems, then each state once per cycle: n edges for "a", 2n for "a a".
    assert len(follows) <= 4 * n + 10, len(follows)


def test_check_decides_an_nba_whose_state_sets_repeat_late_without_walking_them(tmp_path, monkeypatch, capsys):
    # Disjoint cycles of every prime length up to 19 (77 states), each entered
    # at one initial state: the state set after a^k repeats only after
    # 2·3·5·7·11·13·17·19 = 9699690 steps.
    lines = []
    initial = []
    start = 0
    for length in (2, 3, 5, 7, 11, 13, 17, 19):
        initial.append(start)
        lines += [f"{start + i} a {start + (i + 1) % length}" for i in range(length)]
        start += length
    nba_file = tmp_path / "primes.nba"
    nba_file.write_text(
        f"nba\nstates {start}\nalphabet a\ninit {' '.join(map(str, initial))}\naccept {start - 1}\n"
        + "\n".join(lines) + "\n"
    )
    dpa_file = tmp_path / "all.dpa"
    dpa_file.write_text("dpa\nstates 1\nalphabet a\ninit 0\n0 a 0 2\n")
    began = time.perf_counter()
    outcome = check_both_ways(
        monkeypatch, capsys, ["-i", str(nba_file), "--dpa", str(dpa_file), "--max-u", "0", "--max-v", "1"]
    )
    # Walking the state sets until they repeat would take tens of seconds; the
    # decision for the cycle visits each of the 77 product nodes once.
    assert time.perf_counter() - began < 5
    assert outcome == (0, "checked 1 lassos: agreement\n", "")


def test_check_reads_a_dpa_with_many_states_and_few_edges(tmp_path):
    # 10**9 declared states, of which only state 0 has edges: the rows of such
    # an automaton are keyed by state, so the run fits the child's 1 GiB limit.
    nba_file = tmp_path / "one.nba"
    nba_file.write_text("nba\nstates 1\nalphabet a b\ninit 0\naccept 0\n0 a 0\n")
    dpa_file = tmp_path / "sparse.dpa"
    dpa_file.write_text("dpa\nstates 1000000000\nalphabet a b\ninit 0\n0 a 0 2\n0 b 0 1\n")
    result = run_fresh(
        "from omegadet.cli import main\n"
        f"raise SystemExit(main(['check', '-i', {str(nba_file)!r}, '--dpa', {str(dpa_file)!r}]))\n"
    )
    assert (result.returncode, result.stdout, result.stderr) == (
        1,
        "disagreement on lasso: b | a\n"
        "  nba rejects (no accepting run)\n"
        "  dpa accepts, recurring states (0,), min priority 2\n",
        "",
    )


@st.composite
def partial_dpas(draw, alphabet: tuple[str, ...], max_states: int = 30) -> ParityAutomaton:
    """A DPA with random targets and priorities 1..5, from which up to three edges are removed."""
    num_states = draw(st.integers(1, max_states))
    states = st.integers(0, num_states - 1)
    keys = [(state, symbol) for state in range(num_states) for symbol in alphabet]
    edges = {key: (draw(states), draw(st.integers(1, 5))) for key in keys}
    for key in draw(st.lists(st.sampled_from(keys), max_size=3)):
        edges.pop(key, None)
    return ParityAutomaton(num_states, alphabet, draw(states), edges)


def parity_to_buchi(dpa: ParityAutomaton) -> BuchiAutomaton:
    """An NBA for the language of ``dpa``: a missing edge rejects, where ``check`` reports it.

    A run either waits, or commits to an even ``k``: from then on every
    priority is at least ``k``, and the states entered by an edge of priority
    ``k`` are accepting.  Waiting state ``q`` is ``q``; committed state ``q``
    with flag ``f`` is ``n + 2·(n·(k/2 - 1) + q) + f``.
    """
    n = dpa.num_states
    evens = range(2, max((p for _, p in dpa.edges.values()), default=0) + 1, 2)

    def committed(q, k, flag):
        return n + 2 * (n * (k // 2 - 1) + q) + flag

    transitions = set()
    for (q, symbol), (target, priority) in dpa.edges.items():
        transitions.add((q, symbol, target))
        for k in evens:
            if priority >= k:
                transitions.add((q, symbol, committed(target, k, priority == k)))
                for flag in (0, 1):
                    transitions.add((committed(q, k, flag), symbol, committed(target, k, priority == k)))
    return BuchiAutomaton(
        num_states=n + 2 * n * len(evens),
        alphabet=dpa.alphabet,
        transitions=frozenset(transitions),
        initial=frozenset({dpa.initial}),
        accepting=frozenset(committed(q, k, 1) for q in range(n) for k in evens),
    )


@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_check_matches_the_unmemoised_loop_on_random_partial_dpas(tmp_path, monkeypatch, capsys, data):
    alphabet = data.draw(st.sampled_from((("a",), ("a", "b"), ("a", "b", "c"))))
    if data.draw(st.booleans()):
        dpa = data.draw(partial_dpas(alphabet))
        num_states = data.draw(st.integers(1, 8))
        states = st.integers(0, num_states - 1)
        aut = BuchiAutomaton(
            num_states=num_states,
            alphabet=alphabet,
            transitions=frozenset(data.draw(st.sets(st.tuples(states, st.sampled_from(alphabet), states), max_size=24))),
            initial=frozenset(data.draw(st.sets(states, min_size=1))),
            accepting=frozenset(data.draw(st.sets(states))),
        )
    else:
        # The NBA accepts the DPA's language, so the check agrees up to the
        # first missing edge, or up to a lasso through a flipped priority.
        dpa = data.draw(partial_dpas(alphabet, max_states=8))
        aut = parity_to_buchi(dpa)
        if dpa.edges and data.draw(st.booleans()):
            key = data.draw(st.sampled_from(sorted(dpa.edges)))
            target, priority = dpa.edges[key]
            dpa = ParityAutomaton(dpa.num_states, alphabet, dpa.initial, {**dpa.edges, key: (target, priority + 1)})
    nba_file = tmp_path / "random.nba"
    nba_file.write_bytes(serialize_nba(aut))
    dpa_file = tmp_path / "random.dpa"
    dpa_file.write_bytes(serialize_dpa(dpa))
    argv = ["-i", str(nba_file), "--dpa", str(dpa_file)]
    if data.draw(st.booleans()):
        argv += ["--max-u", "3", "--max-v", "3"]
    else:
        argv += ["--random", "300", "--max-u", "12", "--max-v", "4", "--seed", str(data.draw(st.integers(0, 9)))]
    check_both_ways(monkeypatch, capsys, argv)


def test_check_memory_stays_linear_in_the_longest_stem(medium_staged_file, capsys):
    # Random stems of up to 1000 symbols over three letters share almost no prefix,
    # so keeping every stem prefix between lassos would hold about 10^7 tuple slots here.
    argv = ["check", "-i", str(medium_staged_file), "--random", "20", "--max-u", "1000", "--max-v", "2", "--seed", "0"]
    tracemalloc.start()
    try:
        status = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 0 and capsys.readouterr().out == "checked 20 lassos: agreement\n"
    assert peak < 4_000_000, peak


def test_check_memory_does_not_grow_with_the_number_of_stems(tmp_path, capsys):
    # --max-u 14 over two letters enumerates 32767 stems; a list of them all
    # took over 4 MB.
    path = tmp_path / "two.nba"
    path.write_text("nba\nstates 2\nalphabet a b\ninit 0\naccept 1\n0 a 1\n0 b 0\n1 a 1\n1 b 0\n")
    tracemalloc.start()
    try:
        status = cli.main(["check", "-i", str(path), "--max-u", "14", "--max-v", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 0 and capsys.readouterr().out == "checked 65534 lassos: agreement\n"
    assert peak < 1_000_000, peak


@pytest.mark.parametrize("flags", [(), ("--random", "3"), ("--dpa", "{dpa}"), ("--dpa", "{dpa}", "--random", "3")])
def test_check_rejects_an_empty_alphabet(tmp_path, flags):
    nba_file = tmp_path / "empty.nba"
    nba_file.write_text("nba\nstates 1\nalphabet\ninit 0\naccept 0\n")
    dpa_file = tmp_path / "empty.dpa"
    dpa_file.write_text("dpa\nstates 1\nalphabet\ninit 0\n")
    result = run_cli("check", "-i", str(nba_file), *(flag.format(dpa=dpa_file) for flag in flags))
    assert result.returncode == 2
    assert result.stderr.startswith("error: ") and "alphabet" in result.stderr
    assert "Traceback" not in result.stderr and result.stdout == ""


def test_check_alphabet_mismatch(small_file, tmp_path):
    dpa_file = tmp_path / "other.dpa"
    dpa_file.write_text("dpa\nstates 1\nalphabet x\ninit 0\n0 x 0 2\n")
    result = run_cli("check", "-i", str(small_file), "--dpa", str(dpa_file))
    assert result.returncode == 2
    assert "mismatch" in result.stderr


def test_check_random_reproducible(medium_staged_file):
    args = ("check", "-i", str(medium_staged_file), "--random", "200", "--seed", "7")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_stats_small(small_file):
    result = run_cli("stats", "-i", str(small_file))
    assert result.returncode == 0
    lines = {line.split()[0]: line.split()[1:] for line in result.stdout.splitlines()[1:]}
    assert lines["ms"] == ["3", "3"]
    assert lines["adaptive"] == ["3", "3"]
    # The collapsing strategies fold {1} into {1,2} after a green event,
    # which costs one extra macrostate on this automaton.
    assert lines["safra"] == ["4", "4"]
    assert lines["max"] == ["4", "4"]


def test_stats_cap_exceeded_prints_every_row_then_exits_1(small_file):
    # ms and adaptive need 3 macrostates on this automaton, safra and max 4.
    result = run_cli("stats", "-i", str(small_file), "--cap", "3")
    assert result.returncode == 1
    lines = {line.split()[0]: line.split(maxsplit=1)[1] for line in result.stdout.splitlines()[1:]}
    assert lines["ms"].split() == lines["adaptive"].split() == ["3", "3"]
    assert lines["safra"] == lines["max"] == "cap exceeded (> 3)"


def test_stats_no_transitions(tmp_path):
    path = tmp_path / "dead.nba"
    path.write_text("nba\nstates 2\nalphabet a\ninit 0\naccept 1\n")
    result = run_cli("stats", "-i", str(path))
    assert result.returncode == 0
    for line in result.stdout.splitlines()[1:]:
        assert line.split()[1] == "2"


def test_roundtrip_demo():
    result = run_cli("roundtrip", "({3}:4,{1}:2,{2}:3,{0}:1)")
    assert result.returncode == 0
    assert result.stdout.splitlines() == [
        "{0}:1({1}:2({3}:4),{2}:3)",
        "({3}:4,{1}:2,{2}:3,{0}:1)",
    ]


def test_roundtrip_single():
    result = run_cli("roundtrip", "({0}:1)")
    assert result.returncode == 0
    assert result.stdout.splitlines() == ["{0}:1", "({0}:1)"]


def test_the_package_runs_as_a_module():
    # `python -m omegadet`, as the README documents it, runs the package's __main__.
    result = subprocess.run(
        [sys.executable, "-m", "omegadet", "roundtrip", "({0}:1)"], capture_output=True, text=True
    )
    assert result.returncode == 0
    assert result.stdout.splitlines() == ["{0}:1", "({0}:1)"]


def test_roundtrip_rank_placement():
    assert run_cli("roundtrip", "({0}:2,{1}:1)").returncode == 0
    rejected = run_cli("roundtrip", "({0}:1,{1}:2)")
    assert rejected.returncode == 1
    assert "rank 1" in rejected.stderr or "rightmost" in rejected.stderr


def test_roundtrip_deep_chain():
    # 1500 positions ranked 1500..1: a chain in which every node has one child.
    n = 1500
    text = "(" + ",".join(f"{{{i}}}:{n - i}" for i in range(n)) + ")"
    result = run_cli("roundtrip", text)
    assert result.returncode == 0, result.stderr
    tree, recovered = result.stdout.splitlines()
    assert recovered == text
    assert tree.startswith(f"{{{n - 1}}}:1({{{n - 2}}}:2(")
    assert tree.endswith("{0}:1500" + ")" * (n - 1))
    # Comparing, hashing and printing such a tree must not recurse either.
    first, second = slice_to_safra(parse_slice(text)), slice_to_safra(parse_slice(text))
    assert first is not second and first == second and hash(first) == hash(second)
    assert repr(first) == repr(second) == f"SafraNode({tree!r})"
    other = slice_to_safra(parse_slice(text.replace("{0}:1500", f"{{{n}}}:1500")))
    assert first != other


def test_roundtrip_malformed():
    assert run_cli("roundtrip", "({0}:1").returncode == 2


def test_roundtrip_empty_slice():
    # The sink slice parses, but a ranked tree needs a root.
    result = run_cli("roundtrip", "()")
    assert result.returncode == 1
    assert result.stderr == "error: the empty slice has no tree form\n"


def test_trace_medium(medium_staged_file):
    result = run_cli("trace", "-i", str(medium_staged_file), "--strategy", "safra", "b c | a")
    assert result.returncode == 0
    assert "priority=3" in result.stdout
    assert "verdict: accept" in result.stdout


def test_trace_wide_events(wide_staged_file):
    result = run_cli("trace", "-i", str(wide_staged_file), "--strategy", "ms", "b c d e | a")
    assert result.returncode == 0
    assert "G={2,6}" in result.stdout
    assert "k=2" in result.stdout


def test_trace_sink_notice(tmp_path):
    path = tmp_path / "dead.nba"
    path.write_text("nba\nstates 1\nalphabet a\ninit 0\naccept 0\n")
    result = run_cli("trace", "-i", str(path), "| a")
    assert result.returncode == 0
    assert "priority=1" in result.stdout
    assert "sink" in result.stdout
    assert "verdict: reject" in result.stdout


@pytest.fixture
def dead_file(tmp_path):
    # Every run dies on the first symbol.
    path = tmp_path / "dead.nba"
    path.write_text("nba\nstates 1\nalphabet a\ninit 0\naccept 0\n")
    return path


@pytest.fixture
def corpus170_file(tmp_path):
    path = tmp_path / "corpus170.nba"
    path.write_bytes(serialize_nba(build_corpus(171)[170]))
    return path


def test_trace_prints_the_adaptive_dpa_edges(corpus170_file, capsys):
    # Under adaptive a successor depends on what was explored before it.  On
    # corpus automaton 170 an exploration along the lasso alone reaches
    # ({0}:2,{1,2}:1) at step 4, where the DPA's edge goes to ({0,1,2}:1).
    assert cli.main(["trace", "-i", str(corpus170_file), "--strategy", "adaptive", "| b a"]) == 0
    lines = capsys.readouterr().out.splitlines()
    printed = list(
        zip(
            [line.split()[1] for line in lines if line.startswith("  normalize:")],
            [int(line.rsplit("priority=", 1)[1]) for line in lines if line.startswith("  events:")],
        )
    )
    dpa = determinize(parse_nba(corpus170_file.read_bytes()), ADAPTIVE, labels=True)
    edges = []

    def follow(state, symbol):
        target, priority = dpa.follow(state, symbol)
        edges.append((dpa.labels[target], priority))
        return target, priority

    _run_lasso(dpa.initial, follow, parse_lasso("| b a"))
    assert len(edges) >= 4 and printed == edges


def test_trace_fails_on_a_step_that_leaves_the_dpa(corpus170_file, monkeypatch, capsys):
    # Recomputing the adaptive DPA's edges under ms reaches other successors.
    real = cli.transition
    monkeypatch.setattr(cli, "transition", lambda aut, slice_, symbol, _, context: real(aut, slice_, symbol, "ms"))
    assert cli.main(["trace", "-i", str(corpus170_file), "--strategy", "adaptive", "| b a"]) == 1
    assert "but the DPA edge from state" in capsys.readouterr().err


def test_trace_rejects_a_foreign_symbol_before_any_output(small_file, monkeypatch, capsys):
    def no_explore(*args, **kwargs):
        raise AssertionError("trace explored before checking the lasso")

    monkeypatch.setattr(cli, "_explore", no_explore)
    for lasso in ("a | c", "c | a"):
        assert cli.main(["trace", "-i", str(small_file), lasso]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: symbol 'c' not in alphabet\n"


@pytest.mark.parametrize(
    "nba, strategy, lasso",
    [
        ("wide_staged_file", "ms", "b c d e | a"),
        ("medium_staged_file", "safra", "b c | a"),
        ("dead_file", "ms", "| a"),
        ("corpus170_file", "adaptive", "| b a"),
    ],
)
def test_trace_formats_no_labels_and_parses_no_slices(nba, strategy, lasso, request, monkeypatch, capsys):
    # trace reads the macrostates that exploration holds: it neither formats a
    # label for every explored state nor parses one back per step.
    path = request.getfixturevalue(nba)
    argv = ["trace", "-i", str(path), "--strategy", strategy, lasso]
    assert cli.main(argv) == 0
    expected = capsys.readouterr()

    def forbidden(*args, **kwargs):
        raise AssertionError("trace went through label text")

    monkeypatch.setattr(pipeline, "_labels", forbidden)
    monkeypatch.setattr(cli, "parse_slice", forbidden)
    assert cli.main(argv) == 0
    assert capsys.readouterr() == expected
    assert expected.out.startswith("initial: (") and "verdict: " in expected.out


def test_trace_cap_bounds_the_whole_exploration(medium_staged_file):
    # The lasso visits 4 macrostates, but trace explores all 9 of the DPA.
    result = run_cli("trace", "-i", str(medium_staged_file), "--cap", "8", "| a")
    assert result.returncode == 1
    assert "cap" in result.stderr
    assert "Traceback" not in result.stderr and result.stdout == ""


def test_outputs_deterministic(medium_staged_file, tmp_path):
    for strategy in ("ms", "safra", "max", "adaptive"):
        first = run_cli("determinize", "-i", str(medium_staged_file), "--strategy", strategy, "--labels")
        second = run_cli("determinize", "-i", str(medium_staged_file), "--strategy", strategy, "--labels")
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout


def test_main_builds_at_most_one_parser_across_calls(small_file, monkeypatch, capsys):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for argv in (["determinize", "-i", str(small_file)], ["check", "-i", str(small_file)], ["stats", "-i", str(small_file)]):
        assert cli.main(argv) == 0
    capsys.readouterr()
    # One parser's worth: the top-level parser and one per subcommand.
    assert len(built) <= 1 + 5, built


def test_main_runs_a_handler_replaced_after_the_first_call(monkeypatch, capsys):
    assert cli.main(["roundtrip", "({0}:1)"]) == 0
    monkeypatch.setattr(cli, "cmd_roundtrip", lambda args: 7)
    assert cli.main(["roundtrip", "({0}:1)"]) == 7
    capsys.readouterr()


def test_labels_do_not_carry_over_to_the_next_call(small_file, capsys):
    assert cli.main(["determinize", "-i", str(small_file), "--labels"]) == 0
    assert "label " in capsys.readouterr().out
    assert cli.main(["determinize", "-i", str(small_file)]) == 0
    assert "label " not in capsys.readouterr().out


def test_dpa_does_not_carry_over_to_the_next_call(small_file, tmp_path, monkeypatch, capsys):
    dpa_file = tmp_path / "small.dpa"
    assert cli.main(["determinize", "-i", str(small_file), "-o", str(dpa_file)]) == 0
    calls = []
    real = cli.determinize

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "determinize", counted)
    assert cli.main(["check", "-i", str(small_file), "--dpa", str(dpa_file)]) == 0
    assert calls == []
    assert cli.main(["check", "-i", str(small_file)]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == "checked 12 lassos: agreement\n" * 2


def test_random_does_not_carry_over_to_the_next_call(small_file, capsys):
    assert cli.main(["check", "-i", str(small_file), "--random", "5"]) == 0
    assert capsys.readouterr().out == "checked 5 lassos: agreement\n"
    assert cli.main(["check", "-i", str(small_file)]) == 0
    assert capsys.readouterr().out == "checked 12 lassos: agreement\n"


def test_usage_error_after_a_successful_call_goes_to_the_current_stderr(small_file, capsys):
    assert cli.main(["check", "-i", str(small_file)]) == 0
    capsys.readouterr()
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), pytest.raises(SystemExit) as exit_info:
        cli.main(["check", "-i", str(small_file), "--max-v", "0"])
    assert exit_info.value.code == 2
    assert stderr.getvalue().startswith("usage: omegadet check ")
    assert "--max-v: must be at least 1, got 0" in stderr.getvalue()
    assert capsys.readouterr() == ("", "")


def test_help_is_the_same_on_every_call(monkeypatch):
    texts = {}
    for columns in ("200", "200", "40"):
        monkeypatch.setenv("COLUMNS", columns)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), pytest.raises(SystemExit) as exit_info:
            cli.main(["--help"])
        assert exit_info.value.code == 0
        texts.setdefault(columns, set()).add(stdout.getvalue())
    assert len(texts["200"]) == 1
    # The width is read on every call, not fixed when the parser was built.
    assert texts["40"] != texts["200"]
    assert all(text.startswith("usage: omegadet ") for group in texts.values() for text in group)
