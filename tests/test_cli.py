import subprocess
import sys

import pytest

from omegadet import cli
from omegadet.determinize import ADAPTIVE, determinize
from omegadet.nba import BuchiAutomaton, parse_lasso, parse_nba, serialize_nba
from omegadet.parity import _run_lasso
from omegadet.safra import slice_to_safra
from omegadet.slices import parse_slice

from .conftest import MEDIUM_STAGED_NBA, SMALL_NBA, WIDE_STAGED_NBA, build_corpus


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
