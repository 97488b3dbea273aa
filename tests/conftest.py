import random
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from omegadet import stages
from omegadet.determinize import InternalInvariantError, MergeStrategy, UnionIndex, _remember, as_strategy, determinize
from omegadet.nba import BuchiAutomaton, parse_nba, successors
from omegadet.oracle import random_nba
from omegadet.parity import ParityAutomaton
from omegadet.slices import format_slice, parse_slice
from omegadet.stages import TransitionTrace

from .reference import is_valid_partition, run_prefix

settings.register_profile("repo", deadline=None, suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("repo")

# Short strings for symbols and labels.  Hypothesis draws no lone surrogates,
# which UTF-8 cannot encode, nor often a '|', so both are added by hand.
TOKEN_TEXT = st.text(max_size=3) | st.sampled_from(("a|b", "|", "\ud800", "a\udfff"))


# Three-state automaton over one letter: a loop on 0, a split 0 -> 1, and a
# 1 <-> 2 ping-pong around the accepting state 1.  Accepts a^omega.
SMALL_NBA = b"""nba
states 3
alphabet a
init 0
accept 1
0 a 0
0 a 1
1 a 1
1 a 2
2 a 1
"""

# Four states, accepting 2 and 3: state 0 loops and spawns 2 (self-looping)
# and 3 (which only feeds the dead-endish state 1).
MEDIUM_NBA = b"""nba
states 4
alphabet a
init 0
accept 2 3
0 a 0
0 a 2
0 a 3
2 a 2
3 a 1
"""

# The medium automaton plus two setup letters b and c that steer the initial
# macrostate into the prepared slice ({1}:2,{2}:3,{0}:1) after reading "b c".
MEDIUM_STAGED_NBA = MEDIUM_NBA.replace(
    b"alphabet a", b"alphabet a b c"
) + b"""0 b 3
0 b 0
3 c 1
0 c 2
0 c 0
"""

# Six states, accepting 2, 3 and 5, with a rich single-letter transition
# structure producing simultaneous green and red events mid-run.
WIDE_NBA = b"""nba
states 6
alphabet a
init 0
accept 2 3 5
0 a 0
0 a 1
0 a 5
0 a 4
1 a 1
2 a 2
2 a 1
3 a 3
3 a 1
3 a 2
4 a 4
4 a 5
4 a 3
5 a 5
"""

# The wide automaton plus four setup letters reaching the prepared slice
# ({2}:3,{3}:5,{1}:2,{5}:6,{4}:4,{0}:1) after reading "b c d e".
WIDE_STAGED_NBA = WIDE_NBA.replace(b"alphabet a", b"alphabet a b c d e") + b"""0 b 3
0 b 0
3 c 2
3 c 1
0 c 0
2 d 2
1 d 1
0 d 5
0 d 0
2 e 2
1 e 3
1 e 1
5 e 5
5 e 4
0 e 0
"""


# Code run first by run_fresh: caps the address space at 1 GiB, so a table
# sized by a declared count fails there instead of exhausting the machine, and
# defines hwm_kb(), the process's own peak RSS in kB (VmHWM).  ru_maxrss
# would also hold the peak of the test process the child was forked from,
# which exec carries over on Linux.
_FRESH_PRELUDE = """\
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
def hwm_kb():
    return int(next(line.split()[1] for line in open("/proc/self/status") if line.startswith("VmHWM:")))
"""


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter after :data:`_FRESH_PRELUDE`; text output is captured."""
    return subprocess.run([sys.executable, "-c", _FRESH_PRELUDE + code], capture_output=True, text=True)


@pytest.fixture
def small_nba() -> BuchiAutomaton:
    return parse_nba(SMALL_NBA)


@pytest.fixture
def medium_nba() -> BuchiAutomaton:
    return parse_nba(MEDIUM_NBA)


@pytest.fixture
def medium_staged_nba() -> BuchiAutomaton:
    return parse_nba(MEDIUM_STAGED_NBA)


@pytest.fixture
def wide_nba() -> BuchiAutomaton:
    return parse_nba(WIDE_NBA)


@pytest.fixture
def wide_staged_nba() -> BuchiAutomaton:
    return parse_nba(WIDE_STAGED_NBA)


def build_corpus(count: int = 300, master_seed: int = 20260808) -> list[BuchiAutomaton]:
    """Seed-reproducible random automata: up to 5 states, up to 2 letters."""
    rng = random.Random(master_seed)
    automata = []
    for _ in range(count):
        num_states = rng.randint(1, 5)
        alphabet = ("a", "b")[: rng.randint(1, 2)]
        automata.append(random_nba(num_states, alphabet, 0.4, 0.4, rng.randrange(2**32)))
    return automata


def assert_valid_witness(aut, lasso, verdict) -> None:
    """Structural validity of an accepting witness run."""
    prefix, loop = verdict.prefix_states, verdict.loop_states
    assert verdict.accepted and prefix is not None and loop is not None
    assert prefix[0] in aut.initial
    assert loop[0] == prefix[-1] and loop[-1] == loop[0]
    assert len(loop) > 1 and (len(loop) - 1) % len(lasso.cycle) == 0
    run = run_prefix(verdict, len(prefix) + 2 * (len(loop) - 1))
    for i in range(len(run) - 1):
        assert (run[i], lasso.symbol_at(i), run[i + 1]) in aut.transitions
    assert any(q in aut.accepting for q in loop[:-1])


def check_transition_invariants(aut: BuchiAutomaton, trace: TransitionTrace) -> None:
    """Require that every stage keeps the successor union and that the partition is permitted.

    The slice constructors checked disjointness, and ``replay`` compares the
    priority of ``dominating_rank`` with the fused kernel's.
    """
    expected = successors(aut, trace.source.state_set, trace.symbol)
    for name, stage in (("step", trace.stepped), ("prune", trace.pruned), ("merge", trace.merged)):
        if stage.state_set != expected:
            raise InternalInvariantError(f"{name} changed the successor union")
    if trace.successor.state_set != expected:
        raise InternalInvariantError("normalize changed the successor union")
    if not is_valid_partition(trace.pruned, trace.dominating, trace.partition):
        raise InternalInvariantError(f"merge partition {trace.partition} violates the constraints")


def replay(aut: BuchiAutomaton, strategy: MergeStrategy | str) -> ParityAutomaton:
    """The labelled DPA, after recomputing each of its edges with the staged reference.

    Exploration numbers macrostates in discovery order and takes the edges of
    each source in alphabet order, so walking the edges in that order and
    remembering a target above every id seen so far after its edge gives each
    edge the adaptive index that exploration held.  Raises
    ``InternalInvariantError`` unless every edge has the staged successor and
    priority and its stages pass ``check_transition_invariants``.
    """
    strategy = as_strategy(strategy)
    dpa = determinize(aut, strategy, labels=True)
    slices = [parse_slice(dpa.labels[state]) for state in range(dpa.num_states)]
    index: UnionIndex = {}
    _remember(index, stages._key(slices[0]))
    newest = 0
    for source, slice_ in enumerate(slices):
        for symbol in aut.alphabet:
            target, priority = dpa.edges[source, symbol]
            trace = stages._stages(aut, slice_, symbol, strategy, index)
            if (trace.successor, trace.priority) != (slices[target], priority):
                raise InternalInvariantError(
                    f"on {symbol!r} from {format_slice(slice_)} the fused kernel gives "
                    f"{format_slice(slices[target])} with priority {priority}, the staged kernels "
                    f"{format_slice(trace.successor)} with priority {trace.priority}"
                )
            check_transition_invariants(aut, trace)
            if target > newest:
                newest = target
                _remember(index, stages._key(slices[target]))
    return dpa
