"""The paper's theorem: every permitted choice of merge gives a DPA equivalent to the NBA.

The fixed strategies pick one partition per edge.  Here the DPA is built from
the public stage functions and takes a seeded random partition among those
``iter_valid_partitions`` permits on every (macrostate, symbol), and the
lasso oracle must agree with it.
"""
import random
from collections import deque

from omegadet.cli import _first_disagreement
from omegadet.determinize import dominating_rank, initial_slice, merge, normalize, prune, step
from omegadet.nba import BuchiAutomaton, format_lasso
from omegadet.oracle import _lasso_words
from omegadet.parity import ParityAutomaton

from .conftest import build_corpus
from .reference import iter_valid_partitions

SEEDS = (0, 1, 2)


def random_permitted_dpa(aut: BuchiAutomaton, rng: random.Random) -> ParityAutomaton:
    """Breadth-first exploration that merges by a random permitted partition on every edge."""
    start = initial_slice(aut)
    ids = {start: 0}
    queue = deque([start])
    edges = {}
    while queue:
        current = queue.popleft()
        for symbol in aut.alphabet:
            pruned, green, red = prune(step(aut, current, symbol))
            k, priority = dominating_rank(green, red, aut.num_states)
            partition = rng.choice(list(iter_valid_partitions(pruned, k)))
            successor = normalize(merge(pruned, partition))
            if successor not in ids:
                ids[successor] = len(ids)
                queue.append(successor)
            edges[ids[current], symbol] = (ids[successor], priority)
    return ParityAutomaton(num_states=len(ids), alphabet=aut.alphabet, initial=0, edges=edges)


def test_every_permitted_merge_gives_an_equivalent_dpa():
    disagreements = []
    for seed in SEEDS:
        rng = random.Random(seed)
        for index, aut in enumerate(build_corpus()):
            dpa = random_permitted_dpa(aut, rng)
            _, lasso = _first_disagreement(aut, dpa, _lasso_words(aut.alphabet, 3, 3))
            if lasso is not None:
                disagreements.append((seed, index, format_lasso(lasso)))
    assert disagreements == []
