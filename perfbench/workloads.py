"""Seeded inputs and CLI jobs for the omegadet benchmark workloads.

A workload is a fixed list of jobs, each one call of ``omegadet.cli.main``
on a generated ``.nba`` file; the program only ever sees those files.

Seed 0 gives the reference automata: the Tabakov-Vardi grid with seeds
``9100*n + i`` and the 300-automaton corpus of ``build_corpus``.  Any other
seed renames the states of every reference automaton by a seeded random
permutation.  The inputs then differ byte for byte, and so do the internal
set orders, but every job does isomorphic work.  Drawing fresh automata
instead does not give a steady benchmark: DPA sizes are heavy-tailed, and
over seeds 1-5 one explore-ms pass ranged from 44k to 94k macrostates and
the check-corpus median job latency from 2.7 to 4.0 ms.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from omegadet.nba import BuchiAutomaton, serialize_nba
from omegadet.oracle import random_nba

# Lasso bounds of the check jobs and of the oracle gate on determinize output.
MAX_STEM = 3
MAX_CYCLE = 3

# Generator parameters of every workload, recorded with each result.  Every
# automaton is run once per strategy with ``argv`` plus its input file.
WORKLOADS: dict[str, dict] = {
    # Tabakov-Vardi random NBA: density 1.8/n, half the states accepting.
    "explore-ms": {
        "model": "tabakov-vardi",
        "sizes": [12, 14, 16, 18],
        "per_size": 6,
        "alphabet": ["a", "b"],
        "density_times_n": 1.8,
        "accepting_fraction": 0.5,
        "strategies": ["ms"],
        "argv": ["determinize"],
    },
    "merge-adaptive": {
        "model": "tabakov-vardi",
        "sizes": [24],
        "per_size": 6,
        "alphabet": ["a", "b"],
        "density_times_n": 1.8,
        "accepting_fraction": 0.5,
        "strategies": ["adaptive"],
        "argv": ["determinize", "--labels"],
    },
    # The 300-automaton corpus of tests/conftest.py::build_corpus.
    "check-corpus": {
        "model": "corpus",
        "count": 300,
        "master_seed": 20260808,
        "strategies": ["ms", "safra", "max", "adaptive"],
        "argv": ["check", "--max-u", str(MAX_STEM), "--max-v", str(MAX_CYCLE)],
    },
}


@dataclass(frozen=True)
class Job:
    """One CLI call: ``argv`` for ``cli.main`` plus what is needed to check it."""

    name: str
    argv: tuple[str, ...]
    automaton: BuchiAutomaton
    output: Path | None  # the .dpa a determinize job writes; None for check jobs
    strategy: str


def relabel(aut: BuchiAutomaton, rng: random.Random) -> BuchiAutomaton:
    """The same automaton with its states renamed by a random permutation."""
    perm = list(range(aut.num_states))
    rng.shuffle(perm)
    return BuchiAutomaton(
        num_states=aut.num_states,
        alphabet=aut.alphabet,
        transitions=frozenset((perm[src], sym, perm[dst]) for src, sym, dst in aut.transitions),
        initial=frozenset(perm[q] for q in aut.initial),
        accepting=frozenset(perm[q] for q in aut.accepting),
    )


def grid_automata(params: dict) -> list[tuple[str, BuchiAutomaton]]:
    """The Tabakov-Vardi grid, ``per_size`` automata for every size ``n``."""
    alphabet = tuple(params["alphabet"])
    out = []
    for n in params["sizes"]:
        for i in range(params["per_size"]):
            aut = random_nba(
                n,
                alphabet,
                params["density_times_n"] / n,
                params["accepting_fraction"],
                seed=9100 * n + i,
            )
            out.append((f"n{n}-i{i}", aut))
    return out


def corpus_automata(count: int, master_seed: int) -> list[BuchiAutomaton]:
    """Random automata of up to 5 states and 2 letters, as ``build_corpus`` draws them."""
    rng = random.Random(master_seed)
    automata = []
    for _ in range(count):
        num_states = rng.randint(1, 5)
        alphabet = ("a", "b")[: rng.randint(1, 2)]
        automata.append(random_nba(num_states, alphabet, 0.4, 0.4, rng.randrange(2**32)))
    return automata


def build_jobs(workload: str, seed: int, workdir: Path) -> list[Job]:
    """Generate the workload's inputs under ``workdir`` and return its jobs in run order."""
    params = WORKLOADS[workload]
    if params["model"] == "corpus":
        named = [(f"c{index}", aut) for index, aut in enumerate(corpus_automata(params["count"], params["master_seed"]))]
    else:
        named = grid_automata(params)
    if seed:
        rng = random.Random(seed)
        named = [(name, relabel(aut, rng)) for name, aut in named]
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = []
    for name, aut in named:
        path = workdir / f"{name}.nba"
        path.write_bytes(serialize_nba(aut))
        for strategy in params["strategies"]:
            job = f"{name}-{strategy}"
            argv = [*params["argv"], "-i", str(path), "--strategy", strategy]
            output = workdir / f"{job}.dpa" if argv[0] == "determinize" else None
            if output is not None:
                argv += ["-o", str(output)]
            jobs.append(Job(job, tuple(argv), aut, output, strategy))
    return jobs
