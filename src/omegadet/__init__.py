"""Determinization of nondeterministic Büchi automata into parity automata.

The deterministic macrostates are ranked slices: ordered tuples of disjoint
state sets carrying age ranks, in bijection with ranked Safra trees.  One
pluggable merge stage selects between the Muller-Schupp update, the Safra
update, maximal collapse, and an adaptive successor-reuse heuristic.  A
brute-force lasso membership oracle provides the correctness ground truth.
"""
from .determinize import (
    ADAPTIVE,
    MAX_COLLAPSE,
    MULLER_SCHUPP,
    SAFRA,
    CapacityError,
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
from .nba import (
    BuchiAutomaton,
    Lasso,
    format_lasso,
    parse_lasso,
    parse_nba,
    serialize_nba,
    successors,
)
from .oracle import enumerate_lassos, nba_accepts_lasso, random_nba
from .parity import ParityAutomaton, parse_dpa, run_lasso, serialize_dpa
from .safra import SafraNode, TreeShape, format_tree, parse_tree, safra_to_slice, slice_to_safra, unflatten
from .slices import PreSlice, RankedSlice, format_slice, parse_slice

__version__ = "0.1.0"
