"""Command-line frontend: determinize, check, stats, roundtrip, trace.

Exit statuses: 0 on success or agreement, 1 on semantic disagreement,
invariant failure or an input that does not fit in memory, 2 on usage or
parse errors.

In-process use: ``main(argv)`` may be called any number of times in one
process.  The argument parser is built on the first call and reused; each
call parses into a fresh namespace, looks its handler up by command name, and
prints through the ``sys.stdout``/``sys.stderr`` in place at that moment, so
no state is shared between calls.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import sys
from pathlib import Path

from .determinize import STRATEGIES, CapacityError, InternalInvariantError, _explore, determinize
from .nba import (
    BuchiAutomaton,
    InvalidSliceError,
    InvalidTreeError,
    Lasso,
    LassoFormatError,
    NbaFormatError,
    SliceFormatError,
    UnknownSymbolError,
    check_symbols,
    format_lasso,
    parse_lasso,
    parse_nba,
    to_mask,
)
from .oracle import _CycleDecision, _lasso_words, _rotation_class, nba_accepts_lasso, sample_lassos
from .parity import (
    DpaFormatError,
    MissingEdgeError,
    ParityAutomaton,
    _run_lasso,
    _walk_cycle,
    parse_dpa,
    run_lasso,
    serialize_dpa,
)

_USAGE_ERRORS = (
    NbaFormatError,
    DpaFormatError,
    SliceFormatError,
    LassoFormatError,
    UnknownSymbolError,
)
_SEMANTIC_ERRORS = (
    InvalidSliceError,
    InvalidTreeError,
    CapacityError,
    MissingEdgeError,
    InternalInvariantError,
)


class AlphabetMismatchError(ValueError):
    """NBA and DPA disagree on the (ordered) alphabet."""


def _int_at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum``, else a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    parse.__name__ = "integer"  # argparse reports a non-number as "invalid integer value"
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``omegadet`` parser, built on the first call; every later call returns the same object.

    Sharing it is safe: ``parse_args`` leaves the parser unchanged and returns
    a fresh namespace, argparse looks up ``sys.stdout``/``sys.stderr`` when it
    prints, and the help formatter reads the terminal width when it formats.
    """
    # --help shows the module docstring up to its note for in-process callers.
    description = __doc__.partition("\n\nIn-process use:")[0]
    parser = argparse.ArgumentParser(prog="omegadet", description=description)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *, output: bool = False, strategy: bool = True) -> None:
        p.add_argument("--input", "-i", required=True, help="input .nba file")
        if output:
            p.add_argument("--output", "-o", help="output file (default: stdout)")
        if strategy:
            p.add_argument("--strategy", choices=tuple(STRATEGIES), default="ms")
        p.add_argument("--cap", type=_int_at_least(1), default=1_000_000, help="macrostate cap (>= 1)")

    p = sub.add_parser("determinize", help="translate a .nba file into a .dpa file")
    add_common(p, output=True)
    p.add_argument("--labels", action="store_true", help="annotate states with slice strings")

    p = sub.add_parser("check", help="compare DPA decisions against the membership oracle")
    add_common(p)
    p.add_argument(
        "--dpa", help="check this .dpa file instead of determinizing (--strategy and --cap then have no effect)"
    )
    p.add_argument("--max-u", type=_int_at_least(0), default=3, help="maximum stem length (>= 0)")
    p.add_argument("--max-v", type=_int_at_least(1), default=3, help="maximum cycle length (>= 1)")
    p.add_argument(
        "--random", type=_int_at_least(1), default=None, metavar="N", help="sample N >= 1 lassos instead"
    )
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("stats", help="macrostate and edge counts per merge strategy")
    add_common(p, strategy=False)

    p = sub.add_parser("roundtrip", help="render a slice as a tree and recover it")
    p.add_argument("slice", help="canonical slice string, e.g. ({3}:4,{1}:2,{2}:3,{0}:1)")

    p = sub.add_parser("trace", help="print every pipeline stage along a lasso")
    add_common(p)
    p.add_argument("lasso", help="lasso text, e.g. 'a a | b a' (empty stem: '| a')")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Looked up per call, so the shared parser holds no handler and a handler
    # replaced on this module takes effect.
    handler = globals()[f"cmd_{args.command}"]
    try:
        return handler(args)
    except (*_USAGE_ERRORS, AlphabetMismatchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _SEMANTIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OverflowError, MemoryError) as exc:
        # A mask holds one bit per state id, so one wide id can need more memory than there is.
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1


def _load_nba(path: str) -> BuchiAutomaton:
    return parse_nba(Path(path).read_bytes())


def cmd_determinize(args) -> int:
    aut = _load_nba(args.input)
    dpa = determinize(aut, args.strategy, cap=args.cap, labels=args.labels)
    data = serialize_dpa(dpa)
    if args.output:
        Path(args.output).write_bytes(data)
    else:
        sys.stdout.write(data.decode("utf-8"))
    return 0


def cmd_check(args) -> int:
    aut = _load_nba(args.input)
    if not aut.alphabet:
        print("error: the nba alphabet is empty, so there is no lasso to check", file=sys.stderr)
        return 2
    if args.dpa is not None:
        dpa = parse_dpa(Path(args.dpa).read_bytes())
        if dpa.alphabet != aut.alphabet:
            raise AlphabetMismatchError(
                f"alphabet mismatch: nba {aut.alphabet} vs dpa {dpa.alphabet}"
            )
    else:
        dpa = determinize(aut, args.strategy, cap=args.cap, labels=False)
    if args.random is not None:
        lassos = sample_lassos(aut.alphabet, args.random, args.max_u, args.max_v, args.seed)
        words = ((lasso.stem, lasso.cycle) for lasso in lassos)
    else:
        words = _lasso_words(aut.alphabet, args.max_u, args.max_v)
    checked, lasso = _first_disagreement(aut, dpa, words)
    if lasso is None:
        print(f"checked {checked} lassos: agreement")
        return 0
    verdict = nba_accepts_lasso(aut, lasso)
    run = run_lasso(dpa, lasso)
    print(f"disagreement on lasso: {format_lasso(lasso)}")
    if verdict.accepted:
        print(f"  nba accepts, witness prefix {verdict.prefix_states} loop {verdict.loop_states}")
    else:
        print("  nba rejects (no accepting run)")
    word = "accepts" if run.accepted else "rejects"
    print(f"  dpa {word}, recurring states {run.loop_states}, min priority {run.min_priority}")
    return 1


def _first_disagreement(aut: BuchiAutomaton, dpa: ParityAutomaton, words) -> tuple[int, Lasso | None]:
    """Count the ``(stem, cycle)`` words up to the first on which the NBA and DPA disagree.

    Returns the count and that lasso, or None if all agree.  The NBA verdict
    depends only on the NBA state set after the stem and the infinite word
    ``v^ω``, and the DPA verdict only on the DPA state after the stem and
    ``v^ω``.  ``v^ω = w^ω`` for the primitive root ``w`` of ``v``, so each
    side keeps what it learns per infinite word, not per cycle:

    * NBA side: cycles whose roots are rotations of one another share one
      :class:`~omegadet.oracle._CycleDecision`, on the least rotation ``c``,
      and each asks it from its offset ``r`` into ``c``, where
      ``c[r:] + c[:r] == w`` (:func:`~omegadet.oracle._rotation_class`).
      The decision marks the product nodes ``(q, r)`` from which ``w^ω`` is
      accepted, with one SCC pass over the nodes reachable from the state
      sets and offsets asked about, so the verdict for a state set ``layer``
      is ``layer & good[r] != 0``.  No witness is built: only the reported
      disagreement runs :func:`nba_accepts_lasso` for its witness.
    * DPA side: since ``u·w^ω = (u·w)·w^ω``, a verdict holds along the
      state's orbit under ``w``, and the cycles ``w``, ``ww``, ... share one
      verdict memo.  ``_walk_cycle`` walks ``w`` from the state up to a
      decided or a repeated state; the run it follows is :func:`run_lasso`'s
      on ``v``, so it needs the same edges, and the verdict goes to every
      boundary state on its trail.

    Only the path of the last stem walked is kept: ``path[k]`` holds the state
    set and state after its first ``k`` symbols, and a new stem is walked on
    from the prefix it shares with that stem, so memory stays linear in the
    longest stem.  A missing DPA edge raises :class:`MissingEdgeError` at the
    first word whose run needs it, as :func:`run_lasso` on each lasso in turn
    would.
    """
    posts = {symbol: aut.post(symbol) for symbol in aut.alphabet}
    walked: tuple[str, ...] = ()
    path = [(to_mask(aut.initial), dpa.initial)]
    # Per least rotation, the NBA decision; per primitive root, the verdicts by
    # DPA state; per cycle, both with the cycle's offset and root.
    decisions: dict[tuple[str, ...], _CycleDecision] = {}
    memos: dict[tuple[str, ...], dict[int, bool]] = {}
    verdicts: dict[tuple[str, ...], tuple[_CycleDecision, int, tuple[str, ...], dict[int, bool]]] = {}
    checked = 0
    for stem, cycle in words:
        if stem is not walked:
            shared = 0
            for old, new in zip(walked, stem):
                if old != new:
                    break
                shared += 1
            del path[shared + 1 :]
            layer, state = path[-1]
            for symbol in stem[shared:]:
                layer = posts[symbol][layer]
                state, _ = dpa.follow(state, symbol)
                path.append((layer, state))
            walked = stem
        layer, state = path[-1]
        known = verdicts.get(cycle)
        if known is None:
            root, canonical, offset = _rotation_class(cycle)
            decision = decisions.get(canonical)
            if decision is None:
                decision = decisions[canonical] = _CycleDecision(aut, canonical)
            known = verdicts[cycle] = (decision, offset, root, memos.setdefault(root, {}))
        decision, offset, root, dpa_known = known
        nba_accepts = decision.accepts(layer, offset)
        dpa_accepts = dpa_known.get(state)
        if dpa_accepts is None:
            trail, minimums, state = _walk_cycle(state, dpa.follow, root, dpa_known)
            dpa_accepts = dpa_known.get(state)
            if dpa_accepts is None:
                dpa_accepts = min(minimums[trail[state]:]) % 2 == 0
            dpa_known.update(dict.fromkeys(trail, dpa_accepts))
        checked += 1
        if nba_accepts != dpa_accepts:
            return checked, Lasso(stem, cycle)
    return checked, None


def cmd_stats(args) -> int:
    aut = _load_nba(args.input)
    print(f"{'strategy':<10} {'states':>8} {'edges':>8}")
    exceeded = False
    for token, strategy in STRATEGIES.items():
        try:
            dpa = determinize(aut, strategy, cap=args.cap, labels=False)
        except CapacityError:
            print(f"{token:<10} {'cap exceeded (> ' + str(args.cap) + ')':>8}")
            exceeded = True
            continue
        print(f"{token:<10} {dpa.num_states:>8} {len(dpa.edges):>8}")
    return 1 if exceeded else 0


def cmd_roundtrip(args) -> int:
    from .safra import format_tree, safra_to_slice, slice_to_safra
    from .slices import format_slice, parse_slice

    slice_ = parse_slice(args.slice)
    tree = slice_to_safra(slice_)
    recovered = safra_to_slice(tree)
    print(format_tree(tree))
    print(format_slice(recovered))
    return 0 if recovered == slice_ else 1


def cmd_trace(args) -> int:
    from .slices import format_set, format_slice
    from .stages import _slice, transition

    aut = _load_nba(args.input)
    lasso = parse_lasso(args.lasso)
    check_symbols(aut, lasso.stem + lasso.cycle)
    # Each step's target is its only context: under adaptive it fixes the partition that reaches it.
    order, rows = _explore(aut, args.strategy, args.cap)
    print(f"initial: {format_slice(_slice(order[0]))}")
    step_numbers = itertools.count(1)

    def advance(state: int, symbol: str) -> tuple[int, int]:
        targets, priorities = rows[symbol]
        target, priority = targets[state], priorities[state]
        expected = _slice(order[target])
        trace = transition(aut, _slice(order[state]), symbol, args.strategy, (expected,))
        number = next(step_numbers)
        if trace.successor != expected or trace.priority != priority:
            raise InternalInvariantError(
                f"step {number} on {symbol!r} gives {format_slice(trace.successor)} with priority "
                f"{trace.priority}, but the DPA edge from state {state} is {format_slice(expected)} "
                f"with priority {priority}"
            )
        print(f"step {number}: symbol {symbol}")
        print(f"  slice:     {format_slice(trace.source)}")
        print(f"  step:      {format_slice(trace.stepped)}")
        print(f"  prune:     {format_slice(trace.pruned)}")
        green = format_set(trace.green)
        red = format_set(trace.red)
        print(f"  events:    G={green} R={red} k={trace.dominating} priority={trace.priority}")
        intervals = "".join(f"[{lo},{hi}]" for lo, hi in trace.partition)
        print(f"  merge:     {format_slice(trace.merged)}  intervals {intervals}")
        print(f"  normalize: {format_slice(trace.successor)}")
        if len(trace.successor) == 0:
            print("  note:      sink (all runs died)")
        return target, priority

    run = _run_lasso(0, advance, lasso)
    verdict = "accept" if run.accepted else "reject"
    print(f"verdict: {verdict} (min recurring priority {run.min_priority})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
