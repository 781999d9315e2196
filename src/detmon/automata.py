"""Finite automata over action alphabets, and the monitor round trips.

A monitor becomes an NFA in one indexed compile, a position automaton:
rule system "N" never leaves the monitor's own subterms, so the states
are its structurally distinct subterms, numbered in one fold, and the
edges are weak steps.  Determinization is the subset construction;
minimization always returns the total minimal DFA, completing with a
reject sink first, so equal languages give structurally identical
automata after canonical renaming.  Language equivalence needs neither:
a breadth-first walk over the pairs of subsets it meets finds the least
differing word.

Every operation runs on one indexed form, built once per automaton: states
are dense integers, each symbol has one successor list, and acceptance is
a label byte per state: 0 rejects, 1 accepts, and the determinization of
a two-verdict monitor labels yes 1 and no 2 through every stage.  The
compile lists every position's steps in one pass after numbering.  A
stage's output keeps the numbering its kernel gave it and names its
states only when something reads them; the reads whose result depends
on order (successor lists, subset names, an NFA's unfolding) sort by
name, so the numbering never shows.

The way back — an automaton as a monitor — requires the automaton to be
*irrevocable* (acceptance can never be escaped), mirroring how a verdict
can never be retracted.  All accepting states then act as a single
absorbing one and every loop-free path is written out, which is
exponential in general; small caps guard against accidental blow-ups
and can be overridden.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, count
from typing import Callable, Iterable, Union

from .semantics import DEFAULT_CLOSURE_CAP, CapExceeded, _reach
from .syntax import TRANSITION, comma_list, file_lines
from .terms import (
    END,
    NO,
    TAU,
    YES,
    FreeVariableError,
    Monitor,
    Nil,
    Prefix,
    Rec,
    Sum,
    Term,
    TermError,
    Var,
    Verdict,
    fold,
    rename_apart,
)


class _Ix:
    """The indexed form of an automaton.

    ``succ[k][i]`` is the tuple of state i's successors on
    ``symbols[k]``, symbols sorted; ``acc[i]`` is i's label, 0 when i
    rejects.  ``name()`` makes the state names, ``names[i]`` that of i,
    when they, or ``ids``, are first read.  An automaton built from its
    fields (`_index`) numbers its states in sorted name order and sorts
    each successor tuple; a stage output keeps the numbering and the
    successor order its kernel gave it.  A table only compared, never
    named, has no `name`.
    """

    def __init__(
        self, symbols: tuple[str, ...], succ: list[list[tuple[int, ...]]], initial: int,
        acc: bytearray, name: Callable[[], list[str]] | None = None,
    ) -> None:
        self.symbols = symbols
        self.column = {y: k for k, y in enumerate(symbols)}
        self.succ = succ
        self.initial = initial
        self.acc = acc
        self.name = name

    @cached_property
    def names(self) -> list[str]:
        names, self.name = self.name(), None  # drop what naming needed
        return names

    @cached_property
    def ids(self) -> dict[str, int]:
        return {q: i for i, q in enumerate(self.names)}


def _index(a: Automaton, deterministic: bool) -> _Ix:
    """Check an automaton's fields and build its indexed form."""
    if a.initial not in a.states:
        raise TermError(f"initial state {a.initial!r} is not a state")
    if not a.accepting <= a.states:
        raise TermError("accepting states must be states")
    names = sorted(a.states)
    symbols = tuple(sorted(a.alphabet))
    succ: list[list[tuple[int, ...]]] = [[()] * len(names) for _ in symbols]
    ix = _Ix(symbols, succ, 0, bytearray(len(names)), lambda: names)
    ids, column = ix.ids, ix.column
    for src, sym, dst in a.transitions:
        try:
            i, j, row = ids[src], ids[dst], succ[column[sym]]
        except KeyError:
            if sym in column:
                raise TermError(f"transition touches unknown state: {src}->{dst}") from None
            raise TermError(f"transition label {sym!r} is not in the alphabet") from None
        if row[i] and deterministic:
            raise TermError(f"nondeterministic on ({src!r}, {sym!r})")
        row[i] += (j,)
    if not deterministic:
        for row in succ:
            for i, targets in enumerate(row):
                if len(targets) > 1:
                    row[i] = tuple(sorted(targets))
    ix.initial = ids[a.initial]
    for q in a.accepting:
        ix.acc[ids[q]] = 1
    return ix


def _materialize(cls: type, alphabet: frozenset[str], ix: _Ix) -> Automaton:
    """The automaton of a stage's table, kept as the stage numbered it;
    its fields are named on first read."""
    a = object.__new__(cls)
    a.__dict__.update(alphabet=alphabet, _ix=ix)
    return a


def _named_field(a: Automaton, field: str):
    """A named field of a materialized automaton: all four are made from
    its index when the first is read."""
    ix = a.__dict__.get("_ix")
    if ix is None or field not in ("states", "transitions", "initial", "accepting"):
        raise AttributeError(field)
    n = ix.names
    arcs = ((n[i], y, n[j])
            for y, row in zip(ix.symbols, ix.succ) for i, ts in enumerate(row) for j in ts)
    a.__dict__.update(
        states=frozenset(n), transitions=frozenset(arcs), initial=n[ix.initial],
        accepting=frozenset(n[i] for i, f in enumerate(ix.acc) if f),
    )
    return a.__dict__[field]


@dataclass(frozen=True)
class Nfa:
    states: frozenset[str]
    alphabet: frozenset[str]
    transitions: frozenset[tuple[str, str, str]]
    initial: str
    accepting: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_ix", _index(self, deterministic=False))

    __getattr__ = _named_field

    def succ(self, state: str, symbol: str) -> list[str]:
        ix = self._ix
        i, k = ix.ids.get(state), ix.column.get(symbol)
        if i is None or k is None:
            return []
        return sorted([ix.names[j] for j in ix.succ[k][i]])


@dataclass(frozen=True)
class Dfa:
    """Deterministic automaton; the transition map may be partial, a
    missing edge meaning reject-forever."""

    states: frozenset[str]
    alphabet: frozenset[str]
    transitions: frozenset[tuple[str, str, str]]
    initial: str
    accepting: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_ix", _index(self, deterministic=True))

    __getattr__ = _named_field

    def delta(self) -> dict[tuple[str, str], str]:
        return {(s, y): d for s, y, d in self.transitions}


Automaton = Union[Nfa, Dfa]


def as_nfa(a: Automaton) -> Nfa:
    if isinstance(a, Nfa):
        return a
    return Nfa(a.states, a.alphabet, a.transitions, a.initial, a.accepting)


# ---------------------------------------------------------------------------
# Monitor -> NFA
# ---------------------------------------------------------------------------


class _Positions:
    """A monitor's transition system under rule system "N", on integers.

    One fold numbers the structurally distinct subterms, the positions,
    children first; one loop over them in that order then lists each
    position's strong steps in StepEngine's order: ``rec x.m`` steps to
    m, ``x`` to the binder of that name, a choice takes its summands'
    steps in turn, a verdict loops on every action.  A position with no
    rules, a free variable, or a choice over one of them keeps its error,
    raised only when a derivation reaches it.  Tau closures, moves and
    weak successors are found once, when first asked for.
    Binders are renamed apart first when two different ones share a name.
    ``verdicts`` maps each verdict value to its position.
    """

    def __init__(
        self, m: Monitor, alphabet: frozenset[str], cap: int = DEFAULT_CLOSURE_CAP
    ) -> None:
        self.symbols = tuple(sorted(alphabet))
        self.cap = cap
        if not self._number(m):  # a name bound by two different binders
            self._number(rename_apart(m, alphabet))

    def _number(self, m: Monitor) -> bool:
        nodes: list[Term] = []
        kids_of: list = []
        # One table per node class and label, keyed by the children's
        # positions (an int for a single child): keys that hold nothing
        # for the garbage collector to trace, and few tuples for the
        # allocator to keep once the tables are dropped.
        ids: defaultdict[tuple[type, str | None], dict] = defaultdict(dict)
        self._binders: dict[str, int] = {}
        self.verdicts: dict[str, int] = {}
        unique = True

        def number(t: Term, kids) -> int:
            nonlocal unique
            table = ids[t.__class__, t._label()]
            key = kids[0] if len(kids) == 1 else tuple(kids)
            i = table.get(key)
            if i is None:
                i = table[key] = len(nodes)
                nodes.append(t)
                kids_of.append(kids)
                if isinstance(t, Rec):
                    unique = unique and self._binders.setdefault(t.var, i) == i
                elif isinstance(t, Verdict):
                    self.verdicts[t.value] = i
            return i

        self.root = fold(m, number)
        if unique:
            self._compile(nodes, kids_of)
        return unique

    def _compile(self, nodes: list[Term], kids_of: list) -> None:
        """Each position's tau steps, and its other steps, each to target
        t on ``symbols[k]`` written as the number t * len(symbols) + k; a
        position's summands come before it, and every binder is known."""
        width = len(self.symbols)
        column = {y: k for k, y in enumerate(self.symbols)}
        taus: list[tuple[int, ...]] = [()] * len(nodes)
        acts: list[tuple[int, ...]] = [()] * len(nodes)
        errors: dict[int, Callable[[], TermError]] = {}
        for i, t in enumerate(nodes):
            kids = kids_of[i]
            if isinstance(t, Prefix):
                if t.action == TAU:
                    taus[i] = (kids[0],)
                elif t.action in column:
                    acts[i] = (kids[0] * width + column[t.action],)
            elif isinstance(t, Sum):
                taus[i] = sum([taus[s] for s in kids], ())
                acts[i] = sum([acts[s] for s in kids], ())
                if first := next((errors[s] for s in kids if s in errors), None):
                    errors[i] = first
            elif isinstance(t, Rec):
                taus[i] = (kids[0],)
            elif isinstance(t, Var) and t.name in self._binders:
                taus[i] = (self._binders[t.name],)
            elif isinstance(t, Var):
                message = f"variable {t.name!r} has no binder in this derivation"
                errors[i] = partial(FreeVariableError, message)
            elif isinstance(t, Verdict):
                acts[i] = tuple(range(i * width, (i + 1) * width))
            elif not isinstance(t, Nil):
                errors[i] = partial(TermError, f"no transition rules for {t!r}")
        self._taus, self._acts, self._errors = taus, acts, errors
        self._closures: list = [None] * len(nodes)
        self._moves: list = [None] * len(nodes)
        self._weak: dict[int, tuple[int, ...]] = {}

    def _tau(self, i: int) -> tuple[int, ...]:
        error = self._errors.get(i)
        if error is not None:
            raise error()
        return self._taus[i]

    def closure(self, i: int) -> tuple[int, ...]:
        """Position i's tau closure, in discovery order; CapExceeded once
        it holds more than `cap` positions."""
        c = self._closures[i]
        if c is None:
            taus = self._tau if self._errors else self._taus.__getitem__
            if not taus(i):
                return (i,)
            c = self._closures[i] = tuple(_reach((i,), taus, self.cap))
        return c

    def moves(self, i: int) -> list[tuple[int, ...]]:
        """The targets of the action steps of position i's tau closure,
        one tuple per symbol, each in discovery order."""
        out = self._moves[i]
        if out is None:
            c, acts, width = self.closure(i), self._acts, len(self.symbols)
            steps = acts[i] if len(c) == 1 else [x for p in c for x in acts[p]]
            buckets: list[dict[int, None]] = [{} for _ in range(width)]
            for x in steps:
                buckets[x % width][x // width] = None
            out = [tuple(b) for b in buckets]
            self._moves[i] = out
        return out

    def _join(self, targets: tuple[int, ...]) -> tuple[int, ...]:
        """The tau closures of `targets`, joined in discovery order."""
        if len(targets) == 1:
            return self.closure(targets[0])
        closure = self.closure
        return tuple(dict.fromkeys([q for t in targets for q in closure(t)]))

    def weak(self, i: int, k: int) -> tuple[int, ...]:
        """Position i's weak successors on ``symbols[k]``, the tau closures
        of its targets, in discovery order."""
        key = i * len(self.symbols) + k
        w = self._weak.get(key)
        if w is None:
            w = self._weak[key] = self._join(self.moves(i)[k])
        return w

    def reachable(self) -> list[int]:
        """The positions the root reaches by action steps, breadth-first;
        the first compile error a trace can reach is raised here."""
        return _reach((self.root,), lambda p: chain.from_iterable(self.moves(p)))

    def nfa(self, verdicts: tuple[str, ...], weak: bool = True) -> _Ix:
        """The unnamed NFA of the positions the root reaches by weak
        steps, numbered breadth-first, each state's successors in
        discovery order; a state's label has bit 1 << k where
        ``verdicts[k]`` lies in its tau closure.  Not `weak`, the states
        are the root and the action targets, each state's successors its
        moves: the same language and labels, on fewer states."""
        join = self._join if weak else tuple  # a tuple of moves is its own row
        number, order = {self.root: 0}, [self.root]
        succ: list[list[tuple[int, ...]]] = [[] for _ in self.symbols]
        for p in order:
            for targets, out in zip(self.moves(p), succ):
                row = []
                for q in join(targets):
                    j = number.get(q)
                    if j is None:
                        j = number[q] = len(order)
                        order.append(q)
                    row.append(j)
                out.append(tuple(row))
        goals = [(1 << k, self.verdicts.get(v, -1)) for k, v in enumerate(verdicts)]
        acc = bytearray(sum([bit for bit, g in goals if g in self.closure(p)]) for p in order)
        return _Ix(self.symbols, succ, 0, acc)


def monitor_to_nfa(
    m: Monitor, accept_verdict: str, alphabet: frozenset[str]
) -> Nfa:
    """The language automaton of a single-verdict monitor: states are the
    reachable subterms, named q0, q1, ... in breadth-first order, edges
    are weak steps, and exactly the traces on which the monitor can reach
    `accept_verdict` are accepted.  The state count never exceeds the
    monitor's size."""
    if accept_verdict not in (YES, NO):
        raise TermError("accept_verdict must be 'yes' or 'no'")
    other = NO if accept_verdict == YES else YES
    positions = _Positions(m, alphabet)
    if other in positions.verdicts:
        raise TermError(
            f"monitor carries the {other!r} verdict; not a {accept_verdict}-monitor"
        )
    ix = positions.nfa((accept_verdict,))
    n = len(ix.acc)
    ix.name = lambda: [f"q{i}" for i in range(n)]
    return _materialize(Nfa, alphabet, ix)


# ---------------------------------------------------------------------------
# Language operations
# ---------------------------------------------------------------------------


def member(a: Automaton, word: Iterable[str]) -> bool:
    ix = a._ix
    frontier = {ix.initial}
    for sym in word:
        k = ix.column.get(sym)
        if k is None:
            return False
        row = ix.succ[k]
        frontier = {j for i in frontier for j in row[i]}
        if not frontier:
            return False
    return any(ix.acc[i] for i in frontier)


def is_empty(a: Automaton) -> bool:
    ix = a._ix
    reach = _reach((ix.initial,), lambda i: chain.from_iterable(row[i] for row in ix.succ))
    return not any(ix.acc[i] for i in reach)


def _escapes(ix: _Ix) -> list[tuple[int, int]]:
    """The (accepting state, symbol) pairs without a successor that
    shares a label bit with the state."""
    acc = ix.acc
    return [
        (i, k)
        for i in range(len(acc)) if acc[i]
        for k, row in enumerate(ix.succ) if not any(acc[j] & acc[i] for j in row[i])
    ]


def is_irrevocable(a: Automaton) -> bool:
    """Once accepting, always able to stay accepting: every accepting
    state has, for every symbol, at least one accepting successor."""
    return not _escapes(a._ix)


def irrevocable_closure(a: Nfa) -> Nfa:
    """Add accepting self-loops wherever acceptance could be escaped."""
    ix = a._ix
    extra = {(ix.names[i], ix.symbols[k], ix.names[i]) for i, k in _escapes(ix)}
    return Nfa(a.states, a.alphabet, a.transitions | extra, a.initial, a.accepting)


# ---------------------------------------------------------------------------
# Subset construction and minimization
# ---------------------------------------------------------------------------

# A deterministic table: table[k][i] is i's successor on the k-th symbol,
# or -1 where the edge is missing.
_Table = list[list[int]]


class _Clash(Exception):
    """A subset holds both bits of a two-verdict labelling."""


def _determinize(
    ix: _Ix, symbols: tuple[str, ...], fail_fast: Callable[[], None] | None = None
) -> tuple[list[int | frozenset[int]], _Table, bytearray]:
    """Reachable-subset construction over `symbols`, which may hold
    symbols the automaton lacks: the subsets in the order found, the
    start first, one state as its number and more as a frozenset; their
    table, the empty subset left out as -1; and each subset's label, the
    OR of its members', found with it: _Clash at the first with both
    bits of a two-verdict labelling.  `fail_fast` runs once the subsets
    outnumber the pairs of states.  Successor lists become frozensets
    only at the first larger subset."""
    none = [()] * len(ix.acc)
    rows = [ix.succ[k] if (k := ix.column.get(y)) is not None else none for y in symbols]
    ones = {q for q, f in enumerate(ix.acc) if f & 1}
    twos = {q for q, f in enumerate(ix.acc) if f & 2}
    number: dict[int | frozenset[int], int] = {ix.initial: 0}
    subsets: list[int | frozenset[int]] = [ix.initial]
    acc = bytearray([ix.acc[ix.initial]])
    if acc[0] == 3:  # both verdicts on the empty trace
        raise _Clash
    table: _Table = [[] for _ in symbols]
    sets = False
    pairs = len(ix.acc) ** 2
    for subset in subsets:
        if fail_fast and len(subsets) > pairs:
            fail_fast = fail_fast()  # returns None: it runs once
        single = type(subset) is int
        if not (single or sets):
            rows, sets = [[frozenset(t) for t in row] for row in rows], True
        for row, out in zip(rows, table):
            key = row[subset] if single else frozenset().union(*[row[q] for q in subset])
            if len(key) == 1:
                (key,) = key
            elif not key:
                out.append(-1)
                continue
            elif not sets:
                key = frozenset(key)
            t = number.get(key)
            if t is None:
                t = number[key] = len(subsets)
                subsets.append(key)
                f = ix.acc[key] if type(key) is int else (
                    (not ones.isdisjoint(key)) | (not twos.isdisjoint(key)) << 1)
                if f == 3:
                    raise _Clash
                acc.append(f)
            out.append(t)
    return subsets, table, acc


def _minimal(table: _Table, acc: bytearray, initial: int) -> tuple[_Table, bytearray]:
    """The total minimal DFA of a table's language, numbered breadth-first
    from the initial state (0) with symbols in order.

    Unreachable states are dropped and a reject sink closes the missing
    edges; Hopcroft's refinement then splits the partition by label, all
    its blocks but a largest one waiting.  Each block popped from the
    worklist splits every block by its predecessors on each symbol; of a
    block that splits, only the smaller half joins the worklist unless
    the block was waiting there already, so a state lies in O(log n)
    splitters: O(k n log n) for k symbols and n states.
    """
    number = [-1] * len(acc)
    number[initial] = 0
    reach = [initial]
    for q in reach:
        for out in table:
            t = out[q]
            if t >= 0 and number[t] < 0:
                number[t] = len(reach)
                reach.append(t)
    n = len(reach)
    delta = [[out[q] for q in reach] for out in table]
    final = [acc[q] for q in reach]
    if any(-1 in row for row in delta):
        delta = [[number[t] if t >= 0 else n for t in row] + [n] for row in delta]
        final.append(0)
        n += 1
    else:
        delta = [[number[t] for t in row] for row in delta]

    pred: list[list[list[int]]] = []
    for row in delta:
        into: list[list[int]] = [[] for _ in range(n)]
        for q, t in enumerate(row):
            into[t].append(q)
        pred.append(into)

    block_of = list(final)
    blocks: list[set[int]] = [set() for _ in range(max(final) + 1)]
    for q, f in enumerate(final):
        blocks[f].add(q)
    work = set(range(len(blocks)))
    work.remove(blocks.index(max(blocks, key=len)))
    while work:
        splitter = list(blocks[work.pop()])
        for into in pred:
            touched: dict[int, list[int]] = {}
            for q in splitter:
                for p in into[q]:
                    b = block_of[p]
                    if b in touched:
                        touched[b].append(p)
                    else:
                        touched[b] = [p]
            for b, inside in touched.items():
                block = blocks[b]
                if len(inside) == len(block):
                    continue
                if 2 * len(inside) <= len(block):
                    moved = set(inside)
                else:
                    moved = block.difference(inside)
                block -= moved
                nb = len(blocks)
                blocks.append(moved)
                for p in moved:
                    block_of[p] = nb
                work.add(nb)

    canon = [-1] * len(blocks)
    canon[block_of[0]] = 0
    reps = [0]
    minimal: _Table = [[] for _ in delta]
    for q in reps:
        for row, out in zip(delta, minimal):
            t = row[q]
            j = canon[block_of[t]]
            if j < 0:
                j = canon[block_of[t]] = len(reps)
                reps.append(t)
            out.append(j)
    return minimal, bytearray(final[q] for q in reps)


def _as_succ(table: _Table) -> list[list[tuple[int, ...]]]:
    return [[(j,) if j >= 0 else () for j in out] for out in table]


def subset_construction(a: Nfa) -> Dfa:
    """Reachable-subset determinization.  The empty subset is left out,
    so the result may be partial.  A subset state is named by its
    members' names in sorted order, joined with '+'; TermError when two
    states would share a name."""
    ix = a._ix
    subsets, table, acc = _determinize(ix, ix.symbols)
    out = _Ix(ix.symbols, _as_succ(table), 0, acc, lambda: _subset_names(ix.names, subsets))
    # Subset names can collide only when some state's name holds '+'; no
    # generated name does, so only names made already (as an automaton
    # built from its fields has them) can, and they are checked now.
    if "names" in vars(ix) and any("+" in q for q in ix.names):
        out.names = _subset_names(ix.names, subsets)
    return _materialize(Dfa, a.alphabet, out)


def _subset_names(names: list[str], subsets: list[int | frozenset[int]]) -> list[str]:
    """Each subset's name: its members' names in sorted order, joined
    with '+'; TermError when two subsets come out with one name."""
    out = [names[s] if type(s) is int else "+".join(sorted([names[q] for q in s]))
           for s in subsets]
    if len(set(out)) < len(out):
        twice = next(q for q in out if out.count(q) > 1)
        raise TermError(f"two subset states are named {twice!r}; state names that hold '+' collide")
    return out


def minimize_dfa(d: Dfa) -> Dfa:
    """The minimal *total* DFA for d's language, canonically named.

    Unreachable states are dropped, a reject sink is added if any
    reachable transition is missing, and states are merged by partition
    refinement.  Canonical naming (breadth-first, symbols in sorted
    order) makes equal-language inputs come out structurally identical.
    """
    ix = d._ix
    table = [[t[0] if t else -1 for t in row] for row in ix.succ]
    out, acc = _minimal(table, ix.acc, ix.initial)
    n = len(acc)
    return _materialize(Dfa, d.alphabet, _Ix(
        ix.symbols, _as_succ(out), 0, acc, lambda: [f"s{i}" for i in range(n)]))


def _subset_steps(moves: Callable, width: int) -> Callable:
    """The subset construction, lazily: step(s) is subset s's successor
    on each of `width` symbols, kept once found, where moves(i) gives
    state i's targets per symbol.  A subset of one state is its number,
    any other a frozenset of numbers."""
    memo: dict = {}

    def step(s: int | frozenset[int]) -> tuple[int | frozenset[int], ...]:
        out = memo.get(s)
        if out is None:
            if type(s) is int:
                rows = [r[0] if len(r) == 1 else frozenset(r) for r in moves(s)]
            else:
                ms = [moves(q) for q in s]
                unions = [frozenset().union(*[m[k] for m in ms]) for k in range(width)]
                rows = [next(iter(r)) if len(r) == 1 else r for r in unions]
            out = memo[s] = tuple(rows)
        return out

    return step


def _difference(symbols: tuple[str, ...], a: tuple, b: tuple) -> tuple[str, ...] | None:
    """A shortest word over `symbols` accepted by exactly one side, the
    least in lexicographic order among the shortest, or None when their
    languages coincide.  A side is (step of _subset_steps, initial state,
    accepting states); a breadth-first walk, symbols in order, goes over
    the pairs of subsets the two sides reach, each met as it is needed."""
    (step_a, start_a, acc_a), (step_b, start_b, acc_b) = a, b

    def goal(pair: tuple) -> bool:
        s, t = pair
        return (s in acc_a if type(s) is int else not acc_a.isdisjoint(s)) != (
            t in acc_b if type(t) is int else not acc_b.isdisjoint(t))

    edges = lambda pair: zip(symbols, zip(step_a(pair[0]), step_b(pair[1])))
    return _shortest_word([(start_a, start_b)], edges, goal)


def _shortest_word(starts: Iterable, edges, goal) -> tuple[str, ...] | None:
    """Breadth-first search from `starts`, where edges(node) lists the
    node's (symbol, node) edges in order: the symbols along a shortest
    path to a node where goal holds, or None when there is none."""
    parents: dict = dict.fromkeys(starts)
    queue = deque(parents)
    while queue:
        node = queue.popleft()
        if goal(node):
            word: list[str] = []
            link = parents[node]
            while link is not None:
                node, sym = link
                word.append(sym)
                link = parents[node]
            return tuple(reversed(word))
        for sym, nxt in edges(node):
            if nxt not in parents:
                parents[nxt] = (node, sym)
                queue.append(nxt)
    return None


def language_equiv(a: Automaton, b: Automaton) -> bool:
    """Exact language equality, by the walk of distinguishing_word."""
    return distinguishing_word(a, b) is None


def distinguishing_word(a: Automaton, b: Automaton) -> tuple[str, ...] | None:
    """A shortest word accepted by exactly one of the two automata, the
    least in lexicographic order among the shortest, or None when their
    languages coincide.  A symbol outside an automaton's alphabet takes
    it to no state."""
    symbols = tuple(sorted(a.alphabet | b.alphabet))

    def side(ix: _Ix) -> tuple:
        none = [()] * len(ix.acc)
        rows = [ix.succ[k] if (k := ix.column.get(y)) is not None else none for y in symbols]
        step = _subset_steps(lambda i: [row[i] for row in rows], len(rows))
        return step, ix.initial, {i for i, f in enumerate(ix.acc) if f}

    return _difference(symbols, side(a._ix), side(b._ix))


# ---------------------------------------------------------------------------
# Automaton -> monitor
# ---------------------------------------------------------------------------

NFA_MONITOR_CAP = 10
DFA_MONITOR_CAP = 12
_MAX_PATHS = 1_000_000


def _unfold(ix: _Ix, cap: int, force: bool, verdicts: tuple[str, ...] = (YES,)) -> Monitor:
    """The loop-free-path unfolding of an irrevocable automaton's index,
    its states of label 1 << k read as one absorbing goal, the verdict
    ``verdicts[k]``: TermError when a label can be escaped, CapExceeded
    above `cap` states unless forced.

    A state's edges, and so its children, come in edge order: by symbol,
    and on one symbol the goals first, then the other targets in the
    order of the table (nfa_to_monitor sorts them by name first).  A
    path node becomes a binder only when a back-edge names it; binders
    are named x0, x1, ... as their first back-edge is met, so on a DFA
    the output does not depend on how the states are numbered."""
    if _escapes(ix):
        raise TermError("the automaton is not irrevocable; close it first")
    acc = ix.acc
    if len(acc) > cap and not force:
        raise CapExceeded(
            f"{len(acc)} states exceeds the cap of {cap}; pass force=True to unfold anyway"
        )
    goals = {1 << k: Verdict(v) for k, v in enumerate(verdicts)}
    if acc[ix.initial]:
        return goals[acc[ix.initial]]

    # Keep only states that can still reach acceptance.
    rev: list[list[int]] = [[] for _ in acc]
    for row in ix.succ:
        for s, targets in enumerate(row):
            for t in targets:
                rev[t].append(s)
    live = bytearray(len(acc))
    for p in _reach([i for i, f in enumerate(acc) if f], rev.__getitem__):
        live[p] = 1
    if not live[ix.initial]:
        return Verdict(END)

    # Each state's edges into live states, in edge order; the goal of
    # label f is -f.
    edges: list[list[tuple[str, int]]] = [[] for _ in acc]
    for s, out in enumerate(edges):
        for y, row in zip(ix.symbols, ix.succ) if live[s] and not acc[s] else ():
            hit = 0
            for t in row[s]:
                hit |= acc[t]
            if hit:
                out.extend((y, -f) for f in goals if f & hit)
            out.extend((y, t) for t in row[s] if live[t] and not acc[t])

    # The states on the current path, each with its binder once a
    # back-edge names it.  fold walks depth-first: entering a state puts
    # it on the path and lists one child per target off the path (so a
    # binder in it stays singly bound), which fold asks for next and hands
    # the build as its environment; building takes the state off.
    on_path: dict[int, str | None] = {}
    visit: list[int] = []
    fresh, visits = count(), count(1)
    shared = {(y, -f): Prefix(y, v) for y in ix.symbols for f, v in goals.items()}

    def enter(s: int, env: None) -> list[int]:
        nonlocal visit
        if next(visits) > _MAX_PATHS:
            raise CapExceeded("path unfolding grew past the internal limit")
        on_path[s] = None
        visit = list(dict.fromkeys(t for _, t in edges[s] if t >= 0 and t not in on_path))
        return visit

    def build(s: int, kids, targets: list[int]) -> Monitor:
        built = dict(zip(targets, kids))
        summands: list[Monitor] = []
        for sym, t in edges[s]:
            if t < 0:
                summands.append(shared[sym, t])
            elif t in built:
                summands.append(Prefix(sym, built[t]))
            else:
                name = on_path[t]
                if name is None:
                    name = on_path[t] = f"x{next(fresh)}"
                summands.append(Prefix(sym, Var(name)))
        name = on_path.pop(s)
        if not summands:
            return Verdict(END)
        # Every summand is a prefix, so the choice is flat as it stands.
        body = summands[0] if len(summands) == 1 else Sum(tuple(summands))
        return body if name is None else Rec(name, body)

    return fold(ix.initial, build, enter, children=lambda s: visit)


def _determinized(nfa: _Ix, force: bool, verdicts: tuple[str, ...], fail_fast=None) -> Monitor:
    """The deterministic monitor of an unnamed NFA table: its subsets
    (`fail_fast` as _determinize takes it), minimized and unfolded with
    ``verdicts[k]`` on each edge into a state of label 1 << k, under
    DFA_MONITOR_CAP unless forced.  The minimal table is numbered
    canonically, so the output depends only on the NFA's language and
    labels."""
    table, labels = _minimal(*_determinize(nfa, nfa.symbols, fail_fast)[1:], 0)
    dfa = _Ix(nfa.symbols, _as_succ(table), 0, labels)
    return _unfold(dfa, DFA_MONITOR_CAP, force, verdicts)


def nfa_to_monitor(a: Automaton, force: bool = False) -> Monitor:
    """An acceptance monitor recognising the language of an irrevocable
    NFA.  Exponential in the worst case; refuses automata above
    NFA_MONITOR_CAP states unless forced.  Targets on one symbol are
    unfolded in the order of their names."""
    ix, key = a._ix, a._ix.names.__getitem__
    succ = [[tuple(sorted(ts, key=key)) for ts in row] for row in ix.succ]
    return _unfold(_Ix(ix.symbols, succ, ix.initial, ix.acc), NFA_MONITOR_CAP, force)


def dfa_to_monitor(d: Dfa, force: bool = False) -> Monitor:
    """Like nfa_to_monitor for a DFA, with the cap DFA_MONITOR_CAP; the
    result is deterministic."""
    return _unfold(d._ix, DFA_MONITOR_CAP, force)


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------

def parse_automaton(text: str) -> Automaton:
    kind = "nfa"
    states: list[str] = []
    alphabet: list[str] = []
    initial: str | None = None
    accepting: list[str] = []
    transitions: list[tuple[str, str, str]] = []
    lists = {"states": states, "alphabet": alphabet, "accepting": accepting}
    keys = ("type", "initial", *lists)
    for _, raw, key, value in file_lines(text, keys):
        if key == "type":
            if value not in ("nfa", "dfa"):
                raise TermError(f"automaton type must be nfa or dfa, not {value!r}")
            kind = value
        elif key == "initial":
            initial = value
        elif key is not None:
            lists[key].extend(comma_list(value))
        else:
            m = TRANSITION.match(value)
            if m is None:
                raise TermError(f"cannot parse automaton line: {raw!r}")
            transitions.append(m.groups())
    if initial is None:
        raise TermError("automaton file needs an 'initial:' line")
    cls = Dfa if kind == "dfa" else Nfa
    return cls(
        frozenset(states), frozenset(alphabet), frozenset(transitions),
        initial, frozenset(accepting),
    )


def format_automaton(a: Automaton) -> str:
    lines = [
        f"type: {'dfa' if isinstance(a, Dfa) else 'nfa'}",
        f"states: {', '.join(sorted(a.states))}",
        f"alphabet: {', '.join(sorted(a.alphabet))}",
        f"initial: {a.initial}",
        f"accepting: {', '.join(sorted(a.accepting))}",
    ]
    for src, sym, dst in sorted(a.transitions):
        lines.append(f"{src} -{sym}-> {dst}")
    return "\n".join(lines) + "\n"
