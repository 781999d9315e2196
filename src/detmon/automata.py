"""Finite automata over action alphabets, and the monitor round trips.

A monitor becomes an NFA in one indexed compile, a position automaton:
rule system "N" never leaves the monitor's own subterms, so the states
are its structurally distinct subterms, numbered in one fold, and the
edges are weak steps.  Determinization is the subset construction;
minimization always returns the total minimal DFA, completing with a
reject sink first, so equal languages give structurally identical
automata after canonical renaming.

Every operation runs on one indexed form, built once per automaton: states
are dense integers, each symbol has one successor list, and acceptance is
a bitmap.  A stage's output names its states only when its fields are read.

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
from itertools import chain, count
from typing import Iterable, Union

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
    mk_sum,
    rename_apart,
)


class _Ix:
    """The indexed form of an automaton.

    State i is ``names[i]``, numbered in sorted name order, so sorting
    ids sorts names; ``succ[k][i]`` is the sorted tuple of i's successors
    on ``symbols[k]``, symbols sorted too; ``acc[i]`` is 1 when i accepts.
    A table only compared, never materialized, has no names (None).
    """

    __slots__ = ("names", "ids", "symbols", "column", "succ", "initial", "acc")

    def __init__(
        self, names: list[str] | None, symbols: tuple[str, ...],
        succ: list[list[tuple[int, ...]]], initial: int, acc: bytearray,
    ) -> None:
        self.names = names
        self.ids = {q: i for i, q in enumerate(names or ())}
        self.symbols = symbols
        self.column = {y: k for k, y in enumerate(symbols)}
        self.succ = succ
        self.initial = initial
        self.acc = acc


def _index(a: Automaton, deterministic: bool) -> _Ix:
    """Check an automaton's fields and build its indexed form."""
    if a.initial not in a.states:
        raise TermError(f"initial state {a.initial!r} is not a state")
    if not a.accepting <= a.states:
        raise TermError("accepting states must be states")
    names = sorted(a.states)
    symbols = tuple(sorted(a.alphabet))
    succ: list[list[tuple[int, ...]]] = [[()] * len(names) for _ in symbols]
    ix = _Ix(names, symbols, succ, 0, bytearray(len(names)))
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


def _materialize(
    cls: type, names: list[str], alphabet: frozenset[str], symbols: tuple[str, ...],
    succ: list[list[tuple[int, ...]]], acc: bytearray,
) -> Automaton:
    """The automaton of a table whose state i is called names[i], 0
    initial: its index is the table renumbered in sorted name order, and
    its fields are named on first read.  Names that collide (subset names
    made of names that hold '+') take the checked constructor."""
    perm = sorted(range(len(names)), key=names.__getitem__)
    new = [0] * len(perm)
    for pos, i in enumerate(perm):
        new[i] = pos
    rows = [
        [(new[ts[0]],) if len(ts) == 1 else tuple(sorted([new[j] for j in ts]))
         for ts in [row[i] for i in perm]]
        for row in succ
    ]
    ix = _Ix([names[i] for i in perm], symbols, rows, new[0], bytearray(acc[i] for i in perm))
    a = object.__new__(cls)
    a.__dict__.update(alphabet=alphabet, _ix=ix)
    if len(ix.ids) != len(names):
        return cls(a.states, alphabet, a.transitions, a.initial, a.accepting)
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
        return [ix.names[j] for j in ix.succ[k][i]]


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

    One fold numbers the structurally distinct subterms, the positions;
    a position's strong steps, tau closure and weak successors are found
    once, when a derivation first reaches it, in StepEngine's order:
    ``rec x.m`` steps to m, ``x`` to the binder of that name, a choice
    takes its summands' steps in turn, a verdict loops on every action.
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
        n = len(self._nodes)
        self._steps: list = [None] * n
        self._closures: list = [None] * n
        self._weak = [[None] * n for _ in self.symbols]

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
        self._nodes, self._kids = nodes, kids_of
        return unique

    def steps(self, i: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Position i's tau steps, and its other steps, each to target t
        on ``symbols[k]`` written as the number t * len(symbols) + k."""
        out = self._steps[i]
        if out is None:
            t, kids = self._nodes[i], self._kids[i]
            taus, moves = (), ()
            if isinstance(t, Prefix):
                if t.action == TAU:
                    taus = (kids[0],)
                elif t.action in self.symbols:
                    moves = (kids[0] * len(self.symbols) + self.symbols.index(t.action),)
            elif isinstance(t, Sum):
                parts = [self.steps(s) for s in kids]
                taus = tuple(chain.from_iterable(p[0] for p in parts))
                moves = tuple(chain.from_iterable(p[1] for p in parts))
            elif isinstance(t, Rec):
                taus = (kids[0],)
            elif isinstance(t, Var):
                if t.name not in self._binders:
                    raise FreeVariableError(
                        f"variable {t.name!r} has no binder in this derivation"
                    )
                taus = (self._binders[t.name],)
            elif isinstance(t, Verdict):
                moves = tuple(range(i * len(self.symbols), (i + 1) * len(self.symbols)))
            elif not isinstance(t, Nil):
                raise TermError(f"no transition rules for {t!r}")
            out = self._steps[i] = (taus, moves)
        return out

    def closure(self, i: int) -> tuple[int, ...]:
        """Position i's tau closure, in discovery order; CapExceeded once
        it holds more than `cap` positions."""
        c = self._closures[i]
        if c is None:
            taus = lambda j: self.steps(j)[0]
            if not taus(i):
                return (i,)
            c = self._closures[i] = tuple(_reach((i,), taus, self.cap))
        return c

    def targets(self, i: int, k: int) -> tuple[int, ...]:
        """The targets of the ``symbols[k]`` steps of position i's tau
        closure, in discovery order."""
        steps, n = self.steps, len(self.symbols)
        moves = (c for p in self.closure(i) for c in steps(p)[1] if c % n == k)
        return tuple(dict.fromkeys(c // n for c in moves))

    def weak(self, i: int, k: int) -> tuple[int, ...]:
        """Position i's weak successors on ``symbols[k]``, the tau closures
        of its targets, in discovery order."""
        w = self._weak[k][i]
        if w is None:
            closure = self.closure
            w = tuple(dict.fromkeys(q for t in self.targets(i, k) for q in closure(t)))
            self._weak[k][i] = w
        return w

    def nfa(self, verdict: str, weak: bool = True) -> _Ix:
        """The unnamed NFA of the positions reachable from the root,
        numbered breadth-first; a state accepts where `verdict` lies in its
        tau closure.  Its edges are weak steps, or with weak=False only
        the targets: fewer states, the same language."""
        successors = self.weak if weak else self.targets
        order, number = [self.root], {self.root: 0}
        succ: list[list[tuple[int, ...]]] = [[] for _ in self.symbols]
        for p in order:  # the list grows while it is walked
            for k, out in enumerate(succ):
                targets = []
                for q in successors(p, k):
                    if q not in number:
                        number[q] = len(order)
                        order.append(q)
                    targets.append(number[q])
                out.append(tuple(targets))
        target = self.verdicts.get(verdict, -1)
        acc = bytearray(target in self.closure(p) for p in order)
        return _Ix(None, self.symbols, succ, 0, acc)


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
    ix = positions.nfa(accept_verdict)
    names = [f"q{i}" for i in range(len(ix.acc))]
    return _materialize(Nfa, names, alphabet, ix.symbols, ix.succ, ix.acc)


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
    seen = bytearray(len(ix.acc))
    seen[ix.initial] = 1
    stack = [ix.initial]
    while stack:
        i = stack.pop()
        if ix.acc[i]:
            return False
        for row in ix.succ:
            for j in row[i]:
                if not seen[j]:
                    seen[j] = 1
                    stack.append(j)
    return True


def _escapes(ix: _Ix) -> list[tuple[int, int]]:
    """The (accepting state, symbol) pairs without an accepting successor."""
    acc = ix.acc
    return [
        (i, k)
        for i in range(len(acc)) if acc[i]
        for k, row in enumerate(ix.succ) if not any(acc[j] for j in row[i])
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


def _determinize(
    ix: _Ix, symbols: tuple[str, ...]
) -> tuple[list[int | frozenset[int]], _Table, bytearray]:
    """Reachable-subset construction over `symbols`, which may hold
    symbols the automaton lacks: the subsets in the order found, the
    start first, one state as its number and more as a frozenset; their
    table, the empty subset left out as -1; and which subsets accept.
    Successor lists become frozensets only at the first larger subset."""
    none = [()] * len(ix.acc)
    rows = [ix.succ[k] if (k := ix.column.get(y)) is not None else none for y in symbols]
    number: dict[int | frozenset[int], int] = {ix.initial: 0}
    subsets: list[int | frozenset[int]] = [ix.initial]
    table: _Table = [[] for _ in symbols]
    sets = False
    for subset in subsets:
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
            out.append(t)
    accepting = {q for q, f in enumerate(ix.acc) if f}
    return subsets, table, bytearray(
        ix.acc[s] if type(s) is int else not accepting.isdisjoint(s) for s in subsets
    )


def _minimal(table: _Table, acc: bytearray, initial: int) -> tuple[_Table, bytearray]:
    """The total minimal DFA of a table's language, numbered breadth-first
    from the initial state (0) with symbols in order.

    Unreachable states are dropped and a reject sink closes the missing
    edges; Hopcroft's refinement then splits the accepting/rejecting
    partition.  Each block popped from the worklist splits every block
    by its predecessors on each symbol; of a block that splits, only the
    smaller half joins the worklist unless the block was waiting there
    already, so a state lies in O(log n) splitters: O(k n log n) for k
    symbols and n states.
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

    block_of = [0 if f else 1 for f in final]
    accepting = {q for q in range(n) if final[q]}
    blocks = [accepting, set(range(n)) - accepting]
    if not blocks[0] or not blocks[1]:
        work: set[int] = set()
    else:
        work = {0 if len(blocks[0]) <= len(blocks[1]) else 1}
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
    members' names in sorted order, joined with '+'."""
    ix = a._ix
    subsets, table, acc = _determinize(ix, ix.symbols)
    n = ix.names
    names = [n[s] if type(s) is int else "+".join([n[q] for q in sorted(s)]) for s in subsets]
    return _materialize(Dfa, names, a.alphabet, ix.symbols, _as_succ(table), acc)


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
    names = [f"s{i}" for i in range(len(acc))]
    return _materialize(Dfa, names, d.alphabet, ix.symbols, _as_succ(out), acc)


def _difference(a: _Ix, b: _Ix, symbols: tuple[str, ...]) -> tuple[str, ...] | None:
    """A shortest word over `symbols` accepted by exactly one of two
    indexes, or None when their languages coincide: the canonical minimal
    tables are compared, then searched breadth-first in product."""
    (ta, fa), (tb, fb) = [_minimal(*_determinize(x, symbols)[1:], 0) for x in (a, b)]
    if (ta, fa) == (tb, fb):
        return None

    def edges(pair: tuple[int, int]):
        return [(y, (ta[k][pair[0]], tb[k][pair[1]])) for k, y in enumerate(symbols)]

    return _shortest_word([(0, 0)], edges, lambda pair: fa[pair[0]] != fb[pair[1]])


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
    """Exact language equality, by canonical minimal DFAs."""
    return distinguishing_word(a, b) is None


def distinguishing_word(a: Automaton, b: Automaton) -> tuple[str, ...] | None:
    """A shortest word accepted by exactly one of the two automata, or
    None when their languages coincide."""
    return _difference(a._ix, b._ix, tuple(sorted(a.alphabet | b.alphabet)))


# ---------------------------------------------------------------------------
# Automaton -> monitor
# ---------------------------------------------------------------------------

NFA_MONITOR_CAP = 10
DFA_MONITOR_CAP = 12
_MAX_PATHS = 1_000_000


def _unfold(ix: _Ix, cap: int, force: bool) -> Monitor:
    """The loop-free-path unfolding of an irrevocable automaton's index,
    its accepting states read as one absorbing goal: TermError when
    acceptance can be escaped, CapExceeded above `cap` states unless
    forced.

    A state's edges, and so its children, come in edge order: by symbol,
    and on one symbol the goal first, then the other targets by state.  A
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
    if acc[ix.initial]:
        return Verdict(YES)

    # Keep only states that can still reach acceptance.
    rev: list[list[int]] = [[] for _ in acc]
    for row in ix.succ:
        for s, targets in enumerate(row):
            for t in targets:
                rev[t].append(s)
    live = bytearray(acc)
    stack = [i for i, f in enumerate(acc) if f]
    while stack:
        for p in rev[stack.pop()]:
            if not live[p]:
                live[p] = 1
                stack.append(p)
    if not live[ix.initial]:
        return Verdict(END)

    # Each state's edges into live states, in edge order; the goal is -1.
    edges: list[list[tuple[str, int]]] = [[] for _ in acc]
    for s, out in enumerate(edges):
        for y, row in zip(ix.symbols, ix.succ) if live[s] and not acc[s] else ():
            if any(acc[t] for t in row[s]):
                out.append((y, -1))
            out.extend((y, t) for t in row[s] if live[t] and not acc[t])

    # The states on the current path, each with its binder once a
    # back-edge names it.  fold walks depth-first, so entering a state
    # puts it on the path and building it takes it off.
    on_path: dict[int, str | None] = {}

    def targets(s: int) -> list[int]:
        # One extension per target, so parallel edges to it share a single
        # node (a binder in it stays singly bound).
        return list(dict.fromkeys(t for _, t in edges[s] if t >= 0 and t not in on_path))

    fresh, visits = count(), count(1)

    def enter(s: int, env: None) -> None:
        if next(visits) > _MAX_PATHS:
            raise CapExceeded("path unfolding grew past the internal limit")
        on_path[s] = None

    def build(s: int, kids, env: None) -> Monitor:
        built = dict(zip(targets(s), kids))
        summands: list[Monitor] = []
        for sym, t in edges[s]:
            if t < 0:
                summands.append(Prefix(sym, Verdict(YES)))
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
        body = mk_sum(summands)
        return body if name is None else Rec(name, body)

    return fold(ix.initial, build, enter, children=targets)


def nfa_to_monitor(a: Automaton, force: bool = False) -> Monitor:
    """An acceptance monitor recognising the language of an irrevocable
    NFA.  Exponential in the worst case; refuses automata above
    NFA_MONITOR_CAP states unless forced."""
    return _unfold(a._ix, NFA_MONITOR_CAP, force)


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
