"""Finite automata over action alphabets, and the monitor round trips.

A monitor becomes an NFA whose states are the subterms it can reach
(recursion handled binder-style, so the state space never grows past the
monitor's size) and whose edges are weak steps.  Determinization is the
subset construction; minimization always returns the total minimal DFA,
completing with a reject sink first, so equal languages give structurally
identical automata after canonical renaming.

The way back — an automaton as a monitor — requires the automaton to be
*irrevocable* (acceptance can never be escaped), mirroring how a verdict
can never be retracted.  All accepting states then collapse into a single
absorbing one and every loop-free path becomes a recursion binder, which
is exponential in general; small caps guard against accidental blow-ups
and can be overridden.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Union

from .semantics import CapExceeded, StepEngine, binders_apart
from .terms import (
    END,
    NO,
    YES,
    Monitor,
    Prefix,
    Rec,
    Term,
    TermError,
    Var,
    Verdict,
    fold,
    mk_sum,
    verdicts_in,
)


@dataclass(frozen=True)
class Nfa:
    states: frozenset[str]
    alphabet: frozenset[str]
    transitions: frozenset[tuple[str, str, str]]
    initial: str
    accepting: frozenset[str]

    def __post_init__(self) -> None:
        if self.initial not in self.states:
            raise TermError(f"initial state {self.initial!r} is not a state")
        if not self.accepting <= self.states:
            raise TermError("accepting states must be states")
        for src, sym, dst in self.transitions:
            if src not in self.states or dst not in self.states:
                raise TermError(f"transition touches unknown state: {src}->{dst}")
            if sym not in self.alphabet:
                raise TermError(f"transition label {sym!r} is not in the alphabet")

    def succ(self, state: str, symbol: str) -> list[str]:
        return sorted(d for s, y, d in self.transitions if s == state and y == symbol)


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
        if self.initial not in self.states:
            raise TermError(f"initial state {self.initial!r} is not a state")
        if not self.accepting <= self.states:
            raise TermError("accepting states must be states")
        seen: set[tuple[str, str]] = set()
        for src, sym, dst in self.transitions:
            if src not in self.states or dst not in self.states:
                raise TermError(f"transition touches unknown state: {src}->{dst}")
            if sym not in self.alphabet:
                raise TermError(f"transition label {sym!r} is not in the alphabet")
            if (src, sym) in seen:
                raise TermError(f"nondeterministic on ({src!r}, {sym!r})")
            seen.add((src, sym))

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


def _monitor_nfa(
    m: Monitor, alphabet: frozenset[str], accept_verdict: str
) -> tuple[Nfa, dict[str, Term]]:
    m, binders = binders_apart(m, alphabet)
    engine = StepEngine(alphabet, "N", binders)
    target = Verdict(accept_verdict)
    ids: dict[Term, str] = {}
    order: list[Term] = []

    def id_of(t: Term) -> str:
        if t not in ids:
            ids[t] = f"q{len(order)}"
            order.append(t)
        return ids[t]

    id_of(m)
    transitions: set[tuple[str, str, str]] = set()
    i = 0
    while i < len(order):
        q = order[i]
        for a in sorted(alphabet):
            for q2 in engine.weak_successors(q, a):
                transitions.add((ids[q], a, id_of(q2)))
        i += 1
    # A state accepts when the verdict sits in its tau closure; this only
    # matters for the initial state (weak successors are already closed,
    # so later frontiers contain the verdict term itself).
    accepting = frozenset(
        ids[t] for t in order if target in engine.tau_closure(t)
    )
    nfa = Nfa(frozenset(ids.values()), alphabet, frozenset(transitions), ids[m], accepting)
    return nfa, {ids[t]: t for t in order}


def monitor_to_nfa(
    m: Monitor, accept_verdict: str, alphabet: frozenset[str]
) -> Nfa:
    """The language automaton of a single-verdict monitor: states are the
    reachable subterms, edges are weak steps, and exactly the traces on
    which the monitor can reach `accept_verdict` are accepted.  The state
    count never exceeds the monitor's size."""
    if accept_verdict not in (YES, NO):
        raise TermError("accept_verdict must be 'yes' or 'no'")
    other = NO if accept_verdict == YES else YES
    present = verdicts_in(m)
    if other in present:
        raise TermError(
            f"monitor carries the {other!r} verdict; not a {accept_verdict}-monitor"
        )
    nfa, _ = _monitor_nfa(m, alphabet, accept_verdict)
    return nfa


# ---------------------------------------------------------------------------
# Language operations
# ---------------------------------------------------------------------------


def member(a: Automaton, word: Iterable[str]) -> bool:
    nfa = as_nfa(a)
    frontier = {nfa.initial}
    for sym in word:
        frontier = {d for s, y, d in nfa.transitions if s in frontier and y == sym}
        if not frontier:
            return False
    return bool(frontier & nfa.accepting)


def is_empty(a: Automaton) -> bool:
    nfa = as_nfa(a)
    seen = {nfa.initial}
    queue = deque(seen)
    while queue:
        q = queue.popleft()
        if q in nfa.accepting:
            return False
        for s, _, d in nfa.transitions:
            if s == q and d not in seen:
                seen.add(d)
                queue.append(d)
    return True


def is_irrevocable(a: Automaton) -> bool:
    """Once accepting, always able to stay accepting: every accepting
    state has, for every symbol, at least one accepting successor."""
    nfa = as_nfa(a)
    for q in nfa.accepting:
        for sym in nfa.alphabet:
            if not any(d in nfa.accepting for d in nfa.succ(q, sym)):
                return False
    return True


def irrevocable_closure(a: Nfa) -> Nfa:
    """Add accepting self-loops wherever acceptance could be escaped."""
    extra: set[tuple[str, str, str]] = set()
    for q in a.accepting:
        for sym in a.alphabet:
            if not any(d in a.accepting for d in a.succ(q, sym)):
                extra.add((q, sym, q))
    return Nfa(a.states, a.alphabet, a.transitions | extra, a.initial, a.accepting)


# ---------------------------------------------------------------------------
# Subset construction and minimization
# ---------------------------------------------------------------------------


def subset_construction(a: Nfa) -> Dfa:
    """Reachable-subset determinization.  The empty subset is left out,
    so the result may be partial."""
    succ: dict[tuple[str, str], set[str]] = {}
    for s, y, d in a.transitions:
        succ.setdefault((s, y), set()).add(d)

    def name(Q: frozenset[str]) -> str:
        return "+".join(sorted(Q))

    start = frozenset({a.initial})
    names = {start: name(start)}
    order = [start]
    transitions: set[tuple[str, str, str]] = set()
    i = 0
    while i < len(order):
        Q = order[i]
        for sym in sorted(a.alphabet):
            T = set()
            for q in Q:
                T |= succ.get((q, sym), set())
            if not T:
                continue
            Tf = frozenset(T)
            if Tf not in names:
                names[Tf] = name(Tf)
                order.append(Tf)
            transitions.add((names[Q], sym, names[Tf]))
        i += 1
    accepting = frozenset(names[Q] for Q in order if Q & a.accepting)
    return Dfa(
        frozenset(names.values()), a.alphabet, frozenset(transitions),
        names[start], accepting,
    )


def minimize_dfa(d: Dfa) -> Dfa:
    """The minimal *total* DFA for d's language, canonically named.

    Unreachable states are dropped, a reject sink is added if any
    reachable transition is missing, and states are merged by partition
    refinement.  Canonical naming (breadth-first, symbols in sorted
    order) makes equal-language inputs come out structurally identical.
    """
    delta = d.delta()
    symbols = tuple(sorted(d.alphabet))

    reachable: list[str] = [d.initial]
    seen = {d.initial}
    i = 0
    while i < len(reachable):
        q = reachable[i]
        for sym in symbols:
            t = delta.get((q, sym))
            if t is not None and t not in seen:
                seen.add(t)
                reachable.append(t)
        i += 1

    states = list(reachable)
    sink = None
    if any(delta.get((q, sym)) is None for q in states for sym in symbols):
        sink = "__dead__"
        while sink in seen:
            sink += "_"
        states.append(sink)
        for q in states:
            for sym in symbols:
                delta.setdefault((q, sym), sink)

    accepting = frozenset(q for q in states if q in d.accepting)

    # Hopcroft-style refinement.
    pred: dict[tuple[str, str], set[str]] = {}
    for q in states:
        for sym in symbols:
            pred.setdefault((delta[(q, sym)], sym), set()).add(q)

    non_accepting = frozenset(states) - accepting
    partition: list[frozenset[str]] = [p for p in (accepting, non_accepting) if p]
    worklist: list[frozenset[str]] = (
        [min(partition, key=len)] if len(partition) == 2 else list(partition)
    )
    while worklist:
        A = worklist.pop()
        for sym in symbols:
            X = set()
            for q in A:
                X |= pred.get((q, sym), set())
            if not X:
                continue
            new_partition: list[frozenset[str]] = []
            for B in partition:
                inter = B & X
                diff = B - X
                if inter and diff:
                    new_partition.extend((frozenset(inter), frozenset(diff)))
                    if B in worklist:
                        worklist.remove(B)
                        worklist.extend((frozenset(inter), frozenset(diff)))
                    else:
                        worklist.append(min((frozenset(inter), frozenset(diff)), key=len))
                else:
                    new_partition.append(B)
            partition = new_partition

    cls: dict[str, frozenset[str]] = {}
    for block in partition:
        for q in block:
            cls[q] = block

    # Canonical breadth-first names.
    names: dict[frozenset[str], str] = {}
    order: list[frozenset[str]] = []

    def visit(block: frozenset[str]) -> str:
        if block not in names:
            names[block] = f"s{len(order)}"
            order.append(block)
        return names[block]

    start = cls[d.initial]
    visit(start)
    queue = deque([start])
    transitions: set[tuple[str, str, str]] = set()
    done: set[frozenset[str]] = {start}
    while queue:
        block = queue.popleft()
        rep = next(iter(block))
        for sym in symbols:
            target = cls[delta[(rep, sym)]]
            if target not in done:
                done.add(target)
                visit(target)
                queue.append(target)
            transitions.add((names[block], sym, names[target]))
    return Dfa(
        frozenset(names.values()),
        d.alphabet,
        frozenset(transitions),
        names[start],
        frozenset(names[b] for b in order if b & accepting),
    )


def language_equiv(a: Automaton, b: Automaton) -> bool:
    """Exact language equality, by canonical minimal DFAs."""
    alphabet = a.alphabet | b.alphabet
    da = minimize_dfa(subset_construction(_widen(as_nfa(a), alphabet)))
    db = minimize_dfa(subset_construction(_widen(as_nfa(b), alphabet)))
    return da == db


def _widen(a: Nfa, alphabet: frozenset[str]) -> Nfa:
    if a.alphabet == alphabet:
        return a
    return Nfa(a.states, alphabet, a.transitions, a.initial, a.accepting)


def distinguishing_word(a: Automaton, b: Automaton) -> tuple[str, ...] | None:
    """A shortest word accepted by exactly one of the two automata, or
    None when their languages coincide."""
    alphabet = a.alphabet | b.alphabet
    da = minimize_dfa(subset_construction(_widen(as_nfa(a), alphabet)))
    db = minimize_dfa(subset_construction(_widen(as_nfa(b), alphabet)))
    ta, tb = da.delta(), db.delta()
    start = (da.initial, db.initial)
    seen = {start}
    queue: deque[tuple[tuple[str, str], tuple[str, ...]]] = deque([(start, ())])
    while queue:
        (qa, qb), word = queue.popleft()
        if (qa in da.accepting) != (qb in db.accepting):
            return word
        for sym in sorted(alphabet):
            nxt = (ta[(qa, sym)], tb[(qb, sym)])
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, word + (sym,)))
    return None


# ---------------------------------------------------------------------------
# Automaton -> monitor
# ---------------------------------------------------------------------------

NFA_MONITOR_CAP = 10
DFA_MONITOR_CAP = 12
_MAX_PATHS = 1_000_000


def _sanitize(name: str) -> str:
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)


def _paths_monitor(a: Nfa) -> Monitor:
    """Loop-free-path unfolding of an irrevocable automaton whose
    accepting states were already merged into one absorbing state."""
    assert len(a.accepting) <= 1
    if a.initial in a.accepting:
        return Verdict(YES)
    goal = next(iter(a.accepting), None)
    if goal is None:
        return Verdict(END)  # empty language: never any verdict

    # Keep only states that can still reach acceptance.
    rev: dict[str, set[str]] = {}
    for s, _, t in a.transitions:
        rev.setdefault(t, set()).add(s)
    live = {goal}
    queue = deque([goal])
    while queue:
        q = queue.popleft()
        for p in rev.get(q, ()):
            if p not in live:
                live.add(p)
                queue.append(p)
    if a.initial not in live:
        return Verdict(END)

    succ: dict[str, list[tuple[str, str]]] = {}
    for s, y, t in a.transitions:
        if s in live and (t in live or t == goal):
            succ.setdefault(s, []).append((y, t))
    for s in succ:
        succ[s].sort()

    used_names: set[str] = set()
    path_var: dict[tuple[str, ...], str] = {}

    def var_of(path: tuple[str, ...]) -> str:
        if path not in path_var:
            cand = "x_" + "_".join(_sanitize(q) for q in path)
            while cand in used_names:
                cand += "_"
            used_names.add(cand)
            path_var[path] = cand
        return path_var[path]

    def targets(path: tuple[str, ...]) -> list[str]:
        # One extension per target, so parallel edges to it share a single
        # Rec node (its variable stays singly bound).
        return sorted({t for _, t in succ.get(path[-1], ()) if t != goal and t not in path})

    calls = 0

    def extensions(path: tuple[str, ...]) -> list[tuple[str, ...]]:
        nonlocal calls
        calls += 1
        if calls > _MAX_PATHS:
            raise CapExceeded("path unfolding grew past the internal limit")
        return [path + (t,) for t in targets(path)]

    def build(path: tuple[str, ...], kids) -> Monitor:
        built = dict(zip(targets(path), kids))
        summands: list[Monitor] = []
        for sym, t in succ.get(path[-1], ()):
            if t == goal:
                summands.append(Prefix(sym, Verdict(YES)))
            elif t in path:
                back = path[: path.index(t) + 1]
                summands.append(Prefix(sym, Var(var_of(back))))
            else:
                summands.append(Prefix(sym, built[t]))
        if not summands:
            return Verdict(END)
        return Rec(var_of(path), mk_sum(summands))

    return fold((a.initial,), build, children=extensions)


def _merge_accepting(a: Nfa) -> Nfa:
    """Collapse all accepting states into one absorbing state.  Language
    is preserved exactly when the automaton is irrevocable."""
    goal = "Y"
    while goal in a.states:
        goal += "_"
    transitions: set[tuple[str, str, str]] = set()
    for s, y, t in a.transitions:
        if s in a.accepting:
            continue
        transitions.add((s, y, goal if t in a.accepting else t))
    for sym in a.alphabet:
        transitions.add((goal, sym, goal))
    states = (a.states - a.accepting) | {goal}
    initial = goal if a.initial in a.accepting else a.initial
    return Nfa(frozenset(states), a.alphabet, frozenset(transitions), initial, frozenset({goal}))


def nfa_to_monitor(a: Nfa, force: bool = False) -> Monitor:
    """An acceptance monitor recognising the language of an irrevocable
    NFA.  Exponential in the worst case; refuses automata above
    NFA_MONITOR_CAP states unless forced."""
    if not is_irrevocable(a):
        raise TermError("the automaton is not irrevocable; close it first")
    if len(a.states) > NFA_MONITOR_CAP and not force:
        raise CapExceeded(
            f"{len(a.states)} states exceeds the cap of {NFA_MONITOR_CAP}; "
            "pass force=True to unfold anyway"
        )
    if not a.accepting:
        return Verdict(END)
    if a.initial in a.accepting:
        return Verdict(YES)
    return _paths_monitor(_merge_accepting(a))


def dfa_to_monitor(d: Dfa, force: bool = False) -> Monitor:
    """Like nfa_to_monitor for a DFA; the result is deterministic."""
    if len(d.states) > DFA_MONITOR_CAP and not force:
        raise CapExceeded(
            f"{len(d.states)} states exceeds the cap of {DFA_MONITOR_CAP}; "
            "pass force=True to unfold anyway"
        )
    return nfa_to_monitor(as_nfa(d), force=True)


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
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        for key in ("type", "states", "alphabet", "initial", "accepting"):
            if line.startswith(key + ":"):
                value = line[len(key) + 1:].strip()
                if key == "type":
                    kind = value
                elif key == "initial":
                    initial = value
                else:
                    items = [v.strip() for v in value.split(",") if v.strip()]
                    {"states": states, "alphabet": alphabet, "accepting": accepting}[
                        key
                    ].extend(items)
                break
        else:
            import re as _re

            m = _re.match(r"^(\S+)\s*-(\S+?)->\s*(\S+)$", line)
            if m is None:
                raise TermError(f"cannot parse automaton line: {raw!r}")
            transitions.append((m.group(1), m.group(2), m.group(3)))
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
