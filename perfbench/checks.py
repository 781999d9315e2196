"""Checks on the program's outputs that do not use the program.

Nothing here imports ``detmon``.  Monitor terms are read by the shape of
their nodes (``Verdict.value``, ``Prefix.action``/``body``,
``Sum.summands``, ``Rec.var``/``body``, ``Var.name``), automata by their
``states``/``transitions``/``initial``/``accepting`` fields, and every
answer is worked out again from the definitions:

* ``RefMonitor`` evaluates monitor verdicts on traces by the paper's
  rules: a verdict absorbs every action (mVer), ``a.m`` moves to ``m`` on
  ``a`` (mAct), a choice moves as either summand moves (mSelL/mSelR), and
  ``rec x.m`` moves silently to ``m[rec x.m / x]`` (mRec).  A verdict is
  flagged on a trace when some weak derivation along the trace (silent
  moves anywhere, trailing ones included) reaches it.

  The unfolded term ``m[rec x.m / x]`` is never built.  Every state is a
  position of the source tree, and each occurrence of ``x`` is read as a
  pointer to the ``rec x.m`` that binds it: after the substitution that
  occurrence *is* ``rec x.m``, so it moves as the binder does.

* ``landau_parts``, ``mn_holds`` and ``un_holds`` define the witness
  languages M_n and U_n from scratch, with a brute-force maximal-lcm
  partition in which only parts > 1 count.

* ``is_syntactically_deterministic`` is the paper's syntactic notion:
  every choice is between action prefixes with pairwise distinct actions.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable, Sequence

YES = "yes"
NO = "no"
FLAGS = frozenset({YES, NO})


# ---------------------------------------------------------------------------
# Reference evaluator
# ---------------------------------------------------------------------------


class RefMonitor:
    """A closed monitor term compiled to a graph of tree positions."""

    def __init__(self, term: object, alphabet: Iterable[str]):
        self.alphabet = tuple(sorted(alphabet))
        kinds: list[str] = []
        data: list[object] = []
        kids: list[list[int]] = []
        root = -1
        stack: list[tuple[object, dict[str, int], int, int]] = [(term, {}, -1, 0)]
        while stack:
            t, env, parent, slot = stack.pop()
            kind = type(t).__name__
            if kind == "Var":
                if t.name not in env:
                    raise ValueError(f"free variable {t.name!r}")
                nid = env[t.name]
            else:
                nid = len(kinds)
                kinds.append(kind)
                if kind == "Verdict":
                    data.append(t.value)
                    kids.append([])
                elif kind == "Prefix":
                    data.append(t.action)
                    kids.append([-1])
                    stack.append((t.body, env, nid, 0))
                elif kind == "Sum":
                    data.append(None)
                    kids.append([-1] * len(t.summands))
                    for i, s in enumerate(t.summands):
                        stack.append((s, env, nid, i))
                elif kind == "Rec":
                    data.append(t.var)
                    kids.append([-1])
                    stack.append((t.body, {**env, t.var: nid}, nid, 0))
                else:
                    raise ValueError(f"not a monitor node: {kind}")
            if parent < 0:
                root = nid
            else:
                kids[parent][slot] = nid
        self.kinds = kinds
        self.data = data
        self.kids = kids
        self.root = root
        self._steps: dict[int, tuple[list[int], dict[str, list[int]]]] = {}
        self._closure: dict[int, frozenset[int]] = {}

    def steps(self, n: int) -> tuple[list[int], dict[str, list[int]]]:
        """Strong moves of position n: (silent targets, action -> targets)."""
        if n in self._steps:
            return self._steps[n]
        tau: list[int] = []
        act: dict[str, list[int]] = {}
        # A choice moves as any of its summands moves; summands are
        # expanded in place, never entered as states.
        todo, seen = [n], {n}
        while todo:
            m = todo.pop()
            kind = self.kinds[m]
            if kind == "Verdict":
                for a in self.alphabet:
                    act.setdefault(a, []).append(m)
            elif kind == "Prefix":
                act.setdefault(self.data[m], []).append(self.kids[m][0])
            elif kind == "Rec":
                tau.append(self.kids[m][0])
            else:  # Sum
                for s in self.kids[m]:
                    if s not in seen:
                        seen.add(s)
                        todo.append(s)
        self._steps[n] = (tau, act)
        return tau, act

    def closure(self, n: int) -> frozenset[int]:
        if n not in self._closure:
            out = {n}
            todo = [n]
            while todo:
                for m in self.steps(todo.pop())[0]:
                    if m not in out:
                        out.add(m)
                        todo.append(m)
            self._closure[n] = frozenset(out)
        return self._closure[n]

    def start(self) -> frozenset[int]:
        return self.closure(self.root)

    def step(self, frontier: frozenset[int], action: str) -> frozenset[int]:
        out: set[int] = set()
        for n in frontier:
            for m in self.steps(n)[1].get(action, ()):
                out |= self.closure(m)
        return frozenset(out)

    def flags(self, frontier: frozenset[int], include_end: bool = False) -> frozenset[str]:
        out = frozenset(self.data[n] for n in frontier if self.kinds[n] == "Verdict")
        return out if include_end else out & FLAGS

    def verdicts(self, trace: Sequence[str], include_end: bool = False) -> frozenset[str]:
        frontier = self.start()
        for a in trace:
            frontier = self.step(frontier, a)
        return self.flags(frontier, include_end)


def _bfs(starts, successors, bad, max_len: int):
    """Breadth-first search over abstract states; returns a shortest
    trace (of length <= max_len) to a state where `bad` holds, or None.
    A state already reached by a shorter trace is not expanded again:
    every continuation from it was already explored with more room."""
    parents = {starts: None}
    queue = deque([(starts, 0)])
    while queue:
        state, depth = queue.popleft()
        if bad(state):
            trace = []
            while parents[state] is not None:
                state, a = parents[state]
                trace.append(a)
            return tuple(reversed(trace))
        if depth == max_len:
            continue
        for a, nxt in successors(state):
            if nxt not in parents:
                parents[nxt] = (state, a)
                queue.append((nxt, depth + 1))
    return None


def verdict_difference(
    a: RefMonitor, b: RefMonitor, max_len: int
) -> tuple[str, ...] | None:
    """A shortest trace of length <= max_len on which the two monitors
    flag different sets of yes/no verdicts, or None."""

    def succ(pair):
        fa, fb = pair
        return [(x, (a.step(fa, x), b.step(fb, x))) for x in a.alphabet]

    return _bfs(
        (a.start(), b.start()), succ, lambda p: a.flags(p[0]) != b.flags(p[1]), max_len
    )


def shortest_conflict(m: RefMonitor, max_len: int) -> tuple[str, ...] | None:
    """A shortest trace of length <= max_len flagged with both yes and
    no, or None."""

    def succ(frontier):
        return [(x, m.step(frontier, x)) for x in m.alphabet]

    return _bfs(m.start(), succ, lambda f: m.flags(f) == FLAGS, max_len)


def dfa_difference(
    m: RefMonitor, verdict: str, dfa: object, max_len: int
) -> tuple[str, ...] | None:
    """A shortest trace of length <= max_len on which acceptance by the
    DFA and `verdict` being flagged by the monitor disagree, or None.  A
    missing DFA edge rejects from then on."""
    delta = {(s, x): d for s, x, d in dfa.transitions}
    accepting = dfa.accepting

    def succ(pair):
        f, q = pair
        return [(x, (m.step(f, x), delta.get((q, x)))) for x in m.alphabet]

    def bad(pair):
        f, q = pair
        return (verdict in m.flags(f)) != (q in accepting)

    return _bfs((m.start(), dfa.initial), succ, bad, max_len)


# ---------------------------------------------------------------------------
# Syntax
# ---------------------------------------------------------------------------


def _nodes(term: object):
    stack = [term]
    while stack:
        t = stack.pop()
        yield t
        kind = type(t).__name__
        if kind in ("Prefix", "Rec"):
            stack.append(t.body)
        elif kind == "Sum":
            stack.extend(t.summands)


def is_syntactically_deterministic(term: object) -> bool:
    for t in _nodes(term):
        if type(t).__name__ == "Sum":
            if any(type(s).__name__ != "Prefix" for s in t.summands):
                return False
            actions = [s.action for s in t.summands]
            if len(set(actions)) != len(actions):
                return False
    return True


def actions_of(term: object) -> frozenset[str]:
    return frozenset(t.action for t in _nodes(term) if type(t).__name__ == "Prefix")


# ---------------------------------------------------------------------------
# Automata and the witness languages
# ---------------------------------------------------------------------------


def dfa_is_total(dfa: object) -> bool:
    """Exactly one edge per state and symbol, between declared states."""
    seen = set()
    for s, x, d in dfa.transitions:
        if (s, x) in seen or s not in dfa.states or d not in dfa.states:
            return False
        seen.add((s, x))
    return len(seen) == len(dfa.states) * len(dfa.alphabet)


def dfa_accepts(dfa: object, word: Sequence[str]) -> bool:
    delta = {(s, x): d for s, x, d in dfa.transitions}
    q = dfa.initial
    for x in word:
        q = delta.get((q, x))
        if q is None:
            return False
    return q in dfa.accepting


def _partitions(n: int, largest: int):
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def landau_parts(n: int) -> tuple[int, frozenset[int]]:
    """The maximal lcm of a partition of n, and the parts > 1 of the
    partition reaching it.  Raises ValueError when partitions reaching
    the maximum disagree on those parts (n = 6: 6 and 1+2+3), since U_n
    is then not pinned down."""
    best = 0
    choices: set[frozenset[int]] = set()
    for p in _partitions(n, n):
        value = math.lcm(*p)
        if value > best:
            best, choices = value, set()
        if value == best:
            choices.add(frozenset(x for x in p if x > 1))
    if len(choices) != 1:
        raise ValueError(f"the maximal-lcm partition of {n} is ambiguous")
    return best, next(iter(choices))


def _before_e(word: Sequence[str]) -> tuple[str, ...] | None:
    word = tuple(word)
    return word[: word.index("e")] if "e" in word else None


def mn_holds(n: int, word: Sequence[str]) -> bool:
    """Before the first e, the n-th symbol from the end is a 1."""
    prefix = _before_e(word)
    return prefix is not None and len(prefix) >= n and prefix[-n] == "1"


def un_holds(n: int, word: Sequence[str]) -> bool:
    """Before the first e, the count of 0s or of 1s is a positive
    multiple of a part > 1 of the maximal-lcm partition of n."""
    prefix = _before_e(word)
    if prefix is None:
        return False
    _, parts = landau_parts(n)
    for symbol in ("0", "1"):
        count = prefix.count(symbol)
        if count and any(count % p == 0 for p in parts):
            return True
    return False
