"""Core term syntax: monitors, processes, and recursive safety formulas.

Monitors are CCS-style terms that observe a trace and may commit to a
verdict.  Processes share the same grammar except that verdicts are
replaced by the inert ``nil`` (and verdict names may occur as ordinary
action labels).  Formulas are the recursive modal logic the monitors are
synthesised from; the safety fragment uses box/conjunction/greatest
fixpoints, the co-safety fragment the duals.

All nodes are immutable and compare structurally, so terms can be used
as set members and dict keys throughout the package.  Each node computes
its hash once, at construction, from its children's cached hashes, and
every walk over a term goes through `fold` on an explicit stack, so no
operation here is limited by the depth of its term.
"""

from __future__ import annotations

from collections import Counter
from operator import is_, is_not
from typing import Callable, Iterable, Iterator, Union

# Verdict names.
YES = "yes"
NO = "no"
END = "end"
VERDICTS = (YES, NO, END)

# The silent action.  Never a member of a declared alphabet.
TAU = "tau"

# Reserved marker action used by the two-verdict determinization pipeline
# (a rejection verdict recast as an observable action).
NO_MARKER = "[no]"

_KEYWORDS = frozenset(
    {"rec", "max", "min", "tt", "ff", "nil", TAU, *VERDICTS}
)


class TermError(ValueError):
    """A term violates a structural requirement."""


class FreeVariableError(TermError):
    """A closed term was required but a free recursion variable remains."""


class FragmentError(TermError):
    """A formula lies outside the fragment an operation supports."""


# ---------------------------------------------------------------------------
# Nodes
# ---------------------------------------------------------------------------


class _Node:
    """An immutable term node.

    Subclasses set their fields through the slot descriptors, since
    ordinary assignment is refused, and store the structural hash in
    ``_hash``.  ``children`` and ``rebuild`` are the traversal interface
    `fold` uses; ``_label`` is the one non-term field, if any.
    """

    __slots__ = ("_hash",)
    __match_args__: tuple[str, ...] = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, _Node):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            while a is not b:  # down a run of single children without the stack
                if type(a) is not type(b) or a._hash != b._hash or a._label() != b._label():
                    return False
                ka, kb = a.children(), b.children()
                if len(ka) != 1 or len(kb) != 1:
                    if len(ka) != len(kb):
                        return False
                    stack.extend(zip(ka, kb))
                    break
                a, b = ka[0], kb[0]
        return True

    def __repr__(self) -> str:
        from .syntax import print_term  # the printer needs these classes

        return f"<{type(self).__name__} {print_term(self)}>"

    def __reduce__(self):  # copy and pickle through the constructor
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def children(self) -> tuple[Term, ...]:
        return ()

    def rebuild(self, kids) -> Term:
        """This node with `kids` for its children; the node itself when
        they are the children it already has."""
        return self

    def _label(self) -> str | None:
        return None


_set_hash = _Node._hash.__set__


class _Constant(_Node):
    __slots__ = ()

    def __init__(self) -> None:
        _set_hash(self, hash(type(self).__name__))


class Verdict(_Node):
    """A committed verdict: ``yes``, ``no`` or the inconclusive ``end``."""

    __slots__ = __match_args__ = ("value",)

    def __init__(self, value: str):
        if value not in VERDICTS:
            raise TermError(f"unknown verdict {value!r}")
        _set_value(self, value)
        _set_hash(self, hash(("Verdict", value)))

    def _label(self) -> str:
        return self.value


class Var(_Node):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str):
        _set_name(self, name)
        _set_hash(self, hash(("Var", name)))

    def _label(self) -> str:
        return self.name


class _Unary(_Node):
    """A node over one body, under a label: its action or its variable."""

    __slots__ = ("body",)

    def children(self) -> tuple[Term, ...]:
        return (self.body,)

    def rebuild(self, kids) -> Term:
        body = kids[0]
        return self if body is self.body else type(self)(self._label(), body)


class _Guarded(_Unary):
    """An action guarding the body: prefixes and modalities."""

    __slots__ = ("action",)
    __match_args__ = ("action", "body")

    def __init__(self, action: str, body: Term):
        _set_action(self, action)
        _set_body(self, body)
        _set_hash(self, hash((type(self), action, body._hash)))

    def _label(self) -> str:
        return self.action


class _Binder(_Unary):
    """A recursion or fixpoint binder over the body."""

    __slots__ = ("var",)
    __match_args__ = ("var", "body")

    def __init__(self, var: str, body: Term):
        _set_var(self, var)
        _set_body(self, body)
        _set_hash(self, hash((type(self), var, body._hash)))

    def _label(self) -> str:
        return self.var


class _Nary(_Node):
    """A flat n-ary operator: at least two operands, none of its own kind.
    Subclasses name their one field and the two error messages."""

    __slots__ = ()
    _few: str
    _nested: str

    def __init_subclass__(cls) -> None:
        cls._set_items = getattr(cls, cls.__match_args__[0]).__set__

    def __init__(self, items: tuple[Term, ...]):
        items = tuple(items)
        if len(items) < 2:
            raise TermError(self._few)
        cls = type(self)
        hashes: list[object] = [cls]
        for x in items:
            if type(x) is cls:
                raise TermError(self._nested)
            hashes.append(x._hash)
        self._set_items(self, items)
        _set_hash(self, hash(tuple(hashes)))

    def rebuild(self, kids) -> Term:
        kids = tuple(kids)
        old = self.children()
        if len(kids) == len(old) and all(map(is_, kids, old)):
            return self
        return type(self)(kids)


_set_value = Verdict.value.__set__
_set_name = Var.name.__set__
_set_body = _Unary.body.__set__
_set_action = _Guarded.action.__set__
_set_var = _Binder.var.__set__


# Monitor / process nodes.


class Nil(_Constant):
    """The inert process.  Unlike a verdict it has no transitions at all."""

    __slots__ = ()


class Prefix(_Guarded):
    __slots__ = ()


class Sum(_Nary):
    """An n-ary external choice, kept flat: no summand is itself a Sum."""

    __slots__ = __match_args__ = ("summands",)
    _few = "a choice needs at least two summands"
    _nested = "nested Sum; build choices with mk_sum"

    def children(self) -> tuple[Term, ...]:
        return self.summands


class Rec(_Binder):
    __slots__ = ()


Monitor = Union[Verdict, Prefix, Sum, Rec, Var]
Process = Union[Nil, Prefix, Sum, Rec, Var]


# Formula nodes.


class TT(_Constant):
    __slots__ = ()


class FF(_Constant):
    __slots__ = ()


class Box(_Guarded):
    """Universal modality: after every weak `action`-step the body holds."""

    __slots__ = ()


class Diamond(_Guarded):
    """Existential modality, the dual of Box."""

    __slots__ = ()


class And(_Nary):
    __slots__ = __match_args__ = ("conjuncts",)
    _few = "a conjunction needs at least two conjuncts"
    _nested = "nested And; build conjunctions with mk_and"

    def children(self) -> tuple[Term, ...]:
        return self.conjuncts


class Or(_Nary):
    __slots__ = __match_args__ = ("disjuncts",)
    _few = "a disjunction needs at least two disjuncts"
    _nested = "nested Or; build disjunctions with mk_or"

    def children(self) -> tuple[Term, ...]:
        return self.disjuncts


class Max(_Binder):
    """Greatest fixpoint binder."""

    __slots__ = ()


class Min(_Binder):
    """Least fixpoint binder."""

    __slots__ = ()


Formula = Union[TT, FF, Box, Diamond, And, Or, Max, Min, Var]

Term = Union[Monitor, Process, Formula]


# ---------------------------------------------------------------------------
# The traversal kernel
# ---------------------------------------------------------------------------

# Returned by an `enter` callback: leave this node's children unvisited.
SKIP = object()
_UNSEEN = object()


def fold(root, combine: Callable, enter: Callable | None = None, env=None, children=None):
    """Fold `root` bottom-up on an explicit stack, children left to right.

    Without `enter`, ``combine(node, results)`` gives a node's result from
    its children's results, and each distinct node object is combined
    once per call: a shared subterm is visited once, and a rebuilt term
    shares it too.

    With `enter`, the walk carries an environment down from `env` and
    combines every occurrence.  ``enter(node, env)`` runs before the
    node's children and returns the environment they see, or SKIP to
    leave them unvisited; ``combine(node, results, env)`` then gets that
    returned value, and no results when it was SKIP.

    `children` maps a node to its children (by default its ``children()``
    method), so any finite acyclic structure can be folded.
    """
    memo: dict[int, object] | None = {} if enter is None else None
    keep: list = []  # the folded nodes, so that their ids stay their own
    out: list = []
    # A frame ends in None until its node's children are pushed, then in their number.
    stack: list = [(root, env, None)]
    pop, push, emit = stack.pop, stack.append, out.append
    while stack:
        node, e, n = pop()
        if n is None:
            if memo is None:
                e = enter(node, e)
            else:
                r = memo.get(id(node), _UNSEEN)
                if r is not _UNSEEN:
                    emit(r)
                    continue
            if e is SKIP:
                kids = ()
            else:
                kids = node.children() if children is None else children(node)
            if kids:
                push((node, e, len(kids)))
                if len(kids) == 1:
                    push((kids[0], e, None))
                else:
                    stack.extend([(k, e, None) for k in reversed(kids)])
                continue
            results = ()
        elif n == 1:
            results = (out.pop(),)
        else:
            results = out[-n:]
            del out[-n:]
        if memo is None:
            emit(combine(node, results, e))
        else:
            r = combine(node, results)
            memo[id(node)] = r
            keep.append(node)
            emit(r)
    return out[0]


def subterms(term: Term) -> Iterator[Term]:
    """All subterms in preorder, including the term itself."""
    stack = [term]
    while stack:
        t = stack.pop()
        yield t
        stack.extend(reversed(t.children()))


def distinct_subterms(term: Term) -> list[Term]:
    """Each distinct node object of the term once, breadth-first: a
    subterm shared by many parents is listed once."""
    seen = {id(term)}
    order = [term]
    for t in order:  # the list grows while it is walked
        for k in t.children():
            if id(k) not in seen:
                seen.add(id(k))
                order.append(k)
    return order


# ---------------------------------------------------------------------------
# Smart constructors
# ---------------------------------------------------------------------------


def mk_sum(summands: Iterable[Monitor]) -> Monitor:
    """Build a flat choice.  One summand collapses to the summand itself."""
    flat: list[Monitor] = []
    for s in summands:
        if isinstance(s, Sum):
            flat.extend(s.summands)
        else:
            flat.append(s)
    if not flat:
        raise TermError("empty choice")
    if len(flat) == 1:
        return flat[0]
    return Sum(tuple(flat))


def _mk_flat(items: Iterable[Formula], cls: type, unit: type, zero: type) -> Formula:
    flat: list[Formula] = []
    for c in items:
        if isinstance(c, cls):
            flat.extend(c.children())
        else:
            flat.append(c)
    out: list[Formula] = []
    for c in flat:
        if isinstance(c, zero):
            return zero()
        if isinstance(c, unit) or c in out:
            continue
        out.append(c)
    if not out:
        return unit()
    return out[0] if len(out) == 1 else cls(tuple(out))


def mk_and(conjuncts: Iterable[Formula]) -> Formula:
    """Flat conjunction with units applied: drops tt, absorbs ff,
    deduplicates while preserving first-occurrence order.  The empty
    conjunction is tt."""
    return _mk_flat(conjuncts, And, TT, FF)


def mk_or(disjuncts: Iterable[Formula]) -> Formula:
    """Dual of mk_and: drops ff, absorbs tt; the empty disjunction is ff."""
    return _mk_flat(disjuncts, Or, FF, TT)


def prefix_chain(actions: Iterable[str], tail: Monitor) -> Monitor:
    """a1.a2...an.tail"""
    m = tail
    for a in reversed(list(actions)):
        m = Prefix(a, m)
    return m


# ---------------------------------------------------------------------------
# Metrics and queries
# ---------------------------------------------------------------------------


def _size(t: Term, kids) -> int:
    if isinstance(t, (Prefix, Rec)):
        return 1 + kids[0]
    if isinstance(t, Sum):
        return len(kids) - 1 + sum(kids)
    if isinstance(t, (Verdict, Var, Nil)):
        return 1
    raise TermError(f"size is defined on monitor/process terms, not {t!r}")


def size(term: Term) -> int:
    """Node count of a monitor or process term.

    An n-ary choice contributes n-1 (it stands for n-1 binary choices).
    """
    return fold(term, _size)


def _height(t: Term, kids) -> int:
    if isinstance(t, Prefix):
        return 1 + kids[0]
    if isinstance(t, (Rec, Sum)):
        return max(kids)
    if isinstance(t, (Verdict, Var, Nil)):
        return 1
    raise TermError(f"height is defined on monitor/process terms, not {t!r}")


def height(term: Term) -> int:
    """Longest chain of action prefixes; recursion binders add nothing."""
    return fold(term, _height)


_NO_VARS: frozenset[str] = frozenset()


def _free_vars(t: Term, kids) -> frozenset[str]:
    if isinstance(t, Var):
        return frozenset((t.name,))
    out = kids[0] if len(kids) == 1 else _NO_VARS.union(*kids)
    return out - {t.var} if isinstance(t, _Binder) and t.var in out else out


def free_vars(term: Term) -> frozenset[str]:
    return fold(term, _free_vars)


def _scan(term: Term) -> tuple[list[str], set[str], set[str]]:
    """A term's binder names in preorder (with repeats), its actions and
    its free variables, from one walk of its tree."""
    binders: list[str] = []
    actions, free, scope = set(), set(), Counter()
    stack: list = [term]
    while stack:
        t = stack.pop()
        if type(t) is str:  # the walk leaves a binder of this name
            scope[t] -= 1
            continue
        if isinstance(t, _Binder):
            binders.append(t.var)
            scope[t.var] += 1
            stack.append(t.var)
        elif isinstance(t, Var):
            if not scope[t.name]:
                free.add(t.name)
        elif isinstance(t, _Guarded):
            actions.add(t.action)
        stack.extend(reversed(t.children()))
    return binders, actions, free


def binder_names(term: Term) -> list[str]:
    """Names of all recursion binders, in preorder (with repeats)."""
    return [t.var for t in subterms(term) if isinstance(t, _Binder)]


def actions_in(term: Term) -> frozenset[str]:
    return frozenset(t.action for t in subterms(term) if isinstance(t, _Guarded))


def verdicts_in(term: Term) -> frozenset[str]:
    return frozenset(t.value for t in distinct_subterms(term) if isinstance(t, Verdict))


def is_shml(f: Formula) -> bool:
    """Safety fragment: no diamonds, disjunctions or least fixpoints."""
    return not any(isinstance(t, (Diamond, Or, Min)) for t in subterms(f))


def is_chml(f: Formula) -> bool:
    """Co-safety fragment: no boxes, conjunctions or greatest fixpoints."""
    return not any(isinstance(t, (Box, And, Max)) for t in subterms(f))


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------


def subst(term: Term, var: str, replacement: Term) -> Term:
    """term[replacement/var] on monitor/process terms.

    No capture avoidance is attempted: the intended use is unfolding
    recursion, where the planted term is closed.  Subterms without a
    free `var` are kept, not copied.
    """

    def step(t: Term, kids) -> Term:
        if isinstance(t, Var):
            return replacement if t.name == var else t
        if isinstance(t, Rec) and t.var == var:  # shadowed
            return t
        if isinstance(t, (Prefix, Sum, Rec, Verdict, Nil)):
            return t.rebuild(kids)
        raise TermError(f"cannot substitute into {t!r}")

    return fold(term, step)


def subst_formula(f: Formula, mapping: dict[str, Formula]) -> Formula:
    """Simultaneous substitution of formulas for free variables.

    Binders deliberately capture: replacing X under ``max X`` is the
    mechanism by which equation elimination re-ties recursion, so a
    bound variable simply shadows any mapping entry of the same name.
    Subterms the mapping does not reach are kept, not copied.
    """
    if not mapping:
        return f

    def step(t: Formula, kids) -> Formula:
        if isinstance(t, Var):
            return mapping.get(t.name, t)
        if isinstance(t, (Max, Min)) and t.var in mapping:
            # Shadowed: the body takes the rest of the mapping.  Each such
            # call drops a name, so they nest at most len(mapping) deep.
            inner = {k: v for k, v in mapping.items() if k != t.var}
            return t.rebuild([subst_formula(t.body, inner)])
        if isinstance(t, (And, Or)) and any(map(is_not, kids, t.children())):
            return mk_and(kids) if isinstance(t, And) else mk_or(kids)
        if isinstance(t, (TT, FF, Box, Diamond, Max, Min, And, Or)):
            return t.rebuild(kids)
        raise TermError(f"cannot substitute into {t!r}")

    return fold(f, step)


# ---------------------------------------------------------------------------
# Well-forming
# ---------------------------------------------------------------------------


def _rename_binders(term: Term, fresh: Callable[[Term], str]) -> Term:
    """Give every binder the name `fresh(binder)`, called in preorder, and
    every variable it binds the same name."""
    scope: dict[str, list[str]] = {}

    def enter(t: Term, env: None) -> None:
        if isinstance(t, _Binder):
            scope.setdefault(t.var, []).append(fresh(t))

    def step(t: Term, kids, env: None) -> Term:
        if isinstance(t, Var):
            names = scope.get(t.name)
            return Var(names[-1]) if names and names[-1] != t.name else t
        if isinstance(t, _Binder):
            new = scope[t.var].pop()
            return t.rebuild(kids) if new == t.var else type(t)(new, kids[0])
        return t.rebuild(kids)

    return fold(term, step, enter)


def rename_apart(m: Monitor, alphabet: frozenset[str]) -> Monitor:
    """Rename binders apart: a name bound by k > 1 binders becomes
    name1, ..., namek in preorder, skipping every name in use, the
    alphabet and the keywords.  Names bound once stay, so a term whose
    binder names are all distinct is returned as it is."""
    bases = binder_names(m)
    counts = Counter(bases)
    if len(counts) == len(bases):
        return m
    taken = (
        set(bases)
        | {v.name for v in subterms(m) if isinstance(v, Var)}
        | set(alphabet)
        | set(_KEYWORDS)
    )

    def fresh(t: Rec) -> str:
        if counts[t.var] == 1:
            return t.var
        i = 1
        while f"{t.var}{i}" in taken:
            i += 1
        taken.add(f"{t.var}{i}")
        return f"{t.var}{i}"

    return _rename_binders(m, fresh)


def _collapse(t: Monitor, kids) -> Monitor:
    if isinstance(t, Rec):
        return kids[0] if isinstance(kids[0], Verdict) else t.rebuild(kids)
    if isinstance(t, Sum):
        # A recursion right inside a choice keeps its binder over a verdict;
        # no summand becomes a choice.
        return t.rebuild([
            s.rebuild((k,)) if isinstance(s, Rec) and isinstance(k, Verdict) else k
            for s, k in zip(t.summands, kids)
        ])
    if isinstance(t, (Prefix, Verdict, Var)):
        return t.rebuild(kids)
    raise TermError(f"not a monitor term: {t!r}")


def well_form(m: Monitor, alphabet: frozenset[str]) -> Monitor:
    """Validate and normalise a monitor term.

    Checks that every action is in the declared alphabet and that no
    binder name clashes with it, collapses ``rec x.v`` onto the verdict
    ``v`` bottom-up, renames duplicate binders apart, and finally
    requires the result to be closed.

    The collapse skips recursions sitting directly inside a choice: the
    unfolding step lets the whole choice reach ``v`` without consuming
    an action, which a bare verdict summand cannot do, so rewriting
    there would change what the monitor flags on the current trace.
    """
    if not alphabet:
        raise TermError("the alphabet must be non-empty")
    binders, actions, free = _scan(m)
    bad = actions - alphabet
    if bad:
        raise TermError(f"actions not in the declared alphabet: {sorted(bad)}")
    clash = alphabet.intersection(binders)
    if clash:
        raise TermError(f"binder names clash with the alphabet: {sorted(clash)}")

    m = fold(m, _collapse)
    if len(set(binders)) != len(binders):
        m = rename_apart(m, alphabet)

    # Neither the collapse nor the renaming frees or binds a variable.
    if free:
        raise FreeVariableError(f"free recursion variables: {sorted(free)}")
    return m


def uniquify_formula(f: Formula, reserved: Iterable[str] = ()) -> Formula:
    """Rename fixpoint binders so all are distinct from each other, from
    every free variable, and from `reserved`; a formula that needs no
    renaming is returned as it is."""
    bases, _, used = _scan(f)
    if len(set(bases)) == len(bases) and used.isdisjoint(bases):
        return f
    taken = set(reserved) | used | set(bases)

    def fresh(t: Formula) -> str:
        base = t.var
        if base not in used:
            used.add(base)
            return base
        i = 1
        while f"{base}{i}" in taken or f"{base}{i}" in used:
            i += 1
        name = f"{base}{i}"
        used.add(name)
        return name

    return _rename_binders(f, fresh)


_DUALS = {TT: FF, FF: TT, Box: Diamond, Diamond: Box, And: Or, Or: And, Max: Min, Min: Max}


def _dualize(t: Formula, kids) -> Formula:
    if isinstance(t, Var):
        return t
    dual = _DUALS.get(type(t))
    if dual is None:
        raise TermError(f"not a formula: {t!r}")
    if isinstance(t, _Constant):
        return dual()
    if isinstance(t, _Nary):
        return dual(tuple(kids))
    return dual(t._label(), kids[0])


def dualize(f: Formula) -> Formula:
    """Swap each formula construct with its dual (tt/ff, box/diamond,
    and/or, max/min).  An involution; maps the safety fragment onto the
    co-safety fragment and back."""
    return fold(f, _dualize)


def _dualize_monitor(m: Monitor, kids) -> Monitor:
    if isinstance(m, Verdict):
        if m.value == YES:
            return Verdict(NO)
        if m.value == NO:
            return Verdict(YES)
        return m
    if isinstance(m, (Var, Prefix, Sum, Rec)):
        return m.rebuild(kids)
    raise TermError(f"not a monitor term: {m!r}")


def dualize_monitor(m: Monitor) -> Monitor:
    """Swap the yes and no verdicts throughout; ``end`` stays put."""
    return fold(m, _dualize_monitor)


def eliminate_verdict_sums(m: Monitor, alphabet: frozenset[str]) -> Monitor:
    """Rewrite every choice with a verdict summand into an equivalent one
    without: the verdict v becomes one summand ``a.v`` per action a.

    The rewrite preserves the verdicts reachable on every trace (a
    verdict inside a choice is only observable after at least one more
    action anyway, since verdicts absorb all actions).
    """
    if not alphabet:
        raise TermError("the alphabet must be non-empty")
    actions = sorted(alphabet)

    def step(t: Monitor, kids) -> Monitor:
        if isinstance(t, Sum) and any(isinstance(s, Verdict) for s in kids):
            out: list[Monitor] = []
            for s in kids:
                out.extend([Prefix(a, s) for a in actions] if isinstance(s, Verdict) else [s])
            return mk_sum(out)
        if isinstance(t, (Verdict, Var, Prefix, Rec, Sum)):
            return t.rebuild(kids)
        raise TermError(f"not a monitor term: {t!r}")

    return fold(m, step)
