"""The one-fold front end checked against the tree walks it replaced,
kept here as oracles: `well_form`, `rename_apart` and
`uniquify_formula` as they were when one preorder walk of the term's
tree (`scan`) gathered binder names, actions and free variables, and
`is_standard_form` as it was when it listed every fixpoint body of the
tree.  The results, their printed text, and the type and message of
every error must agree, on trees and on terms that share subterms."""

import random
from collections import Counter

from detmon.families import ALPHABET_01E, mn_monitor, un_monitor
from detmon.logic import _standardize_shml, _top_ok, is_standard_form
from detmon.pipeline import determinize_monitor
from detmon.syntax import parse_formula, parse_monitor, print_term
from detmon.terms import (
    _KEYWORDS,
    NO,
    YES,
    FreeVariableError,
    FF,
    TT,
    Box,
    Max,
    Min,
    Nil,
    Prefix,
    Rec,
    Sum,
    TermError,
    Var,
    Verdict,
    _Binder,
    _Guarded,
    _rename_binders,
    binder_names,
    dualize,
    fold,
    mk_and,
    mk_sum,
    rename_apart,
    subterms,
    uniquify_formula,
    well_form,
)
from detmon.verdicts import determinize_two_verdict

from gen import random_monitor, random_shml, random_two_verdict, scramble

AB = frozenset({"a", "b"})


# ---------------------------------------------------------------------------
# Oracles: the tree walks
# ---------------------------------------------------------------------------


def scan(term):
    """A term's binder names in preorder (with repeats), its actions and
    its free variables, from one walk of its tree."""
    binders = []
    actions, free, scope = set(), set(), Counter()
    stack = [term]
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


def oracle_rename_apart(m, alphabet):
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

    def fresh(t):
        if counts[t.var] == 1:
            return t.var
        i = 1
        while f"{t.var}{i}" in taken:
            i += 1
        taken.add(f"{t.var}{i}")
        return f"{t.var}{i}"

    return _rename_binders(m, fresh)


def oracle_collapse(t, kids):
    if isinstance(t, Rec):
        return kids[0] if isinstance(kids[0], Verdict) else t.rebuild(kids)
    if isinstance(t, Sum):
        return t.rebuild([
            s.rebuild((k,)) if isinstance(s, Rec) and isinstance(k, Verdict) else k
            for s, k in zip(t.summands, kids)
        ])
    if isinstance(t, (Prefix, Verdict, Var)):
        return t.rebuild(kids)
    raise TermError(f"not a monitor term: {t!r}")


def oracle_well_form(m, alphabet):
    if not alphabet:
        raise TermError("the alphabet must be non-empty")
    binders, actions, free = scan(m)
    bad = actions - alphabet
    if bad:
        raise TermError(f"actions not in the declared alphabet: {sorted(bad)}")
    clash = alphabet.intersection(binders)
    if clash:
        raise TermError(f"binder names clash with the alphabet: {sorted(clash)}")
    m = fold(m, oracle_collapse)
    if len(set(binders)) != len(binders):
        m = oracle_rename_apart(m, alphabet)
    if free:
        raise FreeVariableError(f"free recursion variables: {sorted(free)}")
    return m


def oracle_uniquify_formula(f, reserved=()):
    bases, _, used = scan(f)
    if len(set(bases)) == len(bases) and used.isdisjoint(bases):
        return f
    taken = set(reserved) | used | set(bases)

    def fresh(t):
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


def oracle_is_standard_form(f):
    roots = [f] + [t.body for t in subterms(f) if isinstance(t, (Max, Min))]
    return all(_top_ok(r) for r in roots)


def outcome(f, *args):
    """What f returns and its printed text, or the type and message of
    what it raises."""
    try:
        r = f(*args)
    except TermError as e:
        return type(e), str(e)
    return r, r if isinstance(r, bool) else print_term(r)


def agree(term, alphabet):
    """The three functions equal their oracles on `term`."""
    for f, oracle, args in (
        (well_form, oracle_well_form, (term, alphabet)),
        (rename_apart, oracle_rename_apart, (term, alphabet)),
        (uniquify_formula, oracle_uniquify_formula, (term,)),
        (uniquify_formula, oracle_uniquify_formula, (term, ("x1", "X1", "y"))),
        (is_standard_form, oracle_is_standard_form, (term,)),
    ):
        assert outcome(f, *args) == outcome(oracle, *args), (f.__name__, print_term(term))


def scramble_formula(rng, f):
    """`f` with every binder renamed to X or Y and every variable to X, Y
    or Z."""

    def step(t, kids):
        if isinstance(t, Max):
            return Max(rng.choice("XY"), kids[0])
        if isinstance(t, Var):
            return Var(rng.choice("XYZ"))
        return t.rebuild(kids)

    return fold(f, step)


def wild_formula(rng, depth, bound=(), pool=None):
    """A random formula that need not be in standard form: variables sit
    anywhere, some leaves are monitor terms, which no formula walk
    accepts, and some subterms are shared."""
    pool = [] if pool is None else pool
    r = rng.random()
    if pool and r < 0.15:
        return rng.choice(pool)
    if depth == 0 or r < 0.3:
        leaves = [TT(), FF(), Nil(), Prefix("a", Verdict(NO)), *(Var(x) for x in bound)]
        t = rng.choice(leaves)
    elif r < 0.5:
        x = rng.choice("XY")
        t = rng.choice((Max, Min))(x, wild_formula(rng, depth - 1, bound + (x,), pool))
    elif r < 0.75:
        t = mk_and(wild_formula(rng, depth - 1, bound, pool) for _ in range(rng.randint(2, 3)))
    else:
        t = Box(rng.choice("ab"), wild_formula(rng, depth - 1, bound, pool))
    pool.append(t)
    return t


# ---------------------------------------------------------------------------
# The fold against the walks
# ---------------------------------------------------------------------------


def test_generated_monitors():
    rng = random.Random(2101)
    for i in range(600):
        if i % 3 == 2:
            m = random_two_verdict(rng, rng.randint(5, 16))
        else:
            m = random_monitor(rng, rng.randint(1, 16), AB, (YES, NO) if i % 3 else (NO,))
        agree(scramble(rng, m) if i % 2 else m, AB if i % 5 else frozenset({"a", "x"}))


def test_generated_formulas():
    rng = random.Random(2102)
    for i in range(600):
        f = random_shml(rng, rng.randint(0, 5), AB, free=("Z",) if i % 4 == 0 else ())
        f = scramble_formula(rng, f) if i % 2 else f
        agree(dualize(f) if i % 3 == 0 else f, AB)


def test_formulas_off_the_standard_form():
    # Several bodies fail, some by an error: the first in preorder decides,
    # even when a failing body lies nearer the root further right.
    fails = Box("a", Box("a", Max("X", Max("Y", Var("X")))))
    raises = Box("b", Max("Z", Nil()))
    assert outcome(is_standard_form, mk_and([fails, raises])) == (False, False)
    assert outcome(is_standard_form, mk_and([raises, fails]))[0] is TermError
    rng = random.Random(2104)
    for _ in range(600):
        agree(wild_formula(rng, rng.randint(1, 6)), AB)


def test_shared_terms():
    shared = parse_monitor("rec x. a.x + b.yes", AB)
    monitors = [
        mk_sum([Prefix("a", shared), Prefix("b", shared)]),  # one binder under two parents
        mk_sum([shared, Prefix("b", shared)]),
        mk_sum([Rec("z", Verdict(NO)), Prefix("a", Rec("z", Verdict(NO)))]),
        *(mn_monitor(n) for n in (1, 2, 5, 9)),
        *(un_monitor(n) for n in (2, 3, 5)),
        *(determinize_monitor(mn_monitor(n), ALPHABET_01E, force=True) for n in (1, 2, 3)),
        determinize_monitor(un_monitor(3), ALPHABET_01E, method="equations", force=True),
        determinize_two_verdict(parse_monitor("a.(rec x. a.x + b.no) + b.yes", AB), AB),
    ]
    for m in monitors:
        agree(m, ALPHABET_01E | AB)
    # Hoisting a variable out of a fixpoint shares the fixpoint, binder and all.
    hoisted = _standardize_shml(parse_formula("max X. max Y. ([a]Y & [b]Y & X)", AB))
    assert binder_names(hoisted) == ["X", "Y", "Y"]
    agree(hoisted, AB)
    rng = random.Random(2103)
    for _ in range(200):
        f = scramble_formula(rng, random_shml(rng, rng.randint(2, 5), AB))
        agree(_standardize_shml(uniquify_formula(f)), AB)
