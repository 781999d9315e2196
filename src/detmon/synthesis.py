"""Synthesis between formulas and monitors, and the verdict/action moves.

A safety formula maps onto a rejection monitor (``ff`` becomes ``no``,
boxes become prefixes, conjunctions become choices, greatest fixpoints
become recursion); co-safety formulas go through duality and yield
acceptance monitors.  The reverse reading turns a single-verdict monitor
back into a formula.  ``pi`` recasts a monitor as a plain process whose
verdicts are prefixed actions; ``nu``-style marker moves live in the
verdicts module.
"""

from __future__ import annotations

from .terms import (
    END,
    NO,
    YES,
    And,
    Box,
    FF,
    Formula,
    FragmentError,
    Max,
    Monitor,
    Nil,
    Prefix,
    Process,
    Rec,
    SKIP,
    Sum,
    TT,
    TermError,
    Var,
    Verdict,
    binder_names,
    dualize,
    dualize_monitor,
    fold,
    is_chml,
    is_shml,
    mk_and,
    mk_sum,
    subterms,
    uniquify_formula,
    verdicts_in,
)

__all__ = [
    "msf",
    "monitor_to_formula",
    "dualize",
    "dualize_monitor",
    "pi",
    "pi_inverse",
    "VERDICT_ACTIONS",
]

VERDICT_ACTIONS = {YES: "[yes]", NO: "[no]", END: "[end]"}
_ACTION_VERDICTS = {a: v for v, a in VERDICT_ACTIONS.items()}


def _name_map(names: list[str], transform) -> dict[str, str]:
    """Map each name through `transform`, keeping the results distinct."""
    out: dict[str, str] = {}
    used: set[str] = set()
    for n in names:
        cand = transform(n)
        if cand in used:
            i = 1
            while f"{cand}_{i}" in used:
                i += 1
            cand = f"{cand}_{i}"
        used.add(cand)
        out[n] = cand
    return out


def msf(f: Formula) -> Monitor:
    """The monitor synthesised from a monitorable formula.

    Safety formulas yield a rejection monitor; acceptance is folded away
    (a conjunct whose monitor is ``yes`` contributes nothing).  Co-safety
    formulas are synthesised through duality.  Formula variables are
    lowercased to become recursion variables.
    """
    if is_shml(f):
        f = uniquify_formula(f)
        order: list[str] = []
        for t in subterms(f):
            if isinstance(t, (Max, Var)):
                name = t.var if isinstance(t, Max) else t.name
                if name not in order:
                    order.append(name)
        vmap = _name_map(order, str.lower)
        yes = Verdict(YES)

        def syn(g: Formula, kids) -> Monitor:
            if isinstance(g, TT):
                return yes
            if isinstance(g, FF):
                return Verdict(NO)
            if isinstance(g, Var):
                return Var(vmap[g.name])
            if isinstance(g, Box):
                return yes if kids[0] == yes else Prefix(g.action, kids[0])
            if isinstance(g, And):
                # Distinct conjuncts can give equal monitors; keep one, as
                # mk_and keeps one conjunct when the monitor is read back.
                ms = list(dict.fromkeys(m for m in kids if m != yes))
                return mk_sum(ms) if ms else yes
            if isinstance(g, Max):
                return yes if kids[0] == yes else Rec(vmap[g.var], kids[0])
            raise FragmentError(f"not a safety formula: {g!r}")

        return fold(f, syn)
    if is_chml(f):
        return dualize_monitor(msf(dualize(f)))
    raise FragmentError("synthesis is defined on the safety and co-safety fragments")


def monitor_to_formula(m: Monitor) -> Formula:
    """Read a single-verdict monitor back as a formula.

    Rejection monitors produce safety formulas, acceptance monitors
    co-safety ones (through duality); a monitor with both real verdicts
    has no single formula, and ``end`` has no formula counterpart at all
    (``tt`` would absorb its whole context), so both are rejected.
    """
    vs = verdicts_in(m)
    if END in vs:
        raise TermError(
            "monitors containing 'end' cannot be read back as a formula"
        )
    if YES in vs and NO in vs:
        raise TermError("two-verdict monitors have no single-formula reading")
    if YES in vs:
        return dualize(monitor_to_formula(dualize_monitor(m)))

    order = [n for n in binder_names(m)]
    for t in subterms(m):
        if isinstance(t, Var) and t.name not in order:
            order.append(t.name)
    vmap = _name_map(order, str.upper)

    def rd(t: Monitor, kids) -> Formula:
        if isinstance(t, Verdict):
            return FF()  # only 'no' can occur here
        if isinstance(t, Var):
            return Var(vmap[t.name])
        if isinstance(t, Prefix):
            return Box(t.action, kids[0])
        if isinstance(t, Sum):
            return mk_and(kids)
        if isinstance(t, Rec):
            return Max(vmap[t.var], kids[0])
        raise TermError(f"not a monitor term: {t!r}")

    return fold(m, rd)


def _pi(m: Monitor, kids) -> Process:
    if isinstance(m, Verdict):
        return Prefix(VERDICT_ACTIONS[m.value], Nil())
    if isinstance(m, (Var, Prefix, Sum, Rec)):
        return m.rebuild(kids)
    raise TermError(f"not a monitor term: {m!r}")


def pi(m: Monitor) -> Process:
    """Recast a monitor as a process: each verdict becomes the matching
    verdict-labelled action prefixing ``nil``."""
    return fold(m, _pi)


def _verdict_action(p: Process, env: None):
    if isinstance(p, Prefix) and p.action in _ACTION_VERDICTS:
        return SKIP
    return env


def _pi_inverse(p: Process, kids, env) -> Monitor:
    if env is SKIP:
        return Verdict(_ACTION_VERDICTS[p.action])
    if isinstance(p, Nil):
        raise TermError("bare 'nil' has no monitor reading")
    if isinstance(p, (Var, Prefix, Rec)):
        return p.rebuild(kids)
    if isinstance(p, Sum):
        return mk_sum(kids)
    raise TermError(f"not a process term: {p!r}")


def pi_inverse(p: Process) -> Monitor:
    """Undo `pi`.  A verdict-labelled action becomes that verdict (its
    continuation is irrelevant: after a verdict everything stays that
    verdict, so it is not visited); a bare ``nil`` has no monitor
    reading and is an error."""
    return fold(p, _pi_inverse, _verdict_action)
