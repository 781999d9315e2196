"""Operational semantics: step rules, the three recursion disciplines,
weak derivations, and instrumentation."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from detmon.families import ALPHABET_01E, mn_monitor, mn_predicate
from detmon.semantics import (
    CapExceeded,
    Lts,
    StepEngine,
    acc,
    binder_map,
    derive,
    derive_process,
    format_lts,
    is_deterministic,
    monitored_step,
    parse_lts,
    process_steps,
    rej,
    steps,
    verdicts_on,
)
from detmon.syntax import parse_monitor
from detmon.terms import (
    END,
    FreeVariableError,
    NO,
    Nil,
    Prefix,
    Rec,
    TAU,
    Var,
    Verdict,
    YES,
    prefix_chain,
)

from gen import all_words, random_monitor, random_word, scramble

A = frozenset({"a"})
AB = frozenset({"a", "b"})
SERVER = frozenset({"req", "res", "cls"})


def me():
    return parse_monitor("rec x. a.(a.no + x)", A)


# ---------------------------------------------------------------------------
# Single steps
# ---------------------------------------------------------------------------


def test_verdicts_self_loop_on_every_action():
    out = steps(Verdict(NO), AB)
    assert [(s.label, s.rule) for s in out] == [("a", "mVerd"), ("b", "mVerd")]
    assert all(s.target == Verdict(NO) for s in out)


def test_prefix_fires_its_action():
    out = steps(parse_monitor("a.no", A), A)
    assert [(s.label, s.target, s.rule) for s in out] == [("a", Verdict(NO), "mAct")]


def test_sum_selects_left_and_right():
    out = steps(parse_monitor("a.yes + b.no", AB), AB)
    rules = {(s.label, s.rule) for s in out}
    assert rules == {("a", "mSelL"), ("b", "mSelR")}


def test_rec_unfolds_by_substitution_in_O():
    m = me()
    (s,) = steps(m, A, system="O")
    assert s.label == TAU and s.rule == "mRec"
    # the unfolding replaces x by the whole binder
    assert s.target == parse_monitor("a.(a.no + rec x. a.(a.no + x))", A)


def test_rec_steps_to_body_in_M_and_N():
    m = me()
    for system in ("M", "N"):
        (s,) = steps(m, A, system=system)
        assert s.label == TAU and s.rule == "mRecF"
        assert s.target == m.body


def test_var_goes_to_binder_body_in_M():
    m = me()
    (s,) = steps(Var("x"), A, system="M", binders=binder_map(m))
    assert s.rule == "mRecP" and s.target == m.body


def test_var_goes_to_binder_node_in_N():
    m = me()
    (s,) = steps(Var("x"), A, system="N", binders=binder_map(m))
    assert s.rule == "mRecB" and s.target == m


def test_bare_var_is_stuck_in_O_but_an_error_unbound_in_M_N():
    assert steps(Var("x"), A, system="O") == []
    for system in ("M", "N"):
        with pytest.raises(FreeVariableError):
            steps(Var("x"), A, system=system)


# ---------------------------------------------------------------------------
# Weak derivations and verdicts
# ---------------------------------------------------------------------------


def test_verdicts_on_running_example():
    m = me()
    assert verdicts_on(m, (), A) == frozenset()
    assert verdicts_on(m, ("a",), A) == frozenset()
    assert verdicts_on(m, ("a", "a"), A) == {NO}
    assert verdicts_on(m, ("a", "a", "a"), A) == {NO}


def test_three_systems_agree_on_running_example():
    m = me()
    for w in all_words(A, 4):
        flags = {s: verdicts_on(m, w, A, system=s) for s in ("O", "M", "N")}
        assert flags["O"] == flags["M"] == flags["N"]


@settings(deadline=None)
@given(st.integers(0, 3_000))
def test_three_systems_agree_on_random_monitors(seed):
    m = random_monitor(random.Random(seed), 10)
    for w in all_words(AB, 3):
        flags = {s: verdicts_on(m, w, AB, system=s) for s in ("O", "M", "N")}
        assert flags["O"] == flags["M"] == flags["N"], (m, w)


# Each is open, reuses a binder name, or both.  On the given trace, a
# variable resolved by its name alone, through a binder map of the whole
# monitor, gives another answer than "O" for at least one such map:
# another verdict, or an error where the variable is free.
TRICKY = [
    ("a.x + b.yes", ("a", "b")),
    ("(rec x. a.b.yes) + b.x", ("b", "a", "b")),
    ("b.x + rec x. a.b.yes", ("b", "a", "b")),
    ("rec x. a.(rec x. b.x + a.yes) + b.x", ("a", "b", "b", "a")),
    ("a.(rec x. a.x + b.no) + b.(rec x. b.x + a.no)", ("a", "a", "b")),
    ("a.(rec x. a.x + b.no) + b.(rec x. b.x + a.no)", ("b", "b", "a")),
    ("rec x. a.x + b.(rec y. a.x + b.y + a.b.z)", ("b", "a", "b", "a")),
]


def test_default_agrees_with_O_on_open_and_reused_binder_monitors():
    for text, trace in TRICKY:
        m = parse_monitor(text, AB)
        for w in [trace, *all_words(AB, 4)]:
            assert verdicts_on(m, w, AB) == verdicts_on(m, w, AB, system="O"), (text, w)


def test_default_agrees_with_O_on_generated_monitors():
    rng = random.Random(58)
    for i in range(600):
        m = random_monitor(rng, rng.randint(3, 16))
        if i % 2:
            m = scramble(rng, m)
        for w in [*all_words(AB, 3), random_word(rng, 8)]:
            expected = verdicts_on(m, w, AB, system="O")
            assert verdicts_on(m, w, AB) == expected, (m, w)
            assert verdicts_on(m, w, AB, system="M") == expected, (m, w)


def test_default_agrees_with_O_on_shared_and_deep_monitors():
    rng = random.Random(59)
    for n in (1, 2, 5, 12, 40):
        m = mn_monitor(n)  # the levels below the top choice are shared
        words = [random_word(rng, n + 4, frozenset("01")) + ("e",) for _ in range(20)]
        words.append(("1",) + ("0",) * (n - 1) + ("e",))
        for w in words:
            expected = {YES} if mn_predicate(n, w) else set()
            assert verdicts_on(m, w, ALPHABET_01E) == expected, (n, w)
            assert verdicts_on(m, w, ALPHABET_01E, system="O") == expected, (n, w)
    deep = 100_000
    m = prefix_chain(["a"] * deep, parse_monitor("rec x. b.x + a.yes", AB))
    for w in (("a",) * deep + ("b", "b", "a"), ("a",) * deep + ("b",), ("a",) * (deep + 1)):
        assert verdicts_on(m, w, AB) == verdicts_on(m, w, AB, system="O")
    assert verdicts_on(m, ("a",) * deep + ("b", "a"), AB) == {YES}


def test_O_unfolds_each_binder_once_per_engine():
    m = me()
    eng = StepEngine(A, "O")
    (first,) = eng.steps(m)
    (again,) = eng.steps(m)
    assert again.target is first.target


def test_derive_includes_trailing_taus():
    m = parse_monitor("a.(rec y. b.y)", AB)
    after_a = derive(m, ("a",), AB, system="N")
    binder = parse_monitor("rec y. b.y", AB)
    assert binder in after_a
    assert binder.body in after_a  # the trailing tau unfolding is kept


def test_closure_cap_is_enforced():
    # binder name chosen so no other test shares (and caches) this term
    m = parse_monitor("rec zcap. a.(a.no + zcap)", A)
    eng = StepEngine(A, "O", cap=1)
    with pytest.raises(CapExceeded):
        eng.weak_successors(m, "a")


def test_is_deterministic_goldens():
    assert is_deterministic(parse_monitor("a.a.no", A))
    assert is_deterministic(parse_monitor("a.yes + b.no", AB))
    assert not is_deterministic(parse_monitor("a.yes + a.no", AB))
    assert not is_deterministic(me())  # x summand is not a prefix
    assert is_deterministic(Verdict(YES))


# ---------------------------------------------------------------------------
# LTSs and instrumentation
# ---------------------------------------------------------------------------

GOOD_SERVER = """\
states: s0, s1
init: s0
s0 -req-> s1
s1 -res-> s0
"""

BAD_SERVER = """\
states: t0, t1, t2
init: t0
t0 -req-> t1
t1 -cls-> t2
"""


def server_monitor():
    return parse_monitor("rec x. req.cls.no + req.res.x", SERVER)


def test_parse_format_lts_round_trip():
    lts = parse_lts(GOOD_SERVER)
    assert parse_lts(format_lts(lts)).transitions == lts.transitions
    assert lts.init == "s0"


def test_lts_requires_headers():
    with pytest.raises(ValueError):
        parse_lts("s0 -a-> s0\n")
    with pytest.raises(ValueError):
        parse_lts("states: s0\ns0 -a-> s0\n")


def test_rejection_of_bad_server():
    m = server_monitor()
    assert rej(m, parse_lts(BAD_SERVER), "t0", SERVER)
    assert not rej(m, parse_lts(GOOD_SERVER), "s0", SERVER)
    assert not acc(m, parse_lts(BAD_SERVER), "t0", SERVER)


def test_acc_and_rej_reject_an_unknown_start_state():
    m, lts = server_monitor(), parse_lts(GOOD_SERVER)
    for check in (acc, rej):
        with pytest.raises(ValueError, match="unknown start state 'zz'"):
            check(m, lts, "zz", SERVER)


def test_monitored_step_rules():
    lts = parse_lts(GOOD_SERVER)
    m = server_monitor()
    first = monitored_step(m, "s0", lts, SERVER)
    # the monitor must tau-unfold before it can mirror req
    assert {s.rule for s in first} == {"iAsyM"}
    unfolded = [s for s in first if s.rule == "iAsyM"][0].monitor
    second = monitored_step(unfolded, "s0", lts, SERVER)
    assert {s.rule for s in second} == {"iMon"}
    assert all(s.label == "req" and s.state == "s1" for s in second)


def test_monitor_falls_to_end_when_it_cannot_follow():
    lts = parse_lts("states: u0, u1\ninit: u0\nu0 -res-> u1\n")
    m = parse_monitor("req.cls.no", SERVER)
    out = monitored_step(m, "u0", lts, SERVER)
    assert [(s.rule, s.monitor) for s in out] == [("iTer", Verdict(END))]


def test_process_tau_moves_alone():
    lts = parse_lts("states: v0, v1\ninit: v0\nv0 -tau-> v1\n")
    m = parse_monitor("req.cls.no", SERVER)
    out = monitored_step(m, "v0", lts, SERVER)
    assert [(s.rule, s.label, s.state) for s in out] == [("iAsyP", TAU, "v1")]
    assert out[0].monitor == m  # monitor untouched by a silent process step


# ---------------------------------------------------------------------------
# Process dynamics
# ---------------------------------------------------------------------------


def test_nil_is_inert():
    assert process_steps(Nil()) == []


def test_verdict_process_is_inert():
    assert process_steps(Verdict(YES)) == []


def test_process_prefix_and_recursion():
    p = Rec("x", Prefix("a", Var("x")))
    (s,) = process_steps(p)
    assert s.label == TAU
    states = derive_process(p, ("a", "a"))
    assert states


def test_runs_leave_no_terms_at_module_level():
    import sys

    from detmon.terms import Term

    def term_holders():
        found = []
        for name, module in list(sys.modules.items()):
            if name != "detmon" and not name.startswith("detmon."):
                continue
            for attr, value in vars(module).items():
                if isinstance(value, dict):
                    items = [*value.keys(), *value.values()]
                elif isinstance(value, (list, tuple, set, frozenset)):
                    items = list(value)
                else:
                    continue
                for item in items:
                    parts = item if isinstance(item, tuple) else (item,)
                    if any(isinstance(p, Term.__args__) for p in parts):
                        found.append(f"{name}.{attr}")
                        break
        return found

    verdicts_on(me(), ("a", "a"), A)
    verdicts_on(parse_monitor("rec y. a.y + b.yes", AB), ("a", "b"), AB)
    assert term_holders() == []
