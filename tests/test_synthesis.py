"""Monitor synthesis from formulas and the translations back."""

import random

import pytest
from hypothesis import example, given, strategies as st

from detmon.synthesis import monitor_to_formula, msf, pi, pi_inverse
from detmon.syntax import parse_formula, parse_monitor, print_term
from detmon.terms import (
    FragmentError,
    Nil,
    Prefix,
    TermError,
    Verdict,
    dualize,
    dualize_monitor,
    is_shml,
    size,
)

from gen import random_monitor, random_shml

A = frozenset({"a"})
AB = frozenset({"a", "b"})
SERVER = frozenset({"req", "res", "cls"})


def test_msf_running_example():
    f = parse_formula("max X. [a]([a]ff & X)", A)
    assert msf(f) == parse_monitor("rec x. a.(a.no + x)", A)


def test_msf_server_example():
    f = parse_formula("max X. [req]([cls]ff & [req]tt & [res]X)", SERVER)
    m = msf(f)
    assert print_term(m) == "rec x. req.(cls.no + res.x)"


def test_msf_drops_vacuous_boxes():
    # [req]tt contributes nothing: a violation can never start there
    assert msf(parse_formula("[a]tt", A)) == Verdict("yes")
    assert msf(parse_formula("[a]tt & [b]ff", AB)) == parse_monitor("b.no", AB)


def test_msf_truth_constants():
    assert msf(parse_formula("tt", A)) == Verdict("yes")
    assert msf(parse_formula("ff", A)) == Verdict("no")


def test_msf_cosafety_by_duality():
    f = parse_formula("min X. <a><a>tt | <a>X", A)
    m = msf(f)
    assert print_term(m) == "rec x. a.a.yes + a.x"
    assert dualize_monitor(m) == msf(dualize(f))


def test_msf_rejects_mixed_fragments():
    with pytest.raises(FragmentError):
        msf(parse_formula("[a]ff | <a>tt", A))


def test_msf_lowercases_variables_without_collisions():
    f = parse_formula("max X. [a](max x. [a]x & X)", A)
    m = msf(f)
    binders = print_term(m)
    assert "rec x" in binders  # both fixpoints survive with distinct names
    g = monitor_to_formula(m)
    assert is_shml(g)


def _formula_nodes(f) -> int:
    kids = getattr(f, "conjuncts", None) or getattr(f, "disjuncts", None)
    if kids is not None:
        return len(kids) - 1 + sum(_formula_nodes(k) for k in kids)
    body = getattr(f, "body", None)
    return 1 if body is None else 1 + _formula_nodes(body)


@given(st.integers(0, 5_000))
def test_msf_never_grows_the_formula(seed):
    f = random_shml(random.Random(seed), 4)
    assert size(msf(f)) <= _formula_nodes(f)


def test_monitor_to_formula_round_trip():
    m = parse_monitor("rec x. a.(a.no + x)", A)
    f = monitor_to_formula(m)
    assert f == parse_formula("max X. [a]([a]ff & X)", A)
    assert msf(f) == m


def test_monitor_to_formula_yes_monitor():
    m = parse_monitor("rec x. a.a.yes + a.x", A)
    f = monitor_to_formula(m)
    assert print_term(f) == "min X. <a><a>tt | <a>X"


def test_monitor_to_formula_rejects_end():
    # a.end is strictly less informative than [a]tt: no formula of the
    # fragment abstains exactly there
    with pytest.raises(TermError):
        monitor_to_formula(parse_monitor("a.end", A))


def test_monitor_to_formula_rejects_two_verdicts():
    with pytest.raises(TermError):
        monitor_to_formula(parse_monitor("a.yes + b.no", AB))


@given(st.integers(0, 5_000))
@example(1191)  # conjuncts [a][a]ff and [a]([a]tt & [a]ff) give one monitor
@example(3483)
def test_synthesis_round_trip_on_random_safety_formulas(seed):
    f = random_shml(random.Random(seed), 4)
    m = msf(f)
    try:
        g = monitor_to_formula(m)
    except TermError:
        return  # verdict-free monitors (pure yes) have no formula image
    assert msf(g) == m


def test_pi_running_example():
    m = parse_monitor("rec x. a.(a.no + x)", A)
    p = pi(m)
    assert print_term(p) == "rec x. a.(a.[no].nil + x)"
    assert pi_inverse(p) == m


def test_pi_verdict_becomes_labelled_halt():
    p = pi(Verdict("no"))
    assert p == Prefix("[no]", Nil())
    assert pi_inverse(p) == Verdict("no")


def test_pi_inverse_rejects_bare_nil():
    with pytest.raises(TermError):
        pi_inverse(Nil())


@given(st.integers(0, 5_000))
def test_pi_round_trip_on_random_monitors(seed):
    m = random_monitor(random.Random(seed), 12)
    assert pi_inverse(pi(m)) == m
