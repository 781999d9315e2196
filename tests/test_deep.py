"""Terms far deeper than the Python stack: every operation walks them on
an explicit stack, under the default recursion limit."""

import sys
import time

import pytest

from detmon import cli
from detmon.equivalence import simple_traces
from detmon.families import ALPHABET_01E, mn_monitor
from detmon.logic import formula_to_system, is_standard_form
from detmon.pipeline import determinize_monitor
from detmon.semantics import CapExceeded, binder_map, is_deterministic, verdicts_on
from detmon.synthesis import VERDICT_ACTIONS, monitor_to_formula, msf, pi, pi_inverse
from detmon.syntax import parse_formula, parse_monitor, print_term
from detmon.terms import (
    NO,
    NO_MARKER,
    YES,
    And,
    Box,
    Diamond,
    FF,
    Max,
    Min,
    Nil,
    Or,
    Prefix,
    Rec,
    Sum,
    TT,
    Var,
    Verdict,
    actions_in,
    dualize,
    dualize_monitor,
    eliminate_verdict_sums,
    free_vars,
    height,
    is_chml,
    is_shml,
    prefix_chain,
    rename_apart,
    size,
    subst,
    subterms,
    uniquify_formula,
    verdicts_in,
    well_form,
)
from detmon.verdicts import determinize_two_verdict, nu, nu_inverse

N = 100_000
A = frozenset({"a"})
AB = frozenset({"a", "b"})


def chain_of(tail):
    return prefix_chain(["a"] * N, tail)


def nest_of(*bottom, first=0):
    """rec x{first}. a.rec x{first+1}. a. ... rec x{N-1}. a.(bottom)"""
    m = Sum(bottom)
    for i in reversed(range(first, N)):
        m = Rec(f"x{i}", Prefix("a", m))
    return m


def boxes_of(box, tail):
    f = tail
    for _ in range(N):
        f = box("a", f)
    return f


YES_, NO_ = Verdict(YES), Verdict(NO)
NEST = (Prefix("b", Var("x0")), YES_)  # b.x0 + yes


@pytest.fixture(scope="module")
def chain():
    return parse_monitor("a." * N + "yes", A)


@pytest.fixture(scope="module")
def nest():
    text = "".join(f"rec x{i}. a." for i in range(N)) + "(b.x0 + yes)"
    return parse_monitor(text, AB)


@pytest.fixture(scope="module")
def boxes():
    return parse_formula("[a]" * N + "ff", A)


def test_the_recursion_limit_is_the_default():
    assert sys.getrecursionlimit() <= 1000 < N


def test_parsed_copies_are_equal_and_print_back(chain, nest, boxes):
    assert chain == chain_of(YES_) and chain != chain_of(NO_)
    assert nest == nest_of(*NEST) and nest != nest_of(Prefix("b", Var("x1")), YES_)
    assert boxes == boxes_of(Box, FF())
    for term, parse in (
        (chain, lambda text: parse_monitor(text, A)),
        (nest, lambda text: parse_monitor(text, AB)),
        (boxes, lambda text: parse_formula(text, A)),
    ):
        copy = parse(print_term(term))
        assert copy == term and copy is not term
        assert hash(copy) == hash(term)


def test_metrics_and_queries(chain, nest, boxes):
    for m, alphabet in ((chain, A), (nest, AB)):
        assert well_form(m, alphabet) == m
        assert free_vars(m) == frozenset()
    assert free_vars(boxes) == frozenset()
    assert len(list(subterms(boxes))) == N + 1
    assert size(chain) == height(chain) == N + 1
    assert len(list(subterms(chain))) == N + 1
    # N binders, N + 1 prefixes, one choice, a variable and a verdict
    assert size(nest) == 2 * N + 4
    assert height(nest) == N + 2
    assert len(list(subterms(nest))) == 2 * N + 4
    assert free_vars(nest.body) == frozenset({"x0"})


def test_a_ladder_of_binders():
    # rec x0.(a.rec x1.(a. ... + b.x1) + b.x0): N names, each bound once
    # and used once, at every depth.
    m, f = YES_, TT()
    for i in reversed(range(N)):
        m = Rec(f"x{i}", Sum((Prefix("a", m), Prefix("b", Var(f"x{i}")))))
        f = Max(f"X{i}", And((Box("a", f), Box("b", Var(f"X{i}")))))
    assert well_form(m, AB) is m
    assert free_vars(f) == frozenset()
    assert uniquify_formula(f) is f


def test_rewrites(chain, nest, boxes):
    assert subst(nest.body, "x0", NO_) == Prefix("a", nest_of(Prefix("b", NO_), YES_, first=1))
    assert subst(nest, "x0", NO_) is nest  # bound, so nothing to replace
    assert dualize_monitor(chain) == chain_of(NO_)
    assert dualize_monitor(nest) == nest_of(Prefix("b", Var("x0")), NO_)
    assert dualize(boxes) == boxes_of(Diamond, TT())
    expanded = nest_of(Prefix("b", Var("x0")), Prefix("a", YES_), Prefix("b", YES_))
    assert eliminate_verdict_sums(nest, AB) == expanded


def test_synthesis_both_ways(nest, boxes):
    assert monitor_to_formula(chain_of(NO_)) == boxes
    assert msf(boxes) == chain_of(NO_)
    # The choice reads as [b]X0 & ff, which is ff; acceptance dualizes.
    expected = TT()
    for i in reversed(range(N)):
        expected = Min(f"X{i}", Diamond("a", expected))
    assert monitor_to_formula(nest) == expected


def test_verdicts_as_actions(chain, nest):
    assert pi(chain) == chain_of(Prefix(VERDICT_ACTIONS[YES], Nil()))
    for m in (chain, nest):
        assert pi_inverse(pi(m)) == m
    marked = nu(chain_of(NO_), A)
    assert marked == chain_of(Prefix(NO_MARKER, YES_))
    assert nu_inverse(marked) == chain_of(NO_)
    rejecting = nest_of(Prefix("b", Var("x0")), Prefix("a", NO_), Prefix("b", NO_))
    assert nu_inverse(nu(rejecting, AB)) == rejecting


def test_runs_and_traces(chain, nest):
    assert verdicts_on(chain, ("a",) * N, A, system="N") == {YES}
    assert verdicts_on(chain, ("a",) * (N - 1), A, system="N") == frozenset()
    assert verdicts_on(nest, ("a",) * N, AB, system="N") == frozenset()
    assert verdicts_on(nest, ("a",) * (N + 1), AB, system="N") == {YES}
    back = ("a",) * N + ("b",) + ("a",) * N + ("b",)
    assert verdicts_on(nest, back, AB, system="N") == {YES}
    within = {("a",) * k for k in range(6)}
    assert simple_traces(chain, 5) == within
    assert simple_traces(nest, 5) == within


def test_shared_subterms_are_folded_once():
    m = mn_monitor(40)
    start = time.perf_counter()
    assert size(m) == 5 * 2**39 + 5
    hash(m)
    assert time.perf_counter() - start < 1.0


def test_queries_visit_shared_subterms_once():
    m = mn_monitor(40)
    # Its formula and a deterministic choice tree, shared the same way.
    tail, det = Diamond("e", TT()), Prefix("e", YES_)
    for _ in range(39):
        tail = Or((Diamond("0", tail), Diamond("1", tail)))
        det = Sum((Prefix("0", det), Prefix("1", det)))
    f = Min("X", Or((Diamond("0", Var("X")), Diamond("1", Var("X")), Diamond("1", tail))))
    start = time.perf_counter()
    assert verdicts_in(m) == {YES}
    assert binder_map(m) == {"x": m}
    assert well_form(m, ALPHABET_01E) is m
    assert actions_in(m) == ALPHABET_01E
    assert rename_apart(m, ALPHABET_01E) is m
    assert nu(m, ALPHABET_01E) is m
    assert is_chml(f) and not is_shml(f) and is_standard_form(f)
    assert is_deterministic(det) and not is_deterministic(m)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("method", ["automata", "equations"])
def test_determinize_a_20000_deep_chain(method):
    chain = prefix_chain(["a"] * 20_000, YES_)
    start = time.perf_counter()
    assert determinize_monitor(chain, A, method=method, force=True) == chain
    assert time.perf_counter() - start < 4.0


def test_flatten_a_20000_deep_ladder():
    # rec x0.(a.rec x1.(a. ... + b.x1) + b.x0): each binder's variable
    # stands in one row, so each fixpoint must touch only that row.
    m, f = NO_, FF()
    for i in reversed(range(20_000)):
        m = Rec(f"x{i}", Sum((Prefix("a", m), Prefix("b", Var(f"x{i}")))))
        f = Max(f"X{i}", And((Box("a", f), Box("b", Var(f"X{i}")))))
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="20001 states exceeds the cap"):
        determinize_monitor(m, AB, method="equations")
    assert time.perf_counter() - start < 10.0
    start = time.perf_counter()
    assert len(formula_to_system(f).equations) == 40_001
    assert time.perf_counter() - start < 10.0


def test_determinize_two_verdict_on_a_20000_deep_chain():
    chain = prefix_chain(["a"] * 20_000, Sum((Prefix("a", YES_), Prefix("b", NO_))))
    assert determinize_two_verdict(chain, AB, force=True) == chain


def test_cli_on_a_2000_deep_chain(tmp_path, capsys):
    path = tmp_path / "chain.mon"
    path.write_text("alphabet: a\n" + "a." * 2000 + "yes\n")
    mon = str(path)
    assert cli.main(["determinize", mon, "--force"]) == 0
    # No back-edge in the minimal DFA, so no binder in the unfolding
    out = capsys.readouterr().out
    assert out == "alphabet: a\n" + "a." * 2000 + "yes\n"
    assert cli.main(["trace", "--monitor", mon, "--trace", ".".join("a" * 2000)]) == 0
    assert capsys.readouterr().out == "yes\n"
    assert cli.main(["conflict", mon]) == 0
    assert capsys.readouterr().out == "conflict-free\n"
    assert cli.main(["equiv", mon, mon]) == 0
    assert capsys.readouterr().out == "equivalent\n"
    assert cli.main(["to-nfa", mon]) == 0
    out = capsys.readouterr().out
    assert "\nq1999 -a-> q2000\n" in out and "\naccepting: q2000\n" in out
