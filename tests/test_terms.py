"""Term construction, metrics, duality, normalization."""

import random

import pytest
from hypothesis import given, strategies as st

from detmon.syntax import parse_monitor, parse_formula, print_term
from detmon.terms import (
    And,
    Box,
    Diamond,
    END,
    FF,
    FreeVariableError,
    Max,
    Min,
    NO,
    Or,
    Prefix,
    Rec,
    Sum,
    TT,
    TermError,
    Var,
    Verdict,
    YES,
    actions_in,
    dualize,
    dualize_monitor,
    eliminate_verdict_sums,
    free_vars,
    height,
    is_chml,
    is_shml,
    mk_and,
    mk_sum,
    rename_apart,
    size,
    subterms,
    uniquify_formula,
    verdicts_in,
    well_form,
)

from gen import random_monitor, random_shml

A = frozenset({"a"})
AB = frozenset({"a", "b"})


def me():
    return parse_monitor("rec x. a.(a.no + x)", A)


class TestConstruction:
    def test_verdict_values(self):
        for v in (YES, NO, END):
            assert Verdict(v).value == v
        with pytest.raises(TermError):
            Verdict("maybe")

    def test_sum_needs_two(self):
        with pytest.raises(TermError):
            Sum((Verdict(YES),))

    def test_sum_rejects_nesting(self):
        inner = Sum((Verdict(YES), Verdict(NO)))
        with pytest.raises(TermError):
            Sum((inner, Verdict(END)))

    def test_mk_sum_flattens(self):
        s = mk_sum([mk_sum([Prefix("a", Verdict(YES)), Prefix("b", Verdict(NO))]),
                    Verdict(END)])
        assert isinstance(s, Sum) and len(s.summands) == 3

    def test_mk_sum_singleton_collapses(self):
        assert mk_sum([Verdict(YES)]) == Verdict(YES)
        with pytest.raises(TermError):
            mk_sum([])

    def test_mk_and_units(self):
        assert mk_and([TT(), TT()]) == TT()
        assert mk_and([Box("a", TT()), FF(), TT()]) == FF()
        # duplicates collapse, first occurrence order kept
        x, y = Var("X"), Var("Y")
        c = mk_and([x, y, x])
        assert isinstance(c, And) and c.conjuncts == (x, y)

    def test_terms_hashable_and_equal_by_structure(self):
        assert me() == me()
        assert len({me(), me()}) == 1


class TestMetrics:
    def test_size_height_of_running_example(self):
        m = me()
        assert size(m) == 6
        assert height(m) == 3

    def test_size_of_sum_counts_choice_operators(self):
        m = parse_monitor("a.yes + b.no + a.end", AB)
        # three prefixes on three leaves, plus two choice operators
        assert size(m) == 8

    def test_subterms_of_running_example(self):
        names = {type(t).__name__ for t in subterms(me())}
        assert names == {"Rec", "Sum", "Prefix", "Var", "Verdict"}

    def test_free_vars(self):
        assert free_vars(me()) == frozenset()
        assert free_vars(Prefix("a", Var("x"))) == frozenset({"x"})
        assert free_vars(Rec("x", Prefix("a", Var("x")))) == frozenset()

    def test_actions_and_verdicts(self):
        m = parse_monitor("a.yes + b.no", AB)
        assert actions_in(m) == frozenset({"a", "b"})
        assert verdicts_in(m) == frozenset({YES, NO})


class TestFragments:
    def test_shml(self):
        f = parse_formula("max X. [a]([a]ff & X)", A)
        assert is_shml(f) and not is_chml(f)

    def test_chml(self):
        f = parse_formula("min X. <a><a>tt | <a>X", A)
        assert is_chml(f) and not is_shml(f)

    def test_tt_ff_in_both(self):
        assert is_shml(TT()) and is_chml(TT())
        assert is_shml(FF()) and is_chml(FF())


class TestDuality:
    def test_dualize_golden(self):
        f = parse_formula("max X. [a]([a]ff & X)", A)
        assert print_term(dualize(f)) == "min X. <a>(<a>tt | X)"

    def test_dualize_monitor_swaps_verdicts(self):
        m = parse_monitor("a.yes + b.no + a.end", AB)
        d = dualize_monitor(m)
        assert verdicts_in(d) == {YES, NO, END}  # end is self-dual
        assert print_term(d) == "a.no + b.yes + a.end"

    @given(st.integers(0, 10_000))
    def test_dualize_involution(self, seed):
        f = random_shml(random.Random(seed), 4)
        assert dualize(dualize(f)) == f

    @given(st.integers(0, 10_000))
    def test_dualize_monitor_involution(self, seed):
        m = random_monitor(random.Random(seed), 10)
        assert dualize_monitor(dualize_monitor(m)) == m


class TestWellForm:
    def test_duplicate_binders_renamed(self):
        m = parse_monitor("(rec x. a.x) + rec x. b.x", AB)
        w = well_form(m, AB)
        assert print_term(w) == "(rec x1. a.x1) + rec x2. b.x2"

    def test_unique_binder_keeps_name(self):
        m = parse_monitor("rec x. a.x", A)
        assert well_form(m, A) == m

    def test_rec_over_verdict_collapses(self):
        m = Rec("x", Verdict(NO))
        assert well_form(m, A) == Verdict(NO)
        nested = Rec("x", Rec("y", Verdict(YES)))
        assert well_form(nested, A) == Verdict(YES)

    def test_free_variable_rejected(self):
        with pytest.raises(TermError):
            well_form(Prefix("a", Var("x")), A)

    @pytest.mark.parametrize("m", [
        Sum((Prefix("a", Var("x")), Rec("x", Prefix("b", Var("x"))))),
        Sum((Rec("x", Prefix("a", Var("x"))), Prefix("b", Var("x")))),
        Sum((Rec("x", Prefix("a", Var("x"))), Rec("x", Prefix("b", Var("x"))), Var("x"))),
    ])
    def test_variable_outside_its_binder_rejected(self, m):
        with pytest.raises(FreeVariableError, match=r"\['x'\]"):
            well_form(m, AB)

    def test_variable_under_a_repeated_name_is_bound(self):
        m = Rec("x", Prefix("a", Rec("x", Sum((Prefix("a", Var("x")), Prefix("b", Var("x")))))))
        assert print_term(well_form(m, AB)) == "rec x1. a.(rec x2. a.x2 + b.x2)"

    def test_action_outside_alphabet_rejected(self):
        with pytest.raises(TermError):
            well_form(Prefix("c", Verdict(YES)), AB)

    def test_binder_shadowing_alphabet_rejected(self):
        m = Rec("a", Prefix("a", Var("a")))
        with pytest.raises(TermError):
            well_form(m, A)

    @given(st.integers(0, 5_000))
    def test_idempotent(self, seed):
        m = random_monitor(random.Random(seed), 12)
        w = well_form(m, AB)
        assert well_form(w, AB) == w


class TestRenameApart:
    def test_distinct_binders_give_the_term_itself(self):
        m = parse_monitor("rec x. a.(rec y. b.y + a.x)", AB)
        assert rename_apart(m, AB) is m

    def test_a_repeated_name_is_renamed(self):
        m = parse_monitor("(rec x. a.x) + rec x. b.x", AB)
        assert print_term(rename_apart(m, AB)) == "(rec x1. a.x1) + rec x2. b.x2"


class TestVerdictSums:
    def test_golden(self):
        m = parse_monitor("a.yes + no", AB)
        out = eliminate_verdict_sums(m, AB)
        assert print_term(out) == "a.yes + a.no + b.no"

    def test_no_verdict_summand_is_identity(self):
        m = parse_monitor("a.yes + b.no", AB)
        assert eliminate_verdict_sums(m, AB) == m

    def test_nested(self):
        m = parse_monitor("a.(b.yes + end)", AB)
        out = eliminate_verdict_sums(m, AB)
        assert print_term(out) == "a.(b.yes + a.end + b.end)"


class TestUniquify:
    def test_repeated_binders_get_fresh_names(self):
        f = parse_formula("[a](max X. [a]X) & max X. [b]X", AB)
        u = uniquify_formula(f)
        binders = [t.var for t in subterms(u) if isinstance(t, (Max, Min))]
        assert len(binders) == len(set(binders)) == 2

    def test_already_unique_untouched(self):
        f = parse_formula("max X. [a](max Y. [b]Y & X)", AB)
        assert uniquify_formula(f) is f

    def test_a_binder_named_like_a_free_variable_is_renamed(self):
        f = parse_formula("[b]X & max X. [a]X", AB)
        assert print_term(uniquify_formula(f)) == "[b]X & max X1. [a]X1"
