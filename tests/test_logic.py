"""Formula evaluation, equation systems, standard forms, and the
equation-level determinization chain."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from detmon.logic import (
    EquationSystem,
    determinize_formula,
    determinize_system,
    eval_formula,
    eval_system,
    format_equation_system,
    formula_to_system,
    is_deterministic_form,
    is_deterministic_form_system,
    is_standard_form,
    is_standard_form_system,
    parse_equation_system,
    solve_system,
    solve_system_simultaneous,
    system_to_dfa,
    system_to_formula,
    to_standard_form,
)
from detmon.automata import format_automaton
from detmon.equivalence import verdict_equiv
from detmon.families import mn_monitor
from detmon.semantics import parse_lts
from detmon.synthesis import monitor_to_formula, msf
from detmon.syntax import parse_formula, print_term
from detmon.terms import (
    END,
    Max,
    NO,
    TermError,
    Verdict,
    YES,
    dualize,
    eliminate_verdict_sums,
    free_vars,
    is_shml,
    size,
    subst_formula,
    well_form,
)

from gen import random_lts, random_monitor, random_shml

A = frozenset({"a"})
AB = frozenset({"a", "b"})

CHAIN = """\
states: c0, c1, c2
init: c0
c0 -a-> c1
c1 -a-> c2
c2 -a-> c2
"""

LOOP = """\
states: l0
init: l0
l0 -a-> l0
"""


def phi_e():
    return parse_formula("max X. [a]([a]ff & X)", A)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def test_eval_on_the_one_step_chain():
    lts = parse_lts(CHAIN)
    # two a-steps always possible from c0, so the invariant fails there
    assert eval_formula(phi_e(), lts) == frozenset()


def test_eval_distinguishes_terminal_states():
    lts = parse_lts("states: d0, d1\ninit: d0\nd0 -a-> d1\n")
    got = eval_formula(phi_e(), lts)
    # d1 is stuck: no a possible, so the box holds vacuously forever
    assert got == frozenset({"d0", "d1"})


def test_eval_weak_modality_absorbs_tau():
    lts = parse_lts("states: e0, e1, e2\ninit: e0\ne0 -tau-> e1\ne1 -a-> e2\n")
    f = parse_formula("[a]ff", A)
    got = eval_formula(f, lts)
    # e0 reaches the a-step through tau, so the box bites there too
    assert got == frozenset({"e2"})


def test_eval_min_is_least_fixpoint():
    lts = parse_lts(LOOP)
    f = parse_formula("min X. <a>X", A)
    assert eval_formula(f, lts) == frozenset()
    g = parse_formula("max X. <a>X", A)
    assert eval_formula(g, lts) == frozenset({"l0"})


# ---------------------------------------------------------------------------
# Equation systems and their solvers
# ---------------------------------------------------------------------------


def example_system():
    text = (
        "alphabet: a\n"
        "principal: X\n"
        "X = [a]X_1\n"
        "X_1 = [a]X_2 & [a]X_1\n"
        "X_2 = ff\n"
    )
    sys, alphabet = parse_equation_system(text)
    return sys, alphabet


def test_equation_file_round_trip():
    sys, alphabet = example_system()
    assert parse_equation_system(format_equation_system(sys, alphabet)) == (sys, alphabet)


def test_system_requires_distinct_names():
    with pytest.raises(TermError):
        parse_equation_system("alphabet: a\nprincipal: X\nX = tt\nX = ff\n")


def test_system_rejects_undeclared_variables():
    bound = parse_formula("max Y. [a]Y", A)
    assert EquationSystem((("X", bound),), "X").principal == "X"
    for rhs in ("[a]Z", "[a]X & Z", "[a]Y"):
        with pytest.raises(TermError, match="undeclared variables"):
            EquationSystem((("X", bound), ("W", parse_formula(rhs, A))), "X")
    EquationSystem((("X", bound), ("W", parse_formula("[a]Y", A))), "X", frozenset({"Y"}))


def test_recursive_and_simultaneous_solvers_agree_on_example():
    sys, _ = example_system()
    for text in (CHAIN, LOOP):
        lts = parse_lts(text)
        assert solve_system(sys, lts) == solve_system_simultaneous(sys, lts)


def test_solution_matches_formula_semantics():
    f = phi_e()
    sys = formula_to_system(f)
    for text in (CHAIN, LOOP):
        lts = parse_lts(text)
        assert eval_system(sys, lts) == eval_formula(f, lts)


def test_solving_is_order_invariant():
    sys, _ = example_system()
    # principal equation must stay first; the rest may be permuted
    shuffled = EquationSystem(
        (sys.equations[0], sys.equations[2], sys.equations[1]), sys.principal
    )
    for text in (CHAIN, LOOP):
        lts = parse_lts(text)
        assert eval_system(shuffled, lts) == eval_system(sys, lts)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2_000))
def test_solvers_agree_on_random_systems(seed):
    rng = random.Random(seed)
    f = random_shml(rng, 4)
    sys = formula_to_system(to_standard_form(f))
    lts = random_lts(rng, 4)
    assert solve_system(sys, lts) == solve_system_simultaneous(sys, lts)


# ---------------------------------------------------------------------------
# Standard form
# ---------------------------------------------------------------------------


def test_standard_form_checks():
    assert is_standard_form(parse_formula("[a]ff", A))
    assert is_standard_form(phi_e())
    # free variables as plain conjuncts are fine
    assert is_standard_form(parse_formula("[a](max X. [a]X & Y) & Y", AB))
    # an outer-bound variable unguarded inside an inner fixpoint is not:
    # from the outer body the path to X passes through the inner binder
    assert not is_standard_form(parse_formula("max X. (max Y. [a]Y & X)", A))


def test_to_standard_form_hoists_the_nested_variable():
    f = parse_formula("max X. [a](max Y. ([a]Y & X))", A)
    g = to_standard_form(f)
    assert is_standard_form(g)
    for text in (CHAIN, LOOP):
        lts = parse_lts(text)
        assert eval_formula(g, lts) == eval_formula(f, lts)


def test_to_standard_form_is_identity_on_standard_inputs():
    f = phi_e()
    assert to_standard_form(f) == f


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 4_000))
def test_to_standard_form_preserves_meaning(seed):
    rng = random.Random(seed)
    f = random_shml(rng, 4)
    g = to_standard_form(f)
    assert is_standard_form(g)
    lts = random_lts(rng, 4)
    assert eval_formula(g, lts) == eval_formula(f, lts)


# ---------------------------------------------------------------------------
# Formula <-> system, and determinization
# ---------------------------------------------------------------------------


def test_system_of_the_running_example():
    sys = formula_to_system(phi_e())
    assert format_equation_system(sys, A) == (
        "alphabet: a\n"
        "principal: X\n"
        "X = [a]X_1\n"
        "X_1 = [a]X_2 & [a]X_1\n"
        "X_2 = ff\n"
    )
    assert is_standard_form_system(sys)


def test_determinize_system_of_the_running_example():
    sys = formula_to_system(phi_e())
    det = determinize_system(sys)
    assert format_equation_system(det, A) == (
        "alphabet: a\n"
        "principal: X\n"
        "X = [a]X_1\n"
        "X_1 = [a]X_1_2\n"
        "X_2 = ff\n"
        "X_1_2 = ff\n"
    )
    assert is_deterministic_form_system(det)


def test_system_back_to_formula():
    det = determinize_system(formula_to_system(phi_e()))
    f = system_to_formula(det)
    assert print_term(f) == "[a][a]ff"


def test_determinize_formula_golden():
    f = determinize_formula(phi_e())
    assert print_term(f) == "[a][a]ff"
    assert is_deterministic_form(f)


def test_is_deterministic_form():
    assert is_deterministic_form(parse_formula("[a]ff & [b]tt", AB))
    assert not is_deterministic_form(parse_formula("[a]ff & [a]tt", AB))
    assert is_deterministic_form(parse_formula("[a]ff & [a]ff", AB))
    # the running example is the canonical nondeterministic formula:
    # unfolding X puts two [a]-boxes side by side
    assert not is_deterministic_form(phi_e())


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 3_000))
def test_determinize_formula_preserves_meaning(seed):
    rng = random.Random(seed)
    f = random_shml(rng, 3)
    g = determinize_formula(f)
    assert is_deterministic_form(g)
    lts = random_lts(rng, 4)
    assert eval_formula(g, lts) == eval_formula(f, lts)


def test_system_to_formula_rejects_nondeterministic_systems():
    sys, _ = example_system()
    with pytest.raises(TermError):
        system_to_formula(sys)


def quadratic_system_to_formula(sys):
    """The reference elimination: every later variable is substituted
    into every earlier equation, and the fixpoint test walks the result."""
    eqs = list(sys.equations)
    eqs.sort(key=lambda e: e[0] != sys.principal)
    phis = {}
    for i in range(len(eqs) - 1, -1, -1):
        name, g = eqs[i]
        for j in range(len(eqs) - 1, i, -1):
            later = eqs[j][0]
            g = subst_formula(g, {later: phis[later]})
        phis[name] = Max(name, g) if name in free_vars(g) else g
    return phis[eqs[0][0]]


def merged_systems():
    """Merged systems as both determinization paths make them: from
    random safety formulas, from random monitors read as formulas (the
    equations route), and from M_1..M_3."""
    rng = random.Random(20)
    formulas = [random_shml(rng, rng.randint(1, 4)) for _ in range(150)]
    for i in range(150):
        verdict = (YES, NO)[i % 2]
        m = well_form(random_monitor(rng, rng.randint(4, 24), AB, (verdict,)), AB)
        f = monitor_to_formula(eliminate_verdict_sums(m, AB))
        formulas.append(f if is_shml(f) else dualize(f))
    fam = frozenset({"0", "1", "e"})
    for n in (1, 2, 3):
        formulas.append(dualize(monitor_to_formula(eliminate_verdict_sums(mn_monitor(n), fam))))
    return [determinize_system(formula_to_system(f)) for f in formulas]


def rejections(m):
    """A synthesized safety monitor with its only possible `yes`, the
    whole monitor of a formula that always holds, read as flagging
    nothing: both then flag `no` alone."""
    return Verdict(END) if m == Verdict(YES) else m


def test_system_to_formula_agrees_with_the_quadratic_elimination():
    """Same rejections from the monitors both formulas synthesize to, and
    never a larger monitor."""
    systems = merged_systems()
    assert max(len(s.equations) for s in systems) >= 8
    alphabet = AB | {"0", "1", "e"}
    ours = reference = 0
    for sys in systems:
        m = msf(system_to_formula(sys))
        ref = msf(quadratic_system_to_formula(sys))
        equiv = verdict_equiv(rejections(m), rejections(ref), alphabet)
        assert equiv, format_equation_system(sys, alphabet)
        assert size(m) <= size(ref), format_equation_system(sys, alphabet)
        ours, reference = ours + size(m), reference + size(ref)
    assert ours < reference


def test_system_to_dfa_of_the_running_example():
    det = determinize_system(formula_to_system(phi_e()))
    assert format_automaton(system_to_dfa(det, A)) == (
        "type: dfa\n"
        "states: X, X_1, X_1_2, X_2\n"
        "alphabet: a\n"
        "initial: X\n"
        "accepting: X_1_2, X_2\n"
        "X -a-> X_1\n"
        "X_1 -a-> X_1_2\n"
        "X_1_2 -a-> X_1_2\n"
        "X_2 -a-> X_2\n"
    )


def test_system_to_dfa_rejects_open_and_nondeterministic_systems():
    open_sys, _ = parse_equation_system(
        "alphabet: a\nprincipal: X\nfree: Y\nX = [a]X & Y\n"
    )
    for fold_back in (lambda s: system_to_dfa(s, A), system_to_formula):
        with pytest.raises(TermError, match="the system is open"):
            fold_back(open_sys)
    with pytest.raises(TermError, match="not in deterministic form"):
        system_to_dfa(example_system()[0], A)
