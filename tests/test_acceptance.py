"""Acceptance checks for the whole package.

Each test prints exactly one line

    [PASS] Cnn <description> (<elapsed>s/<budget>s)

directly to the terminal (bypassing capture), runs against a pinned
seed, and enforces a wall-clock budget.  Together they pin down the
observable contract: the synthesis goldens, both determinization
routes, the exponential and lcm-driven growth of the witness families,
agreement of the three rule systems, and the two-verdict pipeline.
"""

import random
import time

import pytest

from detmon.automata import (
    language_equiv,
    minimize_dfa,
    monitor_to_nfa,
    subset_construction,
)
from detmon.equivalence import simple_traces, verdict_equiv
from detmon.families import (
    ALPHABET_01E,
    mn_monitor,
    mn_nfa,
    un_monitor,
    un_predicate,
)
from detmon.logic import (
    determinize_formula,
    determinize_system,
    eval_formula,
    format_equation_system,
    formula_to_system,
)
from detmon.pipeline import determinize_monitor
from detmon.semantics import is_deterministic, rej, verdicts_on
from detmon.synthesis import msf
from detmon.syntax import parse_formula, parse_monitor, print_term
from detmon.terms import (
    NO,
    YES,
    eliminate_verdict_sums,
    height,
    size,
    well_form,
)
from detmon.verdicts import determinize_two_verdict, is_conflicting, nu, nu_inverse

from gen import all_words, random_lts, random_monitor, random_shml, random_two_verdict
from test_verdicts import _frontier_conflict

A = frozenset({"a"})
AB = frozenset({"a", "b"})
SRV = frozenset({"req", "res", "cls"})


def _criterion(capsys, code, desc, budget, fn):
    t0 = time.perf_counter()
    err = None
    try:
        fn()
    except Exception as e:  # noqa: BLE001 - reported, then re-raised
        err = e
    elapsed = time.perf_counter() - t0
    status = "PASS" if err is None and elapsed <= budget else "FAIL"
    with capsys.disabled():
        print(f"[{status}] {code} {desc} ({elapsed:.3f}s/{budget:g}s)")
    if err is not None:
        raise err
    assert elapsed <= budget, f"{code} took {elapsed:.3f}s (budget {budget}s)"


def test_c01_synthesis_goldens(capsys):
    phi = parse_formula("max X. [a]([a]ff & X)", A)
    srv = parse_formula("max X. [req]([cls]ff & [res]X)", SRV)
    msf(phi)  # warm-up so the timing covers synthesis, not imports

    def run():
        assert print_term(msf(phi)) == "rec x. a.(a.no + x)"
        assert print_term(msf(srv)) == "rec x. req.(cls.no + res.x)"

    _criterion(capsys, "C01", "synthesis hits the recursive goldens instantly",
               0.001, run)


def test_c02_running_example_determinizes(capsys):
    def run():
        m_e = parse_monitor("rec x. a.(a.no + x)", A)
        det = determinize_monitor(m_e, A)
        assert is_deterministic(det)
        assert verdict_equiv(det, parse_monitor("a.a.no", A), A)
        phi = parse_formula("max X. [a]([a]ff & X)", A)
        assert print_term(determinize_formula(phi)) == "[a][a]ff"

    _criterion(capsys, "C02",
               "the canonical nondeterministic monitor needs just two steps",
               1.0, run)


def test_c03_equation_system_goldens(capsys):
    def run():
        phi = parse_formula("max X. [a]([a]ff & X)", A)
        before = formula_to_system(phi)
        assert format_equation_system(before, A) == (
            "alphabet: a\n"
            "principal: X\n"
            "X = [a]X_1\n"
            "X_1 = [a]X_2 & [a]X_1\n"
            "X_2 = ff\n"
        )
        after = determinize_system(before)
        assert format_equation_system(after, A) == (
            "alphabet: a\n"
            "principal: X\n"
            "X = [a]X_1\n"
            "X_1 = [a]X_1_2\n"
            "X_2 = ff\n"
            "X_1_2 = ff\n"
        )

    _criterion(capsys, "C03",
               "equation systems before and after determinization",
               1.0, run)


def test_c04_subset_construction_is_exponential(capsys):
    def run():
        for n in range(1, 9):
            nfa = mn_nfa(n)
            assert len(nfa.states) == n + 2
            dfa = minimize_dfa(subset_construction(nfa))
            assert len(dfa.states) == 2**n + 2, n

    _criterion(capsys, "C04",
               "an (n+2)-state recogniser needs 2^n + 2 deterministic states",
               30.0, run)


def test_c05_nondeterministic_family_matches_its_recogniser(capsys):
    def run():
        for n in range(1, 9):
            mon = mn_monitor(n)
            assert size(mon) == 8 + 5 * 2 ** (n - 1) - 3, n
            assert size(mon) >= 3 * 2 ** (n - 1), n
            got = monitor_to_nfa(mon, YES, ALPHABET_01E)
            assert language_equiv(got, mn_nfa(n)), n

    _criterion(capsys, "C05",
               "the choice-tree monitors recognise exactly the target words",
               60.0, run)


def test_c06_determinized_monitors_grow_fast(capsys):
    def run():
        sizes = {}
        for n in (1, 2, 3):
            mon = mn_monitor(n)
            det = determinize_monitor(mon, ALPHABET_01E)
            assert is_deterministic(det), n
            assert verdict_equiv(mon, det, ALPHABET_01E), n
            sizes[n] = size(det)
        assert sizes == {1: 14, 2: 33, 3: 150}
        assert sizes[2] / sizes[1] > 2
        assert sizes[3] / sizes[2] > 4

    _criterion(capsys, "C06",
               "deterministic versions grow by the predicted ratios",
               300.0, run)


def test_c07_lcm_family_small_and_correct(capsys):
    def run():
        for n in range(2, 61):
            assert size(un_monitor(n)) <= 20 * n, n
        for n in (5, 7):
            dfa = minimize_dfa(
                subset_construction(monitor_to_nfa(un_monitor(n), YES, ALPHABET_01E))
            )
            delta = dfa.delta()
            symbols = sorted(dfa.alphabet)

            def walk(state, word, remaining):
                assert (state in dfa.accepting) == un_predicate(n, word), (n, word)
                if remaining:
                    for sym in symbols:
                        walk(delta[(state, sym)], word + (sym,), remaining - 1)

            walk(dfa.initial, (), 10)

    _criterion(capsys, "C07",
               "counting monitors stay under 20n and match their predicate",
               120.0, run)


def test_c08_rule_systems_agree(capsys):
    def run():
        rng = random.Random(808)
        words = list(all_words(AB, 6))
        for _ in range(500):
            m = well_form(random_monitor(rng, rng.randint(1, 12), AB), AB)
            for w in words:
                expected = verdicts_on(m, w, AB, system="O")
                assert verdicts_on(m, w, AB, system="M") == expected, (print_term(m), w)
                assert verdicts_on(m, w, AB, system="N") == expected, (print_term(m), w)

    _criterion(capsys, "C08",
               "the three rule systems flag identical verdicts",
               120.0, run)


def test_c09_synthesis_rejects_exactly_the_violations(capsys):
    def run():
        rng = random.Random(909)
        formulas = [random_shml(rng, rng.randint(1, 4), AB) for _ in range(200)]
        ltss = [random_lts(rng, 5, AB) for _ in range(50)]
        for f in formulas:
            m = msf(f)
            for lts in ltss:
                sat = eval_formula(f, lts)
                for s in lts.states:
                    assert rej(m, lts, s, AB) == (s not in sat), (print_term(f), s)

    _criterion(capsys, "C09",
               "synthesized monitors reject exactly the violating states",
               300.0, run)


def test_c10_conflict_detection(capsys):
    def run():
        c = is_conflicting(parse_monitor("a.yes + a.no", A), A)
        assert c and c.witness == ("a",)
        assert not is_conflicting(parse_monitor("rec x. a.(a.no + x)", A), A)
        rng = random.Random(1010)
        for _ in range(300):
            m = random_monitor(rng, rng.randint(2, 14), AB)
            got = is_conflicting(m, AB)
            # the oracle is a bounded search, so give it a horizon that
            # reaches the claimed witness
            bound = max(8, len(got.witness)) if got else 8
            assert bool(got) == _frontier_conflict(m, AB, bound), print_term(m)
            if got:
                flags = verdicts_on(m, got.witness, AB)
                assert {YES, NO} <= flags, print_term(m)

    _criterion(capsys, "C10",
               "conflict detection agrees with a frontier search",
               120.0, run)


def test_c11_loop_free_traces_bounded_by_size(capsys):
    def run():
        rng = random.Random(1111)
        for _ in range(500):
            m = random_monitor(rng, rng.randint(1, 12), AB)
            traces = simple_traces(m, height(m))
            assert len(traces) <= size(m), print_term(m)
            assert all(len(t) <= height(m) for t in traces), print_term(m)

    _criterion(capsys, "C11",
               "loop-free traces never outnumber the monitor's size",
               60.0, run)


def test_c12_two_verdict_pipeline(capsys):
    def run():
        rng = random.Random(1212)
        done = 0
        while done < 200:
            m = random_two_verdict(rng, rng.randint(5, 10), AB)
            if is_conflicting(m, AB):
                continue
            base = eliminate_verdict_sums(well_form(m, AB), AB)
            assert nu_inverse(nu(base, AB)) == base, print_term(base)
            det = determinize_two_verdict(m, AB, force=True)
            assert is_deterministic(det), print_term(m)
            assert verdict_equiv(m, det, AB), print_term(m)
            done += 1

    _criterion(capsys, "C12",
               "two-verdict determinization is sound and the marker round-trips",
               180.0, run)
