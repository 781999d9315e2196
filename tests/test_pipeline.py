"""The end-to-end determinization routes, the bench harness, and the CLI."""

import random
import sys
import time
from pathlib import Path

import pytest

from detmon import automata, cli, logic
from detmon.automata import (
    dfa_to_monitor,
    language_equiv,
    minimize_dfa,
    monitor_to_nfa,
    subset_construction,
)
from detmon.equivalence import verdict_equiv
from detmon.families import ALPHABET_01E, mn_monitor, un_monitor
from detmon.logic import determinize_system, formula_to_system, system_to_dfa
from detmon.pipeline import BENCH_COLUMNS, bench, bench_csv, determinize_monitor
from detmon.semantics import CapExceeded, is_deterministic
from detmon.synthesis import monitor_to_formula
from detmon.syntax import format_term_file, parse_monitor, parse_monitor_file, print_term
from detmon.terms import (
    END,
    NO,
    YES,
    TermError,
    Verdict,
    dualize_monitor,
    eliminate_verdict_sums,
    size,
    verdicts_in,
    well_form,
)
from detmon.verdicts import is_conflicting

from gen import random_monitor, scramble
from test_automata import COLLIDING
from test_verdicts import outcome

A = frozenset({"a"})
AB = frozenset({"a", "b"})


# ---------------------------------------------------------------------------
# determinize_monitor
# ---------------------------------------------------------------------------


def test_rejects_unknown_methods():
    with pytest.raises(TermError):
        determinize_monitor(Verdict(YES), A, method="magic")


def test_rejects_two_verdict_monitors():
    with pytest.raises(TermError):
        determinize_monitor(parse_monitor("a.yes + b.no", AB), AB)


def test_verdictless_monitors_collapse_to_end():
    assert determinize_monitor(parse_monitor("a.end", A), A) == Verdict(END)
    assert determinize_monitor(parse_monitor("rec x. a.x", A), A) == Verdict(END)


def test_running_example_both_routes():
    m_e = parse_monitor("rec x. a.(a.no + x)", A)
    via_automata = determinize_monitor(m_e, A, method="automata")
    via_equations = determinize_monitor(m_e, A, method="equations")
    assert print_term(via_automata) == print_term(via_equations) == "a.a.no"
    assert is_deterministic(via_automata)
    assert verdict_equiv(m_e, via_automata, A)


def test_both_routes_cap_the_minimal_dfa(tmp_path, capsys):
    m4 = mn_monitor(4)  # its minimal DFA has 2^4 + 2 = 18 states
    for method in ("automata", "equations"):
        with pytest.raises(CapExceeded, match="18 states exceeds the cap of 12"):
            determinize_monitor(m4, ALPHABET_01E, method=method)
    m_e = parse_monitor("rec x. a.(a.no + x)", A)
    for force in (False, True):
        out = determinize_monitor(m_e, A, method="equations", force=force)
        assert print_term(out) == "a.a.no"
    path = _mfile(tmp_path, "m4.mon", format_term_file(m4, ALPHABET_01E))
    assert cli.main(["determinize", path, "--method", "equations"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "18 states exceeds the cap of 12" in captured.err


def test_equations_route_with_force_finishes_m4():
    m4 = mn_monitor(4)
    start = time.perf_counter()
    d2 = determinize_monitor(m4, ALPHABET_01E, method="equations", force=True)
    assert time.perf_counter() - start < 1.0
    assert size(d2) == 2237


def public_stages(m, alphabet, method="automata", force=True):
    """determinize_monitor written out as the composition of the public
    stages, each stage's automaton or system named in full."""
    if method not in ("automata", "equations"):
        raise TermError(f"unknown method {method!r}")
    m = well_form(m, alphabet)
    present = verdicts_in(m)
    if YES in present and NO in present:
        raise TermError("monitor carries both verdicts; use determinize_two_verdict")
    if YES not in present and NO not in present:
        return Verdict(END)
    verdict = YES if YES in present else NO
    if method == "equations":
        e = eliminate_verdict_sums(m, alphabet)
        f = monitor_to_formula(e if verdict == NO else dualize_monitor(e))
        dfa = system_to_dfa(determinize_system(formula_to_system(f)), alphabet)
    else:
        dfa = subset_construction(monitor_to_nfa(m, verdict, alphabet))
    det = dfa_to_monitor(minimize_dfa(dfa), force=force)
    return det if verdict == YES else dualize_monitor(det)


def _routes(m, alphabet):
    """Both routes give the monitor of their public stage composition."""
    d1 = determinize_monitor(m, alphabet, method="automata", force=True)
    d2 = determinize_monitor(m, alphabet, method="equations", force=True)
    assert d1 == d2 == public_stages(m, alphabet), print_term(m)
    assert d2 == public_stages(m, alphabet, "equations"), print_term(m)
    return d1


def test_routes_agree_on_random_monitors():
    rng = random.Random(2024)
    done = 0
    for i in range(150):
        verdict = (YES, NO)[i % 2]
        m = random_monitor(rng, rng.randint(1, 8), AB, verdicts=(verdict,))
        if verdict not in verdicts_in(m):
            continue
        d1 = _routes(m, AB)
        assert is_deterministic(d1), print_term(m)
        assert verdict_equiv(m, d1, AB), print_term(m)
        done += 1
    assert done >= 100


@pytest.mark.parametrize("build, n", [
    (mn_monitor, 1), (mn_monitor, 2), (mn_monitor, 3), (mn_monitor, 4),
    (un_monitor, 2), (un_monitor, 3),
])
def test_routes_give_equal_monitors_on_the_witness_families(build, n):
    m = build(n)
    d = _routes(m, ALPHABET_01E)
    assert verdict_equiv(m, d, ALPHABET_01E)


@pytest.mark.parametrize("seed", [1, 101, 102])
def test_routes_give_equal_monitors_on_the_benchmark_routes_inputs(seed, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    items = workloads.setup_routes(seed)
    assert len(items) == 300
    for item in items:
        _routes(item.monitor, item.alphabet)


def test_routes_give_equal_small_monitors_where_substitution_blew_up():
    # 26 merged equations: folding them by substitution, without sharing,
    # gave 30,744 nodes on the equations route.
    m = parse_monitor(
        "b.(rec r0. b.a.a.b.r0 + b.(b.a.b.(b.b.b.b.yes + b.a.r0)"
        " + b.(a.a.b.r0 + b.b.r0)))", AB,
    )
    d = _routes(m, AB)
    assert size(d) == 25
    assert verdict_equiv(m, d, AB)


def test_routes_match_the_public_stage_oracles_on_generated_monitors(monkeypatch):
    """Outputs, and the type and message of every error, capped or not."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    rng = random.Random(1818)
    cases = [(item.monitor, item.alphabet, False) for item in workloads.setup_routes(1)]
    for i in range(700):
        verdict = (YES, NO)[i % 2]
        m = random_monitor(rng, rng.randint(1, 14), AB, (verdict,) if i % 3 else (verdict, END))
        cases.append((scramble(rng, m) if i % 4 == 0 else m, AB, i % 5 == 0))
    kinds = {"ok": 0, "cap": 0, "error": 0}
    for m, alphabet, force in cases:
        for method in ("automata", "equations"):
            got = outcome(determinize_monitor, m, alphabet, method, force)
            assert got == outcome(public_stages, m, alphabet, method, force), print_term(m)
            if isinstance(got, tuple):
                kinds["cap" if got[0] is CapExceeded else "error"] += 1
            else:
                kinds["ok"] += 1
    assert kinds["ok"] > 1000 and kinds["cap"] > 20 and kinds["error"] > 100, kinds


def test_equations_route_runs_the_kernels_on_bare_tables(monkeypatch):
    """On the equations route no stage output is named, no equation
    system is built, no monitor is compiled, and only a yes monitor is
    dualized, once, to be read as a formula.  The automata route composes
    the public stages: one compile, and one closing dual for a no
    monitor."""
    def forbidden(name):
        def raiser(*args, **kwargs):
            raise AssertionError(f"{name} was called")
        return raiser

    def everywhere(original, replacement):
        name = original.__name__
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] == "detmon" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, replacement)

    compiles, duals = [], []
    init = automata._Positions.__init__

    def counted_init(self, *args, **kwargs):
        compiles.append(args[0])
        init(self, *args, **kwargs)

    def counted_dualize(m):
        duals.append(m)
        return dualize_monitor(m)

    everywhere(dualize_monitor, counted_dualize)
    monkeypatch.setattr(automata._Positions, "__init__", counted_init)

    rng = random.Random(1819)
    monitors = [
        (parse_monitor("rec x. a.(a.no + x)", A), A),
        (parse_monitor("a.yes + b.(a.yes + b.yes + yes)", AB), AB),
        (mn_monitor(3), ALPHABET_01E),
    ]
    while len(monitors) < 40:
        m = random_monitor(rng, 12, AB, ((YES, NO)[len(monitors) % 2],))
        if verdicts_in(m):
            monitors.append((m, AB))
    outputs = []
    for method in ("automata", "equations"):
        if method == "equations":
            monkeypatch.setattr(automata, "_materialize", forbidden("_materialize"))
            monkeypatch.setattr(logic.EquationSystem, "__init__", forbidden("EquationSystem"))
            everywhere(determinize_system, forbidden("determinize_system"))
            everywhere(system_to_dfa, forbidden("system_to_dfa"))
        for m, alphabet in monitors:
            dual_of = YES if method == "equations" else NO
            compiles.clear()
            duals.clear()
            outputs.append((m, alphabet, method, determinize_monitor(m, alphabet, method, True)))
            assert len(compiles) == (method == "automata"), print_term(m)
            assert len(duals) == (dual_of in verdicts_in(m)), print_term(m)
    monkeypatch.undo()
    for m, alphabet, method, d in outputs:
        assert d == public_stages(m, alphabet, method), print_term(m)


def test_no_verdict_monitors_are_dualized_back():
    m = parse_monitor("a.no + a.a.no", A)
    out = determinize_monitor(m, A, force=True)
    assert verdicts_in(out) == {NO}
    assert is_deterministic(out)
    assert verdict_equiv(m, out, A)


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def test_bench_rows_have_the_documented_shape():
    rows = bench("mn", 1, 3, timeout=60.0)
    assert [r["n"] for r in rows] == [1, 2, 3]
    for row in rows:
        assert tuple(row.keys()) == BENCH_COLUMNS
        assert row["status"] == "ok"
    assert [r["subset_states"] for r in rows] == [4, 6, 10]
    assert [r["min_dfa_states"] for r in rows] == [4, 6, 10]  # 2^n + 2
    assert [r["det_monitor_size"] for r in rows] == [14, 33, 150]


def test_bench_unknown_family():
    with pytest.raises(TermError):
        bench("zz", 1, 2)


def test_bench_csv_is_rectangular():
    rows = bench("mn", 1, 2, timeout=60.0)
    csv = bench_csv(rows)
    lines = csv.strip().split("\n")
    assert lines[0] == ",".join(BENCH_COLUMNS)
    assert len(lines) == 3
    for line in lines:
        assert len(line.split(",")) == len(BENCH_COLUMNS)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


REUSED = "alphabet: a, b\na.(rec x. a.x + b.no) + b.(rec x. b.x + a.no)\n"


def _mfile(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_cli_synth(tmp_path, capsys):
    f = _mfile(tmp_path, "f.hml", "alphabet: a\nmax X. [a][a]ff\n")
    assert cli.main(["synth", f]) == 0
    out = capsys.readouterr().out
    assert "alphabet: a" in out
    assert "no" in out


def test_cli_determinize_golden(tmp_path, capsys):
    m = _mfile(tmp_path, "m.mon", "alphabet: a\nrec x. a.(a.no + x)\n")
    assert cli.main(["determinize", m, "--method", "equations"]) == 0
    assert "a.a.no" in capsys.readouterr().out


def test_cli_equiv_exit_codes(tmp_path, capsys):
    m1 = _mfile(tmp_path, "m1.mon", "alphabet: a\na.yes\n")
    m2 = _mfile(tmp_path, "m2.mon", "alphabet: a\nrec x. a.yes\n")
    m3 = _mfile(tmp_path, "m3.mon", "alphabet: a\na.a.yes\n")
    assert cli.main(["equiv", m1, m2]) == 0
    assert "equivalent" in capsys.readouterr().out
    assert cli.main(["equiv", m1, m3]) == 1
    err = capsys.readouterr().out
    assert "not equivalent" in err and "a" in err


def test_cli_conflict_exit_codes(tmp_path, capsys):
    bad = _mfile(tmp_path, "bad.mon", "alphabet: a\na.yes + a.no\n")
    ok = _mfile(tmp_path, "ok.mon", "alphabet: a,b\na.yes + b.no\n")
    assert cli.main(["conflict", bad]) == 1
    assert "conflicting on a" in capsys.readouterr().out
    assert cli.main(["conflict", ok]) == 0
    assert "conflict-free" in capsys.readouterr().out


def test_cli_malformed_input_is_exit_2(tmp_path, capsys):
    junk = _mfile(tmp_path, "junk.mon", "alphabet: a\nrec rec rec\n")
    assert cli.main(["determinize", junk]) == 2
    assert "error" in capsys.readouterr().err
    assert cli.main(["trace", "--monitor", str(tmp_path / "missing.mon"),
                     "--trace", "a"]) == 2


def test_cli_cap_is_exit_3(tmp_path, capsys):
    from detmon.automata import format_automaton
    from detmon.families import mn_nfa

    big = _mfile(tmp_path, "big.aut", format_automaton(mn_nfa(9)))  # 11 states
    assert cli.main(["from-nfa", big]) == 3
    assert "error" in capsys.readouterr().err
    assert cli.main(["from-nfa", big, "--force"]) == 0


def test_cli_trace(tmp_path, capsys):
    m = _mfile(tmp_path, "m.mon", "alphabet: a\nrec x. a.(a.no + x)\n")
    assert cli.main(["trace", "--monitor", m, "--trace", "a.a"]) == 0
    assert "no" in capsys.readouterr().out
    assert cli.main(["trace", "--monitor", m, "--trace", "a"]) == 0
    assert "(none)" in capsys.readouterr().out


OPEN = "alphabet: a, b\na.x + b.yes\n"


@pytest.mark.parametrize("text, trace, printed", [
    (OPEN, "a.b", "(none)"),
    (OPEN, "b", "yes"),
    (OPEN, "a", "(none)"),
    (REUSED, "a.b", "no"),
    (REUSED, "a.a.a.b", "no"),
    (REUSED, "a.a.a", "(none)"),
    (REUSED, "b.b.a", "no"),
    (REUSED, "b.b.b.b", "(none)"),
])
def test_cli_trace_on_open_and_reused_binder_monitors(tmp_path, capsys, text, trace, printed):
    m = _mfile(tmp_path, "m.mon", text)
    assert cli.main(["trace", "--monitor", m, "--trace", trace]) == 0
    assert capsys.readouterr().out == printed + "\n"


def test_cli_family(capsys):
    assert cli.main(["family", "--name", "mn", "--n", "1"]) == 0
    assert "rec x. 0.x + 1.x + 1.e.yes" in capsys.readouterr().out
    assert cli.main(["family", "--name", "mn", "--n", "2", "--kind", "dfa"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("type: dfa")


def test_cli_automaton_round_trip(tmp_path, capsys):
    m = _mfile(tmp_path, "m.mon", "alphabet: a\nrec x. a.(a.no + x)\n")
    assert cli.main(["to-nfa", m, "--verdict", "no"]) == 0
    aut = _mfile(tmp_path, "m.aut", capsys.readouterr().out)
    assert cli.main(["to-dfa", aut, "--minimize"]) == 0
    assert "type: dfa" in capsys.readouterr().out
    # from-nfa rebuilds an acceptance monitor; the verdict the automaton
    # came from is not recorded in the file format
    assert cli.main(["from-nfa", aut]) == 0
    back = capsys.readouterr().out
    assert "yes" in back


def test_cli_simulate(tmp_path, capsys):
    m = _mfile(tmp_path, "m.mon", "alphabet: a,b\na.a.yes\n")
    lts = _mfile(
        tmp_path, "p.lts", "states: s0, s1\ninit: s0\ns0 -a-> s1\ns1 -a-> s0\n"
    )
    assert cli.main(["simulate", "--monitor", m, "--lts", lts]) == 0
    out = capsys.readouterr().out
    assert "acc: True" in out
    assert "rej: False" in out


def test_cli_simulate_rejects_an_unknown_start_state(tmp_path, capsys):
    m = _mfile(tmp_path, "m.mon", "alphabet: a,b\na.a.yes\n")
    lts = _mfile(tmp_path, "p.lts", "states: s0\ninit: s0\ns0 -a-> s0\n")
    assert cli.main(["simulate", "--monitor", m, "--lts", lts, "--state", "zz"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unknown start state 'zz'" in captured.err


def test_cli_bench_writes_csv(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    argv = ["bench", "--family", "mn", "--min-n", "1", "--max-n", "2",
            "--out", str(out)]
    assert cli.main(argv) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == ",".join(BENCH_COLUMNS)
    assert len(lines) == 3


def test_reused_binder_names_are_renamed_apart():
    m, alphabet = parse_monitor_file(REUSED)
    apart = well_form(m, alphabet)
    assert verdict_equiv(m, apart, alphabet)
    assert not verdict_equiv(m, parse_monitor("a.b.no", AB), AB)
    assert not is_conflicting(m, alphabet)
    assert language_equiv(
        monitor_to_nfa(m, NO, alphabet), monitor_to_nfa(apart, NO, alphabet)
    )


def test_cli_accepts_reused_binder_names(tmp_path, capsys):
    m = _mfile(tmp_path, "m.mon", REUSED)
    other = _mfile(tmp_path, "o.mon", "alphabet: a, b\na.b.no\n")
    assert cli.main(["equiv", m, m]) == 0
    assert cli.main(["equiv", m, other]) == 1
    assert cli.main(["conflict", m]) == 0
    assert cli.main(["to-nfa", m, "--verdict", "no"]) == 0
    out = capsys.readouterr().out
    assert "not equivalent: verdict no differs on b.a" in out
    assert "conflict-free" in out and "type: nfa" in out


def test_cli_trace_rejects_actions_outside_the_alphabet(tmp_path, capsys):
    m = _mfile(tmp_path, "m.mon", "alphabet: a, b\na.yes + b.yes\n")
    assert cli.main(["trace", "--monitor", m, "--trace", "c.c"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not in the declared alphabet" in captured.err


def test_cli_bench_records_caps_per_row(capsys):
    argv = ["bench", "--family", "mn", "--min-n", "9", "--max-n", "10", "--timeout", "2"]
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == ",".join(BENCH_COLUMNS)
    assert [line.split(",")[1] for line in lines[1:]] == ["9", "10"]
    for line in lines[1:]:
        assert line.split(",")[-1] in ("cap", "timeout")


def test_cli_rejects_an_unknown_automaton_type(tmp_path, capsys):
    a = _mfile(tmp_path, "a.aut", "type: dfaa\nstates: q0\nalphabet: a\ninitial: q0\naccepting:\n")
    assert cli.main(["to-dfa", a]) == 2
    assert "nfa or dfa" in capsys.readouterr().err


def test_cli_refuses_subset_names_that_collide(tmp_path, capsys):
    a = _mfile(tmp_path, "a.aut", COLLIDING)
    assert cli.main(["to-dfa", a]) == 2
    assert "two subset states are named 'a+b'" in capsys.readouterr().err
    assert cli.main(["to-dfa", a, "--minimize"]) == 2


@pytest.mark.parametrize("error, code, message", [
    (MemoryError, 3, "error: out of memory"),
    (RecursionError, 4, "internal error:"),
])
def test_cli_exit_codes_for_resource_and_internal_errors(monkeypatch, capsys, error, code, message):
    def fail(args):
        raise error()

    monkeypatch.setattr(cli, "_cmd_synth", fail)
    assert cli.main(["synth", "-"]) == code
    assert capsys.readouterr().err.startswith(message)
