"""Conflict detection and the two-verdict determinization pipeline,
checked against the marker route kept here as an oracle."""

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from detmon import automata, cli, verdicts
from detmon.equivalence import verdict_equiv
from detmon.families import ALPHABET_01E, mn_monitor
from detmon.pipeline import determinize_monitor
from detmon.semantics import CapExceeded, StepEngine, binder_map, is_deterministic, verdicts_on
from detmon.syntax import format_term_file, parse_monitor, print_term
from detmon.terms import (
    END,
    NO,
    NO_MARKER,
    Prefix,
    Rec,
    Sum,
    TermError,
    Verdict,
    YES,
    actions_in,
    eliminate_verdict_sums,
    fold,
    mk_sum,
    prefix_chain,
    size,
    subterms,
    verdicts_in,
    well_form,
)
from detmon.verdicts import (
    ConflictingMonitorError,
    determinize_two_verdict,
    is_conflicting,
    nu,
    nu_inverse,
)

from gen import all_words, random_monitor, random_split_two_verdict, random_two_verdict, scramble

A = frozenset({"a"})
AB = frozenset({"a", "b"})


# ---------------------------------------------------------------------------
# The marker translation
# ---------------------------------------------------------------------------


def test_nu_golden():
    m = parse_monitor("a.yes + b.no", AB)
    t = nu(m, AB)
    assert print_term(t) == "a.yes + b.[no].yes"
    assert nu_inverse(t) == m


def test_nu_shifts_the_no_language_by_one_marker():
    m = parse_monitor("a.no", A)
    t = nu(m, A)
    ext = frozenset(A | {NO_MARKER})
    assert verdicts_on(t, ("a", NO_MARKER), ext) == {YES}
    assert verdicts_on(t, ("a",), ext) == frozenset()


def test_nu_rejects_marker_collisions():
    with pytest.raises(TermError):
        nu(parse_monitor("a.no", A), frozenset({"a", NO_MARKER}))
    marked = parse_monitor(f"{NO_MARKER}.yes", A, allow_marker=True)
    with pytest.raises(TermError):
        nu(marked, A)


def test_nu_rejects_verdict_summands():
    with pytest.raises(TermError):
        nu(parse_monitor("a.yes + no", AB), AB)


def test_nu_inverse_rejects_misplaced_markers():
    bad = Prefix(NO_MARKER, Verdict(NO))
    with pytest.raises(TermError):
        nu_inverse(bad)


@settings(deadline=None)
@given(st.integers(0, 5_000))
def test_nu_round_trip(seed):
    m = random_two_verdict(random.Random(seed), 10)
    m = eliminate_verdict_sums(well_form(m, AB), AB)
    prepared = nu(m, AB)
    assert nu_inverse(prepared) == m
    # determinize_two_verdict hands this on without well-forming it again.
    assert well_form(prepared, AB | {NO_MARKER}) == prepared


# ---------------------------------------------------------------------------
# Conflicts
# ---------------------------------------------------------------------------


def test_conflict_goldens():
    c = is_conflicting(parse_monitor("a.yes + a.no", AB), AB)
    assert c and c.witness == ("a",)
    assert not is_conflicting(parse_monitor("rec x. a.(a.no + x)", A), A)
    assert not is_conflicting(parse_monitor("a.yes + b.no", AB), AB)


def test_conflict_through_recursion():
    m = parse_monitor("rec x. (a.x + b.yes + b.a.no)", AB)
    c = is_conflicting(m, AB)
    # after b the monitor holds yes; one more a raises no on the same run?
    # no: yes and no must appear on the SAME trace.  b gives yes, b.a gives
    # both because yes persists.
    assert c and c.witness == ("b", "a")


def _frontier_conflict(m, alphabet, max_depth=8):
    """Independent oracle: breadth-first over verdict-set frontiers."""
    engine = StepEngine(alphabet, "N", binder_map(m))

    def close(ts):
        out = set()
        for t in ts:
            out.update(engine.tau_closure(t))
        return frozenset(out)

    def both(front):
        vs = {t.value for t in front if isinstance(t, Verdict)}
        return YES in vs and NO in vs

    start = close({m})
    seen = {start}
    frontier = [start]
    for _ in range(max_depth + 1):
        for f in frontier:
            if both(f):
                return True
        nxt = []
        for f in frontier:
            for a in sorted(alphabet):
                out = set()
                for t in f:
                    out.update(engine.weak_successors(t, a))
                g = frozenset(out)
                if g and g not in seen:
                    seen.add(g)
                    nxt.append(g)
        frontier = nxt
    return False


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 6_000))
def test_conflict_matches_frontier_oracle(seed):
    m = random_two_verdict(random.Random(seed), 12)
    got = is_conflicting(m, AB)
    # the oracle is bounded; stretch its horizon to the claimed witness
    bound = max(8, len(got.witness)) if got else 8
    assert bool(got) == _frontier_conflict(m, AB, bound), m


def test_conflict_witness_is_conflicted():
    m = parse_monitor("rec x. (a.x + a.b.yes + a.b.no)", AB)
    c = is_conflicting(m, AB)
    assert c
    flags = verdicts_on(m, c.witness, AB)
    assert {YES, NO} <= flags


# ---------------------------------------------------------------------------
# Two-verdict determinization
# ---------------------------------------------------------------------------


def test_two_verdict_golden():
    m = parse_monitor("a.yes + b.no", AB)
    d = determinize_two_verdict(m, AB)
    assert is_deterministic(d)
    assert verdicts_on(d, ("a",), AB) == {YES}
    assert verdicts_on(d, ("b",), AB) == {NO}
    assert NO_MARKER not in print_term(d)


def test_two_verdict_rejects_conflicts():
    with pytest.raises(ConflictingMonitorError) as exc:
        determinize_two_verdict(parse_monitor("a.yes + a.no", AB), AB)
    assert exc.value.witness == ("a",)


def test_two_verdict_delegates_single_verdict():
    m = parse_monitor("rec x. a.(a.no + x)", A)
    d = determinize_two_verdict(m, A)
    assert is_deterministic(d)
    assert verdict_equiv(m, d, A)


def test_bare_verdict_summands_usually_conflict():
    # a bare `no` summand self-loops on every action, so it reaches no on
    # any nonempty trace — together with a.yes that is a conflict on "a"
    c = is_conflicting(parse_monitor("a.yes + no", AB), AB)
    assert c and c.witness == ("a",)


def test_two_verdict_with_verdict_summands():
    # here the verdict summand sits behind b, disjoint from the yes region
    m = parse_monitor("b.(a.no + no) + a.yes", AB)
    assert not is_conflicting(m, AB)
    d = determinize_two_verdict(m, AB)
    assert is_deterministic(d)
    for w in all_words(AB, 4):
        assert verdicts_on(m, w, AB) == verdicts_on(d, w, AB), w


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 4_000))
def test_two_verdict_random_equivalence(seed):
    rng = random.Random(seed)
    m = random_two_verdict(rng, 8)
    m = well_form(m, AB)
    try:
        d = determinize_two_verdict(m, AB, force=True)
    except ConflictingMonitorError:
        return
    assert is_deterministic(d)
    r = verdict_equiv(m, d, AB)
    assert r, (print_term(m), print_term(d), r.witness, r.verdict)


# M_4 flags yes only on words with a 1 before their first e, so a leading
# e can flag no without a conflict; its minimal labelled DFA has 20 states.
M4_OR_E_NO = Sum((mn_monitor(4), Prefix("e", Verdict(NO))))


def test_two_verdict_cap():
    m = M4_OR_E_NO
    assert not is_conflicting(m, ALPHABET_01E)
    with pytest.raises(CapExceeded, match="states exceeds the cap of 12"):
        determinize_two_verdict(m, ALPHABET_01E)
    d = determinize_two_verdict(m, ALPHABET_01E, force=True)
    assert is_deterministic(d)
    assert verdict_equiv(m, d, ALPHABET_01E)


def test_cli_two_verdict_exit_codes(tmp_path, capsys):
    big = tmp_path / "big.mon"
    big.write_text(format_term_file(M4_OR_E_NO, ALPHABET_01E))
    assert cli.main(["determinize", str(big), "--two-verdict"]) == 3
    assert "exceeds the cap of 12" in capsys.readouterr().err
    assert cli.main(["determinize", str(big), "--two-verdict", "--force"]) == 0
    assert capsys.readouterr().out.startswith("alphabet: 0, 1, e\n")

    bad = tmp_path / "bad.mon"
    bad.write_text("alphabet: a, b\nb.(a.yes + a.no)\n")
    assert cli.main(["determinize", str(bad), "--two-verdict"]) == 1
    assert "flags both yes and no on the trace b.a" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# The marker route, as an oracle
# ---------------------------------------------------------------------------


def fold_marker(t, kids):
    """Bottom-up: marker prefixes become ``no``, and anything that can
    immediately go ``no`` is ``no`` (sound because the source monitor is
    conflict-free and verdicts are irrevocable)."""
    no = Verdict(NO)
    if isinstance(t, Prefix) and t.action == NO_MARKER:
        assert t.body == Verdict(YES)
        return no
    if isinstance(t, Sum):
        return no if no in kids else mk_sum(kids)
    if isinstance(t, Rec) and kids[0] == no:
        return no
    return t.rebuild(kids)


def oracle_two_verdict(m, alphabet):
    """Relocate no behind the marker action, determinize the yes-monitor
    over the extended alphabet, and fold the marker back into no."""
    m = well_form(m, alphabet)
    conflict = is_conflicting(m, alphabet)
    if conflict:
        raise ConflictingMonitorError(conflict.witness)
    if not {YES, NO} <= verdicts_in(m):
        return determinize_monitor(m, alphabet, force=True)
    prepared = nu(eliminate_verdict_sums(m, alphabet), alphabet)
    det = determinize_monitor(prepared, alphabet | {NO_MARKER}, force=True)
    return fold(det, fold_marker)


def outcome(f, *args):
    """What f returns, or the type, message and witness of what it raises."""
    try:
        return f(*args)
    except (TermError, RuntimeError) as e:
        return type(e), str(e), getattr(e, "witness", None)


def has_verdict_summand(m):
    return any(
        isinstance(t, Sum) and any(isinstance(s, Verdict) for s in t.summands)
        for t in subterms(m)
    )


def test_two_verdict_matches_the_marker_route_on_generated_monitors():
    rng = random.Random(1616)
    kinds = {"ok": 0, "conflict": 0, "error": 0, "summands": 0}
    for i in range(900):
        make = random_two_verdict if i % 3 == 0 else random_split_two_verdict
        m = make(rng, rng.randint(5, 16))
        m = scramble(rng, m) if i % 2 else m
        got, want = outcome(determinize_two_verdict, m, AB, True), outcome(oracle_two_verdict, m, AB)
        if isinstance(want, tuple):
            assert got == want, print_term(m)
            kinds["conflict" if want[0] is ConflictingMonitorError else "error"] += 1
            continue
        kinds["ok"] += 1
        kinds["summands"] += has_verdict_summand(m)
        assert is_deterministic(got), print_term(m)
        assert NO_MARKER not in actions_in(got), print_term(m)
        assert verdict_equiv(m, got, AB), print_term(m)
        assert verdict_equiv(want, got, AB), print_term(m)
        assert size(got) <= size(want), print_term(m)
    assert kinds["ok"] > 400 and kinds["conflict"] > 150 and kinds["summands"] > 100, kinds


def test_two_verdict_skips_the_conflict_walk_with_one_verdict(monkeypatch):
    """Without both verdicts no trace can meet both: the walk is left out,
    the output is the automata route's, and an error the walk would have
    reached is still raised with the same type and message."""
    nested = " + ".join(f"rec x{i}. a.yes" for i in range(10_001))
    wide = parse_monitor(f"b.a.({nested})", AB)  # one closure of all the binders
    walked = outcome(is_conflicting, wide, AB)
    assert walked[0] is CapExceeded

    def no_walk(positions):
        raise AssertionError("the conflict walk ran")

    monkeypatch.setattr(verdicts, "_conflict", no_walk)
    assert outcome(determinize_two_verdict, wide, AB) == walked
    assert outcome(determinize_monitor, wide, AB) == walked
    m4 = mn_monitor(4)  # yes only; its minimal DFA has 18 states
    capped = outcome(determinize_two_verdict, m4, ALPHABET_01E)
    assert capped == outcome(determinize_monitor, m4, ALPHABET_01E)
    assert capped[0] is CapExceeded and "18 states exceeds the cap of 12" in capped[1]

    rng = random.Random(1618)
    kinds = {"ok": 0, "error": 0}
    for i in range(300):
        verdict = (YES, NO)[i % 2]
        m = random_monitor(rng, rng.randint(1, 14), AB, (verdict,) if i % 3 else (verdict, END))
        m = scramble(rng, m) if i % 4 == 0 else m
        got = outcome(determinize_two_verdict, m, AB, True)
        assert got == outcome(determinize_monitor, m, AB, "automata", True), print_term(m)
        kinds["error" if isinstance(got, tuple) else "ok"] += 1
    assert kinds["ok"] > 200 and kinds["error"] > 10, kinds


def test_two_verdict_compiles_the_monitor_once(monkeypatch):
    rng = random.Random(1617)
    generated = next(
        m for m in (random_two_verdict(rng, 12) for _ in range(100))
        if not is_conflicting(m, AB)
    )
    compiles = []
    init = automata._Positions.__init__

    def counted(self, *args, **kwargs):
        compiles.append(args[0])
        init(self, *args, **kwargs)

    def marker_route(*args, **kwargs):
        raise AssertionError("the marker route was taken")

    monkeypatch.setattr(automata._Positions, "__init__", counted)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "detmon":
            for attr in ("nu", "eliminate_verdict_sums"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, marker_route)

    outputs = []
    for m in (parse_monitor("a.yes + b.no", AB), generated):
        compiles.clear()
        outputs.append((m, determinize_two_verdict(m, AB)))
        assert len(compiles) == 1, print_term(m)
    monkeypatch.undo()
    for m, d in outputs:
        assert verdict_equiv(m, d, AB), print_term(m)


# ---------------------------------------------------------------------------
# The labelled subset construction as the conflict check
# ---------------------------------------------------------------------------


def generated_two_verdict(seed, count):
    rng = random.Random(seed)
    for i in range(count):
        make = random_two_verdict if i % 3 else random_split_two_verdict
        m = make(rng, rng.randint(5, 18))
        yield scramble(rng, m) if i % 2 else m


def test_two_verdict_names_the_witness_of_is_conflicting():
    kinds = {"ok": 0, "conflict": 0, "error": 0}
    for m in generated_two_verdict(2020, 1500):
        got = outcome(determinize_two_verdict, m, AB, True)
        formed = outcome(well_form, m, AB)
        if isinstance(formed, tuple):
            assert got == formed, print_term(m)
            kinds["error"] += 1
            continue
        c = is_conflicting(formed, AB)
        if c:
            assert got == (ConflictingMonitorError, str(ConflictingMonitorError(c.witness)),
                           c.witness), print_term(m)
            kinds["conflict"] += 1
        else:
            assert not isinstance(got, tuple), print_term(m)
            kinds["ok"] += 1
    assert min(kinds.values()) > 100, kinds


def test_a_conflict_free_monitor_runs_no_pair_walk(monkeypatch):
    """Within the fail-fast bound, the subsets alone show that no trace
    meets both verdicts."""
    free = [(M4_OR_E_NO, ALPHABET_01E), (parse_monitor("b.(a.no + no) + a.yes", AB), AB)]
    for m in generated_two_verdict(2021, 600):
        formed = outcome(well_form, m, AB)
        if not isinstance(formed, tuple) and not is_conflicting(formed, AB):
            free.append((formed, AB))
    assert len(free) > 200

    def no_walk(positions):
        raise AssertionError("the conflict walk ran")

    monkeypatch.setattr(verdicts, "_conflict", no_walk)
    for m, alphabet in free:
        assert not isinstance(outcome(determinize_two_verdict, m, alphabet, True), tuple)
    assert outcome(determinize_two_verdict, M4_OR_E_NO, ALPHABET_01E)[0] is CapExceeded


def test_the_pair_walk_bounds_a_deep_conflict(monkeypatch):
    """A conflict deeper than M_14's 2^14 subsets: the subset walk stops
    once it has found more subsets than its table has pairs of states,
    and the quadratic pair walk names the conflict."""
    branch = prefix_chain(["1"] * 32, parse_monitor("0.yes + 0.no", ALPHABET_01E))
    m = mk_sum([mn_monitor(14), branch])
    compiled = automata._Positions(well_form(m, ALPHABET_01E), ALPHABET_01E)
    states = len(compiled.nfa((YES, NO), weak=False).acc)
    walk, found = verdicts._conflict, []

    def counted(positions):
        frame = sys._getframe(1)
        while frame.f_code is not automata._determinize.__code__:
            frame = frame.f_back
        found.append(len(frame.f_locals["subsets"]))
        return walk(positions)

    monkeypatch.setattr(verdicts, "_conflict", counted)
    with pytest.raises(ConflictingMonitorError) as exc:
        determinize_two_verdict(m, ALPHABET_01E, force=True)
    assert exc.value.witness == ("1",) * 32 + ("0",)
    assert len(found) == 1
    # One subset's successors past the bound, at most.
    assert states**2 < found[0] <= states**2 + len(ALPHABET_01E), (states, found)


def test_the_target_table_tail_equals_the_weak_nfa_tail():
    """The subsets of the action targets and those of the weak NFA, whose
    states include closure members, give one minimal DFA and so one
    monitor, and clash on the same monitors."""

    def tail(table):
        try:
            return automata._determinized(table, True, (YES, NO))
        except automata._Clash:
            return "clash"
        except (TermError, RuntimeError) as e:
            return type(e), str(e)

    rng = random.Random(2022)
    ms = list(generated_two_verdict(2022, 300))
    for i in range(300):
        verdict = (YES, NO)[i % 2]
        verdicts = (verdict, END) if i % 3 else (verdict,)
        ms.append(random_monitor(rng, rng.randint(1, 16), AB, verdicts))
    clashes = 0
    for m in ms:
        formed = outcome(well_form, m, AB)
        if isinstance(formed, tuple):
            continue
        p = automata._Positions(formed, AB)
        targets, weak = p.nfa((YES, NO), weak=False), p.nfa((YES, NO))
        assert len(targets.acc) <= len(weak.acc), print_term(m)
        got = tail(targets)
        assert got == tail(weak), print_term(m)
        clashes += got == "clash"
    assert clashes > 50


def test_a_compile_error_comes_before_a_conflict():
    """The monitor's reachable positions are all worked out before any
    subset, as verdict_equiv does, so a closure over the cap is reported
    even where a shorter trace conflicts."""
    nested = " + ".join(f"rec x{i}. a.yes" for i in range(10_001))
    m = parse_monitor(f"a.no + a.yes + b.a.({nested})", AB)
    assert is_conflicting(m, AB).witness == ("a",)
    got = outcome(determinize_two_verdict, m, AB)
    assert got[0] is CapExceeded and "tau closure exceeded" in got[1]


def test_the_witness_is_a_shortest_conflict_not_the_shortlex_least():
    # After a, the pair walk tries b from the inner choice paired with
    # itself before it tries a from that choice paired with no.
    m = parse_monitor("a.(yes + b.(rec r0. no)) + no", AB)
    with pytest.raises(ConflictingMonitorError) as exc:
        determinize_two_verdict(m, AB)
    assert exc.value.witness == ("a", "b") == is_conflicting(m, AB).witness
    assert {YES, NO} <= verdicts_on(m, ("a", "a"), AB)
    assert not {YES, NO} <= verdicts_on(m, ("a",), AB)
