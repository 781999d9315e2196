"""Command-line front end.

Exit codes: 0 success (and, for the checking commands, "property
holds"); 1 property does not hold (inequivalent, conflicting);
2 malformed input; 3 a resource limit was hit (a size cap, a timeout,
memory); 4 internal error (Python's recursion limit was hit).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import automata, families, pipeline, semantics, synthesis, verdicts
from .equivalence import verdict_equiv
from .syntax import (
    ParseError,
    format_term_file,
    parse_formula_file,
    parse_monitor_file,
    print_term,
)
from .terms import YES, TermError

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _cmd_synth(args: argparse.Namespace) -> int:
    f, alphabet = parse_formula_file(_read(args.formula))
    m = synthesis.msf(f)
    sys.stdout.write(format_term_file(m, alphabet))
    return EXIT_OK


def _cmd_determinize(args: argparse.Namespace) -> int:
    m, alphabet = parse_monitor_file(_read(args.monitor))
    if args.two_verdict:
        out = verdicts.determinize_two_verdict(m, alphabet, force=args.force)
    else:
        out = pipeline.determinize_monitor(
            m, alphabet, method=args.method, force=args.force
        )
    sys.stdout.write(format_term_file(out, alphabet))
    return EXIT_OK


def _cmd_to_nfa(args: argparse.Namespace) -> int:
    m, alphabet = parse_monitor_file(_read(args.monitor))
    nfa = automata.monitor_to_nfa(m, args.verdict, alphabet)
    sys.stdout.write(automata.format_automaton(nfa))
    return EXIT_OK


def _cmd_from_nfa(args: argparse.Namespace) -> int:
    a = automata.parse_automaton(_read(args.automaton))
    m = automata.nfa_to_monitor(automata.as_nfa(a), force=args.force)
    sys.stdout.write(format_term_file(m, a.alphabet))
    return EXIT_OK


def _cmd_to_dfa(args: argparse.Namespace) -> int:
    a = automata.parse_automaton(_read(args.automaton))
    dfa = automata.subset_construction(automata.as_nfa(a))
    if args.minimize:
        dfa = automata.minimize_dfa(dfa)
    sys.stdout.write(automata.format_automaton(dfa))
    return EXIT_OK


def _cmd_equiv(args: argparse.Namespace) -> int:
    m1, a1 = parse_monitor_file(_read(args.left))
    m2, a2 = parse_monitor_file(_read(args.right))
    result = verdict_equiv(m1, m2, a1 | a2, include_end=args.include_end)
    if result:
        print("equivalent")
        return EXIT_OK
    trace = ".".join(result.witness) if result.witness else "ε"
    print(f"not equivalent: verdict {result.verdict} differs on {trace}")
    return EXIT_FALSE


def _cmd_conflict(args: argparse.Namespace) -> int:
    m, alphabet = parse_monitor_file(_read(args.monitor))
    result = verdicts.is_conflicting(m, alphabet)
    if result:
        trace = ".".join(result.witness) if result.witness else "ε"
        print(f"conflicting on {trace}")
        return EXIT_FALSE
    print("conflict-free")
    return EXIT_OK


def _cmd_family(args: argparse.Namespace) -> int:
    n = args.n
    if args.name == "mn":
        produce = {
            "monitor": lambda: format_term_file(families.mn_monitor(n), families.ALPHABET_01E),
            "nfa": lambda: automata.format_automaton(families.mn_nfa(n)),
            "dfa": lambda: automata.format_automaton(families.mn_dfa(n)),
        }
    else:
        produce = {
            "monitor": lambda: format_term_file(families.un_monitor(n), families.ALPHABET_01E),
            "nfa": lambda: automata.format_automaton(
                automata.monitor_to_nfa(families.un_monitor(n), YES, families.ALPHABET_01E)
            ),
            "dfa": lambda: automata.format_automaton(
                automata.minimize_dfa(
                    automata.subset_construction(
                        automata.monitor_to_nfa(
                            families.un_monitor(n), YES, families.ALPHABET_01E
                        )
                    )
                )
            ),
        }
    sys.stdout.write(produce[args.kind]())
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    m, alphabet = parse_monitor_file(_read(args.monitor))
    lts = semantics.parse_lts(_read(args.lts))
    state = args.state or lts.init
    accepted = semantics.acc(m, lts, state, alphabet)
    rejected = semantics.rej(m, lts, state, alphabet)
    print(f"acc: {accepted}")
    print(f"rej: {rejected}")
    return EXIT_OK


def _cmd_trace(args: argparse.Namespace) -> int:
    m, alphabet = parse_monitor_file(_read(args.monitor))
    word = tuple(a for a in args.trace.split(".") if a)
    bad = set(word) - alphabet
    if bad:
        raise TermError(f"actions not in the declared alphabet: {sorted(bad)}")
    flags = semantics.verdicts_on(m, word, alphabet)
    print(", ".join(sorted(flags)) if flags else "(none)")
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    rows = pipeline.bench(args.family, args.min_n, args.max_n, timeout=args.timeout)
    csv = pipeline.bench_csv(rows)
    if args.out:
        Path(args.out).write_text(csv)
    else:
        sys.stdout.write(csv)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detmon", description="determinization toolkit for runtime monitors"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a monitor from a formula file")
    p.add_argument("formula", help="formula file ('-' for stdin)")
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("determinize", help="determinize a monitor file")
    p.add_argument("monitor")
    p.add_argument("--method", choices=("automata", "equations"), default="automata")
    p.add_argument("--two-verdict", action="store_true",
                   help="allow monitors carrying both yes and no")
    p.add_argument("--force", action="store_true", help="ignore size caps")
    p.set_defaults(fn=_cmd_determinize)

    p = sub.add_parser("to-nfa", help="language automaton of a monitor")
    p.add_argument("monitor")
    p.add_argument("--verdict", choices=("yes", "no"), default="yes")
    p.set_defaults(fn=_cmd_to_nfa)

    p = sub.add_parser("from-nfa", help="monitor for an irrevocable automaton")
    p.add_argument("automaton")
    p.add_argument("--force", action="store_true", help="ignore size caps")
    p.set_defaults(fn=_cmd_from_nfa)

    p = sub.add_parser("to-dfa", help="determinize an automaton file")
    p.add_argument("automaton")
    p.add_argument("--minimize", action="store_true")
    p.set_defaults(fn=_cmd_to_dfa)

    p = sub.add_parser("equiv", help="are two monitors verdict-equivalent?")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--include-end", action="store_true")
    p.set_defaults(fn=_cmd_equiv)

    p = sub.add_parser("conflict", help="can a monitor flag yes and no on one trace?")
    p.add_argument("monitor")
    p.set_defaults(fn=_cmd_conflict)

    p = sub.add_parser("family", help="emit a member of a witness family")
    p.add_argument("--name", choices=("mn", "un"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=("monitor", "nfa", "dfa"), default="monitor")
    p.set_defaults(fn=_cmd_family)

    p = sub.add_parser("simulate", help="run a monitor against an LTS")
    p.add_argument("--monitor", required=True)
    p.add_argument("--lts", required=True)
    p.add_argument("--state", help="start state (default: the LTS init)")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser(
        "trace",
        help="verdicts a monitor flags on one trace",
        description="Print the verdicts the monitor can reach on the trace, "
        "or (none).  The monitor runs on rule system N: a variable jumps back "
        "to its binder, found along the run without walking the whole "
        "monitor.  A free variable is stuck; names bound twice are allowed.",
    )
    p.add_argument("--monitor", required=True)
    p.add_argument("--trace", required=True, help="dot-separated actions, e.g. a.b.a")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("bench", help="measure determinization on a family")
    p.add_argument("--family", choices=("mn", "un"), required=True)
    p.add_argument("--min-n", type=int, required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--timeout", type=float, default=60.0)
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.set_defaults(fn=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except verdicts.ConflictingMonitorError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FALSE
    except semantics.CapExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAP
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_CAP
    except RecursionError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except (TermError, ParseError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
