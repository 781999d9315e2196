"""detmon — synthesis and determinization of runtime monitors.

Monitors are process-algebra terms flagging irrevocable verdicts on the
traces of a system; formulas are the safety/co-safety slices of a
branching-time logic with greatest and least fixpoints.  The package
synthesizes monitors from formulas, translates monitors to and from
finite automata and systems of equations, and determinizes on either
side — with the witness families showing the unavoidable exponential
price of doing so.
"""

from .automata import (
    Dfa,
    Nfa,
    dfa_to_monitor,
    distinguishing_word,
    format_automaton,
    irrevocable_closure,
    is_empty,
    is_irrevocable,
    language_equiv,
    member,
    minimize_dfa,
    monitor_to_nfa,
    nfa_to_monitor,
    parse_automaton,
    subset_construction,
)
from .equivalence import (
    EquivResult,
    bounded_equiv,
    pump_check,
    simple_traces,
    verdict_equiv,
)
from .families import (
    ALPHABET_01E,
    chrobak_predicate,
    encode_binary,
    landau_lcm,
    landau_partition,
    ln_predicate,
    mn_dfa,
    mn_monitor,
    mn_nfa,
    mn_predicate,
    un_monitor,
    un_predicate,
)
from .logic import (
    EquationSystem,
    determinize_formula,
    determinize_system,
    eval_formula,
    eval_system,
    format_equation_system,
    formula_to_system,
    is_deterministic_form,
    is_standard_form,
    parse_equation_system,
    solve_system,
    solve_system_simultaneous,
    system_to_dfa,
    system_to_formula,
    to_standard_form,
)
from .pipeline import bench, bench_csv, determinize_monitor
from .semantics import (
    CapExceeded,
    Lts,
    Step,
    acc,
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
from .synthesis import monitor_to_formula, msf, pi, pi_inverse
from .syntax import (
    ParseError,
    format_term_file,
    parse_formula,
    parse_formula_file,
    parse_monitor,
    parse_monitor_file,
    print_term,
)
from .terms import (
    END,
    NO,
    YES,
    And,
    Box,
    Diamond,
    FF,
    FragmentError,
    FreeVariableError,
    Max,
    Min,
    Monitor,
    Nil,
    Or,
    Prefix,
    Rec,
    Sum,
    TT,
    TermError,
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
    mk_and,
    mk_or,
    mk_sum,
    size,
    subterms,
    verdicts_in,
    well_form,
)
from .verdicts import (
    ConflictResult,
    ConflictingMonitorError,
    determinize_two_verdict,
    is_conflicting,
    nu,
    nu_inverse,
)

__version__ = "0.1.0"
