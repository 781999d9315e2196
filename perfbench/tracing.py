"""Spans around the library's layer entry points, for the traced run.

``Tracer.install`` rebinds each listed function, in every loaded
``detmon`` module that refers to it, to a wrapper defined here;
``uninstall`` puts the originals back.  No source file is touched, and the
untraced run never installs anything.  Each call becomes one span
``[name, start, end, parent, input, count]`` kept in memory, where
``count`` is the size the group counts (states, equations, actions) or
None; ``write`` saves them as JSON lines when the run ends.

A function left unwrapped is timed as part of its nearest wrapped caller,
so the self time of ``pipeline.determinize_monitor`` covers, for example,
``dualize_monitor`` and ``eliminate_verdict_sums``.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# (module, function, span group, counter name, counter)
# A counter maps (args, kwargs, result) to a whole number.
LAYER_FUNCTIONS = (
    ("syntax", "parse_monitor_file", "syntax.parse", None, None),
    ("syntax", "parse_monitor", "syntax.parse", None, None),
    ("families", "mn_monitor", "families.build", None, None),
    ("families", "un_monitor", "families.build", None, None),
    ("terms", "well_form", "terms.well_form", None, None),
    ("automata", "monitor_to_nfa", "automata.nfa", "automata.nfa_states",
     lambda a, k, r: len(r.states)),
    ("automata", "subset_construction", "automata.subset", "automata.subset_states",
     lambda a, k, r: len(r.states)),
    ("automata", "minimize_dfa", "automata.minimize", "automata.min_states",
     lambda a, k, r: len(r.states)),
    ("automata", "dfa_to_monitor", "automata.unfold", None, None),
    ("automata", "nfa_to_monitor", "automata.unfold", None, None),
    ("logic", "formula_to_system", "logic.to_system", None, None),
    ("logic", "determinize_system", "logic.merge", "logic.merged_eqs",
     lambda a, k, r: len(r.equations)),
    ("logic", "system_to_formula", "logic.fold", None, None),
    ("synthesis", "monitor_to_formula", "synthesis.to_formula", None, None),
    ("synthesis", "msf", "synthesis.msf", None, None),
    ("verdicts", "is_conflicting", "verdicts.conflict", None, None),
    ("verdicts", "determinize_two_verdict", "verdicts.self", None, None),
    ("pipeline", "determinize_monitor", "pipeline.self", None, None),
    ("equivalence", "verdict_equiv", "equivalence.equiv", None, None),
    ("semantics", "verdicts_on", "semantics.run", "semantics.actions",
     lambda a, k, r: len(tuple(a[1]))),
)

GROUPS = tuple(dict.fromkeys(g for _, _, g, _, _ in LAYER_FUNCTIONS))
COUNTER_OF_GROUP = {g: c for _, _, g, c, _ in LAYER_FUNCTIONS if c}
COUNTERS = tuple(COUNTER_OF_GROUP.values())


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.input_id: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, group: str, fn, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [group, perf_counter(), 0.0, stack[-1] if stack else -1,
                    self.input_id, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter:
                span[5] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        loaded = [m for name, m in sys.modules.items()
                  if name == "detmon" or name.startswith("detmon.")]
        for module, fname, group, _, counter in LAYER_FUNCTIONS:
            original = getattr(sys.modules[f"detmon.{module}"], fname)
            wrapper = self._wrap(group, original, counter)
            for m in loaded:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._saved.append((m, attr, original))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._saved):
            setattr(m, attr, original)
        self._saved.clear()

    def totals(self, first: int = 0, last: int | None = None) -> dict[str, float]:
        """Self time, call count and counted size per group over the spans
        first..last, a range the benchmark opened and closed with no span
        open.  Self time is a span's duration minus the time its child
        spans cover."""
        spans = self.spans[first:last]
        child = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent - first] += end - start
        out: dict[str, float] = {}
        for g in GROUPS:
            out[f"{g}_s"] = 0.0
            out[f"{g}_calls"] = 0
        for c in COUNTERS:
            out[c] = 0
        for i, (name, start, end, _, _, count) in enumerate(spans):
            out[f"{name}_s"] += end - start - child[i]
            out[f"{name}_calls"] += 1
            if count is not None:
                out[COUNTER_OF_GROUP[name]] += count
        return out

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "input", "count")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
