"""Concrete syntax for monitors and formulas.

Grammar, loosest to tightest: recursion binders (``rec x.`` / ``max X.`` /
``min X.``) extend maximally to the right, then choice ``+`` (monitors) and
``|`` / ``&`` (formulas), then action prefixing and the modalities, then
atoms.  ``#`` starts a line comment.  Actions may be arbitrary identifier
tokens, including numeric ones such as ``0`` and ``1``; what counts as an
action is decided by the declared alphabet, so binder and variable names
must stay out of it.

Files carry a header line ``alphabet: a, b`` followed by a single term.
"""

from __future__ import annotations

import re
from typing import Iterator

from .terms import (
    NO_MARKER,
    TAU,
    VERDICTS,
    And,
    Box,
    Diamond,
    FF,
    Formula,
    Max,
    Min,
    Monitor,
    Nil,
    Or,
    Prefix,
    Rec,
    Sum,
    TT,
    Term,
    TermError,
    Var,
    Verdict,
    mk_and,
    mk_or,
    mk_sum,
)


class ParseError(TermError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>\#[^\n]*)
      | (?P<bracket>\[[A-Za-z0-9_]+\])
      | (?P<dia><[A-Za-z0-9_]+>)
      | (?P<ident>[A-Za-z0-9_]+)
      | (?P<sym>[.+&|()])
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str, alphabet: frozenset[str], allow_marker: bool):
        self.tokens = _tokenize(text)
        self.i = 0
        self.alphabet = alphabet
        self.allow_marker = allow_marker
        for a in alphabet:
            if a in ("rec", "max", "min", "tt", "ff", "nil", TAU, *VERDICTS):
                raise TermError(f"alphabet contains a reserved word: {a!r}")

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def err(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    def expect_sym(self, sym: str) -> None:
        tok = self.peek()
        if tok.kind != "sym" or tok.text != sym:
            raise self.err(f"expected {sym!r}, found {tok.text or 'end of input'!r}")
        self.next()

    def at_sym(self, sym: str) -> bool:
        tok = self.peek()
        return tok.kind == "sym" and tok.text == sym

    def expect_binder_name(self) -> str:
        tok = self.peek()
        if tok.kind != "ident":
            raise self.err("expected a recursion variable name")
        name = tok.text
        if name in self.alphabet:
            raise self.err(f"binder name {name!r} collides with the alphabet")
        if name in ("rec", "max", "min", "tt", "ff", "nil", TAU, *VERDICTS):
            raise self.err(f"binder name {name!r} is a reserved word")
        self.next()
        return name

    # -- expressions -------------------------------------------------------
    #
    # Both grammars are parsed by one loop, without a Python frame per
    # nesting level.  An operand is a run of wrappers (prefixes and
    # modalities, read by `prefix`; binders) ending in an atom (read by
    # `atom`) or in a parenthesis.  A binder's body extends as far right as
    # it can, so a binder, like a parenthesis, opens a frame: its wrappers
    # and one operand list per binary operator, loosest first.  A frame
    # closes at the first token that continues none of its lists.

    def expression(self, binders: dict, ops: tuple, joins: tuple, prefix, atom) -> Term:
        tight = len(ops) - 1
        frames: list[tuple] = [([], False, [[] for _ in ops])]  # wraps, paren, lists
        wraps: list[tuple[type, str]] = []
        while True:
            tok = self.tokens[self.i]
            if tok.text == "(" or tok.kind == "ident" and tok.text in binders:
                self.i += 1
                if tok.text != "(":
                    wraps.append((binders[tok.text], self.expect_binder_name()))
                    self.expect_sym(".")
                frames.append((wraps, tok.text == "(", [[] for _ in ops]))
                wraps = []
                continue
            wrap = prefix(tok)
            if wrap is not None:
                wraps.append(wrap)
                continue
            value = atom(tok)
            while True:
                for cls, label in reversed(wraps):
                    value = cls(label, value)
                if not frames:
                    return value
                _, paren, levels = frames[-1]
                levels[tight].append(value)
                tok = self.tokens[self.i]
                op = ops.index(tok.text) if tok.kind == "sym" and tok.text in ops else -1
                if op < tight:
                    for i in range(tight, max(op, 0), -1):
                        levels[i - 1].append(_join(joins[i], levels[i]))
                        levels[i] = []
                if op >= 0:
                    self.i += 1
                    wraps = []
                    break
                value = _join(joins[0], levels[0])
                wraps = frames.pop()[0]
                if paren:
                    self.expect_sym(")")

    def m_prefix(self, tok: _Token) -> tuple[type, str] | None:
        if tok.kind == "bracket":
            if tok.text != NO_MARKER or not self.allow_marker:
                raise self.err(f"reserved action {tok.text!r} is not allowed here")
        elif tok.kind != "ident" or tok.text not in self.alphabet:
            return None
        self.i += 1
        self.expect_sym(".")
        return Prefix, tok.text

    def m_atom(self, tok: _Token) -> Monitor:
        if tok.kind != "ident":
            raise self.err(f"unexpected {tok.text or 'end of input'!r} in monitor")
        if tok.text == "nil":
            raise self.err("'nil' is a process, not a monitor")
        self.i += 1
        if self.at_sym("."):
            if tok.text in VERDICTS:
                raise self.err("a verdict cannot be action-prefixed")
            # A variable meant as an action the alphabet does not declare.
            raise self.err(f"unknown action {tok.text!r}")
        return Verdict(tok.text) if tok.text in VERDICTS else Var(tok.text)

    def f_prefix(self, tok: _Token) -> tuple[type, str] | None:
        if tok.kind not in ("bracket", "dia"):
            return None
        action = tok.text[1:-1]
        if action not in self.alphabet:
            raise self.err(f"unknown action {action!r}")
        self.i += 1
        return (Box if tok.kind == "bracket" else Diamond), action

    def f_atom(self, tok: _Token) -> Formula:
        if tok.kind != "ident":
            raise self.err(f"unexpected {tok.text or 'end of input'!r} in formula")
        if tok.text in self.alphabet:
            raise self.err(f"action {tok.text!r} cannot stand alone in a formula")
        if tok.text in ("rec", "nil", TAU, *VERDICTS):
            raise self.err(f"unexpected {tok.text!r} in formula")
        self.i += 1
        if tok.text in ("tt", "ff"):
            return TT() if tok.text == "tt" else FF()
        return Var(tok.text)

    def finish(self) -> None:
        tok = self.peek()
        if tok.kind != "eof":
            raise self.err(f"trailing input starting at {tok.text!r}")


def _join(build, items: list[Term]) -> Term:
    return items[0] if len(items) == 1 else build(items)


def parse_monitor(
    text: str, alphabet: frozenset[str], allow_marker: bool = False
) -> Monitor:
    p = _Parser(text, alphabet, allow_marker)
    m = p.expression({"rec": Rec}, ("+",), (mk_sum,), p.m_prefix, p.m_atom)
    p.finish()
    return m


def parse_formula(text: str, alphabet: frozenset[str]) -> Formula:
    p = _Parser(text, alphabet, allow_marker=False)
    binders = {"max": Max, "min": Min}
    f = p.expression(binders, ("|", "&"), (mk_or, mk_and), p.f_prefix, p.f_atom)
    p.finish()
    return f


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_WORDS = {Nil: "nil", TT: "tt", FF: "ff", Rec: "rec", Max: "max", Min: "min"}
# Per n-ary operator: its separator, and the operands that need parentheses
# when not last, because a binder swallows everything to its right.
_NARY = {Sum: (" + ", Rec), And: (" & ", (Max, Min)), Or: (" | ", (Max, Min))}


def print_term(t: Term) -> str:
    """Render a monitor, process or formula back to concrete syntax.

    Inverse of the parsers: ``parse(print_term(t)) == t``.
    """
    out: list[str] = []
    emit = out.append
    # Text still to write, last item first: strings verbatim, nodes printed.
    todo: list[object] = [t]
    push = todo.append
    while todo:
        x = todo.pop()
        cls = type(x)
        if cls is str:
            emit(x)
        elif cls is Prefix or cls is Box or cls is Diamond:
            body = x.body
            if cls is Prefix:
                emit(x.action + ".")
                grouped = type(body) in (Sum, Rec)
            else:
                emit(f"[{x.action}]" if cls is Box else f"<{x.action}>")
                grouped = type(body) in (And, Or, Max, Min)
            if grouped:
                emit("(")
                push(")")
            push(body)
        elif cls is Verdict:
            emit(x.value)
        elif cls is Var:
            emit(x.name)
        elif cls is Rec or cls is Max or cls is Min:
            emit(f"{_WORDS[cls]} {x.var}. ")
            push(x.body)
        elif cls is Sum or cls is And or cls is Or:
            sep, binders = _NARY[cls]
            kids = x.children()
            last = len(kids) - 1
            for i in range(last, -1, -1):
                c = kids[i]
                # A disjunction binds looser than the conjunction around it.
                if isinstance(c, binders) and i != last or (
                    cls is And and type(c) is Or
                ):
                    todo += (")", c, "(")
                else:
                    push(c)
                if i:
                    push(sep)
        elif cls in _WORDS:
            emit(_WORDS[cls])
        else:
            raise TermError(f"not a term: {x!r}")
    return "".join(out)


# ---------------------------------------------------------------------------
# Term files
# ---------------------------------------------------------------------------


# A transition line of an LTS or automaton file: ``src -label-> dst``.
TRANSITION = re.compile(r"^(\S+)\s*-(\S+?)->\s*(\S+)$")


def file_lines(
    text: str, keys: tuple[str, ...]
) -> Iterator[tuple[int, str, str | None, str]]:
    """The content lines of a file, ``#`` comments cut and blank lines
    skipped, as (index, raw line, key, value).  A line that starts with a
    member of `keys` and a colon gives that key and the rest of the line
    stripped; any other line gives None and the whole stripped line."""
    for idx, raw in enumerate(text.splitlines()):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, colon, value = line.partition(":")
        if colon and key in keys:
            yield idx, raw, key, value.strip()
        else:
            yield idx, raw, None, line


def comma_list(value: str) -> list[str]:
    """The non-empty comma-separated items of a header value, stripped."""
    return [v.strip() for v in value.split(",") if v.strip()]


def _split_file(text: str) -> tuple[frozenset[str], str]:
    for idx, _, key, value in file_lines(text, ("alphabet",)):
        if key is None:
            raise TermError("the file must start with an 'alphabet:' line")
        names = comma_list(value)
        if not names:
            raise TermError("empty alphabet declaration")
        return frozenset(names), "\n".join(text.splitlines()[idx + 1:])
    raise TermError("missing 'alphabet:' line")


def parse_monitor_file(
    text: str, allow_marker: bool = False
) -> tuple[Monitor, frozenset[str]]:
    alphabet, body = _split_file(text)
    return parse_monitor(body, alphabet, allow_marker=allow_marker), alphabet


def parse_formula_file(text: str) -> tuple[Formula, frozenset[str]]:
    alphabet, body = _split_file(text)
    return parse_formula(body, alphabet), alphabet


def format_term_file(t: Term, alphabet: frozenset[str]) -> str:
    return f"alphabet: {', '.join(sorted(alphabet))}\n{print_term(t)}\n"
