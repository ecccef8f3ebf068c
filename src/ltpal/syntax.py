"""Concrete formula syntax: lexer, parser and pretty-printer.

Grammar, loosest to tightest binding::

    formula  := or '->' formula | or          (implication, right-assoc)
    or       := and ('|' and)*
    and      := unary ('&' unary)*
    unary    := '!' unary
              | 'X' unary | 'F' unary | 'G' unary        (temporal only)
              | 'K' '{' agent '}' unary                  (epistemic scope)
              | 'D' '{' agent (',' agent)* '}' unary     (epistemic scope)
              | '[' formula ']' unary                    (announcement scope)
              | primary
    primary  := '(' formula (('U'|'R'|'W') formula)? ')' (binary temporal only
              | atom | 'true' | 'false' | '?'digits       outside epistemic
                                                          scopes)
    atom     := IDENT (':' IDENT)?

Identifiers are runs of letters, digits and underscores; the single letters
K, D, X, F, G, U, R, W and the words true/false are reserved.  A bare
identifier ``p`` abbreviates the atom ``p:p``.  Binary temporal operators
must be parenthesised: ``(f U g)``.  Temporal operators of any kind are
rejected inside K{...}, D{...} and announcement brackets; that violation is
reported as `EpistemicScopeError`, a distinct subclass of `ParseError`.

The lexer is one regular expression, an alternative per token shape; only
a newline starts a line, and every other character takes one column.

Neither the parser nor `pretty` recurses: both keep explicit stacks, so
formulas may nest to any depth.

`pretty` emits a canonical minimal-parenthesis rendering.  It reads each
shape once for both levels: a PAL leaf prints as its formula, and negation
and conjunction read alike at either level.  Parsing a pretty-printed
formula yields a structurally identical AST, provided the AST was produced
by the parser or by the canonical constructors in `formulas` (ad-hoc trees
such as a temporal conjunction of two plain PAL leaves print as their
canonical equivalent instead).
"""

from __future__ import annotations

import re

from .errors import EpistemicScopeError, ParseError
from .formulas import (
    Announce,
    Dist,
    Formula,
    Knows,
    Next,
    PAnd,
    Placeholder,
    PNot,
    Pal,
    PalFormula,
    Prop,
    TAnd,
    TNot,
    Template,
    TemporalFormula,
    Until,
    bottom,
    future,
    globally,
    lift,
    release,
    top,
    weak_until,
)
from .model import Atom

_KEYWORDS = {"K", "D", "X", "F", "G", "U", "R", "W", "true", "false"}

_TOKEN_RE = re.compile(
    r"(?P<newline>\n)|[^\S\n]+|(?P<punct>->|[()\[\]{},:!&|])"
    r"|\?(?P<digits>[0-9]*)|(?P<word>[A-Za-z0-9_]+)|(?P<other>.)"
)


class _Token:
    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind, value, line, column):
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column


def _tokenize(text: str) -> list:
    tokens = []
    line, line_start = 1, 0  # line_start: the offset where `line` begins
    for match in _TOKEN_RE.finditer(text):
        shape, value = match.lastgroup, match.group()
        column = match.start() - line_start + 1
        if shape == "newline":
            line, line_start = line + 1, match.end()
        elif shape == "punct":
            tokens.append(_Token(value, value, line, column))
        elif shape == "word":
            kind = value if value in _KEYWORDS else "identifier"
            tokens.append(_Token(kind, value, line, column))
        elif shape == "digits":
            digits = match.group("digits")
            if not digits:
                raise ParseError("expected digits after '?'", line, column)
            tokens.append(_Token("placeholder", int(digits), line, column))
        elif shape == "other":
            raise ParseError(f"unexpected character {value!r}", line, column)
    tokens.append(_Token("end", None, line, len(text) - line_start + 1))
    return tokens


def _not(a: Formula) -> Formula:
    return PNot(a) if isinstance(a, PalFormula) else TNot(a)


def _and(a: Formula, b: Formula) -> Formula:
    if isinstance(a, PalFormula) and isinstance(b, PalFormula):
        return PAnd(a, b)
    return TAnd(lift(a), lift(b))


# Operator-stack entry kind -> how it combines its payload (the announced
# formula, the agent or agents, or the left operand) with the operand after it.
_BUILD = {
    "!": lambda _, a: _not(a),
    "X": lambda _, a: Next(lift(a)),
    "F": lambda _, a: future(lift(a)),
    "G": lambda _, a: globally(lift(a)),
    "K": Knows,
    "D": Dist,
    "[]": Announce,
    "&": _and,
    "|": lambda a, b: _not(_and(_not(a), _not(b))),
    "->": lambda a, b: _not(_and(a, _not(b))),
    "U": lambda a, b: Until(lift(a), lift(b)),
    "R": lambda a, b: release(lift(a), lift(b)),
    "W": lambda a, b: weak_until(lift(a), lift(b)),
}

# Binding strength of the stack entries an operand completes: the
# connectives, then the prefix operators, which bind tightest.  Brackets and
# a pending (f U ...) are closed only by their bracket, so they are absent.
_BINARY = {"->": 1, "|": 2, "&": 3}
_STRENGTH = {**_BINARY, "!": 4, "X": 4, "F": 4, "G": 4, "K": 4, "D": 4, "[]": 4}


def _bare_temporal(token: _Token) -> ParseError:
    return ParseError(
        f"binary temporal operator '{token.value}' must appear inside "
        f"parentheses: (f {token.value} g)",
        token.line,
        token.column,
    )


class _Parser:
    """Operator-precedence parsing over the token list, without recursion.

    One stack holds the open operators: prefix operators waiting for their
    operand, binary connectives holding their left operand, and the open
    brackets.  Each entry also carries the scope that applies to the tokens
    after it: None while temporal operators are allowed, and inside an
    epistemic or announcement scope a description of that scope for error
    messages.  Boolean connectives keep pure PAL operands inside the PAL
    layer, so a formula without temporal operators parses to a single PAL
    tree (lifted once at the very end).
    """

    def __init__(self, text: str, *, allow_placeholders: bool):
        self._tokens = _tokenize(text)
        self._pos = 0
        self._allow_placeholders = allow_placeholders

    def _peek(self) -> _Token:
        return self._tokens[self._pos]

    def _advance(self) -> _Token:
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def _expect(self, kind: str) -> _Token:
        token = self._peek()
        if token.kind != kind:
            raise ParseError(
                f"unexpected {self._describe(token)}",
                token.line,
                token.column,
                expected={kind},
            )
        return self._advance()

    @staticmethod
    def _describe(token: _Token) -> str:
        if token.kind == "end":
            return "end of input"
        if token.kind == "identifier":
            return f"identifier {token.value!r}"
        if token.kind == "placeholder":
            return f"placeholder ?{token.value}"
        return f"'{token.value}'"

    def parse(self, pal_scope: str | None) -> Formula:
        stack = []  # (kind, payload, scope of the tokens after the entry)
        operand = self._operand(stack, pal_scope)
        while True:
            # `operand` is complete: reduce the entries that bind at least as
            # tightly as the next token.  '->' associates to the right, and a
            # token other than a connective ends the innermost bracket.
            token = self._peek()
            strength = _BINARY.get(token.kind)
            limit = 1 if strength is None else strength + (token.kind == "->")
            while stack and _STRENGTH.get(stack[-1][0], 0) >= limit:
                entry, payload, _ = stack.pop()
                operand = _BUILD[entry](payload, operand)
            entry, payload, scope = stack[-1] if stack else (None, None, pal_scope)
            if strength is not None:
                self._advance()
                stack.append((token.kind, operand, scope))
            elif entry is None:
                return self._finish(operand)
            elif entry == "(" and token.kind in ("U", "R", "W"):
                self._reject_temporal(token, scope)
                self._advance()
                stack[-1] = (token.kind, operand, scope)
            elif entry == "[":
                self._expect("]")
                stack[-1] = ("[]", operand, scope)
            else:
                self._expect(")")
                stack.pop()
                if entry != "(":
                    operand = _BUILD[entry](payload, operand)
                continue
            operand = self._operand(stack, pal_scope)

    def _operand(self, stack: list, pal_scope: str | None) -> Formula:
        """Push the prefix operators and opening brackets that start an
        operand, each with the scope after it, and return the primary
        formula that ends them."""
        while True:
            scope = stack[-1][2] if stack else pal_scope
            token = self._advance()
            kind, payload = token.kind, None
            if kind in ("X", "F", "G"):
                self._reject_temporal(token, scope)
            elif kind == "K":
                self._expect("{")
                payload = self._expect("identifier").value
                self._expect("}")
                scope = f"the scope of K{{{payload}}}"
            elif kind == "D":
                self._expect("{")
                payload = [self._expect("identifier").value]
                while self._peek().kind == ",":
                    self._advance()
                    payload.append(self._expect("identifier").value)
                self._expect("}")
                scope = "the scope of D{...}"
            elif kind == "[":
                scope = "an announcement"
            elif kind not in ("!", "("):
                return self._primary(token)
            stack.append((kind, payload, scope))

    def _finish(self, formula: Formula) -> Formula:
        tail = self._peek()
        if tail.kind in ("U", "R", "W"):
            raise _bare_temporal(tail)
        if tail.kind != "end":
            raise ParseError(
                f"unexpected {self._describe(tail)} after the formula",
                tail.line,
                tail.column,
                expected={"end"},
            )
        return formula

    def _primary(self, token: _Token) -> Formula:
        """The atom, constant or placeholder `token` starts."""
        if token.kind == "true":
            return top()
        if token.kind == "false":
            return bottom()
        if token.kind == "identifier":
            if self._peek().kind == ":":
                self._advance()
                class_id = self._expect("identifier").value
                return Prop(Atom(token.value, class_id))
            return Prop(Atom(token.value, token.value))
        if token.kind == "placeholder":
            if not self._allow_placeholders:
                raise ParseError(
                    f"placeholder ?{token.value} is only allowed in templates",
                    token.line,
                    token.column,
                )
            if token.value < 1:
                raise ParseError(
                    "placeholder indices start at 1", token.line, token.column
                )
            return Placeholder(token.value)
        if token.kind in ("U", "R", "W"):
            raise _bare_temporal(token)
        raise ParseError(
            f"unexpected {self._describe(token)}",
            token.line,
            token.column,
            expected={"identifier", "'('", "'['", "'!'", "'true'", "'false'"},
        )

    @staticmethod
    def _reject_temporal(token: _Token, pal_scope) -> None:
        if pal_scope is not None:
            raise EpistemicScopeError(
                f"temporal operator '{token.value}' is not allowed inside {pal_scope}",
                token.line,
                token.column,
            )


def parse_formula(text: str) -> TemporalFormula:
    """Parse a path formula; pure PAL text comes back as a single PAL leaf."""
    return lift(_Parser(text, allow_placeholders=False).parse(None))


def parse_pal_formula(text: str) -> PalFormula:
    """Parse a formula in which temporal operators are rejected outright."""
    formula = _Parser(text, allow_placeholders=False).parse("a PAL formula")
    assert isinstance(formula, PalFormula)
    return formula


def parse_template(text: str) -> Template:
    """Parse a formula with ?k slots; arity is the highest index present."""
    formula = _Parser(text, allow_placeholders=True).parse(None)
    try:
        return Template.from_skeleton(lift(formula))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


# Pretty-printing levels, loosest to tightest.
_IMPLIES, _OR, _AND, _UNARY, _ATOM = 1, 2, 3, 4, 5

# Interned, so a constant is recognised by identity.
_TRUE, _FALSE = top(), bottom()
_PAL_TOP = Pal(_TRUE)


def pretty(formula: Formula) -> str:
    """Canonical text for a formula; see the module docstring for caveats.

    One stack holds text pieces and (subformula, minimum level) entries, so
    nesting depth costs no Python frames.  A subformula whose own level is
    looser than its minimum is parenthesised.
    """
    out = []
    stack = [(formula, _IMPLIES)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        f, minimum = item
        level, parts = _layout(f)
        if level < minimum:
            parts = ["(", *parts, ")"]
        stack.extend(reversed(parts))
    return "".join(out)


def _negated(f: Formula):
    """The operand of a negation at either level, reading through a PAL
    leaf, or None."""
    if isinstance(f, Pal):
        f = f.formula
    return f.operand if isinstance(f, (PNot, TNot)) else None


def _disjuncts(f: Formula):
    """The operands a, b of a canonical disjunction !(!a & !b), or None."""
    conjunction = _negated(f)
    if isinstance(conjunction, (PAnd, TAnd)):
        a, b = _negated(conjunction.left), _negated(conjunction.right)
        if a is not None and b is not None:
            return a, b
    return None


def _layout(f: Formula):
    """The level of `f` and its pieces: text and (operand, minimum level)."""
    if isinstance(f, Pal):
        f = f.formula
    if f is _TRUE:
        return _ATOM, ["true"]
    if f is _FALSE:
        return _ATOM, ["false"]
    if isinstance(f, Prop):
        atom = f.atom
        text = atom.data_id if atom.data_id == atom.class_id else f"{atom.data_id}:{atom.class_id}"
        return _ATOM, [text]
    if isinstance(f, Placeholder):
        return _ATOM, [f"?{f.index}"]
    if isinstance(f, (PNot, TNot)):
        operand = f.operand
        if isinstance(operand, Until):
            held, body = _negated(operand.left), _negated(operand.right)
            if operand.left is _PAL_TOP and body is not None:
                return _UNARY, ["G ", (body, _UNARY)]
            if held is not None and body is not None:
                either = _disjuncts(body)
                if either is not None and lift(either[1]) is lift(held):
                    return _ATOM, ["(", (either[0], _IMPLIES), " W ", (held, _IMPLIES), ")"]
                return _ATOM, ["(", (held, _IMPLIES), " R ", (body, _IMPLIES), ")"]
        either = _disjuncts(f)
        if either is not None:
            return _OR, [(either[0], _OR), " | ", (either[1], _AND)]
        consequent = _negated(operand.right) if isinstance(operand, (PAnd, TAnd)) else None
        if consequent is not None:
            return _IMPLIES, [(operand.left, _OR), " -> ", (consequent, _IMPLIES)]
        return _UNARY, ["!", (operand, _UNARY)]
    if isinstance(f, (PAnd, TAnd)):
        return _AND, [(f.left, _AND), " & ", (f.right, _UNARY)]
    if isinstance(f, Knows):
        return _UNARY, [f"K{{{f.agent}}} ", (f.operand, _UNARY)]
    if isinstance(f, Dist):
        members = ",".join(sorted(f.agents))
        return _UNARY, [f"D{{{members}}} ", (f.operand, _UNARY)]
    if isinstance(f, Announce):
        return _UNARY, ["[", (f.announced, _IMPLIES), "] ", (f.operand, _UNARY)]
    if isinstance(f, Next):
        return _UNARY, ["X ", (f.operand, _UNARY)]
    if isinstance(f, Until):
        if f.left is _PAL_TOP:
            return _UNARY, ["F ", (f.right, _UNARY)]
        return _ATOM, ["(", (f.left, _IMPLIES), " U ", (f.right, _IMPLIES), ")"]
    raise TypeError(f"not a formula: {f!r}")
