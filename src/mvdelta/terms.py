"""Term language for MV/delta expressions: AST, parser, printer, evaluator.

Grammar (ASCII, whitespace insignificant between tokens)::

    term     := var | rat
              | "neg(" term ")" | "oplus(" term "," term ")"
              | "odot(" term "," term ")" | "ominus(" term "," term ")"
              | "dist(" term "," term ")"
              | "join(" term "," term ")" | "meet(" term "," term ")"
              | "delta(" termlist ";" term ")"
              | "half(" term ")" | "halfn(" int "," term ")"
              | "nfold(" int "," term ")"
    termlist := term { "," term } | epsilon
    rat      := int | int "/" int          (must lie in [0, 1])
    var      := [a-z][a-z0-9_]*

Operation names are reserved words and cannot be used as variables.

The delta node takes an eventually constant argument sequence written
``delta(p1, ..., pk; c)`` and denoting ``(p1, ..., pk, c, c, ...)``; a
finite-support sequence is written with tail ``0``.  On a carrier its
value is ``sum(p_i / 2^i) + c / 2^k``, which never exceeds 1 for
unit-interval arguments, so the truncated and the ordinary sum agree.

``expand`` rewrites the sugar into the core nodes ``Var``, ``Const``,
``Neg``, ``Oplus``, ``Delta``, ``NFold`` and ``HalfN``.  The counted
nodes stay counted: ``nfold(n, t)`` is ``min(n*t, 1)`` and
``halfn(n, t)`` is ``t / 2^n`` on the unit interval, which generates the
variety, so every consumer can handle them in closed form instead of
unrolling n connectives.

Equations for the decision engine are written ``<term> = <term>`` or
``<term> <= <term>``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .rationals import Q01, ZERO

__all__ = [
    "Term",
    "Var",
    "Const",
    "Neg",
    "Oplus",
    "Delta",
    "EvSeq",
    "Odot",
    "Ominus",
    "Dist",
    "Join",
    "Meet",
    "Half",
    "HalfN",
    "NFold",
    "Equation",
    "ParseError",
    "UnboundVariable",
    "parse",
    "parse_equation",
    "print_term",
    "free_vars",
    "expand",
    "evaluate",
    "evaluate_core",
]


class ParseError(ValueError):
    """Syntax error with 1-based line/column position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class UnboundVariable(LookupError):
    def __init__(self, name: str):
        super().__init__(f"unbound variable {name!r}")
        self.name = name


class Term:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Var(Term):
    name: str


@dataclass(frozen=True, slots=True)
class Const(Term):
    value: Q01


@dataclass(frozen=True, slots=True)
class Neg(Term):
    arg: Term


@dataclass(frozen=True, slots=True)
class Oplus(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class EvSeq:
    """Eventually constant argument sequence (prefix_1..prefix_k, tail, tail, ...)."""

    prefix: tuple[Term, ...]
    tail: Term


@dataclass(frozen=True, slots=True)
class Delta(Term):
    seq: EvSeq


# Sugar nodes Odot..Half; expand() rewrites them into core nodes.  HalfN
# and NFold, below them, are core nodes.


@dataclass(frozen=True, slots=True)
class Odot(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class Ominus(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class Dist(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class Join(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class Meet(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class Half(Term):
    arg: Term


@dataclass(frozen=True, slots=True)
class HalfN(Term):
    n: int
    arg: Term

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"halfn requires n >= 1, got {self.n}")


@dataclass(frozen=True, slots=True)
class NFold(Term):
    n: int
    arg: Term

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"nfold requires n >= 1, got {self.n}")


@dataclass(frozen=True, slots=True)
class Equation:
    lhs: Term
    relation: str  # "eq" or "leq"
    rhs: Term


_UNARY = {"neg": Neg, "half": Half}
_BINARY = {"oplus": Oplus, "odot": Odot, "ominus": Ominus, "dist": Dist, "join": Join, "meet": Meet}
_INT_FIRST = {"halfn": HalfN, "nfold": NFold}
RESERVED = frozenset(_UNARY) | frozenset(_BINARY) | frozenset(_INT_FIRST) | {"delta"}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<name>[a-z][a-z0-9_]*)
  | (?P<int>\d+)
  | (?P<leq><=)
  | (?P<punct>[(),;/=])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True, slots=True)
class _Tok:
    kind: str  # "name", "int", "punct" (single char), "leq", "eof"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind != "ws":
            tok_kind = "punct" if kind == "punct" else kind
            toks.append(_Tok(tok_kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    toks.append(_Tok("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Tok:
        tok = self.next()
        if tok.text != text:
            got = tok.text or "end of input"
            raise ParseError(f"expected {text!r}, got {got!r}", tok.line, tok.col)
        return tok

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    def parse_int(self) -> int:
        tok = self.next()
        if tok.kind != "int":
            raise ParseError(f"expected integer, got {tok.text!r}", tok.line, tok.col)
        return int(tok.text)

    def parse_rat(self, first: _Tok) -> Q01:
        num = int(first.text)
        den = 1
        if self.peek().text == "/":
            self.next()
            den_tok = self.next()
            if den_tok.kind != "int":
                raise ParseError("expected denominator", den_tok.line, den_tok.col)
            den = int(den_tok.text)
            if den == 0:
                raise ParseError("zero denominator", den_tok.line, den_tok.col)
        try:
            return Q01(num, den)
        except ValueError as exc:
            raise ParseError(str(exc), first.line, first.col) from None

    def parse_term(self) -> Term:
        tok = self.next()
        if tok.kind == "int":
            return Const(self.parse_rat(tok))
        if tok.kind != "name":
            got = tok.text or "end of input"
            raise ParseError(f"expected term, got {got!r}", tok.line, tok.col)
        name = tok.text
        if name not in RESERVED:
            return Var(name)
        self.expect("(")
        if name in _UNARY:
            arg = self.parse_term()
            self.expect(")")
            return _UNARY[name](arg)
        if name in _BINARY:
            left = self.parse_term()
            self.expect(",")
            right = self.parse_term()
            self.expect(")")
            return _BINARY[name](left, right)
        if name in _INT_FIRST:
            n_tok = self.peek()
            n = self.parse_int()
            self.expect(",")
            arg = self.parse_term()
            self.expect(")")
            try:
                return _INT_FIRST[name](n, arg)
            except ValueError as exc:
                raise ParseError(str(exc), n_tok.line, n_tok.col) from None
        # delta
        prefix = []
        if self.peek().text != ";":
            if self.peek().text == ")":
                raise ParseError(
                    "delta needs an argument list 'delta(p1, ..., pk; tail)'",
                    tok.line,
                    tok.col,
                )
            prefix.append(self.parse_term())
            while self.peek().text == ",":
                self.next()
                prefix.append(self.parse_term())
        self.expect(";")
        tail = self.parse_term()
        self.expect(")")
        return Delta(EvSeq(tuple(prefix), tail))

    def parse_relation(self) -> str:
        tok = self.next()
        if tok.text == "=":
            return "eq"
        if tok.text == "<=":
            return "leq"
        got = tok.text or "end of input"
        raise ParseError(f"expected '=' or '<=', got {got!r}", tok.line, tok.col)

    def expect_eof(self):
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)


def parse(text: str) -> Term:
    """Parse a term; raises ParseError with line/column on bad input."""
    parser = _Parser(text)
    term = parser.parse_term()
    parser.expect_eof()
    return term


def parse_equation(text: str) -> Equation:
    """Parse ``<term> = <term>`` or ``<term> <= <term>``."""
    parser = _Parser(text)
    lhs = parser.parse_term()
    relation = parser.parse_relation()
    rhs = parser.parse_term()
    parser.expect_eof()
    return Equation(lhs, relation, rhs)


def print_term(t: Term) -> str:
    """Canonical text form; parse(print_term(t)) == t."""
    match t:
        case Var(name):
            return name
        case Const(value):
            return str(value)
        case Neg(arg):
            return f"neg({print_term(arg)})"
        case Half(arg):
            return f"half({print_term(arg)})"
        case Oplus(l, r):
            return f"oplus({print_term(l)}, {print_term(r)})"
        case Odot(l, r):
            return f"odot({print_term(l)}, {print_term(r)})"
        case Ominus(l, r):
            return f"ominus({print_term(l)}, {print_term(r)})"
        case Dist(l, r):
            return f"dist({print_term(l)}, {print_term(r)})"
        case Join(l, r):
            return f"join({print_term(l)}, {print_term(r)})"
        case Meet(l, r):
            return f"meet({print_term(l)}, {print_term(r)})"
        case HalfN(n, arg):
            return f"halfn({n}, {print_term(arg)})"
        case NFold(n, arg):
            return f"nfold({n}, {print_term(arg)})"
        case Delta(EvSeq(prefix, tail)):
            args = ", ".join(print_term(p) for p in prefix)
            return f"delta({args}; {print_term(tail)})"
    raise TypeError(f"not a term: {t!r}")


def free_vars(t: Term) -> frozenset[str]:
    match t:
        case Var(name):
            return frozenset({name})
        case Const(_):
            return frozenset()
        case Neg(arg) | Half(arg) | HalfN(_, arg) | NFold(_, arg):
            return free_vars(arg)
        case Oplus(l, r) | Odot(l, r) | Ominus(l, r) | Dist(l, r) | Join(l, r) | Meet(l, r):
            return free_vars(l) | free_vars(r)
        case Delta(EvSeq(prefix, tail)):
            out = free_vars(tail)
            for p in prefix:
                out |= free_vars(p)
            return out
    raise TypeError(f"not a term: {t!r}")


def expand(t: Term) -> Term:
    """Rewrite sugar into the core nodes {Var, Const, Neg, Oplus, Delta, NFold, HalfN}.

    ``nfold`` and ``halfn`` keep their counts: unrolled they would be n
    nested connectives.
    """
    match t:
        case Var(_) | Const(_):
            return t
        case Neg(arg):
            return Neg(expand(arg))
        case Oplus(l, r):
            return Oplus(expand(l), expand(r))
        case Odot(l, r):
            return Neg(Oplus(Neg(expand(l)), Neg(expand(r))))
        case Ominus(l, r):
            # x ominus y = x odot neg(y) = neg(neg(x) oplus y)
            return Neg(Oplus(Neg(expand(l)), expand(r)))
        case Dist(l, r):
            return Oplus(expand(Ominus(l, r)), expand(Ominus(r, l)))
        case Join(l, r):
            le, re_ = expand(l), expand(r)
            return Oplus(Neg(Oplus(Neg(le), re_)), re_)
        case Meet(l, r):
            return Neg(expand(Join(Neg(l), Neg(r))))
        case Half(arg):
            return Delta(EvSeq((expand(arg),), Const(ZERO)))
        case HalfN(n, arg):
            return HalfN(n, expand(arg))
        case NFold(n, arg):
            return NFold(n, expand(arg))
        case Delta(EvSeq(prefix, tail)):
            return Delta(EvSeq(tuple(expand(p) for p in prefix), expand(tail)))
    raise TypeError(f"not a term: {t!r}")


def evaluate_core(t: Term, assignment, carrier):
    """Evaluate an already-expanded term over a carrier.

    The carrier must provide const/oplus/neg/nfold/halve_n and, for
    delta terms, an exact eventually-constant delta.
    """
    match t:
        case Var(name):
            try:
                return assignment[name]
            except KeyError:
                raise UnboundVariable(name) from None
        case Const(value):
            return carrier.const(value)
        case Neg(arg):
            return carrier.neg(evaluate_core(arg, assignment, carrier))
        case Oplus(l, r):
            return carrier.oplus(
                evaluate_core(l, assignment, carrier),
                evaluate_core(r, assignment, carrier),
            )
        case Delta(EvSeq(prefix, tail)):
            values = [evaluate_core(p, assignment, carrier) for p in prefix]
            return carrier.delta(values, evaluate_core(tail, assignment, carrier))
        case NFold(n, arg):
            return carrier.nfold(n, evaluate_core(arg, assignment, carrier))
        case HalfN(n, arg):
            return carrier.halve_n(n, evaluate_core(arg, assignment, carrier))
    raise TypeError(f"term not in core form: {t!r}")


def evaluate(t: Term, assignment, carrier):
    """Evaluate a term (sugar included) over a carrier under an assignment."""
    return evaluate_core(expand(t), assignment, carrier)
