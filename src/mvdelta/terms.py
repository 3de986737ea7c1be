"""Term language for MV/delta expressions: AST, parser, printer, compiler, evaluator.

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
    rat      := int | int "/" int          (one token; must lie in [0, 1])
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

``compile_core`` turns expanded terms into one hash-consed program in
left-to-right post-order, and ``run`` evaluates it over any carrier.
This is the one module that knows the shapes of the core nodes and the
instruction format: the evaluator, the decider's piece compiler and its
sampler all run through ``run`` (the last two as carriers of their
own), so a shared subterm is computed once, and ``program_vars`` is the
one reader of a program's variables.  Nothing recurses, the parser
included, so terms of any depth are accepted.

Equations for the decision engine are written ``<term> = <term>`` or
``<term> <= <term>``.
"""

from __future__ import annotations

import math
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
    "compile_core",
    "program_vars",
    "program_scale",
    "run",
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


_BINARY = {"oplus": Oplus, "odot": Odot, "ominus": Ominus, "dist": Dist, "join": Join, "meet": Meet}
_INT_FIRST = {"halfn": HalfN, "nfold": NFold}
_APPLY = {"neg": Neg, "half": Half, **_BINARY, **_INT_FIRST}
_NAME = {cls: name for name, cls in _APPLY.items()}
RESERVED = frozenset(_APPLY) | {"delta"}
_RELATION = {"=": "eq", "<=": "leq"}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<name>[a-z][a-z0-9_]*)
  | (?P<num>[0-9]+(?:/[0-9]+)?)
  | (?P<punct><=|[(),;=])
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


class _Parser:
    """The grammar above, read with the open applications on an explicit
    stack, so a term of any depth parses without recursion."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        # Tokens are (kind, text, offset): kind is "name", "num" (a digit
        # run, or a rational p/q), "punct" or, last, "eof".
        self.toks = []
        for m in _TOKEN_RE.finditer(text):
            if m.lastgroup == "bad":
                raise self.error(f"unexpected character {m.group()!r}", m.start())
            if m.lastgroup != "ws":
                self.toks.append((m.lastgroup, m.group(), m.start()))
        self.toks.append(("eof", "", len(text)))

    def error(self, message: str, offset: int) -> ParseError:
        """A ParseError at an offset; only here are lines and columns counted."""
        line = self.text.count("\n", 0, offset) + 1
        return ParseError(message, line, offset - self.text.rfind("\n", 0, offset))

    def peek(self) -> str:
        return self.toks[self.pos][1]

    def next(self) -> tuple[str, str, int]:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str):
        _, got, at = self.next()
        if got != text:
            raise self.error(f"expected {text!r}, got {got or 'end of input'!r}", at)

    def parse_term(self) -> Term:
        # Each open application is [name, offset of its name or count,
        # arguments so far, whether a delta's tail has started].
        open_ = []
        while True:
            kind, name, at = self.next()
            if kind == "num":
                num, _, den = name.partition("/")
                if den and not int(den):
                    raise self.error("zero denominator", at + len(num) + 1)
                try:
                    term = Const(Q01(int(num), int(den or 1)))
                except ValueError as exc:
                    raise self.error(str(exc), at) from None
            elif kind != "name":
                raise self.error(f"expected term, got {name or 'end of input'!r}", at)
            elif name not in RESERVED:
                term = Var(name)
            else:
                self.expect("(")
                frame = [name, at, [], False]
                if name in _INT_FIRST:
                    kind, count, frame[1] = self.next()
                    if kind != "num" or "/" in count:
                        raise self.error(f"expected integer, got {count!r}", frame[1])
                    frame[2].append(int(count))
                    self.expect(",")
                elif name == "delta" and self.peek() == ")":
                    raise self.error("delta needs an argument list 'delta(p1, ..., pk; tail)'", at)
                elif name == "delta" and self.peek() == ";":
                    self.next()
                    frame[3] = True
                open_.append(frame)
                continue
            while open_:
                frame = open_[-1]
                name, at, args, tail = frame
                args.append(term)
                if name == "delta" and not tail:
                    if self.peek() == ",":
                        self.next()
                    else:
                        self.expect(";")
                        frame[3] = True
                    break
                if name in _BINARY and len(args) == 1:
                    self.expect(",")
                    break
                self.expect(")")
                open_.pop()
                try:
                    if name == "delta":
                        term = Delta(EvSeq(tuple(args[:-1]), args[-1]))
                    else:
                        term = _APPLY[name](*args)
                except ValueError as exc:  # a count below 1
                    raise self.error(str(exc), at) from None
            else:
                return term

    def parse_relation(self) -> str:
        _, got, at = self.next()
        if got not in _RELATION:
            raise self.error(f"expected '=' or '<=', got {got or 'end of input'!r}", at)
        return _RELATION[got]

    def expect_eof(self):
        kind, got, at = self.next()
        if kind != "eof":
            raise self.error(f"trailing input {got!r}", at)


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


def _children(t: Term) -> tuple[Term, ...]:
    match t:
        case Var(_) | Const(_):
            return ()
        case Neg(arg) | Half(arg) | HalfN(_, arg) | NFold(_, arg):
            return (arg,)
        case Oplus(l, r) | Odot(l, r) | Ominus(l, r) | Dist(l, r) | Join(l, r) | Meet(l, r):
            return (l, r)
        case Delta(EvSeq(prefix, tail)):
            return (*prefix, tail)
    raise TypeError(f"not a term: {t!r}")


def _postorder(roots, visit) -> list:
    """Call ``visit(node, results of its children)`` once per distinct node
    object, children first and left to right, and return the results of
    the roots.  Iterative, so deep terms need no recursion; nodes are
    keyed by identity, which the roots keep alive."""
    done: dict[int, object] = {}
    for root in roots:
        stack = [(root, None)]
        while stack:
            node, kids = stack.pop()
            if kids is not None:
                done[id(node)] = visit(node, [done[id(k)] for k in kids])
            elif id(node) not in done:
                kids = _children(node)
                stack.append((node, kids))
                stack.extend((k, None) for k in reversed(kids))
    return [done[id(root)] for root in roots]


def print_term(t: Term) -> str:
    """Canonical text form; parse(print_term(t)) == t.

    Written left to right from an explicit stack of nodes and literal
    text, so the time is linear in the length of the output at any depth.
    """
    out, todo = [], [t]
    while todo:
        match item := todo.pop():
            case str():
                out.append(item)
                continue
            case Var(name):
                pieces = [name]
            case Const(value):
                pieces = [str(value)]
            case HalfN(n, arg) | NFold(n, arg):
                pieces = [f"{_NAME[type(item)]}({n}, ", arg, ")"]
            case Delta(EvSeq(prefix, tail)):
                pieces = ["delta(", *_commas(prefix), "; ", tail, ")"]
            case _:
                pieces = [f"{_NAME[type(item)]}(", *_commas(_children(item)), ")"]
        todo += reversed(pieces)
    return "".join(out)


def _commas(terms) -> list:
    """The terms with ", " between them."""
    return [piece for t in terms for piece in (", ", t)][1:]


def free_vars(t: Term) -> frozenset[str]:
    code, _, _ = compile_core((expand(t),))
    return frozenset(program_vars(code))


# Each sugar node as core nodes over its expanded arguments.
_SUGAR = {
    Odot: lambda l, r: Neg(Oplus(Neg(l), Neg(r))),
    Ominus: lambda l, r: Neg(Oplus(Neg(l), r)),  # x odot neg(y)
    Dist: lambda l, r: Oplus(_SUGAR[Ominus](l, r), _SUGAR[Ominus](r, l)),
    Join: lambda l, r: Oplus(Neg(Oplus(Neg(l), r)), r),
    Meet: lambda l, r: Neg(_SUGAR[Join](Neg(l), Neg(r))),
    Half: lambda arg: Delta(EvSeq((arg,), Const(ZERO))),
}


def _expand_node(t: Term, kids: list[Term]) -> Term:
    match t:
        case Var(_) | Const(_):
            return t
        case Neg(_) | Oplus(_, _):
            return type(t)(*kids)
        case HalfN(n, _) | NFold(n, _):
            return type(t)(n, *kids)
        case Delta(_):
            return Delta(EvSeq(tuple(kids[:-1]), kids[-1]))
    return _SUGAR[type(t)](*kids)


def expand(t: Term) -> Term:
    """Rewrite sugar into the core nodes {Var, Const, Neg, Oplus, Delta, NFold, HalfN}.

    ``nfold`` and ``halfn`` keep their counts: unrolled they would be n
    nested connectives.  Iterative, like everything that reads terms.
    """
    return _postorder((t,), _expand_node)[0]


# Opcodes of a compiled core program.
VAR, CONST, NEG, OPLUS, DELTA, NFOLD, HALFN = range(7)


def compile_core(roots):
    """One hash-consed program for expanded terms, in left-to-right post-order.

    Instruction ``i`` is ``(opcode, a, b)`` and computes slot ``i`` from
    earlier slots:

    - ``(VAR, name, None)`` and ``(CONST, value, None)`` are the leaves;
    - ``(NEG, s, None)`` and ``(OPLUS, s, t)`` apply a connective;
    - ``(NFOLD, n, s)`` and ``(HALFN, n, s)`` are the counted nodes;
    - ``(DELTA, ((s_1, 1), ..., (s_k, k), (t, k)), None)`` pairs each
      prefix slot with its halving count, the tail last.

    Equal instructions share one slot, so a shared subterm is computed
    once, and slots follow the order of a recursive evaluation, so a run
    meets the carrier's errors in the same order.  Returns the
    instructions, the slot of each root, and the halving depth: the most
    halvings on a path from a root down to a leaf, which bounds how far
    any value may be shifted.
    """
    code: list[tuple] = []
    halvings: list[int] = []
    slot_of: dict[tuple, int] = {}

    def emit(node: Term, slots: list[int]) -> int:
        match node:
            case Var(name):
                key, depth = (VAR, name, None), 0
            case Const(value):
                key, depth = (CONST, value, None), 0
            case Neg(_):
                key, depth = (NEG, slots[0], None), halvings[slots[0]]
            case Oplus(_, _):
                key = (OPLUS, slots[0], slots[1])
                depth = max(halvings[slots[0]], halvings[slots[1]])
            case NFold(n, _):
                key, depth = (NFOLD, n, slots[0]), halvings[slots[0]]
            case HalfN(n, _):
                key, depth = (HALFN, n, slots[0]), halvings[slots[0]] + n
            case Delta(EvSeq(prefix, _)):
                shifts = [*range(1, len(prefix) + 1), len(prefix)]
                key = (DELTA, tuple(zip(slots, shifts)), None)
                depth = max(halvings[s] + i for s, i in zip(slots, shifts))
            case _:
                raise TypeError(f"term not in core form (call expand first): {node!r}")
        slot = slot_of.get(key)
        if slot is None:
            slot = slot_of[key] = len(code)
            code.append(key)
            halvings.append(depth)
        return slot

    root_slots = _postorder(roots, emit)
    return code, root_slots, max(halvings[s] for s in root_slots)


def program_vars(code) -> list[str]:
    """The sorted variable names of a ``compile_core`` program."""
    return sorted(name for op, name, _ in code if op == VAR)


def program_scale(code, halving_depth: int) -> int:
    """The lcm of a program's constant denominators, shifted left by its
    halving depth: scaled by it, constants are integers and each halving
    is a right shift that drops only zero bits."""
    denominators = [value.denominator for op, value, _ in code if op == CONST]
    return math.lcm(1, *denominators) << halving_depth


def run(code, assignment, carrier) -> list:
    """The value of every slot of a ``compile_core`` program, in order.

    One carrier call per instruction, none for a variable.  The carrier
    must provide const/oplus/neg/nfold/halve_n and, for delta terms, an
    exact eventually-constant delta.
    """
    vals: list = []
    for op, a, b in code:
        if op == OPLUS:
            vals.append(carrier.oplus(vals[a], vals[b]))
        elif op == NEG:
            vals.append(carrier.neg(vals[a]))
        elif op == VAR:
            try:
                vals.append(assignment[a])
            except KeyError:
                raise UnboundVariable(a) from None
        elif op == CONST:
            vals.append(carrier.const(a))
        elif op == DELTA:
            *prefix, tail = (vals[s] for s, _ in a)
            vals.append(carrier.delta(prefix, tail))
        elif op == NFOLD:
            vals.append(carrier.nfold(a, vals[b]))
        else:  # HALFN
            vals.append(carrier.halve_n(a, vals[b]))
    return vals


def evaluate_core(t: Term, assignment, carrier):
    """Evaluate an already-expanded term over a carrier: ``run`` on its program."""
    code, (slot,), _ = compile_core((t,))
    return run(code, assignment, carrier)[slot]


def evaluate(t: Term, assignment, carrier):
    """Evaluate a term (sugar included) over a carrier under an assignment."""
    return evaluate_core(expand(t), assignment, carrier)
