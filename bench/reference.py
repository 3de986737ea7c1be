"""Independent reference semantics used to check every answer the benchmark gets.

Nothing here imports ``mvdelta``.  Terms are plain tuples, values are
``fractions.Fraction`` and every connective uses its textbook closed
form on the unit interval (``oplus = min(1, a + b)``, ``odot = max(0,
a + b - 1)``, ``delta(p1..pk; c) = sum p_i / 2^i + c / 2^k`` ...), not
the library's reduction to ``oplus``/``neg``.

Term tuples::

    ("var", name)   ("const", Fraction)   ("neg", t)   ("half", t)
    ("halfn", n, t)   ("nfold", n, t)   ("delta", (p1, ..., pk), c)
    (op, l, r) for op in BINARY
"""

from __future__ import annotations

import re
from fractions import Fraction

BINARY = ("oplus", "odot", "ominus", "dist", "join", "meet")
ONE = Fraction(1)
ZERO = Fraction(0)


class WrongAnswer(Exception):
    """The program returned an answer that contradicts the known one."""


# --- text ---------------------------------------------------------------------


def fmt(t) -> str:
    tag = t[0]
    if tag == "var":
        return t[1]
    if tag == "const":
        return str(t[1])
    if tag in ("neg", "half"):
        return f"{tag}({fmt(t[1])})"
    if tag in ("halfn", "nfold"):
        return f"{tag}({t[1]}, {fmt(t[2])})"
    if tag == "delta":
        return f"delta({', '.join(fmt(p) for p in t[1])}; {fmt(t[2])})"
    return f"{tag}({fmt(t[1])}, {fmt(t[2])})"


_TOKEN = re.compile(r"\s*(<=|[a-z][a-z0-9_]*|\d+(?:/\d+)?|[(),;=])")


def _tokens(text: str) -> list[str]:
    out, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"reference parser: bad character at {pos} in {text!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.i = 0

    def next(self) -> str:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, tok: str):
        got = self.next()
        if got != tok:
            raise ValueError(f"reference parser: expected {tok!r}, got {got!r}")

    def term(self):
        tok = self.next()
        if tok[0].isdigit():
            return ("const", Fraction(tok))
        if self.i < len(self.toks) and self.toks[self.i] == "(":
            self.i += 1
            if tok in ("neg", "half"):
                arg = self.term()
                self.expect(")")
                return (tok, arg)
            if tok in ("halfn", "nfold"):
                n = int(self.next())
                self.expect(",")
                arg = self.term()
                self.expect(")")
                return (tok, n, arg)
            if tok == "delta":
                prefix = []
                while self.toks[self.i] != ";":
                    prefix.append(self.term())
                    if self.toks[self.i] == ",":
                        self.i += 1
                self.expect(";")
                tail = self.term()
                self.expect(")")
                return ("delta", tuple(prefix), tail)
            if tok in BINARY:
                left = self.term()
                self.expect(",")
                right = self.term()
                self.expect(")")
                return (tok, left, right)
            raise ValueError(f"reference parser: unknown connective {tok!r}")
        return ("var", tok)


def parse(text: str):
    p = _Parser(text)
    t = p.term()
    if p.i != len(p.toks):
        raise ValueError(f"reference parser: trailing input in {text!r}")
    return t


def parse_equation(text: str):
    """Returns (lhs, rhs, relation) with relation "eq" or "leq"."""
    p = _Parser(text)
    lhs = p.term()
    rel = p.next()
    rhs = p.term()
    if p.i != len(p.toks) or rel not in ("=", "<="):
        raise ValueError(f"reference parser: not an equation: {text!r}")
    return lhs, rhs, "eq" if rel == "=" else "leq"


def variables(t) -> set[str]:
    tag = t[0]
    if tag == "var":
        return {t[1]}
    if tag == "const":
        return set()
    if tag in ("neg", "half"):
        return variables(t[1])
    if tag in ("halfn", "nfold"):
        return variables(t[2])
    if tag == "delta":
        out = variables(t[2])
        for p in t[1]:
            out |= variables(p)
        return out
    return variables(t[1]) | variables(t[2])


# --- unit-interval semantics --------------------------------------------------


def _binary(op: str, a: Fraction, b: Fraction) -> Fraction:
    if op == "oplus":
        return min(ONE, a + b)
    if op == "odot":
        return max(ZERO, a + b - 1)
    if op == "ominus":
        return max(ZERO, a - b)
    if op == "dist":
        return abs(a - b)
    if op == "join":
        return max(a, b)
    if op == "meet":
        return min(a, b)
    raise ValueError(op)


def value(t, env: dict) -> Fraction:
    """Exact value of a term on [0, 1] under an assignment of Fractions."""
    tag = t[0]
    if tag == "var":
        return Fraction(env[t[1]])
    if tag == "const":
        return t[1]
    if tag == "neg":
        return 1 - value(t[1], env)
    if tag == "half":
        return value(t[1], env) / 2
    if tag == "halfn":
        return value(t[2], env) / 2 ** t[1]
    if tag == "nfold":
        return min(ONE, t[1] * value(t[2], env))
    if tag == "delta":
        prefix = t[1]
        total = sum((value(p, env) / 2 ** (i + 1) for i, p in enumerate(prefix)), ZERO)
        return total + value(t[2], env) / 2 ** len(prefix)
    return _binary(tag, value(t[1], env), value(t[2], env))


def holds(lhs_value: Fraction, rhs_value: Fraction, relation: str) -> bool:
    return lhs_value == rhs_value if relation == "eq" else lhs_value <= rhs_value


def replay(lhs, rhs, relation: str, assignment: dict, lhs_value, rhs_value):
    """Checks a counterexample exactly; raises WrongAnswer if it does not replay."""
    need = variables(lhs) | variables(rhs)
    if set(assignment) != need:
        raise WrongAnswer(f"witness binds {sorted(assignment)}, equation needs {sorted(need)}")
    env = {k: Fraction(v) for k, v in assignment.items()}
    if any(not 0 <= v <= 1 for v in env.values()):
        raise WrongAnswer(f"witness leaves [0, 1]: {env}")
    lv, rv = value(lhs, env), value(rhs, env)
    if (lv, rv) != (Fraction(lhs_value), Fraction(rhs_value)):
        raise WrongAnswer(f"witness reports lhs={lhs_value}, rhs={rhs_value}; replay gives {lv}, {rv}")
    if holds(lv, rv, relation):
        raise WrongAnswer(f"witness does not violate the {relation} relation: {lv} vs {rv}")


# --- Chang's algebra: the unit interval of Z x_lex Z with unit (1, 0) --------

CHANG_ONE = (1, 0)


def _chang_clip(x: tuple) -> tuple:
    if x < (0, 0):
        return (0, 0)
    if x > CHANG_ONE:
        return CHANG_ONE
    return x


def chang_value(t, env: dict) -> tuple:
    tag = t[0]
    if tag == "var":
        return env[t[1]]
    if tag == "const":
        if t[1] not in (0, 1):
            raise ValueError("Chang's algebra has only the constants 0 and 1")
        return (int(t[1]), 0)
    if tag == "neg":
        a = chang_value(t[1], env)
        return (1 - a[0], -a[1])
    if tag == "nfold":
        a = chang_value(t[2], env)
        return _chang_clip((t[1] * a[0], t[1] * a[1]))
    if tag not in BINARY:
        raise ValueError(f"Chang's algebra has no {tag}")
    a, b = chang_value(t[1], env), chang_value(t[2], env)
    add = (a[0] + b[0], a[1] + b[1])
    sub = (a[0] - b[0], a[1] - b[1])
    if tag == "oplus":
        return _chang_clip(add)
    if tag == "odot":
        return _chang_clip((add[0] - 1, add[1]))
    if tag == "ominus":
        return _chang_clip(sub)
    if tag == "dist":
        return max(sub, (-sub[0], -sub[1]))
    return max(a, b) if tag == "join" else min(a, b)


# --- piecewise-linear functions as breakpoint lists --------------------------


def pl_at(points, x: Fraction) -> Fraction:
    """Value at x of the PL function through the (x, y) breakpoints."""
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x0 <= x <= x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    raise ValueError(f"{x} outside the breakpoints")


def pl_from_json(data) -> list[tuple[Fraction, Fraction]]:
    return [(Fraction(a), Fraction(b)) for a, b in data]


def pl_sup_dist(f, g) -> Fraction:
    """Exact sup |f - g|: f - g is affine between the merged breakpoints."""
    xs = sorted({x for x, _ in f} | {x for x, _ in g})
    return max(abs(pl_at(f, x) - pl_at(g, x)) for x in xs)


def check_pl_term(t, env: dict, out_points):
    """Checks a PL result against the term's pointwise value at every
    breakpoint of the result and of the inputs, and at each midpoint."""
    xs = {x for x, _ in out_points}
    for f in env.values():
        xs |= {x for x, _ in f}
    xs = sorted(xs)
    xs += [(a + b) / 2 for a, b in zip(xs, xs[1:])]
    for x in xs:
        want = value(t, {k: pl_at(f, x) for k, f in env.items()})
        got = pl_at(out_points, x)
        if got != want:
            raise WrongAnswer(f"PL result is {got} at x={x}, the term gives {want}")
