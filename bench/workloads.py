"""Seeded operation lists for the three workloads, how to run each
operation, and how to check its answer.

The seed chooses *which* inputs a workload gets; the size profile (how
many operations of each kind, term sizes, algebra sizes) is fixed, so
every seed costs about the same.  Every expected answer comes from how
the input was built or from :mod:`reference`, never from ``mvdelta``.

An operation ends in one of three ways:

* answered: the program gave the known answer (or, for sampling, an
  answer the known one allows);
* failed: an exception escaped the public entry point, the decider
  returned ``LimitExceeded``, or the CLI exited 2 or 3 where an answer
  was expected;
* wrong: :class:`reference.WrongAnswer` is raised and the run aborts.
"""

from __future__ import annotations

import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

import reference as ref
from reference import WrongAnswer, fmt

from mvdelta import carriers, cli, corpus, decide, goodseq, spectrum, terms

WORKLOADS = ("decide", "cli-session", "finite-spectra")

#: Inputs that fail at the seed commit; each is kept on purpose so that a
#: fix shows up as a lower failure count.  Name -> cause.
KNOWN_FAILURES = {
    "decide:join_assoc_d3": "LimitExceeded: 1048576 piece pairs exceed the 65536 budget",
    "cli:robust:nfold3000": "RecursionError in the recursive evaluate_core",
    "cli:robust:neg1200": "RecursionError in the recursive-descent parser",
    "cli:robust:halfn100000": "RecursionError in the recursive evaluate_core",
}


@dataclass(frozen=True)
class Op:
    name: str
    kind: str
    args: tuple
    expect: object = None
    #: Where the CLI may exit 2 or 3 without that counting as a failure.
    limit_ok: bool = False
    files: tuple = field(default=(), compare=False)


# --- term generation ------------------------------------------------------------

_ARITH = ("oplus", "odot", "ominus")


def _var(name):
    return ("var", name)


def _const(q):
    return ("const", Fraction(q))


def random_term(rng, nbin: int, nun: int, names, ops=ref.BINARY, unary=("neg",), leaf_const=()):
    """A random term with exactly ``nbin`` binary and ``nun`` unary connectives."""
    wrapped = set(rng.sample(range(2 * nbin + 1), nun))
    counter = iter(range(2 * nbin + 1))

    def build(nbin):
        index = next(counter)
        if nbin == 0:
            if leaf_const and rng.random() < 0.2:
                t = _const(rng.choice(leaf_const))
            else:
                t = _var(rng.choice(names))
        else:
            left = rng.randint(0, nbin - 1)
            op = rng.choice(ops)
            t = (op, build(left), build(nbin - 1 - left))
        if index in wrapped:
            u = rng.choice(unary)
            if u in ("halfn", "nfold"):
                t = (u, rng.randint(2, 3), t)
            elif u == "delta":
                t = ("delta", (t,), _var(rng.choice(names)))
            else:
                t = (u, t)
        return t

    return build(nbin)


def _subterm_paths(t, path=()):
    yield path
    tag = t[0]
    if tag in ("neg", "half"):
        yield from _subterm_paths(t[1], path + (1,))
    elif tag in ("halfn", "nfold"):
        yield from _subterm_paths(t[2], path + (2,))
    elif tag == "delta":
        for i, p in enumerate(t[1]):
            yield from _subterm_paths(p, path + ((1, i),))
        yield from _subterm_paths(t[2], path + (2,))
    elif tag in ref.BINARY:
        yield from _subterm_paths(t[1], path + (1,))
        yield from _subterm_paths(t[2], path + (2,))


def _get(t, path):
    for p in path:
        t = t[1][p[1]] if isinstance(p, tuple) else t[p]
    return t


def _put(t, path, new):
    if not path:
        return new
    p = path[0]
    if isinstance(p, tuple):
        prefix = list(t[1])
        prefix[p[1]] = _put(prefix[p[1]], path[1:], new)
        return (t[0], tuple(prefix), t[2])
    parts = list(t)
    parts[p] = _put(t[p], path[1:], new)
    return tuple(parts)


_DUAL = {"oplus": "odot", "odot": "oplus", "join": "meet", "meet": "join"}


def _rewrites(s):
    """Equivalence-preserving rewrites of one subterm (textbook MV identities)."""
    tag = s[0]
    out = [("neg", ("neg", s))]
    if tag == "var":
        out.append(("delta", (s,), s))
    if tag in ("oplus", "odot", "join", "meet", "dist"):
        out.append((tag, s[2], s[1]))
    if tag in _DUAL:
        out.append(("neg", (_DUAL[tag], ("neg", s[1]), ("neg", s[2]))))
    if tag == "ominus":
        out.append(("odot", s[1], ("neg", s[2])))
    if tag == "half":
        out.append(("delta", (s[1],), _const(0)))
    return out


def rewrite(rng, t, steps: int):
    """Applies ``steps`` seeded equivalence-preserving rewrites, so that
    ``t = rewrite(t)`` is Valid by construction."""
    for _ in range(steps):
        path = rng.choice(list(_subterm_paths(t)))
        t = _put(t, path, rng.choice(_rewrites(_get(t, path))))
    return t


def _left_chain(op, parts):
    """Left-nested op-chain over parts."""
    out = parts[0]
    for p in parts[1:]:
        out = (op, out, p)
    return out


def _right_chain(op, parts):
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = (op, p, out)
    return out


def _cell_bounds(rng):
    """Rationals a < b strictly inside one open depth-8 dyadic cell
    (k/256, (k+1)/256), so no depth-8 sample point lies in (a, b)."""
    k = rng.randrange(256)
    m = rng.choice((3, 5, 6, 7, 9, 10, 11, 13))
    i = rng.randint(1, m - 2)
    return Fraction(k * m + i, 256 * m), Fraction(k * m + i + 1, 256 * m)


def _cell_term(var, a, b):
    return ("meet", ("ominus", _var(var), _const(a)), ("ominus", _const(b), _var(var)))


def _eq_text(lhs, rhs, relation):
    return f"{fmt(lhs)} {'=' if relation == 'eq' else '<='} {fmt(rhs)}"


def _law_text(law) -> str:
    rel = "=" if law.relation == "eq" else "<="
    return f"{terms.print_term(law.lhs)} {rel} {terms.print_term(law.rhs)}"


def valid_rewrites(rng, count: int):
    out = []
    for _ in range(count):
        # Arithmetic connectives only: join/meet duplicate a subterm when
        # expanded, which makes the piece count swing widely between seeds.
        t = random_term(rng, 2, 1, rng.sample(("x", "y", "z"), rng.randint(2, 3)), _ARITH, ("neg", "half"))
        out.append(_eq_text(t, rewrite(rng, t, 3), "eq"))
    return out


def broken_assoc(rng, k: int) -> str:
    """A left-nested oplus-chain below a right-nested odot-chain, over seeded
    orders of the variables: refuted by x_i = 1/2."""
    names = [f"x{i}" for i in range(1, k + 1)]
    lhs = _left_chain("oplus", [_var(v) for v in rng.sample(names, k)])
    rhs = _right_chain("odot", [_var(v) for v in rng.sample(names, k)])
    return _eq_text(lhs, rhs, "leq")


def hidden_cell(rng, two_vars: bool) -> str:
    t = _cell_term("x", *_cell_bounds(rng))
    if two_vars:
        t = ("meet", t, _var("y"))
    return _eq_text(t, _const(0), "eq")


# --- the fixed scaling families of the decide workload ------------------------


def scaling_families() -> list[tuple[str, str]]:
    """Unseeded sizes; each stops where the seed commit takes about 3 s."""
    out = []
    for k in range(2, 7):
        xs = [_var(f"x{i}") for i in range(1, k + 1)]
        out.append((f"oplus_assoc_k{k}", _eq_text(_left_chain("oplus", xs), _right_chain("oplus", xs), "eq")))
    for n in range(2, 8):
        out.append((f"nfold_half_n{n}", f"nfold({n}, half(x)) <= nfold({n}, x)"))
    for d in (2, 3):
        xs = [_var(f"x{i}") for i in range(1, d + 2)]
        out.append((f"join_assoc_d{d}", _eq_text(_left_chain("join", xs), _right_chain("join", xs), "eq")))
    for d in (1, 2):
        xs = [_var(f"x{i}") for i in range(1, d + 2)]
        out.append((f"dist_nest_d{d}", _eq_text(_left_chain("dist", xs), _left_chain("oplus", xs), "leq")))
    return out


def decide_ops(seed: int) -> list[Op]:
    rng = random.Random(f"decide:{seed}")
    ops = [Op(f"decide:corpus:{law.name}", "decide", (_law_text(law),), "valid")
           for law in corpus.decision_corpus()]
    ops += [Op(f"decide:non_theorem:{law.name}", "decide", (_law_text(law),), "refutable")
            for law in corpus.non_theorems()]
    ops += [Op(f"decide:rewrite{i}", "decide", (text,), "valid")
            for i, text in enumerate(valid_rewrites(rng, 16))]
    ops += [Op(f"decide:broken_assoc_k{k}", "decide", (broken_assoc(rng, k),), "refutable")
            for k in range(3, 8)]
    ops += [Op(f"decide:hidden_cell{i}", "decide", (hidden_cell(rng, i >= 4),), "refutable")
            for i in range(6)]
    ops += [Op(f"decide:{name}", "decide", (text,), "valid") for name, text in scaling_families()]
    rng.shuffle(ops)
    return ops


# --- cli-session ----------------------------------------------------------------


def _rand_q(rng, max_den=12) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(0, den), den)


def _dyadic_pl(rng, interior=3, depth=4, exact=False):
    grid = 2**depth
    xs = sorted(rng.sample(range(1, grid), interior if exact else rng.randint(1, interior)))
    xs = [0] + xs + [grid]
    return [(Fraction(x, grid), Fraction(rng.randint(0, grid), grid)) for x in xs]


def _pl_json(points) -> str:
    return json.dumps([[str(x), str(y)] for x, y in points], separators=(",", ":"))


def _eval_op(name, text, spec, assign_text, expect) -> Op:
    return Op(name, "cli", ("eval", text, "--carrier", spec, "--assign", assign_text), expect)


def _eval_ops(rng) -> list[Op]:
    ops = []
    names = ("x", "y", "z")
    for i in range(22):
        t = random_term(rng, 5, 2, names, unary=("neg", "half", "halfn", "nfold", "delta"),
                        leaf_const=(Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)))
        env = {v: _rand_q(rng) for v in sorted(ref.variables(t))}
        assign = ",".join(f"{v}={q}" for v, q in env.items())
        ops.append(_eval_op(f"cli:eval:q01:{i}", fmt(t), "q01", assign, ("q01", t, env)))
    for i in range(14):
        n = rng.randint(2, 12)
        t = random_term(rng, 5, 2, names, unary=("neg", "nfold"), leaf_const=(0, 1))
        env = {v: Fraction(rng.randint(0, n), n) for v in sorted(ref.variables(t))}
        assign = ",".join(f"{v}={q}" for v, q in env.items())
        ops.append(_eval_op(f"cli:eval:chain:{i}", fmt(t), f"chain:{n}", assign, ("q01", t, env)))
    for i in range(14):
        ns = [rng.randint(1, 6) for _ in range(rng.randint(2, 3))]
        t = random_term(rng, 5, 2, names, unary=("neg", "nfold"), leaf_const=(0, 1))
        envs = [{v: Fraction(rng.randint(0, n), n) for v in sorted(ref.variables(t))} for n in ns]
        assign = ",".join(
            f"{v}=({', '.join(str(e[v]) for e in envs)})" for v in sorted(ref.variables(t))
        )
        spec = "prod(" + ",".join(f"chain:{n}" for n in ns) + ")"
        ops.append(_eval_op(f"cli:eval:prod:{i}", fmt(t), spec, assign, ("prod", t, envs)))
    for i in range(12):
        t = random_term(rng, 5, 2, names, unary=("neg", "nfold"), leaf_const=(0, 1))
        env = {}
        for v in sorted(ref.variables(t)):
            k = rng.randint(0, 9)
            env[v] = (0, k) if rng.random() < 0.5 else (1, -k)
        assign = ",".join(f"{v}=({a},{b})" for v, (a, b) in env.items())
        ops.append(_eval_op(f"cli:eval:chang:{i}", fmt(t), "chang", assign, ("chang", t, env)))
    for i in range(14):
        t = random_term(rng, 2, 1, ("x", "y"), unary=("neg", "half", "delta"),
                        leaf_const=(Fraction(1, 2), Fraction(1, 3)))
        env = {v: _dyadic_pl(rng) for v in sorted(ref.variables(t))}
        assign = ",".join(f"{v}={_pl_json(p)}" for v, p in env.items())
        ops.append(_eval_op(f"cli:eval:pl:{i}", fmt(t), "pl", assign, ("pl", t, env)))
    return ops


def _spec(ns) -> str:
    if len(ns) == 1:
        return f"chain:{ns[0]}"
    return "prod(" + ",".join(f"chain:{n}" for n in ns) + ")"


def _interval(rng) -> tuple[Fraction, Fraction]:
    a, b = sorted(rng.sample(range(1, 60), 2))
    return Fraction(a, 61), Fraction(b, 61)


def check_families(rng) -> list[tuple[str, str, str]]:
    """Fixed-shape equations for ``mvdelta check`` with seeded constants:
    (name, equation, label).  The shape fixes the cost of the sampling
    prepass and of the decider; the labels hold for every a < b in [0, 1]."""
    a, b = _interval(rng)
    return [
        ("window", f"meet(ominus(x, {a}), ominus({b}, x)) <= ominus({b}, {a})", "valid"),
        ("monus_sum", f"oplus(ominus(x, {a}), {a}) = join(x, {a})", "valid"),
        ("monus_join", f"ominus(join(x, y), {b}) = join(ominus(x, {b}), ominus(y, {b}))", "valid"),
        ("hidden_cell", hidden_cell(rng, False), "refutable"),
        ("hidden_cell", hidden_cell(rng, False), "refutable"),
        ("broken_assoc", broken_assoc(rng, 3), "refutable"),
    ]


def _sample_families(rng) -> list[tuple[str, str, str]]:
    valid = check_families(rng)[:2]
    return valid + [("hidden_cell", hidden_cell(rng, False), "refutable"),
                    ("broken_assoc", broken_assoc(rng, 4), "refutable")]


def cli_ops(seed: int) -> list[Op]:
    rng = random.Random(f"cli-session:{seed}")
    ops = []
    for i, (name, text, label) in enumerate(check_families(rng)):
        ops.append(Op(f"cli:check:{name}{i}", "cli", ("check", text), ("check", label)))
    for i, (name, text, label) in enumerate(_sample_families(rng)):
        argv = ("check", text, "--sample-only", "--trials", "200", "--seed", str(rng.randrange(10**6)))
        ops.append(Op(f"cli:check_sample:{name}{i}", "cli", argv, ("check", label)))
    ops += _eval_ops(rng)
    for carrier, trials in (("q01", "4"), ("pl", "1")):
        argv = ("axioms", "--carrier", carrier, "--trials", trials, "--seed", str(rng.randrange(10**6)))
        ops.append(Op(f"cli:axioms:{carrier}", "cli", argv, ("axioms",)))
    for i, (count, parts) in enumerate(((12, 2), (18, 2), (24, 3), (30, 3))):
        ns = _factorisation(rng, count, parts)
        argv = ("spectrum", "--algebra", _spec(ns)) + (("--json",) if i % 2 == 0 else ())
        ops.append(Op(f"cli:spectrum:{i}", "cli", argv, ("spectrum", ns, i % 2 == 0)))
    ops.append(Op("cli:spectrum:chang", "cli", ("spectrum", "--algebra", "chang"), ("spectrum_chang",)))
    for i, (count, parts) in enumerate(((8, 1), (12, 2), (18, 2), (24, 3))):
        ns = _factorisation(rng, count, parts)
        argv = ("radical", "--carrier", _spec(ns))
        if i:
            argv += ("--element", _fmt_finite(ns, tuple(rng.randint(0, n) for n in ns)))
        ops.append(Op(f"cli:radical:{i}", "cli", argv, ("radical", ns, bool(i))))
    for i in range(2):
        k = rng.randint(0, 9)
        elem = (0, k) if i == 0 else (1, -k)
        ops.append(Op(f"cli:radical:chang{i}", "cli",
                      ("radical", "--carrier", "chang", "--element", f"({elem[0]},{elem[1]})"),
                      ("radical_chang", elem)))
    for n in range(2, 6):
        bound = rng.randint(2, 4)
        ops.append(Op(f"cli:gammaxi:{n}", "cli", ("gammaxi", "--chain", str(n), "--bound", str(bound)),
                      ("gammaxi", n, bound)))
    for depth in range(5, 9):
        target = _dyadic_pl(rng, interior=3, depth=5, exact=True)
        tfile, ofile = f"isbell{depth}_target.json", f"isbell{depth}_out.json"
        argv = ("isbell", "--target", "{tmp}/" + tfile, "--depth", str(depth), "--out", "{tmp}/" + ofile)
        ops.append(Op(f"cli:isbell:{depth}", "cli", argv, ("isbell", target, depth, ofile),
                      files=((tfile, _pl_json(target)),)))
    ops += robustness_ops(rng)
    rng.shuffle(ops)
    return ops


def robustness_ops(rng) -> list[Op]:
    """Oversize inputs: the answer is a value or a clean exit 2/3."""
    x = _rand_q(rng)
    nested = "x"
    for _ in range(1200):
        nested = f"neg({nested})"
    cases = [
        ("nfold3000", "nfold(3000, x)", min(Fraction(1), 3000 * x)),
        ("neg1200", nested, x),
        ("halfn100000", "halfn(100000, x)", x / 2**100000),
    ]
    return [
        Op(f"cli:robust:{name}", "cli", ("eval", text, "--carrier", "q01", "--assign", f"x={x}"),
           ("value", want), limit_ok=True)
        for name, text, want in cases
    ]


# --- finite-spectra -------------------------------------------------------------


def _factorisations(count: int, parts: int, smallest: int = 2):
    """Ordered factorisations of count into `parts` factors, each >= 2."""
    if parts == 1:
        return [(count,)] if count >= smallest else []
    out = []
    for f in range(smallest, count + 1):
        if count % f == 0:
            out += [(f,) + rest for rest in _factorisations(count // f, parts - 1, 2)]
    return out


def _factorisation(rng, count: int, parts: int) -> tuple[int, ...]:
    """Chain orders (n_i, with n_i + 1 elements) of a seeded factorisation."""
    while not _factorisations(count, parts):
        parts -= 1
    sizes = rng.choice(_factorisations(count, parts))
    return tuple(s - 1 for s in rng.sample(sizes, len(sizes)))


#: (element count, number of chain factors): the fixed size buckets.
SPECTRA_SLOTS = (
    (6, 1), (8, 2), (9, 2), (10, 1), (12, 2), (12, 3), (16, 2), (18, 2),
    (20, 2), (24, 3), (24, 4), (30, 3), (32, 1), (36, 2), (40, 3), (45, 2),
    (48, 3), (54, 3), (64, 2), (72, 3),
)


def spectra_ops(seed: int) -> list[Op]:
    rng = random.Random(f"finite-spectra:{seed}")
    ops = []
    for count, parts in SPECTRA_SLOTS:
        ns = _factorisation(rng, count, parts)
        for kind in ("spectrum", "radical", "eta"):
            ops.append(Op(f"finite:{kind}:{_spec(ns)}", kind, (ns,)))
    # Good-sequence round trips take only a chain order (and a bound), so
    # their sizes are fixed rather than seeded.
    for i in range(20):
        n = 2 + i % 6
        ops.append(Op(f"finite:gamma:{i}:chain:{n}", "gamma", (n,)))
    for i in range(20):
        n, bound = 2 + i % 9, 2 + i % 3
        ops.append(Op(f"finite:iso:{i}:{n}:{bound}", "iso", (n, bound)))
    rng.shuffle(ops)
    return ops


def build_ops(workload: str, seed: int) -> list[Op]:
    if workload == "decide":
        return decide_ops(seed)
    if workload == "cli-session":
        return cli_ops(seed)
    if workload == "finite-spectra":
        return spectra_ops(seed)
    raise ValueError(f"unknown workload {workload!r}")


# --- running one operation -----------------------------------------------------


def _carrier(ns):
    return carriers.carrier_from_spec(_spec(ns))


def call(op: Op, tmp: str):
    """The timed part of an operation: one public entry point."""
    if op.kind == "decide":
        eq = terms.parse_equation(op.args[0])
        return decide.decide(eq.lhs, eq.rhs, eq.relation)
    if op.kind == "cli":
        out = io.StringIO()
        argv = [a.replace("{tmp}", tmp) for a in op.args]
        code = cli.run(argv, out=out)
        return code, out.getvalue()
    if op.kind == "spectrum":
        return spectrum.spectrum(_carrier(op.args[0]))
    if op.kind == "radical":
        return carriers.radical(_carrier(op.args[0]))
    if op.kind == "eta":
        return spectrum.eta(_carrier(op.args[0]))
    if op.kind == "gamma":
        return goodseq.gamma_of_xi(carriers.FiniteChain(op.args[0]))
    if op.kind == "iso":
        return goodseq.xi_chain_iso(*op.args)
    raise ValueError(op.kind)


def check(op: Op, result, tmp: str) -> bool:
    """True if answered, False if failed; raises WrongAnswer on a wrong answer."""
    if op.kind == "decide":
        return _check_verdict(op, result)
    if op.kind == "cli":
        code, text = result
        return _check_cli(op, code, text, tmp)
    return _check_finite(op, result)


# --- checks ---------------------------------------------------------------------


def _check_verdict(op: Op, verdict) -> bool:
    if isinstance(verdict, decide.LimitExceeded):
        return False
    if isinstance(verdict, decide.Valid):
        if op.expect != "valid":
            raise WrongAnswer(f"{op.name}: Valid for a refutable equation")
        return True
    if isinstance(verdict, decide.Counterexample):
        lhs, rhs, relation = ref.parse_equation(op.args[0])
        ref.replay(lhs, rhs, relation, verdict.assignment, verdict.lhs_value, verdict.rhs_value)
        return True
    raise WrongAnswer(f"{op.name}: unknown verdict {verdict!r}")


def _parse_counterexample(text: str):
    lines = text.splitlines()
    if not lines or lines[0] != "Counterexample:":
        raise WrongAnswer(f"unreadable check output {text!r}")
    assignment, values = {}, {}
    for line in lines[1:]:
        name, _, val = line.strip().partition(" = ")
        if name in ("lhs", "rhs"):
            values[name] = Fraction(val)
        else:
            assignment[name] = Fraction(val)
    return assignment, values["lhs"], values["rhs"]


def _check_cli(op: Op, code: int, text: str, tmp: str) -> bool:
    kind = op.expect[0]
    if code in (2, 3):
        return op.limit_ok
    where = f"{op.name} ({' '.join(op.args)[:120]})"
    if kind == "check":
        if code == 0 and text == "Valid\n":
            if op.expect[1] != "valid":
                raise WrongAnswer(f"{where}: Valid for a refutable equation")
        elif code == 0 and "--sample-only" in op.args and text.startswith("No violation in "):
            pass  # sampling is not a proof; both labels allow it
        elif code == 1:
            lhs, rhs, relation = ref.parse_equation(op.args[1])
            ref.replay(lhs, rhs, relation, *_parse_counterexample(text))
        else:
            raise WrongAnswer(f"{where}: exit {code} with {text!r}")
        return True
    if code != 0 and not kind.startswith("radical"):
        raise WrongAnswer(f"{where}: exit {code} with {text[:200]!r}")
    out = text.strip()
    if kind == "q01":
        _, t, env = op.expect
        _expect_equal(where, Fraction(out), ref.value(t, env))
    elif kind == "value":
        _expect_equal(where, Fraction(out), op.expect[1])
    elif kind == "prod":
        _, t, envs = op.expect
        got = tuple(Fraction(p) for p in out.strip("()").split(", "))
        _expect_equal(where, got, tuple(ref.value(t, e) for e in envs))
    elif kind == "chang":
        _, t, env = op.expect
        got = tuple(int(p) for p in out.strip("()").split(","))
        _expect_equal(where, got, ref.chang_value(t, env))
    elif kind == "pl":
        _, t, env = op.expect
        try:
            ref.check_pl_term(t, env, ref.pl_from_json(json.loads(out)))
        except WrongAnswer as exc:
            raise WrongAnswer(f"{where}: {exc}") from None
    elif kind == "axioms":
        lines = out.splitlines()
        laws = len(lines) - 1
        if any(not line.startswith("ok ") for line in lines[:-1]) or lines[-1] != f"{laws}/{laws} laws hold":
            raise WrongAnswer(f"{where}: a theorem reported as failing:\n{out}")
    elif kind == "spectrum":
        _check_spectrum_text(where, op.expect[1], op.expect[2], out)
    elif kind == "spectrum_chang":
        if "maximal ideals: 1" not in out or "injective: False" not in out:
            raise WrongAnswer(f"{where}: Chang's algebra has one maximal ideal and a non-injective eta")
    elif kind == "radical":
        _check_radical_text(where, op.expect[1], op.expect[2], out)
        _expect_equal(where, code, 1 if op.expect[2] else 0)
    elif kind == "radical_chang":
        _check_radical_chang(where, op.expect[1], code, out)
    elif kind == "gammaxi":
        _, n, bound = op.expect
        want = (
            f"chain {n}, bound {bound}: {bound * n + 1} good sequences; "
            f"sum-of-entries bijective: True; additive: True\n"
            f"unit interval of the enveloping group: {n + 1} classes for {n + 1} elements; "
            f"bijective: True; preserves oplus: True; preserves neg: True"
        )
        _expect_equal(where, out, want)
    elif kind == "isbell":
        _, target, depth, ofile = op.expect
        with open(os.path.join(tmp, ofile), encoding="utf-8") as handle:
            result = ref.pl_from_json(json.load(handle))
        half = [(x, y / 2) for x, y in target]
        err = ref.pl_sup_dist(result, half)
        lines = out.splitlines()
        _expect_equal(where, lines[1].split("  ")[0], f"exact error: {err}")
        if err > Fraction(1, 2**depth):
            raise WrongAnswer(f"{where}: error {err} above 2^-{depth}")
    else:
        raise ValueError(kind)
    return True


def _expect_equal(where, got, want):
    if got != want:
        raise WrongAnswer(f"{where}: got {got!r:.300}, expected {want!r:.300}")


# --- finite algebras: the product-of-chains structure ----------------------------


def _fmt_finite(ns, elem) -> str:
    parts = [str(Fraction(k, n)) for k, n in zip(elem, ns)]
    return parts[0] if len(ns) == 1 else "(" + ", ".join(parts) + ")"


def _elements(ns):
    out = [()]
    for n in ns:
        out = [e + (k,) for e in out for k in range(n + 1)]
    return out


def _as_tuple(ns, x) -> tuple:
    return (x,) if len(ns) == 1 else tuple(x)


def _kernels(ns) -> set[frozenset]:
    """Maximal ideals of a product of simple chains: the projection kernels."""
    elems = _elements(ns)
    return {frozenset(e for e in elems if e[i] == 0) for i in range(len(ns))}


def _projections(ns) -> set[tuple]:
    """Homs into [0, 1]: t -> t_i / n_i, as value tables in element order."""
    elems = _elements(ns)
    return {tuple(Fraction(e[i], ns[i]) for e in elems) for i in range(len(ns))}


def _all_subsets(k: int) -> set[tuple]:
    return {tuple(i for i in range(k) if mask >> i & 1) for mask in range(2**k)}


def _check_finite(op: Op, result) -> bool:
    where = op.name
    if op.kind in ("gamma", "iso"):
        if not result.ok:
            raise WrongAnswer(f"{where}: round trip reported broken: {result}")
        if op.kind == "gamma":
            n = op.args[0]
            _expect_equal(where, (result.algebra_size, result.window_classes), (n + 1, n + 1))
        else:
            n, bound = op.args
            _expect_equal(where, result.sequences, bound * n + 1)
        return True
    ns = op.args[0]
    zero = tuple(0 for _ in ns)
    if op.kind == "radical":
        got = {_as_tuple(ns, x) for x in result.elements}
        _expect_equal(where, got, {zero})
        return True
    if op.kind == "spectrum":
        ideals = {frozenset(_as_tuple(ns, x) for x in m) for m in result.ideals}
        _expect_equal(where + " maximal ideals", ideals, _kernels(ns))
        elems = _elements(ns)
        homs = {tuple(h.table[e if len(ns) > 1 else e[0]] for e in elems) for h in result.homs}
        _expect_equal(where + " homs", homs, _projections(ns))
        for h, m in zip(result.homs, result.ideals):
            _expect_equal(where + " hom kernel", h.kernel(), m)
        subsets = _all_subsets(len(ns))
        _expect_equal(where + " closed sets", set(result.closed_sets), subsets)
        _expect_equal(where + " basis", set(result.basis), subsets)
        return True
    if op.kind == "eta":
        flags = (result.injective, result.radical_trivial, result.surjective_onto_hom_product)
        _expect_equal(where + " flags", flags, (True, True, True))
        _expect_equal(where + " kernel", {_as_tuple(ns, x) for x in result.kernel}, {zero})
        columns = {tuple(result.values[e if len(ns) > 1 else e[0]][j] for e in _elements(ns))
                   for j in range(len(ns))}
        _expect_equal(where + " eta columns", columns, _projections(ns))
        return True
    raise ValueError(op.kind)


def _parse_finite(ns, text: str) -> tuple:
    parts = text.strip("()").split(", ") if len(ns) > 1 else [text]
    return tuple(Fraction(p) * n for p, n in zip(parts, ns))


def _check_spectrum_text(where, ns, as_json: bool, out: str):
    elems = _elements(ns)
    if as_json:
        data = json.loads(out)
        _expect_equal(where, data["elements"], len(elems))
        ideals = {frozenset(_parse_finite(ns, x) for x in m) for m in data["maximal_ideals"]}
        _expect_equal(where + " maximal ideals", ideals, _kernels(ns))
        homs = {tuple(Fraction(h[_fmt_finite(ns, e)]) for e in elems) for h in data["homs"]}
        _expect_equal(where + " homs", homs, _projections(ns))
        subsets = {tuple(c) for c in data["closed_sets"]}
        _expect_equal(where + " closed sets", subsets, _all_subsets(len(ns)))
        return
    lines = out.splitlines()
    k = len(ns)
    _expect_equal(where, lines[1], f"elements: {len(elems)}")
    _expect_equal(where, lines[2], f"maximal ideals: {k}")
    _expect_equal(where, lines[3 + k], f"homs: {k}")


def _check_radical_text(where, ns, with_element: bool, out: str):
    lines = out.splitlines()
    zero = _fmt_finite(ns, tuple(0 for _ in ns))
    _expect_equal(where, lines[0], f"Rad({_spec(ns)}) = {{{zero}}}")
    if with_element and not lines[1].split(": ", 1)[1].startswith("False"):
        raise WrongAnswer(f"{where}: a finite product of chains has no infinitesimals")


def _check_radical_chang(where, elem, code: int, out: str):
    level, offset = elem
    infinitesimal = level == 0 and offset > 0
    lines = out.splitlines()
    verdict = lines[1].split(": ", 1)[1].split(" ", 1)[0]
    _expect_equal(where, verdict, str(infinitesimal))
    _expect_equal(where, code, 0 if infinitesimal else 1)
    witness = f"(0,{offset // 2})" if level == 0 and offset % 2 == 0 else "none"
    _expect_equal(where, lines[2], f"halving witness: {witness}")
