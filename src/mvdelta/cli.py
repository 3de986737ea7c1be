"""Command-line front end.

Subcommands::

    check "<term> = <term>"  or  "<term> <= <term>"
    eval "<term>" --carrier <spec> --assign x=1/2,y=3/4
    axioms --carrier pl [--trials N] [--seed S]
    spectrum --algebra <spec> [--json]
    gammaxi --chain n --bound B
    isbell --target <plfunc.json> --depth n --out <plfunc.json>
    radical --carrier <spec> [--element <literal>]

Carrier specs: ``chain:n``, ``chang``, ``prod(...)``, ``pl``, and
``q01`` (the rational unit interval, used to replay counterexamples).

Exit codes: 0 success/valid, 1 counterexample or obstruction found,
2 usage or parse error (also an unbound variable, a value too long to
print, and a carrier spec or JSON literal nested past
``carriers.MAX_NESTING``), 3 budget exceeded (``check``'s piece budget,
and, refused before the work starts with one ``error:`` line on stderr, a
finite carrier past ``carriers.TABLE_ENTRY_BUDGET``, i.e. of more than
1,024 elements, a ``gammaxi`` round trip estimated past
``goodseq.WORK_BUDGET`` and an ``isbell`` run estimated past
``plfunc.ISBELL_WORK_BUDGET``).  Terms nest to any depth, and ``nfold``
and ``halfn`` are evaluated without unrolling their counts, so
``nfold(100000000, x)`` answers at once.  All rationals print as
``p/q``; identical invocations produce identical output.

Importing this module loads only ``terms``, ``carriers`` and
``rationals`` (``argparse`` at the first parse); each handler imports the
rest itself, so a process compiles only the modules its subcommand uses.  ``radical``,
``run`` and ``_HANDLERS`` stay module-level: ``bench/tracing.py``
patches them.
"""

from __future__ import annotations

import functools
import re
import sys

from . import terms
from .carriers import (
    CarrierError,
    ChangAlgebra,
    FiniteChain,
    OverBudget,
    _split_top_level,
    carrier_from_spec,
    halving_witness,
    is_infinitesimal,
    radical,
)
from .rationals import Q01
from .terms import ParseError, UnboundVariable

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_FOUND = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _int_at_least(low: int | None = None):
    """An argparse ``type=`` that accepts integers in ASCII digits, with an
    optional minus, and >= low when low is given (bad values exit 2)."""

    def parse(text: str) -> int:
        import argparse

        if not re.fullmatch(r"-?[0-9]+", text):
            raise argparse.ArgumentTypeError(f"not an integer in ASCII digits: {text!r}")
        value = int(text)
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _print_text(render, out):
    """Print the text ``render()`` returns, whole or not at all: Python
    prints no integer past its digit limit, and that refusal becomes one
    usage error."""
    try:
        text = render()
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"value too long to print (a number of over {limit} digits)") from None
    print(text, file=out)


def _print_counterexample(cx, out):
    def render() -> str:
        lines = ["Counterexample:", *(f"  {v} = {cx.assignment[v]}" for v in sorted(cx.assignment))]
        return "\n".join([*lines, f"  lhs = {cx.lhs_value}", f"  rhs = {cx.rhs_value}"])

    _print_text(render, out)


def _cmd_check(args, out) -> int:
    from . import decide

    eq = terms.parse_equation(args.equation)
    sampled = decide.sample_falsify(
        eq.lhs,
        eq.rhs,
        eq.relation,
        trials=args.trials,
        seed=args.seed,
        depth=args.depth,
    )
    if sampled is not None:
        _print_counterexample(sampled, out)
        return EXIT_FOUND
    if args.sample_only:
        print(f"No violation in {args.trials} samples (not a proof)", file=out)
        return EXIT_OK
    budget = args.budget or decide.DEFAULT_PIECE_BUDGET
    verdict = decide.decide(eq.lhs, eq.rhs, eq.relation, budget=budget)
    if isinstance(verdict, decide.Valid):
        print("Valid", file=out)
        return EXIT_OK
    if isinstance(verdict, decide.Counterexample):
        _print_counterexample(verdict, out)
        return EXIT_FOUND
    print(f"Budget exceeded: {verdict.report.detail}", file=out)
    return EXIT_BUDGET


def _parse_assignment(text: str, carrier) -> dict:
    assignment = {}
    if not text:
        return assignment
    # Whitespace-only text splits into no parts; it is one malformed chunk.
    for chunk in _split_top_level(text) or [text]:
        name, sep, value = chunk.partition("=")
        if not sep:
            raise ValueError(f"assignment {chunk!r} is not of the form name=value")
        assignment[name.strip(" ")] = carrier.parse_element(value.strip(" "))
    return assignment


def _cmd_eval(args, out) -> int:
    carrier = carrier_from_spec(args.carrier)
    term = terms.parse(args.term)
    assignment = _parse_assignment(args.assign or "", carrier)
    value = terms.evaluate(term, assignment, carrier)
    _print_text(lambda: carrier.format_element(value), out)
    return EXIT_OK


def _cmd_axioms(args, out) -> int:
    import random

    from . import corpus

    carrier = carrier_from_spec(args.carrier)
    laws = corpus.axiom_suite(max_prefix=2, max_n=4)
    rng = random.Random(args.seed)
    if carrier.spec == "pl":
        from . import plfunc

        def draw():
            return plfunc.random_plfunc(rng, max_interior=3, depth=4)
    else:
        def draw():
            return carrier.const(Q01(rng.randint(0, 2**4), 2**4))
    failures = 0
    for law in laws:
        code, (lhs, rhs), _ = terms.compile_core((terms.expand(law.lhs), terms.expand(law.rhs)))
        variables = terms.program_vars(code)
        bad = None
        for _ in range(args.trials):
            assignment = {v: draw() for v in variables}
            values = terms.run(code, assignment, carrier)
            lv, rv = values[lhs], values[rhs]
            holds = carrier.eq(lv, rv) if law.relation == "eq" else carrier.leq(lv, rv)
            if not holds:
                bad = assignment
                break
        if bad is None:
            print(f"ok {law.name} ({args.trials} instances)", file=out)
        else:
            failures += 1
            witness = ", ".join(
                f"{v}={carrier.format_element(bad[v])}" for v in sorted(bad)
            )
            print(f"FAIL {law.name} at {witness}", file=out)
    print(f"{len(laws) - failures}/{len(laws)} laws hold", file=out)
    return EXIT_OK if failures == 0 else EXIT_FOUND


def _spectrum_as_dict(result, names: dict) -> dict:
    return {
        "algebra": result.carrier.spec,
        "elements": len(names),
        "maximal_ideals": [sorted(names[x] for x in m) for m in result.ideals],
        "homs": [{names[x]: str(h.table[x]) for x in names} for h in result.homs],
        "closed_sets": [list(c) for c in result.closed_sets],
        "basis": [list(b) for b in result.basis],
    }


def _cmd_spectrum(args, out) -> int:
    import json

    from . import spectrum

    carrier = carrier_from_spec(args.algebra)
    if isinstance(carrier, ChangAlgebra):
        hom, kernel_desc, injective = spectrum.chang_eta()
        if args.json:
            payload = {
                "algebra": "chang",
                "maximal_ideals": ["{(0,k) : k >= 0}"],
                "homs": ["level map (0,k) -> 0, (1,k) -> 1"],
                "eta_injective": injective,
            }
            print(json.dumps(payload, indent=2, sort_keys=True), file=out)
        else:
            print("algebra: chang (closed form)", file=out)
            print("maximal ideals: 1", file=out)
            print("  m1 = {(0,k) : k >= 0}  (the radical)", file=out)
            print("homs: 1", file=out)
            print("  h1 = level map: (0,k) -> 0, (1,k) -> 1", file=out)
            print(f"eta kernel: {kernel_desc}; injective: {injective}", file=out)
        return EXIT_OK
    if not carrier.is_finite():
        raise CarrierError(f"spectrum needs a finite carrier or chang, not {carrier.spec}")
    result = spectrum.spectrum(carrier)
    # Each element's text, from the one listing the spectrum was computed on.
    names = {x: carrier.format_element(x) for x in carrier.chain_factors.elements}
    if args.json:
        print(json.dumps(_spectrum_as_dict(result, names), indent=2, sort_keys=True), file=out)
        return EXIT_OK
    print(f"algebra: {carrier.spec}", file=out)
    print(f"elements: {len(names)}", file=out)
    print(f"maximal ideals: {len(result.ideals)}", file=out)
    for i, m in enumerate(result.ideals, start=1):
        body = ", ".join(sorted(names[x] for x in m))
        print(f"  m{i} = {{{body}}}", file=out)
    print(f"homs: {len(result.homs)}", file=out)
    for i, h in enumerate(result.homs, start=1):
        pairs = ", ".join(f"{text} -> {h.table[x]}" for x, text in names.items())
        print(f"  h{i}: {pairs}", file=out)
    closed = ", ".join("{" + ",".join(f"m{i + 1}" for i in c) + "}" for c in result.closed_sets)
    print(f"closed sets: {closed}", file=out)
    basis = ", ".join("{" + ",".join(f"m{i + 1}" for i in b) + "}" for b in result.basis)
    print(f"basis of closed sets: {basis}", file=out)
    return EXIT_OK


def _cmd_gammaxi(args, out) -> int:
    from . import goodseq

    report = goodseq.gamma_of_xi(FiniteChain(args.chain))
    iso = goodseq.xi_chain_iso(args.chain, args.bound)
    print(
        f"chain {args.chain}, bound {args.bound}: {iso.sequences} good sequences; "
        f"sum-of-entries bijective: {iso.sums_bijective}; additive: {iso.additive}",
        file=out,
    )
    print(
        f"unit interval of the enveloping group: {report.window_classes} classes "
        f"for {report.algebra_size} elements; bijective: {report.bijective}; "
        f"preserves oplus: {report.preserves_oplus}; preserves neg: {report.preserves_neg}",
        file=out,
    )
    return EXIT_OK if (iso.ok and report.ok) else EXIT_FOUND


def _cmd_isbell(args, out) -> int:
    from . import plfunc

    target = plfunc.load_plfunc(args.target)
    half_target = plfunc.pl_scale(Q01(1, 2), target)
    plfunc.check_isbell_work(half_target, args.depth)
    stages = plfunc.increasing_approx(half_target, args.depth)
    result = plfunc.isbell_reconstruct(stages)
    plfunc.save_plfunc(result, args.out)
    achieved = plfunc.uniform_dist(result, half_target)
    guarantee = Q01(1, 2**args.depth)
    print(f"reconstructed half of the target with {args.depth} stages", file=out)
    print(f"exact error: {achieved}  (guarantee {guarantee})", file=out)
    if achieved > guarantee:
        print("error bound violated", file=out)
        return EXIT_FOUND
    return EXIT_OK


def _cmd_radical(args, out) -> int:
    carrier = carrier_from_spec(args.carrier)
    header = f"Rad({carrier.spec}) = {radical(carrier).description}"
    if args.element is None:
        print(header, file=out)
        return EXIT_OK
    # Parse and test the element before printing, so a usage error prints nothing.
    x = carrier.parse_element(args.element)
    cert = is_infinitesimal(carrier, x)
    print(header, file=out)
    print(
        f"infinitesimal({carrier.format_element(x)}): {cert.verdict} ({cert.reason})",
        file=out,
    )
    if isinstance(carrier, ChangAlgebra):
        witness = halving_witness(x)
        witness_text = carrier.format_element(witness) if witness is not None else "none"
        print(f"halving witness: {witness_text}", file=out)
    return EXIT_OK if cert.verdict else EXIT_FOUND


@functools.cache
def _parser():
    """The one parser, built on first use: parsing leaves it unchanged."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="mvdelta",
        description="Exact MV/delta-algebra toolkit: decision engine, carriers, spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide an equation or inequality")
    p.add_argument("equation")
    p.add_argument("--sample-only", action="store_true")
    p.add_argument("--trials", type=_int_at_least(1), default=1000)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--budget", type=_int_at_least(1), default=None)
    p.add_argument("--depth", type=_int_at_least(1), default=8)

    p = sub.add_parser("eval", help="evaluate a term over a carrier")
    p.add_argument("term")
    p.add_argument("--carrier", required=True)
    p.add_argument("--assign", default="")

    p = sub.add_parser("axioms", help="run the axiom suite on random carrier elements")
    p.add_argument("--carrier", default="pl")
    p.add_argument("--trials", type=_int_at_least(1), default=100)
    p.add_argument("--seed", type=_int_at_least(), default=0)

    p = sub.add_parser("spectrum", help="maximal ideals, homs, Stone topology")
    p.add_argument("--algebra", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("gammaxi", help="good-sequence round trips for a chain")
    p.add_argument("--chain", type=_int_at_least(), required=True)
    p.add_argument("--bound", type=_int_at_least(0), required=True)

    p = sub.add_parser("isbell", help="reconstruct half of a target function")
    p.add_argument("--target", required=True)
    p.add_argument("--depth", type=_int_at_least(), required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("radical", help="radical of a carrier, infinitesimal tests")
    p.add_argument("--carrier", required=True)
    p.add_argument("--element")

    return parser


_HANDLERS = {
    "check": _cmd_check,
    "eval": _cmd_eval,
    "axioms": _cmd_axioms,
    "spectrum": _cmd_spectrum,
    "gammaxi": _cmd_gammaxi,
    "isbell": _cmd_isbell,
    "radical": _cmd_radical,
}


def run(argv, out=None) -> int:
    """Execute a CLI invocation; returns the exit code (see above).

    A usage or budget error raised by a handler, such as a number with
    more digits than Python converts to text (``halfn(100000, x)`` at
    ``x=1/3``), prints one ``error:`` line on stderr and nothing on
    stdout; a budget error names the size or estimate and the limit.
    """
    out = out if out is not None else sys.stdout
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return _HANDLERS[args.command](args, out)
    except (OverBudget, ParseError, CarrierError, UnboundVariable, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET if isinstance(exc, OverBudget) else EXIT_USAGE


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
