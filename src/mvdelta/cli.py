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
2 usage or parse error, 3 budget exceeded.  All rationals print as
``p/q``; identical invocations produce identical output.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import corpus, decide, goodseq, plfunc, spectrum, terms
from .carriers import (
    CarrierError,
    ChangAlgebra,
    FiniteChain,
    _split_top_level,
    carrier_from_spec,
    halving_witness,
    is_infinitesimal,
    radical,
)
from .rationals import Q01
from .terms import ParseError

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_FOUND = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _int_at_least(low: int):
    """An argparse ``type=`` that accepts integers >= low (bad values exit 2)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _print_counterexample(cx: decide.Counterexample, out):
    print("Counterexample:", file=out)
    for name in sorted(cx.assignment):
        print(f"  {name} = {cx.assignment[name]}", file=out)
    print(f"  lhs = {cx.lhs_value}", file=out)
    print(f"  rhs = {cx.rhs_value}", file=out)


def _cmd_check(args, out) -> int:
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
    verdict = decide.decide(eq.lhs, eq.rhs, eq.relation, budget=args.budget)
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
        assignment[name.strip()] = carrier.parse_element(value.strip())
    return assignment


def _cmd_eval(args, out) -> int:
    carrier = carrier_from_spec(args.carrier)
    term = terms.parse(args.term)
    assignment = _parse_assignment(args.assign or "", carrier)
    value = terms.evaluate(term, assignment, carrier)
    print(carrier.format_element(value), file=out)
    return EXIT_OK


def _cmd_axioms(args, out) -> int:
    carrier = carrier_from_spec(args.carrier)
    laws = corpus.axiom_suite(max_prefix=2, max_n=4)
    rng = random.Random(args.seed)
    failures = 0
    for law in laws:
        variables = sorted(terms.free_vars(law.lhs) | terms.free_vars(law.rhs))
        expanded_l = terms.expand(law.lhs)
        expanded_r = terms.expand(law.rhs)
        bad = None
        for _ in range(args.trials):
            if isinstance(carrier, plfunc.PLCarrier):
                assignment = {
                    v: plfunc.random_plfunc(rng, max_interior=3, depth=4) for v in variables
                }
            else:
                grid = 2**4
                assignment = {
                    v: carrier.const(Q01(rng.randint(0, grid), grid))
                    for v in variables
                }
            lv = terms.evaluate_core(expanded_l, assignment, carrier)
            rv = terms.evaluate_core(expanded_r, assignment, carrier)
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


def _spectrum_as_dict(result: spectrum.SpectrumResult) -> dict:
    carrier = result.carrier

    def fmt_ideal(ideal) -> list[str]:
        return sorted(carrier.format_element(x) for x in ideal)

    return {
        "algebra": carrier.spec,
        "elements": len(carrier.elements()),
        "maximal_ideals": [fmt_ideal(m) for m in result.ideals],
        "homs": [
            {
                carrier.format_element(x): str(h.table[x])
                for x in carrier.elements()
            }
            for h in result.homs
        ],
        "closed_sets": [list(c) for c in result.closed_sets],
        "basis": [list(b) for b in result.basis],
    }


def _cmd_spectrum(args, out) -> int:
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
    if args.json:
        print(json.dumps(_spectrum_as_dict(result), indent=2, sort_keys=True), file=out)
        return EXIT_OK
    print(f"algebra: {carrier.spec}", file=out)
    print(f"elements: {len(carrier.elements())}", file=out)
    print(f"maximal ideals: {len(result.ideals)}", file=out)
    for i, m in enumerate(result.ideals, start=1):
        body = ", ".join(sorted(carrier.format_element(x) for x in m))
        print(f"  m{i} = {{{body}}}", file=out)
    print(f"homs: {len(result.homs)}", file=out)
    for i, h in enumerate(result.homs, start=1):
        pairs = ", ".join(
            f"{carrier.format_element(x)} -> {h.table[x]}" for x in carrier.elements()
        )
        print(f"  h{i}: {pairs}", file=out)
    closed = ", ".join("{" + ",".join(f"m{i + 1}" for i in c) + "}" for c in result.closed_sets)
    print(f"closed sets: {closed}", file=out)
    basis = ", ".join("{" + ",".join(f"m{i + 1}" for i in b) + "}" for b in result.basis)
    print(f"basis of closed sets: {basis}", file=out)
    return EXIT_OK


def _cmd_gammaxi(args, out) -> int:
    iso = goodseq.xi_chain_iso(args.chain, args.bound)
    print(
        f"chain {args.chain}, bound {args.bound}: {iso.sequences} good sequences; "
        f"sum-of-entries bijective: {iso.sums_bijective}; additive: {iso.additive}",
        file=out,
    )
    report = goodseq.gamma_of_xi(FiniteChain(args.chain))
    print(
        f"unit interval of the enveloping group: {report.window_classes} classes "
        f"for {report.algebra_size} elements; bijective: {report.bijective}; "
        f"preserves oplus: {report.preserves_oplus}; preserves neg: {report.preserves_neg}",
        file=out,
    )
    return EXIT_OK if (iso.ok and report.ok) else EXIT_FOUND


def _cmd_isbell(args, out) -> int:
    target = plfunc.load_plfunc(args.target)
    half_target = plfunc.pl_scale(Q01(1, 2), target)
    stages = plfunc.increasing_approx(half_target, args.depth)
    result = plfunc.isbell_reconstruct(stages)
    plfunc.save_plfunc(result, args.out)
    achieved = plfunc.uniform_dist(result, half_target)
    guarantee = Fraction(1, 2**args.depth)
    print(f"reconstructed half of the target with {args.depth} stages", file=out)
    print(f"exact error: {achieved}  (guarantee {guarantee})", file=out)
    if achieved > guarantee:
        print("error bound violated", file=out)
        return EXIT_FOUND
    return EXIT_OK


def _cmd_radical(args, out) -> int:
    carrier = carrier_from_spec(args.carrier)
    rad = radical(carrier)
    print(f"Rad({carrier.spec}) = {rad.description}", file=out)
    if args.element is None:
        return EXIT_OK
    x = carrier.parse_element(args.element)
    cert = is_infinitesimal(carrier, x)
    print(
        f"infinitesimal({carrier.format_element(x)}): {cert.verdict} ({cert.reason})",
        file=out,
    )
    if isinstance(carrier, ChangAlgebra):
        witness = halving_witness(x)
        witness_text = carrier.format_element(witness) if witness is not None else "none"
        print(f"halving witness: {witness_text}", file=out)
    return EXIT_OK if cert.verdict else EXIT_FOUND


def _build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--budget", type=_int_at_least(1), default=decide.DEFAULT_PIECE_BUDGET)
    p.add_argument("--depth", type=_int_at_least(1), default=8)

    p = sub.add_parser("eval", help="evaluate a term over a carrier")
    p.add_argument("term")
    p.add_argument("--carrier", required=True)
    p.add_argument("--assign", default="")

    p = sub.add_parser("axioms", help="run the axiom suite on random carrier elements")
    p.add_argument("--carrier", default="pl")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("spectrum", help="maximal ideals, homs, Stone topology")
    p.add_argument("--algebra", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("gammaxi", help="good-sequence round trips for a chain")
    p.add_argument("--chain", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)

    p = sub.add_parser("isbell", help="reconstruct half of a target function")
    p.add_argument("--target", required=True)
    p.add_argument("--depth", type=int, required=True)
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
    """Execute a CLI invocation; returns the exit code."""
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return _HANDLERS[args.command](args, out)
    except (ParseError, CarrierError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
