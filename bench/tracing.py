"""Spans and counters around the public functions of each mvdelta module.

The wrappers are installed from the benchmark's files only; the library
is not edited.  Each wrapper replaces a function where its callers look
it up: ``spectrum`` and ``cli`` import ``radical``/``maximal_ideals``/
``enumerate_ideals`` from ``carriers`` by name, so those names are
patched in the importing modules too.  ``expand``, ``evaluate_core``,
``free_vars`` and the ``plfunc`` operations call themselves through
their module global, so a span group is *outermost*: a call made while
the group is open runs unwrapped and opens no span.

Spans are kept in memory as ``[name, start_ns, end_ns, parent, op]`` and
written out once, by :meth:`Tracer.write`.  Hot, tiny calls (carrier
``oplus``/``neg``, ``Q01`` construction) get counters instead of spans.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from time import perf_counter_ns

from mvdelta import carriers, cli, corpus, decide, goodseq, linarith, plfunc, rationals, spectrum, terms

CARRIER_CLASSES = (
    carriers.UnitInterval,
    carriers.FiniteChain,
    carriers.ProductAlg,
    carriers.ChangAlgebra,
    plfunc.PLCarrier,
)

PL_OPS = ("pl_neg", "pl_oplus", "pl_odot", "pl_ominus", "pl_dist", "pl_join", "pl_meet",
          "pl_nfold", "pl_delta", "pl_scale")

CLI_COMMANDS = ("check", "eval", "axioms", "spectrum", "gammaxi", "isbell", "radical")

FAMILIES = (
    [f"oplus_assoc_k{k}" for k in range(2, 7)]
    + [f"nfold_half_n{n}" for n in range(2, 8)]
    + ["join_assoc_d2", "join_assoc_d3", "dist_nest_d1", "dist_nest_d2"]
)


def tree_size(t) -> int:
    """Node count of an expanded term, without recursion (trees may be deep)."""
    count, stack = 0, [t]
    while stack:
        node = stack.pop()
        count += 1
        if isinstance(node, terms.Neg):
            stack.append(node.arg)
        elif isinstance(node, terms.Oplus):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, terms.Delta):
            stack.extend(node.seq.prefix)
            stack.append(node.seq.tail)
    return count


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []
        self._open: set[str] = set()
        self._undo: list[tuple] = []
        self._expanded: list = []  # trees to count once the current op ends

    # --- wrappers ---------------------------------------------------------

    def wrap(self, name, fn, *, outermost=False, after=None, on_error=None):
        spans, stack, is_open, counts = self.spans, self._stack, self._open, self.counts

        def wrapper(*args, **kwargs):
            if outermost and name in is_open:
                return fn(*args, **kwargs)
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            counts[name + ".calls"] += 1
            if outermost:
                is_open.add(name)
            rec[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()
                if outermost:
                    is_open.discard(name)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def count(self, key, fn, *, outermost=False, amount=None):
        counts, is_open = self.counts, self._open

        def wrapper(*args, **kwargs):
            if outermost:
                if key in is_open:
                    return fn(*args, **kwargs)
                is_open.add(key)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    is_open.discard(key)
            else:
                result = fn(*args, **kwargs)
            counts[key] += amount(result) if amount else 1
            return result

        return wrapper

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, new)

    def _span_patch(self, owners, attr, name, **kw):
        for owner in owners:
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr), **kw))

    def install(self):
        c = self.counts

        def add(key, value):
            c[key] += value

        self._span_patch((terms, corpus), "parse", "terms.parse", outermost=True)
        self._span_patch((terms,), "parse_equation", "terms.parse", outermost=True)
        # Counting a tree inside the op would be charged to the caller's self
        # time, so the trees are counted by end_op, outside the op.
        self._span_patch((terms,), "expand", "terms.expand", outermost=True,
                         after=lambda r, a: self._expanded.append(r))
        self._span_patch((terms,), "free_vars", "terms.free_vars", outermost=True)
        self._span_patch((terms,), "evaluate_core", "terms.eval", outermost=True)

        new = rationals.Q01.__dict__["__new__"]
        q01_new = new.__func__ if isinstance(new, staticmethod) else new
        self._patch(rationals.Q01, "__new__", staticmethod(self.count("rationals.q01_new", q01_new)))

        def verdict(result, _args):
            add("decide." + {decide.Valid: "valid", decide.Counterexample: "counterexample",
                             decide.LimitExceeded: "limit_exceeded"}[type(result)], 1)

        self._span_patch((decide,), "decide", "decide.decide", after=verdict)
        self._span_patch((decide,), "sample_falsify", "decide.sample")

        def feasible_done(result, args):
            add("linarith.feasible_sat", result is not None)
            c["linarith.system_size_max"] = max(c["linarith.system_size_max"], len(args[0]))

        def feasible_error(exc):
            add("linarith.budget_exceeded", isinstance(exc, linarith.BudgetExceeded))

        self._span_patch((linarith,), "feasible", "linarith.feasible",
                         after=feasible_done, on_error=feasible_error)

        for cls in CARRIER_CLASSES:
            for op in ("oplus", "neg"):
                self._patch(cls, op, self.count(f"carriers.{op}_calls.{cls.__name__}", getattr(cls, op)))
        for cls in (carriers.FiniteChain, carriers.ProductAlg):
            self._patch(cls, "elements", self.count("carriers.elements_listed", cls.elements,
                                                    outermost=True, amount=len))
        for attr in ("enumerate_ideals", "maximal_ideals"):
            self._span_patch((carriers, spectrum), attr, "carriers.ideals", outermost=True)
        self._span_patch((carriers, spectrum, cli), "radical", "carriers.radical", outermost=True)

        for attr in PL_OPS:
            self._span_patch((plfunc,), attr, "plfunc.op", outermost=True,
                             after=lambda r, a: add("plfunc.breakpoints_out", len(r.points)))
        for attr in ("increasing_approx", "isbell_reconstruct"):
            self._span_patch((plfunc,), attr, "plfunc.isbell", outermost=True)

        self._span_patch((spectrum,), "spectrum", "spectrum.spectrum")
        self._span_patch((spectrum,), "holder_hom", "spectrum.holder_hom",
                         after=lambda r, a: add("spectrum.homs", 1))
        self._span_patch((spectrum,), "eta", "spectrum.eta")

        self._span_patch((goodseq,), "enumerate_good_seqs", "goodseq.enumerate",
                         after=lambda r, a: add("goodseq.sequences", len(r)))
        self._span_patch((goodseq,), "gamma_of_xi", "goodseq.gamma")
        self._span_patch((goodseq,), "xi_chain_iso", "goodseq.chain_iso",
                         after=lambda r, a: add("goodseq.sequences", r.sequences))

        self._span_patch((cli,), "run", "cli.run",
                         on_error=lambda exc: add("cli.uncaught", isinstance(exc, Exception)))
        for command in CLI_COMMANDS:
            handler = cli._HANDLERS[command]
            self._undo.append((cli._HANDLERS, command, handler))
            cli._HANDLERS[command] = self.wrap(f"cli.{command}", handler)

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = old
            elif old is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    def end_op(self):
        """Call after each op, outside its timing."""
        self.counts["terms.expand_nodes"] += sum(map(tree_size, self._expanded))
        self._expanded.clear()

    def span(self, name, fn, *args):
        """Runs fn(*args) inside one span, outside any operation."""
        return self.wrap(name, fn)(*args)

    # --- results ------------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index\tname\tstart_ns\tend_ns\tparent\top\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\t{op}\n")

    def metrics(self, passes: int, op_names: list[str]) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per pass of the op list, from spans with an op."""
        self.end_op()
        total = defaultdict(int)
        self_ns = defaultdict(int)
        child_ns = defaultdict(int)
        for rec in self.spans:
            if rec[3] >= 0:
                child_ns[rec[3]] += rec[2] - rec[1]
        family_ms = defaultdict(list)
        for i, (name, start, end, _parent, op) in enumerate(self.spans):
            if op < 0:
                continue
            total[name] += end - start
            self_ns[name] += end - start - child_ns[i]
            if name == "decide.decide":
                family = op_names[op].split(":", 1)[1]
                if family in FAMILIES:
                    family_ms[family].append((end - start) / 1e6)

        def per_pass_s(ns):
            return ns / 1e9 / passes

        def per_pass(n):
            return n / passes

        c = self.counts
        out = {
            "terms.parse_s": (per_pass_s(total["terms.parse"]), "s"),
            "terms.expand_s": (per_pass_s(total["terms.expand"]), "s"),
            "terms.expand_nodes": (per_pass(c["terms.expand_nodes"]), "count"),
            "terms.free_vars_s": (per_pass_s(total["terms.free_vars"]), "s"),
            "terms.eval_calls": (per_pass(c["terms.eval.calls"]), "count"),
            "terms.eval_s": (per_pass_s(total["terms.eval"]), "s"),
            "rationals.q01_new": (per_pass(c["rationals.q01_new"]), "count"),
            "decide.decide_s": (per_pass_s(total["decide.decide"]), "s"),
            "decide.self_s": (per_pass_s(self_ns["decide.decide"]), "s"),
            "decide.valid": (per_pass(c["decide.valid"]), "count"),
            "decide.counterexample": (per_pass(c["decide.counterexample"]), "count"),
            "decide.limit_exceeded": (per_pass(c["decide.limit_exceeded"]), "count"),
            "decide.sample_s": (per_pass_s(total["decide.sample"]), "s"),
            "decide.sample_calls": (per_pass(c["decide.sample.calls"]), "count"),
        }
        for family in FAMILIES:
            samples = family_ms[family]
            out[f"decide.{family}_ms"] = (statistics.median(samples) if samples else 0.0, "ms")
        out.update({
            "linarith.feasible_calls": (per_pass(c["linarith.feasible.calls"]), "count"),
            "linarith.feasible_s": (per_pass_s(total["linarith.feasible"]), "s"),
            "linarith.feasible_sat": (per_pass(c["linarith.feasible_sat"]), "count"),
            "linarith.system_size_max": (c["linarith.system_size_max"], "count"),
            "linarith.budget_exceeded": (per_pass(c["linarith.budget_exceeded"]), "count"),
        })
        for op in ("oplus", "neg"):
            for cls in CARRIER_CLASSES:
                key = f"carriers.{op}_calls.{cls.__name__}"
                out[key] = (per_pass(c[key]), "count")
        out.update({
            "carriers.ideals_s": (per_pass_s(total["carriers.ideals"]), "s"),
            "carriers.radical_s": (per_pass_s(total["carriers.radical"]), "s"),
            "carriers.elements_listed": (per_pass(c["carriers.elements_listed"]), "count"),
            "plfunc.op_calls": (per_pass(c["plfunc.op.calls"]), "count"),
            "plfunc.op_s": (per_pass_s(total["plfunc.op"]), "s"),
            "plfunc.breakpoints_out": (per_pass(c["plfunc.breakpoints_out"]), "count"),
            "plfunc.isbell_s": (per_pass_s(total["plfunc.isbell"]), "s"),
            "spectrum.spectrum_s": (per_pass_s(total["spectrum.spectrum"]), "s"),
            "spectrum.holder_hom_s": (per_pass_s(total["spectrum.holder_hom"]), "s"),
            "spectrum.eta_s": (per_pass_s(total["spectrum.eta"]), "s"),
            "spectrum.homs": (per_pass(c["spectrum.homs"]), "count"),
            "goodseq.enumerate_s": (per_pass_s(total["goodseq.enumerate"]), "s"),
            "goodseq.sequences": (per_pass(c["goodseq.sequences"]), "count"),
            "goodseq.gamma_s": (per_pass_s(total["goodseq.gamma"]), "s"),
            "goodseq.chain_iso_s": (per_pass_s(total["goodseq.chain_iso"]), "s"),
        })
        for command in CLI_COMMANDS:
            out[f"cli.{command}_s"] = (per_pass_s(total[f"cli.{command}"]), "s")
        cli_self = self_ns["cli.run"] + sum(self_ns[f"cli.{cmd}"] for cmd in CLI_COMMANDS)
        out["cli.self_s"] = (per_pass_s(cli_self), "s")
        out["cli.uncaught"] = (per_pass(c["cli.uncaught"]), "count")
        build = [end - start for name, start, end, _p, _op in self.spans if name == "corpus.build"]
        out["corpus.build_s"] = (statistics.median(build) / 1e9 if build else 0.0, "s")
        return out
