import ast
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import mvdelta
from mvdelta.carriers import ProductAlg
from mvdelta.cli import run
from mvdelta.plfunc import from_json, pl_scale, pl_tent, save_plfunc, uniform_dist
from mvdelta.rationals import Q01


def invoke(*argv):
    out = io.StringIO()
    code = run(list(argv), out=out)
    return code, out.getvalue()


def test_check_valid_law():
    code, text = invoke("check", "oplus(half(x), half(x)) = x")
    assert code == 0
    assert text == "Valid\n"


def test_check_counterexample_and_replay():
    code, text = invoke("check", "oplus(x, x) = x")
    assert code == 1
    lines = text.strip().splitlines()
    assert lines[0] == "Counterexample:"
    assignment = {}
    sides = {}
    for line in lines[1:]:
        name, _, value = line.strip().partition(" = ")
        (sides if name in ("lhs", "rhs") else assignment)[name] = value
    # Replay through the eval subcommand reproduces both printed sides.
    assign_arg = ",".join(f"{k}={v}" for k, v in assignment.items())
    code, lhs_text = invoke(
        "eval", "oplus(x, x)", "--carrier", "q01", "--assign", assign_arg
    )
    assert code == 0 and lhs_text.strip() == sides["lhs"]
    code, rhs_text = invoke("eval", "x", "--carrier", "q01", "--assign", assign_arg)
    assert code == 0 and rhs_text.strip() == sides["rhs"]


def test_check_inequality_and_sample_only():
    code, _ = invoke("check", "x <= half(x)")
    assert code == 1
    code, text = invoke("check", "halfn(2, x) <= x", "--sample-only", "--trials", "64")
    assert code == 0
    assert "not a proof" in text


def test_check_budget_exceeded():
    code, text = invoke(
        "check", "oplus(oplus(oplus(x, y), z), w) = oplus(x, oplus(y, oplus(z, w)))",
        "--budget", "2",
    )
    assert code == 3
    assert "Budget exceeded" in text


def test_check_parse_error_exit_code():
    code, _ = invoke("check", "oplus(x = x")
    assert code == 2
    code, _ = invoke("eval", "3/2", "--carrier", "q01")
    assert code == 2
    code, _ = invoke("nonsense")
    assert code == 2


@pytest.mark.parametrize(
    "flag, value",
    [("--trials", "0"), ("--budget", "0"), ("--depth", "0"), ("--depth", "-1"), ("--seed", "-1")],
)
def test_check_rejects_out_of_range_options(flag, value):
    code, text = invoke("check", "x = x", flag, value)
    assert code == 2 and text == ""


@pytest.mark.parametrize("value", ["0", "-3"])
def test_axioms_rejects_nonpositive_trials(value):
    code, text = invoke("axioms", "--carrier", "q01", "--trials", value)
    assert code == 2 and text == ""


def test_eval_on_each_carrier():
    code, text = invoke(
        "eval", "oplus(x, y)", "--carrier", "chang", "--assign", "x=(0,2),y=(1,-5)"
    )
    assert code == 0 and text.strip() == "(1,-3)"
    code, text = invoke(
        "eval", "neg(x)", "--carrier", "chain:4", "--assign", "x=1/4"
    )
    assert code == 0 and text.strip() == "3/4"
    code, text = invoke(
        "eval",
        "meet(x, y)",
        "--carrier",
        "prod(chain:2,chain:3)",
        "--assign",
        "x=(1/2, 1/3),y=(1, 0)",
    )
    assert code == 0 and text.strip() == "(1/2, 0)"
    code, text = invoke(
        "eval", "half(x)", "--carrier", "pl", "--assign", 'x=[["0","0"],["1","1"]]'
    )
    assert code == 0 and json.loads(text) == [["0", "0"], ["1", "1/2"]]
    code, text = invoke("eval", "dist(1/3, 3/4)", "--carrier", "q01")
    assert code == 0 and text.strip() == "5/12"


def test_eval_pl_literal_uses_rational_syntax():
    code, text = invoke("eval", "x", "--carrier", "pl", "--assign", "x=1/2")
    assert code == 0 and json.loads(text) == [["0", "1/2"], ["1", "1/2"]]
    code, text = invoke("eval", "x", "--carrier", "pl", "--assign", "x=0.5")
    assert code == 2 and text == ""


def test_eval_unsupported_delta_is_an_error(capsys):
    code, _ = invoke("eval", "half(x)", "--carrier", "chain:2", "--assign", "x=1/2")
    assert code == 2
    capsys.readouterr()
    # delta(; x) is midpoint(x, x), which a chain refuses like any delta.
    code, text = invoke("eval", "delta(; x)", "--carrier", "chain:2", "--assign", "x=1/2")
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == "error: carrier chain:2 does not support delta\n"


def test_axioms_subcommand():
    code, text = invoke("axioms", "--carrier", "q01", "--trials", "20", "--seed", "3")
    assert code == 0
    assert text.strip().endswith("laws hold")
    assert "FAIL" not in text


def test_spectrum_deterministic_output():
    first = invoke("spectrum", "--algebra", "prod(chain:2,chain:3)")
    second = invoke("spectrum", "--algebra", "prod(chain:2,chain:3)")
    assert first == second
    code, text = first
    assert code == 0
    assert "maximal ideals: 2" in text
    code, text = invoke("spectrum", "--algebra", "prod(chain:2,chain:3)", "--json")
    assert code == 0
    payload = json.loads(text)
    assert payload["elements"] == 12 and len(payload["homs"]) == 2


@pytest.mark.parametrize("extra", [(), ("--json",)])
def test_spectrum_lists_the_algebra_once(monkeypatch, extra):
    calls = []
    listed = ProductAlg.elements

    def counted(self):
        calls.append(self.spec)
        return listed(self)

    monkeypatch.setattr(ProductAlg, "elements", counted)
    code, _ = invoke("spectrum", "--algebra", "prod(chain:2,chain:3)", *extra)
    assert code == 0
    assert len(calls) <= 1


def test_spectrum_chang_closed_form():
    code, text = invoke("spectrum", "--algebra", "chang")
    assert code == 0
    assert "closed form" in text and "injective: False" in text


def test_gammaxi_subcommand():
    code, text = invoke("gammaxi", "--chain", "2", "--bound", "4")
    assert code == 0
    assert "9 good sequences" in text
    assert "bijective: True" in text


def test_isbell_subcommand(tmp_path):
    target_path = tmp_path / "target.json"
    out_path = tmp_path / "out.json"
    save_plfunc(pl_tent(), target_path)
    code, text = invoke(
        "isbell", "--target", str(target_path), "--depth", "5", "--out", str(out_path)
    )
    assert code == 0
    assert "exact error" in text
    result = from_json(json.loads(out_path.read_text()))
    half_target = pl_scale(Q01(1, 2), pl_tent())
    assert uniform_dist(result, half_target) <= Q01(1, 32)


def test_radical_subcommand():
    code, text = invoke("radical", "--carrier", "chang")
    assert code == 0 and "{(0,k) : k >= 0}" in text
    code, text = invoke("radical", "--carrier", "chang", "--element", "(0,5)")
    assert code == 0 and "True" in text and "halving witness: none" in text
    code, text = invoke("radical", "--carrier", "chang", "--element", "(0,4)")
    assert code == 0 and "halving witness: (0,2)" in text
    code, text = invoke("radical", "--carrier", "chain:2", "--element", "1/2")
    assert code == 1 and "False" in text
    code, text = invoke("radical", "--carrier", "pl")
    assert code == 0 and "semisimple" in text


@pytest.mark.parametrize(
    "argv",
    [
        ("radical", "--carrier", "chain:3", "--element", "5"),
        ("radical", "--carrier", "pl", "--element", "0"),
    ],
    ids=["outside_unit_interval", "no_infinitesimal_test"],
)
def test_radical_usage_error_prints_nothing(capsys, argv):
    code, text = invoke(*argv)
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv, size",
    [
        (("spectrum", "--algebra", "prod(chain:100,chain:100,chain:100)"), 1030301),
        (("radical", "--carrier", "chain:100000"), 100001),
        (("gammaxi", "--chain", "3000", "--bound", "1"), 3001),
    ],
    ids=["spectrum_product", "radical_chain", "gammaxi_chain"],
)
def test_oversize_carrier_exits_on_the_table_budget(capsys, argv, size):
    start = time.perf_counter()
    code, text = invoke(*argv)
    assert time.perf_counter() - start < 1
    assert code == 3 and text == ""
    err = capsys.readouterr().err
    assert err.startswith("error: table budget exceeded: ") and len(err.splitlines()) == 1
    assert f"{size} elements" in err and "limit of 1024" in err


@pytest.mark.parametrize(
    "argv, what",
    [
        (("gammaxi", "--chain", "5", "--bound", "99999999999999999999"),
         "xi_chain_iso(5, 99999999999999999999) needs about 2.50e+81 steps"),
        (("gammaxi", "--chain", "1", "--bound", "200"), "xi_chain_iso(1, 200) needs about 1.63e+9 steps"),
        (("gammaxi", "--chain", "200", "--bound", "1"), "gamma_of_xi(chain:200) needs about 7.30e+7 steps"),
        # Refused on the lower bound |A|^2 (|A| + 1), before any table is built.
        (("gammaxi", "--chain", "1000", "--bound", "1"), "gamma_of_xi(chain:1000) needs about 1.00e+9 steps"),
    ],
    ids=["huge_bound", "long_sequences", "long_chain", "longer_chain"],
)
def test_oversize_gammaxi_exits_on_the_work_budget(capsys, argv, what):
    start = time.perf_counter()
    code, text = invoke(*argv)
    assert time.perf_counter() - start < 1
    assert code == 3 and text == ""
    err = capsys.readouterr().err
    assert err == f"error: work budget exceeded: {what}, over the limit of 10000000\n"


def test_byte_identical_reruns():
    for argv in [
        ("check", "oplus(x, x) = x"),
        ("gammaxi", "--chain", "3", "--bound", "3"),
        ("radical", "--carrier", "chain:4"),
    ]:
        assert invoke(*argv) == invoke(*argv)


@pytest.mark.parametrize("depth", [1200, 100000], ids=["neg1200", "neg100000"])
def test_deep_nesting_evaluates(depth):
    # An even number of negations gives back x.
    term = "neg(" * depth + "x" + ")" * depth
    assert invoke("eval", term, "--carrier", "q01", "--assign", "x=1/3") == (0, "1/3\n")


def test_deep_nesting_decides():
    assert invoke("check", "neg(" * 10000 + "x" + ")" * 10000 + " = x") == (0, "Valid\n")


def test_no_module_names_recursion_error():
    # Nothing in the package recurses on its input, so no exit path
    # depends on the interpreter's recursion limit.
    src = Path(mvdelta.__file__).parent
    names = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Name) and node.id == "RecursionError"
    ]
    assert names == []


def _deep_json(depth: int) -> str:
    return "[" * depth + "]" * depth


@pytest.mark.parametrize("depth", [65, 100000])
def test_deep_json_element_is_a_usage_error(capsys, depth):
    code, text = invoke("eval", "x", "--carrier", "pl", "--assign", "x=" + _deep_json(depth))
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert err == f"error: breakpoint 0: JSON nested {depth} deep, over the limit of 64\n"


def test_deep_json_target_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "deep.json"
    target.write_text(_deep_json(100000), encoding="utf-8")
    code, text = invoke("isbell", "--target", str(target), "--depth", "3", "--out", str(tmp_path / "out.json"))
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert err == "error: breakpoint 0: JSON nested 100000 deep, over the limit of 64\n"
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize(
    "assign, message",
    [
        ('x=[["[","0"],["1","1"]]', "breakpoint 0: malformed rational '['"),
        ('x=[["0",")"],["1","1"]]', "breakpoint 0: malformed rational ')'"),
        ('x=[["0","0"],["1","]],[1"]]', "breakpoint 1: malformed rational ']],[1'"),
        ('x=[["0","\\"]"],["1","1"]]', "breakpoint 0: malformed rational '\"]'"),
    ],
    ids=["open_bracket", "close_paren", "comma", "escaped_quote"],
)
def test_assign_split_skips_json_strings(capsys, assign, message):
    # Brackets and commas inside a JSON string neither nest nor split.
    code, text = invoke("eval", "oplus(x, y)", "--carrier", "pl", "--assign", assign + ",y=0")
    assert code == 2 and text == ""
    assert capsys.readouterr().err == f"error: {message}\n"


def _nested_prod(depth: int) -> str:
    return "prod(" * depth + "chain:1" + ")" * depth


def test_carrier_spec_nested_to_the_limit_answers():
    spec = _nested_prod(64)
    one = "(" * 64 + "1" + ")" * 64
    assert invoke("eval", "neg(0)", "--carrier", spec) == (0, one + "\n")
    code, text = invoke("spectrum", "--algebra", spec)
    assert code == 0 and "maximal ideals: 1\n" in text
    code, text = invoke("radical", "--carrier", spec)
    assert code == 0 and text.startswith(f"Rad({spec}) = ")


@pytest.mark.parametrize("argv", [("eval", "neg(0)", "--carrier"), ("spectrum", "--algebra"), ("radical", "--carrier")])
def test_carrier_spec_nested_past_the_limit_is_refused(capsys, argv):
    assert invoke(*argv, _nested_prod(65)) == (2, "")
    assert capsys.readouterr().err == "error: carrier spec nested 65 deep, over the limit of 64\n"


@pytest.mark.parametrize(
    "term, x, value",
    [("nfold(3000, x)", "1/3", "1"), ("nfold(100000000, x)", "1/300000000", "1/3")],
    ids=["nfold3000", "nfold100000000"],
)
def test_counted_nodes_answer_at_any_count(term, x, value):
    code, text = invoke("eval", term, "--carrier", "q01", "--assign", f"x={x}")
    assert code == 0 and text == value + "\n"


@pytest.mark.parametrize(
    "equation",
    ["x <= nfold(100000, x)", "nfold(300, half(x)) <= nfold(300, x)"],
    ids=["x_below_nfold100000", "nfold300_half"],
)
def test_check_decides_counted_nodes_at_any_count(equation):
    assert invoke("check", equation) == (0, "Valid\n")


def test_huge_halving_ends_in_one_error_line(capsys):
    # 1/(3 * 2^100000) is computed, but its denominator has more digits
    # than Python prints by default.
    code, text = invoke("eval", "halfn(100000, x)", "--carrier", "q01", "--assign", "x=1/3")
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert str(sys.get_int_max_str_digits()) in err and "sys." not in err
    code, text = invoke("eval", "halfn(100000, x)", "--carrier", "q01", "--assign", "x=0")
    assert code == 0 and text == "0\n"


@pytest.mark.parametrize(
    "argv",
    [("check", "halfn(20000, x) = 0"), ("check", "x = 0", "--depth", "20000")],
    ids=["halfn20000", "depth20000"],
)
def test_huge_counterexample_ends_in_one_error_line(capsys, argv):
    # The counterexample is found, but one of its values has more digits
    # than Python prints by default: nothing of it reaches stdout.
    code, text = invoke(*argv)
    assert code == 2 and text == ""
    limit = sys.get_int_max_str_digits()
    err = f"error: value too long to print (a number of over {limit} digits)\n"
    assert capsys.readouterr().err == err


def test_gammaxi_rejects_negative_bound():
    code, text = invoke("gammaxi", "--chain", "2", "--bound", "-3")
    assert code == 2 and text == ""


@pytest.mark.parametrize("chain", ["0", "-2"])
def test_gammaxi_rejects_a_chain_below_one_before_any_round_trip(capsys, monkeypatch, chain):
    from mvdelta import goodseq

    def refuse(*args):
        raise AssertionError("round trip run on an invalid chain")

    monkeypatch.setattr(goodseq, "gamma_of_xi", refuse)
    monkeypatch.setattr(goodseq, "xi_chain_iso", refuse)
    code, text = invoke("gammaxi", "--chain", chain, "--bound", "1")
    assert code == 2 and text == ""
    assert f"argument --chain: must be >= 1, got {chain}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, name",
    [
        (("eval", "x", "--carrier", "q01"), "x"),
        (("eval", "oplus(x,y)", "--carrier", "q01", "--assign", "x=1/2"), "y"),
    ],
    ids=["no_assignment", "partial_assignment"],
)
def test_unbound_variable_is_a_usage_error(capsys, argv, name):
    code, text = invoke(*argv)
    assert code == 2 and text == ""
    assert capsys.readouterr().err == f"error: unbound variable {name!r}\n"


@pytest.mark.parametrize("assign", ["x=1/2,x=1/3", "x=1/2, x =1/3", "y=0,x=1/2,x=1/2"])
def test_repeated_assignment_is_a_usage_error(capsys, assign):
    code, text = invoke("eval", "x", "--carrier", "q01", "--assign", assign)
    assert code == 2 and text == ""
    assert capsys.readouterr().err == "error: variable 'x' is assigned twice\n"


def fresh(*args):
    """Run ``python *args`` in a new interpreter that imports this mvdelta."""
    src = str(Path(mvdelta.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)


def test_one_process_gives_the_output_of_fresh_runs(capsys):
    # The parser is built once per process; each invocation must still
    # print what a new process prints.
    calls = [
        ("eval", "oplus(x, y)", "--carrier"),
        ("eval", "oplus(x,neg(x))", "--carrier", "q01"),
        ("check", "oplus(x, x) = x"),
        ("eval", "oplus(x, y)", "--carrier"),
    ]
    for argv in calls:
        code, text = invoke(*argv)
        err = capsys.readouterr().err
        done = fresh("-m", "mvdelta.cli", *argv)
        assert (code, text, err) == (done.returncode, done.stdout, done.stderr), argv


# In-process tests import every module, so only a new interpreter shows
# what importing the CLI and running one subcommand load.
_LOADED = "import sys; {}; print(*sorted(m for m in sys.modules if m.startswith('mvdelta')))"


def test_importing_the_cli_loads_only_what_every_subcommand_runs():
    done = fresh("-c", _LOADED.format("import mvdelta.cli"))
    assert done.stdout.split() == [
        "mvdelta", "mvdelta.carriers", "mvdelta.cli", "mvdelta.rationals", "mvdelta.terms",
    ]


@pytest.mark.parametrize(
    "argv, output, unloaded",
    [
        (("eval", "x", "--carrier", "q01", "--assign", "x=1/2"), "1/2",
         ("decide", "linarith", "goodseq", "plfunc", "spectrum", "corpus")),
        (("spectrum", "--algebra", "chain:2"), "basis of closed sets: {}, {m1}",
         ("decide", "linarith", "goodseq", "plfunc", "corpus")),
    ],
    ids=["eval", "spectrum"],
)
def test_a_subcommand_loads_only_what_it_runs(argv, output, unloaded):
    done = fresh("-c", _LOADED.format("from mvdelta.cli import run; run(sys.argv[1:])"), *argv)
    *lines, loaded = done.stdout.splitlines()
    assert lines[-1] == output
    assert not {f"mvdelta.{name}" for name in unloaded} & set(loaded.split())


@pytest.mark.parametrize(
    "argv, message",
    [
        (("gammaxi", "--chain", "1000", "--bound", "1"),
         "work budget exceeded: gamma_of_xi(chain:1000) needs about 1.00e+9 steps, "
         "over the limit of 10000000"),
        (("spectrum", "--algebra", "chain:2000"),
         "table budget exceeded: chain:2000 has 2001 elements, over the limit of 1024 "
         "(1048576 table entries)"),
        (("isbell", "--target", "{tmp}/tent.json", "--depth", "2000", "--out", "{tmp}/out.json"),
         "work budget exceeded: isbell at depth 2000 on 3 breakpoints needs about 2.50e+10 steps, "
         "over the limit of 5000000000"),
    ],
    ids=["gammaxi", "spectrum", "isbell"],
)
def test_budgets_exit_3_in_a_fresh_process(tmp_path, argv, message):
    save_plfunc(pl_tent(), str(tmp_path / "tent.json"))
    done = fresh("-m", "mvdelta.cli", *(a.replace("{tmp}", str(tmp_path)) for a in argv))
    assert (done.returncode, done.stdout, done.stderr) == (3, "", f"error: {message}\n")
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize(
    "depth, estimate", [(1158, "5.01e+9"), (100000, "3.00e+15")], ids=["just_over", "huge"]
)
def test_oversize_isbell_exits_on_the_work_budget(capsys, tmp_path, depth, estimate):
    target, out = str(tmp_path / "tent.json"), str(tmp_path / "out.json")
    save_plfunc(pl_tent(), target)
    start = time.perf_counter()
    code, text = invoke("isbell", "--target", target, "--depth", str(depth), "--out", out)
    assert time.perf_counter() - start < 1
    assert code == 3 and text == ""
    assert capsys.readouterr().err == (
        f"error: work budget exceeded: isbell at depth {depth} on 3 breakpoints needs about "
        f"{estimate} steps, over the limit of 5000000000\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "x", "--carrier", "chain:2", "--assign", "x=1/2\n"),
        ("eval", "x", "--carrier", "q01", "--assign", "x=١/٢"),
        ("eval", "nfold(٣, x)", "--carrier", "q01", "--assign", "x=1/2"),
        ("eval", "1", "--carrier", "chain:٣"),
        ("eval", "1", "--carrier", "chain: 3"),
        ("eval", "1", "--carrier", "chain:+3"),
        ("eval", "1", "--carrier", "chain:3_0"),
        ("eval", "x", "--carrier", "chang", "--assign", "x=(0,+2)"),
        ("eval", "x", "--carrier", "prod(chain:1,chain:2)", "--assign", "x=(1,1/2\n)"),
        ("eval", "1 / 2", "--carrier", "q01"),
        ("eval", "1/ 2", "--carrier", "q01"),
        ("eval", "1 /2", "--carrier", "q01"),
        ("check", "oplus(x, 1 / 2) = x"),
    ],
    ids=["trailing_newline", "arabic_digits", "arabic_count", "arabic_chain", "spaced_chain",
         "signed_chain", "underscored_chain", "signed_chang", "newline_in_product",
         "spaced_rational", "spaced_rational_denominator", "spaced_rational_numerator",
         "spaced_rational_in_check"],
)
def test_literals_take_ascii_digits_only(capsys, argv):
    code, text = invoke(*argv)
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# An invocation for each integer option, the option's value to come last.
INT_OPTIONS = {
    "check_trials": ("check", "x = x", "--trials"),
    "check_seed": ("check", "x = x", "--seed"),
    "check_budget": ("check", "x = x", "--budget"),
    "check_depth": ("check", "x = x", "--depth"),
    "axioms_trials": ("axioms", "--carrier", "chain:2", "--trials"),
    "axioms_seed": ("axioms", "--carrier", "chain:2", "--seed"),
    "gammaxi_chain": ("gammaxi", "--bound", "1", "--chain"),
    "gammaxi_bound": ("gammaxi", "--chain", "3", "--bound"),
    "isbell_depth": ("isbell", "--target", "t.json", "--out", "o.json", "--depth"),
}


@pytest.mark.parametrize("prefix", INT_OPTIONS.values(), ids=INT_OPTIONS.keys())
@pytest.mark.parametrize(
    "text", ["٣", " 1", "1 ", "1_0", "+1"],
    ids=["arabic_digit", "leading_space", "trailing_space", "underscore", "plus_sign"],
)
def test_integer_options_take_ascii_digits_only(capsys, prefix, text):
    code, out = invoke(*prefix, text)
    assert code == 2 and out == ""
    assert f"not an integer in ASCII digits: {text!r}" in capsys.readouterr().err
