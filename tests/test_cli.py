import io
import json

import pytest

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


def test_eval_unsupported_delta_is_an_error():
    code, _ = invoke("eval", "half(x)", "--carrier", "chain:2", "--assign", "x=1/2")
    assert code == 2


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


def test_byte_identical_reruns():
    for argv in [
        ("check", "oplus(x, x) = x"),
        ("gammaxi", "--chain", "3", "--bound", "3"),
        ("radical", "--carrier", "chain:4"),
    ]:
        assert invoke(*argv) == invoke(*argv)
