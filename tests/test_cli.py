"""CLI surface: commands, formats, exit codes, output round-trips."""

import json
import sys
from fractions import Fraction

from oddharmonic.certificates import verify_odd_noninteger
from oddharmonic.cli import main
from oddharmonic.sums import STRICT_ODD, harmonic_sum


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval(capsys):
    code, out, _ = run(capsys, "eval", "--odd", "--strict", "--n", "3", "--comp", "1")
    assert code == 0
    assert out.strip() == "23/15"


def test_eval_families_and_json(capsys):
    code, out, _ = run(capsys, "eval", "--star", "--odd", "--n", "2", "--comp", "1,1")
    assert (code, out.strip()) == (0, "13/9")
    code, out, _ = run(capsys, "eval", "--standard", "--n", "3", "--comp", "1,1")
    assert (code, out.strip()) == (0, "1")
    code, out, _ = run(capsys, "eval", "--n", "2", "--comp", "-1")
    assert (code, out.strip()) == (0, "2/3")
    code, out, _ = run(capsys, "eval", "--n", "3", "--comp", "1", "--format", "json")
    assert json.loads(out) == {"value": "23/15"}


def test_eval_output_reparses(capsys):
    for comp in ("1", "2,1", "1,1,2"):
        _, out, _ = run(capsys, "eval", "--n", "6", "--comp", comp)
        value = Fraction(out.strip())
        assert str(value) == out.strip()


def test_eval_usage_errors(capsys):
    code, _, err = run(capsys, "eval", "--n", "3", "--comp", "1,x")
    assert code == 2 and "composition" in err
    code, _, err = run(capsys, "eval", "--n", "2", "--comp", "1,1,1")
    assert code == 2
    code, _, err = run(capsys, "eval", "--n", "4", "--standard", "--comp", "1,-2")
    assert code == 2


def test_values_past_the_int_digit_limit(capsys):
    # Both outputs run past the interpreter's default 4300-digit limit on
    # int-to-decimal conversion; the CLI lifts it for the call only.
    limit = sys.get_int_max_str_digits()
    ones = (1,) * 12
    code, value_out, _ = run(capsys, "eval", "--n", "1000", "--comp", "6")
    assert code == 0
    code, cert_out, _ = run(capsys, "verify", "--n", "400",
                            "--comp", ",".join(map(str, ones)))
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    doc = json.loads(cert_out)
    assert doc["kind"] == "DepthBound"
    assert len(doc["bound"]) > 4300
    sys.set_int_max_str_digits(0)  # to parse the outputs back
    try:
        assert Fraction(value_out.strip()) == harmonic_sum(STRICT_ODD, 1000, (6,))
        assert Fraction(doc["bound"]) == verify_odd_noninteger(400, ones).bound
    finally:
        sys.set_int_max_str_digits(limit)


def test_verify_trivial_exception(capsys):
    code, out, _ = run(capsys, "verify", "--odd", "--n", "1", "--comp", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "TrivialInteger" and doc["rule_index"] == 0


def test_verify_window_case(capsys):
    code, out, _ = run(capsys, "verify", "--odd", "--n", "12", "--comp", "1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "WindowValuation"
    assert doc["prime"] == 11 and doc["valuation"] == -1


def test_verify_star(capsys):
    code, out, _ = run(capsys, "verify", "--star", "--n", "2", "--comp", "1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "StarValuation" and doc["valuation"] == -2


def test_verify_rejects_standard(capsys):
    code, _, err = run(capsys, "verify", "--standard", "--n", "3", "--comp", "1")
    assert code == 2


def test_sweep_deterministic_and_sound(capsys):
    args = ("sweep", "--n-min", "2", "--n-max", "5", "--weight-max", "4")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert out1 == out2
    lines = out1.strip().splitlines()
    docs = [json.loads(line) for line in lines]
    assert all(d["kind"] != "TrivialInteger" for d in docs)
    # graded-lex over compositions within each n
    first_n2 = [d["composition"] for d in docs if d["n"] == 2]
    assert first_n2[:4] == ["1", "2", "1,1", "3"]


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "nr", "--r-max", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,max_nonmember,n_r"
    assert lines[2] == "2,22,12"


def test_table_latex(capsys):
    code, out, _ = run(capsys, "table", "nr", "--r-max", "12", "--format", "latex")
    assert code == 0
    assert out.startswith(r"\begin{tabular}")
    assert "$n_r$ & 2 & 12 & 17 & 59" in out
    assert out.strip().endswith(r"\end{tabular}")


def test_bounds_quick(capsys):
    code, out, _ = run(capsys, "bounds", "--ones-max", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,composition,threshold,ok,value"
    assert all(line.split(",")[3] == "True" for line in lines[1:])
    assert any(line.startswith("12,1 2,") for line in lines)


def test_identity_check_suites_small(capsys):
    for suite, extra in (
        ("powersum", ("--n-max", "5", "--s-max", "2")),
        ("alt-powersum", ("--n-max", "5", "--s-max", "2")),
        ("chu", ("--n-max", "4", "--count", "6")),
        ("blocks", ("--n-max", "6", "--m-max", "3")),
        ("inversion", ("--n-max", "5", "--m-max", "2", "--s-max", "2")),
    ):
        code, out, _ = run(capsys, "identity-check", suite, *extra)
        assert code == 0, suite
        lines = out.strip().splitlines()
        assert lines[0] == "suite,n,s,m,x,sign,lhs,rhs,equal"
        assert len(lines) > 1
        assert all(line.endswith("True") for line in lines[1:]), suite


def test_identity_check_depth1_small(capsys):
    code, out, _ = run(capsys, "identity-check", "depth1", "--n-max", "4", "--s-max", "2")
    assert code == 0
    assert all(line.endswith("True") for line in out.strip().splitlines()[1:])
