"""CLI surface: commands, formats, exit codes, output round-trips."""

import json
import sys
from fractions import Fraction

from oddharmonic import hyper
from oddharmonic.certificates import verify_odd_noninteger
from oddharmonic.cli import main
from oddharmonic.sums import STRICT_ODD, STRICT_STANDARD, harmonic_sum


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


def _per_n_sides(name, n, s, m, x, sign):
    """Both sides of one identity row, from the per-n library functions."""
    n = int(n)
    if name in ("powersum", "alt-powersum"):
        return hyper.odd_power_sum_identity(n, int(s), Fraction(x),
                                            -1 if name == "alt-powersum" else 1)
    if name in ("depth1", "depth1-standard"):
        s, sign = int(s), int(sign)
        spec, parity = ((STRICT_ODD, "odd") if name == "depth1"
                        else (STRICT_STANDARD, "standard"))
        return (hyper.harmonic_via_hyper(n, s, sign, parity=parity),
                harmonic_sum(spec, n, (sign * s,)))
    if name == "closed-form":
        return hyper.odd_harmonic_closed_form(n), harmonic_sum(STRICT_ODD, n, (1,))
    if name == "euler":
        return hyper.euler_binomial_harmonic(n), harmonic_sum(STRICT_STANDARD, n, (1,))
    if name == "blocks":
        return (hyper.consecutive_product_sum_via_hyper(int(m), n),
                hyper.consecutive_product_sum(int(m), n))
    if name == "blocks-depth1":
        return hyper.consecutive_product_sum(1, n), harmonic_sum(STRICT_ODD, n, (1,))
    raise AssertionError(f"no per-n function for {name}")


def test_identity_check_suites_small(capsys):
    xs = ("0", "-2/3", "5/4", "1")
    grids = {  # suite: (flags, expected row count)
        "powersum": (("--n-max", "7", "--s-max", "3", "--x-list", ",".join(xs)), 7 * 3 * 4),
        "alt-powersum": (("--n-max", "7", "--s-max", "3", "--x-list", ",".join(xs)),
                         7 * 3 * 4),
        "depth1": (("--n-max", "9", "--s-max", "3"), 9 * 3 * 2 * 2 + 50 * 2),
        "blocks": (("--n-max", "9", "--m-max", "4"), 9 * 4 + 9),
        "chu": (("--n-max", "4", "--count", "6"), 6 * 5),
        "inversion": (("--n-max", "5", "--m-max", "2", "--s-max", "2"),
                      2 * 2 * 5 + 2 * 5 + 8),
    }
    for suite, (extra, count) in grids.items():
        code, out, _ = run(capsys, "identity-check", suite, *extra)
        assert code == 0, suite
        lines = out.strip().splitlines()
        assert lines[0] == "suite,n,s,m,x,sign,lhs,rhs,equal"
        assert len(lines) == 1 + count, suite
        assert all(line.endswith("True") for line in lines[1:]), suite
        if suite in ("chu", "inversion"):
            continue
        # each row at n is the prefix of its series group at n
        rows = [line.split(",") for line in lines[1:]]
        for name, n, s, m, x, sign, lhs, rhs, _ in rows:
            assert ((Fraction(lhs), Fraction(rhs))
                    == _per_n_sides(name, n, s, m, x, sign)), (name, n, s, m, x, sign)
        if suite.endswith("powersum"):
            assert {(n, s, x) for _, n, s, _, x, *_ in rows} == {
                (str(n), str(s), x) for n in range(1, 8) for s in (1, 2, 3) for x in xs}


def test_identity_check_rejects_counts_below_one(capsys):
    for flag in ("--n-max", "--s-max", "--m-max", "--count"):
        for value in ("0", "-1"):
            code, out, err = run(capsys, "identity-check", "all", flag, value)
            assert code == 2, (flag, value)
            assert out == ""
            assert err.startswith("error:") and flag in err, err
    code, out, _ = run(capsys, "identity-check", "chu", "--n-max", "1", "--count", "1")
    assert code == 0 and len(out.strip().splitlines()) == 1 + 2


def test_identity_check_rejects_zero_denominator_x(capsys):
    for x_list in ("1/0", "1,2/0", "0/0"):
        code, out, err = run(capsys, "identity-check", "powersum", "--x-list", x_list)
        assert code == 2, x_list
        assert out == ""
        assert err.startswith("error:") and "zero denominator" in err, err
    code, _, err = run(capsys, "identity-check", "powersum", "--x-list", "1,x")
    assert code == 2 and err.startswith("error:")


def test_identity_check_depth1_small(capsys):
    code, out, _ = run(capsys, "identity-check", "depth1", "--n-max", "4", "--s-max", "2")
    assert code == 0
    assert all(line.endswith("True") for line in out.strip().splitlines()[1:])
