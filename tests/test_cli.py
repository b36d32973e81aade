"""CLI behaviour: measures, formats, exit codes, determinism."""

import contextlib
import functools
import io
import json
import re
from fractions import Fraction as F
from pathlib import Path

import pytest

from simulgame import analysis, cli, gexpr
from simulgame.engine import Memo
from simulgame.errors import LoopyGame
from simulgame.verify import ACCEPTANCE_POSITIONS, build_checks

SCHEMA = Path(__file__).resolve().parent.parent / "docs" / "cli-schema.json"
VERIFY_PINS = Path(__file__).resolve().parent / "data" / "verify_pins.json"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_ex_default(capsys):
    code, out, _ = run(capsys, "eval", "sq{1}{2}(3)")
    assert code == 0 and out.strip() == "1/2"


def test_eval_scoring_mixed_sum(capsys):
    code, out, _ = run(
        capsys, "eval", "cl[OXO] ^ sq'{1}{2}(4) ^ hb[R]", "--convention", "scoring"
    )
    assert code == 0 and out.strip() == "-1"


def test_eval_outcome_of_score_literal(capsys):
    code, out, _ = run(capsys, "eval", "s(0)", "--measure", "outcome")
    assert code == 0 and out.strip() == "D"


def test_eval_index(capsys):
    code, out, _ = run(capsys, "eval", "sq{1}{2}(3)", "--measure", "index")
    assert code == 0 and out.strip() == "[1/2, 0]"


def test_eval_score_measure_ignores_convention(capsys):
    code, out, _ = run(capsys, "eval", "hb[BB]", "--measure", "score")
    assert code == 0 and out.strip() == "2"


def test_eval_matrix_json(capsys):
    code, out, _ = run(
        capsys, "eval", "sq{1}{2}(3)", "--measure", "matrix", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == ["1l", "1r"]
    assert payload["cols"] == ["2l", "2r"]
    assert payload["ex"] == [["1", "0"], ["0", "1"]]


def test_eval_strategies_json(capsys):
    code, out, _ = run(
        capsys, "eval", "sq{1}{2}(3)", "--measure", "strategies", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["value"] == "1/2"
    assert payload["left_mix"] == {"1l": "1/2", "1r": "1/2"}


def test_eval_decimal_rounding(capsys):
    code, out, _ = run(capsys, "eval", "sq{1}{2}(5)", "--decimal", "2")
    assert out.strip() == "0.25"
    code, out, _ = run(capsys, "eval", "s(0)", "--decimal", "3")
    assert out.strip() == "0.000"


def test_eval_decimal_zero_prints_plain_digits(capsys):
    code, out, _ = run(capsys, "eval", "s(0)", "--decimal", "8")
    assert code == 0 and out == "0.00000000\n"
    code, out, _ = run(capsys, "eval", "s(0)", "--decimal", "8", "--format", "json")
    value = json.loads(out)["value"]
    rational = json.loads(SCHEMA.read_text())["$defs"]["rational"]["pattern"]
    assert value == "0.00000000" and re.search(rational, value)


def test_decimal_beyond_sixty_digits(capsys):
    code, out, _ = run(capsys, "eval", "sq{1}{2}(3)", "--decimal", "70")
    assert code == 0 and out == "0.5" + "0" * 69 + "\n"
    code, out, _ = run(capsys, "table", "sq{1}{2}", "--n-max", "2", "--decimal", "70")
    assert code == 0
    rows = [line.split("  ") for line in out.splitlines()[1:]]
    assert [row[0] for row in rows] == ["0", "1", "2"]
    assert all(len(v.split(".")[1]) == 70 for row in rows for v in row[1:])


def test_fmt_rational_rounds_exactly():
    # Rounding through a 60-digit decimal would give 2 and 0.2 for the first
    # two: the tiny terms decide the result only when rounding is exact.
    assert cli._fmt_rational(F(3, 2) - F(1, 10**65), 0) == "1"
    assert cli._fmt_rational(F(1, 4) + F(1, 10**70), 1) == "0.3"
    assert cli._fmt_rational(F(-1, 2), 0) == "0"
    assert cli._fmt_rational(F(-1, 2), 2) == "-0.50"
    assert cli._fmt_rational(F(-1, 3), 3) == "-0.333"


def test_eval_csv(capsys):
    code, out, _ = run(capsys, "eval", "sq{1}{2}(3)", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "measure,value"
    assert out.splitlines()[1] == "ex,1/2"


def test_eval_deterministic_bytes(capsys):
    _, first, _ = run(capsys, "eval", "cl:K4", "--convention", "scoring", "--format", "json")
    _, second, _ = run(capsys, "eval", "cl:K4", "--convention", "scoring", "--format", "json")
    assert first == second


def test_eval_parse_error_exit_2(capsys):
    code, out, err = run(capsys, "eval", "sq{1}{2)")
    assert code == 2
    assert "^" in err and "offset 7" in err


def test_eval_mixed_operator_exit_2(capsys):
    code, _, err = run(capsys, "eval", "s(1) + s(2) ^ s(3)")
    assert code == 2 and "parenthesize" in err


def test_eval_unknown_builtin_exit_2(capsys):
    code, _, err = run(capsys, "eval", "hb:nothere")
    assert code == 2


def test_eval_builder_rejection_exit_2(capsys):
    code, out, err = run(capsys, "eval", "cl:K1")
    assert code == 2 and out == ""
    assert err == "parse error: complete-graph clobber needs n >= 2\n"


# A syntax error anywhere wins over a bad literal, and the first bad literal
# read wins over later ones.
def test_eval_syntax_error_before_bad_literal(capsys):
    code, out, err = run(capsys, "eval", "cl:K1 +")
    assert code == 2 and out == "" and "offset 7" in err
    assert err.splitlines()[1:] == ["    cl:K1 +", "    " + " " * 7 + "^"]
    code, out, err = run(capsys, "eval", "hb cordon(0; ) +")
    assert code == 2 and out == "" and "offset 16" in err
    code, out, err = run(capsys, "eval", "cl:K1 + s(1) ^ s(2)")
    assert code == 2 and "parenthesize" in err


def test_eval_trailing_whitespace(capsys):
    for tail in (" ", "\t", "\n"):
        code, out, err = run(capsys, "eval", "s(1)" + tail, "--convention", "scoring")
        assert (code, out, err) == (0, "1\n", "")


def test_eval_bad_outcome_letter_caret(capsys):
    code, out, err = run(capsys, "eval", "o(X)")
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "parse error: unexpected 'X' at offset 2; expected one of ['D', 'L', 'R']",
        "    o(X)",
        "      ^",
    ]


def test_eval_nesting_bound(capsys):
    ok = "(" * 99 + "s(1)" + ")" * 99
    assert run(capsys, "eval", ok, "--convention", "scoring")[:2] == (0, "1\n")
    for depth in (100, 600):
        text = "(" * depth + "s(1)" + ")" * depth
        code, out, err = run(capsys, "eval", text)
        assert code == 2 and out == "" and "Traceback" not in err
        assert err.startswith("parse error: nesting deeper than 100 levels at offset 100\n")
        assert err.splitlines()[2] == "    " + " " * 100 + "^"


def test_eval_deepest_explicit_game(capsys):
    text = "s(0)"
    for _ in range(99):
        text = f"x{{L:[{text}] | R:[s(0)] | LR:[[s(0)]]}}"
    assert run(capsys, "eval", text)[:2] == (0, "0\n")
    assert run(capsys, "eval", text, "--measure", "index")[:2] == (0, "[0, 0]\n")


def test_eval_long_one_sided_chain(capsys):
    # The move-count score walks a chain of 1500 strips without recursing.
    code, out, err = run(capsys, "eval", "sq{1}{2000}(1500)", "--convention", "scoring")
    assert (code, out, err) == (0, "1500\n", "")


def test_eval_deep_strips(capsys):
    # The engine walks a 1500-move strip on an explicit stack.
    code, out, err = run(capsys, "eval", "sq{1}{2}(1500)")
    assert (code, out, err) == (0, f"{analysis.sq12_closed_form(1500)}\n", "")
    code, out, err = run(capsys, "eval", "sq{1}{2}(700)", "--measure", "index")
    assert code == 0 and err == ""
    assert out == f"[{analysis.sq12_closed_form(700)}, 0]\n"


def test_eval_first_bad_literal_wins(capsys):
    code, out, err = run(capsys, "eval", "sq{0}{2}(3) + cl:K1")
    assert code == 2 and out == ""
    assert err == "parse error: subtraction amounts must be positive\n"


@pytest.mark.parametrize(
    "expr",
    [
        "x{L:[s(0) s(1)] | R:[s(0)] | LR:[[s(0)] [s(0)]]}",
        "x{L:[s(0),] | R:[s(0)] | LR:[[s(0)]]}",
        "x{L:[s(0), s(1)] | R:[s(0)] | LR:[[s(0)] [s(0)]]}",
        "hb cordon(3; 1B 2R)",
    ],
)
def test_eval_lists_take_one_comma_between_items(capsys, expr):
    code, out, err = run(capsys, "eval", expr)
    assert code == 2 and out == "" and err.startswith("parse error: ")
    assert err.splitlines()[-1].strip() == "^"


# Exact stdout of every measure in text and CSV, for a sum with a mixed root
# and for a terminal position.
LAYOUT = {
    ("sq{1}{2}(3) + hb[R]", "ex", "text"): "-1/2\n",
    ("sq{1}{2}(3) + hb[R]", "ex", "csv"): "measure,value\r\nex,-1/2\r\n",
    ("sq{1}{2}(3) + hb[R]", "index", "text"): "[0, 1/2]\n",
    ("sq{1}{2}(3) + hb[R]", "index", "csv"): "ell,arr\r\n0,1/2\r\n",
    ("sq{1}{2}(3) + hb[R]", "outcome", "text"): "R\n",
    ("sq{1}{2}(3) + hb[R]", "outcome", "csv"): "measure,value\r\noutcome,R\r\n",
    ("sq{1}{2}(3) + hb[R]", "score", "text"): "-1/2\n",
    ("sq{1}{2}(3) + hb[R]", "score", "csv"): "measure,value\r\nscore,-1/2\r\n",
    ("sq{1}{2}(3) + hb[R]", "matrix", "text"): (
        "     0:e0  1:2l  1:2r\n1:1l  0  0  -1\n1:1r  0  -1  0\n"
    ),
    ("sq{1}{2}(3) + hb[R]", "matrix", "csv"): (
        ",0:e0,1:2l,1:2r\r\n1:1l,0,0,-1\r\n1:1r,0,-1,0\r\n"
    ),
    ("sq{1}{2}(3) + hb[R]", "strategies", "text"): (
        "value -1/2\nleft  1:1l:1/2  1:1r:1/2\nright 0:e0:0  1:2l:1/2  1:2r:1/2\n"
    ),
    ("sq{1}{2}(3) + hb[R]", "strategies", "csv"): (
        "kind,label,value\r\nvalue,,-1/2\r\nleft,1:1l,1/2\r\nleft,1:1r,1/2\r\n"
        "right,0:e0,0\r\nright,1:2l,1/2\r\nright,1:2r,1/2\r\n"
    ),
    ("s(2)", "ex", "text"): "0\n",
    ("s(2)", "ex", "csv"): "measure,value\r\nex,0\r\n",
    ("s(2)", "index", "text"): "[0, 0]\n",
    ("s(2)", "index", "csv"): "ell,arr\r\n0,0\r\n",
    ("s(2)", "outcome", "text"): "D\n",
    ("s(2)", "outcome", "csv"): "measure,value\r\noutcome,D\r\n",
    ("s(2)", "score", "text"): "2\n",
    ("s(2)", "score", "csv"): "measure,value\r\nscore,2\r\n",
    ("s(2)", "matrix", "text"): "  \n",
    ("s(2)", "matrix", "csv"): '""\r\n',
    ("s(2)", "strategies", "text"): "value 0\nleft  \nright \n",
    ("s(2)", "strategies", "csv"): "kind,label,value\r\nvalue,,0\r\n",
}


@pytest.mark.parametrize("expr, measure, fmt", list(LAYOUT))
def test_eval_text_and_csv_layout(capsys, expr, measure, fmt):
    code, out, _ = run(capsys, "eval", expr, "--measure", measure, "--format", fmt)
    assert code == 0 and out == LAYOUT[expr, measure, fmt]


def test_eval_evaluation_error_exit_3(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise LoopyGame("cycle")

    monkeypatch.setattr(cli, "evaluate", boom)
    code, _, err = run(capsys, "eval", "s(0)")
    assert code == 3 and "evaluation error" in err


def test_table_evaluation_error_exit_3(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise LoopyGame("cycle")

    monkeypatch.setattr(cli, "evaluate", boom)
    code, out, err = run(capsys, "table", "sq{1}{2}", "--n-max", "3")
    assert code == 3 and out == "" and err == "evaluation error: cycle\n"


def test_reduce_size_limit_exit_3(capsys):
    # The reduced sq{1}{2}(18) would print about two billion characters and
    # sq{1}{2}(40) about 1.2e20, so the second ends only because the
    # renderer stops writing at its bound.
    for text in ("sq{1}{2}(18)", "sq{1}{2}(40)"):
        code, out, err = run(capsys, "reduce", text)
        assert (code, out) == (3, "")
        assert err == "evaluation error: the game's text runs past 1000000 characters\n"


def test_reduce_deep_strip_meets_the_size_limit(capsys):
    # 400 moves deep: the reduction walks bottom up, so neither it nor the
    # engine under it recurses once per level, and the text bound decides.
    code, out, err = run(capsys, "reduce", "sq{1}{1}(400)")
    assert (code, out) == (3, "")
    assert err == "evaluation error: the game's text runs past 1000000 characters\n"


def test_reduce_size_limit_at_its_edge(capsys, monkeypatch):
    # The reduced sq{1}{2}(6) runs to exactly 3825 characters.
    monkeypatch.setattr(gexpr, "MAX_TEXT", 3825)
    code, out, err = run(capsys, "reduce", "sq{1}{2}(6)")
    assert code == 0 and err == "" and len(out.splitlines()[0]) == 3825
    monkeypatch.setattr(gexpr, "MAX_TEXT", 3824)
    code, out, err = run(capsys, "reduce", "sq{1}{2}(6)")
    assert code == 3 and out == ""
    assert err == "evaluation error: the game's text runs past 3824 characters\n"


def test_table_syntax_error_caret_under_family(capsys):
    code, out, err = run(capsys, "table", "sq{1}{2")
    assert code == 2 and out == ""
    assert err.splitlines()[1:] == ["    sq{1}{2", "           ^"]


def test_table_values(capsys):
    code, out, _ = run(capsys, "table", "sq{1}{2}", "--n-max", "5", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,ex,ell,arr"
    assert lines[1 + 3].startswith("3,1/2,1/2,0")
    assert lines[1].startswith("0,0,0,0")


def test_table_limit_row(capsys):
    code, out, _ = run(capsys, "table", "sq{1}{2}", "--n-max", "20", "--format", "json")
    payload = json.loads(out)
    row = payload["rows"][20]
    from fractions import Fraction

    assert abs(Fraction(row["ex"]) - Fraction(2, 5)) < Fraction(1, 1000)


def test_table_rejects_other_families(capsys):
    code, _, err = run(capsys, "table", "hb[BR]")
    assert code == 2
    # Families that parse to a sum, not to a strip.
    for family in ("s(1) + sq{1}{2}", "hb[B] + sq{1}{2}"):
        code, out, err = run(capsys, "table", family)
        assert (code, out) == (2, "")
        assert err == "table supports the subtraction-strip family only, e.g. sq{1}{2}\n"
    # Strip families that parse but that the strip builder rejects.
    for family in ("sq{0}{2}", "sq{1}{1,0}"):
        code, out, err = run(capsys, "table", family)
        assert code == 2 and out == "" and err.startswith("parse error: ")


def test_negative_decimal_rejected(capsys):
    for argv in (
        ("eval", "sq{1}{2}(3)", "--decimal", "-1"),
        ("table", "sq{1}{2}", "--decimal", "-1"),
        ("table", "sq{1}{2}", "--n-max", "-3"),
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and argv[-2] in captured.err


def test_verify_paper_json(capsys):
    code, out, _ = run(capsys, "verify", "paper", "--format", "json")
    payload = json.loads(out)
    checks = {r["id"]: r for r in payload["checks"]}
    assert checks["table5-scoring-conj"]["expected"] == "-1"
    assert checks["table5-scoring-conj"]["status"] == "pass"
    assert checks["kn-clobber-4"]["expected"] == "1"
    assert checks["kn-clobber-4"]["status"] == "pass"
    for record in payload["checks"]:
        assert set(record) == {"id", "expected", "actual", "status"}
        assert record["status"] in ("pass", "fail", "error")
    # Two published figures do not survive exact recomputation; they are
    # kept in the manifest with their published expectations and fail.
    failing = sorted(r["id"] for r in payload["checks"] if r["status"] != "pass")
    assert failing == sorted(c.id for c in build_checks(Memo()) if c.known_discrepancy)
    assert failing == ["sqp-wedge-5-6", "table5-scoring-plus"]
    assert code == 1
    assert payload["failed"] == 2


def test_verify_text_format_and_all_suite(capsys):
    code, out, _ = run(capsys, "verify", "properties")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("[PASS") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")
    code, out = _verify_all_json()
    payload = json.loads(out)
    assert code == 1 and payload["failed"] == 2
    assert payload["passed"] + payload["failed"] == len(payload["checks"])


@functools.cache
def _verify_all_json():
    """Exit code and stdout of one ``verify all --format json`` run, which
    takes about a second, shared by the tests that read it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "all", "--format", "json"])
    return code, out.getvalue()


def test_verify_all_reproduces_pins():
    # Every record of the manifest, as printed: id, expected, actual, status.
    _, out = _verify_all_json()
    assert json.loads(out)["checks"] == json.loads(VERIFY_PINS.read_text())["checks"]


def test_verify_records_in_manifest_order(capsys):
    _, first, _ = run(capsys, "verify", "paper", "--format", "json")
    _, second, _ = run(capsys, "verify", "paper", "--format", "json")
    assert first == second


def test_verify_reports_a_failing_stalk_formula_as_error(capsys, monkeypatch):
    def boom(colors):
        raise RuntimeError("formula bug")

    monkeypatch.setattr(analysis, "stalk_score_formula", boom)
    _, out, _ = run(capsys, "verify", "paper", "--format", "json")
    checks = {r["id"]: r for r in json.loads(out)["checks"]}
    assert checks["hb-stalk-theorem-upto-7"]["status"] == "error"
    assert checks["hb-stalk-theorem-upto-7"]["actual"] == "RuntimeError: formula bug"


def test_reduce_terminal_unchanged(capsys):
    code, out, _ = run(capsys, "reduce", "s(3)")
    assert code == 0
    assert out.splitlines()[0] == "s(3)"


def test_reduce_stalk_keeps_top_row(capsys):
    code, out, _ = run(capsys, "reduce", "hb[BRB]", "--convention", "scoring")
    assert code == 0
    assert "ex 1" in out
    assert "unsound" in out or "can change the value" in out


def test_reduce_refuses_sums(capsys):
    code, _, err = run(capsys, "reduce", "s(1) + s(2)")
    assert code == 2 and "refusing to reduce a sum" in err


def test_json_output_matches_schema(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    validator = jsonschema.Draft202012Validator(json.loads(SCHEMA.read_text()))
    commands = [
        ("eval", text, "--convention", convention, "--measure", measure, "--format", "json", *decimal)
        for text, conventions in ACCEPTANCE_POSITIONS
        for convention in conventions
        for measure in cli.MEASURES
        for decimal in ((), ("--decimal", "3"))
    ]
    commands += [
        ("table", "sq{1}{2}", "--format", "json"),
        ("verify", "paper", "--format", "json"),
    ]
    errors = []
    for argv in commands:
        _, out, _ = run(capsys, *argv)
        lines = out.splitlines()
        assert len(lines) == 1, argv
        errors += [(argv, e.message) for e in validator.iter_errors(json.loads(lines[0]))]
    assert errors == []
