"""Command-line front end.

Subcommands: ``eval`` an expression, tabulate a strip family with
``table``, run the verification manifest with ``verify``, and show a
dominance-reduced game with ``reduce``.

Exit codes are fixed for scripting: 0 success, 1 verification failure,
2 parse error, 3 evaluation error.  Rationals print as ``p/q`` in lowest
terms; ``--decimal K`` rounds them half-even to K digits exactly, with
plain digits and no sign on a result of zero.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from fractions import Fraction

from . import verify as verify_mod
from .analysis import reduce_game
from .engine import NORMAL, SCORING, Memo, evaluate, guarantee_profile, outcome
from .errors import (
    BadLiteral,
    GameSyntaxError,
    LoopyGame,
    SizeLimit,
    UnknownRuleset,
)
from .gexpr import _rendered_length, parse, render_position
from .rulesets import SqPosition
from .sums import SumPosition

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_EVAL = 3

MEASURES = ("ex", "index", "outcome", "score", "matrix", "strategies")
_REDUCE_TEXT_LIMIT = 1_000_000  # characters; a longer reduced game exits 3 unbuilt


def non_negative_int(text: str) -> int:
    """Argument type of ``--decimal`` and ``--n-max``: a count, K >= 0."""
    k = int(text)
    if k < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {k}")
    return k


def _fmt_rational(value: Fraction, decimals: int | None) -> str:
    """``p/q``, or ``value`` rounded half-even to ``decimals`` digits exactly,
    as plain digits with no sign on a result of zero."""
    if decimals is None:
        return str(value)
    units = round(value * 10**decimals)
    sign = "-" if units < 0 else ""
    digits = str(abs(units)).rjust(decimals + 1, "0")
    if decimals == 0:
        return sign + digits
    return f"{sign}{digits[:-decimals]}.{digits[-decimals:]}"


def _write(fmt: str, payload, rows, lines) -> None:
    """Print the one output ``fmt`` picks: a JSON object, CSV rows or text lines."""
    if fmt == "json":
        sys.stdout.write(json.dumps(payload) + "\n")
    elif fmt == "csv":
        csv.writer(sys.stdout, lineterminator="\r\n").writerows(rows)
    else:
        sys.stdout.write("".join(line + "\n" for line in lines))


def cmd_eval(args) -> int:
    """Each measure builds its JSON payload, CSV rows and text lines; the format picks one."""
    position = parse(args.expr)
    memo = Memo()
    fmt = lambda fr: _fmt_rational(fr, args.decimal)
    one = lambda value: ({"value": value}, [["measure", "value"], [args.measure, value]], [value])
    if args.measure == "ex":
        payload, rows, lines = one(fmt(evaluate(position, args.convention, memo=memo).ex))
    elif args.measure == "score":
        payload, rows, lines = one(fmt(evaluate(position, SCORING, memo=memo).ex))
    elif args.measure == "outcome":
        payload, rows, lines = one(outcome(position, args.convention, memo=memo))
    elif args.measure == "index":
        prof = guarantee_profile(position, args.convention, memo=memo)
        ell, arr = fmt(prof.ell), fmt(prof.arr)
        payload = {"ell": ell, "arr": arr}
        rows = [["ell", "arr"], [ell, arr]]
        lines = [f"[{ell}, {arr}]"]
    elif args.measure == "strategies":
        report = evaluate(position, args.convention, memo=memo)
        value = fmt(report.ex)
        left = {l: fmt(p) for l, p in zip(report.row_labels, report.left_mix)}
        right = {l: fmt(p) for l, p in zip(report.col_labels, report.right_mix)}
        payload = {"value": value, "left_mix": left, "right_mix": right}
        rows = [["kind", "label", "value"], ["value", "", value]]
        rows += [["left", l, p] for l, p in left.items()]
        rows += [["right", l, p] for l, p in right.items()]
        lines = [
            f"value {value}",
            "left  " + "  ".join(f"{l}:{p}" for l, p in left.items()),
            "right " + "  ".join(f"{l}:{p}" for l, p in right.items()),
        ]
    else:  # matrix
        report = evaluate(position, args.convention, memo=memo)
        ex = [[fmt(v) for v in row] for row in report.values]
        payload = {"rows": list(report.row_labels), "cols": list(report.col_labels), "ex": ex}
        body = list(zip(report.row_labels, ex))
        rows = [[""] + payload["cols"]] + [[r] + vals for r, vals in body]
        width = max([len(r) for r in report.row_labels] + [1])
        lines = [" " * (width + 1) + "  ".join(report.col_labels)]
        lines += [f"{r:<{width}}  " + "  ".join(vals) for r, vals in body]
    header = {"expr": args.expr, "convention": args.convention, "measure": args.measure}
    _write(args.format, header | payload, rows, lines)
    return EXIT_OK


def cmd_table(args) -> int:
    family = parse(f"{args.ruleset}(0)")
    if not isinstance(family, SqPosition):
        sys.stderr.write("table supports the subtraction-strip family only, e.g. sq{1}{2}\n")
        return EXIT_PARSE
    memo = Memo()
    fmt = lambda fr: _fmt_rational(fr, args.decimal)
    records = []
    for n in range(args.n_max + 1):
        position = dataclasses.replace(family, n=n)
        report = evaluate(position, NORMAL, memo=memo)
        prof = guarantee_profile(position, NORMAL, memo=memo)
        records.append({"n": n, "ex": fmt(report.ex), "ell": fmt(prof.ell), "arr": fmt(prof.arr)})
    rows = [["n", "ex", "ell", "arr"]]
    rows += [[str(r["n"]), r["ex"], r["ell"], r["arr"]] for r in records]
    payload = {"ruleset": args.ruleset, "rows": records}
    _write(args.format, payload, rows, ["  ".join(r) for r in rows])
    return EXIT_OK


def cmd_verify(args) -> int:
    records = verify_mod.run_suite(args.suite)
    failed = sum(1 for r in records if r["status"] != "pass")
    passed = len(records) - failed
    payload = {"suite": args.suite, "checks": records, "passed": passed, "failed": failed}
    lines = [
        f"[{r['status'].upper():5s}] {r['id']}: expected {r['expected']}, got {r['actual']}"
        for r in records
    ]
    _write(args.format, payload, None, lines + [f"{passed}/{len(records)} checks passed"])
    return EXIT_VERIFY if failed else EXIT_OK


def cmd_reduce(args) -> int:
    position = parse(args.expr)
    if isinstance(position, SumPosition):
        sys.stderr.write(
            "refusing to reduce a sum: reduction is value-preserving in isolation "
            "but unsound inside sums\n"
        )
        return EXIT_PARSE
    memo = Memo()
    reduced = reduce_game(position, args.convention, memo=memo)
    length = _rendered_length(reduced)
    if length > _REDUCE_TEXT_LIMIT:
        raise SizeLimit(f"the reduced game runs to {length} characters, over {_REDUCE_TEXT_LIMIT}")
    value = evaluate(position, args.convention, memo=memo).ex
    lines = [
        render_position(reduced),
        f"ex {value}",
        "note: reduced games are interchangeable in isolation only; summing reduced",
        "components can change the value of the sum",
    ]
    _write("text", None, None, lines)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulgame",
        description="Evaluate simultaneous combinatorial games exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a game expression")
    p_eval.add_argument("expr")
    p_eval.add_argument("--convention", choices=(NORMAL, SCORING), default=NORMAL)
    p_eval.add_argument("--measure", choices=MEASURES, default="ex")
    p_eval.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_eval.add_argument("--decimal", type=non_negative_int, default=None, metavar="K")
    p_eval.set_defaults(func=cmd_eval)

    p_table = sub.add_parser("table", help="tabulate a subtraction-strip family")
    p_table.add_argument("ruleset", help="family literal without a length, e.g. sq{1}{2}")
    p_table.add_argument("--n-max", type=non_negative_int, default=10)
    p_table.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_table.add_argument("--decimal", type=non_negative_int, default=None, metavar="K")
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="run the verification manifest")
    p_verify.add_argument("suite", choices=("paper", "properties", "all"))
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=cmd_verify)

    p_reduce = sub.add_parser("reduce", help="show the dominance-reduced game")
    p_reduce.add_argument("expr")
    p_reduce.add_argument("--convention", choices=(NORMAL, SCORING), default=NORMAL)
    p_reduce.set_defaults(func=cmd_reduce)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; the only place a failure becomes an exit code.

    A syntax error prints a caret under the command's text, the expression
    or, for ``table``, the family.  ``BadCordonSpec`` and the other
    ``SimulgameError``s not caught here still propagate: the benchmark's
    known-crash test pins ``hb cordon(0; )`` as a failure.  ROADMAP item 3
    adds them to this handler once that pin changes.  No walk over a game
    recurses, so a deep game such as ``sq{1}{2}(1500)`` ends in its value
    rather than a ``RecursionError``.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GameSyntaxError as exc:
        text = args.ruleset if args.command == "table" else args.expr
        offset = min(exc.offset, len(text))
        sys.stderr.write(f"parse error: {exc}\n    {text}\n    {' ' * offset}^\n")
        return EXIT_PARSE
    except (BadLiteral, UnknownRuleset) as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except (LoopyGame, SizeLimit) as exc:
        sys.stderr.write(f"evaluation error: {exc}\n")
        return EXIT_EVAL


if __name__ == "__main__":
    sys.exit(main())
