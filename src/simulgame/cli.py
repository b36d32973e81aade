"""Command-line front end.

Subcommands: ``eval`` an expression, tabulate a strip family with
``table``, run the verification manifest with ``verify``, and show a
dominance-reduced game with ``reduce``.

Exit codes are fixed for scripting: 0 success, 1 verification failure,
2 parse error, 3 evaluation error.  Rationals print as ``p/q`` in lowest
terms unless ``--decimal`` asks for rounded digits.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import decimal
import io
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
from .gexpr import SqExpr, SumExpr, parse, render_position, to_position

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_EVAL = 3

MEASURES = ("ex", "index", "outcome", "score", "matrix", "strategies")


def non_negative_int(text: str) -> int:
    """Argument type of ``--decimal`` and ``--n-max``: a count, K >= 0."""
    k = int(text)
    if k < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {k}")
    return k


def _fmt_rational(value: Fraction, decimals: int | None) -> str:
    if decimals is None:
        return str(value)
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        d = decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator)
        quantum = decimal.Decimal(1).scaleb(-decimals)
        return str(d.quantize(quantum, rounding=decimal.ROUND_HALF_EVEN))


def _csv_text(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerows(rows)
    return buf.getvalue()


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


class _Exit(Exception):
    """Ends a subcommand with the exit code it carries; the message is on stderr."""


@contextlib.contextmanager
def _parse_errors(text: str):
    """Map a failure to parse or lower ``text`` to a message and exit 2."""
    try:
        yield
    except GameSyntaxError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        offset = min(exc.offset, len(text))
        sys.stderr.write(f"    {text}\n    {' ' * offset}^\n")
        raise _Exit(EXIT_PARSE)
    except (BadLiteral, UnknownRuleset) as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        raise _Exit(EXIT_PARSE)


@contextlib.contextmanager
def _evaluation_errors():
    """Map a failed evaluation to a message and exit 3."""
    try:
        yield
    except (LoopyGame, SizeLimit) as exc:
        sys.stderr.write(f"evaluation error: {exc}\n")
        raise _Exit(EXIT_EVAL)


def _parse_expr(text: str):
    with _parse_errors(text):
        tree = parse(text)
        return tree, to_position(tree)


def cmd_eval(args) -> int:
    """Each measure builds its JSON payload, CSV rows and text lines; the format picks one."""
    _, position = _parse_expr(args.expr)
    memo = Memo()
    fmt = lambda fr: _fmt_rational(fr, args.decimal)
    one = lambda value: ({"value": value}, [["measure", "value"], [args.measure, value]], [value])
    with _evaluation_errors():
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

    if args.format == "json":
        header = {"expr": args.expr, "convention": args.convention, "measure": args.measure}
        _emit(json.dumps(header | payload))
    elif args.format == "csv":
        _emit(_csv_text(rows))
    else:
        _emit("\n".join(lines))
    return EXIT_OK


def cmd_table(args) -> int:
    with _parse_errors(args.ruleset):
        tree = parse(f"{args.ruleset}(0)")
        if not isinstance(tree, SqExpr):
            sys.stderr.write("table supports the subtraction-strip family only, e.g. sq{1}{2}\n")
            return EXIT_PARSE
        positions = [
            to_position(SqExpr(tree.left, tree.right, n, tree.primed))
            for n in range(args.n_max + 1)
        ]

    memo = Memo()
    fmt = lambda fr: _fmt_rational(fr, args.decimal)
    rows = []
    for n, position in enumerate(positions):
        report = evaluate(position, NORMAL, memo=memo)
        prof = guarantee_profile(position, NORMAL, memo=memo)
        rows.append({"n": n, "ex": fmt(report.ex), "ell": fmt(prof.ell), "arr": fmt(prof.arr)})

    if args.format == "json":
        _emit(json.dumps({"ruleset": args.ruleset, "rows": rows}))
    elif args.format == "csv":
        _emit(_csv_text([["n", "ex", "ell", "arr"]] + [[str(r["n"]), r["ex"], r["ell"], r["arr"]] for r in rows]))
    else:
        _emit("n  ex  ell  arr")
        for r in rows:
            _emit(f"{r['n']}  {r['ex']}  {r['ell']}  {r['arr']}")
    return EXIT_OK


def cmd_verify(args) -> int:
    records = verify_mod.run_suite(args.suite)
    failed = sum(1 for r in records if r["status"] != "pass")
    if args.format == "json":
        _emit(
            json.dumps(
                {
                    "suite": args.suite,
                    "checks": records,
                    "passed": len(records) - failed,
                    "failed": failed,
                }
            )
        )
    else:
        for r in records:
            _emit(f"[{r['status'].upper():5s}] {r['id']}: expected {r['expected']}, got {r['actual']}")
        _emit(f"{len(records) - failed}/{len(records)} checks passed")
    return EXIT_VERIFY if failed else EXIT_OK


def cmd_reduce(args) -> int:
    tree, position = _parse_expr(args.expr)
    if isinstance(tree, SumExpr):
        sys.stderr.write(
            "refusing to reduce a sum: reduction is value-preserving in isolation "
            "but unsound inside sums\n"
        )
        return EXIT_PARSE

    memo = Memo()
    with _evaluation_errors():
        reduced = reduce_game(position, args.convention, memo=memo)
        value = evaluate(reduced, args.convention, memo=memo).ex
    _emit(render_position(reduced))
    _emit(f"ex {value}")
    _emit("note: reduced games are interchangeable in isolation only; summing reduced")
    _emit("components can change the value of the sum")
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Exit as exc:
        (code,) = exc.args
        return code


if __name__ == "__main__":
    sys.exit(main())
