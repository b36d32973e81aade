"""Independent reference answers and the checks that compare against them.

Every answer is checked after the timed phase.  A value is taken, in this
order, from

1. a closed form: ``analysis.clobber_kn_expected`` for ``cl:Kn`` under
   scoring, ``analysis.sq12_closed_form`` for the ``sq{1}{2}`` table;
2. ``oracle.brute_ex`` (support enumeration), when the position fits its
   5x5 and 100k-position bounds;
3. a root optimality certificate: the engine's root mixes must be
   probability vectors whose guaranteed payoff against every pure reply
   equals the value, over the engine's values of the root's successors.

Strip tables are checked row by row against a bottom-up support-enumeration
table, and ``verify`` must fail exactly on its two known discrepancies.
"""

from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction

from simulgame import analysis, engine, gexpr, matgame, oracle
from simulgame.errors import SizeLimit

from workloads import KNOWN_CRASHES, ColdQuery

KNOWN_DISCREPANCIES = frozenset({"sqp-wedge-5-6", "table5-scoring-plus"})
_COMPLETE = re.compile(r"cl:K(\d+)")


class Mismatch(Exception):
    """An answer disagrees with its reference."""


def certify(values, value, row_mix, col_mix) -> None:
    """Raise Mismatch unless (row_mix, col_mix) is an optimal pair for the
    matrix ``values`` with game value ``value``.  A terminal position has an
    empty matrix and empty mixes."""
    if not values:
        if row_mix or col_mix:
            raise Mismatch("mixes reported for a terminal position")
        return
    for mix, size in ((row_mix, len(values)), (col_mix, len(values[0]))):
        if len(mix) != size or any(p < 0 for p in mix) or sum(mix) != 1:
            raise Mismatch("a root mix is not a probability vector")
    if matgame.response_value(values, row_mix) != value:
        raise Mismatch("the row mix does not secure the value")
    worst = max(sum(q * v for q, v in zip(col_mix, row)) for row in values)
    if worst != value:
        raise Mismatch("the column mix does not hold the row player to the value")


class References:
    """Reference values, computed once per distinct position in a run.

    Engine values used by certificates share one memo, so a certificate
    costs one traversal per distinct position however many checks use it.
    """

    def __init__(self):
        self._values: dict = {}
        self._tables: dict = {}
        self._memo = engine.Memo()

    def value(self, position, convention, transform=None, expr=None) -> Fraction:
        """Root value: closed form, else the oracle, else a certificate."""
        key = (expr or position.canonical_key(), convention, transform)
        if key not in self._values:
            match = _COMPLETE.fullmatch(expr or "")
            if match and convention == engine.SCORING and transform is None:
                self._values[key] = analysis.clobber_kn_expected(int(match.group(1)))
            else:
                try:
                    self._values[key] = oracle.brute_ex(position, convention, transform=transform)
                except SizeLimit:
                    self._values[key] = self.certified(position, convention, transform)
        return self._values[key]

    def engine_cells(self, position, convention, transform=None):
        """The engine's values of the root's successors."""
        return [
            [engine.evaluate(c, convention, transform=transform, memo=self._memo).ex for c in row]
            for row in position.move_matrix().cells
        ]

    def certified(self, position, convention, transform=None) -> Fraction:
        """The engine's value, after checking its root mixes are optimal."""
        if position.is_terminal():
            return oracle.brute_ex(position, convention, transform=transform)
        report = engine.evaluate(position, convention, transform=transform, memo=self._memo)
        certify(
            self.engine_cells(position, convention, transform),
            report.ex,
            report.left_mix,
            report.right_mix,
        )
        return report.ex

    def cell_values(self, position, convention):
        """Certified values of the root's successors."""
        return [
            [self.certified(cell, convention) for cell in row]
            for row in position.move_matrix().cells
        ]

    def profile(self, position, convention):
        ell = self.value(position, convention, engine.ELL)
        arr = -self.value(position, convention, engine.ARR)
        return ell, arr

    def outcome(self, position, convention) -> str:
        if position.is_terminal():
            if convention == engine.NORMAL:
                return position.normal_outcome()
            score = position.terminal_score()
            return "L" if score > 0 else "R" if score < 0 else "D"
        ell, arr = self.profile(position, convention)
        if ell == 0 and arr == 0:
            return "D"
        if arr == 0:
            return "L"
        if ell == 0:
            return "R"
        return "?"

    def table(self, family: str, n_max: int):
        if (family, n_max) not in self._tables:
            self._tables[family, n_max] = strip_table(family, n_max)
        return self._tables[family, n_max]


# -- cold queries ----------------------------------------------------------------


def check_cold(query: ColdQuery, answer, refs: References) -> None:
    """answer is (value, left mix, right mix) as strings."""
    position = gexpr.to_position(gexpr.parse(query.expr))
    want = refs.value(position, query.convention, expr=query.expr)
    value, left, right = answer
    if Fraction(value) != want:
        raise Mismatch(f"value {value}, reference {want}")
    if left or right:
        certify(
            refs.engine_cells(position, query.convention),
            want,
            [Fraction(p) for p in left],
            [Fraction(p) for p in right],
        )


# -- CLI output ------------------------------------------------------------------


def _csv(text):
    return list(csv.reader(io.StringIO(text)))


def _eval_payload(measure: str, fmt: str, out: str) -> dict:
    """Read an ``eval`` output back into the JSON payload shape."""
    if fmt == "json":
        return json.loads(out)
    if fmt == "csv":
        rows = _csv(out)
        if measure == "matrix":
            return {"cols": rows[0][1:], "rows": [r[0] for r in rows[1:]], "ex": [r[1:] for r in rows[1:]]}
        if measure == "index":
            return dict(zip(rows[0], rows[1]))
        if measure == "strategies":
            return {
                "value": rows[1][2],
                "left_mix": {r[1]: r[2] for r in rows[2:] if r[0] == "left"},
                "right_mix": {r[1]: r[2] for r in rows[2:] if r[0] == "right"},
            }
        return {"value": rows[1][1]}
    lines = out.splitlines()
    if measure == "matrix":
        body = [line.split() for line in lines[1:]]
        return {"cols": lines[0].split(), "rows": [r[0] for r in body], "ex": [r[1:] for r in body]}
    if measure == "index":
        ell, arr = lines[0].strip("[]").split(", ")
        return {"ell": ell, "arr": arr}
    if measure == "strategies":
        def mix(line):
            return dict(item.rsplit(":", 1) for item in line.split()[1:])

        return {"value": lines[0].split()[1], "left_mix": mix(lines[1]), "right_mix": mix(lines[2])}
    return {"value": lines[0]}


def _option(argv, flag, default):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _check_eval(argv, out: str, refs: References) -> None:
    expr = argv[1]
    convention = _option(argv, "--convention", engine.NORMAL)
    measure = _option(argv, "--measure", "ex")
    payload = _eval_payload(measure, _option(argv, "--format", "text"), out)
    position = gexpr.to_position(gexpr.parse(expr))

    def same(got, want, what):
        if got != want:
            raise Mismatch(f"{what}: {got}, reference {want}")

    if measure == "ex":
        same(Fraction(payload["value"]), refs.value(position, convention, expr=expr), "ex")
    elif measure == "score":
        same(Fraction(payload["value"]), refs.value(position, engine.SCORING, expr=expr), "score")
    elif measure == "index":
        same((Fraction(payload["ell"]), Fraction(payload["arr"])), refs.profile(position, convention), "index")
    elif measure == "outcome":
        same(payload["value"], refs.outcome(position, convention), "outcome")
    else:
        matrix = position.move_matrix()
        same(list(payload.get("rows", payload.get("left_mix", {}))), list(matrix.row_labels), "row labels")
        same(list(payload.get("cols", payload.get("right_mix", {}))), list(matrix.col_labels), "column labels")
        cells = refs.cell_values(position, convention)
        if measure == "matrix":
            same([[Fraction(v) for v in row] for row in payload["ex"]], cells, "matrix")
        else:
            value = refs.value(position, convention, expr=expr)
            same(Fraction(payload["value"]), value, "strategies value")
            certify(
                cells,
                value,
                [Fraction(p) for p in payload["left_mix"].values()],
                [Fraction(p) for p in payload["right_mix"].values()],
            )


def strip_table(family: str, n_max: int):
    """(ex, ell, arr) for strips 0..n_max, bottom up by support enumeration.

    Every successor of a strip is a shorter strip of the same family, so
    each matrix reads finished rows only.
    """
    rows = []
    for n in range(n_max + 1):
        position = gexpr.to_position(gexpr.parse(f"{family}({n})"))
        if position.is_terminal():
            out = position.normal_outcome()
            ex = {"L": 1, "D": 0, "R": -1}[out]
            rows.append((Fraction(ex), Fraction(out == "L"), Fraction(out == "R")))
            continue
        cells = position.move_matrix().cells
        ex, ell, arr = (
            matgame.support_enumeration_value([[rows[c.n][k] * sign for c in row] for row in cells])
            for k, sign in ((0, 1), (1, 1), (2, -1))
        )
        rows.append((ex, ell, -arr))
    return rows


def _check_table(argv, out: str, refs: References) -> None:
    family, n_max, fmt = argv[1], int(_option(argv, "--n-max", "10")), _option(argv, "--format", "text")
    if fmt == "json":
        got = [(r["n"], r["ex"], r["ell"], r["arr"]) for r in json.loads(out)["rows"]]
    elif fmt == "csv":
        got = [tuple(r) for r in _csv(out)[1:]]
    else:
        got = [tuple(line.split()) for line in out.splitlines()[1:]]
    got = [(int(n), *(Fraction(x) for x in rest)) for n, *rest in got]
    want = [(n, *row) for n, row in enumerate(refs.table(family, n_max))]
    if family == "sq{1}{2}" and any(ex != analysis.sq12_closed_form(n) for n, ex, _, _ in want):
        raise Mismatch("the sq{1}{2} reference table misses its closed form")
    if len(got) != len(want):
        raise Mismatch(f"{len(got)} table rows, reference {len(want)}")
    for g, w in zip(got, want):
        if g != w:
            raise Mismatch(f"table row {g}, reference {w}")


def _check_verify(argv, out: str) -> None:
    records = re.findall(r"^\[(\w+)\s*\] ([^:]+):", out, re.MULTILINE)
    failed = {check for status, check in records if status != "PASS"}
    want = KNOWN_DISCREPANCIES if argv[1] in ("paper", "all") else frozenset()
    if failed != want:
        raise Mismatch(f"failing checks {sorted(failed)}, expected {sorted(want)}")
    tally = f"{len(records) - len(failed)}/{len(records)} checks passed"
    if not records or out.splitlines()[-1] != tally:
        raise Mismatch(f"verify reported {out.splitlines()[-1:]}, expected {tally!r}")


def expected_exit(argv) -> tuple[int, ...]:
    """Exit codes a correct program gives for this command line."""
    if argv[0] == "eval" and argv[1] in KNOWN_CRASHES:
        return (2, 3)
    if argv[0] == "verify":
        return (1,) if argv[1] in ("paper", "all") else (0,)
    return (0,)


def check_cli(argv, answer, refs: References) -> None:
    """answer is (exit code, stdout); the exit code is already checked."""
    out = answer[1]
    if argv[0] == "verify":
        _check_verify(argv, out)
    elif argv[0] == "table":
        _check_table(argv, out, refs)
    elif argv[0] == "eval" and argv[1] not in KNOWN_CRASHES:
        _check_eval(argv, out, refs)
