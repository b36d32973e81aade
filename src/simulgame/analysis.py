"""Derived quantities: reductions, comparisons, closed forms.

Everything here sits on top of the engine; nothing feeds back into
evaluation.  In particular ``reduce_game`` exists for study and for the
CLI only: reduction is value-preserving for a game in isolation but is
unsound inside sums, so the engine never calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .engine import NORMAL, SCORING, Memo, evaluate, guarantee_profile
from .errors import BadParameters, BadStalk
from .matgame import eliminate_dominated
from .position import ExplicitGame, Position, _postorder

LESS, EQUAL, GREATER, INCOMPARABLE = "Less", "Equal", "Greater", "Incomparable"


@dataclass(frozen=True)
class ComparisonResult:
    relation: str
    witness: tuple


def reduce_game(p: Position, convention: str = NORMAL, *, memo: Memo | None = None) -> Position:
    """Eliminate dominated pure strategies throughout the game, bottom up.

    The result is an explicit game with the surviving options; its expected
    value in isolation equals the original's.  A subgame is reduced after all
    its successors (Left's options, Right's, then the cells row by row), so
    each ``evaluate`` finds its cells in the memo (a fresh one without a
    memo) and walks no deeper than them, and a terminal comes back as itself,
    unevaluated.  Any other root leaves its value in the memo: read it there,
    as the result's keys spell a shared subgame once per path to it.  Equal
    subgames are reduced once per call and share one result, keyed by the
    positions themselves, not by keys: one key can stand for boards whose
    options come in other orders.  Equal results are one object, and option
    lists are read through ``Position._kept``, as every reader but the walk does.
    """
    memo = memo if memo is not None else Memo()

    def successors(q: Position) -> list:
        cells = q.move_matrix().cells
        moves = [g for _, g in q._kept(True) + q._kept(False)] if cells else []
        return moves + [c for row in cells for c in row]

    def rebuild(q: Position, reduced: list) -> Position:
        if not reduced:  # only a terminal has no successors
            return q
        report = evaluate(q, convention, memo=memo)
        _, keep_rows, keep_cols = eliminate_dominated(report.values)
        # Matrix rows and columns follow option order.
        lo, ro = len(report.row_labels), len(report.col_labels)
        lefts, rights, cells = reduced[:lo], reduced[lo:lo + ro], reduced[lo + ro:]
        table = tuple(tuple(cells[i * ro + j] for j in keep_cols) for i in keep_rows)
        return ExplicitGame(tuple(lefts[i] for i in keep_rows), tuple(rights[j] for j in keep_cols), table)

    (reduced,) = _postorder([p], successors, rebuild, key=lambda q: q)
    return reduced


def compare_continued_scoring(g: Position, h: Position, *, memo: Memo | None = None) -> ComparisonResult:
    """Order two games for the continued-conjunctive scoring sum.

    Expected value decides completely there, so the result is never
    Incomparable.
    """
    ex_g = evaluate(g, SCORING, memo=memo).ex
    ex_h = evaluate(h, SCORING, memo=memo).ex
    if ex_g == ex_h:
        rel = EQUAL
    elif ex_g > ex_h:
        rel = GREATER
    else:
        rel = LESS
    return ComparisonResult(rel, (ex_g, ex_h))


def compare_index(g: Position, h: Position, *, memo: Memo | None = None) -> ComparisonResult:
    """Compare securities componentwise: Left's up, Right's down."""
    pg = guarantee_profile(g, NORMAL, memo=memo)
    ph = guarantee_profile(h, NORMAL, memo=memo)
    witness = ((pg.ell, pg.arr), (ph.ell, ph.arr))
    if pg.ell == ph.ell and pg.arr == ph.arr:
        return ComparisonResult(EQUAL, witness)
    if pg.ell >= ph.ell and pg.arr <= ph.arr:
        return ComparisonResult(GREATER, witness)
    if pg.ell <= ph.ell and pg.arr >= ph.arr:
        return ComparisonResult(LESS, witness)
    return ComparisonResult(INCOMPARABLE, witness)


def sq_expected_sequence(a: int, b: int, n_max: int) -> list[Fraction]:
    """Expected values of strips 0..n_max for singleton subtraction sets.

    Base cases: 0 below a, 1 from a up to b; from b on, the two sides
    match or miss with equal probability, so each term averages the
    same-side and opposite-side follow-ups (the opposite-side strip
    clamps at the empty strip).
    """
    if a < 1 or b <= a:
        raise BadParameters("need 1 <= a < b")
    if n_max < 0:
        raise BadParameters("n_max must be >= 0")
    out: list[Fraction] = []
    for n in range(n_max + 1):
        if n < a:
            out.append(Fraction(0))
        elif n < b:
            out.append(Fraction(1))
        else:
            same = out[n - b]
            opposite = out[max(0, n - b - a)]
            out.append(Fraction(same + opposite, 2))
    return out


def sq12_closed_form(n: int) -> Fraction:
    """Closed form of the {1},{2} strip sequence; it tends to 2/5.

    The recurrence e(n) = (e(n-2) + e(n-3)) / 2 has the roots 1 and
    z, conj(z) with z = (-1+i)/2, and e(n) = (2 - 2 Re((1+2i) z^n)) / 5.
    As z^4 = -1/4, Re((1+2i) z^n) = c[n mod 4] (-1/4)^(n div 4), where
    c = (1, -3/2, 1, -1/4) are the real parts of (1+2i) z^k for k < 4.
    """
    if n < 0:
        raise BadParameters("n must be >= 0")
    cycles, step = divmod(n, 4)
    c = (Fraction(1), Fraction(-3, 2), Fraction(1), Fraction(-1, 4))[step]
    return (2 - 2 * c * Fraction(-1, 4) ** cycles) / 5


def clobber_kn_expected(n: int) -> Fraction:
    """Scoring value of one X against n-1 O pieces on the complete graph."""
    if n < 2:
        raise BadParameters("complete-graph clobber needs n >= 2")
    return Fraction(n, 2) - 1


def stalk_score_formula(colors) -> int:
    """Score of a monochrome-prefix, strictly-alternating stalk.

    The prefix length n is the score when the stalk ends in the prefix
    colour, n - 1 otherwise; negated for red-led stalks.
    """
    seq = list(colors)
    if not seq or any(c not in "BR" for c in seq):
        raise BadStalk("stalk must be a nonempty string over B and R")
    n = 1
    while n < len(seq) and seq[n] == seq[0]:
        n += 1
    for i in range(n - 1, len(seq) - 1):
        if seq[i] == seq[i + 1]:
            raise BadStalk("suffix after the monochrome prefix must alternate strictly")
    magnitude = n if seq[-1] == seq[0] else n - 1
    return magnitude if seq[0] == "B" else -magnitude
