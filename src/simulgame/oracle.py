"""Independent brute-force evaluator used to certify the engine.

Shares only the position model with the engine: backward induction here
uses exhaustive support enumeration for every matrix value, never the
simplex solver, and keeps its own table.  That table is keyed on the
positions themselves (field-wise equality, which is identity for strips,
sums and explicit games, as equal ones are one object), not on canonical
keys, so the engine's isomorphism-reduced keys never decide a value here.
It also keeps its own recursive walk, with its own loop check, instead of
the library's ``position._postorder``, which the engine folds on: a fault
in that walk would otherwise reach both sides of the comparison and pass
certification.  Bounded to small games on purpose, it raises SizeLimit
past any of three bounds: ``MAX_POSITIONS`` distinct positions and
``MAX_DEPTH`` moves along a play line, both here, and a matrix wider or
taller than ``matgame.SUPPORT_MAX_SIDE``, which support enumeration owns
and which is checked before any cell of the matrix is walked.  The depth
bound keeps the recursive walk clear of Python's recursion limit.
"""

from __future__ import annotations

from fractions import Fraction

from .engine import ARR, ELL, NORMAL, GuaranteeProfile, _check, _terminal_payoff
from .errors import LoopyGame, SizeLimit
from .matgame import SUPPORT_MAX_SIDE, support_enumeration_value
from .position import Position

MAX_POSITIONS = 100_000
MAX_DEPTH = 250


def brute_ex(p: Position, convention: str = NORMAL, *, transform=None) -> Fraction:
    """Expected value by pure enumeration, over at most ``MAX_POSITIONS``
    distinct positions and ``MAX_DEPTH`` moves along any play line."""
    _check(p, convention, transform)
    seen: dict = {}
    return _brute(p, convention, transform, seen, frozenset())


def _brute(p, convention, transform, seen, path) -> Fraction:
    if p in seen:
        return seen[p]
    if p in path:
        raise LoopyGame(f"position repeats along a play line: {p.canonical_key()}")
    if len(seen) >= MAX_POSITIONS:
        raise SizeLimit(f"more than {MAX_POSITIONS} distinct positions")
    if len(path) >= MAX_DEPTH:
        raise SizeLimit(f"a play line reaches {MAX_DEPTH} moves")
    if p.is_terminal():
        (value,) = _terminal_payoff(p, convention, (transform,))
    else:
        matrix = p.move_matrix()
        if max(len(matrix.row_labels), len(matrix.col_labels)) > SUPPORT_MAX_SIDE:
            raise SizeLimit(
                f"{len(matrix.row_labels)}x{len(matrix.col_labels)} matrix exceeds "
                f"the oracle bound of {SUPPORT_MAX_SIDE}"
            )
        below = path | {p}
        values = [
            [_brute(cell, convention, transform, seen, below) for cell in row]
            for row in matrix.cells
        ]
        value = support_enumeration_value(values)
    seen[p] = value
    return value


def brute_profile(p: Position, convention: str = NORMAL) -> GuaranteeProfile:
    """Security probabilities via the enumeration oracle."""
    ell = brute_ex(p, convention, transform=ELL)
    arr = -brute_ex(p, convention, transform=ARR)
    return GuaranteeProfile(ell, arr)
