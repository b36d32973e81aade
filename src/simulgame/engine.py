"""Recursive exact evaluation of positions.

Evaluation reads three things from a position: its canonical key, its move
matrix, and its terminal payoff; an empty matrix marks a terminal position.
``evaluate`` computes the expected value of a position under either winning
convention by backward induction: terminal payoffs at the leaves, the exact
matrix-game value everywhere else.  The memo holds values only, keyed by
canonical key: a key may stand for several isomorphic boards whose options
come in different orders, so mixes are never stored.  ``evaluate`` always
solves the root's own matrix, takes only its cells' values from the memo,
and hands back the root's labelled value matrix with the value and mixes.
A call without a memo uses a fresh one of its own.
``guarantee_profile`` evaluates the two security transforms of the same game
(win payoffs only) to get each player's guaranteed winning probability.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

from .errors import LoopyGame
from .matgame import game_value
from .position import (
    OUTCOME_DRAW,
    OUTCOME_LEFT,
    OUTCOME_RIGHT,
    Position,
    require_position,
)

NORMAL = "normal"
SCORING = "scoring"
CONVENTIONS = (NORMAL, SCORING)

ELL = "ell"  # Right-win terminals pay 0, Left wins pay 1
ARR = "arr"  # Left-win terminals pay 0, Right wins pay -1

MEMO_LIMIT_ENV = "SIMULGAME_MEMO_LIMIT"


@dataclass(frozen=True)
class ValueReport:
    """Expected value of the root, its optimal mixes, and its value matrix.

    ``values[i][j]`` is the value of the cell reached by Left's move
    ``row_labels[i]`` and Right's move ``col_labels[j]``; the mixes follow
    the same order.  All five sequences are empty at a terminal root.
    """

    ex: Fraction
    left_mix: tuple[Fraction, ...]
    right_mix: tuple[Fraction, ...]
    row_labels: tuple[str, ...] = ()
    col_labels: tuple[str, ...] = ()
    values: tuple[tuple[Fraction, ...], ...] = ()

    @property
    def terminal(self) -> bool:
        return not self.row_labels


@dataclass(frozen=True)
class GuaranteeProfile:
    """Security probabilities of a Left win and a Right win."""

    ell: Fraction
    arr: Fraction

    @property
    def left_forces_win(self) -> bool:
        return self.ell == 1

    @property
    def right_forces_win(self) -> bool:
        return self.arr == 1

    @property
    def left_cannot_win(self) -> bool:
        return self.ell == 0

    @property
    def right_cannot_win(self) -> bool:
        return self.arr == 0


class Memo:
    """Value table keyed by (canonical key, convention, transform).

    It stores exact values only, never mixes or reports, so one entry can
    serve every board that shares the key.  Insertion is idempotent:
    re-inserting a key must carry the same value.  A limit of 0 disables
    storage entirely; None means unlimited.
    """

    def __init__(self, limit: int | None = None):
        self.limit = limit
        self._table: dict = {}

    def get(self, key):
        return self._table.get(key)

    def put(self, key, value):
        old = self._table.get(key)
        if old is not None:
            if old != value:
                raise AssertionError(f"memo collision for {key}")
            return
        if self.limit is None or len(self._table) < self.limit:
            self._table[key] = value

    def __len__(self):
        return len(self._table)


def _env_limit() -> int | None:
    raw = os.environ.get(MEMO_LIMIT_ENV, "").strip()
    return int(raw) if raw else None


def terminal_outcome(p: Position, convention: str = NORMAL) -> str:
    """Outcome letter of a terminal position under the given convention."""
    if convention == NORMAL:
        return p.normal_outcome()
    s = p.terminal_score()
    if s > 0:
        return OUTCOME_LEFT
    if s < 0:
        return OUTCOME_RIGHT
    return OUTCOME_DRAW


def _terminal_payoff(p: Position, convention: str, transform) -> Fraction:
    out = terminal_outcome(p, convention)
    if transform == ELL:
        return Fraction(1 if out == OUTCOME_LEFT else 0)
    if transform == ARR:
        return Fraction(-1 if out == OUTCOME_RIGHT else 0)
    if convention == NORMAL:
        return Fraction({OUTCOME_LEFT: 1, OUTCOME_DRAW: 0, OUTCOME_RIGHT: -1}[out])
    return Fraction(p.terminal_score())


def evaluate(
    p: Position,
    convention: str = NORMAL,
    *,
    transform=None,
    memo: Memo | None = None,
) -> ValueReport:
    """Expected value of p with its optimal mixes and value matrix attached.

    The root's matrix is always built and solved here, so its mixes and
    values follow p's own option order; the memo only supplies the values
    of its cells.  Without a memo the call uses a fresh one.  Raises
    LoopyGame if a position repeats along a descent path.
    """
    require_position(p)
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    table = memo if memo is not None else Memo()
    key = (p.canonical_key(), convention, transform)
    matrix = p.move_matrix()
    if matrix.is_empty:
        report = ValueReport(_terminal_payoff(p, convention, transform), (), ())
    else:
        path = {key}
        values = [
            [_value(cell, convention, transform, table, path) for cell in row]
            for row in matrix.cells
        ]
        sol = game_value(values)
        report = ValueReport(
            sol.value, sol.row_mix, sol.col_mix,
            matrix.row_labels, matrix.col_labels, tuple(map(tuple, values)),
        )
    table.put(key, report.ex)
    return report


def _value(p, convention, transform, memo, path) -> Fraction:
    """Value of p, read from or stored in the memo; the recursion keeps no
    mixes, and builds each matrix inline to keep the stack shallow."""
    key = (p.canonical_key(), convention, transform)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if key in path:
        raise LoopyGame(f"position repeats along a play line: {key[0]}")
    matrix = p.move_matrix()
    if matrix.is_empty:
        value = _terminal_payoff(p, convention, transform)
    else:
        path.add(key)
        values = [
            [_value(cell, convention, transform, memo, path) for cell in row]
            for row in matrix.cells
        ]
        path.discard(key)
        value = game_value(values).value
    memo.put(key, value)
    return value


def guarantee_profile(
    p: Position, convention: str = NORMAL, *, memo: Memo | None = None
) -> GuaranteeProfile:
    """Security probabilities [ell, arr] via the two payoff transforms."""
    ell = evaluate(p, convention, transform=ELL, memo=memo).ex
    arr = -evaluate(p, convention, transform=ARR, memo=memo).ex
    return GuaranteeProfile(ell, arr)


def outcome(p: Position, convention: str = NORMAL, *, memo: Memo | None = None) -> str:
    """Outcome classification of a whole game.

    Terminal positions report their terminal outcome.  Elsewhere the profile
    decides: D when neither player can ever win, L/R when only one of them
    can, and '?' when both retain winning chances.
    """
    require_position(p)
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    if p.is_terminal():
        return terminal_outcome(p, convention)
    prof = guarantee_profile(p, convention, memo=memo)
    if prof.ell == 0 and prof.arr == 0:
        return OUTCOME_DRAW
    if prof.arr == 0:
        return OUTCOME_LEFT
    if prof.ell == 0:
        return OUTCOME_RIGHT
    return "?"
