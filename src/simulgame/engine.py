"""Exact evaluation of positions, folded bottom up on an explicit stack.

Evaluation reads three things from a position: its canonical key, its move
matrix, and its terminal payoff; an empty matrix marks a terminal position.
One memoised walk serves every query: ``position._postorder``, the library's
one post-order fold, so a game of any depth evaluates without recursion.
It carries a tuple of payoff transforms: each node builds its key and
matrix once, reads its terminal payoff once at a leaf, and solves its matrix
once per transform.  Its table of finished nodes is the memo, with one entry
per node and walk: the node's values, one per transform, keyed by
(canonical key, convention, transforms).  A key may stand for several
isomorphic boards whose options come in different orders, so mixes are
never stored.  The walk first checks each matrix for a pure saddle point
(maximin equal to minimax) and takes that entry as the exact value; only a
matrix without one goes to the simplex, ``game_value``.
``evaluate`` always solves the root's own matrix with the simplex, takes
only its cells' values from the walk, and hands back the root's labelled
value matrix with the value and mixes.  ``guarantee_profile`` is one walk
over the two security transforms (win payoffs only) and gives each player's
guaranteed winning probability; ``outcome`` is read from that profile.  A
call without a memo uses a fresh one of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .matgame import game_value, saddle_value
from .position import (
    OUTCOME_DRAW,
    OUTCOME_LEFT,
    OUTCOME_RIGHT,
    Position,
    _postorder,
    require_position,
)

NORMAL = "normal"
SCORING = "scoring"
CONVENTIONS = (NORMAL, SCORING)

ELL = "ell"  # Right-win terminals pay 0, Left wins pay 1
ARR = "arr"  # Left-win terminals pay 0, Right wins pay -1


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


class Memo:
    """Value table with one entry per node and walk: the tuple of the node's
    values, one per transform, keyed by (canonical key, convention,
    transforms).

    It stores exact values only, never mixes or reports, so one entry can
    serve every board that shares the key.  Insertion is idempotent:
    re-inserting a key must carry the same value.
    """

    def __init__(self):
        self._table: dict = {}

    def get(self, key):
        return self._table.get(key)

    def put(self, key, value):
        old = self._table.get(key)
        if old is None:
            self._table[key] = value
        elif old != value:
            raise AssertionError(f"memo collision for {key}")

    def __len__(self):
        return len(self._table)


def _check(p: Position, convention: str) -> None:
    require_position(p)
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")


def _terminal_payoff(p: Position, convention: str, transforms) -> tuple[Fraction, ...]:
    """Payoffs of a terminal position, one per transform.

    The leaf value v is read once: +1/0/-1 for a Left win, draw or Right win
    under normal play, the terminal score under scoring.  The ex transform
    (None) pays v, ELL pays [v > 0] and ARR pays -[v < 0].
    """
    if convention == NORMAL:
        v = Fraction({OUTCOME_LEFT: 1, OUTCOME_DRAW: 0, OUTCOME_RIGHT: -1}[p.normal_outcome()])
    else:
        v = Fraction(p.terminal_score())
    return tuple(
        Fraction(v > 0) if t == ELL else -Fraction(v < 0) if t == ARR else v
        for t in transforms
    )


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
    _check(p, convention)
    table = memo if memo is not None else Memo()
    transforms = (transform,)
    matrix = p.move_matrix()
    if matrix.is_empty:
        report = ValueReport(_terminal_payoff(p, convention, transforms)[0], (), ())
    else:
        cells = iter(_walk(chain.from_iterable(matrix.cells), convention, transforms, table))
        values = [[next(cells)[0] for _ in row] for row in matrix.cells]
        sol = game_value(values)
        report = ValueReport(
            sol.value, sol.row_mix, sol.col_mix,
            matrix.row_labels, matrix.col_labels, tuple(map(tuple, values)),
        )
    table.put((p.canonical_key(), convention, transforms), (report.ex,))
    return report


def _walk(roots, convention, transforms, memo: Memo) -> list:
    """Values of each root, one per transform, folded on ``_postorder``.
    Its table of finished nodes is the memo itself, read through ``Memo.get``
    and written through ``Memo.put``: one entry per node, keyed by
    (canonical key, convention, transforms)."""
    widths = []  # matrix widths of the expanded nodes on the walk's stack, innermost last

    def expand(q):
        matrix = q.move_matrix()
        widths.append(len(matrix.col_labels))
        return chain.from_iterable(matrix.cells)

    def combine(q, cells):
        width = widths.pop()
        if not cells:
            return _terminal_payoff(q, convention, transforms)
        return tuple(
            _matrix_value([[c[t] for c in cells[i:i + width]] for i in range(0, len(cells), width)])
            for t in range(len(transforms))
        )

    key = lambda q: (q.canonical_key(), convention, transforms)
    return _postorder(roots, expand, combine, key, (memo.get, memo.put))


def _matrix_value(rows) -> Fraction:
    """Exact value of a matrix inside the walk: its saddle entry if it has
    one, else the simplex value.  The walk keeps no mixes, so a saddle needs
    no simplex; the root, whose mixes are reported, is never valued here."""
    value = saddle_value(rows)
    return game_value(rows).value if value is None else value


def guarantee_profile(
    p: Position, convention: str = NORMAL, *, memo: Memo | None = None
) -> GuaranteeProfile:
    """Security probabilities [ell, arr] from one walk over both transforms.

    The root's values come from the memo when an earlier profile stored
    its entry, keyed by the pair of transforms; no mixes are solved for.
    Without a memo the call uses a fresh one.
    """
    _check(p, convention)
    ((ell, arr),) = _walk([p], convention, (ELL, ARR), memo if memo is not None else Memo())
    return GuaranteeProfile(ell, -arr)


def outcome(p: Position, convention: str = NORMAL, *, memo: Memo | None = None) -> str:
    """Outcome classification of a whole game, read from its profile.

    D when neither player can ever win, L/R when only one of them can, and
    '?' when both retain winning chances.  At a terminal position the
    profile is (1, 0), (0, 0) or (0, 1), so this is its terminal outcome.
    """
    prof = guarantee_profile(p, convention, memo=memo)
    if prof.arr == 0:
        return OUTCOME_DRAW if prof.ell == 0 else OUTCOME_LEFT
    return OUTCOME_RIGHT if prof.ell == 0 else "?"
