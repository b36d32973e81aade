"""Position model shared by every ruleset and sum combinator.

A position exposes one move rule, ``options(left)``, that gives Left's
options when ``left`` is true and Right's otherwise, and a private pair
rule ``_joint`` that resolves a (Left move, Right move) pair of their
labels.  Legality is one rule for every position: a pair is legal exactly
when each move is among its player's options.  ``move_matrix`` applies the
pair rule to the labels of the option lists it has just built, so a ruleset
never checks a pair, and ``joint_option`` is a checked lookup into that
matrix.  Terminality and the terminal outcome under the move-based winning
convention derive from the option lists.  ``terminal_score`` is the one
public score: it checks that play has stopped, then calls the hook ``_score``.
Positions are immutable and hashable; evaluation never mutates them.
Equal explicit games are one object, so their equality is identity.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import BadParameters, IllegalMove, LoopyGame, NotTerminal, UnknownRuleset

OUTCOME_LEFT = "L"
OUTCOME_RIGHT = "R"
OUTCOME_DRAW = "D"


@dataclass(frozen=True)
class MoveMatrix:
    """Left pure strategies x Right pure strategies, cells holding successors."""

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    cells: tuple[tuple["Position", ...], ...]

    def __post_init__(self):
        assert len(self.cells) == len(self.row_labels)
        for row in self.cells:
            assert len(row) == len(self.col_labels)
        assert len(set(self.row_labels)) == len(self.row_labels)
        assert len(set(self.col_labels)) == len(self.col_labels)

    @property
    def is_empty(self) -> bool:
        return not self.row_labels or not self.col_labels


EMPTY_MATRIX = MoveMatrix((), (), ())


class Mobility(NamedTuple):
    """Who can move, and who still has a move when play stops (``left_ok``,
    ``right_ok``: the move flags themselves for a plain position).  A sum
    adds the components the players move in and those whose scores count,
    as indices; no option list or successor is ever kept here."""

    left: bool
    right: bool
    left_ok: bool
    right_ok: bool
    movers: tuple[int, ...] = ()
    scored: tuple[int, ...] = ()


# The four readings of a plain position, shared by every instance.
_PLAIN = {(lm, rm): Mobility(lm, rm, lm, rm) for lm in (False, True) for rm in (False, True)}


class Position:
    """Base class: subclasses provide ``options``, ``_joint``, ``_key_text``
    and, optionally, the score hook ``_score``.

    Like the key, the mobility reading (who can move, and who still has a
    move when play stops) is read once, on first use, and kept on the
    instance; terminality, the normal-play outcome and ``v_a`` read only it.
    """

    ruleset_tag = "abstract"

    # Subclass API ---------------------------------------------------------

    def options(self, left: bool) -> tuple[tuple[str, "Position"], ...]:
        """Left's (label, successor) options if ``left``, else Right's."""
        raise NotImplementedError

    def _joint(self, left_label: str, right_label: str) -> "Position":
        """The successor of an option pair, resolved without any check:
        ``move_matrix`` passes only labels from the option lists."""
        raise NotImplementedError

    def _key_text(self) -> str:
        raise NotImplementedError

    # Derived behaviour ------------------------------------------------------

    _key = None

    def canonical_key(self) -> str:
        """The subclass key text, built on first use and kept on the instance."""
        if self._key is None:
            # object.__setattr__ because the rulesets are frozen dataclasses.
            object.__setattr__(self, "_key", self._key_text())
        return self._key

    _reading = None

    def _mobility(self) -> Mobility:
        """The mobility reading, read on first use and kept on the instance."""
        if self._reading is None:
            object.__setattr__(self, "_reading", self._read_mobility())
        return self._reading

    def _read_mobility(self) -> Mobility:
        """A plain position reads its own option lists; sums override this."""
        return _PLAIN[bool(self.options(True)), bool(self.options(False))]

    def is_terminal(self) -> bool:
        """Simultaneous option set empty: either player is out of moves."""
        reading = self._mobility()
        return not (reading.left and reading.right)

    def move_matrix(self) -> MoveMatrix:
        """Also records the mobility reading from the option lists it builds."""
        lo = self.options(True)
        ro = self.options(False)
        if self._reading is None:
            object.__setattr__(self, "_reading", _PLAIN[bool(lo), bool(ro)])
        if not lo or not ro:
            return EMPTY_MATRIX
        cells = tuple(tuple(self._joint(ll, rl) for rl, _ in ro) for ll, _ in lo)
        return MoveMatrix(tuple(l for l, _ in lo), tuple(r for r, _ in ro), cells)

    def joint_option(self, left_label: str, right_label: str) -> "Position":
        """The successor when Left plays ``left_label`` and Right plays
        ``right_label`` at once: that cell of ``move_matrix()``.  Raises
        IllegalMove unless each label is among its player's options."""
        m = self.move_matrix()
        if m.is_empty:
            raise IllegalMove(f"no simultaneous move in {self.ruleset_tag} position")
        if left_label not in m.row_labels:
            raise IllegalMove(f"Left has no option {left_label!r}")
        if right_label not in m.col_labels:
            raise IllegalMove(f"Right has no option {right_label!r}")
        return m.cells[m.row_labels.index(left_label)][m.col_labels.index(right_label)]

    def normal_outcome(self) -> str:
        """Winner of a terminal position by who still has moves."""
        reading = self._mobility()
        if reading.left and reading.right:
            raise NotTerminal("outcome is defined for terminal positions only")
        if reading.left_ok and not reading.right_ok:
            return OUTCOME_LEFT
        if reading.right_ok and not reading.left_ok:
            return OUTCOME_RIGHT
        return OUTCOME_DRAW

    def terminal_score(self) -> Fraction:
        """Score of a terminal position; raises NotTerminal while play goes on."""
        if not self.is_terminal():
            raise NotTerminal("score is defined for terminal positions only")
        return self._score()

    def _score(self) -> Fraction:
        """The score hook, called by ``terminal_score`` once play has stopped.

        Default is the move-count score: the longest run of unilateral moves
        the mobile player can make while the opponent stays moveless.
        Rulesets with a bespoke scoring rule override this.
        """
        return Fraction(v_a(self))

    def swap_roles(self) -> "Position":
        raise NotImplementedError(f"{self.ruleset_tag} has no defined role swap")


def require_position(p) -> Position:
    if not isinstance(p, Position):
        raise UnknownRuleset(f"not a registered position: {p!r}")
    return p


def v_a(p: Position) -> int:
    """Move-count score of a one-sided terminal position.

    Positive when only Left can move, negative when only Right can; the
    magnitude is the longest chain of unilateral moves that never opens a
    move for the opponent.  Each position of the chain is expanded once per
    call.  Raises NotTerminal while both players can move, and LoopyGame if
    a position comes back along the chain.
    """
    require_position(p)
    reading = p._mobility()
    if reading.left and reading.right:
        raise NotTerminal("v_a needs a position where some player cannot move")
    left = reading.left
    opponent = "right" if left else "left"
    # Only the options that keep the opponent moveless extend the chain.
    onward = lambda q: [c for _, c in q.options(left) if not getattr(c._mobility(), opponent)]
    (chain,) = _postorder([p], onward, lambda q, chains: 1 + max(chains, default=-1), key=lambda q: q)
    return chain if left else -chain


def _postorder(roots, children, combine, key=id, table=None):
    """``combine(node, results of children(node) in order)`` from the leaves up to
    each of ``roots``, whose results it returns, on an explicit stack.  ``table``
    is the (lookup, store) pair of finished results by ``key``, a fresh dict's by
    default.  A node met again below itself, told apart by ``key``, raises LoopyGame."""
    done: dict = {}
    lookup, store = table or (done.get, done.__setitem__)
    path: set = set()
    stack = [(None, None, iter(roots), [])]  # the bottom frame's children are the roots
    while True:
        node, k, unread, results = stack[-1]
        for kid in unread:
            kid_key = key(kid)
            if (result := lookup(kid_key)) is None:
                if kid_key in path:
                    raise LoopyGame(f"position repeats along a play line: {kid.canonical_key()}")
                path.add(kid_key)
                stack.append((kid, kid_key, iter(children(kid)), []))
                break
            results.append(result)
        else:
            if node is None:
                return results
            stack.pop()
            path.discard(k)
            result = combine(node, results)
            store(k, result)
            stack[-1][3].append(result)


@dataclass(frozen=True)
class ScoreLiteral(Position):
    """A moveless terminal position carrying a fixed score."""

    value: Fraction

    ruleset_tag = "score"

    def options(self, left):
        return ()

    def _key_text(self) -> str:
        return f"s({self.value})"

    def _score(self) -> Fraction:
        return self.value

    def swap_roles(self) -> "ScoreLiteral":
        return ScoreLiteral(-self.value)


def score(value) -> ScoreLiteral:
    return ScoreLiteral(Fraction(value))


# Field tuple -> the one live explicit game with those fields, read and
# registered under the lock so that two threads never make two equal games.
_LIVE_GAMES = weakref.WeakValueDictionary()
_LIVE_GAMES_LOCK = threading.Lock()


@dataclass(frozen=True, eq=False, init=False, repr=False)
class ExplicitGame(Position):
    """A game given literally by its option lists and simultaneous table.
    Equal explicit games are one object (the constructor returns the live
    game with equal fields, if any), so identity is field-wise equality."""

    lefts: tuple[Position, ...]
    rights: tuple[Position, ...]
    table: tuple[tuple[Position, ...], ...]

    ruleset_tag = "explicit"

    def __new__(cls, lefts, rights, table):
        if lefts and rights:
            if [len(row) for row in table] != [len(rights)] * len(lefts):
                raise BadParameters("LR grid must be |L| rows of |R| entries")
        elif table:
            raise BadParameters("LR grid must be empty when an option list is empty")
        fields = (lefts, rights, table)
        with _LIVE_GAMES_LOCK:
            game = _LIVE_GAMES.get(fields)
            if game is None:
                game = super().__new__(cls)
                vars(game).update(lefts=lefts, rights=rights, table=table)
                _LIVE_GAMES[fields] = game
        return game

    def __reduce__(self):
        """Copies and unpickled games are the live game with equal fields."""
        return ExplicitGame, (self.lefts, self.rights, self.table)

    def __repr__(self):
        """One level only, so the text stays short on deep or shared games."""
        tags = lambda games: ",".join(g.ruleset_tag for g in games)
        shape = f"{len(self.table)}x{len(self.table[0]) if self.table else 0}"
        return f"ExplicitGame(L[{tags(self.lefts)}] R[{tags(self.rights)}] T[{shape}])"

    def options(self, left):
        side, games = ("L", self.lefts) if left else ("R", self.rights)
        return tuple((f"{side}{i}", g) for i, g in enumerate(games))

    def _joint(self, left_label, right_label):
        return self.table[int(left_label[1:])][int(right_label[1:])]

    def _key_text(self) -> str:
        """Spelled on ``_postorder`` from the subgames' keys, so a deep game
        needs no recursion.  Each explicit subgame keeps the key spelled for
        it, and one whose key is already built is not walked into."""
        unkeyed = lambda g: isinstance(g, ExplicitGame) and g._key is None

        def subgames(g):
            return [*g.lefts, *g.rights, *(c for row in g.table for c in row)] if unkeyed(g) else ()

        def spell(g, keys):
            if not unkeyed(g):
                return g.canonical_key()
            lo, ro = len(g.lefts), len(g.rights)
            ls, rs, cells = ",".join(keys[:lo]), ",".join(keys[lo:lo + ro]), keys[lo + ro:]
            ts = ";".join(",".join(cells[i * ro:i * ro + ro]) for i in range(len(g.table)))
            object.__setattr__(g, "_key", f"x(L[{ls}]|R[{rs}]|T[{ts}])")
            return g._key

        (text,) = _postorder([self], subgames, spell)
        return text


def outcome_literal(which: str) -> Position:
    """Terminal position with the requested move-convention outcome.

    'L' has one Left move to a dead end, 'R' one Right move, 'D' none.
    """
    dead = score(0)
    if which == OUTCOME_LEFT:
        return ExplicitGame((dead,), (), ())
    if which == OUTCOME_RIGHT:
        return ExplicitGame((), (dead,), ())
    if which == OUTCOME_DRAW:
        return dead
    raise ValueError(f"unknown outcome literal {which!r}")
