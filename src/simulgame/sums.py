"""Disjunctive, conjunctive, and continued-conjunctive sums.

A sum is itself a position, so sums nest and components may come from
different rulesets.  The three kinds differ only in their termination
rules: ``SumPosition._read_mobility`` states when play stops and who wins,
``_strategies`` the components a player moves in and ``_score`` those whose
scores count.  Equal sums are one object, like equal strips and explicit
games, so a sum compares by identity.  A sum's parts are built and kept by
``Position._kept``, and ``Position._prime`` first builds them on the nested
sums that lack them, bottom up; a sum's score is added bottom up on
``position._postorder``.  So no operation on a sum recurses once per level.
A player's pure strategy is one move in each component that player moves in,
enumerated over each component's own ``options(left)``, or, in a ``^`` or
``v`` move matrix, where both players move in every live component, over
the rows and columns of that component's own matrix.  One successor rule,
``SumPosition._successor``, gives the sum after a strategy pair or after
one player's strategy alone: each moved component takes its unilateral
successor, except that a component both players moved in takes the cell
of its own move matrix.  Every option of ``options(left)`` and every cell
of the move matrix come from that rule.  An interned component keeps the
options and matrix its sums read, so one strip or inner sum builds them
once for every sum cell that holds it (a board builds them for each), and
a nested level builds only what its caller reads.  Equal cells are one
object, so a matrix may hold one object in many cells.  Evaluation of a
sum is still global: the sum's matrix ranges over whole strategy tuples,
and its components are never pre-reduced (reducing components first
changes values; see the analysis module for the witnesses).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadParameters
from .position import EMPTY_MATRIX, _KEPT, Mobility, MoveMatrix, Position, _interned, _postorder

DISJUNCTIVE = "+"
CONJUNCTIVE = "^"
CONTINUED = "v"
SUM_KINDS = (DISJUNCTIVE, CONJUNCTIVE, CONTINUED)


@dataclass(frozen=True, eq=False, init=False, repr=False)
class SumPosition(Position):
    """A sum of at least two component positions, flattened and stably
    sorted by component key.  Equal sums are one object: the constructor
    returns the live sum of that kind with equal components in the same
    order, if any, so a sum compares and hashes by identity.
    Rearrangements share the key, memo entry and value, but key-equal
    components keep their input order, and with it the sum's identity and
    move labels; key-equal but unequal boards keep sums apart.

    The key and the mobility reading are built on first use.  The key reads
    only the components' keys, which sorting them built when the sum was
    made, so keying a deep sum never recurses.
    Options and matrix cells alike are built by ``_successor``.  A sum reads
    its components' options and matrices through ``Position._kept``, so a
    strip, sum or explicit game builds them once for every sum that holds
    it.  The matrix's rows and columns follow option order, and equal cells
    are one object.
    """

    kind: str
    components: tuple[Position, ...]

    ruleset_tag = "sum"
    _keeps = True

    def __new__(cls, kind: str, components):
        if kind not in SUM_KINDS:
            raise BadParameters(f"unknown sum kind {kind!r}")
        parts = _parts(kind, components)
        if len(parts) < 2:
            raise BadParameters("a sum needs at least two components")
        return _interned(cls, (kind, parts))

    def __init__(self, kind: str, components):
        """Nothing to set: ``__new__`` returns the one live sum of these parts."""

    def __repr__(self):
        """One level only, so the text stays short on deep sums."""
        return f"SumPosition({self.kind} [{','.join(c.ruleset_tag for c in self.components)}])"

    def _key_text(self) -> str:
        """One level: ``_parts`` built the components' keys."""
        return f"{self.kind}({';'.join(c.canonical_key() for c in self.components)})"

    # -- option structure ----------------------------------------------------

    def _read_mobility(self) -> Mobility:
        """This sum's kind rule, applied once to its components' readings.

        * ``+`` each player moves in one component; over when either player
          has no move anywhere; the mover with moves left wins.
        * ``^`` each player moves in every component; over when any
          component has no simultaneous options; whoever still has a move in
          every finished component wins.
        * ``v`` each player moves in every component where both still have
          moves; over when no component is live; whoever has a move in every
          component wins.

        A finished ``^`` or ``v`` sum offers no move to either player.  Nested
        sums with no reading yet are read first, by ``_prime``.
        """
        self._prime("reading")
        readings = [c._mobility() for c in self.components]
        if self.kind == DISJUNCTIVE:
            left = any(m.left for m in readings)
            right = any(m.right for m in readings)
            return Mobility(left, right, left, right)
        finished = [m for m in readings if not (m.left and m.right)]
        if self.kind == CONJUNCTIVE:
            live, judged = not finished, finished
        else:
            live, judged = len(finished) < len(readings), readings
        return Mobility(live, live, all(m.left for m in judged), all(m.right for m in judged))

    def _strategies(self, left: bool):
        """One player's pure strategies, each a tuple of component moves
        ``(component, option index, label, successor)``.  A player with no
        move anywhere has none; in particular a finished ``^`` or ``v`` sum
        offers none, while a finished ``+`` sum still offers the mobile
        player's component moves."""
        reading = self._mobility()
        if not (reading.left if left else reading.right):
            return []

        def moves(i):
            options = self.components[i]._kept(left)
            return [(i, k, lbl, succ) for k, (lbl, succ) in enumerate(options)]

        # ``+`` and ``^`` move in every component, ``v`` in the live ones.
        movers = [i for i, c in enumerate(self.components) if self.kind != CONTINUED or not c.is_terminal()]
        if self.kind == DISJUNCTIVE:
            return [(move,) for i in movers for move in moves(i)]
        return list(itertools.product(*map(moves, movers)))

    def _successor(self, row, col=(), grids=None, build=None) -> "SumPosition":
        """The sum after Left plays strategy ``row`` and Right plays ``col``;
        ``col`` empty gives the successor of ``row`` alone, played by either
        player.  Each moved component takes its unilateral successor, but a
        component both players moved in takes the cell of its own move
        matrix, ``grids[i]`` for component ``i``.  Such a component sits at
        the same place in both strategies: a ``+`` strategy is one move, and
        a ``^`` or ``v`` strategy moves in every mover, in order.  The move
        matrix passes ``build``, which looks its cells up before making them."""
        comps = list(self.components)
        for i, _, _, succ in row:
            comps[i] = succ
        for (i, lk, _, _), (j, rk, _, succ) in zip(row, col):
            comps[j] = grids[i][lk][rk] if i == j else succ
        return build(comps) if build else SumPosition(self.kind, comps)

    def _inner(self, part):
        """The nested sums that lack ``part``, for ``_prime``."""
        return [c for c in self.components if isinstance(c, SumPosition) and getattr(c, _KEPT[part]) is None]

    def options(self, left):
        self._prime(left)
        return tuple((_label(s), self._successor(s)) for s in self._strategies(left))

    def move_matrix(self) -> MoveMatrix:
        """Rows and columns follow option order; one object may fill many
        cells.  A cell is looked up in ``made`` by the ids of its components
        as placed, and built only on a miss.  Every object whose id is used
        stays alive for the whole build: it is held by ``self.components``,
        by the component matrices in ``own`` or by the strategies."""
        if self.is_terminal():
            return EMPTY_MATRIX
        self._prime("matrix")
        made = {}

        def build(comps):
            placed = tuple(map(id, comps))
            if (cell := made.get(placed)) is None:
                cell = made[placed] = SumPosition(self.kind, comps)
            return cell

        # Both players move in exactly the live components: every one for
        # ``^`` and ``v``, and ``+`` cells where the two moves meet.
        own = {i: c._kept("matrix") for i, c in enumerate(self.components) if not c.is_terminal()}
        grids = {i: m.cells for i, m in own.items()}
        if self.kind == DISJUNCTIVE:
            rows, cols = self._strategies(True), self._strategies(False)
        else:
            # A ``^`` or ``v`` strategy is a row (column) of every live
            # component's own matrix, so no unilateral successor is read.
            def picks(left):
                return list(itertools.product(*(
                    [(i, k, lbl, None) for k, lbl in enumerate(m.row_labels if left else m.col_labels)]
                    for i, m in own.items()
                )))

            rows, cols = picks(True), picks(False)
        cells = tuple(tuple(self._successor(row, col, grids, build) for col in cols) for row in rows)
        return MoveMatrix(tuple(map(_label, rows)), tuple(map(_label, cols)), cells)

    def _score(self) -> Fraction:
        """Sum of the scores of the components that count: the finished ones
        for ``^``, all of them otherwise (a finished ``+`` or ``v`` sum has no
        other kind).  Counted nested sums are added bottom up on ``_postorder``."""
        counted = lambda p: [c for c in p.components if p.kind != CONJUNCTIVE or c.is_terminal()]
        parts = lambda p: counted(p) if isinstance(p, SumPosition) else ()
        add = lambda p, kids: sum(kids, Fraction(0)) if isinstance(p, SumPosition) else p.terminal_score()
        (total,) = _postorder([self], parts, add)
        return total


def _parts(kind, components) -> tuple:
    """A sum's components: those of a sum of the same kind spliced in, then
    stably sorted by key."""
    flat = []
    for comp in components:
        if isinstance(comp, SumPosition) and comp.kind == kind:
            flat.extend(comp.components)
        else:
            flat.append(comp)
    return tuple(sorted(flat, key=lambda c: c.canonical_key()))


def _label(strategy) -> str:
    return "|".join(f"{i}:{lbl}" for i, _, lbl, _ in strategy)


def disjunctive(*components) -> SumPosition:
    return SumPosition(DISJUNCTIVE, components)


def conjunctive(*components) -> SumPosition:
    return SumPosition(CONJUNCTIVE, components)


def continued_conjunctive(*components) -> SumPosition:
    return SumPosition(CONTINUED, components)
