"""Disjunctive, conjunctive, and continued-conjunctive sums.

A sum is itself a position, so sums nest and components may come from
different rulesets.  The three kinds differ only in their termination
rules: ``SumPosition._read_mobility`` states when play stops and who wins,
``_strategies`` the components a player moves in and ``_score`` those whose
scores count.  Nested sums are read, scored and given their options and
move matrices bottom up, on ``position._postorder``, and compared on an
explicit stack, so no operation on a sum recurses once per level.  A
player's pure strategy is one move in each component that player moves in,
enumerated over each component's own ``options(left)``, or, in a ``^`` or
``v`` move matrix, where both players move in every live component, over
the rows and columns of that component's own matrix.  One successor rule,
``SumPosition._successor``, gives the sum after a strategy pair or after
one player's strategy alone: each moved component takes its unilateral
successor, except that a component both players moved in takes the cell
of its own move matrix.  Every option of ``options(left)`` and every cell
of the move matrix come from that rule.  A move matrix builds one sum per
class of equal cells, so a matrix may hold one object in many cells, and a
nested level builds only what its caller reads.  Evaluation of a sum is
still global: the sum's matrix ranges over whole strategy tuples, and its
components are never pre-reduced (reducing components first changes
values; see the analysis module for the witnesses).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import BadParameters
from .position import EMPTY_MATRIX, Mobility, MoveMatrix, Position, _postorder

DISJUNCTIVE = "+"
CONJUNCTIVE = "^"
CONTINUED = "v"
SUM_KINDS = (DISJUNCTIVE, CONJUNCTIVE, CONTINUED)


class SumPosition(Position):
    """A sum of at least two component positions, flattened and stably
    sorted by component key.  Rearrangements share the key, memo entry and
    value, but key-equal components keep their input order, and with it
    the sum's equality and move labels.

    The key is built eagerly, since it orders the components; the mobility
    reading is not, since most sums built as matrix cells are answered by
    the memo and never asked who can move.  Equality compares the key, then
    the components themselves, so it never merges sums whose components
    only share an isomorphism class; the hash is the key's.
    Options and matrix cells alike are built by ``_successor``; the move
    matrix reads each component's own matrix at most once, its rows and
    columns follow option order, and it holds one sum per class of equal
    cells, so one object may fill many cells.
    """

    ruleset_tag = "sum"

    def __init__(self, kind: str, components):
        if kind not in SUM_KINDS:
            raise BadParameters(f"unknown sum kind {kind!r}")
        parts = _parts(kind, components)
        if len(parts) < 2:
            raise BadParameters("a sum needs at least two components")
        self.kind = kind
        self.components = tuple(parts)
        self._key = f"{kind}({';'.join(c.canonical_key() for c in self.components)})"

    def __eq__(self, other):
        """Key-equal sums compare level by level, on an explicit stack."""
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if not (isinstance(b, SumPosition) and a._key == b._key):
                return False
            for c, d in zip(a.components, b.components):
                if isinstance(c, SumPosition):
                    pairs.append((c, d))
                elif c != d:
                    return False
        return True

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        """One level only, so the text stays short on deep sums."""
        return f"SumPosition({self.kind} [{','.join(c.ruleset_tag for c in self.components)}])"

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
        sums with no reading yet are read first, bottom up on ``_postorder``.
        """
        unread = lambda p: [c for c in p.components if isinstance(c, SumPosition) and c._reading is None]
        if todo := unread(self):
            _postorder(todo, unread, lambda p, _: p._mobility())
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

    def _strategies(self, left: bool, built):
        """One player's pure strategies, each a tuple of component moves
        ``(component, option index, label, successor)``.  A player with no
        move anywhere has none; in particular a finished ``^`` or ``v`` sum
        offers none, while a finished ``+`` sum still offers the mobile
        player's component moves.  A nested sum's options are read from
        ``built`` when ``_nested`` has built them."""
        reading = self._mobility()
        if not (reading.left if left else reading.right):
            return []

        def moves(i):
            entry = built.get(id(self.components[i]))
            options = entry[left] if entry else self.components[i].options(left)
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
        matrix passes ``build``, which makes one sum per class of equal
        cells; an option is always a sum of its own."""
        comps = list(self.components)
        for i, _, _, succ in row:
            comps[i] = succ
        for (i, lk, _, _), (j, rk, _, succ) in zip(row, col):
            comps[j] = grids[i][lk][rk] if i == j else succ
        return build(comps) if build else SumPosition(self.kind, comps)

    def _nested(self, *parts) -> dict:
        """For every sum nested in this one, by ``id``, the ``parts`` its
        caller reads, built bottom up on ``_postorder``: Left's options under
        ``True``, Right's under ``False``, the move matrix under ``"matrix"``.
        ``options(left)`` asks for that player's options alone,
        ``move_matrix`` for the matrix and both players' options, which a
        ``+`` level reads.  Empty, with no walk, unless a component holds a
        sum itself: a check made on every ``options`` and ``move_matrix``
        call, in one plain pass."""
        built = {}
        for c in self.components:
            for d in c.components if isinstance(c, SumPosition) else ():
                if isinstance(d, SumPosition):
                    sums = lambda p: [q for q in p.components if isinstance(q, SumPosition)]
                    build = lambda p, _: {
                        part: p._matrix(built) if part == "matrix" else p._options(part, built)
                        for part in parts
                    }
                    _postorder(sums(self), sums, build, table=(built.get, built.__setitem__))
                    return built
        return built

    def options(self, left):
        return self._options(left, self._nested(left))

    def _options(self, left, built):
        return tuple((_label(s), self._successor(s)) for s in self._strategies(left, built))

    def move_matrix(self) -> MoveMatrix:
        """Rows and columns follow option order; one object may fill many cells."""
        return self._matrix(self._nested(True, False, "matrix"))

    def _matrix(self, built) -> MoveMatrix:
        """One sum per class of equal cells.  Every unilateral successor of a
        ``+`` strategy and every cell of a live component's own matrix is
        mapped to the first ``==`` one met (``reps``); a cell is looked up in
        ``made`` by the ids of its components as placed, then as the sum
        keeps them (flattened and sorted), and built only when both miss.
        Equality, not the key, decides, so key-equal but unequal boards stay
        apart.  Every object whose id is used stays alive for the whole build:
        it is held by ``self.components`` or by ``reps``."""
        if self.is_terminal():
            return EMPTY_MATRIX
        reps, made = {}, {}
        same = lambda q: reps.setdefault(q, q)

        def build(comps):
            placed = tuple(map(id, comps))
            if (cell := made.get(placed)) is None:
                parts = tuple(map(same, _parts(self.kind, comps)))
                kept = tuple(map(id, parts))
                if (cell := made.get(kept)) is None:
                    cell = made[kept] = SumPosition(self.kind, parts)
                made[placed] = cell
            return cell

        # Both players move in exactly the live components: every one for
        # ``^`` and ``v``, and ``+`` cells where the two moves meet.
        own = {
            i: built[id(c)]["matrix"] if id(c) in built else c.move_matrix()
            for i, c in enumerate(self.components)
            if not c.is_terminal()
        }
        grids = {i: [list(map(same, r)) for r in m.cells] for i, m in own.items()}
        if self.kind == DISJUNCTIVE:
            rows, cols = (
                [((i, k, lbl, same(succ)),) for ((i, k, lbl, succ),) in self._strategies(left, built)]
                for left in (True, False)
            )
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


def _parts(kind, components) -> list:
    """A sum's components: those of a sum of the same kind spliced in, then
    stably sorted by key."""
    flat = []
    for comp in components:
        if isinstance(comp, SumPosition) and comp.kind == kind:
            flat.extend(comp.components)
        else:
            flat.append(comp)
    return sorted(flat, key=lambda c: c.canonical_key())


def _label(strategy) -> str:
    return "|".join(f"{i}:{lbl}" for i, _, lbl, _ in strategy)


def disjunctive(*components) -> SumPosition:
    return SumPosition(DISJUNCTIVE, components)


def conjunctive(*components) -> SumPosition:
    return SumPosition(CONJUNCTIVE, components)


def continued_conjunctive(*components) -> SumPosition:
    return SumPosition(CONTINUED, components)
