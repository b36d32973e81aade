"""The three concrete rulesets: subtraction strips, clobber, hackenbush.

Each position type gives one move rule ``options(left)``, applied with
Left's subtraction set, colour or pieces when ``left`` is true and with
Right's otherwise, the private pair rule ``_joint`` that resolves a pair
of option labels, ``_key_text`` and, where the ruleset has one, its own
score hook ``_score`` (see ``position``).
Legality is membership in the option lists, checked once by ``Position``,
so no ruleset checks a move pair.  Builders at the bottom construct the boards the
test corpus and the expression grammar need (strips, complete graphs,
stalks, forests, cordons).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import BadCordonSpec, BadParameters
from .position import Position, _interned

BLUE, RED, GREEN = "B", "R", "G"


# ---------------------------------------------------------------------------
# Subtraction strips
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False, init=False)
class SqPosition(Position):
    """A strip of n squares; players subtract from either end.

    Simultaneous rule: same side removes max(p, q); opposite sides remove
    p + q, clamped to an empty strip when max(p, q) <= n <= p + q.
    A primed player has no move at all on a strip of length 2:
    ``sq(primed=True)`` primes Left (the ``sq'`` variants), and
    ``right_primed`` mirrors it for Right so role swaps stay inside the type.
    Equal strips are one object (``position._interned``), so identity is
    field-wise equality.
    """

    left_set: frozenset[int]
    right_set: frozenset[int]
    n: int
    left_primed: bool = False
    right_primed: bool = False

    ruleset_tag = "sq"
    _keeps = True

    def __new__(cls, left_set, right_set, n, left_primed=False, right_primed=False):
        def check():
            if n < 0:
                raise BadParameters("strip length must be >= 0")
            if not left_set or not right_set:
                raise BadParameters("subtraction sets must be nonempty")
            if any(x <= 0 for x in left_set | right_set):
                raise BadParameters("subtraction amounts must be positive")

        return _interned(cls, (left_set, right_set, n, left_primed, right_primed), check)

    def options(self, left):
        if self.n == 2 and (self.left_primed if left else self.right_primed):
            return ()
        out = []
        for p in sorted(self.left_set if left else self.right_set):
            if p <= self.n:
                succ = self._at(self.n - p)
                out += [(f"{p}l", succ), (f"{p}r", succ)]
        return tuple(out)

    def _at(self, n: int) -> "SqPosition":
        """The strip of length n with this one's sets and primes."""
        return SqPosition(self.left_set, self.right_set, n, self.left_primed, self.right_primed)

    def _joint(self, left_label, right_label) -> "SqPosition":
        """Apply a simultaneous pair of subtraction moves."""
        a, aside = int(left_label[:-1]), left_label[-1]
        b, bside = int(right_label[:-1]), right_label[-1]
        if aside == bside:
            remaining = self.n - max(a, b)
        elif max(a, b) <= self.n <= a + b:
            remaining = 0
        else:
            remaining = self.n - a - b
        return self._at(remaining)

    def _key_text(self) -> str:
        def fs(s):
            return ",".join(str(x) for x in sorted(s))

        bl = "2" if self.left_primed else ""
        br = "2" if self.right_primed else ""
        return f"sq({fs(self.left_set)}|{fs(self.right_set)}|bl:{bl}|br:{br})({self.n})"

    def swap_roles(self) -> "SqPosition":
        return SqPosition(
            self.right_set, self.left_set, self.n, self.right_primed, self.left_primed
        )


def sq(left, right, n, primed=False) -> SqPosition:
    """Strip position; primed variants block Left's move on a 2-strip."""
    return SqPosition(frozenset(left), frozenset(right), n, primed)


# ---------------------------------------------------------------------------
# Clobber
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClobberPosition(Position):
    """Pieces on a graph; a move clobbers an adjacent opposing piece.

    ``acc`` counts the O pieces Left has clobbered so far; it is the score
    of the position once play stops.  Captures resolve against the
    start-of-round occupancy: a piece that moved away this round cannot be
    captured, and a vacated target square is occupied without capture.
    Mutual clobbers annihilate both movers and credit nothing.

    A move always lands on a square that held an opposing piece, so an
    empty square never fills again: the game is the coloured graph induced
    on the occupied squares, plus ``acc``.  The canonical key spells that
    graph relabelled in a colour-refinement order, so boards that differ
    only by a relabelling (a reversed path, a segment moved along the
    board, the pieces of ``cl:Kn``) usually share one key.  Equal keys
    always mean isomorphic games; ties the refinement cannot split may give
    isomorphic boards different keys, which loses sharing but no value.
    """

    edges: frozenset[tuple[int, int]]
    occupancy: tuple[str, ...]
    acc: int = 0

    ruleset_tag = "cl"

    def __post_init__(self):
        if self.acc < 0:
            raise BadParameters("clobber capture count cannot be negative")
        for ch in self.occupancy:
            if ch not in "XO_":
                raise BadParameters(f"bad occupancy symbol {ch!r}")
        for u, v in self.edges:
            if not (0 <= u < len(self.occupancy) and 0 <= v < len(self.occupancy)):
                raise BadParameters("edge endpoint outside the board")

    def _neighbors(self):
        """Sorted neighbours of every square, shared by all boards on one edge set."""
        return _adjacency(self.edges, len(self.occupancy))

    def options(self, left):
        mover, target = ("X", "O") if left else ("O", "X")
        neighbors = self._neighbors()
        return tuple(
            (f"{u}>{v}", self._apply_unilateral(u, v, left))
            for u, ch in enumerate(self.occupancy)
            if ch == mover
            for v in neighbors[u]
            if self.occupancy[v] == target
        )

    def _apply_unilateral(self, u, v, left: bool) -> "ClobberPosition":
        occ = list(self.occupancy)
        occ[u] = "_"
        occ[v] = "X" if left else "O"
        return ClobberPosition(self.edges, tuple(occ), self.acc + (1 if left else 0))

    def _joint(self, left_label, right_label) -> "ClobberPosition":
        """Resolve a simultaneous pair of clobber moves."""
        lu, lv = (int(x) for x in left_label.split(">"))
        ru, rv = (int(x) for x in right_label.split(">"))
        occ = list(self.occupancy)
        acc = self.acc
        if ru == lv and rv == lu:
            # The two movers clobber each other; both disappear, no credit.
            occ[lu] = "_"
            occ[lv] = "_"
        else:
            occ[lu] = "_"
            occ[ru] = "_"
            if ru != lv:
                acc += 1  # the targeted O was still there at resolution
            occ[lv] = "X"
            occ[rv] = "O"
        return ClobberPosition(self.edges, tuple(occ), acc)

    def _key_text(self) -> str:
        neighbors = self._neighbors()
        colour = {u: ch for u, ch in enumerate(self.occupancy) if ch != "_"}
        classes = len(set(colour.values()))
        while True:
            signature = {
                u: (c, tuple(sorted(colour[v] for v in neighbors[u] if v in colour)))
                for u, c in colour.items()
            }
            rank = {s: i for i, s in enumerate(sorted(set(signature.values())))}
            if len(rank) == classes:
                break
            colour = {u: rank[s] for u, s in signature.items()}
            classes = len(rank)
        order = sorted(colour, key=lambda u: (colour[u], u))
        index = {u: i for i, u in enumerate(order)}
        edges = sorted(
            tuple(sorted((index[u], index[v]))) for u, v in self.edges if u in index and v in index
        )
        es = ",".join(f"{a}-{b}" for a, b in edges)
        return f"cl({es}|{''.join(self.occupancy[u] for u in order)}|{self.acc})"

    def _score(self) -> Fraction:
        return Fraction(self.acc)


@lru_cache(maxsize=64)
def _adjacency(edges: frozenset[tuple[int, int]], size: int) -> tuple[tuple[int, ...], ...]:
    neighbors = [[] for _ in range(size)]
    for u, v in edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
    return tuple(tuple(sorted(vs)) for vs in neighbors)


def _path_edges(length: int) -> frozenset[tuple[int, int]]:
    return frozenset((i, i + 1) for i in range(length - 1))


def clobber_strip(cells: str) -> ClobberPosition:
    """Clobber on a path, e.g. 'OXO'."""
    return ClobberPosition(_path_edges(len(cells)), tuple(cells))


def clobber_complete(n: int) -> ClobberPosition:
    """Complete graph on n vertices, one X and n-1 O pieces."""
    if n < 2:
        raise BadParameters("complete-graph clobber needs n >= 2")
    edges = frozenset((i, j) for i in range(n) for j in range(i + 1, n))
    return ClobberPosition(edges, ("X",) + ("O",) * (n - 1))


# ---------------------------------------------------------------------------
# Hackenbush
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HackenbushPosition(Position):
    """Coloured edges over rooted ground; unrooted fragments fall off.

    Edges are (id, lower vertex, upper vertex, colour) and keep their ids
    across removals, so move labels stay stable.  Construction prunes any
    edge not connected to a root.  A finished board has no green edge and
    one colour at most (else both could move): it scores its signed count.
    """

    roots: frozenset[int]
    edges: tuple[tuple[int, int, int, str], ...]

    ruleset_tag = "hb"

    def __post_init__(self):
        normalized = _prune(self.roots, tuple(sorted(self.edges)))
        object.__setattr__(self, "edges", normalized)

    def options(self, left):
        colors = (BLUE if left else RED, GREEN)
        return tuple((f"e{e[0]}", self._remove({e[0]})) for e in self.edges if e[3] in colors)

    def _joint(self, left_label, right_label) -> "HackenbushPosition":
        """Remove both chosen edges (once, if the same green edge), then prune."""
        return self._remove({int(left_label[1:]), int(right_label[1:])})

    def _remove(self, ids: set[int]) -> "HackenbushPosition":
        kept = tuple(e for e in self.edges if e[0] not in ids)
        return HackenbushPosition(self.roots, kept)

    def _key_text(self) -> str:
        rs = ",".join(str(r) for r in sorted(self.roots))
        es = ";".join(f"{i}:{u}-{v}{c}" for i, u, v, c in self.edges)
        return f"hb(roots[{rs}]|{es})"

    def _score(self) -> Fraction:
        return Fraction(sum(1 if e[3] == BLUE else -1 for e in self.edges))

    def swap_roles(self) -> "HackenbushPosition":
        flip = {BLUE: RED, RED: BLUE, GREEN: GREEN}
        return HackenbushPosition(
            self.roots, tuple((i, u, v, flip[c]) for i, u, v, c in self.edges)
        )


def _prune(roots: frozenset[int], edges: tuple) -> tuple:
    """Keep only edges connected to some root through surviving edges."""
    reachable = set(roots)
    remaining = list(edges)
    grew = True
    while grew:
        grew = False
        for e in remaining:
            _, u, v, _ = e
            if u in reachable or v in reachable:
                if u not in reachable or v not in reachable:
                    reachable.add(u)
                    reachable.add(v)
                    grew = True
    return tuple(e for e in edges if e[1] in reachable and e[2] in reachable)


def hb_forest(stalks: list[str]) -> HackenbushPosition:
    """Side-by-side stalks, each rooted separately; colours bottom-up."""
    edges = []
    roots = set()
    vertex = 0
    eid = 0
    for colors in stalks:
        root = vertex
        roots.add(root)
        for c in colors:
            if c not in (BLUE, RED, GREEN):
                raise BadParameters(f"unknown edge colour {c!r}")
            edges.append((eid, vertex, vertex + 1, c))
            eid += 1
            vertex += 1
        vertex += 1
    return HackenbushPosition(frozenset(roots), tuple(edges))


def hb_stalk(colors: str) -> HackenbushPosition:
    return hb_forest([colors])


def hb_cordon(n: int, attachments: list[tuple[int, str]] = ()) -> HackenbushPosition:
    """Blue stalk of height n with coloured leaf edges at interior vertices.

    Attachment indices must be nondecreasing and lie in 1..n-1.
    """
    if n < 1:
        raise BadCordonSpec("cordon height must be >= 1")
    last = 0
    for idx, color in attachments:
        if not 1 <= idx <= n - 1:
            raise BadCordonSpec(f"attachment index {idx} outside 1..{n - 1}")
        if idx < last:
            raise BadCordonSpec("attachment indices must be nondecreasing")
        if color not in (BLUE, RED, GREEN):
            raise BadCordonSpec(f"unknown leaf colour {color!r}")
        last = idx
    edges = [(i, i, i + 1, BLUE) for i in range(n)]
    leaf_vertex = n + 1
    for j, (idx, color) in enumerate(attachments):
        edges.append((n + j, idx, leaf_vertex, color))
        leaf_vertex += 1
    return HackenbushPosition(frozenset({0}), tuple(edges))


def clobber_one_x_strip(flank: int) -> ClobberPosition:
    """Path with a single X between two O runs of the given length."""
    return clobber_strip("O" * flank + "X" + "O" * flank)


BUILTIN_BOARDS = {
    ("hb", "fig5G"): lambda: hb_forest(["BR", "BR"]),  # the worked two-stalk example
    ("hb", "fig5H"): lambda: hb_forest(["BR", "BB"]),
    ("cl", "fig9"): lambda: clobber_strip("OOXOXOO"),
}
