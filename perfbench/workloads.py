"""Seeded query sets for the four benchmark workloads.

A workload is a pool of queries drawn from the seed.  The timed phase runs
the pool in blocks: each block is the whole pool in a freshly shuffled
order, so every block does the same work and a run of k blocks has exactly
k times the pool's latency distribution.  The same seed gives the same pool
and the same block orders.

Each pool is a fixed catalogue of size classes.  The seed picks, for every
query, its orientation (the mirror image with Left's and Right's roles
swapped, which negates the value) and the order of its terms, and it picks
the order of every block.  Neither changes how much work a query is, so a
pool's cost profile, and with it every figure the benchmark reports, does
not depend on the seed; plain random draws moved those figures by 10-20%
from seed to seed.

A run repeats each query of a pool equally often, so the sorted latencies
come in one group per query.  Each cold pool has an odd size N, with 0.9 N
away from a whole number: the median and the 90th percentile then fall
inside one query's group, not on the gap between two queries, where run-to-
run noise would make them jump.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from simulgame import cli, verify

NORMAL = "normal"
SCORING = "scoring"
FORMATS = ("text", "json", "csv")

# Inputs that ROADMAP item 3 lists as crashing.  Their correct result is a
# documented exit code (2 or 3) without a traceback.
KNOWN_CRASHES = ("sq{1}{2}(1500)", "hb cordon(0; )")
TABLE_FAMILIES = ("sq{1}{2}", "sq'{1}{2}", "sq{1,2}{1,3}")
TABLE_N_MAX = 200


@dataclass(frozen=True)
class ColdQuery:
    """Parse, lower and evaluate one expression with a fresh Memo."""

    expr: str
    convention: str

    @property
    def label(self) -> str:
        return self.expr


@dataclass(frozen=True)
class CliQuery:
    """One in-process ``simulgame`` command line."""

    argv: tuple[str, ...]

    @property
    def label(self) -> str:
        return " ".join(self.argv)

    @property
    def convention(self) -> str | None:
        if "--convention" in self.argv:
            return self.argv[self.argv.index("--convention") + 1]
        return None


# -- conj_strips -------------------------------------------------------------

TWO_AMOUNT_SETS = ("1,2", "1,3", "2,3")
# (first length, second length) classes; each appears under ^ and v.
STRIP_LENGTHS = ((4, 3), (4, 4), (5, 4), (5, 5), (6, 5), (6, 6))


def _balanced_sets(rng: random.Random):
    """Three quadruples of amount sets in which each of the four slots
    (left and right set of each strip) takes every set exactly once."""
    slots = [rng.sample(TWO_AMOUNT_SETS, 3) for _ in range(4)]
    return list(zip(*slots))


def conj_strips(rng: random.Random) -> list[ColdQuery]:
    catalogue = random.Random("conj_strips catalogue")
    shapes = [
        (op, n1, n2, sets)
        for op in ("^", "v")
        for n1, n2 in STRIP_LENGTHS
        for sets in _balanced_sets(catalogue)
    ]
    # ROADMAP's probe pair at shorter lengths; it also makes the pool odd.
    shapes.append(("^", 5, 4, ("1,2", "1,3", "1,2", "2,3")))
    pool = []
    for op, n1, n2, (a, b, c, d) in shapes:
        if rng.random() < 0.5:
            a, b, c, d = b, a, d, c
        strips = [f"sq{{{a}}}{{{b}}}({n1})", f"sq{{{c}}}{{{d}}}({n2})"]
        pool.append(ColdQuery(f" {op} ".join(rng.sample(strips, 2)), NORMAL))
    return pool


# -- nested_sums -------------------------------------------------------------

# (outer operator, inner operator, leaves of the first inner sum, leaves of
# the second).  Leaves are singleton-set strips, stalks of at most 3 edges
# and clobber strips of at most 4 cells; larger leaves make single queries
# run for seconds.  The inner sums are components of the outer one, so
# joint_option runs on a nested sum.
NESTED_TEMPLATES = (
    ("^", "+", ("sq{1}{2}(2)", "sq{1}{2}(2)"), ("sq{1}{3}(3)", "hb[BR]")),
    ("^", "+", ("sq{1}{2}(3)", "sq{2}{3}(2)"), ("sq{3}{1}(3)", "cl[XO]")),
    ("^", "+", ("sq{3}{1}(2)", "cl[OXO]"), ("sq{1}{3}(3)", "cl[XO]")),
    ("^", "+", ("sq{1}{2}(4)", "cl[OXX]"), ("sq{1}{2}(3)", "hb[BB]")),
    ("v", "+", ("sq{1}{2}(3)", "sq{2}{1}(2)"), ("sq{1}{2}(3)", "hb[R]")),
    ("v", "+", ("sq{1}{2}(2)", "hb[BR]"), ("cl[XO]", "sq{1}{3}(4)")),
    ("v", "+", ("sq{2}{3}(4)", "cl[XOO]"), ("sq{3}{1}(3)", "hb[RR]")),
    ("v", "+", ("sq{1}{3}(4)", "hb[BR]"), ("sq{1}{2}(3)", "cl[XO]")),
    ("+", "^", ("sq{1}{2}(4)", "sq{3}{1}(3)"), ("sq{3}{1}(3)", "cl[XOX]")),
    ("+", "^", ("sq{2}{1}(4)", "sq{1}{2}(3)"), ("sq{1}{3}(4)", "cl[XXO]")),
    ("+", "v", ("sq{2}{1}(4)", "cl[XXXO]"), ("sq{1}{3}(4)", "hb[RB]")),
    ("+", "v", ("sq{3}{1}(4)", "hb[BBB]"), ("sq{1}{2}(4)", "hb[BR]")),
)
_MIRROR = str.maketrans("BRXO", "RBOX")


def _variant(leaf: str, mirror: bool, reverse: bool) -> str:
    """The leaf, as its mirror image if asked, a clobber strip reversed if
    asked (a reversed path is the same board)."""
    if mirror:
        if leaf.startswith("sq"):
            a, b, n = leaf[3:].replace("}{", " ").replace("}(", " ").rstrip(")").split()
            leaf = f"sq{{{b}}}{{{a}}}({n})"
        else:
            leaf = leaf.translate(_MIRROR)
    if reverse and leaf.startswith("cl"):
        leaf = f"cl[{leaf[3:-1][::-1]}]"
    return leaf


def nested_sums(rng: random.Random) -> list[ColdQuery]:
    pool = []
    for outer, inner, first, second in NESTED_TEMPLATES:
        for convention in (NORMAL, SCORING):
            mirror = rng.random() < 0.5
            sums = []
            for leaves in (first, second):
                terms = [_variant(x, mirror, rng.random() < 0.5) for x in leaves]
                sums.append("(" + f" {inner} ".join(rng.sample(terms, 2)) + ")")
            pool.append(ColdQuery(f" {outer} ".join(rng.sample(sums, 2)), convention))
    # ROADMAP's nested-sum probe at shorter lengths; it also makes the pool odd.
    pool.append(ColdQuery("(sq{1}{2}(3) + sq{1}{2}(2)) ^ (sq{1}{3}(2) + hb[BR])", NORMAL))
    return pool


# -- clobber_boards ----------------------------------------------------------

# Complete graphs carry the state-space cost; K6 is repeated so that the
# 90th percentile falls inside one board class rather than on the edge
# between boards and paths.
COMPLETE_BOARDS = {5: 3, 6: 4, 7: 1, 8: 1}
# (path length, number of X/O boundaries, paths in the catalogue)
PATH_CLASSES = ((6, 3, 4), (7, 3, 4), (7, 4, 4), (8, 3, 4), (8, 4, 4), (9, 4, 4))
_SWAP = str.maketrans("XO", "OX")


def _path(rng: random.Random, length: int, boundaries: int) -> str:
    while True:
        cells = "".join(rng.choice("XO") for _ in range(length))
        if sum(a != b for a, b in zip(cells, cells[1:])) == boundaries:
            return cells


def clobber_boards(rng: random.Random) -> list[ColdQuery]:
    """Complete graphs plus random X/O paths, each path in a seeded
    orientation: as drawn or with X and O swapped, read either way."""
    pool = [
        ColdQuery(f"cl:K{n}", SCORING)
        for n, copies in COMPLETE_BOARDS.items()
        for _ in range(copies)
    ]
    catalogue = random.Random("clobber_boards catalogue")
    for length, boundaries, count in PATH_CLASSES:
        for _ in range(count):
            cells = _path(catalogue, length, boundaries)
            if rng.random() < 0.5:
                cells = cells.translate(_SWAP)
            if rng.random() < 0.5:
                cells = cells[::-1]
            pool.append(ColdQuery(f"cl[{cells}]", SCORING))
    return pool


# -- cli_session -------------------------------------------------------------


def cli_session(rng: random.Random) -> list[CliQuery]:
    """Every command of one session; the blocks shuffle their order.

    Each corpus position runs under every measure; the output format cycles
    from a seeded offset, so every measure is seen in every format.
    """
    pool = [CliQuery(("verify", "paper")), CliQuery(("verify", "properties"))]
    for family in TABLE_FAMILIES:
        fmt = rng.choice(FORMATS)
        pool.append(CliQuery(("table", family, "--n-max", str(TABLE_N_MAX), "--format", fmt)))
    offset = rng.randrange(len(FORMATS))
    pairs = [(t, c) for t, conventions in verify.ACCEPTANCE_POSITIONS for c in conventions]
    for k, (text, convention) in enumerate(pairs):
        for m, measure in enumerate(cli.MEASURES):
            fmt = FORMATS[(offset + k + m) % len(FORMATS)]
            pool.append(
                CliQuery(
                    ("eval", text, "--convention", convention,
                     "--measure", measure, "--format", fmt)
                )
            )
    pool += [CliQuery(("eval", text)) for text in KNOWN_CRASHES]
    return pool


WORKLOADS = {
    "conj_strips": conj_strips,
    "nested_sums": nested_sums,
    "clobber_boards": clobber_boards,
    "cli_session": cli_session,
}


def make_pool(workload: str, seed: int) -> list:
    """The seeded query pool of a workload."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}:pool"))


def blocks(pool: list, workload: str, seed: int):
    """Endless seeded shuffles of the pool, one block per shuffle."""
    rng = random.Random(f"{workload}:{seed}:order")
    while True:
        yield rng.sample(pool, len(pool))
