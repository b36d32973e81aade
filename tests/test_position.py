"""The position contract: a move pair is legal exactly when each move is
among its player's options, ``joint_option`` reads the move matrix, and
``terminal_score`` is the one public score."""

import copy
import gc
import pickle
from fractions import Fraction

import pytest

from simulgame import position
from simulgame.analysis import reduce_game
from simulgame.engine import SCORING, evaluate
from simulgame.errors import BadParameters, IllegalMove, LoopyGame, NotTerminal
from simulgame.gexpr import parse
from simulgame.position import ExplicitGame, Position, score, v_a
from simulgame.rulesets import clobber_complete, clobber_strip, hb_forest, sq
from simulgame.sums import conjunctive, continued_conjunctive, disjunctive

EXPLICIT = ExplicitGame(
    (score(1), score(0)),
    (score(-1),),
    ((score(2),), (score(-2),)),
)

# One position of each kind, each with a simultaneous move.
CORPUS = [
    sq({1, 2}, {1, 3}, 5),
    sq({1, 4}, {2}, 4, primed=True),
    clobber_complete(4),
    clobber_strip("OXOXO"),
    hb_forest(["G", "BR"]),
    EXPLICIT,
    disjunctive(sq({1}, {2}, 3), hb_forest(["BR"])),
    conjunctive(disjunctive(sq({1}, {2}, 3), clobber_strip("OX")), sq({1}, {3}, 4)),
    continued_conjunctive(sq({1}, {2}, 4), EXPLICIT, hb_forest(["G"])),
]

# Positions with no simultaneous move: nobody moves, or one player only.
STOPPED = [
    score(3),
    sq({1}, {2}, 1),
    sq({1}, {2}, 2, primed=True),
    ExplicitGame((score(0),), (), ()),
    conjunctive(sq({1}, {2}, 3), sq({1}, {2}, 1)),
    disjunctive(sq({1}, {2}, 1), score(2)),
]


@pytest.mark.parametrize("p", CORPUS, ids=lambda p: p.canonical_key())
def test_joint_option_is_the_matrix_cell(p):
    m = p.move_matrix()
    assert not m.is_empty
    for i, left in enumerate(m.row_labels):
        for j, right in enumerate(m.col_labels):
            assert p.joint_option(left, right) == m.cells[i][j]


@pytest.mark.parametrize("p", CORPUS, ids=lambda p: p.canonical_key())
def test_foreign_and_malformed_labels_name_the_player(p):
    m = p.move_matrix()
    left, right = m.row_labels[0], m.col_labels[0]
    foreign_left = next((c for c in m.col_labels if c not in m.row_labels), "L99")
    foreign_right = next((r for r in m.row_labels if r not in m.col_labels), "R99")
    for bad in (foreign_left, "", "bogus", "1>", "e"):
        with pytest.raises(IllegalMove, match="Left"):
            p.joint_option(bad, right)
    for bad in (foreign_right, "", "bogus", "1>", "e"):
        with pytest.raises(IllegalMove, match="Right"):
            p.joint_option(left, bad)


@pytest.mark.parametrize("p", STOPPED, ids=lambda p: p.canonical_key())
def test_no_simultaneous_move_is_illegal(p):
    assert p.move_matrix().is_empty
    labels = [l for l, _ in p.options(True)] + [r for r, _ in p.options(False)]
    for label in labels + ["bogus"]:
        with pytest.raises(IllegalMove, match="no simultaneous move"):
            p.joint_option(label, label)


def test_explicit_grid_is_checked_without_assert():
    with pytest.raises(BadParameters, match=r"\|L\| rows of \|R\| entries"):
        ExplicitGame((score(1),), (score(0),), ())
    with pytest.raises(BadParameters, match=r"\|L\| rows of \|R\| entries"):
        ExplicitGame((score(1),), (score(0),), ((score(0), score(1)),))
    with pytest.raises(BadParameters, match="empty when an option list is empty"):
        ExplicitGame((score(1),), (), ((score(0),),))


# One position of each kind: a strip, a clobber path and complete graph, a
# stalk, an explicit game, a score, and a sum of each kind.
KINDS = [
    sq({1}, {2}, 3),
    clobber_strip("XO"),
    clobber_complete(4),
    hb_forest(["BRB"]),
    EXPLICIT,
    score(3),
    disjunctive(sq({1}, {2}, 3), hb_forest(["BR"])),
    conjunctive(sq({1}, {2}, 3), clobber_strip("OX")),
    continued_conjunctive(sq({1}, {2}, 4), hb_forest(["G"])),
]


@pytest.mark.parametrize("p", KINDS, ids=lambda p: p.canonical_key())
def test_terminal_score_is_the_only_public_score(p):
    assert not hasattr(p, "component_score")


def test_terminal_score_checks_that_play_is_over():
    with pytest.raises(NotTerminal):
        clobber_strip("XO").terminal_score()


class _OneSidedLoop(Position):
    """Left's only option is the position itself; Right has none."""

    ruleset_tag = "loop"

    def options(self, left):
        return (("l", self),) if left else ()

    def _key_text(self):
        return "one-sided-loop"


def test_move_count_score_detects_a_loop():
    # Without the guard the chain would push the same position forever.
    p = _OneSidedLoop()
    with pytest.raises(LoopyGame):
        v_a(p)
    with pytest.raises(LoopyGame):
        p.terminal_score()
    with pytest.raises(LoopyGame):
        evaluate(p, SCORING)


def _chain(depth, bottom=0):
    game = score(bottom)
    for _ in range(depth):
        game = ExplicitGame((score(0),), (score(0),), ((game,),))
    return game


def test_explicit_equality_walks_deep_games_without_recursion():
    # Two separately built 3000-deep chains: one object, so equal without a
    # walk, and unequal when only the bottom score differs.
    assert _chain(3000) == _chain(3000)
    assert not _chain(3000) != _chain(3000)
    assert _chain(3000) != _chain(3000, bottom=1)
    assert _chain(3000) != _chain(2999)


def test_explicit_equality_is_field_wise_not_by_key():
    # Mirror-image boards share a key but are different positions.
    a, b = clobber_strip("OXX"), clobber_strip("XXO")
    assert a.canonical_key() == b.canonical_key()
    wrap = lambda board: ExplicitGame((board,), (score(0),), ((score(1),),))
    assert wrap(a) != wrap(b)
    assert wrap(a) == wrap(clobber_strip("OXX"))


def test_equal_explicit_games_are_one_object():
    # Built twice from distinct but equal leaves.
    assert score(1) is not score(1)
    first = ExplicitGame((score(1), score(0)), (score(-1),), ((score(2),), (score(-2),)))
    assert first is EXPLICIT
    assert first is not ExplicitGame((score(0), score(1)), (score(-1),), ((score(2),), (score(-2),)))
    game = parse("x{L:[o(L),o(L)] | R:[s(0)] | LR:[[s(0)],[s(0)]]}")
    assert game.lefts[0] is game.lefts[1]


def test_copies_of_an_explicit_game_are_the_game_itself():
    game = _chain(5)
    assert copy.copy(game) is game
    assert copy.deepcopy(game) is game
    assert pickle.loads(pickle.dumps(game)) is game


def test_live_explicit_games_are_not_kept_alive():
    # Explicit games, strips and sums share one table, one entry each.
    fresh = [
        lambda i: ExplicitGame((score(Fraction(i, 1_000_003)),), (), ()),
        lambda i: sq({1_000_003}, {1}, i),
        lambda i: disjunctive(score(Fraction(i, 1_000_003)), score(0)),
    ]
    for make in fresh:
        before = len(position._LIVE)
        games = [make(i) for i in range(1, 1001)]
        assert len(position._LIVE) == before + 1000
        del games
        gc.collect()
        assert len(position._LIVE) == before


def test_explicit_grid_messages():
    with pytest.raises(BadParameters) as bad_rows:
        ExplicitGame((score(1),), (score(0),), ())
    assert str(bad_rows.value) == "LR grid must be |L| rows of |R| entries"
    with pytest.raises(BadParameters) as bad_empty:
        ExplicitGame((), (score(0),), ((),))
    assert str(bad_empty.value) == "LR grid must be empty when an option list is empty"


def test_explicit_repr_prints_one_level():
    # The field-wise repr recursed on the chain and ran to millions of
    # characters on the reduction, one copy per path to each subgame.
    for game in (_chain(3000), reduce_game(sq({1}, {2}, 20))):
        assert len(repr(game)) < 200
    assert repr(EXPLICIT) == "ExplicitGame(L[score,score] R[score] T[2x1])"
