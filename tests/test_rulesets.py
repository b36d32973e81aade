"""Ruleset mechanics: option sets, simultaneous resolution, scores."""

import itertools
import random

import pytest

from simulgame.errors import BadCordonSpec, BadParameters, IllegalMove
from simulgame.gexpr import parse
from simulgame.position import ExplicitGame, v_a
from simulgame.rulesets import (
    ClobberPosition,
    clobber_complete,
    clobber_strip,
    hb_cordon,
    hb_forest,
    hb_stalk,
    sq,
)


# -- subtraction strips -------------------------------------------------------


def test_strip3_matrix_shape_and_cells():
    p = sq({1}, {2}, 3)
    m = p.move_matrix()
    assert m.row_labels == ("1l", "1r")
    assert m.col_labels == ("2l", "2r")
    assert [[c.n for c in row] for row in m.cells] == [[1, 0], [0, 1]]


def test_strip0_is_terminal():
    assert sq({1}, {2}, 0).move_matrix().is_empty
    assert sq({1}, {2}, 0).is_terminal()


def test_strip1_terminal_left_win():
    p = sq({1}, {2}, 1)
    assert p.is_terminal()
    assert p.normal_outcome() == "L"


def test_primed_multi_amount_matrix():
    p = sq({1, 4}, {2}, 4, primed=True)
    m = p.move_matrix()
    assert m.row_labels == ("1l", "1r", "4l", "4r")
    assert m.col_labels == ("2l", "2r")
    assert [[c.n for c in row] for row in m.cells] == [[2, 1], [1, 2], [0, 0], [0, 0]]


def test_primed_blocks_left_on_two():
    p = sq({1}, {2}, 2, primed=True)
    assert p.options(True) == ()
    assert p._mobility().right
    assert p.normal_outcome() == "R"


def test_same_side_takes_max():
    p = sq({1}, {2}, 3)
    assert p.joint_option("1l", "2l").n == 1


def test_opposite_sides_subtract_both():
    p = sq({1}, {2}, 5)
    assert p.joint_option("1l", "2r").n == 2


def test_opposite_sides_clamp_to_zero():
    # Overlapping removals: max(10, 2) <= 12 <= 12 empties the strip.
    p = sq({1, 10}, {2}, 12)
    assert p.joint_option("10l", "2r").n == 0


def test_illegal_takes_rejected():
    p = sq({1}, {2}, 1)
    with pytest.raises(IllegalMove):
        p.joint_option("1l", "2l")
    with pytest.raises(IllegalMove):
        sq({1}, {2}, 2, primed=True).joint_option("1l", "2l")
    with pytest.raises(IllegalMove, match="Left"):
        sq({1}, {2}, 3).joint_option("3l", "2l")
    with pytest.raises(IllegalMove, match="Right"):
        sq({1}, {2}, 3).joint_option("1l", "2x")


def test_strip_options_cover_both_sides():
    p = sq({1, 3}, {2}, 7)
    labels = [l for l, _ in p.options(True)]
    assert labels == ["1l", "1r", "3l", "3r"]


def test_strip_role_swap():
    p = sq({1}, {2}, 5, primed=True)
    q = p.swap_roles()
    assert q.options(False) == () or q.n != 2
    assert q.left_set == frozenset({2}) and q.right_set == frozenset({1})
    assert q.right_primed and not q.left_primed


def test_bad_strip_parameters():
    with pytest.raises(BadParameters):
        sq(set(), {2}, 3)
    with pytest.raises(BadParameters):
        sq({0}, {2}, 3)
    with pytest.raises(BadParameters):
        sq({1}, {2}, -1)


# -- clobber ------------------------------------------------------------------


def test_two_cell_strip_annihilates():
    p = clobber_strip("OX")
    m = p.move_matrix()
    assert m.row_labels == ("1>0",) and m.col_labels == ("0>1",)
    after = m.cells[0][0]
    assert after.occupancy == ("_", "_")
    assert after.acc == 0


def test_three_cell_forced_pair():
    p = clobber_strip("OOX")
    m = p.move_matrix()
    assert len(m.row_labels) == 1 and len(m.col_labels) == 1
    after = m.cells[0][0]
    assert after.occupancy == ("O", "_", "_")
    assert after.acc == 0
    assert after.is_terminal()


def test_nonmutual_pair_relocates_both():
    p = clobber_strip("OXO")
    after = p.joint_option("1>0", "2>1")
    assert after.occupancy == ("X", "O", "_")
    assert after.acc == 1


def test_unilateral_left_capture_counts():
    p = clobber_strip("OXO")
    succ = dict(p.options(True))["1>0"]
    assert succ.occupancy == ("X", "_", "O")
    assert succ.acc == 1


def test_unilateral_right_capture_removes_x():
    p = clobber_strip("OXO")
    succ = dict(p.options(False))["0>1"]
    assert succ.occupancy == ("_", "O", "O")
    assert succ.acc == 0


def test_complete_graph_matrix_shape():
    p = clobber_complete(4)
    m = p.move_matrix()
    assert len(m.row_labels) == 3 and len(m.col_labels) == 3
    survivors = {len([c for c in cell.occupancy if c != "_"]) for row in m.cells for cell in row}
    assert survivors == {2, 3}


def test_complete_graph_nonmutual_keeps_complete_shape():
    p = clobber_complete(4)
    after = p.joint_option("0>1", "2>0")
    occupied = [i for i, c in enumerate(after.occupancy) if c != "_"]
    assert len(occupied) == 3
    assert after.occupancy.count("X") == 1
    assert after.acc == 1


def test_clobber_illegal_move():
    with pytest.raises(IllegalMove, match="Right"):
        clobber_strip("OXO").joint_option("1>0", "0>2")
    board = clobber_strip("OXXO")
    # Right's 0>1 is legal; each Left move is not.
    for left_move in ("1>3", "1>2", "0>1", "1>7"):
        with pytest.raises(IllegalMove, match="Left"):
            board.joint_option(left_move, "0>1")


def test_clobber_piece_count_strictly_decreases():
    rng = random.Random(5)
    for start in ("OXO", "OOXOO", "XOXO", "OOXXOO"):
        p = clobber_strip(start)
        while not p.is_terminal():
            m = p.move_matrix()
            before = sum(c != "_" for c in p.occupancy)
            p = m.cells[rng.randrange(len(m.row_labels))][rng.randrange(len(m.col_labels))]
            assert sum(c != "_" for c in p.occupancy) < before


def test_clobber_validation():
    with pytest.raises(BadParameters):
        ClobberPosition(frozenset(), ("Q",))
    with pytest.raises(BadParameters):
        clobber_complete(1)


# -- hackenbush ---------------------------------------------------------------


def test_single_pair_stalk_vanishes():
    p = hb_stalk("BR")
    after = p.joint_option("e0", "e1")
    assert after.edges == ()


def test_pruning_drops_disconnected_top():
    p = hb_stalk("BBR")
    after = p.joint_option("e0", "e2")
    assert after.edges == ()


def test_two_stalk_board_keeps_other_stalk():
    p = hb_forest(["BR", "BR"])
    after = p.joint_option("e0", "e3")
    assert [e[3] for e in after.edges] == ["B"]


def test_left_cannot_take_red():
    with pytest.raises(IllegalMove, match="Left"):
        hb_stalk("BR").joint_option("e1", "e1")


def test_green_edge_usable_by_both():
    p = hb_stalk("G")
    after = p.joint_option("e0", "e0")
    assert after.edges == ()


def test_hackenbush_score_rule():
    assert hb_stalk("BB").terminal_score() == 2
    assert hb_stalk("RRR").terminal_score() == -3
    assert hb_stalk("").terminal_score() == 0


def _reachable(p):
    """p and every position reached from it by one player's move or a pair."""
    seen, todo = {p}, [p]
    while todo:
        q = todo.pop()
        successors = [s for left in (True, False) for _, s in q.options(left)]
        successors += [s for row in q.move_matrix().cells for s in row]
        for s in successors:
            if s not in seen:
                seen.add(s)
                todo.append(s)
    return seen


def test_hackenbush_terminals_score_the_signed_count():
    # Stalks of up to 6 edges, the two builtin boards and the cordons of the
    # verify manifest's cordon check.
    starts = [hb_stalk("".join(c)) for k in range(7) for c in itertools.product("BRG", repeat=k)]
    starts += [parse("hb:fig5G"), parse("hb:fig5H")]
    for n in (1, 2, 3):
        for a in (0, 1, 2):
            for b in (0, 1, 2):
                if (a or b) and n < 2:
                    continue
                leaves = [(1, "B")] * a + [(1, "R")] * b
                if n == 3 and leaves:
                    leaves[-1] = (2, leaves[-1][1])
                starts.append(hb_cordon(n, leaves))
    terminals = {q for p in starts for q in _reachable(p) if q.is_terminal()}
    for q in terminals:
        colours = {e[3] for e in q.edges}
        assert "G" not in colours and len(colours) <= 1
        assert q.terminal_score() == v_a(q)
    assert {q.terminal_score() for q in terminals} == set(range(-6, 7))


def test_move_count_score():
    assert v_a(hb_stalk("BB")) == 2
    assert v_a(hb_stalk("RRR")) == -3
    assert v_a(hb_stalk("")) == 0


def test_edge_count_strictly_decreases():
    rng = random.Random(9)
    for colors in ("BRBR", "BBRB", "RBRB"):
        p = hb_stalk(colors)
        while not p.is_terminal():
            m = p.move_matrix()
            before = len(p.edges)
            p = m.cells[rng.randrange(len(m.row_labels))][rng.randrange(len(m.col_labels))]
            assert len(p.edges) < before


def test_cordon_shape():
    p = hb_cordon(5, [(1, "R"), (3, "B")])
    stalk_edges = [e for e in p.edges if e[0] < 5]
    assert all(e[3] == "B" for e in stalk_edges)
    leaf_colors = sorted(e[3] for e in p.edges if e[0] >= 5)
    assert leaf_colors == ["B", "R"]


def test_cordon_validation():
    with pytest.raises(BadCordonSpec):
        hb_cordon(2, [(2, "B")])
    with pytest.raises(BadCordonSpec):
        hb_cordon(3, [(2, "B"), (1, "R")])
    with pytest.raises(BadCordonSpec):
        hb_cordon(0)


def test_hackenbush_role_swap():
    p = hb_stalk("BRB").swap_roles()
    assert [e[3] for e in p.edges] == ["R", "B", "R"]


def test_hackenbush_score_guard():
    from simulgame.errors import NotTerminal

    assert hb_stalk("BB").terminal_score() == 2
    assert hb_stalk("").terminal_score() == 0
    with pytest.raises(NotTerminal):
        hb_stalk("BR").terminal_score()


# -- one move rule per player ---------------------------------------------------

# Each position with the labels of Left's options: Left subtracts its own
# amounts (and is blocked on a primed 2-strip) and cuts blue or green edges.
SWAPPABLE = {
    "sq{1,3}{2}(7)": ["1l", "1r", "3l", "3r"],
    "sq{1}{2,4}(5)": ["1l", "1r"],
    "sq'{1}{2}(2)": [],
    "sq'{1,4}{2}(4)": ["1l", "1r", "4l", "4r"],
    "hb[BRG]": ["e0", "e2"],
    "hb[GGRB]": ["e0", "e1", "e3"],
    "hb[RRB]": ["e2"],
    "s(3)": [],
    "s(-2)": [],
}
EXPLICIT = ["x{L:[s(1),s(2)] | R:[s(3)] | LR:[[s(0)],[o(L)]]}", "o(L)", "o(R)"]
BOARDS = ["cl[OXO]", "cl[XXO_OX]", "cl:K4", "cl:fig9"]


@pytest.mark.parametrize("left", [True, False])
@pytest.mark.parametrize("text", SWAPPABLE)
def test_swapped_roles_swap_the_options(text, left):
    # Each ruleset states its move rule once; with the roles swapped, one
    # player's options are the other's, successor by successor.
    p = parse(text)
    assert [label for label, _ in p.options(True)] == SWAPPABLE[text]
    mine, theirs = p.options(not left), p.swap_roles().options(left)
    assert [label for label, _ in theirs] == [label for label, _ in mine]
    assert [q.canonical_key() for _, q in theirs] == [
        q.swap_roles().canonical_key() for _, q in mine
    ]


@pytest.mark.parametrize("left", [True, False])
@pytest.mark.parametrize("text", EXPLICIT)
def test_explicit_options_follow_the_player(text, left):
    # The mirror lists Right's options as Left's and transposes the table.
    p = parse(text)
    mirror = ExplicitGame(p.rights, p.lefts, tuple(zip(*p.table)))
    side = "L" if left else "R"
    assert all(label[0] == side for label, _ in p.options(left))
    assert [(label[1:], g) for label, g in mirror.options(left)] == [
        (label[1:], g) for label, g in p.options(not left)
    ]


@pytest.mark.parametrize("left", [True, False])
@pytest.mark.parametrize("text", BOARDS)
def test_clobber_colour_swap_swaps_the_options(text, left):
    # Swapping X and O gives the other player the same moves; only Left's
    # captures add to the capture count.
    p = parse(text)
    flip = str.maketrans("XO", "OX")
    mirror = ClobberPosition(p.edges, tuple("".join(p.occupancy).translate(flip)))
    mine, theirs = p.options(not left), mirror.options(left)
    assert mine and [label for label, _ in theirs] == [label for label, _ in mine]
    for (_, q), (_, r) in zip(mine, theirs):
        assert r.occupancy == tuple("".join(q.occupancy).translate(flip))
        assert (q.acc, r.acc) == ((0, 1) if left else (1, 0))
