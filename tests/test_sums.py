"""Sum combinators: termination, winners, scores, and the negative results."""

import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from simulgame.engine import NORMAL, SCORING, Memo, evaluate, guarantee_profile, outcome
from simulgame.errors import BadParameters, NotTerminal
from simulgame.gexpr import parse
from simulgame.position import ExplicitGame, Position, outcome_literal, score, v_a
from simulgame.rulesets import SqPosition, clobber_strip, hb_stalk, sq
from simulgame.sums import SumPosition, conjunctive, continued_conjunctive, disjunctive
from simulgame.verify import additivity_sample

F = Fraction
MEMO = Memo()


def s12(n, primed=False):
    return sq({1}, {2}, n, primed=primed)


# -- disjunctive ---------------------------------------------------------------


def test_two_plus_two():
    pair = disjunctive(s12(2), s12(2))
    assert evaluate(pair, NORMAL, memo=MEMO).ex == F(1, 2)
    assert evaluate(pair, NORMAL, memo=MEMO).ex != 2 * evaluate(s12(2), NORMAL, memo=MEMO).ex


def test_one_two_three_not_terminal():
    assert not disjunctive(s12(1), s12(2), s12(3)).is_terminal()


def test_disjunctive_needs_both_sides():
    # Left has a move and Right does not: over, and Left wins.
    pair = disjunctive(s12(1), s12(1))
    assert pair.is_terminal()
    assert pair.normal_outcome() == "L"


def test_dead_end_pair():
    left_only = ExplicitGame((score(-5),), (), ())
    right_only = ExplicitGame((), (score(7),), ())
    pair = disjunctive(left_only, right_only)
    assert not pair.is_terminal()
    matrix = pair.move_matrix()
    assert len(matrix.row_labels) == 1 and len(matrix.col_labels) == 1
    end = matrix.cells[0][0]
    assert end.is_terminal()
    assert end.terminal_score() == 2
    assert evaluate(pair, SCORING, memo=MEMO).ex == 2
    assert outcome(pair, SCORING, memo=MEMO) == "L"


def test_disjunctive_same_component_uses_joint_rule():
    pair = disjunctive(s12(2), s12(2))
    matrix = pair.move_matrix()
    same = matrix.cells[0][0]  # both touch the first component
    ns = sorted(c.n for c in same.components)
    assert ns == [0, 2]
    cross = matrix.cells[0][2]
    assert sorted(c.n for c in cross.components) == [0, 1]


# -- conjunctive ----------------------------------------------------------------


def test_conjunctive_ends_with_any_component():
    s = conjunctive(s12(1), s12(2), s12(3))
    assert s.is_terminal()
    # the finished component belongs to Left alone
    assert s.normal_outcome() == "L"


def test_conjunctive_rows_are_products():
    s = conjunctive(s12(3), s12(3))
    matrix = s.move_matrix()
    assert len(matrix.row_labels) == 4 and len(matrix.col_labels) == 4


def test_conjunctive_values():
    sp = lambda n: s12(n, primed=True)
    assert evaluate(conjunctive(sp(3), sp(3)), NORMAL, memo=MEMO).ex == F(1, 4)
    assert evaluate(conjunctive(sp(3), sp(4)), NORMAL, memo=MEMO).ex == F(1, 4)


def test_conjunctive_five_six_exact_value():
    # The published figure for this position is -1/4; exact recomputation
    # (engine, enumeration oracle, and the matrix algebra by hand) gives
    # -3/8: the first-component sides match with probability 1/2, winning
    # 1/4 on a match and losing 1 on a miss.
    sp = lambda n: s12(n, primed=True)
    pair = conjunctive(sp(5), sp(6))
    assert evaluate(pair, NORMAL, memo=MEMO).ex == F(-3, 8)


def test_conjunctive_scoring_takes_finished_component_score():
    s = conjunctive(hb_stalk("R"), s12(3), clobber_strip("OXO"))
    assert s.is_terminal()
    assert s.terminal_score() == -1


# -- continued conjunctive -------------------------------------------------------


def test_continued_skips_one_sided_components():
    s = continued_conjunctive(s12(1), s12(2), s12(3))
    assert not s.is_terminal()
    matrix = s.move_matrix()
    # only the strips of length 2 and 3 are live: 2x2 rows, 2x2 cols
    assert len(matrix.row_labels) == 4 and len(matrix.col_labels) == 4


def test_continued_terminal_winner_needs_every_component():
    s = continued_conjunctive(s12(1), s12(1))
    assert s.is_terminal()
    assert s.normal_outcome() == "L"
    mixed = continued_conjunctive(s12(1), s12(0))
    assert mixed.is_terminal()
    assert mixed.normal_outcome() == "D"


def test_draw_component_forces_draw():
    drawn = hb_stalk("BR")
    for other in (s12(3), s12(5), hb_stalk("BB"), clobber_strip("OXO")):
        pair = continued_conjunctive(drawn, other)
        prof = guarantee_profile(pair, NORMAL, memo=MEMO)
        assert evaluate(pair, NORMAL, memo=MEMO).ex == 0
        assert (prof.ell, prof.arr) == (0, 0)


def test_continued_scoring_additivity_sample():
    sample = additivity_sample()
    values = [evaluate(p, SCORING, memo=MEMO).ex for p in sample]
    # Spot-check the full battery here; the acceptance suite runs all pairs.
    for i in range(0, len(sample), 7):
        for j in range(i, len(sample), 5):
            pair = continued_conjunctive(sample[i], sample[j])
            assert evaluate(pair, SCORING, memo=MEMO).ex == values[i] + values[j]


def test_continued_scoring_comparison_monotone():
    xs = [s12(n) for n in range(6)]
    for g in xs:
        for h in xs:
            eg = evaluate(g, SCORING, memo=MEMO).ex
            eh = evaluate(h, SCORING, memo=MEMO).ex
            if eg < eh:
                continue
            for x in (s12(4), hb_stalk("BRB")):
                left = evaluate(continued_conjunctive(g, x), SCORING, memo=MEMO).ex
                right = evaluate(continued_conjunctive(h, x), SCORING, memo=MEMO).ex
                assert left >= right


def test_index_product_rule():
    for n in range(6):
        for m in range(6):
            g, h = s12(n), sq({1}, {3}, m)
            pg = guarantee_profile(g, NORMAL, memo=MEMO)
            ph = guarantee_profile(h, NORMAL, memo=MEMO)
            prof = guarantee_profile(continued_conjunctive(g, h), NORMAL, memo=MEMO)
            assert prof.ell == pg.ell * ph.ell
            assert prof.arr == pg.arr * ph.arr


# -- structure -------------------------------------------------------------------


def test_sum_flattening_and_commutativity():
    a, b, c = s12(1), s12(2), s12(3)
    left = SumPosition("+", [SumPosition("+", [a, b]), c])
    right = SumPosition("+", [a, SumPosition("+", [b, c])])
    assert left == right
    assert left.components == right.components
    assert len(left.components) == 3


def test_explicit_component_successors_flatten():
    # An explicit component can offer a sum of the outer kind: Left's option
    # and the one cell both flatten into one three-component sum.
    p = parse("x{L:[s(1) + s(2)] | R:[s(0)] | LR:[[s(1) + s(2)]]} + s(0)")
    (_, left_option), = p.options(True)
    (cell,), = p.move_matrix().cells
    for q in (left_option, cell):
        assert q.canonical_key() == "+(s(0);s(1);s(2))"
        assert len(q.components) == 3


def test_value_commutative_and_associative():
    a, b, c = s12(2), s12(3, primed=True), hb_stalk("BR")
    for kind in ("+", "^", "v"):
        gh = SumPosition(kind, [a, b])
        hg = SumPosition(kind, [b, a])
        assert evaluate(gh, NORMAL, memo=MEMO).ex == evaluate(hg, NORMAL, memo=MEMO).ex
        nested1 = SumPosition(kind, [SumPosition(kind, [a, b]), c])
        nested2 = SumPosition(kind, [a, SumPosition(kind, [b, c])])
        assert evaluate(nested1, NORMAL, memo=MEMO).ex == evaluate(nested2, NORMAL, memo=MEMO).ex


def test_sum_needs_two_components():
    with pytest.raises(BadParameters):
        SumPosition("+", [s12(1)])
    with pytest.raises(BadParameters):
        SumPosition("*", [s12(1), s12(2)])


def test_heterogeneous_components_allowed():
    mixed = disjunctive(clobber_strip("OXO"), s12(4, primed=True), hb_stalk("R"))
    assert len(mixed.components) == 3
    assert not mixed.is_terminal()


def test_nested_sums_of_different_kinds():
    from simulgame.oracle import brute_ex

    inner = disjunctive(s12(1), s12(2))
    outer = conjunctive(inner, hb_stalk("BR"))
    got = evaluate(outer, NORMAL, memo=MEMO)
    assert got.ex == brute_ex(outer, NORMAL)
    frozen = continued_conjunctive(disjunctive(score(2), score(-1)), hb_stalk("B"))
    assert frozen.is_terminal()
    assert frozen.terminal_score() == 2


def test_dicot_board_is_forced_draw():
    board = clobber_strip("OXO")
    prof = guarantee_profile(board, NORMAL, memo=MEMO)
    assert (prof.ell, prof.arr) == (0, 0)
    assert outcome(board, NORMAL, memo=MEMO) == "D"
    assert evaluate(board, NORMAL, memo=MEMO).ex == 0


# -- move-count score ------------------------------------------------------------


def test_move_count_score_examples():
    assert v_a(hb_stalk("BB")) == 2
    assert v_a(score(0)) == 0
    assert v_a(hb_stalk("RRR")) == -3
    assert v_a(sq({1}, {2}, 1)) == 1
    assert v_a(sq({1}, {2}, 2, primed=True)) == -1


def test_move_count_score_requires_one_sided_position():
    with pytest.raises(NotTerminal):
        v_a(sq({1}, {2}, 3))


def test_move_count_score_builds_each_strip_once(monkeypatch):
    # Every strip of the chain is reached by two moves (from either end);
    # each length is expanded once, not once per path: Left's options are
    # built for its mobility reading and for the chain, Right's for the
    # reading alone.
    n = 14
    builds = Counter()
    original = SqPosition.options

    def counting(self, left):
        builds[self.n, left] += 1
        return original(self, left)

    monkeypatch.setattr(SqPosition, "options", counting)
    assert v_a(sq({1}, {100}, n)) == n
    assert {length for length, _ in builds} == set(range(n + 1))
    assert max(builds[length, True] for length in range(n + 1)) <= 2
    assert max(builds[length, False] for length in range(n + 1)) <= 1


# -- kind rules --------------------------------------------------------------------

# Leaf components with their scores, stated by hand.
LEAVES = {
    "o(L)": (outcome_literal("L"), 1),
    "o(R)": (outcome_literal("R"), -1),
    "o(D)": (outcome_literal("D"), 0),
    "s(2)": (score(2), 2),
    "sq{1}{5}(2)": (sq({1}, {5}, 2), 2),  # one-sided: only Left moves
    "sq{1}{2}(3)": (s12(3), None),  # live
}


def _expected(kind, parts):
    """Readings of a sum from its (component, score) parts: who can move,
    whether play stopped, and at a stop the winner and the score.  Each
    component's mobility comes from its own option lists."""
    moves = [(bool(c.options(True)), bool(c.options(False))) for c, _ in parts]
    finished = [i for i, (lm, rm) in enumerate(moves) if not (lm and rm)]
    if kind == "+":
        left = any(lm for lm, _ in moves)
        right = any(rm for _, rm in moves)
        left_ok, right_ok, scored = left, right, range(len(parts))
    else:
        stopped = bool(finished) if kind == "^" else len(finished) == len(parts)
        left = right = not stopped
        judged = finished if kind == "^" else range(len(parts))
        left_ok = all(moves[i][0] for i in judged)
        right_ok = all(moves[i][1] for i in judged)
        scored = finished if kind == "^" else range(len(parts))
    terminal = not (left and right)
    out = dict(terminal=terminal, left=left, right=right, outcome=None, score=None)
    if terminal:
        out["outcome"] = "L" if left_ok and not right_ok else "R" if right_ok and not left_ok else "D"
        out["score"] = sum(parts[i][1] for i in scored)
    return out


def _check_readings(s, want):
    assert s.is_terminal() == want["terminal"]
    assert s._mobility().left == want["left"] == bool(s.options(True))
    assert s._mobility().right == want["right"] == bool(s.options(False))
    if want["terminal"]:
        assert s.normal_outcome() == want["outcome"]
        assert s.terminal_score() == want["score"]
    else:
        with pytest.raises(NotTerminal):
            s.normal_outcome()
        with pytest.raises(NotTerminal):
            s.terminal_score()


@pytest.mark.parametrize("kind", ["+", "^", "v"])
@pytest.mark.parametrize("size", [2, 3])
def test_kind_rule_table(kind, size):
    for names in itertools.combinations_with_replacement(LEAVES, size):
        parts = [LEAVES[name] for name in names]
        s = SumPosition(kind, [c for c, _ in parts])
        _check_readings(s, _expected(kind, parts))


def test_finished_conjunctive_inside_continued():
    # A finished ^ sum offers no move to either player, whatever its own
    # winner, so inside a v sum it counts as a component nobody can move in.
    inner = conjunctive(outcome_literal("L"), s12(3))
    assert inner.is_terminal() and inner.normal_outcome() == "L"
    assert inner.terminal_score() == 1
    for part in LEAVES.values():
        s = continued_conjunctive(inner, part[0])
        _check_readings(s, _expected("v", [(inner, 1), part]))
    pair = continued_conjunctive(inner, outcome_literal("L"))
    assert pair.normal_outcome() == "D"


def test_predicates_read_each_component_once(monkeypatch):
    builds = Counter()
    original = SqPosition.options

    def counting(self, left):
        builds[self.n, left] += 1
        return original(self, left)

    monkeypatch.setattr(SqPosition, "options", counting)
    s = continued_conjunctive(sq({1}, {5}, 2), s12(0))
    for _ in range(5):
        assert s.is_terminal()
        reading = s._mobility()
        assert not reading.left and not reading.right
        assert s.normal_outcome() == "D"
    assert builds == {(2, True): 1, (2, False): 1, (0, True): 1, (0, False): 1}


def test_kind_specific_option_builders():
    d = disjunctive(s12(2), s12(2))
    assert d.move_matrix().row_labels == ("0:1l", "0:1r", "1:1l", "1:1r")
    c = conjunctive(s12(3), s12(3))
    assert len(c.move_matrix().row_labels) == 4
    v = continued_conjunctive(s12(1), s12(2), s12(3))
    assert v.move_matrix().row_labels == ("1:1l|2:1l", "1:1l|2:1r", "1:1r|2:1l", "1:1r|2:1r")


def test_matrix_empty_exactly_when_terminal():
    sample = [
        s12(0),
        s12(1),
        s12(3),
        hb_stalk("BR"),
        hb_stalk("BB"),
        clobber_strip("OXO"),
        disjunctive(s12(1), s12(1)),
        conjunctive(s12(1), s12(3)),
        continued_conjunctive(s12(1), s12(0)),
        continued_conjunctive(s12(2), s12(3)),
        conjunctive(disjunctive(s12(1), s12(2)), hb_stalk("BR")),
        disjunctive(hb_stalk("BB"), s12(0)),
    ]
    for p in sample:
        matrix = p.move_matrix()
        assert matrix.is_empty == p.is_terminal()
        # analysis.reduce_game reads successors by row and column index.
        if not matrix.is_empty:
            assert matrix.row_labels == tuple(lbl for lbl, _ in p.options(True))
            assert matrix.col_labels == tuple(lbl for lbl, _ in p.options(False))
        assert p._mobility().left == bool(p.options(True))
        assert p._mobility().right == bool(p.options(False))


def test_outcome_literals():
    assert outcome_literal("L").normal_outcome() == "L"
    assert outcome_literal("R").normal_outcome() == "R"
    assert outcome_literal("D").normal_outcome() == "D"
    assert v_a(outcome_literal("L")) == 1


def test_explicit_transcription_matches_graph_boards():
    # The two-stalk boards entered as explicit literals reproduce the same
    # outcome, value, and score matrices as the graph positions.
    from simulgame.gexpr import parse

    blue1 = "x{L:[s(0)] | R:[] | LR:[]}"       # one Left move left
    blue2 = f"x{{L:[{blue1}] | R:[] | LR:[]}}"  # a two-move Left chain
    drawn = "x{L:[s(0)] | R:[s(0)] | LR:[[s(0)]]}"  # one forced exchange
    g_literal = parse(
        f"x{{L:[s(0),s(0)] | R:[s(0),s(0)] | "
        f"LR:[[{drawn},{blue1}],[{blue1},{drawn}]]}}"
    )
    two_blues = f"x{{L:[{blue1},{blue1}] | R:[] | LR:[]}}"
    h_literal = parse(
        f"x{{L:[s(0),s(0),s(0)] | R:[s(0)] | "
        f"LR:[[{blue2}],[{blue1}],[{two_blues}]]}}"
    )

    def matrices(pos):
        mm = pos.move_matrix()
        return (
            [[outcome(c, NORMAL, memo=MEMO) for c in row] for row in mm.cells],
            [[evaluate(c, NORMAL, memo=MEMO).ex for c in row] for row in mm.cells],
            [[evaluate(c, SCORING, memo=MEMO).ex for c in row] for row in mm.cells],
        )

    assert matrices(g_literal) == matrices(parse("hb:fig5G"))
    assert matrices(h_literal) == matrices(parse("hb:fig5H"))


# -- successor pins --------------------------------------------------------------

X_PLUS = "x{L:[s(1) + s(2)] | R:[s(0)] | LR:[[s(1) + s(2)]]}"  # its successors are + sums
LIVE_PARTS = [
    "sq{1}{2}(2)", "sq{1}{2}(3)", "sq'{1}{2}(3)", "hb[BR]", "hb[RRB]",
    "cl[OX]", "cl[OXO]", "cl[XOX]", "cl[OOX]", X_PLUS,
]
PIN_PARTS = LIVE_PARTS + [
    "sq{1}{2}(0)", "sq{1}{2}(1)", "sq{1,2}{1,3}(4)", "sq{1}{5}(2)", "sq{3}{1}(2)",
    "hb[B]", "hb[R]", "hb[BB]", "s(2)", "s(-1)", "s(0)", "o(L)", "o(R)", "o(D)",
]
PIN_FORCED = [
    "sq{1}{5}(2) + hb[BB]",  # one-sided + sums
    "hb[R] + sq{3}{1}(2)",
    "sq{1}{5}(2) + s(1)",
    "s(1) v sq{1}{2}(3) v hb[BR]",  # v sums with finished components
    "o(L) v cl[OXO] v sq{1}{2}(2)",
    "o(L) ^ sq{1}{2}(3)",  # a finished ^ sum
    f"{X_PLUS} + s(0)",  # successors flatten
    f"{X_PLUS} + sq{{1}}{{2}}(2)",
    "sq{1}{2}(2) + sq{1}{2}(2)",
    "(sq{1}{2}(2) + hb[B]) ^ cl[OXO]",
    "(hb[BR] ^ sq{1}{2}(3)) v sq'{1}{2}(3)",
]


def _pin_texts(count=60, seed=21):
    """PIN_FORCED, then seeded sums cycling + ^ v: two or three parts, a ^ sum
    of live parts only; one two-part sum in five nests a sum of another kind."""
    rng = random.Random(seed)
    texts = list(PIN_FORCED)
    while len(texts) < count:
        kind = "+^v"[len(texts) % 3]
        pool = LIVE_PARTS if kind == "^" else PIN_PARTS
        size = rng.choice((2, 2, 3))
        parts = [rng.choice(pool) for _ in range(size)]
        if size == 2 and rng.randrange(5) == 0:
            inner = rng.choice([k for k in "+v" if k != kind])
            parts[0] = f"({rng.choice(LIVE_PARTS)} {inner} {rng.choice(pool)})"
        texts.append(f" {kind} ".join(parts))
    return texts


def _sum_pin(text):
    """Labels and successor keys of both option lists and of the move matrix."""
    p = parse(text)
    options = lambda left: [[lbl, q.canonical_key()] for lbl, q in p.options(left)]
    m = p.move_matrix()
    return {
        "text": text,
        "options": {"left": options(True), "right": options(False)},
        "matrix": {
            "rows": list(m.row_labels),
            "cols": list(m.col_labels),
            "cells": [[q.canonical_key() for q in row] for row in m.cells],
        },
    }


SUM_PINS_PATH = Path(__file__).parent / "data" / "sum_matrix_pins.json"


def test_sum_successors_reproduce_pins():
    pins = json.loads(SUM_PINS_PATH.read_text())["sums"]
    assert [pin["text"] for pin in pins] == _pin_texts()
    for pin in pins:
        assert _sum_pin(pin["text"]) == pin, pin["text"]


def test_sum_matrix_builds_each_component_matrix_once(monkeypatch):
    # The pinned sums, plus sums where many cells have both players moving
    # in one component: each component's own matrix is built at most once
    # per sum matrix.
    built = []
    originals = {cls: cls.move_matrix for cls in (Position, SumPosition)}
    for cls, original in originals.items():
        def counting(self, original=original):
            built.append(self)
            return original(self)

        monkeypatch.setattr(cls, "move_matrix", counting)
    texts = _pin_texts() + [
        "cl[XOX] ^ sq{1}{2}(3) ^ sq'{1}{2}(3)",
        "sq{1,2}{1,3}(4) + sq{1,2}{1,3}(4)",
        "(cl[OXO] + sq{1}{2}(3)) ^ (hb[BR] v sq{1}{2}(2))",
    ]
    for text in texts:
        s = parse(text)
        built.clear()
        s.move_matrix()
        for c in s.components:
            copies = sum(d is c for d in s.components)
            assert sum(b is c for b in built) <= copies, (text, c.canonical_key())


@pytest.mark.xfail(
    strict=True, raises=RecursionError, reason="SumPosition._read_mobility reads each component recursively"
)
def test_thousand_level_nested_sum_evaluates():
    # Alternating kinds keep the levels from flattening into one sum.
    game = sq({1}, {2}, 1)
    for level in range(1000):
        game = (conjunctive if level % 2 == 0 else disjunctive)(game, score(0))
    assert evaluate(game).ex == 0
