"""Closed forms, comparisons, and reduction."""

import time
from fractions import Fraction

import pytest

from simulgame.analysis import (
    clobber_kn_expected,
    compare_continued_scoring,
    compare_index,
    reduce_game,
    sq12_closed_form,
    sq_expected_sequence,
    stalk_score_formula,
)
from simulgame.engine import NORMAL, SCORING, Memo, evaluate
from simulgame.errors import BadParameters, BadStalk
from simulgame.position import ExplicitGame, score
from simulgame.rulesets import clobber_complete, clobber_strip, hb_stalk, sq

F = Fraction
MEMO = Memo()


def test_sequence_base_cases():
    seq = sq_expected_sequence(1, 2, 5)
    assert seq[0] == 0 and seq[1] == 1 and seq[2] == 0 and seq[3] == F(1, 2)


def test_sequence_clamps_below_zero():
    seq = sq_expected_sequence(2, 3, 6)
    assert seq[:3] == [0, 0, 1]
    assert seq[3] == 0  # both follow-ups clamp to the empty strip
    assert seq[5] == F(1, 2)


def test_sequence_rejects_bad_parameters():
    with pytest.raises(BadParameters):
        sq_expected_sequence(2, 2, 5)
    with pytest.raises(BadParameters):
        sq_expected_sequence(0, 2, 5)


@pytest.mark.parametrize("a,b", [(1, 2), (1, 3), (2, 3)])
def test_sequence_matches_engine(a, b):
    seq = sq_expected_sequence(a, b, 25)
    for n in range(26):
        assert evaluate(sq({a}, {b}, n), NORMAL, memo=MEMO).ex == seq[n]


def test_closed_form_matches_recurrence():
    seq = sq_expected_sequence(1, 2, 2000)
    for n in range(2001):
        assert sq12_closed_form(n) == seq[n]
    for n in range(41):
        assert evaluate(sq({1}, {2}, n), NORMAL, memo=MEMO).ex == sq12_closed_form(n)


def test_closed_form_limit():
    for n in range(20, 30):
        assert abs(sq12_closed_form(n) - F(2, 5)) < F(1, 1000)


def test_complete_graph_closed_form():
    assert clobber_kn_expected(2) == 0
    assert clobber_kn_expected(4) == 1
    assert clobber_kn_expected(7) == F(5, 2)
    with pytest.raises(BadParameters):
        clobber_kn_expected(1)


def test_complete_graph_formula_matches_engine():
    for n in range(2, 7):
        got = evaluate(clobber_complete(n), SCORING, memo=MEMO).ex
        assert got == clobber_kn_expected(n)


def test_stalk_formula_examples():
    assert stalk_score_formula("BRB") == 1
    assert stalk_score_formula("BR") == 0
    assert stalk_score_formula("BBRB") == 2
    assert stalk_score_formula("BBB") == 3
    assert stalk_score_formula("RBR") == -1
    assert stalk_score_formula("RRB") == -1


def test_stalk_formula_rejects_bad_shapes():
    with pytest.raises(BadStalk):
        stalk_score_formula("BRRB")
    with pytest.raises(BadStalk):
        stalk_score_formula("")
    with pytest.raises(BadStalk):
        stalk_score_formula("BG")


def all_stalks(max_len):
    for length in range(1, max_len + 1):
        for bits in range(2 ** length):
            yield "".join("BR"[(bits >> i) & 1] for i in range(length))


def test_stalk_formula_matches_engine_to_length_7():
    checked = 0
    for colors in all_stalks(7):
        try:
            want = stalk_score_formula(colors)
        except BadStalk:
            continue
        assert evaluate(hb_stalk(colors), SCORING, memo=MEMO).ex == want
        checked += 1
    assert checked > 50


def test_compare_continued_scoring():
    assert compare_continued_scoring(score(1), score(0)).relation == "Greater"
    assert compare_continued_scoring(score(0), score(0)).relation == "Equal"
    g, h = hb_stalk("BB"), hb_stalk("B")
    assert compare_continued_scoring(g, h, memo=MEMO).relation == "Greater"
    assert compare_continued_scoring(h, g, memo=MEMO).relation == "Less"


def test_compare_index():
    n3, n0 = sq({1}, {2}, 3), sq({1}, {2}, 0)
    assert compare_index(n3, n3, memo=MEMO).relation == "Equal"
    assert compare_index(sq({1}, {2}, 1), n0, memo=MEMO).relation == "Greater"
    assert compare_index(n0, sq({1}, {2}, 1), memo=MEMO).relation == "Less"
    left_leaning = sq({1}, {2}, 3)          # profile [1/2, 0]
    right_leaning = sq({1}, {2}, 3).swap_roles()  # profile [0, 1/2]
    assert compare_index(left_leaning, right_leaning, memo=MEMO).relation == "Greater"
    mixed = sq({1}, {2}, 4, primed=True)    # profile [1/2, 1/2]
    drawn = sq({1}, {2}, 0)                 # profile [0, 0]
    assert compare_index(mixed, drawn, memo=MEMO).relation == "Incomparable"


def test_reduce_terminal_returns_self():
    p = sq({1}, {2}, 0)
    assert reduce_game(p, memo=MEMO) is p


def test_reduce_keeps_top_edge_of_blue_led_stalk():
    # In an alternating stalk ending blue, every Left strategy except the
    # top edge is weakly dominated.
    p = hb_stalk("BRB")
    reduced = reduce_game(p, SCORING, memo=MEMO)
    assert len(reduced.lefts) == 1
    assert evaluate(reduced, SCORING, memo=MEMO).ex == evaluate(p, SCORING, memo=MEMO).ex == 1


def test_reduce_preserves_value():
    from simulgame.sums import conjunctive, disjunctive

    sample = [
        sq({1}, {2}, 6),
        sq({1}, {2}, 5, primed=True),
        hb_stalk("BRBR"),
        clobber_strip("OXO"),
        disjunctive(sq({1}, {2}, 3), hb_stalk("BR")),
        conjunctive(disjunctive(sq({1}, {2}, 2), hb_stalk("BR")), sq({1}, {3}, 3)),
    ]
    for convention in (NORMAL, SCORING):
        for p in sample:
            reduced = reduce_game(p, convention, memo=MEMO)
            assert evaluate(reduced, convention, memo=MEMO).ex == evaluate(p, convention, memo=MEMO).ex


def test_reduce_evaluates_each_position_once(monkeypatch):
    # Equal subgames are reduced once per call, and terminals not at all;
    # without the first cl:K5 made 3,145 evaluate calls, and evaluating
    # terminals too made 121.
    from simulgame import analysis

    calls = []
    original = analysis.evaluate

    def counting(p, *args, **kwargs):
        calls.append(p)
        return original(p, *args, **kwargs)

    monkeypatch.setattr(analysis, "evaluate", counting)
    reduced = reduce_game(clobber_complete(5), SCORING)
    assert len(calls) == len(set(calls)) == 67
    assert evaluate(reduced, SCORING).ex == F(3, 2)


def test_deep_explicit_chain_hashes_and_reduces():
    # Equal explicit games are one object, hashed and compared by identity,
    # so a 3000-deep chain hashes, and reduce_game keys its table by it,
    # without recursing.  Nothing is dominated in a 1x1 game, so the
    # reduction rebuilds equal games: it is the chain itself.
    chain = score(0)
    for _ in range(3000):
        chain = ExplicitGame((score(0),), (score(0),), ((chain,),))
    reduced = reduce_game(chain)
    assert hash(reduced) == hash(chain)
    assert reduced == chain
    for _ in range(3000):
        assert (reduced.lefts, reduced.rights) == ((score(0),), (score(0),))
        reduced = reduced.table[0][0]
    assert reduced == score(0)


def test_reduce_game_shares_two_equal_deep_chains():
    # Two separately built equal chains meet as one key of the reduction's
    # table, so they are compared with ==, and then reduced once.
    def chain():
        game = score(0)
        for _ in range(3000):
            game = ExplicitGame((score(0),), (score(0),), ((game,),))
        return game

    game = ExplicitGame((chain(),), (chain(),), ((score(0),),))
    reduced = reduce_game(game)
    assert reduced == game
    assert reduced.lefts[0] is reduced.rights[0]


def test_separate_reductions_compare_once_per_subgame_pair():
    # Two reductions of one strip are equal games, so they are one object.
    # Comparing each pair of subgames once per path to it took seconds at 16
    # squares and doubled every two squares more.
    first, second = (reduce_game(sq({1}, {2}, 20)) for _ in range(2))
    assert first is second
    start = time.perf_counter()
    assert first == second
    assert time.perf_counter() - start < 1.0


def test_value_substitution_understates_paired_strips():
    # Replacing each clobber strip by its lone value predicts 1 for the
    # paired sum; playing the sum itself yields 3/2.
    from simulgame.sums import disjunctive

    a, b = clobber_strip("OOX"), clobber_strip("XOO")
    ex_a = evaluate(a, SCORING, memo=MEMO).ex
    ex_b = evaluate(b, SCORING, memo=MEMO).ex
    assert ex_a + ex_b + 1 == 1
    assert evaluate(disjunctive(a, b, score(1)), SCORING, memo=MEMO).ex == F(3, 2)
