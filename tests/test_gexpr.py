"""Grammar: parsing, rendering, lowering, and error reporting."""

import random

import pytest

from simulgame.engine import NORMAL, SCORING, Memo, evaluate
from simulgame.errors import (
    BadCordonSpec,
    BadLiteral,
    GameSyntaxError,
    MixedOperators,
    UnknownRuleset,
)
from simulgame.gexpr import (
    ClCompleteExpr,
    ClStripExpr,
    ExplicitExpr,
    HbCordonExpr,
    HbStalkExpr,
    OutcomeExpr,
    ScoreExpr,
    SqExpr,
    SumExpr,
    parse,
    parse_position,
    render,
    render_position,
    to_position,
)
from simulgame.position import ScoreLiteral
from simulgame.rulesets import HackenbushPosition, SqPosition
from simulgame.sums import SumPosition

MEMO = Memo()


def test_parse_disjunctive_pair():
    tree = parse("sq{1}{2}(2) + sq{1}{2}(2)")
    assert isinstance(tree, SumExpr) and tree.op == "+"
    assert tree.terms == (SqExpr((1,), (2,), 2, False), SqExpr((1,), (2,), 2, False))


def test_parse_primed_conjunction():
    tree = parse("sq'{1}{2}(5) ^ sq'{1}{2}(6)")
    assert tree.op == "^"
    assert tree.terms[0].primed


def test_parse_mixed_ruleset_sum():
    tree = parse("cl[OXO] + sq'{1}{2}(4) + hb[R]")
    assert tree.op == "+" and len(tree.terms) == 3
    assert isinstance(tree.terms[0], ClStripExpr)
    assert isinstance(tree.terms[2], HbStalkExpr)


def test_parse_explicit_literal():
    tree = parse("x{L:[s(-5)] | R:[] | LR:[]}")
    assert tree == ExplicitExpr((ScoreExpr(-5),), (), ())


def test_chained_operators_flatten():
    tree = parse("s(1) + s(2) + s(3)")
    assert len(tree.terms) == 3


def test_parenthesized_same_op_stays_nested():
    tree = parse("(s(1) + s(2)) + s(3)")
    assert isinstance(tree.terms[0], SumExpr)


def test_mixed_operators_rejected():
    with pytest.raises(MixedOperators) as info:
        parse("s(1) + s(2) ^ s(3)")
    assert info.value.offset == 12


def test_mixed_operators_fine_with_parens():
    tree = parse("(s(1) + s(2)) ^ s(3)")
    assert tree.op == "^"


def test_syntax_error_carries_offset_and_expected():
    with pytest.raises(GameSyntaxError) as info:
        parse("sq{1}{2}")
    assert info.value.offset == 8
    assert "(" in info.value.expected


def test_trailing_garbage_rejected():
    with pytest.raises(GameSyntaxError):
        parse("s(1) s(2)")


def test_lowering_examples():
    p = parse_position("sq{1}{2}(3)")
    assert isinstance(p, SqPosition) and p.n == 3 and not p.left_blocked
    stalk = parse_position("hb[BRB]")
    assert isinstance(stalk, HackenbushPosition)
    assert [e[3] for e in stalk.edges] == ["B", "R", "B"]
    lit = parse_position("x{L:[s(-5)] | R:[] | LR:[]}")
    assert lit.lefts[0] == ScoreLiteral(-5) and lit.rights == ()


def test_lowering_builtins():
    assert len(parse_position("hb:fig5G").edges) == 4
    assert len(parse_position("hb:fig5H").edges) == 4
    assert parse_position("cl:fig9").occupancy == tuple("OOXOXOO")
    assert parse_position("cl:K5").occupancy.count("O") == 4
    with pytest.raises(UnknownRuleset):
        parse_position("hb:fig99")


@pytest.mark.parametrize(
    "text, message",
    [
        ("hb[BQ]", "unknown edge colour 'Q'"),
        ("cl[OY]", "bad occupancy symbol 'Y'"),
        ("cl:K1", "complete-graph clobber needs n >= 2"),
        ("sq{0}{2}(3)", "subtraction amounts must be positive"),
        ("x{L:[s(1)] | R:[s(1)] | LR:[]}", "|L| rows of |R| entries"),
    ],
)
def test_lowering_reports_the_builders_rejection(text, message):
    with pytest.raises(BadLiteral) as info:
        parse_position(text)
    assert message in str(info.value)


def test_lowering_validates_literals():
    with pytest.raises(GameSyntaxError):
        parse("sq{}{2}(3)")  # int sets are nonempty in the grammar
    # Lowering maps only BadParameters, never every SimulgameError: the
    # benchmark test test_correct_answers_pass_and_known_crashes_fail
    # (perfbench/test_perfbench.py) requires this input to crash.
    with pytest.raises(BadCordonSpec):
        parse_position("hb cordon(0; )")


def test_sum_lowering_matches_direct_construction():
    text = "sq{1}{2}(2) + sq{1}{2}(2)"
    p = parse_position(text)
    assert isinstance(p, SumPosition) and p.kind == "+"
    assert evaluate(p, NORMAL, memo=MEMO).ex == evaluate(parse_position(text), NORMAL, memo=MEMO).ex


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.4:
        kind = rng.randrange(7)
        if kind == 0:
            return ScoreExpr(rng.randint(-9, 9))
        if kind == 1:
            return OutcomeExpr(rng.choice("LDR"))
        if kind == 2:
            sets = lambda: tuple(sorted(rng.sample(range(1, 6), rng.randint(1, 2))))
            return SqExpr(sets(), sets(), rng.randint(0, 9), rng.random() < 0.5)
        if kind == 3:
            return HbStalkExpr("".join(rng.choice("BRG") for _ in range(rng.randint(0, 4))))
        if kind == 4:
            return ClStripExpr("".join(rng.choice("OX_") for _ in range(rng.randint(0, 4))))
        if kind == 5:
            return ClCompleteExpr(rng.randint(2, 9))
        leaves = tuple(
            (i + 1, rng.choice("BR")) for i in range(rng.randint(0, 2))
        )
        return HbCordonExpr(rng.randint(3, 5), leaves)
    if rng.random() < 0.2:
        rows = rng.randint(1, 2)
        cols = rng.randint(1, 2)
        lefts = tuple(_random_tree(rng, 0) for _ in range(rows))
        rights = tuple(_random_tree(rng, 0) for _ in range(cols))
        table = tuple(tuple(_random_tree(rng, 0) for _ in range(cols)) for _ in range(rows))
        return ExplicitExpr(lefts, rights, table)
    op = rng.choice("+^v")
    terms = []
    for _ in range(rng.randint(2, 3)):
        sub = _random_tree(rng, depth - 1)
        while isinstance(sub, SumExpr) and sub.op == op:
            sub = _random_tree(rng, depth - 1)
        terms.append(sub)
    return SumExpr(op, tuple(terms))


def test_render_parse_roundtrip_random_trees():
    rng = random.Random(2024)
    for _ in range(500):
        tree = _random_tree(rng, 2)
        assert parse(render(tree)) == tree


def test_render_position_roundtrips_literals():
    for text in ("sq{1}{2}(3)", "sq'{1}{2}(5)", "hb[BRB]", "cl[OXO]", "s(4)"):
        p = parse_position(text)
        assert render_position(p) == text


def test_render_position_clobber_board_keeps_its_labels():
    board = dict(parse_position("cl[OXOO]").left_options())["1>2"]
    assert render_position(board) == "cl(0-1,1-2,2-3|O_XO|1)"
    assert render_position(board) != board.canonical_key()


def test_render_position_sum():
    p = parse_position("cl[OXO] + hb[R]")
    text = render_position(p)
    assert parse_position(text) == p


def test_evaluation_through_grammar():
    assert evaluate(parse_position("sq{1}{2}(3)"), NORMAL, memo=MEMO).ex == evaluate(
        parse_position("sq{1}{2}(3)"), NORMAL, memo=MEMO
    ).ex
    assert str(evaluate(parse_position("s(0)"), SCORING, memo=MEMO).ex) == "0"
