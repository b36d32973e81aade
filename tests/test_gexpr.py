"""Grammar: parsing into positions, rendering positions, and error reporting."""

import random
from fractions import Fraction as F

import pytest

from simulgame.engine import NORMAL, SCORING, Memo, evaluate
from simulgame.errors import (
    BadCordonSpec,
    BadLiteral,
    GameSyntaxError,
    MixedOperators,
    UnknownRuleset,
)
from simulgame.gexpr import parse, render_position
from simulgame.position import ExplicitGame, ScoreLiteral, score
from simulgame.rulesets import ClobberPosition, HackenbushPosition, SqPosition, sq
from simulgame.sums import SumPosition, disjunctive

MEMO = Memo()


def test_parse_disjunctive_pair():
    p = parse("sq{1}{2}(2) + sq{1}{2}(2)")
    assert isinstance(p, SumPosition) and p.kind == "+"
    assert p.components == (sq({1}, {2}, 2), sq({1}, {2}, 2))


def test_parse_primed_conjunction():
    p = parse("sq'{1}{2}(5) ^ sq'{1}{2}(6)")
    assert p.kind == "^"
    assert all(c.left_blocked == frozenset({2}) for c in p.components)


def test_parse_mixed_ruleset_sum():
    p = parse("cl[OXO] + sq'{1}{2}(4) + hb[R]")
    assert p.kind == "+" and len(p.components) == 3
    kinds = {type(c) for c in p.components}
    assert kinds == {ClobberPosition, SqPosition, HackenbushPosition}


def test_parse_explicit_literal():
    p = parse("x{L:[s(-5)] | R:[] | LR:[]}")
    assert p == ExplicitGame((score(-5),), (), ())


def test_chained_operators_flatten():
    p = parse("s(1) + s(2) + s(3)")
    assert len(p.components) == 3


def test_parenthesized_same_op_flattens():
    assert parse("(s(1) + s(2)) + s(3)") == parse("s(1) + s(2) + s(3)")


def test_mixed_operators_rejected():
    with pytest.raises(MixedOperators) as info:
        parse("s(1) + s(2) ^ s(3)")
    assert info.value.offset == 12


def test_mixed_operators_fine_with_parens():
    p = parse("(s(1) + s(2)) ^ s(3)")
    assert p.kind == "^"
    assert {c.kind for c in p.components if isinstance(c, SumPosition)} == {"+"}


def test_syntax_error_carries_offset_and_expected():
    with pytest.raises(GameSyntaxError) as info:
        parse("sq{1}{2}")
    assert info.value.offset == 8
    assert "(" in info.value.expected


def test_trailing_garbage_rejected():
    with pytest.raises(GameSyntaxError):
        parse("s(1) s(2)")


def test_lowering_examples():
    p = parse("sq{1}{2}(3)")
    assert isinstance(p, SqPosition) and p.n == 3 and not p.left_blocked
    stalk = parse("hb[BRB]")
    assert isinstance(stalk, HackenbushPosition)
    assert [e[3] for e in stalk.edges] == ["B", "R", "B"]
    lit = parse("x{L:[s(-5)] | R:[] | LR:[]}")
    assert lit.lefts[0] == ScoreLiteral(-5) and lit.rights == ()


def test_lowering_builtins():
    assert len(parse("hb:fig5G").edges) == 4
    assert len(parse("hb:fig5H").edges) == 4
    assert parse("cl:fig9").occupancy == tuple("OOXOXOO")
    assert parse("cl:K5").occupancy.count("O") == 4
    with pytest.raises(UnknownRuleset):
        parse("hb:fig99")


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
        parse(text)
    assert message in str(info.value)


def test_lowering_validates_literals():
    with pytest.raises(GameSyntaxError):
        parse("sq{}{2}(3)")  # int sets are nonempty in the grammar
    # parse maps only BadParameters to BadLiteral, never every SimulgameError: the
    # benchmark test test_correct_answers_pass_and_known_crashes_fail
    # (perfbench/test_perfbench.py) requires this input to crash.
    with pytest.raises(BadCordonSpec):
        parse("hb cordon(0; )")


def test_sum_lowering_matches_direct_construction():
    p = parse("sq{1}{2}(2) + sq{1}{2}(2)")
    direct = disjunctive(sq({1}, {2}, 2), sq({1}, {2}, 2))
    assert p == direct
    assert evaluate(p, NORMAL, memo=Memo()).ex == evaluate(direct, NORMAL, memo=Memo()).ex
    assert evaluate(p, NORMAL, memo=Memo()).ex == F(1, 2)


def _random_text(rng, depth):
    """Literal text over scores, outcomes, strips, stalks, clobber strips,
    explicit games and nested sums."""
    if depth == 0 or rng.random() < 0.4:
        kind = rng.randrange(5)
        if kind == 0:
            return f"s({rng.randint(-9, 9)})"
        if kind == 1:
            return f"o({rng.choice('LDR')})"
        if kind == 2:
            ints = lambda: ",".join(map(str, rng.sample(range(1, 6), rng.randint(1, 2))))
            prime = rng.choice(("", "'"))
            return f"sq{prime}{{{ints()}}}{{{ints()}}}({rng.randint(0, 9)})"
        if kind == 3:
            return "hb[" + "".join(rng.choice("BRG") for _ in range(rng.randint(0, 4))) + "]"
        return "cl[" + "".join(rng.choice("OX_") for _ in range(rng.randint(0, 4))) + "]"
    if rng.random() < 0.2:
        rows, cols = rng.randint(0, 2), rng.randint(0, 2)
        items = lambda k: ",".join(_random_text(rng, depth - 1) for _ in range(k))
        table = ",".join(f"[{items(cols)}]" for _ in range(rows)) if rows and cols else ""
        return f"x{{L:[{items(rows)}] | R:[{items(cols)}] | LR:[{table}]}}"
    op = rng.choice("+^v")
    terms = [f"({_random_text(rng, depth - 1)})" for _ in range(rng.randint(2, 3))]
    return f" {op} ".join(terms)


def test_render_position_parse_roundtrip_random_literals():
    rng = random.Random(2024)
    for _ in range(500):
        p = parse(_random_text(rng, 2))
        assert parse(render_position(p)) == p


def test_render_position_roundtrips_literals():
    for text in ("sq{1}{2}(3)", "sq'{1}{2}(5)", "hb[BRB]", "cl[OXO]", "s(4)"):
        p = parse(text)
        assert render_position(p) == text


def test_render_position_clobber_board_keeps_its_labels():
    board = dict(parse("cl[OXOO]").left_options())["1>2"]
    assert render_position(board) == "cl(0-1,1-2,2-3|O_XO|1)"
    assert render_position(board) != board.canonical_key()


def test_render_position_sum():
    p = parse("cl[OXO] + hb[R]")
    text = render_position(p)
    assert parse(text) == p


def test_evaluation_through_grammar():
    assert evaluate(parse("sq{1}{2}(3)"), NORMAL, memo=Memo()).ex == F(1, 2)
    assert evaluate(sq({1}, {2}, 3), NORMAL, memo=Memo()).ex == F(1, 2)
    assert str(evaluate(parse("s(0)"), SCORING, memo=MEMO).ex) == "0"
