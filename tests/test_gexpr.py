"""Grammar: parsing into positions, rendering positions, and error reporting."""

import hashlib
import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from simulgame import gexpr
from simulgame.analysis import reduce_game
from simulgame.engine import NORMAL, SCORING, Memo, evaluate
from simulgame.errors import (
    BadCordonSpec,
    BadLiteral,
    GameSyntaxError,
    MixedOperators,
    SizeLimit,
    UnknownRuleset,
)
from simulgame.gexpr import MAX_NESTING, parse, render_position
from simulgame.position import ExplicitGame, ScoreLiteral, score
from simulgame.rulesets import ClobberPosition, HackenbushPosition, SqPosition, sq
from simulgame.sums import SumPosition, disjunctive
from simulgame.verify import ACCEPTANCE_POSITIONS

MEMO = Memo()


def test_parse_disjunctive_pair():
    p = parse("sq{1}{2}(2) + sq{1}{2}(2)")
    assert isinstance(p, SumPosition) and p.kind == "+"
    assert p.components == (sq({1}, {2}, 2), sq({1}, {2}, 2))


def test_parse_primed_conjunction():
    p = parse("sq'{1}{2}(5) ^ sq'{1}{2}(6)")
    assert p.kind == "^"
    assert all(c.left_primed and not c.right_primed for c in p.components)


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


@pytest.mark.parametrize("tail", [" ", "\t", "\n", " \t\n "])
def test_trailing_whitespace_is_ignored(tail):
    assert parse("s(1)" + tail) == parse("s(1)")
    assert parse("sq{1}{2}(3) + hb[BR]" + tail) == parse("sq{1}{2}(3) + hb[BR]")


def test_stray_character_after_whitespace_is_reported_where_it_is():
    with pytest.raises(GameSyntaxError) as info:
        parse("s(1) #")
    assert info.value.offset == 5
    assert "'#'" in str(info.value)


def test_bad_outcome_letter_is_reported_at_the_letter():
    with pytest.raises(GameSyntaxError) as info:
        parse("o(X)")
    assert info.value.offset == 2
    assert str(info.value) == "unexpected 'X' at offset 2; expected one of ['D', 'L', 'R']"


def test_lowering_examples():
    p = parse("sq{1}{2}(3)")
    assert isinstance(p, SqPosition) and p.n == 3 and not p.left_primed
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


KEY_PINS_PATH = Path(__file__).parent / "data" / "key_pins.json"
# Reduced games whose keys spell shared subgames once per path to them.
REDUCED_KEY_TEXTS = [("sq{1}{1}(6)", NORMAL), ("sq'{1,4}{2}(4)", NORMAL), ("cl:K4", SCORING)]


def _key_pin(p):
    """The key itself when short, else its length and SHA-256."""
    key = p.canonical_key()
    return key if len(key) <= 100 else f"{len(key)} sha256:{hashlib.sha256(key.encode()).hexdigest()}"


def _explicit_subgames(p):
    """The explicit games in ``p``'s sums and explicit games, ``p`` included,
    each once, in the order first met."""
    seen, stack, found = set(), [p], []
    while stack:
        q = stack.pop()
        if id(q) in seen:
            continue
        seen.add(id(q))
        if isinstance(q, ExplicitGame):
            found.append(q)
            stack.extend(reversed([*q.lefts, *q.rights, *(c for row in q.table for c in row)]))
        elif isinstance(q, SumPosition):
            stack.extend(reversed(q.components))
    return found


def _key_pins():
    rng = random.Random(7)
    acceptance = []
    for text, _ in ACCEPTANCE_POSITIONS:
        p = parse(text)
        acceptance.append([text, _key_pin(p), [_key_pin(g) for g in _explicit_subgames(p)]])
    return {
        "acceptance": acceptance,
        "reduced": [[text, c, _key_pin(reduce_game(parse(text), c))] for text, c in REDUCED_KEY_TEXTS],
        "random": [[text, _key_pin(parse(text))] for text in (_random_text(rng, 3) for _ in range(300))],
    }


def test_keys_reproduce_pins():
    # Sums order their components by key, so a changed spelling would also
    # move root labels.
    pins, got = json.loads(KEY_PINS_PATH.read_text()), _key_pins()
    for part in ("acceptance", "reduced", "random"):
        assert len(got[part]) == len(pins[part])
        for expected, actual in zip(pins[part], got[part]):
            assert actual == expected
    assert pins["reduced"][0][2].startswith("18218 ")


def test_render_and_length_of_a_deep_chain():
    # 3,000 explicit games deep, far past the recursion limit: each level
    # holds the one below as Left's only option.
    deep = score(0)
    for _ in range(3000):
        deep = ExplicitGame((deep,), (score(0),), ((score(0),),))
    assert len(render_position(deep)) == 96004


def test_render_position_roundtrips_literals():
    for text in ("sq{1}{2}(3)", "sq'{1}{2}(5)", "hb[BRB]", "cl[OXO]", "s(4)"):
        p = parse(text)
        assert render_position(p) == text


def test_render_position_clobber_board_keeps_its_labels():
    board = dict(parse("cl[OXOO]").options(True))["1>2"]
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


def _parens(depth):
    return "(" * depth + "s(1)" + ")" * depth


def _explicit(depth):
    """An explicit game nested ``depth`` deep through its only Left option."""
    text = "s(0)"
    for _ in range(depth):
        text = f"x{{L:[{text}] | R:[s(0)] | LR:[[s(0)]]}}"
    return text


def test_nesting_bound():
    # The top level is one level and each parenthesis one more.
    assert MAX_NESTING == 100
    assert parse(_parens(MAX_NESTING - 1)) == score(1)
    with pytest.raises(GameSyntaxError) as info:
        parse(_parens(MAX_NESTING))
    assert info.value.offset == MAX_NESTING
    assert "nesting deeper than 100 levels" in str(info.value)
    # Far past the bound the parser stops at the first level too deep.
    with pytest.raises(GameSyntaxError) as info:
        parse(_parens(600))
    assert info.value.offset == MAX_NESTING


def test_nesting_bound_counts_list_items():
    # Each list item opens a level: 99 explicit games put s(0) at level 100.
    p = parse(_explicit(99))
    with pytest.raises(GameSyntaxError) as info:
        parse(_explicit(100))
    assert info.value.offset == 5 * 100
    assert evaluate(p, NORMAL, memo=Memo()).ex == 0
    text = render_position(p)
    assert len(text) == 3172 and parse(text) == p


def test_over_bound_text_is_sized_once_per_distinct_subgame(monkeypatch):
    # The reduced sq{1}{2}(18) would print about two billion characters: the
    # renderer sizes it from one length per distinct subgame and writes none.
    game = reduce_game(parse("sq{1}{2}(18)"))
    read = _count_parts(monkeypatch)
    with pytest.raises(SizeLimit, match="runs past 1000000 characters"):
        render_position(game)
    assert sorted(map(id, read)) == sorted(_distinct(game))


def test_in_bound_text_reads_each_distinct_subgame_once(monkeypatch):
    # The sizing pass and the writing pass share one read of each subgame.
    game = reduce_game(parse("sq{1}{2}(8)"))
    read = _count_parts(monkeypatch)
    text = render_position(game)
    assert sorted(map(id, read)) == sorted(_distinct(game))
    assert parse(text) is game


def _count_parts(monkeypatch) -> list:
    read = []
    original = gexpr._parts
    monkeypatch.setattr(gexpr, "_parts", lambda q: read.append(q) or original(q))
    return read


def _distinct(game) -> dict:
    distinct, stack = {id(game): game}, [game]
    while stack:
        for g in _subgames(stack.pop()):
            if id(g) not in distinct:
                distinct[id(g)] = g
                stack.append(g)
    return distinct


def _subgames(g):
    if isinstance(g, ExplicitGame):
        return [*g.lefts, *g.rights, *(c for row in g.table for c in row)]
    return g.components if isinstance(g, SumPosition) else ()
