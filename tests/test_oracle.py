"""Brute-force oracle: agreement with the engine and its declared bounds."""

import random
from fractions import Fraction

import pytest

from simulgame.engine import NORMAL, SCORING, Memo, evaluate, guarantee_profile
from simulgame.errors import SizeLimit
from simulgame.oracle import brute_ex, brute_profile
from simulgame.rulesets import clobber_complete, clobber_strip, hb_stalk, sq
from simulgame.sums import conjunctive, continued_conjunctive, disjunctive

F = Fraction
MEMO = Memo()


def test_strip_values():
    assert brute_ex(sq({1}, {2}, 3)) == F(1, 2)
    assert brute_ex(sq({1}, {2}, 5, primed=True)) == F(-1, 4)
    assert brute_ex(sq({1}, {2}, 0)) == 0


def test_agreement_with_engine_across_rulesets():
    sample = [
        (sq({1}, {2}, 7), NORMAL),
        (sq({1}, {3}, 8), NORMAL),
        (sq({1}, {2}, 6, primed=True), NORMAL),
        (hb_stalk("BRBR"), NORMAL),
        (hb_stalk("BBRB"), SCORING),
        (clobber_strip("OOXOO"), SCORING),
        (clobber_complete(5), SCORING),
        (disjunctive(sq({1}, {2}, 2), sq({1}, {2}, 2)), NORMAL),
        (conjunctive(sq({1}, {2}, 5, primed=True), sq({1}, {2}, 6, primed=True)), NORMAL),
        (continued_conjunctive(sq({1}, {2}, 4), hb_stalk("BR")), SCORING),
    ]
    for position, convention in sample:
        assert brute_ex(position, convention) == evaluate(position, convention, memo=MEMO).ex


def test_matrix_size_bound():
    # Six moves per side puts the root matrix past the 5x5 oracle bound.
    with pytest.raises(SizeLimit):
        brute_ex(clobber_complete(7), SCORING)


def test_position_count_bound():
    with pytest.raises(SizeLimit):
        brute_ex(sq({1}, {2}, 30), NORMAL, max_positions=10)


def test_profiles():
    prof = brute_profile(sq({1}, {2}, 4))
    assert prof.ell == brute_ex(sq({1}, {2}, 4)) and prof.arr == 0
    drawn = brute_profile(hb_stalk("BR"))
    assert (drawn.ell, drawn.arr) == (0, 0)
    won = brute_profile(sq({1}, {2}, 1))
    assert (won.ell, won.arr) == (1, 0)


def test_profile_agreement_with_engine():
    sample = [sq({1}, {2}, n, primed=True) for n in range(7)]
    sample += [hb_stalk(s) for s in ("BRB", "BBR", "RBRB")]
    for position in sample:
        ours = guarantee_profile(position, NORMAL, memo=MEMO)
        theirs = brute_profile(position, NORMAL)
        assert (ours.ell, ours.arr) == (theirs.ell, theirs.arr)


def test_mixed_table_profiles_match_oracle():
    from simulgame.gexpr import parse
    from simulgame.verify import MIXED_TABLE

    for op in ("+", "^", "v"):
        position = parse(MIXED_TABLE.format(op, op))
        ours = guarantee_profile(position, NORMAL, memo=MEMO)
        theirs = brute_profile(position, NORMAL)
        assert (ours.ell, ours.arr) == (theirs.ell, theirs.arr)


def _random_component(rng):
    kind = rng.randrange(5)
    if kind == 0:
        a = rng.randint(1, 2)
        b = rng.randint(a + 1, 3)
        return sq({a}, {b}, rng.randint(0, 6), primed=rng.random() < 0.3)
    if kind == 1:
        return hb_stalk("".join(rng.choice("BR") for _ in range(rng.randint(0, 3))))
    if kind == 2:
        cells = "".join(rng.choice("OX_") for _ in range(rng.randint(1, 4)))
        return clobber_strip(cells)
    if kind == 3:
        from simulgame.position import score

        return score(rng.randint(-3, 3))
    from simulgame.position import outcome_literal

    return outcome_literal(rng.choice("LDR"))


def test_random_differential_campaign():
    rng = random.Random(424242)
    builders = (disjunctive, conjunctive, continued_conjunctive)
    checked = 0
    for _ in range(120):
        if rng.random() < 0.5:
            position = _random_component(rng)
        else:
            build = rng.choice(builders)
            position = build(_random_component(rng), _random_component(rng))
        for convention in (NORMAL, SCORING):
            try:
                want = brute_ex(position, convention, max_positions=3000)
            except SizeLimit:
                continue
            assert evaluate(position, convention, memo=MEMO).ex == want
            checked += 1
    assert checked >= 150

