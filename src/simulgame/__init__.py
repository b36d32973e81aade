"""Exact evaluation of simultaneous combinatorial games.

Positions from a few concrete rulesets (subtraction strips, clobber,
hackenbush, explicit games) combine under three sum operators and are
evaluated as recursive zero-sum matrix games with exact rational
arithmetic, under either the move-based or the scoring convention.
"""

from .analysis import (
    ComparisonResult,
    clobber_kn_expected,
    compare_continued_scoring,
    compare_index,
    reduce_game,
    sq12_closed_form,
    sq_expected_sequence,
    stalk_score_formula,
)
from .engine import (
    NORMAL,
    SCORING,
    GuaranteeProfile,
    Memo,
    ValueReport,
    evaluate,
    guarantee_profile,
    outcome,
)
from .gexpr import parse, render_position
from .matgame import (
    Solution,
    eliminate_dominated,
    fictitious_play,
    game_value,
    response_value,
    support_enumeration_value,
)
from .oracle import brute_ex, brute_profile
from .position import ExplicitGame, MoveMatrix, Position, ScoreLiteral, outcome_literal, score, v_a
from .rulesets import (
    ClobberPosition,
    HackenbushPosition,
    SqPosition,
    clobber_complete,
    clobber_strip,
    hb_cordon,
    hb_forest,
    hb_stalk,
    sq,
)
from .sums import (
    SumPosition,
    conjunctive,
    continued_conjunctive,
    disjunctive,
)

__all__ = [name for name in dir() if not name.startswith("_")]
