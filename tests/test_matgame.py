"""Solver unit tests: frozen values, invariants, and cross-oracle checks."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from simulgame.errors import BadParameters, DimensionMismatch, SizeLimit
from simulgame.matgame import (
    Solution,
    _integer_image,
    _secured_value,
    _solve_linear,
    eliminate_dominated,
    fictitious_play,
    game_value,
    response_value,
    support_enumeration_value,
)

F = Fraction


def random_matrix(rng, max_dim=4):
    m = rng.randint(1, max_dim)
    n = rng.randint(1, max_dim)
    d = rng.choice([1, 2, 3])
    return [[F(rng.randint(-2, 2), d) for _ in range(n)] for _ in range(m)]


def check_solution(matrix, sol):
    m, n = len(matrix), len(matrix[0])
    assert all(p >= 0 for p in sol.row_mix) and sum(sol.row_mix) == 1
    assert all(q >= 0 for q in sol.col_mix) and sum(sol.col_mix) == 1
    paid = sum(
        sol.row_mix[i] * matrix[i][j] * sol.col_mix[j] for i in range(m) for j in range(n)
    )
    assert paid == sol.value
    for j in range(n):
        assert sum(sol.row_mix[i] * matrix[i][j] for i in range(m)) >= sol.value
    for i in range(m):
        assert sum(matrix[i][j] * sol.col_mix[j] for j in range(n)) <= sol.value


# Exact solutions recorded from the Fraction-tableau simplex.  Where several
# mixes are optimal, Bland's rule picks one, so these pin the pivot sequence.
SOLUTION_TABLE = [
    ("constant-2x2", [["2", "2"], ["2", "2"]], "2", ["1", "0"], ["1", "0"]),
    ("constant-3x3", [["-5/2"] * 3] * 3, "-5/2", ["1", "0", "0"], ["1", "0", "0"]),
    ("duplicate-rows", [["0", "1"], ["1", "0"], ["0", "1"]],
     "1/2", ["1/2", "1/2", "0"], ["1/2", "1/2"]),
    ("duplicate-cols", [["0", "1", "1"], ["1", "0", "0"]],
     "1/2", ["1/2", "1/2"], ["1/2", "1/2", "0"]),
    ("duplicate-rows-and-cols", [["1", "1", "0"], ["0", "0", "1"], ["1", "1", "0"]],
     "1/2", ["1/2", "1/2", "0"], ["1/2", "0", "1/2"]),
    ("any-column-mix-optimal", [["1", "1"], ["1", "0"]], "1", ["1", "0"], ["1", "0"]),
    ("any-row-mix-optimal", [["1", "0"], ["1", "0"], ["0", "1"]],
     "1/2", ["1/2", "0", "1/2"], ["1/2", "1/2"]),
    ("ratio-ties", [["1/2", "1/2", "0"], ["1/2", "0", "1/2"], ["0", "1/2", "1/2"]],
     "1/3", ["1/3", "1/3", "1/3"], ["1/3", "1/3", "1/3"]),
    ("zero-rows", [["-1", "1"], ["1", "-1"], ["0", "0"], ["0", "0"]],
     "0", ["1/2", "1/2", "0", "0"], ["1/2", "1/2"]),
    ("one-by-four", [["3", "-1", "2", "-1"]], "-1", ["1"], ["0", "1", "0", "0"]),
    ("four-by-one", [["3"], ["-1"], ["2"], ["-1"]], "3", ["1", "0", "0", "0"], ["1"]),
    ("negative", [["-3", "-1"], ["-2", "-4"]], "-5/2", ["1/2", "1/2"], ["3/4", "1/4"]),
    ("rock-paper-scissors", [["0", "-1", "1"], ["1", "0", "-1"], ["-1", "1", "0"]],
     "0", ["1/3", "1/3", "1/3"], ["1/3", "1/3", "1/3"]),
    ("mixed-fractions",
     [["1/3", "-2/7", "5/6"], ["-1/2", "3/4", "0"], ["2/5", "1/9", "-3/8"]],
     "10175/72063", ["8309/24021", "6292/24021", "20/51"],
     ["27845/72063", "70/157", "12088/72063"]),
    # The root of sq{1,2}{1,3}(5) ^ sq{1,2}{2,3}(4): duplicate 0/1 rows and
    # columns throughout.
    ("conj-strips-root-16x16", [list(row) for row in (
        "0110011001100110", "1001100110011001", "0010001000100010", "0001000100010001",
        "0110011001100110", "1001100110011001", "0010001000100010", "0001000100010001",
        "0110011001100000", "1001100110010000", "0010001000100000", "0001000100010000",
        "0110011000000110", "1001100000001001", "0010001000000010", "0001000100000001",
    )], "1/2", ["1/2", "1/2"] + ["0"] * 14, ["1/2", "1/2"] + ["0"] * 14),
]


def _recorded(value, row_mix, col_mix):
    return Solution(F(value), tuple(map(F, row_mix)), tuple(map(F, col_mix)))


@pytest.mark.parametrize("name,matrix,value,row_mix,col_mix", SOLUTION_TABLE)
def test_solution_table(name, matrix, value, row_mix, col_mix):
    sol = game_value([[F(x) for x in row] for row in matrix])
    assert sol == _recorded(value, row_mix, col_mix)


def test_solution_with_long_denominators():
    # A cell matrix of the three-strip + probe, with 212-digit denominators.
    case = json.loads((Path(__file__).parent / "data" / "plus_probe_matrix.json").read_text())
    matrix = [[F(x) for x in row] for row in case["matrix"]]
    assert max(len(str(x.denominator)) for row in matrix for x in row) >= 200
    sol = game_value(matrix)
    assert sol == _recorded(case["value"], case["row_mix"], case["col_mix"])
    check_solution(matrix, sol)


def test_matching_draws_value():
    # 2x2 equalization: v = (ad - bc) / (a + d - b - c) = 1/2 here.
    sol = game_value([[0, 1], [1, 0]])
    assert sol.value == F(1, 2)
    assert sol.row_mix == (F(1, 2), F(1, 2))
    assert sol.col_mix == (F(1, 2), F(1, 2))


def test_single_cell():
    sol = game_value([[F(-7, 3)]])
    assert sol.value == F(-7, 3)
    assert sol.row_mix == (F(1),) and sol.col_mix == (F(1),)


def test_tall_matrix_with_zero_rows():
    # Value matrix of the 4-square position in the two-move subtraction variant.
    sol = game_value([[-1, 1], [1, -1], [0, 0], [0, 0]])
    assert sol.value == 0
    check_solution([[F(-1), F(1)], [F(1), F(-1)], [F(0), F(0)], [F(0), F(0)]], sol)


def test_support_enumeration_matches_examples():
    assert support_enumeration_value([[0, 1], [1, 0]]) == F(1, 2)
    assert support_enumeration_value([[3]]) == 3
    assert support_enumeration_value([[0, 1], [1, 0], [1, 1]]) == 1


def test_support_enumeration_size_limit():
    with pytest.raises(SizeLimit):
        support_enumeration_value([[0] * 6 for _ in range(2)])


def test_solver_agrees_with_support_enumeration():
    rng = random.Random(7)
    for _ in range(250):
        a = random_matrix(rng)
        sol = game_value(a)
        check_solution(a, sol)
        assert sol.value == support_enumeration_value(a)


def test_role_swap_negates_value():
    rng = random.Random(11)
    for _ in range(100):
        a = random_matrix(rng)
        swapped = [[-a[i][j] for i in range(len(a))] for j in range(len(a[0]))]
        assert game_value(swapped).value == -game_value(a).value


def test_constant_shift_moves_value_only():
    rng = random.Random(13)
    for _ in range(60):
        a = random_matrix(rng)
        c = F(rng.randint(-3, 3), rng.choice([1, 2]))
        sol = game_value(a)
        shifted = game_value([[x + c for x in row] for row in a])
        assert shifted.value == sol.value + c
        support = lambda mix: tuple(i for i, p in enumerate(mix) if p > 0)
        assert support(shifted.row_mix) == support(sol.row_mix)
        assert support(shifted.col_mix) == support(sol.col_mix)


ORACLE_PINS = json.loads((Path(__file__).parent / "data" / "oracle_pins.json").read_text())


def test_fictitious_play_reproduces_pins():
    # Brackets recorded from the Fraction-arithmetic oracle: the integer
    # image must take the same best responses, ties included.
    for case in ORACLE_PINS["fictitious_play"]:
        matrix = [[F(x) for x in row] for row in case["matrix"]]
        got = fictitious_play(matrix, case["iterations"])
        assert got == (F(case["lo"]), F(case["hi"])), case


def test_support_enumeration_reproduces_pins():
    cases = ORACLE_PINS["support_enumeration_value"]
    assert max(len(str(F(x).denominator)) for c in cases for r in c["matrix"] for x in r) == 30
    for case in cases:
        matrix = [[F(x) for x in row] for row in case["matrix"]]
        assert support_enumeration_value(matrix) == F(case["value"]), case


def test_solve_linear_is_exact_over_the_integers():
    # Small entries put zeros on the diagonal often, so rows get swapped and
    # the determinant's sign flips.
    rng = random.Random(29)
    solved = 0
    while solved < 120:
        k = solved % 6 + 1
        mat = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
        rhs = [rng.randint(-9, 9) for _ in range(k)]
        sol = _solve_linear(mat, rhs)
        if sol is None:
            continue
        nums, det = sol
        assert det > 0
        assert [sum(x * y for x, y in zip(row, nums)) for row in mat] == [det * b for b in rhs]
        solved += 1


def test_solve_linear_rejects_rank_deficient_systems():
    assert _solve_linear([[1, 2, 3], [4, 5, 6], [1, 2, 3]], [1, 2, 1]) is None
    assert _solve_linear([[0, 2, 3], [0, 5, 6], [0, 1, 7]], [1, 2, 3]) is None
    assert _solve_linear([[0]], [1]) is None


@pytest.mark.parametrize(
    "matrix,value",
    [
        ([[0, 0, 1], [0, 0, 1], [1, 1, 0]], F(1, 2)),
        ([[F(-5, 2)] * 4] * 4, F(-5, 2)),
    ],
)
def test_support_enumeration_skips_singular_supports(matrix, value):
    # Duplicate rows and columns make every support holding both copies
    # singular; the first 2x2 support of each matrix is one of them.
    image, _ = _integer_image(matrix)
    assert _secured_value(image, (0, 1), (0, 1)) is None
    assert support_enumeration_value(matrix) == value == game_value(matrix).value


def test_eliminate_dominated_keeps_maximal_row():
    reduced, rows, cols = eliminate_dominated([[0, 0], [1, 0], [1, 1]])
    assert rows == (2,)
    assert game_value(reduced).value == 1


def test_eliminate_dominated_equal_rows_keep_lowest():
    _, rows, _ = eliminate_dominated([[0, 0], [1, 0], [1, 1], [1, 1]])
    assert rows == (2,)


def test_eliminate_dominated_equal_columns_keep_lowest():
    reduced, rows, cols = eliminate_dominated([[0, -1, -1, 2]])
    assert (reduced, rows, cols) == ([[-1]], (0,), (1,))


def test_eliminate_dominated_preserves_value():
    rng = random.Random(17)
    for _ in range(120):
        a = random_matrix(rng)
        reduced, rows, cols = eliminate_dominated(a)
        assert rows and cols
        assert game_value(reduced).value == game_value(a).value


def test_fictitious_play_bracket():
    lo, hi = fictitious_play([[0, 1], [1, 0]], 10_000)
    assert lo <= F(1, 2) <= hi
    assert hi - lo < F(2, 100)


def test_fictitious_play_single_cell():
    assert fictitious_play([[F(5, 3)]], 1) == (F(5, 3), F(5, 3))


def test_fictitious_play_contains_value():
    rng = random.Random(19)
    for _ in range(40):
        a = random_matrix(rng, max_dim=3)
        lo, hi = fictitious_play(a, 300)
        assert lo <= game_value(a).value <= hi


def test_fictitious_play_rejects_bad_iterations():
    with pytest.raises(BadParameters):
        fictitious_play([[1]], 0)


def test_response_value():
    a = [[0, 1], [1, 0]]
    assert response_value(a, [F(1, 2), F(1, 2)]) == F(1, 2)
    assert response_value(a, [1, 0]) == 0
    with pytest.raises(DimensionMismatch):
        response_value(a, [1, 0, 0])


def test_response_of_optimal_mix_is_value():
    rng = random.Random(23)
    for _ in range(60):
        a = random_matrix(rng)
        sol = game_value(a)
        assert response_value(a, sol.row_mix) == sol.value


def test_rejects_empty_matrix():
    with pytest.raises(BadParameters):
        game_value([])
    with pytest.raises(BadParameters):
        game_value([[1], [2, 3]])
