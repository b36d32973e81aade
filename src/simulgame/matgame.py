"""Exact zero-sum matrix games over the rationals.

The row player maximizes, the column player minimizes.  Everything here is
exact: matrices and results are ``fractions.Fraction``s, and there is no
floating point and no tolerance anywhere.  ``game_value`` is the production
solver, a simplex with Bland's rule whose tableau rows are kept as primitive
integer vectors (see its docstring); ``saddle_value`` reads the value of a
game with a pure saddle point without solving for mixes.
``support_enumeration_value`` and ``fictitious_play`` are the two
independent oracles used to certify the solver.  Each maps its matrix once to
an integer image, every entry times the lcm of the matrix's denominators,
computes with Python ints only, and forms a ``Fraction`` only for the value
or bracket it returns.  Neither calls ``game_value`` or shares its
arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import BadParameters, DimensionMismatch, SimulgameError, SizeLimit

Matrix = list[list[Fraction]]
SUPPORT_MAX_SIDE = 5  # most rows and columns support enumeration takes


@dataclass(frozen=True)
class Solution:
    """Value and one pair of optimal mixed strategies."""

    value: Fraction
    row_mix: tuple[Fraction, ...]
    col_mix: tuple[Fraction, ...]


def as_matrix(rows: Sequence[Sequence]) -> Matrix:
    """Validate shape and convert entries to Fraction, in new row lists;
    entries that already are ``Fraction``s are taken as they are."""
    if not rows or not rows[0]:
        raise BadParameters("matrix must have at least one row and one column")
    width = len(rows[0])
    out = []
    for row in rows:
        if len(row) != width:
            raise BadParameters("matrix rows have unequal lengths")
        out.append([x if type(x) is Fraction else Fraction(x) for x in row])
    return out


def game_value(rows: Sequence[Sequence]) -> Solution:
    """Solve the matrix game exactly.

    The LP is the classical reciprocal formulation on a copy of the matrix
    shifted to be strictly positive.  Bland's rule (lowest variable index)
    makes the pivot sequence, and therefore the returned mixes, deterministic.

    The tableau is kept in Python ints, fraction-free in the spirit of
    Bareiss (Math. Comp. 1968).  Each constraint row is a positive multiple
    of its rational row: cleared of denominators by its own lcm, and divided
    by the gcd of its entries after every pivot, so it stays the unique
    primitive integer multiple of that row.  The objective row keeps one
    positive integer denominator.  Positive row scaling changes no sign and
    no ratio, and ratios are compared by cross-multiplication, so Bland's
    rule reads exactly what it would read in a rational tableau and takes
    the same pivots.  One common denominator for the whole matrix is avoided
    on purpose: cell values of deep sums carry denominators of hundreds of
    digits, their lcm runs to thousands, and every entry would carry it.
    Fractions are formed only when the value and the mixes are read off.
    """
    a = as_matrix(rows)
    m, n = len(a), len(a[0])
    low = min(min(row) for row in a)
    shift = Fraction(1) - low if low <= 0 else Fraction(0)

    # Maximize sum(y) subject to B y <= 1, y >= 0, B = A + shift.  Variables
    # 0..n-1 are the structural y, n..n+m-1 the slacks; the last column,
    # rhs, is the right-hand side.
    rhs = n + m
    tab = []
    for i in range(m):
        scale = lcm(shift.denominator, *(x.denominator for x in a[i]))
        lift = shift.numerator * (scale // shift.denominator)
        row = [x.numerator * (scale // x.denominator) + lift for x in a[i]] + [0] * m + [scale]
        row[n + i] = scale
        g = gcd(*row)
        tab.append([x // g for x in row])
    # The objective row is obj / den.
    obj = [-1] * n + [0] * (m + 1)
    den = 1
    basis = [n + i for i in range(m)]

    while True:
        enter = -1
        for j in range(rhs):
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        for i in range(m):
            coef = tab[i][enter]
            if coef > 0:
                if leave < 0:
                    leave = i
                    continue
                # Is tab[i][rhs] / coef below the best ratio so far?
                lhs = tab[i][rhs] * tab[leave][enter]
                best = tab[leave][rhs] * coef
                if lhs < best or (lhs == best and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            raise SimulgameError("unbounded game LP; matrix shift failed")
        prow = tab[leave]
        piv = prow[enter]
        for i in range(m):
            f = tab[i][enter]
            if i != leave and f != 0:
                row = [piv * x - f * y for x, y in zip(tab[i], prow)]
                g = gcd(*row)
                tab[i] = [x // g for x in row] if g != 1 else row
        f = obj[enter]
        obj = [piv * x - f * y for x, y in zip(obj, prow)]
        den *= piv
        g = gcd(den, *obj)
        if g != 1:
            obj = [x // g for x in obj]
            den //= g
        basis[leave] = enter

    total = obj[rhs]
    if total <= 0:
        raise SimulgameError("game LP has no positive optimum; matrix shift failed")
    # The LP optimum is total / den and the shifted game value its inverse.
    shifted_value = Fraction(den, total)
    ys = [0] * n
    for i in range(m):
        if basis[i] < n:
            ys[basis[i]] = Fraction(tab[i][rhs], tab[i][basis[i]])
    col_mix = tuple(y * shifted_value for y in ys)
    row_mix = tuple(Fraction(obj[n + i], total) for i in range(m))
    return Solution(shifted_value - shift, row_mix, col_mix)


def saddle_value(rows: Sequence[Sequence[Fraction]]) -> Fraction | None:
    """Value of the game if it has a pure saddle point, else None.

    The best row minimum (maximin) never exceeds the least column maximum
    (minimax); they are equal exactly when some entry is the least of its
    row and the greatest of its column, and that entry is then the value.
    No mix is computed.  Entry objects may repeat, as in the walk, where
    every cell that reads one memo entry holds one object.  Reading the
    entries directly compares 2mn - 2 of them.  Ranking sorts the d
    distinct objects in at most d * bit_length(d) comparisons and tells
    equal neighbours apart in d - 1 more, so equal values share one int
    rank, and then reads maximin and minimax on the ranks.  The path that
    compares fewer entries is taken, so a matrix of all separate objects
    is read directly.
    """
    distinct = {id(x): x for row in rows for x in row}
    d = len(distinct)
    if d * d.bit_length() + d - 1 >= 2 * sum(map(len, rows)) - 2:
        maximin = max(map(min, rows))
        return maximin if maximin == min(map(max, zip(*rows))) else None
    values = []  # one per rank, ascending
    rank = {}
    for x in sorted(distinct.values()):
        if not values or x != values[-1]:
            values.append(x)
        rank[id(x)] = len(values) - 1
    ranked = [[rank[id(x)] for x in row] for row in rows]
    maximin = max(map(min, ranked))
    return values[maximin] if maximin == min(map(max, zip(*ranked))) else None


def _integer_image(rows: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """The matrix times the lcm of all its denominators, as ints, and that lcm.

    One positive factor for the whole matrix keeps every comparison between
    entries of different rows and columns, and every tie, as it was.
    """
    a = as_matrix(rows)
    scale = lcm(*(x.denominator for row in a for x in row))
    return [[x.numerator * (scale // x.denominator) for x in row] for row in a], scale


def _solve_linear(mat: list[list[int]], rhs: list[int]) -> tuple[list[int], int] | None:
    """Solve the square integer system ``mat @ x = rhs`` without fractions.

    Fraction-free Gauss-Jordan elimination after Bareiss (Math. Comp. 1968):
    each step cross-multiplies every other row by the pivot and divides
    exactly by the previous pivot, so every entry stays an integer (a minor
    of the augmented matrix) and every diagonal entry ends as the
    determinant, up to sign.  Returns ``(nums, det)`` with ``det > 0`` and
    ``mat @ nums == det * rhs``, that is ``x = nums / det``; None when the
    system is singular.
    """
    k = len(mat)
    aug = [row + [b] for row, b in zip(mat, rhs)]
    prev = 1
    for col in range(k):
        piv = next((r for r in range(col, k) if aug[r][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        prow = aug[col]
        d = prow[col]
        for r in range(k):
            if r != col:
                f = aug[r][col]
                aug[r] = [(d * x - f * y) // prev for x, y in zip(aug[r], prow)]
        prev = d
    nums = [row[k] for row in aug]
    return (nums, prev) if prev > 0 else ([-x for x in nums], -prev)


def support_enumeration_value(rows: Sequence[Sequence]) -> Fraction:
    """Game value by exhaustive square-support enumeration.

    Independent of the simplex path: solves the equalization system of every
    square support pair and verifies the equilibrium inequalities exactly,
    on the matrix's integer image.  At most ``SUPPORT_MAX_SIDE`` rows and columns.
    """
    a, scale = _integer_image(rows)
    m, n = len(a), len(a[0])
    if max(m, n) > SUPPORT_MAX_SIDE:
        raise SizeLimit(f"support enumeration takes at most {SUPPORT_MAX_SIDE} rows and columns")
    # The column player's side is the row player's on the negated transpose.
    flipped = [[-x for x in col] for col in zip(*a)]
    for k in range(1, min(m, n) + 1):
        for support_rows in itertools.combinations(range(m), k):
            for support_cols in itertools.combinations(range(n), k):
                low = _secured_value(a, support_rows, support_cols)
                if low is None:
                    continue
                high = _secured_value(flipped, support_cols, support_rows)
                # The column mix secures -w on the negated transpose.  On
                # these supports p'Aq is both v and w, so the match v == w
                # only cross-checks the elimination.
                if high is not None and low[0] * high[1] == -high[0] * low[1]:
                    return Fraction(low[0], low[1] * scale)
    raise SimulgameError("no equilibrium support found; should be impossible")


def _secured_value(a: list[list[int]], srows, scols) -> tuple[int, int] | None:
    """The payoff ``(num, det)`` of the row mix on ``srows`` that pays every
    column of ``scols`` alike, if that mix exists, has no negative weight
    and no column pays less; else None.

    Mix and payoff are numerators over the system's positive determinant,
    so every test is an integer comparison.
    """
    k = len(srows)
    # Unknowns: the weights p on srows, then the payoff v; one equation per
    # column of scols, and sum(p) = 1.
    system = [[a[i][j] for i in srows] + [-1] for j in scols] + [[1] * k + [0]]
    sol = _solve_linear(system, [0] * k + [1])
    if sol is None:
        return None
    p, det = sol
    v = p.pop()
    if any(x < 0 for x in p):
        return None
    if any(sum(x * a[i][j] for x, i in zip(p, srows)) < v for j in range(len(a[0]))):
        return None
    return v, det


def fictitious_play(rows: Sequence[Sequence], iterations: int) -> tuple[Fraction, Fraction]:
    """Empirical bracket [lo, hi] with lo <= value <= hi.

    Each round both players best-respond to the opponent's empirical mix
    (lowest index on ties).  The bracket is the best security bound either
    empirical mix has achieved so far, so it always contains the true value.
    Payoffs are summed on the matrix's integer image, and each bound is kept
    as a (sum, round) pair compared by cross-multiplication.
    """
    if iterations < 1:
        raise BadParameters("iterations must be >= 1")
    a, scale = _integer_image(rows)
    cols = list(zip(*a))
    # against_col[i]: payoff of pure row i summed over the column history;
    # against_row[j]: payoff of pure column j summed over the row history.
    against_col = [0] * len(a)
    against_row = [0] * len(cols)
    best_lo = best_hi = None
    r = c = 0
    for t in range(1, iterations + 1):
        against_col = [x + y for x, y in zip(against_col, cols[c])]
        against_row = [x + y for x, y in zip(against_row, a[r])]
        lo = min(against_row)
        hi = max(against_col)
        if best_lo is None or lo * best_lo[1] > best_lo[0] * t:
            best_lo = (lo, t)
        if best_hi is None or hi * best_hi[1] < best_hi[0] * t:
            best_hi = (hi, t)
        # Next round's best responses; index() gives the lowest index.
        r = against_col.index(hi)
        c = against_row.index(lo)
    return Fraction(best_lo[0], best_lo[1] * scale), Fraction(best_hi[0], best_hi[1] * scale)


def eliminate_dominated(rows: Sequence[Sequence]):
    """Iterated weak dominance with lowest-index survivors.

    Removes any row weakly dominated by a surviving row, then any column
    weakly worse for the column player than a surviving column (the row pass
    on the negated transpose), until a fixpoint.  Returns (reduced matrix,
    kept row indices, kept col indices).
    """
    a = as_matrix(rows)
    flipped = [[-x for x in col] for col in zip(*a)]
    keep_r = list(range(len(a)))
    keep_c = list(range(len(a[0])))
    # ``|``, not ``or``: every round runs both passes.
    while _drop_dominated_rows(a, keep_r, keep_c) | _drop_dominated_rows(flipped, keep_c, keep_r):
        pass
    reduced = [[a[i][j] for j in keep_c] for i in keep_r]
    return reduced, tuple(keep_r), tuple(keep_c)


def _drop_dominated_rows(a: Matrix, keep_r: list[int], keep_c: list[int]) -> bool:
    """Drop, in index order, each row of ``keep_r`` that another one weakly
    dominates on ``keep_c`` or equals with a lower index; True if one went."""
    row = {i: [a[i][j] for j in keep_c] for i in keep_r}
    before = len(keep_r)
    for i in list(keep_r):
        if any(
            k != i and all(x >= y for x, y in zip(row[k], row[i])) and (row[k] != row[i] or k < i)
            for k in keep_r
        ):
            keep_r.remove(i)
    return len(keep_r) < before


def response_value(rows: Sequence[Sequence], row_mix: Sequence) -> Fraction:
    """Payoff the row player secures by fixing row_mix: min over pure columns."""
    a = as_matrix(rows)
    if len(row_mix) != len(a):
        raise DimensionMismatch("row_mix length does not match matrix rows")
    mix = [Fraction(x) for x in row_mix]
    return min(sum(mix[i] * a[i][j] for i in range(len(a))) for j in range(len(a[0])))
