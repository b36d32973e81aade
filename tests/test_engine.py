"""Engine behaviour: evaluation, memoization, profiles, keys."""

import random
from fractions import Fraction

import pytest

from simulgame import engine
from simulgame.analysis import clobber_kn_expected, sq12_closed_form
from simulgame.engine import (
    ARR,
    ELL,
    NORMAL,
    SCORING,
    Memo,
    _matrix_value,
    _terminal_payoff,
    evaluate,
    guarantee_profile,
    outcome,
)
from simulgame.errors import LoopyGame, UnknownRuleset
from simulgame.gexpr import parse
from simulgame.matgame import SUPPORT_MAX_SIDE, game_value, saddle_value, support_enumeration_value
from simulgame.oracle import brute_ex
from simulgame.position import ExplicitGame, Position, outcome_literal, score
from simulgame.rulesets import (
    ClobberPosition,
    clobber_complete,
    clobber_strip,
    hb_stalk,
    sq,
)
from simulgame.sums import SumPosition, conjunctive, continued_conjunctive, disjunctive

F = Fraction


def test_terminal_payoffs():
    """(ex, ell, arr) of each terminal, under normal play and then scoring."""
    expected = {
        "o(L)": ((1, 1, 0), (1, 1, 0)),
        "o(D)": ((0, 0, 0), (0, 0, 0)),
        "o(R)": ((-1, 0, -1), (-1, 0, -1)),
        "s(3)": ((0, 0, 0), (3, 1, 0)),
        "s(0)": ((0, 0, 0), (0, 0, 0)),
        "s(-2)": ((0, 0, 0), (-2, 0, -1)),
    }
    for text, by_convention in expected.items():
        position = parse(text)
        for convention, payoffs in zip((NORMAL, SCORING), by_convention):
            assert _terminal_payoff(position, convention, (None, ELL, ARR)) == payoffs
            for transform, payoff in zip((None, ELL, ARR), payoffs):
                assert _terminal_payoff(position, convention, (transform,)) == (payoff,)
                report = evaluate(position, convention, transform=transform)
                assert report.terminal and report.ex == payoff


def test_strip_values():
    memo = Memo()
    values = [evaluate(sq({1}, {2}, n), NORMAL, memo=memo).ex for n in range(8)]
    assert values == [0, 1, 0, F(1, 2), F(1, 2), F(1, 4), F(1, 2), F(3, 8)]


def test_terminal_reports():
    report = evaluate(sq({1}, {2}, 1), NORMAL)
    assert report.terminal and report.ex == 1
    assert report.left_mix == () and report.right_mix == ()
    assert report.row_labels == () and report.col_labels == () and report.values == ()


def test_report_carries_the_root_value_matrix():
    strip = sq({1}, {2}, 3)
    sample = [
        sq({1}, {2}, 5),
        sq({1}, {2}, 5, primed=True),
        clobber_strip("OXOXO"),
        hb_stalk("BRB"),
        sq({1}, {2}, 1),
        disjunctive(strip, hb_stalk("BR")),
        conjunctive(strip, sq({1}, {2}, 4, primed=True)),
        continued_conjunctive(strip, clobber_strip("XOO")),
    ]
    for position in sample:
        matrix = position.move_matrix()
        for convention in (NORMAL, SCORING):
            for transform in (None, ELL, ARR):
                report = evaluate(position, convention, transform=transform, memo=Memo())
                assert report.row_labels == matrix.row_labels
                assert report.col_labels == matrix.col_labels
                assert report.values == tuple(
                    tuple(
                        evaluate(cell, convention, transform=transform, memo=Memo()).ex
                        for cell in row
                    )
                    for row in matrix.cells
                )
                assert report.terminal == matrix.is_empty
                if not report.terminal:
                    assert game_value(report.values).value == report.ex


def test_mixes_certify_value():
    memo = Memo()
    for position in (sq({1}, {2}, 6), sq({1, 4}, {2}, 4, primed=True), hb_stalk("BRBR")):
        report = evaluate(position, NORMAL, memo=memo)
        matrix = position.move_matrix()
        values = [
            [evaluate(cell, NORMAL, memo=memo).ex for cell in row] for row in matrix.cells
        ]
        paid = sum(
            report.left_mix[i] * values[i][j] * report.right_mix[j]
            for i in range(len(values))
            for j in range(len(values[0]))
        )
        assert paid == report.ex
        assert sum(report.left_mix) == 1 and sum(report.right_mix) == 1


def test_value_between_maximin_and_minimax():
    memo = Memo()
    rng = random.Random(3)
    sample = [sq({1}, {2}, n) for n in range(3, 9)]
    sample += [sq({1}, {3}, n) for n in range(4, 9)]
    sample += [hb_stalk("".join(rng.choice("BR") for _ in range(4))) for _ in range(6)]
    for position in sample:
        if position.is_terminal():
            continue
        matrix = position.move_matrix()
        values = [
            [evaluate(cell, NORMAL, memo=memo).ex for cell in row] for row in matrix.cells
        ]
        ex = evaluate(position, NORMAL, memo=memo).ex
        maximin = max(min(row) for row in values)
        minimax = min(max(col) for col in zip(*values))
        assert maximin <= ex <= minimax
        assert -1 <= ex <= 1


class _NoStore(Memo):
    """A memo that keeps nothing: the memo-free reference walk."""

    def put(self, key, value):
        pass


def test_memo_on_equals_memo_off():
    sample = [sq({1}, {2}, 6), sq({1}, {2}, 5, primed=True), clobber_strip("OOXO"), hb_stalk("BRB")]
    sample.append(disjunctive(sq({1}, {2}, 2), sq({1}, {2}, 3)))
    for position in sample:
        for convention in (NORMAL, SCORING):
            with_memo = evaluate(position, convention, memo=Memo())
            without = evaluate(position, convention, memo=_NoStore())
            assert with_memo == without


def test_memo_put_keeps_the_first_value_and_rejects_another():
    memo = Memo()
    memo.put("k", Fraction(1, 2))
    memo.put("k", Fraction(1, 2))
    assert len(memo) == 1 and memo.get("k") == Fraction(1, 2)
    with pytest.raises(AssertionError, match="memo collision"):
        memo.put("k", Fraction(1, 3))


def test_repeated_calls_identical():
    memo = Memo()
    p = sq({1}, {2}, 7)
    assert evaluate(p, NORMAL, memo=memo) == evaluate(p, NORMAL, memo=memo)


class _Loop(Position):
    ruleset_tag = "loop"

    def options(self, left):
        return (("l" if left else "r", self),)

    def _joint(self, left_label, right_label):
        return self

    def canonical_key(self):
        return "loop"


class _OverLoop(Position):
    """Its one cell is a _Loop, so the loop starts one level below the root."""

    ruleset_tag = "over-loop"

    def options(self, left):
        return (("l" if left else "r", _Loop()),)

    def _joint(self, left_label, right_label):
        return _Loop()

    def canonical_key(self):
        return "over-loop"


def test_loop_detection():
    for game in (_Loop(), _OverLoop()):
        for query in (evaluate, guarantee_profile, outcome):
            with pytest.raises(LoopyGame, match=r"^position repeats along a play line: loop$"):
                query(game, NORMAL, memo=Memo())


def test_foreign_objects_rejected():
    with pytest.raises(UnknownRuleset):
        evaluate("not a position")
    with pytest.raises(UnknownRuleset):
        outcome(42)


def test_unknown_transform_rejected():
    with pytest.raises(ValueError, match="unknown transform 'nonsense'"):
        evaluate(sq({1}, {2}, 3), transform="nonsense")


def test_canonical_key_commutes_for_sums():
    a, b = sq({1}, {2}, 3), sq({1}, {2}, 2)
    assert disjunctive(a, b).canonical_key() == disjunctive(b, a).canonical_key()


def test_canonical_key_separates_rulesets_and_states():
    assert sq({1}, {2}, 3).canonical_key() != sq({2}, {1}, 3).canonical_key()
    assert hb_stalk("BR").canonical_key() != hb_stalk("RB").canonical_key()


def test_role_swap_negates_values():
    memo = Memo()
    sample = [sq({1}, {2}, n) for n in range(7)]
    sample += [sq({1}, {2}, n, primed=True) for n in range(7)]
    sample += [hb_stalk(s) for s in ("B", "BR", "BRB", "BBRB", "RRB")]
    for position in sample:
        swapped = position.swap_roles()
        assert evaluate(swapped, NORMAL, memo=memo).ex == -evaluate(position, NORMAL, memo=memo).ex
        prof = guarantee_profile(position, NORMAL, memo=memo)
        swapped_prof = guarantee_profile(swapped, NORMAL, memo=memo)
        assert (swapped_prof.ell, swapped_prof.arr) == (prof.arr, prof.ell)


def test_profile_of_terminal_left_win():
    prof = guarantee_profile(sq({1}, {2}, 1), NORMAL)
    assert (prof.ell, prof.arr) == (1, 0)


def test_profile_of_strip_equals_value():
    memo = Memo()
    for n in range(9):
        p = sq({1}, {2}, n)
        prof = guarantee_profile(p, NORMAL, memo=memo)
        assert prof.ell == evaluate(p, NORMAL, memo=memo).ex
        assert prof.arr == 0


def test_profile_of_drawn_stalk():
    prof = guarantee_profile(hb_stalk("BR"), NORMAL)
    assert (prof.ell, prof.arr) == (0, 0)


def test_profile_builds_each_matrix_once(monkeypatch):
    built = []
    original = Position.move_matrix

    def counting(self):
        built.append(self.canonical_key())
        return original(self)

    monkeypatch.setattr(Position, "move_matrix", counting)
    memo = Memo()
    guarantee_profile(sq({1, 2}, {1, 3}, 8), NORMAL, memo=memo)
    assert len(built) == len(set(built)) > 8
    assert len(memo) == len(built)  # one entry, holding ell and arr, per key


def test_ell_evaluate_and_profile_keep_separate_entries():
    """Each walk keys its entries by its own transforms, so a profile on a
    memo warmed by an ELL-only evaluate stores its own entry per node."""
    position = sq({1, 2}, {1, 3}, 8)
    memo = Memo()
    ell = evaluate(position, NORMAL, transform=ELL, memo=memo).ex
    entries = len(memo)
    profile = guarantee_profile(position, NORMAL, memo=memo)
    assert len(memo) == 2 * entries
    assert profile == guarantee_profile(position, NORMAL)
    assert profile.ell == ell


def _has_pure_saddle(rows):
    """Some entry is the least of its row and the greatest of its column."""
    return any(
        x == min(row) and x == max(other[j] for other in rows)
        for row in rows
        for j, x in enumerate(row)
    )


def _solved_matrices(monkeypatch, position, presolve):
    """Matrices handed to the simplex by one evaluate, with its report and
    memo size; without the pre-solve every matrix goes to the simplex."""
    solved = []

    def counting(rows):
        solved.append(rows)
        return game_value(rows)

    with monkeypatch.context() as patch:
        patch.setattr(engine, "game_value", counting)
        if not presolve:
            patch.setattr(engine, "saddle_value", lambda rows: None)
        memo = Memo()
        report = evaluate(position, NORMAL, memo=memo)
    return solved, report, len(memo)


# (position, matrices the walk solves, how many interior ones lack a pure
# saddle point, memo entries, value), recorded from a simplex-only walk.
PRESOLVE_CASES = [
    ("sq{1,2}{1,3}(5) ^ sq{1,2}{2,3}(4)", 5, 0, 16, F(1, 2)),
    ("sq{1,2}{1,3}(7) ^ sq{1,2}{2,3}(6)", 17, 4, 31, F(1, 8)),
    ("sq{1}{2}(4) + sq{1}{2}(3)", 9, 3, 12, F(3, 4)),
]


@pytest.mark.parametrize("text,matrices,mixed,entries,value", PRESOLVE_CASES)
def test_walk_sends_only_the_root_and_mixed_matrices_to_the_simplex(
    monkeypatch, text, matrices, mixed, entries, value
):
    position = parse(text)
    every, reference, reference_entries = _solved_matrices(monkeypatch, position, False)
    solved, report, memo_entries = _solved_matrices(monkeypatch, position, True)
    assert len(every) == matrices and every[-1] == [list(row) for row in report.values]
    interior = [rows for rows in every[:-1] if not _has_pure_saddle(rows)]
    assert len(interior) == mixed
    assert solved == interior + [every[-1]]
    assert report == reference and report.ex == value
    assert memo_entries == reference_entries == entries


def test_presolve_value_is_the_game_value():
    rng = random.Random(29)
    saddles = 0
    for _ in range(400):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        d = rng.choice([1, 2, 3])
        a = [[F(rng.randint(-2, 2), d) for _ in range(n)] for _ in range(m)]
        exact = support_enumeration_value(a)
        assert _matrix_value(a) == game_value(a).value == exact
        value = saddle_value(a)
        assert (value is not None) == _has_pure_saddle(a)
        if value is not None:
            saddles += 1
            assert value == exact
    assert 0 < saddles < 400


def test_saddle_value_on_repeated_entries():
    """Matrices drawn from a small pool of shared entries, plus fresh copies
    of equal value, so that ties run across objects, as in the walk's value
    rows.  ``saddle_value`` ranks repeated objects; its reading must match
    maximin and minimax read directly, and the exact value where a saddle
    exists."""
    rng = random.Random(31)
    pool = [F(n, d) for n in range(-3, 4) for d in (1, 2, 3)]
    saddles = mixed = 0
    for trial in range(300):
        side = SUPPORT_MAX_SIDE if trial % 2 else 16
        m, n = rng.randint(1, side), rng.randint(1, side)
        shared = rng.sample(pool, rng.randint(1, 6))
        rows = [
            [F(x) if rng.random() < 0.2 else x for x in rng.choices(shared, k=n)]
            for _ in range(m)
        ]
        maximin = max(map(min, rows))
        direct = maximin if maximin == min(map(max, zip(*rows))) else None
        value = saddle_value(rows)
        assert value == direct
        assert (value is not None) == _has_pure_saddle(rows)
        if max(m, n) <= SUPPORT_MAX_SIDE:
            exact = support_enumeration_value(rows)
            assert value is None or value == exact
        saddles += value is not None
        mixed += value is None
    assert saddles > 30 and mixed > 30


def test_profile_bounds():
    memo = Memo()
    sample = [sq({1, 4}, {2}, n, primed=True) for n in range(7)]
    sample += [hb_stalk(s) for s in ("BRBR", "BBR", "RRBB")]
    for position in sample:
        prof = guarantee_profile(position, NORMAL, memo=memo)
        assert 0 <= prof.ell and 0 <= prof.arr
        assert prof.ell + prof.arr <= 1


def test_outcome_classification():
    memo = Memo()
    assert outcome(score(0), NORMAL, memo=memo) == "D"
    assert outcome(sq({1}, {2}, 1), NORMAL, memo=memo) == "L"
    assert outcome(sq({1}, {2}, 3), NORMAL, memo=memo) == "L"
    assert outcome(hb_stalk("BR"), NORMAL, memo=memo) == "D"
    assert outcome(hb_stalk("BR").swap_roles(), NORMAL, memo=memo) == "D"
    assert outcome(sq({1}, {2}, 4, primed=True), NORMAL, memo=memo) == "?"
    # A ^ sum is over once one part is; that part decides.
    won, lost = (conjunctive(end, sq({1}, {2}, 3)) for end in (sq({1}, {2}, 1), sq({2}, {1}, 1)))
    terminal_roots = [
        ("o(L)", NORMAL, "L"), ("o(R)", NORMAL, "R"), ("o(D)", NORMAL, "D"),
        ("s(3)", NORMAL, "D"), ("s(3)", SCORING, "L"), ("s(-2)", SCORING, "R"),
        ("s(0)", SCORING, "D"), ("o(R)", SCORING, "R"),
    ]
    for text, convention, expected in terminal_roots:
        assert outcome(parse(text), convention, memo=memo) == expected
    for convention in (NORMAL, SCORING):
        assert outcome(won, convention, memo=memo) == "L"
        assert outcome(lost, convention, memo=memo) == "R"
    for position in (sq({1}, {2}, 1), sq({1}, {2}, 3)):  # terminal, then not
        with pytest.raises(ValueError):
            outcome(position, "bogus")


def test_memo_insertion_idempotent():
    memo = Memo()
    memo.put(("k", NORMAL, None), 1)
    memo.put(("k", NORMAL, None), 1)
    with pytest.raises(AssertionError):
        memo.put(("k", NORMAL, None), 2)


def _random_board(rng, n=None):
    n = n or rng.randint(2, 5)
    edges = frozenset((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5)
    occupancy = tuple(rng.choice("XXOO_") for _ in range(n))
    return ClobberPosition(edges, occupancy, rng.randint(0, 2))


def _relabelled(board, rng):
    perm = list(range(len(board.occupancy)))
    rng.shuffle(perm)
    occupancy = [None] * len(perm)
    for u, ch in enumerate(board.occupancy):
        occupancy[perm[u]] = ch
    edges = frozenset(tuple(sorted((perm[u], perm[v]))) for u, v in board.edges)
    return ClobberPosition(edges, tuple(occupancy), board.acc)


def test_clobber_keys_are_sound():
    """Boards sharing a key share every value; the memo is off, so no key decides one."""
    rng = random.Random(11)
    boards = []
    for _ in range(150):
        board = _random_board(rng)
        boards += [board, _relabelled(board, rng)]
    groups = {}
    for board in boards:
        values = tuple(
            evaluate(board, convention, transform=transform, memo=_NoStore()).ex
            for convention in (NORMAL, SCORING)
            for transform in (None, ELL, ARR)
        )
        groups.setdefault(board.canonical_key(), set()).add(values)
    assert all(len(values) == 1 for values in groups.values())
    assert len(groups) < len(boards) // 2


def test_isomorphic_clobber_boards_share_memo_entries():
    memo = Memo()
    assert evaluate(clobber_complete(8), SCORING, memo=memo).ex == 3
    assert len(memo) == 14
    assert evaluate(clobber_complete(12), SCORING, memo=Memo()).ex == clobber_kn_expected(12)
    for cells in ("OXOO", "OXXOX", "__OXO_X"):
        assert clobber_strip(cells).canonical_key() == clobber_strip(cells[::-1]).canonical_key()
    assert clobber_strip("OXO__").canonical_key() == clobber_strip("__OXO").canonical_key()


def _live_regions(board):
    """The board's live regions, found by merging edges between occupied
    squares, each a board of its own numbered in board order with ``acc`` 0."""
    occ = board.occupancy
    root = {u: u for u, ch in enumerate(occ) if ch != "_"}

    def find(u):
        while root[u] != u:
            u = root[u]
        return u

    for u, v in board.edges:
        if u in root and v in root:
            root[find(u)] = find(v)
    regions = {}
    for u in root:
        regions.setdefault(find(u), []).append(u)
    out = []
    for squares in regions.values():
        if {occ[u] for u in squares} == {"X", "O"}:
            index = {u: i for i, u in enumerate(sorted(squares))}
            edges = frozenset((index[u], index[v]) for u, v in board.edges if u in index and v in index)
            out.append(ClobberPosition(edges, tuple(occ[u] for u in sorted(squares))))
    return out


def _as_sum(board):
    """The game the board is isomorphic to: ``s(acc)`` with no live region,
    the one live region with ``acc``, or the ``+`` sum of several plus
    ``s(acc)`` when ``acc`` is not 0."""
    regions = _live_regions(board)
    if not regions:
        return score(board.acc)
    if len(regions) == 1:
        (region,) = regions
        return ClobberPosition(region.edges, region.occupancy, board.acc)
    return disjunctive(*regions, *([score(board.acc)] if board.acc else []))


def _with_dead_region(board, rng):
    """The board with a clump of one colour appended, joined to itself and to
    the board's empty squares only, so it is a region that can never move."""
    n, k = len(board.occupancy), rng.randint(1, 3)
    clump = range(n, n + k)
    empty = [u for u, ch in enumerate(board.occupancy) if ch == "_"]
    edges = {(u, v) for u in clump for v in clump if u < v and rng.random() < 0.6}
    edges |= {(u, v) for u in empty for v in clump if rng.random() < 0.5}
    return ClobberPosition(board.edges | edges, board.occupancy + (rng.choice("XO"),) * k, board.acc)


def _split_boards():
    """Seeded strips with gaps, parsed, and seeded graphs with gaps and a
    capture count, each paired with the game its live regions make."""
    rng = random.Random(32)
    for _ in range(60):
        runs = ["".join(rng.choice("XO") for _ in range(rng.randint(1, 4))) for _ in range(rng.randint(1, 3))]
        cells = "".join(run + "_" * rng.randint(1, 2) for run in runs)
        regions = [run for run in cells.split("_") if "X" in run and "O" in run]
        text = " + ".join(f"cl[{run}]" for run in regions) if len(regions) > 1 else None
        yield parse(f"cl[{cells}]"), parse(text) if text else None
    for _ in range(120):
        # One to three random graphs side by side, their squares shuffled together.
        boards = [_random_board(rng, rng.randint(2, 3)) for _ in range(rng.randint(1, 3))]
        occupancy = [ch for board in boards for ch in board.occupancy]
        place = rng.sample(range(len(occupancy)), len(occupancy))
        edges, start = set(), 0
        for board in boards:
            edges |= {tuple(sorted((place[start + u], place[start + v]))) for u, v in board.edges}
            start += len(board.occupancy)
        shuffled = [None] * len(occupancy)
        for u, ch in enumerate(occupancy):
            shuffled[place[u]] = ch
        yield ClobberPosition(frozenset(edges), tuple(shuffled), rng.randint(0, 2)), None


def test_split_boards_are_the_sum_of_their_live_regions():
    """A board keys and values as the ``+`` sum of its live regions (plus
    ``s(acc)``), one region with ``acc``, or ``s(acc)``; dead regions change
    no key.  Values are read with the memo off, so no key decides one, and
    checked against the oracle, which keys nothing."""
    rng = random.Random(33)
    kinds = {0: 0, 1: 0, 2: 0}
    for board, parsed in _split_boards():
        game = _as_sum(board)
        regions = len(_live_regions(board))
        kinds[min(regions, 2)] += 1
        assert board.canonical_key() == game.canonical_key()
        if parsed is not None:
            assert parsed == game and parsed.canonical_key() == board.canonical_key()
        assert _with_dead_region(board, rng).canonical_key() == board.canonical_key()
        for convention in (NORMAL, SCORING):
            value = evaluate(board, convention, memo=_NoStore()).ex
            assert evaluate(game, convention, memo=_NoStore()).ex == value
            profile = guarantee_profile(board, convention, memo=_NoStore())
            assert guarantee_profile(game, convention, memo=_NoStore()) == profile
            assert brute_ex(board, convention) == brute_ex(game, convention) == value
    assert min(kinds.values()) >= 10, kinds


def test_root_mixes_follow_the_root_under_a_shared_memo():
    shared = Memo()
    for cells in ("OXOO", "OOXO", "OXOO"):
        board = clobber_strip(cells)
        for convention in (NORMAL, SCORING):
            assert evaluate(board, convention, memo=shared) == evaluate(
                board, convention, memo=Memo()
            )
    # The two boards share a key but not their mixes.
    assert evaluate(clobber_strip("OXOO"), SCORING, memo=Memo()).left_mix != evaluate(
        clobber_strip("OOXO"), SCORING, memo=Memo()
    ).left_mix


def test_deep_strips_evaluate_without_recursion():
    assert evaluate(sq({1}, {2}, 5000)).ex == sq12_closed_form(5000)
    deep = sq({1}, {2}, 2000)
    assert guarantee_profile(deep) == engine.GuaranteeProfile(sq12_closed_form(2000), F(0))
    assert outcome(deep) == "L"


def test_deep_explicit_game_keys_and_evaluates():
    """A 3000-deep explicit game, one cell per level: its key is spelled on an
    explicit stack, and a subgame whose key is already built is not walked."""
    dead, bottom = score(0), outcome_literal("L")
    levels = [bottom]
    for _ in range(3000):
        levels.append(ExplicitGame((dead,), (dead,), ((levels[-1],),)))
    top = levels[-1]
    wrap = "x(L[s(0)]|R[s(0)]|T["
    assert top.canonical_key() == wrap * 3000 + bottom.canonical_key() + "])" * 3000
    assert levels[1500]._key == wrap * 1500 + bottom.canonical_key() + "])" * 1500
    # Right's option differs from level 1,501's, whose key is already spelled.
    fresh = ExplicitGame((dead,), (score(1),), ((levels[1500],),))
    object.__setattr__(levels[1500], "_key", "cached")
    assert fresh.canonical_key() == "x(L[s(0)]|R[s(1)]|T[cached])"
    object.__setattr__(levels[1500], "_key", None)
    assert evaluate(top).ex == 1 and evaluate(top, SCORING).ex == 1
    assert guarantee_profile(top) == engine.GuaranteeProfile(F(1), F(0))
    assert outcome(top) == "L"


def test_memo_traffic_is_pinned(monkeypatch):
    """Memo.get and Memo.put calls per query: a walk that reads a cell's memo
    entry twice, or stores a node twice, moves these counts."""
    counts = {"get": 0, "put": 0}
    get, put = Memo.get, Memo.put

    def counting_get(memo, key):
        counts["get"] += 1
        return get(memo, key)

    def counting_put(memo, key, value):
        counts["put"] += 1
        put(memo, key, value)

    monkeypatch.setattr(Memo, "get", counting_get)
    monkeypatch.setattr(Memo, "put", counting_put)
    queries = [
        (lambda: evaluate(parse("sq{1,2}{1,3}(7) ^ sq{1,2}{2,3}(6)"), NORMAL, memo=Memo()), 135, 31),
        (lambda: evaluate(parse("cl:K6"), SCORING, memo=Memo()), 55, 10),
        (lambda: guarantee_profile(parse("sq{1,2}{1,3}(8)"), memo=Memo()), 31, 9),
    ]
    for query, gets, puts in queries:
        counts.update(get=0, put=0)
        query()
        assert counts == {"get": gets, "put": puts}


@pytest.mark.parametrize("text", ["sq{1,2}{1,3}(7) ^ sq{1,2}{2,3}(6)", "sq{1}{2}(6) ^ sq{1,2}{2,3}(5)"])
def test_walk_looks_up_each_distinct_cell_once_per_matrix(monkeypatch, text):
    """One Memo.get per distinct cell object of each matrix the walk expands:
    the root's and one per memo entry, found here by a key-deduplicated
    traversal of the game.  Strips and sums are interned, so distinct
    objects are distinct values, and far fewer than the cells."""
    matrices = {}
    stack = [parse(text)]
    while stack:
        q = stack.pop()
        if q.canonical_key() not in matrices:
            matrices[q.canonical_key()] = cells = q.move_matrix().cells
            stack.extend(c for row in cells for c in row)
    distinct = sum(len({id(c) for row in cells for c in row}) for cells in matrices.values())
    gets = []
    get = Memo.get
    monkeypatch.setattr(Memo, "get", lambda memo, key: gets.append(key) or get(memo, key))
    memo = Memo()
    evaluate(parse(text), NORMAL, memo=memo)
    assert len(memo) == len(matrices)
    assert len(gets) == distinct < sum(len(row) for cells in matrices.values() for row in cells)


def test_sum_construction_is_pinned(monkeypatch):
    """Sums built while evaluating a ^ pair of strips: one per class of equal
    cells in each matrix the walk builds, as the memo traffic above is one
    lookup per distinct cell object of each matrix the walk expands."""
    built = []
    init = SumPosition.__init__

    def counting(self, kind, components):
        built.append(kind)
        init(self, kind, components)

    game = parse("sq{1,2}{1,3}(7) ^ sq{1,2}{2,3}(6)")
    monkeypatch.setattr(SumPosition, "__init__", counting)
    evaluate(game, NORMAL, memo=Memo())
    assert len(built) == 135
