"""Acceptance suite: every exit criterion, one printed line per criterion.

All comparisons are exact rational equality unless a criterion states a
band.  Two published figures do not survive exact recomputation: the
conjunctive 5-and-6 strips and the mixed disjunctive sum under scoring.
The verification manifest keeps them as published, lists them in
``KNOWN_DISCREPANCIES``, and reports them as failures.  The two tests here
read each published figure from the manifest, derive the exact value
without the engine's recursion, and assert that the engine gives the
derived value and the published figure does not.  Their criterion lines
print both figures.  See the project README for the analysis.
"""

import random
import time
from fractions import Fraction

from simulgame import analysis, matgame
from simulgame.engine import NORMAL, SCORING, Memo, evaluate, guarantee_profile, outcome
from simulgame.errors import SizeLimit
from simulgame.gexpr import parse
from simulgame.oracle import brute_ex
from simulgame.position import v_a
from simulgame.rulesets import (
    clobber_complete,
    clobber_one_x_strip,
    clobber_strip,
    hb_cordon,
    hb_stalk,
    sq,
)
from simulgame.sums import continued_conjunctive, disjunctive
from simulgame.verify import (
    ACCEPTANCE_POSITIONS,
    ADVERSARIAL_FULL,
    ADVERSARIAL_RESTRICTED,
    LEFT_LOSES_TERMINAL,
    MIXED_TABLE,
    additivity_sample,
    build_checks,
)

F = Fraction
MEMO = Memo()


def check(criterion: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} {criterion}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def ex(text: str, convention: str = NORMAL) -> Fraction:
    return evaluate(parse(text), convention, memo=MEMO).ex


def manifest_check(check_id: str):
    return next(c for c in build_checks(MEMO) if c.id == check_id)


def published(check_id: str) -> Fraction:
    return F(manifest_check(check_id).expected)


def test_c01_strip_of_three():
    got = ex("sq{1}{2}(3)")
    check("criterion-01 strip-3 value", got == F(1, 2), f"got {got}")


def test_c02_disjunctive_pair_of_twos():
    pair = ex("sq{1}{2}(2) + sq{1}{2}(2)")
    single = ex("sq{1}{2}(2)")
    check(
        "criterion-02 disjunctive pair",
        pair == F(1, 2) and single == 0 and pair != 2 * single,
        f"pair {pair}, component {single}",
    )


def test_c03_primed_strip_family():
    got = (
        ex("sq'{1}{2}(5)"),
        ex("sq'{1}{2}(6)"),
        ex("sq'{1}{2}(3) ^ sq'{1}{2}(3)"),
        ex("sq'{1}{2}(3) ^ sq'{1}{2}(4)"),
    )
    want = (F(-1, 4), F(1, 4), F(1, 4), F(1, 4))
    check("criterion-03 primed strips and small conjunctions", got == want, f"got {got}")


def test_c03_published_conjunction_of_five_and_six():
    # After one round the five-strip is sq'(2) when the sides differ: Left
    # is blocked there, so the conjunction is over and Right wins (-1).
    # When the sides match it is sq'(3), and the position is sq'(3) ^ sq'(3)
    # or sq'(3) ^ sq'(4), both published as 1/4.  Solving that 4x4 matrix by
    # enumeration gives -3/8, and fictitious play brackets -3/8 but not the
    # published -1/4.
    check_id = "sqp-wedge-5-6"
    figure = published(check_id)
    successors = {
        (3, 3): published("sqp-wedge-3-3"),
        (3, 4): published("sqp-wedge-3-4"),
    }

    def derived(succ):
        finished = [
            c for c in succ.components if not (c._mobility().left and c._mobility().right)
        ]
        if not finished:
            return successors[tuple(sorted(c.n for c in succ.components))]
        # The winner is whoever still has a move in every finished component.
        left = all(c._mobility().left for c in finished)
        right = all(c._mobility().right for c in finished)
        return F(int(left) - int(right))

    text = "sq'{1}{2}(5) ^ sq'{1}{2}(6)"
    cells = [[derived(succ) for succ in row] for row in parse(text).move_matrix().cells]
    exact = matgame.support_enumeration_value(cells)
    lo, hi = matgame.fictitious_play(cells, 400)
    got = ex(text)
    check(
        "criterion-03 published 5-and-6 conjunction",
        got == exact == F(-3, 8)
        and exact != figure
        and lo <= exact <= hi
        and not lo <= figure <= hi
        and manifest_check(check_id).known_discrepancy,
        f"published {figure}, exact {exact}, engine {got}, fictitious play [{lo}, {hi}]",
    )


def test_c04_multi_amount_primed_strip():
    pos = parse("sq'{1,4}{2}(4)")
    got_ex = evaluate(pos, NORMAL, memo=MEMO).ex
    mm = pos.move_matrix()
    values = [[evaluate(c, NORMAL, memo=MEMO).ex for c in row] for row in mm.cells]
    fig = [[F(-1), F(1)], [F(1), F(-1)], [F(0), F(0)], [F(0), F(0)]]
    comp = continued_conjunctive(
        sq({1, 4}, {2}, 4, primed=True), sq({1, 4}, {2}, 3, primed=True)
    )
    cm = comp.move_matrix()
    cvals = [[evaluate(c, NORMAL, memo=MEMO).ex for c in row] for row in cm.cells]
    idx4 = next(i for i, c in enumerate(comp.components) if c.n == 4)
    idx3 = 1 - idx4

    def product_mix(amounts):
        mix = []
        for label in cm.row_labels:
            parts = dict(part.split(":", 1) for part in label.split("|"))
            ok = parts[str(idx4)] in amounts and parts[str(idx3)] in ("1l", "1r")
            mix.append(F(1, 4) if ok else F(0))
        return mix

    take4 = matgame.response_value(cvals, product_mix(("4l", "4r")))
    take1 = matgame.response_value(cvals, product_mix(("1l", "1r")))
    check(
        "criterion-04 multi-amount strip",
        got_ex == 0 and values == fig and take4 == 0 and take1 == F(1, 4),
        f"ex {got_ex}, matrix {values}, responses {take4}/{take1}",
    )


def test_c05_reduction_unsound_in_continued_sum():
    full = ex(f"{ADVERSARIAL_FULL} v {LEFT_LOSES_TERMINAL}")
    restricted = ex(f"{ADVERSARIAL_RESTRICTED} v {LEFT_LOSES_TERMINAL}")
    check(
        "criterion-05 adversarial witness",
        full == F(-1, 2) and restricted == F(-1, 4),
        f"full {full}, reduced {restricted}",
    )


def test_c06_continued_scoring_additivity():
    sample = additivity_sample()
    values = [evaluate(p, SCORING, memo=MEMO).ex for p in sample]
    bad = 0
    for i in range(len(sample)):
        for j in range(i, len(sample)):
            pair = continued_conjunctive(sample[i], sample[j])
            if evaluate(pair, SCORING, memo=MEMO).ex != values[i] + values[j]:
                bad += 1
    check("criterion-06 additivity on 40-position sample", bad == 0, f"{bad} bad pairs")


def test_c07_complete_graph_values_and_time():
    ok = all(
        evaluate(clobber_complete(n), SCORING, memo=MEMO).ex == F(n, 2) - 1
        for n in range(2, 7)
    )
    start = time.monotonic()
    got7 = evaluate(clobber_complete(7), SCORING, memo=Memo()).ex
    elapsed = time.monotonic() - start
    check(
        "criterion-07 complete-graph clobber",
        ok and got7 == F(5, 2) and elapsed < 60,
        f"K7 {got7} in {elapsed:.2f}s",
    )


def test_c08_small_strips_and_paired_sum():
    two = clobber_strip("OX")
    mm = two.move_matrix()
    after = mm.cells[0][0]
    emptied = after.occupancy == ("_", "_") and after.terminal_score() == 0
    oox = ex("cl[OOX]", SCORING)
    paired = ex("cl[OOX] + cl[XOO] + s(1)", SCORING)
    by_parts = ex("cl[OOX]", SCORING) + ex("cl[XOO]", SCORING) + 1
    check(
        "criterion-08 paired strips",
        emptied and oox == 0 and paired == F(3, 2) and by_parts == 1,
        f"sum {paired}, value substitution {by_parts}",
    )


def test_c09_truncation_sequence():
    values = [
        evaluate(clobber_one_x_strip(k), SCORING, memo=MEMO).ex for k in range(2, 11)
    ]
    monotone = all(a <= b for a, b in zip(values, values[1:]))
    near = abs(values[-1] - F(809017, 1000000)) < F(5, 100)
    check(
        "criterion-09 truncation trend",
        monotone and near,
        f"k=10 value {values[-1]} ~ {float(values[-1]):.6f}",
    )


def test_c10_hackenbush_battery():
    problems = []
    if v_a(hb_stalk("BB")) != 2:
        problems.append("two-edge move count")

    def matrices(expr):
        pos = parse(expr)
        mm = pos.move_matrix()
        outs = [[outcome(c, NORMAL, memo=MEMO) for c in row] for row in mm.cells]
        exs = [[evaluate(c, NORMAL, memo=MEMO).ex for c in row] for row in mm.cells]
        scores = [[evaluate(c, SCORING, memo=MEMO).ex for c in row] for row in mm.cells]
        return outs, exs, scores

    outs, exs, scores = matrices("hb:fig5G")
    if outs != [["D", "L"], ["L", "D"]] or exs != [[0, 1], [1, 0]] or scores != [[0, 1], [1, 0]]:
        problems.append("two-stalk board matrices")
    outs, exs, scores = matrices("hb:fig5H")
    if outs != [["L"], ["L"], ["L"]] or exs != [[1], [1], [1]] or scores != [[2], [1], [2]]:
        problems.append("stalk-pair board matrices")

    for length in range(1, 8):
        for bits in range(2 ** length):
            colors = "".join("BR"[(bits >> i) & 1] for i in range(length))
            try:
                want = analysis.stalk_score_formula(colors)
            except Exception:
                continue
            if evaluate(hb_stalk(colors), SCORING, memo=MEMO).ex != want:
                problems.append(f"stalk {colors}")

    for n in (1, 2, 3):
        for a in (0, 1, 2):
            for b in (0, 1, 2):
                if (a or b) and n < 2:
                    continue
                leaves = [(1, "B")] * a + [(1, "R")] * b
                if n == 3 and leaves:
                    leaves[-1] = (2, leaves[-1][1])
                got = evaluate(hb_cordon(n, leaves), SCORING, memo=MEMO).ex
                if got != n + a - b:
                    problems.append(f"cordon {n},{a},{b}")

    for suffix_bits in range(2 ** 4):
        suffix = "".join("BR"[(suffix_bits >> i) & 1] for i in range(4))
        for colors in ("BB", "BB" + suffix):
            if guarantee_profile(hb_stalk(colors), NORMAL, memo=MEMO).ell != 1:
                problems.append(f"two-blue {colors}")
    for colors in ("BR", "BRBR", "BRBRBR"):
        if guarantee_profile(hb_stalk(colors), NORMAL, memo=MEMO).ell != 0:
            problems.append(f"alternating {colors}")

    check("criterion-10 hackenbush battery", problems == [], "; ".join(problems[:4]))


def test_c11_mixed_ruleset_table():
    got = {}
    for op in ("+", "^", "v"):
        text = MIXED_TABLE.format(op, op)
        got[op] = (
            outcome(parse(text), NORMAL, memo=MEMO),
            evaluate(parse(text), SCORING, memo=MEMO).ex,
        )
    ok = (
        got["+"][0] == "R"
        and got["^"] == ("R", F(-1))
        and got["v"] == ("D", F(-1, 2))
    )
    check("criterion-11 mixed-ruleset outcomes", ok, f"got {got}")


def test_c11_published_disjunctive_scoring_value():
    # Under the documented composite score (the sum of the component scores
    # at the end state) the root is 4x5.  Its cells come from the
    # enumeration oracle.  Left's uniform mix secures -3/4, and Right's mix
    # over its clobber and strip moves, never spending the red reserve edge,
    # holds Left to -3/4.  Fictitious play brackets -3/4 but not the
    # published -1/2.
    check_id = "table5-scoring-plus"
    figure = published(check_id)
    text = MIXED_TABLE.format("+", "+")
    root = parse(text)
    mm = root.move_matrix()
    cells = [[brute_ex(succ, SCORING) for succ in row] for row in mm.cells]
    reserve = next(i for i, c in enumerate(root.components) if c.ruleset_tag == "hb")
    right_mix = [
        F(0) if label.startswith(f"{reserve}:") else F(1, 4) for label in mm.col_labels
    ]
    secured = matgame.response_value(cells, [F(1, len(cells))] * len(cells))
    held_to = max(sum(q * a for q, a in zip(right_mix, row)) for row in cells)
    lo, hi = matgame.fictitious_play(cells, 400)
    got = ex(text, SCORING)
    check(
        "criterion-11 published disjunctive scoring value",
        sum(right_mix) == 1
        and got == secured == held_to == F(-3, 4)
        and secured != figure
        and lo <= secured <= hi
        and not lo <= figure <= hi
        and manifest_check(check_id).known_discrepancy,
        f"published {figure}, exact {secured}, engine {got}, fictitious play [{lo}, {hi}]",
    )


def test_c12_solver_certification():
    rng = random.Random(99)
    bad = 0
    for _ in range(1000):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        d = rng.choice([1, 2, 3])
        a = [[F(rng.randint(-2, 2), d) for _ in range(n)] for _ in range(m)]
        sol = matgame.game_value(a)
        if sol.value != matgame.support_enumeration_value(a):
            bad += 1
        reduced, _, _ = matgame.eliminate_dominated(a)
        if matgame.game_value(reduced).value != sol.value:
            bad += 1
    for _ in range(100):
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        a = [[F(rng.randint(-2, 2), rng.choice([1, 2])) for _ in range(n)] for _ in range(m)]
        lo, hi = matgame.fictitious_play(a, 200)
        if not lo <= matgame.game_value(a).value <= hi:
            bad += 1
    check("criterion-12 solver certification", bad == 0, f"{bad} disagreements")


def test_c13_oracle_certification():
    problems = []
    checked = 0
    for text, conventions in ACCEPTANCE_POSITIONS:
        position = parse(text)
        for convention in conventions:
            try:
                got = brute_ex(position, convention)
            except SizeLimit:
                continue
            if got != evaluate(position, convention, memo=MEMO).ex:
                problems.append(text)
            checked += 1
    if checked < 20:
        problems.append(f"only {checked} oracle-sized positions")

    left = [sq({1}, {2}, n) for n in range(10)]
    right = [sq({1}, {3}, n) for n in range(10)]
    for g in left:
        pg = guarantee_profile(g, NORMAL, memo=MEMO)
        for h in right:
            ph = guarantee_profile(h, NORMAL, memo=MEMO)
            prof = guarantee_profile(continued_conjunctive(g, h), NORMAL, memo=MEMO)
            if (prof.ell, prof.arr) != (pg.ell * ph.ell, pg.arr * ph.arr):
                problems.append(f"product {g.n},{h.n}")
            if not (0 <= prof.ell and 0 <= prof.arr and prof.ell + prof.arr <= 1):
                problems.append(f"bounds {g.n},{h.n}")
    check("criterion-13 oracle certification", problems == [], "; ".join(problems[:4]))


def test_c14_closed_form_and_limit():
    seq = analysis.sq_expected_sequence(1, 2, 25)
    closed = all(analysis.sq12_closed_form(n) == seq[n] for n in range(26))
    near = all(abs(seq[n] - F(2, 5)) < F(1, 1000) for n in range(20, 26))
    check("criterion-14 closed form and limit", closed and near)
