"""Verification manifest: concrete published values and property batteries.

Every concrete-value check states the position in the expression grammar
(compiling the manifest is itself the check that the grammar covers the
corpus).  ``run_suite`` executes checks in manifest order and returns one
record per check; the CLI turns these into JSON and an exit code.

A check's ``run`` returns its value (a bool, Fraction, int, list or
message string); ``run_suite`` alone formats each expected and actual value
for its record.  ``KNOWN_DISCREPANCIES`` is the set of contested figures:
the published values for the conjunctive 5-and-6 strips (-1/4) and for the
mixed disjunctive sum under scoring (-1/2) do not survive exact
recomputation (the engine, the enumeration oracle, and fictitious play all
agree on -3/8 and -3/4).  They stay in the manifest with their published
expectations and report as failures rather than being rewritten.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import analysis, matgame, oracle
from .engine import NORMAL, SCORING, Memo, evaluate, guarantee_profile, outcome
from .errors import BadStalk, SizeLimit
from .gexpr import parse
from .position import v_a
from .rulesets import clobber_one_x_strip, hb_cordon, hb_stalk, sq
from .sums import continued_conjunctive

F = Fraction

KNOWN_DISCREPANCIES = frozenset({"sqp-wedge-5-6", "table5-scoring-plus"})


@dataclass
class Check:
    id: str
    suite: str
    expected: object
    run: callable

    @property
    def known_discrepancy(self) -> bool:
        return self.id in KNOWN_DISCREPANCIES


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


# ---------------------------------------------------------------------------
# Expression corpus
# ---------------------------------------------------------------------------

ADVERSARIAL_HALF_NEG = (
    "x{L:[s(0),s(0)] | R:[s(0),s(0)] | LR:[[o(R),o(D)],[o(D),o(R)]]}"
)
ADVERSARIAL_HALF_POS = (
    "x{L:[s(0),s(0)] | R:[s(0),s(0)] | LR:[[o(L),o(D)],[o(D),o(L)]]}"
)
ADVERSARIAL_QUARTER = (
    "x{L:[s(0),s(0)] | R:[s(0),s(0)] | "
    f"LR:[[{ADVERSARIAL_HALF_POS},o(D)],[o(D),{ADVERSARIAL_HALF_POS}]]}}"
)
ADVERSARIAL_FULL = (
    "x{L:[s(0),s(0)] | R:[s(0),s(0),s(0),s(0)] | "
    f"LR:[[o(L),o(R),{ADVERSARIAL_HALF_NEG},{ADVERSARIAL_QUARTER}],"
    f"[o(R),o(L),{ADVERSARIAL_QUARTER},{ADVERSARIAL_HALF_NEG}]]}}"
)
ADVERSARIAL_RESTRICTED = (
    "x{L:[s(0),s(0)] | R:[s(0),s(0)] | "
    f"LR:[[{ADVERSARIAL_HALF_NEG},{ADVERSARIAL_QUARTER}],"
    f"[{ADVERSARIAL_QUARTER},{ADVERSARIAL_HALF_NEG}]]}}"
)
LEFT_LOSES_TERMINAL = "x{L:[] | R:[s(0)] | LR:[]}"

MIXED_TABLE = "cl[OXO] {} sq'{{1}}{{2}}(4) {} hb[R]"

# (expression, conventions it is evaluated under) for the oracle sweep.
ACCEPTANCE_POSITIONS: list[tuple[str, tuple[str, ...]]] = [
    ("sq{1}{2}(3)", (NORMAL,)),
    ("sq{1}{2}(2)", (NORMAL,)),
    ("sq{1}{2}(2) + sq{1}{2}(2)", (NORMAL,)),
    ("sq'{1}{2}(5)", (NORMAL,)),
    ("sq'{1}{2}(6)", (NORMAL,)),
    ("sq'{1}{2}(5) ^ sq'{1}{2}(6)", (NORMAL,)),
    ("sq'{1}{2}(3) ^ sq'{1}{2}(3)", (NORMAL,)),
    ("sq'{1}{2}(3) ^ sq'{1}{2}(4)", (NORMAL,)),
    ("sq'{1,4}{2}(4)", (NORMAL,)),
    ("sq'{1,4}{2}(4) v sq'{1,4}{2}(3)", (NORMAL,)),
    (f"{ADVERSARIAL_FULL} v {LEFT_LOSES_TERMINAL}", (NORMAL,)),
    (f"{ADVERSARIAL_RESTRICTED} v {LEFT_LOSES_TERMINAL}", (NORMAL,)),
    ("cl:K2", (SCORING,)),
    ("cl:K3", (SCORING,)),
    ("cl:K4", (SCORING,)),
    ("cl:K5", (SCORING,)),
    ("cl:K6", (SCORING,)),
    ("cl:K7", (SCORING,)),
    ("cl[OX]", (SCORING,)),
    ("cl[OOX]", (SCORING,)),
    ("cl[OOXOO]", (SCORING,)),
    ("cl[OOX] + cl[XOO] + s(1)", (SCORING,)),
    ("x{L:[s(-5)] | R:[] | LR:[]} + x{L:[] | R:[s(7)] | LR:[]}", (SCORING,)),
    ("hb:fig5G", (NORMAL, SCORING)),
    ("hb:fig5H", (NORMAL, SCORING)),
    ("hb[BR]", (NORMAL, SCORING)),
    ("hb[BRB]", (NORMAL, SCORING)),
    ("hb[BBRB]", (SCORING,)),
    ("hb cordon(3; 1B,2R)", (SCORING,)),
    (MIXED_TABLE.format("+", "+"), (NORMAL, SCORING)),
    (MIXED_TABLE.format("^", "^"), (NORMAL, SCORING)),
    (MIXED_TABLE.format("v", "v"), (NORMAL, SCORING)),
]


def _all_stalks(max_len: int):
    out = []
    for length in range(1, max_len + 1):
        for bits in range(2 ** length):
            out.append("".join("BR"[(bits >> i) & 1] for i in range(length)))
    return out


def additivity_sample() -> list:
    """40 positions: strips, primed strips, and short stalks."""
    basic = [sq({1}, {2}, n) for n in range(9)]
    primed = [sq({1}, {2}, n, primed=True) for n in range(9)]
    stalks = [hb_stalk(s) for s in _all_stalks(3)]  # 14 stalks
    extra = [hb_stalk(s) for s in ("BRBR", "BRRB", "BBRB", "RBRB", "RBBR", "RRBR", "BRBB", "RBRR")]
    return basic + primed + stalks + extra


# ---------------------------------------------------------------------------
# Check construction
# ---------------------------------------------------------------------------


def build_checks(memo: Memo) -> list[Check]:
    checks: list[Check] = []

    def add(id, expected, fn, suite="paper"):
        checks.append(Check(id, suite, expected, fn))

    def ex_of(text, convention=NORMAL):
        return evaluate(parse(text), convention, memo=memo).ex

    def value_check(id, text, expected, convention=NORMAL):
        add(id, expected, lambda: ex_of(text, convention))

    # Strip values and the disjunctive example.
    value_check("sq12-ex0", "sq{1}{2}(0)", F(0))
    value_check("sq12-ex2", "sq{1}{2}(2)", F(0))
    value_check("sq12-ex3", "sq{1}{2}(3)", F(1, 2))
    value_check("disj-2plus2", "sq{1}{2}(2) + sq{1}{2}(2)", F(1, 2))
    add(
        "disj-2plus2-not-additive",
        True,
        lambda: ex_of("sq{1}{2}(2) + sq{1}{2}(2)") != 2 * ex_of("sq{1}{2}(2)"),
    )

    # Primed strips and conjunctive values.
    value_check("sqp-ex5", "sq'{1}{2}(5)", F(-1, 4))
    value_check("sqp-ex6", "sq'{1}{2}(6)", F(1, 4))
    value_check("sqp-wedge-5-6", "sq'{1}{2}(5) ^ sq'{1}{2}(6)", F(-1, 4))
    value_check("sqp-wedge-3-3", "sq'{1}{2}(3) ^ sq'{1}{2}(3)", F(1, 4))
    value_check("sqp-wedge-3-4", "sq'{1}{2}(3) ^ sq'{1}{2}(4)", F(1, 4))

    # The {1,4} strip: value and its published option-value matrix.
    value_check("sq14-ex4", "sq'{1,4}{2}(4)", F(0))

    def cell_values(text, convention=NORMAL):
        report = evaluate(parse(text), convention, memo=memo)
        return [[str(v) for v in row] for row in report.values]

    add(
        "sq14-option-values",
        [["-1", "1"], ["1", "-1"], ["0", "0"], ["0", "0"]],
        lambda: cell_values("sq'{1,4}{2}(4)"),
    )

    def response_demo(amounts):
        comp = continued_conjunctive(
            sq({1, 4}, {2}, 4, primed=True), sq({1, 4}, {2}, 3, primed=True)
        )
        report = evaluate(comp, NORMAL, memo=memo)
        idx4 = next(i for i, c in enumerate(comp.components) if c.n == 4)
        idx3 = 1 - idx4
        mix = []
        for label in report.row_labels:
            parts = dict(part.split(":", 1) for part in label.split("|"))
            in4 = parts[str(idx4)] in amounts
            equalizer = parts[str(idx3)] in ("1l", "1r")
            mix.append(F(1, 4) if in4 and equalizer else F(0))
        return matgame.response_value(report.values, mix)

    add("sq14-response-take4", F(0), lambda: response_demo(("4l", "4r")))
    add("sq14-response-take1", F(1, 4), lambda: response_demo(("1l", "1r")))

    # Adversarial continued-conjunctive witness.
    value_check(
        "adversarial-full", f"{ADVERSARIAL_FULL} v {LEFT_LOSES_TERMINAL}", F(-1, 2)
    )
    value_check(
        "adversarial-reduced",
        f"{ADVERSARIAL_RESTRICTED} v {LEFT_LOSES_TERMINAL}",
        F(-1, 4),
    )

    # Complete-graph clobber.
    for n in range(2, 8):
        value_check(f"kn-clobber-{n}", f"cl:K{n}", analysis.clobber_kn_expected(n), SCORING)

    # Small strips and the paired-strip sum.
    value_check("clobber-ox", "cl[OX]", F(0), SCORING)
    value_check("clobber-oox", "cl[OOX]", F(0), SCORING)
    value_check("clobber-paired-sum", "cl[OOX] + cl[XOO] + s(1)", F(3, 2), SCORING)
    add(
        "clobber-paired-sum-by-parts",
        F(1),
        lambda: ex_of("cl[OOX]", SCORING) + ex_of("cl[XOO]", SCORING) + 1,
    )

    def truncation():
        values = [
            evaluate(clobber_one_x_strip(k), SCORING, memo=memo).ex for k in range(2, 11)
        ]
        monotone = all(a <= b for a, b in zip(values, values[1:]))
        near = abs(values[-1] - F(809017, 1000000)) < F(5, 100)
        return monotone and near

    add("clobber-truncation-limit", True, truncation)

    # Hackenbush.
    add("hb-two-blue-va", 2, lambda: v_a(parse("hb[BB]")))

    def cell_outcomes(text):
        cells = parse(text).move_matrix().cells
        return [[outcome(cell, NORMAL, memo=memo) for cell in row] for row in cells]

    add("fig5G-outcomes", [["D", "L"], ["L", "D"]], lambda: cell_outcomes("hb:fig5G"))
    add("fig5G-ex", [["0", "1"], ["1", "0"]], lambda: cell_values("hb:fig5G"))
    add("fig5G-scores", [["0", "1"], ["1", "0"]], lambda: cell_values("hb:fig5G", SCORING))
    add("fig5H-outcomes", [["L"], ["L"], ["L"]], lambda: cell_outcomes("hb:fig5H"))
    add("fig5H-ex", [["1"], ["1"], ["1"]], lambda: cell_values("hb:fig5H"))
    add("fig5H-scores", [["2"], ["1"], ["2"]], lambda: cell_values("hb:fig5H", SCORING))

    def stalk_theorem():
        bad = []
        for colors in _all_stalks(7):
            try:
                want = analysis.stalk_score_formula(colors)
            except BadStalk:
                continue
            got = evaluate(hb_stalk(colors), SCORING, memo=memo).ex
            if got != want:
                bad.append(colors)
        return bad == []

    add("hb-stalk-theorem-upto-7", True, stalk_theorem)

    def cordon_scores():
        bad = []
        for n in (1, 2, 3):
            for a in (0, 1, 2):
                for b in (0, 1, 2):
                    if (a or b) and n < 2:
                        continue
                    leaves = [(1, "B")] * a + [(1, "R")] * b
                    if n == 3 and leaves:
                        leaves[-1] = (2, leaves[-1][1])
                    got = evaluate(hb_cordon(n, leaves), SCORING, memo=memo).ex
                    if got != n + a - b:
                        bad.append((n, a, b))
        return bad == []

    add("hb-cordon-scores", True, cordon_scores)

    def two_blue_ell():
        stalks = ["BB"] + ["BB" + s for s in _all_stalks(4)]
        return all(guarantee_profile(hb_stalk(s), NORMAL, memo=memo).ell == 1 for s in stalks)

    add("hb-two-blue-forces-win", True, two_blue_ell)

    def alternating_ell_zero():
        stalks = ["BR", "BRBR", "BRBRBR"]
        return all(guarantee_profile(hb_stalk(s), NORMAL, memo=memo).ell == 0 for s in stalks)

    add("hb-alternating-cannot-win", True, alternating_ell_zero)

    # Dead-end disjunctive example.
    value_check(
        "dead-end-sum",
        "x{L:[s(-5)] | R:[] | LR:[]} + x{L:[] | R:[s(7)] | LR:[]}",
        F(2),
        SCORING,
    )

    # The mixed three-ruleset position under every sum.
    for op, out in (("+", "R"), ("^", "R"), ("v", "D")):
        text = MIXED_TABLE.format(op, op)
        add(
            f"table5-normal-{'plus' if op == '+' else 'conj' if op == '^' else 'cont'}",
            out,
            lambda text=text: outcome(parse(text), NORMAL, memo=memo),
        )
    value_check("table5-scoring-plus", MIXED_TABLE.format("+", "+"), F(-1, 2), SCORING)
    value_check("table5-scoring-conj", MIXED_TABLE.format("^", "^"), F(-1), SCORING)
    value_check("table5-scoring-cont", MIXED_TABLE.format("v", "v"), F(-1, 2), SCORING)

    # Closed form and limit.
    def closed_form_matches():
        seq = analysis.sq_expected_sequence(1, 2, 25)
        return all(analysis.sq12_closed_form(n) == seq[n] for n in range(26))

    add("sq12-closed-form-upto-25", True, closed_form_matches)

    def limit_band():
        seq = analysis.sq_expected_sequence(1, 2, 25)
        return all(abs(seq[n] - F(2, 5)) < F(1, 1000) for n in range(20, 26))

    add("sq12-limit-2-5", True, limit_band)

    # ----- properties suite -----

    def solver_certification():
        rng = random.Random(20240)
        for _ in range(1000):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            d = rng.choice([1, 2, 3])
            a = [[F(rng.randint(-2, 2), d) for _ in range(n)] for _ in range(m)]
            sol = matgame.game_value(a)
            if sol.value != matgame.support_enumeration_value(a):
                return "solver disagreement"
            reduced, _, _ = matgame.eliminate_dominated(a)
            if matgame.game_value(reduced).value != sol.value:
                return "dominance changed value"
        return True

    add("solver-certification-1000", True, solver_certification, suite="properties")

    def fp_brackets():
        rng = random.Random(77)
        for _ in range(150):
            m = rng.randint(1, 3)
            n = rng.randint(1, 3)
            a = [[F(rng.randint(-2, 2), rng.choice([1, 2])) for _ in range(n)] for _ in range(m)]
            lo, hi = matgame.fictitious_play(a, 200)
            if not lo <= matgame.game_value(a).value <= hi:
                return "bracket missed the value"
        lo, hi = matgame.fictitious_play([[0, 1], [1, 0]], 10_000)
        if not (lo <= F(1, 2) <= hi and hi - lo < F(2, 100)):
            return "matching-draws bracket too wide"
        return True

    add("fictitious-play-brackets", True, fp_brackets, suite="properties")

    def additivity():
        sample = additivity_sample()
        values = [evaluate(p, SCORING, memo=memo).ex for p in sample]
        for i in range(len(sample)):
            for j in range(i, len(sample)):
                pair = continued_conjunctive(sample[i], sample[j])
                if evaluate(pair, SCORING, memo=memo).ex != values[i] + values[j]:
                    return f"pair ({i},{j}) is not additive"
        return True

    add("cont-scoring-additivity-40", True, additivity, suite="properties")

    def index_product():
        left = [sq({1}, {2}, n) for n in range(10)]
        right = [sq({1}, {3}, n) for n in range(10)]
        for g in left:
            pg = guarantee_profile(g, NORMAL, memo=memo)
            for h in right:
                ph = guarantee_profile(h, NORMAL, memo=memo)
                prof = guarantee_profile(continued_conjunctive(g, h), NORMAL, memo=memo)
                if (prof.ell, prof.arr) != (pg.ell * ph.ell, pg.arr * ph.arr):
                    return f"product law failed at {g.n},{h.n}"
        return True

    add("cont-index-product-100", True, index_product, suite="properties")

    def index_bounds():
        positions = [parse(text) for text, _ in ACCEPTANCE_POSITIONS]
        for p in positions:
            prof = guarantee_profile(p, NORMAL, memo=memo)
            if not (0 <= prof.ell and 0 <= prof.arr and prof.ell + prof.arr <= 1):
                return f"bounds violated at {p.canonical_key()}"
        return True

    add("index-bounds", True, index_bounds, suite="properties")

    def oracle_sweep():
        checked = 0
        for text, conventions in ACCEPTANCE_POSITIONS:
            p = parse(text)
            for convention in conventions:
                try:
                    got = oracle.brute_ex(p, convention)
                except SizeLimit:
                    continue
                if got != evaluate(p, convention, memo=memo).ex:
                    return f"oracle disagrees on {text} ({convention})"
                checked += 1
        return checked >= 20 or f"only {checked} positions fit the oracle"

    add("oracle-agreement", True, oracle_sweep, suite="properties")

    def draw_propagation():
        draws = [hb_stalk("BR"), sq({1}, {2}, 2), parse("cl[OXO]")]
        others = [sq({1}, {2}, n) for n in range(6)] + [hb_stalk("BB"), hb_stalk("RR")]
        for d in draws:
            for g in others:
                pair = continued_conjunctive(d, g)
                prof = guarantee_profile(pair, NORMAL, memo=memo)
                if (
                    evaluate(pair, NORMAL, memo=memo).ex != 0
                    or prof.ell != 0
                    or prof.arr != 0
                ):
                    return "draw component failed to force a draw"
        return True

    add("cont-draw-propagation", True, draw_propagation, suite="properties")

    def non_compositional():
        two = ex_of("sq{1}{2}(2)")
        pair = ex_of("sq{1}{2}(2) + sq{1}{2}(2)")
        five = ex_of("sq'{1}{2}(5)")
        six = ex_of("sq'{1}{2}(6)")
        wedge = ex_of("sq'{1}{2}(5) ^ sq'{1}{2}(6)")
        full = ex_of(f"{ADVERSARIAL_FULL} v {LEFT_LOSES_TERMINAL}")
        restricted = ex_of(f"{ADVERSARIAL_RESTRICTED} v {LEFT_LOSES_TERMINAL}")
        return (
            pair != two + two
            and wedge != five * six
            and wedge != five + six
            and full != restricted
        )

    add("non-compositionality-witnesses", True, non_compositional, suite="properties")

    return checks


def run_suite(name: str) -> list[dict]:
    """Run a named suite; records come back in manifest order."""
    if name not in ("paper", "properties", "all"):
        raise ValueError(f"unknown suite {name!r}")
    memo = Memo()
    records = []
    for check in build_checks(memo):
        if name != "all" and check.suite != name:
            continue
        expected = _fmt(check.expected)
        try:
            actual = _fmt(check.run())
            status = "pass" if actual == expected else "fail"
        except Exception as exc:  # pragma: no cover - defensive
            actual = f"{type(exc).__name__}: {exc}"
            status = "error"
        records.append(
            {
                "id": check.id,
                "expected": expected,
                "actual": actual,
                "status": status,
            }
        )
    return records
