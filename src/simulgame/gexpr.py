"""Text grammar for game expressions.

    expr    := term (op term)*        op := '+' | '^' | 'v'
    term    := literal | '(' expr ')'
    literal := sq | hb | cl | explicit | score | outcome
    sq      := "sq" "'"? '{' ints '}' '{' ints '}' '(' int ')'
    hb      := "hb" '[' colours ']'
             | "hb" "cordon" '(' int ';' leafspecs ')'
             | "hb" ':' name
    cl      := "cl" '[' cells ']' | "cl" ':' 'K'int | "cl" ':' name
    explicit:= 'x' '{' 'L:' list '|' 'R:' list '|' 'LR:' grid '}'
    score   := 's' '(' int ')'       outcome := 'o' '(' L|D|R ')'

All sum operators share one precedence level; mixing two kinds at one
level needs parentheses.  ``parse`` builds a tree, ``render`` writes it
back (a fixpoint of parse), ``to_position`` lowers it onto the engine's
position types.  Each builder checks its own literal; lowering maps a
builder's ``BadParameters`` to ``BadLiteral``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import BadLiteral, BadParameters, GameSyntaxError, MixedOperators, UnknownRuleset
from .position import ExplicitGame, ScoreLiteral, outcome_literal, score
from .rulesets import (
    BUILTIN_BOARDS,
    ClobberPosition,
    HackenbushPosition,
    SqPosition,
    _path_edges,
    clobber_complete,
    clobber_strip,
    hb_cordon,
    hb_stalk,
    sq,
)
from .sums import SumPosition

OPS = ("+", "^", "v")


# -- expression tree ---------------------------------------------------------


@dataclass(frozen=True)
class SumExpr:
    op: str
    terms: tuple


@dataclass(frozen=True)
class SqExpr:
    left: tuple[int, ...]
    right: tuple[int, ...]
    n: int
    primed: bool


@dataclass(frozen=True)
class HbStalkExpr:
    colors: str


@dataclass(frozen=True)
class HbCordonExpr:
    n: int
    leaves: tuple[tuple[int, str], ...]


@dataclass(frozen=True)
class ClStripExpr:
    cells: str


@dataclass(frozen=True)
class ClCompleteExpr:
    n: int


@dataclass(frozen=True)
class BuiltinExpr:
    family: str
    name: str


@dataclass(frozen=True)
class ExplicitExpr:
    lefts: tuple
    rights: tuple
    table: tuple


@dataclass(frozen=True)
class ScoreExpr:
    value: int


@dataclass(frozen=True)
class OutcomeExpr:
    which: str


# -- tokenizer ---------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<int>-?\d+)|(?P<word>[A-Za-z_][A-Za-z0-9_]*)|(?P<sym>[-+^{}()\[\]|:;,'])|(?P<bad>.))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            break
        if m.group("bad"):
            raise GameSyntaxError(
                f"unexpected character {m.group('bad')!r} at offset {m.start('bad')}",
                m.start("bad"),
            )
        for kind in ("int", "word", "sym"):
            if m.group(kind):
                tokens.append((kind, m.group(kind), m.start(kind)))
                break
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected):
        kind, text, offset = self.peek()
        shown = text or "end of input"
        raise GameSyntaxError(
            f"unexpected {shown!r} at offset {offset}; expected one of {sorted(expected)}",
            offset,
            expected,
        )

    def expect(self, literal):
        kind, text, offset = self.peek()
        if text != literal:
            self.fail({literal})
        return self.advance()

    def expect_int(self) -> int:
        kind, text, offset = self.peek()
        if kind != "int":
            self.fail({"<int>"})
        self.advance()
        return int(text)

    def expect_word(self) -> str:
        kind, text, offset = self.peek()
        if kind != "word":
            self.fail({"<name>"})
        self.advance()
        return text

    # grammar ---------------------------------------------------------------

    def expr(self):
        terms = [self.term()]
        op = None
        while True:
            kind, text, offset = self.peek()
            if text in OPS:
                if op is None:
                    op = text
                elif text != op:
                    raise MixedOperators(
                        f"cannot mix {op!r} and {text!r} at one level "
                        f"(offset {offset}); parenthesize",
                        offset,
                        {op},
                    )
                self.advance()
                terms.append(self.term())
            else:
                break
        if op is None:
            return terms[0]
        return SumExpr(op, tuple(terms))

    def term(self):
        kind, text, offset = self.peek()
        if text == "(":
            self.advance()
            inner = self.expr()
            self.expect(")")
            return inner
        if kind == "word":
            if text == "sq":
                return self.sq_literal()
            if text == "hb":
                return self.hb_literal()
            if text == "cl":
                return self.cl_literal()
            if text == "x":
                return self.explicit_literal()
            if text == "s":
                self.advance()
                self.expect("(")
                value = self.expect_int()
                self.expect(")")
                return ScoreExpr(value)
            if text == "o":
                self.advance()
                self.expect("(")
                which = self.expect_word()
                self.expect(")")
                if which not in ("L", "D", "R"):
                    self.fail({"L", "D", "R"})
                return OutcomeExpr(which)
        self.fail({"sq", "hb", "cl", "x", "s", "o", "("})

    def int_set(self) -> tuple[int, ...]:
        self.expect("{")
        values = [self.expect_int()]
        while self.peek()[1] == ",":
            self.advance()
            values.append(self.expect_int())
        self.expect("}")
        return tuple(values)

    def sq_literal(self):
        self.expect("sq")
        primed = False
        if self.peek()[1] == "'":
            self.advance()
            primed = True
        left = self.int_set()
        right = self.int_set()
        self.expect("(")
        n = self.expect_int()
        self.expect(")")
        return SqExpr(left, right, n, primed)

    def hb_literal(self):
        self.expect("hb")
        kind, text, offset = self.peek()
        if text == "[":
            self.advance()
            colors = "" if self.peek()[1] == "]" else self.expect_word()
            self.expect("]")
            return HbStalkExpr(colors)
        if text == "cordon":
            self.advance()
            self.expect("(")
            n = self.expect_int()
            self.expect(";")
            leaves = []
            while self.peek()[1] != ")":
                idx = self.expect_int()
                color = self.expect_word()
                leaves.append((idx, color))
                if self.peek()[1] == ",":
                    self.advance()
            self.expect(")")
            return HbCordonExpr(n, tuple(leaves))
        if text == ":":
            self.advance()
            return BuiltinExpr("hb", self.expect_word())
        self.fail({"[", "cordon", ":"})

    def cl_literal(self):
        self.expect("cl")
        kind, text, offset = self.peek()
        if text == "[":
            self.advance()
            cells = "" if self.peek()[1] == "]" else self.expect_word()
            self.expect("]")
            return ClStripExpr(cells)
        if text == ":":
            self.advance()
            name = self.expect_word()
            if re.fullmatch(r"K\d+", name):
                return ClCompleteExpr(int(name[1:]))
            return BuiltinExpr("cl", name)
        self.fail({"[", ":"})

    def explicit_literal(self):
        self.expect("x")
        self.expect("{")
        self.expect("L")
        self.expect(":")
        lefts = self.expr_list()
        self.expect("|")
        self.expect("R")
        self.expect(":")
        rights = self.expr_list()
        self.expect("|")
        self.expect("LR")
        self.expect(":")
        self.expect("[")
        table = []
        while self.peek()[1] != "]":
            table.append(self.expr_list())
            if self.peek()[1] == ",":
                self.advance()
        self.expect("]")
        self.expect("}")
        return ExplicitExpr(tuple(lefts), tuple(rights), tuple(table))

    def expr_list(self) -> tuple:
        self.expect("[")
        items = []
        while self.peek()[1] != "]":
            items.append(self.expr())
            if self.peek()[1] == ",":
                self.advance()
        self.expect("]")
        return tuple(items)


def parse(text: str):
    """Parse expression text into a GameExpr tree."""
    parser = _Parser(text)
    tree = parser.expr()
    kind, tok, offset = parser.peek()
    if kind != "eof":
        parser.fail({"+", "^", "v", "end of input"})
    return tree


def render(expr) -> str:
    """Write a tree back to text; parse(render(t)) == t."""
    if isinstance(expr, SumExpr):
        parts = []
        for term in expr.terms:
            text = render(term)
            if isinstance(term, SumExpr):
                text = f"({text})"
            parts.append(text)
        return f" {expr.op} ".join(parts)
    if isinstance(expr, SqExpr):
        prime = "'" if expr.primed else ""
        ls = ",".join(str(x) for x in expr.left)
        rs = ",".join(str(x) for x in expr.right)
        return f"sq{prime}{{{ls}}}{{{rs}}}({expr.n})"
    if isinstance(expr, HbStalkExpr):
        return f"hb[{expr.colors}]"
    if isinstance(expr, HbCordonExpr):
        leaves = ",".join(f"{i}{c}" for i, c in expr.leaves)
        return f"hb cordon({expr.n}; {leaves})"
    if isinstance(expr, ClStripExpr):
        return f"cl[{expr.cells}]"
    if isinstance(expr, ClCompleteExpr):
        return f"cl:K{expr.n}"
    if isinstance(expr, BuiltinExpr):
        return f"{expr.family}:{expr.name}"
    if isinstance(expr, ExplicitExpr):
        ls = ",".join(render(g) for g in expr.lefts)
        rs = ",".join(render(g) for g in expr.rights)
        ts = ",".join("[" + ",".join(render(g) for g in row) + "]" for row in expr.table)
        return f"x{{L:[{ls}] | R:[{rs}] | LR:[{ts}]}}"
    if isinstance(expr, ScoreExpr):
        return f"s({expr.value})"
    if isinstance(expr, OutcomeExpr):
        return f"o({expr.which})"
    raise BadLiteral(f"cannot render {expr!r}")


def to_position(expr):
    """Lower a tree to a Position; a builder's BadParameters becomes
    BadLiteral.  Other errors pass through: the benchmark's known-crash test
    requires ``hb cordon(0; )`` to end in BadCordonSpec."""
    try:
        return _lower(expr)
    except BadParameters as exc:
        raise BadLiteral(str(exc)) from exc


def _lower(expr):
    if isinstance(expr, SumExpr):
        return SumPosition(expr.op, [_lower(t) for t in expr.terms])
    if isinstance(expr, SqExpr):
        return sq(expr.left, expr.right, expr.n, primed=expr.primed)
    if isinstance(expr, HbStalkExpr):
        return hb_stalk(expr.colors)
    if isinstance(expr, HbCordonExpr):
        return hb_cordon(expr.n, list(expr.leaves))
    if isinstance(expr, ClStripExpr):
        return clobber_strip(expr.cells)
    if isinstance(expr, ClCompleteExpr):
        return clobber_complete(expr.n)
    if isinstance(expr, BuiltinExpr):
        builder = BUILTIN_BOARDS.get((expr.family, expr.name))
        if builder is None:
            raise UnknownRuleset(f"no builtin {expr.family}:{expr.name}")
        return builder()
    if isinstance(expr, ExplicitExpr):
        lefts = tuple(_lower(g) for g in expr.lefts)
        rights = tuple(_lower(g) for g in expr.rights)
        table = tuple(tuple(_lower(g) for g in row) for row in expr.table)
        return ExplicitGame(lefts, rights, table)
    if isinstance(expr, ScoreExpr):
        return score(expr.value)
    if isinstance(expr, OutcomeExpr):
        return outcome_literal(expr.which)
    raise BadLiteral(f"cannot lower {expr!r}")


def parse_position(text: str):
    """Parse and lower in one step."""
    return to_position(parse(text))


def render_position(p) -> str:
    """Literal syntax for a position when one exists, canonical key otherwise.

    Display helper for the CLI; positions that left the literal families
    (pruned graphs, primed variants with unusual blocks) fall back to their
    canonical keys, which are not reparseable.  A clobber board prints its
    own edges and occupancy instead, since its key is relabelled.
    """
    if isinstance(p, ScoreLiteral):
        if p.value.denominator == 1:
            return f"s({p.value})"
        return p.canonical_key()
    if isinstance(p, SqPosition):
        if p.right_blocked:
            return p.canonical_key()
        if p.left_blocked == frozenset({2}):
            prime = "'"
        elif not p.left_blocked:
            prime = ""
        else:
            return p.canonical_key()
        ls = ",".join(str(x) for x in sorted(p.left_set))
        rs = ",".join(str(x) for x in sorted(p.right_set))
        return f"sq{prime}{{{ls}}}{{{rs}}}({p.n})"
    if isinstance(p, ClobberPosition):
        if p.acc == 0 and p.edges == _path_edges(len(p.occupancy)):
            return f"cl[{''.join(p.occupancy)}]"
        es = ",".join(f"{u}-{v}" for u, v in sorted(p.edges))
        return f"cl({es}|{''.join(p.occupancy)}|{p.acc})"
    if isinstance(p, HackenbushPosition):
        if p.roots == frozenset({0}) and all(
            e == (i, i, i + 1, e[3]) for i, e in enumerate(p.edges)
        ):
            return f"hb[{''.join(e[3] for e in p.edges)}]"
        return p.canonical_key()
    if isinstance(p, ExplicitGame):
        ls = ",".join(render_position(g) for g in p.lefts)
        rs = ",".join(render_position(g) for g in p.rights)
        ts = ",".join(
            "[" + ",".join(render_position(g) for g in row) + "]" for row in p.table
        )
        return f"x{{L:[{ls}] | R:[{rs}] | LR:[{ts}]}}"
    if isinstance(p, SumPosition):
        parts = []
        for comp in p.components:
            text = render_position(comp)
            if isinstance(comp, SumPosition):
                text = f"({text})"
            parts.append(text)
        return f" {p.kind} ".join(parts)
    return p.canonical_key()
