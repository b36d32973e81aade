"""Text grammar for game expressions.

    expr    := term (op term)*        op := '+' | '^' | 'v'
    term    := literal | '(' expr ')'
    literal := sq | hb | cl | explicit | score | outcome
    sq      := "sq" "'"? '{' ints '}' '{' ints '}' '(' int ')'
    hb      := "hb" '[' colours ']'
             | "hb" "cordon" '(' int ';' [leaf (',' leaf)*] ')'
             | "hb" ':' name
    cl      := "cl" '[' cells ']' | "cl" ':' 'K'int | "cl" ':' name
    explicit:= 'x' '{' 'L:' list '|' 'R:' list '|' 'LR:' '[' [list (',' list)*] ']' '}'
    list    := '[' [expr (',' expr)*] ']'
    ints    := int (',' int)*         leaf := int colour
    score   := 's' '(' int ')'       outcome := 'o' '(' L|D|R ')'

All sum operators share one precedence level; mixing two kinds at one
level needs parentheses.  Text nested more than ``MAX_NESTING`` levels
deep is a syntax error.  Lists take exactly one comma between items and
none after the last; only ``ints`` must be nonempty.

``parse`` builds the position as it reads: each literal goes to its
builder and each sum to ``SumPosition``, so the builders alone check
literals.  Errors come out in one order.  A syntax error anywhere in the
text is reported before a bad literal, and among bad literals the first
one read wins.  A builder's ``BadParameters`` becomes ``BadLiteral``; its
other errors (``BadCordonSpec``, ``UnknownRuleset``) pass through.
``render_position`` writes a position back as text.
"""

from __future__ import annotations

import re

from .errors import (
    BadLiteral, BadParameters, GameSyntaxError, MixedOperators, SimulgameError, UnknownRuleset
)
from .position import (
    ExplicitGame, Position, ScoreLiteral, _postorder, outcome_literal, require_position, score
)
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
from .sums import SUM_KINDS, SumPosition

# The deepest nesting ``parse`` accepts: the top-level expression is one
# level, and each parenthesis or list item opens one more.  The parser
# recurses once per level, so deeper text is a syntax error rather than a
# RecursionError; keying, evaluating and rendering a game need no recursion.
MAX_NESTING = 100


# -- tokenizer ---------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<int>-?\d+)|(?P<word>[A-Za-z_][A-Za-z0-9_]*)|(?P<sym>[-+^{}()\[\]|:;,'])|(?P<bad>\S))"
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
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.error = None

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

    def build(self, builder, *args) -> Position:
        """``builder(*args)``; if it raises, keep the first error and go on
        reading with a placeholder, so that a later syntax error still wins."""
        try:
            return builder(*args)
        except SimulgameError as exc:
            if self.error is None:
                self.error = exc
            return score(0)

    def more_items(self, items, close) -> bool:
        """Whether an item follows ``items`` in a list ended by ``close``, with
        exactly one comma between two items.  The caller reads the item in its
        own frame, so a list adds no stack depth to deep nesting."""
        text = self.peek()[1]
        if text == close:
            self.advance()
            return False
        if items:
            if text != ",":
                self.fail({",", close})
            self.advance()
        return True

    # grammar ---------------------------------------------------------------

    def expr(self) -> Position:
        self.depth += 1
        if self.depth > MAX_NESTING:
            offset = self.peek()[2]
            raise GameSyntaxError(
                f"nesting deeper than {MAX_NESTING} levels at offset {offset}", offset
            )
        terms = [self.term()]
        op = None
        while self.peek()[1] in SUM_KINDS:
            kind, text, offset = self.advance()
            if op is None:
                op = text
            elif text != op:
                raise MixedOperators(
                    f"cannot mix {op!r} and {text!r} at one level "
                    f"(offset {offset}); parenthesize",
                    offset,
                    {op},
                )
            terms.append(self.term())
        self.depth -= 1
        return terms[0] if op is None else SumPosition(op, terms)

    def term(self) -> Position:
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
                return score(value)
            if text == "o":
                self.advance()
                self.expect("(")
                which = self.peek()[1]
                if which not in ("L", "D", "R"):
                    self.fail({"L", "D", "R"})
                self.advance()
                self.expect(")")
                return outcome_literal(which)
        self.fail({"sq", "hb", "cl", "x", "s", "o", "("})

    def int_set(self) -> tuple[int, ...]:
        self.expect("{")
        values = [self.expect_int()]
        while self.peek()[1] == ",":
            self.advance()
            values.append(self.expect_int())
        self.expect("}")
        return tuple(values)

    def sq_literal(self) -> Position:
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
        return self.build(sq, left, right, n, primed)

    def hb_literal(self) -> Position:
        self.expect("hb")
        kind, text, offset = self.peek()
        if text == "[":
            self.advance()
            colors = "" if self.peek()[1] == "]" else self.expect_word()
            self.expect("]")
            return self.build(hb_stalk, colors)
        if text == "cordon":
            self.advance()
            self.expect("(")
            n = self.expect_int()
            self.expect(";")
            leaves = []
            while self.more_items(leaves, ")"):
                leaves.append((self.expect_int(), self.expect_word()))
            return self.build(hb_cordon, n, leaves)
        if text == ":":
            self.advance()
            return self.build(_builtin, "hb", self.expect_word())
        self.fail({"[", "cordon", ":"})

    def cl_literal(self) -> Position:
        self.expect("cl")
        kind, text, offset = self.peek()
        if text == "[":
            self.advance()
            cells = "" if self.peek()[1] == "]" else self.expect_word()
            self.expect("]")
            return self.build(clobber_strip, cells)
        if text == ":":
            self.advance()
            name = self.expect_word()
            if re.fullmatch(r"K\d+", name):
                return self.build(clobber_complete, int(name[1:]))
            return self.build(_builtin, "cl", name)
        self.fail({"[", ":"})

    def explicit_literal(self) -> Position:
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
        while self.more_items(table, "]"):
            table.append(self.expr_list())
        self.expect("}")
        return self.build(ExplicitGame, lefts, rights, tuple(table))

    def expr_list(self) -> tuple:
        self.expect("[")
        items = []
        while self.more_items(items, "]"):
            items.append(self.expr())
        return tuple(items)


def _builtin(family: str, name: str) -> Position:
    builder = BUILTIN_BOARDS.get((family, name))
    if builder is None:
        raise UnknownRuleset(f"no builtin {family}:{name}")
    return builder()


def parse(text: str) -> Position:
    """Read expression text into a Position, raising errors in the order
    the module docstring gives."""
    parser = _Parser(text)
    position = parser.expr()
    if parser.peek()[0] != "eof":
        parser.fail({*SUM_KINDS, "end of input"})
    if isinstance(parser.error, BadParameters):
        raise BadLiteral(str(parser.error)) from parser.error
    if parser.error is not None:
        raise parser.error
    return position


def to_position(p) -> Position:
    """``p`` itself, checked to be a Position; ``parse`` already returns one.
    Kept only because ``perfbench/run.py`` and ``perfbench/references.py`` call
    ``to_position(parse(text))`` and ``perfbench/tracing.py`` wraps both names:
    deleting it breaks ``pytest perfbench`` and ``--trace 1`` (ROADMAP item 1)."""
    return require_position(p)


def render_position(p) -> str:
    """Literal syntax for a position when one exists, canonical key otherwise.

    Display helper for the CLI; positions that left the literal families
    (pruned graphs, strips that prime Right after a role swap) fall back to
    their canonical keys, which are not reparseable.  A clobber board prints
    its own edges and occupancy instead, since its key is relabelled.
    """
    out, stack = [], [iter(_parts(p))]
    while stack:
        for part in stack[-1]:
            if not isinstance(part, str):
                stack.append(iter(_parts(part)))
                break
            out.append(part)
        else:
            stack.pop()
    return "".join(out)


def _parts(p) -> list:
    """The text of ``p`` as strings and the subgames written between them.
    Explicit games and sums are the only positions with subgames; every other
    position is one string, its literal or its canonical key."""
    if isinstance(p, ExplicitGame):
        items = lambda games: _joined([[g] for g in games], ",")
        rows = _joined([["[", *items(row), "]"] for row in p.table], ",")
        return ["x{L:[", *items(p.lefts), "] | R:[", *items(p.rights), "] | LR:[", *rows, "]}"]
    if isinstance(p, SumPosition):
        comps = [["(", c, ")"] if isinstance(c, SumPosition) else [c] for c in p.components]
        return _joined(comps, f" {p.kind} ")
    if isinstance(p, ScoreLiteral) and p.value.denominator == 1:
        return [f"s({p.value})"]
    if isinstance(p, SqPosition) and not p.right_primed:
        ls = ",".join(str(x) for x in sorted(p.left_set))
        rs = ",".join(str(x) for x in sorted(p.right_set))
        prime = "'" if p.left_primed else ""
        return [f"sq{prime}{{{ls}}}{{{rs}}}({p.n})"]
    if isinstance(p, ClobberPosition):
        if p.acc == 0 and p.edges == _path_edges(len(p.occupancy)):
            return [f"cl[{''.join(p.occupancy)}]"]
        es = ",".join(f"{u}-{v}" for u, v in sorted(p.edges))
        return [f"cl({es}|{''.join(p.occupancy)}|{p.acc})"]
    if isinstance(p, HackenbushPosition) and p.roots == frozenset({0}) and all(
        e == (i, i, i + 1, e[3]) for i, e in enumerate(p.edges)
    ):
        return [f"hb[{''.join(e[3] for e in p.edges)}]"]
    return [p.canonical_key()]


def _joined(groups, sep: str) -> list:
    """The part lists ``groups`` one after another, ``sep`` between each two."""
    parts = []
    for i, group in enumerate(groups):
        parts += [sep, *group] if i else group
    return parts


def _rendered_length(p) -> int:
    """``len(render_position(p))``, summed over its parts without the text,
    once per distinct subgame.  Lengths are keyed by ``id``, which is
    equality for explicit games, as equal explicit games are one object."""
    subgames = lambda q: [g for g in _parts(q) if not isinstance(g, str)]
    text = lambda q: sum(len(s) for s in _parts(q) if isinstance(s, str))
    (length,) = _postorder([p], subgames, lambda q, lengths: text(q) + sum(lengths))
    return length
