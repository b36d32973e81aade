"""Seeded grammar fuzzer: mutated acceptance texts through the CLI.

Each text is a mutation of a ``verify.ACCEPTANCE_POSITIONS`` expression: a
cut, two swapped tokens, a deleted or inserted token, an integer set to a
small size, or the whole text nested near ``gexpr.MAX_NESTING``.  Every text
runs in-process as ``eval``, as ``eval --measure index --convention
scoring`` and as ``reduce``, and must end in exit 0, 2 or 3 with no
exception.  The one exception let through is ``BadCordonSpec``, a known
defect (ROADMAP item 3): a bad cordon spec still ends in a traceback.
"""

import contextlib
import io
import random
import re

import pytest

from simulgame import cli
from simulgame.errors import BadCordonSpec
from simulgame.gexpr import MAX_NESTING
from simulgame.verify import ACCEPTANCE_POSITIONS

SEED = 3
COUNT = 300
COMMANDS = (
    ("eval",),
    ("eval", "--measure", "index", "--convention", "scoring"),
    ("reduce",),
)
SIZES = ("0", "1", "2", "7")
INSERTS = (
    "(", ")", "{", "}", "[", "]", ",", ";", "|", ":", "'", "+", "^", "v", "-",
    "sq", "hb", "cl", "x", "s", "o", "L", "R", "LR", "cordon", "K", "B", "OX",
) + SIZES

_TOKEN = re.compile(r"-?\d+|[A-Za-z_]\w*|\S")


def _mutate(rng: random.Random, text: str) -> str:
    tokens = _TOKEN.findall(text)
    how = rng.randrange(6)
    if how == 0:
        return text[: rng.randrange(len(text) + 1)]
    if how == 1:
        i, j = rng.randrange(len(tokens)), rng.randrange(len(tokens))
        tokens[i], tokens[j] = tokens[j], tokens[i]
    elif how == 2:
        del tokens[rng.randrange(len(tokens))]
    elif how == 3:
        tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(INSERTS))
    elif how == 4:
        ints = [i for i, t in enumerate(tokens) if t.lstrip("-").isdigit()]
        if not ints:
            return text
        for i in rng.sample(ints, rng.randint(1, len(ints))):
            tokens[i] = rng.choice(SIZES)
    else:
        depth = MAX_NESTING + rng.randint(-5, 5)
        return "(" * depth + text + ")" * depth
    return " ".join(tokens)


def fuzz_texts(count=COUNT, seed=SEED) -> list[str]:
    rng = random.Random(seed)
    bases = [text for text, _ in ACCEPTANCE_POSITIONS]
    return [_mutate(rng, rng.choice(bases)) for _ in range(count)]


def _run(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects an option-like text
            code = exc.code
    return code, err.getvalue()


def test_mutated_texts_exit_cleanly():
    failures = []
    for text in fuzz_texts():
        for command in COMMANDS:
            argv = [command[0], text, *command[1:]]
            try:
                code, err = _run(argv)
            except BadCordonSpec:
                continue
            except Exception as exc:
                failures.append((argv, type(exc).__name__))
                continue
            if code not in (0, 2, 3) or "Traceback" in err:
                failures.append((argv, code))
    assert not failures, failures[:10]


@pytest.mark.xfail(strict=True, raises=BadCordonSpec, reason="ROADMAP item 3: bad cordon spec")
def test_bad_cordon_spec_is_a_parse_error():
    assert _run(["eval", "hb cordon(0; )"])[0] == 2
