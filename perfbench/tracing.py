"""Span tracer that wraps the library's public boundaries from outside.

``Tracer.install`` replaces public functions and methods with timing
wrappers and ``Tracer.uninstall`` puts the originals back; no file of the
library changes.  Every wrapped call is a span with a name, a start, an end
and the span that caused it.  Self time is a span's duration minus the
durations of its child spans.

Position-contract methods and ``Memo.get``/``Memo.put`` run hundreds of
thousands of times per query set, so their spans are folded into per-name
totals as they close.  All other spans are also kept in memory as
``(name, start, end, parent, query)`` records and written out at the end.

Statistics that need extra work (saddle points, matrix sizes, memo growth)
are computed after a span has closed, and that time is removed from every
enclosing span, so it shows in no layer.

The recursive ``engine._evaluate`` is deliberately not wrapped: a wrapper
frame on every level would move the depth at which ``RecursionError``
strikes, and with it the answers.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import time
from collections import Counter, defaultdict

# Public functions to wrap, by module; the module is the layer.
FUNCTIONS = {
    "gexpr": ("parse", "to_position"),
    "engine": ("evaluate", "guarantee_profile", "outcome"),
    "matgame": ("game_value", "support_enumeration_value", "fictitious_play"),
    "oracle": ("brute_ex",),
    "verify": ("run_suite",),
    "cli": ("main",),
    "analysis": (
        "reduce_game",
        "compare_continued_scoring",
        "compare_index",
        "sq_expected_sequence",
        "sq12_closed_form",
        "clobber_kn_expected",
        "stalk_score_formula",
    ),
}
# Spans folded into totals without a record each.
HOT_PREFIXES = ("position.", "rulesets.", "sums.", "engine.Memo.")


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_frac", "_per_lookup", "_per_query")):
        return "ratio"
    if metric.endswith("bytes_out"):
        return "bytes"
    return "count"


def _saddle(rows) -> bool:
    """True when some entry is the minimum of its row and the maximum of its
    column: the game then has a pure saddle point."""
    row_min = [min(row) for row in rows]
    col_max = [max(col) for col in zip(*rows)]
    return max(row_min) == min(col_max)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.clock = time.perf_counter
        self.calls = Counter()
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.max_side = 0
        self.spans: list[tuple] = []
        self.query_id = None
        # Open spans: [start, child time, excluded time at start, record index].
        self._stack: list[list] = []
        self._excluded = 0.0
        self._patches: list[tuple] = []

    # -- span bookkeeping -------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        tracer = self
        clock = self.clock
        stack = self._stack
        hot = name.startswith(HOT_PREFIXES)

        def wrapper(*args, **kwargs):
            parent = stack[-1][3] if stack else None
            if hot:
                index = parent
            else:
                index = len(tracer.spans)
                tracer.spans.append(None)
            frame = [clock(), 0.0, tracer._excluded, index]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0] - (tracer._excluded - frame[2])
                tracer.calls[name] += 1
                tracer.self_time[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if not hot:
                    tracer.spans[index] = (name, frame[0], end, parent, tracer.query_id)
            if after is not None:
                t0 = clock()
                after(args, result)
                tracer._excluded += clock() - t0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def query(self, query_id, fn, *args):
        """Run fn(*args) as the root span of one query."""
        self.query_id = query_id
        try:
            return self._wrap("query", fn)(*args)
        finally:
            self.query_id = None

    # -- counters computed after a span ---------------------------------------------

    def _after_game_value(self, args, solution):
        rows = args[0]
        m, n = len(rows), len(rows[0])
        self.counts["matgame.cells"] += m * n
        self.max_side = max(self.max_side, m, n)
        self.counts["matgame.saddles"] += _saddle(rows)

    def _after_run_suite(self, args, records):
        self.counts["verify.checks"] += len(records)

    def _after_move_matrix(self, args, matrix):
        cells = matrix.cells
        self.counts["position.cells"] += len(cells) * (len(cells[0]) if cells else 0)

    def _after_memo_get(self, args, hit):
        self.counts["engine.memo.hits"] += hit is not None

    def _memo_put(self, put):
        """Memo.put that also counts the entries it added."""
        wrapped = self._wrap("engine.Memo.put", put)
        tracer = self

        def counting_put(memo, key, value):
            t0 = tracer.clock()
            before = len(memo)
            tracer._excluded += tracer.clock() - t0
            wrapped(memo, key, value)
            t0 = tracer.clock()
            tracer.counts["engine.memo.entries"] += len(memo) - before
            tracer._excluded += tracer.clock() - t0

        counting_put.__wrapped__ = put
        return counting_put

    # -- installation -----------------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, replacement)

    def install(self):
        modules = {
            info.name: importlib.import_module(f"{self.package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(self.package.__path__)
        }
        everywhere = [self.package, *modules.values()]
        after = {
            "matgame.game_value": self._after_game_value,
            "verify.run_suite": self._after_run_suite,
        }
        for module_name, names in FUNCTIONS.items():
            module = modules[module_name]
            for name in names:
                original = getattr(module, name)
                label = f"{module_name}.{name}"
                wrapper = self._wrap(label, original, after.get(label))
                # Modules import these by name, so patch every binding.
                for mod in everywhere:
                    if vars(mod).get(name) is original:
                        self._patch(mod, name, wrapper)

        memo_cls = modules["engine"].Memo
        self._patch(memo_cls, "get", self._wrap("engine.Memo.get", memo_cls.get, self._after_memo_get))
        self._patch(memo_cls, "put", self._memo_put(memo_cls.put))

        base = modules["position"].Position
        contract = [
            name
            for name, value in vars(base).items()
            if not name.startswith("_") and inspect.isfunction(value)
        ]
        classes = []
        pending = list(base.__subclasses__())
        while pending:
            cls = pending.pop()
            classes.append(cls)
            pending.extend(cls.__subclasses__())
        # Resolve every original before patching, so a subclass never wraps
        # its parent's wrapper.
        originals = [(cls, name, getattr(cls, name)) for cls in classes for name in contract]
        sum_cls = modules["sums"].SumPosition
        originals.append((sum_cls, "__init__", sum_cls.__init__))
        for cls, name, original in originals:
            layer = {"rulesets": "rulesets", "sums": "sums"}.get(
                cls.__module__.rsplit(".", 1)[-1], "position"
            )
            label = f"{layer}.{cls.__name__}.{name}"
            hook = self._after_move_matrix if name == "move_matrix" else None
            self._patch(cls, name, self._wrap(label, original, hook))

    def uninstall(self):
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- summaries ----------------------------------------------------------------------

    def _sum(self, table, predicate) -> float:
        return sum(v for k, v in table.items() if predicate(k))

    def metrics(self, queries: int) -> dict:
        """Per-layer figures for the traced pass, keyed by metric name."""

        def method(name):
            return lambda k: k.split(".")[0] in ("position", "rulesets", "sums") and (
                k.rsplit(".", 1)[-1] == name
            )

        def layer(prefix):
            return lambda k: k.startswith(prefix + ".")

        calls, self_s = self.calls, self.self_time
        lookups = calls["engine.Memo.get"]
        key_calls = self._sum(calls, method("canonical_key"))
        game_values = calls["matgame.game_value"]
        return {
            "matgame.game_value.calls": game_values,
            "matgame.game_value.self_s": self_s["matgame.game_value"],
            "matgame.cells": self.counts["matgame.cells"],
            "matgame.max_side": self.max_side,
            "matgame.saddle_frac": self.counts["matgame.saddles"] / game_values if game_values else 0.0,
            "position.canonical_key.calls": key_calls,
            "position.canonical_key.self_s": self._sum(self_s, method("canonical_key")),
            "engine.keys_per_lookup": key_calls / lookups if lookups else 0.0,
            "sums.constructed": self._sum(calls, method("__init__")),
            "sums.self_s": self._sum(self_s, layer("sums")),
            "position.joint_option.calls": self._sum(calls, method("joint_option")),
            "position.move_matrix.calls": self._sum(calls, method("move_matrix")),
            "position.move_matrix.self_s": self._sum(self_s, method("move_matrix")),
            "position.cells": self.counts["position.cells"],
            "position.options.calls": self._sum(calls, method("left_options"))
            + self._sum(calls, method("right_options")),
            "position.is_terminal.calls": self._sum(calls, method("is_terminal")),
            "rulesets.self_s": self._sum(self_s, layer("rulesets")),
            "engine.memo.lookups": lookups,
            "engine.memo.hits": self.counts["engine.memo.hits"],
            "engine.memo.hit_ratio": self.counts["engine.memo.hits"] / lookups if lookups else 0.0,
            "engine.memo.entries": self.counts["engine.memo.entries"],
            "engine.self_s": self._sum(self_s, layer("engine")),
            "engine.evaluate.calls": calls["engine.evaluate"],
            "engine.traversals_per_query": calls["engine.evaluate"] / queries,
            "gexpr.calls": self._sum(calls, layer("gexpr")),
            "gexpr.self_s": self._sum(self_s, layer("gexpr")),
            "cli.calls": calls["cli.main"],
            "cli.self_s": self_s["cli.main"],
            "cli.bytes_out": self.counts["cli.bytes_out"],
            "oracle.brute_ex.calls": calls["oracle.brute_ex"],
            "oracle.self_s": self._sum(self_s, layer("oracle")),
            "matgame.oracles.self_s": self_s["matgame.support_enumeration_value"]
            + self_s["matgame.fictitious_play"],
            "verify.checks": self.counts["verify.checks"],
            "verify.self_s": self._sum(self_s, layer("verify")),
            "analysis.self_s": self._sum(self_s, layer("analysis")),
        }
