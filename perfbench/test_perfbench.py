"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

from fractions import Fraction

import pytest

import run  # puts src/ on the path before anything imports the library
import references
import simulgame
import speed
import workloads
from simulgame import analysis, cli, engine, matgame, rulesets, sums
from tracing import Tracer
from workloads import CliQuery, ColdQuery

SMALL = [
    ColdQuery("sq{1,2}{1,3}(4) ^ sq{1,3}{2,3}(3)", "normal"),
    ColdQuery("(sq{1}{2}(2) + hb[BR]) v (cl[XO] + sq{1}{3}(3))", "scoring"),
    ColdQuery("cl:K5", "scoring"),
    CliQuery(("eval", "cl[OXO] + sq'{1}{2}(4) + hb[R]", "--measure", "index")),
    CliQuery(("eval", "sq'{1,4}{2}(4)", "--measure", "strategies", "--format", "csv")),
    CliQuery(("table", "sq{1,2}{1,3}", "--n-max", "12", "--format", "json")),
] + [CliQuery(("eval", text)) for text in workloads.KNOWN_CRASHES]


def test_same_seed_gives_the_same_queries():
    for name in workloads.WORKLOADS:
        first, again = workloads.make_pool(name, 7), workloads.make_pool(name, 7)
        assert first == again
        a, b = workloads.blocks(first, name, 7), workloads.blocks(again, name, 7)
        assert [next(a) for _ in range(3)] == [next(b) for _ in range(3)]
    for name in ("conj_strips", "nested_sums", "clobber_boards"):
        assert workloads.make_pool(name, 7) != workloads.make_pool(name, 8)


def test_pools_keep_their_size_classes_across_seeds():
    for name in workloads.WORKLOADS:
        sizes = {len(workloads.make_pool(name, seed)) for seed in range(5)}
        assert len(sizes) == 1
    for name in ("conj_strips", "nested_sums", "clobber_boards"):
        size = len(workloads.make_pool(name, 0))
        assert size % 2 == 1 and 0.2 <= (0.9 * size) % 1 <= 0.8
    assert workloads.make_pool("cli_session", 3)[-2:] == [
        CliQuery(("eval", text)) for text in workloads.KNOWN_CRASHES
    ]


def test_traced_answers_equal_untraced_answers():
    bound = [
        (engine, "evaluate"), (cli, "evaluate"), (engine, "game_value"),
        (matgame, "game_value"), (engine.Memo, "get"), (engine.Memo, "put"),
        (rulesets.SqPosition, "canonical_key"), (sums.SumPosition, "__init__"),
    ]
    before = [getattr(owner, name) for owner, name in bound]
    plain = [run.execute(q)[1:3] for q in SMALL]
    tracer = Tracer(simulgame)
    tracer.install()
    try:
        traced = [tracer.query(i, run.execute, q)[1:3] for i, q in enumerate(SMALL)]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert [getattr(owner, name) for owner, name in bound] == before
    assert "has_left_option" not in vars(rulesets.SqPosition)
    layers = tracer.metrics(len(SMALL))
    assert layers["cli.calls"] == 5
    assert layers["engine.evaluate.calls"] >= len(SMALL)
    assert layers["matgame.game_value.calls"] > 0
    assert layers["sums.constructed"] > 0
    assert 0 < layers["engine.memo.hit_ratio"] < 1
    assert all(span is not None for span in tracer.spans)


def _status(query, refs=None):
    _, answer, error, _ = run.execute(query)
    return run.status_of(query, answer, error, refs or references.References(), {})


def test_correct_answers_pass_and_known_crashes_fail():
    statuses = [_status(q) for q in SMALL]
    crashes = len(workloads.KNOWN_CRASHES)
    assert statuses[:-crashes] == ["ok"] * (len(SMALL) - crashes)
    assert all(s.startswith("error") for s in statuses[-crashes:])


def test_a_wrong_reference_shows_up_as_a_failure(monkeypatch):
    query = ColdQuery("cl:K5", "scoring")
    assert _status(query) == "ok"
    monkeypatch.setattr(analysis, "clobber_kn_expected", lambda n: Fraction(n, 2))
    assert _status(query).startswith("wrong")


def test_a_wrong_answer_shows_up_as_a_failure():
    query = ColdQuery("sq{1,2}{1,3}(4) ^ sq{1,3}{2,3}(3)", "normal")
    _, (value, left, right), _, _ = run.execute(query)
    refs = references.References()
    assert run.status_of(query, (value, left, right), None, refs, {}) == "ok"
    wrong_value = (str(Fraction(value) + 1), left, right)
    assert run.status_of(query, wrong_value, None, refs, {}).startswith("wrong")
    no_mix = (value, ("0",) * len(left), right)
    assert run.status_of(query, no_mix, None, refs, {}).startswith("wrong")


def test_certificate_rejects_a_mix_that_is_not_optimal():
    pennies = [[Fraction(1), Fraction(-1)], [Fraction(-1), Fraction(1)]]
    half = [Fraction(1, 2)] * 2
    references.certify(pennies, 0, half, half)
    with pytest.raises(references.Mismatch):
        references.certify(pennies, 0, [Fraction(1), Fraction(0)], half)


def test_verify_must_fail_exactly_on_the_known_discrepancies():
    query = CliQuery(("verify", "paper"))
    _, (code, out), _, _ = run.execute(query)
    refs = references.References()
    assert run.status_of(query, (code, out), None, refs, {}) == "ok"
    extra = out.replace("[PASS ] sq12-ex0:", "[FAIL ] sq12-ex0:")
    assert run.status_of(query, (code, extra), None, refs, {}).startswith("wrong")


def test_latencies_scale_by_the_chunks_around_them():
    assert speed.scales([speed.REFERENCE_S] * 5) == pytest.approx([1.0] * 5)
    slow_then_fast = [2 * speed.REFERENCE_S] * 40 + [speed.REFERENCE_S] * 40
    factors = speed.scales(slow_then_fast)
    assert factors[0] == pytest.approx(0.5) and factors[-1] == pytest.approx(1.0)
    assert 0.55 < factors[40] < 0.95
    assert 0 < speed.chunk() < 1
