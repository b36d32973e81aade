"""End-to-end benchmark of simulgame, with an optional traced pass.

Usage (from the repository root):

    python3 perfbench/run.py --workload conj_strips --seed 1 --seconds 20 --trace 0

One process, one thread, one client in a closed loop: each query starts when
the previous one has finished.  ``--trace 0`` runs whole blocks of the
workload's seeded pool (see workloads.py) until ``--seconds`` of query time
have passed, so the last block ends a little later, and reports the
end-to-end metrics.  ``--trace 1`` runs one block twice, first untraced and
then under the tracer, and reports the per-layer metrics and the tracing
overhead; the counts of that pass repeat exactly for a seed.  Every query is
followed by one chunk of reference work, and times are reported in
reference seconds (speed.py); the unscaled figures are in the summary line.

Every answer is checked against an independent reference after the timed
phase (references.py).  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  One row per query
and the traced spans are written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MEMO_LIMIT_ENV = "SIMULGAME_MEMO_LIMIT"
# The 90th percentile needs at least ten samples beyond it.
MIN_QUERIES = 100
SETUP_REPEATS = 9

# The memo limit would change the work done; every run goes without it.
os.environ.pop(MEMO_LIMIT_ENV, None)
sys.path[:0] = [str(SRC), str(HERE)]

import simulgame  # noqa: E402
from simulgame import cli, engine, gexpr  # noqa: E402

import references  # noqa: E402
import speed  # noqa: E402
from tracing import Tracer, unit_of  # noqa: E402
from workloads import WORKLOADS, ColdQuery, blocks, make_pool  # noqa: E402

clock = time.perf_counter


class Row(NamedTuple):
    """One query as run: raw latency, its answer or error, the memo entries
    and matrices it made when known, and the reference chunk run after it."""

    block: int
    query: object
    latency: float
    answer: object
    error: str | None
    entries: int | None
    solved: int | None
    chunk: float


# -- one query -------------------------------------------------------------------


def run_cold(query: ColdQuery):
    """Parse, lower and evaluate with a fresh Memo, as one CLI call does."""
    error = report = None
    start = clock()
    try:
        memo = engine.Memo()
        report = engine.evaluate(
            gexpr.to_position(gexpr.parse(query.expr)), query.convention, memo=memo
        )
    except Exception as exc:  # counted as a failed query
        error = type(exc).__name__
    latency = clock() - start
    if error:
        return latency, None, error, None
    answer = (str(report.ex), tuple(map(str, report.left_mix)), tuple(map(str, report.right_mix)))
    return latency, answer, None, len(memo)


def run_cli(query):
    """One in-process command line with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    error = code = None
    start = clock()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(query.argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # counted as a failed query
        error = type(exc).__name__
    latency = clock() - start
    if error:
        return latency, None, error, None
    return latency, (code, out.getvalue()), None, None


def execute(query):
    return run_cold(query) if isinstance(query, ColdQuery) else run_cli(query)


# -- checking ---------------------------------------------------------------------


def status_of(query, answer, error, refs, checked: dict) -> str:
    """'ok', 'error: ...' (raised or wrong exit code) or 'wrong: ...'."""
    if error:
        return f"error: raised {error}"
    key = (query, answer)
    if key not in checked:
        try:
            if isinstance(query, ColdQuery):
                references.check_cold(query, answer, refs)
            else:
                code = answer[0]
                if code not in references.expected_exit(query.argv):
                    checked[key] = f"error: exit code {code}"
                    return checked[key]
                references.check_cli(query.argv, answer, refs)
            checked[key] = "ok"
        except references.Mismatch as exc:
            checked[key] = f"wrong: {exc}"
    return checked[key]


# -- phases -----------------------------------------------------------------------


def timed_phase(workload: str, seed: int, pool: list, seconds: float) -> list[Row]:
    """Whole blocks until ``seconds`` of query time and MIN_QUERIES are done."""
    rows = []
    busy = 0.0
    for number, block in enumerate(blocks(pool, workload, seed)):
        for query in block:
            latency, answer, error, entries = execute(query)
            rows.append(Row(number, query, latency, answer, error, entries, None, speed.chunk()))
            busy += latency
        if len(rows) >= MIN_QUERIES and busy >= seconds:
            return rows


def plain_pass(block: list) -> list[Row]:
    return [Row(0, q, *execute(q), None, speed.chunk()) for q in block]


def traced_pass(tracer: Tracer, block: list) -> list[Row]:
    rows = []
    for i, query in enumerate(block):
        solved = tracer.calls["matgame.game_value"]
        entries = tracer.counts["engine.memo.entries"]
        latency, answer, error, _ = tracer.query(i, execute, query)
        if answer is not None and not isinstance(query, ColdQuery):
            tracer.counts["cli.bytes_out"] += len(answer[1].encode())
        rows.append(
            Row(
                0, query, latency, answer, error,
                tracer.counts["engine.memo.entries"] - entries,
                tracer.calls["matgame.game_value"] - solved,
                speed.chunk(),
            )
        )
    return rows


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median time from a fresh interpreter to imported-and-inputs-ready,
    scaled and unscaled; each probe is scaled by chunks run around it."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = sum(speed.chunk() for _ in range(3))
        start = clock()
        with subprocess.Popen(
            [sys.executable, str(HERE / "ready.py"), workload, str(seed)],
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = clock() - start
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("the set-up probe did not become ready")
        after = sum(speed.chunk() for _ in range(3))
        raw.append(elapsed)
        scaled.append(elapsed * speed.REFERENCE_S * 6 / (before + after))
    return statistics.median(scaled), statistics.median(raw)


# -- reporting --------------------------------------------------------------------


def run_info(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        ).stdout.split()
        if len(top) == 2 and Path(top[0]).resolve() == ROOT:
            commit = top[1]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "memo_limit_env": os.environ.get(MEMO_LIMIT_ENV),
        "clients": 1,
        "loop": "closed",
    }


def write_rows(path: Path, info: dict, rows: list) -> None:
    OUT.mkdir(exist_ok=True)
    with path.open("w") as fh:
        fh.write(json.dumps({"run": info}) + "\n")
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def row_record(workload, phase, row: Row, scaled: float, status: str) -> dict:
    return {
        "workload": workload,
        "phase": phase,
        "block": row.block,
        "query": row.query.label,
        "convention": row.query.convention,
        "latency_s": row.latency,
        "reference_latency_s": scaled,
        "chunk_s": row.chunk,
        "memo_entries": row.entries,
        "matrices_solved": row.solved,
        "status": status,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced_run(args, info, pool):
    refs, checked = references.References(), {}
    setup_s, setup_raw = measure_setup(args.workload, args.seed)
    rows = timed_phase(args.workload, args.seed, pool, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    check_start = clock()
    statuses = [status_of(r.query, r.answer, r.error, refs, checked) for r in rows]
    check_s = clock() - check_start
    raw = [r.latency for r in rows]
    scaled = [r.latency * f for r, f in zip(rows, speed.scales([r.chunk for r in rows]))]
    failed = sum(s != "ok" for s in statuses)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "queries_per_s": metric(len(rows) / sum(scaled), "1/s"),
        "query_s_p50": metric(statistics.median(scaled), "s"),
        "query_s_p90": metric(statistics.quantiles(scaled, n=10)[-1], "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "ok_frac": metric((len(rows) - failed) / len(rows), "fraction"),
    }
    summary = {
        "queries": len(rows),
        "blocks": rows[-1].block + 1,
        "setup_probes": SETUP_REPEATS,
        "check_s": check_s,
        "fail_frac": failed / len(rows),
        "mean_chunk_s": statistics.fmean(r.chunk for r in rows),
        "unscaled": {
            "setup_s": setup_raw,
            "queries_per_s": len(rows) / sum(raw),
            "query_s_p50": statistics.median(raw),
            "query_s_p90": statistics.quantiles(raw, n=10)[-1],
        },
    }
    records = [
        row_record(args.workload, "timed", r, t, s) for r, t, s in zip(rows, scaled, statuses)
    ]
    return rows, statuses, True, metrics, summary, records


def traced_run(args, info, pool):
    refs, checked = references.References(), {}
    block = next(blocks(pool, args.workload, args.seed))
    plain = plain_pass(block)
    tracer = Tracer(simulgame)
    tracer.install()
    try:
        traced = traced_pass(tracer, block)
    finally:
        tracer.uninstall()
    same = all(p.answer == t.answer and p.error == t.error for p, t in zip(plain, traced))
    # The same query does the same work, so the untraced row gets the
    # counts of its traced twin.
    plain = [p._replace(entries=t.entries, solved=t.solved) for p, t in zip(plain, traced)]
    rows = plain + traced
    statuses = [status_of(r.query, r.answer, r.error, refs, checked) for r in rows]
    scaled = [r.latency * f for r, f in zip(rows, speed.scales([r.chunk for r in rows]))]
    plain_s, traced_s = sum(scaled[: len(block)]), sum(scaled[len(block):])
    traced_scale = speed.REFERENCE_S / statistics.fmean(r.chunk for r in traced)
    metrics = {
        k: metric(v * traced_scale if unit_of(k) == "s" else v, unit_of(k))
        for k, v in tracer.metrics(len(block)).items()
    }
    metrics["trace.overhead_ratio"] = metric(traced_s / plain_s, "ratio")
    summary = {
        "queries": len(block),
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "traced_equals_untraced": same,
        "spans_kept": len(tracer.spans),
    }
    phases = ["untraced"] * len(block) + ["traced"] * len(block)
    records = [
        row_record(args.workload, ph, r, t, s)
        for ph, r, t, s in zip(phases, rows, scaled, statuses)
    ]
    OUT.mkdir(exist_ok=True)
    with (OUT / f"{args.workload}-seed{args.seed}-spans.json").open("w") as fh:
        fields = ["name", "start", "end", "parent", "query"]
        json.dump({"run": info, "fields": fields, "spans": tracer.spans}, fh)
    return rows, statuses, same, metrics, summary, records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if Path(simulgame.__file__).resolve().parent.parent != SRC:
        sys.exit(f"simulgame was imported from {simulgame.__file__}, not from {SRC}")
    info = run_info(args)
    print(json.dumps({"run": info}))

    pool = make_pool(args.workload, args.seed)
    warm_up = next(q for q in pool if isinstance(q, ColdQuery) or q.argv[0] == "eval")
    execute(warm_up)
    run = traced_run if args.trace else untraced_run
    rows, statuses, same, metrics, summary, records = run(args, info, pool)
    write_rows(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.jsonl", info, records)

    failed = sum(s != "ok" for s in statuses)
    correct = same and not any(s.startswith("wrong") for s in statuses)
    summary["failures"] = sorted({f"{r.query.label}: {s}" for r, s in zip(rows, statuses) if s != "ok"})
    print(json.dumps({"summary": summary}))
    print(f"{args.workload:15s} {'samples':32s} {len(rows)} queries")
    print(f"{args.workload:15s} {'fail_frac':32s} {failed / len(rows):.6g} fraction")
    for key, m in metrics.items():
        print(f"{args.workload:15s} {key:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(rows), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
