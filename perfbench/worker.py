"""Runs a workload's op list in a fresh interpreter and records what it saw.

    python3 worker.py PLAN RESULT SECONDS TRACE SPANS

Started by run.py with the run's work directory as cwd and the checkout's
src/ alone on PYTHONPATH. Each op is one in-process chernlab.cli.main(argv)
call with stdout and stderr captured; ops run one after another (a closed
loop with one client). Whole passes over the op list repeat while the next
one still fits in SECONDS, at least one. With TRACE 1 every pass is a pair:
an untraced pass, then a traced one; the spans of the first traced pass are
written to SPANS. Every op also gets the speed factor of calibration.py.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from time import perf_counter

from chernlab import cli

import calibration
import checks
from tracing import Tracer


def run_op(op: dict) -> tuple:
    """(latency s, exit code or what ended the call, problem text)."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op["argv"])
    except SystemExit as exc:  # argparse rejects the argv this way
        code = f"SystemExit({exc.code})"
    except Exception as exc:  # a traceback the CLI let escape; keep running
        code = f"raised {type(exc).__name__}"
        err.write(f"{type(exc).__name__}: {exc}")
    latency = perf_counter() - start
    if code != 0:
        lines = err.getvalue().strip().splitlines() or [""]
        return latency, code, next((s for s in lines if "error" in s), lines[-1])
    try:
        problem = checks.check(op, json.loads(out.getvalue()))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problem = f"unreadable report: {type(exc).__name__}: {exc}"
    return latency, code, problem


def run_pass(ops: list, tracer: Tracer | None = None) -> dict:
    """One pass over the op list. The calibration kernel runs before the
    first op and after every op; an op's factor comes from the kernel
    timings on either side of it."""
    records, skipped, exited = [], [], set()
    before = calibration.kernel_seconds()
    for index, op in enumerate(ops):
        if op["after"] in exited:  # its input file was never written
            skipped.append(index)
            continue
        if tracer is not None:
            tracer.begin_op(index)
        start = perf_counter()
        latency, code, problem = run_op(op)
        busy = perf_counter() - start  # the op and its output check
        if tracer is not None:
            tracer.end_op()
        after = calibration.kernel_seconds()
        if code != 0:
            exited.add(op["id"])
        records.append({
            "op": index, "latency_s": latency, "busy_s": busy, "code": code,
            "problem": problem, "factor": calibration.factor(before, after),
        })
        before = after
    return {"traced": tracer is not None, "records": records, "skipped": skipped}


def traced_pass(ops: list, spans_path: str | None) -> tuple:
    tracer = Tracer()
    tracer.install()
    try:
        result = run_pass(ops, tracer)
    finally:
        tracer.remove()
    if spans_path is not None:
        tracer.save(spans_path, [op["id"] for op in ops])
    factors = [1.0] * len(ops)
    for record in result["records"]:
        factors[record["op"]] = record["factor"]
    return result, tracer.span_table(factors), dict(tracer.counts)


def main(argv: list) -> int:
    plan, result_path, seconds, trace, spans_path = argv
    ops = json.loads(open(plan).read())
    seconds, trace = float(seconds), trace == "1"
    passes, tables, counts = [], [], None
    start = perf_counter()
    while True:
        unit_start = perf_counter()
        passes.append(run_pass(ops))
        if trace:
            result, table, pass_counts = traced_pass(
                ops, spans_path if counts is None else None
            )
            passes.append(result)
            tables.append(table)
            counts = pass_counts if counts is None else counts
        now = perf_counter()
        if now - start + (now - unit_start) > seconds:
            break
    with open(result_path, "w") as fh:
        json.dump({
            "passes": passes,
            "tables": tables,
            "counts": counts,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
