"""chernlab benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a chernlab checkout. The runner makes the workload's
op list and input files from the seed (in .perfbench/ of the checkout),
times COLD_STARTS fresh interpreters importing chernlab.cli (setup_s), then
starts worker.py in one more fresh interpreter, which runs the ops and
checks every output. It prints a summary, the failure ledger and, as the
last line, one JSON object with the end-to-end metrics (--trace 0) or the
per-layer metrics of a traced run (--trace 1).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import workloads  # noqa: E402

COLD_STARTS = 7
WORKER_TIMEOUT_S = 150

# Spans whose self time is reported, and spans whose call count is.
SELF_TIMES = [
    "cli", "subspaces.rref", "subspaces.ops", "spectral.page_entry",
    "spectral.page_differential", "spectral.cycles",
    "spectral.graded_cohomology", "spectral.from_double_complex",
    "liftgroup.lift_mul", "liftgroup.from_path", "liftgroup.lift_loop",
    "milnor.build", "milnor.milnor_number", "milnor.winding_number",
    "milnor.path", "geometry.gamma", "geometry.geodesic",
    "geometry.parallel_transport", "geometry.gauss_bonnet", "euler.parse",
]
CALLS = [
    "subspaces.rref", "subspaces.ops", "spectral.page_entry",
    "spectral.page_differential", "spectral.cycles", "liftgroup.lift_mul",
    "geometry.gamma", "euler.euler_char",
]
COUNTS = [
    "subspaces.rref.rows", "liftgroup.loop_samples", "milnor.path_evals",
    "geometry.metric.calls", "geometry.rk4_steps", "geometry.quad_nodes",
]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _wall(p: dict, scaled: bool = True) -> float:
    """Busy seconds of a pass (ops and their checks, not calibration)."""
    return sum(r["busy_s"] * (r["factor"] if scaled else 1.0) for r in p["records"])


def _failed(r: dict) -> bool:
    return r["code"] != 0 or bool(r["problem"])


def layer_metrics(passes: list, tables: list, counts: dict) -> dict:
    """Per-layer metrics: counts from the first traced pass (they repeat
    exactly), times as medians over the traced passes."""
    def calls(name):
        return tables[0].get(name, {}).get("calls", 0)

    out = {}
    for name in SELF_TIMES:
        value = statistics.median(t.get(name, {}).get("self_s", 0.0) for t in tables)
        out[f"{name}.self_s"] = (value, "s")
    for name in CALLS:
        out[f"{name}.calls"] = (calls(name), "count")
    for name in COUNTS:
        out[name] = (counts.get(name, 0), "count")
    for name in ("spectral.page_entry", "geometry.gamma"):
        out[f"{name}.unique_ratio"] = (
            _ratio(counts.get(f"{name}.distinct", 0), calls(name)), "ratio")
    split = tables[0].get("liftgroup.lift_mul", {}).get("split", 0)
    out["liftgroup.lift_mul.split_share"] = (
        _ratio(split, calls("liftgroup.lift_mul")), "ratio")
    out["liftgroup.refine_ratio"] = (_ratio(
        counts.get("liftgroup.loop_samples", 0),
        counts.get("liftgroup.initial_samples", 0)), "ratio")
    plain = statistics.median(_wall(p) for p in passes if not p["traced"])
    traced = statistics.median(_wall(p) for p in passes if p["traced"])
    out["trace_overhead_share"] = ((traced - plain) / plain, "ratio")
    return out


def end_to_end(passes: list, setup: list, rss_kb: int) -> dict:
    """name -> (value, unit, samples, value before speed scaling); the
    passes are untraced, times are scaled by calibration factors."""
    records = [r for p in passes for r in p["records"]]
    ok = [r for r in records if not _failed(r)]
    if len(ok) < 2:
        raise RuntimeError("fewer than two ops succeeded; no latency percentiles")
    scaled = [1e3 * r["latency_s"] * r["factor"] for r in ok]
    raw = [1e3 * r["latency_s"] for r in ok]
    fails = len(records) - len(ok)
    ops = f"n={len(ok)} successful ops"
    return {
        "wall_s": (statistics.median(map(_wall, passes)), "s", f"median of {len(passes)} passes",
                   statistics.median(_wall(p, scaled=False) for p in passes)),
        "op_p50_ms": (statistics.median(scaled), "ms", ops, statistics.median(raw)),
        "op_p90_ms": (statistics.quantiles(scaled, n=10)[8], "ms", ops,
                      statistics.quantiles(raw, n=10)[8]),
        "fail_share": (fails / len(records), "share", f"{fails} of {len(records)} ops", None),
        "ok_share": (len(ok) / len(records), "share", f"{len(ok)} of {len(records)} ops", None),
        "setup_s": (statistics.median(t * f for t, f in setup), "s",
                    f"median of {len(setup)} cold starts", statistics.median(t for t, _ in setup)),
        "peak_rss_mb": (rss_kb / 1024.0, "MB", "n=1 worker process", None),
    }


def cold_starts(env: dict, cwd: Path) -> list:
    """(seconds, speed factor) for fresh interpreters importing chernlab.cli.
    A fresh interpreter running calibration.REFERENCE_IMPORT right after
    each one gives its factor. One untimed start first writes the bytecode
    caches that every later CLI call finds."""
    def seconds(code: str) -> float:
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, check=True, timeout=60)
        return perf_counter() - start

    seconds("import chernlab.cli")
    out = []
    for _ in range(COLD_STARTS):
        measured = seconds("import chernlab.cli")
        reference = seconds(calibration.REFERENCE_IMPORT)
        out.append((measured, calibration.REFERENCE_IMPORT_S / reference))
    return out


def print_ledger(ops: list, passes: list) -> None:
    failures = Counter(
        (r["op"], str(r["code"]), r["problem"])
        for p in passes for r in p["records"] if _failed(r)
    )
    print(f"failure ledger: {len(failures)} failed op(s)")
    for (index, code, problem), times in sorted(
        failures.items(), key=lambda item: ops[item[0][0]]["id"]
    ):
        op = ops[index]
        print(f"  {op['id']}: exit {code} in {times} of {len(passes)} passes;"
              f" argv {' '.join(op['argv'])}; {problem}")
    skipped = sorted({ops[i]["id"] for p in passes for i in p["skipped"]})
    if skipped:
        print(f"  not attempted, their input was never written: {', '.join(skipped)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not ((src / "chernlab" / "cli.py").is_file()
            and (root / "tests" / "corpusgen.py").is_file()):
        print("perfbench: run from the root of a chernlab checkout; "
              "src/chernlab and tests/corpusgen.py are missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(root / "tests")]

    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    env = {k: v for k, v in os.environ.items() if not k.startswith("CHERNLAB_")}
    # a user config file would change the results; HOME points at an empty dir
    env.update(PYTHONPATH=str(src), HOME=str(work / "home"))
    try:
        started = perf_counter()
        ops = workloads.WORKLOADS[args.workload](np.random.default_rng(args.seed), work)
        (work / "plan.json").write_text(json.dumps(ops))
        made = perf_counter() - started
        setup = cold_starts(env, work)
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "plan.json", "result.json",
             str(args.seconds), str(args.trace), str(out_dir / f"trace-{args.workload}.npz")],
            env=env, cwd=work, check=True, timeout=WORKER_TIMEOUT_S,
        )
        result = json.loads((work / "result.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = result["passes"]
    plain = [p for p in passes if not p["traced"]]
    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} ops per pass; "
          f"inputs made in {made:.1f} s")
    by_kind = {}
    for p in plain:
        for r in p["records"]:
            by_kind.setdefault(ops[r["op"]]["kind"], []).append(r["latency_s"] * r["factor"])
    for kind, count in sorted(Counter(op["kind"] for op in ops).items()):
        latencies = by_kind.get(kind, [0.0])
        print(f"  {kind:<18} {count:4d} ops  median {1e3 * statistics.median(latencies):9.2f} ms"
              f"  max {1e3 * max(latencies):9.2f} ms")
    metrics = end_to_end(plain, setup, result["peak_rss_kb"])
    print("end to end (times at the reference speed of calibration.py; as measured in brackets):")
    for name, (value, unit, samples, raw) in metrics.items():
        measured = "" if raw is None else f"[{raw:.4f}]"
        print(f"  {name:<12} {value:12.4f} {unit:<6} {measured:<12} {samples}")
    print_ledger(ops, passes)

    if args.trace:
        report = layer_metrics(passes, result["tables"], result["counts"])
        print(f"per layer: spans of the first traced pass in .perfbench/trace-{args.workload}.npz")
        for name, (value, unit) in report.items():
            print(f"  {name:<36} {value:14.6g} {unit}")
    else:
        report = {k: (v[0], v[1]) for k, v in metrics.items() if k != "fail_share"}
    records = [r for p in passes for r in p["records"]]
    print(json.dumps({
        "correct": not any(r["code"] == 0 and r["problem"] for r in records),
        "attempted": len(records),
        "failed": sum(map(_failed, records)),
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in report.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
