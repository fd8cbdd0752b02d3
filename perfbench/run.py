"""Benchmark of toeplitz-periods: end-to-end and per-layer metrics.

Run from the root of a checkout:

  python3 perfbench/run.py --workload analyze-worst --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py ... --record perfbench/out/mine.jsonl
  python3 perfbench/run.py --compare perfbench/baseline.jsonl perfbench/out/mine.jsonl

Every run happens in fresh child processes (perfbench/child.py), one
thread each.  With --trace 0 the run times the workload for --seconds
with tracing off and prints every end-to-end metric named in
BENCHMARK.json; with --trace 1 it makes the traced run
(perfbench/tracing.py) and prints every per-layer metric.  Either way
every timed answer is verified, and the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
A human-readable summary goes to standard error.  --record appends the
run, with its workload and seed, to a JSON-lines file that --compare
reads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import pace  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 9
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The run could not produce a result."""


def metric_specs() -> dict[str, list[dict]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def spawn(mode: str, args, deadline: float) -> tuple[float, dict | None]:
    """Run child.py; return (seconds from spawn to its ready line, result)."""
    cmd = [
        sys.executable, str(HERE / "child.py"), "--mode", mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--root", str(ROOT),
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        rc = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready != "ready\n" or rc != 0:
        raise BenchError(f"child {mode} run exited with code {rc}")
    if mode == "setup":
        return setup_s, None
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def percentile_90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def timed_setup(args, deadline: float) -> float:
    """One set-up-only child's spawn-to-ready time at reference pace."""
    before = pace.sample()
    setup_s, _ = spawn("setup", args, deadline)
    return setup_s / ((before + pace.sample()) / 2)


def measure(args) -> tuple[dict, dict]:
    """One run: returns (metric values, raw measurements).

    Every time is taken at reference pace: divided by the pace (pace.py)
    over the same stretch of time, so that the speed of a shared core,
    which moves by 10-45% for minutes at a time, cancels out.  Each
    input's latency is the median over the run's passes of its paced
    latencies; a pass's time is the sum of those medians.
    """
    deadline = time.monotonic() + RUN_LIMIT_S
    if args.trace:
        _, raw = spawn("trace", args, deadline)
        return raw["per_layer"], raw
    setups = [timed_setup(args, deadline) for _ in range(SETUP_SAMPLES)]
    _, raw = spawn("time", args, deadline)
    paced_ms = [
        [1e3 * t / p for t, p in zip(lat_row, pace_row)]
        for lat_row, pace_row in zip(raw["latencies_s"], raw["paces"])
    ]
    input_ms = [statistics.median(column) for column in zip(*paced_ms)]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(input_ms) / 1e3,
        "latency_ms_p50": statistics.median(input_ms),
        "latency_ms_p90": percentile_90(input_ms),
        "peak_rss_mib": raw["peak_rss_mib"],
    }
    raw["samples"] = {
        "setup": len(setups), "passes": len(raw["passes_s"]),
        "latency": len(input_ms) * len(raw["passes_s"]),
    }
    raw["median_pace"] = statistics.median(p for row in raw["paces"] for p in row)
    return values, raw


def result_of(args, values: dict, raw: dict) -> dict:
    wanted = metric_specs()["per_layer" if args.trace else "end_to_end"]
    names = [m["name"] for m in wanted]
    missing = sorted(set(names) - set(values))
    extra = sorted(set(values) - set(names))
    if missing or extra:
        raise BenchError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    return {
        "correct": raw["failed"] == 0 and raw["attempted"] > 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def summarize(args, result: dict, raw: dict) -> None:
    err = sys.stderr
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}", file=err)
    for name, m in result["metrics"].items():
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']}", file=err)
    if "samples" in raw:
        print(f"  samples: {raw['samples']}", file=err)
        print(f"  pass wall times (s): {[round(p, 4) for p in raw['passes_s']]}", file=err)
        print(f"  median pace: {raw['median_pace']:.3f} (1 = reference)", file=err)
    if "trace_file" in raw:
        print(f"  spans: {raw['trace_file']}", file=err)
    ratio = result["failed"] / result["attempted"] if result["attempted"] else float("nan")
    print(
        f"  fail_ratio {ratio:.4g} ({result['failed']} failed of {result['attempted']}"
        " verified operations)",
        file=err,
    )
    for p in raw.get("problems", []):
        print(f"  problem: {p}", file=err)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", type=Path, help="append this run to a JSON-lines file")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = ap.parse_args(argv)

    if args.compare:
        import compare

        print(compare.render(args.compare[0], args.compare[1], metric_specs()))
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not (ROOT / "src" / "toeplitz_periods" / "__init__.py").is_file():
        print(f"error: no toeplitz_periods package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        values, raw = measure(args)
        result = result_of(args, values, raw)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summarize(args, result, raw)
    if args.record:
        args.record.parent.mkdir(parents=True, exist_ok=True)
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "result": result}
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
