"""One benchmark process: set up, signal ready, time, verify, report.

Run by run.py in a fresh interpreter per run, never imported by it:

  python3 perfbench/child.py --mode setup|time|trace --workload W --seed N
                             --seconds S --root DIR

It prints "ready" once setup is done, right before the first timed
call, so the parent can time setup from the spawn.  In time and trace
mode it then prints one JSON object with the raw measurements as its
last line.  Tracing is off in time mode: only the timed passes run, and
every answer they give is verified after ru_maxrss has been read.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pace  # noqa: E402
import workloads  # noqa: E402
from program import Verifier, call, import_program  # noqa: E402


def timed_passes(cli, calls: list[list[str]], seconds: float):
    """Repeat passes over calls while the next one should end within seconds.

    The first pass always runs.  Pace samples (pace.Sampler) run all
    along; a call's latency excludes the samples taken during it.
    Returns (pass times, latencies, paces, answers) with latencies[p][i]
    the time of call i in pass p and paces[p][i] the pace over it.
    """
    passes, latencies, paces, answers = [], [], [], []
    start = time.perf_counter()
    with pace.Sampler() as sampler:
        while True:
            gc.collect()
            t0 = time.perf_counter()
            spans = []
            for argv in calls:
                stolen, begin = sampler.stolen, time.perf_counter()
                rc, text, _ = call(cli, argv)
                end = time.perf_counter()
                answers.append((argv, rc, text))
                spans.append((begin, end, end - begin - (sampler.stolen - stolen)))
            sampler.take()
            latencies.append([elapsed for _, _, elapsed in spans])
            paces.append([sampler.pace_over(b, e) for b, e, _ in spans])
            now = time.perf_counter()
            passes.append(now - t0)
            if now - start + (now - t0) > seconds:
                return passes, latencies, paces, answers


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "time", "trace"), required=True)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--root", type=Path, required=True)
    args = ap.parse_args()

    cli = import_program(args.root)
    calls = workloads.calls_of(args.workload, args.seed)
    verifier = Verifier(args.workload)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    if args.mode == "trace":
        import tracing

        result = tracing.run(cli, args, calls, verifier)
    else:
        passes, latencies, paces, answers = timed_passes(cli, calls, args.seconds)
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        for argv, rc, text in answers:
            verifier.count(argv, rc, text)
        result = {
            "passes_s": passes,
            "latencies_s": latencies,
            "paces": paces,
            "peak_rss_mib": rss_kib / 1024,
        }
    result.update(
        attempted=verifier.attempted, failed=verifier.failed, problems=verifier.problems
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
