"""Compare two sets of recorded runs (``run.py --record``), one row per metric.

For each workload and end-to-end metric the table gives each side's
median and quartiles, the change of the median as a share of side A's,
the metric's bound from BENCHMARK.json and a verdict:

  ok          B's median is not worse than A's by more than the bound
  WORSE       it is
  unresolved  A's own quartile spread is wider than the bound, and not
              every run of B beats every run of A

Per-layer metrics come from traced runs and get no verdict: counts are
shown as counts, and times only as traced times, never as speed-ups.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

TIME_UNITS = {"s", "ms", "us"}


def load(path: Path) -> dict[tuple[str, int], list[dict]]:
    """(workload, trace) -> list of results."""
    runs: dict[tuple[str, int], list[dict]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            rec = json.loads(line)
            runs.setdefault((rec["workload"], rec["trace"]), []).append(rec["result"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], bound: float, lower_better: bool) -> str:
    a1, am, a3 = quartiles(a)
    _, bm, _ = quartiles(b)
    worse = (bm - am) / am if lower_better else (am - bm) / am
    if worse > bound:
        return "WORSE"
    if am and (a3 - a1) / am > bound:
        b_wins = max(b) < min(a) if lower_better else min(b) > max(a)
        return "ok" if b_wins else "unresolved"
    return "ok"


def _cell(values: list[float]) -> str:
    if not values:
        return f"{'-':>32}"
    q1, q2, q3 = quartiles(values)
    return f"{q2:12.5g} [{q1:.5g}, {q3:.5g}]".rjust(32)


def render(path_a: Path, path_b: Path, metrics: dict[str, list[dict]]) -> str:
    a_runs, b_runs = load(path_a), load(path_b)
    out = [f"A = {path_a}", f"B = {path_b}", ""]
    workloads = sorted({w for w, _ in a_runs} | {w for w, _ in b_runs})
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        header = (
            f"{'workload':18s} {'metric':42s} {'A median [q1, q3]':>32s}"
            f" {'B median [q1, q3]':>32s} {'change':>8s}"
        )
        out.append(("end-to-end metrics (untraced runs)" if trace == 0
                    else "per-layer metrics (traced runs; no verdict)"))
        out.append(header + ("  bound  verdict" if trace == 0 else "  kind"))
        for w in workloads:
            ra, rb = a_runs.get((w, trace), []), b_runs.get((w, trace), [])
            if not ra and not rb:
                continue
            for m in metrics[kind]:
                name = m["name"]
                va = [r["metrics"][name]["value"] for r in ra if name in r["metrics"]]
                vb = [r["metrics"][name]["value"] for r in rb if name in r["metrics"]]
                change = ""
                if va and vb and quartiles(va)[1]:
                    change = f"{(quartiles(vb)[1] - quartiles(va)[1]) / quartiles(va)[1]:+8.1%}"
                row = f"{w:18s} {name:42s} {_cell(va)} {_cell(vb)} {change:>8s}"
                if trace == 0:
                    v = verdict(va, vb, m["bound"], m["better"] == "lower") if va and vb else "-"
                    row += f"  {m['bound']:5.2f}  {v}"
                else:
                    row += "  traced time" if m["unit"] in TIME_UNITS else f"  {m['unit']}"
                out.append(row)
            for side, runs in (("A", ra), ("B", rb)):
                if runs:
                    failed = sum(r["failed"] for r in runs)
                    attempted = sum(r["attempted"] for r in runs)
                    out.append(
                        f"{w:18s} fail_ratio {side} = {failed}/{attempted}"
                        f" verified operations over {len(runs)} runs"
                    )
        out.append("")
    return "\n".join(out)
