"""The traced run: per-layer numbers from spans around calls into each module.

Spans are recorded from this file only: the program's public functions
are called directly, or wrapped for the length of one run and restored
afterwards.  Nothing in the package changes.  A span is (name, start,
end, parent, descriptor); all spans stay in memory and are written out
as JSON lines when the run ends, together with per-name call counts,
inclusive time and self time (duration minus the part covered by child
spans).

The traced run has three parts, each on the named workload's input
where the workload reaches the layer:

* an analyze pass over the workload's descriptors with ``cli.analyze``
  replaced by its public steps on one shared ``PowerSequence``, each in
  a span: from_toeplitz -> cycle -> competition_analysis(powers=...)
  -> certify_walk_ensured -> decide_walk_ensured_exact(powers=...) on a
  miss.  After each call, outside the cli span, probes time ``A @ A``,
  ``transpose``, the exact decision on certified descriptors too,
  ``r_set``/``p_set`` on the powers the exact decision reads and
  ``q_sequence`` to the sweep's chain length;
* the sweep profile: the full sweep with a span around the ground
  truth and around every check call, then one isolated
  ``run_sweep(checks={name})`` per check;
* a tracemalloc pass, never timed, on one descriptor: the one at the
  90th percentile of (index + period) * n^2.

The oracle only runs in sweeps, so the analyze workloads take the
sweep profile of sweep-exhaustive's input; the sweep's descriptors are
all below order 32, so it takes boolmat.table_step_us from the cycle
scan of T_48<1;46,47>.  Both are stated in the README.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import statistics
import time
import tracemalloc
from pathlib import Path

import workloads
from program import call

TABLE_KERNEL_MIN_N = 32
CHAIN_I_MAX = 30
R_SET_PROBES = 8
TABLE_FALLBACK_SPEC = "n=48;S=1;T=46,47"


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.origin = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, desc: str | None = None):
        parent = self._stack[-1] if self._stack else None
        if desc is None and parent is not None:
            desc = self.spans[parent][4]
        rec = [name, time.perf_counter(), None, parent, desc]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, desc_arg: int | None = None):
        def traced(*args, **kwargs):
            desc = str(args[desc_arg]) if desc_arg is not None else None
            with self.span(name, desc):
                return fn(*args, **kwargs)

        return traced

    def self_times(self) -> list[float]:
        own = [rec[2] - rec[1] for rec in self.spans]
        for rec in self.spans:
            if rec[3] is not None:
                own[rec[3]] -= rec[2] - rec[1]
        return own

    def summary(self) -> dict[str, dict[str, float]]:
        out: dict[str, dict[str, float]] = {}
        for rec, own in zip(self.spans, self.self_times()):
            s = out.setdefault(rec[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["total_s"] += rec[2] - rec[1]
            s["self_s"] += own
        return out

    def write(self, path: Path, header: dict) -> None:
        """Header line, one line per span, then the per-name summary."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["id", "name", "start_s", "end_s", "parent", "desc", "self_s"]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "fields": fields}) + "\n")
            for i, (rec, own) in enumerate(zip(self.spans, self.self_times())):
                name, start, end, parent, desc = rec
                row = [i, name, start - self.origin, end - self.origin, parent, desc, own]
                fh.write(json.dumps(row) + "\n")
            fh.write(json.dumps({"summary": self.summary()}) + "\n")

    def total(self, name: str, since: int = 0) -> float:
        return sum(r[2] - r[1] for r in self.spans[since:] if r[0] == name)

    def count(self, name: str, since: int = 0) -> int:
        return sum(1 for r in self.spans[since:] if r[0] == name)


@contextlib.contextmanager
def patched(obj, name: str, value):
    old = getattr(obj, name)
    setattr(obj, name, value)
    try:
        yield
    finally:
        setattr(obj, name, old)


# ------------------------------------------------------------ analyze pass


def _split_analyze(tr: Tracer, last: dict):
    """engine.analyze rebuilt from its public steps, one span per step."""
    from toeplitz_periods import boolmat, engine
    from toeplitz_periods import toeplitz as tz

    def analyze(spec, max_power=None):
        with tr.span("engine.analyze"):
            prof = tz.gcd_profile(spec)
            with tr.span("boolmat.from_toeplitz"):
                a = boolmat.from_toeplitz(spec)
            powers = boolmat.PowerSequence(a)
            with tr.span("engine.matrix_period"):
                index, period = powers.cycle(max_power)
            with tr.span("engine.competition_analysis"):
                comp = engine.competition_analysis(a, max_power, powers=powers)
            with tr.span("toeplitz.certify"):
                cert = tz.certify_walk_ensured(spec)
            last.update(a=a, powers=powers, profile=prof, rule=cert.rule)
            if cert.verdict is tz.Verdict.UNKNOWN:
                with tr.span("engine.decide_exact"):
                    ok, threshold = engine.decide_walk_ensured_exact(
                        spec, max_power, powers=powers
                    )
                if ok:
                    cert = tz.Certificate(
                        tz.Verdict.PROVEN_BY_EXACT_DECISION, tz.Rule.EXACT_DECISION, threshold
                    )
                else:
                    cert = tz.Certificate(tz.Verdict.NOT_WALK_ENSURED, tz.Rule.EXACT_DECISION)
        return engine.PeriodReport(
            spec=spec,
            profile=prof,
            matrix_index=index,
            matrix_period=period,
            competition_index=comp.index,
            competition_period=comp.period,
            limit_matrix=comp.limit,
            certificate=cert,
        )

    return analyze


def _probes(tr: Tracer, spec_text: str, last: dict) -> None:
    """Layer calls the analyze pipeline does not make on this descriptor."""
    from toeplitz_periods import engine, walksets
    from toeplitz_periods.toeplitz import ToeplitzSpec

    spec = ToeplitzSpec.from_string(spec_text)
    a, powers, prof = last["a"], last["powers"], last["profile"]
    index, period = powers.cycle()
    with tr.span("probe", spec_text):
        with tr.span("boolmat.rowsel"):
            a @ a
        with tr.span("boolmat.transpose"):
            a.transpose()
        if last["rule"] is not None:
            with tr.span("engine.decide_exact"):
                engine.decide_walk_ensured_exact(spec, powers=powers)
        span = math.lcm(period, prof.d_plus // prof.d)
        for i in range(index, index + min(span, R_SET_PROBES)):
            x = powers.power(i)
            with tr.span("walksets.r_set"):
                walksets.r_set(x)
            with tr.span("walksets.p_set"):
                walksets.p_set(spec, i)
        with tr.span("walksets.q_sequence"):
            for _ in walksets.q_sequence(spec, CHAIN_I_MAX):
                pass


def analyze_pass(cli, tr: Tracer, specs: list[str], verifier) -> dict:
    """Traced analyze pass with probes; returns the layer metrics."""
    from toeplitz_periods.toeplitz import Rule

    last: dict = {}
    rules = {r.value: 0 for r in Rule if r is not Rule.EXACT_DECISION}
    rules["miss"] = 0
    steps_big = 0
    time_big = 0.0
    cli_overhead = []
    work: dict[str, int] = {}
    traced_wall = 0.0
    start = len(tr.spans)
    gc.collect()
    with patched(cli, "analyze", _split_analyze(tr, last)):
        for spec in specs:
            argv = ["analyze", spec, "--json"]
            with tr.span("cli.main", spec) as root:
                rc, text, _ = call(cli, argv)
            verifier.count(argv, rc, text)
            traced_wall += root[2] - root[1]
            cli_overhead.append(root[2] - root[1] - _last_span(tr, "engine.analyze"))
            rule = last["rule"]
            rules["miss" if rule is None else rule.value] += 1
            index, period = last["powers"].cycle()
            n = last["a"].n
            work[spec] = (index + period) * n * n
            if n >= TABLE_KERNEL_MIN_N:
                steps_big += index + period - 1
                time_big += _last_span(tr, "engine.matrix_period")
            _probes(tr, spec, last)
    k = len(specs)
    calls = {
        name: tr.count(name, start)
        for name in ("boolmat.rowsel", "boolmat.transpose", "walksets.r_set",
                     "walksets.p_set", "walksets.q_sequence")
    }
    us = lambda name: 1e6 * tr.total(name, start) / calls[name]
    metrics = {
        "boolmat.rowsel_us": us("boolmat.rowsel"),
        "boolmat.transpose_us": us("boolmat.transpose"),
        "boolmat.from_toeplitz_s": tr.total("boolmat.from_toeplitz", start),
        "engine.matrix_period_s": tr.total("engine.matrix_period", start),
        "engine.competition_analysis_s": tr.total("engine.competition_analysis", start),
        "engine.decide_exact_s": tr.total("engine.decide_exact", start),
        "engine.decide_exact_calls": rules["miss"],
        "toeplitz.certify_s": tr.total("toeplitz.certify", start),
        "toeplitz.certify_hit_ratio": (k - rules["miss"]) / k,
        "walksets.r_set_us": us("walksets.r_set"),
        "walksets.p_set_us": us("walksets.p_set"),
        "walksets.q_sequence_us": us("walksets.q_sequence"),
        "cli.overhead_ms": 1e3 * statistics.median(cli_overhead),
    }
    metrics.update({f"toeplitz.rule.{name}": n for name, n in rules.items()})
    if steps_big:
        metrics["boolmat.table_step_us"] = 1e6 * time_big / steps_big
    return {"metrics": metrics, "traced_wall_s": traced_wall, "work": work}


def _last_span(tr: Tracer, name: str) -> float:
    rec = next(r for r in reversed(tr.spans) if r[0] == name)
    return rec[2] - rec[1]


def table_step_fallback(tr: Tracer) -> float:
    """µs per PowerSequence step on the cycle scan of TABLE_FALLBACK_SPEC."""
    from toeplitz_periods import PowerSequence, ToeplitzSpec, from_toeplitz

    powers = PowerSequence(from_toeplitz(ToeplitzSpec.from_string(TABLE_FALLBACK_SPEC)))
    with tr.span("engine.matrix_period", TABLE_FALLBACK_SPEC) as rec:
        index, period = powers.cycle()
    return 1e6 * (rec[2] - rec[1]) / (index + period - 1)


# ----------------------------------------------------------- sweep profile


@contextlib.contextmanager
def traced_oracle(tr: Tracer):
    """Spans around the sweep's ground truth and each check call."""
    from toeplitz_periods import oracle

    per_spec = list(oracle.PER_SPEC_CHECKS)
    per_order = list(oracle.PER_ORDER_CHECKS)
    oracle.PER_SPEC_CHECKS[:] = [
        (name, tr.wrap(f"oracle.check.{name}", fn, desc_arg=1)) for name, fn in per_spec
    ]
    oracle.PER_ORDER_CHECKS[:] = [
        (name, tr.wrap(f"oracle.check.{name}", fn)) for name, fn in per_order
    ]
    try:
        with patched(
            oracle._Sweep,
            "analyze_spec",
            tr.wrap("oracle.ground_truth", oracle._Sweep.analyze_spec, desc_arg=1),
        ), patched(
            oracle,
            "check_worked_example",
            tr.wrap("oracle.check.worked-example", oracle.check_worked_example),
        ):
            yield
    finally:
        oracle.PER_SPEC_CHECKS[:] = per_spec
        oracle.PER_ORDER_CHECKS[:] = per_order


def sweep_profile(cli, tr: Tracer, verifier) -> dict:
    """Full traced sweep, then one isolated run per check."""
    from toeplitz_periods import oracle

    lo, hi = workloads.SWEEP_ORDERS
    with traced_oracle(tr):
        gc.collect()
        with tr.span("cli.main", "sweep") as root:
            rc, text, _ = call(cli, workloads.SWEEP_ARGS)
        verifier.count(workloads.SWEEP_ARGS, rc, text)
        footer = text.rstrip("\n").rsplit("\n", 1)[-1]
        counts = dict(kv.split("=") for kv in footer.split()[1:]) if footer.startswith("#") else {}
        metrics = {
            "oracle.findings": int(counts.get("findings", -1)),
            "oracle.violations": int(counts.get("violations", -1)),
            "oracle.observations": int(counts.get("observations", -1)),
        }
        isolated_lines: list[str] = []
        for name in oracle.ALL_CHECK_NAMES:
            gc.collect()
            start = len(tr.spans)
            with tr.span("oracle.isolated", name):
                findings = oracle.run_sweep(oracle.SweepConfig(lo, hi, checks=frozenset({name})))
            isolated_lines += [f.line() for f in findings]
            metrics[f"oracle.check.{name}_s"] = tr.total(f"oracle.check.{name}", start)
            if name == "period-formula":
                metrics["oracle.ground_truth_s"] = tr.total("oracle.ground_truth", start)
    if sorted(isolated_lines) == sorted(text.splitlines()[1:-1]):
        verifier.add([])
    else:
        verifier.add(["sweep: isolated checks do not add up to the full report"])
    return {"metrics": metrics, "traced_wall_s": root[2] - root[1]}


# ------------------------------------------------------------- memory pass


def peak_pass(work: dict[str, int]) -> dict:
    """tracemalloc peaks of the cycle scan and of the competition analysis.

    work maps each descriptor to (index + period) * n^2; the pass runs
    on the one at the 90th percentile, ties broken by descriptor text.
    """
    from toeplitz_periods import PowerSequence, ToeplitzSpec, competition_analysis, from_toeplitz

    ranked = sorted(work, key=lambda spec: (work[spec], spec))
    spec = ranked[math.ceil(0.9 * len(ranked)) - 1]
    a = from_toeplitz(ToeplitzSpec.from_string(spec))
    gc.collect()
    tracemalloc.start()
    try:
        powers = PowerSequence(a)
        powers.cycle()
        _, cycle_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        held, _ = tracemalloc.get_traced_memory()
        competition_analysis(a, powers=powers)
        _, competition_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {
        "engine.matrix_period_peak_mib": cycle_peak / 2**20,
        "engine.competition_analysis_peak_mib": (competition_peak - held) / 2**20,
    }


def run(cli, args, calls, verifier) -> dict:
    """The whole traced run of one workload; returns the per-layer metrics."""
    tr = Tracer()
    gc.collect()
    untraced_wall = 0.0
    for argv in calls:
        rc, text, elapsed = call(cli, argv)
        verifier.count(argv, rc, text)
        untraced_wall += elapsed

    specs = workloads.specs_of(args.workload, args.seed)
    layers = analyze_pass(cli, tr, specs, verifier)
    oracle = sweep_profile(cli, tr, verifier)
    metrics = {**layers["metrics"], **oracle["metrics"]}
    if args.workload == "sweep-exhaustive":
        traced_wall = oracle["traced_wall_s"]
        metrics["boolmat.table_step_us"] = table_step_fallback(tr)
    else:
        traced_wall = layers["traced_wall_s"]
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
    metrics.update(peak_pass(layers["work"]))

    path = Path(__file__).resolve().parent / "out" / f"trace-{args.workload}.jsonl"
    tr.write(path, {"workload": args.workload, "seed": args.seed})
    return {"per_layer": metrics, "trace_file": str(path.relative_to(args.root))}
