"""The program names the traced benchmark run patches or rebuilds.

`perfbench/tracing.py` wraps the sweep's check registries, the ground
truth `_Sweep.analyze_spec` and `check_worked_example`, rebuilds
`engine.analyze` from its public steps, probes `PowerSequence`, `p_set`
and `q_sequence` after each call and times one scan on its own
(`table_step_fallback`).  These tests run those hooks
against the package, so a reshaped oracle or engine that the traced
run can no longer follow fails here.  The benchmark's files are only
imported, with bytecode writing off so that nothing is written next to
them.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from toeplitz_periods import ToeplitzSpec, engine
from toeplitz_periods.oracle import ALL_CHECK_NAMES, SweepConfig, run_sweep

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    path, no_bytecode = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        import tracing
    finally:
        sys.path[:] = path
        sys.dont_write_bytecode = no_bytecode
    return tracing


def test_traced_sweep_matches_untraced_and_spans_every_check(tracing):
    config = SweepConfig(2, 4)
    tracer = tracing.Tracer()
    with tracing.traced_oracle(tracer):
        traced = run_sweep(config)
    assert traced == run_sweep(config)
    names = {span[0] for span in tracer.spans}
    assert len(ALL_CHECK_NAMES) == 17
    assert names == {f"oracle.check.{name}" for name in ALL_CHECK_NAMES} | {
        "oracle.ground_truth"
    }


@pytest.mark.parametrize(
    "text",
    [
        "n=6;S=2,4;T=5",  # certificate miss, not walk-ensured
        "n=6;S=2,5;T=4,5",  # certificate miss, walk-ensured by the exact decision
        "n=5;S=1;T=1",  # a certificate rule applies
    ],
)
def test_split_analyze_equals_engine_analyze(tracing, text):
    spec = ToeplitzSpec.from_string(text)
    assert tracing._split_analyze(tracing.Tracer(), {})(spec) == engine.analyze(spec)


def test_probes_and_the_table_step_follow_the_program(tracing):
    # the traced analyze pass probes each descriptor after its split analyze,
    # from the powers and profile that left in `last`, and sweep-exhaustive
    # times the scan of T_48<1;46,47> on its own
    text, tracer, last = "n=6;S=2,5;T=4,5", tracing.Tracer(), {}
    tracing._split_analyze(tracer, last)(ToeplitzSpec.from_string(text))
    tracing._probes(tracer, text, last)
    names = {span[0] for span in tracer.spans}
    assert {"walksets.r_set", "walksets.p_set", "walksets.q_sequence"} <= names
    assert tracing.table_step_fallback(tracer) > 0


def test_the_benchmark_selftest_passes():
    # the benchmark's verifier accepts the program's answers and rejects
    # planted wrong ones, so an answer it would refuse (a certificate rule
    # missing from verify.py's RULES, say) fails here too.  A new interpreter
    # runs it as the benchmark does, importing the package from src/ and
    # writing no bytecode next to the benchmark's files
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-B", str(PERFBENCH / "selftest.py")],
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
