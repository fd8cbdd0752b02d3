"""Byte-level output contract: `analyze --json` and the sweep reports.

The golden files were recorded before the analysis pipeline was
consolidated; any change in them must be deliberate.  When an output
is meant to change, rewrite the files from the same `cli.main` calls
in the same order (descriptors in `enumerate_specs` order, one JSON
line each) and say so in CHANGES.md.

`sweep-n7-period-formula.txt` is the observation table of order 7:
every descriptor that is not walk-ensured and whose period differs
from d+/d.  It equals the full `sweep --n 7..7` report, every check
enabled, so a change in that set shows up as a diff of this file.

`sweep-random-6-12.txt` pins random mode:
`sweep --n 6..12 --mode random --samples 40 --seed 3`.

The benchmark verifies its sweep runs against its own copy of the
order 2..6 report, `perfbench/expected/sweep-n2-6.txt`; the two files
must stay byte-identical, so that a drift shows here and not only as a
refused benchmark run.

`analyze-large.jsonl` pins `analyze --json` above order 32, where the
products switch to the table kernel and the powers of a Toeplitz matrix
step by shifts: the worst-index family `T_n<1;n-2,n-1>`, the paper's family
`T_n<k, n-k; k+1, n-k-1>` and a seeded random draw (`_large_specs`).
"""

import contextlib
import io
import random
from pathlib import Path

from toeplitz_periods import ToeplitzSpec, cli
from toeplitz_periods.oracle import enumerate_specs

GOLDEN = Path(__file__).resolve().parent / "golden"
BENCH_EXPECTED = Path(__file__).resolve().parent.parent / "perfbench" / "expected"


def _cli_stdout(*argv: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(argv)) == 0, argv
    return buf.getvalue()


def test_golden_outputs_are_byte_identical():
    want = (GOLDEN / "analyze-n2-6.jsonl").read_text(encoding="utf-8").splitlines(True)
    specs = [str(spec) for n in range(2, 7) for spec in enumerate_specs(n)]
    assert len(want) == len(specs) == 1245
    for spec, line in zip(specs, want):
        got = _cli_stdout("analyze", spec, "--json")
        assert got == line, f"analyze --json differs first at {spec}"
    report = (GOLDEN / "sweep-n2-6.txt").read_text(encoding="utf-8")
    assert _cli_stdout("sweep", "--n", "2..6") == report


def test_benchmark_sweep_report_is_the_golden_one():
    golden = (GOLDEN / "sweep-n2-6.txt").read_bytes()
    assert (BENCH_EXPECTED / "sweep-n2-6.txt").read_bytes() == golden


def test_order_7_observation_table_is_byte_identical():
    table = (GOLDEN / "sweep-n7-period-formula.txt").read_text(encoding="utf-8")
    assert table.endswith("# findings=75 violations=0 observations=75\n")
    assert _cli_stdout("sweep", "--n", "7..7", "--checks", "period-formula") == table
    assert _cli_stdout("sweep", "--n", "7..7") == table


def test_random_sweep_report_is_byte_identical():
    report = (GOLDEN / "sweep-random-6-12.txt").read_text(encoding="utf-8")
    assert report.endswith("# findings=8 violations=0 observations=8\n")
    argv = ("sweep", "--n", "6..12", "--mode", "random", "--samples", "40", "--seed", "3")
    assert _cli_stdout(*argv) == report


def _large_specs() -> list[str]:
    """Descriptors of `analyze-large.jsonl`, in file order."""
    worst = [ToeplitzSpec(n, (1,), (n - 2, n - 1)) for n in (48, 64, 80, 128, 256)]
    paper = [
        ToeplitzSpec(n, (k, n - k), (k + 1, n - k - 1))
        for n in (64, 128)
        for k in sorted({1, 2, (n - 1) // 2})
    ]
    rng = random.Random(20261018)
    drawn = []
    for _ in range(20):
        n = rng.randint(32, 160)
        S = rng.sample(range(1, n), rng.randint(1, 3))
        T = rng.sample(range(1, n), rng.randint(1, 3))
        drawn.append(ToeplitzSpec(n, S, T))
    return [str(spec) for spec in worst + paper + drawn]


def test_analyze_above_order_32_is_byte_identical():
    want = (GOLDEN / "analyze-large.jsonl").read_text(encoding="utf-8").splitlines(True)
    specs = _large_specs()
    assert len(want) == len(specs) == 31
    for spec, line in zip(specs, want):
        assert _cli_stdout("analyze", spec, "--json") == line, spec
