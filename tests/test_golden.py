"""Byte-level output contract: `analyze --json` for n = 2..6 and the sweep reports.

The golden files were recorded before the analysis pipeline was
consolidated; any change in them must be deliberate.  When an output
is meant to change, rewrite the files from the same `cli.main` calls
in the same order (descriptors in `enumerate_specs` order, one JSON
line each) and say so in CHANGES.md.

`sweep-n7-period-formula.txt` is the observation table of order 7:
every descriptor that is not walk-ensured and whose period differs
from d+/d.  Its body equals that of the full `sweep --n 7..7` report,
so a change in that set shows up as a diff of this file.
"""

import contextlib
import io
from pathlib import Path

from toeplitz_periods import cli
from toeplitz_periods.oracle import enumerate_specs

GOLDEN = Path(__file__).resolve().parent / "golden"


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


def test_order_7_observation_table_is_byte_identical():
    table = (GOLDEN / "sweep-n7-period-formula.txt").read_text(encoding="utf-8")
    assert table.endswith("# findings=75 violations=0 observations=75\n")
    assert _cli_stdout("sweep", "--n", "7..7", "--checks", "period-formula") == table
