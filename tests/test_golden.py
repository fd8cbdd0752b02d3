"""Byte-level output contract: `analyze --json` for n = 2..6 and the sweep report.

The golden files were recorded before the analysis pipeline was
consolidated; any change in them must be deliberate.  When an output
is meant to change, rewrite the files from the same `cli.main` calls
in the same order (descriptors in `enumerate_specs` order, one JSON
line each) and say so in CHANGES.md.
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
