"""How the benchmark drives the program: import, call, verify.

Shared by the timed child, the traced run and the self-test.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
import traceback
from pathlib import Path

import verify

HERE = Path(__file__).resolve().parent
MAX_REPORTED_PROBLEMS = 5


def import_program(root: Path):
    """Import the package from the checkout's src/, never from elsewhere."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import toeplitz_periods
    from toeplitz_periods import cli

    where = Path(toeplitz_periods.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"toeplitz_periods imported from {where}, not {src}")
    return cli


def call(cli, argv: list[str]) -> tuple[int, str, float]:
    """cli.main(argv) with stdout captured: (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a raise is a failed operation, not a crash of the run
            rc = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - t0
    if rc is None:
        return -1, err.getvalue(), elapsed
    return rc, out.getvalue(), elapsed


class Verifier:
    """Verifies each distinct answer once; counts failed operations."""

    def __init__(self, workload: str):
        self.workload = workload
        self.expected = (HERE / "expected" / "sweep-n2-6.txt").read_text(encoding="utf-8")
        self._seen: dict[tuple, list[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def count(self, argv: list[str], rc: int, text: str) -> None:
        """One timed operation: verify its answer (once per distinct answer)."""
        key = (tuple(argv), rc, text)
        if key not in self._seen:
            if argv[0] == "sweep":
                self._seen[key] = verify.check_sweep(rc, text, self.expected)
            else:
                worst = self.workload == "analyze-worst"
                self._seen[key] = verify.check_analyze(argv[1], rc, text, worst=worst)
        self.add(self._seen[key])

    def add(self, problems: list[str]) -> None:
        """One operation with the given problems; none means it passed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                if len(self.problems) < MAX_REPORTED_PROBLEMS and p not in self.problems:
                    self.problems.append(p)
