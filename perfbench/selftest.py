"""Self-test of the benchmark's verifier and input generation.

  python3 perfbench/selftest.py

Shows that the verifier accepts the program's answers and rejects
planted wrong ones (an index off by one, a non-minimal period, a
competition answer off by one, a reordered key, a sweep report with one
line changed), and that the analyze-random inputs are a deterministic
function of the seed.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import verify  # noqa: E402
import workloads  # noqa: E402
from program import call, import_program  # noqa: E402

CLI = import_program(HERE.parent)

# Matrix periods 1, 2 and 3, competition periods 1 and 3, index 1,
# certified and exact-decision verdicts, one of them negative.
SPECS = (
    "n=6;S=2,4;T=5",
    "n=6;S=3,4,5;T=3,4,5",
    "n=6;S=2,3,4;T=5",
    "n=3;S=1;T=2",
    "n=9;S=3,6;T=3,6",
    "n=12;S=1;T=10,11",
)


def answer(spec: str) -> dict:
    rc, text, _ = call(CLI, ["analyze", spec, "--json"])
    assert rc == 0, text
    return json.loads(text)


def problems(spec: str, out: dict, **kw) -> list[str]:
    return verify.check_analyze(spec, 0, json.dumps(out) + "\n", **kw)


class AnalyzeVerifier(unittest.TestCase):
    def test_program_answers_pass(self):
        for spec in SPECS:
            with self.subTest(spec=spec):
                self.assertEqual(problems(spec, answer(spec)), [])

    def test_worst_family_passes(self):
        spec = "n=12;S=1;T=10,11"
        self.assertEqual(problems(spec, answer(spec), worst=True), [])

    def test_index_off_by_one_rejected(self):
        for spec in SPECS:
            for key in ("matrix_index", "competition_index"):
                for delta in (-1, 1):
                    out = answer(spec)
                    if out[key] + delta < 1:
                        continue
                    out[key] += delta
                    with self.subTest(spec=spec, key=key, delta=delta):
                        self.assertNotEqual(problems(spec, out), [])

    def test_non_minimal_period_rejected(self):
        for spec in SPECS:
            for key in ("matrix_period", "competition_period"):
                for factor in (2, 3):
                    out = answer(spec)
                    out[key] *= factor
                    with self.subTest(spec=spec, key=key, factor=factor):
                        self.assertNotEqual(problems(spec, out), [])

    def test_wrong_verdicts_rejected(self):
        spec = "n=6;S=2,4;T=5"
        for key, value in (("walk_ensured", True), ("limit_matches_prediction", True),
                           ("certificate_rule", "Star"), ("d_plus", 3)):
            out = answer(spec)
            self.assertNotEqual(out[key], value)
            out[key] = value
            with self.subTest(key=key):
                self.assertNotEqual(problems(spec, out), [])

    def test_key_order_checked(self):
        spec = SPECS[0]
        out = answer(spec)
        reordered = {"S": out.pop("S"), **out}
        self.assertNotEqual(problems(spec, reordered), [])

    def test_worst_index_checked(self):
        spec = "n=6;S=2,4;T=5"
        self.assertNotEqual(problems(spec, answer(spec), worst=True), [])

    def test_failed_exit_rejected(self):
        self.assertNotEqual(verify.check_analyze(SPECS[0], 2, ""), [])


class SweepVerifier(unittest.TestCase):
    expected = (HERE / "expected" / "sweep-n2-6.txt").read_text(encoding="utf-8")

    def test_program_report_matches_recording(self):
        rc, text, _ = call(CLI, workloads.SWEEP_ARGS)
        self.assertEqual(verify.check_sweep(rc, text, self.expected), [])

    def test_one_changed_line_rejected(self):
        lines = self.expected.splitlines(keepends=True)
        for i in (1, len(lines) // 2, len(lines) - 2):
            changed = list(lines)
            changed[i] = changed[i].replace("observation", "violation").replace("\t", " ", 1)
            with self.subTest(line=i + 1):
                self.assertNotEqual(
                    verify.check_sweep(0, "".join(changed), self.expected), []
                )

    def test_nonzero_exit_rejected(self):
        self.assertNotEqual(verify.check_sweep(1, self.expected, self.expected), [])


class Generators(unittest.TestCase):
    def test_random_is_deterministic_per_seed(self):
        for seed in (0, 1, 12345):
            with self.subTest(seed=seed):
                self.assertEqual(workloads.random_specs(seed), workloads.random_specs(seed))
                self.assertEqual(
                    workloads.calls_of("analyze-random", seed),
                    workloads.calls_of("analyze-random", seed),
                )

    def test_seeds_mirror_and_reorder_one_draw(self):
        def canonical(spec):
            n, S, T = workloads.parse_spec(spec)
            return n, min((S, T), (T, S))

        a, b = workloads.random_specs(1), workloads.random_specs(2)
        self.assertNotEqual(a, b)
        self.assertEqual(sorted(map(canonical, a)), sorted(map(canonical, b)))
        self.assertEqual(len(a), workloads.RANDOM_COUNT)

    def test_mirror_keeps_answers(self):
        for spec in SPECS:
            n, S, T = workloads.parse_spec(spec)
            mirrored = workloads.spec_text(n, T, S)
            a, b = answer(spec), answer(mirrored)
            for key in ("S", "T"):
                a.pop(key), b.pop(key)
            with self.subTest(spec=spec):
                self.assertEqual(a, b)

    def test_sweep_specs_match_the_sweep(self):
        from toeplitz_periods.oracle import enumerate_specs

        lo, hi = workloads.SWEEP_ORDERS
        want = [str(s) for n in range(lo, hi + 1) for s in enumerate_specs(n)]
        self.assertEqual(workloads.sweep_specs(), want)


if __name__ == "__main__":
    unittest.main()
