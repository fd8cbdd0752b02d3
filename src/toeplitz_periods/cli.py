"""Command-line front end.

Subcommands:
  analyze    periods, competition data and walk-ensured status of one
             descriptor
  walksets   the three displacement sets at one walk length
  contract   DOT text of a descriptor's digraph contracted mod d
  sweep      cross-validation sweep over many descriptors

Descriptors are written "n=6;S=2,4;T=5" (whitespace ignored; an empty
side is written "T=" and is accepted where the subcommand can work
without it).  Exit codes: 0 success (for sweep: no violations),
1 violations found, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import IO, Optional

from .boolmat import from_toeplitz
from .digraph import Digraph, contract, to_dot
from .engine import analyze, predicted_limit
from .toeplitz import SpecFormatError, ToeplitzSpec
from .walksets import walksets_at

USAGE_ERROR = 2


def _open_out(path: Optional[str]):
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


def _parse_spec(text: str, *, need_both: bool) -> ToeplitzSpec:
    spec = ToeplitzSpec.from_string(text)
    if need_both and (not spec.S or not spec.T):
        raise SpecFormatError("this subcommand needs both S and T nonempty")
    return spec


def _cmd_analyze(args, out: IO[str]) -> int:
    spec = _parse_spec(args.spec, need_both=True)
    report = analyze(spec)
    pred = predicted_limit(spec)
    if report.limit_matrix is not None and pred is not None:
        matches: Optional[bool] = report.limit_matrix == pred
    else:
        matches = None
    cert = report.certificate
    payload = {
        "n": spec.n,
        "S": list(spec.S),
        "T": list(spec.T),
        "d": report.profile.d,
        "d_plus": report.profile.d_plus,
        "matrix_index": report.matrix_index,
        "matrix_period": report.matrix_period,
        "competition_index": report.competition_index,
        "competition_period": report.competition_period,
        "walk_ensured": report.walk_ensured,
        "certificate_rule": cert.rule.value if cert.rule is not None else None,
        "limit_matches_prediction": matches,
    }
    if args.json:
        out.write(json.dumps(payload) + "\n")
        return 0
    lines = [
        f"spec: {spec}",
        f"d: {report.profile.d}  d+: {report.profile.d_plus}",
        f"matrix index: {report.matrix_index}  matrix period: {report.matrix_period}",
        f"competition index: {report.competition_index}"
        f"  competition period: {report.competition_period}",
        f"walk-ensured: {str(report.walk_ensured).lower()}"
        f" (verdict={cert.verdict.value}"
        + (f", rule={cert.rule.value}" if cert.rule is not None else "")
        + (f", witness={cert.witness}" if cert.witness is not None else "")
        + ")",
        f"limit matches prediction: "
        + ("n/a" if matches is None else str(matches).lower()),
    ]
    out.write("\n".join(lines) + "\n")
    return 0


def _cmd_walksets(args, out: IO[str]) -> int:
    spec = _parse_spec(args.spec, need_both=True)
    if args.i < 1:
        raise SpecFormatError(f"walk length {args.i} is not positive")
    sets = walksets_at(spec, args.i)
    if args.json:
        payload = {
            "n": spec.n,
            "S": list(spec.S),
            "T": list(spec.T),
            "i": args.i,
            "P": sorted(sets.p),
            "Q": sorted(sets.q),
            "R": sorted(sets.r),
        }
        out.write(json.dumps(payload) + "\n")
        return 0
    lines = [
        f"spec: {spec}  i: {args.i}",
        f"P: {sorted(sets.p)}",
        f"Q: {sorted(sets.q)}",
        f"R: {sorted(sets.r)}",
    ]
    out.write("\n".join(lines) + "\n")
    return 0


def _cmd_contract(args, out: IO[str]) -> int:
    spec = _parse_spec(args.spec, need_both=False)
    g = Digraph(from_toeplitz(spec))
    if not 1 <= args.d <= spec.n:
        raise SpecFormatError(f"modulus {args.d} outside [1, {spec.n}]")
    out.write(to_dot(contract(g, args.d)))
    return 0


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    try:
        if sep:
            return int(lo), int(hi)
        return int(text), int(text)
    except ValueError:
        raise SpecFormatError(f"bad order range {text!r}") from None


def _cmd_sweep(args, out: IO[str]) -> int:
    # the sweep oracle is imported here, so the other commands never load it
    from . import oracle

    lo, hi = _parse_range(args.n)
    checks = None
    if args.checks is not None:
        checks = frozenset(name for name in args.checks.split(",") if name)
    try:
        config = oracle.SweepConfig(
            n_lo=lo,
            n_hi=hi,
            mode=args.mode,
            samples=args.samples,
            seed=args.seed,
            checks=checks,
        )
    except ValueError as exc:
        raise SpecFormatError(str(exc)) from None
    findings = oracle.run_sweep(config)
    out.write(oracle.render_report(findings, config))
    return 1 if any(f.severity == oracle.VIOLATION for f in findings) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toeplitz-periods",
        description="Periods and competition structure of Boolean Toeplitz matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze one descriptor")
    p.add_argument("spec", help='descriptor, e.g. "n=6;S=2,4;T=5"')
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--out", default=None, help="write output to this file")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("walksets", help="displacement sets at one length")
    p.add_argument("spec")
    p.add_argument("--i", type=int, required=True, help="walk length")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_walksets)

    p = sub.add_parser("contract", help="DOT of the digraph contracted mod d")
    p.add_argument("spec", help="descriptor; an empty side is allowed here")
    p.add_argument("--d", type=int, required=True, help="contraction modulus")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_contract)

    p = sub.add_parser("sweep", help="cross-validation sweep")
    p.add_argument("--n", required=True, help="order range a..b or a single order")
    p.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    p.add_argument("--samples", type=int, default=0, help="samples per order (random)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checks", default=None, help="comma-separated check names")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_sweep)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # --out is opened before the command runs, so a bad path fails fast
        with _open_out(args.out) as out:
            return args.fn(args, out)
    except SpecFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:  # only opening, writing or closing the output does I/O
        target = args.out or "standard output"
        print(f"error: cannot write {target}: {exc.strerror}", file=sys.stderr)
        return USAGE_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
