"""Command-line front end: the subcommands analyze, walksets, contract and
sweep (see ``build_parser``).  The descriptor grammar, the outputs and the
exit codes are the contract that README's "Command line" section states.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from typing import IO, Optional

from .boolmat import from_toeplitz
from .digraph import contract, to_dot
from .engine import TheoremViolationError, analyze, predicted_limit
from .toeplitz import _INTEGER, SpecFormatError, ToeplitzSpec
from .walksets import walksets_at

USAGE_ERROR = 2
INTERNAL_ERROR = 3


def _open_out(path: Optional[str]):
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


def _parse_spec(text: str, *, need_both: bool) -> ToeplitzSpec:
    spec = ToeplitzSpec.from_string(text)
    if need_both and (not spec.S or not spec.T):
        raise SpecFormatError("this subcommand needs both S and T nonempty")
    if spec.n * ((spec.n + 7) // 8) > sys.maxsize:  # n rows of ceil(n/8) bytes, unaddressable
        raise SpecFormatError(f"order {spec.n} too large to build")
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
    if not 1 <= args.d <= spec.n:
        raise SpecFormatError(f"modulus {args.d} outside [1, {spec.n}]")
    out.write(to_dot(contract(from_toeplitz(spec), args.d)))
    return 0


def _integer(text: str) -> int:
    """An option's integer, read by the descriptor grammar (toeplitz._INTEGER)."""
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    bounds = (lo, hi) if sep else (text, text)
    if not all(map(_INTEGER.fullmatch, bounds)):
        raise SpecFormatError(f"bad order range {text!r}")
    return int(bounds[0]), int(bounds[1])


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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once and reused by each main call."""
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
    p.add_argument("--i", type=_integer, required=True, help="walk length")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_walksets)

    p = sub.add_parser("contract", help="DOT of the digraph contracted mod d")
    p.add_argument("spec", help="descriptor; an empty side is allowed here")
    p.add_argument("--d", type=_integer, required=True, help="contraction modulus")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_contract)

    p = sub.add_parser("sweep", help="cross-validation sweep")
    p.add_argument("--n", required=True, help="order range a..b or a single order")
    p.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    p.add_argument("--samples", type=_integer, default=0, help="samples per order (random)")
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--checks", default=None, help="comma-separated check names")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_sweep)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
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
    except TheoremViolationError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
