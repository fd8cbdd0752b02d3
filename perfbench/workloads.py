"""Inputs of the benchmark workloads.

Each workload is a list of command-line argument vectors for
``toeplitz_periods.cli.main``.  The analyze workloads also expose their
descriptors, which the verifier and the traced run use.  Nothing here
imports the program, so input generation costs the same on every
commit.

analyze-random is drawn once from RANDOM_DRAW_SEED with the
distribution below; the workload seed then mirrors each descriptor
(S and T swapped) with probability 1/2 and shuffles the order.
Mirroring is the similarity J·A·J by the reversal permutation J, so
index, period, competition data and the walk-ensured verdict are
unchanged while the bytes the program sees differ.  A fresh draw per
seed is not used because the index has a heavy tail: over ten seeds,
120 fresh draws gave a quartile spread of about 50% of the median on
the pass time, wider than any bound the benchmark could hold.
"""

from __future__ import annotations

import random

WORKLOADS = ("analyze-worst", "analyze-random", "sweep-exhaustive")

WORST_ORDERS = (48, 64, 80)

RANDOM_DRAW_SEED = 0
RANDOM_COUNT = 120
RANDOM_N = (64, 160)
RANDOM_SIDE = (1, 3)

SWEEP_ORDERS = (2, 6)
SWEEP_ARGS = ["sweep", "--n", f"{SWEEP_ORDERS[0]}..{SWEEP_ORDERS[1]}"]


def spec_text(n: int, S, T) -> str:
    """Canonical descriptor text, offsets sorted as the program prints them."""
    s = ",".join(str(v) for v in sorted(S))
    t = ",".join(str(v) for v in sorted(T))
    return f"n={n};S={s};T={t}"


def parse_spec(text: str) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Inverse of spec_text."""
    fields = dict(part.split("=") for part in text.split(";"))
    ints = lambda v: tuple(int(x) for x in v.split(",")) if v else ()
    return int(fields["n"]), ints(fields["S"]), ints(fields["T"])


def worst_specs() -> list[str]:
    """T_n<1;n-2,n-1>: index (n-1)^2, the largest any order-n matrix has."""
    return [spec_text(n, (1,), (n - 2, n - 1)) for n in WORST_ORDERS]


def random_draw() -> list[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """The fixed draw: n uniform on RANDOM_N, |S|, |T| uniform on RANDOM_SIDE,
    offsets uniform on [1, n-1] without repetition within a side."""
    rng = random.Random(RANDOM_DRAW_SEED)
    out = []
    for _ in range(RANDOM_COUNT):
        n = rng.randint(*RANDOM_N)
        S = rng.sample(range(1, n), rng.randint(*RANDOM_SIDE))
        T = rng.sample(range(1, n), rng.randint(*RANDOM_SIDE))
        out.append((n, tuple(sorted(S)), tuple(sorted(T))))
    return out


def random_specs(seed: int) -> list[str]:
    rng = random.Random(seed)
    specs = []
    for n, S, T in random_draw():
        if rng.random() < 0.5:
            S, T = T, S
        specs.append(spec_text(n, S, T))
    rng.shuffle(specs)
    return specs


def sweep_specs() -> list[str]:
    """Every descriptor the exhaustive sweep visits, in its order."""
    out = []
    for n in range(SWEEP_ORDERS[0], SWEEP_ORDERS[1] + 1):
        sides = [
            tuple(v for v in range(1, n) if mask >> (v - 1) & 1)
            for mask in range(1, 1 << (n - 1))
        ]
        out.extend(spec_text(n, S, T) for S in sides for T in sides)
    return out


def specs_of(workload: str, seed: int) -> list[str]:
    """Descriptors of a workload; for the sweep, the ones it enumerates."""
    if workload == "analyze-worst":
        return worst_specs()
    if workload == "analyze-random":
        return random_specs(seed)
    if workload == "sweep-exhaustive":
        return sweep_specs()
    raise ValueError(f"unknown workload {workload!r}")


def calls_of(workload: str, seed: int) -> list[list[str]]:
    """The timed cli.main argument vectors of one pass."""
    if workload == "sweep-exhaustive":
        return [list(SWEEP_ARGS)]
    return [["analyze", spec, "--json"] for spec in specs_of(workload, seed)]
