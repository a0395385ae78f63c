#!/usr/bin/env python3
"""Stress the classical bound with random hidden-variable strategies.

Runs ``blgi lhv --random`` (calibrated strategies, optionally with locally
invasive first measurements) and reports the largest and smallest means
seen together with ``blgi.sign_pattern_extrema()``, the exact extrema over
every local strategy at any hidden-state count.  The strategies are
exactly those ``blgi lhv --random`` checks at the same flags and seed.
Everything stays inside [-2, 2]; the quantum weak regime does not.
"""

import argparse
import contextlib
import csv
import io
import sys

from blgi import sign_pattern_extrema
from blgi.cli import main as blgi_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--strategies", type=int, default=2000)
    parser.add_argument("--shots", type=int, default=20_000)
    parser.add_argument("--hidden-states", type=int, default=4)
    parser.add_argument("--noise-sigma", type=float, default=1.0)
    parser.add_argument("--invasiveness", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()
    if args.strategies < 1:
        print(f"error: --strategies: expected a positive count, got {args.strategies}", file=sys.stderr)
        return 2

    # the CSV goes to stdout; one --flag=value token each, so a value such as -1e-05 parses
    with contextlib.redirect_stdout(io.StringIO()) as text:
        code = blgi_main([
            "lhv", f"--random={args.strategies}", f"--shots={args.shots}",
            f"--hidden-states={args.hidden_states}", f"--noise-sigma={args.noise_sigma}",
            f"--invasiveness={args.invasiveness}", f"--seed={args.seed}",
        ])
    # 2 and 3 printed their one error line and wrote nothing; 4 wrote its rows
    if code not in (0, 4):
        return code
    rows = list(csv.DictReader(line for line in text.getvalue().splitlines() if not line.startswith("#")))

    means = [float(row["mean"]) for row in rows]
    print(f"strategies checked: {args.strategies} x {args.shots} shots")
    print(f"largest mean seen:  {max(means):+.4f}")
    print(f"smallest mean seen: {min(means):+.4f}")
    low, high = sign_pattern_extrema()
    print(f"enumerated extrema: [{low}, {high}]")
    print(f"bound violations:   {sum(row['bound_ok'] == 'false' for row in rows)}")
    return code


if __name__ == "__main__":
    sys.exit(main())
