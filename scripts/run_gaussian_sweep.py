#!/usr/bin/env python3
"""Generate the pointer-meter correlator curves.

Sweeps the meter width sigma for each (eta, v) combination and writes one
CSV per curve.  The mean rises from 1/sqrt(2) in the strong-measurement
limit, crosses the classical bound 2 near sigma = 1.14, and approaches
2*sqrt(2) in the weak limit; eta only shifts where the rise happens while
v caps the attainable maximum at (1+v)^2/sqrt(2).
"""

import argparse
import sys
from pathlib import Path

from blgi.cli import main as blgi_main

SIGMA_VALUES = "0.25,0.35,0.5,0.7,1,1.4,2,2.8,4,5.7,8,11.3,16,32,100"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out/gaussian", type=Path)
    parser.add_argument("--shots", type=int, default=200_000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--threads", type=int, default=None, help="worker cap (default: blgi's, every usable CPU)")
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    for eta in (0.5, 1.0):
        for v in (0.8, 1.0):
            out = args.outdir / f"correlator_vs_sigma_eta{eta}_v{v}.csv"
            code = blgi_main([
                "sweep", "--meter", "gaussian", "--eta", str(eta), "--v", str(v),
                "--axis", "sigma", "--values", SIGMA_VALUES,
                "--shots", str(args.shots), "--seed", str(args.seed),
                "--out", str(out), "--manifest", str(out.with_suffix(".manifest.json")),
                *([] if args.threads is None else ["--threads", str(args.threads)]),
            ])
            if code != 0:
                return code
            print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
