#!/usr/bin/env python3
"""Generate the correlator-vs-meter-strength curves of both weak meters.

Runs ``blgi sweep`` once per curve and writes one CSV per curve, with its
manifest, under OUTDIR/gaussian and OUTDIR/ancilla.  The pointer meter sweeps
its width sigma for each (eta, v) combination: the mean rises from 1/sqrt(2)
in the strong-measurement limit, crosses the classical bound 2 near
sigma = 1.14, and approaches 2*sqrt(2) in the weak limit; eta only shifts
where the rise happens.  The ancilla meter sweeps the total visibility of its
coupling for each (u, v) combination: weak coupling (small visibility) drives
the mean toward 2*sqrt(2), and the readout visibility u rescales the
horizontal axis.  For both, v caps the attainable maximum at (1+v)^2/sqrt(2).
"""

import argparse
import sys
from pathlib import Path

from blgi.cli import main as blgi_main

SIGMA_VALUES = "0.25,0.35,0.5,0.7,1,1.4,2,2.8,4,5.7,8,11.3,16,32,100"
# times u, so the visibility grid stays below u; the last point is the
# strongest measurement the readout chain allows
VISIBILITY_FRACTIONS = (0.001, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.999)

#: meter type -> (the field each curve holds fixed, its levels, the swept axis,
#: the axis's values at a level, the file stem)
CURVES = {
    "gaussian": ("eta", (0.5, 1.0), "sigma", lambda eta: SIGMA_VALUES, "correlator_vs_sigma"),
    "ancilla": (
        "u", (0.8, 1.0), "v_total",
        lambda u: ",".join(str(round(f * u, 6)) for f in VISIBILITY_FRACTIONS),
        "correlator_vs_visibility",
    ),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out", type=Path)
    parser.add_argument("--shots", type=int, default=200_000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--threads", type=int, default=None, help="worker cap (default: blgi's, every usable CPU)")
    args = parser.parse_args()

    for meter, (field, levels, axis, values, stem) in CURVES.items():
        outdir = args.outdir / meter
        outdir.mkdir(parents=True, exist_ok=True)
        for level in levels:
            for v in (0.8, 1.0):
                out = outdir / f"{stem}_{field}{level}_v{v}.csv"
                code = blgi_main([
                    "sweep", "--meter", meter, f"--{field}", str(level), "--v", str(v),
                    "--axis", axis, "--values", values(level),
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
