"""Run one blgi CLI invocation in this fresh process and write a timing report.

Usage: python child.py REPORT SPANS -- [ARGV...]

``SPANS`` is ``-`` for an untraced run, else the file the span records go
to.  The report holds ``ready`` (``time.monotonic()`` when ``import
blgi.cli`` returned; the parent subtracts its own spawn time), ``wall_s``
(time inside ``blgi.cli.main(argv)``), ``ru_maxrss`` and where ``blgi``
was imported from.  The process exits with the CLI's exit code.  With no
ARGV it imports, reports ``ready`` and exits.
"""

import time

import blgi.cli

READY = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    report_path, spans_path, separator, *argv = sys.argv[1:]
    if separator != "--":
        raise SystemExit("usage: child.py REPORT SPANS -- ARGV...")
    report = {"ready": READY}
    code = 0
    if argv:  # no argv: the parent is timing set-up alone
        tracer = None
        if spans_path != "-":
            from tracer import Tracer, instrument

            tracer = Tracer(run_id=f"{os.getpid()}-{READY}")
            instrument(tracer)
        start = time.perf_counter()
        if tracer is None:
            code = blgi.cli.main(argv)
        else:
            code = tracer.call("cli.main", blgi.cli.main, argv)
        wall_s = time.perf_counter() - start
        if tracer is not None:
            tracer.dump(spans_path)
        report.update(
            wall_s=wall_s,
            maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            blgi_file=blgi.__file__,
        )
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
