#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the blgi command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every timed run starts a fresh interpreter (``perfbench/child.py``) that
imports ``blgi.cli`` from ``src/`` and calls ``blgi.cli.main(argv)``, as a
user's CLI run does.  One child runs at a time, so the load is a closed
loop with a single client; children are started until ``--seconds`` have
passed.  The seed goes to the program only as ``--seed``, so every child
of one run produces the same output bytes.

``--trace 0`` prints the end-to-end metrics (medians over the children).
``--trace 1`` alternates untraced and traced children and prints the
per-layer metrics derived from the traced children's spans, plus the
import-time breakdown and the thread-invariance check.

Every child's output is checked (see ``check_*``); a child that exits
non-zero, prints a traceback or fails a check counts as failed.  The last
line of standard output is the JSON result; the full result, with the
environment block, per-child samples and output hashes, is written to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

CHUNK_SHOTS = 1 << 16
# the 15-point sigma ladder of the paper's figure (scripts/run_gaussian_sweep.py)
SIGMA_LADDER = "0.25,0.35,0.5,0.7,1,1.4,2,2.8,4,5.7,8,11.3,16,32,100"
LHV_STRATEGIES = 200
LHV_SHOTS = 100_000

MIN_CHILDREN = 3
MIN_TRACED = 2
SETUP_SAMPLES = 15
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 150
MC_SIGMAS = 5.0
EXACT_TOL = 1e-6
RECORDS_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # which output check applies: simulate, sweep or lhv
    args: tuple[str, ...]
    shots: int  # Monte-Carlo shots requested (quantum or LHV), for shots_per_s
    rows: int = 1
    records: bool = False
    manifest: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        # Monte-Carlo path: gaussian batch kernels, RNG, reduction, 2-thread pool;
        # eta < 1 also runs the stochastic phase-flip branch
        Workload(
            "simulate_mc",
            "simulate",
            ("simulate", "--meter", "gaussian", "--sigma", "10", "--eta", "0.5",
             "--threads", "2", "--shots", str(64 * CHUNK_SHOTS)),
            shots=64 * CHUNK_SHOTS,
        ),
        # per-shot records writer in cli; the only workload on the ancilla kernel
        Workload(
            "simulate_records",
            "simulate",
            ("simulate", "--meter", "ancilla", "--v-total", "0.6", "--u", "0.9",
             "--shots", str(8 * CHUNK_SHOTS)),
            shots=8 * CHUNK_SHOTS,
            records=True,
        ),
        # the paper's figure: exact_mean's quadrature ladder dominates; the
        # manifest exercises config
        Workload(
            "sweep_exact",
            "sweep",
            ("sweep", "--meter", "gaussian", "--eta", "0.5", "--v", "0.8",
             "--axis", "sigma", "--values", SIGMA_LADDER, "--shots", str(CHUNK_SHOTS)),
            shots=15 * CHUNK_SHOTS,
            rows=15,
            manifest=True,
        ),
        # hidden-variable engine only: no quantum kernel and no exact_mean, so
        # it is the control for changes to those
        Workload(
            "lhv_random",
            "lhv",
            ("lhv", "--random", str(LHV_STRATEGIES), "--hidden-states", "4",
             "--invasiveness", "0.3", "--shots", str(LHV_SHOTS)),
            shots=LHV_STRATEGIES * LHV_SHOTS,
            rows=LHV_STRATEGIES,
        ),
    )
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "shots_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "pass_ratio": "ratio",
}


# ---------------------------------------------------------------------------
# Children.
# ---------------------------------------------------------------------------


@dataclass
class Child:
    ok: bool
    reason: str = ""
    wall_s: float = math.nan
    setup_s: float = math.nan
    peak_rss_mb: float = math.nan
    hashes: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    records_bytes: int = 0
    out_bytes: bytes = b""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def argv_for(workload: Workload, seed: int, tmp: Path, threads: str | None = None) -> list[str]:
    args = list(workload.args)
    if threads is not None:
        args[args.index("--threads") + 1] = threads
    argv = [*args, "--seed", str(seed), "--out", str(tmp / "out.csv")]
    if workload.records:
        argv += ["--records", str(tmp / "records.csv")]
    if workload.manifest:
        argv += ["--manifest", str(tmp / "manifest.json")]
    return argv


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _spawn(tmp: Path, argv: list[str], spans: str = "-") -> tuple[subprocess.CompletedProcess, float]:
    """Run ``child.py`` to completion; returns the process and its spawn time."""
    (tmp / "report.json").unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(tmp / "report.json"), spans, "--", *argv]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          timeout=CHILD_TIMEOUT_S)
    return proc, spawned


def setup_sample(tmp: Path) -> float:
    """Seconds from spawning a child until its ``import blgi.cli`` returned."""
    proc, spawned = _spawn(tmp, [])
    if proc.returncode != 0:
        return math.nan
    return json.loads((tmp / "report.json").read_text(encoding="utf-8"))["ready"] - spawned


def run_child(workload: Workload, argv: list[str], tmp: Path, traced: bool, memo: dict) -> Child:
    for name in ("out.csv", "records.csv", "manifest.json", "spans.jsonl"):
        (tmp / name).unlink(missing_ok=True)
    report_path, spans_path = tmp / "report.json", tmp / "spans.jsonl"
    try:
        proc, spawned = _spawn(tmp, argv, str(spans_path) if traced else "-")
    except subprocess.TimeoutExpired:
        return Child(ok=False, reason=f"timed out after {CHILD_TIMEOUT_S} s")
    stderr = proc.stderr.decode("utf-8", "replace")
    if proc.returncode != 0:
        return Child(ok=False, reason=f"exit code {proc.returncode}: {stderr.strip()[-500:]}")
    if "Traceback (most recent call last)" in stderr:
        return Child(ok=False, reason=f"traceback on stderr: {stderr.strip()[-500:]}")
    report = json.loads(report_path.read_text(encoding="utf-8"))
    if not Path(report["blgi_file"]).resolve().is_relative_to(SRC.resolve()):
        return Child(ok=False, reason=f"blgi imported from {report['blgi_file']}, not {SRC}")
    child = Child(
        ok=True,
        wall_s=report["wall_s"],
        setup_s=report["ready"] - spawned,
        peak_rss_mb=report["maxrss_kb"] / 1024.0,
    )
    outputs = ("out.csv", "records.csv") if workload.records else ("out.csv",)
    for name in outputs:
        if not (tmp / name).is_file():
            return Child(ok=False, reason=f"no {name} written")
        child.hashes[name] = sha256(tmp / name)
    child.out_bytes = (tmp / "out.csv").read_bytes()
    if workload.records:
        child.records_bytes = (tmp / "records.csv").stat().st_size
    error = CHECKS[workload.kind](workload, tmp, child, memo)
    if error:
        child.ok, child.reason = False, error
    if traced:
        for line in spans_path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            if "counts" in record:
                child.counts = record["counts"]
            else:
                child.spans.append(record)
    return child


# ---------------------------------------------------------------------------
# Output checks: each returns "" when the output is correct, else the reason.
# ``memo`` carries verdicts between the children of one run.
# ---------------------------------------------------------------------------


def _rows(text: str, header: str) -> list[list[str]] | str:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    if not lines or lines[0] != header:
        return f"expected header {header!r}, got {lines[:1]!r}"
    return list(csv.reader(io.StringIO("\n".join(lines[1:]))))


def _check_estimate(row: list[float], where: str) -> str:
    mean, stderr, exact, analytic = row
    if not all(math.isfinite(x) for x in row):
        return f"{where}: non-finite value in {row}"
    if abs(mean - exact) > MC_SIGMAS * stderr:
        return f"{where}: |mc - exact| = {abs(mean - exact):.3g} > {MC_SIGMAS} * stderr {stderr:.3g}"
    if abs(exact - analytic) > EXACT_TOL:
        return f"{where}: |exact - analytic| = {abs(exact - analytic):.3g} > {EXACT_TOL}"
    return ""


def check_simulate(workload: Workload, tmp: Path, child: Child, memo: dict) -> str:
    rows = _rows(child.out_bytes.decode("utf-8"), "mean,stderr,exact,analytic,violation")
    if isinstance(rows, str):
        return rows
    if len(rows) != 1:
        return f"expected one summary row, got {len(rows)}"
    row = [float(x) for x in rows[0][:4]]
    error = _check_estimate(row, "simulate")
    if error or not workload.records:
        return error
    # identical bytes get the same verdict, so the 23 MB file is parsed once per run
    key = (child.hashes["records.csv"], row[0])
    if key not in memo:
        memo[key] = _check_records(tmp / "records.csv", workload.shots, row[0])
    return memo[key]


def _check_records(path: Path, shots: int, reported_mean: float) -> str:
    import numpy as np

    with open(path, encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n")
        if header != "alpha1,alpha2,b1,b2":
            return f"records header {header!r}"
        data = np.loadtxt(handle, delimiter=",", ndmin=2)
    if data.shape != (shots, 4):
        return f"records: expected {shots} rows of 4 columns, got shape {data.shape}"
    a1, a2, b1, b2 = data.T
    mean = float((a1 * a2 + a1 * b2 + b1 * a2 - b1 * b2).sum() / shots)
    if abs(mean - reported_mean) > RECORDS_RTOL * abs(reported_mean):
        return f"records mean {mean!r} differs from the reported mean {reported_mean!r}"
    return ""


def check_sweep(workload: Workload, tmp: Path, child: Child, memo: dict) -> str:
    rows = _rows(child.out_bytes.decode("utf-8"), "value,mc_mean,mc_stderr,exact,analytic")
    if isinstance(rows, str):
        return rows
    if len(rows) != workload.rows:
        return f"expected {workload.rows} sweep rows, got {len(rows)}"
    for row in rows:
        error = _check_estimate([float(x) for x in row[1:5]], f"sweep value {row[0]}")
        if error:
            return error
    try:
        manifest = json.loads((tmp / "manifest.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        return f"manifest unreadable: {exc}"
    if manifest.get("command") != "sweep":
        return f"manifest command {manifest.get('command')!r}"
    return ""


def check_lhv(workload: Workload, tmp: Path, child: Child, memo: dict) -> str:
    rows = _rows(child.out_bytes.decode("utf-8"), "strategy,mean,stderr,bound_ok,calibration_ok")
    if isinstance(rows, str):
        return rows
    if len(rows) != workload.rows:
        return f"expected {workload.rows} strategy rows, got {len(rows)}"
    for row in rows:
        if row[3:5] != ["true", "true"]:
            return f"strategy {row[0]}: bound_ok={row[3]} calibration_ok={row[4]}"
    return ""


CHECKS = {"simulate": check_simulate, "sweep": check_sweep, "lhv": check_lhv}


# ---------------------------------------------------------------------------
# Per-layer metrics from spans.
# ---------------------------------------------------------------------------


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> its length minus the union of its child spans (clipped to it)."""
    by_id = {s["id"]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None:
            children[parent["id"]].append((max(s["start"], parent["start"]), min(s["end"], parent["end"])))
    return {
        s["id"]: (s["end"] - s["start"]) - _union_length(children[s["id"]])
        for s in spans
    }


def layer_metrics(child: Child) -> dict[str, float]:
    """Per-layer metrics of one traced child; times in ms per 65536-shot chunk
    unless the name says otherwise (per call, per strategy, per run)."""
    own = self_times(child.spans)
    self_s, dur_s, calls = defaultdict(float), defaultdict(float), Counter()
    for s in child.spans:
        self_s[s["name"]] += own[s["id"]]
        dur_s[s["name"]] += s["end"] - s["start"]
        calls[s["name"]] += 1
    counts = child.counts
    chunks = counts.get("protocol.chunks", 0)

    def per_chunk(seconds: float) -> float:
        return 1000.0 * seconds / chunks if chunks else 0.0

    def per_call(name: str) -> float:
        return 1000.0 * dur_s[name] / calls[name] if calls[name] else 0.0

    m = {}
    for family in ("gaussian_batch", "ancilla_batch", "projective_batch"):
        for arm in (1, 2):
            m[f"measurement.{family}.arm{arm}_ms"] = per_chunk(self_s[f"measurement.{family}.arm{arm}"])
    m["measurement.bell_coefficients_ms"] = per_chunk(self_s["measurement.bell_coefficients"])
    m["measurement.rng_ms"] = per_chunk(self_s["measurement.rng"])
    m["measurement.rng_draws"] = counts.get("measurement.rng_draws", 0)
    m["protocol.monte_carlo_self_ms"] = per_chunk(self_s["protocol.monte_carlo"])
    m["protocol.chunks"] = chunks
    m["protocol.exact_mean_ms"] = per_call("protocol.exact_mean")
    m["protocol.exact_mean_passes"] = (
        counts.get("protocol.integrate_mean_calls", 0) / calls["protocol.exact_mean"]
        if calls["protocol.exact_mean"] else 0.0
    )
    m["protocol.iter_records_ms"] = per_chunk(self_s["protocol.iter_records"])
    m["cli.records_write_ms"] = per_chunk(self_s["cli.cmd_simulate"])
    m["cli.records_bytes"] = child.records_bytes
    m["cli.self_ms"] = 1000.0 * self_s["cli.main"]
    m["config.manifest_ms"] = 1000.0 * dur_s["config.manifest"]
    for name in ("lhv_mean", "calibration_check", "random_strategy"):
        m[f"lhv.{name}_ms"] = per_call(f"lhv.{name}")
    m["qmath.analyzer_basis_calls"] = counts.get("qmath.analyzer_basis_calls", 0)
    wall = dur_s["cli.main"]
    m["trace.wall_ms"] = 1000.0 * wall
    # summed self time over the traced wall: 1 when one thread does all the
    # work, above 1 by the busy time of the pool's second worker
    m["trace.coverage"] = sum(self_s.values()) / wall if wall else 0.0
    return m


PER_LAYER_UNITS = {
    **{f"measurement.{f}.arm{a}_ms": "ms"
       for f in ("gaussian_batch", "ancilla_batch", "projective_batch") for a in (1, 2)},
    "measurement.bell_coefficients_ms": "ms",
    "measurement.rng_ms": "ms",
    "measurement.rng_draws": "count",
    "protocol.monte_carlo_self_ms": "ms",
    "protocol.chunks": "count",
    "protocol.scaling_eff": "ratio",
    "protocol.threads_identical": "bool",
    "protocol.exact_mean_ms": "ms",
    "protocol.exact_mean_passes": "count",
    "protocol.iter_records_ms": "ms",
    "cli.records_write_ms": "ms",
    "cli.records_bytes": "count",
    "cli.self_ms": "ms",
    "config.manifest_ms": "ms",
    "lhv.lhv_mean_ms": "ms",
    "lhv.calibration_check_ms": "ms",
    "lhv.random_strategy_ms": "ms",
    "qmath.analyzer_basis_calls": "count",
    "setup.numpy_ms": "ms",
    "setup.scipy_ms": "ms",
    "setup.blgi_ms": "ms",
    "trace.overhead": "ratio",
    "trace.wall_ms": "ms",
    "trace.coverage": "ratio",
}


def import_breakdown() -> dict[str, float]:
    """Cumulative import times of numpy, scipy and blgi from ``-X importtime``."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import blgi.cli"]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    entries = []  # (depth, name, cumulative_us) in the order printed: children first
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(cumulative)))
    # a module's cumulative time counts once, for the outermost package that
    # owns it; numpy modules first imported by scipy count as scipy's
    owners = {"numpy": {"numpy", "scipy"}, "scipy": {"scipy"}, "blgi": {"blgi"}}
    totals = dict.fromkeys(owners, 0)
    ancestors: dict[int, str] = {}
    for depth, name, cumulative in reversed(entries):
        ancestors[depth] = name.split(".")[0]
        package = ancestors[depth]
        if package in owners and not owners[package] & {ancestors[d] for d in range(depth)}:
            totals[package] += cumulative
    return {f"setup.{package}_ms": us / 1000.0 for package, us in totals.items()}


# ---------------------------------------------------------------------------
# Environment.
# ---------------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return ""


def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment(seed: int) -> dict:
    cpu_model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor() or None,
    )
    digest = hashlib.sha256()
    for path in sorted((SRC / "blgi").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "l3_cache": _read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip() or None,
        "loadavg_1min_start": os.getloadavg()[0],
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# Runs.
# ---------------------------------------------------------------------------


def _median(values: list[float]) -> float:
    values = [v for v in values if math.isfinite(v)]
    return statistics.median(values) if values else math.nan


def _summary(values: list[float]) -> dict:
    values = [v for v in values if math.isfinite(v)]
    if not values:
        return {"n": 0}
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "median": statistics.median(values), "q1": quartiles[0],
            "q3": quartiles[2], "min": min(values), "max": max(values), "values": values}


def end_to_end(workload: Workload, children: list[Child], setups: list[float]) -> dict[str, float]:
    ok = [c for c in children if c.ok]
    return {
        "wall_s": _median([c.wall_s for c in ok]),
        "setup_s": _median(setups),
        "shots_per_s": _median([workload.shots / c.wall_s for c in ok]),
        "peak_rss_mb": _median([c.peak_rss_mb for c in ok]),
        "pass_ratio": len(ok) / len(children),
    }


def measure(workload: Workload, seed: int, seconds: float, tmp: Path, trace: bool) -> tuple[dict, list[Child], dict]:
    memo: dict = {}
    children: list[Child] = []
    extra: dict = {}
    per_layer: dict[str, float] = {}
    argv = argv_for(workload, seed, tmp)
    if trace:
        imports = [import_breakdown() for _ in range(IMPORTTIME_REPEATS)]
        per_layer.update({k: _median([i[k] for i in imports]) for k in imports[0]})
        per_layer.update(thread_check(seed, tmp, children))
    deadline = time.monotonic() + seconds
    traced, untraced = [], []
    while True:
        want_traced = trace and len(traced) < len(untraced)
        child = run_child(workload, argv, tmp, want_traced, memo)
        children.append(child)
        (traced if want_traced else untraced).append(child)
        enough = len(untraced) >= MIN_CHILDREN and (not trace or len(traced) >= MIN_TRACED)
        if time.monotonic() >= deadline and enough:
            break
    if trace:
        layers = [layer_metrics(c) for c in traced if c.ok]
        for key, unit in PER_LAYER_UNITS.items():
            if key in per_layer or not layers or key not in layers[0]:
                continue
            values = [m[key] for m in layers]
            if unit == "count":
                # counts are deterministic: report the first, record whether all agree
                per_layer[key] = values[0]
                extra.setdefault("counts_repeat", {})[key] = len(set(values)) == 1
            else:
                per_layer[key] = _median(values)
        per_layer["trace.overhead"] = (
            _median([c.wall_s for c in traced if c.ok]) / _median([c.wall_s for c in untraced if c.ok])
        )
        metrics = {k: (per_layer.get(k, math.nan), unit) for k, unit in PER_LAYER_UNITS.items()}
        extra["traced_wall_s"] = _summary([c.wall_s for c in traced if c.ok])
    else:
        # the few long children of a run leave set-up time noisy: top it up
        # with children that only import
        setups = [c.setup_s for c in untraced if c.ok]
        while len(setups) < SETUP_SAMPLES:
            setups.append(setup_sample(tmp))
        extra["setup_s"] = _summary(setups)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(workload, children, setups).items()}
    for name in ("wall_s", "peak_rss_mb"):
        extra[name] = _summary([getattr(c, name) for c in untraced if c.ok])
    return metrics, children, extra


def thread_check(seed: int, tmp: Path, children: list[Child]) -> dict[str, float]:
    """The simulate_mc config at --threads 1 and 2: identical bytes, and monte_carlo's scaling."""
    workload = WORKLOADS["simulate_mc"]
    memo: dict = {}
    runs = [run_child(workload, argv_for(workload, seed, tmp, threads=threads), tmp, True, memo)
            for threads in ("1", "2")]
    children.extend(runs)
    one, two = runs
    if not (one.ok and two.ok):
        return {"protocol.threads_identical": 0, "protocol.scaling_eff": math.nan}

    def mc_seconds(child: Child) -> float:
        return sum(s["end"] - s["start"] for s in child.spans if s["name"] == "protocol.monte_carlo")

    identical = one.out_bytes == two.out_bytes
    if not identical:
        # the Philox (seed, chunk) keying promises the same bytes for any --threads
        two.ok, two.reason = False, "--threads 2 output differs from --threads 1"
    return {
        "protocol.threads_identical": int(identical),
        "protocol.scaling_eff": mc_seconds(one) / (2.0 * mc_seconds(two)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64:
        parser.error(f"--seed must be in [0, 2**64), got {args.seed}")
    if not (SRC / "blgi" / "cli.py").is_file():
        print(f"error: no blgi source tree at {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    env = environment(args.seed)
    tmp = OUT / f"tmp-{workload.name}-{args.seed}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        # compile the bytecode caches once: users do not pay that on every run
        warm = subprocess.run([sys.executable, "-c", "import blgi.cli"], cwd=ROOT, env=child_env(),
                              timeout=CHILD_TIMEOUT_S, capture_output=True, text=True)
        if warm.returncode != 0:
            print(f"error: cannot import blgi.cli:\n{warm.stderr}", file=sys.stderr)
            return 3
        metrics, children, extra = measure(workload, args.seed, args.seconds, tmp, bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    env["loadavg_1min_end"] = os.getloadavg()[0]

    failed = [c for c in children if not c.ok]
    hashes = [c.hashes for c in children if c.hashes]
    result = {
        "correct": not failed,
        "attempted": len(children),
        "failed": len(failed),
        # a metric no child could measure (every one failed) is null, not NaN
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    details = {
        "workload": workload.name,
        "argv": argv_for(workload, args.seed, Path("<tmp>")),
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": env,
        "samples": extra,
        "output_sha256": [h for i, h in enumerate(hashes) if h not in hashes[:i]],
        "failures": [c.reason for c in failed],
        "result": result,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(details, indent=2) + "\n", encoding="utf-8")
    for reason in details["failures"]:
        print(f"FAILED: {reason}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>16.6g} {unit}")
    print(f"details: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
