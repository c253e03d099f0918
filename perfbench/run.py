#!/usr/bin/env python3
"""Closed-loop benchmark of ``mimosel mc`` on three sweep workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_mc --seed 1234 --seconds 35 --trace 0

One client runs one ``mimosel mc`` process at a time, each on the same
generated config, and starts the next only after the previous one has
written its CSV, until ``--seconds`` have passed. Every output must be
byte-identical, free of NaN and failed cells, and, at the default seed, equal
to the digest in ``reference.json``. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced processes and reports
the per-layer metrics. The last line of stdout is the JSON result. See
README.md beside this file for the workloads and the metric map.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported, here and in every process started below.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import csv
import hashlib
import io
import json
import math
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracer import MODELED, SPAN_ID, SPAN_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1234
SWEEP_TIMEOUT_S = 120
# Trial times are pooled over this many traced sweeps, so that the tail
# percentile of a workload does not depend on how many sweeps fit in a run.
TAIL_SWEEPS = 8
# Untraced sweeps are paused this often to run probe(), and their times are
# scaled to a host on which one probe() takes PROBE_REF_S.
PROBE_PERIOD_S = 0.1
PROBE_REF_S = 0.005
ALL_ALGORITHMS = ("ssus", "sus", "gzf", "mcore_plus", "random", "exhaustive")

# Every workload uses p0 = -90 dBm, the default link budget and alpha = 0.45.
# Trial counts keep one sweep near two seconds on a 2-CPU machine, so a run
# holds several sweeps and reports medians.
WORKLOADS = {
    # The ROADMAP end-to-end config; the only workload through the pool.
    "paper_mc": dict(m=(4, 8), u=(20, 100), algorithms=("ssus", "sus", "gzf", "random"),
                     l=(10,), k_max=None, workers=2, trials=24),
    # Basis construction and the ss_us greedy loop; one ZF call per cell.
    "ssus_bases": dict(m=(8, 16), u=(100,), algorithms=("ssus", "sus", "random"),
                       l=(1, 10, 100), k_max=None, workers=1, trials=12),
    # Thousands of tiny (k <= 4) ZF factorisations and short trials.
    "oracle_small": dict(m=(4,), u=(10,), algorithms=ALL_ALGORITHMS,
                         l=(10,), k_max=4, workers=1, trials=50),
}

END_TO_END = {
    "cells_per_s": "1/s",
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {
        "channel.generate_iid_rayleigh.calls": "count",
        "channel.generate_iid_rayleigh.busy_ms": "ms",
        "seeding.stream.calls": "count",
        "seeding.stream.busy_ms": "ms",
        "numerics.gram_schmidt_extend.calls": "count",
        "numerics.gram_schmidt_extend.busy_ms": "ms",
        "metrics.zf_post_snr.calls": "count",
        "metrics.zf_post_snr.busy_ms": "ms",
        "metrics.zf_post_snr.us_per_call": "us",
        "metrics.zf_post_snr.singular_ratio": "ratio",
    }
    for algo in ALL_ALGORITHMS:
        units[f"selectors.{algo}.calls"] = "count"
        units[f"selectors.{algo}.busy_ms"] = "ms"
        units[f"selectors.{algo}.self_ms"] = "ms"
        units[f"selectors.{algo}.macs_per_call"] = "MAC"
    for algo in MODELED:
        units[f"selectors.{algo}.macs_over_model"] = "ratio"
    units.update({
        "harness.run_trial.calls": "count",
        "harness.run_trial.self_ms": "ms",
        "harness.trial_ms.p50": "ms",
        "harness.trial_ms.ptail": "ms",
        "harness.pool_overhead_s": "s",
        "harness.emit.busy_ms": "ms",
        "trace.overhead_ratio": "ratio",
    })
    return units


class SweepFailed(RuntimeError):
    """A ``mimosel mc`` process exited nonzero or timed out."""


@dataclass
class Sweep:
    # Intervals of the process with its pauses taken out; in an untraced run
    # they are scaled to the reference host (see probe()).
    setup_s: float
    sweep_s: float
    run_s: float
    raw_sweep_s: float
    probe_s: float | None
    rss_mb: float
    csv_text: str
    spans: dict | None


_PROBE_RNG = np.random.default_rng(0)
_PROBE_H = [_PROBE_RNG.standard_normal((m, m)) + 1j * _PROBE_RNG.standard_normal((m, m))
            for m in (4, 8, 4, 16)]


def probe(cpus: set[int]) -> float:
    """Mean seconds, over ``cpus``, of a fixed loop of small complex Gram
    products and Cholesky factorisations run on one CPU: the numpy work that
    dominates a mimosel trial, with none of mimosel's code.

    On a shared host the speed of each CPU drifts by up to 2x within seconds,
    independently of the other CPUs, and a process's CPU time drifts with its
    wall time. So in an untraced run the sweep process is paused every
    PROBE_PERIOD_S, the probe runs on each CPU the process may use, and each
    interval's time is scaled by PROBE_REF_S / the mean probe time within it.
    """
    times = []
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        total = 0.0
        # The first 64 rounds warm this CPU's caches and are not timed.
        for i in range(-64, 256):
            if i == 0:
                start = time.perf_counter()
            h = _PROBE_H[i & 3]
            gram = h @ h.conj().T + np.eye(len(h))
            total += np.linalg.cholesky(gram)[0, 0].real
        times.append(time.perf_counter() - start)
        assert math.isfinite(total)
    os.sched_setaffinity(0, cpus)
    return statistics.fmean(times)


def scaled(start: float, end: float, pauses: list, before: float | None) -> tuple[float, float]:
    """Return the seconds of [start, end] outside pauses, unscaled and scaled.

    The scale is PROBE_REF_S / the mean of the probes taken within the
    interval, or of ``before`` if none was. With ``before`` None (a run that
    is not probed) the two values are the same.
    """
    paused = sum(max(0.0, min(end, b) - max(start, a)) for a, b, _ in pauses)
    active = end - start - paused
    if before is None:
        return active, active
    inside = [p for a, _, p in pauses if start <= a < end]
    return active, active * PROBE_REF_S / statistics.fmean(inside or [before])


def config_text(workload: dict, seed: int, trials: int, workers: int) -> str:
    def lst(values):
        return "[" + ", ".join(str(v) for v in values) + "]"

    lines = [
        f"trials = {trials}",
        f"master_seed = {seed}",
        f"workers = {workers}",
        f"grid.m = {lst(workload['m'])}",
        f"grid.u = {lst(workload['u'])}",
        "grid.p0_dbm = [-90]",
        f"select.algorithms = {lst(workload['algorithms'])}",
        f"ssus.l = {lst(workload['l'])}",
        "ssus.alpha = [0.45]",
        "output.format = csv",
    ]
    if workload["k_max"] is not None:
        lines.append(f"select.k_max = {workload['k_max']}")
    return "\n".join(lines) + "\n"


def expected_rows(workload: dict) -> int:
    variants = sum(len(workload["l"]) if a == "ssus" else 1 for a in workload["algorithms"])
    return len(workload["m"]) * len(workload["u"]) * variants


def run_sweep(work_dir: Path, config: Path, index: int, traced: bool,
              cpus: set[int], probed: bool) -> Sweep:
    out = work_dir / f"out-{index}.csv"
    log = work_dir / f"log-{index}.txt"
    trace_dir = work_dir / f"trace-{index}" if traced else None
    cmd = [sys.executable, str(HERE / "child.py"), str(ROOT), str(config), str(out)]
    if trace_dir is not None:
        trace_dir.mkdir()
        cmd.append(str(trace_dir))
    before = probe(cpus) if probed else None
    pauses: list[tuple[float, float, float]] = []
    spawn = time.monotonic()
    with open(log, "w+", encoding="utf-8") as output:
        proc = subprocess.Popen(cmd, stdout=output, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            while True:
                try:
                    proc.wait(timeout=PROBE_PERIOD_S)
                    break
                except subprocess.TimeoutExpired:
                    pass
                if time.monotonic() - spawn > SWEEP_TIMEOUT_S:
                    raise SweepFailed(f"sweep {index} exceeded {SWEEP_TIMEOUT_S} s")
                if probed:
                    # The process group holds the mc process and its pool workers.
                    os.killpg(proc.pid, signal.SIGSTOP)
                    stopped = time.monotonic()
                    try:
                        probe_s = probe(cpus)
                    finally:
                        os.killpg(proc.pid, signal.SIGCONT)
                    pauses.append((stopped, time.monotonic(), probe_s))
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        output.seek(0)
        lines = output.read().strip().splitlines() or ["no output"]
    log.unlink()
    if proc.returncode != 0:
        raise SweepFailed(f"sweep {index} exited {proc.returncode}: {lines[-1]}")
    marks = json.loads(lines[-1])
    csv_text = out.read_text(encoding="utf-8")
    out.unlink()
    spans = None
    if trace_dir is not None:
        spans = load_spans(trace_dir)
        shutil.rmtree(trace_dir)
    raw_sweep_s, sweep_s = scaled(marks["sweep_start"], marks["sweep_end"], pauses, before)
    return Sweep(
        setup_s=scaled(spawn, marks["sweep_start"], pauses, before)[1],
        sweep_s=sweep_s,
        run_s=scaled(spawn, marks["output_written"], pauses, before)[1],
        raw_sweep_s=raw_sweep_s,
        probe_s=statistics.fmean([before] + [p for _, _, p in pauses]) if before else None,
        rss_mb=(marks["rss_self_kib"] + marks["rss_child_kib"]) / 1024.0,
        csv_text=csv_text,
        spans=spans,
    )


def check_output(text: str, workload: dict, trials: int) -> tuple[int, int, list[str]]:
    """Return (cells attempted, cells failed, problems) for one sweep's CSV.

    Failed cells are counted from outside, as configured trials minus the
    ``trials`` column, because the harness drops failed cells from its means.
    """
    rows = list(csv.DictReader(io.StringIO(text)))
    problems = []
    if len(rows) != expected_rows(workload):
        problems.append(f"{len(rows)} rows, expected {expected_rows(workload)}")
    attempted = trials * len(rows)
    failed = 0
    by_scenario: dict[str, dict[str, float]] = {}
    for row in rows:
        failed += trials - int(row["trials"])
        if not row["mean_se"] or math.isnan(float(row["mean_se"])):
            problems.append(f"mean_se missing or NaN in {row['scenario_id']} {row['algorithm']}")
            continue
        by_scenario.setdefault(row["scenario_id"], {})[
            f"{row['algorithm']}{row['L']}"] = float(row["mean_se"])
    for scenario, means in by_scenario.items():
        # Cells are paired per trial and scored bit-for-bit alike, so no mean
        # may exceed the exhaustive oracle's.
        oracle = means.get("exhaustive")
        if oracle is not None and any(v > oracle for v in means.values()):
            problems.append(f"a heuristic beats the exhaustive oracle in {scenario}")
    if failed:
        problems.append(f"{failed} of {attempted} cells failed")
    return attempted, failed, problems


def load_spans(trace_dir: Path) -> dict:
    """Per-name call counts, MACs and times of one traced sweep."""
    parts = []
    for path in sorted(trace_dir.glob("spans-*.npy")):
        rows = np.load(path)
        name, start, end, parent, raised, macs, model = rows.T
        dur = end - start
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(rows))
        parts.append(np.column_stack([name, dur, dur - child, raised, macs, model]))
    rows = np.concatenate(parts) if parts else np.zeros((0, 6))
    name = rows[:, 0].astype(np.int64)
    n = len(SPAN_NAMES)

    def per_name(col):
        return np.bincount(name, weights=rows[:, col], minlength=n)

    return {
        "calls": np.bincount(name, minlength=n).astype(np.int64),
        "busy_ns": per_name(1),
        "self_ns": per_name(2),
        "raised": per_name(3).astype(np.int64),
        "macs": per_name(4).astype(np.int64),
        "model": per_name(5).astype(np.int64),
        "trial_ns": rows[name == SPAN_ID["harness.run_trial"], 1],
    }


def tail_percentile(samples: int) -> float:
    """Highest of a fixed ladder of percentiles with >= 10 samples beyond it."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if samples * (100.0 - pct) / 100.0 >= 10:
            return pct
    return 50.0


def layer_metrics(traced: list[Sweep], untraced: list[Sweep], workers: int,
                  trials_per_sweep: int) -> tuple[dict[str, float], list[str]]:
    stats = [s.spans for s in traced]
    problems = []
    first = stats[0]
    for other in stats[1:]:
        for key in ("calls", "raised", "macs", "model"):
            if not np.array_equal(first[key], other[key]):
                problems.append(f"traced {key} counts differ between sweeps")
    run_trial = SPAN_ID["harness.run_trial"]
    if first["calls"][run_trial] != trials_per_sweep:
        problems.append(f"traced {first['calls'][run_trial]} trials, expected {trials_per_sweep}")

    def ms(key, span):
        return statistics.median(s[key][SPAN_ID[span]] for s in stats) / 1e6

    def calls(span):
        return int(first["calls"][SPAN_ID[span]])

    out: dict[str, float] = {}
    for span in ("channel.generate_iid_rayleigh", "seeding.stream",
                 "numerics.gram_schmidt_extend", "metrics.zf_post_snr"):
        out[f"{span}.calls"] = calls(span)
        out[f"{span}.busy_ms"] = ms("busy_ns", span)
    zf = SPAN_ID["metrics.zf_post_snr"]
    zf_calls = calls("metrics.zf_post_snr")
    out["metrics.zf_post_snr.us_per_call"] = (
        out["metrics.zf_post_snr.busy_ms"] * 1e3 / zf_calls if zf_calls else 0.0)
    out["metrics.zf_post_snr.singular_ratio"] = (
        int(first["raised"][zf]) / zf_calls if zf_calls else 0.0)
    for algo in ALL_ALGORITHMS:
        span = f"selectors.{algo}"
        n = calls(span)
        out[f"{span}.calls"] = n
        out[f"{span}.busy_ms"] = ms("busy_ns", span)
        out[f"{span}.self_ms"] = ms("self_ns", span)
        out[f"{span}.macs_per_call"] = int(first["macs"][SPAN_ID[span]]) / n if n else 0.0
        if algo in MODELED:
            model = int(first["model"][SPAN_ID[span]])
            out[f"{span}.macs_over_model"] = (
                int(first["macs"][SPAN_ID[span]]) / model if model else 0.0)
    out["harness.run_trial.calls"] = calls("harness.run_trial")
    out["harness.run_trial.self_ms"] = ms("self_ns", "harness.run_trial")
    trial_ms = np.concatenate([s["trial_ns"] for s in stats[:TAIL_SWEEPS]]) / 1e6
    pct = tail_percentile(len(trial_ms))
    print(f"trial_ms ptail is p{pct:g} of {len(trial_ms)} trials in {TAIL_SWEEPS} traced sweeps")
    out["harness.trial_ms.p50"] = float(np.percentile(trial_ms, 50))
    out["harness.trial_ms.ptail"] = float(np.percentile(trial_ms, pct))
    out["harness.pool_overhead_s"] = statistics.median(
        sweep.sweep_s - s["busy_ns"][run_trial] / 1e9 / workers
        for sweep, s in zip(traced, stats))
    out["harness.emit.busy_ms"] = ms("busy_ns", "harness.emit")
    out["trace.overhead_ratio"] = (
        statistics.median(s.sweep_s for s in traced)
        / statistics.median(s.sweep_s for s in untraced))
    return out, problems


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mimosel").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="master seed of the generated config")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for this long (the last sweep runs to its end)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trials", type=int,
                        help="override the workload's trial count (for quick checks)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Let SIGTERM unwind, so that a running sweep process group is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "mimosel" / "__init__.py").is_file():
        print(f"error: no mimosel package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment()
    trials = args.trials or workload["trials"]
    workers = min(workload["workers"], env["nproc"])
    # The sweep process and its pool workers run on these CPUs only, so that
    # probe() measures the CPUs the sweep uses.
    cpus = set(sorted(os.sched_getaffinity(0))[:workers])
    os.sched_setaffinity(0, cpus)
    cells_per_sweep = trials * expected_rows(workload)
    points = len(workload["m"]) * len(workload["u"])
    reference = json.loads((HERE / "reference.json").read_text()).get(args.workload, {})
    checked = reference.get("seed") == args.seed and reference.get("trials") == trials

    work_dir = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        config = work_dir / "experiment.cfg"
        config.write_text(config_text(workload, args.seed, trials, workers), encoding="utf-8")
        # Compile the package's bytecode once, as an installed package has it.
        subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]);"
                        " import mimosel.cli", str(ROOT / "src")],
                       timeout=SWEEP_TIMEOUT_S)
        print(f"env {json.dumps(env)}")
        print(f"workload {args.workload} seed {args.seed} trials {trials} workers {workers} "
              f"cells_per_sweep {cells_per_sweep} trace {args.trace}")

        untraced: list[Sweep] = []
        traced: list[Sweep] = []
        digests: set[str] = set()
        problems: list[str] = []
        attempted = failed = 0
        start = time.monotonic()
        while not (time.monotonic() - start >= args.seconds and untraced
                   and (len(traced) >= TAIL_SWEEPS or not args.trace)):
            trace_this = bool(args.trace) and len(traced) < len(untraced)
            try:
                # Spans would count pauses as busy time, so a traced run,
                # whose untraced sweeps only give trace.overhead_ratio, is
                # not probed.
                sweep = run_sweep(work_dir, config, len(untraced) + len(traced), trace_this,
                                  cpus, probed=not args.trace)
            except SweepFailed as exc:
                problems.append(str(exc))
                attempted += cells_per_sweep
                failed += cells_per_sweep
                break
            (traced if trace_this else untraced).append(sweep)
            print(f"sweep traced {int(trace_this)} setup_s {sweep.setup_s:.4f} "
                  f"sweep_s {sweep.sweep_s:.4f} run_s {sweep.run_s:.4f} "
                  f"rss_mb {sweep.rss_mb:.1f} unscaled_sweep_s {sweep.raw_sweep_s:.4f} "
                  f"probe_s {sweep.probe_s}", flush=True)
            digests.add(hashlib.sha256(sweep.csv_text.encode("utf-8")).hexdigest())
            a, f, issues = check_output(sweep.csv_text, workload, trials)
            attempted += a
            failed += f
            problems.extend(issues)

        if len(digests) > 1:
            problems.append(f"{len(digests)} distinct outputs for one config")
        digest = min(digests) if digests else ""
        if checked and digest != reference.get("sha256"):
            problems.append(f"digest {digest} differs from reference {reference.get('sha256')}")
        status = ("match" if checked and digest == reference.get("sha256")
                  else "mismatch" if checked else "unchecked")
        print(f"digest {args.workload} seed {args.seed} trials {trials} sha256 {digest} "
              f"reference {status}")

        metrics: dict[str, dict] = {}
        if untraced and (len(traced) >= TAIL_SWEEPS or not args.trace):
            if args.trace:
                values, issues = layer_metrics(traced, untraced, workers, trials * points)
                problems.extend(issues)
                units = per_layer_units()
            else:
                values = {
                    "cells_per_s": statistics.median(
                        cells_per_sweep / s.sweep_s for s in untraced),
                    "run_s": statistics.median(s.run_s for s in untraced),
                    "setup_s": statistics.median(s.setup_s for s in untraced),
                    "peak_rss_mb": statistics.median(s.rss_mb for s in untraced),
                }
                print(f"unscaled median cells_per_s "
                      f"{statistics.median(cells_per_sweep / s.raw_sweep_s for s in untraced)} "
                      f"probe_s {statistics.median(s.probe_s for s in untraced)}")
                units = END_TO_END
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in units.items()}
        for name, entry in metrics.items():
            print(f"metric {name} {entry['value']} {entry['unit']}")
        print(f"sweeps untraced {len(untraced)} traced {len(traced)}")
        print(f"failed_cell_ratio {failed / attempted if attempted else 0.0} "
              f"({failed} of {attempted} cells)")
        for problem in dict.fromkeys(problems):
            print(f"problem {problem}")
        correct = not problems
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
