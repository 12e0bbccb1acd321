"""Run one benchmark workload against the live SSI and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload oneshot-mix --seed 1 --seconds 17 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; set-up runs
once in this process and again in fresh processes, and ``setup_s`` is the
median. The timed phase runs in segments; between them, untimed, the
answers so far are checked and the fresh-process set-ups run, so the
samples span more of the host's slow and fast spells. ``--trace 1`` runs
the same workload in two halves, untraced then traced, and reports the
per-layer metrics of the traced half plus the tracing overhead between
the two. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the full record (provenance, the workload's own metric names, the ledger,
delta accounting) goes to ``perfbench/out/``. Any wrong answer makes the
run exit with status 1.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: Set-ups measured per untraced run (this process plus fresh processes).
SETUP_SAMPLES = 3


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="time one set-up and print it as JSON (used for set-up samples)",
    )
    return parser.parse_args(argv)


def provenance(args, workload) -> dict:
    commit = dirty = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT, capture_output=True, text=True, timeout=30,
            ).stdout.strip() or None
            status = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, capture_output=True, text=True, timeout=30,
            )
            dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    from workloads import KEY_BITS

    return {
        "git_commit": commit,
        "git_dirty": dirty,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "key_bits": KEY_BITS,
        "seed": args.seed,
        "seconds": args.seconds,
        "workload": args.workload,
        "workload_params": workload.params,
        "trace": bool(args.trace),
    }


async def timed_setup(workload) -> float:
    started = time.perf_counter()
    await workload.setup()
    return time.perf_counter() - started


async def setup_only(args) -> float:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    try:
        return await timed_setup(workload)
    finally:
        await workload.close()


def setup_sample(args) -> float:
    """One set-up timed in a fresh interpreter (nothing cached from ours)."""
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--setup-only",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up sample failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


async def run_workload(args) -> dict:
    from layers import Probe
    from spans import Tracer
    from workloads import WORKLOADS

    phases = 2 if args.trace else 1
    workload = WORKLOADS[args.workload](args.seed, args.seconds, phases)
    setups = [await timed_setup(workload)]

    def interlude(segment: int) -> None:
        """Untimed work between segments of an untraced phase."""
        workload.check_pending()
        if segment % 2 == 0 and len(setups) < SETUP_SAMPLES:
            setups.append(setup_sample(args))

    results = []
    probe = None
    try:
        for index in range(phases):
            traced = args.trace and index == phases - 1
            if traced:
                probe = Probe(Tracer(), workload.service)
                probe.install()
            try:
                # Checks between traced segments would be traced too.
                results.append(
                    await workload.run_phase(
                        index, None if args.trace else interlude
                    )
                )
            finally:
                if traced:
                    probe.uninstall()
    finally:
        await workload.close()
    verdict = workload.verify()
    if not args.trace:
        while len(setups) < SETUP_SAMPLES:
            setups.append(setup_sample(args))
    return {
        "workload": workload,
        "setups": setups,
        "phases": results,
        "verify": verdict,
        "probe": probe,
    }


def cpu_probe() -> float:
    """Seconds a fixed pure-Python loop takes: how fast the host ran."""
    started = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return time.perf_counter() - started


def ms(seconds: float) -> float:
    return seconds * 1000.0


def main(argv=None) -> int:
    args = parse(argv if argv is not None else sys.argv[1:])
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from layers import PER_LAYER
    from workloads import WORKLOADS, percentile

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": asyncio.run(setup_only(args))}))
        return 0

    probe_before = cpu_probe()
    run = asyncio.run(run_workload(args))
    probe_after = cpu_probe()
    workload = run["workload"]
    verdict = run["verify"]
    phases = run["phases"]
    name = args.workload
    lost = verdict.get("lost_deltas", 0)
    attempted = sum(phase.attempted for phase in phases)
    failed = sum(phase.failed for phase in phases) + verdict["wrong"] + lost
    correct = verdict["wrong"] == 0

    record = {
        "provenance": provenance(args, workload),
        "cpu_probe_s": [probe_before, probe_after],
        "verify": verdict,
        "attempted": attempted,
        "failed": failed,
    }
    OUT.mkdir(exist_ok=True)
    if args.trace:
        untraced, traced = phases
        base = workload.throughput(untraced)
        with_trace = workload.throughput(traced)
        overhead = base / with_trace - 1.0
        metrics = run["probe"].metrics(
            {
                "lag_p95_ms": ms(percentile(traced.lag, 0.95)),
                "busy_s": traced.busy,
            },
            overhead,
        )
        ledger = run["probe"].ledger
        record["ledger"] = ledger
        record["tracing_overhead"] = {
            "untraced_per_s": base,
            "traced_per_s": with_trace,
            "untraced_ms_per_op": 1000.0 / base,
            "traced_ms_per_op": 1000.0 / with_trace,
        }
        units = {n: u for n, u, _ in PER_LAYER}
        run["probe"].tracer.write(
            OUT / f"{name}-seed{args.seed}-spans.jsonl.gz"
        )
    else:
        (phase,) = phases
        setups = run["setups"]
        figures = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            "success_frac": 1.0 - failed / attempted,
            "throughput_per_s": workload.throughput(phase),
            "latency_p50_ms": ms(percentile(phase.latency, 0.50)),
            "latency_p95_ms": ms(percentile(phase.latency, 0.95)),
            "side_p50_ms": ms(percentile(phase.side, 0.50)),
            "side_p95_ms": ms(percentile(phase.side, 0.95)),
        }
        metrics = {key: figures[key] for key in UNITS}
        record["setup_samples_s"] = setups
        record["samples"] = {
            "latency_ms": [ms(x) for x in phase.latency],
            "side_ms": [ms(x) for x in phase.side],
        }
        record["workload_metrics"] = workload_metrics(
            workload, figures, failed, attempted, phase
        )
        units = UNITS
    record["metrics"] = metrics
    out_file = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=2, default=str))

    for key, value in record.get("workload_metrics", {}).items():
        print(f"{name:12s} {key:26s} {value[0]:14.4f} {value[1]}")
    for key, value in metrics.items():
        print(f"{name:12s} {key:26s} {value:14.4f} {units.get(key, '')}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


#: Units of the end-to-end metrics (names as in BENCHMARK.json). The p95
#: latencies are printed and recorded under each workload's own names but
#: are not end-to-end metrics: their run-to-run spread on a noisy 2-core
#: VM exceeded the largest bound a metric may have (see METRICS.md).
UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_frac": "ratio",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "side_p50_ms": "ms",
}

def workload_metrics(workload, figures, failed, attempted, phase):
    """The run's figures under the workload's own names, with units."""
    from workloads import percentile

    unit_of = {"throughput_per_s": "1/s"}
    out = {"failed_frac": (failed / attempted, "ratio")}
    for generic, own in workload.OWN_NAMES.items():
        out[own] = (figures[generic], unit_of.get(generic, "ms"))
    out["latency_samples"] = (len(phase.latency), "count")
    out["side_samples"] = (len(phase.side), "count")
    out["setup_s"] = (figures["setup_s"], "s")
    out["peak_rss_mb"] = (figures["peak_rss_mb"], "MB")
    out["loadgen.lag_p95_ms"] = (ms(percentile(phase.lag, 0.95)), "ms")
    out.update(workload.extra_metrics(phase))
    return out


if __name__ == "__main__":
    sys.exit(main())
