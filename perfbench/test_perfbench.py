"""Tests of the benchmark itself: its checks trip, its ledger adds up.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def drive(workload, seconds_phases=1):
    async def main():
        await workload.setup()
        try:
            for index in range(seconds_phases):
                await workload.run_phase(index)
        finally:
            await workload.close()

    asyncio.run(main())


def tampered(served):
    result = {key: value + 1 for key, value in served.result.items()}
    return dataclasses.replace(served, result=result)


def test_oneshot_check_trips_on_a_tampered_answer(monkeypatch):
    monkeypatch.setattr(workloads, "MIN_ANSWERS", 12)
    workload = workloads.OneshotMix(seed=3, seconds=0.5)
    drive(workload)
    fleet = workload.population.fleet
    domain = workload.service.config.domain
    floors = workload.floors
    assert workload.answers
    assert workloads.check_oneshot(workload.answers, floors, fleet, domain) == []
    assert workload.verify()["wrong"] == 0
    last = len(workload.answers) - 1
    answers = list(workload.answers)
    answers[-1] = tampered(answers[-1])
    assert workloads.check_oneshot(answers, floors, fleet, domain) == [last]
    # An answer older than what its querier saw before submitting is stale,
    # even though it re-runs to itself on its own snapshot.
    assert floors[-1] > 0
    answers = list(workload.answers)
    answers[-1] = dataclasses.replace(answers[-1], version=floors[-1] - 1)
    assert workloads.check_oneshot(answers, floors, fleet, domain) == [last]


def test_oneshot_check_trips_on_a_stale_cache(monkeypatch):
    """A cache that ignores population versions serves stale answers."""
    monkeypatch.setattr(workloads, "MIN_ANSWERS", 30)
    workload = workloads.OneshotMix(seed=3, seconds=0.5)

    async def main():
        await workload.setup()
        cache = workload.service.cache
        first: dict = {}
        put = cache.put

        def put_and_keep(descriptor, entry):
            first.setdefault(descriptor.canonical(), entry)
            return put(descriptor, entry)

        cache.put = put_and_keep
        cache.get = lambda descriptor: first.get(descriptor.canonical())
        try:
            await workload.run_phase(0)
        finally:
            await workload.close()

    asyncio.run(main())
    fleet = workload.population.fleet
    domain = workload.service.config.domain
    no_floors = [0] * len(workload.answers)
    # Re-running each answer on its own snapshot cannot see the staleness.
    assert workloads.check_oneshot(workload.answers, no_floors, fleet, domain) == []
    assert workload.verify()["wrong"] > 0


def test_embedded_check_trips_on_a_tampered_answer():
    workload = workloads.TokenSpj(seed=3, seconds=0.5)
    drive(workload)
    assert workload.answers
    assert workloads.check_embedded(workload.answers) == []
    answers = list(workload.answers)
    answers[0] = tampered(answers[0])
    assert workloads.check_embedded(answers) == [0]


def test_checks_between_segments_cover_every_answer():
    workload = workloads.TokenSpj(seed=3, seconds=0.4)
    gaps = []

    def interlude(segment):
        gaps.append(segment)
        workload.check_pending()

    async def main():
        await workload.setup()
        try:
            await workload.run_phase(0, interlude)
        finally:
            await workload.close()

    asyncio.run(main())
    assert gaps == list(range(workload.SEGMENTS - 1))
    verdict = workload.verify()
    assert verdict["wrong"] == 0
    assert verdict["checked"] == len(workload.answers)
    answers = list(workload.answers)
    answers[0] = tampered(answers[0])
    assert workloads.check_embedded(answers, start=1) == []
    assert workloads.check_embedded(answers) == [0]


def test_window_check_trips_on_a_tampered_window():
    workload = workloads.DeltaStorm(seed=3, seconds=0.4)
    drive(workload)
    verdict = workload.verify()
    assert workload.windows_checked > 0
    assert verdict["wrong"] == 0
    assert verdict["accounting"]["balanced"]

    tampering = workloads.DeltaStorm(seed=3, seconds=0.4)

    async def main():
        await tampering.setup()
        ingest = tampering.view.ingest

        def lying_ingest(update):
            window = ingest(update)
            return dataclasses.replace(window, total=window.total + 1)

        tampering.view.ingest = lying_ingest
        try:
            await tampering.run_phase(0)
        finally:
            await tampering.close()

    asyncio.run(main())
    verdict = tampering.verify()
    assert verdict["wrong"] >= tampering.windows_checked - 1 > 0


def test_ledger_shares_sum_to_wall_time():
    tracer = spans.Tracer()
    outer = tracer.wrap(lambda: inner() or time.sleep(0.01), "alpha.outer")
    inner = tracer.wrap(lambda: time.sleep(0.01), "beta.inner")
    tracer.started = time.perf_counter()
    thread = threading.Thread(target=outer)
    thread.start()
    outer()
    thread.join(timeout=10)
    assert not thread.is_alive()
    time.sleep(0.005)
    tracer.stopped = time.perf_counter()
    ledger = tracer.ledger(layers.layer_of)
    assert abs(ledger["sum_check_s"] - ledger["wall_s"]) < 1e-9
    assert set(ledger["shares_s"]) == {"alpha", "beta"}
    assert ledger["unattributed_s"] > 0
    self_times = tracer.self_times()
    assert self_times["beta.inner"] >= 0.02
    assert 0.02 <= self_times["alpha.outer"] < 0.03


def test_traced_patches_are_removed():
    from repro.service import server

    original = server.run_query
    workload = workloads.TokenSpj(seed=3, seconds=0.2)

    async def main():
        await workload.setup()
        probe = layers.Probe(spans.Tracer(), workload.service)
        probe.install()
        assert server.run_query is not original
        try:
            await workload.run_phase(0)
        finally:
            probe.uninstall()
            await workload.close()
        return probe

    probe = asyncio.run(main())
    assert server.run_query is original
    metrics = probe.metrics({"lag_p95_ms": 0.0, "busy_s": 0.0}, 0.0)
    assert [name for name, _, _ in layers.PER_LAYER] == list(metrics)
    assert metrics["relational.aggregate_s"] > 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    storm = workloads.DeltaStorm
    assert f"{storm.OPEN_RATE} wire deltas/s" in why[storm.name]
    assert f"one boundary per {storm.PANE_MS} ms" in why[storm.name]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == layers.PER_LAYER


def test_run_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    proc = subprocess.run(
        [
            sys.executable, f"{HERE.name}/run.py", "--workload", "token-spj",
            "--seed", "1", "--seconds", "1", "--trace", "0",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
