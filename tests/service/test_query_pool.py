"""Whole one-shot queries on a worker pool: exact answers, robust pool.

``run_query(pool=)`` runs a query, collection through token aggregation,
in one worker process. Its report must equal the inline run field for
field; a snapshot is pickled once per node tuple; and a worker killed
mid-query fails only that query, after which the service answers again.
"""

import asyncio
import multiprocessing
import os
import pickle
import signal
import time

import pytest

from repro.errors import WorkerLost
from repro.globalq.parallel import WorkerPool
from repro.globalq.queries import AggregateQuery
from repro.service import (
    QueryDescriptor,
    ServiceConfig,
    SsiQueryService,
    reference,
    run_query,
    slim_population,
    standard_mix,
)
from repro.service.descriptor import FAMILY_SECURE_AGG
from repro.workloads.people import CITIES, PersonRecord

COUNT = QueryDescriptor(FAMILY_SECURE_AGG, AggregateQuery.count())
DOMAIN = tuple(CITIES)


def inline(descriptor, population, seed):
    return run_query(
        descriptor, population.snapshot().nodes, population.fleet, seed, DOMAIN
    )


class TestWholeQueryOnPool:
    def test_pooled_report_equals_inline_for_every_family(self):
        population = slim_population(300)
        nodes = population.snapshot().nodes
        with WorkerPool(workers=2) as pool:
            for seed, descriptor in enumerate(standard_mix().descriptors()):
                pooled = run_query(
                    descriptor, nodes, population.fleet, seed, DOMAIN,
                    shard_size=64, pool=pool,
                )
                assert pooled == run_query(
                    descriptor, nodes, population.fleet, seed, DOMAIN,
                    shard_size=64,
                )

    def test_snapshot_pickled_once_per_version(self, monkeypatch):
        dumps = []
        original = pickle.dumps

        def counting(obj, *args, **kwargs):
            if isinstance(obj, tuple):  # a node tuple being shipped
                dumps.append(obj)
            return original(obj, *args, **kwargs)

        monkeypatch.setattr(pickle, "dumps", counting)
        population = slim_population(50)
        sum_salary = standard_mix().descriptors()[0]
        with WorkerPool(workers=2) as pool:
            for descriptor in (COUNT, sum_salary, COUNT):
                run_query(
                    descriptor, population.snapshot().nodes,
                    population.fleet, 1, DOMAIN, pool=pool,
                )
            assert len(dumps) == 1
            population.forget(3)
            report = run_query(
                COUNT, population.snapshot().nodes, population.fleet, 1,
                DOMAIN, pool=pool,
            )
        assert len(dumps) == 2
        assert report.result == {"*": 49.0}

    def test_populations_sharing_a_pool_never_mix_snapshots(self):
        # Same size and same version numbers, different records: a memo
        # keyed by version alone would answer one from the other.
        first = slim_population(40, seed=1)
        second = slim_population(40, seed=2)
        sum_salary = standard_mix().descriptors()[0]
        assert inline(sum_salary, first, 0) != inline(sum_salary, second, 0)
        with WorkerPool(workers=1) as pool:
            for _ in range(2):
                for population in (first, second):
                    pooled = run_query(
                        sum_salary, population.snapshot().nodes,
                        population.fleet, 0, DOMAIN, pool=pool,
                    )
                    assert pooled == inline(sum_salary, population, 0)

    def test_worker_unpickles_each_key_once(self):
        nodes = slim_population(10).snapshot().nodes
        key, payload = reference._shipped(nodes)
        received = reference._received(key, payload)
        assert received == nodes
        assert reference._received(key, payload) is received
        assert reference._shipped(nodes) == (key, payload)


def run(coro):
    return asyncio.run(coro)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the stalling hook reaches the workers through fork",
)
class TestPoolRobustness:
    def test_killed_worker_fails_only_the_in_flight_query(self, monkeypatch):
        ready = multiprocessing.Event()
        stall = multiprocessing.Event()
        stall.set()
        stalled_pid = multiprocessing.Value("i", 0)
        build = reference.build_protocol

        def stalling(*args, **kwargs):
            if stall.is_set():
                stalled_pid.value = os.getpid()
                ready.set()
                time.sleep(60)
            return build(*args, **kwargs)

        # Patched before start(), so the forked workers inherit it.
        monkeypatch.setattr(reference, "build_protocol", stalling)

        async def scenario():
            population = slim_population(60)
            service = SsiQueryService(
                population,
                ServiceConfig(
                    max_in_flight=2, cache_capacity=0, record_snapshots=True
                ),
            )
            service.start()
            loop = asyncio.get_running_loop()
            try:
                in_flight = asyncio.ensure_future(service.submit(COUNT))
                assert await loop.run_in_executor(None, ready.wait, 30)
                stall.clear()
                os.kill(stalled_pid.value, signal.SIGKILL)
                with pytest.raises(WorkerLost):
                    await in_flight
                errors = service.registry.counter("service.errors").value
                served = [
                    await service.submit(d)
                    for d in standard_mix().descriptors()
                ]
            finally:
                await service.stop()
            return population, service, errors, served

        population, service, errors, served = run(scenario())
        assert errors == 1
        assert service.registry.counter("service.errors").value == 1
        for answer in served:
            assert not answer.cached
            reference_report = run_query(
                answer.descriptor,
                answer.snapshot.nodes,
                population.fleet,
                answer.seed,
                service.config.domain,
            )
            assert answer.result == reference_report.result
        assert multiprocessing.active_children() == []

    def test_stop_closes_an_owned_pool_only(self):
        async def serve(config):
            service = SsiQueryService(slim_population(30), config)
            service.start()
            served = await service.submit(COUNT)
            await service.stop()
            return served

        assert run(serve(ServiceConfig())).result == {"*": 30.0}
        assert multiprocessing.active_children() == []

        with WorkerPool(workers=2) as pool:
            served = run(serve(ServiceConfig(pool=pool)))
            assert served.result == {"*": 30.0}
            assert not pool.closed
            assert pool.submit(os.getpid).result() != os.getpid()
        assert multiprocessing.active_children() == []


def spans_in_inherited_tracer(task) -> int:
    """Worker side: run ``task``, then count what the forked copy of the
    submitter's tracer recorded."""
    from repro import obs

    reference.run_query_task(task)
    return len(obs.get_tracer().spans)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the worker inherits the tracer through fork",
)
def test_unsampled_query_records_nothing_in_the_worker():
    from repro.obs.telemetry import Telemetry, TraceContext

    nodes = slim_population(20).snapshot().nodes
    key, payload = reference._shipped(nodes)
    with Telemetry(sample_rate=1.0):
        with WorkerPool(workers=1) as pool:
            pool.start()  # forked with the bundle's tracer installed
            for trace in (None, TraceContext(trace_id=5, sampled=False)):
                task = reference.QueryTask(
                    COUNT, key, payload, 0, 1, DOMAIN, 8, trace=trace
                )
                assert pool.submit(spans_in_inherited_tracer, task).result() == 0
