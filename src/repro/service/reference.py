"""The one-shot batch driver the service's answers are measured against.

:func:`run_query` is *the* execution path: the service calls it from its
worker threads, and the tests/bench call it again — standalone, later, in
another process if they like — with the recorded (descriptor, snapshot
nodes, seed) triple. Both calls build the same protocol object with the
same deterministic rng and the same sharded-collection seed, so the two
aggregates must be bit-identical; any divergence is a concurrency bug in
the service (wrong snapshot, stale cache, shared-rng contamination), which
is exactly what the equality assertions exist to catch.

``run_query(..., pool=)`` runs the whole query — collection, partitioning
and token aggregation — in one process of a persistent
:class:`~repro.globalq.parallel.WorkerPool`. The worker rebuilds the
:class:`~repro.globalq.protocol.TokenFleet` from its key-derivation seed
and calls this same function inline, so a pooled answer *is* the inline
answer. Only the pickled snapshot goes in (pickled once per node tuple
here, unpickled once per worker) and the small
:class:`~repro.globalq.protocol.ProtocolReport` comes back; an in-process
re-run without ``pool`` validates it.
"""

from __future__ import annotations

import itertools
import os
import pickle
import random
import threading
from collections import OrderedDict
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro import obs
from repro.errors import QueryError, WorkerLost
from repro.globalq.histogram import EquiDepthBucketizer, HistogramProtocol
from repro.globalq.noise import NoisePlan, NoiseProtocol
from repro.globalq.parallel import DEFAULT_SHARD_SIZE, WorkerPool
from repro.globalq.protocol import ProtocolReport, TokenFleet
from repro.globalq.secureagg import SecureAggregationProtocol
from repro.obs import telemetry
from repro.service.descriptor import (
    FAMILY_EMBEDDED,
    FAMILY_HISTOGRAM,
    FAMILY_NOISE,
    FAMILY_SECURE_AGG,
    QueryDescriptor,
)

#: Lineitem count of the hosted embedded database when a descriptor leaves
#: ``embedded_rows`` at 0.
DEFAULT_EMBEDDED_ROWS = 2000

#: Hosted Part II engines, one per lineitem count. An embedded database is
#: a single token's stateful object (page cache, RAM arena, staging
#: buffers), so executions serialize on the lock — the service's worker
#: pool parallelizes *across* protocol families, not inside one token.
_EMBEDDED_DBS: dict[int, object] = {}
_EMBEDDED_LOCK = threading.Lock()


def _embedded_db(rows: int):
    """Get-or-build the hosted TPCD-like database (caller holds the lock)."""
    db = _EMBEDDED_DBS.get(rows)
    if db is None:
        from repro.hardware.flash import FlashGeometry
        from repro.hardware.profiles import HardwareProfile, smart_usb_token
        from repro.hardware.token import SecurePortableToken
        from repro.relational.query import EmbeddedDatabase
        from repro.workloads import tpcd

        base = smart_usb_token()
        profile = HardwareProfile(
            name="service-embedded",
            ram_bytes=64 * 1024,
            cpu_mhz=base.cpu_mhz,
            flash_geometry=FlashGeometry(
                page_size=1024, pages_per_block=32, num_blocks=4096
            ),
            flash_cost=base.flash_cost,
            tamper_resistant=True,
        )
        db = EmbeddedDatabase(
            SecurePortableToken(profile=profile),
            tpcd.tpcd_schema(),
            tpcd.ROOT_TABLE,
        )
        tpcd.load(db, tpcd.generate(rows, seed=31))
        db.create_tselect("CUSTOMER", "Mktsegment")
        db.create_tselect("SUPPLIER", "Name")
        _EMBEDDED_DBS[rows] = db
    return db


def _split_attr(name: str) -> tuple[str, str]:
    """Split an embedded-family ``TABLE.Column`` attribute name."""
    table, dot, column = name.partition(".")
    if not dot or not table or not column:
        raise QueryError(
            f"embedded-spj attributes are 'TABLE.Column' names, got {name!r}"
        )
    return table, column


def run_embedded(
    descriptor: QueryDescriptor, batch_size: int | None = None
) -> ProtocolReport:
    """Execute an embedded-spj descriptor on the hosted Part II engine.

    ``batch_size`` selects the executor: None uses the engine default
    (columnar batches), 0 forces the legacy tuple-at-a-time path, N sets an
    explicit batch row count. The answer is engine-independent (batch
    execution is bit-identical by construction), so the executor choice is
    service configuration, not part of the descriptor.
    """
    query = descriptor.query
    filters = []
    for condition in query.where:
        if len(condition) != 2:
            raise QueryError(
                "embedded-spj WHERE supports equality conditions only, "
                f"got {condition!r}"
            )
        table, column = _split_attr(condition[0])
        filters.append((table, column, condition[1]))
    group_by = _split_attr(query.group_by) if query.group_by else None
    if query.attribute is not None:
        agg_table, agg_column = _split_attr(query.attribute)
    else:
        from repro.workloads import tpcd

        agg_table, agg_column = tpcd.ROOT_TABLE, None
    rows = descriptor.embedded_rows or DEFAULT_EMBEDDED_ROWS
    with _EMBEDDED_LOCK:
        db = _embedded_db(rows)
        previous = db.batch_size
        if batch_size is not None:
            db.batch_size = batch_size or None
        try:
            result, stats = db.aggregate(
                filters, (query.aggregate, agg_table, agg_column), group_by
            )
        finally:
            db.batch_size = previous
    return ProtocolReport(
        result={str(group): value for group, value in result.items()},
        protocol=FAMILY_EMBEDDED,
        num_pds=1,
        tuples_sent=0,
        fake_tuples_sent=0,
        token_decryptions=0,
        token_invocations=1,
        comm_bytes=0,
        comm_messages=0,
        integrity_failures=0,
    )


def build_protocol(
    descriptor: QueryDescriptor,
    fleet: TokenFleet,
    seed: int,
    domain: tuple[str, ...],
    shard_size: int = DEFAULT_SHARD_SIZE,
):
    """The protocol-family driver for one execution of ``descriptor``.

    Every random draw — SSI partitioning, fake planning, cipher nonces —
    descends from ``seed``, and collection always routes through the
    serial sharded executor, whose shard seeds fix every ciphertext.
    """
    rng = random.Random(seed)
    if descriptor.family == FAMILY_SECURE_AGG:
        return SecureAggregationProtocol(
            fleet,
            partition_size=descriptor.partition_size,
            rng=rng,
            workers=1,
            shard_size=shard_size,
            collection_seed=seed,
        )
    if descriptor.family == FAMILY_NOISE:
        return NoiseProtocol(
            fleet,
            NoisePlan(
                mode=descriptor.noise_mode,
                ratio=descriptor.noise_ratio,
                domain=tuple(domain),
            ),
            rng=rng,
            workers=1,
            shard_size=shard_size,
            collection_seed=seed,
        )
    assert descriptor.family == FAMILY_HISTOGRAM
    bucketizer = EquiDepthBucketizer(
        {value: 1.0 for value in domain}, descriptor.num_buckets
    )
    return HistogramProtocol(
        fleet,
        bucketizer,
        rng=rng,
        workers=1,
        shard_size=shard_size,
        collection_seed=seed,
    )


def run_query(
    descriptor: QueryDescriptor,
    nodes,
    fleet: TokenFleet,
    seed: int,
    domain: tuple[str, ...],
    shard_size: int = DEFAULT_SHARD_SIZE,
    pool: WorkerPool | None = None,
    embedded_batch_size: int | None = None,
) -> ProtocolReport:
    """Run ``descriptor`` once over ``nodes`` — service path and reference.

    With ``pool`` the query runs whole in one worker process (see the
    module docstring); a worker that dies mid-query raises
    :class:`~repro.errors.WorkerLost`. The embedded-spj family never
    touches the population and never leaves this process: it answers from
    the service-hosted, stateful Part II engine, deterministically (no
    seed draw), so a reference re-run needs only the descriptor.
    """
    if descriptor.family == FAMILY_EMBEDDED:
        return run_embedded(descriptor, batch_size=embedded_batch_size)
    if pool is not None:
        return _run_on_pool(
            pool, descriptor, tuple(nodes), fleet, seed, domain, shard_size
        )
    protocol = build_protocol(descriptor, fleet, seed, domain, shard_size)
    return protocol.run(list(nodes), descriptor.query)


# ----------------------------------------------------------------------
# Whole-query execution on a worker pool
# ----------------------------------------------------------------------
#: Node tuples kept pickled for shipping here, and kept unpickled in each
#: worker: the current population version and the one before it.
SNAPSHOT_MEMO_SIZE = 2

_SHIP_KEYS = itertools.count(1)
#: id(node tuple) -> (node tuple, key, pickled bytes), submitting side.
_SHIPPED: OrderedDict[int, tuple[tuple, int, bytes]] = OrderedDict()
_SHIPPED_LOCK = threading.Lock()
#: key -> node tuple, worker side (a worker runs one task at a time).
_RECEIVED: OrderedDict[int, tuple] = OrderedDict()


def _remember(memo: OrderedDict, key, value) -> None:
    memo[key] = value
    if len(memo) > SNAPSHOT_MEMO_SIZE:
        memo.popitem(last=False)


def _shipped(nodes: tuple) -> tuple[int, bytes]:
    """``(key, pickled nodes)``, pickled once per node tuple object.

    The memo holds the tuple itself, so its ``id`` cannot be reused while
    the entry lives; keys come from one process-wide counter, so they stay
    unique across every population that shares a pool.
    """
    with _SHIPPED_LOCK:
        entry = _SHIPPED.get(id(nodes))
        if entry is None:
            payload = pickle.dumps(nodes, pickle.HIGHEST_PROTOCOL)
            entry = (nodes, next(_SHIP_KEYS), payload)
            _remember(_SHIPPED, id(nodes), entry)
        else:
            _SHIPPED.move_to_end(id(nodes))
    return entry[1], entry[2]


def _received(key: int, payload: bytes) -> tuple:
    """The node tuple shipped under ``key``, unpickled once per worker."""
    nodes = _RECEIVED.get(key)
    if nodes is None:
        nodes = pickle.loads(payload)
        _remember(_RECEIVED, key, nodes)
    else:
        _RECEIVED.move_to_end(key)
    return nodes


@dataclass(frozen=True)
class QueryTask:
    """One whole query for a pool worker (all picklable)."""

    descriptor: QueryDescriptor
    snapshot_key: int
    snapshot: bytes
    fleet_seed: int
    seed: int
    domain: tuple
    shard_size: int
    #: Distributed trace context of the submitting span (or None).
    trace: object = None


def run_query_task(task: QueryTask):
    """Run one shipped query inline in a worker process.

    Returns the :class:`ProtocolReport`, wrapped in a
    :class:`~repro.obs.telemetry.TracedResult` when the task's trace
    context asked this worker to record its spans.
    """
    nodes = _received(task.snapshot_key, task.snapshot)
    with telemetry.remote_recording(
        task.trace, f"worker-{os.getpid()}"
    ) as recording:
        with obs.span(
            "reference.query.exec",
            family=task.descriptor.family,
            population=len(nodes),
        ):
            report = run_query(
                task.descriptor,
                nodes,
                TokenFleet(task.fleet_seed),
                task.seed,
                task.domain,
                shard_size=task.shard_size,
            )
    if recording is not None:
        return recording.wrap(report)
    return report


def _run_on_pool(
    pool: WorkerPool,
    descriptor: QueryDescriptor,
    nodes: tuple,
    fleet: TokenFleet,
    seed: int,
    domain: tuple[str, ...],
    shard_size: int,
) -> ProtocolReport:
    with obs.span(
        "reference.query", family=descriptor.family, population=len(nodes)
    ) as span:
        key, payload = _shipped(nodes)
        task = QueryTask(
            descriptor=descriptor,
            snapshot_key=key,
            snapshot=payload,
            fleet_seed=fleet.seed,
            seed=seed,
            domain=tuple(domain),
            shard_size=shard_size,
            trace=telemetry.propagated(),
        )
        try:
            value = pool.submit(run_query_task, task).result()
        except BrokenProcessPool as exc:
            raise WorkerLost(
                f"a pool worker died running a {descriptor.family} query"
            ) from exc
        return telemetry.adopt(value, span)
