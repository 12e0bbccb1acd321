"""Which program functions the traced run wraps, and the per-layer metrics.

Every layer is a module of ``repro``; every span is named
``<layer>.<operation>`` so the ledger can group spans by the prefix before
the first dot. :meth:`Probe.install` wraps the public calls into each layer
and :meth:`Probe.metrics` turns the recorded spans, the tracer's counts and
the service's own counters into the flat metric dict a traced run reports.
Metric names ending in ``_s`` are self times (span duration minus child
spans on the same thread) unless :data:`PER_LAYER` says otherwise.
"""

from __future__ import annotations

import threading
import time

import spans as spans_mod

#: The ledger's layers, in the order they are reported.
LAYERS = (
    "codec",
    "server",
    "admission",
    "cache",
    "population",
    "reference",
    "globalq",
    "symmetric",
    "continuous",
    "standing",
    "paillier",
    "fastexp",
    "relational",
)

FAMILIES = ("secure-agg", "noise", "histogram", "embedded-spj")

#: (name, unit, better) of every per-layer metric a traced run reports.
PER_LAYER: list[tuple[str, str, str]] = [
    ("codec.decode_s", "s", "lower"),
    ("codec.decode_calls", "count", "lower"),
    ("codec.entries", "count", "higher"),
    ("server.ingest_frame_s", "s", "lower"),
    ("server.drain_wait_s", "s", "lower"),
    ("server.publish_s", "s", "lower"),
    ("server.ingest_queue_max", "count", "lower"),
    ("server.ingest_shed", "count", "lower"),
    ("admission.wait_s", "s", "lower"),
    ("admission.depth_max", "count", "lower"),
    ("admission.shed", "count", "lower"),
    ("cache.lookup_s", "s", "lower"),
    ("cache.lookups", "count", "higher"),
    ("cache.hits", "count", "higher"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.invalidations", "count", "lower"),
    ("cache.coherence_refusals", "count", "lower"),
    ("population.snapshot_s", "s", "lower"),
    ("population.snapshot_calls", "count", "lower"),
    ("population.write_s", "s", "lower"),
    ("reference.run_query_s", "s", "lower"),
    ("reference.run_query_cpu_s", "s", "lower"),
    ("reference.gil_wait_s", "s", "lower"),
]
for _family in FAMILIES:
    PER_LAYER += [
        (f"reference.run_query_s.{_family}", "s", "lower"),
        (f"reference.run_query_cpu_s.{_family}", "s", "lower"),
        (f"reference.gil_wait_s.{_family}", "s", "lower"),
    ]
PER_LAYER += [
    ("globalq.collect_s", "s", "lower"),
    ("globalq.contributions", "count", "higher"),
    ("globalq.partition_s", "s", "lower"),
    ("globalq.aggregate_s", "s", "lower"),
    ("globalq.token_decryptions", "count", "higher"),
    ("symmetric.encrypt_s", "s", "lower"),
    ("symmetric.encrypt_calls", "count", "higher"),
    ("symmetric.decrypt_s", "s", "lower"),
    ("symmetric.decrypt_calls", "count", "higher"),
    ("continuous.fold_s", "s", "lower"),
    ("continuous.fold_deltas", "count", "higher"),
    ("continuous.single_fold_s", "s", "lower"),
    ("continuous.emit_s", "s", "lower"),
    ("continuous.seal_s", "s", "lower"),
    ("continuous.view_s", "s", "lower"),
    ("standing.ingest_many_s", "s", "lower"),
    ("standing.advance_s", "s", "lower"),
    ("standing.rejected", "count", "lower"),
    ("standing.duplicates", "count", "lower"),
    ("paillier.encrypt_s", "s", "lower"),
    ("paillier.encrypt_calls", "count", "higher"),
    ("paillier.decrypt_s", "s", "lower"),
    ("paillier.decrypt_calls", "count", "higher"),
    ("fastexp.refresh_s", "s", "lower"),
    ("fastexp.pool_exhausted", "count", "lower"),
    ("relational.aggregate_s", "s", "lower"),
    ("relational.aggregate_cpu_s", "s", "lower"),
    ("relational.lock_wait_s", "s", "lower"),
    ("relational.flash_page_reads", "count", "lower"),
    ("loadgen.lag_p95_ms", "ms", "lower"),
    ("loadgen.busy_s", "s", "lower"),
    ("ledger.wall_s", "s", "lower"),
    ("ledger.unattributed_share", "ratio", "lower"),
    ("ledger.tracing_overhead_frac", "ratio", "lower"),
]
PER_LAYER += [(f"ledger.share.{layer}", "ratio", "lower") for layer in LAYERS]


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def _family_of(args) -> str:
    return f"reference.run_query.{args[0].family}"


class Probe:
    """Installs the wrappers for one traced phase and reads them back."""

    def __init__(self, tracer: spans_mod.Tracer, service) -> None:
        self.tracer = tracer
        self.service = service
        self._submitted: dict[int, tuple[float, object]] = {}
        self._embedded_entry = threading.local()
        self._before: dict[str, float] = {}
        #: The traced phase's ledger, filled by :meth:`metrics`.
        self.ledger: dict = {}

    # ------------------------------------------------------------------
    def _counters(self) -> dict[str, float]:
        from repro.obs.metrics import global_registry

        registry = self.service.registry
        cache = self.service.cache.stats
        admission = self.service.admission.stats
        return {
            "cache.hits": cache.hits,
            "cache.lookups": cache.hits + cache.misses,
            "cache.invalidations": cache.invalidations,
            "cache.coherence_refusals": cache.coherence_refusals,
            "admission.shed": admission.shed,
            "server.ingest_shed": registry.counter("globalq.ingest.shed").value,
            "standing.rejected": registry.counter(
                "globalq.ingest.rejected"
            ).value,
            "standing.duplicates": registry.counter(
                "globalq.delta.duplicates"
            ).value,
            "fastexp.pool_exhausted": global_registry()
            .counter("pool.exhausted")
            .value,
        }

    def install(self) -> None:
        from repro.crypto import fastexp, paillier, symmetric
        from repro.globalq import continuous, parallel, protocol, ssi
        from repro.relational.query import EmbeddedDatabase
        from repro.service import admission, cache, population, reference
        from repro.service import server, standing

        tracer = self.tracer
        count = tracer.count
        patch = tracer.patch

        # repro.net.codec, under the names repro.service.server binds.
        patch(
            server,
            "decode_delta_batch",
            "codec.decode",
            on_result=lambda a, r, s: count("codec.entries", len(r)),
        )
        patch(
            server,
            "decode_delta",
            "codec.decode",
            on_result=lambda a, r, s: count("codec.entries", 1),
        )
        # repro.service.server
        service_cls = server.SsiQueryService
        patch(service_cls, "ingest_frame", "server.ingest_frame")
        patch(service_cls, "drain_ingest", "server.drain_wait")
        patch(service_cls, "publish_windows", "server.publish")
        patch(server, "run_query", _family_of)

        # repro.service.admission: submit -> matching next_ticket.
        def on_submit(args, result, start):
            self._submitted[id(args[2])] = (start, spans_mod.REQUEST.get())

        def on_ticket(args, ticket, start):
            entry = self._submitted.pop(id(ticket), None)
            if entry is not None:
                count("admission.wait_s", time.perf_counter() - entry[0])
                # The worker loop runs the query under the submitter's id.
                spans_mod.REQUEST.set(entry[1])

        patch(
            admission.AdmissionController,
            "submit",
            "admission.submit",
            on_result=on_submit,
        )
        patch(
            admission.AdmissionController,
            "next_ticket",
            "admission.idle",
            on_result=on_ticket,
        )
        # repro.service.cache / population
        patch(cache.ResultCache, "get", "cache.lookup")
        patch(population.ServicePopulation, "snapshot", "population.snapshot")
        for write in ("update_records", "forget", "set_online"):
            patch(population.ServicePopulation, write, "population.write")

        # repro.service.reference -> repro.relational
        def on_embedded(args):
            self._embedded_entry.at = time.perf_counter()

        def on_aggregate_enter(args):
            entered = getattr(self._embedded_entry, "at", None)
            if entered is not None:
                count("relational.lock_wait_s", time.perf_counter() - entered)
                self._embedded_entry.at = None

        patch(
            reference,
            "run_embedded",
            "reference.run_embedded",
            on_enter=on_embedded,
        )
        patch(
            EmbeddedDatabase,
            "aggregate",
            "relational.aggregate",
            on_enter=on_aggregate_enter,
            on_result=lambda a, r, s: count(
                "relational.flash_page_reads", r[1].flash_page_reads
            ),
        )
        # repro.globalq (parallel, ssi, protocol)
        patch(
            parallel.ShardedCollector,
            "collect",
            "globalq.collect",
            on_result=lambda a, r, s: count(
                "globalq.contributions",
                sum(len(item.contributions) for item in r),
            ),
        )
        infra = ssi.SupportingServerInfrastructure
        for method in (
            "partition_random",
            "partition_by_group_tag",
            "partition_by_bucket",
        ):
            patch(infra, method, "globalq.partition")
        patch(
            protocol.TrustedAggregator,
            "aggregate",
            "globalq.aggregate",
            on_enter=lambda a: count("globalq.token_decryptions", len(a[1])),
        )
        # repro.crypto.symmetric
        for cipher in (
            symmetric.NondeterministicCipher,
            symmetric.DeterministicCipher,
        ):
            patch(cipher, "encrypt", "symmetric.encrypt")
            patch(cipher, "decrypt", "symmetric.decrypt")
        # repro.globalq.continuous
        patch(
            continuous.FoldEngine,
            "product",
            "continuous.fold",
            on_enter=lambda a: count("continuous.fold_deltas", len(a[1])),
        )
        patch(continuous.StandingAggregate, "fold", "continuous.single_fold")
        patch(continuous.DeltaEmitter, "refresh", "continuous.emit")
        patch(continuous.StandingAggregate, "advance", "continuous.seal")
        patch(continuous.StandingView, "ingest", "continuous.view")
        # repro.service.standing
        patch(standing.StandingRegistry, "ingest_many", "standing.ingest_many")
        patch(standing.StandingRegistry, "advance", "standing.advance")
        # repro.crypto.paillier / fastexp
        patch(paillier.PaillierPublicKey, "encrypt", "paillier.encrypt")
        patch(paillier.PaillierPrivateKey, "decrypt", "paillier.decrypt")
        patch(fastexp.BlindingPool, "pregenerate", "fastexp.refresh")

        # Both high-water marks are run-lifetime maxima; start them afresh so
        # they cover the traced phase only, like every other counter here.
        self.service.registry.gauge("globalq.ingest.queue_depth").set(0)
        self.service.admission.stats.queue_depth_high_water = 0
        self._before = self._counters()
        tracer.started = time.perf_counter()

    def uninstall(self) -> None:
        self.tracer.stopped = time.perf_counter()
        self.tracer.unpatch()

    # ------------------------------------------------------------------
    def metrics(self, loadgen: dict, overhead_frac: float) -> dict:
        """Every :data:`PER_LAYER` metric, from the traced phase."""
        tracer = self.tracer
        self_s = tracer.self_times()
        calls: dict[str, int] = {}
        wall: dict[str, float] = {}
        cpu: dict[str, float] = {}
        for span in tracer.spans:
            name = span[spans_mod.NAME]
            calls[name] = calls.get(name, 0) + 1
            wall[name] = wall.get(name, 0.0) + (
                span[spans_mod.END] - span[spans_mod.START]
            )
            cpu[name] = cpu.get(name, 0.0) + span[spans_mod.CPU]
        waits = tracer.wait_totals()
        counts = dict(tracer.counts)
        after = self._counters()
        delta = {key: after[key] - self._before[key] for key in after}
        out: dict[str, float] = {}
        for name in (
            "codec.decode",
            "server.ingest_frame",
            "cache.lookup",
            "population.snapshot",
            "population.write",
            "globalq.collect",
            "globalq.partition",
            "globalq.aggregate",
            "symmetric.encrypt",
            "symmetric.decrypt",
            "continuous.fold",
            "continuous.single_fold",
            "continuous.emit",
            "continuous.seal",
            "continuous.view",
            "standing.ingest_many",
            "standing.advance",
            "paillier.encrypt",
            "paillier.decrypt",
            "fastexp.refresh",
        ):
            out[f"{name}_s"] = self_s.get(name, 0.0)
        for name in (
            "codec.decode",
            "symmetric.encrypt",
            "symmetric.decrypt",
            "paillier.encrypt",
            "paillier.decrypt",
        ):
            out[f"{name}_calls"] = calls.get(name, 0)
        out["population.snapshot_calls"] = calls.get("population.snapshot", 0)
        out["codec.entries"] = counts.get("codec.entries", 0)
        out["server.drain_wait_s"] = waits.get("server.drain_wait", 0.0)
        out["server.publish_s"] = waits.get("server.publish", 0.0)
        out["server.ingest_queue_max"] = self.service.registry.gauge(
            "globalq.ingest.queue_depth"
        ).value
        out["admission.wait_s"] = counts.get("admission.wait_s", 0.0)
        out["admission.depth_max"] = (
            self.service.admission.stats.queue_depth_high_water
        )
        for key in (
            "admission.shed",
            "server.ingest_shed",
            "cache.hits",
            "cache.lookups",
            "cache.invalidations",
            "cache.coherence_refusals",
            "standing.rejected",
            "standing.duplicates",
            "fastexp.pool_exhausted",
        ):
            out[key] = delta[key]
        out["cache.hit_ratio"] = (
            delta["cache.hits"] / delta["cache.lookups"]
            if delta["cache.lookups"]
            else 0.0
        )
        # run_query is reported inclusive of its callees, with its thread
        # CPU time: wall minus CPU is time the thread waited (the GIL).
        total_wall = total_cpu = 0.0
        for family in FAMILIES:
            name = f"reference.run_query.{family}"
            fam_wall = wall.get(name, 0.0)
            fam_cpu = cpu.get(name, 0.0)
            out[f"reference.run_query_s.{family}"] = fam_wall
            out[f"reference.run_query_cpu_s.{family}"] = fam_cpu
            out[f"reference.gil_wait_s.{family}"] = max(0.0, fam_wall - fam_cpu)
            total_wall += fam_wall
            total_cpu += fam_cpu
        out["reference.run_query_s"] = total_wall
        out["reference.run_query_cpu_s"] = total_cpu
        out["reference.gil_wait_s"] = max(0.0, total_wall - total_cpu)
        out["relational.aggregate_s"] = wall.get("relational.aggregate", 0.0)
        out["relational.aggregate_cpu_s"] = cpu.get("relational.aggregate", 0.0)
        out["relational.lock_wait_s"] = counts.get("relational.lock_wait_s", 0.0)
        out["relational.flash_page_reads"] = counts.get(
            "relational.flash_page_reads", 0
        )
        out["globalq.contributions"] = counts.get("globalq.contributions", 0)
        out["globalq.token_decryptions"] = counts.get(
            "globalq.token_decryptions", 0
        )
        out["continuous.fold_deltas"] = counts.get("continuous.fold_deltas", 0)
        out["loadgen.lag_p95_ms"] = loadgen["lag_p95_ms"]
        out["loadgen.busy_s"] = loadgen["busy_s"]
        ledger = tracer.ledger(layer_of)
        out["ledger.wall_s"] = ledger["wall_s"]
        out["ledger.unattributed_share"] = ledger["unattributed_share"]
        out["ledger.tracing_overhead_frac"] = overhead_frac
        for layer in LAYERS:
            share = ledger["shares_s"].get(layer, 0.0)
            out[f"ledger.share.{layer}"] = (
                share / ledger["wall_s"] if ledger["wall_s"] > 0 else 0.0
            )
        missing = {name for name, _, _ in PER_LAYER} - set(out)
        if missing:
            raise RuntimeError(f"per-layer metrics not computed: {missing}")
        self.ledger = ledger
        return {name: out[name] for name, _, _ in PER_LAYER}
