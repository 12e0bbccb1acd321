"""The benchmark's three workloads against the public SSI service API.

Each workload builds everything it needs from one seed, runs one or more
timed phases on the running event loop, and then checks every answer it
was given:

* ``oneshot-mix`` — two closed-loop queriers send the standard [TNP14]
  mix over 1000 PDSs while writes (record updates, ``forget()``, online
  flips) fan out to one local-source SUM standing subscription. Every
  served answer must equal ``run_query`` re-run on its recorded snapshot
  and seed.
* ``delta-storm`` — 1024 PDSs push coalesced, batch-encoded deltas into
  one wire-fed SUM sliding window: open-loop stretches at a fixed offered
  rate with a boundary every 80 ms, each followed by a saturation burst
  that keeps the ingest backlog non-empty. Every decrypted window must
  equal the plaintext ledger of the changes the benchmark generated.
* ``token-spj`` — two closed-loop clients send embedded-spj descriptors to
  the hosted Part II engine. Every answer must equal the tuple-at-a-time
  oracle, computed outside the timed segments.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import math
import random
import time

from spans import REQUEST

KEY_BITS = 1024
CLIENTS = 2
#: A closed-loop run goes past its deadline until it has this many answers
#: (split over its phases), so the p95 has at least ten samples beyond it.
MIN_ANSWERS = 220


def derive(seed: int, label: str) -> int:
    """A 64-bit sub-seed of the workload seed for one random stream."""
    digest = hashlib.sha256(f"perfbench:{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def keypair(seed: int):
    from repro.crypto.paillier import generate_keypair

    return generate_keypair(KEY_BITS, random.Random(derive(seed, "paillier")))


def sum_descriptor():
    from repro.globalq.queries import AggregateQuery
    from repro.service import FAMILY_SECURE_AGG, QueryDescriptor

    return QueryDescriptor(FAMILY_SECURE_AGG, AggregateQuery.sum("salary"))


class PhaseResult:
    """What one timed phase observed."""

    def __init__(self) -> None:
        #: Timed seconds, summed over the phase's segments.
        self.elapsed = 0.0
        #: Primary latency samples (queries, or windows) in seconds.
        self.latency: list[float] = []
        #: Secondary latency samples (writes, frame ingest calls, cache
        #: misses).
        self.side: list[float] = []
        #: Generator lateness and generator self time (seconds).
        self.lag: list[float] = []
        self.busy = 0.0
        #: Answers given in this phase (closed loops).
        self.answers: list = []
        #: Application deltas in the saturation bursts, and their duration.
        self.work = 0
        self.sat_elapsed = 0.0
        self.attempted = 0
        self.failed = 0


class Workload:
    """Common shape: ``setup`` -> phases -> ``verify`` -> ``close``."""

    name = ""
    #: The workload's own names for the generic figures run.py reports.
    OWN_NAMES: dict[str, str] = {}
    #: A phase runs as this many timed segments. The untimed work between
    #: them (checks, set-up samples) spreads a run's samples over more of
    #: the host's slow and fast spells than one unbroken stretch would.
    SEGMENTS = 4

    def __init__(self, seed: int, seconds: float, phases: int = 1) -> None:
        self.seed = seed
        self.seconds = seconds
        self.phases = phases
        self.min_answers = MIN_ANSWERS // phases
        self.service = None
        #: Workload parameters, stamped into the run's provenance.
        self.params: dict = {}
        self._ids = itertools.count(1)

    def phase_seconds(self) -> float:
        return self.seconds / self.phases

    async def setup(self) -> None:
        raise NotImplementedError

    async def run_phase(self, index: int, interlude=None) -> PhaseResult:
        """Run phase ``index``; ``interlude(k)`` runs untimed after each
        segment ``k`` but the last."""
        raise NotImplementedError

    def check_pending(self) -> None:
        """Check what the workload was given since the last call."""

    def verify(self) -> dict:
        raise NotImplementedError

    def throughput(self, phase: PhaseResult) -> float:
        """The phase's ``throughput_per_s`` (after :meth:`verify`)."""
        raise NotImplementedError

    def extra_metrics(self, phase: PhaseResult) -> dict:
        """Figures only this workload has: name -> (value, unit)."""
        return {}

    async def close(self) -> None:
        if self.service is not None:
            await self.service.stop()


class ClosedLoop(Workload):
    """Queriers that each wait for an answer before sending the next."""

    def __init__(self, seed, seconds, phases=1) -> None:
        super().__init__(seed, seconds, phases)
        #: Every ServedResult the service gave, in arrival order.
        self.answers: list = []
        #: Per answer, what :meth:`_floor` read just before its submit.
        self.floors: list = []
        #: Indices and ids of the answers found wrong so far.
        self.wrong: list[int] = []
        self.wrong_ids: set[int] = set()
        self._checked = 0

    def _pick(self, rng):
        """The next descriptor a client sends."""
        raise NotImplementedError

    def _floor(self):
        """What an answer must not predate, read just before its submit."""
        return None

    def _answered(self, served, latency, rng, result) -> None:
        """What a client does after each answer (outside its latency)."""

    async def _client(self, rng, deadline, min_answers, result) -> None:
        from repro.service import Overloaded

        last_done = time.perf_counter()
        while True:
            generated = time.perf_counter()
            if generated >= deadline and len(result.latency) >= min_answers:
                return
            descriptor = self._pick(rng)
            REQUEST.set(f"query-{next(self._ids)}")
            floor = self._floor()
            submitted = time.perf_counter()
            result.lag.append(submitted - last_done)
            result.busy += submitted - generated
            result.attempted += 1
            try:
                served = await self.service.submit(descriptor)
            except Overloaded:
                result.failed += 1
                last_done = time.perf_counter()
                continue
            latency = time.perf_counter() - submitted
            result.latency.append(latency)
            self.answers.append(served)
            self.floors.append(floor)
            self._answered(served, latency, rng, result)
            last_done = time.perf_counter()

    async def run_phase(self, index: int, interlude=None) -> PhaseResult:
        result = PhaseResult()
        first = len(self.answers)
        rngs = [
            random.Random(derive(self.seed, f"client-{index}-{i}"))
            for i in range(CLIENTS)
        ]
        for segment in range(self.SEGMENTS):
            last = segment == self.SEGMENTS - 1
            started = time.perf_counter()
            deadline = started + self.phase_seconds() / self.SEGMENTS
            # The last segment goes on until the phase has its answers.
            min_answers = self.min_answers if last else 0
            await asyncio.gather(
                *(self._client(rng, deadline, min_answers, result) for rng in rngs)
            )
            result.elapsed += time.perf_counter() - started
            if interlude is not None and not last:
                interlude(segment)
        result.answers = self.answers[first:]
        return result

    def _check(self, start: int) -> list[int]:
        """Indices, from ``start`` on, of the answers that are wrong."""
        raise NotImplementedError

    def check_pending(self) -> None:
        start, self._checked = self._checked, len(self.answers)
        for index in self._check(start):
            self.wrong.append(index)
            self.wrong_ids.add(id(self.answers[index]))

    def throughput(self, phase: PhaseResult) -> float:
        """Answers that passed the exactness check, per second."""
        right = sum(1 for s in phase.answers if id(s) not in self.wrong_ids)
        return right / phase.elapsed


# ----------------------------------------------------------------------
# oneshot-mix
# ----------------------------------------------------------------------
class OneshotMix(ClosedLoop):
    name = "oneshot-mix"
    OWN_NAMES = {
        "throughput_per_s": "query_qps",
        "latency_p50_ms": "query_p50_ms",
        "latency_p95_ms": "query_p95_ms",
        "side_p50_ms": "write_p50_ms",
        "side_p95_ms": "write_p95_ms",
    }
    POPULATION = 1000
    WRITE_EVERY = 3  # one write per this many answered queries

    def __init__(self, seed, seconds, phases=1):
        super().__init__(seed, seconds, phases)
        self.params = {
            "pds": self.POPULATION,
            "clients": CLIENTS,
            "mix": "standard_mix",
            "write_every_answers": self.WRITE_EVERY,
            "writes": ["update_records", "forget", "set_online"],
            "standing": "local-source SUM(salary), width 4000 slide 1000",
            "segments_per_phase": self.SEGMENTS,
        }
        #: Re-run results by (descriptor, version, seed), kept across checks.
        self._reruns: dict = {}

    async def setup(self) -> None:
        from repro.globalq.continuous import WindowSpec
        from repro.service import (
            ServiceConfig,
            SsiQueryService,
            slim_population,
            standard_mix,
        )

        self.population = slim_population(
            self.POPULATION,
            seed=derive(self.seed, "population"),
            fleet_seed=derive(self.seed, "fleet"),
        )
        self.public, self.private = keypair(self.seed)
        self.service = SsiQueryService(
            self.population, ServiceConfig(record_snapshots=True)
        )
        self.service.start()
        self.subscription = self.service.standing.subscribe(
            sum_descriptor(),
            WindowSpec(width=4000, slide=1000),
            self.public,
            emitter_seed=derive(self.seed, "emitter"),
        )
        self.mix = standard_mix()
        for descriptor in self.mix.descriptors():  # warm-up
            await self.service.submit(descriptor)

    def _write(self, rng: random.Random) -> None:
        from repro.workloads.people import CITIES, PersonRecord

        population = self.population
        pds_id = rng.randrange(len(population))
        kind = rng.randrange(3)
        if kind == 0:
            record = PersonRecord(
                {
                    "city": CITIES[rng.randrange(len(CITIES))],
                    "salary": float(1200 + rng.randrange(0, 4000)),
                }
            )
            population.update_records(pds_id, [record])
        elif kind == 1:
            population.forget(pds_id)
        else:
            population.set_online(pds_id, not population.is_online(pds_id))

    def _pick(self, rng):
        return self.mix.pick(rng)

    def _floor(self) -> int:
        return self.population.version

    def _answered(self, served, latency, rng, result) -> None:
        """Every third answer, one write, timed with its delta fan-out."""
        if len(self.answers) % self.WRITE_EVERY:
            return
        REQUEST.set(f"write-{next(self._ids)}")
        started = time.perf_counter()
        self._write(rng)
        result.side.append(time.perf_counter() - started)
        result.attempted += 1

    def _check(self, start: int) -> list[int]:
        return check_oneshot(
            self.answers,
            self.floors,
            self.population.fleet,
            self.service.config.domain,
            start=start,
            expected=self._reruns,
        )

    def verify(self) -> dict:
        self.check_pending()
        wrong = self.wrong
        # The standing fold the writes fed: decrypt == recollection.
        folded = self.subscription.standing.current()
        live = (
            self.private.decrypt_signed(folded[0]),
            self.private.decrypt_signed(folded[1]),
        )
        expected = self.service.standing.reference(self.subscription.sub_id)
        standing_ok = live == expected
        return {
            "checked": len(self.answers) + 1,
            "wrong": len(wrong) + (0 if standing_ok else 1),
            "wrong_answers": wrong,
            "standing_live": list(live),
            "standing_expected": list(expected),
        }


def check_oneshot(
    answers, floors, fleet, domain, start=0, expected=None
) -> list[int]:
    """Indices of served answers that are stale or differ from a batch run.

    An answer is stale when it reflects an older population version than
    the querier saw just before submitting (its floor): a stale cache hit
    carries the snapshot it was first computed on, so re-running it would
    only reproduce itself. Every other answer is compared, bit for bit,
    with ``run_query`` re-run on its recorded snapshot and seed; answers
    sharing (descriptor, version, seed) share one re-run, kept in
    ``expected`` across calls. Only answers from ``start`` on are checked.
    """
    from repro.service import run_query

    if expected is None:
        expected = {}
    wrong = []
    for index, (served, floor) in enumerate(zip(answers, floors, strict=True)):
        if index < start:
            continue
        if served.version < floor:
            wrong.append(index)
            continue
        key = (served.descriptor.canonical(), served.version, served.seed)
        if key not in expected:
            expected[key] = run_query(
                served.descriptor,
                served.snapshot.nodes,
                fleet,
                served.seed,
                domain,
            ).result
        if served.result != expected[key]:
            wrong.append(index)
    return wrong


# ----------------------------------------------------------------------
# delta-storm
# ----------------------------------------------------------------------
class DeltaStorm(Workload):
    name = "delta-storm"
    OWN_NAMES = {
        "throughput_per_s": "ingest_deltas_per_s",
        "latency_p50_ms": "window_p50_ms",
        "latency_p95_ms": "window_p95_ms",
        "side_p50_ms": "frame_ingest_p50_ms",
        "side_p95_ms": "frame_ingest_p95_ms",
    }
    POPULATION = 1024
    # Simulated ms per pane == wall ms between boundaries. The querier's
    # four 1024-bit decrypts per window take ~28 ms of the one event loop
    # (2-core x86-64 VM), so a 50 ms cadence left no headroom: whenever the
    # host ran slower the loop passed saturation and the window tail blew
    # up. 80 ms keeps the open loop below saturation.
    PANE_MS = 80
    WIDTH_MS = 320  # sliding window of four panes
    FRAME_ENTRIES = 50
    OPEN_RATE = 2000  # offered wire deltas per second in the open loop
    OPEN_SHARE = 0.95  # of a phase's seconds spent in the open loop
    SAT_WIRE_PER_S = 2500  # saturation wire deltas per phase second
    SAT_PER_PANE = 1000
    SAT_HIGH_WATER = 2048  # ingest backlog kept below this (queue 4096)
    # Each of a phase's SEGMENTS is an open-loop stretch followed by a
    # saturation burst, so the saturation rate samples the host's speed
    # across the whole run rather than in one short stretch at its end.
    PALETTE = 64

    def __init__(self, seed, seconds, phases=1):
        super().__init__(seed, seconds, phases)
        per_phase = self.phase_seconds()
        # Per segment: open-loop boundaries and saturation wire deltas.
        self.open_panes = max(
            1,
            math.ceil(
                per_phase * self.OPEN_SHARE * 1000 / self.PANE_MS / self.SEGMENTS
            ),
        )
        self.sat_wire = max(
            self.SAT_PER_PANE,
            round(per_phase * self.SAT_WIRE_PER_S / self.SEGMENTS),
        )
        self.params = {
            "pds": self.POPULATION,
            "window_ms": {"width": self.WIDTH_MS, "slide": self.PANE_MS},
            "open_loop_wire_deltas_per_s": self.OPEN_RATE,
            "segments_per_phase": self.SEGMENTS,
            "open_loop_boundaries_per_segment": self.open_panes,
            "saturation_wire_deltas_per_segment": self.sat_wire,
            "saturation_backlog_high_water": self.SAT_HIGH_WATER,
            "frame_entries": self.FRAME_ENTRIES,
            "changes_per_pds_pane": [1, 2, 3],
            "palette": self.PALETTE,
        }
        #: Decrypted windows and their mismatches against the ledger.
        self.windows_checked = 0
        self.wrong_windows: list[int] = []
        self.offered_wire = 0
        self.offered_app = 0

    # -- setup: the PDS side, built before any timing --------------------
    async def setup(self) -> None:
        from repro.globalq.continuous import (
            DeltaBatcher,
            StandingView,
            WindowSpec,
        )
        from repro.service import ServiceConfig, SsiQueryService, slim_population

        rng = random.Random(derive(self.seed, "storm"))
        self.public, self.private = keypair(self.seed)
        population = slim_population(
            self.POPULATION, seed=derive(self.seed, "population")
        )
        self.service = SsiQueryService(population, ServiceConfig())
        self.service.start()
        self.spec = WindowSpec(width=self.WIDTH_MS, slide=self.PANE_MS)
        descriptor = sum_descriptor()
        self.subscription = self.service.standing.subscribe(
            descriptor, self.spec, self.public, start=0, local_source=False
        )
        self.view = StandingView(self.private, descriptor.query)
        # Fresh encryptions of known plaintexts; every delta re-stamps one
        # with its own (pds_id, seq, timestamp).
        pool = self.public.blinding_pool(derive(self.seed, "palette"))
        palette = []
        for _ in range(self.PALETTE):
            value = rng.randrange(-400, 401)
            count = rng.choice((-1, 0, 0, 1))
            palette.append(
                (
                    value,
                    count,
                    self.public.encrypt(value, pool=pool),
                    self.public.encrypt(count, pool=pool),
                )
            )
        self._rng = rng
        self._palette = palette
        self._batcher = DeltaBatcher(self.public.n, self.spec, start=0)
        self._seq = [0] * self.POPULATION
        self._frame_no = 0
        #: pane index -> plaintext (value, count) change the pane carries.
        self.ledger: dict[int, list[int]] = {}
        pane = 0
        #: Per phase, its segments: (open-loop events, saturation frames,
        #: the pane after the segment).
        self.plans = []
        #: Application changes carried by each phase's saturation frames.
        self.sat_changes: list[int] = []
        for _ in range(self.phases):
            self.sat_changes.append(0)
            segments = []
            for _ in range(self.SEGMENTS):
                open_events, pane = self._open_loop(pane)
                sat_frames, pane = self._saturation(pane)
                segments.append((open_events, sat_frames, pane))
            self.plans.append(segments)

    def _changes(self, pds_id: int, low: int, high: int, pane: int) -> None:
        from repro.globalq.continuous import EncryptedDelta

        rng = self._rng
        changes = rng.choice((1, 2, 3))
        stamps = sorted(rng.randrange(low, high) for _ in range(changes))
        sums = self.ledger.setdefault(pane, [0, 0])
        for stamp in stamps:
            value, count, value_cipher, count_cipher = self._palette[
                rng.randrange(len(self._palette))
            ]
            self._seq[pds_id] += 1
            self._batcher.add(
                self.subscription.sub_id,
                EncryptedDelta(
                    pds_id=pds_id,
                    seq=self._seq[pds_id],
                    timestamp=stamp,
                    value_cipher=value_cipher,
                    count_cipher=count_cipher,
                ),
            )
            sums[0] += value
            sums[1] += count
            self.offered_app += 1

    def _frame(self):
        from repro.net.codec import KIND_DELTA_BATCH, Frame, encode_delta_batch

        entries = self._batcher.flush()
        self._frame_no += 1
        frame = Frame(
            kind=KIND_DELTA_BATCH,
            sender="pds-gateway",
            seq=self._frame_no,
            payload=encode_delta_batch(entries),
        )
        return frame, len(entries)

    def _open_loop(self, pane: int):
        """Frames and boundaries at fixed offsets from the segment start."""
        per_pane = min(
            self.POPULATION, round(self.OPEN_RATE * self.PANE_MS / 1000)
        )
        frames_per_pane = max(1, per_pane // self.FRAME_ENTRIES)
        slot = self.PANE_MS / frames_per_pane
        events = []  # (due offset s, order, kind, payload)
        first = pane
        for pane in range(first, first + self.open_panes):
            pane_start = pane * self.PANE_MS
            offset = (pane - first) * self.PANE_MS
            chosen = self._rng.sample(range(self.POPULATION), per_pane)
            for k in range(frames_per_pane):
                low = pane_start + int(k * slot)
                high = pane_start + int((k + 1) * slot)
                for pds_id in chosen[k::frames_per_pane]:
                    self._changes(pds_id, low, high, pane)
                frame, wire = self._frame()
                due = (offset + (k + 1) * slot) / 1000
                events.append((due, 0, "frame", (frame, wire)))
            boundary = pane_start + self.PANE_MS
            events.append(((offset + self.PANE_MS) / 1000, 1, "boundary", boundary))
        events.sort(key=lambda e: (e[0], e[1]))
        return events, first + self.open_panes

    def _saturation(self, pane: int):
        changes_before = self.offered_app
        frames = []
        remaining = self.sat_wire
        while remaining > 0:
            count = min(self.SAT_PER_PANE, remaining, self.POPULATION)
            chosen = self._rng.sample(range(self.POPULATION), count)
            pane_start = pane * self.PANE_MS
            for start in range(0, count, self.FRAME_ENTRIES):
                for pds_id in chosen[start : start + self.FRAME_ENTRIES]:
                    self._changes(
                        pds_id, pane_start, pane_start + self.PANE_MS, pane
                    )
                frames.append(self._frame())
            remaining -= count
            pane += 1
        self.sat_changes[-1] += self.offered_app - changes_before
        return frames, pane

    # -- the timed phases -------------------------------------------------
    def _expected(self, window_end: int) -> tuple[int, int, int, int]:
        """The ledger's (live sum, live count, window sum, window count)."""
        live = [0, 0]
        window = [0, 0]
        window_start = max(0, window_end - self.WIDTH_MS)
        for pane, (value, count) in self.ledger.items():
            pane_start = pane * self.PANE_MS
            if pane_start < window_end:
                live[0] += value
                live[1] += count
                if pane_start >= window_start:
                    window[0] += value
                    window[1] += count
        return live[0], live[1], window[0], window[1]

    async def _publish(self, boundary: int) -> list:
        """Seal through ``boundary``; the querier decrypts each new window."""
        await self.service.publish_windows(boundary)
        updates = self.subscription.updates
        fresh = updates[self._seen :]
        self._seen = len(updates)
        return [self.view.ingest(update) for update in fresh]

    def _check(self, windows) -> None:
        """Compare decrypted windows with the plaintext ledger."""
        for window in windows:
            self.windows_checked += 1
            got = (
                window.total,
                window.count,
                window.window_total,
                window.window_count,
            )
            if got != self._expected(window.window_end):
                self.wrong_windows.append(window.index)

    def _counter(self, name: str) -> int:
        return self.service.registry.counter(name).value

    async def run_phase(self, index: int, interlude=None) -> PhaseResult:
        self._seen = len(self.subscription.updates)
        result = PhaseResult()
        for segment, plan in enumerate(self.plans[index]):
            open_events, sat_frames, end_pane = plan
            if segment and interlude is not None:
                interlude(segment - 1)
            started = time.perf_counter()
            await self._open_loop_run(open_events, result)
            await self._saturate(sat_frames, result)
            # Seal the burst's panes outside any timing, and check them.
            REQUEST.set(f"window-{end_pane * self.PANE_MS}")
            windows = await self._publish(end_pane * self.PANE_MS)
            result.attempted += len(windows)
            self._check(windows)
            result.elapsed += time.perf_counter() - started
        result.work = self.sat_changes[index]
        return result

    async def _open_loop_run(self, events, result: PhaseResult) -> None:
        """Every frame and boundary is timed from its due time."""
        started = time.perf_counter()
        for due, _, kind, payload in events:
            due_at = started + due
            delay = due_at - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            begun = time.perf_counter()
            result.lag.append(max(0.0, begun - due_at))
            if kind == "frame":
                frame, wire = payload
                REQUEST.set(f"frame-{frame.seq}")
                self.service.ingest_frame(frame)
                result.side.append(time.perf_counter() - begun)
                self.offered_wire += wire
                result.attempted += wire
                await asyncio.sleep(0)  # let the ingest worker interleave
            else:
                REQUEST.set(f"window-{payload}")
                windows = await self._publish(payload)
                decrypted = time.perf_counter()
                result.latency.append(decrypted - due_at)
                result.attempted += len(windows)
                self._check(windows)
                result.busy += time.perf_counter() - decrypted

    async def _saturate(self, frames, result: PhaseResult) -> None:
        """Keep the ingest backlog non-empty but under the queue depth."""
        drained_base = self._counter("globalq.ingest.deltas")
        fed = 0
        started = time.perf_counter()
        for frame, wire in frames:
            while True:
                drained = self._counter("globalq.ingest.deltas") - drained_base
                if fed - drained + wire <= self.SAT_HIGH_WATER:
                    break
                await asyncio.sleep(0.0005)
            REQUEST.set(f"frame-{frame.seq}")
            self.service.ingest_frame(frame)
            fed += wire
            self.offered_wire += wire
            result.attempted += wire
            await asyncio.sleep(0)
        await self.service.drain_ingest()
        result.sat_elapsed += time.perf_counter() - started

    def throughput(self, phase: PhaseResult) -> float:
        """Application deltas folded per second of saturation."""
        return phase.work / phase.sat_elapsed

    def verify(self) -> dict:
        folded = self._counter("globalq.ingest.folded")
        shed = self._counter("globalq.ingest.shed")
        rejected = self._counter("globalq.ingest.rejected")
        duplicates = self._counter("globalq.delta.duplicates")
        # The querier's view of the final live fold against the ledger.
        live = self.subscription.standing.current()
        total = (
            self.private.decrypt_signed(live[0]),
            self.private.decrypt_signed(live[1]),
        )
        expected = self._expected(10**12)[:2]
        final_ok = total == expected
        return {
            "checked": self.windows_checked + 1,
            "wrong": len(self.wrong_windows) + (0 if final_ok else 1),
            "wrong_windows": self.wrong_windows,
            "accounting": {
                "offered": self.offered_wire,
                "folded": folded,
                "shed": shed,
                "rejected": rejected,
                "duplicates": duplicates,
                "balanced": folded + shed + rejected + duplicates
                == self.offered_wire,
            },
            "lost_deltas": shed + rejected,
        }


# ----------------------------------------------------------------------
# token-spj
# ----------------------------------------------------------------------
class TokenSpj(ClosedLoop):
    name = "token-spj"
    OWN_NAMES = {
        "throughput_per_s": "query_qps",
        "latency_p50_ms": "query_p50_ms",
        "latency_p95_ms": "query_p95_ms",
        "side_p50_ms": "miss_p50_ms",
        "side_p95_ms": "miss_p95_ms",
    }
    ROWS = 2000
    ZIPF = 1.5

    def __init__(self, seed, seconds, phases=1):
        super().__init__(seed, seconds, phases)
        self.params = {
            "lineitems": self.ROWS,
            "clients": CLIENTS,
            "shapes": "embedded_mix, WHERE constants drawn from the TPCD domain",
            "constant_draw": f"zipf s={self.ZIPF} over each shape's domain order",
            "segments_per_phase": self.SEGMENTS,
        }
        #: Oracle answers by canonical descriptor, kept across checks.
        self._oracle: dict = {}

    def _universes(self):
        """Each embedded_mix shape over its domain of WHERE constants."""
        from repro.globalq.queries import AggregateQuery
        from repro.service import FAMILY_EMBEDDED, QueryDescriptor
        from repro.workloads import tpcd

        suppliers = max(2, max(2, self.ROWS // 5) // 8)

        def embedded(query):
            return QueryDescriptor(FAMILY_EMBEDDED, query, embedded_rows=self.ROWS)

        grouped_avg = [
            embedded(
                AggregateQuery.avg(
                    "LINEITEM.Price",
                    group_by="SUPPLIER.Name",
                    where=(("CUSTOMER.Mktsegment", segment), ("LINEITEM.Quantity", qty)),
                )
            )
            for segment in tpcd.MKT_SEGMENTS
            for qty in range(1, 17)
        ]
        grouped_sum = [
            embedded(
                AggregateQuery.sum(
                    "LINEITEM.Quantity",
                    group_by="CUSTOMER.Mktsegment",
                    where=(("SUPPLIER.Nation", nation), ("LINEITEM.Quantity", qty)),
                )
            )
            for nation in tpcd.NATIONS
            for qty in range(1, 13)
        ]
        narrow_count = [
            embedded(
                AggregateQuery.count(
                    where=(
                        ("CUSTOMER.Mktsegment", segment),
                        ("SUPPLIER.Name", f"SUPPLIER-{supplier}"),
                    )
                )
            )
            for segment in tpcd.MKT_SEGMENTS
            for supplier in range(suppliers)
        ]
        return [grouped_avg, grouped_sum, narrow_count]

    async def setup(self) -> None:
        from repro.service import ServiceConfig, SsiQueryService, slim_population

        # Popularity follows the domain order, the same for every seed, so
        # the seed varies the request sequence but not which keys are hot.
        self.shapes = []
        for universe in self._universes():
            weights = list(
                itertools.accumulate(
                    1.0 / (rank + 1) ** self.ZIPF for rank in range(len(universe))
                )
            )
            self.shapes.append((universe, weights))
        population = slim_population(16, seed=derive(self.seed, "population"))
        self.service = SsiQueryService(population, ServiceConfig())
        self.service.start()
        for universe, _ in self.shapes:  # warm-up builds the hosted engine
            await self.service.submit(universe[-1])

    def _pick(self, rng):
        universe, weights = self.shapes[rng.randrange(len(self.shapes))]
        return rng.choices(universe, cum_weights=weights)[0]

    def _answered(self, served, latency, rng, result) -> None:
        """Cache misses are this workload's secondary latency."""
        if not served.cached:
            result.side.append(latency)

    def _check(self, start: int) -> list[int]:
        return check_embedded(self.answers, start=start, oracle=self._oracle)

    def verify(self) -> dict:
        self.check_pending()
        wrong = self.wrong
        return {
            "checked": len(self.answers),
            "wrong": len(wrong),
            "wrong_answers": wrong,
            "distinct_descriptors": len(
                {served.descriptor.canonical() for served in self.answers}
            ),
        }

    def extra_metrics(self, phase: PhaseResult) -> dict:
        hits = sum(1 for served in phase.answers if served.cached)
        return {"cache_hit_share": (hits / max(1, len(phase.answers)), "ratio")}


def check_embedded(answers, start=0, oracle=None) -> list[int]:
    """Indices of answers, from ``start`` on, that differ from the
    tuple-at-a-time oracle (kept in ``oracle`` across calls)."""
    from repro.service import run_embedded

    if oracle is None:
        oracle = {}
    wrong = []
    for index in range(start, len(answers)):
        served = answers[index]
        key = served.descriptor.canonical()
        if key not in oracle:
            oracle[key] = run_embedded(served.descriptor, batch_size=0).result
        if served.result != oracle[key]:
            wrong.append(index)
    return wrong


WORKLOADS = {cls.name: cls for cls in (OneshotMix, DeltaStorm, TokenSpj)}
