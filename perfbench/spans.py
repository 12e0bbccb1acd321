"""Span recorder and per-layer wall-clock ledger for the benchmark.

Tracing never edits the program: :class:`Tracer` replaces class methods and
module-level names with timing wrappers for the length of a traced phase
and puts the originals back afterwards. A module function is wrapped under
the name its importer uses (``repro.service.server`` binds
``decode_delta_batch`` and ``run_query`` by name), so the wrapper sits at
the exact call site the program goes through.

Spans stay in memory as compact tuples and are written out when the run
ends. Synchronous spans nest on a per-thread stack; a span's self time is
its duration minus the time its child spans on the same thread cover.
Coroutine spans (waits such as ``drain_ingest``) cover time the event loop
spends on other work, so they are recorded as waits and kept out of the
self-time ledger.

The ledger splits the traced wall time among layers: each instant goes to
the layers whose self intervals cover it, shared equally when several
threads are inside spans at once (one interpreter lock runs one of them at
a time), and to ``unattributed`` when no thread is inside a span. Shares
plus the unattributed remainder sum to the wall time by construction.
"""

from __future__ import annotations

import contextvars
import functools
import gzip
import inspect
import json
import threading
import time

#: The operation (query, frame, window, write, batch) a span serves.
REQUEST = contextvars.ContextVar("perfbench_request", default=None)

# Span tuple fields.
NAME, THREAD, START, END, PARENT, REQ, CPU, ID = range(8)


class Tracer:
    """In-memory span store plus the patch table that feeds it."""

    def __init__(self) -> None:
        #: Finished synchronous spans:
        #: (name, thread, start, end, parent, request, cpu_s, id).
        self.spans: list[tuple] = []
        #: Finished coroutine spans: (name, start, end, request).
        self.waits: list[tuple] = []
        self.counts: dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple] = []
        self._next_id = 0
        self.started = None
        self.stopped = None

    # ------------------------------------------------------------------
    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent

    def _close(self, name, span_id, parent, start, end, cpu) -> None:
        self._stack().pop()
        record = (
            name,
            threading.get_ident(),
            start,
            end,
            parent,
            REQUEST.get(),
            cpu,
            span_id,
        )
        with self._lock:
            self.spans.append(record)

    # ------------------------------------------------------------------
    def wrap(self, fn, name: str, on_result=None, on_enter=None):
        """A timing wrapper of ``fn`` recording spans named ``name``.

        ``name`` may be a function of the call's positional arguments, for
        spans split by argument (per query family).
        ``on_enter(args)`` runs before the call and ``on_result(args,
        result, span_start)`` after it, both outside the timed interval,
        for counts that need the arguments or the result.
        """
        tracer = self
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                if on_enter is not None:
                    on_enter(args)
                start = time.perf_counter()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    label = name(args) if callable(name) else name
                    with tracer._lock:
                        tracer.waits.append((label, start, end, REQUEST.get()))
                if on_result is not None:
                    on_result(args, result, start)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_enter is not None:
                on_enter(args)
            span_id, parent = tracer._open()
            cpu0 = time.thread_time()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                cpu = time.thread_time() - cpu0
                label = name(args) if callable(name) else name
                tracer._close(label, span_id, parent, start, end, cpu)
            if on_result is not None:
                on_result(args, result, start)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, **hooks) -> None:
        """Replace ``owner.attr`` (class or module) with a traced wrapper."""
        original = owner.__dict__[attr]
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"cannot trace {attr}: not a plain function")
        setattr(owner, attr, self.wrap(original, name, **hooks))
        self._patches.append((owner, attr, original))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        out: dict[str, float] = {}
        for start, end, name in _self_intervals(self.spans):
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def wait_totals(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, start, end, _ in self.waits:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def ledger(self, layer_of) -> dict:
        """Wall-clock shares per layer over ``[started, stopped]``.

        ``layer_of(span_name)`` maps a span to its ledger layer. Returns
        the shares, the unattributed remainder and the wall time; shares
        plus remainder equal the wall time up to float rounding.
        """
        wall = self.stopped - self.started
        intervals = _self_intervals(self.spans)
        events = []
        for start, end, name in intervals:
            start = max(start, self.started)
            end = min(end, self.stopped)
            if end > start:
                layer = layer_of(name)
                events.append((start, 1, layer))
                events.append((end, -1, layer))
        events.sort(key=lambda e: (e[0], e[1]))
        shares: dict[str, float] = {}
        active: dict[str, int] = {}
        depth = 0
        covered = 0.0
        last = self.started
        for at, delta, layer in events:
            if depth and at > last:
                span = at - last
                covered += span
                for name, k in active.items():
                    shares[name] = shares.get(name, 0.0) + span * k / depth
            last = at
            depth += delta
            active[layer] = active.get(layer, 0) + delta
            if not active[layer]:
                del active[layer]
        unattributed = wall - covered
        return {
            "wall_s": wall,
            "shares_s": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
            "unattributed_s": unattributed,
            "unattributed_share": unattributed / wall if wall > 0 else 0.0,
            "sum_check_s": sum(shares.values()) + unattributed,
        }

    def write(self, path) -> None:
        """Dump every span and wait as gzipped JSON lines."""
        with gzip.open(path, "wt") as out:
            for span in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": span[ID],
                            "name": span[NAME],
                            "thread": span[THREAD],
                            "start": span[START],
                            "end": span[END],
                            "parent": span[PARENT],
                            "request": span[REQ],
                            "cpu_s": span[CPU],
                        }
                    )
                    + "\n"
                )
            for name, start, end, request in self.waits:
                out.write(
                    json.dumps(
                        {
                            "name": name,
                            "wait": True,
                            "start": start,
                            "end": end,
                            "request": request,
                        }
                    )
                    + "\n"
                )


def _self_intervals(spans) -> list[tuple[float, float, str]]:
    """Each span's interval minus the intervals of its direct children."""
    by_thread: dict[int, list] = {}
    for span in spans:
        by_thread.setdefault(span[THREAD], []).append(span)
    out = []
    for thread_spans in by_thread.values():
        # Spans on one thread nest properly: sort by start, longest first,
        # and sweep with a stack.
        ordered = sorted(thread_spans, key=lambda s: (s[START], -s[END]))
        stack: list[list] = []  # [start, end, name, child_intervals]
        done = []
        for span in ordered:
            while stack and stack[-1][1] <= span[START]:
                done.append(stack.pop())
            node = [span[START], span[END], span[NAME], []]
            if stack:
                stack[-1][3].append((span[START], span[END]))
            stack.append(node)
        done.extend(stack)
        for start, end, name, kids in done:
            cursor = start
            for kid_start, kid_end in kids:  # already in start order
                if kid_start > cursor:
                    out.append((cursor, kid_start, name))
                cursor = max(cursor, kid_end)
            if end > cursor:
                out.append((cursor, end, name))
    return out
