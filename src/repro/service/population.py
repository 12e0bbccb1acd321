"""The shared, versioned PDS population a long-lived service queries.

One-shot drivers take a node list and die; a service shares one population
across every concurrent query *while the population changes underneath it*:
tokens churn offline/online, citizens exercise the tutorial's ``forget()``
right and their tuples must stop contributing. :class:`ServicePopulation`
makes those changes observable and exact:

* every mutation (churn flip, forget) bumps a monotonically increasing
  **version** and notifies listeners synchronously — the result cache's
  invalidation hook;
* :meth:`snapshot` returns an immutable view (version + the online nodes in
  population order), one shared object per version. Forget is
  copy-on-write on the node object, so a snapshot taken before the
  deletion keeps answering exactly as admitted — in-flight queries are
  never half-mutated.

Churn can come from two sources: a :class:`~repro.net.runtime.NodeRuntime`
flip listener (:meth:`bind_runtime` — bus connectivity *is* membership, the
PR 1 network model), or :class:`MembershipChurn`, an event-heap driver over
the same :class:`~repro.net.runtime.ChurnModel` statistics for populations
too large to register a bus endpoint each (the 1M-PDS configuration).
"""

from __future__ import annotations

import asyncio
import heapq
import random
from dataclasses import dataclass
from typing import Callable

from repro.globalq.protocol import PdsNode, TokenFleet
from repro.net.runtime import ChurnModel, NodeRuntime
from repro.workloads.people import CITIES, PersonRecord

#: Listener signature: (event, pds_id, new_version). ``event`` is "churn",
#: "forget" or "update".
PopulationListener = Callable[[str, int, int], None]


@dataclass(frozen=True)
class PopulationSnapshot:
    """Immutable view one query executes against."""

    version: int
    nodes: tuple[PdsNode, ...]


class ServicePopulation:
    """A shared node fleet with exact, versioned membership."""

    def __init__(self, nodes: list[PdsNode], fleet: TokenFleet) -> None:
        self._nodes: list[PdsNode] = list(nodes)
        self._online: list[bool] = [True] * len(self._nodes)
        self.fleet = fleet
        self.version = 0
        self._listeners: list[PopulationListener] = []
        self.churn_events = 0
        self.forget_events = 0
        self.update_events = 0
        #: The current version's snapshot, built on first request.
        self._snapshot: PopulationSnapshot | None = None

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def online_count(self) -> int:
        return sum(self._online)

    def is_online(self, pds_id: int) -> bool:
        return self._online[pds_id]

    def node(self, pds_id: int) -> PdsNode:
        """The current node object for ``pds_id`` (delta emitters read it)."""
        return self._nodes[pds_id]

    def online_nodes(self):
        """Iterate the online nodes in population order (no snapshot copy)."""
        for node, online in zip(self._nodes, self._online):
            if online:
                yield node

    def add_listener(self, listener: PopulationListener) -> None:
        self._listeners.append(listener)

    def _notify(self, event: str, pds_id: int) -> None:
        self.version += 1
        self._snapshot = None
        for listener in self._listeners:
            listener(event, pds_id, self.version)

    # ------------------------------------------------------------------
    # Mutations (each one is a cache-invalidation point)
    # ------------------------------------------------------------------
    def set_online(self, pds_id: int, online: bool) -> bool:
        """Flip one PDS's membership; returns whether anything changed."""
        if self._online[pds_id] == online:
            return False
        self._online[pds_id] = online
        self.churn_events += 1
        self._notify("churn", pds_id)
        return True

    def forget(self, pds_id: int, predicate=None) -> int:
        """Delete a citizen's records (all, or those matching ``predicate``).

        Copy-on-write: the node object is *replaced*, never mutated, so
        snapshots handed to in-flight queries keep the records they were
        admitted with. Returns the number of records forgotten.
        """
        node = self._nodes[pds_id]
        if predicate is None:
            kept: list[PersonRecord] = []
        else:
            kept = [r for r in node.records if not predicate(r)]
        removed = len(node.records) - len(kept)
        if removed == 0:
            return 0
        self._nodes[pds_id] = PdsNode(pds_id=node.pds_id, records=kept)
        self.forget_events += 1
        self._notify("forget", pds_id)
        return removed

    def update_records(self, pds_id: int, records) -> None:
        """Replace a citizen's records (the insert/update mutation).

        Copy-on-write like :meth:`forget`: in-flight snapshots keep the old
        node object. Standing subscriptions see the change as an "update"
        event and emit the encrypted delta moving the PDS's contribution
        from its old records to ``records``.
        """
        node = self._nodes[pds_id]
        self._nodes[pds_id] = PdsNode(pds_id=node.pds_id, records=list(records))
        self.update_events += 1
        self._notify("update", pds_id)

    # ------------------------------------------------------------------
    def snapshot(self) -> PopulationSnapshot:
        """The online population, frozen, with the version it reflects.

        Every caller gets the same object until the next mutation, so
        concurrent queries and recorded answers of one version share one
        node tuple (and one pickled copy when shipped to a worker pool).
        """
        snapshot = self._snapshot
        if snapshot is None:
            snapshot = self._snapshot = PopulationSnapshot(
                version=self.version,
                nodes=tuple(
                    node
                    for node, online in zip(self._nodes, self._online)
                    if online
                ),
            )
        return snapshot

    # ------------------------------------------------------------------
    # Churn sources
    # ------------------------------------------------------------------
    def bind_runtime(
        self,
        runtime: NodeRuntime,
        pds_id_of: Callable[[str], int | None],
    ) -> None:
        """Follow a :class:`NodeRuntime`'s connectivity flips.

        ``pds_id_of`` maps an endpoint name to the PDS id it hosts (None
        for endpoints that are not population members, e.g. queriers).
        """

        def on_flip(name: str, online: bool) -> None:
            pds_id = pds_id_of(name)
            if pds_id is not None:
                self.set_online(pds_id, online)

        runtime.add_flip_listener(on_flip)


class MembershipChurn:
    """Seeded on/off membership process for populations of any size.

    The same exponential session statistics as the bus-level
    :class:`~repro.net.runtime.ChurnModel`, driven by one event heap —
    but flipping :class:`ServicePopulation` membership directly instead of
    bus endpoints, so a million-PDS population does not need a million
    mailboxes to churn.
    """

    def __init__(
        self,
        population: ServicePopulation,
        churn: ChurnModel,
        rng: random.Random | None = None,
        sample: int | None = None,
    ) -> None:
        if not churn.active:
            raise ValueError("churn model is inactive (offline_fraction=0)")
        self.population = population
        self.churn = churn
        self.rng = rng or random.Random(0)
        #: Only this many PDSs (uniformly sampled) participate in churn;
        #: None churns everyone. Large fleets churn a sample so the event
        #: heap stays small while cache semantics stay exact.
        count = len(population)
        if sample is None or sample >= count:
            self._members = list(range(count))
        else:
            self._members = self.rng.sample(range(count), sample)
        self._task: asyncio.Task | None = None
        self.flips = 0

    def start(self) -> asyncio.Task:
        if self._task is None or self._task.done():
            self._task = asyncio.ensure_future(self._drive())
        return self._task

    async def stop(self, reconnect: bool = True) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        if reconnect:
            for pds_id in self._members:
                self.population.set_online(pds_id, True)

    async def _drive(self) -> None:
        loop = asyncio.get_running_loop()
        now = loop.time()
        events: list[tuple[float, int]] = []
        for pds_id in self._members:
            if self.rng.random() < self.churn.offline_fraction:
                if self.population.set_online(pds_id, False):
                    self.flips += 1
                wake = now + self.churn.offline_duration(self.rng)
            else:
                wake = now + self.churn.online_duration(self.rng)
            heapq.heappush(events, (wake, pds_id))
        while events:
            wake, pds_id = heapq.heappop(events)
            delay = wake - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            going_offline = self.population.is_online(pds_id)
            if self.population.set_online(pds_id, not going_offline):
                self.flips += 1
            duration = (
                self.churn.offline_duration(self.rng)
                if going_offline
                else self.churn.online_duration(self.rng)
            )
            heapq.heappush(events, (loop.time() + duration, pds_id))


def slim_population(
    count: int, seed: int = 23, fleet_seed: int = 0
) -> ServicePopulation:
    """A flat one-record-per-PDS population (the E23/E24 scale workload).

    Salaries are integer-valued floats, so every aggregate is an exact sum
    of integers in double precision — the bit-identical comparisons of the
    service tests never hinge on float association order.
    """
    rng = random.Random(seed)
    cities = list(CITIES)
    nodes = [
        PdsNode(
            i,
            [
                PersonRecord(
                    {
                        "city": cities[rng.randrange(len(cities))],
                        "salary": float(1200 + rng.randrange(0, 4000)),
                    }
                )
            ],
        )
        for i in range(count)
    ]
    return ServicePopulation(nodes, TokenFleet(fleet_seed))
