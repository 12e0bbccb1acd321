"""One shared, immutable population snapshot per version."""

import pytest

from repro.service import slim_population
from repro.workloads.people import PersonRecord


def write(population, kind: str) -> None:
    if kind == "update_records":
        population.update_records(0, [PersonRecord({"salary": 1.0})])
    elif kind == "forget":
        assert population.forget(0) == 1
    else:
        assert population.set_online(0, False)


class TestSnapshotSharing:
    def test_same_object_until_a_write(self):
        population = slim_population(20)
        first = population.snapshot()
        assert population.snapshot() is first
        assert population.snapshot().nodes is first.nodes

    @pytest.mark.parametrize("kind", ["update_records", "forget", "set_online"])
    def test_each_write_yields_a_new_snapshot(self, kind):
        population = slim_population(20)
        before = population.snapshot()
        write(population, kind)
        after = population.snapshot()
        assert after is not before
        assert after.version == before.version + 1
        assert population.snapshot() is after

    @pytest.mark.parametrize("kind", ["update_records", "forget", "set_online"])
    def test_older_snapshot_nodes_are_unchanged(self, kind):
        population = slim_population(20)
        before = population.snapshot()
        nodes = before.nodes
        records = [list(node.records) for node in nodes]
        write(population, kind)
        population.snapshot()
        assert before.nodes is nodes
        assert len(nodes) == 20
        assert [list(node.records) for node in nodes] == records

    def test_a_no_op_write_keeps_the_snapshot(self):
        population = slim_population(20)
        first = population.snapshot()
        assert not population.set_online(0, True)  # already online
        assert population.forget(0, predicate=lambda r: False) == 0
        assert population.snapshot() is first
