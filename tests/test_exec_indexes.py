"""Event-driven maintenance of the executor's access paths and cache.

Every :class:`MutationEvent` the Database emits must leave the
:class:`~repro.exec.arena.PatternArena` and the sub-plan cache exactly
as a from-scratch rebuild would — answers after insert/link/unlink/delete
always match the reference evaluator on the mutated graph.  Mutations
that bypass the event stream are caught by the graph version guard.
"""

import pytest

from repro.core.expression import Select, ref
from repro.core.predicates import ClassValues, Comparison, Const
from repro.datasets import university
from repro.engine.database import Database
from repro.exec import PatternArena
from tests.properties.strategies import chain_schema


@pytest.fixture()
def db():
    return Database(chain_schema())


@pytest.fixture()
def uni():
    return Database.from_dataset(university())


def check(db, expr):
    """Physical answer == reference answer on the current graph."""
    result = db.query(expr).set
    assert result == expr.evaluate(db.graph)
    return result


class TestEventDrivenInvalidation:
    def test_link_and_unlink_refresh_edge_scan(self, db):
        a = db.insert("A")["A"]
        b = db.insert("B")["B"]
        q = ref("A") * ref("B")
        assert len(check(db, q)) == 0
        db.link(a, b)
        assert len(check(db, q)) == 1
        db.unlink(a, b)
        assert len(check(db, q)) == 0

    def test_insert_extends_cached_extent(self, db):
        db.insert("A")
        q = ref("A")
        assert len(check(db, q)) == 1
        db.insert("A")
        assert len(check(db, q)) == 2

    def test_delete_shrinks_extent_and_edges(self, db):
        a = db.insert("A")["A"]
        b = db.insert("B")["B"]
        db.link(a, b)
        q = ref("A") * ref("B")
        assert len(check(db, q)) == 1
        db.delete(a)
        assert len(check(db, q)) == 0
        assert len(check(db, ref("A"))) == 0

    def test_multiclass_insert_refreshes_isa_edges(self, uni):
        q = ref("TA") * ref("Grad")
        before = check(uni, q)
        uni.insert(["TA", "Grad", "Student", "Teacher", "Person"])
        after = check(uni, q)
        assert len(after) == len(before) + 1

    def test_update_invalidates_value_dependent_select(self, uni):
        instance = uni.insert_value("SS#", 99_999)
        q = Select(ref("SS#"), Comparison(ClassValues("SS#"), "=", Const(99_999)))
        assert len(check(uni, q)) == 1
        uni.update_value(instance, 11_111)
        assert len(check(uni, q)) == 0

    def test_mutation_invalidates_only_dependent_entries(self, db):
        db.insert("A")
        db.insert("D")
        db.query(ref("A"))
        db.query(ref("C") * ref("D"))
        cached_before = len(db.executor.cache)
        db.insert("D")  # touches C*D's dependencies, not A's
        assert len(db.executor.cache) == cached_before - 1
        invalidations = db.metrics.counter("repro_plan_cache_invalidations_total")
        assert invalidations.value() >= 1


class TestVersionGuard:
    def test_out_of_band_mutation_forces_reset(self, db):
        db.insert("A")
        q = ref("A")
        assert len(check(db, q)) == 1
        # Bypass the Database: no event fires, only graph.version moves.
        db.graph.add_instance("A", 777)
        assert len(check(db, q)) == 2
        resets = db.metrics.counter("repro_executor_resets_total")
        assert resets.value() == 1

    def test_event_driven_mutations_do_not_reset(self, db):
        db.insert("A")
        db.query(ref("A"))
        db.insert("A")
        db.query(ref("A"))
        resets = db.metrics.counter("repro_executor_resets_total")
        assert resets.value() == 0


class TestArenaAccessPaths:
    def test_extent_set_is_cached_across_reads(self, uni):
        arena = PatternArena(uni.graph)
        assert arena.extent_set("TA") is arena.extent_set("TA")
        assert arena.extent_set("TA") == ref("TA").evaluate(uni.graph)

    def test_extent_set_follows_extent_patches(self, db):
        db.insert("A")
        arena = db.executor.arena
        before = arena.extent_set("A")
        db.insert("A")
        after = arena.extent_set("A")
        assert len(after) == len(before) + 1
        assert after == ref("A").evaluate(db.graph)
        # one decoded snapshot per class, however many inserts came by
        assert len(arena._extent_sets) == 1

    def test_edge_set_matches_graph_edges(self, uni):
        arena = PatternArena(uni.graph)
        assoc = uni.schema.resolve("TA", "Grad")
        edge_set = arena.decode_set(arena.edge_cset(assoc))
        assert edge_set == (ref("TA") * ref("Grad")).evaluate(uni.graph)
        assert len(edge_set) == len(list(uni.graph.edges(assoc)))

    def test_reset_drops_everything(self, uni):
        arena = PatternArena(uni.graph)
        arena.extent_set("TA")
        arena.edge_cset(uni.schema.resolve("TA", "Grad"))
        arena.reset()
        assert not arena._extent_sets and not arena._edge_csets
