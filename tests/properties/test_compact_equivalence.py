"""Differential properties for the compact executor's shared arena state.

The executor keeps one :class:`PatternArena` per graph: interning tables
plus the indexed access paths (extent sets, edge csets) built lazily as
queries touch classes and associations.  A query's answer must not depend
on what earlier queries left in that state.  Both properties below run
the same expression through executors whose arenas were filled in
different orders and demand results bit-identical to the logical
evaluator's.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.datagen import chain_dataset, figure10_dataset, workload
from repro.exec import Executor
from tests.properties.expr_strategies import expressions
from tests.properties.strategies import object_graphs

RELAXED = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@given(st.data())
@RELAXED
def test_compact_executor_matches_indexed_and_reference(data):
    """A fresh arena and one pre-indexed by another query agree."""
    graph = data.draw(object_graphs(max_extent=3))
    expr = data.draw(expressions(depth=2))
    warmup = data.draw(expressions(depth=2))
    reference = expr.evaluate(graph)

    fresh = Executor(graph)
    indexed = Executor(graph)
    assert indexed.run(warmup) == warmup.evaluate(graph)
    for label, executor in (("fresh", fresh), ("indexed", indexed)):
        assert executor.run(expr) == reference, f"{label} cold diverged"
        assert (
            executor.run(expr, use_cache=False) == reference
        ), f"{label} uncached diverged"
        assert (
            executor.run(expr, plan=executor.plan(expr)) == reference
        ), f"{label} supplied plan diverged"


def test_compact_executor_matches_reference_on_datagen_workloads():
    """A shared arena filled in reverse order matches fresh executors."""
    for ds in (
        chain_dataset(n_classes=5, extent_size=12, density=0.15, seed=3),
        figure10_dataset(extent_size=10, density=0.2, seed=7),
    ):
        queries = workload(ds.schema, n_queries=20, max_hops=4, seed=11)
        shared = Executor(ds.graph)
        for expr in reversed(queries):
            reference = expr.evaluate(ds.graph)
            assert shared.run(expr, use_cache=False) == reference
            assert Executor(ds.graph).run(expr) == reference
