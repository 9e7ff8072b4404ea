"""§4 parallel decomposition of A-Union plans."""

import pytest

from repro.core.expression import Intersect, ref
from repro.datagen import figure10_dataset
from repro.optimizer.parallel import decompose_unions


@pytest.fixture(scope="module")
def ds():
    return figure10_dataset(extent_size=8, density=0.2, seed=7)


def final_form():
    return ref("A") * (ref("B") * ref("E") * ref("F")) + Intersect(
        ref("A") * (ref("B") * (ref("C") * ref("D") * ref("H"))),
        ref("A") * (ref("B") * (ref("C") * ref("G"))),
        ["A", "B", "C"],
    )


class TestDecompose:
    def test_non_union_is_singleton(self):
        expr = ref("A") * ref("B")
        assert decompose_unions(expr) == [expr]

    def test_binary_union(self):
        expr = ref("A") + ref("B")
        assert [str(e) for e in decompose_unions(expr)] == ["A", "B"]

    def test_nested_unions_flatten(self):
        expr = (ref("A") + ref("B")) + (ref("C") + ref("D"))
        assert len(decompose_unions(expr)) == 4

    def test_union_below_other_ops_stays_together(self):
        expr = ref("A") * (ref("B") + ref("C"))
        assert len(decompose_unions(expr)) == 1


class TestEvaluate:
    def test_figure10_branches_are_the_decomposition(self, ds):
        branches = decompose_unions(final_form())
        assert len(branches) == 2
        union_of_parts = branches[0].evaluate(ds.graph) | branches[1].evaluate(
            ds.graph
        )
        assert union_of_parts == final_form().evaluate(ds.graph)
