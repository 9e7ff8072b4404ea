"""Parallel decomposition of A-Union plans (§4).

The paper singles out the rewritten Figure 10 form as "particularly
suitable for a parallel system, since it is an A-Union of two
sub-expressions, each of which can be evaluated independently and produces
a homogeneous association-set with simpler structure".

:func:`decompose_unions` splits a plan into its maximal top-level A-Union
branches.  The engine's own parallelism is the sharded worker pool
(:mod:`repro.shard`), which partitions data rather than branches: CPython
threads do not speed up this pure-Python workload.
"""

from __future__ import annotations

from repro.core.expression import Expr, Union

__all__ = ["decompose_unions"]


def decompose_unions(expr: Expr) -> list[Expr]:
    """The maximal top-level A-Union branches of ``expr``.

    A non-Union root yields ``[expr]``.  Branches are independent: A-Union
    just lumps their results together (§4's observation a)), so they can be
    evaluated in any order or concurrently.
    """
    if isinstance(expr, Union):
        return decompose_unions(expr.left) + decompose_unions(expr.right)
    return [expr]
