"""Batch kernels over compact sets.

Each kernel is the whole-set counterpart of one reference operator in
:mod:`repro.core.operators`, rewritten over the integer domains of a
:class:`~repro.exec.arena.PatternArena`: hash joins key on vertex ids,
union/difference are frozenset merges of int keys, and NonAssociate's
free-set tests are big-int bitmask ANDs.  The property suite
(``tests/properties/test_physical_equivalence.py``) holds every kernel to
bit-identical results against its reference operator — the kernels mirror
the reference control flow decision for decision, only the representation
changes.

All kernels take the arena first and return a new :class:`CompactSet`;
operands are never mutated.
"""

from __future__ import annotations

from repro.core.edges import Polarity
from repro.exec.arena import CompactSet, PatternArena, key_parts, make_key

__all__ = [
    "class_rows",
    "k_associate",
    "k_difference",
    "k_intersect",
    "k_nonassociate",
    "k_select_mask",
    "k_union",
]

_EMPTY_FROZEN: frozenset = frozenset()


def class_rows(
    arena: PatternArena, cset: CompactSet, cls: str
) -> list[tuple[object, frozenset, frozenset, frozenset]]:
    """``(key, vids, eids, instances-of-cls)`` rows, instance-bearing only.

    The compact analogue of ``AssociationSet.patterns_with_class`` — the
    binary graph kernels iterate it on both sides.
    """
    cid = arena.cls_id(cls)
    vcls = arena._vcls
    cls_set = arena.class_vids(cid)
    rows = []
    for key in cset.keys:
        if isinstance(key, int):
            if vcls[key] == cid:
                vids = frozenset((key,))
                rows.append((key, vids, _EMPTY_FROZEN, vids))
        else:
            insts = key[0] & cls_set
            if insts:
                rows.append((key, key[0], key[1], insts))
    return rows


# ----------------------------------------------------------------------
# Associate
# ----------------------------------------------------------------------


def k_associate(
    arena: PatternArena,
    alpha: CompactSet,
    beta: CompactSet,
    assoc,
    a_cls: str,
    b_cls: str,
) -> CompactSet:
    """``α *[R(A,B)] β`` — index-nested-loop join over int adjacency."""
    beta_index: dict[int, list[tuple[frozenset, frozenset]]] = {}
    for _, vids, eids, insts in class_rows(arena, beta, b_cls):
        for b in insts:
            beta_index.setdefault(b, []).append((vids, eids))
    if not beta_index:
        return CompactSet.empty()

    alpha_rows = class_rows(arena, alpha, a_cls)
    adj_get = arena.adjacency(assoc).get
    beta_get = beta_index.get
    pair = arena.eid_of_pair

    # Many alpha rows share the same A-instance, so resolve each distinct
    # instance's continuations (adjacent B-instances that actually appear
    # in beta, with the connecting edge id) once, not once per row.  A
    # neighbour outside ``beta_index`` is either the wrong class or not in
    # beta — the index probe subsumes the class check.
    a_insts: set = set()
    for row in alpha_rows:
        a_insts |= row[3]
    cont: dict[int, list[tuple[frozenset, list]]] = {}
    for a_m in a_insts:
        lst = []
        for b_n in adj_get(a_m, ()):
            rows_b = beta_get(b_n)
            if rows_b is not None:
                lst.append((frozenset((pair(a_m, b_n, Polarity.REGULAR),)), rows_b))
        if lst:
            cont[a_m] = lst
    if not cont:
        return CompactSet.empty()

    cont_get = cont.get
    out: set = set()
    add = out.add
    # Raw-int alpha keys (class extents and mask-filtered σ results) carry
    # exactly one instance and no edges, so the general loop's per-row set
    # unions collapse: the continuation's edge set IS the pattern's.
    composites = []
    for row in alpha_rows:
        key = row[0]
        if isinstance(key, int):
            lst = cont_get(key)
            if lst is None:
                continue
            sa = row[1]
            for connect, rows_b in lst:
                for vids_b, eids_b in rows_b:
                    add((vids_b | sa, connect | eids_b))
        else:
            composites.append(row)
    for _, vids_a, eids_a, insts_a in composites:
        for a_m in insts_a:
            lst = cont_get(a_m)
            if lst is None:
                continue
            for connect, rows_b in lst:
                # both operands of the inner unions are loop-invariant here
                eids_ac = eids_a | connect
                for vids_b, eids_b in rows_b:
                    add((vids_a | vids_b, eids_ac | eids_b))
    return CompactSet(frozenset(out))


# ----------------------------------------------------------------------
# A-Select (compiled masks)
# ----------------------------------------------------------------------


def k_select_mask(base: CompactSet, vids: frozenset) -> CompactSet:
    """``σ`` over an extent as a selection-mask intersection.

    ``vids`` is the set of vertex ids whose singleton pattern satisfies
    the compiled predicate (:meth:`ColumnStore.eval_select`); ``base`` is
    the operand extent in compact form, whose keys are raw ints.  Masks
    are only exact for singleton patterns — a multi-instance pattern's
    predicate is not distributive over its instances — so the planner
    applies this kernel exclusively over bare class extents.
    """
    return CompactSet(base.keys & vids)


# ----------------------------------------------------------------------
# A-Intersect
# ----------------------------------------------------------------------


def k_intersect(
    arena: PatternArena,
    alpha: CompactSet,
    beta: CompactSet,
    classes=None,
) -> CompactSet:
    """``α •{W} β`` — hash join on per-class instance-set signatures."""
    if classes is None:
        shared = arena.classes_of(alpha) & arena.classes_of(beta)
    else:
        shared = frozenset(classes)
    if not shared:
        return CompactSet.empty()
    cids = tuple(arena.cls_id(c) for c in shared)
    n = len(cids)
    vcls = arena._vcls
    only_cid = cids[0]  # the single {W} class when n == 1
    # snapshot per-class vid sets once; keeping the pattern's (small) vid
    # set on the left makes the &s below C-level probes into these
    class_sets = tuple(arena.class_vids(c) for c in cids)
    combined = class_sets[0]
    for cls_set in class_sets[1:]:
        combined = combined | cls_set

    def signature(key):
        # A vertex id belongs to exactly one class, so a pattern's
        # per-class instance partition over {W} is fully determined by its
        # set of {W}-class vids — the filtered frozenset IS the signature.
        # None if any {W} class is absent (the pinned non-vacuous reading).
        if isinstance(key, int):
            if n != 1 or vcls[key] != only_cid:
                return None
            return frozenset((key,))
        vids = key[0]
        sig = None
        for cls_set in class_sets:
            part = vids & cls_set
            if not part:
                return None
            sig = part if sig is None else sig | part
        return sig

    # The merge is symmetric, so index the smaller operand with the full
    # coverage-checked signature and stream the larger one past it.
    small, big = (
        (alpha, beta) if len(alpha.keys) <= len(beta.keys) else (beta, alpha)
    )
    index: dict[frozenset, list[tuple[frozenset, frozenset]]] = {}
    for key in small.keys:
        sig = signature(key)
        if sig is not None:
            index.setdefault(sig, []).append(key_parts(key))
    if not index:
        return CompactSet.empty()

    # Probe side: ``vids & combined`` IS the candidate signature (the union
    # of the per-class parts), and every index entry already covers all of
    # {W}, so a dict hit implies the probe key covers {W} too — no
    # per-class check needed on this side.
    index_get = index.get
    out: set = set()
    add = out.add
    for key in big.keys:
        if isinstance(key, int):
            if key not in combined:
                continue
            vids_b = frozenset((key,))
            eids_b = _EMPTY_FROZEN
            cand = vids_b
        else:
            vids_b, eids_b = key
            cand = vids_b & combined
        rows = index_get(cand)
        if rows is None:
            continue
        for vids_a, eids_a in rows:
            if vids_a <= vids_b and eids_a <= eids_b:
                # merging a contained pattern returns the probe key as-is
                # (already canonical, frozenset hashes already cached)
                add(key)
            else:
                add(make_key(vids_b | vids_a, eids_b | eids_a))
    return CompactSet(frozenset(out))


# ----------------------------------------------------------------------
# A-Union / A-Difference
# ----------------------------------------------------------------------


def k_union(alpha: CompactSet, beta: CompactSet) -> CompactSet:
    """``α + β`` — one frozenset union; compact keys are canonical, so
    duplicate patterns collapse exactly as in the reference."""
    return CompactSet(alpha.keys | beta.keys)


def k_difference(alpha: CompactSet, beta: CompactSet) -> CompactSet:
    """``α - β`` — drop minuend patterns containing any subtrahend pattern.

    Subtrahends are bucketed by their minimum vertex id (the compact
    analogue of ``ContainmentIndex``): a contained subtrahend's anchor
    vertex must appear in the minuend, so only those buckets are probed.
    """
    if not beta.keys:
        return alpha
    by_anchor: dict[int, list[tuple[frozenset, frozenset]]] = {}
    for key in beta.keys:
        vids, eids = key_parts(key)
        by_anchor.setdefault(min(vids), []).append((vids, eids))

    keep: set = set()
    for key in alpha.keys:
        vids_a, eids_a = key_parts(key)
        contained = False
        for v in vids_a:
            for vids_b, eids_b in by_anchor.get(v, ()):
                if vids_b <= vids_a and eids_b <= eids_a:
                    contained = True
                    break
            if contained:
                break
        if not contained:
            keep.add(key)
    return CompactSet(frozenset(keep))


# ----------------------------------------------------------------------
# NonAssociate
# ----------------------------------------------------------------------


def k_nonassociate(
    arena: PatternArena,
    alpha: CompactSet,
    beta: CompactSet,
    assoc,
    a_cls: str,
    b_cls: str,
) -> CompactSet:
    """``α ![R(A,B)] β`` — the reference's main + retention clauses with
    free-set tests as bitmask ANDs."""
    alpha_rows = class_rows(arena, alpha, a_cls)
    beta_rows = class_rows(arena, beta, b_cls)

    all_a = frozenset(i for row in alpha_rows for i in row[3])
    all_b = frozenset(i for row in beta_rows for i in row[3])
    masks = arena.adjacency_masks(assoc)

    # Operands covering the full class extent (the common case: the plan
    # feeds extent scans straight in) reuse the arena's cached per-class
    # bitmask instead of rebuilding it bit by bit on every call.
    def _operand_mask(cls: str, insts: frozenset) -> int:
        if insts == arena.extent_cset(cls).keys:
            return arena.class_mask(cls)
        m = 0
        for v in insts:
            m |= 1 << v
        return m

    mask_a = _operand_mask(a_cls, all_a)
    mask_b = _operand_mask(b_cls, all_b)

    # "Free" instances: associated with no instance of the other operand.
    free_a = frozenset(a for a in all_a if not masks.get(a, 0) & mask_b)
    free_b = frozenset(b for b in all_b if not masks.get(b, 0) & mask_a)

    out: set = set()
    paired_alpha: set = set()
    paired_beta: set = set()
    pair = arena.eid_of_pair

    for key_a, vids_a, eids_a, insts_a in alpha_rows:
        usable_a = insts_a & free_a
        if not usable_a:
            continue
        for key_b, vids_b, eids_b, insts_b in beta_rows:
            usable_b = insts_b & free_b
            if not usable_b:
                continue
            for a_m in usable_a:
                for b_n in usable_b:
                    connect = frozenset((pair(a_m, b_n, Polarity.COMPLEMENT),))
                    out.add((vids_a | vids_b, eids_a | eids_b | connect))
            paired_alpha.add(key_a)
            paired_beta.add(key_b)

    _retain(out, masks, alpha_rows, paired_alpha, free_a, mask_a, all_b)
    _retain(out, masks, beta_rows, paired_beta, free_b, mask_b, all_a)
    return CompactSet(frozenset(out))


def _retain(out, masks, rows, paired, free_own, own_mask, all_other) -> None:
    """Retention clauses (1)-(3) for one operand side — see the reference
    ``non_associate._retain`` for the semantics being mirrored.

    ``own_mask`` is the bitmask of the whole own-side operand; the mask of
    the instances *outside* one pattern is then ``own_mask & ~row_mask`` —
    two big-int ops per row instead of a bit-build over the set difference.
    """
    for key, _, _, instances in rows:
        if key in paired:
            continue
        if not instances <= free_own:
            continue
        if not all_other:
            out.add(key)
            continue
        row_mask = 0
        for v in instances:
            row_mask |= 1 << v
        outside_mask = own_mask & ~row_mask
        if all(masks.get(other, 0) & outside_mask for other in all_other):
            out.add(key)
