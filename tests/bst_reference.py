"""The span-based BST test, kept as a reference for `model.has_bst_property`,
which reads `cross_edges`: tests that check the two agree, or that a
cross-free tree is BST-shaped, use this so they do not test a predicate
against itself."""

from interfmin import model


def reference_bst_property(instance, assignment):
    """At most one child per side, and each point's descendant span as long
    as its descendant count."""
    order, _ = model._valid_tree_order(instance, assignment)
    receiver = assignment.receiver
    if len({(q, p < q) for p, q in receiver.items()}) != len(receiver):  # two children on one side
        return False
    # Walking the tree order backwards completes each point's least and
    # greatest descendant and descendant count before its receiver's; the
    # span holds nothing else exactly when it is as long as the count.
    n = len(order)
    lo, hi, size = list(range(n)), list(range(n)), [1] * n
    for p in reversed(order[1:]):
        q = receiver[p]
        if lo[p] < lo[q]:
            lo[q] = lo[p]
        if hi[p] > hi[q]:
            hi[q] = hi[p]
        size[q] += size[p]
    return all(b - a + 1 == k for a, b, k in zip(lo, hi, size))
