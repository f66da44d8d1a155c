"""Brute-force exact solvers for small instances.

These are the ground truth the other solvers are tested against.  All three
oracles run one search over one ball table, built from one distance order per
point: the balls of p are nested, so the ball of p reaching q is the prefix of
p's order up to the last point no farther than q.  The search visits
assignments in a fixed order (1D: root by root, every receiver map whose
functional graph is an in-tree rooted there; 2D: every receiver map) under a
limit L deepened from a coverage floor.  Each open point will own at least its
least ball, the one reaching its nearest neighbour (the 1D sink owns none); a
branch is cut once its chosen balls plus the open points' least balls cover a
point more than L times (one AND with the points at L, tested first) or its
choices close off a proper set of points that no later choice can leave (1D: a
cycle; 2D: a set no chosen edge leads out of), so every 2D leaf reached is
strongly connected.  So the first pass that accepts an assignment (1D: any
sink tree; 2D: a strongly connected one) is at the optimum, and the first it
accepts is the witness.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, count
from operator import or_

from .errors import CapExceededError, InputError
from .model import (
    ASYM2D,
    SINKTREE1D,
    Instance,
    Instance1D,
    Instance2D,
    ReceiverAssignment,
    _strongly_connected,
    dist2,
)

DEFAULT_CAP_1D = 13
DEFAULT_CAP_2D = 13


@dataclass
class OracleResult:
    optimum: int
    witness: ReceiverAssignment


@dataclass
class OracleStats:
    passes: int = 0  # limits tried
    leaves: int = 0  # assignments reached; every 2D one is strongly connected


def _check_cap(n: int, cap: int, what: str) -> None:
    if n > cap:
        raise CapExceededError(
            f"{what} refused for n={n} (cap {cap}); raise the cap explicitly to override"
        )


def _would_cycle(parent: list[int | None], tail: int, head: int) -> bool:
    v: int | None = head
    while v is not None and v != tail:
        v = parent[v]
    return v == tail


def _ball_table(instance: Instance):
    """orders[p] (the points by distance from p, ties by index), masks[p][q]
    (the ball of p reaching q as a bit set; it is orders[p][:k] for k its bit
    count), least[p] (p's least ball), extra[p][q] (the points of that ball
    beyond least[p], ascending), bits[p][q] (the same as a bit set) and the
    starts: each root (2D: None) with the count on every point of the least
    balls of the points other than the root."""
    n = instance.n
    if isinstance(instance, Instance1D):
        rows = [[abs(a - b) for b in instance.ints] for a in instance.ints]
        roots: list[int | None] = list(range(n))
    else:
        rows = [[dist2(a, b) for b in instance.ints] for a in instance.ints]
        roots = [None]
    orders, masks, least, extra, bits = [], [], [], [], []
    for row in rows:
        order = sorted(range(n), key=row.__getitem__)
        near = [row[j] for j in order]
        ks = [bisect_right(near, r) for r in row]  # the ball reaching q: order[:ks[q]]
        prefix = list(accumulate([1 << j for j in order], or_, initial=0))
        k0 = bisect_right(near, near[min(1, n - 1)])  # up to the nearest other point
        orders.append(order)
        masks.append([prefix[k] for k in ks])
        least.append(tuple(sorted(order[:k0])))
        extra.append([tuple(sorted(order[k0:k])) for k in ks])
        bits.append([prefix[k] & ~prefix[k0] for k in ks])
    total = [0] * n
    for j in chain.from_iterable(least):
        total[j] += 1
    starts = [(root, total.copy()) for root in roots]
    for root, counts in starts:
        for j in () if root is None else least[root]:
            counts[j] -= 1
    return orders, masks, least, extra, bits, starts


def _search(tables, cuts, accept, first: bool, stats: OracleStats):
    """Deepen the limit from the floor until a pass accepts a leaf; return
    the assignments that pass accepted (only the first if `first`) and its
    limit.  cuts(parent, p, q) is true if no accepted leaf follows N(p) = q;
    accept(parent, root) is a leaf's assignment, or None to reject it."""
    extra, bits, starts = tables[3:]
    parent: list[int | None] = [None] * len(extra)
    found: list[ReceiverAssignment] = []

    def leaf(root: int | None) -> bool:
        stats.leaves += 1
        assignment = accept(parent, root)
        if assignment is not None:
            found.append(assignment)
        return first and assignment is not None

    # Each point reaching its farthest one is a valid assignment: L stops by n.
    for limit in count(min(max(counts) for _, counts in starts)):
        stats.passes += 1
        for root, counts in starts:
            full = sum(1 << j for j, c in enumerate(counts) if c == limit)
            if max(counts) <= limit and _descend(extra, bits, cuts, counts, full, parent, root, 0, limit, leaf) < 0:
                break
        if found:
            return found, limit


def _descend(extra, bits, cuts, counts, full, parent, root, p, limit, leaf) -> int:
    # A module-level function rather than a recursive closure: a closure that
    # refers to itself sits in a reference cycle, which would keep its tables
    # and every assignment it collected alive until the garbage collector runs.
    # Counts stay within the limit; `full` holds the points at it and bits[p][q]
    # is extra[p][q] as a bit set, so one AND, before the branch test, rejects a
    # choice that would exceed it.  Returns the limit, or -1 once `leaf` stops.
    if p == root:  # the 1D root keeps no receiver
        p += 1
    if p == len(extra):
        return -1 if leaf(root) else limit
    for q, mask in enumerate(bits[p]):
        if q == p or mask & full or cuts(parent, p, q):
            continue
        reached = full
        more = extra[p][q]
        for j in more:
            counts[j] += 1
            if counts[j] == limit:
                reached |= 1 << j
        parent[p] = q
        limit = _descend(extra, bits, cuts, counts, reached, parent, root, p + 1, limit, leaf)
        for j in more:
            counts[j] -= 1
        if limit < 0:
            break
    # One reset serves every q: neither branch test reads parent[p].
    parent[p] = None
    return limit


def _sink_tree(parent: list[int | None], root: int) -> ReceiverAssignment:
    receiver = dict(enumerate(parent))
    del receiver[root]
    return ReceiverAssignment(SINKTREE1D, receiver, root)


def brute_force_1d(
    instance: Instance1D, cap: int = DEFAULT_CAP_1D, stats: OracleStats | None = None
) -> OracleResult:
    """Minimum interference over all valid sink-tree assignments, with one
    minimizer as witness (the first in deterministic search order)."""
    _check_cap(instance.n, cap, "1D brute force")
    trees, optimum = _search(_ball_table(instance), _would_cycle, _sink_tree, True, stats or OracleStats())
    return OracleResult(optimum, trees[0])


def enumerate_optimal_1d(
    instance: Instance1D, cap: int = DEFAULT_CAP_1D
) -> list[ReceiverAssignment]:
    """Every valid assignment attaining the optimum interference, in search order."""
    _check_cap(instance.n, cap, "1D optimal enumeration")
    return _search(_ball_table(instance), _would_cycle, _sink_tree, False, OracleStats())[0]


def brute_force_2d(
    instance: Instance2D, cap: int = DEFAULT_CAP_2D, stats: OracleStats | None = None
) -> OracleResult:
    """Minimum interference over all total receiver maps with a strongly
    connected communication graph, with the first minimizer in search order."""
    if instance.n < 2:
        raise InputError("2D brute force needs at least two points")
    _check_cap(instance.n, cap, "2D brute force")
    tables = _ball_table(instance)
    orders, masks = tables[:2]
    everyone = (1 << instance.n) - 1

    def closes(parent: list[int], p: int, q: int) -> bool:
        # With N(p) = q, walk the edges from p over the chosen points (0..p).
        # If it meets no open point, no later choice adds an edge out of the
        # set walked: no leaf below is strongly connected unless that is all.
        chosen = (2 << p) - 1
        reached = 1 << p
        todo = masks[p][q] ^ reached
        while todo:
            if todo > chosen:  # an open point is reached
                return False
            low = todo & -todo
            reached |= low
            j = low.bit_length() - 1
            todo = (todo | masks[j][parent[j]]) & ~reached
        return reached != everyone

    def connected(parent: list[int], root: None) -> ReceiverAssignment | None:
        # The edges from p are its ball but p, which comes first in it.
        if _strongly_connected([orders[p][1 : masks[p][q].bit_count()] for p, q in enumerate(parent)]):
            return ReceiverAssignment(ASYM2D, dict(enumerate(parent)))
        return None

    found, optimum = _search(tables, closes, connected, True, stats or OracleStats())
    return OracleResult(optimum, found[0])
