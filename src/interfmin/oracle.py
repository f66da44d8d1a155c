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
from collections.abc import Iterator
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
    count), least[p] (p's least ball), choices[p] ((q, bits, extra) for each
    q != p: extra the points of the ball of p reaching q beyond least[p],
    ascending, and bits the same as a bit set) and the starts: each root (2D:
    None) with the count on every point of the other points' least balls."""
    n = instance.n
    if isinstance(instance, Instance1D):
        rows = [[abs(a - b) for b in instance.ints] for a in instance.ints]
        roots: list[int | None] = list(range(n))
    else:
        rows = [[dist2(a, b) for b in instance.ints] for a in instance.ints]
        roots = [None]
    orders, masks, least, choices = [], [], [], []
    for p, row in enumerate(rows):
        order = sorted(range(n), key=row.__getitem__)
        near = [row[j] for j in order]
        ks = [bisect_right(near, r) for r in row]  # the ball reaching q: order[:ks[q]]
        prefix = list(accumulate([1 << j for j in order], or_, initial=0))
        k0 = bisect_right(near, near[min(1, n - 1)])  # up to the nearest other point
        orders.append(order)
        masks.append([prefix[k] for k in ks])
        least.append(tuple(sorted(order[:k0])))
        choices.append([(q, prefix[k] & ~prefix[k0], tuple(sorted(order[k0:k]))) for q, k in enumerate(ks) if q != p])
    total = [0] * n
    for j in chain.from_iterable(least):
        total[j] += 1
    starts = [(root, total.copy()) for root in roots]
    for root, counts in starts:
        for j in () if root is None else least[root]:
            counts[j] -= 1
    return orders, masks, least, choices, starts


def _search(tables, cuts, accept, stats: OracleStats):
    """Deepen the limit from the floor until a pass accepts a leaf; yield
    (limit, assignment) for each leaf that pass accepts, then stop.
    cuts(parent, p, q) is true if no accepted leaf follows N(p) = q;
    accept(parent, root) is a leaf's assignment, or None to reject it."""
    choices, starts = tables[3:]
    parent: list[int | None] = [None] * len(choices)
    # Each point reaching its farthest one is a valid assignment: L stops by n.
    for limit in count(min(max(counts) for _, counts in starts)):
        stats.passes += 1
        accepted = False
        for root, counts in starts:
            if max(counts) > limit:
                continue
            full = sum(1 << j for j, c in enumerate(counts) if c == limit)
            for _ in _descend(choices, cuts, counts, full, parent, root, 0, limit):
                stats.leaves += 1
                assignment = accept(parent, root)
                if assignment is not None:
                    accepted = True
                    yield limit, assignment
        if accepted:
            return


def _descend(choices, cuts, counts, full, parent, root, p, limit):
    # Yields at each leaf, with `parent` holding its receiver map.  Counts stay
    # within the limit; `full` holds the points at it, so one AND with a
    # choice's bits, before the branch test, rejects a choice that exceeds it.
    if p == root:  # the 1D root keeps no receiver
        p += 1
    if p == len(choices):
        yield
        return
    for q, bits, extra in choices[p]:
        if bits & full or cuts(parent, p, q):
            continue
        reached = full
        for j in extra:
            counts[j] += 1
            if counts[j] == limit:
                reached |= 1 << j
        parent[p] = q
        yield from _descend(choices, cuts, counts, reached, parent, root, p + 1, limit)
        for j in extra:
            counts[j] -= 1
    # One reset serves every q: neither branch test reads parent[p].
    parent[p] = None


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
    return OracleResult(*next(_search(_ball_table(instance), _would_cycle, _sink_tree, stats or OracleStats())))


def enumerate_optimal_1d(
    instance: Instance1D, cap: int = DEFAULT_CAP_1D
) -> Iterator[ReceiverAssignment]:
    """Every valid assignment attaining the optimum interference, streamed in
    search order; the cap is checked at the call, before any iteration."""
    _check_cap(instance.n, cap, "1D optimal enumeration")
    return (tree for _, tree in _search(_ball_table(instance), _would_cycle, _sink_tree, OracleStats()))


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

    return OracleResult(*next(_search(tables, closes, connected, stats or OracleStats())))
