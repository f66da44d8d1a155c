"""Brute-force exact solvers for small instances.

These are the ground truth the other solvers are tested against.  Each
oracle visits assignments in a fixed order (1D: root by root, every receiver
map whose functional graph is an in-tree rooted there; 2D: every receiver
map) under a limit L deepened from a coverage floor.  Each open point will
own at least its least ball, the one reaching its nearest neighbour (the 1D
sink owns none); a branch is cut once its chosen balls plus the open points'
least balls cover a point more than L times.  So the first pass that reaches
an assignment is at the optimum, and the first one it reaches (2D: strongly
connected) is the witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from .errors import CapExceededError, InputError
from .model import (
    ASYM2D,
    SINKTREE1D,
    Instance1D,
    Instance2D,
    ReceiverAssignment,
    _strongly_connected,
    cover_table,
    dist2,
)

DEFAULT_CAP_1D = 11
DEFAULT_CAP_2D = 9


@dataclass
class OracleResult:
    optimum: int
    witness: ReceiverAssignment


@dataclass
class OracleStats:
    passes: int = 0  # limits tried
    leaves: int = 0  # 1D: trees reached; 2D: strong-connectivity tests


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


def _search_tables_1d(instance: Instance1D):
    """The floor to start from, floors[root][j] (the least balls of points
    other than `root` that cover j) and extra[p][q] (the points the ball of p
    reaching q covers beyond p's least ball)."""
    n = instance.n
    cover = cover_table(instance)
    # The balls around p are nested, so the least one spans the fewest points.
    least = [
        min((cover[p][q] for q in range(n) if q != p), key=lambda r: r[1] - r[0], default=(p, p))
        for p in range(n)
    ]
    floors = [
        [sum(lo <= j <= hi for p, (lo, hi) in enumerate(least) if p != root) for j in range(n)]
        for root in range(n)
    ]
    extra = [
        [tuple(j for j in range(lo, hi + 1) if not a <= j <= b) for lo, hi in row]
        for row, (a, b) in zip(cover, least)
    ]
    return min(max(f) for f in floors), floors, extra


def _sink_trees(instance: Instance1D, first: bool, stats: OracleStats):
    """The one 1D search body: deepen the limit until a pass reaches a sink
    tree; return that limit and the trees reached (the first if `first`)."""
    n = instance.n
    floor, floors, extra = _search_tables_1d(instance)
    parent: list[int | None] = [None] * n
    found: list[ReceiverAssignment] = []
    for limit in count(floor):
        stats.passes += 1
        for root, counts in enumerate(floors):
            order = [p for p in range(n) if p != root]
            stop = _descend(extra, counts, parent, root, order, 0, max(counts), limit, found, first)
            if stop < 0:
                break
        if found:
            stats.leaves = len(found)
            return found, limit


def _descend(extra, counts, parent, root, order, idx, cur_max, limit, found, first) -> int:
    # A module-level function rather than a recursive closure: a closure that
    # refers to itself sits in a reference cycle, which would keep every
    # assignment it collected alive until the garbage collector runs.
    if cur_max > limit:
        return limit
    if idx == len(order):
        found.append(ReceiverAssignment(SINKTREE1D, {p: parent[p] for p in order}, root))
        return -1 if first else limit
    p = order[idx]
    for q in range(len(counts)):
        if q == p or _would_cycle(parent, p, q):
            continue
        new_max = cur_max
        for j in extra[p][q]:
            counts[j] += 1
            if counts[j] > new_max:
                new_max = counts[j]
        parent[p] = q
        limit = _descend(extra, counts, parent, root, order, idx + 1, new_max, limit, found, first)
        parent[p] = None
        for j in extra[p][q]:
            counts[j] -= 1
    return limit


def brute_force_1d(
    instance: Instance1D, cap: int = DEFAULT_CAP_1D, stats: OracleStats | None = None
) -> OracleResult:
    """Minimum interference over all valid sink-tree assignments, with one
    minimizer as witness (the first in deterministic search order)."""
    _check_cap(instance.n, cap, "1D brute force")
    trees, optimum = _sink_trees(instance, True, stats or OracleStats())
    return OracleResult(optimum, trees[0])


def enumerate_optimal_1d(
    instance: Instance1D, cap: int = DEFAULT_CAP_1D
) -> list[ReceiverAssignment]:
    """Every valid assignment attaining the optimum interference, in search order."""
    _check_cap(instance.n, cap, "1D optimal enumeration")
    return _sink_trees(instance, False, OracleStats())[0]


def _search_tables_2d(instance: Instance2D):
    """The floor to start from, counts[j] (the least balls that cover j),
    extra[p][q] (as in 1D) and out_nbrs[p][q] (the edges from p if N(p) = q)."""
    n = instance.n
    d2 = [[dist2(a, b) for b in instance.ints] for a in instance.ints]
    least = [min(r for q, r in enumerate(row) if q != p) for p, row in enumerate(d2)]
    counts = [sum(row[j] <= m for row, m in zip(d2, least)) for j in range(n)]
    extra, out_nbrs = [], []
    for p, (row, m) in enumerate(zip(d2, least)):
        extra.append([tuple(j for j, s in enumerate(row) if m < s <= r) for r in row])
        out_nbrs.append([tuple(j for j, s in enumerate(row) if s <= r and j != p) for r in row])
    return max(counts), counts, extra, out_nbrs


def brute_force_2d(
    instance: Instance2D, cap: int = DEFAULT_CAP_2D, stats: OracleStats | None = None
) -> OracleResult:
    """Minimum interference over all total receiver maps with a strongly
    connected communication graph, with the first minimizer in search order."""
    n = instance.n
    if n < 2:
        raise InputError("2D brute force needs at least two points")
    _check_cap(n, cap, "2D brute force")
    floor, counts, extra, out_nbrs = _search_tables_2d(instance)
    choice = [0] * n
    graph: list[tuple[int, ...]] = [()] * n  # graph[p] = out_nbrs[p][choice[p]]
    witness: list[int] = []
    stats = stats or OracleStats()

    def search(p: int, cur_max: int) -> None:
        if cur_max > limit or witness:
            return
        if p == n:
            stats.leaves += 1
            if _strongly_connected(graph):
                witness.extend(choice)
            return
        for q in range(n):
            if q == p:
                continue
            new_max = cur_max
            for j in extra[p][q]:
                counts[j] += 1
                if counts[j] > new_max:
                    new_max = counts[j]
            choice[p] = q
            graph[p] = out_nbrs[p][q]
            search(p + 1, new_max)
            for j in extra[p][q]:
                counts[j] -= 1

    # Each point reaching its farthest one is strongly connected: L stops by n.
    for limit in count(floor):
        stats.passes += 1
        search(0, floor)
        if witness:
            break
    return OracleResult(limit, ReceiverAssignment(ASYM2D, dict(enumerate(witness))))
