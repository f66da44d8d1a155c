"""Brute-force exact solvers for small instances.

These are the ground truth the other solvers are tested against.  The 1D
search enumerates, for every root, every receiver map whose functional graph
is an in-tree rooted there (recursive parent choice with cycle detection).
Branches are pruned only when their partial coverage maximum already rules out
an improvement, which never changes the returned optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

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

DEFAULT_CAP_1D = 9
DEFAULT_CAP_2D = 7


@dataclass
class OracleResult:
    optimum: int
    witness: ReceiverAssignment
    optimal_count: int | None = None


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


def brute_force_1d(
    instance: Instance1D, cap: int = DEFAULT_CAP_1D, count_optimal: bool = False
) -> OracleResult:
    """Minimum interference over all valid sink-tree assignments, with one
    minimizer as witness (the first found in deterministic search order)."""
    n = instance.n
    _check_cap(n, cap, "1D brute force")
    if n == 1:
        return OracleResult(0, ReceiverAssignment(SINKTREE1D, {}, 0), 1 if count_optimal else None)

    cover = cover_table(instance)
    counts = [0] * n
    parent: list[int | None] = [None] * n
    best = n + 1  # any valid assignment has interference <= n - 1
    best_receiver: dict[int, int] = {}
    best_root = 0

    def search(root: int, order: list[int], idx: int, cur_max: int) -> None:
        nonlocal best, best_receiver, best_root
        if cur_max >= best:
            return
        if idx == len(order):
            best = cur_max
            best_receiver = {p: parent[p] for p in order}
            best_root = root
            return
        p = order[idx]
        for q in range(n):
            if q == p or _would_cycle(parent, p, q):
                continue
            lo, hi = cover[p][q]
            new_max = cur_max
            for j in range(lo, hi + 1):
                counts[j] += 1
                if counts[j] > new_max:
                    new_max = counts[j]
            parent[p] = q
            search(root, order, idx + 1, new_max)
            parent[p] = None
            for j in range(lo, hi + 1):
                counts[j] -= 1

    for root in range(n):
        order = [p for p in range(n) if p != root]
        search(root, order, 0, 0)

    witness = ReceiverAssignment(SINKTREE1D, best_receiver, best_root)
    result = OracleResult(best, witness)
    if count_optimal:
        result.optimal_count = sum(1 for _ in enumerate_optimal_1d(instance, cap=cap))
    return result


def enumerate_optimal_1d(
    instance: Instance1D, cap: int = DEFAULT_CAP_1D
) -> Iterator[ReceiverAssignment]:
    """Yield every valid assignment attaining the optimum interference."""
    n = instance.n
    _check_cap(n, cap, "1D optimal enumeration")
    if n == 1:
        yield ReceiverAssignment(SINKTREE1D, {}, 0)
        return
    opt = brute_force_1d(instance, cap=cap).optimum
    cover = cover_table(instance)
    counts = [0] * n
    parent: list[int | None] = [None] * n

    def search(root: int, order: list[int], idx: int, cur_max: int) -> Iterator[ReceiverAssignment]:
        if cur_max > opt:
            return
        if idx == len(order):
            yield ReceiverAssignment(SINKTREE1D, {p: parent[p] for p in order}, root)
            return
        p = order[idx]
        for q in range(n):
            if q == p or _would_cycle(parent, p, q):
                continue
            lo, hi = cover[p][q]
            new_max = cur_max
            for j in range(lo, hi + 1):
                counts[j] += 1
                if counts[j] > new_max:
                    new_max = counts[j]
            parent[p] = q
            yield from search(root, order, idx + 1, new_max)
            parent[p] = None
            for j in range(lo, hi + 1):
                counts[j] -= 1

    for root in range(n):
        order = [p for p in range(n) if p != root]
        yield from search(root, order, 0, 0)


def brute_force_2d(instance: Instance2D, cap: int = DEFAULT_CAP_2D) -> OracleResult:
    """Minimum interference over all total receiver maps with a strongly
    connected communication graph."""
    n = instance.n
    if n < 2:
        raise InputError("2D brute force needs at least two points")
    _check_cap(n, cap, "2D brute force")

    pts = instance.ints
    d2 = [[dist2(pts[p], pts[q]) for q in range(n)] for p in range(n)]
    # covered[p][q]: points inside the ball centered p with q on the boundary;
    # out_nbrs[p][q]: communication edges from p under N(p) = q.
    covered = [[tuple(j for j in range(n) if d2[p][j] <= d2[p][q]) for q in range(n)] for p in range(n)]
    out_nbrs = [[tuple(j for j in covered[p][q] if j != p) for q in range(n)] for p in range(n)]

    counts = [0] * n
    choice = [0] * n
    graph: list[tuple[int, ...]] = [()] * n  # graph[p] = out_nbrs[p][choice[p]]
    best = n + 1
    best_choice: list[int] | None = None

    def search(p: int, cur_max: int) -> None:
        nonlocal best, best_choice
        if cur_max >= best:
            return
        if p == n:
            if _strongly_connected(graph):
                best = cur_max
                best_choice = choice[:]
            return
        for q in range(n):
            if q == p:
                continue
            new_max = cur_max
            for j in covered[p][q]:
                counts[j] += 1
                if counts[j] > new_max:
                    new_max = counts[j]
            choice[p] = q
            graph[p] = out_nbrs[p][q]
            search(p + 1, new_max)
            for j in covered[p][q]:
                counts[j] -= 1

    search(0, 0)
    if best_choice is None:
        raise CapExceededError("no strongly connected assignment exists")  # unreachable for n >= 2
    witness = ReceiverAssignment(ASYM2D, {p: best_choice[p] for p in range(n)})
    return OracleResult(best, witness)
