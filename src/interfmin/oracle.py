"""Brute-force exact solvers for small instances.

These are the ground truth the other solvers are tested against.  The 1D
oracles share one search body, `_sink_trees`: for every root in ascending
order it enumerates every receiver map whose functional graph is an in-tree
rooted there (recursive parent choice with cycle detection), pruning a branch
once its partial coverage maximum exceeds a limit.  `brute_force_1d` starts the
limit at n and lowers it below each tree it reaches, so the last tree reached
is the witness; `enumerate_optimal_1d` runs the search at the optimum and
returns the list of every tree it reaches (at most a few thousand assignments
at the default cap of 9 points).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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


def _sink_trees(
    instance: Instance1D, limit: int, leaf: Callable[[int, dict[int, int], int], int]
) -> None:
    """The one 1D search body: visit, root by root in ascending order, every
    sink tree whose coverage maximum stays at most `limit`, and call
    leaf(root, receiver, value) on each.  The leaf returns the limit for the
    rest of the search."""
    n = instance.n
    cover = cover_table(instance)
    counts = [0] * n
    parent: list[int | None] = [None] * n
    for root in range(n):
        order = [p for p in range(n) if p != root]
        limit = _descend(cover, counts, parent, root, order, 0, 0, limit, leaf)


def _descend(cover, counts, parent, root, order, idx, cur_max, limit, leaf) -> int:
    # A module-level function rather than a recursive closure: a closure that
    # refers to itself sits in a reference cycle, which would keep the leaf,
    # and every assignment it collected, alive until the garbage collector runs.
    if cur_max > limit:
        return limit
    if idx == len(order):
        return leaf(root, {p: parent[p] for p in order}, cur_max)
    p = order[idx]
    for q in range(len(counts)):
        if q == p or _would_cycle(parent, p, q):
            continue
        lo, hi = cover[p][q]
        new_max = cur_max
        for j in range(lo, hi + 1):
            counts[j] += 1
            if counts[j] > new_max:
                new_max = counts[j]
        parent[p] = q
        limit = _descend(cover, counts, parent, root, order, idx + 1, new_max, limit, leaf)
        parent[p] = None
        for j in range(lo, hi + 1):
            counts[j] -= 1
    return limit


def brute_force_1d(instance: Instance1D, cap: int = DEFAULT_CAP_1D) -> OracleResult:
    """Minimum interference over all valid sink-tree assignments, with one
    minimizer as witness (the first found in deterministic search order)."""
    _check_cap(instance.n, cap, "1D brute force")
    improvements: list[tuple[int, dict[int, int], int]] = []

    def improve(root: int, receiver: dict[int, int], value: int) -> int:
        improvements.append((value, receiver, root))
        return value - 1  # from here on, only strictly better trees count

    # Any valid assignment has interference at most n - 1.
    _sink_trees(instance, instance.n, improve)
    best, receiver, root = improvements[-1]
    return OracleResult(best, ReceiverAssignment(SINKTREE1D, receiver, root))


def enumerate_optimal_1d(
    instance: Instance1D, cap: int = DEFAULT_CAP_1D
) -> list[ReceiverAssignment]:
    """Every valid assignment attaining the optimum interference, in search
    order."""
    _check_cap(instance.n, cap, "1D optimal enumeration")
    opt = brute_force_1d(instance, cap=cap).optimum
    optimal: list[ReceiverAssignment] = []

    def collect(root: int, receiver: dict[int, int], value: int) -> int:
        optimal.append(ReceiverAssignment(SINKTREE1D, receiver, root))
        return opt

    _sink_trees(instance, opt, collect)
    return optimal


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
