"""Nearest-neighbor merging heuristic for 1D sink trees.

Starts from singleton components and repeatedly joins each component's sink to
the closest point outside the component.  Clusters of components linked this
way always contain exactly one mutually-pointing adjacent pair; one of that
pair's sinks survives as the cluster sink and drops its outgoing edge.  The
final assignment is valid with interference at most ceil(log2 n) + 2.

All ties (equidistant successors, and survivor selection when the
distinctness rule does not single one out) resolve toward the smaller
coordinate, which makes runs reproducible.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InputError, InvariantError
from .model import SINKTREE1D, Instance1D, ReceiverAssignment


class Component(NamedTuple):
    """Contiguous index interval [lo, hi] carrying an in-tree rooted at sink."""

    lo: int
    hi: int
    sink: int


def _successor(instance: Instance1D, comp: Component) -> int:
    """Closest point to the component sink outside the component interval."""
    xs = instance.ints
    left = comp.lo - 1
    right = comp.hi + 1
    if left < 0:
        return right
    if right >= instance.n:
        return left
    if xs[comp.sink] - xs[left] <= xs[right] - xs[comp.sink]:
        return left  # ties go to the smaller coordinate
    return right


def nna_round(
    instance: Instance1D, components: list[Component], receiver: dict[int, int]
) -> list[Component]:
    """One merging round; the component count at most halves.  The edge of
    every sink that does not survive is written into `receiver`."""
    k = len(components)
    if k < 2:
        raise InputError("a merging round needs at least two components")
    xs = instance.ints
    succ_point = [_successor(instance, c) for c in components]
    succ_comp = [i - 1 if succ_point[i] < components[i].lo else i + 1 for i in range(k)]

    # Consecutive components belong to the same cluster iff a successor edge
    # links them; clusters are therefore contiguous runs.
    runs: list[tuple[int, int]] = []
    start = 0
    for i in range(k - 1):
        if succ_comp[i] != i + 1 and succ_comp[i + 1] != i:
            runs.append((start, i))
            start = i + 1
    runs.append((start, k - 1))

    merged: list[Component] = []
    for r, (a, b) in enumerate(runs):
        if a == b:
            raise InvariantError("cluster with a single component")
        pair = [i for i in range(a, b) if succ_comp[i] == i + 1 and succ_comp[i + 1] == i]
        if len(pair) != 1:
            raise InvariantError(f"cluster cycle must have exactly one mutual pair, got {len(pair)}")
        i = pair[0]
        lo = components[a].lo
        hi = components[b].hi

        def distinct(sink: int) -> bool:
            dists = []
            if r > 0:
                dists.append(xs[sink] - xs[components[runs[r - 1][1]].hi])
            if r < len(runs) - 1:
                dists.append(xs[components[runs[r + 1][0]].lo] - xs[sink])
            return len(dists) < 2 or dists[0] != dists[1]

        left_sink = components[i].sink
        right_sink = components[i + 1].sink
        if distinct(left_sink):
            survivor = left_sink
        elif distinct(right_sink):
            survivor = right_sink
        else:
            survivor = left_sink
        for j in range(a, b + 1):
            if components[j].sink != survivor:
                receiver[components[j].sink] = succ_point[j]
        merged.append(Component(lo, hi, survivor))
    return merged


def nna(instance: Instance1D, round_log: list[list[Component]] | None = None) -> ReceiverAssignment:
    """Run the heuristic to a single component and return its assignment."""
    components = [Component(i, i, i) for i in range(instance.n)]
    receiver: dict[int, int] = {}
    while len(components) > 1:
        components = nna_round(instance, components, receiver)
        if round_log is not None:
            round_log.append(components)
    return ReceiverAssignment(SINKTREE1D, receiver, components[0].sink)
