"""Nearest-neighbor merging heuristic for 1D sink trees.

Starts from singleton components and repeatedly joins each component's sink to
the closest point outside the component.  Clusters of components linked this
way always contain exactly one mutually-pointing adjacent pair; one of that
pair's sinks survives as the cluster sink and drops its outgoing edge.  The
final assignment is valid with interference at most ceil(log2 n) + 2.

Equidistant successors resolve toward the smaller coordinate.  The survivor
should be at distinct distances from the two points just outside its merged
cluster: the left sink of the pair survives unless it lies exactly midway
between them, and then the right sink (which cannot) survives.  Runs are
therefore reproducible.
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


def nna_round(
    instance: Instance1D, components: list[Component], receiver: dict[int, int]
) -> list[Component]:
    """One merging round; the component count at most halves.  The edge of
    every sink that does not survive is written into `receiver`."""
    if len(components) < 2:
        raise InputError("a merging round needs at least two components")
    xs = instance.ints
    last = instance.n - 1
    merged: list[Component] = []
    start = 0  # first component of the open cluster
    pairs: list[int] = []  # i of each mutual pair (i, i + 1) in the open cluster
    was_left = False
    for i in range(len(components) + 1):
        if i < len(components):
            lo, hi, sink = components[i]
            # Components tile the line, so the successor is the nearer of
            # lo - 1 and hi + 1; ties go left.
            is_left = hi == last or (lo > 0 and xs[sink] - xs[lo - 1] <= xs[hi + 1] - xs[sink])
            receiver[sink] = lo - 1 if is_left else hi + 1
        else:
            is_left = False  # the end of the line closes the last cluster
        if is_left and not was_left:
            pairs.append(i - 1)
        elif was_left and not is_left:
            # A left-pointing component meets a right-pointing one: the
            # cluster of components start .. i - 1 is complete.
            if len(pairs) != 1:
                raise InvariantError(f"cluster must have exactly one mutual pair, got {len(pairs)}")
            lo, hi = components[start].lo, components[i - 1].hi
            survivor = components[pairs[0]].sink
            if lo > 0 and hi < last and xs[survivor] - xs[lo - 1] == xs[hi + 1] - xs[survivor]:
                survivor = components[pairs[0] + 1].sink
            del receiver[survivor]
            merged.append(Component(lo, hi, survivor))
            start, pairs = i, []
        was_left = is_left
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
