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

from typing import Sequence

from .errors import InputError
from .model import SINKTREE1D, Instance1D, ReceiverAssignment


def nna_round(
    instance: Instance1D, components: Sequence[tuple[int, int, int]], receiver: dict[int, int]
) -> list[tuple[int, int, int]]:
    """One merging round over components, each a contiguous index interval
    [lo, hi] carrying an in-tree rooted at sink and given as the plain tuple
    (lo, hi, sink); the component count at least halves.  The edge of every
    sink that does not survive is written into `receiver`."""
    if len(components) < 2:
        raise InputError("a merging round needs at least two components")
    xs = instance.ints
    last = instance.n - 1
    merged: list[tuple[int, int, int]] = []
    start = 0  # lo of the open cluster
    # The sinks of the open cluster's mutually-pointing pair, set at its first
    # left-pointing component; the next right-pointing one ends the cluster.
    prev, left_sink, right_sink = -1, None, None
    for lo, hi, sink in components:
        x = xs[sink]
        # The components tile the line, so the successor is the nearer of
        # lo - 1 and hi + 1; ties go left.
        if hi == last or (lo > 0 and x - xs[lo - 1] <= xs[hi + 1] - x):
            receiver[sink] = lo - 1
            if right_sink is None:
                left_sink, right_sink = prev, sink
        else:
            receiver[sink] = hi + 1
            if right_sink is not None:
                # The cluster start .. lo - 1 is complete.
                tie = start > 0 and xs[left_sink] - xs[start - 1] == xs[lo] - xs[left_sink]
                survivor = right_sink if tie else left_sink
                del receiver[survivor]
                merged.append((start, lo - 1, survivor))
                start, right_sink = lo, None
        prev = sink
    # The last cluster ends at the last point, so no tie can move its survivor.
    del receiver[left_sink]
    merged.append((start, last, left_sink))
    return merged


def nna(instance: Instance1D, round_log: list[list[tuple[int, int, int]]] | None = None) -> ReceiverAssignment:
    """Run the heuristic to a single component and return its assignment."""
    components = [(i, i, i) for i in range(instance.n)]  # the singletons
    receiver: dict[int, int] = {}
    while len(components) > 1:
        components = nna_round(instance, components, receiver)
        if round_log is not None:
            round_log.append(components)
    return ReceiverAssignment(SINKTREE1D, receiver, components[0][2])
