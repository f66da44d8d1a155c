"""Exact-arithmetic core model: point sets, receiver assignments, transmission
ranges, interference, and the structural predicates shared by every solver.

Each instance stores its coordinates as integers, `ints`, over one positive
`scale`: coordinate i is ints[i] / scale, and scale is the least common
denominator of all coordinates (one scale serves both axes in 2D), so equal
point sets are equal instances.  Rationals become integers only where values
enter (`lattice` reads each as an integer pair), and the derived `points` turns
them back into Fractions on request.  Because scale > 0, the integers keep the
order of coordinates, the signs of their differences and the order of squared
distances exactly, and those are the only things the model and the solvers ask
of the geometry; so every coverage and distance test runs on Python ints, with
no floats and no rounding.  Points are addressed by index: position in the
sorted coordinate order for 1D instances, input order for 2D instances.

In 2D every point owns a ball, and a ball covers exactly its center and the
center's out-neighbors in the communication graph, so the interference of a
2D assignment is 1 plus the largest in-degree of that graph.  One ball query,
`in_balls`, builds that graph and serves the reduction's gadget checks.  The
graph and its counts are built once per (instance, receiver map), kept on the
assignment, and rebuilt for another instance or a changed map.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain
from math import gcd, isqrt, lcm
from typing import Iterable, NamedTuple, Sequence, Union

from .errors import InputError, InvariantError, echo

# Model tags for receiver assignments.
ASYM2D = "asym2d"
SINKTREE1D = "sinktree1d"


def integer(token: str) -> int:
    """The integer grammar of every file and CLI option: ASCII digits after an optional
    '-'.  int() alone also reads '+', '_', spaces and Unicode digits."""
    if token.isascii() and token.removeprefix("-").isdecimal():
        return int(token)
    raise ValueError("not an integer")


def _ratio(value) -> tuple[int, int]:
    """An int, a Fraction or a token 'a' or 'a/b' as (numerator, denominator)
    in lowest terms.  A token's a and b are read by `integer` and b must be
    positive, so tokens passed to the library follow the file grammar; any
    other value without a numerator and denominator is refused."""
    try:
        if type(value) is not str:
            return value.numerator, value.denominator
        num, slash, den = value.partition("/")
        a, b = integer(num), integer(den) if slash else 1
        g = gcd(a, b) if b > 0 else 0  # a denominator <= 0 raises in a // g
        return a // g, b // g
    except (ValueError, ZeroDivisionError, AttributeError) as exc:
        raise InputError(f"not a rational number: {echo(value)}") from exc


def lattice(values: Iterable) -> tuple[list[int], int]:
    """Rationals as integers over their least common denominator: (ints, scale)."""
    flat = list(chain.from_iterable(map(_ratio, values)))  # each pair is freed as it is read
    nums, dens = flat[::2], flat[1::2]
    scale = lcm(*dens)
    if scale == 1:
        return nums, 1
    return [a * (scale // b) for a, b in zip(nums, dens)], scale


def _check_scale(scale: int, coords: Iterable[int]) -> None:
    """Raise InputError unless `scale` is the least common denominator of the c / scale."""
    if not (scale > 0 and gcd(scale, *coords) == 1):
        raise InputError(f"scale {scale} is not the least common denominator of the coordinates")


@dataclass(frozen=True)
class Instance1D:
    """Strictly increasing coordinates ints[i] / scale; indices follow this order."""

    ints: tuple[int, ...]
    scale: int

    def __post_init__(self):
        xs = self.ints
        if len(xs) < 1:
            raise InputError("1D instance needs at least one point")
        _check_scale(self.scale, xs)
        for a, b in zip(xs, xs[1:]):
            if not a < b:
                if a == b:
                    raise InputError(f"duplicate 1D point: {Fraction(a, self.scale)}")
                raise InputError("1D points must be strictly increasing")

    @classmethod
    def from_values(cls, values: Iterable) -> "Instance1D":
        ints, scale = lattice(values)
        return cls(tuple(sorted(ints)), scale)

    @property
    def n(self) -> int:
        return len(self.ints)

    def diameter(self) -> Fraction:
        return Fraction(self.ints[-1] - self.ints[0], self.scale)

    @cached_property
    def points(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.scale) for x in self.ints)


@dataclass(frozen=True)
class Instance2D:
    """Pairwise distinct planar points (x / scale, y / scale) in input order."""

    ints: tuple[tuple[int, int], ...]
    scale: int

    def __post_init__(self):
        _check_scale(self.scale, (c for p in self.ints for c in p))
        if len(set(self.ints)) != len(self.ints):
            raise InputError("2D points must be pairwise distinct")

    @classmethod
    def from_values(cls, values: Iterable) -> "Instance2D":
        flat, scale = lattice(c for x, y in values for c in (x, y))
        return cls(tuple(zip(flat[::2], flat[1::2])), scale)

    @property
    def n(self) -> int:
        return len(self.ints)

    @cached_property
    def points(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple((Fraction(x, self.scale), Fraction(y, self.scale)) for x, y in self.ints)


Instance = Union[Instance1D, Instance2D]


class Range(NamedTuple):
    """Closed transmission ball, encoded as (center point id, boundary point id)."""

    center: int
    boundary: int


@dataclass(frozen=True)
class ReceiverAssignment:
    """Map point -> receiver point.

    For ASYM2D the map is total.  For SINKTREE1D it is total on all points
    except the designated sink, which has no receiver.
    """

    model: str
    receiver: dict[int, int] = field(default_factory=dict)
    sink: int | None = None

    def __post_init__(self):
        if self.model not in (ASYM2D, SINKTREE1D):
            raise InputError(f"unknown model tag: {self.model!r}")
        for p, q in self.receiver.items():
            if p == q:
                raise InputError(f"point {echo(p)} may not be its own receiver")
        if self.model == ASYM2D and self.sink is not None:
            raise InputError("asym2d assignments have no sink")
        if self.model == SINKTREE1D and self.sink is None:
            raise InputError("sinktree1d assignments need a sink")

    def check_for(self, instance: Instance) -> None:
        """Raise InputError unless this assignment is well-formed for `instance`."""
        n = len(instance.ints)
        for p, q in self.receiver.items():
            if not (0 <= p < n and 0 <= q < n):
                raise InputError(f"edge ({echo(p)}, {echo(q)}) references a missing point")
        if self.model == ASYM2D:
            if not isinstance(instance, Instance2D):
                raise InputError("asym2d assignment on a non-2D instance")
            if len(self.receiver) != n:
                raise InputError("asym2d receiver map must be total")
        else:
            if not isinstance(instance, Instance1D):
                raise InputError("sinktree1d assignment on a non-1D instance")
            if not 0 <= self.sink < n:
                raise InputError(f"sink {echo(self.sink)} references a missing point")
            if self.sink in self.receiver:
                raise InputError("the sink may not have a receiver")
            if len(self.receiver) != n - 1:
                raise InputError("receiver map must cover every non-sink point")


def dist2(p: tuple, q: tuple):
    """Squared Euclidean distance; exact for int and Fraction coordinates."""
    dx = p[0] - q[0]
    dy = p[1] - q[1]
    return dx * dx + dy * dy


def in_balls(pts: Sequence[tuple[int, int]], radii2: Sequence[int]) -> list[list[int]]:
    """For each integer point pts[i], the ascending indices of the other points
    within squared distance radii2[i] of it (none for a negative radius).  The
    points are sorted into rows as high as the median ball's radius (rounded
    up) and by x within a row; each ball bisects its x-window in the non-empty
    rows its radius spans, so a huge ball costs its own rows and hits only."""
    reach = sorted(r2 for r2 in radii2 if r2 >= 0)
    median = reach[len(reach) // 2] if reach else 0
    height = isqrt(median - 1) + 1 if median > 0 else 1
    order = sorted(range(len(pts)), key=lambda i: (pts[i][1] // height, pts[i][0]))
    rows = [pts[i][1] // height for i in order]
    xs, ys = [pts[i][0] for i in order], [pts[i][1] for i in order]
    keys = sorted(set(rows))
    starts = [bisect_left(rows, k) for k in keys] + [len(order)]
    out = []
    for p, ((x, y), r2) in enumerate(zip(pts, radii2)):
        hits = []
        if r2 >= 0:
            r = isqrt(r2)
            for k in range(bisect_left(keys, (y - r) // height), bisect_right(keys, (y + r) // height)):
                lo, hi = starts[k], starts[k + 1]
                for j in range(bisect_left(xs, x - r, lo, hi), bisect_right(xs, x + r, lo, hi)):
                    if (xs[j] - x) ** 2 + (ys[j] - y) ** 2 <= r2:
                        hits.append(order[j])
            hits.remove(p)  # every ball holds its center
            hits.sort()
        out.append(hits)
    return out


def cover_table(instance: Instance1D) -> list[list[tuple[int, int]]]:
    """cover[c][b]: the inclusive index range covered by the ball centered at point
    c with point b on its boundary; b is the end of the range on its side of c."""
    xs = instance.ints
    return [
        [
            (bisect_left(xs, 2 * x - y, 0, c), b) if b > c else (b, bisect_right(xs, 2 * x - y, c) - 1)
            for b, y in enumerate(xs)
        ]
        for c, x in enumerate(xs)
    ]


class _Eval2D(NamedTuple):
    """One 2D evaluation: the pair it was built for, out-lists and counts."""

    instance: Instance2D
    receiver: dict[int, int]
    out: list[list[int]]
    counts: list[int]


def _evaluate_2d(instance: Instance2D, assignment: ReceiverAssignment) -> _Eval2D:
    """The pair's evaluation: kept on the assignment, checked on every call."""
    memo = assignment.__dict__.get("_eval")
    if memo is not None and memo.instance is instance and memo.receiver == assignment.receiver:
        return memo
    assignment.check_for(instance)
    pts, receiver = instance.ints, assignment.receiver
    out = in_balls(pts, [dist2(c, pts[receiver[p]]) for p, c in enumerate(pts)])
    counts = [1] * len(pts)
    for q in chain.from_iterable(out):
        counts[q] += 1
    memo = assignment.__dict__["_eval"] = _Eval2D(instance, dict(receiver), out, counts)
    return memo


def communication_graph_2d(instance: Instance2D, assignment: ReceiverAssignment) -> list[list[int]]:
    """Out-neighbor lists: edge p -> q iff q is at most as far from p as N(p)."""
    if assignment.model != ASYM2D:
        raise InputError("communication_graph_2d needs an asym2d assignment")
    return [nbrs[:] for nbrs in _evaluate_2d(instance, assignment).out]


def _reach(adj: Sequence[Sequence[int]], start: int) -> list[int]:
    """The points reachable from `start` along `adj`, in breadth-first order:
    each point is listed after the point it was first reached from."""
    seen = [False] * len(adj)
    seen[start] = True
    order = [start]
    for v in order:
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                order.append(w)
    return order


def _strongly_connected(out: Sequence[Sequence[int]]) -> bool:
    n = len(out)
    if n == 0:
        return True
    if len(_reach(out, 0)) != n:
        return False
    # The reverse graph is built only once every point is reachable from
    # point 0: nearly every leaf of the 2D oracle fails before that.
    back: list[list[int]] = [[] for _ in range(n)]
    for p, nbrs in enumerate(out):
        for q in nbrs:
            back[q].append(p)
    return len(_reach(back, 0)) == n


def _tree_order(instance: Instance1D, assignment: ReceiverAssignment) -> tuple[list[int], list[list[int]]]:
    """The points that reach the sink, each listed after its receiver, and
    every point's children.  The walk follows the children lists from the
    sink with no `seen` list: every point but the sink has one receiver, so
    no point is listed twice."""
    assignment.check_for(instance)
    children: list[list[int]] = [[] for _ in instance.ints]
    for p, q in assignment.receiver.items():
        children[q].append(p)
    order = [assignment.sink]
    for v in order:
        order += children[v]
    return order, children


def is_valid(instance: Instance, assignment: ReceiverAssignment) -> bool:
    """Validity: strong connectivity (asym2d) or a rooted in-tree (sinktree1d)."""
    if assignment.model == ASYM2D:
        return _strongly_connected(_evaluate_2d(instance, assignment).out)
    return len(_tree_order(instance, assignment)[0]) == len(instance.ints)


def _coverage_delta(instance: Instance1D, assignment: ReceiverAssignment) -> list[int]:
    """The 1D coverage counts as a difference array of n + 1 entries: its
    running sums are the counts, then 0."""
    assignment.check_for(instance)
    xs = instance.ints
    delta = [0] * (len(xs) + 1)
    for c, b in assignment.receiver.items():  # cover_table[c][b], one bisect each
        if b > c:
            delta[bisect_left(xs, 2 * xs[c] - xs[b], 0, c)] += 1
            delta[b + 1] -= 1
        else:
            delta[b] += 1
            delta[bisect_right(xs, 2 * xs[c] - xs[b], c)] -= 1
    return delta


def coverage_counts(instance: Instance, assignment: ReceiverAssignment) -> list[int]:
    """Number of transmission ranges covering each point (own ball included);
    in 2D, 1 plus the point's in-degree in the communication graph."""
    if isinstance(instance, Instance2D):
        return _evaluate_2d(instance, assignment).counts[:]
    return list(accumulate(_coverage_delta(instance, assignment)))[:-1]


def interference_at(instance: Instance, assignment: ReceiverAssignment, point_id: int) -> int:
    """One point's coverage count; O(n) per call, so `coverage_counts` serves every point."""
    if not 0 <= point_id < instance.n:
        raise InputError(f"no point with index {point_id}")
    if isinstance(instance, Instance2D):
        return _evaluate_2d(instance, assignment).counts[point_id]
    return coverage_counts(instance, assignment)[point_id]


def interference(instance: Instance, assignment: ReceiverAssignment) -> int:
    """Maximum number of transmission ranges covering any point of the instance."""
    if isinstance(instance, Instance2D):
        return max(_evaluate_2d(instance, assignment).counts, default=0)
    return max(accumulate(_coverage_delta(instance, assignment)))


def verify_witness(instance: Instance, witness: ReceiverAssignment, optimum: int) -> None:
    """Raise InvariantError unless `witness` is valid with interference `optimum`."""
    if not is_valid(instance, witness):
        raise InvariantError("witness failed validation")
    recomputed = interference(instance, witness)
    if recomputed != optimum:
        raise InvariantError(f"witness interference {recomputed} != reported optimum {optimum}")


def _valid_tree_order(instance: Instance1D, assignment: ReceiverAssignment) -> tuple[list[int], list[list[int]]]:
    if assignment.model != SINKTREE1D:
        raise InputError("this predicate is defined for sinktree1d assignments")
    order, children = _tree_order(instance, assignment)
    if len(order) != instance.n:
        raise InputError("assignment is not a valid sink tree")
    return order, children


def cross_edges(instance: Instance1D, assignment: ReceiverAssignment) -> list[tuple[int, int]]:
    """Edges whose open interval contains a point that is not a descendant of the tail:
    the non-descendants of p are the points before p in either of two preorder walks
    from the sink that take each point's children in opposite orders, so p -> q crosses
    when, in some walk, the nearest point to p towards q ranked below p is not q."""
    children = _valid_tree_order(instance, assignment)[1]
    n = len(children)
    receiver = assignment.receiver
    crossing = [False] * n
    for forward in (True, False):
        rank, todo = [0] * n + [-1], [assignment.sink]  # rank[-1] = -1: below every point
        for i in range(n):
            v = todo.pop()
            rank[v] = i
            todo += children[v] if forward else reversed(children[v])
        stack = [-1]  # -1, then each point left of r ranked below all points between it and r
        for r in range(n):
            while rank[stack[-1]] > rank[r]:
                p = stack.pop()  # r is the nearest point right of p ranked below p
                crossing[p] |= r < receiver[p]
            crossing[r] |= receiver.get(r, n) < stack[-1]  # stack[-1]: nearest left of r ranked below r
            stack.append(r)
    return [(p, receiver[p]) for p in range(n) if crossing[p]]


def has_bst_property(instance: Instance1D, assignment: ReceiverAssignment) -> bool:
    """Binary-search-tree shape: at most one child per side, and every node's
    descendant span contains nothing but its own descendants.  That is having
    no cross edges: two children p1 < p2 of q on one side make p1 -> q cross
    p2, a span holding a non-descendant has an edge jumping over it, and in a
    BST-shaped tree a point between p and q outside p's span would be a
    second descendant of q on p's side."""
    return not cross_edges(instance, assignment)


def count_bends(instance: Instance1D, assignment: ReceiverAssignment) -> int:
    """Edges between points that are not adjacent in the sorted order."""
    _valid_tree_order(instance, assignment)
    return sum(1 for p, q in assignment.receiver.items() if abs(p - q) > 1)
