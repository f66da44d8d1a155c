import hashlib
import itertools
import random
import re
import sys
from fractions import Fraction
from functools import lru_cache
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from interfmin import model
from interfmin.errors import InputError
from interfmin.model import (
    ASYM2D,
    SINKTREE1D,
    Instance1D,
    Instance2D,
    ReceiverAssignment,
    _strongly_connected,
    communication_graph_2d,
    count_bends,
    cover_table,
    coverage_counts,
    cross_edges,
    has_bst_property,
    interference,
    interference_at,
    is_valid,
    lattice,
)
from interfmin.nna import nna
from interfmin.reduction import GridGraph, assignment_from_ham_path, extract_connection_structure, reduce_grid
from interfmin.textio import format_points, parse_points

TRIANGLE = Instance2D.from_values([(0, 0), (1, 0), (0, 1)])
TRIANGLE_N = ReceiverAssignment(ASYM2D, {0: 1, 1: 2, 2: 0})


def scale_instance(instance, factor: Fraction):
    """The instance with every coordinate times the positive rational factor."""
    if isinstance(instance, Instance1D):
        return Instance1D.from_values(x * factor for x in instance.points)
    return Instance2D.from_values((x * factor, y * factor) for x, y in instance.points)


def chain(n, sink=0):
    """Each point joins its left neighbor; sink at index 0 (or mirrored)."""
    if sink == 0:
        return ReceiverAssignment(SINKTREE1D, {p: p - 1 for p in range(1, n)}, 0)
    return ReceiverAssignment(SINKTREE1D, {p: p + 1 for p in range(n - 1)}, n - 1)


def test_instance_validation():
    with pytest.raises(InputError):
        Instance1D.from_values([1, 1, 2])
    with pytest.raises(InputError):
        Instance1D.from_values([])
    with pytest.raises(InputError):
        Instance2D.from_values([(0, 0), (0, 0)])
    inst = Instance1D.from_values(["3/2", 0, 1])
    assert inst.points == (0, 1, Fraction(3, 2))


def test_assignment_validation():
    inst = Instance1D.from_values([0, 1, 2])
    with pytest.raises(InputError):
        ReceiverAssignment(SINKTREE1D, {1: 1}, 0)
    with pytest.raises(InputError):
        ReceiverAssignment(SINKTREE1D, {1: 0, 2: 0}, None)
    a = ReceiverAssignment(SINKTREE1D, {1: 0}, 0)
    with pytest.raises(InputError):
        a.check_for(inst)  # point 2 unassigned
    with pytest.raises(InputError):
        ReceiverAssignment(ASYM2D, {0: 5}, None).check_for(TRIANGLE)


def test_communication_graph_triangle():
    out = communication_graph_2d(TRIANGLE, TRIANGLE_N)
    assert out[0] == [1, 2]
    assert out[1] == [0, 2]
    assert out[2] == [0]


def test_communication_graph_two_points_mutual():
    inst = Instance2D.from_values([(0, 0), (1, 0)])
    out = communication_graph_2d(inst, ReceiverAssignment(ASYM2D, {0: 1, 1: 0}))
    assert out == [[1], [0]]


def test_communication_graph_collinear():
    inst = Instance2D.from_values([(0, 0), (2, 0), (3, 0)])
    out = communication_graph_2d(inst, ReceiverAssignment(ASYM2D, {0: 1, 1: 0, 2: 1}))
    assert out[0] == [1]  # the point at distance 3 is out of reach


def test_is_valid():
    assert is_valid(TRIANGLE, TRIANGLE_N)
    inst = Instance1D.from_values([0, 1])
    assert is_valid(inst, ReceiverAssignment(SINKTREE1D, {0: 1}, 1))
    inst3 = Instance1D.from_values([0, 1, 2])
    cyc = ReceiverAssignment(SINKTREE1D, {0: 1, 1: 0}, 2)
    assert not is_valid(inst3, cyc)
    assert is_valid(Instance1D.from_values([5]), ReceiverAssignment(SINKTREE1D, {}, 0))


def test_interference_triangle():
    assert interference_at(TRIANGLE, TRIANGLE_N, 0) == 3
    assert interference_at(TRIANGLE, TRIANGLE_N, 1) == 2
    assert interference_at(TRIANGLE, TRIANGLE_N, 2) == 3
    assert interference(TRIANGLE, TRIANGLE_N) == 3


def test_interference_1d_examples():
    inst = Instance1D.from_values([0, 1])
    assert interference(inst, ReceiverAssignment(SINKTREE1D, {0: 1}, 1)) == 1
    inst4 = Instance1D.from_values([0, 1, 3, 4])
    # coordinates 1->0, 4->3, 3->1 with the sink at coordinate 0
    a = ReceiverAssignment(SINKTREE1D, {1: 0, 3: 2, 2: 1}, 0)
    assert interference(inst4, a) == 2
    assert interference(Instance1D.from_values([7]), ReceiverAssignment(SINKTREE1D, {}, 0)) == 0


def test_interference_consistency():
    inst4 = Instance1D.from_values([0, 1, 3, 4])
    a = ReceiverAssignment(SINKTREE1D, {1: 0, 3: 2, 2: 1}, 0)
    assert interference(inst4, a) == max(
        interference_at(inst4, a, p) for p in range(inst4.n)
    )
    assert coverage_counts(inst4, a) == [
        interference_at(inst4, a, p) for p in range(inst4.n)
    ]


def test_cross_edges():
    inst = Instance1D.from_values([0, 1, 2])
    a = ReceiverAssignment(SINKTREE1D, {0: 2, 1: 2}, 2)
    assert cross_edges(inst, a) == [(0, 2)]
    assert cross_edges(inst, chain(3)) == []
    with pytest.raises(InputError):
        cross_edges(inst, ReceiverAssignment(SINKTREE1D, {0: 1, 1: 0}, 2))


def reference_descendant_masks(n, assignment):
    """Reference: bitmask of descendants per point (each point is its own
    descendant), each point ORed into every receiver up its chain."""
    masks = [0] * n
    for p in range(n):
        v = p
        while True:
            masks[v] |= 1 << p
            if v == assignment.sink:
                break
            v = assignment.receiver[v]
    return masks


def reference_cross_edges(n, assignment):
    """Reference: edges whose open interval holds a bit missing from the
    tail's descendant mask."""
    masks = reference_descendant_masks(n, assignment)
    result = []
    for p in sorted(assignment.receiver):
        q = assignment.receiver[p]
        lo, hi = min(p, q), max(p, q)
        between = ((1 << (hi - lo - 1)) - 1) << (lo + 1)
        if between & ~masks[p]:
            result.append((p, q))
    return result


def windowed_random_tree(rng, n, window):
    """A random in-tree on n points: the points in a shuffled order, each
    taking a receiver among the `window` points before it, so most edges cross."""
    order = list(range(n))
    rng.shuffle(order)
    receiver = {p: order[rng.randrange(max(0, i - window), i)] for i, p in enumerate(order) if i}
    return Instance1D.from_values(range(n)), ReceiverAssignment(SINKTREE1D, receiver, order[0])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_cross_edges_match_descendant_masks_on_every_in_tree(n):
    for inst, a in _all_in_trees(n):
        assert cross_edges(inst, a) == reference_cross_edges(n, a), (a.sink, a.receiver)


def test_cross_edges_match_descendant_masks_on_random_trees():
    rng = random.Random(7)
    edges = crossed = 0
    for window in (2, 5, 50):
        for _ in range(40):
            inst, a = windowed_random_tree(rng, rng.randint(2, 300), window)
            expected = reference_cross_edges(inst.n, a)
            assert cross_edges(inst, a) == expected, (a.sink, a.receiver)
            edges, crossed = edges + len(a.receiver), crossed + len(expected)
    assert edges // 2 < crossed < edges  # mostly crossing edges, but not only


def test_bst_property():
    inst = Instance1D.from_values([0, 1, 2])
    assert has_bst_property(inst, chain(3))
    inst4 = Instance1D.from_values([0, 1, 2, 3])
    a = ReceiverAssignment(SINKTREE1D, {0: 2, 2: 3, 1: 3}, 3)
    assert not has_bst_property(inst4, a)  # point 1 sits inside 2's descendant span


def test_count_bends():
    inst4 = Instance1D.from_values([0, 1, 3, 4])
    assert count_bends(inst4, chain(4)) == 0
    # coordinate edge 3->1 joins adjacent indices; 0->3 skips one
    a = ReceiverAssignment(SINKTREE1D, {0: 2, 1: 2, 3: 2}, 2)
    assert count_bends(inst4, a) == 1


def _all_receiver_maps(n):
    """Every sink-tree receiver map on n points, valid or not: each sink, and
    for every other point each receiver but itself."""
    inst = Instance1D.from_values(range(n))
    for root in range(n):
        others = [p for p in range(n) if p != root]
        for recv in itertools.product(*[[q for q in range(n) if q != p] for p in others]):
            yield inst, ReceiverAssignment(SINKTREE1D, dict(zip(others, recv)), root)


def _all_in_trees(n):
    """Every valid sink-tree assignment on n points, built directly: for each
    sink, the points in index order take every receiver whose chain of
    receivers so far does not lead back to the point."""
    inst = Instance1D.from_values(range(n))

    def extend(receiver, sink, p):
        if p == n:
            yield inst, ReceiverAssignment(SINKTREE1D, dict(receiver), sink)
        elif p == sink:
            yield from extend(receiver, sink, p + 1)
        else:
            for q in range(n):
                end = q
                while end in receiver:
                    end = receiver[end]
                if end != p:
                    receiver[p] = q
                    yield from extend(receiver, sink, p + 1)
                    del receiver[p]

    for sink in range(n):
        yield from extend({}, sink, 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_all_in_trees_are_the_valid_receiver_maps(n):
    def as_key(a):
        return a.sink, sorted(a.receiver.items())

    built = [as_key(a) for _, a in _all_in_trees(n)]
    filtered = [as_key(a) for inst, a in _all_receiver_maps(n) if is_valid(inst, a)]
    assert len(built) == n ** (n - 1)  # Cayley: n^(n-2) trees, n sinks each
    assert sorted(built) == sorted(filtered)


# sha256 of the tree predicates on all 20153 receiver maps with n = 1..6,
# recorded before validity and descendant sets came from one breadth-first
# reach, and while `model.descendant_masks` made the masks that
# `reference_descendant_masks` makes now; no rewrite may change a verdict.
TREE_PREDICATES_SHA256 = "0ad1071f35933fa0bc4231f588dd318c7350d083cacd5b8408144360bd40ce70"


def test_tree_predicates_golden_digest():
    digest = hashlib.sha256()
    count = 0
    for n in range(1, 7):
        for inst, a in _all_receiver_maps(n):
            verdicts = is_valid(inst, a) and (
                True,
                reference_descendant_masks(n, a),
                cross_edges(inst, a),
                has_bst_property(inst, a),
                count_bends(inst, a),
            )
            digest.update(repr((a.sink, sorted(a.receiver.items()), verdicts)).encode())
            count += 1
    assert count == 20153
    assert digest.hexdigest() == TREE_PREDICATES_SHA256


def closure_strongly_connected(out):
    """Reference: Warshall's transitive closure, then every pair reaches."""
    n = len(out)
    reach = [[p == q or q in out[p] for q in range(n)] for p in range(n)]
    for k in range(n):
        for row in reach:
            if row[k]:
                row[:] = [r or rk for r, rk in zip(row, reach[k])]
    return all(all(row) for row in reach)


def test_strongly_connected_matches_transitive_closure():
    rng = random.Random(5)
    graphs = [[], [[0]], [[0], [1]], [[1], [0]], [[1], [0], []]]  # self-loops, an isolated point
    for n in range(10):
        for density in (0.15, 0.3, 0.5):
            for _ in range(40):
                out = [[q for q in range(n) if rng.random() < density] for _ in range(n)]
                if n and rng.random() < 0.25:  # isolate one point
                    lone = rng.randrange(n)
                    out = [[] if p == lone else [q for q in nbrs if q != lone] for p, nbrs in enumerate(out)]
                graphs.append(out)
    verdicts = set()
    for out in graphs:
        expected = closure_strongly_connected(out)
        assert _strongly_connected(out) == expected, out
        verdicts.add(expected)
    assert verdicts == {True, False}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_no_cross_edges_implies_bst(n):
    # Both predicates depend only on the tree and the index order, so one
    # instance per size covers all coordinate choices.  The converse holds
    # too (a BST-shaped tree has no cross edges), so each predicate checks
    # the other.
    count = 0
    for inst, a in _all_in_trees(n):
        count += 1
        assert (not cross_edges(inst, a)) == has_bst_property(inst, a)
    assert count == n ** (n - 1)  # every in-tree on n points


def test_interference_bounds_small():
    for inst, a in _all_in_trees(4):
        assert 1 <= interference(inst, a) <= 3


@st.composite
def instance_and_tree(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    coords = draw(
        st.lists(st.integers(min_value=0, max_value=60), min_size=n, max_size=n, unique=True)
    )
    inst = Instance1D.from_values(coords)
    order = draw(st.permutations(list(range(n))))
    receiver = {}
    for i, p in enumerate(order[1:], start=1):
        receiver[p] = order[draw(st.integers(min_value=0, max_value=i - 1))]
    return inst, ReceiverAssignment(SINKTREE1D, receiver, order[0])


@settings(max_examples=120, deadline=None)
@given(instance_and_tree())
def test_random_tree_properties(pair):
    inst, a = pair
    assert is_valid(inst, a)
    counts = [interference_at(inst, a, p) for p in range(inst.n)]
    assert interference(inst, a) == max(counts)
    assert 1 <= interference(inst, a) <= inst.n - 1


@settings(max_examples=60, deadline=None)
@given(instance_and_tree(), st.fractions(min_value=Fraction(1, 7), max_value=7))
def test_scaling_invariance(pair, factor):
    inst, a = pair
    scaled = scale_instance(inst, factor)
    assert is_valid(scaled, a) == is_valid(inst, a)
    assert interference(scaled, a) == interference(inst, a)
    assert count_bends(scaled, a) == count_bends(inst, a)
    assert has_bst_property(scaled, a) == has_bst_property(inst, a)
    assert cross_edges(scaled, a) == cross_edges(inst, a)


@settings(max_examples=60, deadline=None)
@given(instance_and_tree())
def test_mirror_invariance(pair):
    inst, a = pair
    n = inst.n
    mirrored = Instance1D.from_values([-x for x in inst.points])
    flip = {p: n - 1 - p for p in range(n)}
    m = ReceiverAssignment(
        SINKTREE1D, {flip[p]: flip[q] for p, q in a.receiver.items()}, flip[a.sink]
    )
    assert is_valid(mirrored, m)
    assert interference(mirrored, m) == interference(inst, a)
    assert count_bends(mirrored, m) == count_bends(inst, a)
    assert has_bst_property(mirrored, m) == has_bst_property(inst, a)


def test_scaling_invariance_2d():
    scaled = scale_instance(TRIANGLE, Fraction(7, 3))
    assert interference(scaled, TRIANGLE_N) == interference(TRIANGLE, TRIANGLE_N)
    assert is_valid(scaled, TRIANGLE_N)


# --- the integer view against a Fraction-only reference -------------------


@st.composite
def rationals(draw, bound, max_denominator):
    """Fractions in [-bound, bound] with denominator at most max_denominator,
    drawn as k / d: the values of st.fractions at a fraction of its cost."""
    d = draw(st.integers(1, max_denominator))
    return Fraction(draw(st.integers(-bound * d, bound * d)), d)


RATIONALS = rationals(20, 12)


def naive_d2(inst, p, q):
    """Squared distance computed on the Fraction coordinates."""
    a, b = inst.points[p], inst.points[q]
    if isinstance(inst, Instance1D):
        return (a - b) ** 2
    return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2


def naive_counts(inst, a):
    return [
        sum(1 for c, b in a.receiver.items() if naive_d2(inst, c, p) <= naive_d2(inst, c, b))
        for p in range(inst.n)
    ]


def naive_graph(inst, a):
    return [
        [q for q in range(inst.n) if q != p and naive_d2(inst, p, q) <= naive_d2(inst, p, a.receiver[p])]
        for p in range(inst.n)
    ]


def naive_valid(inst, a):
    n = inst.n
    if isinstance(inst, Instance1D):
        reaches = []
        for p in range(n):
            v = p
            for _ in range(n):
                if v == a.sink:
                    break
                v = a.receiver[v]
            reaches.append(v == a.sink)
        return all(reaches)
    graph = naive_graph(inst, a)
    reach = [{p} for p in range(n)]
    for _ in range(n):
        reach = [r.union(*(graph[q] for q in r)) for r in reach]
    return all(len(r) == n for r in reach)


@st.composite
def instance_and_map(draw):
    """A 1D or 2D instance with mixed denominators and negative coordinates,
    plus a receiver map that need not be valid."""
    n = draw(st.integers(min_value=2, max_value=7))
    if draw(st.booleans()):
        inst = Instance1D.from_values(draw(st.lists(RATIONALS, min_size=n, max_size=n, unique=True)))
        sink = draw(st.integers(min_value=0, max_value=n - 1))
        tag, heads = SINKTREE1D, [p for p in range(n) if p != sink]
    else:
        pts = draw(st.lists(st.tuples(RATIONALS, RATIONALS), min_size=n, max_size=n, unique=True))
        inst = Instance2D.from_values(pts)
        sink, tag, heads = None, ASYM2D, list(range(n))
    receiver = {}
    for p in heads:
        q = draw(st.integers(min_value=0, max_value=n - 2))
        receiver[p] = q if q < p else q + 1
    return inst, ReceiverAssignment(tag, receiver, sink)


def ints_results(inst, a):
    """Everything the model derives from `inst.ints` for this map."""
    at = [interference_at(inst, a, p) for p in range(inst.n)]
    if isinstance(inst, Instance2D):
        geometry = communication_graph_2d(inst, a)
    else:
        geometry = cover_table(inst)
    return coverage_counts(inst, a), at, is_valid(inst, a), geometry


@settings(max_examples=200, deadline=None)
@given(instance_and_map(), st.fractions(min_value=Fraction(1, 50), max_value=50))
def test_integer_view_matches_fraction_reference(pair, factor):
    inst, a = pair
    counts = naive_counts(inst, a)
    assert coverage_counts(inst, a) == counts
    assert [interference_at(inst, a, p) for p in range(inst.n)] == counts
    assert is_valid(inst, a) == naive_valid(inst, a)
    if isinstance(inst, Instance2D):
        assert communication_graph_2d(inst, a) == naive_graph(inst, a)
    assert ints_results(scale_instance(inst, factor), a) == ints_results(inst, a)


OFFSETS = st.builds(Fraction, st.integers(-36, 36), st.sampled_from([1, 2, 3, 5, 12]))


@st.composite
def clustered_instance_and_map(draw):
    """Up to 30 planar points in up to four clusters 100 units apart, with
    mixed denominators and negative coordinates, plus a receiver map that
    mixes balls inside a cluster with balls reaching other clusters; so the
    rows, as high as the median ball, hold part of a cluster, a whole one or
    several."""
    k = draw(st.integers(min_value=1, max_value=4))
    centers = draw(
        st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=k, max_size=k, unique=True)
    )
    n = draw(st.integers(min_value=2, max_value=30))
    members = draw(
        st.lists(
            st.tuples(st.integers(0, k - 1), OFFSETS, OFFSETS), min_size=n, max_size=n, unique=True
        )
    )
    inst = Instance2D.from_values(
        (100 * centers[c][0] + dx, 100 * centers[c][1] + dy) for c, dx, dy in members
    )
    # Receiver choice j picks the j-th other point of the same cluster when
    # `local` is set and there is one, else the j-th other point overall.
    # With every ball local the cells are about a cluster wide.
    local = draw(st.one_of(st.just([True] * n), st.lists(st.booleans(), min_size=n, max_size=n)))
    picks = draw(st.lists(st.integers(min_value=0, max_value=n - 2), min_size=n, max_size=n))
    receiver = {}
    for p in range(n):
        others = [q for q in range(n) if q != p]
        mates = [q for q in others if members[q][0] == members[p][0]]
        pool = mates if local[p] and mates else others
        receiver[p] = pool[picks[p] % len(pool)]
    return inst, ReceiverAssignment(ASYM2D, receiver)


@settings(max_examples=100, deadline=None)
@given(clustered_instance_and_map())
def test_cell_index_matches_fraction_reference_on_clusters(pair):
    inst, a = pair
    assert communication_graph_2d(inst, a) == naive_graph(inst, a)
    assert coverage_counts(inst, a) == naive_counts(inst, a)
    # One huge ball: point 0 sends to the point farthest from it.
    far = max(range(1, inst.n), key=lambda q: naive_d2(inst, 0, q))
    huge = ReceiverAssignment(ASYM2D, {**a.receiver, 0: far})
    assert communication_graph_2d(inst, huge) == naive_graph(inst, huge)
    assert coverage_counts(inst, huge) == naive_counts(inst, huge)


def test_ball_boundary_on_a_cell_edge():
    # The median radius 1 gives rows of height 1.  The ball of radius 3 from
    # x = 1 has the point at x = 4 on its boundary, at the end of its
    # x-window; the point at (4, 1), in the next row, lies just outside it.
    inst = Instance2D.from_values([(1, 0), (4, 0), (4, 1)])
    a = ReceiverAssignment(ASYM2D, {0: 1, 1: 2, 2: 1})
    assert communication_graph_2d(inst, a) == [[1], [2], [1]]
    assert coverage_counts(inst, a) == [1, 3, 2]


def while_loop_cover_table(instance):
    """The cover table as the oracle and the DP built it before the integer view."""
    pts = instance.points
    n = instance.n
    table = []
    for p in range(n):
        row = []
        for q in range(n):
            rad = abs(pts[p] - pts[q])
            lo = p
            while lo > 0 and pts[p] - pts[lo - 1] <= rad:
                lo -= 1
            hi = p
            while hi < n - 1 and pts[hi + 1] - pts[p] <= rad:
                hi += 1
            row.append((lo, hi))
        table.append(row)
    return table


@settings(max_examples=200, deadline=None)
@given(st.lists(RATIONALS, min_size=1, max_size=9, unique=True))
def test_cover_table_matches_while_loop_table(coords):
    inst = Instance1D.from_values(coords)
    assert cover_table(inst) == while_loop_cover_table(inst)


@st.composite
def lines_with_receivers(draw):
    """A 1D instance on a coarse grid, so that many points sit exactly at a
    ball's mirror image 2 x_c - x_b, with a receiver map (cycles allowed)
    whose edges run in both directions."""
    den = draw(st.sampled_from([1, 2, 3, 7]))
    nums = draw(st.lists(st.integers(-12, 12), min_size=1, max_size=10, unique=True))
    inst = Instance1D.from_values(Fraction(v, den) for v in nums)
    sink = draw(st.integers(0, inst.n - 1))
    receiver = {p: draw(st.sampled_from([q for q in range(inst.n) if q != p])) for p in range(inst.n) if p != sink}
    return inst, ReceiverAssignment(SINKTREE1D, receiver, sink)


def naive_coverage_1d(inst, a):
    """q is covered by c's ball iff |x_q - x_c| <= |x_b - x_c|, on Fractions."""
    xs = inst.points
    return [sum(abs(xs[q] - xs[c]) <= abs(xs[b] - xs[c]) for c, b in a.receiver.items()) for q in range(inst.n)]


@settings(max_examples=300, deadline=None)
@given(lines_with_receivers())
@example((Instance1D.from_values([-2, -1, 0, 1, 2]), ReceiverAssignment(SINKTREE1D, {2: 3, 3: 1, 1: 0, 4: 2}, 0)))
@example((Instance1D.from_values(["-3/7", "1/7", "5/7", "9/7"]), ReceiverAssignment(SINKTREE1D, {1: 0, 2: 3, 3: 1}, 0)))
def test_coverage_counts_match_naive_count(case):
    inst, a = case
    assert coverage_counts(inst, a) == naive_coverage_1d(inst, a)
    assert interference(inst, a) == max(naive_coverage_1d(inst, a), default=0)


def naive_is_valid_1d(inst, a):
    """Every point reaches the sink within n steps along its receivers."""
    for p in range(inst.n):
        for _ in range(inst.n):
            if p == a.sink:
                break
            p = a.receiver[p]
        if p != a.sink:
            return False
    return True


def _chain_to_sink(tree, q):
    """The points from q along the receivers of a valid tree, up to the sink."""
    path = [q]
    while path[-1] in tree:
        path.append(tree[path[-1]])
    return path


def random_receiver_maps(rng, n):
    """Receiver maps on n points: a uniform one, mostly invalid; a valid tree;
    that tree with one point turned to one of its own descendants, a cycle
    away from the sink; and a cycle with the other points chained into it or
    into the sink."""
    sink = rng.randrange(n)
    others = [p for p in range(n) if p != sink]
    yield sink, {p: rng.choice([q for q in range(n) if q != p]) for p in others}
    order = [sink] + rng.sample(others, n - 1)
    tree = {p: rng.choice(order[:i]) for i, p in enumerate(order) if i}
    yield sink, tree
    for p in order[1:]:  # p turns to one of its own descendants: a cycle, with p's subtree on it
        below = [q for q in others if q != p and p in _chain_to_sink(tree, q)]
        if below:
            yield sink, {**tree, p: rng.choice(below)}
            break
    size = rng.randrange(2, n - 1)  # a cycle of `size` points, then the others chained into it or the sink
    ring = rng.sample(others, size)
    cyc = {p: ring[(i + 1) % size] for i, p in enumerate(ring)}
    rest = [p for p in others if p not in cyc]
    rng.shuffle(rest)
    for i, p in enumerate(rest):
        cyc[p] = rng.choice(ring + rest[:i] + [sink] * (i > 0))
    yield sink, cyc


def test_is_valid_1d_matches_following_receivers():
    rng = random.Random(27)
    verdicts = set()
    for n in range(7, 13):
        inst = Instance1D.from_values(range(n))
        for _ in range(300):
            for sink, receiver in random_receiver_maps(rng, n):
                a = ReceiverAssignment(SINKTREE1D, receiver, sink)
                expected = naive_is_valid_1d(inst, a)
                assert is_valid(inst, a) == expected
                verdicts.add(expected)
    assert verdicts == {True, False}


def test_integer_view_scales_by_the_lcm():
    inst = Instance1D.from_values(["-1/2", "1/3", 2])
    assert inst.ints == (-3, 2, 12)
    assert inst.points == (Fraction(-1, 2), Fraction(1, 3), 2)
    plane = Instance2D.from_values([("1/4", 0), (1, "-1/6")])
    assert plane.ints == ((3, 0), (12, -2))
    assert plane == Instance2D.from_values([("1/4", 0), (1, "-1/6")])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(RATIONALS, min_size=2, max_size=40, unique=True),
    st.fractions(min_value=Fraction(1, 50), max_value=50),
)
def test_nna_is_scale_invariant(coords, factor):
    inst = Instance1D.from_values(coords)
    assert nna(scale_instance(inst, factor)) == nna(inst)


# --- stored lattice: equal point sets are equal instances -----------------

REDUCTION_GRIDS = ([(0, 0), (1, 0)], [(0, 0), (1, 0), (2, 0)], [(0, 0), (0, 1), (1, 0)])
REDUCTION_EPSILONS = (Fraction(1, 64), Fraction(1, 100), Fraction(3, 1000))


@lru_cache(maxsize=None)
def reduced_instance(grid: int, eps: Fraction) -> Instance2D:
    return reduce_grid(GridGraph.from_vertices(REDUCTION_GRIDS[grid]), eps).instance


SMALL_RATIONALS = rationals(3, 4)


@st.composite
def point_sets(draw):
    """The Fraction points of a small 1D or 2D set, or of a gadget reduction."""
    kind = draw(st.sampled_from(("1d", "2d", "reduce")))
    if kind == "1d":
        return tuple(sorted(draw(st.lists(SMALL_RATIONALS, min_size=1, max_size=3, unique=True))))
    if kind == "2d":
        pairs = st.tuples(SMALL_RATIONALS, SMALL_RATIONALS)
        return tuple(draw(st.lists(pairs, min_size=1, max_size=3, unique=True)))
    grid = draw(st.integers(0, len(REDUCTION_GRIDS) - 1))
    return reduced_instance(grid, draw(st.sampled_from(REDUCTION_EPSILONS))).points


@st.composite
def built_instances(draw, points):
    """An instance of `points` built along one of the routes into the model."""
    cls = Instance2D if isinstance(points[0], tuple) else Instance1D
    route = draw(st.sampled_from(("values", "scaled", "text")))
    if route == "values" and cls is Instance1D:
        return cls.from_values(draw(st.permutations([str(p) for p in points])))
    if route == "values":
        return cls.from_values(points)
    if route == "scaled":
        factor = draw(st.fractions(min_value=Fraction(1, 9), max_value=9))
        if cls is Instance1D:
            return scale_instance(cls.from_values(p / factor for p in points), factor)
        return scale_instance(cls.from_values((x / factor, y / factor) for x, y in points), factor)
    return parse_points(format_points(cls.from_values(points)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_instances_are_equal_exactly_when_their_points_are(data):
    first = data.draw(point_sets())
    second = first if data.draw(st.booleans()) else data.draw(point_sets())
    a = data.draw(built_instances(first))
    b = data.draw(built_instances(second))
    assert a.points == first and b.points == second
    assert (a == b) == (a.points == b.points)
    if a == b:
        assert hash(a) == hash(b)
    for grid in range(len(REDUCTION_GRIDS)):
        for eps in REDUCTION_EPSILONS:
            red = reduced_instance(grid, eps)
            assert (red == a) == (red.points == a.points)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-30, 30), min_size=1, max_size=4, unique=True),
    st.integers(-6, 12),
    st.booleans(),
)
def test_direct_construction_needs_the_least_common_denominator(ints, scale, planar):
    lowest = scale > 0 and lcm(*(Fraction(x, scale).denominator for x in ints)) == scale
    ints = tuple(sorted(ints))
    cls, coords = (Instance2D, tuple((x, -x) for x in ints)) if planar else (Instance1D, ints)
    if lowest:
        inst = cls(coords, scale)
        assert inst.scale == scale and cls.from_values(inst.points) == inst
    else:
        with pytest.raises(InputError):
            cls(coords, scale)


def test_direct_construction_takes_only_integers():
    with pytest.raises(TypeError):
        Instance1D((Fraction(1, 2), 1), 1)
    with pytest.raises(TypeError):
        Instance1D((1, 2), Fraction(1))
    with pytest.raises(TypeError):
        Instance2D(((0, 0), (1, 0)), 1.0)


def evaluation(inst, a):
    """Everything the model answers about one 2D pair."""
    at = [interference_at(inst, a, p) for p in range(inst.n)]
    return communication_graph_2d(inst, a), coverage_counts(inst, a), at, interference(inst, a), is_valid(inst, a)


def test_one_assignment_on_two_instances_gets_each_its_own_graph():
    near = Instance2D.from_values([(0, 0), (1, 0), (3, 0)])
    far = Instance2D.from_values([(0, 0), (2, 0), (3, 0)])
    a = ReceiverAssignment(ASYM2D, {0: 1, 1: 0, 2: 1})
    shown = repr(a)
    first, second = evaluation(near, a), evaluation(far, a)
    assert first[0] == naive_graph(near, a) == [[1], [0], [1]]
    assert second[0] == naive_graph(far, a) == [[1], [0, 2], [1]]
    assert evaluation(near, a) == first and evaluation(far, a) == second
    # The kept evaluation is no field: equality and repr are those of the map.
    assert a == ReceiverAssignment(ASYM2D, {0: 1, 1: 0, 2: 1}) and repr(a) == shown


def test_a_changed_receiver_map_gets_its_own_results():
    inst = Instance2D.from_values([(0, 0), (1, 0), (3, 0), (3, 2)])
    a = ReceiverAssignment(ASYM2D, {0: 1, 1: 0, 2: 3, 3: 2})
    assert not is_valid(inst, a)
    a.receiver[1] = 2
    assert evaluation(inst, a) == evaluation(inst, ReceiverAssignment(ASYM2D, dict(a.receiver)))
    assert is_valid(inst, a) and communication_graph_2d(inst, a) == naive_graph(inst, a)
    a.receiver[1] = 7
    with pytest.raises(InputError):
        is_valid(inst, a)


def test_changing_a_returned_list_does_not_change_the_next_call():
    a = ReceiverAssignment(ASYM2D, dict(TRIANGLE_N.receiver))
    evaluation(TRIANGLE, a)
    communication_graph_2d(TRIANGLE, a)[0].append(0)
    communication_graph_2d(TRIANGLE, a).clear()
    coverage_counts(TRIANGLE, a)[0] = 99
    assert evaluation(TRIANGLE, a) == evaluation(TRIANGLE, ReceiverAssignment(ASYM2D, dict(a.receiver)))


def test_every_check_of_a_ladder_reduction_builds_one_cell_index(monkeypatch):
    # The 2 x 200 ladder reduces to 5200 points; the boustrophedon walk is a
    # Hamiltonian path of it.
    grid = GridGraph.from_vertices([(x, y) for x in range(200) for y in (0, 1)])
    path = [(x, y ^ (x % 2)) for x in range(200) for y in (0, 1)]
    red = reduce_grid(grid, run_checks=False)
    a = assignment_from_ham_path(red, path)
    builds = []
    in_balls = model.in_balls
    monkeypatch.setattr(model, "in_balls", lambda pts, radii2: builds.append(radii2) or in_balls(pts, radii2))
    assert is_valid(red.instance, a) and interference(red.instance, a) == 5
    assert extract_connection_structure(red, a) == sorted(tuple(sorted(e)) for e in zip(path, path[1:]))
    assert len(builds) == 1
    at = [interference_at(red.instance, a, p) for p in range(red.instance.n)]
    assert len(builds) == 1
    assert at == coverage_counts(red.instance, a) and max(at) == 5


RATIONAL_TOKENS = [
    "0", "-0", "7", "-7", "+7", "--7", "-", "", "3/4", "-3/4", "+3/4", "3/-4", "3/+4", "-3/-4",
    "6/4", "0/5", "-0/5", "3/0", "-3/0", "0/0", "/4", "3/", "1/2/3", "3 / 4", " 3/4", "3/4 ",
    " 12 ", "1_000", "1_000/3", "3/1_0", "_1", "1__0", "1.5", "-.5", "1.", "1e3", "1E3",
    "3/4e1", "-2e-2", "inf", "nan", "٣", "-٣/٤", "١٢/٣", "²", "3/²", "1" * 4301, "1" * 5000,
    "-" + "9" * 5000, "1/" + "7" * 5000, "7" * 4300 + "/3",
]


RATIONAL_TOKEN = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def rational_reference(token: str):
    """The token by the file grammar, written as a regular expression: `a` or
    `a/b`, each an integer of ASCII digits after an optional '-', b > 0 and no
    run of digits longer than int() reads; as a Fraction, or else the
    InputError message the lattice parse gives."""
    match = RATIONAL_TOKEN.fullmatch(token)
    runs = [part.lstrip("-") for part in match.groups("1")] if match else []
    if match and all(len(run) <= sys.get_int_max_str_digits() for run in runs) and int(runs[1]) > 0:
        return Fraction(int(match[1]), int(runs[1]))
    shown = repr(token) if len(token) <= 40 else f"{token[:40]!r}... ({len(token)} characters)"
    return f"not a rational number: {shown}"


def rational_answer(token: str):
    """The token through `lattice`, as a Fraction, or its InputError message."""
    try:
        (x,), scale = lattice([token])
    except InputError as exc:
        return str(exc)
    return Fraction(x, scale)


@pytest.mark.parametrize("token", RATIONAL_TOKENS, ids=range(len(RATIONAL_TOKENS)))
def test_as_rational_matches_fraction_on_tokens(token):
    assert rational_answer(token) == rational_reference(token)


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="0123456789-+/_. eE٣", max_size=8))
def test_as_rational_matches_fraction_on_drawn_tokens(token):
    assert rational_answer(token) == rational_reference(token)
