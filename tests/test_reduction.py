import random
from dataclasses import replace
from fractions import Fraction
from itertools import islice
from math import gcd, lcm

import pytest

from interfmin import model, reduction
from interfmin.errors import CapExceededError, InputError
from interfmin.model import (
    ASYM2D,
    Instance2D,
    ReceiverAssignment,
    dist2,
    interference,
    interference_at,
    is_valid,
)
from interfmin.reduction import (
    DIRECTIONS,
    SATELLITE_SPACING,
    GridGraph,
    ROLE_ORDER,
    assignment_from_ham_path,
    build_gadget,
    extract_connection_structure,
    find_ham_path,
    gadget_units,
    geometry_violations,
    reduce_grid,
)
from interfmin.textio import format_points, parse_points

EPS = Fraction(1, 64)
SPACING = Fraction(5, 16)  # main point to satellite

L_SHAPE = [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (2, 0)]
TEE = [(0, 0), (1, 0), (2, 0), (1, 1), (1, 2)]
SQUARE = [(0, 0), (0, 1), (1, 0), (1, 1)]


def path_grid(k):
    return GridGraph.from_vertices([(i, 0) for i in range(k)])


def test_gadget_coordinates():
    # Positions in units of 1/64, the lattice of epsilon 1/64.
    g = build_gadget((0, 0), [(1, 0), (-1, 0), (0, 1)], EPS)
    assert gadget_units(EPS) == (64, 20, 1)  # (scale, spacing, epsilon)
    assert g["C"] == (0, -21)  # -(s + eps)
    assert g["Ic"] == (0, -43)  # -(2s + 3 eps)
    assert g["I1"] == (0, -42)  # -(2s + 2 eps)
    assert len(g) == 13
    # Epsilon 1/100 puts the lattice at 1/lcm(16, 100) = 1/400.
    assert gadget_units("1/100") == gadget_units(Fraction(1, 100)) == (400, 125, 4)
    g = build_gadget((1, 0), [(1, 0)], "1/100")
    assert g["C"] == (400, -129) and g["Ic"] == (400, -262)


def test_satellite_prime_is_clockwise():
    # Stations go to +x, -x and +y in that order, so S3 faces up.
    g = build_gadget((0, 0), [(0, 1)], EPS)
    assert g["S3"] == (0, SPACING * 64)
    assert g["S3p"] == (EPS * 64, SPACING * 64)


def test_gadget_degree_errors():
    with pytest.raises(InputError):
        build_gadget((0, 0), [], EPS)
    with pytest.raises(InputError):
        build_gadget((0, 0), [(1, 0), (-1, 0), (0, 1), (0, -1)], EPS)


def test_rationals_reach_the_lattice_without_a_fraction_per_token_or_gadget(monkeypatch):
    made = []

    class CountedFraction(Fraction):
        def __new__(cls, *args):
            made.append(args)
            return Fraction(*args)

    monkeypatch.setattr(model, "Fraction", CountedFraction)
    monkeypatch.setattr(reduction, "Fraction", CountedFraction)
    for k in (2, 20):
        for epsilon in ("1/64", Fraction(1, 100), "3/320"):
            made.clear()
            red = reduce_grid(path_grid(k), epsilon)  # geometry checks included
            assert len(made) == 1 and red.epsilon == Fraction(epsilon)  # red.epsilon itself
            text = format_points(red.instance)  # 'a' and 'a/b' tokens
            made.clear()
            assert parse_points(text) == red.instance and made == []


def test_reduce_point_counts():
    red2 = reduce_grid(path_grid(2))
    assert red2.instance.n == 26
    assert len(red2.partner) == 2  # one involution pair
    red3 = reduce_grid(path_grid(3))
    assert red3.instance.n == 39
    assert len(red3.partner) == 4


def test_partner_distance():
    red = reduce_grid(path_grid(2))
    for a, b in red.partner.items():
        assert red.partner[b] == a
        # Partners sit 1 - 2s = 3/8 apart across the unit grid edge.
        assert dist2(red.instance.points[a], red.instance.points[b]) == Fraction(9, 64)


def test_reduce_input_validation():
    with pytest.raises(InputError):
        reduce_grid(GridGraph.from_vertices([(0, 0), (5, 5)]))  # disconnected
    degree4 = GridGraph.from_vertices([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)])
    with pytest.raises(InputError):
        reduce_grid(degree4)


def test_from_vertices_reads_the_integer_grammar():
    # A str coordinate is read by the integer grammar and any other must equal
    # an int: int() alone read '٣' as 3, '+2' and ' 0 ' as 2 and 0, and
    # truncated 1.9 to 1.
    for vertex in (("٣", "0"), ("+2", " 0 "), (1.9, 0), ("1_0", 0), (None, 0), (float("inf"), 0)):
        with pytest.raises(InputError, match="not an integer coordinate"):
            GridGraph.from_vertices([(0, 0), vertex])
    grid = GridGraph.from_vertices([("-1", "007"), (0.0, Fraction(14, 2)), (1, 7)])
    assert grid.vertices == ((-1, 7), (0, 7), (1, 7))
    assert all(type(c) is int for v in grid.vertices for c in v)


def union_find_connected(vertices):
    """Reference connectivity: union-find over the unit grid edges."""
    root = {v: v for v in vertices}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for x, y in vertices:
        for w in ((x + 1, y), (x, y + 1)):
            if w in root:
                root[find(w)] = find((x, y))
    return len({find(v) for v in vertices}) == 1


def test_is_connected_matches_union_find():
    rng = random.Random(4416)
    cells = [(x, y) for x in range(4) for y in range(4)]
    verdicts = set()
    for _ in range(500):
        vertices = rng.sample(cells, rng.randint(1, len(cells)))
        expected = union_find_connected(vertices)
        assert GridGraph.from_vertices(vertices).is_connected() == expected, sorted(vertices)
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_geometry_suite_clean():
    for grid in (path_grid(2), path_grid(4), GridGraph.from_vertices(L_SHAPE)):
        assert geometry_violations(reduce_grid(grid)) == []


def test_geometry_suite_rejects_bad_epsilon():
    red = reduce_grid(path_grid(2), epsilon=Fraction(1, 8), run_checks=False)
    assert geometry_violations(red)


def test_find_ham_path():
    assert find_ham_path(path_grid(3)) == [(0, 0), (1, 0), (2, 0)]
    path = find_ham_path(GridGraph.from_vertices(SQUARE))
    assert path is not None and len(path) == 4
    assert find_ham_path(path_grid(2)) is not None
    assert find_ham_path(GridGraph.from_vertices(TEE)) is None
    with pytest.raises(CapExceededError):
        find_ham_path(path_grid(17))


@pytest.mark.parametrize(
    "vertices",
    [
        [(i, 0) for i in range(3)],
        L_SHAPE,
        [(x, y) for x in range(3) for y in range(2)],  # has degree-3 vertices
    ],
)
def test_forward_reduction_round_trip(vertices):
    grid = GridGraph.from_vertices(vertices)
    red = reduce_grid(grid)
    path = find_ham_path(grid)
    assert path is not None
    assignment = assignment_from_ham_path(red, path)
    assert is_valid(red.instance, assignment)
    assert interference(red.instance, assignment) == 5
    expected = sorted((min(u, w), max(u, w)) for u, w in zip(path, path[1:]))
    assert extract_connection_structure(red, assignment) == expected


def test_per_role_interference_values():
    # Exact per-role counts of the encoded assignment, own ball included.
    red = reduce_grid(path_grid(3))
    assignment = assignment_from_ham_path(red, find_ham_path(path_grid(3)))
    by_role: dict[str, set[int]] = {r: set() for r in ROLE_ORDER}
    for idx in range(red.instance.n):
        by_role[red.role_of[idx]].add(interference_at(red.instance, assignment, idx))
    assert by_role["M"] == {5}
    assert by_role["Ic"] == {5}
    assert by_role["I1"] == {3}
    # The three outer inhibitor points sit inside their own ball and the
    # hub's ball (radius s + 2 eps, to C); nothing else reaches them.
    for j in (2, 3, 4):
        assert by_role[f"I{j}"] == {2}
    # C: its own ball, M's and the hub's, both of which end exactly at C.
    # A path satellite's ball (radius 1 - 2s = 3/8) stops short of C at
    # sqrt(s^2 + (s + eps)^2) and of the perpendicular stations' S' at
    # sqrt(s^2 + (s - eps)^2) or more.
    assert by_role["C"] == {3}
    # S: its own ball, its S' ball and M's, plus the partner's on a path edge.
    # S1 faces +x, S2 faces -x and S3 faces +y at every vertex of the path
    # (0,0)-(1,0)-(2,0), so S1 and S2 mix path and off-path edges.
    assert by_role["S1"] == {3, 4}
    assert by_role["S2"] == {3, 4}
    assert by_role["S3"] == {3}
    # S': its own ball, its satellite's and M's.
    for i in (1, 2, 3):
        assert by_role[f"S{i}p"] == {3}


def test_cycle_accepted_as_path():
    red = reduce_grid(GridGraph.from_vertices(SQUARE))
    cycle = [(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)]
    assignment = assignment_from_ham_path(red, cycle)
    assert is_valid(red.instance, assignment)
    assert interference(red.instance, assignment) == 5


def test_rejects_non_hamiltonian():
    grid = path_grid(3)
    red = reduce_grid(grid)
    with pytest.raises(InputError):
        assignment_from_ham_path(red, [(0, 0), (1, 0)])
    with pytest.raises(InputError):
        assignment_from_ham_path(red, [(0, 0), (2, 0), (1, 0)])


def test_all_satellites_inward_is_invalid():
    grid = path_grid(2)
    red = reduce_grid(grid)
    path = find_ham_path(grid)
    assignment = assignment_from_ham_path(red, path)
    inward = dict(assignment.receiver)
    for idx, role in enumerate(red.role_of):
        if role in ("S1", "S2", "S3") and red.partner.get(idx) is not None:
            inward[idx] = red.index_of(red.gadget_of[idx], "M")
    broken = ReceiverAssignment(ASYM2D, inward)
    assert extract_connection_structure(red, broken) == []
    assert not is_valid(red.instance, broken)


def test_scaling_preserves_interference():
    grid = path_grid(2)
    red = reduce_grid(grid)
    assignment = assignment_from_ham_path(red, find_ham_path(grid))
    factor = Fraction(7, 5)
    scaled = Instance2D.from_values((x * factor, y * factor) for x, y in red.instance.points)
    assert interference(scaled, assignment) == interference(red.instance, assignment)
    assert is_valid(scaled, assignment)


# --- the cell-indexed geometry suite against the quadratic Fraction scan ---


def quadratic_geometry_violations(red):
    """The geometry suite as it was before the cell index: every neighbour
    scan runs over all points, on the Fraction coordinates."""
    problems = []
    pts = red.instance.points
    eps = red.epsilon
    sp = SATELLITE_SPACING
    path_radius = 1 - 2 * sp

    if not sp * sp + (sp - eps) ** 2 > path_radius**2:
        problems.append(f"epsilon {eps} too large: a path satellite reaches a perpendicular station")
    floor = 1 - 2 * sp - 4 * eps
    floor2 = 2 * floor * floor
    if not (floor > 0 and floor2 > (sp + 2 * eps) ** 2):
        problems.append(f"epsilon {eps} too large: an inhibitor hub reaches another gadget's inhibitor")

    for v in sorted(red.vertices):
        r = {role: pts[red.index_of(v, role)] for role in ("M", "C", "Ic")}
        d_mc = abs(r["C"][0] - r["M"][0]) + abs(r["C"][1] - r["M"][1])
        d_ci = abs(r["Ic"][0] - r["C"][0]) + abs(r["Ic"][1] - r["C"][1])
        if d_mc + eps != d_ci:
            problems.append(f"{v}: connector-to-inhibitor spacing is off")
        if d_mc != sp + eps:
            problems.append(f"{v}: connector distance is off")

        def nearest_ok(role, expected, expected_d2):
            idx = red.index_of(v, role)
            exp_idx = red.index_of(v, expected)
            if dist2(pts[idx], pts[exp_idx]) != expected_d2:
                problems.append(f"{v}: {role} is not at the expected distance from {expected}")
                return
            for j in range(len(pts)):
                if j not in (idx, exp_idx) and dist2(pts[idx], pts[j]) <= expected_d2:
                    problems.append(f"{v}: {role} has a neighbor nearer than {expected}")
                    return

        for i in (1, 2, 3):
            nearest_ok(f"S{i}p", f"S{i}", eps * eps)
        for j in (1, 2, 3, 4):
            nearest_ok(f"I{j}", "Ic", eps * eps)

        c_idx = red.index_of(v, "C")
        tie = (sp + eps) ** 2
        if dist2(pts[c_idx], pts[red.index_of(v, "M")]) != tie:
            problems.append(f"{v}: connector-to-main distance is off")
        if dist2(pts[c_idx], pts[red.index_of(v, "I1")]) != tie:
            problems.append(f"{v}: connector-to-inhibitor distance is off")
        for j in range(len(pts)):
            if j != c_idx and dist2(pts[c_idx], pts[j]) < tie:
                problems.append(f"{v}: connector has a too-close neighbor")
                break

        for i in (1, 2, 3):
            s_idx = red.index_of(v, f"S{i}")
            own = {s_idx, red.index_of(v, f"S{i}p")}
            d_main = dist2(pts[s_idx], pts[red.index_of(v, "M")])
            if d_main != sp * sp:
                problems.append(f"{v}: satellite {i} is not at the main-point distance")
            for j in range(len(pts)):
                if j not in own and j != red.index_of(v, "M") and dist2(pts[s_idx], pts[j]) <= d_main:
                    problems.append(f"{v}: satellite {i} has a non-main nearest neighbor")
                    break

    inhibitor = ("Ic", "I1", "I2", "I3", "I4")
    cluster = {v: [pts[red.index_of(v, role)] for role in inhibitor] for v in red.vertices}
    for v in sorted(cluster):
        for d in ((1, -1), (1, 0), (1, 1), (0, 1)):
            w = (v[0] + d[0], v[1] + d[1])
            if w in cluster and any(dist2(a, b) < floor2 for a in cluster[v] for b in cluster[w]):
                problems.append(f"{v}-{w}: inhibitor clusters too close")
    return problems


EPSILONS = [Fraction(*e) for e in ((1, 64), (1, 32), (1, 8), (1, 4), (7, 100), (1, 1000), (1, 2))]


def random_snake(v, rng):
    """The grid graph induced by a random self-avoiding walk of v vertices,
    redrawn until its maximum degree is at most 3."""
    while True:
        walk = [(0, 0)]
        while len(walk) < v:
            x, y = walk[-1]
            free = [(x + dx, y + dy) for dx, dy in DIRECTIONS if (x + dx, y + dy) not in walk]
            if not free:
                break
            walk.append(rng.choice(free))
        grid = GridGraph.from_vertices(walk)
        if len(walk) == v and grid.max_degree() <= 3:
            return grid


def suite_reductions(eps, seed):
    """Unchecked reductions of L_SHAPE, the tee, the square and four random
    snakes, skipping grids on which epsilon makes two points coincide (at
    epsilon 1/2, most of them)."""
    rng = random.Random(seed)
    fixed = (reduced(GridGraph.from_vertices(vs), eps) for vs in (L_SHAPE, TEE, SQUARE))
    snakes = (reduced(random_snake(rng.randint(2, 8), rng), eps) for _ in range(200))
    return list(filter(None, fixed)) + list(islice(filter(None, snakes), 4))


def reduced(grid, eps):
    """The unchecked reduction, or None where epsilon makes two points coincide."""
    try:
        return reduce_grid(grid, epsilon=eps, run_checks=False)
    except InputError:
        return None


def moved(red, index, offset):
    """`red` with one point shifted by `offset`, a pair of Fractions."""
    k = lcm(offset[0].denominator, offset[1].denominator)
    scale = red.instance.scale * k  # a common denominator of every coordinate
    ints = [(x * k, y * k) for x, y in red.instance.ints]
    x, y = ints[index]
    ints[index] = (x + int(offset[0] * scale), y + int(offset[1] * scale))
    g = gcd(scale, *(c for p in ints for c in p))
    return replace(red, instance=Instance2D(tuple((x // g, y // g) for x, y in ints), scale // g))


@pytest.mark.parametrize("eps", EPSILONS, ids=str)
def test_geometry_suite_matches_quadratic_scan(eps):
    reductions = suite_reductions(eps, seed=str(eps))
    assert len(reductions) >= 4
    for red in reductions:
        assert geometry_violations(red) == quadratic_geometry_violations(red)


@pytest.mark.parametrize("eps", EPSILONS, ids=str)
def test_geometry_suite_matches_quadratic_scan_on_broken_layouts(eps):
    # One point moved, by a small or a large offset, so that non-design
    # distances (a satellite's distance to its main point above all) set
    # the cell side; the odd denominators keep the moved point off the others.
    rng = random.Random(str(eps))
    for red in suite_reductions(eps, seed=7):
        for _ in range(3):
            offset = tuple(Fraction(rng.randint(-40, 40), rng.choice([3, 7, 9])) for _ in range(2))
            broken = moved(red, rng.randrange(red.instance.n), offset)
            assert geometry_violations(broken) == quadratic_geometry_violations(broken)


@pytest.mark.parametrize("eps", [Fraction(1, 64), Fraction(1, 32), Fraction(1, 4)], ids=str)
def test_geometry_suite_sees_a_tie_at_the_scan_radius(eps):
    # M moved 1/16 away from S1 puts S1's main point and its partner both
    # exactly 1 - 2s away, straight along the x axis: the satellite check
    # must report the partner.  That distance is also the largest one
    # scanned, so it sets the cell side; sliding the pair along the axis
    # moves the partner across the cell boundaries.
    for tx in range(-12, 12):
        red = reduced(GridGraph.from_vertices([(tx, 0), (tx + 1, 0)]), eps)
        broken = moved(red, red.index_of((tx, 0), "M"), (-Fraction(1, 16), 0))
        problems = geometry_violations(broken)
        assert f"{(tx, 0)}: satellite 1 has a non-main nearest neighbor" in problems
        assert problems == quadratic_geometry_violations(broken)


def test_reduction_at_a_thousand_vertices():
    # A 2 x 500 ladder: 1000 vertices of degree at most 3, 13000 points.
    # The boustrophedon walk uses every other rung and every other rail edge.
    grid = GridGraph.from_vertices([(x, y) for x in range(500) for y in (0, 1)])
    path = [(x, y) for x in range(500) for y in ((0, 1) if x % 2 == 0 else (1, 0))]
    red = reduce_grid(grid, run_checks=False)
    assert red.instance.n == 13000 and grid.max_degree() == 3
    assert geometry_violations(red) == []
    assignment = assignment_from_ham_path(red, path)
    assert is_valid(red.instance, assignment)
    assert interference(red.instance, assignment) == 5
    expected = sorted((min(u, w), max(u, w)) for u, w in zip(path, path[1:]))
    assert extract_connection_structure(red, assignment) == expected
