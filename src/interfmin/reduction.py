"""Grid-graph to point-set reduction with 13-point vertex gadgets.

Each grid vertex becomes a cluster of 13 points: a main point M at the vertex,
three two-point satellite stations facing (at least) the incident grid edges,
a connector C in the remaining direction, and a five-point inhibitor further
out along the same axis.  With satellite spacing s = 5/16 and the small
displacement `epsilon`, a station is a satellite S at distance s from M plus
its S' displaced by epsilon clockwise; the connector sits at s + epsilon and
the inhibitor hub Ic at 2s + 3*epsilon, with I1 epsilon nearer the connector
and I2..I4 epsilon out in the other three directions.  So the connector's
nearest points, M and I1, both lie exactly s + epsilon away.

Encoding a Hamiltonian path means pointing the satellite stations on path
edges at their partner stations across the edge (a ball of radius 1 - 2s);
everything else points inward: M and C at each other, S' at S, off-path S at
M, I1..I4 at the hub, and the hub at C.  The hub's ball, not I1's, is the one
that reaches C, so the small balls around the hub keep I2..I4 out of any
large ball.  The resulting assignment is valid with interference exactly 5,
the cross-gadget edges recover exactly the path, and the per-role
interference (own ball included) is: M = 5, Ic = 5, I1 = 3, I2..I4 = 2,
C = 3, S = 3 (4 on a path edge) and S' = 3.  Two bounds on s make this hold:
s <= 1/3 keeps M inside every path satellite's ball, and s > 1 - sqrt(2)/2
keeps the perpendicular stations and the connector outside it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import ceil

from .errors import CapExceededError, InputError, InvariantError
from .model import ASYM2D, Instance2D, ReceiverAssignment, as_rational, communication_graph_2d
from .model import _reach, dist2, near_lists

Vertex = tuple[int, int]
Point = tuple[Fraction, Fraction]

# Fixed direction order: +x < -x < +y < -y (used for all placement choices).
DIRECTIONS: tuple[Vertex, ...] = ((1, 0), (-1, 0), (0, 1), (0, -1))

ROLE_ORDER = ("M", "S1", "S1p", "S2", "S2p", "S3", "S3p", "C", "Ic", "I1", "I2", "I3", "I4")
_ROLE_OFFSET = {role: i for i, role in enumerate(ROLE_ORDER)}

DEFAULT_EPSILON = Fraction(1, 64)

# Distance from the main point to each satellite; see the module docstring.
SATELLITE_SPACING = Fraction(5, 16)

FIND_HAM_PATH_CAP = 16


def _clockwise(d: Vertex) -> Vertex:
    return (d[1], -d[0])


@dataclass(frozen=True)
class GridGraph:
    """Finite set of integer grid vertices; edges join L1-distance-1 pairs."""

    vertices: tuple[Vertex, ...]

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise InputError("duplicate grid vertex")
        if not self.vertices:
            raise InputError("grid graph needs at least one vertex")

    @classmethod
    def from_vertices(cls, vertices) -> "GridGraph":
        return cls(tuple(sorted((int(x), int(y)) for x, y in vertices)))

    @cached_property
    def _present(self) -> frozenset[Vertex]:
        return frozenset(self.vertices)

    def neighbors(self, v: Vertex) -> list[Vertex]:
        return [(v[0] + d[0], v[1] + d[1]) for d in DIRECTIONS if (v[0] + d[0], v[1] + d[1]) in self._present]

    def edges(self) -> list[tuple[Vertex, Vertex]]:
        return [(u, w) for u in self.vertices for w in self.neighbors(u) if u < w]

    def max_degree(self) -> int:
        return max(len(self.neighbors(v)) for v in self.vertices)

    def is_connected(self) -> bool:
        index = {v: i for i, v in enumerate(self.vertices)}
        adj = [[index[w] for w in self.neighbors(v)] for v in self.vertices]
        return len(_reach(adj, 0)) == len(adj)  # grid edges are symmetric


@dataclass(frozen=True)
class GadgetLayout:
    epsilon: Fraction
    roles: dict[str, Point]
    satellite_directions: dict[str, Vertex]


@dataclass(frozen=True)
class ReductionOutput:
    instance: Instance2D
    gadget_of: dict[int, Vertex]
    role_of: dict[int, str]
    partner: dict[int, int]
    layouts: dict[Vertex, GadgetLayout] = field(default_factory=dict)

    @cached_property
    def _base_index(self) -> dict[Vertex, int]:
        """Index of each gadget's first point; gadgets follow sorted vertex order."""
        return {v: i * len(ROLE_ORDER) for i, v in enumerate(sorted(self.layouts))}

    def index_of(self, vertex: Vertex, role: str) -> int:
        return self._base_index[vertex] + _ROLE_OFFSET[role]


def build_gadget(vertex: Vertex, incident_dirs, epsilon=DEFAULT_EPSILON) -> GadgetLayout:
    """Place the 13 gadget points for one grid vertex.

    Satellites take the incident directions first; with fewer than three
    incident edges the remaining stations go to the smallest free directions,
    and the connector takes the one direction left over.
    """
    eps = as_rational(epsilon)
    if eps <= 0:
        raise InputError("epsilon must be positive")
    dirs = list(incident_dirs)
    if not 1 <= len(dirs) <= 3:
        raise InputError("a grid vertex must have between 1 and 3 incident edges")
    if len(set(dirs)) != len(dirs) or any(d not in DIRECTIONS for d in dirs):
        raise InputError(f"bad incident directions: {dirs}")

    sat_dirs = sorted(dirs, key=DIRECTIONS.index)
    for d in DIRECTIONS:
        if len(sat_dirs) == 3:
            break
        if d not in sat_dirs:
            sat_dirs.append(d)
    connector_dir = next(d for d in DIRECTIONS if d not in sat_dirs)
    sat_dirs = sorted(sat_dirs, key=DIRECTIONS.index)

    vx, vy = Fraction(vertex[0]), Fraction(vertex[1])
    sp = SATELLITE_SPACING

    def at(direction: Vertex, distance: Fraction) -> Point:
        return (vx + distance * direction[0], vy + distance * direction[1])

    roles: dict[str, Point] = {"M": (vx, vy)}
    satellite_directions: dict[str, Vertex] = {}
    for i, d in enumerate(sat_dirs, start=1):
        s = at(d, sp)
        cw = _clockwise(d)
        roles[f"S{i}"] = s
        roles[f"S{i}p"] = (s[0] + eps * cw[0], s[1] + eps * cw[1])
        satellite_directions[f"S{i}"] = d

    roles["C"] = at(connector_dir, sp + eps)
    center = at(connector_dir, 2 * sp + 3 * eps)
    roles["Ic"] = center
    offsets = [(-connector_dir[0], -connector_dir[1])]  # nearest the connector
    offsets += [d for d in DIRECTIONS if d != offsets[0]]
    for j, d in enumerate(offsets[:4], start=1):
        roles[f"I{j}"] = (center[0] + eps * d[0], center[1] + eps * d[1])
    return GadgetLayout(eps, roles, satellite_directions)


def reduce_grid(grid: GridGraph, epsilon=DEFAULT_EPSILON, run_checks: bool = True) -> ReductionOutput:
    """Replace every grid vertex by its gadget and link partner satellites."""
    if not grid.is_connected():
        raise InputError("grid graph must be connected")
    if grid.max_degree() > 3:
        raise InputError("grid graph must have maximum degree 3")

    vertices = sorted(grid.vertices)
    layouts: dict[Vertex, GadgetLayout] = {}
    points: list[Point] = []
    gadget_of: dict[int, Vertex] = {}
    role_of: dict[int, str] = {}
    for v in vertices:
        dirs = [(w[0] - v[0], w[1] - v[1]) for w in grid.neighbors(v)]
        layout = build_gadget(v, dirs, epsilon)
        layouts[v] = layout
        for role in ROLE_ORDER:
            gadget_of[len(points)] = v
            role_of[len(points)] = role
            points.append(layout.roles[role])

    result = ReductionOutput(Instance2D(tuple(points)), gadget_of, role_of, {}, layouts)
    for u, w in grid.edges():
        d_uw = (w[0] - u[0], w[1] - u[1])
        d_wu = (-d_uw[0], -d_uw[1])
        role_u = next(r for r, d in layouts[u].satellite_directions.items() if d == d_uw)
        role_w = next(r for r, d in layouts[w].satellite_directions.items() if d == d_wu)
        iu = result.index_of(u, role_u)
        iw = result.index_of(w, role_w)
        result.partner[iu] = iw
        result.partner[iw] = iu

    if run_checks:
        problems = geometry_violations(result)
        if problems:
            raise InvariantError("gadget geometry violated: " + "; ".join(problems))
    return result


def geometry_violations(red: ReductionOutput) -> list[str]:
    """Exact checks of the gadget geometry; empty list means all hold.

    Besides exact spacing and nearest-neighbour checks inside each gadget, two
    bounds derived from the satellite spacing s keep the designed balls off
    points they must not cover:

    * The epsilon range, s^2 + (s - eps)^2 > (1 - 2s)^2, protects each path
      satellite S (ball radius 1 - 2s, to its partner) against the S' of the
      station counterclockwise of it, the nearest point of a perpendicular
      station; that S' leans eps towards S.
    * The inhibitor separation floor sqrt(2) * (1 - 2s - 4*eps) is the nearest
      approach of two inhibitor clusters, reached by diagonal gadgets whose
      connectors face the same empty cell.  Requiring it to exceed the hub's
      ball radius s + 2*eps keeps every hub Ic off the inhibitor points of
      other gadgets (with room to spare: the hub sits about eps further out
      than the nearest inhibitor point), and every inhibitor pair of
      grid-adjacent or diagonal gadgets is checked against the floor.
    """
    problems: list[str] = []
    pts = red.instance.ints
    eps = {layout.epsilon for layout in red.layouts.values()}.pop()
    sp = SATELLITE_SPACING
    path_radius = 1 - 2 * sp

    if not sp * sp + (sp - eps) ** 2 > path_radius**2:
        problems.append(f"epsilon {eps} too large: a path satellite reaches a perpendicular station")
    floor = 1 - 2 * sp - 4 * eps  # separation floor divided by sqrt(2)
    floor2 = 2 * floor * floor
    if not (floor > 0 and floor2 > (sp + 2 * eps) ** 2):
        problems.append(f"epsilon {eps} too large: an inhibitor hub reaches another gadget's inhibitor")

    # Squared lengths in squared units of the integer view; an int distance d
    # satisfies d < t exactly when d < ceil(t).
    scale2 = red.instance.scale ** 2
    eps2, tie, sat2 = eps * eps * scale2, (sp + eps) ** 2 * scale2, sp * sp * scale2
    index_of = red.index_of
    to_main = [
        dist2(pts[index_of(v, f"S{i}")], pts[index_of(v, "M")]) for v in red.layouts for i in (1, 2, 3)
    ]
    # The largest squared radius scanned below is eps2, the tie or a
    # satellite's distance to its main point (which need not be the designed one).
    near = near_lists(pts, ceil(max(eps2, tie, *to_main)))

    def has_near(i: int, limit: int, skip: tuple[int, ...]) -> bool:
        """True iff a point outside `skip` lies within squared distance `limit` of point i."""
        p = pts[i]
        return any(dist2(p, pts[j]) <= limit for j in near[i] if j not in skip)

    for v, layout in sorted(red.layouts.items()):
        r = layout.roles
        d_mc = abs(r["C"][0] - r["M"][0]) + abs(r["C"][1] - r["M"][1])
        d_ci = abs(r["Ic"][0] - r["C"][0]) + abs(r["Ic"][1] - r["C"][1])
        if d_mc + eps != d_ci:
            problems.append(f"{v}: connector-to-inhibitor spacing is off")
        if d_mc != sp + eps:
            problems.append(f"{v}: connector distance is off")

        def nearest_ok(role: str, expected: str) -> None:
            idx = index_of(v, role)
            exp_idx = index_of(v, expected)
            d = dist2(pts[idx], pts[exp_idx])
            if d != eps2:
                problems.append(f"{v}: {role} is not at the expected distance from {expected}")
            elif has_near(idx, d, (idx, exp_idx)):
                problems.append(f"{v}: {role} has a neighbor nearer than {expected}")

        for i in (1, 2, 3):
            nearest_ok(f"S{i}p", f"S{i}")
        for j in (1, 2, 3, 4):
            nearest_ok(f"I{j}", "Ic")

        # The connector's nearest points are the main point and the closest
        # inhibitor point, both exactly at the satellite distance plus epsilon.
        c_idx = index_of(v, "C")
        if dist2(pts[c_idx], pts[index_of(v, "M")]) != tie:
            problems.append(f"{v}: connector-to-main distance is off")
        if dist2(pts[c_idx], pts[index_of(v, "I1")]) != tie:
            problems.append(f"{v}: connector-to-inhibitor distance is off")
        if has_near(c_idx, ceil(tie) - 1, (c_idx,)):
            problems.append(f"{v}: connector has a too-close neighbor")

        # Each satellite's nearest point outside its own station is the main point.
        for i in (1, 2, 3):
            s_idx = index_of(v, f"S{i}")
            d_main = dist2(pts[s_idx], pts[index_of(v, "M")])
            if d_main != sat2:
                problems.append(f"{v}: satellite {i} is not at the main-point distance")
            if has_near(s_idx, d_main, (s_idx, index_of(v, f"S{i}p"), index_of(v, "M"))):
                problems.append(f"{v}: satellite {i} has a non-main nearest neighbor")

    # Inhibitors of grid-adjacent and diagonal gadgets stay far apart.
    floor2 = ceil(floor2 * scale2)
    cluster = {
        v: [pts[index_of(v, role)] for role in ("Ic", "I1", "I2", "I3", "I4")] for v in red.layouts
    }
    for v in sorted(cluster):
        for d in ((1, -1), (1, 0), (1, 1), (0, 1)):
            w = (v[0] + d[0], v[1] + d[1])
            if w in cluster and any(dist2(a, b) < floor2 for a in cluster[v] for b in cluster[w]):
                problems.append(f"{v}-{w}: inhibitor clusters too close")
    return problems


def find_ham_path(grid: GridGraph, cap: int = FIND_HAM_PATH_CAP) -> list[Vertex] | None:
    """Exhaustive backtracking search for a Hamiltonian path; None if there is none."""
    n = len(grid.vertices)
    if n > cap:
        raise CapExceededError(f"Hamiltonian path search refused for {n} > {cap} vertices")
    order = sorted(grid.vertices)
    path: list[Vertex] = []
    used: set[Vertex] = set()

    def extend(v: Vertex) -> bool:
        path.append(v)
        used.add(v)
        if len(path) == n:
            return True
        for w in sorted(grid.neighbors(v)):
            if w not in used and extend(w):
                return True
        path.pop()
        used.remove(v)
        return False

    for start in order:
        if extend(start):
            return path
    return None


def _path_edges(grid: GridGraph, path: list[Vertex]) -> set[frozenset]:
    vertices = list(path)
    if len(vertices) == len(grid.vertices) + 1 and vertices[0] == vertices[-1]:
        vertices = vertices[:-1]  # accept a Hamiltonian cycle, dropping the closing edge
    if sorted(vertices) != sorted(grid.vertices):
        raise InputError("not a Hamiltonian path: must visit every vertex exactly once")
    for u, w in zip(vertices, vertices[1:]):
        if abs(u[0] - w[0]) + abs(u[1] - w[1]) != 1:
            raise InputError(f"consecutive path vertices {u} and {w} are not grid-adjacent")
    return {frozenset((u, w)) for u, w in zip(vertices, vertices[1:])}


def assignment_from_ham_path(red: ReductionOutput, path: list[Vertex]) -> ReceiverAssignment:
    """Receiver assignment with interference exactly 5 encoding the given path."""
    grid = GridGraph.from_vertices(red.layouts)
    on_path = _path_edges(grid, path)
    receiver: dict[int, int] = {}
    for v, layout in red.layouts.items():
        idx = {role: red.index_of(v, role) for role in ROLE_ORDER}
        receiver[idx["M"]] = idx["C"]
        receiver[idx["C"]] = idx["M"]
        receiver[idx["Ic"]] = idx["C"]
        for j in (1, 2, 3, 4):
            receiver[idx[f"I{j}"]] = idx["Ic"]
        for i in (1, 2, 3):
            receiver[idx[f"S{i}p"]] = idx[f"S{i}"]
            d = layout.satellite_directions[f"S{i}"]
            w = (v[0] + d[0], v[1] + d[1])
            if frozenset((v, w)) in on_path:
                receiver[idx[f"S{i}"]] = red.partner[idx[f"S{i}"]]
            else:
                receiver[idx[f"S{i}"]] = idx["M"]
    return ReceiverAssignment(ASYM2D, receiver)


def extract_connection_structure(
    red: ReductionOutput, assignment: ReceiverAssignment
) -> list[tuple[Vertex, Vertex]]:
    """Grid-vertex pairs joined by at least one cross-gadget communication edge."""
    out = communication_graph_2d(red.instance, assignment)
    pairs = set()
    for p, nbrs in enumerate(out):
        for q in nbrs:
            u, w = red.gadget_of[p], red.gadget_of[q]
            if u != w:
                pairs.add((min(u, w), max(u, w)))
    return sorted(pairs)
