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

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import CapExceededError, InputError, InvariantError, echo
from .model import ASYM2D, Instance2D, ReceiverAssignment, communication_graph_2d
from .model import _reach, dist2, in_balls, integer, lattice

Vertex = tuple[int, int]

# Fixed direction order: +x < -x < +y < -y (used for all placement choices).
DIRECTIONS: tuple[Vertex, ...] = ((1, 0), (-1, 0), (0, 1), (0, -1))

ROLE_ORDER = ("M", "S1", "S1p", "S2", "S2p", "S3", "S3p", "C", "Ic", "I1", "I2", "I3", "I4")
_ROLE_OFFSET = {role: i for i, role in enumerate(ROLE_ORDER)}

DEFAULT_EPSILON = Fraction(1, 64)

# Distance from the main point to each satellite; see the module docstring.
SATELLITE_SPACING = Fraction(5, 16)

FIND_HAM_PATH_CAP = 16


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
        return cls(tuple(sorted((_coordinate(x), _coordinate(y)) for x, y in vertices)))

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


def _coordinate(value) -> int:
    """A grid coordinate from a library caller: a str by the integer grammar, else a number equal to an int."""
    try:
        number = integer(value) if type(value) is str else int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or number != value and type(value) is not str:
        raise InputError(f"not an integer coordinate: {echo(value)}")
    return number


@dataclass(frozen=True)
class ReductionOutput:
    """The gadget instance.  Gadget i, of the i-th vertex in sorted order,
    holds points 13i .. 13i + 12 in ROLE_ORDER."""

    instance: Instance2D
    epsilon: Fraction
    vertices: tuple[Vertex, ...]
    partner: dict[int, int]

    @cached_property
    def gadget_of(self) -> tuple[Vertex, ...]:
        return tuple(v for v in self.vertices for _ in ROLE_ORDER)

    @cached_property
    def role_of(self) -> tuple[str, ...]:
        return ROLE_ORDER * len(self.vertices)

    @cached_property
    def _base_index(self) -> dict[Vertex, int]:
        return {v: i * len(ROLE_ORDER) for i, v in enumerate(self.vertices)}

    def index_of(self, vertex: Vertex, role: str) -> int:
        return self._base_index[vertex] + _ROLE_OFFSET[role]


def gadget_units(epsilon) -> tuple[int, int, int]:
    """(scale, spacing, epsilon): the least common denominator of a reduction's
    lengths 1, 5/16 and epsilon, and the last two as integers over it."""
    (sp, e), scale = lattice((SATELLITE_SPACING, epsilon))
    if e <= 0:
        raise InputError("epsilon must be positive")
    return scale, sp, e


def build_gadget(vertex: Vertex, incident_dirs, epsilon=DEFAULT_EPSILON) -> dict[str, Vertex]:
    """The 13 gadget points of one grid vertex by role, in ROLE_ORDER, on the
    lattice of gadget_units(epsilon).

    Satellites take the incident directions first; with fewer than three
    incident edges the remaining stations go to the smallest free directions,
    and the connector takes the one direction left over.
    """
    scale, sp, e = gadget_units(epsilon)
    dirs = list(incident_dirs)
    if not 1 <= len(dirs) <= 3:
        raise InputError("a grid vertex must have between 1 and 3 incident edges")
    if len(set(dirs)) != len(dirs) or any(d not in DIRECTIONS for d in dirs):
        raise InputError(f"bad incident directions: {dirs}")

    connector_dir = [d for d in DIRECTIONS if d not in dirs][-1]
    sat_dirs = [d for d in DIRECTIONS if d != connector_dir]
    vx, vy = vertex[0] * scale, vertex[1] * scale

    def at(direction: Vertex, distance: int) -> Vertex:
        return (vx + distance * direction[0], vy + distance * direction[1])

    roles: dict[str, Vertex] = {"M": (vx, vy)}
    for i, d in enumerate(sat_dirs, start=1):
        s = at(d, sp)
        cw = (d[1], -d[0])  # d turned clockwise
        roles[f"S{i}"] = s
        roles[f"S{i}p"] = (s[0] + e * cw[0], s[1] + e * cw[1])

    roles["C"] = at(connector_dir, sp + e)
    center = at(connector_dir, 2 * sp + 3 * e)
    roles["Ic"] = center
    offsets = [(-connector_dir[0], -connector_dir[1])]  # nearest the connector
    offsets += [d for d in DIRECTIONS if d != offsets[0]]
    for j, d in enumerate(offsets[:4], start=1):
        roles[f"I{j}"] = (center[0] + e * d[0], center[1] + e * d[1])
    return roles


def reduce_grid(grid: GridGraph, epsilon=DEFAULT_EPSILON, run_checks: bool = True) -> ReductionOutput:
    """Replace every grid vertex by its gadget and link partner satellites."""
    if not grid.is_connected():
        raise InputError("grid graph must be connected")
    if grid.max_degree() > 3:
        raise InputError("grid graph must have maximum degree 3")

    scale, sp, e = gadget_units(epsilon)
    eps = Fraction(e, scale)
    vertices = tuple(sorted(grid.vertices))
    points: list[Vertex] = []
    for v in vertices:
        points += build_gadget(v, [(w[0] - v[0], w[1] - v[1]) for w in grid.neighbors(v)], eps).values()

    # Across each grid edge, the satellites facing each other sit the
    # satellite spacing in from either end.
    index = {p: i for i, p in enumerate(points)}
    partner: dict[int, int] = {}
    for u, w in grid.edges():
        dx, dy = w[0] - u[0], w[1] - u[1]
        a = index[u[0] * scale + sp * dx, u[1] * scale + sp * dy]
        b = index[w[0] * scale - sp * dx, w[1] * scale - sp * dy]
        partner[a], partner[b] = b, a

    result = ReductionOutput(Instance2D(tuple(points), scale), eps, vertices, partner)
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

    Every length is compared in units of 1 / instance.scale, a multiple of
    the scale of gadget_units(epsilon), where all of them are integers.
    """
    scale = red.instance.scale
    problems: list[str] = []
    pts = red.instance.ints
    unit, sp, e = gadget_units(red.epsilon)
    sp, e = sp * (scale // unit), e * (scale // unit)
    path_radius = scale - 2 * sp  # a grid edge is `scale` long

    if not sp * sp + (sp - e) ** 2 > path_radius**2:
        problems.append(f"epsilon {red.epsilon} too large: a path satellite reaches a perpendicular station")
    floor = scale - 2 * sp - 4 * e  # separation floor divided by sqrt(2)
    floor2 = 2 * floor * floor
    if not (floor > 0 and floor2 > (sp + 2 * e) ** 2):
        problems.append(f"epsilon {red.epsilon} too large: an inhibitor hub reaches another gadget's inhibitor")

    eps2, tie, sat2 = e * e, (sp + e) ** 2, sp * sp
    index_of = red.index_of
    # Each point's squared scan radius by role: epsilon for S' and I1..I4,
    # just inside the tie for C and its distance to M for S; M and Ic scan nothing.
    scan = {"M": -1, "Ic": -1, "C": tie - 1}
    radii2 = [
        dist2(p, pts[i - _ROLE_OFFSET[role]]) if role in ("S1", "S2", "S3") else scan.get(role, eps2)
        for i, (p, role) in enumerate(zip(pts, red.role_of))
    ]
    near = in_balls(pts, radii2)

    def l1(a: int, b: int) -> int:
        return abs(pts[a][0] - pts[b][0]) + abs(pts[a][1] - pts[b][1])

    for v in red.vertices:
        m_idx, c_idx = index_of(v, "M"), index_of(v, "C")
        d_mc = l1(c_idx, m_idx)
        if d_mc + e != l1(index_of(v, "Ic"), c_idx):
            problems.append(f"{v}: connector-to-inhibitor spacing is off")
        if d_mc != sp + e:
            problems.append(f"{v}: connector distance is off")

        def nearest_ok(role: str, expected: str) -> None:
            idx = index_of(v, role)
            exp_idx = index_of(v, expected)
            d = dist2(pts[idx], pts[exp_idx])
            if d != eps2:
                problems.append(f"{v}: {role} is not at the expected distance from {expected}")
            elif any(j != exp_idx for j in near[idx]):
                problems.append(f"{v}: {role} has a neighbor nearer than {expected}")

        for i in (1, 2, 3):
            nearest_ok(f"S{i}p", f"S{i}")
        for j in (1, 2, 3, 4):
            nearest_ok(f"I{j}", "Ic")

        # The connector's nearest points are the main point and the closest
        # inhibitor point, both exactly at the satellite distance plus epsilon.
        if dist2(pts[c_idx], pts[m_idx]) != tie:
            problems.append(f"{v}: connector-to-main distance is off")
        if dist2(pts[c_idx], pts[index_of(v, "I1")]) != tie:
            problems.append(f"{v}: connector-to-inhibitor distance is off")
        if near[c_idx]:
            problems.append(f"{v}: connector has a too-close neighbor")

        # Each satellite's nearest point outside its own station is the main point.
        for i in (1, 2, 3):
            s_idx = index_of(v, f"S{i}")
            if radii2[s_idx] != sat2:
                problems.append(f"{v}: satellite {i} is not at the main-point distance")
            if any(j not in (index_of(v, f"S{i}p"), m_idx) for j in near[s_idx]):
                problems.append(f"{v}: satellite {i} has a non-main nearest neighbor")

    # Inhibitors of grid-adjacent and diagonal gadgets stay far apart.
    cluster = {
        v: [pts[index_of(v, role)] for role in ("Ic", "I1", "I2", "I3", "I4")] for v in red.vertices
    }
    for v in cluster:
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


def _path_edges(grid_vertices: tuple[Vertex, ...], path: list[Vertex]) -> set[frozenset]:
    vertices = list(path)
    if len(vertices) == len(grid_vertices) + 1 and vertices[0] == vertices[-1]:
        vertices = vertices[:-1]  # accept a Hamiltonian cycle, dropping the closing edge
    if sorted(vertices) != sorted(grid_vertices):
        raise InputError("not a Hamiltonian path: must visit every vertex exactly once")
    for u, w in zip(vertices, vertices[1:]):
        if abs(u[0] - w[0]) + abs(u[1] - w[1]) != 1:
            raise InputError(f"consecutive path vertices {u} and {w} are not grid-adjacent")
    return {frozenset((u, w)) for u, w in zip(vertices, vertices[1:])}


def assignment_from_ham_path(red: ReductionOutput, path: list[Vertex]) -> ReceiverAssignment:
    """Receiver assignment with interference exactly 5 encoding the given path."""
    on_path = _path_edges(red.vertices, path)
    receiver: dict[int, int] = {}
    for v in red.vertices:
        idx = {role: red.index_of(v, role) for role in ROLE_ORDER}
        receiver[idx["M"]] = idx["C"]
        receiver[idx["C"]] = idx["M"]
        receiver[idx["Ic"]] = idx["C"]
        for j in (1, 2, 3, 4):
            receiver[idx[f"I{j}"]] = idx["Ic"]
        for i in (1, 2, 3):
            s = idx[f"S{i}"]
            receiver[idx[f"S{i}p"]] = s
            q = red.partner.get(s)  # the partner across a grid edge, if any
            on = q is not None and frozenset((v, red.gadget_of[q])) in on_path
            receiver[s] = q if on else idx["M"]
    return ReceiverAssignment(ASYM2D, receiver)


def extract_connection_structure(
    red: ReductionOutput, assignment: ReceiverAssignment
) -> list[tuple[Vertex, Vertex]]:
    """Grid-vertex pairs joined by at least one cross-gadget communication edge."""
    g = red.gadget_of
    out = communication_graph_2d(red.instance, assignment)
    edges = ((g[p], g[q]) for p, nbrs in enumerate(out) for q in nbrs)
    return sorted({(min(u, w), max(u, w)) for u, w in edges if u != w})
