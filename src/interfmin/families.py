"""Generators for the structured 1D instance families and their constructive
optimal assignments.

The doubling family (`gen_p`) has 2^i points, diameter (3^i - 1) / 2, and
optimum interference exactly i.  The nested family (`gen_q`) alternates blocks
around an anchor point and forces bends; its optimum is k + 2.  `gen_log_lower`
pads the doubling family with far-away fillers to hit a floor(log2 n) lower
bound at any size n.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import InputError
from .model import SINKTREE1D, Instance1D, ReceiverAssignment

MAX_P_PARAM = 20
MAX_Q_PARAM = 10

LEFT = "left"
RIGHT = "right"


@dataclass(frozen=True)
class FamilyInstance:
    instance: Instance1D
    block_map: dict[int, str] = field(default_factory=dict)


def p_diameter(i: int) -> int:
    return (3**i - 1) // 2


def _p_coords(i: int) -> list[int]:
    pts = [0]
    for _ in range(i):
        shift = 2 * pts[-1] + 1  # translate the copy by twice the diameter plus one
        pts = pts + [x + shift for x in pts]
    return pts


def gen_p(i: int) -> FamilyInstance:
    """Doubling family: two copies of the previous level, separated by one
    more than the previous diameter."""
    if not 0 <= i <= MAX_P_PARAM:
        raise InputError(f"gen_p parameter must be in [0, {MAX_P_PARAM}], got {i}")
    return FamilyInstance(Instance1D(tuple(_p_coords(i)), 1))


def _p_edges(i: int, side: str) -> dict[int, int]:
    """Index-based edges of the constructive assignment for the doubling family."""
    if side not in (LEFT, RIGHT):
        raise InputError(f"root side must be {LEFT!r} or {RIGHT!r}")
    edges = {1: 0} if side == LEFT else {0: 1}
    half = 2
    for _ in range(i - 1):
        mirror = {p + half: q + half for p, q in edges.items()}
        edges = {**edges, **mirror}
        if side == LEFT:
            edges[half] = half - 1  # right copy's root joins the left copy's far end
        else:
            edges[half - 1] = half
        half *= 2
    return edges


def optimal_assignment_p(i: int, root_side: str = LEFT) -> ReceiverAssignment:
    """Constructive optimum for gen_p(i): interference exactly i, rooted at the
    chosen extreme point (interference 1 there, i at the opposite extreme)."""
    if i < 1:
        raise InputError("the singleton level has no assignment")
    if i > MAX_P_PARAM:
        raise InputError(f"gen_p parameter must be at most {MAX_P_PARAM}")
    edges = _p_edges(i, root_side)
    sink = 0 if root_side == LEFT else 2**i - 1
    return ReceiverAssignment(SINKTREE1D, edges, sink)


def gen_q(k: int) -> FamilyInstance:
    """Nested family: an anchor point plus blocks of increasing doubling levels
    appended on alternating sides (left when the step index is odd)."""
    if not 0 <= k <= MAX_Q_PARAM:
        raise InputError(f"gen_q parameter must be in [0, {MAX_Q_PARAM}], got {k}")
    blocks: list[tuple[str, list[int]]] = [("a", [0])]
    level = _p_coords(2)
    blocks.append(("R_2", [x + p_diameter(2) + 1 for x in level]))
    for step in range(1, k + 1):
        coords = [c for _, block in blocks for c in block]
        lo, hi = min(coords), max(coords)
        gap = (hi - lo) + 1
        level = _p_coords(step + 2)
        if step % 2 == 1:
            shifted = [x + lo - gap - p_diameter(step + 2) for x in level]
        else:
            shifted = [x + hi + gap for x in level]
        blocks.append((f"R_{step + 2}", shifted))
    by_coord = sorted((c, name) for name, block in blocks for c in block)
    block_map = {idx: name for idx, (_, name) in enumerate(by_coord)}
    return FamilyInstance(Instance1D(tuple(c for c, _ in by_coord), 1), block_map)


def optimal_assignment_q(k: int) -> ReceiverAssignment:
    """Constructive optimum for gen_q(k): interference k + 2, at least k bends.

    Every block gets the doubling-family assignment rooted at its end nearest
    the anchor; the anchor joins the nearest block point, and each block root
    joins the next block's root.  The outermost block's root is the sink.
    """
    fam = gen_q(k)
    inst = fam.instance
    coord_index = {c: idx for idx, c in enumerate(inst.ints)}  # scale 1: ints are the coordinates
    block_indices: dict[str, list[int]] = {}
    for idx in range(inst.n):
        block_indices.setdefault(fam.block_map[idx], []).append(idx)

    edges: dict[int, int] = {}
    roots: dict[int, int] = {}
    for level in range(2, k + 3):
        indices = sorted(block_indices[f"R_{level}"])
        side = LEFT if level % 2 == 0 else RIGHT  # root faces the anchor
        for p, q in _p_edges(level, side).items():
            edges[indices[p]] = indices[q]
        roots[level] = indices[0] if side == LEFT else indices[-1]

    anchor = coord_index[0]
    first = sorted(block_indices["R_2"])
    edges[anchor] = min(first, key=lambda idx: abs(inst.ints[idx] - inst.ints[anchor]))
    for level in range(2, k + 2):
        edges[roots[level]] = roots[level + 1]
    return ReceiverAssignment(SINKTREE1D, edges, roots[k + 2])


def gen_log_lower(n: int) -> FamilyInstance:
    """Doubling-family core of size 2^floor(log2 n), padded to n points with
    fillers on the right at successive gaps of one more than the diameter so
    far.  Every valid assignment has interference at least floor(log2 n)."""
    if n < 1:
        raise InputError("instance size must be at least 1")
    level = n.bit_length() - 1
    coords = _p_coords(level)
    core_size = len(coords)
    for _ in range(n - core_size):
        coords.append(coords[-1] + (coords[-1] - coords[0]) + 1)
    block_map = {idx: ("core" if idx < core_size else "filler") for idx in range(n)}
    return FamilyInstance(Instance1D(tuple(coords), 1), block_map)


def random_instance_1d(n: int, seed: int, coord_max: int = 100) -> Instance1D:
    """Seeded random instance: n distinct integer coordinates in [0, coord_max]."""
    if n < 1:
        raise InputError("instance size must be at least 1")
    if n > coord_max + 1:
        raise InputError("coordinate range too small for distinct points")
    rng = random.Random(seed)
    return Instance1D(tuple(sorted(rng.sample(range(coord_max + 1), n))), 1)
