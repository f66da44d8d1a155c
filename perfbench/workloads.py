"""The four benchmark workloads: seeded input generation and one checked item.

Each workload builds a pool of inputs from the seed before the timed loop
(`make_pool`) and runs one item at a time (`run_item`), replaying the call
sequence the CLI makes.  Every call into a layer of the program goes through
`tracer.call`, so a traced run sees each layer boundary.  An item whose
output fails a check raises `CheckFailed`.

Sizes are stratified: every seed's pool cycles through the same sizes in the
same proportions, and the seed picks the coordinates.  That keeps the cost
mix, and so the medians, comparable across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from interfmin import dpsolve, families, model, oracle, reduction, textio
from interfmin.nna import nna as run_nna  # the package re-exports `nna` over its module

DIRECTIONS = ((1, 0), (-1, 0), (0, 1), (0, -1))


class CheckFailed(Exception):
    """An item's output is wrong."""


def check(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


def check_witness(tracer, instance, witness, optimum: int, what: str) -> None:
    """The witness is valid and attains the reported optimum."""
    n = instance.n
    valid = tracer.call("model.is_valid", model.is_valid, instance, witness)
    tracer.annotate(points=n)
    check(valid, f"{what}: witness is not valid")
    value = tracer.call("model.interference", model.interference, instance, witness)
    tracer.annotate(points=n)
    check(value == optimum, f"{what}: witness interference {value} != optimum {optimum}")


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is in BENCHMARK.json and README.md."""

    name: str
    make_pool: Callable  # (seed, tracer) -> list of items
    run_item: Callable  # (item, tracer) -> None; raises CheckFailed
    block: int  # items per stratified block; the pool is a whole number of blocks
    nominal_items_per_s: float  # sizes the traced pass; measured on 2 cores


# --- exact1d: DP solvers against the oracle on small instances -------------

# Per block of ten items: random instances at these sizes, then one family
# member in turn.  The median item falls in the middle of the n=7 items
# and p90 among the n=8 items.
EXACT1D_SIZES = (6, 7, 8, 7, 6, 7, 8, 7, 7)


@dataclass(frozen=True)
class Exact1DItem:
    instance: model.Instance1D
    label: str
    known_optimum: int | None = None  # exact optimum of a P or Q member
    lower_bound: int = 0  # LogLower's floor(log2 n)


def _family_items(tracer) -> list[Exact1DItem]:
    items = [
        Exact1DItem(tracer.call("families.gen_p", families.gen_p, 3).instance, "P(3)", known_optimum=3),
        Exact1DItem(tracer.call("families.gen_q", families.gen_q, 0).instance, "Q(0)", known_optimum=2),
    ]
    for n in (6, 7, 8):
        fam = tracer.call("families.gen_log_lower", families.gen_log_lower, n)
        items.append(Exact1DItem(fam.instance, f"LogLower({n})", lower_bound=n.bit_length() - 1))
    return items


def exact1d_pool(seed: int, tracer) -> list[Exact1DItem]:
    rng = random.Random(seed)
    family = _family_items(tracer)
    pool = []
    for block in range(16):
        for n in EXACT1D_SIZES:
            inst = tracer.call(
                "families.random_instance_1d", families.random_instance_1d, n, rng.randrange(2**32), 100
            )
            pool.append(Exact1DItem(inst, f"random n={n}"))
        pool.append(family[block % len(family)])
    return pool


def exact1d_item(item: Exact1DItem, tracer) -> None:
    inst = item.instance
    exact_stats = dpsolve.DpStats()
    exact = tracer.call("dpsolve.solve_exact", dpsolve.solve_exact, inst, exact_stats)
    tracer.annotate(subproblems=exact_stats.subproblems, memo_hits=exact_stats.memo_hits)
    search_stats = dpsolve.DpStats()
    searched = tracer.call("dpsolve.solve_opt_search", dpsolve.solve_opt_search, inst, search_stats)
    tracer.annotate(subproblems=search_stats.subproblems, memo_hits=search_stats.memo_hits)
    check_witness(tracer, inst, exact.witness, exact.optimum, "solve_exact")
    check_witness(tracer, inst, searched.witness, searched.optimum, "solve_opt_search")
    truth = tracer.call("oracle.brute_force_1d", oracle.brute_force_1d, inst)
    check(
        exact.optimum == searched.optimum == truth.optimum,
        f"optima differ: exact {exact.optimum}, search {searched.optimum}, oracle {truth.optimum}",
    )
    if item.known_optimum is not None:
        check(truth.optimum == item.known_optimum, f"{item.label}: optimum {truth.optimum}")
    check(truth.optimum >= item.lower_bound, f"{item.label}: optimum {truth.optimum} below bound")


# --- bruteforce: the ground-truth oracles ----------------------------------

# One block: (kind, n) in this order.  The 1D oracle instances are
# perturbed grids (spacing 100, jitter up to 60): on uniform random
# coordinates at n >= 10 a tenth of the instances cost 30x the median, which
# makes the throughput of a 25 s run vary by about 20% between seeds.
BRUTEFORCE_BLOCK = (
    ("bf1d", 10),
    ("bf2d", 7),
    ("bf1d", 10),
    ("enum", 7),
    ("bf2d", 7),
    ("bf1d", 11),
    ("bf2d", 8),
    ("bf1d", 11),
    ("enum", 7),
    ("bf2d", 8),
)


@dataclass(frozen=True)
class BruteForceItem:
    kind: str
    instance: object
    cap: int


def perturbed_grid_1d(n: int, rng: random.Random) -> model.Instance1D:
    return model.Instance1D.from_values(100 * i + rng.randint(0, 60) for i in range(n))


def random_points_2d(n: int, rng: random.Random) -> model.Instance2D:
    points: set[tuple[int, int]] = set()
    while len(points) < n:
        points.add((rng.randint(0, 100), rng.randint(0, 100)))
    return model.Instance2D.from_values(sorted(points))


def bruteforce_pool(seed: int, tracer) -> list[BruteForceItem]:
    rng = random.Random(seed)
    pool = []
    for _ in range(60):
        for kind, n in BRUTEFORCE_BLOCK:
            if kind == "bf1d":
                inst = perturbed_grid_1d(n, rng)
            elif kind == "bf2d":
                inst = random_points_2d(n, rng)
            else:
                inst = tracer.call("families.random_instance_1d", families.random_instance_1d, n, rng.randrange(2**32), 100)
            pool.append(BruteForceItem(kind, inst, cap=n))
    return pool


def bruteforce_item(item: BruteForceItem, tracer) -> None:
    inst = item.instance
    if item.kind == "bf2d":
        result = tracer.call("oracle.brute_force_2d", oracle.brute_force_2d, inst, cap=item.cap)
        check_witness(tracer, inst, result.witness, result.optimum, "brute_force_2d")
        return
    result = tracer.call("oracle.brute_force_1d", oracle.brute_force_1d, inst, cap=item.cap)
    check_witness(tracer, inst, result.witness, result.optimum, "brute_force_1d")
    if item.kind == "bf1d":
        heuristic = tracer.call("nna.nna", run_nna, inst)
        upper = tracer.call("model.interference", model.interference, inst, heuristic)
        tracer.annotate(points=inst.n)
        check(result.optimum <= upper, f"optimum {result.optimum} above NNA's {upper}")
        return
    optimal = tracer.call("oracle.enumerate_optimal_1d", _enumerate, inst, item.cap)
    tracer.annotate(optimal_count=len(optimal))
    for assignment in optimal:
        check_witness(tracer, inst, assignment, result.optimum, "enumerate_optimal_1d")
    check(result.witness in optimal, "brute_force_1d witness missing from the enumeration")


def _enumerate(inst, cap):
    # Drain the generator inside the span so its work is timed there.
    return list(oracle.enumerate_optimal_1d(inst, cap=cap))


# --- nna1d: the CLI's solve path with NNA on large instances ---------------

NNA1D_POOL = 12
NNA1D_MIN_N = 3072
NNA1D_MAX_N = 5120


@dataclass(frozen=True)
class Nna1DItem:
    instance: model.Instance1D
    log_lower: bool


def nna1d_pool(seed: int, tracer) -> list[Nna1DItem]:
    """Sizes in equal strata over [3072, 5120], alternating random and
    LogLower instances; the seed picks a size within each stratum."""
    rng = random.Random(seed)
    width = (NNA1D_MAX_N - NNA1D_MIN_N) // NNA1D_POOL
    pool = []
    for i in range(NNA1D_POOL):
        n = NNA1D_MIN_N + i * width + rng.randrange(width + 1)
        if i % 2:
            fam = tracer.call("families.gen_log_lower", families.gen_log_lower, n)
            pool.append(Nna1DItem(fam.instance, True))
        else:
            inst = tracer.call(
                "families.random_instance_1d", families.random_instance_1d, n, rng.randrange(2**32), 10**6
            )
            pool.append(Nna1DItem(inst, False))
    rng.shuffle(pool)
    return pool


def nna1d_item(item: Nna1DItem, tracer) -> None:
    n = item.instance.n
    text = tracer.call("textio.format_points", textio.format_points, item.instance)
    tracer.annotate(bytes=len(text))
    inst = tracer.call("textio.parse_points", textio.parse_points, text)
    tracer.annotate(bytes=len(text))
    check(inst == item.instance, "point file round trip changed the instance")
    rounds: list = []
    witness = tracer.call("nna.nna", run_nna, inst, rounds)
    tracer.annotate(rounds=len(rounds))
    valid = tracer.call("model.is_valid", model.is_valid, inst, witness)
    tracer.annotate(points=n)
    check(valid, "NNA witness is not valid")
    value = tracer.call("model.interference", model.interference, inst, witness)
    tracer.annotate(points=n)
    ceil_log = (n - 1).bit_length()
    check(value <= ceil_log + 2, f"interference {value} above ceil(log2 n)+2 = {ceil_log + 2}")
    check(len(rounds) <= ceil_log, f"{len(rounds)} rounds above ceil(log2 n) = {ceil_log}")
    if item.log_lower:
        floor_log = n.bit_length() - 1
        check(value >= floor_log, f"LogLower interference {value} below floor(log2 n) = {floor_log}")
    out = tracer.call("textio.format_assignment", textio.format_assignment, witness)
    tracer.annotate(bytes=len(out))
    back = tracer.call("textio.parse_assignment", textio.parse_assignment, out)
    tracer.annotate(bytes=len(out))
    check(back == witness, "assignment file round trip changed the witness")


# --- reduce2d: grid graph -> gadget instance -> Hamiltonian-path witness ----

REDUCE2D_SIZES = (4, 5, 6, 7, 8)


def random_snake(v: int, rng: random.Random) -> list[tuple[int, int]]:
    """Vertices of a random self-avoiding walk of v steps whose induced grid
    graph has maximum degree at most 3."""
    while True:
        walk = [(0, 0)]
        used = {(0, 0)}
        while len(walk) < v:
            x, y = walk[-1]
            free = [(x + dx, y + dy) for dx, dy in DIRECTIONS if (x + dx, y + dy) not in used]
            if not free:
                break
            step = rng.choice(free)
            walk.append(step)
            used.add(step)
        degrees = [sum((x + dx, y + dy) in used for dx, dy in DIRECTIONS) for x, y in walk]
        if len(walk) == v and max(degrees) <= 3:
            return walk


def reduce2d_pool(seed: int, tracer) -> list[reduction.GridGraph]:
    rng = random.Random(seed)
    return [
        reduction.GridGraph.from_vertices(random_snake(v, rng))
        for _ in range(24)
        for v in REDUCE2D_SIZES
    ]


def reduce2d_item(grid: reduction.GridGraph, tracer) -> None:
    red = tracer.call("reduction.reduce_grid", reduction.reduce_grid, grid, run_checks=False)
    inst = red.instance
    tracer.annotate(points=inst.n)
    problems = tracer.call("reduction.geometry_violations", reduction.geometry_violations, red)
    check(not problems, "geometry violations: " + "; ".join(problems[:3]))
    path = tracer.call("reduction.find_ham_path", reduction.find_ham_path, grid)
    check(path is not None, "no Hamiltonian path found on a walk's vertex set")
    witness = tracer.call("reduction.assignment_from_ham_path", reduction.assignment_from_ham_path, red, path)
    check_witness(tracer, inst, witness, 5, "reduction witness")
    structure = tracer.call(
        "reduction.extract_connection_structure", reduction.extract_connection_structure, red, witness
    )
    expected = sorted((min(u, w), max(u, w)) for u, w in zip(path, path[1:]))
    check(structure == expected, "extracted structure differs from the path edges")
    text = tracer.call("textio.format_points", textio.format_points, inst)
    tracer.annotate(bytes=len(text))
    back = tracer.call("textio.parse_points", textio.parse_points, text)
    tracer.annotate(bytes=len(text))
    check(back == inst, "point file round trip changed the instance")
    out = tracer.call("textio.format_assignment", textio.format_assignment, witness)
    tracer.annotate(bytes=len(out))
    parsed = tracer.call("textio.parse_assignment", textio.parse_assignment, out)
    tracer.annotate(bytes=len(out))
    check(parsed == witness, "assignment file round trip changed the witness")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exact1d",
            exact1d_pool,
            exact1d_item,
            block=10,
            nominal_items_per_s=3.5,
        ),
        Workload(
            "bruteforce",
            bruteforce_pool,
            bruteforce_item,
            block=len(BRUTEFORCE_BLOCK),
            nominal_items_per_s=20.0,
        ),
        Workload(
            "nna1d",
            nna1d_pool,
            nna1d_item,
            block=NNA1D_POOL,
            nominal_items_per_s=5.0,
        ),
        Workload(
            "reduce2d",
            reduce2d_pool,
            reduce2d_item,
            block=len(REDUCE2D_SIZES),
            nominal_items_per_s=3.3,
        ),
    )
}
