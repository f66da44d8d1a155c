import gc
import hashlib
import itertools
import random
import tracemalloc
import weakref

import pytest

from interfmin.errors import CapExceededError, InputError
from interfmin.families import gen_log_lower, random_instance_1d
from interfmin.model import (
    ASYM2D,
    SINKTREE1D,
    Instance1D,
    Instance2D,
    ReceiverAssignment,
    cover_table,
    cross_edges,
    dist2,
    has_bst_property,
    interference,
    is_valid,
)
from interfmin.oracle import (
    DEFAULT_CAP_1D,
    DEFAULT_CAP_2D,
    OracleStats,
    _ball_table,
    brute_force_1d,
    brute_force_2d,
    enumerate_optimal_1d,
)


def rejection_optimum_1d(inst):
    """Independent ground truth: every receiver function, filtered by validity."""
    best = None
    n = inst.n
    for root in range(n):
        others = [p for p in range(n) if p != root]
        for recv in itertools.product(*[[q for q in range(n) if q != p] for p in others]):
            a = ReceiverAssignment(SINKTREE1D, dict(zip(others, recv)), root)
            if is_valid(inst, a):
                v = interference(inst, a)
                best = v if best is None else min(best, v)
    return best


def rejection_optimum_2d(inst):
    best = None
    n = inst.n
    for recv in itertools.product(*[[q for q in range(n) if q != p] for p in range(n)]):
        a = ReceiverAssignment(ASYM2D, dict(enumerate(recv)))
        if is_valid(inst, a):
            v = interference(inst, a)
            best = v if best is None else min(best, v)
    return best


def test_known_optima_1d():
    assert brute_force_1d(Instance1D.from_values([0, 1])).optimum == 1
    assert brute_force_1d(Instance1D.from_values([0, 1, 2])).optimum == 2
    assert brute_force_1d(Instance1D.from_values([0, 1, 3, 4])).optimum == 2


def test_witness_is_optimal():
    inst = Instance1D.from_values([0, 1, 3, 4])
    res = brute_force_1d(inst)
    assert is_valid(inst, res.witness)
    assert interference(inst, res.witness) == res.optimum


def test_singleton():
    res = brute_force_1d(Instance1D.from_values([3]))
    assert res.optimum == 0
    assert res.witness.sink == 0


def test_matches_rejection_enumeration():
    rng = random.Random(424242)
    for _ in range(12):
        n = rng.randint(2, 5)
        inst = Instance1D.from_values(rng.sample(range(0, 30), n))
        assert brute_force_1d(inst).optimum == rejection_optimum_1d(inst)


def test_enumerate_two_points():
    inst = Instance1D.from_values([0, 1])
    found = list(enumerate_optimal_1d(inst))
    assert len(found) == 2
    assert {a.sink for a in found} == {0, 1}
    assert all(interference(inst, a) == 1 for a in found)


def test_enumerate_all_optimal():
    inst = Instance1D.from_values([0, 1, 2])
    for a in enumerate_optimal_1d(inst):
        assert is_valid(inst, a)
        assert interference(inst, a) == 2


def test_enumerate_contains_cross_free():
    inst = Instance1D.from_values([0, 1, 3, 4])
    stream = list(enumerate_optimal_1d(inst))
    assert stream
    assert any(not cross_edges(inst, a) for a in stream)


def test_enumeration_complete():
    # The pruned stream must find exactly the optimal assignments that plain
    # rejection filtering finds.
    inst = Instance1D.from_values([0, 2, 3, 7])
    opt = rejection_optimum_1d(inst)
    expected = set()
    n = inst.n
    for root in range(n):
        others = [p for p in range(n) if p != root]
        for recv in itertools.product(*[[q for q in range(n) if q != p] for p in others]):
            a = ReceiverAssignment(SINKTREE1D, dict(zip(others, recv)), root)
            if is_valid(inst, a) and interference(inst, a) == opt:
                expected.add((root, tuple(sorted(a.receiver.items()))))
    got = {
        (a.sink, tuple(sorted(a.receiver.items()))) for a in enumerate_optimal_1d(inst)
    }
    assert got == expected


# (n, seed, optimum, sink, receiver items, optimal count, stream digest) for
# random_instance_1d(n, seed, 100), recorded before the two 1D searches shared
# one body; the digest covers the enumeration stream in order.
ORACLE_GOLDEN_1D = [
    (1, 1, 0, 0, [], 1, 'e628d1e0eca4d8c7'),
    (1, 2, 0, 0, [], 1, 'e628d1e0eca4d8c7'),
    (1, 3, 0, 0, [], 1, 'e628d1e0eca4d8c7'),
    (1, 4, 0, 0, [], 1, 'e628d1e0eca4d8c7'),
    (1, 5, 0, 0, [], 1, 'e628d1e0eca4d8c7'),
    (2, 1, 1, 0, [(1, 0)], 2, '02c87448e9aa6ffd'),
    (2, 2, 1, 0, [(1, 0)], 2, '02c87448e9aa6ffd'),
    (2, 3, 1, 0, [(1, 0)], 2, '02c87448e9aa6ffd'),
    (2, 4, 1, 0, [(1, 0)], 2, '02c87448e9aa6ffd'),
    (2, 5, 1, 0, [(1, 0)], 2, '02c87448e9aa6ffd'),
    (3, 1, 2, 0, [(1, 0), (2, 0)], 9, '91bcb3dcb9f2b2eb'),
    (3, 2, 2, 0, [(1, 0), (2, 0)], 9, '91bcb3dcb9f2b2eb'),
    (3, 3, 2, 0, [(1, 0), (2, 0)], 9, '91bcb3dcb9f2b2eb'),
    (3, 4, 2, 0, [(1, 0), (2, 0)], 9, '91bcb3dcb9f2b2eb'),
    (3, 5, 2, 0, [(1, 0), (2, 0)], 9, '91bcb3dcb9f2b2eb'),
    (4, 1, 2, 0, [(1, 0), (2, 0), (3, 2)], 16, '9bec58fdbd47692b'),
    (4, 2, 2, 1, [(0, 1), (2, 0), (3, 2)], 4, '081aab6b00f972f2'),
    (4, 3, 2, 0, [(1, 0), (2, 0), (3, 2)], 16, '9bec58fdbd47692b'),
    (4, 4, 2, 1, [(0, 1), (2, 0), (3, 2)], 4, '081aab6b00f972f2'),
    (4, 5, 2, 0, [(1, 0), (2, 0), (3, 2)], 16, '9bec58fdbd47692b'),
    (5, 1, 2, 0, [(1, 0), (2, 0), (3, 2), (4, 3)], 12, '4f607ecbb0e63489'),
    (5, 2, 2, 1, [(0, 1), (2, 0), (3, 2), (4, 3)], 3, '4b7a74fda9bdde9d'),
    (5, 3, 2, 0, [(1, 0), (2, 1), (3, 2), (4, 3)], 8, 'b8e70348f2b91802'),
    (5, 4, 2, 1, [(0, 1), (2, 1), (3, 2), (4, 3)], 2, '1d4252c65cb3e02c'),
    (5, 5, 2, 2, [(0, 1), (1, 2), (3, 2), (4, 3)], 12, 'c1ee74b2f6c84c38'),
    (6, 1, 2, 1, [(0, 1), (2, 0), (3, 2), (4, 3), (5, 4)], 6, '68602854876eb0ed'),
    (6, 2, 2, 1, [(0, 1), (2, 0), (3, 2), (4, 3), (5, 4)], 3, '0d7c3dea9b39c4ae'),
    (6, 3, 3, 0, [(1, 0), (2, 1), (3, 0), (4, 2), (5, 3)], 818, 'a8cd9b08b56933ea'),
    (6, 4, 3, 0, [(1, 0), (2, 1), (3, 0), (4, 3), (5, 3)], 314, 'd234dc3f9db59954'),
    (6, 5, 2, 2, [(0, 1), (1, 2), (3, 2), (4, 3), (5, 4)], 4, 'ede7f37b47a06407'),
    (7, 1, 3, 0, [(1, 0), (2, 0), (3, 0), (4, 3), (5, 3), (6, 4)], 1305, '3232b1b06fe2f286'),
    (7, 2, 2, 1, [(0, 1), (2, 0), (3, 2), (4, 3), (5, 4), (6, 5)], 6, 'd4f64e4d20d67fb1'),
    (7, 3, 2, 4, [(0, 1), (1, 2), (2, 3), (3, 4), (5, 4), (6, 5)], 12, 'fa8cf170deaddd07'),
    (7, 4, 3, 0, [(1, 0), (2, 0), (3, 1), (4, 2), (5, 4), (6, 5)], 892, '7588c35be9c81440'),
    (7, 5, 2, 3, [(0, 1), (1, 2), (2, 3), (4, 3), (5, 4), (6, 5)], 4, '5ab463f9bc2410f0'),
    (8, 1, 3, 0, [(1, 0), (2, 0), (3, 0), (4, 3), (5, 4), (6, 3), (7, 6)], 1126, '49bce41993376b73'),
    (8, 2, 3, 0, [(1, 0), (2, 0), (3, 0), (4, 3), (5, 3), (6, 4), (7, 6)], 1821, '9b4681d5ef5b99fc'),
    (8, 3, 2, 5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (6, 5), (7, 6)], 6, '33a9ea0116232c3d'),
    (8, 4, 3, 0, [(1, 0), (2, 0), (3, 0), (4, 2), (5, 3), (6, 5), (7, 6)], 2401, 'aaf06696b08e7633'),
    (8, 5, 3, 0, [(1, 0), (2, 1), (3, 4), (4, 0), (5, 4), (6, 5), (7, 6)], 1700, '099ae91b660b6da6'),
]


def stream_digest(stream):
    h = hashlib.sha256()
    count = 0
    for a in stream:
        h.update(f"{a.sink} {sorted(a.receiver.items())}\n".encode())
        count += 1
    return count, h.hexdigest()[:16]


def test_golden_witnesses_and_enumeration_order():
    for n, seed, optimum, sink, receiver, count, digest in ORACLE_GOLDEN_1D:
        inst = random_instance_1d(n, seed, 100)
        res = brute_force_1d(inst)
        assert (res.optimum, res.witness.sink, sorted(res.witness.receiver.items())) == (
            optimum,
            sink,
            receiver,
        ), (n, seed)
        assert stream_digest(enumerate_optimal_1d(inst)) == (count, digest), (n, seed)


def test_enumeration_frees_dropped_assignments():
    # Without the cycle collector, an assignment the caller drops must go at
    # once: nothing inside the search may keep the collected stream alive.
    inst = Instance1D.from_values([0, 1, 3, 4])
    enabled = gc.isenabled()
    gc.disable()
    try:
        stream = list(enumerate_optimal_1d(inst))
        ref = weakref.ref(stream[0])
        del stream
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_brute_force_2d_leaves_nothing_for_the_cycle_collector():
    # A search that refers to itself would leave its tables in a reference
    # cycle after every call; so would a stream dropped before its end.
    plane = random_points_2d(7, 1, 100)
    line = random_instance_1d(8, 1, 100)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        brute_force_2d(plane)
        assert gc.collect() == 0
        brute_force_1d(line)
        assert gc.collect() == 0
        stream = enumerate_optimal_1d(line)
        next(stream)
        del stream
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_enumeration_streams_in_bounded_memory():
    # gen_log_lower(12) has 22536 optimal trees; a stream holds one at a time
    # (a list of them all peaked at 15.85 MiB under tracemalloc).
    inst = gen_log_lower(12).instance
    tracemalloc.start()
    try:
        count = sum(1 for _ in enumerate_optimal_1d(inst))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 22536
    assert peak < 2**20


def random_points_2d(n, seed, coord_max):
    """n distinct integer points in [0, coord_max]², seeded."""
    rng = random.Random(seed)
    side = coord_max + 1
    return Instance2D.from_values(divmod(c, side) for c in rng.sample(range(side * side), n))


def receiver_digest(assignment):
    return hashlib.sha256(str(sorted(assignment.receiver.items())).encode()).hexdigest()[:16]


# (n, seed, coord_max, optimum, receiver digest) for brute_force_2d on
# random_points_2d(n, seed, coord_max), recorded before the 2D oracle had a
# coverage floor; coord_max 4 gives tie-heavy instances.
ORACLE_GOLDEN_2D = [
    (2, 1, 100, 2, '6df3ef58aaac2aff'),
    (2, 2, 100, 2, '6df3ef58aaac2aff'),
    (2, 3, 100, 2, '6df3ef58aaac2aff'),
    (2, 4, 100, 2, '6df3ef58aaac2aff'),
    (3, 1, 100, 3, 'fb42a379822d2c10'),
    (3, 2, 100, 3, 'fb42a379822d2c10'),
    (3, 3, 100, 3, 'fb42a379822d2c10'),
    (3, 4, 100, 3, '3b11d08330f7dc9c'),
    (4, 1, 100, 4, 'b27c0eb0b6d46387'),
    (4, 2, 100, 4, 'b27c0eb0b6d46387'),
    (4, 3, 100, 3, 'd5d754704a4cf7bf'),
    (4, 4, 100, 3, '0fef15e424a3b227'),
    (5, 1, 100, 4, '1e73769ec227350e'),
    (5, 2, 100, 4, 'eada3588797a54c9'),
    (5, 3, 100, 3, '7d98a00371b6597c'),
    (5, 4, 100, 3, '44834245d7702adb'),
    (6, 1, 100, 4, '6e537fd58b6af4fa'),
    (6, 2, 100, 3, 'e6e55e5f9300524e'),
    (6, 3, 100, 3, 'ee04ae51821efe61'),
    (6, 4, 100, 4, 'e9f663254c973949'),
    (7, 1, 100, 4, '7ac2888755375e20'),
    (7, 2, 100, 4, '47756ea7d51697a7'),
    (7, 3, 100, 3, '33978203ea1b80bb'),
    (7, 4, 100, 4, '429884d77d06ffd1'),
    (8, 1, 100, 3, '316c0e6836989a32'),
    (8, 2, 100, 4, 'ccc05e6de3e19d7c'),
    (8, 3, 100, 3, 'fd492c4f9404c4e2'),
    (8, 4, 100, 4, 'e8474ecd4b7b7ee4'),
    (2, 1, 4, 2, '6df3ef58aaac2aff'),
    (2, 2, 4, 2, '6df3ef58aaac2aff'),
    (2, 3, 4, 2, '6df3ef58aaac2aff'),
    (2, 4, 4, 2, '6df3ef58aaac2aff'),
    (3, 1, 4, 3, 'fb42a379822d2c10'),
    (3, 2, 4, 3, '3b11d08330f7dc9c'),
    (3, 3, 4, 3, 'fb42a379822d2c10'),
    (3, 4, 4, 3, 'fb42a379822d2c10'),
    (4, 1, 4, 3, 'd5d754704a4cf7bf'),
    (4, 2, 4, 3, 'd52213115e0b9a5e'),
    (4, 3, 4, 3, 'd5d754704a4cf7bf'),
    (4, 4, 4, 3, '2d2501d591154754'),
    (5, 1, 4, 4, 'eada3588797a54c9'),
    (5, 2, 4, 3, 'be56a712983c3086'),
    (5, 3, 4, 3, '65cbc075c8a9ab88'),
    (5, 4, 4, 3, 'a25ca898f136b83f'),
    (6, 1, 4, 4, '2c8950e0233fdee6'),
    (6, 2, 4, 4, '2e1906e977552d6d'),
    (6, 3, 4, 4, 'a97ed5d79b5e32e3'),
    (6, 4, 4, 3, '51c6f81669122b0d'),
    (7, 1, 4, 4, 'd368bd13aaadbbb7'),
    (7, 2, 4, 4, '050d7d7fffc43202'),
    (7, 3, 4, 4, 'b83191af35d6fffd'),
    (7, 4, 4, 4, 'cca7784e49ef2149'),
    (8, 1, 4, 4, '7f854817ae65ba65'),
    (8, 2, 4, 4, 'd37f4987b428ea00'),
    (8, 3, 4, 4, '8e135f777bade042'),
    (8, 4, 4, 4, 'd138f74b8b331588'),
    (8, 5, 100, 4, '862f5bd855f76bac'),
    (8, 6, 100, 4, '6498e6fce5cfc8d4'),
    (8, 5, 4, 4, '61f26096028f839b'),
    (8, 6, 4, 3, 'ef8e874fb36e25e0'),
]


def test_golden_witnesses_2d():
    for n, seed, coord_max, optimum, digest in ORACLE_GOLDEN_2D:
        res = brute_force_2d(random_points_2d(n, seed, coord_max))
        assert (res.optimum, receiver_digest(res.witness)) == (optimum, digest), (n, seed, coord_max)


def floor(instance):
    return min(max(counts) for _, counts in _ball_table(instance)[4])


def test_least_ball_floor_is_at_most_the_optimum():
    # The optima are the golden ones, recorded without any floor.
    for n, seed, optimum, *_ in ORACLE_GOLDEN_1D:
        assert floor(random_instance_1d(n, seed, 100)) <= optimum, (n, seed)
    for n, seed, coord_max, optimum, _ in ORACLE_GOLDEN_2D:
        if n <= 7:
            assert floor(random_points_2d(n, seed, coord_max)) <= optimum, (n, seed)


def test_one_ball_table_for_both_dimensions():
    # On a line the 2D balls are the 1D intervals, so both oracles search
    # the same distance orders, ball masks, least balls and choice lists.
    for n in range(2, 9):
        for seed in range(1, 11):
            line = random_instance_1d(n, seed, 100)
            plane = Instance2D.from_values((x, 0) for x in line.ints)
            assert _ball_table(plane)[:4] == _ball_table(line)[:4], (n, seed)


def naive_ball_table(instance):
    """The tables built point by point from every ball's member list, as the
    oracle built them before it sorted each point's distances once: balls
    (ascending), least balls, extras, starts, the extras as bit sets and
    out[p][q], the 2D edges from p if N(p) = q (ascending)."""
    n = instance.n
    if isinstance(instance, Instance1D):
        balls = [[tuple(range(lo, hi + 1)) for lo, hi in row] for row in cover_table(instance)]
        roots = list(range(n))
    else:
        d2 = [[dist2(a, b) for b in instance.ints] for a in instance.ints]
        balls = [[tuple(j for j, s in enumerate(row) if s <= r) for r in row] for row in d2]
        roots = [None]
    least = [
        min((b for q, b in enumerate(row) if q != p), key=len, default=row[p])
        for p, row in enumerate(balls)
    ]
    extra = [[tuple(j for j in b if j not in m) for b in row] for row, m in zip(balls, least)]
    starts = [
        (root, [sum(j in m for p, m in enumerate(least) if p != root) for j in range(n)])
        for root in roots
    ]
    bits = [[sum(1 << j for j in e) for e in row] for row in extra]
    out = [[tuple(j for j in b if j != p) for b in row] for p, row in enumerate(balls)]
    return balls, least, extra, starts, bits, out


def assert_tables_match_naive(instance):
    orders, masks, least, choices, starts = _ball_table(instance)
    balls, naive_least, extra, naive_starts, bits, out = naive_ball_table(instance)
    assert (least, starts) == (naive_least, naive_starts)
    n = instance.n
    assert choices == [[(q, bits[p][q], extra[p][q]) for q in range(n) if q != p] for p in range(n)]
    assert masks == [[sum(1 << j for j in b) for b in row] for row in balls]
    for p in range(n):
        # Nearer points reach smaller balls; p's own, of one point, comes first.
        assert orders[p] == sorted(range(n), key=lambda q: (len(balls[p][q]), q))
        for q in range(n):
            # The ball as the oracle reads it: the prefix of p's order whose
            # length is its mask's bit count; without p, the 2D edges.
            ball = orders[p][: masks[p][q].bit_count()]
            assert tuple(sorted(ball)) == balls[p][q]
            assert tuple(sorted(ball[1:])) == out[p][q]


def test_ball_table_matches_naive_construction():
    for n in range(1, 12):
        for seed in range(1, 6):
            for coord_max in (12, 100, 10**6):
                assert_tables_match_naive(random_instance_1d(n, seed, coord_max))
        assert_tables_match_naive(Instance1D.from_values(range(n)))
    for n in range(2, 11):
        for seed in range(1, 6):
            for coord_max in (100, 4):
                assert_tables_match_naive(random_points_2d(n, seed, coord_max))


@pytest.mark.parametrize("coord_max", [100, 4])
def test_matches_rejection_2d(coord_max):
    for n in (4, 5, 6):
        for seed in range(1, 4 if n < 6 else 5):
            inst = random_points_2d(n, seed, coord_max)
            assert brute_force_2d(inst).optimum == rejection_optimum_2d(inst), (n, seed)


@pytest.mark.parametrize("coord_max", [100, 4])
def test_every_2d_leaf_reached_is_accepted(coord_max):
    # A branch is cut once its choices close off a proper set of points, so
    # the one leaf a solve reaches is its witness.
    for n in range(2, 9):
        for seed in range(1, 7):
            inst = random_points_2d(n, seed, coord_max)
            stats = OracleStats()
            res = brute_force_2d(inst, stats=stats)
            assert stats.leaves == 1, (n, seed)
            assert is_valid(inst, res.witness), (n, seed)
            assert interference(inst, res.witness) == res.optimum, (n, seed)


# One sha256, recorded before the limit was tested as a bit-set AND ahead of
# the branch test, over each oracle's optimum, witness, passes and leaves and
# the whole enumeration in order: random_instance_1d(n, seed, 100) and
# random_points_2d(n, seed, 100 or 4) for n = 2..8 and seeds 1..5, plus evenly
# spaced, tie-heavy points (0..n-1 on the line, the first n of a 3x3 grid).
ORACLE_SEARCH_DIGEST = "a2135fec4a5f3b2fe31fbd61f263fa2bf28f37b97fed318fc89e0a70c494564a"


def test_search_order_digest():
    h = hashlib.sha256()
    for n in range(2, 9):
        line = [random_instance_1d(n, seed, 100) for seed in range(1, 6)]
        line.append(Instance1D.from_values(range(n)))
        for inst in line:
            stats = OracleStats()
            res = brute_force_1d(inst, stats=stats)
            witness = sorted(res.witness.receiver.items())
            h.update(repr((res.optimum, res.witness.sink, witness, stats.passes, stats.leaves)).encode())
            for a in enumerate_optimal_1d(inst):
                h.update(repr((a.sink, sorted(a.receiver.items()))).encode())
        plane = [random_points_2d(n, seed, c) for c in (100, 4) for seed in range(1, 6)]
        plane.append(Instance2D.from_values((x, y) for x in range(3) for y in range(3) if 3 * x + y < n))
        for inst in plane:
            stats = OracleStats()
            res = brute_force_2d(inst, stats=stats)
            h.update(repr((res.optimum, sorted(res.witness.receiver.items()), stats.passes, stats.leaves)).encode())
    assert h.hexdigest() == ORACLE_SEARCH_DIGEST


def test_bst_existence_small():
    rng = random.Random(7)
    sizes = [rng.randint(2, 6) for _ in range(8)] + [7, 7]
    instances = [Instance1D.from_values(rng.sample(range(0, 50), n)) for n in sizes]
    # Each stream stops at its first such optimum: at most 245 trees are read.
    instances += [random_instance_1d(n, seed, 100) for n in range(10, 14) for seed in range(1, 11)]
    for inst in instances:
        assert any(
            not cross_edges(inst, a) and has_bst_property(inst, a)
            for a in enumerate_optimal_1d(inst)
        ), inst.points
    # Whole streams, 47295 optimal trees: every cross-free optimum is BST-shaped.
    for n in range(7, 10):
        for seed in range(1, 11):
            inst = random_instance_1d(n, seed, 100)
            for a in enumerate_optimal_1d(inst):
                assert cross_edges(inst, a) or has_bst_property(inst, a), (n, seed)


def test_cap_refusal():
    inst = Instance1D.from_values(range(DEFAULT_CAP_1D + 1))
    with pytest.raises(CapExceededError):
        brute_force_1d(inst)
    with pytest.raises(CapExceededError):
        enumerate_optimal_1d(inst)  # the call itself refuses, before any iteration
    # explicit override is allowed
    assert brute_force_1d(Instance1D.from_values(range(4)), cap=4).optimum == 2


def test_p_family_monotone():
    # Soft sanity check: optima of the doubling family are nondecreasing.
    from interfmin.families import gen_p

    optima = [brute_force_1d(gen_p(i).instance).optimum for i in range(1, 4)]
    assert optima == sorted(optima) == [1, 2, 3]


def test_two_points_2d():
    inst = Instance2D.from_values([(0, 0), (1, 0)])
    res = brute_force_2d(inst)
    assert res.optimum == 2
    assert is_valid(inst, res.witness)


def test_triangle_2d():
    inst = Instance2D.from_values([(0, 0), (1, 0), (0, 1)])
    res = brute_force_2d(inst)
    assert res.optimum <= 3
    assert is_valid(inst, res.witness)
    assert interference(inst, res.witness) == res.optimum
    assert res.optimum == rejection_optimum_2d(inst)


def test_collinear_2d_matches_rejection():
    inst = Instance2D.from_values([(0, 0), (1, 0), (2, 0)])
    assert brute_force_2d(inst).optimum == rejection_optimum_2d(inst)


def test_cap_refusal_2d():
    inst = Instance2D.from_values([(i, 0) for i in range(DEFAULT_CAP_2D + 1)])
    with pytest.raises(CapExceededError):
        brute_force_2d(inst)


def test_2d_needs_two_points():
    with pytest.raises(InputError):
        brute_force_2d(Instance2D.from_values([(0, 0)]))
