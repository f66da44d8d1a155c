import gc
import hashlib
import random
from copy import copy
from itertools import accumulate, combinations, product

import pytest

from interfmin.dpsolve import (
    _BOUND,
    DEFAULT_CAP_DP,
    INFEASIBLE,
    DpStats,
    Range,
    _best_root,
    _collect_edges,
    _Solver,
    size_bound,
    solve_exact,
    solve_opt_search,
)
from interfmin.errors import CapExceededError
from interfmin.families import gen_p, random_instance_1d
from interfmin.model import Instance1D, has_bst_property, interference, is_valid
from interfmin.oracle import brute_force_1d, enumerate_optimal_1d


def solve_key(inst, key, bound=4):
    """The memo entry (value, choice) of one unlimited solve of key."""
    solver = _Solver(inst, bound)
    value = solver.solve(key)
    assert solver.memo[key][0] == value
    return solver.memo[key]


def exact_entries(solver):
    """The memo's entries with an exact value: key -> (value, choice)."""
    return {key: entry for key, entry in solver.memo.items() if entry[1] is not _BOUND}


def covers(solver, ball, idx):
    a, b = solver.cover[ball.center][ball.boundary]
    return a <= idx <= b


def escapes(solver, ball, lo, hi):
    a, b = solver.cover[ball.center][ball.boundary]
    return a < lo or b > hi


def test_singleton_base_cases():
    inst = Instance1D.from_values([0, 1])
    # one outgoing range centered at the root: interference |incoming| + 1
    value, _ = solve_key(inst, (0, 0, 0, (), (Range(0, 1),)))
    assert value == 1
    value, _ = solve_key(inst, (0, 0, 0, (Range(1, 0),), (Range(0, 1),)))
    assert value == 2
    # empty outgoing set: infeasible away from the global level
    value, _ = solve_key(inst, (0, 0, 0, (), ()))
    assert value == INFEASIBLE
    # more than one range at the lone point: infeasible
    inst3 = Instance1D.from_values([0, 1, 2])
    value, _ = solve_key(inst3, (1, 1, 1, (), (Range(1, 0), Range(1, 2))))
    assert value == INFEASIBLE


def test_two_points():
    inst = Instance1D.from_values([0, 1])
    res = solve_exact(inst)
    assert res.optimum == 1
    assert is_valid(inst, res.witness)


def test_global_subproblem_trace():
    # Root at the right point: the lone left child carries the connecting
    # edge's range, and that ball also covers the root.
    inst = Instance1D.from_values([0, 1])
    value, choice = solve_key(inst, (0, 1, 1, (), ()))
    assert value == 1
    assert choice is not None
    left_key, right_key = choice
    assert right_key is None
    assert left_key == (0, 0, 0, (), (Range(0, 1),))


def test_singleton_instance():
    res = solve_exact(Instance1D.from_values([5]))
    assert res.optimum == 0


def test_known_optima():
    assert solve_exact(Instance1D.from_values([0, 1, 3, 4])).optimum == 2
    assert solve_exact(gen_p(3).instance).optimum == 3
    assert solve_opt_search(gen_p(3).instance).optimum == 3


def test_matches_oracle_random():
    rng = random.Random(20250810)
    for _ in range(40):
        n = rng.randint(2, 7)
        inst = Instance1D.from_values(rng.sample(range(0, 101), n))
        dp = solve_exact(inst)
        orc = brute_force_1d(inst)
        assert dp.optimum == orc.optimum, inst.points
        assert is_valid(inst, dp.witness)
        assert interference(inst, dp.witness) == dp.optimum


def test_witness_has_bst_property():
    rng = random.Random(31337)
    for _ in range(20):
        n = rng.randint(2, 7)
        inst = Instance1D.from_values(rng.sample(range(0, 101), n))
        res = solve_exact(inst)
        assert has_bst_property(inst, res.witness)


def test_cap_monotonicity():
    rng = random.Random(606)
    for _ in range(15):
        n = rng.randint(2, 7)
        inst = Instance1D.from_values(rng.sample(range(0, 101), n))
        b = size_bound(n)
        r1 = _best_root(_Solver(inst, b), INFEASIBLE)
        r2 = _best_root(_Solver(inst, b + 1), INFEASIBLE)
        assert r1.optimum == r2.optimum
        assert r1.witness.receiver == r2.witness.receiver and r1.witness.sink == r2.witness.sink


def test_opt_search_equals_exact():
    rng = random.Random(777)
    for _ in range(15):
        n = rng.randint(2, 7)
        inst = Instance1D.from_values(rng.sample(range(0, 101), n))
        assert solve_opt_search(inst).optimum == solve_exact(inst).optimum


def test_opt_search_stops_early():
    # two points: already feasible at cap 1
    assert _best_root(_Solver(Instance1D.from_values([0, 1]), 1), 1).optimum == 1
    assert solve_opt_search(Instance1D.from_values([0, 1])).optimum == 1
    assert solve_opt_search(Instance1D.from_values([0, 1, 3, 4])).optimum == 2


def test_determinism():
    inst = Instance1D.from_values([0, 3, 4, 9, 11])
    a = solve_exact(inst)
    b = solve_exact(inst)
    assert a.witness.receiver == b.witness.receiver
    assert a.witness.sink == b.witness.sink


def unlimited_search(inst, bound):
    """Optimum, sink and receiver map of the search without a value limit:
    every root solved on one solver, lowest root first among equal values."""
    n = inst.n
    solver = _Solver(inst, bound)
    best, best_root = INFEASIBLE, None
    for root in range(n):
        value = solver.solve((0, n - 1, root, (), ()))
        if value < best:
            best, best_root = value, root
    if best_root is None:
        return INFEASIBLE, None, None
    edges = {}
    _collect_edges(solver, (0, n - 1, best_root, (), ()), edges)
    return best, best_root, edges


def assert_same_as_unlimited(inst):
    exact = solve_exact(inst)
    assert (exact.optimum, exact.witness.sink, exact.witness.receiver) == unlimited_search(
        inst, size_bound(inst.n)
    ), inst.points
    searched = solve_opt_search(inst)
    for bound in range(1, size_bound(inst.n) + 1):
        reference = unlimited_search(inst, bound)
        if reference[0] <= bound:
            break
    assert (searched.optimum, searched.witness.sink, searched.witness.receiver) == reference, inst.points


def test_pruning_keeps_optimum_and_witness():
    rng = random.Random(4104)
    for _ in range(100):
        n = rng.randint(2, 8)
        assert_same_as_unlimited(Instance1D.from_values(rng.sample(range(0, 101), n)))


def test_pruning_keeps_optimum_and_witness_n9():
    rng = random.Random(9009)
    for _ in range(3):
        assert_same_as_unlimited(Instance1D.from_values(rng.sample(range(0, 101), 9)))


def test_rising_limits_give_exact_values():
    inst = Instance1D.from_values([0, 4, 30, 35, 39, 42, 64])
    bound = size_bound(inst.n)
    reference = _Solver(inst, bound)
    for root in range(inst.n):
        reference.solve((0, inst.n - 1, root, (), ()))
    exact_memo = exact_entries(reference)
    keys = sorted(exact_memo, key=repr)[::7]
    assert any(exact_memo[k][0] == INFEASIBLE for k in keys)
    solver = _Solver(inst, bound)
    for limit in (*range(1, inst.n), INFEASIBLE):
        for key in keys:
            exact = exact_memo[key]
            got = solver.solve(key, limit)
            if exact[0] <= limit:
                assert (got, solver.memo[key][1]) == exact, (key, limit)
            else:
                assert got > limit, (key, limit)
    # some subproblems were cut on the way up
    assert any(choice is _BOUND for _, choice in solver.memo.values())


def test_dp_cap_refuses():
    inst = Instance1D.from_values(range(DEFAULT_CAP_DP + 1))
    for solver in (solve_exact, solve_opt_search):
        with pytest.raises(CapExceededError):
            solver(inst)
        with pytest.raises(CapExceededError):
            solver(Instance1D.from_values([0, 1, 3]), cap=2)
        assert solver(Instance1D.from_values([0, 1, 3]), cap=3).optimum == 2


def test_extra_candidates_cover_the_root():
    # Extras escape their side but not the interval, and the side borders the
    # root, so each one adds exactly one to the root's coverage.
    rng = random.Random(2718)
    checked = 0
    for _ in range(20):
        n = rng.randint(2, 9)
        inst = Instance1D.from_values(rng.sample(range(0, 101), n))
        solver = _Solver(inst, size_bound(n))
        for lo in range(n):
            for hi in range(lo, n):
                for root in range(lo, hi + 1):
                    sub = (lo, hi, root, (), ())
                    for side_lo, side_hi in ((lo, root - 1), (root + 1, hi)):
                        if side_lo > side_hi:
                            continue
                        for ranges in solver._extra_candidates(sub, side_lo, side_hi).values():
                            for ball in ranges:
                                assert covers(solver, ball, root), (inst.points, sub, ball)
                                checked += 1
    assert checked > 1000


def full_side_options(solver, sub, lo, hi):
    """Every (child root, outgoing set) choice for the non-empty side [lo, hi],
    built the way the DP built its whole list before it generated options by
    root coverage."""
    sub_lo, sub_hi, root, _, outgoing = sub
    inherited = [r for r in outgoing if lo <= r.center <= hi]
    candidates = solver._extra_candidates(sub, lo, hi)
    options = []
    for child_root in range(lo, hi + 1):
        if any(r.center == child_root and r.boundary != root for r in inherited):
            continue
        edge = Range(child_root, root)
        if edge not in inherited and escapes(solver, edge, sub_lo, sub_hi):
            continue
        base = set(inherited)
        base.add(edge)
        taken_centers = {r.center for r in base}
        centers = [c for c in candidates if c not in taken_centers]
        for count in range(0, min(len(centers), solver.bound - len(base)) + 1):
            for chosen in combinations(centers, count):
                for picks in product(*(candidates[c] for c in chosen)):
                    options.append((child_root, tuple(sorted(base.union(picks)))))
    return options


def read_side_options(solver, sub, lo, hi, budget):
    """The side's options covering the root at most budget times, read on
    demand the way a pair loop reads them (up to the first one above the
    budget), and whether an option above the budget exists."""
    options = []
    for option in copy(solver._side(sub, lo, hi)):
        if option[2] > budget:
            return options, True
        options.append(option)
    return options, False


def test_lazy_side_options_are_the_full_list_by_coverage():
    rng = random.Random(5150)
    sides = 0
    for _ in range(16):
        n = rng.randint(3, 7)
        inst = Instance1D.from_values(rng.sample(range(0, 101), n))
        bound = size_bound(n)
        reference = _Solver(inst, bound)
        for root in range(n):
            reference.solve((0, n - 1, root, (), ()))
        for key in sorted(exact_entries(reference), key=repr)[::2]:
            key_lo, key_hi, root = key[:3]
            for lo, hi in ((key_lo, root - 1), (root + 1, key_hi)):
                if lo > hi:
                    continue
                full = full_side_options(reference, key, lo, hi)
                coverage = {opt: sum(1 for r in opt[1] if covers(reference, r, root)) for opt in full}
                assert len(coverage) == len(full)
                options, more = read_side_options(_Solver(inst, bound), key, lo, hi, INFEASIBLE)
                assert not more
                assert len(options) == len(full)
                assert {(r, out): cov for r, out, cov, _ in options} == coverage, (inst.points, key)
                assert [cov for _, _, cov, _ in options] == sorted(coverage.values())
                # each option carries the floor of its child key without incoming ranges
                for r, out, _, floor in options:
                    assert floor == reference_floor(reference, (lo, hi, r, (), out)), (key, r, out)
                # child roots ascend within each coverage level
                levels = [(cov, r) for r, _, cov, _ in options]
                assert levels == sorted(levels), (inst.points, key)
                top = max(coverage.values(), default=-1)
                growing = _Solver(inst, bound)  # one cache, budgets up then down
                for budget in (*range(-2, top + 2), *range(top + 1, -3, -1)):
                    want = {opt for opt, cov in coverage.items() if cov <= budget}
                    fresh = _Solver(inst, bound)
                    for solver in (fresh, growing):
                        options, more = read_side_options(solver, key, lo, hi, budget)
                        assert len(options) == len(want)
                        assert {(r, out) for r, out, _, _ in options} == want, (key, budget)
                        assert more == any(cov > budget for cov in coverage.values())
                    # on demand: at most one option past the budget is built
                    assert fresh.stats.side_options <= len(want) + 1, (key, budget)
                sides += 1
    assert sides > 400


def test_live_side_options_are_the_full_list_up_to_the_pass_limit():
    # At pass limit L a stream holds the options of the full list whose floor
    # is at most L, in the order of the full list stably sorted by (coverage,
    # child root), then one option past every ceiling if it dropped any.
    rng = random.Random(5150)
    sides = dropped = 0
    for _ in range(16):
        n = rng.randint(3, 7)
        inst = Instance1D.from_values(rng.sample(range(0, 101), n))
        bound = size_bound(n)
        reference = _Solver(inst, bound)
        optimum = min(reference.solve((0, n - 1, root, (), ())) for root in range(n))
        for key in sorted(exact_entries(reference), key=repr)[::2]:
            key_lo, key_hi, root = key[:3]
            for lo, hi in ((key_lo, root - 1), (root + 1, key_hi)):
                if lo > hi:
                    continue
                full = []
                for r, out in full_side_options(reference, key, lo, hi):
                    coverage = sum(1 for ball in out if covers(reference, ball, root))
                    full.append((r, out, coverage, reference_floor(reference, (lo, hi, r, (), out))))
                full.sort(key=lambda option: (option[2], option[0]))
                for limit in range(1, optimum + 1):
                    solver = _Solver(inst, bound)
                    solver.pass_limit = limit
                    options, _ = read_side_options(solver, key, lo, hi, INFEASIBLE)
                    want = [option for option in full if option[3] <= limit]
                    tail = [(None, (), INFEASIBLE, INFEASIBLE)] if len(want) < len(full) else []
                    assert options == want + tail, (inst.points, key, limit)
                    assert solver.stats.side_options == len(want)
                    assert solver.stats.dropped_options > 0 if tail else solver.stats.dropped_options == 0
                    dropped += bool(tail)
                sides += 1
    assert sides > 400 and dropped > 100


# sha256 over (n, seed, optimum, sink, receiver map) from solve_exact and
# solve_opt_search on random_instance_1d(n, seed, 100), n = 2..9, seeds 1..5,
# recorded before splits were visited in order of root coverage.
DP_WITNESS_SHA256 = "f3f8a2092e751bba068b23d509f0f1ecb2d61f935828470d25b2b9bbac828083"


def test_dp_witnesses_golden_digest():
    digest = hashlib.sha256()
    for n in range(2, 10):
        for seed in range(1, 6):
            inst = random_instance_1d(n, seed, 100)
            for solver in (solve_exact, solve_opt_search):
                res = solver(inst)
                record = (n, seed, res.optimum, res.witness.sink, sorted(res.witness.receiver.items()))
                digest.update(repr(record).encode())
    assert digest.hexdigest() == DP_WITNESS_SHA256


# Witnesses on random_instance_1d(9, seed, 100) recorded before splits were
# visited in order of root coverage.  Both need a split whose root coverage
# equals the best value so far to win the tie-break on its encoding.
TIE_BREAK_WITNESSES = {
    12: (3, 2, {0: 2, 1: 0, 3: 2, 4: 3, 5: 4, 6: 5, 7: 6, 8: 7}),
    54: (3, 3, {0: 3, 1: 0, 2: 1, 4: 6, 5: 4, 6: 3, 7: 6, 8: 7}),
}


def test_coverage_ties_keep_the_witness():
    for seed, expected in TIE_BREAK_WITNESSES.items():
        inst = random_instance_1d(9, seed, 100)
        for solver in (solve_exact, solve_opt_search):
            res = solver(inst)
            assert (res.optimum, res.witness.sink, res.witness.receiver) == expected, (seed, solver.__name__)


# sha256 over (label, optimum, sink, receiver map) from solve_exact and
# solve_opt_search on instances full of coverage ties: evenly spaced points
# (n = 2..14), the doubling family gen_p(1..3) and random_instance_1d(n, seed,
# 3n) (n = 9..12, seeds 1..5); recorded before ties were settled ahead of
# building child keys.
TIE_HEAVY_SHA256 = "6a1bb4da6c6749a930c2f4e579efc6b6b8f8b597b79374a240a5e5308dd70421"


def test_tie_heavy_witnesses_golden_digest():
    cases = [(("line", n), Instance1D.from_values(range(n))) for n in range(2, 15)]
    cases += [(("p", i), gen_p(i).instance) for i in range(1, 4)]
    cases += [
        (("random", n, seed), random_instance_1d(n, seed, 3 * n))
        for n in range(9, 13)
        for seed in range(1, 6)
    ]
    digest = hashlib.sha256()
    for label, inst in cases:
        for solver in (solve_exact, solve_opt_search):
            res = solver(inst, cap=inst.n)
            record = (label, res.optimum, res.witness.sink, sorted(res.witness.receiver.items()))
            digest.update(repr(record).encode())
    assert digest.hexdigest() == TIE_HEAVY_SHA256


@pytest.mark.parametrize("n, seeds", [(10, range(1, 7)), (11, range(1, 5))])
def test_matches_oracle_n10_n11(n, seeds):
    for seed in seeds:
        inst = random_instance_1d(n, seed, 100)
        optimum = brute_force_1d(inst, cap=n).optimum
        for solver in (solve_exact, solve_opt_search):
            stats = DpStats()
            res = solver(inst, stats, cap=n)
            assert res.optimum == optimum, (n, seed, solver.__name__)
            assert is_valid(inst, res.witness)
            assert interference(inst, res.witness) == optimum
            assert stats.split_pairs > 0


def reference_floor(solver, sub):
    """The coverage floor point by point: the key's incoming and outgoing
    ranges plus the least ball of every point that is neither the root nor an
    outgoing range's center, counted on a fresh difference array."""
    lo, hi, root, incoming, outgoing = sub
    x = solver.instance.ints
    spans = [solver.cover[r.center][r.boundary] for r in (*incoming, *outgoing)]
    owners = {r.center for r in outgoing} | {root}
    for p in range(lo, hi + 1):
        if p not in owners:
            q = p + 1 if p == lo or (p < hi and x[p + 1] - x[p] < x[p] - x[p - 1]) else p - 1
            spans.append(solver.cover[p][q])
    depth = [0] * (hi - lo + 2)
    for a, b in spans:
        depth[max(a, lo) - lo] += 1
        depth[min(b, hi) - lo + 1] -= 1
    return max(accumulate(depth))


def test_coverage_floor_is_a_lower_bound():
    # The floor read off a key may not exceed the exact value an unlimited
    # search memoizes for it; many inner keys meet it exactly.
    # The floor equals the point-by-point reference on every key, those the
    # deepening search cut by their floor included.  Pairs the deepening
    # search gated on an option's floor, and the options it dropped, count as
    # cuts too: the floors of their child keys passed the limit before those
    # keys were built.  80 instances: with roots refuted by their bound, the
    # first 40 read 630 cuts (1134 before).
    rng = random.Random(8128)
    keys = tight = cut = 0
    for _ in range(80):
        n = rng.randint(2, 8)
        coord_max = rng.choice((3 * n, 100))
        inst = Instance1D.from_values(rng.sample(range(0, coord_max + 1), n))
        solver = _Solver(inst, size_bound(n))
        for root in range(n):
            solver.solve((0, n - 1, root, (), ()))
        for key, (value, _) in exact_entries(solver).items():
            floor = solver.floor(key)
            assert floor == reference_floor(solver, key), (inst.points, key)
            assert floor <= value, (inst.points, key)
            keys += 1
            tight += floor == value and key[0] < key[1]
        deepening = _Solver(inst, size_bound(n))
        for limit in range(1, n):
            if _best_root(deepening, limit) is not None:
                break
        for key, (_, choice) in deepening.memo.items():
            assert deepening.floor(key) == reference_floor(deepening, key), (inst.points, key)
            cut += choice is _BOUND
        cut += deepening.stats.gated_pairs + deepening.stats.dropped_options
    assert keys > 4000 and tight > 1000 and cut > 1000


def deepened_root_value(inst, root):
    """The value of one root's key: the first limit of a deepening search on
    that key alone that the key meets."""
    n = inst.n
    solver = _Solver(inst, size_bound(n))
    for limit in range(1, n):
        solver._side_cache.clear()
        solver.pass_limit = limit
        value = solver.solve((0, n - 1, root, (), ()), limit)
        if value <= limit:
            return value
    return INFEASIBLE


def test_root_bounds_are_lower_bounds():
    # A root whose bound passes the limit is skipped, so no bound may pass its
    # key's value.  The least bound is where the deepening starts; it is the
    # optimum on every instance here.
    tight = cases = 0
    for n in range(2, 13):
        for seed in range(1, 9):
            inst = random_instance_1d(n, seed, 100)
            bounds = _Solver(inst, size_bound(n)).root_bounds
            values = [deepened_root_value(inst, root) for root in range(n)]
            assert all(bound <= value for bound, value in zip(bounds, values)), (n, seed, bounds, values)
            tight += min(bounds) == min(values)
            cases += 1
    assert (cases, tight) == (88, 88)


def test_root_bound_of_every_optimal_sink():
    # Every optimal tree the oracle enumerates sinks at a root whose bound is
    # at most the tree's interference.
    trees = 0
    for n in range(2, 10):
        for seed in range(1, 11):
            inst = random_instance_1d(n, seed, 100)
            bounds = _Solver(inst, size_bound(n)).root_bounds
            for tree in enumerate_optimal_1d(inst, cap=n):
                assert bounds[tree.sink] <= interference(inst, tree), (n, seed, tree.sink)
                trees += 1
    assert trees > 10000


@pytest.mark.parametrize("n, seed", [(12, 7), (15, 4)])
def test_cut_keys_passed_the_limit(n, seed):
    # A computed key goes to the lower bounds only when a pair's coverage, an
    # option's floor or a child's value passed the limit, so at the pass limit
    # each side offered an option or dropped one (its stream then ends in an
    # option past every ceiling); a side without either makes the key
    # infeasible at every limit.
    inst = random_instance_1d(n, seed, 100)
    solver = _Solver(inst, size_bound(n))
    for limit in range(1, n):
        if _best_root(solver, limit) is not None:
            break
    computed = [key for key, (bound, choice) in solver.memo.items() if choice is _BOUND and solver.floor(key) < bound]
    assert computed
    dropped = 0
    for key in computed:
        lo, hi, root = key[:3]
        at_limit = _Solver(inst, size_bound(n))
        at_limit.pass_limit = solver.memo[key][0] - 1
        for side in (at_limit._side(key, lo, root - 1), at_limit._side(key, root + 1, hi)):
            options = list(copy(side))
            assert options, (n, seed, key)
            dropped += options[-1][2] == INFEASIBLE
    assert dropped


def test_deepening_subproblem_gate_n12():
    # Hardware-independent: 60489 subproblems before the coverage floor.
    inst = random_instance_1d(12, 7, 100)
    stats, searched_stats = DpStats(), DpStats()
    exact = solve_exact(inst, stats, cap=12)
    searched = solve_opt_search(inst, searched_stats, cap=12)
    assert stats.subproblems <= 1000
    assert (searched.optimum, searched.witness.sink, searched.witness.receiver) == (
        exact.optimum,
        exact.witness.sink,
        exact.witness.receiver,
    )
    assert searched_stats == stats


# sha256 over (n, seed, subproblems, memo_hits, split_pairs) from solve_exact
# and solve_opt_search on random_instance_1d(n, seed, 100), n = 2..12, seeds
# 1..5; re-recorded when split pairs were gated on each side option's floor
# (a518d9fe7fa6eacdf4fde109f488c29115421ab831bfe52961af27a13974e4c5 before the
# gate, recorded before side options were built on demand), and again when
# roots were refuted by their bound and deepening started at the least bound
# (58b42bcd2225a7db97386e9a46754f87224193a425e791aa04241c52dc4075ed before),
# and again when a split loop settled every pair on its encoding once the
# best value met the key's floor
# (e780bbabcb250e723a1266e7ee576fdc2c9382ee5797bbd0c9b7e5ee68d2f0c8 before).
DP_COUNTERS_SHA256 = "c1c4948791df4f5a0e60b22aa141ba9d8590a9ae073ac9d78ba09adc6f41077c"


def test_dp_search_counters_golden_digest():
    digest = hashlib.sha256()
    for n in range(2, 13):
        for seed in range(1, 6):
            inst = random_instance_1d(n, seed, 100)
            for solver in (solve_exact, solve_opt_search):
                stats = DpStats()
                solver(inst, stats, cap=n)
                digest.update(repr((n, seed, stats.subproblems, stats.memo_hits, stats.split_pairs)).encode())
    assert digest.hexdigest() == DP_COUNTERS_SHA256


def test_side_options_built_on_demand_n15():
    # Hardware-independent: 204126 options when every option of a coverage
    # level was built at once.
    stats = DpStats()
    assert solve_exact(random_instance_1d(15, 4, 100), stats, cap=15).optimum == 4
    assert stats.side_options <= 40000


def test_pairs_gated_below_the_pass_limit():
    # A pair is still gated when an option's floor passes a ceiling below the
    # pass limit.  This was checked on random_instance_1d(15, 4, 100) until
    # its two gated pairs were settled on their encoding ahead of the gate;
    # here the gate fires 1204 times.
    stats = DpStats()
    assert solve_exact(random_instance_1d(40, 5, 100), stats, cap=40).optimum == 4
    assert stats.gated_pairs > 0


def test_splits_settled_at_the_keys_floor():
    # Hardware-independent: once a key's best split meets the key's floor,
    # every later split at best ties, so one that loses the tie-break on its
    # encoding is settled before its child keys are built.  51 split pairs
    # when only splits at the best value's coverage were settled.
    stats = DpStats()
    assert solve_exact(random_instance_1d(16, 1, 100), stats, cap=16).optimum == 3
    assert stats.settled_pairs > 0
    assert stats.split_pairs < 51


def test_live_side_options_reach_n24():
    # Hardware-independent: 624997 options, 97.9% of them with a floor above
    # the optimum, when every option a split loop reached was built.
    stats = DpStats()
    assert solve_exact(random_instance_1d(24, 7, 100), stats, cap=24).optimum == 4
    assert stats.side_options <= 5000


def test_dp_solvers_leave_nothing_for_the_cycle_collector():
    # The side caches hold tees over option generators; a generator that
    # refers to its solver would leave every solver in a reference cycle.
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for seed in range(1, 6):
            inst = random_instance_1d(12, seed, 100)
            for solver in (solve_exact, solve_opt_search):
                solver(inst, cap=12)
                assert gc.collect() == 0, (seed, solver.__name__)
    finally:
        if enabled:
            gc.enable()
