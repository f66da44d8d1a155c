"""Exact 1D solver: dynamic programming over (interval, root, incoming ranges,
outgoing ranges) subproblems.

A subproblem asks for the optimal in-tree on a consecutive interval with a
fixed root, given the set of transmission ranges that enter the interval from
outside (incoming) and the set of ranges centered inside that must escape it,
plus the root's own future edge (outgoing).  Splitting at the root and
enumerating consistent child subproblems yields the optimum; memoization keys
on the canonical encoding.  Because optimal instances never need more than
ceil(log2 n) + 2 ranges covering a boundary point, range sets are capped at
that size, which keeps the subproblem space quasi-polynomial.

The search is branch and bound under a value limit L: a subproblem returns
its exact value if that is at most L, else some lower bound above L.  One
memo holds both as plain pairs: (value, choice) once the value is exact, the
choice being the child keys (None for a leaf or an infeasible key), and
(bound, _BOUND) for a lower bound, which answers later calls with a limit
below the bound.  Before computing a key the solver reads a coverage floor
off it: the most any point of the interval is covered by the incoming and
outgoing ranges and by the least ball each other non-root point could own
(the one reaching its nearest neighbour in the interval).  The least balls'
difference array is kept once per (lo, hi); a key's floor copies it, takes
out the balls of the root and of the outgoing ranges' centers and adds the
key's own ranges.  A key whose floor exceeds L goes to the memo as a lower
bound uncomputed.  `solve_exact` and `solve_opt_search` are one search: it
deepens the limit on one solver under the full size cap, and the first limit
some root meets is the optimum.  Each root has a bound, read once per solve:
its key's floor M, plus one if some proper single-linkage cluster of points
without the root has, for every member, the ball to the nearest point outside
the cluster covering a point at M outside the member's least ball (some
member's edge leaves the cluster; every other point owns at least its least
ball).  Deepening starts at the least bound, and a pass skips every root whose
bound exceeds its limit.

Splits are visited in ascending root coverage.  Every extra range a side may
add escapes the side but not the interval, and a ball covers a contiguous
run of indices around its center, so every extra covers the root: an
option's root coverage is that of its base set (inherited ranges plus the
edge to the root) plus its number of extras.  Each side's options form a
stream, in ascending coverage level and ascending child root within a level,
cached as a replayable tee that pair loops read through copies, so an option
is built on its first read and kept.  Each option carries the floor of its
child key without incoming ranges (they only add coverage), and a stream
holds only the options whose floor is at most the limit of the deepening
pass that built it; extras only raise the floor, so each grows a kept option
by one extra.  A center's candidate balls are nested and listed smallest
first, so one scan per (parent, center) yields its live picks and stops at
the first dead one.  Once a pair's root coverage exceeds the ceiling (the
limit or the best value so far), the pairs after it are not read.  A pair
whose root coverage equals the best value, or any pair once the best value
meets the key's floor (every split's value is at least the floor), can only
win the tie-break on the encoding, so it is settled before any child key is
built: on the left child root and key or, without a left side, on the right
child root and outgoing set; a tie with a larger left root ends the inner
loop, and so does one with a larger right root at the ceiling.  Only then is
a pair with an option floor above the ceiling skipped (gated).  A gated pair,
a dropped option (its stream ends in an option past every ceiling) or a pair
or a child value cut at the limit marks the result as a lower bound rather
than infeasible; a side with no option makes the key infeasible at every
limit.  A split whose child value exceeds the best so far (minus one if it
would lose the tie-break on its encoding) is skipped too.  The winner is the
least (value, encoding) over the feasible splits, and distinct splits have
distinct encodings, so it does not depend on the visiting order: an
unlimited search picks it too.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass
from itertools import accumulate, tee
from operator import sub
from typing import Iterator

from .errors import InputError, InvariantError
from .model import (
    SINKTREE1D,
    Instance1D,
    Range,
    ReceiverAssignment,
    cover_table,
    verify_witness,
)
from .oracle import OracleResult, _check_cap

Key = tuple  # (lo, hi, root, incoming tuple, outgoing tuple)

# Value of an infeasible subproblem: an integer above every interference value
# (at most n).
INFEASIBLE = 1 << 62

# The choice of a memo entry whose value is only a lower bound.
_BOUND = "bound"

# Largest n the DP solvers accept by default, so none runs for seconds: the
# worst of both solvers together over random seeds 1-10 and LogLower (the
# worst at each n) stays under 1 s.  Six runs (2 cores, Python 3.11) read at
# most 0.87 s at n = 21, and 0.78-0.995 s at n = 22.
DEFAULT_CAP_DP = 21


@dataclass
class DpStats:
    subproblems: int = 0  # keys computed, again under each larger limit; not those cut by a floor
    memo_hits: int = 0
    split_pairs: int = 0  # splits whose child subproblems were assembled
    gated_pairs: int = 0  # splits skipped because an option's floor passed the ceiling
    side_options: int = 0  # side options read by split loops
    dropped_options: int = 0  # side options built and dropped: their floor passed the pass limit
    refuted_roots: int = 0  # roots skipped in a pass because their bound passed the limit
    settled_pairs: int = 0  # splits skipped as at best a tie that loses on its encoding


# The one option of an empty side: no child, no ranges, no coverage, no floor.
_NO_SIDE = tee([(None, (), 0, 0)], 1)[0]


def _put(depth: list[int], lo: int, hi: int, span, ball: tuple[int, int]) -> None:
    """On the difference array of [lo, hi], take out the least ball at
    offsets span (unless None) and add ball, an index range, clipped."""
    if span is not None:
        a, b = span
        depth[a] -= 1
        depth[b] += 1
    a, b = ball
    depth[a - lo if a > lo else 0] += 1
    depth[b - lo + 1 if b < hi else -1] -= 1


def _option_stream(
    stats: DpStats, cover, lo: int, hi: int, held_depth: list[int], spans, roots: list, candidates, limit: int
):
    """(child root, outgoing set, root coverage, floor) for every option of
    the side [lo, hi] grown from roots with a floor at most limit, by coverage
    level and counted in stats as read, then one past every ceiling if any was
    dropped.  A level lists each child root's options in the lexicographic
    order of their (center, pick position) sequences, a center's picks
    smallest first.  The floor is that of the option's child key without
    incoming ranges; a pick only adds one on its ball outside its center's
    least ball."""
    live = {}  # child root -> its last level's live pick sets: (picks, their last center's index, depth)
    dropped = 0
    top = max((root[2] + root[4] for root in roots), default=-1)
    for level in range(top + 1):
        for child_root, base, base_cov, centers, most, edge in roots:
            count = level - base_cov
            if count == 0:
                depth = held_depth.copy()
                if edge is not None:  # else the held edge already replaced the ball
                    _put(depth, lo, hi, spans[child_root - lo], cover[child_root][edge.boundary])
                floor = max(accumulate(depth))
                if floor > limit:
                    dropped += 1
                    stats.dropped_options += 1
                    continue
                live[child_root] = [((), -1, depth)]
                stats.side_options += 1
                yield child_root, base, level, floor
            elif 0 < count <= most and child_root in live:
                parents, grown = live[child_root], []
                live[child_root] = grown
                # A live set less its last pick is live: a pick only raises the floor.
                for picks, last, depth in parents:
                    profile = list(accumulate(depth))
                    for i in range(last + 1, len(centers)):
                        (a0, b0), row, options = spans[centers[i] - lo], cover[centers[i]], candidates[centers[i]]
                        for j, pick in enumerate(options):
                            a, b = row[pick.boundary]
                            if limit in profile[max(a, lo) - lo : a0] or limit in profile[b0 : min(b, hi) - lo + 1]:
                                dropped += len(options) - j
                                stats.dropped_options += len(options) - j
                                break
                            picked = depth.copy()
                            _put(picked, lo, hi, (a0, b0), (a, b))
                            grown.append((picks + (pick,), i, picked))
                            stats.side_options += 1
                            # picks are centered off the base's centers: no duplicates
                            yield child_root, tuple(sorted(base + picks + (pick,))), level, max(accumulate(picked))
    if dropped:
        yield None, (), INFEASIBLE, INFEASIBLE  # a split loop that reaches it is cut


class _Solver:
    def __init__(self, instance: Instance1D, bound: int, stats: DpStats | None = None):
        self.instance = instance
        self.bound = bound
        # memo[key] = (value, choice): the exact value with its split (None
        # for a leaf or an infeasible key), or (bound, _BOUND) when the value
        # is only known to be at least bound.
        self.memo: dict[Key, tuple] = {}
        self.stats = DpStats() if stats is None else stats
        # cover[c][b] = inclusive index range covered by the ball (c, b); all
        # later geometry runs on these integer intervals.
        self.cover = cover_table(instance)
        # Each side's options as a tee that is never advanced: pair loops read
        # copies of it, so an option is built on its first read and kept.  Only
        # options with floors up to pass_limit, the deepening limit, are built.
        self._side_cache: dict[tuple, Iterator] = {}
        self.pass_limit = INFEASIBLE
        self._profiles: dict[tuple[int, int], tuple[list[int], list[tuple[int, int]]]] = {}
        # root_bounds[s]: a lower bound on every tree sinking at s.
        self.root_bounds = self._root_bounds()

    def solve(self, key: Key, limit: int = INFEASIBLE) -> int:
        """The exact value if it is at most limit, else a lower bound above
        limit."""
        hit = self.memo.get(key)
        if hit is not None and (hit[1] is not _BOUND or hit[0] > limit):
            self.stats.memo_hits += 1
            return hit[0]
        floor = self.floor(key)
        if floor > limit:
            self.memo[key] = (floor, _BOUND)
            return floor
        self.stats.subproblems += 1
        value, choice, cut = self._compute(key, limit, floor)
        if value == INFEASIBLE and cut:
            value, choice = limit + 1, _BOUND
        self.memo[key] = (value, choice)
        return value

    def floor(self, key: Key) -> int:
        """A lower bound on the subproblem's value: the most any point of the
        interval is covered by the incoming and outgoing ranges and the least
        balls of the other points.  A point that is not the root and owns no
        outgoing range has a ball that stays in the interval and reaches its
        parent there, so it covers at least the ball to its nearest neighbour
        in the interval."""
        lo, hi, root, incoming, outgoing = key
        depth, spans = self._least_balls(lo, hi)
        depth = depth.copy()
        cover = self.cover
        a, b = spans[root - lo]
        depth[a] -= 1
        depth[b] += 1
        for r in outgoing:  # outgoing ranges have distinct centers
            _put(depth, lo, hi, None if r.center == root else spans[r.center - lo], cover[r.center][r.boundary])
        for c, q in incoming:
            _put(depth, lo, hi, None, cover[c][q])
        return max(accumulate(depth))

    def _least_balls(self, lo: int, hi: int) -> tuple[list[int], list[tuple[int, int]]]:
        """The difference array of every point's least ball on [lo, hi], and
        each ball's clipped span as difference-array offsets.  A lone point's
        least ball is its zero ball; it is the root and never counted."""
        profile = self._profiles.get((lo, hi))
        if profile is None:
            x = self.instance.ints
            depth = [0] * (hi - lo + 2)
            spans = []
            for p in range(lo, hi + 1):
                if lo == hi:
                    q = p
                elif p == lo or (p < hi and x[p + 1] - x[p] < x[p] - x[p - 1]):
                    q = p + 1
                else:
                    q = p - 1
                a, b = self.cover[p][q]
                a, b = max(a, lo) - lo, min(b, hi) - lo + 1
                depth[a] += 1
                depth[b] -= 1
                spans.append((a, b))
            profile = self._profiles[(lo, hi)] = (depth, spans)
        return profile

    def _root_bounds(self) -> list[int]:
        """A lower bound on the value of each root's key: its floor M, plus one
        if some proper single-linkage cluster without the root has, for every
        member, the ball to the nearest point outside the cluster covering a
        point at M outside the member's least ball.  Some member's edge leaves
        the cluster, and every other point owns at least its least ball."""
        n, x, cover = self.instance.n, self.instance.ints, self.cover
        depth, spans = self._least_balls(0, n - 1)
        profile = list(accumulate(depth))
        top = max(profile)
        at_top = sum(1 << p for p in range(n) if profile[p] == top)
        near = at_top | sum(1 << p for p in range(n) if profile[p] == top - 1)
        least = [(1 << b) - (1 << a) for a, b in spans]
        # Merging the gaps shortest first builds the clusters as intervals,
        # kept by their ends; the last merge makes the whole line.  A cluster
        # is kept as its mask and, per member, the points at top or top - 1
        # that its exit ball adds to its least ball; a cluster with a member
        # that adds none of them raises no bound.
        first, last = list(range(n)), list(range(n))
        clusters = []
        for _, g in sorted(zip(map(sub, x[1:], x), range(n - 1)))[:-1]:
            i, j = first[g], last[g + 1]
            last[i], first[j] = j, i
            exits = []
            for a in range(i, j + 1):
                q = i - 1 if j == n - 1 or (i and x[a] - x[i - 1] <= x[j + 1] - x[a]) else j + 1
                c, d = cover[a][q]
                extra = (1 << d + 1) - (1 << c) & near & ~least[a]
                if not extra:
                    break
                exits.append(extra)
            else:
                clusters.append(((1 << j + 1) - (1 << i), exits))
        bounds = []
        for s in range(n):
            hit = at_top & ~least[s]  # the points at the floor, without the root's least ball
            floor = top if hit else top - 1
            if not hit:
                hit = at_top | near & ~least[s]
            bounds.append(floor + any(not mask >> s & 1 and all(e & hit for e in exits) for mask, exits in clusters))
        return bounds

    def _compute(self, key: Key, limit: int, floor: int) -> tuple[int, tuple | None, bool]:
        """(value, choice, cut): the best split's value if it is at most
        limit (else INFEASIBLE) and its child keys, and whether a split was
        cut off at the limit (rather than found infeasible).  Every split's
        value is at least the key's floor."""
        lo, hi, root, incoming, outgoing = key
        root_ranges = [r for r in outgoing if r.center == root]
        if len(root_ranges) > 1:
            return INFEASIBLE, None, False  # the root owns a single ball

        if lo == hi:
            # Leaf: the only admissible outgoing set is the root's parent edge.
            if len(outgoing) == 1 and root_ranges:
                return len(incoming) + 1, None, False
            return INFEASIBLE, None, False

        cover = self.cover
        base_cover = len(root_ranges)
        for r in incoming:
            a, b = cover[r.center][r.boundary]
            base_cover += a <= root <= b
        left = self._side(key, lo, root - 1)
        right = self._side(key, root + 1, hi)
        # Probe left first: a side with no option leaves the other unread.
        r_first = next(copy(left), None) and next(copy(right), None)
        if r_first is None:
            return INFEASIBLE, None, False
        r_least = r_first[2]

        choice = best_enc = None
        cut = False
        ceiling = limit  # no split above min(limit, best value) can win
        for l_root, l_out, l_cov, l_floor in copy(left):
            if base_cover + l_cov + r_least > ceiling:
                cut = True
                break
            for r_root, r_out, r_cov, r_floor in copy(right):
                value = base_cover + l_cov + r_cov
                if value > ceiling:
                    cut = True
                    break
                # Once the best value meets the key's floor, every split at best ties.
                tie = choice is not None and (value == ceiling or ceiling == floor)
                if tie:
                    # Settle the tie on the encoding before building keys.  A
                    # larger lead loses every later tie of this inner loop,
                    # except that a lone right side's next level restarts its roots.
                    best_left, best_right = choice
                    if best_left is None:
                        lead, best_lead = r_root, best_right[2]
                    else:
                        lead, best_lead = l_root, best_left[2]
                    if lead > best_lead or (lead == best_lead and best_left is None and r_out > best_right[4]):
                        self.stats.settled_pairs += 1
                        if lead > best_lead and (best_left is not None or value == ceiling):
                            break
                        continue
                if l_floor > ceiling or r_floor > ceiling:
                    # each child key of the option has at least its floor
                    self.stats.gated_pairs += 1
                    cut = True
                    continue
                self.stats.split_pairs += 1
                left_key = self._child_key(incoming, lo, root - 1, l_root, l_out, r_out, root_ranges)
                if left_key is False:
                    continue
                if tie and left_key is not None and left_key > best_left:
                    self.stats.settled_pairs += 1
                    continue
                right_key = self._child_key(incoming, root + 1, hi, r_root, r_out, l_out, root_ranges)
                if right_key is False:
                    continue
                enc = (left_key or (), right_key or ())
                # Ties go to the smallest encoding, so a split that would lose
                # the tie must beat the best value outright.
                cap = ceiling if best_enc is None or enc < best_enc else ceiling - 1
                for child_key in (left_key, right_key):
                    if value > cap:
                        break
                    if child_key is not None:
                        value = max(value, self.solve(child_key, cap))
                if value == INFEASIBLE:
                    continue
                if value > cap:
                    # Only an infeasible result needs to know about cuts, and
                    # then every cap was the full limit.
                    cut = True
                    continue
                choice, best_enc, ceiling = (left_key, right_key), enc, value
        return (INFEASIBLE if choice is None else ceiling), choice, cut

    def _side(self, key: Key, lo: int, hi: int) -> Iterator:
        """The cached option stream of the side [lo, hi] of the key's
        interval, grown from per-child-root data: its base set (inherited
        ranges plus the edge to the root), the base set's coverage of the
        root, the free centers, the most extras the size cap allows and the
        edge if new.  Read it through a copy."""
        if lo > hi:
            return _NO_SIDE
        sub_lo, sub_hi, root, _, outgoing = key
        inherited = tuple(r for r in outgoing if lo <= r.center <= hi)
        cache_key = (lo, hi, root, sub_lo, sub_hi, inherited)
        side = self._side_cache.get(cache_key)
        if side is not None:
            return side
        cover = self.cover
        candidates = self._extra_candidates(key, lo, hi)
        held = set(inherited)
        held_depth, spans = self._least_balls(lo, hi)
        held_depth = held_depth.copy()  # the held ranges in place of their centers' least balls
        held_cov = 0
        for c, q in held:
            a, b = cover[c][q]
            held_cov += a <= root <= b
            _put(held_depth, lo, hi, spans[c - lo], (a, b))
        taken = {r.center for r in held}
        roots = []
        for child_root in range(lo, hi + 1):
            edge = Range(child_root, root)
            if child_root in taken:
                if any(r.center == child_root and r.boundary != root for r in held):
                    continue  # the child root's single ball is its edge to the root
            else:
                a, b = cover[child_root][root]
                if a < sub_lo or b > sub_hi:
                    continue  # a ball leaving the interval must be declared upward
            base = tuple(sorted({*held, edge}))
            base_cov = held_cov + (edge not in held)  # the edge covers the root
            centers = [c for c in candidates if c not in taken and c != child_root]
            most = min(len(centers), self.bound - len(base))
            if most >= 0:
                roots.append((child_root, base, base_cov, centers, most, None if edge in held else edge))
        stream = _option_stream(self.stats, cover, lo, hi, held_depth, spans, roots, candidates, self.pass_limit)
        side = self._side_cache[cache_key] = tee(stream, 1)[0]
        return side

    def _extra_candidates(self, key: Key, lo: int, hi: int) -> dict[int, list[Range]]:
        """Optional extra ranges for the side [lo, hi], by center in ascending
        order: balls of future edges inside this side that reach into the rest
        of the interval but never leave it.  A center's balls are nested,
        listed smallest first on both sides."""
        sub_lo, sub_hi = key[:2]
        candidates: dict[int, list[Range]] = {}
        for center in range(lo, hi + 1):
            row = self.cover[center]
            # the root borders the side: only a boundary past the center, away from the root, reaches it
            for boundary in range(center - 1, lo - 1, -1) if lo == sub_lo else range(center + 1, hi + 1):
                a, b = row[boundary]
                if (a < lo or b > hi) and sub_lo <= a and b <= sub_hi:
                    candidates.setdefault(center, []).append(Range(center, boundary))
        return candidates

    def _child_key(self, incoming, lo, hi, child_root, child_out, sibling_out, root_ranges):
        """Assemble the child subproblem, or False if it violates the size cap."""
        if child_root is None:
            return None
        cover = self.cover
        reached = set()
        for r in (*incoming, *sibling_out, *root_ranges):
            a, b = cover[r.center][r.boundary]
            if a <= hi and lo <= b:
                reached.add(r)
        if len(reached) + len(child_out) > self.bound:
            return False
        return (lo, hi, child_root, tuple(sorted(reached)), child_out)


def size_bound(n: int) -> int:
    """Range-set size cap: ceil(log2 n) + 2."""
    if n < 1:
        raise InputError("instance size must be at least 1")
    return ((n - 1).bit_length() if n > 1 else 0) + 2


def _collect_edges(solver: _Solver, key: Key, edges: dict[int, int]) -> None:
    choice = solver.memo[key][1]
    if choice is None:
        return
    root = key[2]
    for child_key in choice:
        if child_key is not None:
            edges[child_key[2]] = root
            _collect_edges(solver, child_key, edges)


def _best_root(solver: _Solver, limit: int) -> OracleResult | None:
    """The least value over all roots if it is at most limit, with a verified
    witness rooted at the lowest root attaining it; None otherwise."""
    n = solver.instance.n
    if limit > solver.pass_limit:
        solver._side_cache.clear()
    solver.pass_limit = limit
    best, best_key = INFEASIBLE, None
    for root, bound in enumerate(solver.root_bounds):
        if bound > limit:  # no tree sinking at root meets the limit
            solver.stats.refuted_roots += 1
            continue
        key = (0, n - 1, root, (), ())
        value = solver.solve(key, limit)
        if value <= limit and value != INFEASIBLE:
            # a later root wins only with a smaller value
            best, best_key, limit = value, key, value - 1
    if best_key is None:
        return None
    edges: dict[int, int] = {}
    _collect_edges(solver, best_key, edges)
    witness = ReceiverAssignment(SINKTREE1D, edges, best_key[2])
    verify_witness(solver.instance, witness, best)
    return OracleResult(best, witness)


def _deepen(instance: Instance1D, stats: DpStats | None, cap: int, label: str) -> OracleResult:
    """Deepen the value limit from the least root bound on one solver under
    the full size cap; the first limit some root meets is the optimum."""
    _check_cap(instance.n, cap, label)
    if instance.n == 1:
        return OracleResult(0, ReceiverAssignment(SINKTREE1D, {}, 0))
    solver = _Solver(instance, size_bound(instance.n), stats)
    # Interference never exceeds the n - 1 balls.
    for limit in range(min(solver.root_bounds), instance.n):
        result = _best_root(solver, limit)
        if result is not None:
            return result
    raise InvariantError("no feasible decomposition within the size cap")


def solve_exact(
    instance: Instance1D, stats: DpStats | None = None, cap: int = DEFAULT_CAP_DP
) -> OracleResult:
    """Optimum interference with a verified witness, over every root choice.
    Refuses instances with more than cap points."""
    return _deepen(instance, stats, cap, "1D DP")


def solve_opt_search(
    instance: Instance1D, stats: DpStats | None = None, cap: int = DEFAULT_CAP_DP
) -> OracleResult:
    """The same deepening search as solve_exact, behind the `dp-optsearch`
    method; its refusals name the optimum search.  Refuses instances with more
    than cap points."""
    return _deepen(instance, stats, cap, "1D DP optimum search")
