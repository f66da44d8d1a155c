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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import Optional

from .errors import InputError, InvariantError
from .model import (
    SINKTREE1D,
    Instance1D,
    Range,
    ReceiverAssignment,
    cover_table,
    verify_witness,
)
from .oracle import OracleResult

Key = tuple  # (lo, hi, root, incoming tuple, outgoing tuple)

INFEASIBLE = math.inf


@dataclass(frozen=True)
class Subproblem:
    lo: int
    hi: int
    root: int
    incoming: tuple[Range, ...]
    outgoing: tuple[Range, ...]

    def key(self) -> Key:
        return (self.lo, self.hi, self.root, self.incoming, self.outgoing)


@dataclass
class DpValue:
    interference: float  # integer value, or INFEASIBLE
    choice: Optional[tuple[Optional[Key], Optional[Key]]] = None


@dataclass
class DpStats:
    subproblems: int = 0
    memo_hits: int = 0


def _canonical(ranges) -> tuple[Range, ...]:
    return tuple(sorted(set(ranges)))


class _Solver:
    def __init__(self, instance: Instance1D, bound: int):
        self.n = instance.n
        self.bound = bound
        self.memo: dict[Key, DpValue] = {}
        self.stats = DpStats()
        # cover[c][b] = inclusive index range covered by the ball (c, b); all
        # later geometry runs on these integer intervals.
        self.cover = cover_table(instance)
        self._side_cache: dict[tuple, list] = {}

    def covers(self, rng: Range, idx: int) -> bool:
        lo, hi = self.cover[rng.center][rng.boundary]
        return lo <= idx <= hi

    def covers_any(self, rng: Range, lo: int, hi: int) -> bool:
        """Does the ball cover some point with index in [lo, hi]?"""
        if lo > hi:
            return False
        clo, chi = self.cover[rng.center][rng.boundary]
        return clo <= hi and lo <= chi

    def escapes(self, rng: Range, lo: int, hi: int) -> bool:
        """Does the ball cover some point outside [lo, hi]?"""
        clo, chi = self.cover[rng.center][rng.boundary]
        return clo < lo or chi > hi

    def solve(self, sub: Subproblem) -> DpValue:
        key = sub.key()
        hit = self.memo.get(key)
        if hit is not None:
            self.stats.memo_hits += 1
            return hit
        self.stats.subproblems += 1
        value = self._compute(sub)
        self.memo[key] = value
        return value

    def _compute(self, sub: Subproblem) -> DpValue:
        lo, hi, root = sub.lo, sub.hi, sub.root
        root_ranges = [r for r in sub.outgoing if r.center == root]
        if len(root_ranges) > 1:
            return DpValue(INFEASIBLE)  # the root owns a single ball

        if lo == hi:
            # Leaf: the only admissible outgoing set is the root's parent edge.
            if len(sub.outgoing) == 1 and root_ranges:
                return DpValue(len(sub.incoming) + 1)
            return DpValue(INFEASIBLE)

        root_range = root_ranges[0] if root_ranges else None
        left_options = self._side_options(sub, lo, root - 1)
        right_options = self._side_options(sub, root + 1, hi)
        base_cover = (1 if root_range else 0) + sum(
            1 for r in sub.incoming if self.covers(r, root)
        )

        best = DpValue(INFEASIBLE)
        best_enc = None
        for l_root, l_out in left_options:
            for r_root, r_out in right_options:
                left_key = self._child_key(sub, lo, root - 1, l_root, l_out, r_out, root_range)
                if left_key is False:
                    continue
                right_key = self._child_key(sub, root + 1, hi, r_root, r_out, l_out, root_range)
                if right_key is False:
                    continue
                value = base_cover + sum(1 for r in l_out + r_out if self.covers(r, root))
                if value > best.interference:
                    continue  # coverage at the root alone is already worse
                feasible = True
                for child_key in (left_key, right_key):
                    if child_key is None:
                        continue
                    child_value = self.solve(Subproblem(*child_key)).interference
                    if child_value > value:
                        value = child_value
                    if value > best.interference:
                        feasible = False
                        break
                if not feasible or value == INFEASIBLE:
                    continue
                enc = (left_key or (), right_key or ())
                if value < best.interference or (
                    value == best.interference and enc < best_enc
                ):
                    best = DpValue(value, (left_key, right_key))
                    best_enc = enc
        return best

    def _side_options(self, sub: Subproblem, lo: int, hi: int):
        """Enumerate (child root, child outgoing set) choices for one side."""
        if lo > hi:
            return [(None, ())]
        inherited = [r for r in sub.outgoing if lo <= r.center <= hi]
        cache_key = (lo, hi, sub.root, sub.lo, sub.hi, tuple(inherited))
        cached = self._side_cache.get(cache_key)
        if cached is not None:
            return cached
        options = []
        for child_root in range(lo, hi + 1):
            conflict = any(r.center == child_root and r.boundary != sub.root for r in inherited)
            if conflict:
                continue  # the child root's single ball is its edge to sub.root
            edge = Range(child_root, sub.root)
            if edge not in inherited and self.escapes(edge, sub.lo, sub.hi):
                continue  # a ball leaving the interval must be declared upward
            base = set(inherited)
            base.add(edge)
            taken_centers = {r.center for r in base}
            # Optional extra ranges: balls of future edges inside this side that
            # reach into the rest of the interval but never leave it.
            candidates: dict[int, list[Range]] = {}
            for center in range(lo, hi + 1):
                if center in taken_centers:
                    continue
                for boundary in range(lo, hi + 1):
                    if boundary == center:
                        continue
                    rng = Range(center, boundary)
                    if self._reaches_rest(rng, sub, lo, hi) and not self.escapes(
                        rng, sub.lo, sub.hi
                    ):
                        candidates.setdefault(center, []).append(rng)
            for center in candidates:
                candidates[center].sort()
            centers = sorted(candidates)
            max_extra = self.bound - len(base)
            for count in range(0, min(len(centers), max_extra) + 1):
                for chosen in combinations(centers, count):
                    for picks in product(*(candidates[c] for c in chosen)):
                        options.append((child_root, _canonical(base.union(picks))))
        options.sort(key=lambda item: (item[0], item[1]))
        self._side_cache[cache_key] = options
        return options

    def _reaches_rest(self, rng: Range, sub: Subproblem, lo: int, hi: int) -> bool:
        """Ball covers a point of the parent interval outside [lo, hi]."""
        if hi < sub.hi and self.covers_any(rng, hi + 1, sub.hi):
            return True
        return lo > sub.lo and self.covers_any(rng, sub.lo, lo - 1)

    def _child_key(self, sub, lo, hi, child_root, child_out, sibling_out, root_range):
        """Assemble the child subproblem, or False if it violates the size cap."""
        if child_root is None:
            return None
        incoming = set()
        for r in sub.incoming:
            if self.covers_any(r, lo, hi):
                incoming.add(r)
        for r in sibling_out:
            if self.covers_any(r, lo, hi):
                incoming.add(r)
        if root_range is not None and self.covers_any(root_range, lo, hi):
            incoming.add(root_range)
        if len(incoming) + len(child_out) > self.bound:
            return False
        return (lo, hi, child_root, _canonical(incoming), child_out)


def size_bound(n: int) -> int:
    """Range-set size cap: ceil(log2 n) + 2."""
    if n < 1:
        raise InputError("instance size must be at least 1")
    return ((n - 1).bit_length() if n > 1 else 0) + 2


def solve_subproblem(
    instance: Instance1D, sub: Subproblem, bound: int, solver: _Solver | None = None
) -> DpValue:
    """Solve one subproblem under the given range-set size cap."""
    if len(set(sub.incoming) | set(sub.outgoing)) > bound:
        raise InputError("subproblem range sets exceed the size cap")
    if not 0 <= sub.lo <= sub.root <= sub.hi < instance.n:
        raise InputError("subproblem interval or root out of range")
    if solver is None:
        solver = _Solver(instance, bound)
    for r in sub.incoming:
        if sub.lo <= r.center <= sub.hi or not solver.covers_any(r, sub.lo, sub.hi):
            raise InputError(f"incoming range {r} must come from outside and reach inside")
    for r in sub.outgoing:
        if not sub.lo <= r.center <= sub.hi:
            raise InputError(f"outgoing range {r} must be centered inside the interval")
        if r.center != sub.root and not solver.escapes(r, sub.lo, sub.hi):
            raise InputError(f"outgoing range {r} must cover a point outside the interval")
    return solver.solve(sub)


def _collect_edges(solver: _Solver, key: Key, edges: dict[int, int]) -> None:
    value = solver.memo[key]
    if value.choice is None:
        return
    root = key[2]
    for child_key in value.choice:
        if child_key is not None:
            edges[child_key[2]] = root
            _collect_edges(solver, child_key, edges)


def _solve_with_bound(instance: Instance1D, bound: int) -> tuple[float, ReceiverAssignment | None, _Solver]:
    n = instance.n
    solver = _Solver(instance, bound)
    best = INFEASIBLE
    best_key = None
    for root in range(n):
        sub = Subproblem(0, n - 1, root, (), ())
        value = solver.solve(sub).interference
        if value < best:
            best = value
            best_key = sub.key()
    if best_key is None or best is INFEASIBLE:
        return INFEASIBLE, None, solver
    edges: dict[int, int] = {}
    _collect_edges(solver, best_key, edges)
    witness = ReceiverAssignment(SINKTREE1D, edges, best_key[2])
    return best, witness, solver


def solve_exact(instance: Instance1D, stats: DpStats | None = None) -> OracleResult:
    """Optimum interference with a verified witness, over every root choice."""
    if instance.n == 1:
        return OracleResult(0, ReceiverAssignment(SINKTREE1D, {}, 0))
    optimum, witness, solver = _solve_with_bound(instance, size_bound(instance.n))
    if witness is None:
        raise InvariantError("no feasible decomposition within the size cap")
    if stats is not None:
        stats.subproblems = solver.stats.subproblems
        stats.memo_hits = solver.stats.memo_hits
    verify_witness(instance, witness, optimum)
    return OracleResult(int(optimum), witness)


def solve_opt_search(instance: Instance1D, stats: DpStats | None = None) -> OracleResult:
    """Rerun the DP with caps 1, 2, ... and return at the first cap that admits
    a solution no larger than the cap; equals solve_exact on every instance."""
    if instance.n == 1:
        return OracleResult(0, ReceiverAssignment(SINKTREE1D, {}, 0))
    for cap in range(1, size_bound(instance.n) + 1):
        optimum, witness, solver = _solve_with_bound(instance, cap)
        if stats is not None:
            stats.subproblems += solver.stats.subproblems
            stats.memo_hits += solver.stats.memo_hits
        if witness is not None and optimum <= cap:
            verify_witness(instance, witness, optimum)
            return OracleResult(int(optimum), witness)
    raise InvariantError("no feasible decomposition within the maximum size cap")
