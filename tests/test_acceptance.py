"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import io
import math
from contextlib import redirect_stdout
from fractions import Fraction

from interfmin.cli import main as cli_main
from interfmin.dpsolve import solve_exact, solve_opt_search
from interfmin.families import (
    gen_log_lower,
    gen_p,
    gen_q,
    optimal_assignment_p,
    optimal_assignment_q,
    p_diameter,
    random_instance_1d,
)
from interfmin.model import (
    count_bends,
    cross_edges,
    interference,
    interference_at,
    is_valid,
)
from interfmin.nna import nna
from interfmin.oracle import brute_force_1d, enumerate_optimal_1d
from interfmin.reduction import (
    GridGraph,
    ROLE_ORDER,
    assignment_from_ham_path,
    extract_connection_structure,
    find_ham_path,
    geometry_violations,
    reduce_grid,
)

from bst_reference import reference_bst_property

SEED = 20260810

L_SHAPE = [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (2, 0)]


def _report(num: int, desc: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\n[criterion {num:2d}] {status}: {desc}")
    assert not failures, f"criterion {num}: " + " | ".join(failures)


def test_criterion_1_oracle_dp_equivalence():
    failures = []
    for trial in range(200):
        n = 2 + trial % 7
        inst = random_instance_1d(n, seed=SEED + trial)
        dp = solve_exact(inst).optimum
        orc = brute_force_1d(inst).optimum
        if dp != orc:
            failures.append(f"trial {trial} n={n} pts={inst.points}: dp={dp} oracle={orc}")
    _report(1, "solve_exact == brute_force_1d on 200 random instances, n in 2..8", failures)


def test_criterion_2_p_family_optima():
    failures = []
    for i in (1, 2, 3):
        inst = gen_p(i).instance
        if solve_exact(inst).optimum != i:
            failures.append(f"dp on level {i}")
        if solve_opt_search(inst).optimum != i:
            failures.append(f"opt-search on level {i}")
        if brute_force_1d(inst).optimum != i:
            failures.append(f"oracle on level {i}")
    for i in range(1, 13):
        inst = gen_p(i).instance
        for side, root in (("left", 0), ("right", inst.n - 1)):
            a = optimal_assignment_p(i, side)
            far = inst.n - 1 - root
            if not is_valid(inst, a):
                failures.append(f"level {i} {side}: invalid")
            elif interference(inst, a) != i:
                failures.append(f"level {i} {side}: interference != {i}")
            elif interference_at(inst, a, root) != 1 or interference_at(inst, a, far) != i:
                failures.append(f"level {i} {side}: endpoint interference off")
    _report(2, "doubling-family optima: solvers give i; constructive witness exact", failures)


def test_criterion_3_closed_forms():
    failures = []
    for i in range(13):
        fam = gen_p(i)
        if fam.instance.n != 2**i:
            failures.append(f"|P_{i}| != 2^{i}")
        if fam.instance.diameter() != p_diameter(i) or p_diameter(i) != (3**i - 1) // 2:
            failures.append(f"diameter P_{i}")
    for k in range(9):
        if gen_q(k).instance.diameter() != (3 ** (k + 3) - 2 ** (k + 3) - 1) // 2:
            failures.append(f"diameter Q_{k}")
    q0 = gen_q(0)
    if [int(x) for x in q0.instance.points] != [0, 5, 6, 8, 9] or q0.instance.diameter() != 9:
        failures.append("Q_0 coordinates")
    _report(3, "family closed forms: sizes, diameters, Q_0 coordinates", failures)


def test_criterion_4_q_witnesses():
    failures = []
    for k in range(7):
        fam = gen_q(k)
        a = optimal_assignment_q(k)
        if not is_valid(fam.instance, a):
            failures.append(f"k={k}: invalid")
            continue
        if interference(fam.instance, a) != k + 2:
            failures.append(f"k={k}: interference != {k + 2}")
        if count_bends(fam.instance, a) < k:
            failures.append(f"k={k}: fewer than {k} bends")
    if brute_force_1d(gen_q(0).instance).optimum != 2:
        failures.append("oracle disagrees on Q_0")
    _report(4, "nested-family witnesses: interference k+2, >= k bends, Q_0 optimum 2", failures)


def test_criterion_5_nna_guarantee():
    failures = []
    for i in range(1, 15):
        inst = gen_p(i).instance
        rounds: list = []
        a = nna(inst, rounds)
        bound = math.ceil(math.log2(inst.n)) + 2
        if not is_valid(inst, a):
            failures.append(f"P_{i}: invalid")
        elif interference(inst, a) > bound:
            failures.append(f"P_{i}: interference above {bound}")
        if len(rounds) > math.ceil(math.log2(inst.n)):
            failures.append(f"P_{i}: too many rounds")
    for trial in range(100):
        inst = random_instance_1d(4096, seed=SEED + 1000 + trial, coord_max=1_000_000)
        rounds = []
        a = nna(inst, rounds)
        if not is_valid(inst, a):
            failures.append(f"random {trial}: invalid")
        elif interference(inst, a) > 14:  # ceil(log2 4096) + 2
            failures.append(f"random {trial}: interference {interference(inst, a)} > 14")
        if len(rounds) > 12:
            failures.append(f"random {trial}: {len(rounds)} rounds")
    _report(5, "nna: valid, interference <= ceil(log2 n)+2, rounds <= ceil(log2 n)", failures)


def test_criterion_6_bst_existence():
    failures = []
    for trial in range(50):
        n = 2 + trial % 5
        inst = random_instance_1d(n, seed=SEED + 2000 + trial)
        found = False
        for a in enumerate_optimal_1d(inst):
            crossing = cross_edges(inst, a)
            bst = reference_bst_property(inst, a)
            if not crossing and not bst:
                failures.append(f"trial {trial}: cross-free optimum without BST shape")
            if not crossing and bst:
                found = True
        if not found:
            failures.append(f"trial {trial} pts={inst.points}: no cross-free BST optimum")
    _report(6, "every instance has a cross-edge-free optimal assignment with BST shape", failures)


def test_criterion_7_reduction_forward():
    failures = []
    grids = [[(i, 0) for i in range(k)] for k in range(2, 6)] + [L_SHAPE]
    for vertices in grids:
        grid = GridGraph.from_vertices(vertices)
        name = f"{len(vertices)}-vertex grid"
        red = reduce_grid(grid, Fraction(1, 64))
        path = find_ham_path(grid)
        if path is None:
            failures.append(f"{name}: no Hamiltonian path found")
            continue
        a = assignment_from_ham_path(red, path)
        if not is_valid(red.instance, a):
            failures.append(f"{name}: assignment invalid")
            continue
        if interference(red.instance, a) != 5:
            failures.append(f"{name}: interference != 5")
        by_role: dict[str, set[int]] = {r: set() for r in ROLE_ORDER}
        for idx in range(red.instance.n):
            by_role[red.role_of[idx]].add(interference_at(red.instance, a, idx))
        checks = [
            ("M = 5", by_role["M"] == {5}),
            ("Ic = 5", by_role["Ic"] == {5}),
            ("I1 = 3", by_role["I1"] == {3}),
            ("I2 = 2", by_role["I2"] == {2}),
            ("I3 = 2", by_role["I3"] == {2}),
            ("I4 = 2", by_role["I4"] == {2}),
            ("C in [2,4]", all(2 <= v <= 4 for v in by_role["C"])),
            ("S <= 5", all(v <= 5 for i in (1, 2, 3) for v in by_role[f"S{i}"])),
            ("S' <= 4", all(v <= 4 for i in (1, 2, 3) for v in by_role[f"S{i}p"])),
        ]
        for label, ok in checks:
            if not ok:
                failures.append(f"{name}: {label} (observed {by_role})")
        expected = sorted((min(u, w), max(u, w)) for u, w in zip(path, path[1:]))
        if extract_connection_structure(red, a) != expected:
            failures.append(f"{name}: extracted structure != path edges")
    _report(7, "reduction forward direction: I=5, per-role interference, extraction", failures)


def test_criterion_8_gadget_geometry():
    failures = []
    grids = [[(i, 0) for i in range(k)] for k in range(2, 6)] + [L_SHAPE]
    for vertices in grids:
        red = reduce_grid(GridGraph.from_vertices(vertices), Fraction(1, 64), run_checks=False)
        problems = geometry_violations(red)
        failures.extend(f"{len(vertices)}-vertex grid: {p}" for p in problems)
    _report(8, "gadget geometry suite: exact spacing, nearest neighbors, separation", failures)


def test_criterion_9_log_lower_bound():
    failures = []
    for n in range(2, 9):
        fam = gen_log_lower(n)
        opt = brute_force_1d(fam.instance).optimum
        want = n.bit_length() - 1  # floor(log2 n)
        if opt < want:
            failures.append(f"n={n}: optimum {opt} < {want}")
    _report(9, "padded doubling family: oracle optimum >= floor(log2 n)", failures)


def test_criterion_10_determinism(tmp_path):
    failures = []
    inst_path = tmp_path / "inst.txt"
    inst_path.write_text("0\n3\n4\n9\n11\n26\n")
    for method in ("oracle", "dp", "dp-optsearch", "nna"):
        outputs = []
        witnesses = []
        for run_idx in range(2):
            wit = tmp_path / f"{method}-{run_idx}.assign"
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli_main(
                    ["solve", "--method", method, str(inst_path), "--witness-out", str(wit)]
                )
            if code != 0:
                failures.append(f"{method}: exit code {code}")
            outputs.append(buf.getvalue().replace(str(wit), "WITNESS"))
            witnesses.append(wit.read_text())
        if outputs[0] != outputs[1]:
            failures.append(f"{method}: reports differ")
        if witnesses[0] != witnesses[1]:
            failures.append(f"{method}: witnesses differ")
    _report(10, "repeated solver runs produce byte-identical witnesses and reports", failures)
