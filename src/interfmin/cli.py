"""Command-line entry point.

Subcommands: gen (instance generators), solve (oracle / dp / dp-optsearch /
nna), check (predicates on an instance plus assignment, or the gadget
geometry suite), reduce (grid graph to 2D point set), ham (Hamiltonian path
search and the derived assignment).

Reports are line-oriented `key: value` text.  Every solve checks that its
witness is valid and re-verifies the reported value against a fresh
interference computation on the witness before printing (NNA reports that
computation itself); a failure aborts with exit code 3.  Exit codes: 0 success,
1 malformed input, 2 infeasible or refused, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict

from . import dpsolve, families, model, oracle, reduction, textio
from .nna import nna as run_nna
from .errors import CapExceededError, InputError, InvariantError
from .model import (
    Instance1D,
    Instance2D,
    communication_graph_2d,
    count_bends,
    cross_edges,
    has_bst_property,
    interference,
    is_valid,
    verify_witness,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); bad usage is exit 1 here
        self.print_usage(sys.stderr)
        raise InputError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="interfmin", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate instances")
    gen_sub = gen.add_subparsers(dest="family", required=True)
    for fam in ("p", "q"):
        sp = gen_sub.add_parser(fam)
        sp.add_argument("parameter", type=model.integer)
        sp.add_argument("-o", "--out")
        sp.add_argument("--with-witness", action="store_true")
        if fam == "p":
            sp.add_argument("--side", choices=("left", "right"), default="left")
    sp = gen_sub.add_parser("loglower")
    sp.add_argument("parameter", type=model.integer)
    sp.add_argument("-o", "--out")
    sp = gen_sub.add_parser("random")
    sp.add_argument("parameter", type=model.integer)
    sp.add_argument("--seed", type=model.integer, required=True)
    sp.add_argument("--coord-max", type=model.integer, default=100)
    sp.add_argument("-o", "--out")

    solve = sub.add_parser("solve", help="run a solver on a 1D or 2D instance")
    solve.add_argument("--method", required=True, choices=("oracle", "dp", "dp-optsearch", "nna"))
    solve.add_argument("instance")
    solve.add_argument("--witness-out")
    solve.add_argument("--cap", type=model.integer, help="largest n the oracle and dp solvers accept")
    solve.add_argument("--stats", action="store_true")
    solve.add_argument("--trace", action="store_true", help="print per-round partitions (nna)")
    solve.add_argument("--dot", help="write the witness communication graph (2D only)")

    check = sub.add_parser("check", help="evaluate predicates on instance + assignment")
    check_sub = check.add_subparsers(dest="predicate", required=True)
    for pred in ("valid", "interference", "bst", "bends", "cross"):
        sp = check_sub.add_parser(pred)
        sp.add_argument("instance")
        sp.add_argument("assignment")
        if pred == "valid":
            sp.add_argument("--dot", help="write the communication graph (2D only)")
    sp = check_sub.add_parser("gadget")
    sp.add_argument("grid")
    sp.add_argument("--epsilon", default=reduction.DEFAULT_EPSILON)

    red = sub.add_parser("reduce", help="grid graph to 2D gadget point set")
    red.add_argument("grid")
    red.add_argument("--epsilon", default=reduction.DEFAULT_EPSILON)
    red.add_argument("-o", "--out")
    red.add_argument("--roles-out")

    ham = sub.add_parser("ham", help="Hamiltonian path tools")
    ham_sub = ham.add_subparsers(dest="action", required=True)
    sp = ham_sub.add_parser("find")
    sp.add_argument("grid")
    sp = ham_sub.add_parser("assign")
    sp.add_argument("grid")
    sp.add_argument("--epsilon", default=reduction.DEFAULT_EPSILON)
    sp.add_argument("--points-out")
    sp.add_argument("--assign-out")
    return parser


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _cmd_gen(args) -> int:
    if getattr(args, "with_witness", False) and args.out is None:
        raise InputError("--with-witness needs -o to derive the witness path")
    witness = None
    if args.family == "p":
        fam = families.gen_p(args.parameter)
        if args.with_witness:
            witness = families.optimal_assignment_p(args.parameter, args.side)
    elif args.family == "q":
        fam = families.gen_q(args.parameter)
        if args.with_witness:
            witness = families.optimal_assignment_q(args.parameter)
    elif args.family == "loglower":
        fam = families.gen_log_lower(args.parameter)
    else:
        inst = families.random_instance_1d(args.parameter, args.seed, args.coord_max)
        _write(args.out, textio.format_points(inst))
        return 0
    _write(args.out, textio.format_points(fam.instance))
    if witness is not None:
        _write(args.out + ".assign", textio.format_assignment(witness))
    return 0


def _cmd_solve(args) -> int:
    if args.trace and args.method != "nna":
        raise InputError("--trace needs --method nna")
    if args.cap is not None and args.method == "nna":
        raise InputError("--cap does not apply to --method nna")
    if args.cap is not None and args.cap < 1:
        raise InputError("--cap must be at least 1")
    instance = textio.parse_points(_read(args.instance))
    if args.dot and not isinstance(instance, Instance2D):
        raise InputError("--dot needs a 2D instance")
    cap = {} if args.cap is None else {"cap": args.cap}  # else each solver's default
    t0 = time.monotonic()
    if args.method == "oracle":
        oracle_stats = oracle.OracleStats()
        brute_force = oracle.brute_force_1d if isinstance(instance, Instance1D) else oracle.brute_force_2d
        result = brute_force(instance, stats=oracle_stats, **cap)
        stats = asdict(oracle_stats)
    elif args.method in ("dp", "dp-optsearch"):
        if not isinstance(instance, Instance1D):
            raise InputError("the dp solvers need a 1D instance")
        dp_stats = dpsolve.DpStats()
        solver = dpsolve.solve_exact if args.method == "dp" else dpsolve.solve_opt_search
        result = solver(instance, dp_stats, **cap)
        stats = asdict(dp_stats)
    else:
        if not isinstance(instance, Instance1D):
            raise InputError("nna needs a 1D instance")
        rounds: list = []
        witness = run_nna(instance, rounds)
        result = oracle.OracleResult(interference(instance, witness), witness)
        stats = {"rounds": len(rounds)}

    elapsed = time.monotonic() - t0
    if args.method != "nna":
        verify_witness(instance, result.witness, result.optimum)
    elif not is_valid(instance, result.witness):
        # NNA reports its witness's own value: only validity is left to check.
        raise InvariantError("witness failed validation")

    # Files are written before anything reaches stdout, so a failed write
    # leaves no partial report behind.
    witness_text = textio.format_assignment(result.witness)
    if args.witness_out:
        _write(args.witness_out, witness_text)
    if args.dot:
        _write(args.dot, textio.format_graph_dot(communication_graph_2d(instance, result.witness)))
    if args.trace:
        for i, comps in enumerate(rounds, start=1):
            parts = " ".join(f"[{lo}-{hi}]@{sink}" for lo, hi, sink in comps)
            print(f"round {i}: {parts}")
    print(f"method: {args.method}")
    print(f"optimum: {result.optimum}")
    if args.witness_out:
        print(f"witness_path: {args.witness_out}")
    if args.stats:
        # Timing lives behind --stats so default reports are byte-identical
        # across runs.
        print(f"elapsed_s: {elapsed:.3f}")
        for key in sorted(stats):
            print(f"{key}: {stats[key]}")
    if not args.witness_out:
        sys.stdout.write(witness_text)
    return 0


def _cmd_check(args) -> int:
    if args.predicate == "gadget":
        grid = reduction.GridGraph.from_vertices(textio.parse_grid(_read(args.grid)))
        red = reduction.reduce_grid(grid, args.epsilon, run_checks=False)
        problems = reduction.geometry_violations(red)
        if problems:
            for p in problems:
                print(f"violation: {p}")
            raise InvariantError(f"{len(problems)} gadget geometry violations")
        print("gadget: ok")
        return 0

    instance = textio.parse_points(_read(args.instance))
    assignment = textio.parse_assignment(_read(args.assignment))
    if args.predicate == "valid":
        if args.dot and not isinstance(instance, Instance2D):
            raise InputError("--dot needs a 2D instance")
        verdict = is_valid(instance, assignment)
        if args.dot:
            _write(args.dot, textio.format_graph_dot(communication_graph_2d(instance, assignment)))
        print(f"valid: {'true' if verdict else 'false'}")
        return 0
    if args.predicate == "interference":
        print(f"interference: {interference(instance, assignment)}")
        return 0
    if not isinstance(instance, Instance1D):
        raise InputError(f"check {args.predicate} needs a 1D instance")
    if args.predicate == "bst":
        print(f"bst: {'true' if has_bst_property(instance, assignment) else 'false'}")
    elif args.predicate == "bends":
        print(f"bends: {count_bends(instance, assignment)}")
    else:
        edges = cross_edges(instance, assignment)
        print(f"cross_edges: {len(edges)}")
        for p, q in edges:
            print(f"cross: {p} {q}")
    return 0


def _roles_sidecar(red: reduction.ReductionOutput) -> str:
    rows = enumerate(zip(red.gadget_of, red.role_of))
    return "".join(f"{idx} {v[0]} {v[1]} {role}\n" for idx, (v, role) in rows)


def _cmd_reduce(args) -> int:
    grid = reduction.GridGraph.from_vertices(textio.parse_grid(_read(args.grid)))
    red = reduction.reduce_grid(grid, args.epsilon)
    _write(args.out, textio.format_points(red.instance))
    roles_path = args.roles_out
    if roles_path is None and args.out is not None:
        roles_path = args.out + ".roles"
    if roles_path is not None:
        _write(roles_path, _roles_sidecar(red))
    return 0


def _cmd_ham(args) -> int:
    grid = reduction.GridGraph.from_vertices(textio.parse_grid(_read(args.grid)))
    path = reduction.find_ham_path(grid)
    if path is None:
        print("ham_path: none")
        raise CapExceededError("the grid graph has no Hamiltonian path")
    # assign reduces (and so checks epsilon) before any output.
    red = reduction.reduce_grid(grid, args.epsilon) if args.action == "assign" else None
    print("ham_path: " + " ".join(f"({x},{y})" for x, y in path))
    if red is None:
        return 0
    assignment = reduction.assignment_from_ham_path(red, path)
    verify_witness(red.instance, assignment, 5)
    print("interference: 5")
    if args.points_out:
        _write(args.points_out, textio.format_points(red.instance))
        _write(args.points_out + ".roles", _roles_sidecar(red))
    if args.assign_out:
        _write(args.assign_out, textio.format_assignment(assignment))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "reduce":
            return _cmd_reduce(args)
        return _cmd_ham(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CapExceededError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
