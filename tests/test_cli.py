import hashlib
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import interfmin
import pytest
from interfmin.cli import main
from interfmin.textio import format_assignment, parse_assignment

SRC = str(Path(interfmin.__file__).resolve().parent.parent)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_solve_dp(tmp_path, capsys):
    inst = tmp_path / "p2.txt"
    code, out, _ = run(capsys, "gen", "p", "2", "-o", str(inst))
    assert code == 0
    code, out, _ = run(capsys, "solve", "--method", "dp", str(inst))
    assert code == 0
    assert "optimum: 2" in out


def test_gen_solve_oracle_q0(tmp_path, capsys):
    inst = tmp_path / "q0.txt"
    run(capsys, "gen", "q", "0", "-o", str(inst))
    code, out, _ = run(capsys, "solve", "--method", "oracle", str(inst))
    assert code == 0
    assert "optimum: 2" in out


def test_solve_verifies_witness(tmp_path, capsys):
    inst = tmp_path / "i.txt"
    inst.write_text("0\n1\n3\n4\n")
    wit = tmp_path / "w.txt"
    code, out, _ = run(capsys, "solve", "--method", "nna", str(inst), "--witness-out", str(wit))
    assert code == 0
    assert f"witness_path: {wit}" in out
    text = wit.read_text()
    assert format_assignment(parse_assignment(text)) == text


def test_solve_nna_counts_coverage_once(tmp_path, capsys, monkeypatch):
    # The reported value is the witness's own, so one coverage pass suffices;
    # 1D `coverage_counts` and `interference` both read the one pass
    # `_coverage_delta` makes.
    from interfmin import model

    inst = tmp_path / "i.txt"
    inst.write_text("0\n1\n3\n4\n9\n")
    passes = []
    coverage_delta = model._coverage_delta
    monkeypatch.setattr(model, "_coverage_delta", lambda *a: passes.append(a) or coverage_delta(*a))
    code, out, _ = run(capsys, "solve", "--method", "nna", str(inst))
    assert code == 0 and "optimum: " in out
    assert len(passes) == 1


def test_solve_nna_refuses_an_invalid_witness(tmp_path, capsys, monkeypatch):
    from interfmin import cli
    from interfmin.model import SINKTREE1D, ReceiverAssignment

    inst = tmp_path / "i.txt"
    inst.write_text("0\n1\n2\n3\n")
    cyclic = ReceiverAssignment(SINKTREE1D, {1: 2, 2: 1, 3: 0}, 0)
    monkeypatch.setattr(cli, "run_nna", lambda instance, rounds: cyclic)
    code, out, err = run(capsys, "solve", "--method", "nna", str(inst))
    assert code == 3 and out == "" and "witness failed validation" in err


def run_process(*argv, cwd=None):
    """Run the CLI in a fresh interpreter, so an uncaught exception would show
    up as a traceback on stderr."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "interfmin.cli", *argv], capture_output=True, text=True, env=env, cwd=cwd
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_solve_nna_trace_prints_each_round(tmp_path):
    inst = tmp_path / "i.txt"
    inst.write_text("0\n1\n3\n4\n")
    code, out, err = run_process("solve", "--method", "nna", "--trace", str(inst))
    assert (code, err) == (0, "")
    # Recorded while the rounds were logged as named (lo, hi, sink) components.
    assert out == (
        "round 1: [0-1]@0 [2-3]@2\nround 2: [0-3]@0\nmethod: nna\noptimum: 2\n"
        "model sinktree1d\nsink 0\n1 0\n2 1\n3 2\n"
    )


def test_solve_witness_out_into_missing_directory(tmp_path):
    inst = tmp_path / "i.txt"
    inst.write_text("0\n1\n3\n4\n")
    target = tmp_path / "missing" / "w.txt"
    code, out, err = run_process("solve", "--method", "nna", "--trace", str(inst), "--witness-out", str(target))
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith(f"error: cannot write {target}:")


def test_gen_out_into_missing_directory(tmp_path):
    target = tmp_path / "missing" / "r.txt"
    code, out, err = run_process("gen", "random", "5", "--seed", "1", "-o", str(target))
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith(f"error: cannot write {target}:")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("solve", "--method", "dp", "line4.txt", "--witness-out", "w", "--dot", "g.dot"), "--dot needs a 2D instance"),
        (("check", "valid", "line4.txt", "chain.assign", "--dot", "g.dot"), "--dot needs a 2D instance"),
        (("gen", "p", "2", "--with-witness"), "--with-witness needs -o to derive the witness path"),
        (("solve", "--method", "dp", "line4.txt", "--witness-out", "w", "--trace"), "--trace needs --method nna"),
        (("solve", "--method", "nna", "line4.txt", "--witness-out", "w", "--cap", "1"), "--cap does not apply to --method nna"),
        (("solve", "--method", "oracle", "line4.txt", "--witness-out", "w", "--cap", "-3"), "--cap must be at least 1"),
    ],
    ids=[
        "solve-dot-1d",
        "check-valid-dot-1d",
        "gen-witness-no-out",
        "solve-trace-without-nna",
        "solve-cap-with-nna",
        "solve-cap-below-1",
    ],
)
def test_bad_flag_combination_refused_before_any_output(tmp_path, argv, message):
    (tmp_path / "line4.txt").write_text("0\n1\n2\n3\n")
    (tmp_path / "chain.assign").write_text("model sinktree1d\nsink 0\n1 0\n2 1\n3 2\n")
    code, out, err = run_process(*argv, cwd=tmp_path)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert err == f"error: {message}\n"
    assert sorted(f.name for f in tmp_path.iterdir()) == ["chain.assign", "line4.txt"]


def test_reduce_epsilon_errors(tmp_path):
    grid = tmp_path / "grid.txt"
    grid.write_text("0 0\n1 0\n2 0\n")
    apart = tmp_path / "apart.txt"
    apart.write_text("0 0\n2 0\n")
    for path, eps, message in [
        (grid, "0", "epsilon must be positive"),
        (grid, "-1/64", "epsilon must be positive"),
        (grid, "zz", "not a rational number: 'zz'"),
        (apart, "0", "grid graph must be connected"),  # the grid is checked before epsilon
    ]:
        code, out, err = run_process("reduce", str(path), f"--epsilon={eps}")
        assert (code, out, err) == (1, "", f"error: {message}\n"), (path.name, eps)


def test_check_bends_on_q3_witness(tmp_path, capsys):
    inst = tmp_path / "q3.txt"
    run(capsys, "gen", "q", "3", "-o", str(inst), "--with-witness")
    code, out, _ = run(capsys, "check", "bends", str(inst), str(inst) + ".assign")
    assert code == 0
    bends = int(out.split("bends:")[1].split()[0])
    assert bends >= 3


def test_check_valid_and_cross(tmp_path, capsys):
    inst = tmp_path / "i.txt"
    inst.write_text("0\n1\n2\n")
    assign = tmp_path / "a.txt"
    assign.write_text("model sinktree1d\nsink 2\n0 2\n1 2\n")
    code, out, _ = run(capsys, "check", "valid", str(inst), str(assign))
    assert code == 0 and "valid: true" in out
    code, out, _ = run(capsys, "check", "cross", str(inst), str(assign))
    assert code == 0 and "cross_edges: 1" in out and "cross: 0 2" in out
    code, out, _ = run(capsys, "check", "bst", str(inst), str(assign))
    assert code == 0 and "bst: false" in out


def test_determinism_byte_identical(tmp_path, capsys):
    inst = tmp_path / "i.txt"
    inst.write_text("0\n3\n4\n9\n11\n")
    outputs = []
    witnesses = []
    for run_idx in range(2):
        wit = tmp_path / f"w{run_idx}.txt"
        code, out, _ = run(capsys, "solve", "--method", "dp", str(inst), "--witness-out", str(wit))
        assert code == 0
        # normalize the per-run witness path out of the report
        outputs.append(out.replace(str(wit), "WITNESS"))
        witnesses.append(wit.read_text())
    assert outputs[0] == outputs[1]
    assert witnesses[0] == witnesses[1]


def test_exit_code_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("zap\n")
    code, _, err = run(capsys, "solve", "--method", "dp", str(bad))
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize(
    "content, message",
    [
        (b"\xff\xfe0\n1\n", "cannot read bad.txt: 'utf-8' codec can't decode byte 0xff"),
        (b"1" * 5000 + b"\n0\n", "not a rational number: '" + "1" * 40 + "'... (5000 characters)"),
        (b"0\n1e16000000\n", "not a rational number: '1e16000000'"),
        (b"0\n" + b"1" * 5000 + b"/0\n", "not a rational number: '" + "1" * 40 + "'... (5002 characters)\n"),
        ("0\n٣\n".encode(), "not a rational number: '٣'"),
    ],
    ids=["not-utf8", "over-4300-digits", "exponent", "long-fraction", "arabic-indic-digit"],
)
def test_unreadable_point_files_are_input_errors(tmp_path, content, message):
    (tmp_path / "bad.txt").write_bytes(content)
    code, out, err = run_process("solve", "--method", "dp", "bad.txt", cwd=tmp_path)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}") and "Traceback" not in err
    assert max(len(line) for line in err.splitlines()) < 200  # a long token is echoed by its head


HEAD = b"model sinktree1d\nsink 0\n"


@pytest.mark.parametrize(
    "content, message",
    [
        (HEAD + b"1" * 5000 + b" 0\n", "not an index: '" + "1" * 40 + "'... (5000 characters)"),
        (HEAD + b"1 x" + b"2" * 5000 + b"\n", "not an index: 'x" + "2" * 39 + "'... (5001 characters)"),
        (HEAD + b"1 -" + b"9" * 4000 + b"\n", "negative index: '-" + "9" * 39 + "'... (4001 characters)"),
        (HEAD + b"1 " + b"2" * 4000 + b"\n", "edge (1, " + "2" * 40 + "... (4000 characters)) references a missing"),
        (b"model sinktree1d\nsink " + b"3" * 4000 + b"\n1 0\n", "sink " + "3" * 40 + "... (4000 characters) references"),
        (HEAD + (b"4" * 4000 + b" 1\n") * 2, "point " + "4" * 40 + "... (4000 characters) has two receivers"),
        (HEAD + b"5" * 4000 + b" " + b"5" * 4000 + b"\n", "point " + "5" * 40 + "... (4000 characters) may not be its own"),
        (HEAD + b"0_1 0\n", "not an index: '0_1'"),
        (HEAD + "١ 0\n".encode(), "not an index: '١'"),
    ],
    ids=[
        "over-4300-digits",
        "long-token",
        "long-negative",
        "edge-out-of-range",
        "sink-out-of-range",
        "two-receivers",
        "own-receiver",
        "underscore",
        "arabic-indic-digit",
    ],
)
def test_unreadable_assignment_files_are_input_errors(tmp_path, content, message):
    (tmp_path / "line.txt").write_text("0\n1\n")
    (tmp_path / "bad.assign").write_bytes(content)
    for predicate in ("valid", "interference"):
        code, out, err = run_process("check", predicate, "line.txt", "bad.assign", cwd=tmp_path)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}") and "Traceback" not in err
        assert max(len(line) for line in err.splitlines()) < 200  # a long token is echoed by its head


@pytest.mark.parametrize(
    "content, message",
    [
        (b"0 0\n" + b"1" * 5000 + b" 0\n", "not an integer pair: '" + "1" * 40 + "'... (5002 characters)"),
        (b"0 0\n0 " + b"x" * 5000 + b"\n", "not an integer pair: '0 " + "x" * 38 + "'... (5002 characters)"),
        (b"0 0\n1_0 0\n", "not an integer pair: '1_0 0'"),
        ("0 0\n١ 0\n".encode(), "not an integer pair: '١ 0'"),
    ],
    ids=["over-4300-digits", "long-token", "underscore", "arabic-indic-digit"],
)
def test_unreadable_grid_files_are_input_errors(tmp_path, content, message):
    (tmp_path / "bad.grid").write_bytes(content)
    code, out, err = run_process("reduce", "bad.grid", cwd=tmp_path)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}") and "Traceback" not in err
    assert max(len(line) for line in err.splitlines()) < 200  # a long row is echoed by its head


def test_exit_code_cap(tmp_path, capsys):
    inst = tmp_path / "p4.txt"
    run(capsys, "gen", "p", "4", "-o", str(inst))
    code, _, err = run(capsys, "solve", "--method", "oracle", str(inst))
    assert code == 2
    assert "refused" in err


def test_dp_cap_refuses_without_traceback(tmp_path):
    from interfmin.dpsolve import DEFAULT_CAP_DP

    inst = tmp_path / "i.txt"
    inst.write_text("".join(f"{3 * i}\n" for i in range(DEFAULT_CAP_DP + 1)))
    for method in ("dp", "dp-optsearch"):
        code, out, err = run_process("solve", "--method", method, str(inst))
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert err.startswith("refused:")


def test_dp_cap_override(tmp_path, capsys):
    inst = tmp_path / "i.txt"
    inst.write_text("0\n1\n3\n4\n")
    for method in ("dp", "dp-optsearch"):
        code, _, err = run(capsys, "solve", "--method", method, str(inst), "--cap", "3")
        assert code == 2 and "refused" in err
        code, out, _ = run(capsys, "solve", "--method", method, str(inst), "--cap", "4")
        assert code == 0 and "optimum: 2" in out


# stdout of `solve --method dp` and `--method dp-optsearch`, recorded before the
# DP gained its value limit; pruning must not change a byte of it.
DP_GOLDEN = {
    "1 8 29 33 60 70 74 77": "optimum: 3\nmodel sinktree1d\nsink 0\n1 0\n2 1\n3 2\n4 5\n5 3\n6 5\n7 6\n",
    "0 4 30 35 39 42 64 70": "optimum: 2\nmodel sinktree1d\nsink 4\n0 2\n1 0\n2 3\n3 4\n5 4\n6 5\n7 6\n",
    "17 48 49 58 66 76 82": "optimum: 3\nmodel sinktree1d\nsink 0\n1 3\n2 1\n3 0\n4 3\n5 4\n6 5\n",
}


def test_dp_golden_output(tmp_path, capsys):
    inst = tmp_path / "i.txt"
    for values, expected in DP_GOLDEN.items():
        inst.write_text("\n".join(values.split()) + "\n")
        for method in ("dp", "dp-optsearch"):
            code, out, _ = run(capsys, "solve", "--method", method, str(inst))
            assert code == 0
            assert out == f"method: {method}\n" + expected, (values, method)


def test_solve_stats_shows_split_pairs(tmp_path, capsys):
    from interfmin.dpsolve import DpStats, solve_exact, solve_opt_search
    from interfmin.model import Instance1D

    values = [0, 4, 30, 35, 39, 42, 64, 70]
    inst = tmp_path / "i.txt"
    inst.write_text("".join(f"{v}\n" for v in values))
    for method, solver in (("dp", solve_exact), ("dp-optsearch", solve_opt_search)):
        stats = DpStats()
        solver(Instance1D.from_values(values), stats)
        code, out, _ = run(capsys, "solve", "--method", method, str(inst), "--stats")
        assert code == 0
        lines = out.splitlines()
        assert stats.split_pairs > 0 and stats.dropped_options > 0 and stats.side_options > 0
        assert stats.refuted_roots > 0 and stats.settled_pairs > 0
        for name, value in asdict(stats).items():
            assert f"{name}: {value}" in lines, (method, name)


def test_oracle_stats_show_passes_and_leaves(tmp_path, capsys):
    from interfmin.model import Instance1D, Instance2D
    from interfmin.oracle import OracleStats, brute_force_1d, brute_force_2d

    one_d = [0, 4, 30, 35, 39, 42, 64, 70]
    two_d = [(38, 29), (49, 20), (16, 74), (64, 25), (77, 68), (25, 14), (14, 62), (10, 79), (3, 21)]
    inst = tmp_path / "i.txt"
    for text, solver, instance in (
        ("".join(f"{v}\n" for v in one_d), brute_force_1d, Instance1D.from_values(one_d)),
        ("".join(f"{x} {y}\n" for x, y in two_d), brute_force_2d, Instance2D.from_values(two_d)),
    ):
        inst.write_text(text)
        stats = OracleStats()
        solver(instance, stats=stats)
        assert stats.passes >= 1 and stats.leaves >= 1
        _, plain, _ = run(capsys, "solve", "--method", "oracle", str(inst))
        code, out, _ = run(capsys, "solve", "--method", "oracle", str(inst), "--stats")
        assert code == 0
        lines = out.splitlines()
        assert f"passes: {stats.passes}" in lines and f"leaves: {stats.leaves}" in lines
        # --stats only adds lines; the report without it is unchanged.
        stat_lines = ("elapsed_s:", "passes:", "leaves:")
        assert plain.splitlines() == [line for line in lines if not line.startswith(stat_lines)]


def test_exit_code_unknown_flag(capsys):
    code, _, _ = run(capsys, "solve", "--nonsense")
    assert code == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (("gen", "random", "٣", "--seed", "1_0", "--coord-max", "+9"), "argument parameter: invalid integer value: '٣'"),
        (("gen", "random", "5", "--seed", "1_0"), "argument --seed: invalid integer value: '1_0'"),
        (("gen", "random", "5", "--seed", "1", "--coord-max", "+9"), "argument --coord-max: invalid integer value: '+9'"),
        (("gen", "p", "2.0"), "argument parameter: invalid integer value: '2.0'"),
        (("gen", "loglower", " 3"), "argument parameter: invalid integer value: ' 3'"),
        (("solve", "--method", "oracle", "line4.txt", "--cap", "+5"), "argument --cap: invalid integer value: '+5'"),
    ],
    ids=["gen-random-arabic-indic-digit", "seed-underscore", "coord-max-plus", "gen-p-decimal", "gen-space", "cap-plus"],
)
def test_integer_arguments_follow_the_file_grammar(tmp_path, argv, message):
    (tmp_path / "line4.txt").write_text("0\n1\n2\n3\n")
    code, out, err = run_process(*argv, cwd=tmp_path)
    assert (code, out) == (1, "")
    assert err.startswith("usage: interfmin ") and err.endswith(f"\nerror: {message}\n")
    assert sorted(f.name for f in tmp_path.iterdir()) == ["line4.txt"]


def test_integer_arguments_read_minus_zero_and_leading_zeros(capsys):
    plain = run(capsys, "gen", "random", "3", "--seed", "0", "--coord-max", "7")
    assert plain[0] == 0 and run(capsys, "gen", "random", "3", "--seed", "-0", "--coord-max", "007") == plain


def test_dp_rejects_2d(tmp_path, capsys):
    inst = tmp_path / "tri.txt"
    inst.write_text("0 0\n1 0\n0 1\n")
    code, _, err = run(capsys, "solve", "--method", "dp", str(inst))
    assert code == 1 and "1D" in err
    code, _, err = run(capsys, "check", "bst", str(inst), str(inst))
    assert code == 1


def test_cap_override(tmp_path, capsys):
    inst = tmp_path / "i.txt"
    inst.write_text("0\n1\n3\n4\n")
    code, _, err = run(capsys, "solve", "--method", "oracle", str(inst), "--cap", "3")
    assert code == 2 and "refused" in err
    code, out, _ = run(capsys, "solve", "--method", "oracle", str(inst), "--cap", "4")
    assert code == 0 and "optimum: 2" in out


def test_dot_export(tmp_path, capsys):
    inst = tmp_path / "tri.txt"
    inst.write_text("0 0\n1 0\n0 1\n")
    dot = tmp_path / "g.dot"
    code, _, _ = run(capsys, "solve", "--method", "oracle", str(inst), "--dot", str(dot))
    assert code == 0
    text = dot.read_text()
    assert text.startswith("digraph") and "->" in text


def test_gen_loglower(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "loglower", "5")
    assert code == 0
    assert out.split() == ["0", "1", "3", "4", "9"]


def test_gen_loglower_refuses_coordinates_too_long_to_write(tmp_path):
    # 79796 is the least size whose last filler has more than 4300 digits
    # (4301), which str() refuses to write and parse_points refuses to read.
    code, out, err = run_process("gen", "loglower", "79796", "-o", "ll.txt", cwd=tmp_path)
    assert (code, out) == (1, "")
    assert err == "error: cannot write a coordinate of more than 4300 digits\n"
    assert not (tmp_path / "ll.txt").exists()


def test_reduce_and_gadget_check(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("0 0\n1 0\n2 0\n")
    points = tmp_path / "red.txt"
    code, _, _ = run(capsys, "reduce", str(grid), "-o", str(points))
    assert code == 0
    roles = (points.parent / (points.name + ".roles")).read_text().splitlines()
    assert len(roles) == 39
    assert roles[0] == "0 0 0 M"
    code, out, _ = run(capsys, "check", "gadget", str(grid))
    assert code == 0 and "gadget: ok" in out


def test_ham_assign(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("0 0\n1 0\n2 0\n")
    pts = tmp_path / "pts.txt"
    assign = tmp_path / "assign.txt"
    code, out, _ = run(
        capsys, "ham", "assign", str(grid), "--points-out", str(pts), "--assign-out", str(assign)
    )
    assert code == 0
    assert "interference: 5" in out
    code, out, _ = run(capsys, "check", "interference", str(pts), str(assign))
    assert code == 0 and "interference: 5" in out


def test_ham_assign_checks_epsilon_before_output(tmp_path):
    grid = tmp_path / "path3.txt"
    grid.write_text("0 0\n1 0\n2 0\n")
    code, out, err = run_process("ham", "assign", str(grid), "--epsilon", "0")
    assert (code, out, err) == (1, "", "error: epsilon must be positive\n")
    tee = tmp_path / "tee.txt"
    tee.write_text("0 0\n1 0\n2 0\n1 1\n1 2\n")
    code, out, _ = run_process("ham", "assign", str(tee), "--epsilon", "0")
    assert (code, out) == (2, "ham_path: none\n")


def test_ham_no_path(tmp_path, capsys):
    grid = tmp_path / "tee.txt"
    grid.write_text("0 0\n1 0\n2 0\n1 1\n1 2\n")
    code, out, _ = run(capsys, "ham", "find", str(grid))
    assert code == 2
    assert "ham_path: none" in out


def test_gen_random_deterministic(capsys):
    code, out1, _ = run(capsys, "gen", "random", "6", "--seed", "11")
    code, out2, _ = run(capsys, "gen", "random", "6", "--seed", "11")
    assert out1 == out2
    assert len(out1.split()) == 6


# sha256 of the files `reduce -o` and `ham assign --points-out/--assign-out`
# write, and of `ham assign`'s stdout, recorded when instances still stored
# Fraction coordinates and gadgets were placed with Fraction arithmetic.
# The roles, the encoded assignment and the stdout do not depend on epsilon.
GOLDEN_GRIDS = {
    "path3": (
        "0 0\n1 0\n2 0\n",
        "c5eb88172116568344f4f4bfa548739f72b35ea9d24102ca3ab2d14ec0e6f500",
        "7fbc063bd9555a364c4f3cd9f4acb4242c61ce5ab6c97bd11b698225ffeb485f",
        "5551c8a8b276c939f04f95bf50066b23074b626e118c8572bb4de57c976433fe",
    ),
    "lshape": (
        "0 0\n0 1\n0 2\n0 3\n1 0\n2 0\n",
        "6785df1cd35b33618afc4c1a71606b07915659aba8c94a3309d97a12c237c84b",
        "a4aaa42357c3452c1da3a2def1ca0efbebbbf0c0fdb6fbfca619f2a58a95441b",
        "cdc9a532fbbb27e1c172c40e3c83ec65a1403a8d9088b973a15bd2d90bda10a4",
    ),
    "ladder3": (
        "0 0\n0 1\n1 0\n1 1\n2 0\n2 1\n",
        "573cbf2c61974da3418dd15dfb97e82383630c616c4a1e10cdc12fbb3cac7c18",
        "e008d4499240068f5d1d01dce6a550992d6c64c4f764aba6e1552a78906f5520",
        "88b44134ca2dd58f17bac4bdeed9684a3019902a89759f552213505e5b68367b",
    ),
}
GOLDEN_POINTS = {
    ("path3", "1/64"): "7958c8f6fcb1f2c42b593553e671bb0e6153bf394ab6191ea67867370bebba01",
    ("path3", "1/100"): "be21173ba14ef629719eaf99fd1cc19955993ce5ad73ae0b1db013fd0c9d701e",
    ("path3", "3/1000"): "bb318e5bf04ce7e7b54233b7ac3dd95ffeda809e3240ccb0541d07c730678824",
    ("lshape", "1/64"): "402e44f21e66873f4cc3d72e295dc55febc56a5a03d159a6bb4abfd315fa4f19",
    ("lshape", "1/100"): "3b0a429565b37b3ae4a381bbebc6a28acffbc0dbbc51907881aa4dd546b18d33",
    ("lshape", "3/1000"): "8b93db50a11970cd5758d8f789270091a1e9da6a6399a6d6f1dc6eef00e0a56d",
    ("ladder3", "1/64"): "ab40106d3f569a74ddd8094f4f0c9114f85da10d2232af7e8900bf8b6527ede1",
    ("ladder3", "1/100"): "588976e7ee3cfd4832a813314454263d81a1eec85d4425a1ae973a03a7929c85",
    ("ladder3", "3/1000"): "9ba324753789de0a1db82a203883cdbd6b90e72c3985ffd55ab86f43c59869ba",
}


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("name, eps", sorted(GOLDEN_POINTS), ids=lambda x: str(x))
def test_reduce_and_ham_assign_golden_files(tmp_path, capsys, name, eps):
    text, roles, assign, ham_out = GOLDEN_GRIDS[name]
    grid = tmp_path / "grid.txt"
    grid.write_text(text)
    reduced, points, encoded = tmp_path / "red.txt", tmp_path / "pts.txt", tmp_path / "e.assign"
    assert run(capsys, "reduce", str(grid), "--epsilon", eps, "-o", str(reduced)) == (0, "", "")
    code, out, _ = run(
        capsys, "ham", "assign", str(grid), "--epsilon", eps,
        "--points-out", str(points), "--assign-out", str(encoded),
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ham_out
    for path in (reduced, points):
        assert sha256_of(path) == GOLDEN_POINTS[name, eps]
        assert sha256_of(f"{path}.roles") == roles
    assert sha256_of(encoded) == assign
