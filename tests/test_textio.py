from fractions import Fraction

import pytest

from interfmin.errors import InputError
from interfmin.model import SINKTREE1D, Instance1D, Instance2D, ReceiverAssignment
from interfmin.textio import (
    format_assignment,
    format_points,
    parse_assignment,
    parse_grid,
    parse_points,
)


def test_parse_points_1d():
    inst = parse_points("# comment\n3/2\n0\n1  # trailing\n")
    assert isinstance(inst, Instance1D)
    assert inst.points == (0, 1, Fraction(3, 2))


def test_parse_points_2d():
    inst = parse_points("0 0\n1 0\n0 1\n")
    assert isinstance(inst, Instance2D)
    assert inst.n == 3


def test_parse_points_errors():
    with pytest.raises(InputError):
        parse_points("")
    with pytest.raises(InputError):
        parse_points("1\n2 3\n")
    with pytest.raises(InputError):
        parse_points("a b c\n")
    with pytest.raises(InputError):
        parse_points("x\n")
    with pytest.raises(InputError, match="^duplicate 1D point: 1/2$"):
        parse_points("0\n1/2\n2/4\n")
    with pytest.raises(InputError, match="^1D points must be strictly increasing$"):
        Instance1D((1, 0), 1)


def test_points_round_trip():
    inst = Instance1D.from_values([0, "1/3", 5])
    assert parse_points(format_points(inst)) == inst
    text = format_points(inst)
    assert format_points(parse_points(text)) == text


def test_assignment_round_trip():
    a = ReceiverAssignment(SINKTREE1D, {1: 0, 2: 1}, 0)
    text = format_assignment(a)
    assert parse_assignment(text) == a
    # canonical output is byte-stable under reparsing
    assert format_assignment(parse_assignment(text)) == text


def test_parse_assignment_errors():
    with pytest.raises(InputError):
        parse_assignment("")
    with pytest.raises(InputError):
        parse_assignment("model nope\n")
    with pytest.raises(InputError):
        parse_assignment("model sinktree1d\nsink 0\n1 0\n1 2\n")
    with pytest.raises(InputError):
        parse_assignment("model sinktree1d\nsink 0\n1\n")


def test_parse_grid():
    assert parse_grid("0 0\n1 0 # right\n") == [(0, 0), (1, 0)]
    with pytest.raises(InputError):
        parse_grid("0 0\n0 0\n")
    with pytest.raises(InputError):
        parse_grid("0\n")
