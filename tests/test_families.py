import pytest

from interfmin.errors import InputError
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
    has_bst_property,
    interference,
    interference_at,
    is_valid,
)
from interfmin.oracle import brute_force_1d


def q_diameter(k: int) -> int:
    return (3 ** (k + 3) - 2 ** (k + 3) - 1) // 2


def test_gen_p_values():
    assert [int(x) for x in gen_p(2).instance.points] == [0, 1, 3, 4]
    assert [int(x) for x in gen_p(0).instance.points] == [0]
    assert gen_p(3).instance.diameter() == 13


def test_gen_p_closed_forms():
    for i in range(13):
        fam = gen_p(i)
        assert fam.instance.n == 2**i
        assert fam.instance.diameter() == p_diameter(i)


def test_gen_p_range():
    with pytest.raises(InputError):
        gen_p(-1)
    with pytest.raises(InputError):
        gen_p(21)


def test_optimal_assignment_p_level2():
    a = optimal_assignment_p(2, "left")
    assert a.receiver == {1: 0, 3: 2, 2: 1} and a.sink == 0
    inst = gen_p(2).instance
    assert interference(inst, a) == 2


def test_optimal_assignment_p_errors():
    with pytest.raises(InputError):
        optimal_assignment_p(0)
    with pytest.raises(InputError):
        optimal_assignment_p(3, "middle")


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("i", range(1, 13))
def test_optimal_assignment_p_properties(i, side):
    inst = gen_p(i).instance
    a = optimal_assignment_p(i, side)
    assert is_valid(inst, a)
    assert has_bst_property(inst, a)
    assert interference(inst, a) == i
    root = 0 if side == "left" else inst.n - 1
    far = inst.n - 1 - root
    assert a.sink == root
    assert interference_at(inst, a, root) == 1
    assert interference_at(inst, a, far) == i


def test_mirror_symmetry():
    for i in (1, 2, 3, 4):
        n = 2**i
        left = optimal_assignment_p(i, "left")
        right = optimal_assignment_p(i, "right")
        flipped = {n - 1 - p: n - 1 - q for p, q in left.receiver.items()}
        assert flipped == right.receiver
        assert n - 1 - left.sink == right.sink


def test_gen_q_values():
    fam = gen_q(0)
    assert [int(x) for x in fam.instance.points] == [0, 5, 6, 8, 9]
    assert fam.instance.diameter() == 9
    assert gen_q(1).instance.diameter() == 32


def test_gen_q_block_layout():
    fam = gen_q(1)
    # the level-3 block goes on the left
    assert fam.block_map[0] == "R_3"
    assert fam.block_map[fam.instance.n - 1] == "R_2"
    blocks = set(fam.block_map.values())
    assert blocks == {"a", "R_2", "R_3"}
    fam2 = gen_q(2)
    assert fam2.block_map[fam2.instance.n - 1] == "R_4"  # even step goes right


def test_gen_q_closed_forms():
    for k in range(9):
        assert gen_q(k).instance.diameter() == q_diameter(k)
        assert gen_q(k).instance.n == 2 ** (k + 3) - 3


def test_gen_q_range():
    with pytest.raises(InputError):
        gen_q(11)


def test_optimal_assignment_q_oracle_confirms():
    fam = gen_q(0)
    a = optimal_assignment_q(0)
    assert is_valid(fam.instance, a)
    assert interference(fam.instance, a) == 2
    assert brute_force_1d(fam.instance).optimum == 2


@pytest.mark.parametrize("k", range(7))
def test_optimal_assignment_q_properties(k):
    fam = gen_q(k)
    a = optimal_assignment_q(k)
    assert is_valid(fam.instance, a)
    assert interference(fam.instance, a) == k + 2
    assert count_bends(fam.instance, a) >= k


def test_q_bends_are_not_cross_edges():
    for k in (0, 1, 2):
        fam = gen_q(k)
        a = optimal_assignment_q(k)
        assert cross_edges(fam.instance, a) == []


def test_gen_log_lower():
    assert gen_log_lower(4).instance == gen_p(2).instance
    assert [int(x) for x in gen_log_lower(5).instance.points] == [0, 1, 3, 4, 9]
    fam = gen_log_lower(6)
    assert [fam.block_map[i] for i in range(6)] == ["core"] * 4 + ["filler"] * 2
    assert brute_force_1d(fam.instance).optimum >= 2
    assert gen_log_lower(1).instance.n == 1


def test_random_instance():
    a = random_instance_1d(8, seed=5)
    b = random_instance_1d(8, seed=5)
    assert a == b
    assert all(0 <= x <= 100 for x in a.points)
    with pytest.raises(InputError):
        random_instance_1d(200, seed=1, coord_max=100)
