import hashlib
import math
import random

import pytest

from interfmin.errors import InputError
from interfmin.families import gen_log_lower, gen_p, gen_q, random_instance_1d
from interfmin.model import Instance1D, interference, is_valid
from interfmin.nna import nna, nna_round
from interfmin.dpsolve import solve_exact


def log_bound(n):
    return math.ceil(math.log2(n)) + 2


def test_two_points():
    inst = Instance1D.from_values([0, 1])
    a = nna(inst)
    assert a.sink == 0 and a.receiver == {1: 0}
    assert interference(inst, a) == 1


def test_singleton():
    a = nna(Instance1D.from_values([9]))
    assert a.sink == 0 and a.receiver == {}


def test_round_trace_matches_hand_run():
    inst = Instance1D.from_values([0, 1, 3, 4])
    singletons = [(i, i, i) for i in range(4)]
    receiver = {}
    round1 = nna_round(inst, singletons, receiver)
    assert [(lo, hi, sink) for lo, hi, sink in round1] == [(0, 1, 0), (2, 3, 2)]
    assert receiver == {1: 0, 3: 2}
    round2 = nna_round(inst, round1, receiver)
    assert [(lo, hi, sink) for lo, hi, sink in round2] == [(0, 3, 0)]
    assert receiver == {1: 0, 3: 2, 2: 1}


def test_single_component_errors():
    inst = Instance1D.from_values([0, 1])
    with pytest.raises(InputError):
        nna_round(inst, [(0, 1, 0)], {1: 0})


def test_structured_instances():
    for i in range(1, 11):
        fam = gen_p(i)
        rounds = []
        a = nna(fam.instance, rounds)
        assert is_valid(fam.instance, a)
        assert interference(fam.instance, a) <= log_bound(fam.instance.n)
        assert len(rounds) <= math.ceil(math.log2(fam.instance.n))


def test_random_instances():
    rng = random.Random(5150)
    for trial in range(10):
        n = rng.randint(2, 400)
        inst = Instance1D.from_values(rng.sample(range(0, 100000), n))
        rounds = []
        a = nna(inst, rounds)
        assert is_valid(inst, a)
        assert interference(inst, a) <= log_bound(n)
        assert len(rounds) <= math.ceil(math.log2(n))


def test_equal_spacing_ties():
    inst = Instance1D.from_values(range(16))
    a = nna(inst)
    assert is_valid(inst, a)
    assert interference(inst, a) <= log_bound(16)


def test_determinism():
    inst = random_instance_1d(300, seed=99, coord_max=10000)
    a = nna(inst)
    b = nna(inst)
    assert a.receiver == b.receiver and a.sink == b.sink


def test_never_beats_exact_solver():
    rng = random.Random(8080)
    for _ in range(10):
        n = rng.randint(2, 7)
        inst = Instance1D.from_values(rng.sample(range(0, 101), n))
        assert interference(inst, nna(inst)) >= solve_exact(inst).optimum


def golden_instances():
    for n in range(1, 81):
        # The tight coordinate ranges force many equal spacings, so both tie
        # rules (successor and survivor) are exercised.
        for coord_max in (n - 1, n, n + 1, n + 2, 100, 10**6):
            yield random_instance_1d(n, seed=n, coord_max=coord_max)
    for n in range(1, 201):
        yield gen_log_lower(n).instance
        yield Instance1D.from_values(range(n))
    for i in range(11):
        yield gen_p(i).instance
    for k in range(6):
        yield gen_q(k).instance


def test_golden_digest():
    # Recorded before nna_round was rewritten as one pass over the components.
    h = hashlib.sha256()
    count = 0
    for inst in golden_instances():
        rounds = []
        a = nna(inst, rounds)
        partitions = [[(lo, hi, sink) for lo, hi, sink in r] for r in rounds]
        h.update(f"{a.sink} {sorted(a.receiver.items())} {partitions}\n".encode())
        count += 1
    assert (count, h.hexdigest()[:16]) == (897, "32e15710bf6011d0")
