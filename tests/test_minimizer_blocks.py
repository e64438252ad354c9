"""The block oracle and the tie orbits built once, against the loops they replaced.

``brute_force_min`` scores int64 blocks of seat vectors in floats and decides
the candidates in the terms' own arithmetic; its argmin sets must equal the
``Fraction`` enumeration (``fraction_brute_force_min``) and the per-vector
integer loop (``loop_brute_force_min``), also where the terms leave the float
range (every vector a candidate) and where the vectors span several blocks.
``allocation._resolve_orbit`` builds each orbit once from the base seats; its
output must equal ``listed_orbit``'s, which compares every member with the
primary vector, except for the ``truncated`` flag, which now says whether a
member is left out.
"""

import dataclasses
import inspect
import pickle
import random
from fractions import Fraction
from math import comb, inf

import numpy as np
import pytest

import apportion.analysis as analysis
from apportion import (
    InfeasibleHouseSizeError,
    InputError,
    InstanceTooLargeError,
    InvariantError,
    PartyWeights,
    TiePolicy,
    allocate,
)
from apportion.allocation import Allocation, TieInfo, _resolve_orbit
from apportion.analysis import (
    FOURTH_POWER,
    SAINTE_LAGUE,
    SUM_SQUARES,
    _composition_blocks,
    _integer_terms,
    brute_force_min,
    verify_minimizer_identity,
)
from apportion.cli import run
from apportion.methods import method_by_name

from conftest import compositions, fraction_brute_force_min, listed_orbit, loop_brute_force_min, loop_compositions


def test_blocks_in_lexicographic_order_at_every_block_size():
    for total in range(8):
        for parts in range(1, 5):
            want = list(compositions(total, parts))
            assert list(loop_compositions(total, parts)) == want
            for rows in (1, 2, 3, 7, 100):
                blocks = list(_composition_blocks(total, parts, rows))
                assert all(b.dtype == np.int64 and b.shape[0] == parts and 0 < b.shape[1] <= rows for b in blocks)
                assert [tuple(v) for b in blocks for v in b.T.tolist()] == want


def test_terms_past_the_float_range_make_every_vector_a_candidate():
    # lcm(V) near 10**300 and excesses near 10**100: the Sainte-Lague terms pass 2**1024
    big = 10**100
    cases = [(SAINTE_LAGUE, [big + 1, big + 3, big + 7]), (FOURTH_POWER, [big + 1, 2 * big + 1, 3])]
    for functional, votes in cases:
        w = PartyWeights.of(votes)
        for house in range(7):
            if house:
                with pytest.raises(OverflowError):
                    np.array(_integer_terms(functional, w, house)[0], dtype=float)
            assert brute_force_min(functional, w, house) == fraction_brute_force_min(functional, w, house)


@pytest.mark.filterwarnings("error")
def test_float_sums_past_the_float_range():
    # terms below 2**1024 whose sum passes it: that vector scores inf, quietly
    s = 65 * 10**151
    for votes in ([s, s, s, s, 1], [s, s + 1, s + 2, s + 3, 1]):
        w = PartyWeights.of(votes)
        table = np.array(_integer_terms(SUM_SQUARES, w, 5)[0], dtype=float)
        assert np.isfinite(table).all() and float(table[4, 5]) + float(table[:4, 0].sum()) == inf
        for house in range(6):
            assert brute_force_min(SUM_SQUARES, w, house) == fraction_brute_force_min(SUM_SQUARES, w, house)


def test_argmin_across_several_blocks():
    # comb(39, 4) = 82251 vectors: two blocks of at most 2**16; equal votes spread the argmin over both
    w = PartyWeights.of([1, 1, 2, 2, 1])
    assert len(list(_composition_blocks(35, 5))) > 1
    for functional in (SAINTE_LAGUE, "max_abs", "jefferson"):
        got = brute_force_min(functional, w, 35)
        assert got == loop_brute_force_min(functional, w, 35)
    rng = random.Random(3)
    w = PartyWeights.of([rng.randint(1, 10**6) for _ in range(5)])
    assert brute_force_min(FOURTH_POWER, w, 35) == loop_brute_force_min(FOURTH_POWER, w, 35)


def test_limit_boundary_is_exact():
    w = PartyWeights.of([3, 2, 2, 1])
    count = comb(10 + 3, 3)
    assert brute_force_min(SAINTE_LAGUE, w, 10, limit=count) == fraction_brute_force_min(SAINTE_LAGUE, w, 10)
    with pytest.raises(InstanceTooLargeError):
        brute_force_min(SAINTE_LAGUE, w, 10, limit=count - 1)
    webster = method_by_name("webster")
    assert verify_minimizer_identity(webster, SAINTE_LAGUE, w, 10, limit=count).passed
    with pytest.raises(InstanceTooLargeError):
        verify_minimizer_identity(webster, SAINTE_LAGUE, w, 10, limit=count - 1)


def test_size_checked_before_the_orbit(monkeypatch):
    # 20 equal parties at house 10: comb(29, 19) vectors, an orbit of comb(20, 10); neither is built
    def no_allocate(*args):
        raise AssertionError("allocate called before the size check")

    monkeypatch.setattr(analysis, "allocate", no_allocate)
    w = PartyWeights.of([1] * 20)
    with pytest.raises(InstanceTooLargeError):
        verify_minimizer_identity(method_by_name("webster"), SAINTE_LAGUE, w, 10)
    argv = ["oracle-check", "--method", "webster", "--functional", "sainte_lague", "--seats", "10", "--votes"]
    argv.append(",".join(f"P{i}=1" for i in range(20)))
    assert run(argv) == 4


def test_error_precedence_of_the_minimizer_check(monkeypatch):
    # past the limit the size error wins over allocate's; under it allocate's error comes before any enumeration
    adams = method_by_name("adams")
    with pytest.raises(InstanceTooLargeError):  # Adams gives each of 20 parties a seat: house 10 is infeasible too
        verify_minimizer_identity(adams, SAINTE_LAGUE, PartyWeights.of([1] * 20), 10)
    argv = ["oracle-check", "--method", "adams", "--functional", "adams", "--seats", "10", "--votes"]
    assert run(argv + [",".join(f"P{i}=1" for i in range(20))]) == 4

    def no_enumeration(*args):
        raise AssertionError("seat vectors enumerated for a rejected instance")

    monkeypatch.setattr(analysis, "brute_force_min", no_enumeration)
    with pytest.raises(InfeasibleHouseSizeError):
        verify_minimizer_identity(adams, SAINTE_LAGUE, PartyWeights.of([1] * 5), 3)
    with pytest.raises(InfeasibleHouseSizeError):  # a negative house is allocate's error, as before
        verify_minimizer_identity(method_by_name("webster"), SAINTE_LAGUE, PartyWeights.of([1, 2]), -1)
    assert run(argv + ["A=1,B=1,C=1,D=1,E=1,F=1,G=1,H=1,I=1,J=1,K=1"]) == 2


def _tie_classes(rng):
    for _ in range(300):
        n = rng.randint(1, 6)
        m = n + rng.randint(0, 2)
        parties = tuple(sorted(rng.sample(range(m), n)))
        base = tuple(rng.randint(0, 4) for _ in parties)
        k = rng.randint(0, n)
        seats = [rng.randint(0, 4) for _ in range(m)]
        for j, (party, b) in enumerate(zip(parties, base)):
            seats[party] = b + (j < k)  # the canonical member
        yield seats, (parties, k, base), sum(seats)


def test_orbit_built_once_equals_the_listed_orbit():
    rng = random.Random(30)
    for seats, tie, house in _tie_classes(rng):
        size = comb(len(tie[0]), tie[1])
        for cap in range(1, size + 1):
            for policy in (TiePolicy.enumerate_all(cap), TiePolicy.average(cap), TiePolicy.seeded(house, cap)):
                got = _resolve_orbit(seats, tie, policy, house)
                want = listed_orbit(seats, tie, policy, house)
                assert got[:2] == want[:2]
                assert got[2].truncated == (size - 1 > cap)
                # the old flag was also set when the list reached the cap with nothing left out
                assert want[2].truncated == (size - 1 >= cap and size > 1)
                assert dataclasses.replace(got[2], truncated=want[2].truncated) == want[2]


def test_max_alternatives_means_what_it_says():
    webster = method_by_name("webster")
    a = allocate(webster, PartyWeights.of([1, 1]), 1, TiePolicy.enumerate_all(1))
    assert a.ties == ((0, 1),) and not a.tie_info.truncated
    a = allocate(webster, PartyWeights.of([1, 1, 1]), 1, TiePolicy.enumerate_all(2))
    assert len(a.ties) == 2 and not a.tie_info.truncated
    a = allocate(webster, PartyWeights.of([1, 1, 1]), 1, TiePolicy.enumerate_all(1))
    assert len(a.ties) == 1 and a.tie_info.truncated
    for policy in (TiePolicy.enumerate_all(0), TiePolicy.average(0), TiePolicy.seeded(5, 0)):
        a = allocate(webster, PartyWeights.of([1, 1, 1]), 1, policy)
        assert a.ties == () and a.tie_info.truncated and a.tie_info.orbit_size == 3
    for bad in (-1, 2.0, "3", True, None):
        with pytest.raises(InputError):
            TiePolicy.enumerate_all(bad)
        with pytest.raises(InputError):
            TiePolicy("random", seed=1, max_alternatives=bad)
    assert TiePolicy.enumerate_all(np.int64(4)).max_alternatives == 4


@pytest.mark.parametrize("cls", [Allocation, TieInfo])
def test_written_init_takes_the_declared_fields(cls):
    # the __init__ is written out for speed: its parameters must stay the dataclass fields, in order, with their defaults
    params = list(inspect.signature(cls).parameters.values())
    fields = dataclasses.fields(cls)
    assert [p.name for p in params] == [f.name for f in fields]
    for p, f in zip(params, fields):
        assert p.kind is p.POSITIONAL_OR_KEYWORD
        assert p.default == (p.empty if f.default is dataclasses.MISSING else f.default)


def test_result_types_keep_their_dataclass_contracts():
    info = TieInfo((0, 1), 1, (0, 0), 2)
    a = Allocation((1, 0), 1, ((0, 1),), info, (Fraction(2), Fraction(2)))
    b = Allocation(seats=(1, 0), house_size=1, ties=((0, 1),), tie_info=TieInfo((0, 1), 1, (0, 0), 2, False, False),
                   support_interval=(Fraction(2), Fraction(2)))
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    want = "TieInfo(parties=(0, 1), grants=1, base_seats=(0, 0), orbit_size=2, truncated=False, near=False)"
    assert repr(info) == want
    assert pickle.loads(pickle.dumps(a)) == a and pickle.loads(pickle.dumps(info)) == info
    assert dataclasses.replace(a, ties=()).ties == () and dataclasses.replace(info, near=True).near
    assert Allocation((2,), 2).support_interval == (None, None) and Allocation((2,), 2).tie_info is None
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.seats = (0, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        info.truncated = True
    with pytest.raises(InvariantError):
        Allocation((1, 1), 1)
    with pytest.raises(InvariantError):
        dataclasses.replace(a, house_size=2)
