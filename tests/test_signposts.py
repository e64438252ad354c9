import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from apportion import Exactness, InputError, SignpostSequence
from test_jump_and_step import FAMILIES


def test_linear_values():
    sp = SignpostSequence.linear(Fraction(1, 2))
    assert [sp.value(n) for n in range(5)] == [0, Fraction(1, 2), Fraction(3, 2), Fraction(5, 2), Fraction(7, 2)]
    assert sp.exactness is Exactness.RATIONAL
    assert sp.zero_count() == 0


def test_adams_zero_signpost():
    sp = SignpostSequence.linear(0)
    assert sp.value(1) == 0
    assert sp.zero_count() == 1


def test_clipped_linear():
    sp = SignpostSequence.clipped_linear(-5)
    assert sp.zero_count() == 6
    assert sp.value(6) == 0
    assert sp.value(7) == 1
    # 1 - beta rounds up to 2.0 in floats, but d(2) = 2**-53 > 0: one zero signpost, not two
    near = SignpostSequence.clipped_linear(-0.9999999999999999)
    assert (near.zero_count(), near.value(1), near.value(2)) == (1, 0.0, 2.0**-53)
    with pytest.raises(InputError):
        SignpostSequence.clipped_linear(1)
    with pytest.raises(InputError):
        SignpostSequence.linear(-1)


def test_power_and_geometric_are_float_or_exact():
    est = SignpostSequence.power(0.9)
    assert est.exactness is Exactness.FLOAT
    assert est.value(2) == pytest.approx(2**0.9)
    mac = SignpostSequence.geometric(2)
    assert mac.exactness is Exactness.RATIONAL
    assert [mac.value(n) for n in (1, 2, 3, 4)] == [1, 2, 4, 8]


def test_sqrt_pair_squared_comparisons():
    sp = SignpostSequence.sqrt_pair_product()
    assert sp.exactness is Exactness.SQUARED_RATIONAL
    # figures compare via squares: v^2 / (n (n-1))
    assert sp.figure(Fraction(3), 2) == Fraction(9, 2)
    assert sp.figure(Fraction(3), 1) == math.inf  # d(1) = 0


def test_table_validation_and_tail():
    with pytest.raises(InputError):
        SignpostSequence.table([2, 1])
    with pytest.raises(InputError):
        SignpostSequence.table([1, 1])  # equal positives
    SignpostSequence.table([0, 0, 1])  # repeated zeros are fine
    adj = SignpostSequence.table([Fraction(7, 10)], tail_beta=Fraction(1, 2))
    assert adj.value(1) == Fraction(7, 10)
    assert adj.value(2) == Fraction(3, 2)
    assert adj.asymptotic_beta() == Fraction(1, 2)
    assert adj.exactness is Exactness.RATIONAL


def test_table_cap_is_infinite_beyond():
    sp = SignpostSequence.table([1, 2], cap=2)
    assert sp.value(3) == math.inf
    assert sp.max_seats() == 2
    assert sp.figure(Fraction(5), 3) == 0


def test_envelopes():
    assert SignpostSequence.linear(1).beta_envelope() == (1, 1)
    assert SignpostSequence.sqrt_pair_product().beta_envelope() == (0, Fraction(1, 2))
    assert SignpostSequence.harmonic_pair().beta_envelope() == (0, Fraction(1, 2))
    assert SignpostSequence.power(0.9).beta_envelope() is None
    lo, hi = SignpostSequence.table([Fraction(7, 10)], tail_beta=Fraction(1, 2)).beta_envelope()
    assert (lo, hi) == (Fraction(1, 2), Fraction(7, 10))


def test_offsets_monotone_towards_half():
    # the sqrt and harmonic families stay within [n-1, n-1/2]
    for sp in (SignpostSequence.sqrt_pair_product(), SignpostSequence.harmonic_pair()):
        for n in range(1, 200):
            off = float(sp.value(n)) - (n - 1)
            assert -1e-12 <= off <= 0.5


@pytest.mark.parametrize(
    "sp",
    [
        SignpostSequence.linear(Fraction(1, 2)),
        SignpostSequence.linear(0.3),
        SignpostSequence.clipped_linear(-5),
        SignpostSequence.sqrt_pair_product(),
        SignpostSequence.harmonic_pair(),
        SignpostSequence.power(0.9),
        SignpostSequence.geometric(Fraction(3, 2)),
        SignpostSequence.table([1, 2, 3], cap=3),
    ],
    ids=lambda sp: sp.kind,
)
def test_negative_seat_index_rejected(sp):
    # a negative n once wrapped around to a table's last entry, or read a closed form below 0
    for evaluate in (
        lambda: sp.value(-1),
        lambda: sp.figure(1.0, -1),
        lambda: sp.figures(1.0, [-1, 3]),
        lambda: sp.figures(np.ones(2), np.array([[0, -2]])),
        lambda: sp.exact_pair(-1),
        lambda: sp.exact_pairs([-1]),
        lambda: sp.exact_pairs(np.array([3, -1, 0])),
    ):
        with pytest.raises(InputError, match="indexed from 0"):
            evaluate()
    assert sp.figures(1.0, np.empty(0, dtype=np.int64)).size == 0


def _fresh(sp):
    return SignpostSequence(sp.kind, sp.beta, sp.exponent, sp.ratio, sp.values, sp.cap, sp.tail_beta)


def _pair_of(d):
    return (1, 0) if d == math.inf else (Fraction(d).numerator, Fraction(d).denominator)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_cached_constants_equal_a_fresh_evaluation(name):
    # the scalar allocation's constants live in the instance dict, as _float_table does: not
    # part of the sequence's value, each what its method gives on a fresh instance, and not pickled
    sp = FAMILIES[name]
    z, cap, closed, integer, beta, width = sp._constants
    fresh = _fresh(sp)
    assert "_constants" in vars(sp) and "_constants" not in vars(fresh)
    assert sp == fresh and hash(sp) == hash(fresh) and repr(sp) == repr(fresh)
    assert (z, cap, sp.exactness) == (fresh.zero_count(), fresh.max_seats(), _fresh(sp).exactness)
    ns = list(range(z + 1, z + 80)) + [10**6, 2**40 + 3]
    assert (closed is None) == (fresh.closed_pair() is None)
    if closed:
        assert [closed(n) for n in ns] == [fresh.closed_pair()(n) for n in ns]
    exact = fresh.exactness is not Exactness.FLOAT
    assert (integer is not None) == (exact and fresh.kind != "geometric")
    if integer:
        assert [integer(n) for n in ns] == [_pair_of(fresh._figure_divisor(n)) for n in ns]
    b, envelope = fresh.asymptotic_beta(), fresh.beta_envelope()
    assert beta == (None if b is None else float(b))
    assert width == (None if envelope is None else float(max(b - min(envelope[0], 1), envelope[1] - b)))
    back = pickle.loads(pickle.dumps(sp))
    assert back == sp and "_constants" not in vars(back) and back._constants[:2] == (z, cap)


TABLES = {
    "capped": SignpostSequence.table([0, 0, Fraction(1, 3), 2, Fraction(7, 2), 5], cap=4),
    "adjusted-sainte-lague": SignpostSequence.table([Fraction(7, 10)], tail_beta=Fraction(1, 2)),
    "zero-then-tail": SignpostSequence.table([0, Fraction(1, 2)], tail_beta=Fraction(-1, 3)),
    "tail-from-zero": SignpostSequence.table([0], tail_beta=-1),  # d(2) = 0 from the tail
    "capped600": FAMILIES["capped600"],
}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_table_integer_pairs_equal_the_fractions_of_its_values(name):
    # over its zeros, its entries, its linear tail and past its cap, with no Fraction arithmetic
    sp = TABLES[name]
    assert sp._constants.closed is None and sp._constants.integer is not None
    for n in list(range(len(sp.values) + 40)) + [10**6]:
        a, b = sp.exact_pair(n)
        assert type(a) is int and type(b) is int
        assert (a, b) == _pair_of(sp.value(n))
