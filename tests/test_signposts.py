import math
from fractions import Fraction

import numpy as np
import pytest

from apportion import Exactness, InputError, SignpostSequence


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
