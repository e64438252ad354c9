"""Apportionment laboratory.

Seat allocation engines for divisor (highest averages) and quota (largest
remainder) election methods with exact tie detection, closed-form asymptotic
predictions for the seat excess, and a simulation harness that verifies the
formulas empirically.
"""

from .allocation import (
    Allocation,
    QuotaFlags,
    SeatExcess,
    TieInfo,
    allocate,
    allocate_divisor,
    allocate_quota,
    alpha_round,
    d_round,
    quota_satisfaction,
    seat_excess,
)
from .errors import (
    ApportionError,
    CapExceededError,
    DimensionMismatchError,
    InfeasibleHouseSizeError,
    InputError,
    InstanceTooLargeError,
    InvariantError,
    NegativeSeatError,
    NonpositiveQuotaError,
    NonRationalWeightsError,
    UnsupportedMethodError,
)
from .methods import (
    DivisorMethod,
    Method,
    QuotaMethod,
    TiePolicy,
    linear_divisor,
    method_by_name,
    method_names,
    quota_method,
    small_n_guard,
)
from .signposts import Exactness, SignpostSequence
from .weights import PartyWeights

__version__ = "0.1.0"
