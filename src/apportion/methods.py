"""Election methods: divisor (highest averages) and quota (largest remainder).

A divisor method is parametrized by a signpost sequence; a quota method by
the real number gamma defining the quota total_votes / (house_size + gamma)
(gamma = 0: Hamilton/Hare, 1: Droop, 2: Imperiali quota).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, _integer
from .signposts import SignpostSequence, _exact_or_float
from .weights import PartyWeights


@dataclass(frozen=True)
class DivisorMethod:
    signposts: SignpostSequence

    @property
    def is_divisor(self) -> bool:
        return True


@dataclass(frozen=True)
class QuotaMethod:
    gamma: Fraction | float

    def __post_init__(self):
        object.__setattr__(self, "gamma", _exact_or_float(self.gamma))

    @property
    def is_divisor(self) -> bool:
        return False


Method = DivisorMethod | QuotaMethod


def linear_divisor(beta) -> DivisorMethod:
    """Divisor method with d(n) = n - 1 + beta (clipped at 0 for beta < 0)."""
    b = _exact_or_float(beta)
    if b < 0:
        return DivisorMethod(SignpostSequence.clipped_linear(b))
    return DivisorMethod(SignpostSequence.linear(b))


def quota_method(gamma) -> QuotaMethod:
    return QuotaMethod(_exact_or_float(gamma))


# -- tie policies -------------------------------------------------------


@dataclass(frozen=True)
class TiePolicy:
    """How tied seat vectors are resolved and reported.

    A tie is one class (parties, grants, base_seats) whose orbit gives
    ``grants`` of the k tied parties one seat over their base.  Exact input
    finds it exactly; float input within NEAR_TIE_RTOL relative to the
    figures, or for quota to max(1, house + gamma) (an ideal seat count
    within NEAR_TIE_RTOL*max(1, |k|) of an integer k counts as k), and then
    flags a near-tie and keeps the float seats under every policy.  A sweep
    takes as the class a run of adjacent awards whose figures lie that
    close to each other (equal on exact input), or the remainders that
    close to the cut.

    * ``seeded(seed)``   the member drawn by ``random.Random(f"{seed}:{N}")``
                         at house N, in ``allocate`` and exact sweeps alike
    * ``enumerate_all()``pick the canonical member (lowest indices granted),
                         list the alternatives
    * ``average()``      canonical member; statistics use the exact orbit
                         average, base + grants/k per tied party

    An allocation lists at most ``max_alternatives`` (an integer >= 0) other orbit
    members and marks its TieInfo ``truncated`` when it leaves one out.
    """

    kind: str  # "random" | "enumerate" | "average"
    seed: int | None = None
    max_alternatives: int = 10_000

    def __post_init__(self):
        object.__setattr__(self, "max_alternatives", _integer(self.max_alternatives, "max_alternatives", True))

    @classmethod
    def seeded(cls, seed: int, max_alternatives: int = 10_000) -> "TiePolicy":
        return cls("random", seed=seed, max_alternatives=max_alternatives)

    @classmethod
    def enumerate_all(cls, max_alternatives: int = 10_000) -> "TiePolicy":
        return cls("enumerate", max_alternatives=max_alternatives)

    @classmethod
    def average(cls, max_alternatives: int = 10_000) -> "TiePolicy":
        return cls("average", max_alternatives=max_alternatives)


DEFAULT_TIES = TiePolicy.enumerate_all()


# -- small-N guard -------------------------------------------------------


def small_n_guard(method: Method, weights: PartyWeights) -> int:
    """Smallest house size above which the method is clean.

    Above the guard, deterministic seat-excess bounds hold, mandatory seats
    fit, and quota methods cannot produce negative seat counts.
    """
    m = len(weights)
    if isinstance(method, DivisorMethod):
        sp = method.signposts
        guard = max(1, m * sp.zero_count())
        beta = sp.asymptotic_beta()
        if beta is not None and beta > 1:
            # below this, a tiny party's rounding could go negative
            min_p = min(weights.shares)
            try:
                bound = (1 / min_p - m) * (beta - 1)
            except OverflowError:  # float shares and an exact beta past the float range
                bound = Fraction(1 / min_p - m) * (beta - 1)
            guard = max(guard, math.floor(bound) + 1)
        return guard
    gamma = method.gamma
    guard = 1
    if gamma < 0:
        guard = max(guard, math.floor(-gamma) + 1)
    if gamma < -1 or gamma > 1:
        # ensure the deterministic bound keeps every seat count nonnegative
        for p in weights.shares:
            need = (Fraction(m - 1, m) + gamma / m - gamma * p) / p
            guard = max(guard, math.floor(need) + 1)
    return guard


# -- name registry --------------------------------------------------------

_REGISTRY = {
    "jefferson": lambda: linear_divisor(1),
    "dhondt": lambda: linear_divisor(1),
    "d'hondt": lambda: linear_divisor(1),
    "webster": lambda: linear_divisor(Fraction(1, 2)),
    "sainte-lague": lambda: linear_divisor(Fraction(1, 2)),
    "adams": lambda: linear_divisor(0),
    "imperiali": lambda: linear_divisor(2),
    "danish": lambda: linear_divisor(Fraction(1, 3)),
    "adjusted-sainte-lague": lambda: DivisorMethod(
        SignpostSequence.table([Fraction(7, 10)], tail_beta=Fraction(1, 2))
    ),
    "cambridge": lambda: linear_divisor(-5),
    "huntington": lambda: DivisorMethod(SignpostSequence.sqrt_pair_product()),
    "dean": lambda: DivisorMethod(SignpostSequence.harmonic_pair()),
    "estonia": lambda: DivisorMethod(SignpostSequence.power(0.9)),
    "macau": lambda: DivisorMethod(SignpostSequence.geometric(2)),
    "hamilton": lambda: quota_method(0),
    "hare": lambda: quota_method(0),
    "droop": lambda: quota_method(1),
    "imperiali-quota": lambda: quota_method(2),
}


def _parse_parameter(text: str) -> Fraction | float:
    """Parse a method parameter, exact where the text allows it."""
    try:
        return Fraction(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise InputError(f"cannot parse method parameter {text!r}") from None


def method_by_name(name: str) -> Method:
    """Look up a method by registry name, or ``linear:<beta>`` / ``quota:<gamma>``."""
    key = name.strip().lower()
    if key in _REGISTRY:
        return _REGISTRY[key]()
    if ":" in key:
        family, _, param = key.partition(":")
        if family == "linear":
            return linear_divisor(_parse_parameter(param))
        if family == "quota":
            return quota_method(_parse_parameter(param))
        raise InputError(f"unknown parametric family {family!r}")
    raise InputError(f"unknown method {name!r}")


def method_names() -> list[str]:
    return sorted(_REGISTRY)
