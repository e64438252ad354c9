"""Party vote counts and the derived vote shares.

Votes may be exact rationals (ints or ``Fraction``), in which case every
derived quantity stays exact, or floats, in which case the weights carry an
``exact=False`` flag and downstream comparisons fall back to epsilon logic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, inf, lcm
from numbers import Rational
from typing import Iterable, Sequence

from .errors import InputError, NonRationalWeightsError

Weight = Fraction | float


def _coerce_vote(v) -> Weight:
    if isinstance(v, bool):
        raise InputError(f"vote {v!r} is not a number")
    if isinstance(v, Rational):
        return Fraction(v)
    if isinstance(v, float):
        return v
    raise InputError(f"vote {v!r} is not a rational or float")


@dataclass(frozen=True)
class PartyWeights:
    """Vote counts v_i with derived total and shares p_i = v_i / total."""

    votes: tuple[Weight, ...]
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        if len(self.votes) < 1:
            raise InputError("at least one party is required")
        floats = [isinstance(v, float) for v in self.votes]
        if any(floats) and not all(floats):  # mixed votes compare as floats, so they become floats
            try:
                object.__setattr__(self, "votes", tuple(map(float, self.votes)))
            except OverflowError:
                raise InputError("a vote count exceeds the float range") from None
        for v in self.votes:
            if not 0 < v < inf:
                raise InputError(f"every vote count must be positive and finite, got {v!r}")
        if self.names is not None and not len(set(self.names)) == len(self.names) == len(self.votes):
            raise InputError(f"need one distinct name for each of {len(self.votes)} parties, got {list(self.names)}")

    @classmethod
    def of(cls, votes: Iterable, names: Sequence[str] | None = None) -> "PartyWeights":
        """Build weights, keeping ints/Fractions exact and floats inexact."""
        coerced = tuple(_coerce_vote(v) for v in votes)
        return cls(coerced, tuple(names) if names is not None else None)

    def __len__(self) -> int:
        return len(self.votes)

    @cached_property
    def exact(self) -> bool:
        return all(isinstance(v, Fraction) for v in self.votes)

    @cached_property
    def total(self) -> Weight:
        if self.exact:
            return sum(self.votes, Fraction(0))
        return float(sum(float(v) for v in self.votes))

    @cached_property
    def shares(self) -> tuple[Weight, ...]:
        t = self.total
        if self.exact:
            return tuple(v / t for v in self.votes)
        return tuple(float(v) / t for v in self.votes)

    @cached_property
    def integer_votes(self) -> tuple[tuple[int, ...], int]:
        """Coprime integer votes V_i and their total T with p_i = V_i / T.

        The votes are multiplied by the lcm of their denominators and divided
        by the gcd of the results; requires exact votes.
        """
        if not self.exact:
            raise NonRationalWeightsError("integer votes need exact rational votes")
        scale = lcm(*(v.denominator for v in self.votes))
        ints = [v.numerator * (scale // v.denominator) for v in self.votes]
        g = gcd(*ints)
        ints = tuple(x // g for x in ints)
        return ints, sum(ints)

    def shares_float(self) -> tuple[float, ...]:
        return tuple(float(p) for p in self.shares)

    def share_denominator(self) -> int:
        """Least common denominator L of the shares; requires exact votes.

        L is the total T of the coprime integer votes.
        """
        return self.integer_votes[1]

    def scaled(self, factor) -> "PartyWeights":
        """Multiply every vote count by a positive constant."""
        f = _coerce_vote(factor)
        return PartyWeights(tuple(v * f for v in self.votes), self.names)

    def merged(self, i: int, j: int) -> tuple["PartyWeights", int]:
        """Pool the votes of parties i and j.

        Returns the reduced weights (parties in original order with j removed
        and i replaced by the pooled count) and the index of the pooled party.
        """
        if i == j:
            raise InputError("cannot merge a party with itself")
        i, j = sorted((i, j))
        votes = list(self.votes)
        votes[i] = votes[i] + votes[j]
        del votes[j]
        names = None
        if self.names is not None:
            names = list(self.names)
            names[i] = f"{self.names[i]}+{self.names[j]}"
            del names[j]
        return PartyWeights(tuple(votes), tuple(names) if names else None), i
