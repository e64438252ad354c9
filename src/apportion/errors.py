"""Exception types shared across the package."""

from numbers import Integral


class ApportionError(Exception):
    """Base class for every error raised by this package."""


class InputError(ApportionError):
    """Malformed votes, shares, or configuration."""


def _integer(value, name: str, nonnegative: bool = False) -> int:
    """``value`` as an int: an integer (numpy's too, not a bool), >= 0 if ``nonnegative``; else InputError."""
    whole = type(value) is int or isinstance(value, Integral) and not isinstance(value, bool)
    if not whole or nonnegative and value < 0:
        raise InputError(f"{name} must be a{' nonnegative' if nonnegative else 'n'} integer, got {value!r}")
    return int(value)


class DimensionMismatchError(InputError):
    """Two inputs disagree on the number of parties."""


class InfeasibleHouseSizeError(ApportionError):
    """The house size cannot be reached by the method (too small for
    mandatory seats, or negative)."""


class CapExceededError(ApportionError):
    """A capped signpost table makes the requested house size unreachable,
    or a value lies beyond the last finite signpost."""


class NonpositiveQuotaError(ApportionError):
    """Quota methods need house_size + gamma > 0."""


class NegativeSeatError(ApportionError):
    """An extreme quota parameter produced a negative seat count; reported
    rather than silently clamped."""


class NonRationalWeightsError(ApportionError):
    """Operation requires exact rational vote counts."""


class UnsupportedMethodError(ApportionError):
    """No closed-form result exists for this method/functional combination."""


class InstanceTooLargeError(ApportionError):
    """Brute-force enumeration would exceed the configured size limit."""


class InvariantError(ApportionError):
    """A runtime invariant is broken (a seat vector that misses the house
    size, a jump start outside its bracket, a pooled seat count too small
    to sub-apportion, an unknown signpost kind); raised instead of returning
    a wrong result."""
