"""Triads and the elementary ratio-preserving transforms.

A triad is a 3x3 positive reciprocal matrix, stored as its three
above-diagonal entries (t12, t13, t23).  The lower triangle is implied by
reciprocity, so the reciprocal invariant is structural and never needs
revalidation.  Everything here is an immutable value; all operations are
pure functions and safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

__all__ = [
    "DomainError",
    "Triad",
    "consistency_ratio",
    "is_consistent",
    "permute_triad",
    "transpose_triad",
    "power_transform",
    "single_entry_perturb",
    "scale_transform",
]

# The one equality band (_close, _band): is_consistent, the axioms' relations and the concordance ties read it.
_TOLERANCE = 1e-9


_INF = math.inf


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=_TOLERANCE, abs_tol=_TOLERANCE)


def _band(a: float, b: float = 0.0) -> float:
    return _TOLERANCE * max(1.0, abs(a), abs(b))


class DomainError(ValueError):
    """Raised when an input violates a documented precondition."""


def _require_positive_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise DomainError(f"{name} must be a finite positive real, got {value!r}")
    return value


@dataclass(frozen=True, slots=True)
class Triad:
    """The three above-diagonal entries of a 3x3 reciprocal matrix.

    Each entry is stored as a float in (0, inf); any other value is converted
    with ``float`` or rejected with a DomainError that names its field.  The
    entries live in slots, so a triad has no ``__dict__``.
    """

    t12: float
    t13: float
    t23: float

    def __init__(self, t12: float, t13: float, t23: float):
        # Fast path: three floats in (0, inf) are stored as they are.  Anything
        # else is converted or rejected, field by field, in the general path.
        if not (
            type(t12) is float
            and type(t13) is float
            and type(t23) is float
            and 0.0 < t12 < _INF
            and 0.0 < t13 < _INF
            and 0.0 < t23 < _INF
        ):
            t12 = _require_positive_finite("t12", t12)
            t13 = _require_positive_finite("t13", t13)
            t23 = _require_positive_finite("t23", t23)
        _set_t12(self, t12)
        _set_t13(self, t13)
        _set_t23(self, t23)

    def __reduce__(self):
        # Pickle and copy rebuild a triad through __init__, not through the state
        # methods that dataclass(slots=True) generates, which vary across Python versions.
        return Triad, (self.t12, self.t13, self.t23)

    def entry(self, position: str) -> float:
        key = str(position)
        if key == "12":
            return self.t12
        if key == "13":
            return self.t13
        if key == "23":
            return self.t23
        raise DomainError(f"position must be one of '12', '13', '23', got {position!r}")

    def as_dict(self) -> dict[str, float]:
        return {"t12": self.t12, "t13": self.t13, "t23": self.t23}


# Store a field of a frozen triad past its __setattr__, straight into the slot.
# Fetched from the class that dataclass(slots=True) returns, which replaces the
# class body's.  On CPython 3.11 a triad then builds in about 600 ns, against
# about 880 ns through object.__setattr__ on an unslotted class.
_set_t12, _set_t13, _set_t23 = Triad.t12.__set__, Triad.t13.__set__, Triad.t23.__set__


def consistency_ratio(t: Triad) -> float:
    """x = t13 / (t12 * t23); equals 1 exactly when the triad is consistent."""
    return t.t13 / (t.t12 * t.t23)


def is_consistent(t: Triad) -> bool:
    """Whether the consistency ratio is 1 within the one equality band (_close); an infinite ratio never is."""
    return _close(consistency_ratio(t), 1.0)


# The six bijections, each reading the permuted entries straight from the
# triad: cell (i, j) of the result is cell (p.index(i), p.index(j)) of the
# input matrix, an entry t_ij above the diagonal or its reciprocal 1 / t_ji below.
_PERMUTERS: dict[tuple[int, ...], Callable[[Triad], Triad]] = {
    (0, 1, 2): lambda t: Triad(t.t12, t.t13, t.t23),
    (0, 2, 1): lambda t: Triad(t.t13, t.t12, 1.0 / t.t23),
    (1, 0, 2): lambda t: Triad(1.0 / t.t12, t.t23, t.t13),
    (1, 2, 0): lambda t: Triad(1.0 / t.t13, 1.0 / t.t23, t.t12),
    (2, 0, 1): lambda t: Triad(t.t23, 1.0 / t.t12, 1.0 / t.t13),
    (2, 1, 0): lambda t: Triad(1.0 / t.t23, 1.0 / t.t13, 1.0 / t.t12),
}


def permute_triad(t: Triad, perm: Sequence[int]) -> Triad:
    """Relabel the alternatives of `t`: ``perm[i]`` is the new position of alternative i (0-based).

    ``perm`` may be any iterable whose items equal a permutation of (0, 1, 2) by value; anything else
    raises DomainError.
    """
    try:
        permuter = _PERMUTERS[tuple(perm)]
    except (KeyError, TypeError):
        raise DomainError(f"perm must be a bijection on 0..2, got {perm!r}") from None
    return permuter(t)


def transpose_triad(t: Triad) -> Triad:
    """Transpose of the underlying matrix: entrywise reciprocal of the triad."""
    return Triad(1.0 / t.t12, 1.0 / t.t13, 1.0 / t.t23)


def _power_or_inf(x: float, b: float) -> float:
    """x ** b, or inf where it overflows: Triad then names the field, as it does an underflow to 0."""
    try:
        return x**b
    except OverflowError:
        return _INF


def power_transform(t: Triad, b: float) -> Triad:
    """Entrywise power (t12^b, t13^b, t23^b), reciprocal for any finite b; a power out of range raises DomainError."""
    b = float(b)
    if not math.isfinite(b):
        raise DomainError(f"b must be finite, got {b!r}")
    try:
        return Triad(t.t12**b, t.t13**b, t.t23**b)
    except OverflowError:
        return Triad(_power_or_inf(t.t12, b), _power_or_inf(t.t13, b), _power_or_inf(t.t23, b))


def scale_transform(t: Triad, k: float) -> Triad:
    """Ratio-preserving rescaling (k*t12, k^2*t13, k*t23), k > 0."""
    k = _require_positive_finite("k", k)
    return Triad(k * t.t12, k * k * t.t13, k * t.t23)


def single_entry_perturb(t: Triad, position: str, delta: float) -> Triad:
    """Replace one entry of a consistent triad by its delta-th power.

    The below-diagonal mate follows by reciprocity.  Preconditions follow the
    monotonicity axioms: the input must be consistent and the chosen entry
    must differ from 1.  A power that overflows or underflows raises DomainError naming its field.
    """
    delta = float(delta)
    if not math.isfinite(delta):
        raise DomainError(f"delta must be finite, got {delta!r}")
    if not is_consistent(t):
        raise DomainError(f"input triad must be consistent, got consistency ratio {consistency_ratio(t)!r}")
    position = str(position)
    entry = t.entry(position)
    if entry == 1.0:
        raise DomainError(f"entry at position {position} equals 1; the perturbed entry must differ from 1")
    try:
        return _with_entry(t, position, entry**delta)
    except OverflowError:
        return _with_entry(t, position, _INF)


def _with_entry(t: Triad, position: str, value: float) -> Triad:
    """``t`` with the entry at ``position`` ('12', '13' or '23') replaced by ``value``."""
    if position == "12":
        return Triad(value, t.t13, t.t23)
    if position == "13":
        return Triad(t.t12, value, t.t23)
    return Triad(t.t12, t.t13, value)
