"""Catalog of triad inconsistency indices.

Each index maps a triad to a real number measuring its deviation from
consistency (t13 = t12 * t23).  Besides the four "serious" indices (natural,
scale_dependent, koczkodaj, saaty_ci) the catalog carries six deliberately
defective indices cx1..cx6 used to separate the audit axioms from each
other, a flat (constant) index and a discretised variant of the natural
index.  Every entry declares the axiom profile it is expected to exhibit
under the falsification engine, which audits compare against.

All evaluations are pure and reentrant; the catalog itself is immutable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from .core import Triad, consistency_ratio, is_consistent

__all__ = [
    "AXIOMS",
    "IndexDescriptor",
    "UnknownIndexError",
    "CATALOG",
    "INDEX_IDS",
    "get_index",
    "natural_index",
    "scale_dependent_index",
    "koczkodaj_index",
    "saaty_ci",
]

# Canonical axiom order used by audits, reports and profiles.
AXIOMS = ("URS", "IPA", "MRP", "MSC", "CON", "IIP", "HTA", "SI", "SMSC")


class UnknownIndexError(LookupError):
    """Raised when an index id is not in the catalog."""


def natural_index(t: Triad) -> float:
    """max(x, 1/x) for x = t13/(t12*t23); >= 1, equal to 1 iff consistent."""
    # consistency_ratio(t), spelled out here, in koczkodaj_index and in saaty_ci to save a call.
    x = t.t13 / (t.t12 * t.t23)
    return x if x >= 1.0 else 1.0 / x


def scale_dependent_index(t: Triad) -> float:
    """Sum over all six off-diagonal cells of |entry - value implied by the other two|.

    Zero exactly on consistent triads, but it depends on the measurement
    scale of the entries, not only on the consistency ratio.
    """
    t12, t13, t23 = t.t12, t.t13, t.t23
    return (
        abs(t13 - t12 * t23)
        + abs(1.0 / t13 - 1.0 / (t12 * t23))
        + abs(t12 - t13 / t23)
        + abs(1.0 / t12 - t23 / t13)
        + abs(t23 - t13 / t12)
        + abs(1.0 / t23 - t12 / t13)
    )


def koczkodaj_index(t: Triad) -> float:
    """min(|1 - x|, |1 - 1/x|); equals 1 - 1/natural_index, lives in [0, 1)."""
    x = t.t13 / (t.t12 * t.t23)
    return min(abs(1.0 - x), abs(1.0 - 1.0 / x))


def saaty_ci(t: Triad) -> float:
    """(lambda_max - 3) / 2 via the closed form lambda_max = 1 + x^(1/3) + x^(-1/3).

    The closed form is gated by an independent power-iteration oracle in the
    test suite rather than trusted.
    """
    x = t.t13 / (t.t12 * t.t23)
    c = x ** (1.0 / 3.0)
    return (c + 1.0 / c - 2.0) / 2.0


def _cx1(t: Triad) -> float:
    return 0.0


def _cx2(t: Triad) -> float:
    return -natural_index(t)


def _cx3(t: Triad) -> float:
    # Same value surface as natural_index + 1 off the consistent set, but
    # drops to 0 on it, so it jumps in every neighbourhood of consistency.
    if is_consistent(t):
        return 0.0
    return natural_index(t) + 1.0


def _cx5(t: Triad) -> float:
    return (t.t12 / t.t23 + t.t23 / t.t12) * (natural_index(t) - 1.0)


def _cx6(t: Triad) -> float:
    return abs(t.t12 - t.t13 / t.t23) + abs(1.0 / t.t12 - t.t23 / t.t13)


def _discretised_natural(t: Triad) -> float:
    return min(natural_index(t), 2.0)


@dataclass(frozen=True)
class IndexDescriptor:
    """A named inconsistency index plus the axiom profile it should exhibit."""

    id: str
    label: str
    evaluate: Callable[[Triad], float]
    expected_profile: Mapping[str, str] = field(hash=False)

    def __post_init__(self):
        missing = [a for a in AXIOMS if a not in self.expected_profile]
        if missing:
            raise ValueError(f"expected_profile for {self.id!r} misses axioms {missing}")
        bad = {a: v for a, v in self.expected_profile.items() if v not in ("pass", "fail")}
        if bad:
            raise ValueError(f"expected_profile for {self.id!r} has non-verdict values {bad}")


def _profile(fails: tuple[str, ...] = ()) -> dict[str, str]:
    return {a: ("fail" if a in fails else "pass") for a in AXIOMS}


CATALOG: tuple[IndexDescriptor, ...] = (
    IndexDescriptor(
        id="natural",
        label="Natural triad index max(x, 1/x)",
        evaluate=natural_index,
        expected_profile=_profile(),
    ),
    IndexDescriptor(
        id="scale_dependent",
        label="Scale-dependent absolute-difference index",
        evaluate=scale_dependent_index,
        expected_profile=_profile(("HTA", "SI")),
    ),
    IndexDescriptor(
        id="koczkodaj",
        label="Koczkodaj index 1 - 1/max(x, 1/x)",
        evaluate=koczkodaj_index,
        expected_profile=_profile(),
    ),
    IndexDescriptor(
        id="saaty_ci",
        label="Saaty consistency index (triad closed form)",
        evaluate=saaty_ci,
        expected_profile=_profile(),
    ),
    IndexDescriptor(
        id="cx1",
        label="Identically zero index",
        evaluate=_cx1,
        expected_profile=_profile(("URS", "SMSC")),
    ),
    IndexDescriptor(
        id="cx2",
        label="Negated natural index",
        evaluate=_cx2,
        expected_profile=_profile(("MRP", "MSC", "SMSC")),
    ),
    IndexDescriptor(
        id="cx3",
        label="Natural index with a jump at consistency",
        evaluate=_cx3,
        expected_profile=_profile(("CON",)),
    ),
    IndexDescriptor(
        id="cx4",
        label="Upper-triangle ratio x without symmetrisation",
        evaluate=consistency_ratio,
        expected_profile=_profile(("IPA", "MRP", "IIP")),
    ),
    IndexDescriptor(
        id="cx5",
        label="Outer-ratio weighted natural excess",
        evaluate=_cx5,
        expected_profile=_profile(("IPA", "HTA")),
    ),
    IndexDescriptor(
        id="cx6",
        label="Outer-entry absolute difference",
        evaluate=_cx6,
        expected_profile=_profile(("IPA", "SI")),
    ),
    IndexDescriptor(
        id="flat",
        label="Flat (constant zero) index",
        evaluate=_cx1,
        expected_profile=_profile(("URS", "SMSC")),
    ),
    IndexDescriptor(
        id="discretised_natural",
        label="Natural index clipped at 2",
        evaluate=_discretised_natural,
        expected_profile=_profile(("SMSC",)),
    ),
)

_BY_ID: dict[str, IndexDescriptor] = {d.id: d for d in CATALOG}
if len(_BY_ID) != len(CATALOG):
    raise RuntimeError("catalog ids are not unique")

INDEX_IDS: tuple[str, ...] = tuple(d.id for d in CATALOG)


def get_index(index_id: str) -> IndexDescriptor:
    try:
        return _BY_ID[index_id]
    except KeyError:
        raise UnknownIndexError(f"unknown index id {index_id!r}; valid ids: {', '.join(INDEX_IDS)}") from None
