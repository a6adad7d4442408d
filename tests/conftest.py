"""Shared hypothesis strategies for triad-valued properties, verdict
matrices that several test modules read, index values at the edges of the
equality band, and the environment of a child interpreter."""

import math
import os
from pathlib import Path

import hypothesis.strategies as st
import pytest

import triadaudit
from triadaudit import AXIOMS, CATALOG, AuditConfig, Triad, verdict_matrix
from triadaudit.core import _band

# Entries live on the same log range the audit sampler uses by default.
LOG_NINE = math.log(9.0)


def log_entries(span: float = LOG_NINE):
    return st.floats(min_value=-span, max_value=span, allow_nan=False, allow_infinity=False)


@st.composite
def triads(draw, span: float = LOG_NINE) -> Triad:
    return Triad(
        math.exp(draw(log_entries(span))),
        math.exp(draw(log_entries(span))),
        math.exp(draw(log_entries(span))),
    )


@st.composite
def consistent_triads(draw, span: float = LOG_NINE) -> Triad:
    w1, w2, w3 = (math.exp(draw(log_entries(span))) for _ in range(3))
    return Triad(w1 / w2, w1 / w3, w2 / w3)


@st.composite
def scale_factors(draw) -> float:
    return math.exp(draw(st.floats(min_value=-math.log(10.0), max_value=math.log(10.0))))


def band_edge_values() -> list[float]:
    """Index values around the equality band's edges: equal values, values
    within half a band and one and a half bands of 0, 1 and 1e12 on both
    sides, a negative value, both infinities and NaN."""
    values = [-1.0, math.inf, -math.inf, math.nan]
    for v in (0.0, 1.0, 1e12):
        band = _band(v)
        values += [v, v + 0.5 * band, v - 0.5 * band, v + 1.5 * band, v - 1.5 * band]
    return values


def package_env() -> dict[str, str]:
    """os.environ with the directory that holds the imported triadaudit first
    on PYTHONPATH: a child interpreter imports the package this suite tests,
    be it src/ or an installed copy."""
    package_dir = str(Path(triadaudit.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (package_dir, os.environ.get("PYTHONPATH"))))}


@pytest.fixture(scope="session")
def catalog_matrix():
    """The catalog's 12x9 verdict matrix at a config, built once per session."""
    built = {}

    def build(cfg: AuditConfig):
        if cfg not in built:
            built[cfg] = verdict_matrix(CATALOG, AXIOMS, cfg)
        return built[cfg]

    return build


@pytest.fixture(scope="session")
def default_matrix(catalog_matrix):
    """The 12x9 verdict matrix at the default config (samples=1000, seed=42)."""
    return catalog_matrix(AuditConfig())
