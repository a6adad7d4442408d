"""Domain types and the elementary ratio-preserving transforms."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import band_edge_values, consistent_triads, log_entries, scale_factors, triads
from eigen_oracle import matrix_rows
from triadaudit import (
    DomainError,
    Triad,
    consistency_ratio,
    is_consistent,
    natural_index,
    permute_triad,
    power_transform,
    scale_transform,
    single_entry_perturb,
    transpose_triad,
)
from triadaudit.core import _band, _close


class FloatSubclass(float):
    pass


PERMUTATIONS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))


def rel_close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def apply_permutation(rows, perm):
    """Reference relabelling of a 3x3 matrix given as rows: entry (i, j) of the
    result is rows[inv(i)][inv(j)], where ``perm[i]`` is the new position of
    alternative i (0-based)."""
    inv = [0] * 3
    for old, new in enumerate(perm):
        inv[new] = old
    return tuple(tuple(rows[inv[i]][inv[j]] for j in range(3)) for i in range(3))


class TestMakeTriad:
    def test_identity_triad(self):
        t = Triad(1, 1, 1)
        assert dataclasses.astuple(t) == (1.0, 1.0, 1.0)

    def test_example_matrix_s(self):
        t = Triad(1, 3, 2)
        assert matrix_rows(t)[2] == (1.0 / 3.0, 0.5, 1.0)

    def test_zero_entry_names_field(self):
        with pytest.raises(DomainError, match="t13"):
            Triad(1, 0, 2)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -2.0])
    def test_non_finite_or_negative_rejected(self, bad):
        with pytest.raises(DomainError):
            Triad(1, bad, 2)

    @pytest.mark.parametrize("field", ["t12", "t13", "t23"])
    @pytest.mark.parametrize("bad", [0.0, -math.inf, math.nan, -2.0])
    def test_bad_float_names_its_field(self, field, bad):
        entries = {"t12": 1.0, "t13": 3.0, "t23": 2.0, field: bad}
        with pytest.raises(DomainError, match=f"^{field} must be a finite positive real"):
            Triad(**entries)

    @pytest.mark.parametrize("value", [2, True, FloatSubclass(0.5)])
    def test_non_float_entries_are_stored_as_exact_floats(self, value):
        t = Triad(value, value, value)
        for v in dataclasses.astuple(t):
            assert type(v) is float and v == float(value)

    @pytest.mark.parametrize(
        "bad, error, message",
        [
            (0, DomainError, "t13 must be a finite positive real, got 0.0"),
            (-1, DomainError, "t13 must be a finite positive real, got -1.0"),
            (math.nan, DomainError, "t13 must be a finite positive real, got nan"),
            (math.inf, DomainError, "t13 must be a finite positive real, got inf"),
            ("x", ValueError, "could not convert string to float: 'x'"),
        ],
    )
    def test_rejection_messages(self, bad, error, message):
        with pytest.raises(error) as info:
            Triad(1, bad, 2)
        assert type(info.value) is error and str(info.value) == message

    def test_frozen_value_semantics(self):
        t = Triad(1, 3, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.t12 = 2.0
        assert t == Triad(1.0, 3.0, 2.0) == Triad(t12=1.0, t13=3, t23=2.0)
        assert hash(t) == hash(Triad(1.0, 3.0, 2.0)) and len({t, Triad(1.0, 3.0, 2.0)}) == 1
        assert t != Triad(1.0, 3.0, 2.5) and t != (1.0, 3.0, 2.0)
        assert repr(t) == "Triad(t12=1.0, t13=3.0, t23=2.0)"
        assert dataclasses.replace(t, t23=4) == Triad(1.0, 3.0, 4.0)
        assert [f.name for f in dataclasses.fields(Triad)] == ["t12", "t13", "t23"]

    def test_integer_entries_serialise_as_floats(self):
        assert json.dumps(Triad(1, 3, 2).as_dict()) == '{"t12": 1.0, "t13": 3.0, "t23": 2.0}'


# The ratios at which |x - 1| <= 1e-9 * max(1, x) changes its answer, and one ulp to either side.
EDGE_RATIOS = [
    math.nextafter(edge, direction)
    for edge in (1.0 - 1e-9, 1.0 + 1e-9, 1.0 / (1.0 - 1e-9))
    for direction in (0.0, edge, math.inf)
]


class TestConsistencyRatio:
    def test_consistent_weights(self):
        assert consistency_ratio(Triad(2, 6, 3)) == 1.0

    def test_direct_evaluation(self):
        assert consistency_ratio(Triad(1, 3, 2)) == 1.5
        assert consistency_ratio(Triad(1, 6, 4)) == 1.5

    @given(consistent_triads())
    def test_constructed_consistent_triads_are_consistent(self, t):
        assert is_consistent(t)

    def test_an_infinite_ratio_is_inconsistent(self):
        t = Triad(1e-10, 1e300, 1e-10)
        assert consistency_ratio(t) == math.inf
        assert not is_consistent(t)

    @given(
        st.one_of(st.just((0.0, 0.0)), st.tuples(log_entries(), log_entries())),
        st.one_of(
            st.floats(min_value=-5.0, max_value=5.0).map(lambda k: 1.0 + k * 1e-9),
            st.floats(min_value=-600.0, max_value=600.0).map(math.exp),
            st.sampled_from(EDGE_RATIOS),
        ),
    )
    def test_every_finite_ratio_is_decided_by_the_band_written_on_the_ratio(self, logs, ratio):
        # The reference is |x - 1| <= 1e-9 * max(1, x).  Entries (1, ratio, 1) give the ratio
        # exactly, so its edges are hit bit for bit.
        t12, t23 = map(math.exp, logs)
        t = Triad(t12, ratio * t12 * t23, t23)
        x = consistency_ratio(t)
        assert is_consistent(t) == (abs(x - 1.0) <= 1e-9 * max(1.0, x)), x


def test_close_is_the_band_on_every_finite_pair_of_edge_values():
    values = [v for v in band_edge_values() if math.isfinite(v)]
    for a in values:
        for b in values:
            assert _close(a, b) == (abs(a - b) <= _band(a, b)), (a, b)


class TestCanonicalize:
    """SI, HTA and IIP reduce every triad to the normal form (1; r; 1) with
    r = natural_index(t); the invariances of r are tested in test_indices.py."""

    def test_flip_branch(self):
        # x = 1/2: the reduction inverts preferences, (1; 1/2; 1) -> (1; 2; 1).
        assert natural_index(Triad(1, 1, 2)) == 2.0

    @given(triads())
    def test_ratio_is_symmetrised_consistency_ratio(self, t):
        x = consistency_ratio(t)
        assert rel_close(natural_index(t), max(x, 1.0 / x))


class TestPermutation:
    def test_identity(self):
        t = Triad(1, 3, 2)
        assert permute_triad(t, (0, 1, 2)) == t

    def test_swap_first_and_third(self):
        # Hand computation: relabelling 1<->3 of (1, 3, 2) gives (1/2, 1/3, 1).
        assert permute_triad(Triad(1, 3, 2), (2, 1, 0)) == Triad(0.5, 1.0 / 3.0, 1.0)

    @given(consistent_triads(), st.sampled_from(PERMUTATIONS))
    def test_consistency_survives_permutation(self, t, perm):
        assert is_consistent(permute_triad(t, perm))

    @given(triads(), st.sampled_from(PERMUTATIONS))
    def test_permutation_composed_with_inverse_is_identity(self, t, perm):
        inverse = [0, 0, 0]
        for old, new in enumerate(perm):
            inverse[new] = old
        back = permute_triad(permute_triad(t, perm), tuple(inverse))
        assert all(rel_close(a, b) for a, b in zip(dataclasses.astuple(back), dataclasses.astuple(t)))

    @pytest.mark.parametrize("perm", PERMUTATIONS)
    def test_triad_view_matches_matrix_relabelling(self, perm):
        t = Triad(1.5, 7.0, 0.3)
        rows = apply_permutation(matrix_rows(t), perm)
        assert permute_triad(t, perm) == Triad(rows[0][1], rows[0][2], rows[1][2])

    def test_non_bijection_rejected(self):
        with pytest.raises(DomainError, match="bijection"):
            permute_triad(Triad(1, 3, 2), (0, 0, 2))

    # A non-integer entry is not truncated to a bijection, nor is a string read digit by digit.
    @pytest.mark.parametrize("perm", [(0, 1, 2.7), [0, 2, 1.9], "021"])
    def test_a_permutation_is_not_truncated_to_one(self, perm):
        with pytest.raises(DomainError, match="bijection"):
            permute_triad(Triad(1, 3, 2), perm)

    @pytest.mark.parametrize("perm", [[0, 2, 1], (p for p in (0, 2, 1)), (0.0, 2.0, 1.0)])
    def test_a_permutation_is_read_by_value(self, perm):
        t = Triad(1.5, 7.0, 0.3)
        assert permute_triad(t, perm) == permute_triad(t, (0, 2, 1))


class TestPowerTransform:
    def test_unit_exponent_is_identity(self):
        t = Triad(1, 3, 2)
        assert power_transform(t, 1.0) == t

    def test_zero_exponent_collapses_to_ones(self):
        assert power_transform(Triad(1, 3, 2), 0.0) == Triad(1, 1, 1)

    def test_entrywise_square(self):
        assert power_transform(Triad(1, 3, 2), 2.0) == Triad(1, 9, 4)

    @given(triads(span=1.5), st.floats(min_value=-2.5, max_value=2.5))
    def test_ratio_is_powered(self, t, b):
        assert rel_close(consistency_ratio(power_transform(t, b)), consistency_ratio(t) ** b)


class TestSingleEntryPerturb:
    def test_unit_delta_is_identity(self):
        assert single_entry_perturb(Triad(2, 6, 3), "13", 1.0) == Triad(2, 6, 3)

    def test_square_of_t13(self):
        assert single_entry_perturb(Triad(2, 6, 3), "13", 2.0) == Triad(2, 36, 3)

    def test_all_unit_entries_rejected(self):
        for position in ("12", "13", "23"):
            with pytest.raises(DomainError, match="differ from 1"):
                single_entry_perturb(Triad(1, 1, 1), position, 2.0)

    def test_inconsistent_input_rejected(self):
        with pytest.raises(DomainError, match="consistent"):
            single_entry_perturb(Triad(1, 3, 2), "13", 2.0)

    def test_an_infinite_ratio_is_rejected(self):
        with pytest.raises(DomainError, match="got consistency ratio inf$"):
            single_entry_perturb(Triad(1e-10, 1e300, 1e-10), "13", 2.0)

    def test_integer_position_accepted(self):
        assert single_entry_perturb(Triad(2, 6, 3), 13, 2.0) == Triad(2, 36, 3)

    def test_unknown_position_rejected(self):
        with pytest.raises(DomainError, match="position must be one of"):
            single_entry_perturb(Triad(2, 6, 3), "21", 2.0)


class TestScaleTransform:
    def test_unit_factor_is_identity(self):
        t = Triad(1, 8, 4)
        assert scale_transform(t, 1.0) == t

    def test_doubling(self):
        assert scale_transform(Triad(1, 8, 4), 2.0) == Triad(2, 32, 8)

    def test_ratio_preserved(self):
        t = Triad(1, 3, 2)
        scaled = scale_transform(t, 2.0)
        assert scaled == Triad(2, 12, 4)
        assert rel_close(consistency_ratio(scaled), 1.5)

    def test_non_positive_factor_rejected(self):
        with pytest.raises(DomainError, match="k"):
            scale_transform(Triad(1, 3, 2), 0.0)

    @given(triads(), scale_factors())
    @settings(max_examples=200)
    def test_ratio_invariant(self, t, k):
        assert rel_close(consistency_ratio(scale_transform(t, k)), consistency_ratio(t))




# Each transform parameter as a float, an int, a bool, a numeric string, a
# numpy float, a float subclass, zero, a negative value, both infinities and NaN.
PARAMETER_VALUES = {
    "float": 2.0,
    "int": 2,
    "bool": True,
    "string": "2.5",
    "numpy": np.float64(2.5),
    "subclass": FloatSubclass(2.5),
    "zero": 0.0,
    "negative": -0.5,
    "inf": math.inf,
    "-inf": -math.inf,
    "nan": math.nan,
}
# The float each transform reads a value as, or the DomainError message it rejects it with.
_READ_AS = {"float": 2.0, "int": 2.0, "bool": 1.0, "string": 2.5, "numpy": 2.5, "subclass": 2.5}
PINNED_PARAMETERS = {
    "b": {
        **_READ_AS,
        "zero": 0.0,
        "negative": -0.5,
        "inf": "b must be finite, got inf",
        "-inf": "b must be finite, got -inf",
        "nan": "b must be finite, got nan",
    },
    "k": {
        **_READ_AS,
        "zero": "k must be a finite positive real, got 0.0",
        "negative": "k must be a finite positive real, got -0.5",
        "inf": "k must be a finite positive real, got inf",
        "-inf": "k must be a finite positive real, got -inf",
        "nan": "k must be a finite positive real, got nan",
    },
    "delta": {
        **_READ_AS,
        "zero": 0.0,
        "negative": -0.5,
        "inf": "delta must be finite, got inf",
        "-inf": "delta must be finite, got -inf",
        "nan": "delta must be finite, got nan",
    },
}
T = Triad(2.0, 6.0, 3.0)
# Each transform of T by a parameter value, and the entries it must give for the float read.
TRANSFORMS = {
    "b": (lambda v: power_transform(T, v), lambda e: (2.0**e, 6.0**e, 3.0**e)),
    "k": (lambda v: scale_transform(T, v), lambda e: (e * 2.0, e * e * 6.0, e * 3.0)),
    "delta": (lambda v: single_entry_perturb(T, "13", v), lambda e: (2.0, 6.0**e, 3.0)),
}


@pytest.mark.parametrize("kind", PARAMETER_VALUES)
@pytest.mark.parametrize("name", TRANSFORMS)
def test_transform_parameters_are_read_or_rejected_as_pinned(name, kind):
    transform, entries = TRANSFORMS[name]
    expected = PINNED_PARAMETERS[name][kind]
    if isinstance(expected, str):
        with pytest.raises(DomainError) as excinfo:
            transform(PARAMETER_VALUES[kind])
        assert str(excinfo.value) == expected
    else:
        t = transform(PARAMETER_VALUES[kind])
        assert dataclasses.astuple(t) == entries(expected)
        assert all(type(e) is float for e in dataclasses.astuple(t))


@pytest.mark.parametrize("name", TRANSFORMS)
def test_a_non_numeric_transform_parameter_raises_the_float_conversion_error(name):
    transform = TRANSFORMS[name][0]
    with pytest.raises(ValueError) as excinfo:
        transform("x")
    assert type(excinfo.value) is ValueError
    with pytest.raises(TypeError):
        transform(None)
