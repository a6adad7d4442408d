"""Domain types and the elementary ratio-preserving transforms."""

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import consistent_triads, scale_factors, triads
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
        assert t.entries() == (1.0, 1.0, 1.0)

    def test_example_matrix_s(self):
        t = Triad(1, 3, 2)
        assert t.matrix_rows()[2] == (1.0 / 3.0, 0.5, 1.0)

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
        for v in t.entries():
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


class TestConsistencyRatio:
    def test_consistent_weights(self):
        assert consistency_ratio(Triad(2, 6, 3)) == 1.0

    def test_direct_evaluation(self):
        assert consistency_ratio(Triad(1, 3, 2)) == 1.5
        assert consistency_ratio(Triad(1, 6, 4)) == 1.5

    @given(consistent_triads())
    def test_constructed_consistent_triads_are_consistent(self, t):
        assert is_consistent(t)


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
        assert all(rel_close(a, b) for a, b in zip(back.entries(), t.entries()))

    @pytest.mark.parametrize("perm", PERMUTATIONS)
    def test_triad_view_matches_matrix_relabelling(self, perm):
        t = Triad(1.5, 7.0, 0.3)
        rows = apply_permutation(t.matrix_rows(), perm)
        assert permute_triad(t, perm) == Triad(rows[0][1], rows[0][2], rows[1][2])

    def test_non_bijection_rejected(self):
        with pytest.raises(DomainError, match="bijection"):
            permute_triad(Triad(1, 3, 2), (0, 0, 2))


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

