"""Index catalog: pinned values, closed-form identities, invariances."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import consistent_triads, scale_factors, triads
from eigen_oracle import dominant_eigenvalue, matrix_rows, saaty_ci_oracle
from triadaudit import (
    AXIOMS,
    CATALOG,
    INDEX_IDS,
    IndexDescriptor,
    Triad,
    UnknownIndexError,
    get_index,
    koczkodaj_index,
    natural_index,
    permute_triad,
    probe_key,
    probe_rng,
    saaty_ci,
    sample_triad,
    scale_dependent_index,
    scale_transform,
    transpose_triad,
)

PERMUTATIONS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))


def rel_close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class TestPinnedValues:
    def test_natural(self):
        assert natural_index(Triad(2, 6, 3)) == 1.0
        assert natural_index(Triad(1, 3, 2)) == 1.5
        assert natural_index(Triad(1, 6, 4)) == 1.5

    def test_scale_dependent(self):
        assert rel_close(scale_dependent_index(Triad(1, 3, 2)), 19.0 / 6.0)
        assert rel_close(scale_dependent_index(Triad(1, 6, 4)), 5.0)
        assert scale_dependent_index(Triad(2, 6, 3)) == 0.0

    def test_koczkodaj(self):
        assert koczkodaj_index(Triad(2, 6, 3)) == 0.0
        assert rel_close(koczkodaj_index(Triad(1, 3, 2)), 1.0 / 3.0)
        assert rel_close(koczkodaj_index(Triad(1, 8, 4)), 0.5)

    def test_saaty_ci_closed_form(self):
        assert saaty_ci(Triad(2, 6, 3)) == 0.0
        expected = (1.0 + 2.0 ** (1.0 / 3.0) + 2.0 ** (-1.0 / 3.0) - 3.0) / 2.0
        assert rel_close(saaty_ci(Triad(1, 8, 4)), expected)

    def test_saaty_ci_against_eigenvalue_oracle(self):
        for t in (Triad(1, 8, 4), Triad(1, 1, 2), Triad(1, 3, 2), Triad(2, 6, 3)):
            assert abs(saaty_ci(t) - saaty_ci_oracle(t)) <= 1e-9

    def test_equal_canonical_ratio_means_equal_saaty_ci(self):
        # (1,1,2) and (1,8,4) both canonicalize to ratio 2.
        assert rel_close(saaty_ci(Triad(1, 1, 2)), saaty_ci(Triad(1, 8, 4)))

    def test_counterexample_indices(self):
        assert get_index("cx5").evaluate(Triad(1, 8, 4)) == 17.0 / 4.0
        assert get_index("cx5").evaluate(Triad(1, 2, 1)) == 2.0
        assert get_index("cx6").evaluate(Triad(1, 8, 4)) == 1.5
        assert get_index("cx6").evaluate(Triad(2, 32, 8)) == 2.25
        assert get_index("cx4").evaluate(Triad(1, 3, 2)) == 1.5
        assert rel_close(get_index("cx4").evaluate(transpose_triad(Triad(1, 3, 2))), 2.0 / 3.0)
        assert get_index("cx3").evaluate(Triad(1, 3, 2)) == 2.5
        assert get_index("cx3").evaluate(Triad(2, 6, 3)) == 0.0
        assert get_index("cx1").evaluate(Triad(1, 3, 2)) == 0.0
        assert get_index("flat").evaluate(Triad(1, 3, 2)) == 0.0

    def test_discretised_clips_at_two(self):
        assert get_index("discretised_natural").evaluate(Triad(1, 16, 4)) == 2.0
        assert natural_index(Triad(1, 16, 4)) == 4.0
        assert get_index("discretised_natural").evaluate(Triad(1, 3, 2)) == 1.5


class TestCatalog:
    def test_ids_unique_and_stable(self):
        assert len(set(INDEX_IDS)) == len(INDEX_IDS)
        assert set(INDEX_IDS) >= {
            "natural",
            "scale_dependent",
            "koczkodaj",
            "saaty_ci",
            "cx1",
            "cx2",
            "cx3",
            "cx4",
            "cx5",
            "cx6",
            "flat",
            "discretised_natural",
        }

    def test_profiles_cover_all_axioms(self):
        for descriptor in CATALOG:
            assert set(descriptor.expected_profile) == set(AXIOMS)

    def test_unknown_id_lists_valid_ones(self):
        with pytest.raises(UnknownIndexError, match="natural"):
            get_index("nope")

    @pytest.mark.parametrize(
        "profile, message",
        [
            pytest.param({a: "pass" for a in AXIOMS if a != "SI"}, r"misses axioms \['SI'\]", id="missing"),
            pytest.param({**{a: "pass" for a in AXIOMS}, "CON": "maybe"}, r"non-verdict values \{'CON': 'maybe'\}", id="value"),
        ],
    )
    def test_a_profile_needs_a_verdict_per_axiom(self, profile, message):
        with pytest.raises(ValueError, match=message):
            IndexDescriptor("partial", "natural", natural_index, profile)

    def test_a_profile_is_required(self):
        with pytest.raises(TypeError, match="expected_profile"):
            IndexDescriptor("bare", "natural", natural_index)


class TestIdentities:
    @given(triads())
    def test_natural_at_least_one(self, t):
        assert natural_index(t) >= 1.0

    @given(consistent_triads())
    def test_consistent_values(self, t):
        assert rel_close(natural_index(t), 1.0)
        assert koczkodaj_index(t) <= 1e-12
        assert scale_dependent_index(t) <= 1e-9

    @given(triads())
    def test_koczkodaj_natural_identity(self, t):
        assert rel_close(koczkodaj_index(t), 1.0 - 1.0 / natural_index(t))

    def test_koczkodaj_identity_on_seeded_sample(self):
        for i in range(10_000):
            t = sample_triad(probe_rng(probe_key(7, "identity"), i))
            assert rel_close(koczkodaj_index(t), 1.0 - 1.0 / natural_index(t))

    @given(triads())
    def test_koczkodaj_range(self, t):
        assert 0.0 <= koczkodaj_index(t) < 1.0

    @given(triads())
    @settings(max_examples=60, deadline=None)
    def test_saaty_closed_form_matches_power_iteration(self, t):
        assert abs(saaty_ci(t) - saaty_ci_oracle(t)) <= 1e-9

    @given(triads())
    def test_scale_dependent_non_negative(self, t):
        assert scale_dependent_index(t) >= 0.0

    @given(triads())
    def test_clearly_inconsistent_triads_score_positive(self, t):
        from triadaudit import consistency_ratio

        x = consistency_ratio(t)
        if abs(x - 1.0) > 1e-6:
            assert scale_dependent_index(t) > 1e-9
            assert natural_index(t) > 1.0 + 1e-9

    @given(triads())
    def test_cx2_is_negated_natural(self, t):
        assert get_index("cx2").evaluate(t) == -natural_index(t)

    @given(triads())
    def test_discretised_monotone_and_clipped(self, t):
        m = natural_index(t)
        value = get_index("discretised_natural").evaluate(t)
        assert value == (m if m <= 2.0 else 2.0)


class TestInvariances:
    @given(triads(), st.sampled_from(PERMUTATIONS))
    def test_permutation_invariance(self, t, perm):
        p = permute_triad(t, perm)
        for fn in (natural_index, koczkodaj_index, saaty_ci):
            assert rel_close(fn(t), fn(p))

    @given(triads())
    def test_transpose_invariance(self, t):
        tt = transpose_triad(t)
        for fn in (natural_index, koczkodaj_index, saaty_ci):
            assert rel_close(fn(t), fn(tt))

    @given(triads(), scale_factors())
    def test_scale_invariance(self, t, k):
        s = scale_transform(t, k)
        for fn in (natural_index, koczkodaj_index, saaty_ci):
            assert rel_close(fn(t), fn(s))

    @given(triads())
    def test_outer_collapse_invariance(self, t):
        # (1; a; b) and (1; a/b; 1) must agree for ratio-driven indices.
        outer = Triad(1.0, t.t13, t.t23)
        collapsed = Triad(1.0, t.t13 / t.t23, 1.0)
        for fn in (natural_index, koczkodaj_index, saaty_ci):
            assert rel_close(fn(outer), fn(collapsed))


class TestEigenOracle:
    def test_consistent_matrix_has_eigenvalue_three(self):
        lam = dominant_eigenvalue(matrix_rows(Triad(2, 6, 3)))
        assert abs(lam - 3.0) <= 1e-9

    def test_known_eigenvalue(self):
        lam = dominant_eigenvalue(matrix_rows(Triad(1, 8, 4)))
        assert abs(lam - (1.0 + 2.0 ** (1.0 / 3.0) + 2.0 ** (-1.0 / 3.0))) <= 1e-9

    def test_positive_matrix_required(self):
        with pytest.raises(Exception):
            dominant_eigenvalue([[1.0, -1.0], [1.0, 1.0]])

    def test_extreme_ratio_still_converges(self):
        t = Triad(1.0 / 9.0, 9.0, 1.0 / 9.0)  # consistency ratio 9^3, the range maximum
        c = (9.0**3) ** (1.0 / 3.0)
        assert abs(dominant_eigenvalue(matrix_rows(t)) - (1.0 + c + 1.0 / c)) <= 1e-8


def test_get_index_exposes_evaluate():
    descriptor = get_index("natural")
    assert descriptor.evaluate(Triad(1, 3, 2)) == 1.5
    assert math.isclose(descriptor.evaluate(Triad(1, 6, 4)), 1.5)
