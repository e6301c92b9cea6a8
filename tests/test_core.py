"""Unit tests for the core statistics: decomposition, weights, tests,
tail probabilities and moment formulas."""

import math
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from uvartest import core
from uvartest.core import (
    Dataset,
    DegenerateWithinVariance,
    Design,
    _critical,
    _double,
    _key,
    _statistics,
    b_n_centered,
    between_pair_u,
    decompose,
    eta_weights,
    f_sf,
    f_test,
    icc,
    kappa,
    local_shift,
    m_n,
    moment_oracle,
    normal_sf,
    u_test,
    within_u,
)
from uvartest.simlab import preset

from oracles import (
    cross_kernel_mean,
    eta_matrix,
    pair_kernel_mean,
    pooled_pair_variance,
    quadform_between,
)

# Strategies for randomized algebraic checks: moderate magnitudes keep the
# quadratic-form roundoff far below the asserted tolerances.
_value = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
_group = st.lists(_value, min_size=2, max_size=8)
_groups = st.lists(_group, min_size=2, max_size=6)
_sizes = st.lists(st.integers(min_value=2, max_value=9), min_size=2, max_size=8)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


class TestDesign:
    def test_basic_properties(self):
        d = Design((2, 3, 4))
        assert d.k == 3
        assert d.n == 9
        assert d.pair_count() == 36

    def test_rejects_single_group(self):
        with pytest.raises(ValueError):
            Design((5,))

    def test_rejects_singleton_group(self):
        with pytest.raises(ValueError):
            Design((2, 1))

    def test_rejects_non_integer_sizes(self):
        with pytest.raises(ValueError):
            Design((2.5, 3))


class TestDataset:
    def test_groups_and_pooled_order(self):
        ds = Dataset([[0, 2], [1, 3, 5]])
        assert ds.design.group_sizes == (2, 3)
        np.testing.assert_array_equal(ds.values, [0, 2, 1, 3, 5])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Dataset([[0.0, float("nan")], [1.0, 2.0]])

    def test_rejects_singleton_group(self):
        with pytest.raises(ValueError):
            Dataset([[1.0], [1.0, 2.0]])

    def test_from_values_matches_group_constructor(self):
        ds = Dataset([[0, 2], [1, 3]])
        ds2 = Dataset.from_values(np.array([0.0, 2.0, 1.0, 3.0]), Design((2, 2)))
        np.testing.assert_array_equal(ds.values, ds2.values)
        for a, b in zip(ds.groups, ds2.groups):
            np.testing.assert_array_equal(a, b)

    def test_from_values_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset.from_values(np.zeros(3), Design((2, 2)))


# ---------------------------------------------------------------------------
# Per-group and cross-group pair statistics
# ---------------------------------------------------------------------------


class TestWithinU:
    def test_two_point_sample(self):
        # (0 - 2)^2 / 2 = 2
        ds = Dataset([[0, 2], [1, 3]])
        assert within_u(ds, 0) == pytest.approx(2.0)

    def test_constant_group(self):
        ds = Dataset([[5, 5, 5], [1, 2]])
        assert within_u(ds, 0) == 0.0

    def test_three_point_kernel_sum(self):
        # pairs of {1,2,3}: (0.5 + 2 + 0.5) / 3 = 1
        ds = Dataset([[1, 2, 3], [0, 0]])
        assert within_u(ds, 0) == pytest.approx(1.0)
        assert within_u(ds, 0) == pytest.approx(pair_kernel_mean([1, 2, 3]), rel=1e-12)


class TestBetweenPairU:
    def test_worked_example(self):
        # four cross pairs: 0.5 + 4.5 + 0.5 + 0.5 = 6; / 4 = 1.5
        ds = Dataset([[0, 2], [1, 3]])
        assert between_pair_u(ds, 0, 1) == pytest.approx(1.5)
        assert between_pair_u(ds, 0, 1) == pytest.approx(
            cross_kernel_mean([0, 2], [1, 3]), rel=1e-12
        )

    def test_identical_constant_groups(self):
        ds = Dataset([[4, 4, 4], [4, 4]])
        assert between_pair_u(ds, 0, 1) == 0.0

    def test_identical_groups(self):
        # q/n terms contribute 1 each over 2, means cancel: 1.0
        ds = Dataset([[0, 2], [0, 2]])
        assert between_pair_u(ds, 0, 1) == pytest.approx(1.0)
        assert between_pair_u(ds, 0, 1) == pytest.approx(
            cross_kernel_mean([0, 2], [0, 2]), rel=1e-12
        )

    def test_same_group_rejected(self):
        ds = Dataset([[0, 2], [1, 3]])
        with pytest.raises(ValueError):
            between_pair_u(ds, 1, 1)

    def test_symmetric(self):
        ds = Dataset([[0.5, 2.5, 3.0], [1, 3], [7, 8, 9, 10]])
        assert between_pair_u(ds, 0, 2) == pytest.approx(between_pair_u(ds, 2, 0), rel=1e-14)


class TestDecompose:
    def test_worked_example(self):
        ds = Dataset([[0, 2], [1, 3]])
        dec = decompose(ds)
        assert dec.u_pooled == pytest.approx(5 / 3)
        assert dec.w_n == pytest.approx(2.0)
        assert dec.b_n == pytest.approx(-1 / 3)
        np.testing.assert_allclose(dec.u_within, [2.0, 2.0])

    def test_constant_data(self):
        dec = decompose(Dataset([[5, 5], [5, 5]]))
        assert dec.u_pooled == 0.0
        assert dec.w_n == 0.0
        assert dec.b_n == 0.0

    def test_pooled_matches_pairwise_enumeration(self):
        ds = Dataset([[0.3, 2.1, -1.0], [1.4, 3.3], [0.0, 0.5, 0.7]])
        dec = decompose(ds)
        assert dec.u_pooled == pytest.approx(pooled_pair_variance(ds.values), rel=1e-12)

    def test_equals_weighted_kernel_combination(self):
        # direct evaluation of the generalized-statistic combination
        ds = Dataset([[0.3, 2.1, -1.0], [1.4, 3.3], [0.0, 0.5, 0.7]])
        n = ds.design.n
        dec = decompose(ds)
        b = 0.0
        for i in range(3):
            for j in range(i + 1, 3):
                ni, nj = ds.groups[i].size, ds.groups[j].size
                b += (
                    ni
                    * nj
                    / (n * (n - 1))
                    * (
                        2 * cross_kernel_mean(ds.groups[i], ds.groups[j])
                        - pair_kernel_mean(ds.groups[i])
                        - pair_kernel_mean(ds.groups[j])
                    )
                )
        assert dec.b_n == pytest.approx(b, rel=1e-12)

    @given(_groups)
    @settings(max_examples=80, deadline=None)
    def test_identity_holds(self, groups):
        ds = Dataset(groups)
        dec = decompose(ds)
        scale = max(abs(dec.u_pooled), abs(dec.w_n), abs(dec.b_n), 1e-12)
        assert abs(dec.u_pooled - (dec.w_n + dec.b_n)) <= 1e-10 * scale
        assert dec.w_n >= 0.0
        assert dec.u_pooled >= 0.0
        assert np.all(dec.u_within >= 0.0)


# ---------------------------------------------------------------------------
# Pair weights
# ---------------------------------------------------------------------------


class TestEtaWeights:
    def test_two_by_two(self):
        w = eta_weights(Design((2, 2)))
        assert w.weight(0, 1) == pytest.approx(2.0)  # same group
        assert w.weight(2, 3) == pytest.approx(2.0)
        assert w.weight(0, 2) == -1.0
        total = sum(w.weight(r, s) for r in range(4) for s in range(r + 1, 4))
        assert total == pytest.approx(0.0, abs=1e-12)

    def test_balanced_three_groups(self):
        w = eta_weights(Design((2, 2, 2)))
        assert w.weight(0, 1) == pytest.approx(4.0)  # (6 - 2) / (2 - 1)
        assert w.weight(0, 2) == -1.0

    def test_unbalanced(self):
        w = eta_weights(Design((2, 3)))
        assert w.weight(0, 1) == pytest.approx(3.0)
        assert w.weight(2, 4) == pytest.approx(1.0)
        assert w.weight(1, 3) == -1.0
        total = sum(w.weight(r, s) for r in range(5) for s in range(r + 1, 5))
        assert total == pytest.approx(0.0, abs=1e-12)

    def test_matrix_matches_definition(self):
        design = Design((2, 4, 3))
        np.testing.assert_allclose(
            eta_weights(design).matrix(), eta_matrix(design.group_sizes), rtol=1e-15
        )

    def test_oracle_variants_agree(self):
        # the loop-based and vectorized test oracles are interchangeable
        from oracles import eta_matrix_dense

        for sizes in ((2, 2), (2, 5, 3), (4, 4, 4, 4)):
            np.testing.assert_allclose(eta_matrix(sizes), eta_matrix_dense(sizes), rtol=1e-15)

    def test_rejects_equal_positions(self):
        w = eta_weights(Design((2, 2)))
        with pytest.raises(ValueError):
            w.weight(1, 1)
        with pytest.raises(IndexError):
            w.weight(0, 4)

    @given(_sizes)
    @settings(max_examples=60, deadline=None)
    def test_row_sums_vanish(self, sizes):
        design = Design(tuple(sizes))
        w = eta_weights(design).matrix()
        np.testing.assert_allclose(w.sum(axis=1), 0.0, atol=1e-9)
        assert np.triu(w, 1).sum() == pytest.approx(0.0, abs=1e-9)


class TestMn:
    @pytest.mark.parametrize(
        "sizes,expected",
        [((2, 2), 12.0), ((2, 2, 2), 60.0), ((2, 3), 18.0)],
    )
    def test_known_designs(self, sizes, expected):
        # direct sums: 4+4+4, 3*16+12, 9+3+6
        assert m_n(Design(sizes)) == pytest.approx(expected, rel=1e-12)

    @given(_sizes)
    @settings(max_examples=60, deadline=None)
    def test_closed_form_matches_direct_sum(self, sizes):
        design = Design(tuple(sizes))
        w = eta_matrix(sizes)
        direct = float(np.triu(w**2, 1).sum())
        assert m_n(design) == pytest.approx(direct, rel=1e-9)
        assert eta_weights(design).m_n == pytest.approx(direct, rel=1e-9)


class TestBnCentered:
    def test_worked_example_at_sample_mean(self):
        # six pairs with x = y - 1.5: weights (2, -1, -1, -1, -1, 2) against
        # products (-1.5*0.5, ...): total -2, / 6 = -1/3
        ds = Dataset([[0, 2], [1, 3]])
        assert b_n_centered(ds, 1.5) == pytest.approx(-1 / 3)

    def test_center_invariance_at_zero(self):
        ds = Dataset([[0, 2], [1, 3]])
        assert b_n_centered(ds, 0.0) == pytest.approx(-1 / 3)

    def test_constant_data(self):
        ds = Dataset([[7, 7], [7, 7, 7]])
        assert b_n_centered(ds, -3.0) == pytest.approx(0.0, abs=1e-12)

    def test_matches_enumeration(self):
        ds = Dataset([[0.3, 2.1, -1.0], [1.4, 3.3], [0.0, 0.5, 0.7]])
        for c in (0.0, float(ds.values.mean()), 17.3):
            assert b_n_centered(ds, c) == pytest.approx(
                quadform_between(ds.values, ds.design.group_sizes, c), rel=1e-12
            )

    def test_rejects_nonfinite_center(self):
        with pytest.raises(ValueError):
            b_n_centered(Dataset([[0, 2], [1, 3]]), float("inf"))

    @given(_groups, st.floats(min_value=-50, max_value=50, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_decompose_for_any_center(self, groups, center):
        ds = Dataset(groups)
        dec = decompose(ds)
        # the explicit pair sum cancels mass of order mean(x^2), so grant it
        # the corresponding roundoff allowance on adversarial inputs
        x = ds.values - center
        roundoff = 1e-13 * ds.design.n * float(np.mean(x * x))
        tol = 1e-10 * max(abs(dec.b_n), dec.u_pooled, 1e-12) + roundoff
        assert abs(b_n_centered(ds, center) - dec.b_n) <= tol


# ---------------------------------------------------------------------------
# Tests and tail probabilities
# ---------------------------------------------------------------------------


class TestUTest:
    def test_worked_example(self):
        ds = Dataset([[0, 2], [1, 3]])
        res = u_test(ds, alpha=0.05)
        # 6 * (-1/3) / (2 * sqrt(12)) = -1 / (2 sqrt 3)
        assert res.statistic == pytest.approx(-1 / (2 * math.sqrt(3)), rel=1e-12)
        assert res.p_value == pytest.approx(0.6135850036577762, abs=1e-12)
        assert not res.reject
        assert res.method == "U"
        assert res.df is None
        assert res.extras["w_n"] == pytest.approx(2.0)
        assert res.extras["b_n"] == pytest.approx(-1 / 3)
        assert res.extras["m_n"] == pytest.approx(12.0)

    def test_degenerate(self):
        with pytest.raises(DegenerateWithinVariance):
            u_test(Dataset([[5, 5], [5, 5]]))

    def test_boundary_alpha_rejects(self):
        # when the level equals the p-value exactly, the boundary rejects
        ds = Dataset([[0, 2], [1, 3]])
        res = u_test(ds, alpha=0.05)
        assert u_test(ds, alpha=res.p_value).reject

    def test_alpha_validation(self):
        ds = Dataset([[0, 2], [1, 3]])
        with pytest.raises(ValueError):
            u_test(ds, alpha=0.0)
        with pytest.raises(ValueError):
            u_test(ds, alpha=1.0)

    @given(
        _groups,
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_location_scale_invariance(self, groups, shift, scale):
        ds = Dataset(groups)
        dec = decompose(ds)
        assume(dec.w_n > 1e-8)
        base = u_test(ds).statistic
        shifted = u_test(Dataset([[v + shift for v in g] for g in groups])).statistic
        scaled = u_test(Dataset([[v * scale for v in g] for g in groups])).statistic
        assert shifted == pytest.approx(base, rel=1e-6, abs=1e-6)
        assert scaled == pytest.approx(base, rel=1e-6, abs=1e-6)


class TestFTest:
    def test_worked_example(self):
        ds = Dataset([[0, 2], [1, 3]])
        res = f_test(ds, alpha=0.05)
        assert res.statistic == pytest.approx(0.5, rel=1e-12)
        assert res.df == (1.0, 2.0)
        assert res.p_value == pytest.approx(0.5527864045000421, abs=1e-10)
        assert not res.reject
        assert res.extras["sq_between"] == pytest.approx(1.0)
        assert res.extras["sq_within"] == pytest.approx(4.0)

    def test_equal_group_means(self):
        ds = Dataset([[1, 3], [0, 4]])
        res = f_test(ds)
        assert res.statistic == pytest.approx(0.0, abs=1e-15)
        assert res.p_value == pytest.approx(1.0)

    def test_degenerate(self):
        with pytest.raises(DegenerateWithinVariance):
            f_test(Dataset([[5, 5], [5, 5]]))

    def test_matches_anova_oracle(self):
        from oracles import anova_f

        groups = [[0.5, 2.5, 3.0], [1, 3], [7, 8, 9, 10]]
        res = f_test(Dataset(groups))
        f, sq_b, sq_e = anova_f(groups)
        assert res.statistic == pytest.approx(f, rel=1e-12)
        assert res.extras["sq_between"] == pytest.approx(sq_b, rel=1e-12)
        assert res.extras["sq_within"] == pytest.approx(sq_e, rel=1e-12)

    def test_matches_scipy_reference(self):
        from scipy import stats

        groups = [[0.5, 2.5, 3.0], [1, 3], [7, 8, 9, 10]]
        res = f_test(Dataset(groups))
        ref = stats.f_oneway(*[np.asarray(g, float) for g in groups])
        assert res.statistic == pytest.approx(ref.statistic, rel=1e-12)
        assert res.p_value == pytest.approx(ref.pvalue, rel=1e-10)

    @given(
        _groups,
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_location_scale_invariance(self, groups, shift, scale):
        ds = Dataset(groups)
        assume(decompose(ds).w_n > 1e-8)
        base = f_test(ds).statistic
        shifted = f_test(Dataset([[v + shift for v in g] for g in groups])).statistic
        scaled = f_test(Dataset([[v * scale for v in g] for g in groups])).statistic
        assert shifted == pytest.approx(base, rel=1e-6, abs=1e-6)
        assert scaled == pytest.approx(base, rel=1e-6, abs=1e-6)


class TestDegeneracy:
    """Within variance at the level of float rounding is degenerate for
    every test, not a tiny denominator that inflates the statistic."""

    def test_roundoff_in_constant_groups_raises(self):
        from uvartest.simlab import permutation_pvalue

        # 0.1 + 0.2 is one ulp above 0.3, so W_n is about 1.5e-33
        ds = Dataset([[0.3, 0.1 + 0.2], [1, 1]])
        with pytest.raises(DegenerateWithinVariance):
            u_test(ds)
        with pytest.raises(DegenerateWithinVariance):
            f_test(ds)
        with pytest.raises(DegenerateWithinVariance):
            permutation_pvalue(ds, 19, np.random.default_rng(0))

    def test_large_offset_is_not_degenerate(self):
        rng = np.random.default_rng(8)
        ds = Dataset(1e8 + rng.standard_normal((10, 3)))
        assert math.isfinite(u_test(ds).statistic)
        assert math.isfinite(f_test(ds).statistic)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-1e100, max_value=1e100, allow_nan=False),
                st.lists(st.sampled_from((-1, 0, 1)), min_size=2, max_size=8),
            ),
            min_size=2,
            max_size=5,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_groups_constant_up_to_one_ulp_are_degenerate(self, spec):
        # group i holds c_i, some entries moved one ulp down or up
        groups = [
            [c if step == 0 else float(np.nextafter(c, step * math.inf)) for step in steps]
            for c, steps in spec
        ]
        ds = Dataset(groups)
        with pytest.raises(DegenerateWithinVariance):
            u_test(ds)
        with pytest.raises(DegenerateWithinVariance):
            f_test(ds)


class TestPowerOfTwoScaling:
    """The kernel scales each row by a power of two before squaring, so data
    far from 1 in magnitude neither overflow nor underflow, and U and F are
    exactly scale invariant."""

    @pytest.mark.parametrize("power", [600, -600])
    def test_statistics_equal_those_of_unscaled_data(self, power):
        rng = np.random.default_rng(5)
        for sizes in ((2, 2), (3, 5, 4), (6,) * 10):
            groups = [rng.standard_normal(m) + rng.standard_normal() for m in sizes]
            ds = Dataset(groups)
            scaled = Dataset([np.ldexp(g, power) for g in groups])
            for test in (u_test, f_test):
                assert test(scaled).statistic == test(ds).statistic
                assert test(scaled).p_value == test(ds).p_value

    def test_values_near_the_float_limit_give_a_result(self):
        ds = Dataset([[1e200, 2e200], [3e200, 1e200]])
        same = Dataset([[1.0, 2.0], [3.0, 1.0]])
        assert u_test(ds).p_value == pytest.approx(u_test(same).p_value, rel=1e-12)
        assert f_test(ds).p_value == pytest.approx(f_test(same).p_value, rel=1e-12)


class TestBatchInvariance:
    """The kernel sums every row and every group on its own, so each output
    field of a row is bit-identical whether the row is evaluated alone or
    inside a block, whatever the other rows hold."""

    @staticmethod
    def _assert_rows_as_alone(rows, sizes):
        sizes = np.asarray(sizes)
        block = _statistics(np.concatenate(rows), sizes)
        for i, (row, row_sizes) in enumerate(zip(rows, sizes)):
            alone = _statistics(row, row_sizes[None])
            for name in alone._fields:
                got, want = getattr(block, name)[i], getattr(alone, name)[0]
                assert got.tobytes() == want.tobytes(), (i, name)

    def test_same_design_block(self):
        rng = np.random.default_rng(31)
        rows = list(2.0 + rng.standard_normal((200, 60)))
        self._assert_rows_as_alone(rows, [(6,) * 10] * 200)

    def test_permuted_stack(self):
        rng = np.random.default_rng(32)
        sizes = (3, 5, 4, 7, 2)
        values = np.repeat(rng.standard_normal(5), sizes) + rng.standard_normal(sum(sizes))
        rows = [values[rng.permutation(values.size)] for _ in range(150)]
        self._assert_rows_as_alone(rows, [sizes] * 150)

    def test_mixed_size_block(self):
        rng = np.random.default_rng(33)
        sizes = rng.integers(2, 12, (120, 8))
        rows = [np.repeat(rng.standard_normal(8), s) + rng.standard_t(4.1, s.sum()) for s in sizes]
        self._assert_rows_as_alone(rows, sizes)

    def test_block_with_scaled_and_degenerate_rows(self):
        # one row near the float limit makes the kernel scale every row; one
        # row has constant groups and is flagged
        rng = np.random.default_rng(34)
        sizes = rng.integers(2, 6, (40, 3))
        rows = [rng.standard_normal(int(s.sum())) for s in sizes]
        rows[7] = 1e200 * rows[7]
        rows[19] = np.repeat([0.3, 1.0, -2.0], sizes[19])
        rows[23] = 1e-300 * rows[23]
        self._assert_rows_as_alone(rows, sizes)
        assert _statistics(rows[19], sizes[19][None]).degenerate[0]


class TestNormalSf:
    def test_symmetry_point(self):
        assert normal_sf(0.0) == 0.5

    def test_reference_values(self):
        # high-precision complementary-error-function references
        assert normal_sf(1.6449) == pytest.approx(0.0499952174683463, abs=1e-12)
        assert normal_sf(-0.2887) == pytest.approx(0.6135945186501431, abs=1e-12)

    def test_complement(self):
        for x in (-3.2, -0.7, 0.1, 2.5, 7.0):
            assert normal_sf(x) + normal_sf(-x) == pytest.approx(1.0, abs=1e-14)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            normal_sf(float("nan"))


class TestFSf:
    def test_at_zero(self):
        assert f_sf(0.0, 3, 7) == 1.0

    def test_f22_closed_form(self):
        # F(2,2) has cdf x / (1 + x)
        assert f_sf(1.0, 2, 2) == pytest.approx(0.5, abs=1e-10)
        assert f_sf(3.0, 2, 2) == pytest.approx(0.25, abs=1e-10)

    def test_f12_via_t2_identity(self):
        # P(F_{1,2} > 0.5) = P(|t_2| > sqrt(0.5)) = 1 - 1/sqrt(5)
        assert f_sf(0.5, 1, 2) == pytest.approx(1 - 1 / math.sqrt(5), abs=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            f_sf(-0.1, 2, 2)
        with pytest.raises(ValueError):
            f_sf(1.0, 0, 2)
        with pytest.raises(ValueError):
            f_sf(1.0, 2, math.inf)
        with pytest.raises(ValueError):
            f_sf(1.0, math.inf, 5)


# Degrees of freedom from one-way layouts of 2 to 1,000 groups and 4 to
# 10 million observations.
_D1_GRID = (1, 2, 3, 9, 54, 99, 999)
_D2_GRID = (2, 3, 10, 40, 400, 11_945, 1e5, 1e6, 1e7)


class TestFTailAgainstScipy:
    def test_matches_betainc_over_the_grid(self):
        from scipy import special

        tails = [10.0**-e for e in (0.3, 1, 2, 5, 10, 20, 50, 100, 200, 300)]
        misses, smallest = [], 1.0
        for d1 in _D1_GRID:
            for d2 in _D2_GRID:
                # F at (about) each tail probability, from the beta
                # quantile, which is NaN for the two smallest tails at d2 = 10
                ys = [float(special.betaincinv(d2 / 2, d1 / 2, p)) for p in tails]
                for x in [0.0] + [d2 * (1.0 - y) / (d1 * y) for y in ys if 0.0 < y <= 1.0]:
                    ref = float(special.betainc(d2 / 2, d1 / 2, d2 / (d2 + d1 * x)))
                    got = f_sf(x, d1, d2)
                    smallest = min(smallest, ref)
                    if not (abs(got - ref) <= 1e-9 * ref or abs(got - ref) <= 1e-12):
                        misses.append((d1, d2, x, ref, got))
        assert misses == []
        assert smallest < 1e-299

    def test_critical_value_brackets_the_level(self):
        # the F tails of the grid, and the normal tail (no degrees of freedom)
        tails = [((float(d1), float(d2)), lambda x, d1=d1, d2=d2: f_sf(x, d1, d2))
                 for d1 in _D1_GRID for d2 in _D2_GRID] + [((), normal_sf)]
        for alpha in (0.01, 0.05, 0.1):
            for df, tail in tails:
                crit = _critical(alpha, *df)
                below = math.nextafter(crit, 0.0)
                assert tail(crit) <= alpha < tail(below), (alpha, df)

    def test_search_cost_on_a_redrawn_preset(self, monkeypatch):
        """The critical values of every (d1, d2) pair that table2-uniform-t
        reaches, which a redrawn run computes at set-up, take no more than
        the 14,962 f_sf calls of the search as first written."""
        calls = []

        def counted(*args):
            calls.append(args)
            return f_sf(*args)

        pairs = {
            (gen.k - 1.0, float(n - gen.k))
            for gen in preset("table2-uniform-t").design_gens
            for n in range(gen.k * gen.lo, gen.k * gen.hi + 1)
        }
        monkeypatch.setattr(core, "f_sf", counted)
        _critical.cache_clear()
        for d1, d2 in pairs:
            _critical(0.05, d1, d2)
        _critical.cache_clear()
        assert len(pairs) == 1_055
        assert 0 < len(calls) <= 14_962


# Levels at which U's critical value z is checked: z < 0 above 0.5.
_ALPHAS = (0.05, 0.01, 0.1, 1e-6, 0.5, 0.9)
_NEAR = 20_000  # doubles checked on each side of z


def _keys_near(x: float) -> range:
    return range(_key(x) - _NEAR, _key(x) + _NEAR + 1)


class TestThresholdRule:
    """U decides ``j >= _critical(alpha)`` where ``u_test`` reports
    ``normal_sf(j) <= alpha``; the two agree because ``normal_sf`` (through
    ``math.erfc``) does not increase from one double to the next."""

    @pytest.mark.parametrize("alpha", _ALPHAS)
    def test_normal_tail_does_not_increase_near_z(self, alpha):
        tails = [normal_sf(_double(key)) for key in _keys_near(_critical(alpha))]
        assert all(a >= b for a, b in zip(tails, tails[1:]))

    @pytest.mark.parametrize("alpha", _ALPHAS)
    def test_comparison_decides_as_the_tail(self, alpha):
        z = _critical(alpha)
        rng = np.random.default_rng(16)
        scale = np.exp2(-rng.integers(0, 53, 200_000).astype(float))  # 1 down to 2**-52
        xs = [_double(key) for key in _keys_near(z)]
        xs += (z + scale * rng.standard_normal(scale.size)).tolist()
        assert [x >= z for x in xs] == [normal_sf(x) <= alpha for x in xs]

    def test_key_of_neighbours(self):
        tiny, smallest_normal, biggest = 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308
        doubles = [-math.inf, -biggest, -1.0, -smallest_normal, -2 * tiny, -tiny, -0.0]
        doubles += [0.0, tiny, 2 * tiny, smallest_normal, 1.0, biggest, math.inf]
        keys = [_key(x) for x in doubles]
        assert keys == sorted(set(keys))
        assert _key(-0.0) + 1 == _key(0.0)
        for x in doubles:
            if x != math.inf and _key(x) != _key(-0.0):
                assert _key(math.nextafter(x, math.inf)) == _key(x) + 1, x

    @given(st.floats(allow_nan=False), st.floats(allow_nan=False))
    @example(-0.0, 0.0)
    @example(-5e-324, math.inf)
    def test_key_is_monotone_and_round_trips(self, x, y):
        for v in (x, y):
            assert struct.pack("<d", _double(_key(v))) == struct.pack("<d", v)
        if x < y:
            assert _key(x) < _key(y)


# ---------------------------------------------------------------------------
# Moment formulas
# ---------------------------------------------------------------------------


class TestMomentOracle:
    def test_expected_between_component(self):
        # (16 - 8) / 12 = 2/3
        mo = moment_oracle(Design((2, 2)), sigma_b2=1.0, sigma_e2=1.0, e4=3.0)
        assert mo.e_bn == pytest.approx(2 / 3, rel=1e-12)

    def test_null_variance(self):
        # 12 / 36 = 1/3
        mo = moment_oracle(Design((2, 2)), sigma_b2=0.0, sigma_e2=1.0, e4=3.0)
        assert mo.var_bn_null == pytest.approx(1 / 3, rel=1e-12)
        assert mo.e_bn == 0.0

    def test_group_variance_normal_case(self):
        # n_i = 5 with normal moments: 3/5 - 2/20 = 0.5 = 2 sigma^4 / (n_i - 1)
        mo = moment_oracle(Design((5, 5)), sigma_b2=0.0, sigma_e2=1.0, e4=3.0)
        assert mo.var_ui == pytest.approx((0.5, 0.5), rel=1e-12)

    def test_lambda_and_shift(self):
        design = Design((5,) * 10)
        mo = moment_oracle(design, sigma_b2=1 / math.sqrt(50), sigma_e2=1.0, e4=3.0)
        assert mo.lambda_n == pytest.approx(0.11025, rel=1e-12)
        # sigma_b2 = delta^2 / sqrt(n) with delta = 1 recovers the drift
        assert mo.shift == pytest.approx(local_shift(design, 1.0, 1.0), rel=1e-12)

    def test_moment_inequality_enforced(self):
        with pytest.raises(ValueError):
            moment_oracle(Design((2, 2)), sigma_b2=0.0, sigma_e2=1.0, e4=0.9)
        with pytest.raises(ValueError):
            moment_oracle(Design((2, 2)), sigma_b2=-0.1, sigma_e2=1.0, e4=3.0)
        with pytest.raises(ValueError):
            moment_oracle(Design((2, 2)), sigma_b2=0.0, sigma_e2=0.0, e4=3.0)


class TestLocalShift:
    def test_zero_delta(self):
        assert local_shift(Design((5, 5)), 0.0, 1.0) == 0.0

    def test_balanced_ten_by_five(self):
        assert local_shift(Design((5,) * 10), 1.0, 1.0) == pytest.approx(
            1.5058465048420855, rel=1e-12
        )

    def test_error_variance_homogeneity(self):
        design = Design((3, 4, 5))
        assert local_shift(design, 1.3, 2.0) == pytest.approx(
            local_shift(design, 1.3, 1.0) / 2.0, rel=1e-12
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            local_shift(Design((5, 5)), -1.0, 1.0)
        with pytest.raises(ValueError):
            local_shift(Design((5, 5)), 1.0, 0.0)


class TestIcc:
    @pytest.mark.parametrize(
        "sb2,se2,expected", [(0.0, 1.0, 0.0), (1.0, 1.0, 0.5), (0.2, 1.0, 1 / 6)]
    )
    def test_values(self, sb2, se2, expected):
        assert icc(sb2, se2) == pytest.approx(expected, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            icc(1.0, 0.0)
        with pytest.raises(ValueError):
            icc(-1.0, 1.0)


class TestKappa:
    def test_balanced_is_one(self):
        assert kappa(Design((7,) * 5)) == 1.0

    def test_two_three(self):
        # population sd 0.5, mean 2.5 -> cv 0.2 -> 1 / 1.04
        assert kappa(Design((2, 3))) == pytest.approx(1 / 1.04, rel=1e-12)

    def test_more_imbalance_is_smaller(self):
        assert kappa(Design((2, 10))) < kappa(Design((5, 7))) < kappa(Design((6, 6)))
