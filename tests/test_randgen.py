"""Tests for seeded noise generation, skew-t moments and design generators."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from uvartest.core import Design, kappa
from uvartest.randgen import (
    _BATCH_MIN,
    Balanced,
    NoiseFamily,
    NoiseSpec,
    SeedSpec,
    ShiftedGeometric,
    UniformSizes,
    gen_design,
    sample_noise,
    skew_t_moments,
)


class TestSeedSpec:
    def test_same_seed_same_stream(self):
        spec = NoiseSpec(NoiseFamily.NORMAL, 1.0)
        a = sample_noise(spec, 100, SeedSpec(42, 1))
        b = sample_noise(spec, 100, SeedSpec(42, 1))
        np.testing.assert_array_equal(a, b)

    def test_different_stream_ids_differ(self):
        spec = NoiseSpec(NoiseFamily.NORMAL, 1.0)
        a = sample_noise(spec, 100, SeedSpec(42, 1))
        b = sample_noise(spec, 100, SeedSpec(42, 2))
        assert not np.array_equal(a, b)

    def test_path_extension_differs(self):
        seed = SeedSpec(7)
        a = seed.generator(0, 0, 0).standard_normal(8)
        b = seed.generator(0, 0, 1).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SeedSpec(-1)
        with pytest.raises(ValueError):
            SeedSpec(2**64)
        with pytest.raises(ValueError):
            SeedSpec(0, -1)

    @pytest.mark.parametrize("value", [1.5, -0.5, 2.0, "7", None, True, False, np.True_])
    def test_rejects_non_integers_at_construction(self, value):
        with pytest.raises(TypeError, match="master_seed must be an integer"):
            SeedSpec(value)
        with pytest.raises(TypeError, match="stream_id must be an integer"):
            SeedSpec(0, value)

    def test_numpy_integers_become_int(self):
        seed = SeedSpec(np.uint64(2**64 - 1), np.int32(3))
        assert type(seed.master_seed) is int and type(seed.stream_id) is int
        assert seed == SeedSpec(2**64 - 1, 3)
        assert (seed.generator(1).random(4) == SeedSpec(2**64 - 1, 3).generator(1).random(4)).all()

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**64 - 1),
        st.integers(0, 2**64 - 1),
        st.lists(st.integers(0, 2**96), max_size=3),
        st.integers(0, _BATCH_MIN + 4),
    )
    @example(2**32 - 1, 2**32, [2**64 - 1], _BATCH_MIN)
    @example(2**32, 2**32 - 1, [], _BATCH_MIN + 1)
    @example(2**64 - 1, 2**64 - 1, [2**32, 0, 2**96], _BATCH_MIN + 4)
    def test_generators_match_per_replicate_streams(self, master, stream, path, count):
        """Batched streams equal per-replicate ones, in state before and
        after draws, on both sides of the fallback cut."""
        seed = SeedSpec(master, stream)
        batch = list(seed.generators(*path, count=count))
        assert len(batch) == count
        for r, rng in enumerate(batch):
            reference = seed.generator(*path, r)
            assert rng.bit_generator.state == reference.bit_generator.state
            assert rng.integers(0, 2**63, 3).tolist() == reference.integers(0, 2**63, 3).tolist()
            assert rng.standard_normal(2).tobytes() == reference.standard_normal(2).tobytes()
            assert rng.bit_generator.state == reference.bit_generator.state

    def test_batched_streams_cannot_spawn(self):
        rng = next(SeedSpec(1).generators(count=_BATCH_MIN))
        with pytest.raises(TypeError):
            rng.spawn(1)
        with pytest.raises(ValueError):
            rng.bit_generator.seed_seq.generate_state(8)

    def test_streams_uncorrelated(self):
        n = 1_000_000
        spec = NoiseSpec(NoiseFamily.NORMAL, 1.0)
        x = sample_noise(spec, n, SeedSpec(3, 0))
        y = sample_noise(spec, n, SeedSpec(3, 1))
        r = float(np.corrcoef(x, y)[0, 1])
        assert abs(r) < 5.0 / math.sqrt(n)


class TestNoiseSpecValidation:
    def test_scaled_t_needs_df(self):
        with pytest.raises(ValueError):
            NoiseSpec(NoiseFamily.SCALED_T, 1.0)
        with pytest.raises(ValueError):
            NoiseSpec(NoiseFamily.SCALED_T, 1.0, df=2.0)

    def test_skew_t_needs_df_and_skew(self):
        with pytest.raises(ValueError):
            NoiseSpec(NoiseFamily.SKEW_T_STD, 1.0, df=4.1)
        with pytest.raises(ValueError):
            NoiseSpec(NoiseFamily.SKEW_T_STD, 1.0, df=1.9, skew=1.0)

    def test_normal_takes_no_shape(self):
        with pytest.raises(ValueError):
            NoiseSpec(NoiseFamily.NORMAL, 1.0, df=5.0)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(NoiseFamily.NORMAL, -0.5)

    @pytest.mark.parametrize("df", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("family", [NoiseFamily.SCALED_T, NoiseFamily.SKEW_T_STD])
    def test_df_must_be_finite(self, family, df):
        # an infinite or NaN df would make sample_noise return NaN
        skew = 1.0 if family is NoiseFamily.SKEW_T_STD else None
        with pytest.raises(ValueError, match="needs a finite df > 2"):
            NoiseSpec(family, 1.0, df=df, skew=skew)

    @pytest.mark.parametrize("skew", [math.inf, -math.inf, math.nan])
    def test_skew_must_be_finite(self, skew):
        with pytest.raises(ValueError, match="needs a finite skew"):
            NoiseSpec(NoiseFamily.SKEW_T_STD, 1.0, df=4.1, skew=skew)

    def test_with_variance(self):
        spec = NoiseSpec(NoiseFamily.SCALED_T, 1.0, df=3.0)
        assert spec.with_variance(0.2).target_variance == 0.2
        assert spec.with_variance(0.2).df == 3.0


class TestSampleNoise:
    def test_zero_variance_is_zero(self):
        spec = NoiseSpec(NoiseFamily.SCALED_T, 0.0, df=3.0)
        np.testing.assert_array_equal(sample_noise(spec, 16, SeedSpec(1)), np.zeros(16))

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            sample_noise(NoiseSpec(NoiseFamily.NORMAL, 1.0), -1, SeedSpec(1))

    def test_t5_scale_factor(self):
        # unit-variance t_5 noise is the raw t_5 stream times sqrt(3/5)
        seed = SeedSpec(99)
        draws = sample_noise(NoiseSpec(NoiseFamily.SCALED_T, 1.0, df=5.0), 50, seed)
        reference = seed.generator().standard_t(5.0, 50) * math.sqrt(3.0 / 5.0)
        np.testing.assert_allclose(draws, reference, rtol=1e-15)

    def test_t41_scale_factor(self):
        # unit-variance t_4.1 noise is the raw t_4.1 stream times sqrt(21/41)
        seed = SeedSpec(99)
        draws = sample_noise(NoiseSpec(NoiseFamily.SCALED_T, 1.0, df=4.1), 50, seed)
        reference = seed.generator().standard_t(4.1, 50) * math.sqrt(21.0 / 41.0)
        np.testing.assert_allclose(draws, reference, rtol=1e-15)

    def test_variance_scaling_is_sqrt_v(self):
        spec1 = NoiseSpec(NoiseFamily.SCALED_T, 1.0, df=3.0)
        spec4 = spec1.with_variance(4.0)
        a = sample_noise(spec1, 32, SeedSpec(5))
        b = sample_noise(spec4, 32, SeedSpec(5))
        np.testing.assert_allclose(b, 2.0 * a, rtol=1e-15)

    @pytest.mark.parametrize(
        "spec",
        [
            NoiseSpec(NoiseFamily.NORMAL, 1.0),
            NoiseSpec(NoiseFamily.NORMAL, 2.5),
            NoiseSpec(NoiseFamily.SCALED_T, 1.0, df=5.0),
            NoiseSpec(NoiseFamily.SCALED_T, 1.0, df=4.1),
            NoiseSpec(NoiseFamily.SKEW_T_STD, 1.0, df=4.1, skew=1.0),
        ],
    )
    def test_moment_fidelity(self, spec):
        # sample mean within 5 se of 0, sample variance within 5 se of the
        # target (all families here have df > 4, so the variance of the
        # sample variance is finite)
        n = 1_000_000
        x = sample_noise(spec, n, SeedSpec(2024))
        se_mean = x.std() / math.sqrt(n)
        assert abs(x.mean()) < 5 * se_mean
        centered_sq = (x - x.mean()) ** 2
        se_var = centered_sq.std() / math.sqrt(n)
        assert abs(x.var() - spec.target_variance) < 5 * se_var

    def test_normal_kurtosis(self):
        n = 1_000_000
        x = sample_noise(NoiseSpec(NoiseFamily.NORMAL, 1.0), n, SeedSpec(77))
        z = (x - x.mean()) / x.std()
        kurt = float((z**4).mean())
        assert abs(kurt - 3.0) < 5 * math.sqrt(24.0 / n)

    def test_skew_t_draws_are_right_skewed(self):
        x = sample_noise(
            NoiseSpec(NoiseFamily.SKEW_T_STD, 1.0, df=4.1, skew=1.0), 200_000, SeedSpec(8)
        )
        # median below mean 0 for a right-skewed standardized variate
        assert np.median(x) < 0.0


class TestSkewTMoments:
    def test_symmetric_case(self):
        m = skew_t_moments(0.0, 5.0)
        assert m.mean == 0.0
        assert m.skewness == 0.0
        assert m.variance == pytest.approx(5.0 / 3.0, rel=1e-12)

    def test_reference_case(self):
        m = skew_t_moments(1.0, 4.1)
        assert m.mean == pytest.approx(0.7024449227260938, rel=1e-12)
        assert m.variance == pytest.approx(1.4589520829172846, rel=1e-12)
        assert m.skewness == pytest.approx(1.772986495317171, rel=1e-12)

    def test_against_numerical_integration(self):
        # independent check: integrate the density 2 t(x; nu) T(lam x w(x); nu+1)
        lam, nu = 1.0, 4.1

        def pdf(x):
            return (
                2.0
                * stats.t.pdf(x, nu)
                * stats.t.cdf(lam * x * math.sqrt((nu + 1) / (x * x + nu)), nu + 1)
            )

        m1, _ = integrate.quad(lambda x: x * pdf(x), -np.inf, np.inf)
        m2, _ = integrate.quad(lambda x: x * x * pdf(x), -np.inf, np.inf)
        m = skew_t_moments(lam, nu)
        assert m.mean == pytest.approx(m1, abs=1e-8)
        assert m.variance == pytest.approx(m2 - m1 * m1, abs=1e-8)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            skew_t_moments(1.0, 2.0)
        with pytest.raises(ValueError):
            skew_t_moments(1.0, 3.0)


class TestGenDesign:
    def test_balanced(self):
        design = gen_design(Balanced(10, 5), SeedSpec(0))
        assert design.group_sizes == (5,) * 10
        assert kappa(design) == 1.0

    def test_geometric_bounds_and_determinism(self):
        gen = ShiftedGeometric(50, 0.15, 2)
        d1 = gen_design(gen, SeedSpec(11))
        d2 = gen_design(gen, SeedSpec(11))
        assert d1 == d2
        assert min(d1.group_sizes) >= 2
        assert d1.k == 50

    def test_geometric_population_kappa(self):
        # mean 2 + q/p, variance q/p^2 for the failures-before-success count
        p = 0.15
        q = 1.0 - p
        pop_kappa = 1.0 / (1.0 + (q / p**2) / (2.0 + q / p) ** 2)
        assert pop_kappa == pytest.approx(0.61, abs=0.005)
        # large-k realized designs come close to the population value
        design = gen_design(ShiftedGeometric(100_000, p, 2), SeedSpec(4))
        assert kappa(design) == pytest.approx(pop_kappa, abs=0.01)

    def test_uniform_population_kappa(self):
        # discrete uniform on 5..10: mean 7.5, variance 35/12
        pop_kappa = 1.0 / (1.0 + (35.0 / 12.0) / 7.5**2)
        assert pop_kappa == pytest.approx(0.95, abs=0.001)
        design = gen_design(UniformSizes(100_000, 5, 10), SeedSpec(4))
        assert kappa(design) == pytest.approx(pop_kappa, abs=0.01)

    def test_uniform_bounds(self):
        design = gen_design(UniformSizes(200, 5, 10), SeedSpec(1))
        assert min(design.group_sizes) >= 5
        assert max(design.group_sizes) <= 10

    def test_invalid_generators(self):
        with pytest.raises(ValueError):
            ShiftedGeometric(10, 0.15, shift=1)
        with pytest.raises(ValueError):
            UniformSizes(10, 1, 10)
        with pytest.raises(ValueError):
            ShiftedGeometric(10, 0.0)
        with pytest.raises(ValueError):
            Balanced(1, 5)
