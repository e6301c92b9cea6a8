"""Reproducible random variate generation for the simulation engine.

Covers the noise families used in the rejection-rate studies (normal,
variance-rescaled Student t, standardized skew-t) and the group-size
generators (balanced, shifted geometric, uniform over a size range).
Streams are derived from a (master seed, stream id) pair plus an optional
integer path, so independent substreams can be spawned per scenario, grid
point and replicate without any shared state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import ClassVar, Union

import numpy as np

from .core import Design

__all__ = [
    "SeedSpec",
    "NoiseFamily",
    "NoiseSpec",
    "SkewTMoments",
    "Balanced",
    "ShiftedGeometric",
    "UniformSizes",
    "DesignGen",
    "sample_noise",
    "skew_t_moments",
    "gen_design",
]

_UINT64_MAX = 2**64 - 1


@dataclass(frozen=True, slots=True)
class SeedSpec:
    """Root of a family of independent, reproducible random streams."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("master_seed", "stream_id"):
            value = getattr(self, name)
            if not (0 <= int(value) <= _UINT64_MAX):
                raise ValueError(f"{name} must fit in an unsigned 64-bit integer")

    def seed_sequence(self, *path: int) -> np.random.SeedSequence:
        """Seed material for the substream identified by ``path``."""
        return np.random.SeedSequence(
            entropy=self.master_seed, spawn_key=(self.stream_id, *path)
        )

    def generator(self, *path: int) -> np.random.Generator:
        """Fresh generator for the substream identified by ``path``."""
        return np.random.Generator(np.random.PCG64(self.seed_sequence(*path)))


class NoiseFamily(str, Enum):
    NORMAL = "normal"
    SCALED_T = "scaled_t"
    SKEW_T_STD = "skew_t_std"


@dataclass(frozen=True)
class NoiseSpec:
    """A zero-mean noise distribution with a prescribed variance.

    NORMAL draws N(0, v).  SCALED_T draws t_df * sqrt(v (df - 2) / df), so
    the variance is exactly v for df > 2.  SKEW_T_STD draws a skew-t
    variate (asymmetry ``skew``, ``df`` degrees of freedom), subtracts its
    exact mean, divides by its exact standard deviation and rescales to
    variance v.  A target variance of 0 is the point mass at zero, used for
    null-hypothesis grids.
    """

    family: NoiseFamily
    target_variance: float = 1.0
    df: float | None = None
    skew: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.target_variance) and self.target_variance >= 0):
            raise ValueError("target_variance must be finite and nonnegative")
        if self.family is NoiseFamily.NORMAL:
            if self.df is not None or self.skew is not None:
                raise ValueError("normal noise takes no shape parameters")
        elif self.family is NoiseFamily.SCALED_T:
            if self.df is None or self.df <= 2:
                raise ValueError("scaled-t noise needs df > 2 for a finite variance")
            if self.skew is not None:
                raise ValueError("scaled-t noise takes no asymmetry parameter")
        elif self.family is NoiseFamily.SKEW_T_STD:
            if self.df is None or self.df <= 2:
                raise ValueError("skew-t noise needs df > 2 for a finite variance")
            if self.skew is None:
                raise ValueError("skew-t noise needs an asymmetry parameter")
        else:  # pragma: no cover - enum is closed
            raise ValueError(f"unknown noise family {self.family!r}")

    def with_variance(self, target_variance: float) -> "NoiseSpec":
        """Same family and shape, different variance."""
        return NoiseSpec(self.family, target_variance, self.df, self.skew)


@dataclass(frozen=True)
class SkewTMoments:
    mean: float
    variance: float
    skewness: float


def _skew_t_mean_var(lambda_skew: float, nu: float) -> tuple[float, float, float]:
    """Exact mean and variance of the unit skew-t, and its
    delta = lambda / sqrt(1 + lambda^2); needs nu > 2."""
    if nu <= 2:
        raise ValueError("mean and variance of the skew-t require df > 2")
    delta = lambda_skew / math.sqrt(1.0 + lambda_skew * lambda_skew)
    b_nu = math.sqrt(nu / math.pi) * math.exp(
        math.lgamma((nu - 1.0) / 2.0) - math.lgamma(nu / 2.0)
    )
    mean = b_nu * delta
    variance = nu / (nu - 2.0) - mean * mean
    return mean, variance, delta


def skew_t_moments(lambda_skew: float, nu: float) -> SkewTMoments:
    """Exact mean, variance and skewness of the skew-t distribution.

    The distribution has location 0, dispersion 1, asymmetry ``lambda_skew``
    and ``nu`` degrees of freedom.  Mean and variance exist for nu > 2,
    skewness only for nu > 3; smaller nu raises.
    """
    mean, variance, delta = _skew_t_mean_var(lambda_skew, nu)
    if nu <= 3:
        raise ValueError("skewness of the skew-t requires df > 3")
    skewness = (
        mean
        * (
            nu * (3.0 - delta * delta) / (nu - 3.0)
            - 3.0 * nu / (nu - 2.0)
            + 2.0 * mean * mean
        )
        / variance**1.5
    )
    return SkewTMoments(mean=mean, variance=variance, skewness=skewness)


def _resolve_rng(seed: "SeedSpec | np.random.Generator") -> np.random.Generator:
    if isinstance(seed, SeedSpec):
        return seed.generator()
    if isinstance(seed, np.random.Generator):
        return seed
    raise TypeError("seed must be a SeedSpec or a numpy Generator")


def sample_noise(
    spec: NoiseSpec, count: int, seed: "SeedSpec | np.random.Generator"
) -> np.ndarray:
    """Draw ``count`` i.i.d. variates with mean 0 and variance as specified."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    rng = _resolve_rng(seed)
    v = spec.target_variance
    if v == 0.0:
        return np.zeros(count)
    if spec.family is NoiseFamily.NORMAL:
        return rng.standard_normal(count) * math.sqrt(v)
    if spec.family is NoiseFamily.SCALED_T:
        scale = math.sqrt(v * (spec.df - 2.0) / spec.df)
        return rng.standard_t(spec.df, count) * scale
    # Standardized skew-t: a skew-normal numerator over an independent
    # chi-square-based denominator, then exact-moment standardization.
    mean, variance, delta = _skew_t_mean_var(spec.skew, spec.df)
    u0 = rng.standard_normal(count)
    u1 = rng.standard_normal(count)
    z = delta * np.abs(u0) + math.sqrt(1.0 - delta * delta) * u1
    chi = rng.chisquare(spec.df, count)
    y = z / np.sqrt(chi / spec.df)
    return (y - mean) / math.sqrt(variance) * math.sqrt(v)


@dataclass(frozen=True)
class Balanced:
    """Every one of the k groups has exactly m observations."""

    kind: ClassVar[str] = "balanced"
    # whether ``sizes`` draws from its generator
    draws: ClassVar[bool] = False
    k: int
    m: int

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("need at least 2 groups")
        if self.m < 2:
            raise ValueError("need at least 2 observations per group")

    @cached_property
    def label(self) -> str:
        return f"balanced(m={self.m})"

    def sizes(self, rng: np.random.Generator) -> np.ndarray:
        """Group sizes of one realized design; draws nothing from ``rng``."""
        return np.full(self.k, self.m)


@dataclass(frozen=True)
class ShiftedGeometric:
    """Group sizes are shift + G with G geometric on {0, 1, ...}.

    The success probability is ``p``; the smallest possible size is
    ``shift``, which must be at least 2.
    """

    kind: ClassVar[str] = "geometric"
    draws: ClassVar[bool] = True
    k: int
    p: float
    shift: int = 2

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("need at least 2 groups")
        if not 0.0 < self.p < 1.0:
            raise ValueError("p must be in (0, 1)")
        if self.shift < 2:
            raise ValueError("shift must be at least 2 to keep groups testable")

    @cached_property
    def label(self) -> str:
        return f"geometric(p={self.p})+{self.shift}"

    def sizes(self, rng: np.random.Generator) -> np.ndarray:
        """Group sizes of one realized design, drawn from ``rng``."""
        # numpy's geometric counts trials (support {1, 2, ...}); subtract 1
        # for the failures-before-success form used here.
        return rng.geometric(self.p, self.k) - 1 + self.shift


@dataclass(frozen=True)
class UniformSizes:
    """Group sizes drawn uniformly from the integers lo..hi inclusive."""

    kind: ClassVar[str] = "uniform"
    draws: ClassVar[bool] = True
    k: int
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("need at least 2 groups")
        if self.lo < 2:
            raise ValueError("lo must be at least 2 to keep groups testable")
        if self.hi < self.lo:
            raise ValueError("hi must be at least lo")

    @cached_property
    def label(self) -> str:
        return f"uniform({self.lo}..{self.hi})"

    def sizes(self, rng: np.random.Generator) -> np.ndarray:
        """Group sizes of one realized design, drawn from ``rng``."""
        return rng.integers(self.lo, self.hi + 1, self.k)


DesignGen = Union[Balanced, ShiftedGeometric, UniformSizes]
# Design generators by the ``kind`` name a scenario config gives them.
_DESIGN_KINDS = {cls.kind: cls for cls in (Balanced, ShiftedGeometric, UniformSizes)}


def gen_design(gen: DesignGen, seed: "SeedSpec | np.random.Generator") -> Design:
    """Realize a design from a generator; deterministic given the seed."""
    return Design(tuple(gen.sizes(_resolve_rng(seed)).tolist()))
