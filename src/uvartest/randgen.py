"""Reproducible random variate generation for the simulation engine.

Covers the noise families used in the rejection-rate studies (normal,
variance-rescaled Student t, standardized skew-t) and the group-size
generators (balanced, shifted geometric, uniform over a size range).
Streams are derived from a (master seed, stream id) pair plus an optional
integer path, so independent substreams can be spawned per scenario, grid
point and replicate without any shared state.  ``SeedSpec.generators``
seeds the streams of consecutive replicate indices in one batch, hashing
their state words in numpy array arithmetic, with the values that seeding
each on its own gives.  Noise is drawn in two steps,
raw variates from the generator, then scaled to the family and variance;
``sample_noise`` runs both for one array, and the simulation engine scales
the raw variates of a whole block of replicates at once.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import ClassVar, Iterator, Union

import numpy as np

from .core import Design, _check_fields, _integer

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
_MASK32 = 0xFFFFFFFF
# The hash constants of numpy's SeedSequence (numpy/random/bit_generator.pyx).
# Those that meet arrays are uint32 arrays: uint32 array arithmetic wraps
# modulo 2**32 without a warning and keeps its dtype under every promotion
# rule numpy has had since 1.24.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MULT_A_POWERS = np.array([[pow(_MULT_A, i, 2**32)] for i in range(5)], np.uint32)
_MIX_L, _MIX_R = np.array([[[0xCA01F9DD]], [[0x4973F715]]], np.uint32)
# generate_state(4, uint64) hashes the pool words 0, 1, 2, 3, 0, 1, 2, 3 into
# 32-bit words 0..7: word i is xor-ed with INIT_B MULT_B**i, then multiplied
# by INIT_B MULT_B**(i+1).
_STATE_XOR, _STATE_MUL = np.array(
    [[[_INIT_B * pow(_MULT_B, i + j, 2**32) & _MASK32] for i in range(8)] for j in (0, 1)], np.uint32
)
# Replicate indices hashed together, at most.
_CHUNK = 1024
# From this many streams on, seeding them together costs less than one by one
# (on a 2-core x86_64 VM, 2 streams took 36 against 33 us, 3 took 36 against
# 47, 4 took 37 against 65).
_BATCH_MIN = 3


def _word_count(value: int) -> int:
    """Number of 32-bit words numpy's SeedSequence splits ``value`` into."""
    return max(1, -(-operator.index(value).bit_length() // 32))


@functools.cache
def _words_type() -> type:
    """``_Words``, built on first use so that importing this module does not
    import ``numpy.random``."""

    class _Words(np.random.bit_generator.ISeedSequence):
        """Seed material that hands PCG64 its four state words, computed in
        advance by ``SeedSpec.generators``; it cannot spawn."""

        def __init__(self, row: np.ndarray) -> None:
            self.row = row

        def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError("holds the four uint64 words of one PCG64 seeding only")
            return self.row

    _Words.__qualname__ = "_Words"
    return _Words


def __getattr__(name: str):
    # pickle finds the seed material of a batched stream by its name
    if name == "_Words":
        return _words_type()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True, slots=True)
class SeedSpec:
    """Root of a family of independent, reproducible random streams.

    Both fields are integers in 0..2**64 - 1; their types are checked as
    README's "Field types" paragraph states."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        _check_fields(self)
        for name in ("master_seed", "stream_id"):
            if not 0 <= getattr(self, name) <= _UINT64_MAX:
                raise ValueError(f"{name} must fit in an unsigned 64-bit integer")

    def seed_sequence(self, *path: int) -> np.random.SeedSequence:
        """Seed material for the substream identified by ``path``."""
        return np.random.SeedSequence(
            entropy=self.master_seed, spawn_key=(self.stream_id, *path)
        )

    def generator(self, *path: int) -> np.random.Generator:
        """Fresh generator for the substream identified by ``path``."""
        return np.random.Generator(np.random.PCG64(self.seed_sequence(*path)))

    def generators(self, *path: int, count: int) -> Iterator[np.random.Generator]:
        """The generators ``self.generator(*path, r)`` for r in 0..count - 1,
        equal to those in every draw and state.  ``count`` is an integer
        (numpy integers are taken; a float or a bool raises TypeError), and
        a negative one raises ValueError.  From ``_BATCH_MIN`` streams on
        they share the seed material of ``path``, and their
        ``bit_generator.seed_seq`` holds only their state words: it cannot
        spawn.

        SeedSequence mixes its entropy words (the master seed padded to 4
        words, then the stream id and the path, then r) into a pool of 4
        words, and a word past the fourth takes 4 hash steps of a fixed
        sequence, one per pool word, whatever the data.  So r's pool is the
        pool of ``path`` mixed with r at the 4 steps after the path's words,
        and its state words follow from that pool alone.  They are hashed in
        uint32 array arithmetic for up to ``_CHUNK`` indices at once, and
        the generators are built one at a time as they are asked for.
        Indices from 2**32 on take two words and are seeded one by one."""
        if (count := _integer(count, "count")) < 0:
            raise ValueError("count must be nonnegative")
        batched = min(count, 2**32) if count >= _BATCH_MIN else 0
        rest = (self.generator(*path, r) for r in range(batched, count))
        return itertools.chain(self._batch(path, batched), rest) if batched else rest

    def _batch(self, path: tuple[int, ...], count: int) -> Iterator[np.random.Generator]:
        """The streams of ``generators`` for indices 0..count - 1 < 2**32."""
        words_type = _words_type()
        pool = self.seed_sequence(*path).pool[:, None]
        # r is entropy word w (a master seed takes at most 2 of the first 4),
        # and 4 w hash steps come before its 4: 4 to fill the pool, 12 to
        # cross-mix it, 4 for each word past the fourth.  Pool word i mixes
        # in r xor-ed with step 4 w + i, times step 4 w + i + 1.
        w = 4 + _word_count(self.stream_id) + sum(map(_word_count, path))
        steps = _MULT_A_POWERS * np.uint32(_INIT_A * pow(_MULT_A, 4 * w, 2**32) & _MASK32)
        for start in range(0, count, _CHUNK):
            r = np.arange(start, min(start + _CHUNK, count), dtype=np.uint32)
            h = (r ^ steps[:4]) * steps[1:]  # hash r, then mix it into the pool
            h ^= h >> 16
            mixed = _MIX_L * pool - _MIX_R * h
            mixed ^= mixed >> 16
            state = (np.concatenate((mixed, mixed)) ^ _STATE_XOR) * _STATE_MUL
            state ^= state >> 16
            rows = state[1::2].astype(np.uint64) << 32 | state[0::2]
            for row in rows.T.copy():
                yield np.random.Generator(np.random.PCG64(words_type(row)))


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
    null-hypothesis grids.  ``df`` (above 2) and ``skew`` must be finite.
    Field types are checked as README's "Field types" paragraph states.
    """

    family: NoiseFamily
    target_variance: float = 1.0
    df: float | None = None
    skew: float | None = None

    def __post_init__(self) -> None:
        _check_fields(self)
        if not (math.isfinite(self.target_variance) and self.target_variance >= 0):
            raise ValueError("target_variance must be finite and nonnegative")
        scaled = self.family is NoiseFamily.SCALED_T
        if self.family is NoiseFamily.NORMAL:
            if self.df is not None or self.skew is not None:
                raise ValueError("normal noise takes no shape parameters")
        elif self.df is None or not 2 < self.df < math.inf:
            raise ValueError(f"{'scaled-t' if scaled else 'skew-t'} noise needs a finite df > 2, got {self.df!r}")
        elif scaled:
            if self.skew is not None:
                raise ValueError("scaled-t noise takes no asymmetry parameter")
        elif self.skew is None or not math.isfinite(self.skew):
            raise ValueError(f"skew-t noise needs a finite skew, got {self.skew!r}")

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


def _draw_noise(spec: NoiseSpec, count: int, rng: np.random.Generator) -> list[np.ndarray]:
    """The raw variates of ``count`` draws of ``spec`` from ``rng``, one
    array per generator call: none for a variance of 0, which draws
    nothing; standard normal or standard t variates; for skew-t two arrays
    of standard normal variates and one of chi-square variates.  One
    standard normal or standard t call of ``count`` values gives the values
    and the final generator state of consecutive calls whose counts add up
    to ``count``, so two specs that share that sampler may draw from one
    call (``_one_call``)."""
    if spec.target_variance == 0.0:
        return []
    if spec.family is NoiseFamily.NORMAL:
        return [rng.standard_normal(count)]
    if spec.family is NoiseFamily.SCALED_T:
        return [rng.standard_t(spec.df, count)]
    return [rng.standard_normal(count), rng.standard_normal(count), rng.chisquare(spec.df, count)]


def _scale_noise(spec: NoiseSpec, draws: list[np.ndarray], count: int) -> np.ndarray:
    """The ``count`` variates of ``spec`` from raw ``draws`` of
    ``_draw_noise``, or from the draws of several calls joined array by
    array: each value goes through the same operations either way, so it
    has the same bits."""
    v = spec.target_variance
    if v == 0.0:
        return np.zeros(count)
    if spec.family is NoiseFamily.NORMAL:
        return draws[0] * math.sqrt(v)
    if spec.family is NoiseFamily.SCALED_T:
        return draws[0] * math.sqrt(v * (spec.df - 2.0) / spec.df)
    # Standardized skew-t: a skew-normal numerator over an independent
    # chi-square-based denominator, then exact-moment standardization.
    mean, variance, delta = _skew_t_mean_var(spec.skew, spec.df)
    u0, u1, chi = draws
    z = delta * np.abs(u0) + math.sqrt(1.0 - delta * delta) * u1
    y = z / np.sqrt(chi / spec.df)
    return (y - mean) / math.sqrt(variance) * math.sqrt(v)


def _one_call(first: NoiseSpec, second: NoiseSpec) -> bool:
    """Whether one ``_draw_noise`` call of ``first`` can draw the variates of
    ``first``, then those of ``second``: both draw, by one sampler."""
    return (first.family is second.family is not NoiseFamily.SKEW_T_STD and first.df == second.df
            and first.target_variance != 0.0 != second.target_variance)


def sample_noise(spec: NoiseSpec, count: int, seed: "SeedSpec | np.random.Generator") -> np.ndarray:
    """Draw ``count`` i.i.d. variates with mean 0 and variance as specified."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    return _scale_noise(spec, _draw_noise(spec, count, _resolve_rng(seed)), count)


@dataclass(frozen=True)
class Balanced:
    """Every one of the k groups has exactly m observations.  Field types
    are checked as README's "Field types" paragraph states."""

    kind: ClassVar[str] = "balanced"
    # whether ``sizes`` draws from its generator
    draws: ClassVar[bool] = False
    k: int
    m: int

    def __post_init__(self) -> None:
        _check_fields(self)
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
    ``shift``, which must be at least 2.  Field types are checked as
    README's "Field types" paragraph states.
    """

    kind: ClassVar[str] = "geometric"
    draws: ClassVar[bool] = True
    k: int
    p: float
    shift: int = 2

    def __post_init__(self) -> None:
        _check_fields(self)
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
    """Group sizes drawn uniformly from the integers lo..hi inclusive.
    Field types are checked as README's "Field types" paragraph states."""

    kind: ClassVar[str] = "uniform"
    draws: ClassVar[bool] = True
    k: int
    lo: int
    hi: int

    def __post_init__(self) -> None:
        _check_fields(self)
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
