"""Statistics for testing the between-treatment variance component in a
one-way random effects layout.

The pooled pairwise sample variance of grouped observations splits exactly
into a within-groups component and a between-groups component.  The between
component is a centered quadratic form whose pair weights depend only on the
group sizes; standardizing it by the within component and the root of the
squared-weight sum yields a statistic that is asymptotically standard normal
when the between-group variance is zero, giving an upper-tail normal test
that does not require normally distributed data.  This module computes that
statistic, the classical one-way ANOVA F statistic, the weight system, and
the exact moment formulas used to validate both in simulation.  The normal
and F tail probabilities are computed here too, from the standard library's
``math`` functions, so the module needs only numpy.

The normal calibration is asymptotic in the number of groups k and liberal
at finite k.  For balanced designs with normal errors the statistic is an
exact affine function of the F statistic, so its exact size at nominal 0.05
is known: 0.060 at k=100, m=10; 0.067 at k=30, m=10; 0.087 at k=10, m=5;
0.136 at k=10, m=2.  Where that matters, calibrate by permutation ("PERM",
``uvartest.simlab.permutation_pvalue``).

All functions are pure; all value types are immutable after construction and
safe to share across threads.  The statistic kernel keeps the constants of
the designs it has seen in a bounded cache (``functools.lru_cache``, which is
thread-safe) of read-only arrays and floats, so callers on several threads,
such as ``uvartest.cli.main``, share it safely.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

__all__ = [
    "DegenerateWithinVariance",
    "Design",
    "Dataset",
    "Decomposition",
    "EtaWeights",
    "TestResult",
    "MomentOracle",
    "within_u",
    "between_pair_u",
    "decompose",
    "eta_weights",
    "m_n",
    "b_n_centered",
    "u_test",
    "f_test",
    "normal_sf",
    "f_sf",
    "moment_oracle",
    "local_shift",
    "icc",
    "kappa",
]

_SQRT2 = math.sqrt(2.0)


class DegenerateWithinVariance(ValueError):
    """Raised when every group is internally constant, up to rounding.

    The pooled within-group variance is then zero, or at the level of
    floating-point rounding of the values, so the U statistic has a zero or
    meaningless denominator and neither the normal test nor the F-test has
    a defined p-value.
    """


@dataclass(frozen=True)
class Design:
    """Group sizes (n_1, ..., n_k) of a one-way layout.

    Requires at least two groups and at least two observations per group;
    singleton groups carry no within-group information and would make the
    same-group pair weight divide by zero.
    """

    group_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        sizes = tuple(int(m) for m in self.group_sizes)
        if any(m != orig for m, orig in zip(sizes, self.group_sizes)):
            raise ValueError("group sizes must be integers")
        object.__setattr__(self, "group_sizes", sizes)
        if len(sizes) < 2:
            raise ValueError("a design needs at least 2 groups")
        if any(m < 2 for m in sizes):
            raise ValueError("every group needs at least 2 observations")

    @property
    def k(self) -> int:
        """Number of groups."""
        return len(self.group_sizes)

    @property
    def n(self) -> int:
        """Total number of observations."""
        return sum(self.group_sizes)

    def pair_count(self) -> int:
        """Number of unordered observation pairs, n choose 2."""
        n = self.n
        return n * (n - 1) // 2


class Dataset:
    """Grouped real-valued observations for a one-way layout.

    Stores the pooled vector in group order (all of group 1, then group 2,
    and so on) and its design; ``groups`` gives per-group views of it.
    Instances are treated as immutable after construction.
    """

    __slots__ = ("design", "values")

    def __init__(self, groups: Iterable[Sequence[float]]):
        arrays = tuple(np.asarray(g, dtype=float) for g in groups)
        for a in arrays:
            if a.ndim != 1:
                raise ValueError("each group must be a 1-D sequence of values")
        design = Design(tuple(a.size for a in arrays))
        values = np.concatenate(arrays)
        if not np.all(np.isfinite(values)):
            raise ValueError("observations must be finite")
        self.design = design
        self.values = values

    @classmethod
    def from_values(cls, values: np.ndarray, design: Design) -> "Dataset":
        """Build a dataset from an already-pooled vector in group order."""
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size != design.n:
            raise ValueError("pooled vector length must match the design")
        if not np.all(np.isfinite(values)):
            raise ValueError("observations must be finite")
        ds = cls.__new__(cls)
        ds.values = values
        ds.design = design
        return ds

    @property
    def groups(self) -> tuple[np.ndarray, ...]:
        """Per-group views of the pooled vector, in group order."""
        return tuple(np.split(self.values, np.cumsum(self.design.group_sizes)[:-1]))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Dataset(k={self.design.k}, group_sizes={self.design.group_sizes})"


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Split of the pooled pairwise variance into within and between parts.

    ``u_pooled`` is the sample variance of all observations, ``w_n`` the
    size-weighted mean of the per-group variances ``u_within`` and ``b_n``
    the between-groups remainder: ``u_pooled == w_n + b_n`` up to roundoff.
    """

    u_within: np.ndarray
    u_pooled: float
    w_n: float
    b_n: float


@dataclass(frozen=True)
class TestResult:
    """Outcome of one hypothesis test at level ``alpha``.

    ``method`` is "U" (normal-calibrated between-variance test), "F"
    (one-way ANOVA), or "PERM" (permutation-calibrated U statistic).
    ``reject`` is equivalent to ``p_value <= alpha``; the boundary rejects.
    ``df`` is set only for the F-test.
    """

    method: str
    statistic: float
    p_value: float
    reject: bool
    alpha: float
    df: tuple[float, float] | None = None
    extras: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class MomentOracle:
    """Closed-form moments used to validate the simulation engine.

    ``e_bn``       expected between-groups component for the given variance
    ``var_bn_null`` its exact variance when the between-group variance is 0
    ``var_ui``     exact variance of each per-group variance estimate
    ``lambda_n``   squared-weight sum divided by n^3 (finite-n scale factor)
    ``shift``      implied mean of the standardized statistic when the given
                   between-group variance is read on the local scale
                   sigma_b^2 = delta^2 / sqrt(n)
    """

    e_bn: float
    var_bn_null: float
    var_ui: tuple[float, ...]
    lambda_n: float
    shift: float


class _Stats(NamedTuple):
    """Per-row output of :func:`_statistics`: each field has one entry per
    row (``u_within`` one row of k group variances)."""

    u_within: np.ndarray
    u_pooled: np.ndarray
    w_n: np.ndarray
    b_n: np.ndarray
    j: np.ndarray  # standardized between statistic
    f: np.ndarray  # ANOVA F statistic
    sq_between: np.ndarray
    sq_within: np.ndarray
    degenerate: np.ndarray  # j and f are undefined where set


class _Layout(NamedTuple):
    """How :func:`_statistics` reads its rows, and the constants of their
    designs.  The values are read in ``shape``, with rows and (row, group)
    segments along its last axis: the segments start at ``starts`` and
    hold ``counts`` values, k segments to a row.  The group constants have
    one row of k per row and the row constants one entry per row, or, for
    all rows of one design, one row of k and one float."""

    shape: tuple[int, ...]
    starts: np.ndarray
    counts: np.ndarray
    size: np.ndarray  # n_i
    size1: np.ndarray  # n_i - 1
    others: np.ndarray  # observations outside each group, n - n_i
    n: np.ndarray | float
    n1: np.ndarray | float  # n - 1
    pairs: np.ndarray | float  # ordered pairs, 2 C(n, 2)
    root_m: np.ndarray | float  # sqrt(M_n)
    m: np.ndarray | float  # M_n


def _layout(sizes: np.ndarray) -> _Layout:
    """Layout of R rows of the group sizes ``sizes`` (integers, shape
    (R, k)) laid back to back in one flat vector."""
    k = sizes.shape[-1]
    counts = sizes.ravel()
    starts = counts.cumsum() - counts  # first position of each (row, group) segment
    size = sizes.astype(float)
    n = np.add.reduce(size, axis=-1)
    size1 = size - 1.0
    others = n[:, None] - size
    n1 = n - 1.0
    m = 0.5 * n1 * (n * (k - 1) + np.add.reduce(others / size1, axis=-1))  # m_n multiplied out
    return _Layout((-1,), starts, counts, size, size1, others, n, n1, n * n1, np.sqrt(m), m)


# Bounded: under PERM, each replicate of a redrawn design passes its own
# design through the cache.
@functools.lru_cache(maxsize=128)
def _design_layout(sizes: tuple[int, ...]) -> _Layout:
    """:func:`_layout` of the rows of one design, read as an (R, n) array:
    computed once per design, with read-only arrays of at most k entries
    and floats for the row constants."""
    lay = _layout(np.array([sizes]))
    lay = lay._replace(shape=(-1, int(lay.n[0])),
                       **{f: float(getattr(lay, f)[0]) for f in ("n", "n1", "pairs", "root_m", "m")})
    for a in lay[1:]:
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return lay


# A row is degenerate when sqrt(W_n) <= _DEGENERACY_ULPS * eps * max(max|y|, tiny),
# tiny the smallest normal float.  One ulp of any value c is at most
# eps * max(|c|, tiny), subnormal c included, so groups that are constant up
# to one ulp of their common value have sqrt(W_n) <= sqrt(2) * eps * max(max|y|,
# tiny) exactly, and the corrected sums of squares below compute it exactly;
# 1e8 + N(0, 1) data sit 1e7 times higher.
_DEGENERACY_ULPS = 1.5
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
# Rows with max|y| inside [1 / _SAFE_PEAK, _SAFE_PEAK] are squared as they are.
_SAFE_PEAK = 2.0**256


def _statistics(values: np.ndarray, sizes: np.ndarray) -> _Stats:
    """Decomposition, U and F statistics of R rows of k groups each.

    ``values`` holds the rows back to back in one flat vector and ``sizes``
    their group sizes (integers), shape (R, k), or (1, k) when every row
    has that one design.  The constants of one design (n, M_n, pair count)
    are computed once and kept (:func:`_design_layout`), and its rows are
    read as an (R, n) array; other blocks compute theirs per call and are
    read as the flat vector.  Each (row, group) segment and each row is
    summed on its own (``np.add.reduceat`` or ``np.add.reduce`` along the
    last axis) without BLAS, so a row gives bit-identical results in any
    block.

    Values anywhere in the float range give defined statistics: when some
    row's max|y| lies outside [2**-256, 2**256], where squares could
    overflow or underflow, each row is scaled by the power of two 2**-e that
    brings max(max|y|, tiny) into [0.5, 1) before anything is squared, and
    the sums of squares are scaled back by 2**(2e).  Scaling by a power of
    two is exact, so J, F and the degeneracy flag are those of the
    unscaled rows.  A value that is not finite raises ValueError.
    """
    k = sizes.shape[-1]
    lay = _design_layout(tuple(sizes[0].tolist())) if len(sizes) == 1 else _layout(sizes)
    x = values.reshape(lay.shape)
    lines = x.shape[:-1]  # (R,) for the rows of one design, () for one flat vector
    # peak stands for max(max|y|, tiny), scaled with the rows; rows left
    # unscaled have max|y| >= 2**-256 > tiny.
    peak = np.maximum.reduceat(np.abs(x), lay.starts[::k], axis=-1).ravel()
    exponent = None
    if not (np.minimum.reduce(peak) >= 1.0 / _SAFE_PEAK and np.maximum.reduce(peak) <= _SAFE_PEAK):
        if not np.isfinite(peak).all():
            raise ValueError("observations must be finite")
        peak, exponent = np.frexp(np.maximum(peak, _TINY))
        row_counts = np.add.reduce(lay.counts.reshape(-1, k), axis=-1)
        x = np.ldexp(x, np.repeat(-exponent.reshape(*lines, -1), row_counts, axis=-1))
    size, n = lay.size, lay.n
    sums = np.add.reduceat(x, lay.starts, axis=-1).reshape(-1, k)
    means = sums / size
    centered = x - np.repeat(means.reshape(*lines, -1), lay.counts, axis=-1)
    # Corrected two-pass sums of squares (Chan, Golub & LeVeque, 1983): the
    # drift term removes the rounding error of the group means, so groups
    # that are constant up to a few ulps get their exact, tiny variance.
    drift = np.add.reduceat(centered, lay.starts, axis=-1).reshape(-1, k)
    squares = np.add.reduceat(centered * centered, lay.starts, axis=-1).reshape(-1, k)
    ss_within = squares - drift * drift / size
    dev = means - (np.add.reduce(sums, axis=-1) / n)[:, None]
    sq_between = np.add.reduce(size * (dev * dev), axis=-1)
    sq_within = np.add.reduce(ss_within, axis=-1)
    u_within = ss_within / lay.size1
    w_n = np.add.reduce(size * u_within, axis=-1) / n
    # Between part from sufficient statistics: combining the pair-mean
    # identity over all group pairs collapses to one weighted contrast.
    b_n = (n * sq_between - np.add.reduce(lay.others * u_within, axis=-1)) / lay.pairs
    u_pooled = (sq_within + sq_between) / lay.n1  # total SS = within SS + between SS
    degenerate = np.sqrt(w_n) <= _DEGENERACY_ULPS * _EPS * peak
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        j = 0.5 * lay.pairs * b_n / (w_n * lay.root_m)
        f = (sq_between / (k - 1)) / (sq_within / (n - k))
        if exponent is not None:
            u_within = np.ldexp(u_within, 2 * exponent[:, None])
            u_pooled, w_n, b_n, sq_between, sq_within = (
                np.ldexp(a, 2 * exponent) for a in (u_pooled, w_n, b_n, sq_between, sq_within)
            )
    return _Stats(u_within, u_pooled, w_n, b_n, j, f, sq_between, sq_within, degenerate)


def within_u(dataset: Dataset, i: int) -> float:
    """Unbiased variance of group ``i`` (0-based).

    Equals the average of (x - y)^2 / 2 over all unordered pairs within the
    group, computed via two-pass centered sums.
    """
    group = dataset.groups[i]
    return float(np.var(group, ddof=1))


def between_pair_u(dataset: Dataset, i: int, i2: int) -> float:
    """Mean of (x - y)^2 / 2 over all cross pairs of groups ``i`` and ``i2``.

    Uses the sufficient-statistic identity
    ``2 U = q_i/n_i + q_j/n_j + (mean_i - mean_j)^2``
    with q the centered sum of squares, equivalent to the full double sum.
    """
    if i == i2:
        raise ValueError("between_pair_u needs two distinct groups; use within_u for one group")
    a, b = dataset.groups[i], dataset.groups[i2]
    ma, mb = float(a.mean()), float(b.mean())
    qa = float(((a - ma) ** 2).sum())
    qb = float(((b - mb) ** 2).sum())
    return 0.5 * (qa / a.size + qb / b.size + (ma - mb) ** 2)


def decompose(dataset: Dataset) -> Decomposition:
    """Split the pooled pairwise variance into within and between parts."""
    st = _statistics(dataset.values, np.array([dataset.design.group_sizes]))
    return Decomposition(st.u_within[0], float(st.u_pooled[0]), float(st.w_n[0]), float(st.b_n[0]))


def m_n(design: Design) -> float:
    """Sum of squared pair weights over all observation pairs.

    Closed form: (n choose 2)(k - 1) {1 + (1/n) sum_i (n - n_i) / ((n_i - 1)(k - 1))};
    grows like n^3 when group sizes stay bounded.
    """
    return _design_layout(design.group_sizes).m


class EtaWeights:
    """Pair weights of the between-groups quadratic form.

    A pair drawn from group ``i`` gets weight (n - n_i) / (n_i - 1); a pair
    straddling two groups gets weight -1.  Weights sum to zero over all
    pairs, and the weights attached to any single observation sum to zero
    as well, which is what makes the quadratic form insensitive to the
    centering constant.
    """

    __slots__ = ("design", "same_group", "m_n", "_group_of")

    def __init__(self, design: Design):
        sizes = np.asarray(design.group_sizes, dtype=float)
        n = design.n
        self.design = design
        self.same_group = (n - sizes) / (sizes - 1.0)
        self.m_n = m_n(design)
        self._group_of = np.repeat(np.arange(design.k), design.group_sizes)

    def weight(self, r: int, s: int) -> float:
        """Weight of the pair of pooled observation positions (0-based)."""
        n = self.design.n
        if not (0 <= r < n and 0 <= s < n):
            raise IndexError("observation position out of range")
        if r == s:
            raise ValueError("pair weights need two distinct positions")
        gr, gs = self._group_of[r], self._group_of[s]
        return float(self.same_group[gr]) if gr == gs else -1.0

    def matrix(self) -> np.ndarray:
        """Dense symmetric weight matrix with a zero diagonal (n x n)."""
        n = self.design.n
        w = np.full((n, n), -1.0)
        start = 0
        for g, size in enumerate(self.design.group_sizes):
            stop = start + size
            w[start:stop, start:stop] = self.same_group[g]
            start = stop
        np.fill_diagonal(w, 0.0)
        return w


def eta_weights(design: Design) -> EtaWeights:
    """Pair-weight system of a design."""
    return EtaWeights(design)


def b_n_centered(dataset: Dataset, center: float) -> float:
    """Between-groups component evaluated as an explicit quadratic form.

    Averages ``weight(r, s) * (y_r - center)(y_s - center)`` over all pairs.
    Because per-observation weight sums vanish, the result does not depend
    on ``center`` and equals ``decompose(dataset).b_n`` up to roundoff.
    Quadratic in n; intended as an independent cross-check, not for bulk use.
    """
    if not math.isfinite(center):
        raise ValueError("center must be finite")
    x = dataset.values - center
    w = EtaWeights(dataset.design).matrix()
    quad = 0.5 * float(x @ (w @ x))
    return quad / dataset.design.pair_count()


def normal_sf(x: float) -> float:
    """Upper-tail probability P(Z > x) of the standard normal."""
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    return 0.5 * math.erfc(x / _SQRT2)


def f_sf(x: float, d1: float, d2: float) -> float:
    """Upper-tail probability P(F > x) of the F distribution with (d1, d2) df.

    This is the regularized incomplete beta function I_y(a, b) with
    a = d2/2, b = d1/2 at y = d2 / (d2 + d1 x).  Its continued fraction is
    evaluated by the modified Lentz method (Press et al., Numerical Recipes,
    sec. 6.4) where it converges fast, y < (a + 1) / (a + b + 2), and as
    1 - I_{1-y}(b, a) beyond.  The prefactor y^a (1-y)^b / B(a, b) is formed
    in log space from log y = -log1p(d1 x / d2) and
    log(1 - y) = -log1p(d2 / (d1 x)), so 1 - y never comes from a
    subtraction; for the larger of a and b from 1e4 up,
    lgamma(a + b) - lgamma(a) comes from Stirling's series (DiDonato &
    Morris, 1992, ACM TOMS 18, Algorithm 708): the difference of two
    lgamma values of order a log a would put an error of 1e-8 into log p at
    d2 = 1e8.

    Against ``scipy.special.betainc`` the result is within a relative 1e-9
    or an absolute 1e-12 for d1 in 1..999, d2 in 2..1e7 and tail
    probabilities from 1e-300 to 1 (tests/test_core.py).  ``f_sf(0, ...)``
    is exactly 1.  Raises ValueError for an x that is negative or NaN and
    for degrees of freedom that are not finite and positive, and
    ArithmeticError if the continued fraction has not converged after
    ``_CF_MAX_STEPS`` steps, which takes d1 and d2 both in the hundreds of
    millions.
    """
    if not x >= 0:
        raise ValueError("F statistic must be a nonnegative number")
    if not (0 < d1 < math.inf and 0 < d2 < math.inf):
        raise ValueError("degrees of freedom must be finite and positive")
    ratio = d1 * x / d2  # (1 - y) / y
    if ratio == 0.0:
        return 1.0
    a, b = 0.5 * d2, 0.5 * d1
    small, large = sorted((a, b))
    log_front = (
        _lgamma_ratio(large, small)
        - math.lgamma(small)
        - a * math.log1p(ratio)
        - b * math.log1p(1.0 / ratio)
    )
    y = 1.0 / (1.0 + ratio)
    if y < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_cf(a, b, y) / a
    return 1.0 - math.exp(log_front) * _beta_cf(b, a, ratio * y) / b


# Stirling's series replaces the lgamma difference from this argument up;
# its first omitted term, 1/(1680 z^7), is below 1e-31 there.
_STIRLING_FROM = 1e4
# The continued fraction takes about 0.6 sqrt(min(a, b)) + 50 steps near
# the distribution's centre (434 at d1 = 1e6, d2 = 1e8) and fewer in the
# tails.
_CF_MAX_STEPS = 10_000
_CF_TINY = 1e-300  # stands in for a zero denominator in Lentz's method


def _lgamma_ratio(a: float, b: float) -> float:
    """lgamma(a + b) - lgamma(a), without cancellation for large a."""
    if a < _STIRLING_FROM:
        return math.lgamma(a + b) - math.lgamma(a)
    return (
        (a - 0.5) * math.log1p(b / a)
        + b * math.log(a + b)
        - b
        + _stirling_tail(a + b)
        - _stirling_tail(a)
    )


def _stirling_tail(z: float) -> float:
    """lgamma(z) - [(z - 1/2) log z - z + log(2 pi) / 2], for large z."""
    z2 = z * z
    return (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * z2)) / z2) / z


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b) a B(a, b) / (x^a (1 - x)^b), by the
    modified Lentz method; converges fast for x < (a + 1) / (a + b + 2)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c, d = 1.0, 1.0 - qab * x / qap
    d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
    h = d
    for m in range(1, _CF_MAX_STEPS + 1):
        m2 = 2 * m
        for aa in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
            c = 1.0 + aa / c
            c = c if abs(c) > _CF_TINY else _CF_TINY
            h *= d * c
        if abs(d * c - 1.0) <= _EPS:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})"
    )


_DOUBLE, _INT64 = struct.Struct("<d"), struct.Struct("<q")


def _key(x: float) -> int:
    """Integer key of a double: keys order as the doubles do, -0.0 just
    below 0.0, and adjacent doubles have adjacent keys.  A negative bit
    pattern has its 63 low bits flipped, which :func:`_double` undoes."""
    bits = _INT64.unpack(_DOUBLE.pack(x))[0]
    return bits if bits >= 0 else bits ^ (2**63 - 1)


def _double(key: int) -> float:
    return _DOUBLE.unpack(_INT64.pack(key if key >= 0 else key ^ (2**63 - 1)))[0]


@functools.lru_cache(maxsize=4096)
def _critical(alpha: float, *df: float) -> float:
    """The smallest double t with ``tail(t) <= alpha``, where ``tail`` is
    ``normal_sf`` when no degrees of freedom are given and
    ``f_sf(., d1, d2)`` for ``df = (d1, d2)``.  Both tails do not increase,
    so ``stat >= _critical(alpha, *df)`` decides as ``tail(stat) <= alpha``:
    U and F decide by one comparison with a value computed once.

    The search starts from lo where the tail is 1, -inf for the normal and
    0 for F, and doubling hi from 1 brackets t.  The bracket lo < hi, with
    tail(lo) > alpha >= tail(hi), then narrows until lo and hi are adjacent
    doubles.  Each step tries false position on log tail (the Illinois
    variant); a step outside the bracket, or one after three in a row that
    did not halve the number of doubles in it, is replaced by the midpoint
    of the two keys (:func:`_key`).  About 14 evaluations of ``f_sf`` at the
    presets' degrees of freedom.  The cache holds every (d1, d2) pair that
    a preset's redrawn designs reach.
    """
    tail = (lambda t: f_sf(t, *df)) if df else normal_sf
    lo, p_lo, hi = 0.0 if df else -math.inf, 1.0, 1.0
    while (p_hi := tail(hi)) > alpha:
        lo, p_lo, hi = hi, p_hi, 2.0 * hi
    target = math.log(alpha)
    g_lo, g_hi = math.log(p_lo) - target, math.log(max(p_hi, _TINY)) - target
    width = _key(hi) - _key(lo)
    slow, lo_moved = 0, None
    while width > 1:
        t = lo + (hi - lo) * (g_lo / (g_lo - g_hi)) if g_lo > g_hi else hi
        if slow == 3 or not lo < t < hi:
            t = _double(_key(lo) + width // 2)
        p = tail(t)
        g = math.log(max(p, _TINY)) - target
        if p > alpha:
            if lo_moved:
                g_hi *= 0.5
            lo, g_lo, lo_moved = t, g, True
        else:
            if lo_moved is False:
                g_lo *= 0.5
            hi, g_hi, lo_moved = t, g, False
        narrowed = _key(hi) - _key(lo)
        slow = 0 if 2 * narrowed <= width or slow == 3 else slow + 1
        width = narrowed
    return hi


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")


def _rejections(method: str, st: _Stats, sizes: np.ndarray, alpha: float) -> int:
    """Number of the kernel output's rows, each with one row of group sizes
    in ``sizes`` or all with its one row, that the U-test ("U") or
    F-test ("F") rejects at level ``alpha``: the non-degenerate rows whose
    statistic reaches the method's critical value (:func:`_critical`), one
    for U and one per distinct n - k for F.  Only the statistic and the
    degeneracy flag are read.  PERM decides by the same kind of threshold,
    ``stop`` in ``simlab.run_scenario``."""
    stat, crit = st.j, _critical(alpha)
    if method == "F":
        k, stat = sizes.shape[-1], st.f
        if len(sizes) == 1:
            crit = _critical(alpha, k - 1.0, int(sizes.sum()) - k)
        else:
            d2, row_d2 = np.unique(sizes.sum(axis=-1) - k, return_inverse=True)
            crit = np.array([_critical(alpha, k - 1.0, v) for v in d2.tolist()])[row_d2]
    return int(np.count_nonzero(~st.degenerate & (stat >= crit)))


def _test_results(dataset: Dataset, alpha: float, methods: str) -> list[TestResult]:
    """Results of the U-test ("U") and the F-test ("F") of a dataset, in the
    order ``methods`` lists them, from one kernel call."""
    _check_alpha(alpha)
    st = _statistics(dataset.values, np.array([dataset.design.group_sizes]))
    if st.degenerate[0]:
        raise DegenerateWithinVariance(
            "every group is constant up to rounding; the within-group variance is zero"
        )
    design, results = dataset.design, []
    for method in methods:
        if method == "U":
            stat, df = float(st.j[0]), None
            p = normal_sf(stat)
            extras = {"w_n": float(st.w_n[0]), "b_n": float(st.b_n[0]), "m_n": m_n(design)}
        else:
            stat, df = float(st.f[0]), (float(design.k - 1), float(design.n - design.k))
            p = f_sf(stat, *df)
            extras = {"sq_between": float(st.sq_between[0]), "sq_within": float(st.sq_within[0])}
        results.append(TestResult(method, stat, p, p <= alpha, alpha, df, extras))
    return results


def u_test(dataset: Dataset, alpha: float = 0.05) -> TestResult:
    """Normal-calibrated test that the between-group variance is zero.

    The statistic is the pair count times the between component, divided by
    the within component times the root of the squared-weight sum; large
    values indicate real between-group variance.  Rejects when the upper
    tail probability is at most ``alpha`` (boundary inclusive).

    The standard normal reference is the statistic's limit as the number of
    groups grows, not its law at finite k, where the statistic is right
    skewed and the test liberal.  For balanced designs with normal errors
    the exact size at ``alpha=0.05`` is 0.060 at k=100, m=10; 0.067 at k=30,
    m=10; 0.087 at k=10, m=5; and 0.136 at k=10, m=2.  The permutation
    calibration ("PERM", ``uvartest.simlab.permutation_pvalue``) is exact
    under exchangeability at any size.
    """
    return _test_results(dataset, alpha, "U")[0]


def f_test(dataset: Dataset, alpha: float = 0.05) -> TestResult:
    """Classical one-way ANOVA F-test of the no-treatment-effect hypothesis.

    F = [SS_between / (k - 1)] / [SS_within / (n - k)], referred to the
    central F distribution with (k - 1, n - k) degrees of freedom.
    """
    return _test_results(dataset, alpha, "F")[0]


def moment_oracle(
    design: Design, sigma_b2: float, sigma_e2: float, e4: float
) -> MomentOracle:
    """Exact moments of the decomposition under the random effects model.

    ``sigma_b2`` and ``sigma_e2`` are the between- and within-group variance
    components and ``e4`` the fourth moment of the within-group errors
    (``e4 >= sigma_e2**2`` by Jensen).
    """
    if sigma_b2 < 0:
        raise ValueError("sigma_b2 must be nonnegative")
    if sigma_e2 <= 0:
        raise ValueError("sigma_e2 must be positive")
    if e4 < sigma_e2 * sigma_e2:
        raise ValueError("e4 must be at least sigma_e2 squared")
    sizes = np.asarray(design.group_sizes, dtype=float)
    n = design.n
    e_bn = sigma_b2 * (n * n - float((sizes * sizes).sum())) / (n * (n - 1))
    mn = m_n(design)
    pairs = design.pair_count()
    var_bn_null = sigma_e2 * sigma_e2 * mn / (pairs * pairs)
    var_ui = tuple(
        e4 / ni - (ni - 3.0) * sigma_e2 * sigma_e2 / ((ni - 1.0) * ni)
        for ni in sizes
    )
    lambda_n = mn / n**3
    shift = math.sqrt(n) * sigma_b2 / (2.0 * sigma_e2 * math.sqrt(lambda_n))
    return MomentOracle(
        e_bn=e_bn,
        var_bn_null=var_bn_null,
        var_ui=var_ui,
        lambda_n=lambda_n,
        shift=shift,
    )


def local_shift(design: Design, delta: float, sigma_e2: float) -> float:
    """Mean of the standardized statistic under a local alternative.

    For the shrinking sequence sigma_b^2 = delta^2 / sqrt(n) the statistic
    is asymptotically normal with unit variance and this mean, using the
    finite-n plug-in lambda_n = m_n / n^3 for the limiting scale factor.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if sigma_e2 <= 0:
        raise ValueError("sigma_e2 must be positive")
    lambda_n = m_n(design) / design.n**3
    return delta * delta / (2.0 * sigma_e2 * math.sqrt(lambda_n))


def icc(sigma_b2: float, sigma_e2: float) -> float:
    """Intraclass correlation sigma_b^2 / (sigma_b^2 + sigma_e^2)."""
    if sigma_b2 < 0:
        raise ValueError("sigma_b2 must be nonnegative")
    if sigma_e2 <= 0:
        raise ValueError("sigma_e2 must be positive")
    return sigma_b2 / (sigma_b2 + sigma_e2)


def kappa(design: Design) -> float:
    """Imbalance measure 1 / (1 + cv^2) of the group sizes.

    cv is the coefficient of variation of (n_1, ..., n_k) with the
    population (denominator k) standard deviation; 1 for balanced designs,
    smaller for more unbalanced ones.
    """
    sizes = np.asarray(design.group_sizes, dtype=float)
    cv = float(sizes.std()) / float(sizes.mean())
    return 1.0 / (1.0 + cv * cv)
