"""Monte Carlo engine for size and power studies of the variance-component
tests, plus permutation calibration of the normal-calibrated statistic.

A scenario bundles design generators, noise specifications, a grid of
between-group variances and a seed.  Running it produces a rejection table:
one row per (design cell, grid value, method) with the empirical rejection
rate and its Monte Carlo standard error.  Each (cell, grid value) is one
unit of work, run by one ``_run_unit`` call from the scenario, the two
indices and the cell's fixed design alone, so units may run in any order.
Within a unit, replicates are drawn one by one, each from its own stream
seeded by (seed, cell index, grid index, replicate index); the streams of
a unit are seeded in one batch, with the values of seeding each on its own.
Replicates are evaluated in blocks of at most 2**16 values, for fixed and
redrawn designs alike.  Per replicate only its generator calls run: sizes
when redrawn, then the raw variates of its group effects and errors.
Scaling them, assembling the pooled vectors and one statistic-kernel call
run once per block, through the operations that assembling each replicate
on its own takes, so the values are the same.  Under PERM each replicate
then draws permutations of its assembled row from its stream, a stack of
rows per generator call, but only until its decision is fixed; its rates
are still those of the full ``n_perm`` test.  The block's kernel call
evaluates no permuted row.  One helper, ``_perm_exceedances``, draws and
counts the random permutations of the engine and of
``permutation_pvalue`` alike.  A PERM count is a sum of counts per stack:
``_stack_counter`` sets up, once per observed row, the function that
counts a stack's exceedances from each row's k group sums (on an
unbalanced design, with one more pass over the squared centred values),
and passes to the kernel only the rows too close to the threshold (or to
degeneracy) to decide with certainty.
Every run of a scenario gives bit-identical results.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import numbers
import operator
from dataclasses import MISSING, dataclass, field, fields
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, get_type_hints

import numpy as np

from .core import (_EPS, _SAFE_PEAK, Dataset, TestResult, _check_alpha, _design_layout,
                   _rejections, _statistics, u_test)
from .randgen import (
    _DESIGN_KINDS,
    Balanced,
    DesignGen,
    NoiseFamily,
    NoiseSpec,
    SeedSpec,
    ShiftedGeometric,
    UniformSizes,
    _draw_noise,
    _integer,
    _one_call,
    _resolve_rng,
    _scale_noise,
    _set_integer,
)

__all__ = [
    "METHODS",
    "ScenarioSpec",
    "RejectionCell",
    "RejectionTable",
    "run_scenario",
    "preset",
    "PRESET_NAMES",
    "permutation_pvalue",
    "mc_se",
    "scenario_from_dict",
]

METHODS = ("U", "F", "PERM")

_EXHAUSTIVE_LIMIT = 200_000
# Permuted vectors and simulated replicates are evaluated in stacks of at most
# this many values, which bounds the memory of one kernel call.
_CHUNK_VALUES = 2**16
# Shared by every table without degenerate replicates, so a table costs no
# dict of its own.
_NO_DEGENERATE: Mapping = MappingProxyType({})


@dataclass(frozen=True, slots=True)
class ScenarioSpec:
    """Full configuration of one simulation study.

    ``design_gens`` lists the design cells of the study (for instance one
    balanced generator per number-of-groups value); each cell is crossed
    with every value of ``sigma_b2_grid``.  ``b_spec`` fixes the family and
    shape of the group effects, with its variance replaced by the grid
    value cell by cell; ``e_spec`` is used as-is for the within-group
    errors.  ``n_perm`` only matters when "PERM" is among the methods.
    """

    name: str
    design_gens: tuple[DesignGen, ...]
    redraw_design_per_replicate: bool
    b_spec: NoiseSpec
    e_spec: NoiseSpec
    mu: float
    sigma_b2_grid: tuple[float, ...]
    alpha: float
    replicates: int
    seed: SeedSpec
    methods: tuple[str, ...] = ("U",)
    n_perm: int = 199

    def __post_init__(self) -> None:
        for name, kind in (("seed", SeedSpec), ("b_spec", NoiseSpec), ("e_spec", NoiseSpec)):
            if not isinstance(value := getattr(self, name), kind):
                raise TypeError(f"{name} must be a {kind.__name__}, got {value!r}")
        if not self.design_gens:
            raise ValueError("at least one design generator is required")
        for gen in self.design_gens:
            if not isinstance(gen, tuple(_DESIGN_KINDS.values())):
                raise TypeError(f"design_gens must hold design generators, got {gen!r}")
        # a repeated (k, design) cell or grid value would repeat a table key
        if len({(gen.k, gen.label) for gen in self.design_gens}) < len(self.design_gens):
            raise ValueError("design_gens must not repeat a (k, design) cell")
        _check_alpha(self.alpha)
        if _set_integer(self, "replicates") < 1:
            raise ValueError("replicates must be at least 1")
        # a bool in sigma_b2_grid would run and write a table that does not read back
        for name, value in (("mu", self.mu), *(("sigma_b2_grid", v) for v in self.sigma_b2_grid)):
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise TypeError(f"{name} must hold real numbers, got {value!r}")
        if not math.isfinite(self.mu):
            raise ValueError("mu must be finite")
        if not self.sigma_b2_grid:
            raise ValueError("sigma_b2_grid must not be empty")
        if not all(0 <= v < math.inf for v in self.sigma_b2_grid):
            raise ValueError("sigma_b2_grid values must be finite and nonnegative")
        if len(set(self.sigma_b2_grid)) < len(self.sigma_b2_grid):
            raise ValueError("sigma_b2_grid values must not repeat")
        if not self.methods:
            raise ValueError("at least one method is required")
        for method in self.methods:
            if method not in METHODS:
                raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
        if len(set(self.methods)) < len(self.methods):
            raise ValueError("methods must not repeat")
        if _set_integer(self, "n_perm") < 1 and "PERM" in self.methods:
            raise ValueError("n_perm must be at least 1")


@dataclass(frozen=True, slots=True)
class RejectionCell:
    """One rejection rate: a (scenario, design cell, grid value, method)."""

    scenario: str
    k: int
    design: str
    sigma_b2: float
    method: str
    rate: float
    se: float
    replicates: int


_CSV_COLUMNS = tuple(f.name for f in fields(RejectionCell))
_CSV_TYPES = tuple(get_type_hints(RejectionCell)[name] for name in _CSV_COLUMNS)


@dataclass(frozen=True, slots=True)
class RejectionTable:
    """Rejection rates of a study, with CSV and Markdown serialization.

    ``degenerate`` counts replicates whose test was undefined (all groups
    internally constant); those count as non-rejections.  It is a
    diagnostic and is not serialized or compared.
    """

    cells: tuple[RejectionCell, ...]
    degenerate: Mapping[tuple[str, int, str, float, str], int] = field(
        default_factory=dict, compare=False, repr=False
    )

    def to_csv(self, buf) -> None:
        """Write the table; ``buf`` is a text file object."""
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        writer.writerows([getattr(c, name) for name in _CSV_COLUMNS] for c in self.cells)

    def to_csv_string(self) -> str:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()

    @classmethod
    def from_csv(cls, buf) -> "RejectionTable":
        """Read a table previously written by :meth:`to_csv`."""
        reader = csv.reader(buf)
        header = next(reader, None)
        if header != list(_CSV_COLUMNS):
            raise ValueError(f"unexpected header {header!r}")
        cells = []
        for row in reader:
            if len(row) != len(_CSV_COLUMNS):
                raise ValueError(f"malformed row {row!r}")
            cells.append(RejectionCell(*(kind(v) for kind, v in zip(_CSV_TYPES, row))))
        return cls(cells=tuple(cells))

    def to_markdown(self) -> str:
        """Render rates (in percent) with grid values as rows and
        (k, design, method) combinations as columns."""
        grid = list(dict.fromkeys(c.sigma_b2 for c in self.cells))
        columns = list(dict.fromkeys((c.k, c.design, c.method) for c in self.cells))
        by_key = {(c.sigma_b2, c.k, c.design, c.method): c for c in self.cells}
        single_design = len({c.design for c in self.cells}) == 1
        heads = ["sigma_b2"]
        for k, design, method in columns:
            head = f"k={k} {method}" if single_design else f"k={k} {design} {method}"
            heads.append(head)
        lines = [
            "| " + " | ".join(heads) + " |",
            "|" + "|".join(" --- " for _ in heads) + "|",
        ]
        for v in grid:
            row = [f"{v:g}"]
            for k, design, method in columns:
                cell = by_key.get((v, k, design, method))
                row.append("" if cell is None else f"{100.0 * cell.rate:.1f}")
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines) + "\n"


def mc_se(rate: float, n: int) -> float:
    """Monte Carlo standard error of a proportion: sqrt(rate(1-rate)/n).
    ``n`` must be an integer (TypeError otherwise) of at least 1."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must be in [0, 1]")
    if _integer(n, "n") < 1:
        raise ValueError("n must be at least 1")
    return math.sqrt(rate * (1.0 - rate) / n)


def _iter_assignments(n: int, sizes: Sequence[int]) -> Iterable[tuple[int, ...]]:
    """All ordered splits of positions 0..n-1 into groups of the given sizes,
    yielded as index tuples in group order, each group's positions
    increasing.  Group i picks its positions by rank among the ``left[i]``
    positions that the groups before it left free; its j-th rank r pops
    entry r - j of the free list, past the j positions it popped before."""
    left = itertools.accumulate(sizes[:-1], operator.sub, initial=n)
    for ranks in itertools.product(*map(itertools.combinations, map(range, left), sizes)):
        free = list(range(n))
        yield tuple(free.pop(r - j) for combo in ranks for j, r in enumerate(combo))


def _threshold(j_obs: float) -> float:
    """The smallest permuted J that ties or exceeds ``j_obs``, to a relative 1e-9."""
    return j_obs - 1e-9 * max(1.0, abs(j_obs))


def _kernel_count(x: np.ndarray, sizes: np.ndarray, t: float) -> int:
    """Number of rows of the (rows, n) value stack ``x``, whose group sizes
    are the (1, k) array ``sizes``, with a kernel statistic of at least
    ``t``: one kernel call.  A degenerate row never counts."""
    st = _statistics(x.ravel(), sizes)
    return int(np.count_nonzero(~st.degenerate & (st.j >= t)))


def _stack_counter(sizes: np.ndarray, y: np.ndarray, j_obs: float):
    """The function that counts, in a (rows, n) stack of permutations of the
    values ``y`` with group sizes the (1, k) array ``sizes``, the rows whose
    statistic ties or exceeds ``j_obs``: the count ``_kernel_count`` gives
    at t = ``_threshold(j_obs)``, a tie being a statistic within a relative
    1e-9 of ``j_obs``.  The set-up below runs once; most rows are then
    decided from their group sums alone, without the kernel.

    A row reaches t iff g = n SSB - sum_i a_i ss_i >= 0, with ss_i group
    i's sum of squares about its mean and
    a_i = ((n - n_i) + 2 t sqrt(M_n) n_i / n) / (n_i - 1): g is
    2 sqrt(M_n) W_n (J - t).  A permutation keeps the mean and the total
    sum of squares SST.  On a balanced design (m values per group) g grows
    with SSB = q / m alone, q = sum_i (S_i - m mean(y))**2 over the group
    sums S_i, so a row counts iff q >= q*.  On an unbalanced one each row
    is centred, c = y - mean(y), and g = sum_i (n + a_i) S_i**2 / n_i -
    sum_i a_i Q_i, with S_i and Q_i the sums of c and of c**2 over group
    i: the S_i come from one ``reduceat`` pass and the second sum from one
    product of c**2 with each value's a_i.  The within sum of squares is
    SST - sum_i S_i**2 / n_i.

    A row with q more than ``band`` from q*, or g more than ``band`` from
    0, is decided by the screen.  ``band`` bounds the rounding errors of the
    kernel's J and of the screen, from n max|y|**2 and SST.  The rows
    inside it, and those whose within sum of squares is too small to rule
    out the kernel's degeneracy flag, go to ``_kernel_count``, so every row
    counts exactly as the kernel counts it.  Stacks of values the kernel
    scales (max|y| outside [2**-256, 2**256]) go to it whole."""
    k, peak, t = sizes.shape[-1], float(np.maximum.reduce(np.abs(y))), _threshold(j_obs)
    if not 1.0 / _SAFE_PEAK <= peak <= _SAFE_PEAK:
        return lambda x: _kernel_count(x, sizes, t)
    lay, mean = _design_layout(tuple(sizes[0].tolist())), np.add.reduce(y) / y.size
    sst = float(np.add.reduce((y - mean) ** 2))
    # The rounding error of a sum of squares that the kernel or the screen
    # forms: each sum adds at most n + k terms of at most max|y|, so by
    # Cauchy-Schwarz it is at most gamma / 4 (sqrt(P SST) + SST),
    # P = n max|y|**2, to first order; gamma**2 P covers the second order.
    gamma, p = 8.0 * (lay.n + k + 2) * _EPS, lay.n * peak * peak
    err = gamma * (math.sqrt(p * sst) + sst + gamma * p)
    if ((m := int(sizes[0, 0])) == sizes).all():
        # t as a ratio SSB / SSW = rho, then as q; rho < 0 (t below the
        # least J) counts every row, as q* = 0 does with the band round it
        rho = max(0.0, (2.0 * lay.root_m * t / k + lay.n - m) / (lay.n * (m - 1)))
        q_star, band, center = m * sst * rho / (1.0 + rho), m * err, m * mean
        ones_m, ones_k = np.ones(m), np.ones(k)

        def decide(x):
            # Matrix-vector products sum fastest, in whatever order they
            # take: the bound holds for any order, and only the rows that
            # reach the kernel depend on these bits, never a count.
            q = ((x.reshape(-1, m) @ ones_m).reshape(-1, k) - center) ** 2 @ ones_k
            return (q > q_star + band) & (q <= m * sst - 2.0 * band), q >= q_star - band
    else:
        base, slope = lay.others / lay.size1, 2.0 * lay.root_m / lay.n * lay.size / lay.size1
        a = (base + t * slope)[0]
        # each error enters g with a weight of at most n + max_i |a_i|; band
        # leaves a factor 2 over the bound
        band = 2.0 * (lay.n + float(np.max(base + abs(t) * slope))) * err
        a_values = np.repeat(a, lay.counts)
        weights = np.stack([lay.n + a, np.ones(k)], axis=1) / lay.size.T  # of S_i**2 in g and in SSB

        def decide(x):
            c = x - mean
            parts = (np.add.reduceat(c, lay.starts, axis=-1) ** 2) @ weights
            g = parts[:, 0] - np.multiply(c, c, out=c) @ a_values
            return (g > band) & (sst - parts[:, 1] > 4.0 * err), g >= -band

    def count(x):
        counted, reach = decide(x)
        near = reach & ~counted
        return int(np.count_nonzero(counted)) + (_kernel_count(x[near], sizes, t) if near.any() else 0)
    return count


def _permuted_stacks(rng: np.random.Generator, y: np.ndarray, count: int) -> Iterable[np.ndarray]:
    """``count`` permutations of the values ``y`` as (rows, n) stacks of at
    most ``_CHUNK_VALUES`` values, one ``rng.permuted`` call each.  The
    shuffle never reads the values, so row i is ``y[p]`` for the i-th of
    ``count`` calls ``p = rng.permutation(n)``, and the generator ends in
    the same state as after them.  Each stack is a fresh array, shuffled in
    place."""
    rows = max(1, _CHUNK_VALUES // y.size)
    for drawn in range(0, count, rows):
        stack = y[None].repeat(min(rows, count - drawn), axis=0)
        yield rng.permuted(stack, axis=1, out=stack)


def _perm_exceedances(rng, y: np.ndarray, sizes, j_obs: float, n_perm: int, stop=None) -> int:
    """Exceedances of ``j_obs`` among ``n_perm`` random permutations of the
    values ``y``, with group sizes the (1, k) array ``sizes``, drawn from
    ``rng`` by ``_permuted_stacks``: the sum of ``_stack_counter``'s counts
    of the stacks.  With ``stop``, drawing ends once the sum passes it, and
    the first stack holds at most 3 (stop + 1) rows: most rows whose
    p-value is above about a third pass ``stop`` by then.  The rest go on
    in full stacks, since every further check costs a generator call and a
    count, and makes a row's time depend on more of its data."""
    rows, count = max(1, _CHUNK_VALUES // y.size), _stack_counter(sizes, y, j_obs)
    first = min(n_perm, rows) if stop is None else min(3 * (stop + 1), n_perm, rows)
    exceed = 0
    for stack in itertools.chain(_permuted_stacks(rng, y, first), _permuted_stacks(rng, y, n_perm - first)):
        exceed += count(stack)
        if stop is not None and exceed > stop:
            break
    return exceed


def permutation_pvalue(
    dataset: Dataset,
    n_perm: int | None = None,
    seed: "SeedSpec | np.random.Generator | None" = None,
    *,
    alpha: float = 0.05,
    exhaustive: bool = False,
) -> TestResult:
    """Permutation-calibrated p-value for the standardized between statistic.

    Observations are reassigned to groups at random, preserving the group
    sizes; the p-value is (1 + #{permuted statistic >= observed}) divided
    by (number of permutations + 1).  With ``exhaustive=True`` every
    distinct assignment is enumerated instead (the observed one included)
    and ``n_perm``/``seed`` are ignored; otherwise ``n_perm`` must be an
    integer of at least 1 (TypeError for a bool or a float).  A permuted
    statistic within a relative 1e-9 of the observed one counts as a tie,
    and so as an exceedance: equivalent assignments (within-group
    reorders, relabelled equal-size groups) give the same statistic in
    exact arithmetic but not always in floating point.  Permutations with
    degenerate within-group variance never count as exceedances.  Random
    permutations are drawn and counted by ``_perm_exceedances``, the helper
    the simulation engine's PERM uses: stacks of permuted values, one
    generator call per stack of at most 2**16 values, with the rows and the
    final generator state of one ``rng.permutation`` call per permutation.
    Exhaustive assignments are stacked here.  Either way the count is the
    sum of one counter's counts per stack (``_stack_counter``: on a
    balanced design the spread of the k group sums decides a row, on an
    unbalanced one the group sums of the centred values and one weighted
    sum of their squares); only rows within a rounding-error bound of the
    threshold, or near degeneracy, are evaluated by the kernel, and every
    count is the kernel's.
    """
    j_obs = u_test(dataset, alpha).statistic  # raises DegenerateWithinVariance if undefined
    design, n, values = dataset.design, dataset.design.n, dataset.values
    sizes = np.array([design.group_sizes])

    if exhaustive:
        total = math.factorial(n) // math.prod(map(math.factorial, design.group_sizes))
        if total > _EXHAUSTIVE_LIMIT:
            raise ValueError(
                f"{total} distinct assignments exceed the exhaustive limit "
                f"({_EXHAUSTIVE_LIMIT}); use random permutations instead"
            )
        assignments = _iter_assignments(n, design.group_sizes)
        rows = max(1, _CHUNK_VALUES // n)
        chunks = iter(lambda: list(itertools.islice(assignments, rows)), [])
        stacks = (values[np.array(chunk)] for chunk in chunks)
        n_perm = total
        exceed = sum(map(_stack_counter(sizes, values, j_obs), stacks))
    else:
        if n_perm is None or (n_perm := _integer(n_perm, "n_perm")) < 1:
            raise ValueError("n_perm must be at least 1")
        if seed is None:
            raise ValueError("a seed is required for random permutations")
        exceed = _perm_exceedances(_resolve_rng(seed), values, sizes, j_obs, n_perm)

    p = (1.0 + exceed) / (n_perm + 1.0)
    return TestResult(
        method="PERM",
        statistic=j_obs,
        p_value=p,
        reject=p <= alpha,
        alpha=alpha,
        extras={"n_perm": n_perm, "exceedances": exceed},
    )


def _cuts(streams, gen: DesignGen, fixed_sizes):
    """The replicates (sizes, n, stream) of ``streams`` in blocks of at most
    ``_CHUNK_VALUES`` values, or of one replicate, for ``_run_unit`` to
    evaluate a block at a time.  Redrawn sizes are drawn first on each
    stream."""
    fixed_n = None if fixed_sizes is None else sum(fixed_sizes.tolist())
    block, used = [], 0
    for rng in streams:
        sizes = fixed_sizes if fixed_n else gen.sizes(rng)
        n = fixed_n or sum(sizes.tolist())
        if block and used + n > _CHUNK_VALUES:
            yield block
            block, used = [], 0
        block.append((sizes, n, rng))
        used += n
    yield block


def _perm_stop(alpha: float, n_perm: int) -> int:
    """PERM's threshold: the largest exceedance count e that rejects,
    (1 + e) / (n_perm + 1) <= alpha, or -1 when none does.  The closed form
    is off by at most one where rounding puts alpha (n_perm + 1) next to an
    integer, so the rule itself corrects it."""
    stop = math.floor(alpha * (n_perm + 1)) - 1
    return next(e for e in (stop + 1, stop, stop - 1) if e < 0 or (1.0 + e) / (n_perm + 1.0) <= alpha)


def _run_unit(spec: ScenarioSpec, cell_index: int, grid_index: int, fixed_sizes) -> tuple[dict, int]:
    """Rejections per method and the number of degenerate replicates of one
    (design cell, grid value) unit of ``spec``.  ``fixed_sizes`` is the
    cell's design, or None when it is redrawn per replicate.  A unit reads
    nothing but its arguments and its own streams, so units may run in any
    order, or apart.

    The streams (cell_index, grid_index, r) of all replicates r are seeded
    in one batch by ``SeedSpec.generators``, with the values of seeding each
    on its own, and built as the blocks of ``_cuts`` reach them.  Stream r
    draws sizes (unless fixed), then the raw variates of b and of e
    (``_draw_noise``), in one call when one sampler draws both
    (``_one_call``); only these generator calls run per replicate.  Scaling
    the variates, adding mu and the repeated b, and one statistic-kernel
    call run once per block: on a (B, n) array for a fixed design, on the
    rows back to back for redrawn ones, through the same operations on every
    value as one replicate at a time.  U, F and the degenerate count read
    the kernel's output.  Each replicate that is not degenerate then draws
    its PERM permutations of its row from its stream, by
    ``_perm_exceedances``, only until the count passes ``stop``: the count
    only grows, so the decision is that of all ``n_perm`` permutations."""
    gen, b_spec = spec.design_gens[cell_index], spec.b_spec.with_variance(spec.sigma_b2_grid[grid_index])
    e_spec, k, merged = spec.e_spec, gen.k, _one_call(b_spec, spec.e_spec)
    # with stop < 0 (or no PERM) no count rejects, and nothing is drawn
    stop = _perm_stop(spec.alpha, spec.n_perm) if "PERM" in spec.methods else -1
    rejections, degenerate = dict.fromkeys(spec.methods, 0), 0
    for block in _cuts(spec.seed.generators(cell_index, grid_index, count=spec.replicates), gen, fixed_sizes):
        if merged and fixed_sizes is not None:  # one (B, k + n) array: each row's b, then its e
            x = np.concatenate([_draw_noise(b_spec, k + n, rng)[0] for _, n, rng in block])
            x = x.reshape(len(block), -1)
            b_draws, e_draws = [x[:, :k]], [x[:, k:]]
        elif merged:  # a replicate's one array holds its b, then its e
            xs = [_draw_noise(b_spec, k + n, rng)[0] for _, n, rng in block]
            b_draws, e_draws = [np.concatenate([x[:k] for x in xs])], [np.concatenate([x[k:] for x in xs])]
        else:  # a replicate's arrays of b, then its arrays of e
            draws = [(_draw_noise(b_spec, k, rng), _draw_noise(e_spec, n, rng)) for _, n, rng in block]
            b_draws, e_draws = ([np.concatenate(a) for a in zip(*parts)] for parts in zip(*draws))
        b = _scale_noise(b_spec, b_draws, len(block) * k)
        if fixed_sizes is None:
            sizes = np.array([s for s, *_ in block])
            y = spec.mu + np.repeat(b, sizes.ravel())
        else:  # one row of sizes serves every row of a fixed design
            sizes = fixed_sizes[None]
            y = spec.mu + np.repeat(b.reshape(-1, k), fixed_sizes, axis=1).ravel()
        y += _scale_noise(e_spec, e_draws, y.size).ravel()
        st = _statistics(y, sizes)
        degenerate += int(np.count_nonzero(st.degenerate))
        for method in (m for m in spec.methods if m != "PERM"):
            rejections[method] += _rejections(method, st, sizes, spec.alpha)
        if stop >= 0:
            ends = itertools.accumulate(n for _, n, _ in block)
            for (s, n, rng), end, j_obs, skip in zip(block, ends, st.j.tolist(), st.degenerate.tolist()):
                if not skip:
                    count = _perm_exceedances(rng, y[end - n:end], s[None], j_obs, spec.n_perm, stop)
                    rejections["PERM"] += count <= stop
    return rejections, degenerate


def run_scenario(spec: ScenarioSpec, workers: int = 1) -> RejectionTable:
    """Run every (design cell, grid value) of the scenario.

    Each cell's fixed design, when it has one, is drawn from the cell's own
    stream (seed, cell index); then each (cell, grid value) unit runs by
    one ``_run_unit`` call, in order, and its counts become the table's
    rows.  Within a unit, replicates are drawn one by one, each from its own
    derived stream, and evaluated in blocks of at most 2**16 values, whether
    the design is fixed or redrawn per replicate.  U and F compare each
    row's statistic with a cached critical value, the smallest double whose
    tail is at most alpha (``core._critical``: the normal tail for U, the F
    tail of the row's degrees of freedom for F), so they reject exactly
    where ``u_test`` and ``f_test`` would.  PERM's threshold is ``stop``,
    the largest count that rejects; each replicate draws and counts its
    ``n_perm`` permutations as ``permutation_pvalue`` does (from group
    sums), only while the count is at most ``stop``.  A
    degenerate replicate draws none; it is counted once and reported under
    every method.

    ``workers`` must be an integer of at least 1.  It changes neither the
    result nor how the run executes: everything runs in this process.
    """
    if _integer(workers, "workers") < 1:
        raise ValueError("workers must be at least 1")
    cells: list[RejectionCell] = []
    diagnostics: dict[tuple[str, int, str, float, str], int] = {}
    for cell_index, gen in enumerate(spec.design_gens):
        redraw = spec.redraw_design_per_replicate
        # the cell's own stream, built only for sizes that draw from it
        cell_rng = spec.seed.generator(cell_index) if gen.draws and not redraw else None
        fixed_sizes = None if redraw else gen.sizes(cell_rng)
        for grid_index, sigma_b2 in enumerate(spec.sigma_b2_grid):
            rejections, degenerate = _run_unit(spec, cell_index, grid_index, fixed_sizes)
            for method in spec.methods:
                rate = rejections[method] / spec.replicates
                cells.append(
                    RejectionCell(
                        scenario=spec.name,
                        k=gen.k,
                        design=gen.label,
                        sigma_b2=sigma_b2,
                        method=method,
                        rate=rate,
                        se=mc_se(rate, spec.replicates),
                        replicates=spec.replicates,
                    )
                )
                if degenerate:
                    diagnostics[(spec.name, gen.k, gen.label, sigma_b2, method)] = degenerate
    return RejectionTable(cells=tuple(cells), degenerate=diagnostics or _NO_DEGENERATE)


# --------------------------------------------------------------------------
# Canned study configurations
# --------------------------------------------------------------------------

_GRID = (0.0, 0.2, 0.5, 1.0)
_T1_K = (10, 30, 100)
_T1_M = (2, 4, 5, 10)
_T2_K = (10, 20, 30, 50, 100)


def _table2(
    name: str, gens, redraw: bool, b_spec: NoiseSpec, e_spec: NoiseSpec, methods=("F", "U")
) -> ScenarioSpec:
    return ScenarioSpec(
        name=name,
        design_gens=tuple(gens),
        redraw_design_per_replicate=redraw,
        b_spec=b_spec,
        e_spec=e_spec,
        mu=2.0,
        sigma_b2_grid=_GRID,
        alpha=0.05,
        replicates=10_000,
        seed=SeedSpec(0),
        methods=methods,
    )


def _table1(name: str, e_spec: NoiseSpec) -> ScenarioSpec:
    gens = (Balanced(k, m) for k in _T1_K for m in _T1_M)
    b_spec = NoiseSpec(NoiseFamily.SCALED_T, target_variance=1.0, df=3.0)
    return _table2(name, gens, False, b_spec, e_spec, methods=("U",))


_NORMAL_UNIT = NoiseSpec(NoiseFamily.NORMAL, target_variance=1.0)
_SKEW_T_UNIT = NoiseSpec(NoiseFamily.SKEW_T_STD, target_variance=1.0, df=4.1, skew=1.0)
_T41_UNIT = NoiseSpec(NoiseFamily.SCALED_T, target_variance=1.0, df=4.1)

# Preset builders by name, in the order PRESET_NAMES lists them.
_PRESETS = {
    "table1-normal": lambda name: _table1(name, _NORMAL_UNIT),
    "table1-t5": lambda name: _table1(
        name, NoiseSpec(NoiseFamily.SCALED_T, target_variance=1.0, df=5.0)
    ),
    "table2-balanced-normal": lambda name: _table2(
        name, (Balanced(k, 5) for k in _T2_K), False, _NORMAL_UNIT, _NORMAL_UNIT
    ),
    "table2-geometric": lambda name: _table2(
        name, (ShiftedGeometric(k, 0.15, 2) for k in _T2_K), True, _NORMAL_UNIT, _NORMAL_UNIT
    ),
    "table2-uniform-t": lambda name: _table2(
        name, (UniformSizes(k, 5, 10) for k in _T2_K), True, _T41_UNIT, _T41_UNIT
    ),
    "table2-skew": lambda name: _table2(
        name, (Balanced(k, 5) for k in _T2_K), False, _SKEW_T_UNIT, _SKEW_T_UNIT
    ),
}
PRESET_NAMES = tuple(_PRESETS)


def preset(name: str) -> ScenarioSpec:
    """One of the canned study configurations, by name.

    Table-1 presets cross k in {10, 30, 100} with balanced group sizes in
    {2, 4, 5, 10} and run the U-test only; table-2 presets cross
    k in {10, 20, 30, 50, 100} with one design family and run both the
    F- and U-tests.  All use mean 2, unit error variance, a between-group
    variance grid of {0, 0.2, 0.5, 1}, level 0.05 and 10,000 replicates.
    """
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    return _PRESETS[name](name)


# --------------------------------------------------------------------------
# Configuration (de)serialization, used by the command-line front end
# --------------------------------------------------------------------------

_JSON_TYPES = {bool: "a boolean", int: "an integer", float: "a number",
               str: "a string", list: "an array", Mapping: "an object"}
# The keys of each config entry; a design's are "kind" and its class's fields.
_SCENARIO_KEYS = ("name", "designs", "redraw_design_per_replicate", "b", "e", "mu", "sigma_b2_grid",
                  "alpha", "replicates", "seed", "methods", "n_perm")
_NOISE_KEYS = ("family", "variance", "df", "skew")
_SEED_KEYS = ("master_seed", "stream_id")


def _typed(value, kind: type, name: str, key: str | None = None):
    """``value`` (field ``key`` of the config entry ``name``, or the entry
    itself) as the JSON type ``kind``, or a ValueError naming both.  An
    integer is a number, and an integral number such as 3.0 is an integer;
    a boolean is neither."""
    if isinstance(value, bool) == (kind is bool):
        if kind is float and isinstance(value, int):
            return float(value)
        if kind is int and isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, kind):
            return value
    what = "" if key is None else f" {key!r}"
    raise ValueError(f"{name}:{what} must be {_JSON_TYPES[kind]}, got {json.dumps(value)}")


def _read(entry: Mapping, key: str, kind: type, name: str, default=MISSING):
    """Field ``key`` of the config entry ``name`` as the JSON type ``kind``.
    A missing key takes ``default`` and is an error without one; a key whose
    default is null may be null."""
    if key not in entry or (entry[key] is None and default is None):
        if default is MISSING:
            raise ValueError(f"{name}: missing key {key!r}")
        return default
    return _typed(entry[key], kind, name, key)


def _known(entry: Mapping, keys: Sequence[str], name: str) -> Mapping:
    """The config entry ``name``, or a ValueError naming the first of its
    keys outside ``keys``: a misspelled key would otherwise run a study
    with its default."""
    for key in entry:
        if key not in keys:
            raise ValueError(f"{name}: unknown key {key!r}; expected one of {sorted(keys)}")
    return entry


def _build(entry: str, make, /, *args, **kwargs):
    """``make(*args, **kwargs)``, with a ValueError it raises prefixed by the
    name of the config entry, as the readers above prefix theirs."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{entry}: {exc}") from None


def _design_gen_from_dict(entry, name: str) -> DesignGen:
    """A design generator from the fields of the class its ``kind`` names."""
    kind = _read(_typed(entry, Mapping, name), "kind", str, name)
    if kind not in _DESIGN_KINDS:
        raise ValueError(
            f"{name}: unknown design kind {kind!r}; expected one of {sorted(_DESIGN_KINDS)}"
        )
    cls = _DESIGN_KINDS[kind]
    hints = get_type_hints(cls)
    _known(entry, ("kind", *(f.name for f in fields(cls))), name)
    args = [_read(entry, f.name, hints[f.name], name, f.default) for f in fields(cls)]
    return _build(name, cls, *args)


def _noise_spec_from_dict(entry: Mapping, name: str) -> NoiseSpec:
    _known(entry, _NOISE_KEYS, name)
    return _build(
        name,
        NoiseSpec,
        family=_build(name, NoiseFamily, _read(entry, "family", str, name)),
        target_variance=_read(entry, "variance", float, name, 1.0),
        df=_read(entry, "df", float, name, None),
        skew=_read(entry, "skew", float, name, None),
    )


def scenario_from_dict(d: Mapping) -> ScenarioSpec:
    """Build a scenario from a parsed JSON configuration.

    Every field is checked against its JSON type; an unknown key, a missing
    required key, a value of the wrong type or one its class refuses raises
    ValueError naming the entry."""
    designs = _read(_known(_typed(d, Mapping, "scenario"), _SCENARIO_KEYS, "scenario"), "designs", list,
                    "scenario")
    design_gens = tuple(_design_gen_from_dict(g, f"designs[{i}]") for i, g in enumerate(designs))
    seed = d.get("seed", 0)
    if not isinstance(seed, Mapping):  # a bare integer is the master seed
        seed = {"master_seed": _read(d, "seed", int, "scenario", 0)}
    _known(seed, _SEED_KEYS, "seed")
    grid = _read(d, "sigma_b2_grid", list, "scenario")
    return _build(
        "scenario",
        ScenarioSpec,
        name=_read(d, "name", str, "scenario", "custom"),
        design_gens=design_gens,
        redraw_design_per_replicate=_read(d, "redraw_design_per_replicate", bool, "scenario", False),
        b_spec=_noise_spec_from_dict(_read(d, "b", Mapping, "scenario"), "b"),
        e_spec=_noise_spec_from_dict(_read(d, "e", Mapping, "scenario"), "e"),
        mu=_read(d, "mu", float, "scenario", 0.0),
        sigma_b2_grid=tuple(_typed(v, float, f"sigma_b2_grid[{i}]") for i, v in enumerate(grid)),
        alpha=_read(d, "alpha", float, "scenario", 0.05),
        replicates=_read(d, "replicates", int, "scenario", 10_000),
        seed=_build(
            "seed",
            SeedSpec,
            _read(seed, "master_seed", int, "seed", 0),
            _read(seed, "stream_id", int, "seed", 0),
        ),
        methods=tuple(_read(d, "methods", list, "scenario", ["U"])),
        n_perm=_read(d, "n_perm", int, "scenario", 199),
    )
