"""Monte Carlo engine for size and power studies of the variance-component
tests, plus permutation calibration of the normal-calibrated statistic.

A scenario bundles design generators, noise specifications, a grid of
between-group variances and a seed.  Running it produces a rejection table:
one row per (design cell, grid value, method) with the empirical rejection
rate and its Monte Carlo standard error.  Replicates are drawn one by one,
each from its own stream seeded by (seed, cell index, grid index, replicate
index), and evaluated in blocks of at most 2**16 values: one
statistic-kernel call per block, for fixed and redrawn designs alike.
PERM reads each replicate's statistic from that call and draws the
replicate's permutations from its stream.  Every run of a scenario gives
bit-identical results.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import Dataset, TestResult, _p_values, _statistics, u_test
from .randgen import (
    Balanced,
    DesignGen,
    NoiseFamily,
    NoiseSpec,
    SeedSpec,
    ShiftedGeometric,
    UniformSizes,
    _group_sizes,
    _resolve_rng,
    sample_noise,
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
        if not self.design_gens:
            raise ValueError("at least one design generator is required")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")
        if not self.sigma_b2_grid:
            raise ValueError("sigma_b2_grid must not be empty")
        if any(v < 0 for v in self.sigma_b2_grid):
            raise ValueError("sigma_b2_grid values must be nonnegative")
        if not self.methods:
            raise ValueError("at least one method is required")
        for method in self.methods:
            if method not in METHODS:
                raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
        if "PERM" in self.methods and self.n_perm < 1:
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


_CSV_COLUMNS = ("scenario", "k", "design", "sigma_b2", "method", "rate", "se", "replicates")


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
        for c in self.cells:
            writer.writerow(
                [
                    c.scenario,
                    c.k,
                    c.design,
                    repr(c.sigma_b2),
                    c.method,
                    repr(c.rate),
                    repr(c.se),
                    c.replicates,
                ]
            )

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
            cells.append(
                RejectionCell(
                    scenario=row[0],
                    k=int(row[1]),
                    design=row[2],
                    sigma_b2=float(row[3]),
                    method=row[4],
                    rate=float(row[5]),
                    se=float(row[6]),
                    replicates=int(row[7]),
                )
            )
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
    """Monte Carlo standard error of a proportion: sqrt(rate(1-rate)/n)."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must be in [0, 1]")
    if n < 1:
        raise ValueError("n must be at least 1")
    return math.sqrt(rate * (1.0 - rate) / n)


def _iter_assignments(n: int, sizes: Sequence[int]) -> Iterable[tuple[int, ...]]:
    """All ordered splits of positions 0..n-1 into groups of the given sizes,
    yielded as index tuples in group order."""

    def rec(remaining: tuple[int, ...], sizes: tuple[int, ...]):
        if not sizes:
            yield ()
            return
        head, *tail = sizes
        for combo in itertools.combinations(remaining, head):
            chosen = set(combo)
            rest = tuple(i for i in remaining if i not in chosen)
            for suffix in rec(rest, tuple(tail)):
                yield combo + suffix

    yield from rec(tuple(range(n)), tuple(sizes))


def _exceedances(pooled: np.ndarray, sizes: np.ndarray, j_obs: float, assignments) -> int:
    """Number of ``assignments`` (index vectors into the pooled row
    ``pooled``, whose group sizes are the (1, k) array ``sizes``) whose
    statistic ties or exceeds ``j_obs``.  A tie is a statistic within a
    relative 1e-9 of ``j_obs``; a degenerate permuted row never counts.
    Assignments go to the kernel in stacks of at most ``_CHUNK_VALUES``
    values."""
    threshold = j_obs - 1e-9 * max(1.0, abs(j_obs))
    rows = max(1, _CHUNK_VALUES // pooled.size)
    exceed = 0
    while chunk := list(itertools.islice(assignments, rows)):
        st = _statistics(pooled[np.concatenate(chunk)], sizes.repeat(len(chunk), axis=0))
        exceed += int(np.count_nonzero(~st.degenerate & (st.j >= threshold)))
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
    and ``n_perm``/``seed`` are ignored.  A permuted statistic within a
    relative 1e-9 of the observed one counts as a tie, and so as an
    exceedance: equivalent assignments (within-group reorders, relabelled
    equal-size groups) give the same statistic in exact arithmetic but not
    always in floating point.  Permutations with degenerate within-group
    variance never count as exceedances.
    """
    j_obs = u_test(dataset, alpha).statistic  # raises DegenerateWithinVariance if undefined
    design, n = dataset.design, dataset.design.n

    if exhaustive:
        total = math.factorial(n)
        for size in design.group_sizes:
            total //= math.factorial(size)
        if total > _EXHAUSTIVE_LIMIT:
            raise ValueError(
                f"{total} distinct assignments exceed the exhaustive limit "
                f"({_EXHAUSTIVE_LIMIT}); use random permutations instead"
            )
        assignments = _iter_assignments(n, design.group_sizes)
        used = total
    else:
        if n_perm is None or n_perm < 1:
            raise ValueError("n_perm must be at least 1")
        if seed is None:
            raise ValueError("a seed is required for random permutations")
        rng = _resolve_rng(seed)
        assignments = (rng.permutation(n) for _ in range(n_perm))
        used = n_perm

    exceed = _exceedances(dataset.values, np.array([design.group_sizes]), j_obs, assignments)
    p = (1.0 + exceed) / (used + 1.0)
    return TestResult(
        method="PERM",
        statistic=j_obs,
        p_value=p,
        reject=p <= alpha,
        alpha=alpha,
        extras={"n_perm": used, "exceedances": exceed},
    )


def _blocks(spec: ScenarioSpec, gen: DesignGen, b_spec: NoiseSpec, fixed_sizes, *path: int):
    """Replicates (group sizes, pooled vector, stream) of one (cell, grid
    value) in blocks of at most ``_CHUNK_VALUES`` values or one replicate.
    Stream (*path, r) draws sizes (unless fixed), b, then e; PERM draws on."""
    block, used = [], 0
    for r in range(spec.replicates):
        rng = spec.seed.generator(*path, r)
        sizes = _group_sizes(gen, rng) if fixed_sizes is None else fixed_sizes
        b = sample_noise(b_spec, gen.k, rng)
        y = spec.mu + np.repeat(b, sizes)
        y += sample_noise(spec.e_spec, y.size, rng)
        if block and used + y.size > _CHUNK_VALUES:
            yield block
            block, used = [], 0
        block.append((sizes, y, rng))
        used += y.size
    yield block


def run_scenario(spec: ScenarioSpec, workers: int = 1) -> RejectionTable:
    """Run every (design cell, grid value) of the scenario.

    Replicates are drawn one by one, each from its own derived stream, and
    stacked into blocks of at most 2**16 values, whether the design is
    fixed or redrawn per replicate.  Each block takes one statistic-kernel
    call, and the U and F decisions come from the helper that ``u_test``
    and ``f_test`` use.  PERM takes each row's statistic and degeneracy
    flag from the same call, then draws that row's permutations from its
    stream and counts exceedances as ``permutation_pvalue`` does.  A
    degenerate row is counted once and reported under every method.

    ``workers`` must be at least 1.  It changes neither the result nor how
    the run executes: everything runs in this process.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    cells: list[RejectionCell] = []
    diagnostics: dict[tuple[str, int, str, float, str], int] = {}
    for cell_index, gen in enumerate(spec.design_gens):
        redraw = spec.redraw_design_per_replicate
        fixed_sizes = None if redraw else _group_sizes(gen, spec.seed.generator(cell_index))
        for grid_index, sigma_b2 in enumerate(spec.sigma_b2_grid):
            b_spec = spec.b_spec.with_variance(sigma_b2)
            rejections = dict.fromkeys(spec.methods, 0)
            degenerate = 0
            for block in _blocks(spec, gen, b_spec, fixed_sizes, cell_index, grid_index):
                sizes = np.array([s for s, _, _ in block])
                values = np.concatenate([y for _, y, _ in block])
                if not np.all(np.isfinite(values)):
                    raise ValueError("observations must be finite")
                st = _statistics(values, sizes)
                degenerate += int(np.count_nonzero(st.degenerate))
                for method in spec.methods:
                    if method != "PERM":
                        p = _p_values(method, st, sizes)
                        rejections[method] += int(np.count_nonzero(p <= spec.alpha))
                        continue
                    rows = zip(block, st.j.tolist(), st.degenerate.tolist())
                    for (s, y, rng), j_obs, undefined in rows:
                        if undefined:
                            continue
                        draws = (rng.permutation(y.size) for _ in range(spec.n_perm))
                        exceed = _exceedances(y, s[None], j_obs, draws)
                        rejections[method] += (1.0 + exceed) / (spec.n_perm + 1.0) <= spec.alpha
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

_DESIGN_KINDS = {"balanced", "geometric", "uniform"}


def _mapping(d, requirement: str) -> Mapping:
    if not isinstance(d, Mapping):
        raise TypeError(f"{requirement}, got {d!r}")
    return d


def _design_gen_from_dict(d: Mapping) -> DesignGen:
    kind = _mapping(d, "a design must be an object").get("kind")
    if kind == "balanced":
        return Balanced(k=int(d["k"]), m=int(d["m"]))
    if kind == "geometric":
        return ShiftedGeometric(k=int(d["k"]), p=float(d["p"]), shift=int(d.get("shift", 2)))
    if kind == "uniform":
        return UniformSizes(k=int(d["k"]), lo=int(d["lo"]), hi=int(d["hi"]))
    raise ValueError(f"unknown design kind {kind!r}; expected one of {sorted(_DESIGN_KINDS)}")


def _noise_spec_from_dict(d: Mapping, default_variance: float = 1.0) -> NoiseSpec:
    family = NoiseFamily(d["family"])
    return NoiseSpec(
        family=family,
        target_variance=float(d.get("variance", default_variance)),
        df=None if d.get("df") is None else float(d["df"]),
        skew=None if d.get("skew") is None else float(d["skew"]),
    )


def scenario_from_dict(d: Mapping) -> ScenarioSpec:
    """Build a scenario from a plain mapping (parsed JSON configuration)."""
    seed_cfg = _mapping(d, "a scenario config must be an object").get("seed", {})
    if isinstance(seed_cfg, int):
        seed = SeedSpec(seed_cfg)
    else:
        seed_cfg = _mapping(seed_cfg, "seed must be an integer or an object")
        seed = SeedSpec(
            master_seed=int(seed_cfg.get("master_seed", 0)),
            stream_id=int(seed_cfg.get("stream_id", 0)),
        )
    return ScenarioSpec(
        name=str(d.get("name", "custom")),
        design_gens=tuple(_design_gen_from_dict(g) for g in d["designs"]),
        redraw_design_per_replicate=bool(d.get("redraw_design_per_replicate", False)),
        b_spec=_noise_spec_from_dict(d["b"]),
        e_spec=_noise_spec_from_dict(d["e"]),
        mu=float(d.get("mu", 0.0)),
        sigma_b2_grid=tuple(float(v) for v in d["sigma_b2_grid"]),
        alpha=float(d.get("alpha", 0.05)),
        replicates=int(d.get("replicates", 10_000)),
        seed=seed,
        methods=tuple(d.get("methods", ("U",))),
        n_perm=int(d.get("n_perm", 199)),
    )


def scenario_with_overrides(
    spec: ScenarioSpec,
    replicates: int | None = None,
    master_seed: int | None = None,
) -> ScenarioSpec:
    """Copy of the scenario with optional replicate-count or seed overrides."""
    if replicates is not None:
        spec = replace(spec, replicates=replicates)
    if master_seed is not None:
        spec = replace(spec, seed=SeedSpec(master_seed, spec.seed.stream_id))
    return spec
