"""Independent brute-force oracles used across the test suite.

Everything here is computed straight from definitions (explicit pair
enumeration, O(n^2) or worse) with no reuse of the library's fast paths, so
agreement between the two is evidence, not tautology.  The one exception is
``reference_run_scenario``: the simulation engine as a plain loop over
replicates and the public tests, against which the batched engine is held.
``reference_read_grouped_csv`` is the CSV reader of ``uvartest test`` as a
``csv.reader`` loop, against which the block reader is held.
"""

from __future__ import annotations

import csv
import itertools
import math
from fractions import Fraction

import numpy as np

from uvartest.cli import InputError
from uvartest.core import Dataset, DegenerateWithinVariance, f_test, u_test
from uvartest.randgen import gen_design, sample_noise
from uvartest.simlab import RejectionCell, mc_se, permutation_pvalue


def pair_kernel_mean(x) -> float:
    """Mean of (a - b)^2 / 2 over all unordered pairs of one sample."""
    x = np.asarray(x, dtype=float)
    total = 0.0
    count = 0
    for a, b in itertools.combinations(x, 2):
        total += 0.5 * (a - b) ** 2
        count += 1
    return total / count


def cross_kernel_mean(x, y) -> float:
    """Mean of (a - b)^2 / 2 over all cross pairs of two samples."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    total = 0.0
    for a in x:
        for b in y:
            total += 0.5 * (a - b) ** 2
    return total / (x.size * y.size)


def pooled_pair_variance(values) -> float:
    """Mean of the pair kernel over every pair of the pooled sample."""
    return pair_kernel_mean(values)


def eta_matrix(sizes) -> np.ndarray:
    """Pair-weight matrix built directly from the definition."""
    sizes = list(sizes)
    n = sum(sizes)
    group_of = np.repeat(np.arange(len(sizes)), sizes)
    w = np.empty((n, n))
    for r in range(n):
        for s in range(n):
            if r == s:
                w[r, s] = 0.0
            elif group_of[r] == group_of[s]:
                ni = sizes[group_of[r]]
                w[r, s] = (n - ni) / (ni - 1)
            else:
                w[r, s] = -1.0
    return w


def eta_matrix_dense(sizes) -> np.ndarray:
    """Vectorized equivalent of eta_matrix, for bulk checks on larger designs."""
    sizes_arr = np.asarray(sizes)
    n = int(sizes_arr.sum())
    group_of = np.repeat(np.arange(len(sizes_arr)), sizes_arr)
    same = group_of[:, None] == group_of[None, :]
    ni = np.repeat(sizes_arr.astype(float), sizes_arr)
    w = np.where(same, (n - ni[None, :]) / (ni[None, :] - 1.0), -1.0)
    np.fill_diagonal(w, 0.0)
    return w


def quadform_between(values, sizes, center: float) -> float:
    """Between component as the explicit pair sum of eta * (y_r - c)(y_s - c)."""
    values = np.asarray(values, dtype=float)
    n = values.size
    w = eta_matrix(sizes)
    x = values - center
    total = 0.0
    for r in range(n):
        for s in range(r + 1, n):
            total += w[r, s] * x[r] * x[s]
    return total / (n * (n - 1) / 2)


def anova_f(groups) -> tuple[float, float, float]:
    """(F, sq_between, sq_within) from the textbook sums of squares."""
    groups = [np.asarray(g, dtype=float) for g in groups]
    n = sum(g.size for g in groups)
    k = len(groups)
    grand = sum(g.sum() for g in groups) / n
    sq_b = sum(g.size * (g.mean() - grand) ** 2 for g in groups)
    sq_e = sum(((g - g.mean()) ** 2).sum() for g in groups)
    return (sq_b / (k - 1)) / (sq_e / (n - k)), sq_b, sq_e


def exact_between_within(values, sizes) -> tuple[Fraction, Fraction]:
    """(B_n, W_n) in exact rational arithmetic from the pair definitions:
    W_n is the size-weighted mean of the within-group pair means and B_n the
    pooled pair mean minus W_n.  Every float converts to a Fraction exactly;
    small multiples of a power of two keep the float path exact as well, so
    the two can be compared."""
    exact = [Fraction(v) for v in values]
    scale = math.lcm(*(f.denominator for f in exact))
    x = [int(f * scale) for f in exact]  # integer pair sums, one division each
    n = len(x)

    def pair_mean(sample):
        pairs = list(itertools.combinations(sample, 2))
        return Fraction(sum((a - b) ** 2 for a, b in pairs), 2 * len(pairs) * scale * scale)

    w_n = Fraction(0)
    start = 0
    for size in sizes:
        w_n += size * pair_mean(x[start : start + size])
        start += size
    w_n /= n
    return pair_mean(x) - w_n, w_n


def exact_permutation_pvalue(values, sizes, assignments=None) -> Fraction:
    """Permutation p-value (1 + #{J >= J_obs}) / (count + 1) in exact
    arithmetic.  J = C(n,2) B_n / (W_n sqrt(M_n)) and sqrt(M_n) depends only
    on the design, so J >= J_obs exactly when B / W >= B_obs / W_obs.
    The observed W_n must be positive; assignments with W_n = 0 never
    count.  ``assignments`` is a sequence of
    index sequences (the pooled order of each rearrangement); when omitted,
    every distinct split of the positions into groups of the given sizes is
    enumerated, the observed one included."""
    values = list(values)
    sizes = list(sizes)
    n = len(values)
    if assignments is None:

        def splits(remaining, rest_sizes):
            if not rest_sizes:
                yield []
                return
            for combo in itertools.combinations(remaining, rest_sizes[0]):
                left = [i for i in remaining if i not in combo]
                for tail in splits(left, rest_sizes[1:]):
                    yield list(combo) + tail

        assignments = list(splits(list(range(n)), sizes))
    b_obs, w_obs = exact_between_within(values, sizes)
    ratio_obs = b_obs / w_obs
    exceed = 0
    for index in assignments:
        b, w = exact_between_within([values[i] for i in index], sizes)
        if w > 0 and b / w >= ratio_obs:
            exceed += 1
    return Fraction(1 + exceed, len(assignments) + 1)


def random_corpus(seed: int, count: int, max_k: int = 12, max_size: int = 10):
    """Randomized datasets (lists of per-group value lists) drawn from a mix
    of normal, heavy-tailed, uniform and shifted-lognormal errors, with
    random group shifts.  Values are kept within +-1000."""
    rng = np.random.default_rng(seed)
    corpus = []
    while len(corpus) < count:
        k = int(rng.integers(2, max_k + 1))
        sizes = rng.integers(2, max_size + 1, size=k)
        shift_scale = rng.choice([0.0, 1.0, 3.0])
        mu = float(rng.uniform(-30.0, 30.0))
        sigma = float(rng.uniform(0.5, 4.0))
        family = int(rng.integers(0, 4))
        groups = []
        for size in sizes:
            loc = mu + shift_scale * float(rng.standard_normal())
            if family == 0:
                errs = rng.standard_normal(size)
            elif family == 1:
                errs = rng.standard_t(3, size)
            elif family == 2:
                errs = rng.uniform(-2.0, 2.0, size)
            else:
                errs = rng.lognormal(0.0, 1.0, size) - math.exp(0.5)
            groups.append((loc + sigma * errs).tolist())
        flat = [v for g in groups for v in g]
        if max(abs(v) for v in flat) <= 1000.0:
            corpus.append(groups)
    return corpus


def reference_run_scenario(spec):
    """(cells, degenerate) of a scenario from the plain per-replicate loop:
    each replicate drawn from its own stream as the engine draws it, then
    one ``Dataset`` and one call of ``u_test``, ``f_test`` or
    ``permutation_pvalue`` per method, in the order the methods are listed."""
    cells, degenerate = [], {}
    for cell_index, gen in enumerate(spec.design_gens):
        fixed = None if spec.redraw_design_per_replicate else gen_design(gen, spec.seed.generator(cell_index))
        for grid_index, sigma_b2 in enumerate(spec.sigma_b2_grid):
            b_spec = spec.b_spec.with_variance(sigma_b2)
            rejected = dict.fromkeys(spec.methods, 0)
            undefined = dict.fromkeys(spec.methods, 0)
            for r in range(spec.replicates):
                rng = spec.seed.generator(cell_index, grid_index, r)
                design = fixed if fixed is not None else gen_design(gen, rng)
                b = sample_noise(b_spec, design.k, rng)
                e = sample_noise(spec.e_spec, design.n, rng)
                ds = Dataset.from_values(spec.mu + np.repeat(b, design.group_sizes) + e, design)
                for method in spec.methods:
                    try:
                        if method == "U":
                            result = u_test(ds, spec.alpha)
                        elif method == "F":
                            result = f_test(ds, spec.alpha)
                        else:
                            result = permutation_pvalue(ds, spec.n_perm, rng, alpha=spec.alpha)
                    except DegenerateWithinVariance:
                        undefined[method] += 1
                    else:
                        rejected[method] += result.reject
            for method in spec.methods:
                rate = rejected[method] / spec.replicates
                cells.append(
                    RejectionCell(spec.name, gen.k, gen.label, sigma_b2, method, rate,
                                  mc_se(rate, spec.replicates), spec.replicates)
                )
                if undefined[method]:
                    degenerate[(spec.name, gen.k, gen.label, sigma_b2, method)] = undefined[method]
    return tuple(cells), degenerate


def reference_read_grouped_csv(path) -> list[tuple[str, list[float]]]:
    """(treatment, values) groups of a long-form CSV in first-appearance
    order, read record by record with ``csv.reader`` and checked line by
    line with the messages of ``uvartest test``; a ``csv.Error`` escapes."""
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    groups: dict[str, list[float]] = {}
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["treatment", "value"]:
            raise InputError(
                f"{path}: expected header 'treatment,value', got {header!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 2:
                if not row:  # a blank line
                    continue
                raise InputError(
                    f"{path}: line {lineno}: expected 2 fields, got {len(row)}"
                )
            treatment, raw_value = row
            if not treatment:
                raise InputError(f"{path}: line {lineno}: empty treatment label")
            try:
                value = float(raw_value)
            except ValueError:
                raise InputError(
                    f"{path}: line {lineno}: value {raw_value!r} is not a number"
                ) from None
            if not math.isfinite(value):
                raise InputError(f"{path}: line {lineno}: value must be finite")
            groups.setdefault(treatment, []).append(value)
    if not groups:
        raise InputError(f"{path}: no observations found")
    for treatment, values in groups.items():
        if len(values) < 2:
            raise InputError(
                f"{path}: treatment {treatment!r} has {len(values)} observation(s); "
                "every treatment needs at least 2"
            )
    if len(groups) < 2:
        raise InputError(f"{path}: need at least 2 treatments, found {len(groups)}")
    return list(groups.items())
